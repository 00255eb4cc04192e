"""Byte-for-byte output of the CLI on a fixed set of runs.

The expected outputs in ``golden/cli.json`` were recorded once and are not
regenerated by the suite: any change to them is a change of behaviour.
The runs cover exact real verdicts over Q and over Q[a]/(m) on both
multiplicity routes, the complex Fulton route, the merge of components
from several edges, back-translation of a shifted map, implicitization,
the baseline superset, the degree bound and the intersection multiplicity,
and every text and `--json` output branch of the CLI.
"""

import json
from pathlib import Path

import pytest

from fixtures import (BIG_F1, BIG_F2, CURATED, INTRO_F1, INTRO_F2, IRRATIONAL_BOUNDARY, MIXED_BOUNDARY,
                      SPLIT_MODULUS)
from jelonek.cli import main

NONEMPTY_LINE = CURATED[1][1:3]
EMPTY_LINE_WITH_REAL_FIBERS = CURATED[2][1:3]
# the first curated map with one more real factor (x1 + 3) in f1
EXTRA_FACTOR = ("1 + x2^2*(x1-1)^2*(x1+2)*(x1+3)", CURATED[0][2])
# the intro map without its constant terms: the pipeline translates it first
INTRO_SHIFTED = ("2*x1*x2 - x1^2*x2^3", "12*x1*x2 - 10*x1^2*x2^3 + 2*x1^3*x2^5")
EXACT = ["--json", "--seed", "3", "--no-mv-optimization"]
# the origin edge along the diagonal gives the parametric curve
# (1 + t + t^2, 2 + t^3), which is not a line
PARAMETRIC = ("1 + x1*x2 + x1^2*x2^2 + x1", "2 + x1^3*x2^3 + x1^2")
# the torus root count equals the mixed volume: the pertinent edges are skipped
MV_SKIPPED = ("3*x1^3 - 3*x1*x2^2 - 3*x2^3 - 1", "3*x1^3 + x1*x2^2 - 2")
# the semi-origin restriction x1^2 - 3 has the irrational real roots +-sqrt(3):
# over R, two lines y2 = 1 + a + a^2 = 4 + a with a^2 = 3
IRRATIONAL_LINES = ("1 + x2*(x1^2 - 3)", "1 + x1 + x1^2")
# the two curves share the line x1 = 0 through the origin
SHARED_COMPONENT = ("x1*x2", "x1*(x1-x2)", "--point", "0,0")
# two parabolas with contact of order 3 at the non-integer point (1/2, 2/3)
TANGENCY = ("x2 - 2/3 - 3/2*(x1 - 1/2)^2",
            "x2 - 2/3 - 3/2*(x1 - 1/2)^2 + 5/4*(x1 - 1/2)^3 + 7/3*(x2 - 2/3)^2", "--point", "1/2,2/3")
# the first curated map with x2 -> x2^4: on its pertinent edge the
# elimination of z2 has operands in z2^8, a remainder sequence with gaps
EVEN_ROW_4 = ("1 + x2^8*(x1-1)^2", "1 + x1*x2^8 + x2^16*(x1-1)^2")
RESULTANT_ROUTE = ["--method", "resultant", "--no-mv-optimization", "--json"]
FULTON_ROUTE = ["--json", "--method", "fulton", "--no-mv-optimization"]

CASES = {
    "irrational-boundary-real-resultant":
        ["compute", *IRRATIONAL_BOUNDARY, "--field", "real", "--method", "resultant", *EXACT],
    "irrational-boundary-real-fulton":
        ["compute", *IRRATIONAL_BOUNDARY, "--field", "real", "--method", "fulton", *EXACT],
    # Fulton over C: dynamic splitting, norm forms and the factor dedup
    "irrational-boundary-complex-fulton":
        ["compute", *IRRATIONAL_BOUNDARY, "--method", "fulton", *EXACT],
    # y1 - 1 from two edges merges; a parametric curve goes through the merge
    "big-real-resultant": ["compute", BIG_F1, BIG_F2, "--field", "real", *EXACT],
    "nonempty-line-real": ["compute", *NONEMPTY_LINE, "--field", "real", *EXACT],
    # confirmed-empty from the scan, with 0 real solutions at the point and
    # at both neighbours
    "extra-factor-real": ["compute", *EXTRA_FACTOR, "--field", "real", *EXACT],
    # confirmed-empty from the scan, with 2 real solutions at all three
    "empty-line-with-real-fibers-real": ["compute", *EMPTY_LINE_WITH_REAL_FIBERS, "--field", "real", *EXACT],
    "intro-implicit-baseline":
        ["compute", INTRO_F1, INTRO_F2, "--emit-implicit", "--with-baseline", *EXACT],
    "intro-shifted-real": ["compute", *INTRO_SHIFTED, "--field", "real", *EXACT],
    "irrational-lines-real": ["compute", *IRRATIONAL_LINES, "--field", "real", "--json"],
    "parametric-text-trace-baseline-implicit":
        ["compute", *PARAMETRIC, "--trace", "--with-baseline", "--emit-implicit"],
    "parametric-implicit": ["compute", *PARAMETRIC, "--json", "--emit-implicit"],
    "mv-skipped-text": ["compute", *MV_SKIPPED],
    "even-row-4-complex-resultant": ["compute", *EVEN_ROW_4, *RESULTANT_ROUTE],
    "even-row-4-real-resultant": ["compute", *EVEN_ROW_4, "--field", "real", *RESULTANT_ROUTE],
    # the Fulton route at rational boundary roots: the linear moduli
    # 30*a + 7 and 3*a - 2 over C, the rational root 1 next to a quadratic
    # modulus over R, and a cubic modulus that splits into a - 1 and a^2 - 3
    "big-complex-fulton": ["compute", BIG_F1, BIG_F2, *FULTON_ROUTE],
    "mixed-boundary-real-fulton": ["compute", *MIXED_BOUNDARY, "--field", "real", *FULTON_ROUTE],
    "split-modulus-complex-fulton": ["compute", *SPLIT_MODULUS, *FULTON_ROUTE],
    "polytope-intro-text": ["polytope", INTRO_F1, INTRO_F2],
    "baseline-intro": ["baseline", INTRO_F1, INTRO_F2, "--json"],
    "mv-check-intro": ["mv-check", INTRO_F1, INTRO_F2, "--json"],
    "bound-intro": ["bound", INTRO_F1, INTRO_F2, "--json"],
    "multiplicity-nonempty-line": ["multiplicity", *NONEMPTY_LINE, "--point", "1,0", "--json"],
    "multiplicity-cusp": ["multiplicity", "x2 - (x1-1)^2", "x2^2 - (x1-1)^3", "--point", "1,0", "--json"],
    "multiplicity-shared-component-text": ["multiplicity", *SHARED_COMPONENT],
    "multiplicity-shared-component": ["multiplicity", *SHARED_COMPONENT, "--json"],
    "multiplicity-rational-tangency-text": ["multiplicity", *TANGENCY],
    "multiplicity-rational-tangency": ["multiplicity", *TANGENCY, "--json"],
}

GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_json_matches_recording(capsys, name):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == GOLDEN[name]
