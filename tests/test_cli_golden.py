"""Byte-for-byte `--json` output of the CLI on a fixed set of runs.

The expected outputs in ``golden/cli.json`` were recorded once and are not
regenerated by the suite: any change to them is a change of behaviour.
The runs cover exact real verdicts over Q and over Q[a]/(m) on both
multiplicity routes, the complex Fulton route, the merge of components
from several edges, back-translation of a shifted map, implicitization,
the baseline superset, the degree bound and the intersection multiplicity.
"""

import json
from pathlib import Path

import pytest

from fixtures import BIG_F1, BIG_F2, CURATED, INTRO_F1, INTRO_F2, IRRATIONAL_BOUNDARY
from jelonek.cli import main

NONEMPTY_LINE = CURATED[1][1:3]
# the intro map without its constant terms: the pipeline translates it first
INTRO_SHIFTED = ("2*x1*x2 - x1^2*x2^3", "12*x1*x2 - 10*x1^2*x2^3 + 2*x1^3*x2^5")
EXACT = ["--json", "--seed", "3", "--no-mv-optimization"]

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
    "intro-implicit-baseline":
        ["compute", INTRO_F1, INTRO_F2, "--emit-implicit", "--with-baseline", *EXACT],
    "intro-shifted-real": ["compute", *INTRO_SHIFTED, "--field", "real", *EXACT],
    "bound-intro": ["bound", INTRO_F1, INTRO_F2, "--json"],
    "multiplicity-nonempty-line": ["multiplicity", *NONEMPTY_LINE, "--point", "1,0", "--json"],
    "multiplicity-cusp": ["multiplicity", "x2 - (x1-1)^2", "x2^2 - (x1-1)^3", "--point", "1,0", "--json"],
}

GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_json_matches_recording(capsys, name):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == GOLDEN[name]
