"""CLI behavior: commands, exit codes, JSON schema, determinism."""

import json
import runpy

import pytest

from jelonek.cli import main
from jelonek.parsing import parse_polynomial
from jelonek.poly import SparsePoly

INTRO = ["1 + 2*x1*x2 - x1^2*x2^3", "5 + 12*x1*x2 - 10*x1^2*x2^3 + 2*x1^3*x2^5"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_human(capsys):
    code, out, _ = run(capsys, ["compute"] + INTRO + ["--field", "real"])
    assert code == 0
    assert "component: 2*y1 - y2 + 3 = 0" in out
    assert "real: nonempty" in out


def test_compute_json_roundtrip_and_determinism(capsys):
    code, out1, _ = run(capsys, ["compute"] + INTRO + ["--json", "--seed", "5"])
    assert code == 0
    code, out2, _ = run(capsys, ["compute"] + INTRO + ["--json", "--seed", "5"])
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["version"] == "1.0"
    assert doc["translation"] == [0, 0]
    assert doc["components"]
    for comp in doc["components"]:
        assert comp["kind"] in ("vertical-line", "horizontal-line", "general-curve", "parametric-curve")
        if "defining" in comp:
            reparsed = parse_polynomial(comp["defining"], allowed=("y1", "y2", "a"))
            assert isinstance(reparsed, SparsePoly)
            assert str(reparsed) == comp["defining"]
        for prov in comp["provenance"]:
            assert "edge" in prov and "flags" in prov["edge"]


def test_trace_lists_every_edge(capsys):
    code, out, _ = run(capsys, ["compute"] + INTRO + ["--trace", "--json"])
    doc = json.loads(out)
    assert "edges" in doc
    flags = doc["edges"][0]["flags"]
    for k in ("long", "short", "pertinent", "semi_origin", "origin", "infinity"):
        assert k in flags
    for e in doc["edges"]:
        fl = e["flags"]
        assert fl["long"] != fl["short"]
        if fl["pertinent"]:
            assert fl["long"] and not fl["semi_origin"]
        if fl["origin"]:
            assert fl["semi_origin"]


def test_exit_codes(capsys):
    code, _, err = run(capsys, ["compute", "x1", "x1"])
    assert code == 2
    code, _, err = run(capsys, ["compute", "x1 +* 3", "x2"])
    assert code == 3
    code, _, err = run(capsys, ["compute", "x1^(-1)", "x2"])
    assert code == 3
    code, _, err = run(capsys, ["compute", "x3 + 1", "x2"])
    assert code == 3


def test_baseline_command(capsys):
    code, out, _ = run(capsys, ["baseline"] + INTRO)
    assert code == 0
    assert "squarefree:" in out


def test_polytope_command(capsys):
    code, out, _ = run(capsys, ["polytope"] + INTRO + ["--json"])
    doc = json.loads(out)
    assert doc["mixed_volume"] == 2
    assert doc["sum"] == [[0, 0], [2, 2], [5, 8], [3, 5]]


def test_mv_check_command(capsys):
    code, out, _ = run(capsys, ["mv-check"] + INTRO)
    assert code == 0 and out.strip() == "false"
    code, out, _ = run(capsys, ["mv-check", INTRO[0], INTRO[0]])
    assert out.strip() == "indeterminate"


def test_bound_command(capsys):
    code, out, _ = run(capsys, ["bound"] + INTRO)
    assert code == 0 and out.strip() == "39/5"


def test_multiplicity_command(capsys):
    code, out, _ = run(capsys, ["multiplicity", "x2 - x1^2", "x2", "--point", "0,0"])
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, ["multiplicity", "x1*x2", "x1*x2 + x1^3", "--point", "0,0"])
    assert out.strip() == "infinity"
    # the zero polynomial contains every curve, but F = x1 misses (1, 0)
    code, out, _ = run(capsys, ["multiplicity", "x1", "0", "--point", "1,0"])
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, ["multiplicity", "x1 - 1", "0", "--point", "1,0"])
    assert code == 0 and out.strip() == "infinity"


# runpy warns that it runs a module the package has already imported
@pytest.mark.filterwarnings("ignore:'jelonek.cli' found in sys.modules:RuntimeWarning")
def test_module_entry_point(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["jelonek", "bound"] + INTRO)
    with pytest.raises(SystemExit) as done:
        runpy.run_module("jelonek.cli", run_name="__main__")
    assert done.value.code == 0
    assert capsys.readouterr().out.strip() == "39/5"


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(INTRO) + "\n"))
    code, out, _ = run(capsys, ["bound", "--stdin"])
    assert code == 0 and out.strip() == "39/5"


def test_undetermined_components_reported(capsys):
    # a map whose pertinent component has algebraic data beyond the scan's
    # scope must surface as undetermined, never disappear
    code, out, _ = run(capsys, ["compute"] + INTRO + ["--field", "real", "--json"])
    doc = json.loads(out)
    assert all(c["realness"] in ("confirmed-nonempty", "confirmed-empty", "undetermined")
               for c in doc["components"])
