"""Command line behavior end to end: formats, exit codes, cache handling."""

import json
import os

import pytest

from abelsym import __version__
from abelsym.abelian import make_group
from abelsym.cache import ReportCache
from abelsym import cli
from abelsym.cli import format_torsion, main
from abelsym.relations import DimensionReport, Variant, dimension


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_both_methods_agree(capsys, tmp_path):
    code, out, _ = run(capsys, "dims", "--group", "9", "--variant", "minus",
                       "--method", "both", "--torsion",
                       "--cache-dir", str(tmp_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "methods agree"
    assert "method=BRUTE" in lines[0] and "dim=1" in lines[0]
    assert "torsion=2^5" in lines[0]
    assert "method=FORMULA" in lines[1] and "dim=1" in lines[1]


def test_dims_plain_values(capsys):
    code, out, _ = run(capsys, "dims", "--group", "3x9", "--no-cache")
    assert code == 0
    assert "dim=37" in out
    code, out, _ = run(capsys, "dims", "--group", "2x2x2", "--no-cache")
    assert code == 0
    assert "dim=0" in out and "generators=0" in out


def test_dims_json_round_trip(capsys):
    code, out, _ = run(capsys, "dims", "--group", "9", "--variant", "minus",
                       "--torsion", "--format", "json", "--no-cache")
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 1 and obj["torsion"] == [2, 2, 2, 2, 2]
    assert obj["ms"] == 0.0  # zeroed without --timings
    rep = DimensionReport.from_json(obj)
    assert rep.dim_q == 1 and rep.variant is Variant.MINUS

    code, out, _ = run(capsys, "dims", "--group", "9", "--method", "both",
                       "--format", "json", "--no-cache")
    both = json.loads(out)
    assert isinstance(both, list) and len(both) == 2
    assert both[0]["dim"] == both[1]["dim"] == 5


def test_dims_csv(capsys):
    code, out, _ = run(capsys, "dims", "--group", "12", "--variant",
                       "minus", "--torsion", "--format", "csv",
                       "--no-cache")
    assert code == 0
    header, row = out.splitlines()
    assert header == "group,n,variant,method,dim,torsion,generators,ms"
    assert row.startswith("12,2,minus,BRUTE,2,2^5,")


def test_dims_formula_out_of_range(capsys):
    code, _, err = run(capsys, "dims", "--group", "9", "--n", "3",
                       "--method", "formula", "--no-cache")
    assert code == 2
    assert err.startswith("error:")


def test_dims_deterministic_output(capsys, tmp_path):
    argv = ("dims", "--group", "9", "--variant", "minus", "--torsion",
            "--cache-dir", str(tmp_path))
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)  # second run is served by the cache
    assert first == second


def test_dims_timings_flag(capsys):
    _, out, _ = run(capsys, "dims", "--group", "5", "--no-cache")
    assert "ms=" not in out
    _, out, _ = run(capsys, "dims", "--group", "5", "--no-cache",
                    "--timings")
    assert "ms=" in out


def test_table_cyclic_text(capsys, tmp_path):
    code, out, _ = run(capsys, "table", "--family", "cyclic", "--start",
                       "2", "--stop", "9", "--cache-dir", str(tmp_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["group", "d", "d_minus"]
    assert len(lines) == 9
    assert lines[-1].split() == ["9", "5", "1"]
    assert lines[1].split() == ["2", "0", "0"]


def test_table_pxp_csv(capsys):
    code, out, _ = run(capsys, "table", "--family", "pxp", "--format",
                       "csv", "--no-cache")
    assert code == 0
    assert out.splitlines() == ["group,dim,dim_minus", "5x5,46,22",
                                "7x7,159,87"]


def test_table_bicyclic_json(capsys, tmp_path):
    code, out, _ = run(capsys, "table", "--family", "bicyclic", "--stop",
                       "16", "--format", "json", "--cache-dir",
                       str(tmp_path))
    assert code == 0
    body = json.loads(out)
    assert body["family"] == "bicyclic"
    rows = {r["group"]: (r["dim"], r["dim_minus"]) for r in body["rows"]}
    assert rows == {"2x2": (0, 0), "2x4": (2, 0), "2x6": (3, 0),
                    "2x8": (6, 1), "3x3": (7, 3)}


def test_verify_kernel(capsys):
    code, out, _ = run(capsys, "verify", "--check", "kernel", "--group",
                       "9", "--no-cache")
    assert code == 0
    assert out.splitlines()[-1] == "ok: 3/3 checks passed"


def test_verify_delta(capsys):
    code, out, _ = run(capsys, "verify", "--check", "delta", "--group",
                       "7", "--no-cache")
    assert code == 0
    assert "[PASS] delta-span group=7 n=2 lhs=27 rhs=27" in out


def test_verify_comult(capsys):
    code, out, _ = run(capsys, "verify", "--check", "comult", "--group",
                       "9", "--no-cache")
    assert code == 0
    assert "comultiplication-relations" in out


def test_verify_manin_levels(capsys):
    code, out, _ = run(capsys, "verify", "--check", "manin", "--level",
                       "3,1", "--no-cache")
    assert code == 0
    assert out.splitlines()[-1] == "ok: 4/4 checks passed"
    code, out, _ = run(capsys, "verify", "--check", "manin", "--level",
                       "2,4", "--no-cache")
    assert code == 0
    assert out.splitlines()[-1] == "ok: 5/5 checks passed"


def test_verify_manin_level2_json(capsys):
    # the genus-euler check compares Fractions, which JSON cannot encode
    code, out, _ = run(capsys, "verify", "--check", "manin", "--level",
                       "2,4", "--format", "json", "--no-cache")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert [c["check"] for c in obj["checks"]] == [
        "coset-count", "lift-round-trip", "genus-euler", "minus-dimension",
        "fixed-cusps"]
    # the genus and its Euler count are integers here, written as numbers
    euler = obj["checks"][2]
    assert (euler["lhs"], euler["rhs"]) == (0, 0)
    assert type(euler["lhs"]) is int and type(euler["rhs"]) is int


def test_verify_manin_level2_error_record(capsys, monkeypatch):
    def broken(m, **kwargs):
        raise AssertionError("x")

    monkeypatch.setattr(cli, "level2_consistency", broken)
    code, out, _ = run(capsys, "verify", "--check", "manin", "--level",
                       "2,3", "--format", "json", "--no-cache")
    assert code == 1
    record = json.loads(out)["checks"][-1]
    assert record == {"check": "level2-consistency", "group": "2x6", "n": 2,
                      "status": "fail", "lhs": "error", "rhs": "pass",
                      "counterexample": "x"}
    code, out, _ = run(capsys, "verify", "--check", "manin", "--level",
                       "2,3", "--format", "csv", "--no-cache")
    assert out.splitlines()[-1] == (
        'level2-consistency,2x6,2,fail,"error","pass","x"')


def test_verify_grading(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "--check", "grading", "--group",
                       "4x8", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "grading-identity" in out and "lhs=17 rhs=17" in out
    code, _, err = run(capsys, "verify", "--check", "grading", "--group",
                       "2x4", "--no-cache")
    assert code == 2
    assert "N >= 3" in err


def test_verify_cusps_honest_failure(capsys):
    code, out, _ = run(capsys, "verify", "--check", "cusps", "--level",
                       "3,2", "--no-cache")
    assert code == 1
    assert "[FAIL] cusp-count" in out and "lhs=6 rhs=8" in out
    assert out.splitlines()[-1] == "FAILED: 0/1 checks passed"

    # at (2, 5) the formula is not even integral
    code, out, _ = run(capsys, "verify", "--check", "cusps", "--level",
                       "2,5", "--no-cache")
    assert code == 1
    assert "not an integer" in out


def test_verify_cusps_error_record(capsys):
    code, out, _ = run(capsys, "verify", "--check", "cusps", "--level",
                       "2,5", "--format", "json", "--no-cache")
    assert code == 1
    assert out == (
        '{"checks": [{"check": "cusp-count", "counterexample": '
        '"closed-form cusp count is not an integer at level (2, 5): 36/5", '
        '"group": "2x10", "lhs": "error", "n": 2, "rhs": 12, '
        '"status": "fail"}], "group": "2x10", "n": 2, "ok": false}\n')


def test_verify_formulas(capsys):
    code, out, _ = run(capsys, "verify", "--check", "formulas", "--group",
                       "9", "--no-cache")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--check", "formulas", "--group",
                       "2x4", "--no-cache")
    assert code == 1
    assert "[FAIL] minus-torsion" in out
    assert "lhs=[2, 2, 2] rhs=[]" in out


def test_verify_iso(capsys):
    code, out, _ = run(capsys, "verify", "--check", "iso", "--level",
                       "2,3", "--no-cache")
    assert code == 0
    assert "iso-dimension" in out and "iso-torsion" in out


def test_verify_json_and_csv(capsys):
    code, out, _ = run(capsys, "verify", "--check", "kernel", "--group",
                       "9", "--format", "json", "--no-cache")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True and obj["group"] == "9"
    assert {c["check"] for c in obj["checks"]} == {
        "kernel-dimension", "nu-psi-identity", "psi-nu-projection"}

    code, out, _ = run(capsys, "verify", "--check", "cusps", "--level",
                       "3,2", "--format", "csv", "--no-cache")
    assert code == 1
    header, row = out.splitlines()
    assert header == "check,group,n,status,lhs,rhs,counterexample"
    assert row.startswith("cusp-count,3x6,2,fail,6,8")

    code, out, _ = run(capsys, "verify", "--check", "cusps", "--level",
                       "3,2", "--format", "json", "--no-cache")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_usage_errors(capsys):
    code, _, err = run(capsys, "dims", "--group", "3y9", "--no-cache")
    assert code == 2 and err.startswith("error:") and "3y9" in err

    code, out, _ = run(capsys, "dims", "--group", "3y9", "--format",
                       "json", "--no-cache")
    assert code == 2
    assert "error" in json.loads(out)

    code, _, err = run(capsys, "verify", "--check", "manin", "--no-cache")
    assert code == 2 and "--level" in err
    code, _, err = run(capsys, "verify", "--check", "kernel", "--no-cache")
    assert code == 2 and "--group" in err
    code, _, err = run(capsys, "verify", "--check", "manin", "--level",
                       "1,1", "--no-cache")
    assert code == 2
    code, _, err = run(capsys, "dims", "--group", "9", "--n", "0",
                       "--no-cache")
    assert code == 2


def test_bound_exit_code(capsys):
    code, _, err = run(capsys, "dims", "--group", "5x25", "--enum-bound",
                       "100", "--no-cache")
    assert code == 3
    assert "bound" in err


def test_snf_bound_exit_code(capsys):
    # the minus variant hands the engine 12 folded rows over 12 sign
    # classes, each blowup row built once; the bound is checked on that
    # matrix as built, before any contraction
    code, out, err = run(capsys, "dims", "--group", "9", "--variant",
                         "minus", "--torsion", "--snf-bound", "11",
                         "--no-cache")
    assert code == 3 and out == ""
    assert err == "error: smith_normal_form bound exceeded: 12x12 > 11\n"


def test_minus_enum_bound_exit_code(capsys):
    # the sign-class walk keeps the |G|^n check and its message
    code, out, err = run(capsys, "dims", "--group", "5x25", "--variant",
                         "minus", "--enum-bound", "100", "--no-cache")
    assert code == 3 and out == ""
    assert err == ("error: enumeration size |G|^n = 15625 exceeds the "
                   "bound 100\n")



@pytest.mark.parametrize("level, shape", [("7,2", "2016x1008"),
                                          ("2,8", "1152x384")])
def test_iso_snf_bound_exit_code(capsys, level, shape):
    # the Manin space's Smith form runs first, so the bound names its shape
    code, out, err = run(capsys, "verify", "--check", "iso", "--level",
                         level, "--snf-bound", "100", "--no-cache")
    assert code == 3 and out == ""
    assert err == ("error: smith_normal_form bound exceeded: %s > 100\n"
                   % shape)

@pytest.mark.parametrize("method", ["brute", "both"])
def test_dims_plus_beyond_length_one_is_a_usage_error(capsys, method):
    code, out, err = run(capsys, "dims", "--group", "9", "--variant",
                         "plus", "--method", method, "--no-cache")
    assert code == 2 and out == ""
    assert err == "error: the plus variant is defined only for n = 1\n"


def test_argparse_rejections():
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # --check is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["dims", "--group", "9", "--variant", "spam"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["table", "--family", "pxp", "--jobs", "2"])  # no such option
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_cache_file_lifecycle(capsys, tmp_path):
    cachedir = tmp_path / "cache"
    argv = ("dims", "--group", "9", "--variant", "minus", "--torsion",
            "--cache-dir", str(cachedir))
    _, first, _ = run(capsys, *argv)
    name = "dims-9-n2-minus-brute-v%s.json" % __version__
    path = cachedir / name
    assert path.exists()
    payload = json.loads(path.read_text())
    assert payload["version"] == __version__
    assert payload["torsion_included"] is True

    # corruption is treated as a miss and silently repaired
    path.write_text("{ not json")
    _, again, _ = run(capsys, *argv)
    assert again == first
    assert json.loads(path.read_text())["version"] == __version__

    # a stale version is also a miss
    payload["version"] = "0.0.0"
    path.write_text(json.dumps(payload))
    _, again, _ = run(capsys, *argv)
    assert again == first
    assert json.loads(path.read_text())["version"] == __version__


def test_cache_torsion_escalation(capsys, tmp_path):
    cachedir = str(tmp_path)
    # first run without torsion caches a torsion-free payload
    run(capsys, "dims", "--group", "9", "--variant", "minus",
        "--cache-dir", cachedir)
    # asking for torsion later must recompute, not serve the stale entry
    _, out, _ = run(capsys, "dims", "--group", "9", "--variant", "minus",
                    "--torsion", "--cache-dir", cachedir)
    assert "torsion=2^5" in out


def test_no_cache_flag_writes_nothing(capsys, tmp_path):
    run(capsys, "dims", "--group", "5", "--cache-dir", str(tmp_path),
        "--no-cache")
    assert list(tmp_path.iterdir()) == []


def test_cache_env_var_default(capsys, tmp_path, monkeypatch):
    target = tmp_path / "envcache"
    monkeypatch.setenv("ABELSYM_CACHE_DIR", str(target))
    run(capsys, "dims", "--group", "5")
    assert any(p.suffix == ".json" for p in target.iterdir())


def test_report_cache_direct_api(tmp_path):
    cache = ReportCache(str(tmp_path))
    rep = dimension(make_group((9,)), 2, Variant.MINUS)
    assert cache.load(rep.group, 2, Variant.MINUS, "BRUTE") is None
    cache.store(rep)
    back = cache.load(rep.group, 2, Variant.MINUS, "BRUTE")
    assert back.dim_q == rep.dim_q
    # stored without torsion: a torsion-requiring load misses
    assert cache.load(rep.group, 2, Variant.MINUS, "BRUTE",
                      want_torsion=True) is None
    disabled = ReportCache(str(tmp_path), enabled=False)
    assert disabled.load(rep.group, 2, Variant.MINUS, "BRUTE") is None


def test_format_torsion():
    assert format_torsion(()) == "trivial"
    assert format_torsion((2, 2, 2, 2, 2)) == "2^5"
    assert format_torsion((2, 2, 4)) == "2^2*4"
    assert format_torsion((3,)) == "3"
