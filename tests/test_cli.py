"""Command line behavior end to end: formats, exit codes, cache handling."""

import hashlib
import json
import os

import pytest

from abelsym import __version__
from abelsym.abelian import make_group
from abelsym import cache
from abelsym.cache import ReportCache, source_digest
from abelsym import cli
from abelsym.cli import format_torsion, main
from abelsym.exactla import SparseIntMatrix, SpanChecker
from abelsym.relations import (DimensionReport, Variant, build_relations,
                               dimension)
from abelsym.structmaps import delta_sum
from relref import invariant_chains


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


def test_dims_plain_formula_torsion_is_a_usage_error(capsys):
    # the plain closed form has no torsion part; brute force finds 2^10*14
    # on Z/13, so reporting it as trivial would be wrong
    for method in ("formula", "both"):
        code, out, err = run(capsys, "dims", "--group", "13", "--variant",
                             "plain", "--torsion", "--method", method,
                             "--no-cache")
        assert code == 2 and out == "", method
        assert err.startswith("error:") and "torsion" in err, method


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_dims_without_torsion_ignores_cached_torsion(capsys, tmp_path, fmt):
    # default output must not depend on what a --torsion run left in the
    # cache: cold, warm and uncached runs print the same
    argv = ("dims", "--group", "12", "--variant", "minus", "--format", fmt)
    cold_dir, warm_dir = str(tmp_path / "cold"), str(tmp_path / "warm")
    _, cold, _ = run(capsys, *argv, "--cache-dir", cold_dir)
    run(capsys, *argv, "--torsion", "--cache-dir", warm_dir)
    _, warm, _ = run(capsys, *argv, "--cache-dir", warm_dir)
    _, uncached, _ = run(capsys, *argv, "--no-cache")
    assert cold == warm == uncached
    assert "2^5" not in warm and "[2, 2" not in warm


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


def test_verify_delta_failing_probe(capsys, monkeypatch):
    # with every span query refused, each probe with a nonzero sum fails
    # and the first such key is the counterexample
    monkeypatch.setattr(SpanChecker, "contains", lambda self, row: False)
    basis = build_relations(make_group((7,)), 2, Variant.PLAIN).basis
    first = next(key for key in basis if not delta_sum(key).is_zero())
    assert repr(first) == "<(0), (1)>"
    code, out, _ = run(capsys, "verify", "--check", "delta", "--group",
                       "7", "--no-cache")
    assert code == 1
    assert out.splitlines() == [
        "[FAIL] delta-span group=7 n=2 lhs=0 rhs=27 counterexample=<(0), "
        "(1)>", "FAILED: 0/1 checks passed"]
    code, out, _ = run(capsys, "verify", "--check", "delta", "--group",
                       "7", "--format", "json", "--no-cache")
    assert code == 1
    assert json.loads(out) == {
        "checks": [{"check": "delta-span", "group": "7", "n": 2,
                    "status": "fail", "lhs": 0, "rhs": 27,
                    "counterexample": "<(0), (1)>"}],
        "group": "7", "n": 2, "ok": False}


def test_verify_delta_builds_one_factorization(capsys, monkeypatch):
    # at n = 3 a sign sum is sigma-invariant only for some keys: a checker
    # that will meet one that is not factors the full matrix alone, where
    # one whose first miss was invariant used to build the half first
    checkers = []

    class Recorded(SpanChecker):
        def __init__(self, matrix):
            super().__init__(matrix)
            checkers.append(self)

    monkeypatch.setattr(cli, "SpanChecker", Recorded)
    built = []
    for chain in invariant_chains(16):
        group = make_group(chain)
        system = build_relations(group, 3, Variant.PLAIN)
        if system.rel._sigma is None:
            continue
        full = SpanChecker(SparseIntMatrix.trusted(system.rel.ncols,
                                                   system.rel.rows))
        images = [delta_sum(key) for key in system.basis]
        lhs = sum(im.is_zero() or full.contains(system.vector(im))
                  for im in images)
        code, out, _ = run(capsys, "verify", "--check", "delta", "--group",
                           group.literal(), "--n", "3", "--no-cache")
        assert code == 0 and out.splitlines() == [
            "[PASS] delta-span group=%s n=3 lhs=%d rhs=%d"
            % (group.literal(), lhs, len(system.basis)),
            "ok: 1/1 checks passed"], chain
        checker = checkers.pop()
        assert not checkers
        assert (checker._half is None) != (checker._full is None), chain
        built.append(checker._full is not None)
    # each of these groups has an n = 3 sign sum that sigma moves
    assert len(built) == 20 and all(built)


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


# SHA-256 of the stdout of each command, run with --no-cache, frozen at the
# commit before the formal sums moved onto code tuples
DEFAULT_OUTPUT_SHA256 = (
    ("dims --group 9 --variant minus --torsion",
     "23200ea1180c9e215539c2607c2dbd1ff2b00c9a33102e16fb5c7c6b91bccba8"),
    ("dims --group 3x9 --format json",
     "e84de04338ca60367aabdbad594cc07f48a69ecb388449a343236725d31612e7"),
    ("dims --group 2x4 --variant minus --method both --torsion --format csv",
     "5e96bf70046ac0547939977d7a5c795dffa0b0c0bbde682310a715b44e1844fd"),
    ("dims --group 7 --n 3",
     "3490d28e230cfd46459359ade7a9433bae3fd61f909f4575ae70437495241fac"),
    ("table --family cyclic --start 5 --stop 12",
     "e4b919bc3bab7251ae4e1934c3bbe76ac6e186f3ec3416361cacd046a747458f"),
    ("table --family bicyclic --stop 36 --format json",
     "47b4109cf3e58b093920c384d2a38999c8e39aa2663710d6d22fd23e1df2f28b"),
    ("table --family pxp --format csv",
     "70c7df57da125f4ed53887edb6605f48241062712491f9e1a204119556aeeb4c"),
    ("verify --check delta --group 9",
     "b3ef564ac9f8d3a08c38221d1972bb2a51b01cf35c2204856a65fec851581350"),
    ("verify --check delta --group 5x5 --format json",
     "6d4d7be8e40142dc38e8c0b71f9dc1b0fdfc751edec8e523cf8a725e7e9abaf8"),
    ("verify --check delta --group 2x4 --n 3 --format json",
     "ca072daef55ce80637055123074eeea3c4ed3f17644752cb735093728d93710e"),
    ("verify --check delta --group 6 --n 3 --format csv",
     "38f8bc122ee41d3f3350d9f74c1959e8919dac1b736f9af10a9d822c600b9d2d"),
    ("verify --check kernel --group 9",
     "91f17a8926386ca566b2ab64ac11247d1fa93acf64d404146a18e310a118cfe5"),
    ("verify --check kernel --group 2x4 --format json",
     "650b495121b893288adaf14bfacd70e739cd5497a70d0c2cae56738876c971ed"),
    ("verify --check kernel --group 3x3 --n 3 --format csv",
     "b95a1e421595199713a63a99c6b923af5f49f3f441d08269004d00035e7a87aa"),
    ("verify --check comult --group 9",
     "42c0ee05c3e32756f30615bf14a256b1eb2e6330e379d20b5e870b12d35c4e0c"),
    ("verify --check comult --group 2x4 --n 3 --format json",
     "73bd905e0e4f380f80ede6ae0184a68436a0ea96ff480a10c7eafd6164f7566c"),
    ("verify --check comult --group 5x5 --format csv",
     "3ae86468bef64b84706b2d2cbc68dc98b5846089cc661669032bd1359de1fa15"),
    ("verify --check manin --level 3,1",
     "d943fc24f4799c9b161c37e941e677adeb4471424e89ebdcc20d24abe50ca9df"),
    ("verify --check manin --level 2,4 --format json",
     "bc4d1362b9b9a8017b2e293663a50af558cb23e222104ee62e3ea1f05f24a683"),
    ("verify --check iso --level 2,3",
     "7fef05601d545973cf068ec5705efaed1af5f78a05a3d0a3fb4edef322bdd497"),
    ("verify --check iso --level 3,1 --format csv",
     "872d5ff3d8da8c44a99b01fcdf46cddf99a80e3f40d4c35d1d247b5e637cb7f5"),
    ("verify --check grading --group 3x3",
     "609da9d041dca225effe61dc4e765afe2815f9bfe2da3244323c50c20cca4ebc"),
    ("verify --check formulas --group 2x4",
     "5f3795aba4cd162820774e7fec04b99322e2cfd1d98ba3f5985b8fc383daa7ff"),
    ("verify --check grading --group 3x6 --format json",
     "7590f379b423b7d12f12daeaf770f344703a943dd4d22d84bcbc5c7e68817aa3"),
)


def test_default_output_pinned(capsys):
    for command, digest in DEFAULT_OUTPUT_SHA256:
        main(command.split() + ["--no-cache"])
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


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
    # the library's ValueError on bad input is a usage error, in both formats
    for argv in ([["verify", "--check", c, "--group", "9", "--n", "1"]
                  for c in ("kernel", "comult", "delta")]
                 + [["table", "--family", "pxp", "--primes", p]
                    for p in ("0", "200", "4", "1")]
                 + [["table", "--family", "cyclic", "--stop", "100000"]]
                 + [["table", "--family", f, "--start", "50", "--stop", "10"]
                    for f in ("cyclic", "bicyclic")]):
        code, out, err = run(capsys, *argv, "--no-cache")
        assert code == 2 and out == "" and err.startswith("error: "), argv
        if argv[0] == "verify":     # each battery names the n it needs
            assert "n >= 2" in err, argv
        if "--primes" in argv:      # a non-prime is named
            assert "%s is not prime" % argv[-1] in err, argv
        code, out, _ = run(capsys, *argv, "--format", "json", "--no-cache")
        assert code == 2 and "error" in json.loads(out), argv


def test_bound_exit_code(capsys):
    code, _, err = run(capsys, "dims", "--group", "5x25", "--enum-bound",
                       "100", "--no-cache")
    assert code == 3
    assert "bound" in err


def test_snf_bound_exit_code(capsys):
    # the minus variant hands the engine 12 folded rows over 12 sign
    # classes, each blowup row built once; the bound is checked on that
    # matrix as built
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



@pytest.mark.parametrize("level, bound, shape", [("7,2", 100, "168x252"),
                                                 ("2,8", 40, "52x56")])
def test_iso_snf_bound_exit_code(capsys, level, bound, shape):
    # the coset fold's Smith form runs first, so the bound names its shape:
    # kept split rows by turn orbits, the swap joined in at N = 2
    code, out, err = run(capsys, "verify", "--check", "iso", "--level",
                         level, "--snf-bound", str(bound), "--no-cache")
    assert code == 3 and out == ""
    assert err == ("error: smith_normal_form bound exceeded: %s > %d\n"
                   % (shape, bound))

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


def test_cache_entries_are_checked_by_source_digest(capsys, tmp_path,
                                                    monkeypatch):
    # an entry stored under one digest of the sources misses under another
    store = ReportCache(str(tmp_path / "direct"))
    rep = dimension(make_group((9,)), 2, Variant.MINUS)
    monkeypatch.setattr(cache, "source_digest", lambda: "a" * 64)
    store.store(rep)
    assert store.load(rep.group, 2, Variant.MINUS, "BRUTE").dim_q == rep.dim_q
    monkeypatch.setattr(cache, "source_digest", lambda: "b" * 64)
    assert store.load(rep.group, 2, Variant.MINUS, "BRUTE") is None
    monkeypatch.undo()
    assert len(source_digest()) == 64 and source_digest() is source_digest()

    # a warm dims run is served by the cache and prints the same
    argv = ("dims", "--group", "9", "--variant", "minus", "--torsion",
            "--cache-dir", str(tmp_path / "cli"))
    _, first, _ = run(capsys, *argv)
    payload = json.loads(next((tmp_path / "cli").iterdir()).read_text())
    assert payload["source"] == source_digest()

    def refuse(*args, **kwargs):
        raise AssertionError("a warm run must not recompute")
    monkeypatch.setattr(cli, "dimension", refuse)
    _, second, _ = run(capsys, *argv)
    assert second == first


def test_format_torsion():
    assert format_torsion(()) == "trivial"
    assert format_torsion((2, 2, 2, 2, 2)) == "2^5"
    assert format_torsion((2, 2, 4)) == "2^2*4"
    assert format_torsion((3,)) == "3"
