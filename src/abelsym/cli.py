"""Command line front end: dimension reports, tables, verification suites.

Exit codes: 0 success, 1 verification failure (including a brute/formula
mismatch under `dims --method both`), 2 usage error, 3 resource bound hit.
Default output is byte-identical across runs for a fixed configuration and
version; wall-clock fields are zeroed unless --timings is given.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .abelian import make_group, parse_group
from .arith import prime_factors, totient
from .cache import ReportCache
from .congruence import (coset_index, coset_of, cusp_formula,
                         cusp_orbit_count, enumerate_cosets, genus,
                         iso_check, level2_consistency, lift_coset,
                         manin_space)
from .exactla import BoundExceeded, DEFAULT_SNF_BOUND, SpanChecker
from .relations import (Variant, build_relations, dimension,
                        dimension_graded, formula_dimension)
from .structmaps import (VerificationReport, check_record, delta_sum,
                         verify_comultiplication, verify_kernel_iso)
from .symbols import DEFAULT_ENUM_BOUND, det_classes

# The bi-cyclic groups whose n = 2 dimensions the library reproduces as a
# reference table, as invariant-factor pairs (N1, N2) with N1 | N2.
BICYCLIC_ROWS = ((2, 2), (2, 4), (2, 6), (2, 8), (2, 10), (2, 16),
                 (3, 3), (3, 6), (3, 9), (3, 27),
                 (4, 8), (4, 16), (4, 32), (5, 25), (6, 36))


class UsageError(Exception):
    pass


class RunConfig:
    """Validated run parameters shared by every subcommand."""

    __slots__ = ("command", "group", "n", "variant", "method", "fmt",
                 "cache", "enum_bound", "snf_bound", "timings", "torsion",
                 "level", "check", "family", "start", "stop", "primes")

    def __init__(self, args):
        self.command = args.command
        self.fmt = args.fmt
        self.enum_bound = args.enum_bound
        self.snf_bound = args.snf_bound
        self.timings = args.timings
        if self.enum_bound < 1 or self.snf_bound < 1:
            raise UsageError("bounds must be positive integers")
        self.cache = ReportCache(args.cache_dir, enabled=not args.no_cache)

        self.group = None
        if getattr(args, "group", None) is not None:
            try:
                self.group = parse_group(args.group)
            except ValueError as exc:
                raise UsageError(str(exc)) from None
        self.n = getattr(args, "n", 2)
        if self.n < 1:
            raise UsageError("--n must be >= 1")
        self.variant = Variant.parse(getattr(args, "variant", "plain"))
        self.method = getattr(args, "method", "brute")
        self.torsion = getattr(args, "torsion", False)
        self.check = getattr(args, "check", None)
        self.family = getattr(args, "family", None)
        self.start = getattr(args, "start", None)
        self.stop = getattr(args, "stop", None)

        self.level = None
        if getattr(args, "level", None) is not None:
            parts = args.level.split(",")
            try:
                pair = tuple(int(p) for p in parts)
            except ValueError:
                pair = ()
            if len(pair) != 2 or pair[0] < 2 or pair[1] < 1:
                raise UsageError(
                    "--level expects 'N,M' with N >= 2, M >= 1")
            self.level = pair

        self.primes = ()
        if getattr(args, "primes", None):
            try:
                self.primes = tuple(int(p) for p in args.primes.split(","))
            except ValueError:
                raise UsageError("--primes expects a comma-separated list "
                                 "of integers") from None
            for p in self.primes:
                if p < 2 or prime_factors(p) != [p]:
                    raise UsageError("--primes expects primes; %d is not "
                                     "prime" % p)


def format_torsion(torsion):
    """Compact multiplicative form: (2,2,2,2,2) -> '2^5', () -> 'trivial'."""
    if not torsion:
        return "trivial"
    runs = []
    for d in torsion:
        if runs and runs[-1][0] == d:
            runs[-1][1] += 1
        else:
            runs.append([d, 1])
    return "*".join("%d^%d" % (d, k) if k > 1 else "%d" % d
                    for d, k in runs)


def _print(lines):
    sys.stdout.write("\n".join(lines) + "\n")


def _emit_error(fmt, message):
    if fmt == "json":
        sys.stdout.write(json.dumps({"error": str(message)},
                                    sort_keys=True) + "\n")
    else:
        sys.stderr.write("error: %s\n" % message)


# -- dims ---------------------------------------------------------------------

def _brute_report(config, group, n, variant, graded=False):
    """Cached brute-force report, computed and stored on a miss."""
    cached = config.cache.load(group, n, variant, "BRUTE",
                               want_torsion=config.torsion)
    if cached is not None:
        return cached
    if graded:
        report = dimension_graded(group, variant,
                                  want_torsion=config.torsion,
                                  enum_bound=config.enum_bound,
                                  snf_bound=config.snf_bound)
    else:
        report = dimension(group, n, variant,
                           want_torsion=config.torsion,
                           enum_bound=config.enum_bound,
                           snf_bound=config.snf_bound)
    config.cache.store(report, torsion_included=config.torsion)
    return report


def cmd_dims(config):
    methods = (["brute", "formula"] if config.method == "both"
               else [config.method])
    reports = []
    for method in methods:
        try:
            if method == "formula":
                reports.append(formula_dimension(
                    config.group, config.n, config.variant,
                    want_torsion=config.torsion))
            else:
                reports.append(_brute_report(config, config.group, config.n,
                                             config.variant))
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    for rep in reports:     # shown only on request, cached or not
        if not config.timings:
            rep.ms = 0.0
        if not config.torsion:
            rep.torsion = ()
    agree = True
    if len(reports) == 2:
        agree = ((reports[0].dim_q, reports[0].torsion)
                 == (reports[1].dim_q, reports[1].torsion))

    if config.fmt == "json":
        body = [r.to_json() for r in reports]
        _print([json.dumps(body[0] if len(body) == 1 else body,
                           sort_keys=True)])
    elif config.fmt == "csv":
        lines = ["group,n,variant,method,dim,torsion,generators,ms"]
        for r in reports:
            lines.append("%s,%d,%s,%s,%d,%s,%d,%s" % (
                r.group.literal(), r.n, r.variant.value, r.method,
                r.dim_q, format_torsion(r.torsion), r.generator_count,
                r.ms))
        _print(lines)
    else:
        lines = []
        for r in reports:
            bits = ["group=%s" % r.group.literal(), "n=%d" % r.n,
                    "variant=%s" % r.variant.value,
                    "method=%s" % r.method, "dim=%d" % r.dim_q]
            if config.torsion:
                bits.append("torsion=%s" % format_torsion(r.torsion))
            bits.append("generators=%d" % r.generator_count)
            if config.timings:
                bits.append("ms=%.1f" % r.ms)
            lines.append(" ".join(bits))
        if len(reports) == 2:
            lines.append("methods agree" if agree else "METHOD MISMATCH")
        _print(lines)
    return 0 if agree else 1


# -- table --------------------------------------------------------------------

def _table_groups(config):
    if config.family == "cyclic":
        start = config.start if config.start is not None else 2
        stop = config.stop if config.stop is not None else 19
        if start < 2 or stop < start:
            raise UsageError("cyclic range needs 2 <= start <= stop")
        return [(make_group((n,)), False) for n in range(start, stop + 1)]
    if config.family == "bicyclic":
        if (config.start is not None and config.stop is not None
                and config.stop < config.start):
            raise UsageError("bicyclic range needs start <= stop")
        rows = []
        for n1, n2 in BICYCLIC_ROWS:
            order = n1 * n2
            if config.start is not None and order < config.start:
                continue
            if config.stop is not None and order > config.stop:
                continue
            # grading needs the Z/N x Z/MN shape with N >= 3
            rows.append((make_group((n1, n2)), n1 >= 3))
        return rows
    primes = config.primes or (5, 7)
    return [(make_group((p, p)), p >= 3) for p in primes]


def _table_row(config, group, graded):
    plain, minus = (_brute_report(config, group, 2, variant, graded).dim_q
                    for variant in (Variant.PLAIN, Variant.MINUS))
    return group.literal(), plain, minus


def cmd_table(config):
    try:
        groups = _table_groups(config)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rows = [_table_row(config, group, graded) for group, graded in groups]

    if config.fmt == "json":
        body = {"family": config.family,
                "rows": [{"group": g, "dim": d, "dim_minus": dm}
                         for g, d, dm in rows]}
        _print([json.dumps(body, sort_keys=True)])
    elif config.fmt == "csv":
        _print(["group,dim,dim_minus"]
               + ["%s,%d,%d" % row for row in rows])
    else:
        width = max(len("group"), *(len(r[0]) for r in rows)) if rows else 5
        lines = ["%-*s %6s %6s" % (width, "group", "d", "d_minus")]
        for g, d, dm in rows:
            lines.append("%-*s %6d %6d" % (width, g, d, dm))
        _print(lines)
    return 0


# -- verify -------------------------------------------------------------------

def _verify_delta(config):
    system = build_relations(config.group, config.n, Variant.PLAIN,
                             bound=config.enum_bound)
    checker = SpanChecker(system.rel)
    probes = [(key, system.vector(image)) for key, image in
              ((key, delta_sum(key)) for key in system.basis)
              if not image.is_zero()]
    sigma = system.rel._sigma
    if sigma is not None and any(row.get(sigma[c]) != v for _, row in probes
                                 for c, v in row.items()):
        checker.rank    # a probe sigma moves needs the full factorization
    passed = len(system.basis) - len(probes)
    bad = None
    for key, row in probes:
        if checker.contains(row):
            passed += 1
        elif bad is None:
            bad = repr(key)
    checks = [check_record("delta-span", config.group, config.n, passed,
                           len(system.basis), bad)]
    return VerificationReport(config.group, config.n, checks)


def _verify_grading(config):
    group = config.group
    form = group.invariant_form()
    if len(form) != 2 or form[0] < 3:
        raise UsageError("the grading check needs a bi-cyclic group with "
                         "N >= 3, got %s" % group.literal())
    classes = det_classes(group)
    graded = dimension_graded(group, Variant.MINUS,
                              enum_bound=config.enum_bound)
    full = _brute_report(config, group, 2, Variant.MINUS)
    checks = [
        check_record("grading-class-count", group, 2, len(classes),
                     totient(form[0]) // 2),
        check_record("grading-identity", group, 2, full.dim_q,
                     graded.dim_q),
    ]
    return VerificationReport(group, 2, checks)


def _verify_manin(config):
    n, m = config.level
    group = make_group((n, n * m))
    checks = []
    cosets = enumerate_cosets(n, m, bound=config.enum_bound)
    checks.append(check_record("coset-count", group, 2, len(cosets),
                               coset_index(n, m)))
    good = sum(1 for s in cosets if coset_of(lift_coset(s), n, m) == s)
    checks.append(check_record("lift-round-trip", group, 2, good,
                               len(cosets)))
    if n >= 3:
        _, rep = manin_space(n, m, enum_bound=config.enum_bound,
                             snf_bound=config.snf_bound)
        expected = 2 * genus(n, m) + cusp_formula(n, m) - 1
        checks.append(check_record("manin-dimension", group, 2, rep.dim_q,
                                   expected))
        checks.append(check_record("manin-torsion", group, 2,
                                   list(rep.torsion), []))
    elif m > 2:
        try:
            data = level2_consistency(m, enum_bound=config.enum_bound,
                                      snf_bound=config.snf_bound)
        except AssertionError as exc:
            checks.append(check_record("level2-consistency", group, 2,
                                       "error", "pass", str(exc)))
        else:
            euler = 1 + Fraction(coset_index(n, m) // 2, 12) \
                - Fraction(data["cusps"], 2)
            if euler.denominator == 1:
                euler = int(euler)
            checks.append(check_record("genus-euler", group, 2,
                                       data["genus"], euler))
            checks.append(check_record(
                "minus-dimension", group, 2, data["dim_minus"],
                data["genus"] + (data["cusps"] - data["fixed_cusps"]) // 2))
            checks.append(check_record(
                "fixed-cusps", group, 2, data["fixed_cusps"],
                2 * totient(m) + totient(2 * m)))
    return VerificationReport(group, 2, checks)


def _verify_cusps(config):
    n, m = config.level
    group = make_group((n, n * m))
    orbits = cusp_orbit_count(n, m, bound=config.enum_bound)
    try:
        formula = cusp_formula(n, m)
    except (AssertionError, ValueError) as exc:
        checks = [check_record("cusp-count", group, 2, "error", orbits,
                               str(exc))]
    else:
        checks = [check_record("cusp-count", group, 2, formula, orbits)]
    return VerificationReport(group, 2, checks)


def _verify_formulas(config):
    group = config.group
    brute = dimension(group, 2, Variant.MINUS, want_torsion=True,
                      enum_bound=config.enum_bound,
                      snf_bound=config.snf_bound)
    formula = formula_dimension(group, 2, Variant.MINUS, want_torsion=True)
    checks = [
        check_record("minus-dimension", group, 2, brute.dim_q,
                     formula.dim_q),
        check_record("minus-torsion", group, 2, list(brute.torsion),
                     list(formula.torsion)),
    ]
    return VerificationReport(group, 2, checks)


def _verify_iso(config):
    n, m = config.level
    report = iso_check(n, m, enum_bound=config.enum_bound,
                       snf_bound=config.snf_bound)
    group = make_group((n, n * m))
    checks = [
        check_record("iso-dimension", group, 2, report.dim_symbols,
                     report.dim_cosets),
        check_record("iso-torsion", group, 2, list(report.torsion_symbols),
                     list(report.torsion_cosets)),
    ]
    return VerificationReport(group, 2, checks)


def cmd_verify(config):
    needs_level = {"manin", "cusps", "iso"}
    if config.check in needs_level:
        if config.level is None:
            raise UsageError("--check %s needs --level N,M" % config.check)
    elif config.group is None:
        raise UsageError("--check %s needs --group" % config.check)
    handler = {
        "comult": lambda: verify_comultiplication(
            config.group, config.n, enum_bound=config.enum_bound),
        "kernel": lambda: verify_kernel_iso(
            config.group, config.n, enum_bound=config.enum_bound),
        "grading": lambda: _verify_grading(config),
        "manin": lambda: _verify_manin(config),
        "delta": lambda: _verify_delta(config),
        "cusps": lambda: _verify_cusps(config),
        "formulas": lambda: _verify_formulas(config),
        "iso": lambda: _verify_iso(config),
    }[config.check]
    try:
        report = handler()
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    if config.fmt == "json":
        _print([json.dumps(report.to_json(), sort_keys=True, default=str)])
    elif config.fmt == "csv":
        lines = ["check,group,n,status,lhs,rhs,counterexample"]
        for c in report.checks:
            lines.append("%s,%s,%s,%s,%s,%s,%s" % (
                c["check"], c["group"], c["n"], c["status"],
                json.dumps(c["lhs"], default=str),
                json.dumps(c["rhs"], default=str),
                json.dumps(c.get("counterexample", ""), default=str)))
        _print(lines)
    else:
        lines = []
        for c in report.checks:
            line = "[%s] %s group=%s n=%s lhs=%s rhs=%s" % (
                "PASS" if c["status"] == "pass" else "FAIL",
                c["check"], c["group"], c["n"], c["lhs"], c["rhs"])
            if "counterexample" in c:
                line += " counterexample=%s" % c["counterexample"]
            lines.append(line)
        passed = sum(1 for c in report.checks if c["status"] == "pass")
        lines.append("%s: %d/%d checks passed" % (
            "ok" if report.ok else "FAILED", passed, len(report.checks)))
        _print(lines)
    return 0 if report.ok else 1


# -- entry point --------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="abelsym",
        description="Exact computations with symbol modules over finite "
                    "abelian groups and the matching coset symbol spaces.")
    parser.add_argument("--version", action="version",
                        version="%(prog)s " + __version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", dest="fmt", default="text",
                        choices=("text", "json", "csv"),
                        help="output serialization (default text)")
    common.add_argument("--cache-dir", default=None,
                        help="cache directory (default $ABELSYM_CACHE_DIR "
                             "or ~/.cache/abelsym)")
    common.add_argument("--no-cache", action="store_true",
                        help="bypass the report cache entirely")
    common.add_argument("--enum-bound", type=int,
                        default=DEFAULT_ENUM_BOUND,
                        help="refuse enumerations larger than this")
    common.add_argument("--snf-bound", type=int, default=DEFAULT_SNF_BOUND,
                        help="refuse Smith normal forms larger than this")
    common.add_argument("--timings", action="store_true",
                        help="include wall-clock times in the output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "dims", parents=[common],
        help="dimension (and torsion) of one symbol module",
        epilog="csv columns: group,n,variant,method,dim,torsion,"
               "generators,ms")
    p.add_argument("--group", required=True,
                   help="group literal, cyclic factor orders joined by "
                        "'x', e.g. 9 or 3x9")
    p.add_argument("--n", type=int, default=2, help="symbol length")
    p.add_argument("--variant", default="plain",
                   choices=("plain", "minus", "plus"))
    p.add_argument("--method", default="brute",
                   choices=("brute", "formula", "both"),
                   help="'both' exits nonzero when the two disagree")
    p.add_argument("--torsion", action="store_true",
                   help="also compute the torsion subgroup")

    p = sub.add_parser(
        "table", parents=[common],
        help="(group, d, d_minus) reference table for a family",
        epilog="csv columns: group,dim,dim_minus")
    p.add_argument("--family", required=True,
                   choices=("cyclic", "bicyclic", "pxp"))
    p.add_argument("--start", type=int, default=None,
                   help="cyclic: smallest N (default 2); bicyclic: "
                        "smallest group order")
    p.add_argument("--stop", type=int, default=None,
                   help="cyclic: largest N (default 19); bicyclic: "
                        "largest group order")
    p.add_argument("--primes", default=None,
                   help="pxp: comma-separated primes (default 5,7)")

    p = sub.add_parser(
        "verify", parents=[common],
        help="run one verification suite; exit 0 iff it passes",
        epilog="csv columns: check,group,n,status,lhs,rhs,counterexample")
    p.add_argument("--check", required=True,
                   choices=("comult", "kernel", "grading", "manin",
                            "delta", "cusps", "formulas", "iso"))
    p.add_argument("--group", default=None,
                   help="group literal for group-indexed checks")
    p.add_argument("--n", type=int, default=2, help="symbol length")
    p.add_argument("--level", default=None,
                   help="level 'N,M' for manin/cusps/iso checks")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(args)
        handler = {"dims": cmd_dims, "table": cmd_table,
                   "verify": cmd_verify}[args.command]
        return handler(config)
    except UsageError as exc:
        _emit_error(args.fmt, exc)
        return 2
    except BoundExceeded as exc:
        _emit_error(args.fmt, exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
