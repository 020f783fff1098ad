"""Command line front end: dimension reports, tables, verification suites.

Exit codes: 0 success, 1 verification failure (including a brute/formula
mismatch under `dims --method both`), 2 any bad argument or value, a
library ValueError included, 3 an enumeration or Smith form bound hit.
Group literals are cyclic factor orders joined by 'x' in any order (4x6).
Default output is byte-identical across runs for a fixed configuration and
version; wall-clock fields are zeroed unless --timings is given.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import groupby
from math import prod

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


def _parse(args):
    """Check the parsed options (ValueError) and convert them in place."""
    if args.enum_bound < 1 or args.snf_bound < 1:
        raise ValueError("bounds must be positive integers")
    args.cache = ReportCache(args.cache_dir, enabled=not args.no_cache)
    if getattr(args, "group", None) is not None:
        args.group = parse_group(args.group)
    if getattr(args, "n", 1) < 1:
        raise ValueError("--n must be >= 1")
    if hasattr(args, "variant"):
        args.variant = Variant.parse(args.variant)
    if getattr(args, "level", None) is not None:
        try:
            pair = tuple(int(p) for p in args.level.split(","))
        except ValueError:
            pair = ()
        if len(pair) != 2 or pair[0] < 2 or pair[1] < 1:
            raise ValueError("--level expects 'N,M' with N >= 2, M >= 1")
        args.level = pair
    if getattr(args, "primes", None):
        try:
            args.primes = tuple(int(p) for p in args.primes.split(","))
        except ValueError:
            raise ValueError("--primes expects a comma-separated list of "
                             "integers") from None
        for p in args.primes:
            if p < 2 or prime_factors(p) != [p]:
                raise ValueError("--primes expects primes; %d is not prime"
                                 % p)


def format_torsion(torsion):
    """Compact multiplicative form: (2,2,2,2,2) -> '2^5', () -> 'trivial'."""
    if not torsion:
        return "trivial"
    runs = [(d, len(list(run))) for d, run in groupby(torsion)]
    return "*".join("%d^%d" % (d, k) if k > 1 else "%d" % d
                    for d, k in runs)


def _emit(fmt, body, csv, text):
    """Write one result: `body` as sorted JSON, or the csv or text lines."""
    if fmt == "json":
        lines = [json.dumps(body, sort_keys=True, default=str)]
    else:
        lines = csv if fmt == "csv" else text
    sys.stdout.write("\n".join(lines) + "\n")


def _emit_error(fmt, message):
    if fmt == "json":
        sys.stdout.write(json.dumps({"error": str(message)},
                                    sort_keys=True) + "\n")
    else:
        sys.stderr.write("error: %s\n" % message)


def _graded(group):
    """True iff the determinant grading applies: Z/N x Z/MN with N >= 3."""
    form = group.invariant_form()
    return len(form) == 2 and form[0] >= 3


# -- dims ---------------------------------------------------------------------

DIMS_CSV = "group,n,variant,method,dim,torsion,generators,ms"


def _brute_report(config, group, n, variant, graded=False):
    """Cached brute-force report, computed and stored on a miss."""
    report = config.cache.load(group, n, variant, "BRUTE",
                               want_torsion=config.torsion)
    if report is None:
        compute, args = ((dimension_graded, (group, variant)) if graded
                         else (dimension, (group, n, variant)))
        report = compute(*args, want_torsion=config.torsion,
                         enum_bound=config.enum_bound,
                         snf_bound=config.snf_bound)
        config.cache.store(report, torsion_included=config.torsion)
    return report


def cmd_dims(config):
    methods = (["brute", "formula"] if config.method == "both"
               else [config.method])
    reports = []
    for method in methods:
        if method == "formula":
            reports.append(formula_dimension(
                config.group, config.n, config.variant,
                want_torsion=config.torsion))
        else:
            reports.append(_brute_report(config, config.group, config.n,
                                         config.variant))
    for rep in reports:     # shown only on request, cached or not
        if not config.timings:
            rep.ms = 0.0
        if not config.torsion:
            rep.torsion = ()
    agree = len({(r.dim_q, r.torsion) for r in reports}) == 1

    csv, text = [DIMS_CSV], []
    for r in reports:
        csv.append("%s,%d,%s,%s,%d,%s,%d,%s" % (
            r.group.literal(), r.n, r.variant.value, r.method, r.dim_q,
            format_torsion(r.torsion), r.generator_count, r.ms))
        bits = ["group=%s" % r.group.literal(), "n=%d" % r.n,
                "variant=%s" % r.variant.value,
                "method=%s" % r.method, "dim=%d" % r.dim_q]
        if config.torsion:
            bits.append("torsion=%s" % format_torsion(r.torsion))
        bits.append("generators=%d" % r.generator_count)
        if config.timings:
            bits.append("ms=%.1f" % r.ms)
        text.append(" ".join(bits))
    if len(reports) == 2:
        text.append("methods agree" if agree else "METHOD MISMATCH")
    body = [r.to_json() for r in reports]
    _emit(config.fmt, body[0] if len(body) == 1 else body, csv, text)
    return 0 if agree else 1


# -- table --------------------------------------------------------------------

TABLE_CSV = "group,dim,dim_minus"


def _table_groups(config):
    if config.family == "cyclic":
        start = config.start if config.start is not None else 2
        stop = config.stop if config.stop is not None else 19
        if start < 2 or stop < start:
            raise ValueError("cyclic range needs 2 <= start <= stop")
        return [make_group((n,)) for n in range(start, stop + 1)]
    if config.family == "bicyclic":
        lo, hi = config.start, config.stop
        if lo is not None and hi is not None and hi < lo:
            raise ValueError("bicyclic range needs start <= stop")
        return [make_group(pair) for pair in BICYCLIC_ROWS
                if (lo is None or prod(pair) >= lo)
                and (hi is None or prod(pair) <= hi)]
    return [make_group((p, p)) for p in config.primes or (5, 7)]


def _table_row(config, group):
    plain, minus = (_brute_report(config, group, 2, variant,
                                  _graded(group)).dim_q
                    for variant in (Variant.PLAIN, Variant.MINUS))
    return group.literal(), plain, minus


def cmd_table(config):
    rows = [_table_row(config, group) for group in _table_groups(config)]
    width = max([len("group")] + [len(g) for g, _, _ in rows])
    _emit(config.fmt,
          {"family": config.family,
           "rows": [{"group": g, "dim": d, "dim_minus": dm}
                    for g, d, dm in rows]},
          [TABLE_CSV] + ["%s,%d,%d" % row for row in rows],
          ["%-*s %6s %6s" % (width, "group", "d", "d_minus")]
          + ["%-*s %6d %6d" % (width, g, d, dm) for g, d, dm in rows])
    return 0


# -- verify -------------------------------------------------------------------

def _report(group, n, *rows):
    """The VerificationReport of (name, lhs, rhs[, counterexample]) rows."""
    return VerificationReport(group, n, [check_record(name, group, n, *row)
                                         for name, *row in rows])


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
    misses = [key for key, row in probes if not checker.contains(row)]
    return _report(config.group, config.n,
                   ("delta-span", len(system.basis) - len(misses),
                    len(system.basis), repr(misses[0]) if misses else None))


def _verify_grading(config):
    group = config.group
    if not _graded(group):
        raise ValueError("the grading check needs a bi-cyclic group with "
                         "N >= 3, got %s" % group.literal())
    graded = dimension_graded(group, Variant.MINUS,
                              enum_bound=config.enum_bound)
    full = _brute_report(config, group, 2, Variant.MINUS)
    return _report(group, 2,
                   ("grading-class-count", len(det_classes(group)),
                    totient(group.invariant_form()[0]) // 2),
                   ("grading-identity", full.dim_q, graded.dim_q))


def _verify_manin(config):
    n, m = config.level
    cosets = enumerate_cosets(n, m, bound=config.enum_bound)
    good = sum(1 for s in cosets if coset_of(lift_coset(s), n, m) == s)
    rows = [("coset-count", len(cosets), coset_index(n, m)),
            ("lift-round-trip", good, len(cosets))]
    if n >= 3:
        _, rep = manin_space(n, m, enum_bound=config.enum_bound,
                             snf_bound=config.snf_bound)
        rows += [("manin-dimension", rep.dim_q,
                  2 * genus(n, m) + cusp_formula(n, m) - 1),
                 ("manin-torsion", list(rep.torsion), [])]
    elif m > 2:
        try:
            data = level2_consistency(m, enum_bound=config.enum_bound,
                                      snf_bound=config.snf_bound)
        except AssertionError as exc:
            rows.append(("level2-consistency", "error", "pass", str(exc)))
        else:
            euler = 1 + Fraction(coset_index(n, m) // 2, 12) \
                - Fraction(data["cusps"], 2)
            if euler.denominator == 1:
                euler = int(euler)
            rows += [("genus-euler", data["genus"], euler),
                     ("minus-dimension", data["dim_minus"], data["genus"]
                      + (data["cusps"] - data["fixed_cusps"]) // 2),
                     ("fixed-cusps", data["fixed_cusps"],
                      2 * totient(m) + totient(2 * m))]
    return _report(config.group, 2, *rows)


def _verify_cusps(config):
    n, m = config.level
    orbits = cusp_orbit_count(n, m, bound=config.enum_bound)
    try:
        row = ("cusp-count", cusp_formula(n, m), orbits)
    except (AssertionError, ValueError) as exc:
        row = ("cusp-count", "error", orbits, str(exc))
    return _report(config.group, 2, row)


def _verify_formulas(config):
    group = config.group
    brute = dimension(group, 2, Variant.MINUS, want_torsion=True,
                      enum_bound=config.enum_bound,
                      snf_bound=config.snf_bound)
    formula = formula_dimension(group, 2, Variant.MINUS, want_torsion=True)
    return _report(group, 2,
                   ("minus-dimension", brute.dim_q, formula.dim_q),
                   ("minus-torsion", list(brute.torsion),
                    list(formula.torsion)))


def _verify_iso(config):
    report = iso_check(*config.level, enum_bound=config.enum_bound,
                       snf_bound=config.snf_bound)
    return _report(config.group, 2,
                   ("iso-dimension", report.dim_symbols, report.dim_cosets),
                   ("iso-torsion", list(report.torsion_symbols),
                    list(report.torsion_cosets)))


# Each battery by --check name, in the order --help lists them: its handler,
# which takes the parsed options, and whether it reads --level (True; the
# group is then Z/N x Z/NM) or --group (False).
CHECKS = {
    "comult": (lambda config: verify_comultiplication(
        config.group, config.n, enum_bound=config.enum_bound), False),
    "kernel": (lambda config: verify_kernel_iso(
        config.group, config.n, enum_bound=config.enum_bound), False),
    "grading": (_verify_grading, False),
    "manin": (_verify_manin, True),
    "delta": (_verify_delta, False),
    "cusps": (_verify_cusps, True),
    "formulas": (_verify_formulas, False),
    "iso": (_verify_iso, True),
}

VERIFY_CSV = "check,group,n,status,lhs,rhs,counterexample"


def _csv_cell(value):
    """A value as JSON in one CSV cell: a JSON string as it is, anything
    else quoted when it holds a comma (RFC 4180)."""
    cell = json.dumps(value, default=str)
    if "," in cell and not cell.startswith('"'):
        cell = '"%s"' % cell.replace('"', '""')
    return cell


def cmd_verify(config):
    handler, by_level = CHECKS[config.check]
    if by_level:
        if config.level is None:
            raise ValueError("--check %s needs --level N,M" % config.check)
        n, m = config.level
        config.group = make_group((n, n * m))
    elif config.group is None:
        raise ValueError("--check %s needs --group" % config.check)
    report = handler(config)

    csv, text = [VERIFY_CSV], []
    for c in report.checks:
        csv.append(",".join(
            [str(c[k]) for k in ("check", "group", "n", "status")]
            + [_csv_cell(c.get(k, ""))
               for k in ("lhs", "rhs", "counterexample")]))
        line = "[%s] %s group=%s n=%s lhs=%s rhs=%s" % (
            "PASS" if c["status"] == "pass" else "FAIL",
            c["check"], c["group"], c["n"], c["lhs"], c["rhs"])
        if "counterexample" in c:
            line += " counterexample=%s" % c["counterexample"]
        text.append(line)
    passed = sum(c["status"] == "pass" for c in report.checks)
    text.append("%s: %d/%d checks passed" % (
        "ok" if report.ok else "FAILED", passed, len(report.checks)))
    _emit(config.fmt, report.to_json(), csv, text)
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
    common.set_defaults(torsion=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "dims", parents=[common],
        help="dimension (and torsion) of one symbol module",
        epilog="csv columns: " + DIMS_CSV)
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
        epilog="csv columns: " + TABLE_CSV)
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
        epilog="csv columns: " + VERIFY_CSV)
    p.add_argument("--check", required=True, choices=tuple(CHECKS))
    p.add_argument("--group", default=None,
                   help="group literal for group-indexed checks")
    p.add_argument("--n", type=int, default=2, help="symbol length")
    p.add_argument("--level", default=None,
                   help="level 'N,M' for %s checks" % "/".join(
                       name for name, (_, by_level) in CHECKS.items()
                       if by_level))
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler = {"dims": cmd_dims, "table": cmd_table,
               "verify": cmd_verify}[args.command]
    try:
        _parse(args)
        return handler(args)
    except (ValueError, BoundExceeded) as exc:
        _emit_error(args.fmt, exc)
        return 3 if isinstance(exc, BoundExceeded) else 2


if __name__ == "__main__":
    sys.exit(main())
