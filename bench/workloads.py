"""The benchmark's workloads: fixed item sets, their calls and traced forms.

Each item makes one public abelsym call, or one fixed battery of them, and
returns a JSON-able answer that is compared with the frozen reference.  An
item takes a Tracer: with tracing off it calls the library exactly as a
user would; with tracing on it puts a span around each call into a layer.
For dimension() the traced form replays the calls dimension() makes
internally (enumerate_generators, build_relations(keys=...), rank_over_Q,
smith_normal_form), so those four stages are timed apart.

Why these workloads (see README.md for the full map of layers to metrics):

* sweep: many small and mid-size minus systems, where enumeration and
  assembly are a large share of the time;
* large: four single big systems, where elimination (the modular dense
  tail on plain, the Smith residue on minus) is over 90% of the time;
* crosscheck: read-many use of exactla (one factorization, thousands of
  span queries) and the only workload that reaches structmaps and
  congruence.
"""

import json
import math
import os
from collections import namedtuple

from abelsym import (SpanChecker, Variant, build_relations, cusp_orbit_count,
                     delta_sum, dimension, enumerate_generators,
                     formula_dimension, iso_check, make_group, manin_space,
                     rank_over_Q, smith_normal_form, verify_comultiplication,
                     verify_kernel_iso)

# The order-81 and larger systems have more rows than the library's default
# Smith-form guard allows.
SNF_BOUND = 40_000

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


# `run(tracer)` makes the item's library calls and returns its answer.
Item = namedtuple("Item", "key run")


def invariant_chains(limit):
    """All invariant factor chains d_1 | d_2 | ... with product <= limit."""
    out = []
    stack = [((), 1)]
    while stack:
        chain, prod = stack.pop()
        if chain:
            out.append(chain)
            low = step = chain[-1]
        else:
            low, step = 2, 1
        d = low
        while prod * d <= limit:
            stack.append((chain + (d,), prod * d))
            d += step
    return sorted(out, key=lambda c: (len(c), c))


def _dimension(tr, group, n, variant):
    """(dim over Q, torsion) of one relation system, brute force."""
    if not tr.enabled:
        rep = dimension(group, n, variant, want_torsion=True,
                        snf_bound=SNF_BOUND)
        tr.counts["symbols.keys"] += rep.generator_count
        return rep.dim_q, rep.torsion
    with tr.span("symbols.enumerate"):
        keys = enumerate_generators(group, n)
    with tr.span("relations.assemble"):
        system = build_relations(group, n, variant, keys=keys)
    rank, torsion = 0, ()
    if keys:
        with tr.span("exactla.rank"):
            rank = rank_over_Q(system.rel)
        with tr.span("exactla.snf"):
            torsion = smith_normal_form(system.rel, bound=SNF_BOUND).torsion
    tr.counts["symbols.keys"] += len(keys)
    _count_system(tr, group, n, system)
    tr.counts["exactla.rank_rows"] += system.rel.nrows
    tr.counts["exactla.rank"] += rank
    tr.counts["exactla.torsion_divisors"] += len(torsion)
    return len(keys) - rank, torsion


def _count_system(tr, group, n, system):
    """Work counts that only the traced decomposition can see."""
    tr.counts["symbols.tried"] += math.comb(group.order + n - 1, n)
    tr.counts["relations.rows"] += system.rel.nrows
    tr.counts["relations.nnz"] += system.rel.nnz()


def _answer(dim, torsion):
    return {"dim": dim, "torsion": list(torsion)}


def _sweep_item(chain):
    group = make_group(chain)

    def run(tr):
        dim, torsion = _dimension(tr, group, 2, Variant.MINUS)
        with tr.span("relations.formula"):
            formula = formula_dimension(group, 2, Variant.MINUS,
                                        want_torsion=True)
        if (formula.dim_q, formula.torsion) != (dim, torsion):
            tr.counts["relations.formula_mismatches"] += 1
        return _answer(dim, torsion)
    return Item(group.literal(), run)


def _large_item(chain, variant):
    group = make_group(chain)

    def run(tr):
        return _answer(*_dimension(tr, group, 2, variant))
    return Item("%s %s" % (group.literal(), variant.value), run)


def _battery_item(kind, verify, span, chain, n):
    group = make_group(chain)

    def run(tr):
        with tr.span(span):
            rep = verify(group, n)
        checks = [[c["check"], c["lhs"], c["rhs"], c["status"]]
                  for c in rep.checks]
        tr.counts["structmaps.checks_passed"] += sum(
            c["status"] == "pass" for c in rep.checks)
        return checks
    return Item("%s %s n%d" % (kind, group.literal(), n), run)


def _delta_item(chain):
    """Criterion-09 style probe: every delta sum lies in the plain span."""
    group = make_group(chain)

    def run(tr):
        with tr.span("symbols.enumerate"):
            keys = enumerate_generators(group, 2)
        with tr.span("relations.assemble"):
            system = build_relations(group, 2, Variant.PLAIN, keys=keys)
        tr.counts["symbols.keys"] += len(keys)
        with tr.span("exactla.span_build"):
            checker = SpanChecker(system.rel)
        with tr.span("structmaps.delta"):
            images = [delta_sum(key) for key in keys]
        members = 0
        with tr.span("exactla.span_query"):
            queries = [system.vector(im) for im in images if not im.is_zero()]
            for row in queries:
                members += checker.contains(row)
        if tr.enabled:
            _count_system(tr, group, 2, system)
        tr.counts["exactla.span_queries"] += len(queries)
        return {"queries": len(queries), "members": members}
    return Item("delta %s" % group.literal(), run)


def _iso_item(level):
    def run(tr):
        with tr.span("congruence.iso"):
            rep = iso_check(*level, snf_bound=SNF_BOUND)
        tr.counts["congruence.cosets"] += rep.cosets
        return rep.to_json()
    return Item("iso %d,%d" % level, run)


def _manin_item(level):
    def run(tr):
        with tr.span("congruence.manin"):
            system, rep = manin_space(*level, snf_bound=SNF_BOUND)
        tr.counts["congruence.cosets"] += len(system.basis)
        return {"cosets": len(system.basis), "rows": system.rel.nrows,
                **_answer(rep.dim_q, rep.torsion)}
    return Item("manin %d,%d" % level, run)


def _cusp_item(level):
    def run(tr):
        with tr.span("congruence.cusp"):
            return cusp_orbit_count(*level)
    return Item("cusps %d,%d" % level, run)


def build(name, smoke=False):
    """The item list of one workload; smoke keeps a small fixed subset."""
    if name == "sweep":
        chains = invariant_chains(81)
        if smoke:
            chains = [c for c in chains if math.prod(c) <= 8]
        return [_sweep_item(c) for c in chains]
    if name == "large":
        systems = [((89,), Variant.PLAIN), ((97,), Variant.MINUS),
                   ((11, 11), Variant.PLAIN), ((2, 64), Variant.MINUS)]
        if smoke:
            systems = systems[3:]
        return [_large_item(c, v) for c, v in systems]
    if name == "crosscheck":
        kernel = [((5, 5), 2), ((3, 9), 2), ((25,), 2), ((3, 3), 3)]
        comult = [((5, 5), 2), ((3, 3), 3)]
        deltas = invariant_chains(36)
        levels = [(11, 1), (7, 2), (2, 8)]
        if smoke:
            kernel, comult, deltas, levels = (kernel[2:3], comult[:1],
                                              deltas[:3], levels[2:])
        return ([_battery_item("kernel", verify_kernel_iso,
                               "structmaps.kernel_iso", c, n)
                 for c, n in kernel]
                + [_battery_item("comult", verify_comultiplication,
                                 "structmaps.comult", c, n)
                   for c, n in comult]
                + [_delta_item(c) for c in deltas]
                + [_iso_item(level) for level in levels]
                + [_manin_item((11, 2)), _cusp_item((11, 2))])
    raise ValueError("unknown workload %r" % (name,))


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def normalize(answer):
    """The answer as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(answer))
