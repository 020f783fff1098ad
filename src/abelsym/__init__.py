"""Exact symbol modules over finite abelian groups.

The package computes presentations of the symbol modules attached to a
finite abelian group (plain, sign-twisted, and symmetrized variants), their
ranks and torsion over Z, the matching Manin symbol spaces for a family of
congruence subgroups, and the structure maps connecting the two sides.
"""

from .abelian import (
    GroupDescriptor,
    Character,
    SubgroupHandle,
    QuotientData,
    make_group,
    parse_group,
    pairing,
    spans_dual,
    proper_cyclic_subgroups,
    quotient_data,
)
from .exactla import (
    SparseIntMatrix,
    SnfResult,
    SpanChecker,
    rank_over_Q,
    smith_normal_form,
    row_span_membership,
    BoundExceeded,
    ConsistencyError,
)
from .symbols import (
    SymbolKey,
    FormalSum,
    DetClass,
    canonicalize,
    enumerate_generators,
    det_class,
    enumerate_det_class,
)
from .relations import (
    Variant,
    DimensionReport,
    build_relations,
    dimension,
    dimension_graded,
    formula_dimension,
    formula_minus,
    difference_formula,
    pxp_closed_forms,
    kernel_dimension,
    kernel_generators,
)
from .congruence import (
    CosetSymbol,
    IntMatrix2,
    IsoReport,
    LevelInvariants,
    coset_index,
    coset_of,
    cusp_count,
    cusp_formula,
    cusp_orbit_count,
    enumerate_cosets,
    eps_fixed,
    gamma_member,
    genus,
    iso_check,
    level2_consistency,
    level_invariants,
    lift_coset,
    manin_space,
)
from .structmaps import (
    TensorSum,
    VerificationReport,
    comultiply,
    delta_sum,
    minus_reduce,
    multiply,
    nu,
    omega_generators,
    plus_reduce,
    psi,
    verify_comultiplication,
    verify_kernel_iso,
)

__all__ = [
    "GroupDescriptor", "Character", "SubgroupHandle", "QuotientData",
    "make_group", "parse_group", "pairing", "spans_dual",
    "proper_cyclic_subgroups", "quotient_data",
    "SparseIntMatrix", "SnfResult", "SpanChecker", "rank_over_Q",
    "smith_normal_form", "row_span_membership", "BoundExceeded",
    "ConsistencyError",
    "SymbolKey", "FormalSum", "DetClass", "canonicalize",
    "enumerate_generators", "det_class", "enumerate_det_class",
    "Variant", "DimensionReport", "build_relations", "dimension",
    "dimension_graded", "formula_dimension", "formula_minus",
    "difference_formula", "pxp_closed_forms", "kernel_dimension",
    "kernel_generators",
    "CosetSymbol", "IntMatrix2", "IsoReport", "LevelInvariants",
    "coset_index", "coset_of", "cusp_count", "cusp_formula",
    "cusp_orbit_count", "enumerate_cosets", "eps_fixed", "gamma_member",
    "genus", "iso_check", "level2_consistency", "level_invariants",
    "lift_coset", "manin_space",
    "TensorSum", "VerificationReport", "comultiply", "delta_sum",
    "minus_reduce", "multiply", "nu", "omega_generators", "plus_reduce",
    "psi", "verify_comultiplication", "verify_kernel_iso",
]

__version__ = "0.1.0"
