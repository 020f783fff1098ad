"""The demos run end to end, every advertised public name resolves, and
each public name is stated once, in the `__all__` of the module defining
it, which the package re-exports."""

import glob
import os
import subprocess
import sys

import pytest

import abelsym
from abelsym import (abelian, congruence, exactla, relations, structmaps,
                     symbols)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(abelsym.__file__)))
DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(SRC), "demos", "*.py")))
LIBRARY = [abelian, exactla, symbols, relations, congruence, structmaps]

# the package's public names, in the order of `abelsym.__all__`
PUBLIC = [
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


def test_demos_found():
    assert DEMOS, "no demos next to the source tree"


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, ABELSYM_CACHE_DIR=str(tmp_path))
    proc = subprocess.run([sys.executable, demo], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", [abelsym] + LIBRARY,
                         ids=lambda m: m.__name__)
def test_public_names_resolve(module):
    names = module.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module", LIBRARY, ids=lambda m: m.__name__)
def test_module_exports_only_its_own_names(module):
    names = getattr(module, "__all__", None)
    assert names, module.__name__
    foreign = [name for name in names
               if getattr(module, name).__module__ != module.__name__]
    assert foreign == []


def test_package_exports_the_union_of_the_module_lists():
    assert abelsym.__all__ == PUBLIC
    assert abelsym.__all__ == [name for module in LIBRARY
                               for name in module.__all__]
    for module in LIBRARY:
        for name in module.__all__:
            assert getattr(abelsym, name) is getattr(module, name), name
