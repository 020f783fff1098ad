"""The demos run end to end and every advertised public name resolves."""

import glob
import os
import subprocess
import sys

import pytest

import abelsym
from abelsym import congruence, structmaps

SRC = os.path.dirname(os.path.dirname(os.path.abspath(abelsym.__file__)))
DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(SRC), "demos", "*.py")))


def test_demos_found():
    assert DEMOS, "no demos next to the source tree"


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, ABELSYM_CACHE_DIR=str(tmp_path))
    proc = subprocess.run([sys.executable, demo], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", [abelsym, congruence, structmaps],
                         ids=lambda m: m.__name__)
def test_public_names_resolve(module):
    names = module.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == []
