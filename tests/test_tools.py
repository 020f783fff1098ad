"""The repository's scripts under tools/ run and report consistent counts;
the package metadata reads its version from the package."""

import os
import subprocess
import sys

import pytest

import abelsym

PACKAGE = os.path.dirname(os.path.abspath(abelsym.__file__))
ROOT = os.path.dirname(os.path.dirname(PACKAGE))
SRCLINES = os.path.join(ROOT, "tools", "srclines.py")


def test_srclines_counts_every_module():
    proc = subprocess.run([sys.executable, SRCLINES, PACKAGE],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = [line.rsplit(None, 2) for line in proc.stdout.splitlines()]
    *modules, (label, total, code) = [(name, int(t), int(c))
                                      for name, t, c in rows]
    assert label == "total"
    # one row per module of the package, the ten of today, in path order
    assert [os.path.basename(name) for name, _, _ in modules] == sorted(
        name for name in os.listdir(PACKAGE) if name.endswith(".py"))
    assert len(modules) == 10
    assert all(0 < c <= t for _, t, c in modules)
    assert total == sum(t for _, t, _ in modules)
    assert code == sum(c for _, _, c in modules)


def test_version_is_stated_once():
    # pyproject.toml names no version of its own; setuptools reads
    # abelsym.__version__, which the cache file names use too
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        meta = tomllib.load(fh)
    assert "version" not in meta["project"]
    assert meta["project"]["dynamic"] == ["version"]
    assert meta["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "abelsym.__version__"}
