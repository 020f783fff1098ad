"""The repository's scripts under tools/ run and report consistent counts."""

import os
import subprocess
import sys

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
