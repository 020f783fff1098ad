"""Importing the library loads only what its computations need.

A fresh interpreter's start-up is part of every command-line call, so
`import abelsym` leaves out the command line, the report cache and the
modules only they, or no part of the library, need.
"""

import ast
import os
import subprocess
import sys

import abelsym

SRC = os.path.dirname(os.path.dirname(os.path.abspath(abelsym.__file__)))
NOT_LOADED = ("abelsym.cli", "abelsym.cache", "argparse", "json", "hashlib",
              "subprocess", "numpy")


def test_import_loads_no_cli_cache_or_heavy_modules():
    probe = ("import sys; before = set(sys.modules); import abelsym; "
             "print(repr(sorted(set(sys.modules) - before)))")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = ast.literal_eval(proc.stdout)
    assert "abelsym" in added
    assert [name for name in NOT_LOADED if name in added] == []
