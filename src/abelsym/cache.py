"""JSON file cache for dimension reports.

Entries are named by (group, n, variant, method, version), one file each,
and carry the sha256 of the package's sources.  Writes go through a
temporary file and an atomic rename, so a reader never observes a partial
entry; anything unreadable, incomplete, or written by other code counts as
absent and is recomputed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile

from . import __version__
from .relations import DimensionReport

ENV_CACHE_DIR = "ABELSYM_CACHE_DIR"


@functools.cache
def source_digest():
    """sha256 of the package's .py files, each name then bytes, by name."""
    src = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        with open(os.path.join(src, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def default_cache_dir():
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "abelsym")


class ReportCache:
    """One JSON file per cached dimension report under a single directory."""

    def __init__(self, directory=None, enabled=True):
        self.directory = directory or default_cache_dir()
        self.enabled = enabled

    def path(self, group, n, variant, method):
        name = "dims-%s-n%d-%s-%s-v%s.json" % (
            group.literal(), n, variant.value, method.lower(), __version__)
        return os.path.join(self.directory, name)

    def load(self, group, n, variant, method, want_torsion=False):
        """Cached report, or None on miss, corruption or code skew."""
        if not self.enabled:
            return None
        try:
            with open(self.path(group, n, variant, method),
                      encoding="utf-8") as fh:
                payload = json.load(fh)
            if (payload.get("version") != __version__
                    or payload.get("source") != source_digest()):
                return None
            if want_torsion and not payload.get("torsion_included"):
                return None
            return DimensionReport.from_json(payload["report"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def store(self, report, torsion_included=False):
        """Best-effort write; failures never disturb the computed result."""
        if not self.enabled:
            return
        try:
            payload = {"version": __version__, "source": source_digest(),
                       "torsion_included": bool(torsion_included),
                       "report": report.to_json()}
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh, sort_keys=True)
                os.replace(tmp, self.path(report.group, report.n,
                                          report.variant, report.method))
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            pass
