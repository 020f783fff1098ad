"""A frozen reference workload that measures how fast the host is right now.

On a shared virtual machine the speed of pure-Python code drifts by tens of
percent over minutes, so run-to-run spread of plain wall times is wider than
any useful regression bound.  The timed passes interleave this fixed kernel
with the items; its time tracks the drift (correlation about 0.9 over 10 s
windows on a 2-core Xeon VM), and dividing by it removes most of the spread.

The kernel mimics the library's hot loops (dict rows, modular elimination,
tuple keys and gcds) but is a frozen copy that no library change touches.
Never edit it: normalized times of two commits are comparable only while the
kernel and REF_CALL_S stay the same.
"""

import random
import time
from math import gcd

# Roughly the per-call time of kernel() on a 2-core Xeon VM (quartiles 9.6
# and 13.9 ms over 30 s there).  It only fixes the scale, so that normalized
# seconds read close to seconds; slowdown() is relative to it.
REF_CALL_S = 0.0112

_P = 2147483629


def _matrix(n=120, k=4, seed=0):
    rng = random.Random(seed)
    return [{rng.randrange(n): rng.randrange(1, 50) for _ in range(k)}
            for _ in range(n)]


_ROWS = _matrix()


def _rank_mod_p(rows):
    pivots = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                inv = pow(row[c], _P - 2, _P)
                pivots[c] = {cc: v * inv % _P for cc, v in row.items()}
                rank += 1
                break
            f = row[c]
            for cc, v in prow.items():
                nv = (row.get(cc, 0) - f * v) % _P
                if nv:
                    row[cc] = nv
                else:
                    row.pop(cc, None)
    return rank


def _pair_keys(n=60):
    keys = set()
    for a in range(n):
        for b in range(a, n):
            if gcd(gcd(a, b), n) == 1:
                keys.add(tuple(sorted((a, (n - b) % n))))
    return len(keys)


def kernel():
    """One fixed unit of reference work; returns a checksum."""
    return _rank_mod_p(_ROWS), _pair_keys()


class Speedometer:
    """Interleaved reference samples: total kernel time and call count."""

    def __init__(self, share):
        self.share = share
        self.seconds = 0.0
        self.calls = 0

    def sample(self, after_seconds):
        """Run the kernel for `share` of the preceding work, at least once."""
        start = time.perf_counter()
        while True:
            kernel()
            self.calls += 1
            spent = time.perf_counter() - start
            if spent >= self.share * after_seconds:
                break
        self.seconds += spent

    def slowdown(self):
        """Mean kernel time over REF_CALL_S: above 1 on a slow host."""
        return self.seconds / self.calls / REF_CALL_S
