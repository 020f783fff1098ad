#!/usr/bin/env python3
"""Regenerate bench/reference.json, the frozen answers of every item.

    python3 bench/freeze.py

Answers come from the untraced items, i.e. from the brute-force library
calls (dimension() with its Smith form, the verification batteries, the
coset spaces), never from a closed form.  Only rerun this when a change is
meant to alter an answer, and say so in the change.
"""

import json
import sys

from run import WORKLOADS, import_library, run_pass


def main():
    workloads = import_library()
    from tracer import Tracer
    reference = {}
    for name in WORKLOADS:
        items = workloads.build(name)
        _, _, answers = run_pass(items, Tracer(False))
        for key, answer in answers.items():
            if isinstance(answer, Exception):
                raise RuntimeError("%s %s raised %r" % (name, key, answer))
        reference[name] = workloads.normalize(answers)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        dump(reference, fh)
    return 0


def dump(reference, fh):
    """One item per line, so a changed answer shows as a one-line diff."""
    blocks = []
    for name, answers in sorted(reference.items()):
        lines = ["  %s: %s" % (json.dumps(key), json.dumps(answer))
                 for key, answer in sorted(answers.items())]
        blocks.append(" %s: {\n%s\n }" % (json.dumps(name),
                                          ",\n".join(lines)))
    fh.write("{\n%s\n}\n" % ",\n".join(blocks))


if __name__ == "__main__":
    sys.exit(main())
