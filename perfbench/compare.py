#!/usr/bin/env python3
"""Diff two run records written by `run.py --record`.

    python3 perfbench/compare.py <base.json> <new.json>

Records are comparable only when they come from the same host class:
the same CPU count, thread or worker count, pinning outcome and rustc.
Otherwise this refuses loudly and exits 2 rather than printing a diff:
a lock loop measured at one CPU against one measured at two compares
preemption with contention, not two versions of the code. Records of
different workloads, seeds or modes are refused the same way.
"""

import json
import sys

HOST_CLASS = ("ncpu", "threads", "pinned", "rustc")
RUN_SHAPE = ("workload", "seed", "seconds", "trace")


def refusals(base, new):
    """Why `base` and `new` cannot be compared (empty when they can)."""
    out = []
    for key in RUN_SHAPE:
        if base.get(key) != new.get(key):
            out.append(f"{key}: {base.get(key)!r} vs {new.get(key)!r}")
    for key in HOST_CLASS:
        a, b = base["host"].get(key), new["host"].get(key)
        if a != b:
            out.append(f"host {key}: {a!r} vs {b!r}")
    return out


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        base = json.load(f)
    with open(argv[1]) as f:
        new = json.load(f)
    why = refusals(base, new)
    if why:
        print("REFUSED: the records come from different host classes or runs:", file=sys.stderr)
        for line in why:
            print(f"  {line}", file=sys.stderr)
        return 2
    print(f"{base['workload']} (commit {base['host']['commit']} -> {new['host']['commit']})")
    bm, nm = base["result"]["metrics"], new["result"]["metrics"]
    for name in sorted(set(bm) | set(nm)):
        a, b = bm.get(name, {}).get("value"), nm.get(name, {}).get("value")
        unit = (bm.get(name) or nm.get(name))["unit"]
        if a is None or b is None:
            print(f"  {name:<40} {a!s:>16} {b!s:>16} {unit}")
            continue
        change = f"{(b - a) / a:+.1%}" if a else "n/a"
        print(f"  {name:<40} {a:>16.6g} {b:>16.6g} {unit:<6} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
