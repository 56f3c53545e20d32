"""Compare two results that run.py recorded, flagging environment differences.

    python3 perfbench/compare.py perfbench/out/A.json perfbench/out/B.json

Prints every environment field that differs (commit, Python, numpy, BLAS,
``*_NUM_THREADS``, nproc, seed), then each metric of A and B with B/A.
Exits 1 when the environments differ, 0 when they match.
"""

import json
import sys
from pathlib import Path

from environment import differences


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    diffs = differences(a["environment"], b["environment"])
    for line in diffs:
        print(f"environment differs: {line}")
    for key in ("workload", "trace", "seconds"):
        if a.get(key) != b.get(key):
            print(f"run differs: {key}: {a.get(key)!r} != {b.get(key)!r}")
    for name, entry in a["metrics"].items():
        other = b["metrics"].get(name)
        if other is None:
            print(f"  {name:44s} {entry['value']:>14.6g} {'missing':>14s}")
            continue
        ratio = other["value"] / entry["value"] if entry["value"] else float("nan")
        print(f"  {name:44s} {entry['value']:>14.6g} {other['value']:>14.6g}  B/A {ratio:.4f} {entry['unit']}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
