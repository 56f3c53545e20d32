"""Compare the sweep CSVs of two source trees.

Usage: python tools/sweep_parity.py <parent_root> <change_root>

Runs the two standard sweeps below in a fresh interpreter per tree, each
importing ``hhlsim`` from ``<root>/src``, then compares ``rows.csv`` and
``summary.csv``. For every file it prints whether the bytes are identical
and, per float column, the largest absolute difference. It exits 1 if any
string or integer column differs (or the files have other headers or row
counts), and 0 otherwise.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

METHODS = [
    {"method": "exact"},
    {"method": "trotter", "trotter_steps": 8, "trotter_order": 2},
    {"method": "trotter", "trotter_steps": 4, "trotter_order": 1},
    {"method": "block"},
    {"method": "block", "taylor_k": 30, "n_c": 5},
]

SWEEPS = {
    "families": [{"family": f} for f in ("diagonal", "dense", "tridiagonal", "moderate")],
    "stress": [
        {"family": "dense", "kappa_target": 20.0},
        {"family": "diagonal", "representable": False},
    ],
}

# Runs one sweep document inside the interpreter of the tree under test.
RUNNER = (
    "import json, sys\n"
    "from hhlsim.sweep import run_sweep, sweep_config_from_json\n"
    "run_sweep(sweep_config_from_json(json.loads(sys.argv[1])))\n"
)


def sweep_document(families: list[dict], output_dir: Path) -> dict:
    return {
        "families": families,
        "sizes": [8, 16, 32, 64],
        "methods": METHODS,
        "output_dir": str(output_dir),
        "repeats": 3,
        "base_seed": 11,
    }


def run_tree(root: Path, name: str, output_dir: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    doc = sweep_document(SWEEPS[name], output_dir)
    subprocess.run(
        [sys.executable, "-c", RUNNER, json.dumps(doc)], env=env, cwd=output_dir.parent, check=True
    )


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return not text.lstrip("-").isdigit()


def compare_csv(parent: Path, change: Path) -> tuple[bool, dict[str, float], list[str]]:
    """(bytes identical, largest float difference per column, exact-column mismatches)."""
    identical = parent.read_bytes() == change.read_bytes()
    with parent.open(newline="") as fh:
        old = list(csv.reader(fh))
    with change.open(newline="") as fh:
        new = list(csv.reader(fh))
    if old[:1] != new[:1] or len(old) != len(new):
        return identical, {}, ["header or row count"]
    header = old[0]
    float_diff: dict[str, float] = {}
    mismatched: list[str] = []
    for old_row, new_row in zip(old[1:], new[1:]):
        for column, a, b in zip(header, old_row, new_row):
            if _is_float(a) and _is_float(b):
                diff = abs(float(a) - float(b))
                float_diff[column] = max(float_diff.get(column, 0.0), diff)
            elif a != b and column not in mismatched:
                mismatched.append(column)
    return identical, float_diff, mismatched


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    roots = [Path(arg).resolve() for arg in argv]
    failed = False
    with tempfile.TemporaryDirectory() as scratch:
        for name in SWEEPS:
            outs = [Path(scratch) / side / name for side in ("parent", "change")]
            for root, out in zip(roots, outs):
                out.parent.mkdir(parents=True, exist_ok=True)
                run_tree(root, name, out)
            for filename in ("rows.csv", "summary.csv"):
                identical, float_diff, mismatched = compare_csv(outs[0] / filename, outs[1] / filename)
                print(f"{name}/{filename}: {'byte-identical' if identical else 'bytes differ'}")
                for column, diff in float_diff.items():
                    print(f"  {column}: max |diff| {diff:.3g}")
                if mismatched:
                    print(f"  string or integer columns differ: {', '.join(mismatched)}")
                    failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
