"""Compare the sweep CSVs and the single solves of two source trees.

Usage: python tools/sweep_parity.py <parent_root> <change_root>

Runs the two standard sweeps below in a fresh interpreter per tree, each
importing ``hhlsim`` from ``<root>/src``, then compares ``rows.csv`` and
``summary.csv``. For every file it prints whether the bytes are identical
and, per float column, the largest absolute difference. It then solves the
grid of single problems below, again in a fresh interpreter per tree, and
compares the ``result_to_json`` documents: per method it prints whether the
solution amplitudes are bitwise equal, their largest absolute difference and
that of the scalar results. It exits 1 if any string or integer column
differs (or the files have other headers or row counts), or if a solve's
cost counters, resolved config or raised error differ, and 0 otherwise.
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

# Single solves: 4 families x N x method x seeds 0-2, each method up to its
# largest N (a dense Trotter step build at N=256 takes minutes).
SOLVE_SIZES = [8, 32, 256]
SOLVE_METHODS = {
    "exact": ({"method": "exact"}, 256),
    "trotter-o2-s8": ({"method": "trotter", "trotter_steps": 8, "trotter_order": 2}, 32),
    "block": ({"method": "block"}, 256),
    "block-k30-nc5": ({"method": "block", "taylor_k": 30, "n_c": 5}, 256),
}
SCALARS = ("success_probability", "post_norm", "fidelity", "clock_residual")

# Runs one sweep document inside the interpreter of the tree under test.
RUNNER = (
    "import json, sys\n"
    "from hhlsim.sweep import run_sweep, sweep_config_from_json\n"
    "run_sweep(sweep_config_from_json(json.loads(sys.argv[1])))\n"
)


# Solves the cases on stdin, one JSON line each, and echoes each case with
# its "result" document or its "error".
SOLVER = (
    "import json, sys\n"
    "from hhlsim.families import FamilySpec, generate\n"
    "from hhlsim.pipeline import config_from_json, result_to_json, run_hhl\n"
    "for line in sys.stdin:\n"
    "    case = json.loads(line)\n"
    "    try:\n"
    "        problem = generate(FamilySpec(case['family'], case['N'], case['seed']))\n"
    "        case['result'] = result_to_json(run_hhl(problem, config_from_json(case['config'])))\n"
    "    except Exception as exc:\n"
    "        case['error'] = f'{type(exc).__name__}: {exc}'\n"
    "    print(json.dumps(case), flush=True)\n"
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


def solve_cases() -> list[dict]:
    return [
        {"family": family["family"], "N": size, "method": name, "seed": seed, "config": config}
        for family in SWEEPS["families"]
        for size in SOLVE_SIZES
        for name, (config, largest) in SOLVE_METHODS.items()
        if size <= largest
        for seed in range(3)
    ]


def run_solves(root: Path) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cases = "".join(json.dumps(case) + "\n" for case in solve_cases())
    done = subprocess.run(
        [sys.executable, "-c", SOLVER], env=env, input=cases, capture_output=True, text=True, check=True
    )
    return [json.loads(line) for line in done.stdout.splitlines()]


def _largest_diff(a: list[float], b: list[float]) -> float:
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def compare_solves(old: list[dict], new: list[dict]) -> tuple[dict[str, dict], list[str]]:
    """(per method: amplitudes bitwise equal and largest differences, mismatched cases).

    A case mismatches when its error, cost counters or resolved config differ.
    """
    methods: dict[str, dict] = {}
    mismatched: list[str] = []
    keys = [[(c["family"], c["N"], c["method"], c["seed"]) for c in side] for side in (old, new)]
    if keys[0] != keys[1]:
        return methods, ["case list"]
    for a, b in zip(old, new):
        case = f"{a['family']}/N={a['N']}/{a['method']}/seed={a['seed']}"
        if a.get("error") != b.get("error"):
            mismatched.append(f"{case}: error")
            continue
        if "result" not in a:
            continue
        ra, rb = a["result"], b["result"]
        mismatched += [f"{case}: {key}" for key in ("cost", "resolved_config") if ra[key] != rb[key]]
        amps = [r["solution_amplitudes"] for r in (ra, rb)]
        entry = methods.setdefault(a["method"], {"bitwise": True, "amplitudes": 0.0, "scalars": 0.0})
        # JSON floats round-trip exactly, so equal text is equal bits.
        entry["bitwise"] &= json.dumps(amps[0]) == json.dumps(amps[1])
        diff = _largest_diff(*(v["re"] + v["im"] for v in amps))
        entry["amplitudes"] = max(entry["amplitudes"], diff)
        diff = _largest_diff([ra[k] for k in SCALARS], [rb[k] for k in SCALARS])
        entry["scalars"] = max(entry["scalars"], diff)
    return methods, mismatched


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
    methods, mismatched = compare_solves(*(run_solves(root) for root in roots))
    for name, entry in methods.items():
        print(
            f"solve/{name}: amplitudes {'bitwise equal' if entry['bitwise'] else 'differ'}, "
            f"max |diff| {entry['amplitudes']:.3g}; scalars max |diff| {entry['scalars']:.3g}"
        )
    for case in mismatched:
        print(f"  solve mismatch: {case}")
    failed |= bool(mismatched)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
