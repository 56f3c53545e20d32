"""Benchmark sweeps: families x sizes x methods, aggregated over seeded repeats.

Output contract:

* ``rows.csv``    - one row per instance, columns (exact order):
  family,N,method,seed,fidelity,success_probability,clock_residual,
  controlled_u_count,elementary_exp_count,wall_time_ms,error
* ``summary.csv`` - per-cell means/stds recomputable from the row file.

Identical config + base_seed reproduce byte-identical CSVs within one commit
(a change to the numerics may move float columns in their last digits).
Wall-clock timing is therefore opt-in (``timing``); with it off the
wall_time_ms field is left empty. Per-instance failures land in the ``error``
column and never abort the sweep. A rerun reuses every cell that already has
its full set of rows with seeds base_seed .. base_seed+repeats-1, so an
interrupted sweep resumes cell by cell. Both files are replaced atomically
(written to a temporary file in the same directory, then renamed over the
old one). When an exception escapes a sweep, ``rows.csv`` is replaced on the
way out with every cell finished so far, cached or fresh, in config order;
during a long sweep it is also rewritten after a fresh cell at most once per
``CHECKPOINT_INTERVAL_S``, so a hard kill loses at most that much work.
"""

from __future__ import annotations

import csv
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .families import FamilySpec, generate
from .linalg import ProblemInstance
from .pipeline import MAX_AUTO_CLOCK, HhlConfig, dataclass_from_json, run_hhl
from .statevector import RegisterLayout, ShotHistogram, sample_counts, state_from_amplitudes

ROW_COLUMNS = [
    "family",
    "N",
    "method",
    "seed",
    "fidelity",
    "success_probability",
    "clock_residual",
    "controlled_u_count",
    "elementary_exp_count",
    "wall_time_ms",
    "error",
]

SUMMARY_COLUMNS = [
    "family",
    "N",
    "method",
    "instances",
    "errors",
    "fidelity_mean",
    "fidelity_std",
    "success_probability_mean",
    "success_probability_std",
    "clock_residual_mean",
    "clock_residual_std",
    "controlled_u_count_mean",
    "elementary_exp_count_mean",
]

# A sweep rewrites rows.csv after a fresh cell at most this often, so a hard
# kill loses at most this much finished work; any exception rewrites it on
# the way out.
CHECKPOINT_INTERVAL_S = 1.0

MEAN_FIELDS = [
    "fidelity",
    "success_probability",
    "clock_residual",
    "controlled_u_count",
    "elementary_exp_count",
]


@dataclass(frozen=True)
class MethodConfig:
    """Backend selection for one sweep column."""

    method: str = "exact"
    trotter_steps: int = 8
    trotter_order: int = 2
    taylor_k: int | None = None
    n_c: int | None = None
    label: str | None = None

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        return HhlConfig(
            method=self.method,
            trotter_steps=self.trotter_steps,
            trotter_order=self.trotter_order,
            taylor_k=self.taylor_k,
        ).backend_label()


@dataclass(frozen=True)
class FamilyTemplate:
    """Family recipe minus the per-instance dimension and seed."""

    family: str
    kappa_target: float = 5.0
    representable: bool | None = None
    nnz_per_row: int | None = None

    def spec(self, dim: int, seed: int) -> FamilySpec:
        return FamilySpec(
            family=self.family,
            dim=dim,
            seed=seed,
            kappa_target=self.kappa_target,
            representable=self.representable,
            nnz_per_row=self.nnz_per_row,
        )


@dataclass
class SweepConfig:
    families: list[FamilyTemplate]
    sizes: list[int]
    methods: list[MethodConfig]
    output_dir: str
    repeats: int = 50
    shots: int = 10_000
    base_seed: int = 0
    workers: int = 1
    max_qubits: int = 26
    timing: bool = False

    def validate(self) -> None:
        if not self.families or not self.sizes or not self.methods:
            raise ValueError("sweep needs at least one family, one size and one method")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        for n in self.sizes:
            if n < 2 or (n & (n - 1)) != 0:
                raise ValueError(f"size {n} is not a power of two >= 2")
            for method in self.methods:
                worst_clock = method.n_c if method.n_c is not None else MAX_AUTO_CLOCK
                qubits = 1 + worst_clock + (n.bit_length() - 1)
                if qubits > self.max_qubits:
                    raise ValueError(
                        f"N={n} with method '{method.name}' may need {qubits} qubits, "
                        f"over the max_qubits={self.max_qubits} guard"
                    )
        # Rows are keyed by (family, N, method name) alone, so two cells with
        # one key would merge into one summary row and never resume.
        seen = set()
        for template, size, method in self.cells():
            key = (template.family, size, method.name)
            if key in seen:
                raise ValueError(
                    f"two cells share the row key {key}; give the templates distinct "
                    "families or the methods distinct labels"
                )
            seen.add(key)

    def cells(self) -> list[tuple[FamilyTemplate, int, MethodConfig]]:
        return [
            (family, size, method)
            for family in self.families
            for size in self.sizes
            for method in self.methods
        ]


def sweep_config_to_json(config: SweepConfig) -> dict:
    return asdict(config)


def sweep_config_from_json(doc: dict) -> SweepConfig:
    return dataclass_from_json(
        SweepConfig,
        doc,
        families=[dataclass_from_json(FamilyTemplate, f) for f in doc["families"]],
        methods=[dataclass_from_json(MethodConfig, m) for m in doc["methods"]],
        sizes=[int(n) for n in doc["sizes"]],
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _run_instance(
    template: FamilyTemplate, size: int, method: MethodConfig, seed: int, shots: int, timing: bool
) -> dict:
    row = {
        "family": template.family,
        "N": size,
        "method": method.name,
        "seed": seed,
        "fidelity": None,
        "success_probability": None,
        "clock_residual": None,
        "controlled_u_count": None,
        "elementary_exp_count": None,
        "wall_time_ms": None,
        "error": "",
    }
    started = time.perf_counter()
    try:
        problem = generate(template.spec(size, seed))
        config = HhlConfig(
            n_c=method.n_c,
            method=method.method,
            trotter_steps=method.trotter_steps,
            trotter_order=method.trotter_order,
            taylor_k=method.taylor_k,
            shots=shots,
            seed=seed,
        )
        result = run_hhl(problem, config)
        row.update(
            fidelity=result.fidelity,
            success_probability=result.success_probability,
            clock_residual=result.clock_residual,
            controlled_u_count=result.cost.controlled_u_count,
            elementary_exp_count=result.cost.elementary_exp_count,
        )
    except Exception as exc:  # one bad instance must not abort the sweep
        row["error"] = f"{type(exc).__name__}: {exc}".replace("\n", " ")
    if timing:
        row["wall_time_ms"] = (time.perf_counter() - started) * 1e3
    return row


def _run_cell(config: SweepConfig, template: FamilyTemplate, size: int, method: MethodConfig) -> list[dict]:
    seeds = [config.base_seed + i for i in range(config.repeats)]

    def runner(seed: int) -> dict:
        return _run_instance(template, size, method, seed, config.shots, config.timing)

    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            return list(pool.map(runner, seeds))
    return [runner(seed) for seed in seeds]


def _cell_key(row: dict) -> tuple[str, str, str]:
    return (str(row["family"]), str(row["N"]), str(row["method"]))


def _load_complete_cells(path: Path, repeats: int, base_seed: int) -> dict[tuple, list[dict]]:
    """Rows of every cell that holds exactly the seeds base_seed .. base_seed+repeats-1."""
    if not path.exists():
        return {}
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ROW_COLUMNS:
            return {}
        grouped: dict[tuple, list[dict]] = {}
        for row in reader:
            grouped.setdefault(_cell_key(row), []).append(row)
    seeds = [str(base_seed + i) for i in range(repeats)]
    return {key: rows for key, rows in grouped.items() if [r["seed"] for r in rows] == seeds}


def _replace_csv(path: Path, header: list[str], lines) -> None:
    """Write a CSV next to ``path`` and rename it over ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(lines)
    os.replace(tmp, path)


def _replace_rows(path: Path, cells: list[list[dict] | None]) -> None:
    """Rewrite rows.csv with every finished cell, in config order."""
    _replace_csv(
        path,
        ROW_COLUMNS,
        ([_fmt(row[col]) for col in ROW_COLUMNS] for rows in cells if rows for row in rows),
    )


def run_sweep(config: SweepConfig) -> tuple[Path, Path]:
    """Run (or resume) the sweep; returns (rows_csv, summary_csv) paths."""
    config.validate()
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows_path = out / "rows.csv"
    summary_path = out / "summary.csv"

    cached = _load_complete_cells(rows_path, config.repeats, config.base_seed)
    cells = config.cells()
    finished = [cached.get((t.family, str(size), m.name)) for t, size, m in cells]
    checkpoint = time.monotonic()
    try:
        for i, (template, size, method) in enumerate(cells):
            if finished[i] is None:
                finished[i] = _run_cell(config, template, size, method)
                if time.monotonic() - checkpoint >= CHECKPOINT_INTERVAL_S:
                    _replace_rows(rows_path, finished)
                    checkpoint = time.monotonic()
    finally:
        _replace_rows(rows_path, finished)

    write_summary([row for rows in finished for row in rows], summary_path)
    return rows_path, summary_path


def summarize_rows(rows: list[dict]) -> list[dict]:
    """Aggregate per-cell statistics (population std) over non-error rows."""
    grouped: dict[tuple, list[dict]] = {}
    order: list[tuple] = []
    for row in rows:
        key = _cell_key(row)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(row)
    summaries = []
    for key in order:
        cell_rows = grouped[key]
        valid = [r for r in cell_rows if not (r.get("error") or "").strip()]
        entry = {
            "family": key[0],
            "N": key[1],
            "method": key[2],
            "instances": len(cell_rows),
            "errors": len(cell_rows) - len(valid),
        }
        for fieldname in MEAN_FIELDS:
            values = np.array([float(r[fieldname]) for r in valid]) if valid else np.array([])
            mean = float(values.mean()) if values.size else None
            std = float(values.std()) if values.size else None
            entry[f"{fieldname}_mean"] = mean
            if f"{fieldname}_std" in SUMMARY_COLUMNS:
                entry[f"{fieldname}_std"] = std
        summaries.append(entry)
    return summaries


def write_summary(rows: list[dict], path: Path) -> None:
    _replace_csv(
        path,
        SUMMARY_COLUMNS,
        ([_fmt(entry.get(col)) for col in SUMMARY_COLUMNS] for entry in summarize_rows(rows)),
    )


# ---------------------------------------------------------------------------
# The bundled 2x2 worked system, whose solution has the known 4:1 outcome
# ratio: A = [[1, -1/2], [-1/2, 1]], b = (1, 0), x proportional to (4, 2)/3.

DEMO_MATRIX = np.array([[1.0, -0.5], [-0.5, 1.0]], dtype=np.complex128)
DEMO_RHS = np.array([1.0, 0.0], dtype=np.complex128)


def demo_problem() -> ProblemInstance:
    return ProblemInstance.from_arrays(DEMO_MATRIX, DEMO_RHS)


def demo_config(shots: int = 10_000, seed: int = 0) -> HhlConfig:
    return HhlConfig(method="exact", shots=shots, seed=seed)


@dataclass(frozen=True)
class DemoExperimentSummary:
    mean_p0: float
    mean_p1: float
    mean_ratio: float
    repeats: int
    shots: int
    counts_csv: Path
    ratios_csv: Path


def run_eq3_experiment(
    output_dir: str, repeats: int = 50, shots: int = 10_000, seed: int = 0
) -> DemoExperimentSummary:
    """Shot-sampling experiment on the 2x2 demo system.

    Each repeat runs the pipeline end-to-end, samples the solution qubit
    ``shots`` times, and records outcome counts plus the p(0)/p(1) ratio.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    problem = demo_problem()
    counts_path = out / "eq3_counts.csv"
    ratios_path = out / "eq3_ratios.csv"

    p0s, p1s, ratios = [], [], []
    with counts_path.open("w", newline="") as cfh, ratios_path.open("w", newline="") as rfh:
        cw = csv.writer(cfh, lineterminator="\n")
        rw = csv.writer(rfh, lineterminator="\n")
        cw.writerow(["run", "seed", "count_0", "count_1", "p_0", "p_1"])
        rw.writerow(["run", "ratio"])
        for i in range(repeats):
            run_seed = seed + i
            result = run_hhl(problem, demo_config(shots=shots, seed=run_seed))
            hist = _sample_solution(result.solution_amplitudes, shots, run_seed)
            c0 = hist.counts.get("0", 0)
            c1 = hist.counts.get("1", 0)
            p0, p1 = c0 / shots, c1 / shots
            ratio = c0 / c1 if c1 else math.inf
            p0s.append(p0)
            p1s.append(p1)
            ratios.append(ratio)
            cw.writerow([i, run_seed, c0, c1, repr(p0), repr(p1)])
            rw.writerow([i, repr(ratio)])

    return DemoExperimentSummary(
        mean_p0=float(np.mean(p0s)),
        mean_p1=float(np.mean(p1s)),
        mean_ratio=float(np.mean(ratios)),
        repeats=repeats,
        shots=shots,
        counts_csv=counts_path,
        ratios_csv=ratios_path,
    )


def _sample_solution(solution: np.ndarray, shots: int, seed: int) -> ShotHistogram:
    n_data = len(solution).bit_length() - 1
    layout = RegisterLayout(n_clock=0, n_data=n_data, n_ancilla=0)
    state = state_from_amplitudes(layout, solution)
    return sample_counts(state, list(range(n_data)), shots, seed)
