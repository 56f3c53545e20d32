"""hhlsim benchmark: solve throughput, accuracy and per-layer cost.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense-exact --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no hooks installed.
``--trace 1`` is a separate run that wraps hhlsim's public names in spans
(see layers.py) and reports the per-layer metrics. Every solve is checked
against a numpy oracle (gate.py); the last line of standard output is one
JSON object, and the exit code is non-zero when any check fails. A copy of
the result, with the environment it was measured in, is written to
``perfbench/out/``. See perfbench/README.md for the workloads and metrics.
"""

import time

# Set-up is timed from here, before numpy and hhlsim are imported.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

from environment import record  # noqa: E402
from gate import FIDELITY_AGREEMENT, check_result, check_row, make_oracle, oracle_fidelity  # noqa: E402
from layers import PER_LAYER, RUN_SWEEP, hooks, layer_metrics, median, sweep_cache_hits  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Instance seeds are base_seed + i with base_seed = SEED_STRIDE * --seed, so
# two benchmark seeds share no instance unless one run solves a million.
SEED_STRIDE = 1_000_000
# Instances generated in set-up for the single-solve workloads. Later
# instances are generated between solves, untimed. Fixed, so set-up work
# does not grow when solves get faster.
SETUP_INSTANCES = 16
# The single-solve workloads: N, clock qubits and condition number.
DIM = 256
N_C = 7
KAPPA = 5.0
# The sweep grid's seeded repeats per cell, and its fidelity floor. Two
# repeats keep a sweep pair under a second, so a run holds many pairs and
# each cell many rows.
REPEATS = 2
SWEEP_FIDELITY_FLOOR = 0.99
# Each sweep pair re-solves every RESOLVE_EVERY-th cell against the oracle,
# rotating, so consecutive pairs cover the grid between them.
RESOLVE_EVERY = 4
# Set-ups per run whose median is setup_s: this process plus probes.
SETUP_PROBES = 4
P90_MIN_SAMPLES = 100

END_TO_END = {
    "setup_s": "s",
    "solves_per_s": "1/s",
    "solve_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "fidelity_min": "fraction",
    "passed_share": "fraction",
}


def import_hhlsim():
    """Import hhlsim from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import hhlsim
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import hhlsim from {SRC}: {exc}")
    if not Path(hhlsim.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: hhlsim was imported from {hhlsim.__file__}, not from {SRC}")
    return hhlsim


@dataclass
class Outcome:
    """What one run measured, before it becomes metrics."""

    attempted: int = 0
    failed: int = 0  # solves that raised or failed the gate
    failures: list[str] = field(default_factory=list)  # every failed check, for the report
    solve_s: list[float] = field(default_factory=list)  # untraced, one per solve
    solves_per_s: float = 0.0  # untraced; how each workload estimates it is in its run()
    solve_p50_s: float = 0.0
    estimate: str = ""  # how solves_per_s and solve_p50_s were estimated, for the report
    timed_s: float = 0.0  # untraced wall time of the timed calls
    traced_s: float = 0.0  # traced wall time of the same work (trace runs)
    untraced_twin_s: float = 0.0  # untraced time of the work traced_s repeats
    fidelities: list[float] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)  # analytic cost counters
    layer: dict[str, float] = field(default_factory=dict)  # extra per-layer values

    @property
    def passed(self) -> int:
        return self.attempted - self.failed


def _timed(call, *args):
    """(seconds, result or the exception it raised) of one call."""
    start = time.perf_counter()
    try:
        result = call(*args)
    except Exception as exc:  # a raising solve is a failed solve, reported
        return time.perf_counter() - start, exc
    return time.perf_counter() - start, result


@dataclass(frozen=True)
class SolveWorkload:
    """Closed loop of ``run_hhl`` calls, each on a new instance.

    Instance i has seed ``SEED_STRIDE * seed + i``. The first
    ``SETUP_INSTANCES`` are generated in set-up; each later one, and every
    oracle, between solves, outside the timed calls. Each solve is checked
    as soon as it returns, so memory does not grow with the number of
    solves.
    """

    family: str
    method: str
    fidelity_floor: float
    on_grid_exact: bool

    def instance(self, hhlsim, seed: int, i: int):
        families = hhlsim.families
        return families.generate(families.FamilySpec(self.family, DIM, SEED_STRIDE * seed + i, KAPPA))

    def setup(self, hhlsim, seed: int):
        return [self.instance(hhlsim, seed, i) for i in range(SETUP_INSTANCES)]

    def run(self, hhlsim, first, seed: int, seconds: float, tracer=None) -> Outcome:
        pipeline = hhlsim.pipeline
        config = pipeline.HhlConfig(n_c=N_C, method=self.method)
        out = Outcome()
        untraced = []  # (seconds, passed)
        costs = []  # cost counters of the solves of the set-up instances
        i = 0
        while out.timed_s + out.traced_s < seconds or i < SETUP_INSTANCES:
            problem = first[i] if i < SETUP_INSTANCES else self.instance(hhlsim, seed, i)
            oracle = make_oracle(problem.matrix, problem.rhs)
            for traced in (False, True) if tracer is not None else (False,):
                if traced:
                    with tracer.active():
                        took, result = _timed(pipeline.run_hhl, problem, config)
                    out.traced_s += took
                else:
                    took, result = _timed(pipeline.run_hhl, problem, config)
                    out.timed_s += took
                    if tracer is not None:
                        out.untraced_twin_s += took
                out.attempted += 1
                if isinstance(result, Exception):
                    problems = [f"{type(result).__name__}: {result}"]
                else:
                    out.fidelities.append(oracle_fidelity(result, oracle))
                    problems = check_result(result, oracle, self.fidelity_floor, self.on_grid_exact)
                    if i < SETUP_INSTANCES:
                        costs.append((result.cost.controlled_u_count, result.cost.elementary_exp_count))
                out.failed += bool(problems)
                out.failures += [f"instance {i}: {p}" for p in problems]
                if not traced:
                    untraced.append((took, not problems))
            i += 1

        out.solve_s = [took for took, _ in untraced]
        out.solves_per_s = sum(ok for _, ok in untraced) / out.timed_s if out.timed_s > 0 else 0.0
        out.solve_p50_s = median(out.solve_s)
        out.estimate = f"{len(untraced)} solves in {out.timed_s:.3g} s"
        out.counters = _mean_costs(costs)
        return out


@dataclass(frozen=True)
class SweepWorkload:
    """Closed loop of sweep pairs: a fresh ``run_sweep`` then a resume pass.

    The grid is families {diagonal, dense, tridiagonal, moderate} x N {8, 16,
    32} x methods {exact, trotter-o2-s8, block}, ``REPEATS`` per cell, one
    worker.

    The timings are built from the fastest time of each part of a pair: of
    each cell's rows (``wall_time_ms``, generation included) and of the rest
    of a pair (CSV writes, the resume pass, the summary). On a shared host a
    neighbour slows a changing share of these millisecond solves by up to
    1.7x, in phases of minutes, which moves a mean or a median of them
    between runs; each part's fastest time moves far less.
    ``solves_per_s`` is the rows of a pair over the pair built from those
    parts, times the share of rows that passed; ``solve_ms_p50`` is the
    median over cells of the cell's fastest row.
    """

    def setup(self, hhlsim, seed: int):
        sweep = hhlsim.sweep
        return sweep.SweepConfig(
            families=[sweep.FamilyTemplate(f) for f in ("diagonal", "dense", "tridiagonal", "moderate")],
            sizes=[8, 16, 32],
            methods=[
                sweep.MethodConfig("exact"),
                sweep.MethodConfig("trotter", trotter_steps=8, trotter_order=2),
                sweep.MethodConfig("block"),
            ],
            output_dir="",
            repeats=REPEATS,
            base_seed=SEED_STRIDE * seed,
            workers=1,
            timing=True,
        )

    def run(self, hhlsim, template, seed: int, seconds: float, tracer=None) -> Outcome:
        out = Outcome()
        OUT.mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix="sweeps-", dir=OUT))
        cells = len(template.cells())
        resume_spans = []
        first_rows = None
        fastest: dict[tuple, float] = {}  # cell -> its fastest untraced row, seconds
        rest_s = []  # per untraced pair: its time outside the rows' solves
        try:
            j = 0
            while out.timed_s + out.traced_s < seconds or j == 0:
                # Consecutive pairs use disjoint seeds; a traced pair repeats
                # its untraced twin's seeds in a directory of its own.
                config = replace(template, base_seed=template.base_seed + j * REPEATS)
                took, rows = self._pair(hhlsim, config, scratch / f"pair-{j}", out, resolve=True)
                out.timed_s += took
                row_s = [float(r["wall_time_ms"]) / 1e3 for r in rows if not r["error"]]
                out.solve_s += row_s
                rest_s.append(took - sum(row_s))
                for row, solve_s in zip((r for r in rows if not r["error"]), row_s):
                    cell = (row["family"], row["N"], row["method"])
                    fastest[cell] = min(solve_s, fastest.get(cell, solve_s))
                first_rows = first_rows if first_rows is not None else rows
                if tracer is not None:
                    out.untraced_twin_s += took
                    with tracer.active():
                        took, _ = self._pair(hhlsim, config, scratch / f"pair-{j}-traced", out, resolve=False)
                    out.traced_s += took
                    resume_spans.append([s for s in tracer.spans if s.name == RUN_SWEEP][-1])
                j += 1
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

        out.counters = _mean_costs(
            [(int(r["controlled_u_count"]), int(r["elementary_exp_count"]))
             for r in first_rows or [] if not r["error"]]
        )
        if fastest and out.attempted:
            pair_s = REPEATS * sum(fastest.values()) + min(rest_s)
            out.solves_per_s = cells * REPEATS / pair_s * out.passed / out.attempted
            out.solve_p50_s = median(fastest.values())
        plain = out.passed / out.timed_s if out.timed_s > 0 else 0.0
        out.estimate = (
            f"fastest row of {len(fastest)} cells over {len(rest_s)} pairs"
            f" (plain: {plain:.4g}/s, row median {median(out.solve_s) * 1e3:.4g} ms, n={len(out.solve_s)})"
        )
        out.layer["sweep.cells"] = cells
        out.layer["sweep.cache_hit_cells"] = median(
            sweep_cache_hits(tracer.spans, s, cells, REPEATS) for s in resume_spans
        ) if tracer is not None else 0.0
        return out

    def _pair(self, hhlsim, config, directory: Path, out: Outcome, resolve: bool) -> tuple[float, list[dict]]:
        """Fresh pass then resume pass: (seconds, rows).

        Checks every row and that the resume pass leaves both CSVs
        byte-identical. With ``resolve``, one row in every
        ``RESOLVE_EVERY``-th cell, rotating from pair to pair, is also solved
        again, untimed, and checked against the oracle (see ``_resolve``)."""
        sweep = hhlsim.sweep
        config = replace(config, output_dir=str(directory))
        expected = len(config.cells()) * config.repeats
        fresh_s, fresh = _timed(sweep.run_sweep, config)
        if isinstance(fresh, Exception):
            return self._failed_pair(out, expected, fresh, fresh_s)
        rows_path, summary_path = fresh
        rows_bytes, summary_bytes = rows_path.read_bytes(), summary_path.read_bytes()
        resume_s, resumed = _timed(sweep.run_sweep, config)
        if isinstance(resumed, Exception):
            return self._failed_pair(out, expected, resumed, fresh_s + resume_s)
        with rows_path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        for name, before, path in (("rows.csv", rows_bytes, rows_path), ("summary.csv", summary_bytes, summary_path)):
            if path.read_bytes() != before:
                out.failures.append(f"{directory.name}: resume pass changed {name}")
        if len(rows) != expected:
            out.failures.append(f"{directory.name}: {len(rows)} rows, expected {expected}")
        sampled = {}  # row key -> (template, size, method) of the row re-solved per cell
        if resolve:
            pair = (config.base_seed // config.repeats) % RESOLVE_EVERY
            for k, (template, size, method) in enumerate(config.cells()):
                if k % RESOLVE_EVERY != pair:
                    continue
                seed = config.base_seed + k % config.repeats
                sampled[(template.family, str(size), method.name, str(seed))] = (template, size, method)
        out.attempted += len(rows)
        for row in rows:
            problems = check_row(row, SWEEP_FIDELITY_FLOOR)
            cell = sampled.get((row["family"], row["N"], row["method"], row["seed"]))
            if cell is not None and not row["error"]:
                problems += self._resolve(hhlsim, config, *cell, row, out)
            out.failed += bool(problems)
            name = f"{row['family']} N={row['N']} {row['method']} seed {row['seed']}"
            out.failures += [f"{name}: {p}" for p in problems]
            if not row["error"]:
                out.fidelities.append(float(row["fidelity"]))
        return fresh_s + resume_s, rows

    @staticmethod
    def _resolve(hhlsim, config, template, size: int, method, row: dict, out: Outcome) -> list[str]:
        """Problems with one sweep row, found by solving its instance again.

        Rows carry no solution vector and no n_c, so the row's own fidelity
        is the program's. This solves the same instance with the same
        settings through ``run_hhl`` and checks that result against the
        numpy oracle, then checks that the row agrees with it: fidelity to
        ``FIDELITY_AGREEMENT`` and the exact ``controlled_u_count``."""
        seed = int(row["seed"])
        problem = hhlsim.families.generate(template.spec(size, seed))
        settings = hhlsim.pipeline.HhlConfig(
            n_c=method.n_c,
            method=method.method,
            trotter_steps=method.trotter_steps,
            trotter_order=method.trotter_order,
            taylor_k=method.taylor_k,
            shots=config.shots,
            seed=seed,
        )
        _, result = _timed(hhlsim.pipeline.run_hhl, problem, settings)
        if isinstance(result, Exception):
            return [f"re-solve raised {type(result).__name__}: {result}"]
        oracle = make_oracle(problem.matrix, problem.rhs)
        out.fidelities.append(oracle_fidelity(result, oracle))
        problems = [f"re-solve: {p}" for p in check_result(result, oracle, SWEEP_FIDELITY_FLOOR, on_grid_exact=False)]
        if not abs(float(row["fidelity"]) - result.fidelity) <= FIDELITY_AGREEMENT:
            problems.append(f"row fidelity {row['fidelity']} != re-solve {result.fidelity!r}")
        if int(row["controlled_u_count"]) != result.cost.controlled_u_count:
            problems.append(f"row controlled_u_count {row['controlled_u_count']} != re-solve {result.cost.controlled_u_count}")
        return problems

    @staticmethod
    def _failed_pair(out: Outcome, expected: int, exc: Exception, took: float):
        out.attempted += expected
        out.failed += expected
        out.failures.append(f"run_sweep raised {type(exc).__name__}: {exc}")
        return took, []


WORKLOADS = {
    # The on-grid exact hot path: QPE gates, propagators and one eigh.
    "dense-exact": SolveWorkload("dense", "exact", fidelity_floor=1 - 1e-9, on_grid_exact=True),
    # Off-grid spectrum on the block backend: Taylor series and matrix powers.
    "tridiag-block": SolveWorkload("tridiagonal", "block", fidelity_floor=0.999, on_grid_exact=False),
    # Many small instances: per-call overhead, generation, Trotter build, CSVs.
    "sweep-serial": SweepWorkload(),
}


def _mean_costs(pairs: list[tuple[int, int]]) -> dict[str, float]:
    if not pairs:
        return {"controlled_u_count": 0.0, "elementary_exp_count": 0.0}
    return {
        "controlled_u_count": statistics.fmean(p[0] for p in pairs),
        "elementary_exp_count": statistics.fmean(p[1] for p in pairs),
    }


def setup_probe(name: str, seed: int) -> float:
    """Set-up time of a fresh process doing this run's set-up."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def end_to_end_metrics(out: Outcome, setups: list[float]) -> dict[str, float]:
    return {
        "setup_s": median(setups),
        "solves_per_s": out.solves_per_s,
        "solve_ms_p50": out.solve_p50_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fidelity_min": min(out.fidelities, default=0.0),
        "passed_share": out.passed / out.attempted if out.attempted else 0.0,
    }


def per_layer_metrics(out: Outcome, tracer) -> dict[str, float]:
    sweeps = [s for s in tracer.spans if s.name == RUN_SWEEP]
    passes = [("fresh" if i % 2 == 0 else "resume", s) for i, s in enumerate(sweeps)]
    values = layer_metrics(tracer.spans, passes)
    values.update(out.layer)
    values["hamiltonian.controlled_u_count"] = out.counters["controlled_u_count"]
    values["hamiltonian.elementary_exp_count"] = out.counters["elementary_exp_count"]
    values["trace.overhead_share"] = (
        1.0 - out.untraced_twin_s / out.traced_s if out.traced_s > 0 else 0.0
    )
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}


def declared_metrics(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _print_table(name: str, args, out: Outcome, metrics: dict, units: dict, setups: list[float]) -> None:
    print(f"workload {name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "solves_per_s": out.estimate,
        "solve_ms_p50": out.estimate,
        "fidelity_min": f"n={len(out.fidelities)}",
        "passed_share": f"{out.passed}/{out.attempted}",
    }
    for metric, value in metrics.items():
        print(f"  {metric:44s} {value:>16.6g} {units[metric]:9s} {notes.get(metric, '')}")
    if not args.trace:
        n = len(out.solve_s)
        if n >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(out.solve_s, n=10)[-1] * 1e3
            print(f"  {'solve_ms_p90':44s} {p90:>16.6g} {'ms':9s} n={n}")
        else:
            print(f"  {'solve_ms_p90':44s} {'omitted':>16s} {'ms':9s} n={n} < {P90_MIN_SAMPLES}")
    for failure in out.failures:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    hhlsim = import_hhlsim()
    chosen = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        tracer = Tracer(hooks(hhlsim))
        with tracer.active():
            prepared = chosen.setup(hhlsim, args.seed)
    else:
        prepared = chosen.setup(hhlsim, args.seed)
    setup_s = time.perf_counter() - _T0
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    out = chosen.run(hhlsim, prepared, args.seed, args.seconds, tracer)
    if args.trace:
        setups = []
        metrics, units = per_layer_metrics(out, tracer), PER_LAYER
    else:
        setups = [setup_s] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        metrics, units = end_to_end_metrics(out, setups), END_TO_END
    if list(metrics) != declared_metrics(bool(args.trace)):
        sys.exit("perfbench: emitted metric names differ from BENCHMARK.json")

    correct = not out.failures
    result = {
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    _print_table(args.workload, args, out, metrics, units, setups)
    if tracer is not None:
        for target in tracer.absent():
            print(f"  hook {target}: absent")
    saved = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": record(ROOT, args.seed),
        "hooks": tracer.status if tracer is not None else {},
        "failures": out.failures,
        **result,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(saved, indent=1) + "\n")
    print(f"environment {json.dumps(saved['environment'])}")
    print(f"recorded {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
