"""Which hhlsim names the traced run wraps, and the per-layer metrics.

Every hook sits in the namespace the caller looks the name up in, e.g.
``pipeline.solve_linear`` for the call inside ``run_hhl``. Span names are
``<module that defines the function>.<function>``, so one layer keeps one
name wherever it is called from.
"""

from __future__ import annotations

import statistics

from tracer import Hook, Span, children_of, covered_time, enclosing, self_time

RUN_HHL = "pipeline.run_hhl"
EIGH = "linalg.hermitian_eigendecomposition"
GENERATE = "families.generate"
RUN_SWEEP = "sweep.run_sweep"
PROPAGATOR = "hamiltonian.propagator"

# Spans whose self time is reported, and the per-solve total each feeds.
SELF_TIMED = {
    "qpe.phase_estimation": "qpe.self_ms",
    "qpe.inverse_phase_estimation": "qpe.self_ms",
    RUN_HHL: "pipeline.run_hhl_self_ms",
}

# Metric names in the order the traced run prints them; BENCHMARK.json's
# per_layer list must hold exactly these.
PER_LAYER = {
    "families.generate_ms": "ms",
    "families.eigh_calls_per_instance": "count",
    "linalg.eigh_calls_per_solve": "count",
    "linalg.eigh_ms_per_solve": "ms",
    "linalg.solve_linear_ms_per_solve": "ms",
    "pipeline.resolve_config_ms": "ms",
    "pipeline.prepare_b_ms": "ms",
    "pipeline.eigenvalue_inversion_ms": "ms",
    "pipeline.run_hhl_self_ms": "ms",
    "hamiltonian.make_backend_ms": "ms",
    "hamiltonian.propagator_calls_per_solve": "count",
    "hamiltonian.propagator_ms_per_solve": "ms",
    "hamiltonian.pauli_terms": "count",
    "hamiltonian.controlled_u_count": "count",
    "hamiltonian.elementary_exp_count": "count",
    "qpe.forward_ms": "ms",
    "qpe.inverse_ms": "ms",
    "qpe.qft_ms": "ms",
    "qpe.self_ms": "ms",
    "statevector.apply_unitary_calls_per_solve": "count",
    "statevector.apply_unitary_ms_per_solve": "ms",
    "statevector.collapse_ms": "ms",
    "statevector.marginal_ms": "ms",
    "statevector.state_bytes": "B",
    "statevector.gate_bytes_computed_per_solve": "B",
    "sweep.run_sweep_ms": "ms",
    "sweep.resume_ms": "ms",
    "sweep.cells": "count",
    "sweep.cache_hit_cells": "count",
    "sweep.rows_written": "count",
    "trace.overhead_share": "fraction",
    "trace.run_hhl_coverage_share": "fraction",
}


def _observe_run_hhl(span: Span, args, kwargs, result) -> None:
    span.counters["controlled_u_count"] = result.cost.controlled_u_count
    span.counters["elementary_exp_count"] = result.cost.elementary_exp_count


def _observe_backend(span: Span, args, kwargs, result) -> None:
    terms = getattr(result, "terms", None)
    if terms is not None:
        span.counters["pauli_terms"] = terms.term_count


def _observe_init_state(span: Span, args, kwargs, result) -> None:
    span.counters["state_bytes"] = result.amplitudes.nbytes


def _observe_gate(span: Span, args, kwargs, result) -> None:
    # Computed, not measured: the gate reads and writes every amplitude whose
    # control bits are all 1, 16 B each, once in and once out.
    state = args[0]
    controls = kwargs.get("controls", args[3] if len(args) > 3 else None) or []
    span.counters["gate_bytes"] = 2 * 16 * (1 << (state.num_qubits - len(controls)))


def _observe_summary(span: Span, args, kwargs, result) -> None:
    span.counters["rows"] = len(args[0])


def hooks(hhlsim) -> list[Hook]:
    """The traced run's hooks over an imported ``hhlsim`` package."""
    pipeline, linalg, hamiltonian = hhlsim.pipeline, hhlsim.linalg, hhlsim.hamiltonian
    qpe, families, sweep = hhlsim.qpe, hhlsim.families, hhlsim.sweep
    table = [
        Hook(pipeline, "run_hhl", RUN_HHL, _observe_run_hhl),
        Hook(pipeline, "resolve_config", "pipeline.resolve_config"),
        Hook(pipeline, "spectrum_is_representable", "pipeline.spectrum_is_representable"),
        Hook(pipeline, "prepare_b", "pipeline.prepare_b"),
        Hook(pipeline, "eigenvalue_inversion", "pipeline.eigenvalue_inversion"),
        Hook(pipeline, "init_state", "statevector.init_state", _observe_init_state),
        Hook(pipeline, "make_backend", "hamiltonian.make_backend", _observe_backend),
        Hook(pipeline, "phase_estimation", "qpe.phase_estimation"),
        Hook(pipeline, "inverse_phase_estimation", "qpe.inverse_phase_estimation"),
        Hook(pipeline, "clock_zero_mass", "qpe.clock_zero_mass"),
        Hook(pipeline, "marginal_probabilities", "statevector.marginal_probabilities"),
        Hook(pipeline, "collapse", "statevector.collapse"),
        Hook(pipeline, "fidelity", "statevector.fidelity"),
        Hook(pipeline, "solve_linear", "linalg.solve_linear"),
        Hook(qpe, "apply_unitary", "statevector.apply_unitary", _observe_gate),
        Hook(qpe, "apply_qft", "qpe.apply_qft"),
        Hook(qpe, "clock_zero_mass", "qpe.clock_zero_mass"),
        Hook(qpe, "marginal_probabilities", "statevector.marginal_probabilities"),
        Hook(families, "generate", GENERATE),
        Hook(sweep, "run_sweep", RUN_SWEEP),
        Hook(sweep, "write_summary", "sweep.write_summary", _observe_summary),
        Hook(sweep, "generate", GENERATE),
        Hook(sweep, "run_hhl", RUN_HHL, _observe_run_hhl),
    ]
    for module in (pipeline, linalg, hamiltonian, families):
        table.append(Hook(module, "hermitian_eigendecomposition", EIGH))
    # The public method and every override of it; an absent base class is
    # reported through a hook on the class name itself.
    backend = getattr(hamiltonian, "EvolutionBackend", None)
    if backend is None:
        table.append(Hook(hamiltonian, "EvolutionBackend", PROPAGATOR))
    else:
        owners = [backend, *(c for c in _subclasses(backend) if "propagator" in c.__dict__)]
        table += [Hook(owner, "propagator", PROPAGATOR) for owner in owners]
    return table


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found += [sub, *_subclasses(sub)]
    return found


def median(values) -> float:
    """Median of an iterable of numbers; 0.0 when it is empty."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _mean(values: list[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def layer_metrics(spans: list[Span], sweep_passes: list[tuple[str, Span]] | None = None) -> dict:
    """Per-layer numbers from one traced run's spans.

    ``*_per_solve`` and the other solve-level values are totals inside one
    ``run_hhl`` span, reported as the median over solves. ``sweep_passes``
    labels each traced ``run_sweep`` span as ``"fresh"`` or ``"resume"``.
    """
    kids = children_of(spans)
    solves = [s for s in spans if s.name == RUN_HHL]
    per_solve: dict[int, dict[str, float]] = {id(s): {} for s in solves}

    def add(solve: Span, key: str, value: float) -> None:
        bucket = per_solve[id(solve)]
        bucket[key] = bucket.get(key, 0.0) + value

    generates = [s for s in spans if s.name == GENERATE]
    eigh_in_generate = 0
    pauli_terms = []
    for span in spans:
        if span.name == EIGH and enclosing(span, GENERATE) is not None:
            eigh_in_generate += 1
        if "pauli_terms" in span.counters:
            pauli_terms.append(span.counters["pauli_terms"])
        solve = enclosing(span, RUN_HHL)
        if solve is None:
            continue
        add(solve, span.name + ".calls", 1)
        add(solve, span.name + ".ms", span.duration * 1e3)
        for key, value in span.counters.items():
            add(solve, key, value)
        if span.name in SELF_TIMED:
            add(solve, SELF_TIMED[span.name], self_time(span, kids.get(id(span), [])) * 1e3)
        if span.name == RUN_HHL:
            covered = covered_time(span, kids.get(id(span), []))
            add(solve, "coverage", covered / span.duration if span.duration > 0 else 0.0)

    def solve_median(key: str) -> float:
        return median([bucket.get(key, 0.0) for bucket in per_solve.values()])

    def ms(name: str) -> float:
        return solve_median(name + ".ms")

    passes = sweep_passes or []
    fresh = [s for label, s in passes if label == "fresh"]
    resumed = [s for label, s in passes if label == "resume"]
    summaries = [s for s in spans if s.name == "sweep.write_summary"]
    return {
        "families.generate_ms": median([s.duration * 1e3 for s in generates]),
        "families.eigh_calls_per_instance": eigh_in_generate / len(generates) if generates else 0.0,
        "linalg.eigh_calls_per_solve": solve_median(EIGH + ".calls"),
        "linalg.eigh_ms_per_solve": ms(EIGH),
        "linalg.solve_linear_ms_per_solve": ms("linalg.solve_linear"),
        "pipeline.resolve_config_ms": ms("pipeline.resolve_config"),
        "pipeline.prepare_b_ms": ms("pipeline.prepare_b"),
        "pipeline.eigenvalue_inversion_ms": ms("pipeline.eigenvalue_inversion"),
        "pipeline.run_hhl_self_ms": solve_median("pipeline.run_hhl_self_ms"),
        "hamiltonian.make_backend_ms": ms("hamiltonian.make_backend"),
        "hamiltonian.propagator_calls_per_solve": solve_median("hamiltonian.propagator.calls"),
        "hamiltonian.propagator_ms_per_solve": ms("hamiltonian.propagator"),
        "hamiltonian.pauli_terms": _mean(pauli_terms),
        "qpe.forward_ms": ms("qpe.phase_estimation"),
        "qpe.inverse_ms": ms("qpe.inverse_phase_estimation"),
        "qpe.qft_ms": ms("qpe.apply_qft"),
        "qpe.self_ms": solve_median("qpe.self_ms"),
        "statevector.apply_unitary_calls_per_solve": solve_median("statevector.apply_unitary.calls"),
        "statevector.apply_unitary_ms_per_solve": ms("statevector.apply_unitary"),
        "statevector.collapse_ms": ms("statevector.collapse"),
        "statevector.marginal_ms": ms("statevector.marginal_probabilities"),
        "statevector.state_bytes": solve_median("state_bytes"),
        "statevector.gate_bytes_computed_per_solve": solve_median("gate_bytes"),
        "sweep.run_sweep_ms": median([s.duration * 1e3 for s in fresh]),
        "sweep.resume_ms": median([s.duration * 1e3 for s in resumed]),
        "sweep.rows_written": median([s.counters["rows"] for s in summaries]),
        "trace.run_hhl_coverage_share": solve_median("coverage"),
    }


def sweep_cache_hits(spans: list[Span], sweep_span: Span, cells: int, repeats: int) -> int:
    """Cells a ``run_sweep`` pass took from rows.csv instead of solving.

    Solves are matched to the pass by start time, not by parent, because
    with ``workers > 1`` they run on pool threads outside the pass's tree.
    """
    solved = sum(
        1
        for s in spans
        if s.name == RUN_HHL and sweep_span.start <= s.start <= sweep_span.end
    )
    return cells - -(-solved // repeats)
