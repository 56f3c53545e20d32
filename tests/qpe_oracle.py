"""Gate-level reference engine for phase estimation and the HHL pipeline.

Test-only. It holds the gate-by-gate state-vector engine (``init_state``,
``apply_unitary``, ``measure_qubit``, ``collapse``) and runs the textbook
circuit with it on the full (ancilla, clock, data) register laid out as in
``hhlsim.statevector``: Hadamards on the clock, the controlled U^(2^k)
ladder with U^(2^k) = matrix_power(U, 2^k) of a base propagator U, the QFT
gate by gate (Hadamards, controlled phases, swaps), the
clock-controlled ancilla rotation, exact collapse onto ancilla = 1 and the
mirrored uncompute. ``hhlsim`` runs the same algorithm in closed form in A's
eigenbasis (exact and block) or as a Krylov sequence plus a clock-axis FFT
(Trotter); the differential tests hold both routes to this engine. The
block base U is rebuilt here the long way, as ``taylor_exponential`` of
``block_encode(A)`` (series of matrix products, Gram-matrix polar factor), so
the backend's evaluation of the series on the spectrum is checked end to end.
Cost counters are tallied here per rung from the backend's parameters, not
read off the backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hhlsim.errors import (
    DimensionMismatch,
    HhlSimError,
    IndexOverlap,
    PostSelectionImpossible,
    ZeroEigenvalueBin,
)
from hhlsim.hamiltonian import (
    BlockEvolution,
    EvolutionBackend,
    ExactEvolution,
    TrotterEvolution,
    block_encode,
    make_backend,
    select_taylor_truncation,
    taylor_exponential,
)
from hhlsim.linalg import ProblemInstance, hermitian_eigendecomposition, require_power_of_two
from hhlsim.pipeline import (
    HhlConfig,
    amplitude_encode,
    resolve_config,
    spectrum_is_representable,
)
from hhlsim.statevector import (
    RegisterLayout,
    StateVector,
    _check_unitary,
    marginal_probabilities,
)

DEAD_BRANCH_PROBABILITY = 1e-14

HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
)


class ClockRegisterNotCleared(HhlSimError):
    """Phase estimation requires the clock register to start in the all-zeros state."""


class ZeroProbabilityBranch(HhlSimError):
    """Requested collapse onto a measurement outcome with (near-)zero probability."""


# ---------------------------------------------------------------------------
# Gates and projective measurement on the full register. For a k-qubit gate
# matrix, ``targets[i]`` supplies bit ``i`` of the gate's row/column index.


def init_state(layout: RegisterLayout) -> StateVector:
    """All-zeros computational basis state for the layout."""
    amps = np.zeros(1 << layout.num_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(layout, amps)


def apply_unitary(
    state: StateVector,
    u: np.ndarray,
    targets: list[int],
    controls: list[int] | None = None,
) -> StateVector:
    """Apply a k-qubit unitary to ``targets``, conditioned on all ``controls`` = 1.

    Mutates ``state`` in place and returns it. The amplitude array is viewed
    as a rank-n tensor and only the target axes are contracted; the full
    2^n x 2^n operator is never built.
    """
    controls = list(controls or [])
    targets = list(targets)
    n = state.num_qubits
    k = len(targets)
    u = np.asarray(u, dtype=np.complex128)

    touched = targets + controls
    if len(set(touched)) != len(touched):
        raise IndexOverlap(f"targets {targets} and controls {controls} overlap")
    if any(q < 0 or q >= n for q in touched):
        raise IndexOverlap(f"qubit index out of range for {n}-qubit state")
    if u.shape != (1 << k, 1 << k):
        raise DimensionMismatch(f"gate shape {u.shape} does not match {k} target qubits")
    _check_unitary(u)

    # View as rank-n tensor; axis j corresponds to qubit (n-1-j).
    arr = state.amplitudes.reshape((2,) * n)
    indexer = [slice(None)] * n
    for c in controls:
        indexer[n - 1 - c] = 1
    sub = arr[tuple(indexer)]

    remaining = [q for q in range(n - 1, -1, -1) if q not in controls]
    pos = {q: i for i, q in enumerate(remaining)}
    # Gate bit i lives on targets[i]; order axes MSB-first for the reshape.
    src = [pos[q] for q in reversed(targets)]
    moved = np.moveaxis(sub, src, range(k))
    block = moved.reshape(1 << k, -1)
    moved[...] = (u @ block).reshape(moved.shape)
    return state


def measure_qubit(state: StateVector, qubit: int):
    """Projective measurement of one qubit.

    Returns ``(p0, p1, collapsed0, collapsed1)``. A branch whose probability
    is below ``DEAD_BRANCH_PROBABILITY`` has no normalizable post-measurement
    state and is returned as ``None``; use :func:`collapse` to get the error
    instead.
    """
    p0, p1 = _branch_probabilities(state, qubit)
    collapsed = []
    for outcome, p in ((0, p0), (1, p1)):
        if p < DEAD_BRANCH_PROBABILITY:
            collapsed.append(None)
        else:
            collapsed.append(_collapse_to(state, qubit, outcome, p))
    return p0, p1, collapsed[0], collapsed[1]


def collapse(state: StateVector, qubit: int, outcome: int) -> tuple[float, StateVector]:
    """Collapse onto one outcome; returns (probability, renormalized state)."""
    p0, p1 = _branch_probabilities(state, qubit)
    p = p1 if outcome else p0
    if p < DEAD_BRANCH_PROBABILITY:
        raise ZeroProbabilityBranch(
            f"outcome {outcome} on qubit {qubit} has probability {p:.3e}"
        )
    return p, _collapse_to(state, qubit, outcome, p)


def _branch_probabilities(state: StateVector, qubit: int) -> tuple[float, float]:
    n = state.num_qubits
    if qubit < 0 or qubit >= n:
        raise IndexOverlap(f"qubit {qubit} out of range for {n}-qubit state")
    probs = state.probabilities().reshape((2,) * n)
    axis = n - 1 - qubit
    marg = probs.sum(axis=tuple(i for i in range(n) if i != axis))
    return float(marg[0]), float(marg[1])


def _collapse_to(state: StateVector, qubit: int, outcome: int, p: float) -> StateVector:
    n = state.num_qubits
    arr = state.amplitudes.reshape((2,) * n)
    indexer = [slice(None)] * n
    indexer[n - 1 - qubit] = 1 - outcome
    new = arr.copy()
    new[tuple(indexer)] = 0.0
    return StateVector(state.layout, new.reshape(-1) / np.sqrt(p))


# ---------------------------------------------------------------------------
# QFT, phase estimation and the HHL pipeline on top of those gates.


def qft(n: int) -> np.ndarray:
    """Dense QFT matrix: entry (j, k) = exp(2*pi*i*j*k / 2^n) / sqrt(2^n)."""
    if n < 1 or n > 12:
        raise DimensionMismatch(f"dense QFT matrix limited to 1..12 qubits, got {n}")
    dim = 1 << n
    idx = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(idx, idx) / dim) / np.sqrt(dim)


def _phase_gate(theta: float) -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * theta)]], dtype=np.complex128)


def apply_qft(state: StateVector, qubits: list[int], inverse: bool = False) -> StateVector:
    """Gate-level QFT on a qubit group; qubits[i] is bit i of the register value."""
    n = len(qubits)
    if not inverse:
        for i in range(n - 1, -1, -1):
            apply_unitary(state, HADAMARD, [qubits[i]])
            for j in range(i - 1, -1, -1):
                theta = 2.0 * np.pi / (1 << (i - j + 1))
                apply_unitary(state, _phase_gate(theta), [qubits[i]], controls=[qubits[j]])
        for i in range(n // 2):
            apply_unitary(state, SWAP, [qubits[i], qubits[n - 1 - i]])
    else:
        for i in range(n // 2):
            apply_unitary(state, SWAP, [qubits[i], qubits[n - 1 - i]])
        for i in range(n):
            for j in range(i):
                theta = -2.0 * np.pi / (1 << (i - j + 1))
                apply_unitary(state, _phase_gate(theta), [qubits[i]], controls=[qubits[j]])
            apply_unitary(state, HADAMARD, [qubits[i]])
    return state


@dataclass(frozen=True)
class PhaseEstimate:
    """Clock readout: full bin distribution, the dominant bin and its eigenvalue."""

    clock_distribution: np.ndarray
    peak_bin: int
    implied_eigenvalue: float


def read_clock(state: StateVector, t: float) -> PhaseEstimate:
    """Readout of the clock register after phase estimation."""
    layout = state.layout
    probs = marginal_probabilities(state, layout.clock_qubits)
    peak = int(np.argmax(probs))
    lam = 2.0 * np.pi * peak / ((1 << layout.n_clock) * t)
    return PhaseEstimate(clock_distribution=probs, peak_bin=peak, implied_eigenvalue=lam)


def clock_zero_mass(state: StateVector) -> float:
    """Probability that the clock register reads all zeros."""
    return float(marginal_probabilities(state, state.layout.clock_qubits)[0])


def prepare_b(state: StateVector, b) -> StateVector:
    """Load b/||b|| into the data register of a freshly initialized state."""
    amps = amplitude_encode(b)
    dim = len(amps)
    if dim != 1 << state.layout.n_data:
        raise DimensionMismatch(
            f"rhs of dimension {dim} does not fit {state.layout.n_data} data qubits"
        )
    state.amplitudes[:dim] = amps
    state.amplitudes[dim:] = 0.0
    return state


def controlled_power(backend: EvolutionBackend, t: float, power: int) -> np.ndarray:
    """U^power as the matrix power of the backend's base propagator."""
    if power < 1:
        raise ValueError(f"power must be >= 1, got {power}")
    return np.linalg.matrix_power(backend.propagator(t), power)


def exponentials_per_u(backend: EvolutionBackend, t: float) -> int:
    """Elementary exponentials one application of the backend's U spends."""
    if isinstance(backend, ExactEvolution):
        return 1
    if isinstance(backend, TrotterEvolution):
        return backend.plan.steps * backend.plan.factors_per_step
    if isinstance(backend, BlockEvolution):
        if backend.truncation is not None:
            return backend.truncation
        return select_taylor_truncation(backend.encoding.alpha, t)
    raise TypeError(f"no cost model for {type(backend).__name__}")


def ladder_cost(backend: EvolutionBackend, t: float, n_c: int) -> tuple[int, int]:
    """(controlled U applications, elementary exponentials) of one ladder pass."""
    unit = exponentials_per_u(backend, t)
    applications = exponentials = 0
    for k in range(n_c):
        applications += 1 << k
        exponentials += (1 << k) * unit
    return applications, exponentials


def reference_base(a: np.ndarray, backend: EvolutionBackend, t: float) -> np.ndarray:
    """The base U the oracle runs: the block one from the reference block
    encoding of A, the others the backend's own."""
    if isinstance(backend, BlockEvolution):
        return taylor_exponential(block_encode(a), t, truncation=exponentials_per_u(backend, t))
    return backend.propagator(t)


def phase_estimation(state: StateVector, base: np.ndarray, n_c: int) -> StateVector:
    """Hadamards, the controlled U^(2^k) ladder of ``base``, then the inverse QFT."""
    layout = state.layout
    if layout.n_clock != n_c:
        raise DimensionMismatch(f"state has {layout.n_clock} clock qubits, expected {n_c}")
    if 1.0 - clock_zero_mass(state) > 1e-12:
        raise ClockRegisterNotCleared(
            "clock register carries population before phase estimation"
        )
    clock = layout.clock_qubits
    data = layout.data_qubits
    for q in clock:
        apply_unitary(state, HADAMARD, [q])
    for k in range(n_c):
        apply_unitary(state, np.linalg.matrix_power(base, 1 << k), data, controls=[clock[k]])
    apply_qft(state, clock, inverse=True)
    return state


def inverse_phase_estimation(state: StateVector, base: np.ndarray, n_c: int) -> StateVector:
    """Exact adjoint of :func:`phase_estimation` (same ladder matrices, conjugated)."""
    layout = state.layout
    if layout.n_clock != n_c:
        raise DimensionMismatch(f"state has {layout.n_clock} clock qubits, expected {n_c}")
    clock = layout.clock_qubits
    data = layout.data_qubits
    apply_qft(state, clock, inverse=False)
    for k in range(n_c - 1, -1, -1):
        u = np.linalg.matrix_power(base, 1 << k)
        apply_unitary(state, u.conj().T, data, controls=[clock[k]])
    for q in clock:
        apply_unitary(state, HADAMARD, [q])
    return state


def eigenvalue_inversion(
    state: StateVector,
    c: float,
    n_c: int,
    t: float,
    zero_bin_tolerance: float = 1e-10,
) -> StateVector:
    """Rotate the ancilla by 2*arcsin(C/lambda_m), controlled on clock value m."""
    if c <= 0.0:
        raise ValueError(f"inversion constant must be positive, got {c}")
    bins = 1 << n_c
    arr = state.amplitudes.reshape(2, bins, 1 << state.layout.n_data)
    zero_bin_mass = float(np.sum(np.abs(arr[:, 0, :]) ** 2))
    if zero_bin_mass > zero_bin_tolerance:
        raise ZeroEigenvalueBin(
            f"clock bin 0 carries probability {zero_bin_mass:.3e} "
            f"(tolerance {zero_bin_tolerance:.1e})"
        )
    lam = 2.0 * np.pi * np.arange(1, bins) / (bins * t)
    ratio = np.minimum(c / lam, 1.0)
    sin_half = ratio[:, None]
    cos_half = np.sqrt(1.0 - ratio**2)[:, None]
    a0 = arr[0, 1:, :].copy()
    a1 = arr[1, 1:, :].copy()
    arr[0, 1:, :] = cos_half * a0 - sin_half * a1
    arr[1, 1:, :] = sin_half * a0 + cos_half * a1
    return state


@dataclass(frozen=True)
class OracleResult:
    solution_amplitudes: np.ndarray
    success_probability: float
    clock_residual: float
    controlled_u_count: int
    elementary_exp_count: int
    clock_distribution: np.ndarray  # after forward phase estimation
    resolved: HhlConfig


def hhl(problem: ProblemInstance, config: HhlConfig) -> OracleResult:
    """The whole pipeline on the gate-level engine, with run_hhl's checks."""
    spectrum = hermitian_eigendecomposition(problem.matrix)
    resolved = resolve_config(problem, config, spectrum)
    n_c, t, c = resolved.n_c, resolved.t, resolved.C
    n_data = require_power_of_two(problem.dim)
    layout = RegisterLayout(n_clock=n_c, n_data=n_data)
    state = prepare_b(init_state(layout), problem.rhs)
    backend = make_backend(
        problem.matrix,
        spectrum,
        resolved.method,
        trotter_steps=resolved.trotter_steps,
        trotter_order=resolved.trotter_order,
        taylor_k=resolved.taylor_k,
    )
    base = reference_base(problem.matrix, backend, t)
    phase_estimation(state, base, n_c)
    clock_distribution = marginal_probabilities(state, layout.clock_qubits)
    strict = spectrum_is_representable(problem, n_c, t, spectrum) and resolved.method == "exact"
    eigenvalue_inversion(state, c, n_c, t, zero_bin_tolerance=1e-10 if strict else 0.5)
    success = float(marginal_probabilities(state, [layout.ancilla_qubit])[1])
    if success < 1e-12:
        raise PostSelectionImpossible(f"ancilla success probability {success:.3e} below 1e-12")
    _, state = collapse(state, layout.ancilla_qubit, 1)
    inverse_phase_estimation(state, base, n_c)
    clock_residual = 1.0 - clock_zero_mass(state)
    offset = 1 << (n_c + n_data)
    solution = state.amplitudes[offset : offset + (1 << n_data)].copy()
    norm = np.linalg.norm(solution)
    if norm < 1e-12:
        raise PostSelectionImpossible("no amplitude survived on the zero-clock block")
    applications, exponentials = ladder_cost(backend, t, n_c)
    return OracleResult(
        solution_amplitudes=solution / norm,
        success_probability=success,
        clock_residual=max(clock_residual, 0.0),
        controlled_u_count=2 * applications,
        elementary_exp_count=2 * exponentials,
        clock_distribution=clock_distribution,
        resolved=resolved,
    )
