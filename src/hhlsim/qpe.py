"""Quantum phase estimation and its exact adjoint (uncompute).

The clock register stores integer bin m for a phase theta = m / 2^n_c, i.e.
an eigenvalue lambda = 2*pi*m / (2^n_c * t) of the Hermitian generator. Clock
qubit k controls U^(2^k), so one forward pass costs sum_k 2^k = 2^n_c - 1
applications of U (tracked on the backend's counters).

The QFT is applied gate-by-gate (Hadamard, controlled phases, swaps); the
dense matrix form exists only for tests and small diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClockRegisterNotCleared, DimensionMismatch
from .hamiltonian import EvolutionBackend
from .statevector import StateVector, apply_unitary, marginal_probabilities

HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
)


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
    """Diagnostic readout of the clock register after phase estimation."""
    layout = state.layout
    probs = marginal_probabilities(state, layout.clock_qubits)
    peak = int(np.argmax(probs))
    lam = 2.0 * np.pi * peak / ((1 << layout.n_clock) * t)
    return PhaseEstimate(clock_distribution=probs, peak_bin=peak, implied_eigenvalue=lam)


def clock_zero_mass(state: StateVector) -> float:
    """Probability that the clock register reads all zeros."""
    probs = marginal_probabilities(state, state.layout.clock_qubits)
    return float(probs[0])


def phase_estimation(
    state: StateVector, backend: EvolutionBackend, n_c: int, t: float
) -> StateVector:
    """Hadamards, the controlled U^(2^k) ladder, then the inverse QFT on the clock."""
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
        u = backend.propagator(t, 1 << k)
        apply_unitary(state, u, data, controls=[clock[k]])
    apply_qft(state, clock, inverse=True)
    return state


def inverse_phase_estimation(
    state: StateVector, backend: EvolutionBackend, n_c: int, t: float
) -> StateVector:
    """Exact adjoint of :func:`phase_estimation` (same backend matrices, conjugated)."""
    layout = state.layout
    if layout.n_clock != n_c:
        raise DimensionMismatch(f"state has {layout.n_clock} clock qubits, expected {n_c}")
    clock = layout.clock_qubits
    data = layout.data_qubits
    apply_qft(state, clock, inverse=False)
    for k in range(n_c - 1, -1, -1):
        u = backend.propagator(t, 1 << k)
        apply_unitary(state, u.conj().T, data, controls=[clock[k]])
    for q in clock:
        apply_unitary(state, HADAMARD, [q])
    return state
