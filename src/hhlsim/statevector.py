"""Register layout, its amplitude budget, and state readout.

Conventions (fixed everywhere in this package):

* Qubit ``q`` is bit ``q`` of the basis-state index, so qubit 0 is the least
  significant bit.
* A register layout is (ancilla, clock, data) from most to least significant:
  data qubits are ``0 .. n_data-1``, clock qubits ``n_data .. n_data+n_clock-1``
  and the single ancilla sits on top. Basis index = a*2^(nc+nd) + m*2^nd + d.

The solve path never holds the full register: phase estimation works in
A's eigenbasis or on clock-by-data arrays (see :mod:`hhlsim.qpe`), but a
solve is still refused when its modelled register exceeds ``MAX_QUBITS``.
What remains here is the unitarity check, marginals, shot sampling and
fidelity. The gate-by-gate engine both routes are tested against lives with
the test oracle (``tests/qpe_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOverlap,
    NonUnitary,
    RegisterTooLarge,
    ZeroVector,
)

# Hard amplitude budget: 2^26 complex doubles = 1 GiB.
MAX_QUBITS = 26


@dataclass(frozen=True)
class RegisterLayout:
    """Qubit counts for the (ancilla, clock, data) register split."""

    n_clock: int
    n_data: int
    n_ancilla: int = 1

    def __post_init__(self):
        if self.n_clock < 0 or self.n_data < 1 or self.n_ancilla < 0:
            raise ValueError(f"invalid register layout {self}")
        if self.num_qubits > MAX_QUBITS:
            raise RegisterTooLarge(
                f"{self.num_qubits} qubits exceed the {MAX_QUBITS}-qubit budget"
            )

    @property
    def num_qubits(self) -> int:
        return self.n_ancilla + self.n_clock + self.n_data

    @property
    def data_qubits(self) -> list[int]:
        return list(range(self.n_data))

    @property
    def clock_qubits(self) -> list[int]:
        return list(range(self.n_data, self.n_data + self.n_clock))

    @property
    def ancilla_qubit(self) -> int:
        if self.n_ancilla == 0:
            raise ValueError("layout has no ancilla qubit")
        return self.n_data + self.n_clock


@dataclass
class StateVector:
    """2^n complex amplitudes over a register layout."""

    layout: RegisterLayout
    amplitudes: np.ndarray

    @property
    def num_qubits(self) -> int:
        return self.layout.num_qubits

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "StateVector":
        return StateVector(self.layout, self.amplitudes.copy())

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class ShotHistogram:
    """Measurement counts over bitstrings, with the RNG seed that drew them."""

    counts: dict[str, int]
    shots: int
    seed: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("histogram counts do not sum to the shot total")


def state_from_amplitudes(layout: RegisterLayout, amplitudes) -> StateVector:
    amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    if len(amps) != 1 << layout.num_qubits:
        raise DimensionMismatch(
            f"expected {1 << layout.num_qubits} amplitudes, got {len(amps)}"
        )
    return StateVector(layout, amps.copy())


def _check_unitary(u: np.ndarray, atol: float = 1e-10) -> None:
    """Unitarity check: exact Gram test for small gates, randomized probe above.

    The probe uses a fixed-seed batch of vectors so behaviour is deterministic;
    it preserves norms and pairwise inner products only if U is an isometry.
    """
    dim = u.shape[0]
    if dim <= 64:
        gram = u.conj().T @ u
        err = float(np.max(np.abs(gram - np.eye(dim))))
    else:
        rng = np.random.default_rng(0x5EED)
        probes = rng.standard_normal((dim, 8)) + 1j * rng.standard_normal((dim, 8))
        probes, _ = np.linalg.qr(probes)
        image = u @ probes
        err = float(np.max(np.abs(image.conj().T @ image - np.eye(probes.shape[1]))))
    if err > atol:
        raise NonUnitary(f"gate deviates from unitarity by {err:.3e}")


def marginal_probabilities(state: StateVector, qubits: list[int]) -> np.ndarray:
    """Marginal distribution over the listed qubits; qubits[i] is bit i of the outcome."""
    n = state.num_qubits
    qubits = list(qubits)
    if len(set(qubits)) != len(qubits) or any(q < 0 or q >= n for q in qubits):
        raise IndexOverlap(f"invalid qubit list {qubits} for {n}-qubit state")
    probs = state.probabilities().reshape((2,) * n)
    keep = [n - 1 - q for q in reversed(qubits)]  # outcome MSB first
    drop = tuple(i for i in range(n) if i not in keep)
    marg = probs.sum(axis=drop) if drop else probs
    src = [sorted(keep).index(ax) for ax in keep]
    marg = np.moveaxis(marg, src, range(len(keep)))
    return marg.reshape(-1)


def sample_counts(
    state: StateVector, qubits: list[int], shots: int, seed: int
) -> ShotHistogram:
    """Draw shot counts from the marginal distribution of the listed qubits.

    Reproducible for a fixed seed (PCG64 generator). Bitstring keys are
    rendered MSB-first over ``len(qubits)`` bits; zero-count outcomes are
    omitted.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = marginal_probabilities(state, qubits)
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, probs)
    width = len(qubits)
    counts = {
        format(i, f"0{width}b"): int(c) for i, c in enumerate(draws) if c > 0
    }
    return ShotHistogram(counts=counts, shots=shots, seed=seed)


def fidelity(a, b) -> float:
    """Squared overlap |<a|b>|^2 of two normalized states or amplitude vectors."""
    av = a.amplitudes if isinstance(a, StateVector) else np.asarray(a, dtype=np.complex128)
    bv = b.amplitudes if isinstance(b, StateVector) else np.asarray(b, dtype=np.complex128)
    av, bv = av.reshape(-1), bv.reshape(-1)
    if av.shape != bv.shape:
        raise DimensionMismatch(f"state dimensions differ: {av.shape} vs {bv.shape}")
    na, nb = np.linalg.norm(av), np.linalg.norm(bv)
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("fidelity of a zero vector is undefined")
    if abs(na - 1.0) > 1e-8 or abs(nb - 1.0) > 1e-8:
        raise ValueError(f"fidelity requires normalized inputs (norms {na:.6f}, {nb:.6f})")
    return float(np.abs(np.vdot(av, bv)) ** 2)
