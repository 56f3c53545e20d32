"""Hamiltonian-simulation backends: the base propagator U = exp(i*A*t).

Three interchangeable ways to realize U:

* ``exact``   - V e^{i*lambda*t} V^dagger from the eigendecomposition;
* ``trotter`` - product formula over the Pauli decomposition of A, ``steps``
  repetitions of one step of size t/steps. Each term is a coefficient and
  two qubit bit masks, x (X or Y) and z (Y or Z); its word maps |k> to
  i^popcount(x & z) * (-1)^popcount(k & z) |k ^ x>, so a factor
  exp(i*theta*P) is a row permutation and a sign, and no word string is
  built or parsed on the decomposition or the step build;
* ``block``   - the truncated Taylor series p_K(i*A*t) of the block-encoded
  A = alpha * (A/alpha), projected to the nearest unitary. A polynomial in a
  Hermitian matrix is diagonal in its eigenbasis and the polar factor of a
  normal matrix is its phase, so the backend evaluates p_K on the encoded
  eigenvalues of the spectrum the pipeline already computed: U is
  V diag(p/|p|) V^dagger. ``taylor_exponential(block_encode(A), t)`` builds
  the same matrix the long way (series of matrix products, Gram-matrix polar
  factor) and stays the reference; the doubled unitary is built only on
  request (``BlockEncoding.unitary``).

A backend holds no state past its construction. It answers three
questions. ``eigenphases(t)`` gives the phases phi_j with
U = V diag(e^{i*phi}) V^dagger in the eigenbasis V of the spectrum the
backend was built from: lambda_j * t for exact, arg p_K(i*lambda_j*t) for
block, and None for Trotter, whose U is not diagonal in A's eigenbasis.
``propagator(t)`` builds U as a matrix. ``exponentials_per_application(t)``
is the number of elementary exponential factors one application of U spends
in the modelled circuit. The pipeline runs phase estimation in closed form
on the eigenphases when a backend has them and on the matrix U otherwise
(see :mod:`hhlsim.pipeline`); it turns the third answer into the solve's
cost either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import NonPowerOfTwoDimension, NormalizationFailure, TruncationInsufficient
from .linalg import (
    Spectrum,
    hermitian_eigendecomposition,
    propagator_from_spectrum,
    require_hermitian,
    require_power_of_two,
)

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

COEFFICIENT_CUTOFF = 1e-12


def pauli_word_matrix(word: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis; word[0] acts on the top qubit."""
    return reduce(np.kron, [PAULI_MATRICES[ch] for ch in word])


@dataclass(frozen=True, eq=False)
class PauliTermList:
    """Real-weighted Pauli words whose sum reconstructs a Hermitian matrix.

    Term j is ``coefficients[j]`` times the word with bit masks
    ``xmasks[j]`` and ``zmasks[j]``: bit q of a mask is qubit q (the word's
    letter at position n-1-q), set in x for X and Y and in z for Y and Z.
    The word maps |k> to i^popcount(x & z) * (-1)^popcount(k & z) |k ^ x>.
    Terms are in lexicographic word order.
    """

    coefficients: np.ndarray
    xmasks: np.ndarray
    zmasks: np.ndarray
    num_qubits: int

    @property
    def term_count(self) -> int:
        return len(self.coefficients)

    @property
    def terms(self) -> tuple[tuple[float, str], ...]:
        """``(coefficient, word)`` pairs; word[0] acts on the top qubit."""
        qubits = range(self.num_qubits - 1, -1, -1)
        return tuple(
            (coeff, "".join("IXZY"[(x >> q & 1) | (z >> q & 1) << 1] for q in qubits))
            for coeff, x, z in zip(
                self.coefficients.tolist(), self.xmasks.tolist(), self.zmasks.tolist()
            )
        )

    def reconstruct(self) -> np.ndarray:
        dim = 1 << self.num_qubits
        flips, signs = _mask_tables(dim)
        cols = np.arange(dim)
        out = np.zeros((dim, dim), dtype=np.complex128)
        for coeff, x, z in zip(
            self.coefficients.tolist(), self.xmasks.tolist(), self.zmasks.tolist()
        ):
            out[flips[x], cols] += coeff * 1j ** (x & z).bit_count() * signs[z]
        return out


def _mask_tables(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``flips[x] = k ^ x`` and ``signs[z] = (-1)^popcount(k & z)`` for k < dim."""
    idx = np.arange(dim)
    flips = idx[:, None] ^ idx
    signs = np.where(np.bitwise_count(idx[:, None] & idx) & 1, -1.0, 1.0)
    return flips, signs


def pauli_decompose(a) -> PauliTermList:
    """Expand a Hermitian matrix over Pauli words (lexicographic order).

    Tensorized decomposition: with the top qubit first, each qubit's
    (row, column) pair of 2x2 blocks maps to its I, X, Y and Z parts, so the
    n maps leave the 4^n coefficients in base-4 word order (I, X, Y, Z =
    0..3, top qubit most significant). Terms with |coefficient| <= 1e-12 are
    dropped.
    """
    a = require_hermitian(a)
    n = require_power_of_two(a.shape[0])
    if n < 1:
        raise NonPowerOfTwoDimension("Pauli decomposition needs dimension >= 2")
    coeffs = a.reshape(1, a.shape[0], a.shape[0])
    for _ in range(n):
        words, half = coeffs.shape[0], coeffs.shape[1] // 2
        blocks = coeffs.reshape(words, 2, half, 2, half)
        b00, b01 = blocks[:, 0, :, 0], blocks[:, 0, :, 1]
        b10, b11 = blocks[:, 1, :, 0], blocks[:, 1, :, 1]
        children = ((b00 + b11) / 2.0, (b01 + b10) / 2.0, 1j * (b01 - b10) / 2.0, (b00 - b11) / 2.0)
        coeffs = np.stack(children, axis=1).reshape(4 * words, half, half)
    coeffs = coeffs.reshape(-1)
    kept = np.flatnonzero(np.abs(coeffs) > COEFFICIENT_CUTOFF)
    # Base-4 digit q of a word index is qubit q's letter: I, X, Y, Z = 0..3.
    digits = (kept[:, None] >> 2 * np.arange(n)) & 3
    bits = 1 << np.arange(n)
    return PauliTermList(
        # Hermitian input guarantees real weights; imaginary dust is roundoff.
        coefficients=coeffs[kept].real,
        xmasks=((digits ^ digits >> 1) & 1) @ bits,
        zmasks=(digits >> 1) @ bits,
        num_qubits=n,
    )


@dataclass(frozen=True)
class TrotterPlan:
    """Product-formula splitting: terms, order and step count."""

    terms: PauliTermList
    order: int
    steps: int

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ValueError(f"unsupported product-formula order {self.order}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @property
    def factors_per_step(self) -> int:
        """Elementary exponentials spent by one step (order 2 sweeps twice)."""
        return (1 if self.order == 1 else 2) * self.terms.term_count


def make_trotter_plan(a, steps: int, order: int = 2) -> TrotterPlan:
    terms = a if isinstance(a, PauliTermList) else pauli_decompose(a)
    return TrotterPlan(terms=terms, order=order, steps=steps)


def _trotter_step_matrix(plan: TrotterPlan, h: float) -> np.ndarray:
    """One product-formula step for step size h.

    Order 1 sweeps the terms forward; order 2 (symmetric) sweeps forward at
    h/2 and back at h/2. Factors are written left-to-right and therefore
    applied to the accumulating matrix in reverse. Each factor is
    exp(i*theta*P) = cos(theta) + i*sin(theta)*P (P^2 = I), with P acting on
    rows: (P m)[r] = phase(r ^ x) * m[r ^ x], read off the mask tables.
    """
    terms = plan.terms
    angles = terms.coefficients * h
    sequence = list(range(terms.term_count - 1, -1, -1))
    if plan.order == 2:
        angles = angles / 2.0
        sequence = sequence[::-1] + sequence
    dim = 1 << terms.num_qubits
    flips, signs = _mask_tables(dim)
    xs, zs, thetas = terms.xmasks.tolist(), terms.zmasks.tolist(), angles.tolist()
    m = np.eye(dim, dtype=np.complex128)
    for j in sequence:
        x, z, theta = xs[j], zs[j], thetas[j]
        perm = flips[x]
        row_phases = 1j ** (x & z).bit_count() * signs[z, perm]
        m = math.cos(theta) * m + (1j * math.sin(theta)) * (row_phases[:, None] * m[perm])
    return m


def trotter_unitary(plan: TrotterPlan, t: float) -> np.ndarray:
    """Approximate exp(i*A*t) by `steps` repetitions of the product formula."""
    step = _trotter_step_matrix(plan, t / plan.steps)
    return np.linalg.matrix_power(step, plan.steps)


@dataclass(frozen=True)
class BlockEncoding:
    """A/alpha as the top-left block of U = [[A/a, B], [B, -A/a]].

    B = sqrt(I-(A/a)^2) commutes with A, which makes U unitary. Only alpha
    and the spectrum are kept; ``scaled`` and ``unitary`` build their
    matrices on request.
    """

    spectrum: Spectrum
    alpha: float

    @classmethod
    def from_spectrum(cls, spectrum: Spectrum) -> "BlockEncoding":
        """alpha = ||A|| with a tiny safety margin, so I - (A/alpha)^2 stays PSD."""
        norm2 = float(np.max(np.abs(spectrum.eigenvalues))) if spectrum.dim else 0.0
        alpha = norm2 * (1.0 + 1e-9) if norm2 > 0.0 else 1.0
        return cls(spectrum=spectrum, alpha=alpha)

    @property
    def scaled(self) -> np.ndarray:
        """A / alpha."""
        v = self.spectrum.eigenvectors
        return (v * (self.spectrum.eigenvalues / self.alpha)) @ v.conj().T

    @property
    def unitary(self) -> np.ndarray:
        complement = 1.0 - (self.spectrum.eigenvalues / self.alpha) ** 2
        if np.min(complement) < -1e-12:
            raise NormalizationFailure(
                f"I - (A/alpha)^2 has eigenvalue {float(np.min(complement)):.3e}"
            )
        v = self.spectrum.eigenvectors
        b = (v * np.sqrt(np.clip(complement, 0.0, None))) @ v.conj().T
        scaled = self.scaled
        return np.block([[scaled, b], [b, -scaled]])

    def encoded_matrix(self) -> np.ndarray:
        """alpha * (top-left block), i.e. the matrix that was encoded."""
        return self.alpha * self.scaled


def block_encode(a) -> BlockEncoding:
    """Block-encode Hermitian A from its own eigendecomposition."""
    return BlockEncoding.from_spectrum(hermitian_eigendecomposition(a))


def taylor_truncation_bound(alpha: float, t: float, k: int) -> float:
    """Remainder bound (alpha*|t|)^(k+1) / (k+1)! of the exponential series."""
    x = alpha * abs(t)
    return math.exp((k + 1) * math.log(x) - math.lgamma(k + 2)) if x > 0 else 0.0


def select_taylor_truncation(
    alpha: float, t: float, tolerance: float = 1e-12, cap: int = 40
) -> int:
    """Smallest K with series remainder <= tolerance, capped at 40."""
    for k in range(cap + 1):
        if taylor_truncation_bound(alpha, t, k) <= tolerance:
            return k
    raise TruncationInsufficient(
        f"series remainder at K={cap} is "
        f"{taylor_truncation_bound(alpha, t, cap):.3e} > {tolerance:.1e} "
        f"for alpha*|t| = {alpha * abs(t):.3f}"
    )


def taylor_exponential(
    encoding: BlockEncoding,
    t: float,
    truncation: int | None = None,
    tolerance: float | None = None,
) -> np.ndarray:
    """Truncated-series exp(i*A*t) from a block encoding, re-unitarized.

    With ``truncation=None`` the order is auto-selected for a 1e-12 remainder
    (capped at K=40). An explicit truncation is validated against ``tolerance``
    when one is given. The partial sum S is projected to the nearest unitary,
    its polar factor S (S^dagger S)^(-1/2), which at most doubles the
    truncation error. The inverse square root comes from ``eigh`` of the Gram
    matrix S^dagger S, which cannot fail to converge the way an SVD of S can.
    """
    if truncation is None:
        k = select_taylor_truncation(encoding.alpha, t)
    else:
        k = int(truncation)
        if tolerance is not None:
            bound = taylor_truncation_bound(encoding.alpha, t, k)
            if bound > tolerance:
                raise TruncationInsufficient(
                    f"remainder bound {bound:.3e} exceeds tolerance {tolerance:.1e} at K={k}"
                )
    a = encoding.encoded_matrix()
    dim = a.shape[0]
    acc = np.eye(dim, dtype=np.complex128)
    term = np.eye(dim, dtype=np.complex128)
    iat = 1j * t * a
    for j in range(1, k + 1):
        term = term @ iat / j
        acc = acc + term
    w, q = np.linalg.eigh(acc.conj().T @ acc)
    return acc @ (q / np.sqrt(w)) @ q.conj().T


class EvolutionBackend:
    """How a solve builds U = exp(i*A*t), and what one application costs."""

    def eigenphases(self, t: float) -> np.ndarray | None:
        """Phases phi with U = V diag(e^{i*phi}) V^dagger in A's eigenbasis V.

        None when U is not diagonal in that basis.
        """
        return None

    def propagator(self, t: float) -> np.ndarray:
        """U = exp(i*A*t)."""
        raise NotImplementedError

    def exponentials_per_application(self, t: float) -> int:
        """Elementary exponentials one application of U spends."""
        raise NotImplementedError


class ExactEvolution(EvolutionBackend):
    """exp(i*A*t) straight from the eigendecomposition."""

    def __init__(self, spectrum: Spectrum):
        self.spectrum = spectrum

    def eigenphases(self, t: float) -> np.ndarray:
        return self.spectrum.eigenvalues * t

    def propagator(self, t: float) -> np.ndarray:
        return propagator_from_spectrum(self.spectrum, t)

    def exponentials_per_application(self, t: float) -> int:
        return 1


class TrotterEvolution(EvolutionBackend):
    """Product formula with a per-step size fixed by the base time t.

    Each application of U repeats the step ``steps`` times, so the modelled
    circuit spends steps * factors_per_step elementary exponentials per U.
    """

    def __init__(self, a, steps: int = 8, order: int = 2):
        self.plan = make_trotter_plan(a, steps, order)
        self.terms = self.plan.terms

    def propagator(self, t: float) -> np.ndarray:
        return trotter_unitary(self.plan, t)

    def exponentials_per_application(self, t: float) -> int:
        return self.plan.steps * self.plan.factors_per_step


class BlockEvolution(EvolutionBackend):
    """Taylor-series evolution from the block encoding of A.

    The series is taken at the base time t only; a single series at time
    t*power would need an ever larger truncation order (the remainder bound
    grows like (alpha*t*power)^K / K!), so U^m is the base applied m times.
    Each application of U spends K series terms. The series and its polar
    projection are evaluated on the encoded eigenvalues alpha * (lambda/alpha)
    rather than on the matrix: their phases are the eigenphases, and
    ``propagator`` builds V diag(e^{i*phi}) V^dagger from them.
    """

    def __init__(self, spectrum: Spectrum, truncation: int | None = None):
        self.encoding = BlockEncoding.from_spectrum(spectrum)
        self.truncation = truncation

    def eigenphases(self, t: float) -> np.ndarray:
        """arg p_K(i*lambda_j*t): the phase of the series on each encoded eigenvalue."""
        spectrum, alpha = self.encoding.spectrum, self.encoding.alpha
        x = 1j * t * (alpha * (spectrum.eigenvalues / alpha))
        acc = np.ones_like(x)
        term = np.ones_like(x)
        for j in range(1, self.exponentials_per_application(t) + 1):
            term = term * x / j
            acc = acc + term
        return np.angle(acc)

    def propagator(self, t: float) -> np.ndarray:
        v = self.encoding.spectrum.eigenvectors
        return (v * np.exp(1j * self.eigenphases(t))) @ v.conj().T

    def exponentials_per_application(self, t: float) -> int:
        """Series order K, which is also the cost of one application of U."""
        if self.truncation is not None:
            return self.truncation
        return select_taylor_truncation(self.encoding.alpha, t)


def make_backend(
    a,
    spectrum: Spectrum,
    method: str,
    trotter_steps: int = 8,
    trotter_order: int = 2,
    taylor_k: int | None = None,
) -> EvolutionBackend:
    """Backend for ``method``; exact and block read the shared spectrum of A."""
    if method == "exact":
        return ExactEvolution(spectrum)
    if method == "trotter":
        return TrotterEvolution(a, steps=trotter_steps, order=trotter_order)
    if method == "block":
        return BlockEvolution(spectrum, truncation=taylor_k)
    raise ValueError(f"unknown simulation method '{method}' (expected exact|trotter|block)")
