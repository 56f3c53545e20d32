"""Seeded generators for the four benchmark matrix families.

Two generation styles, by design:

* ``diagonal`` and ``dense`` are spectrum-first: eigenvalues are sampled
  (on an integer grid when ``representable`` is set, so phase estimation can
  be exact) and conjugated by a seeded Haar basis, making the condition
  number exact by construction.
* ``tridiagonal`` and ``moderate`` are structure-first: a random symmetric
  pattern is drawn and then shifted by sigma*I, with sigma solved so the
  condition number lands exactly on target. Their spectra are generic reals,
  so they cannot be grid-representable.

The same seed always yields a bit-identical instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InfeasibleSpec
from .linalg import ProblemInstance, condition_number, max_nonzeros_per_row, require_hermitian

FAMILIES = ("diagonal", "tridiagonal", "moderate", "dense")

# Largest eigenvalue-grid integer: must fit the widest clock register (7 bits).
GRID_CAP = 127
# Grid spread target: keep integers within 5 clock bits when possible.
GRID_TARGET = 31


@dataclass(frozen=True)
class FamilySpec:
    """Recipe for one benchmark instance."""

    family: str
    dim: int
    seed: int
    kappa_target: float = 5.0
    representable: bool | None = None  # None = family default
    nnz_per_row: int | None = None  # moderate family only

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InfeasibleSpec(f"unknown family '{self.family}' (expected {FAMILIES})")
        if self.dim < 2 or (self.dim & (self.dim - 1)) != 0:
            raise InfeasibleSpec(f"dimension {self.dim} must be a power of two >= 2")
        if self.kappa_target < 1.0:
            raise InfeasibleSpec(f"kappa_target {self.kappa_target} < 1")

    def wants_grid(self) -> bool:
        if self.representable is not None:
            return self.representable
        return self.family in ("diagonal", "dense")


def _grid_endpoints(kappa: float) -> tuple[int, int]:
    """Integer eigenvalue range [m_min, m_max] with m_max/m_min = kappa."""
    frac = Fraction(kappa).limit_denominator(GRID_TARGET)
    p, q = frac.numerator, frac.denominator
    if p > GRID_CAP:
        raise InfeasibleSpec(
            f"kappa_target {kappa} needs grid integers beyond {GRID_CAP}"
        )
    scale = max(1, GRID_TARGET // p)
    return scale * q, scale * p


def _sample_eigenvalues(spec: FamilySpec, rng: np.random.Generator) -> np.ndarray:
    """Eigenvalues with exact endpoints; interior sampled, order shuffled."""
    n = spec.dim
    if spec.wants_grid():
        lo, hi = _grid_endpoints(spec.kappa_target)
        interior = rng.integers(lo, hi + 1, size=n - 2) if n > 2 else np.array([], int)
        values = np.concatenate(([lo, hi], interior)).astype(float)
    else:
        lo, hi = 1.0, spec.kappa_target
        interior = rng.uniform(lo, hi, size=n - 2) if n > 2 else np.array([])
        values = np.concatenate(([lo, hi], interior))
    return values[rng.permutation(n)]


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _shift_to_kappa(b: np.ndarray, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """Add sigma*I so the spectrum scales to exactly the target condition number.

    Returns the shifted matrix and its eigenvalues mu + sigma.
    """
    mu = np.linalg.eigvalsh(b)
    mu_min, mu_max = float(mu[0]), float(mu[-1])
    if mu_max - mu_min < 1e-9:
        raise InfeasibleSpec("structural matrix is numerically a multiple of identity")
    if kappa <= 1.0 + 1e-12:
        raise InfeasibleSpec("structural families cannot hit kappa = 1 exactly")
    sigma = (mu_max - kappa * mu_min) / (kappa - 1.0)
    return b + sigma * np.eye(b.shape[0]), mu + sigma


def _tridiagonal_structure(n: int, rng: np.random.Generator) -> np.ndarray:
    diag = rng.uniform(0.0, 1.0, size=n)
    off = rng.uniform(0.3, 1.0, size=n - 1) * rng.choice([-1.0, 1.0], size=n - 1)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def _moderate_structure(spec: FamilySpec, rng: np.random.Generator) -> np.ndarray:
    """Symmetric sparse pattern with exactly nnz_target nonzeros per row.

    Built as a relabelled ring lattice: ring offsets contribute two neighbours
    per row, the half-turn matching one more for odd degrees, so every row
    carries (nnz_target - 1) off-diagonal entries by construction. A seeded
    permutation then scrambles the labels.
    """
    n = spec.dim
    if n < 8:
        raise InfeasibleSpec(
            f"moderate family needs dim >= 8 to satisfy 3 <= nnz/row < dim/2 (got {n})"
        )
    nnz_target = spec.nnz_per_row if spec.nnz_per_row is not None else max(3, n // 4)
    if not 3 <= nnz_target < n // 2:
        raise InfeasibleSpec(
            f"moderate family needs 3 <= nnz_per_row < {n // 2}, got {nnz_target}"
        )
    degree = nnz_target - 1  # diagonal entry is always present
    edges: list[tuple[int, int]] = []
    for offset in range(1, degree // 2 + 1):
        for i in range(n):
            j = (i + offset) % n
            edges.append((min(i, j), max(i, j)))
    if degree % 2 == 1:
        for i in range(n // 2):
            edges.append((i, i + n // 2))
    relabel = rng.permutation(n)
    b = np.diag(rng.uniform(0.0, 1.0, size=n))
    values = rng.uniform(0.3, 1.0, size=len(edges)) * rng.choice([-1.0, 1.0], size=len(edges))
    for (i, j), v in zip(edges, values):
        pi, pj = relabel[i], relabel[j]
        b[pi, pj] = v
        b[pj, pi] = v
    return b


def generate(spec: FamilySpec) -> ProblemInstance:
    """Deterministically generate one Hermitian positive-definite instance.

    Kappa comes from the eigenvalues the construction already holds: the
    sampled spectrum, or the structure's shifted one. No second
    eigendecomposition is run.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.dim
    if spec.family == "diagonal":
        values = _sample_eigenvalues(spec, rng)
        a = np.diag(values).astype(np.complex128)
    elif spec.family == "dense":
        values = _sample_eigenvalues(spec, rng)
        q = _haar_unitary(n, rng)
        a = (q * values) @ q.conj().T
        a = (a + a.conj().T) / 2.0
    elif spec.family == "tridiagonal":
        if spec.wants_grid():
            raise InfeasibleSpec("tridiagonal spectra cannot be forced onto the clock grid")
        a, values = _shift_to_kappa(_tridiagonal_structure(n, rng), spec.kappa_target)
        a = a.astype(np.complex128)
    else:  # moderate
        if spec.wants_grid():
            raise InfeasibleSpec("moderate spectra cannot be forced onto the clock grid")
        a, values = _shift_to_kappa(_moderate_structure(spec, rng), spec.kappa_target)
        a = a.astype(np.complex128)
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    rhs /= np.linalg.norm(rhs)
    a = require_hermitian(a)
    return ProblemInstance(
        matrix=a,
        rhs=rhs,
        sparsity=max_nonzeros_per_row(a),
        condition_number=condition_number(values),
    )


def family_census(problem: ProblemInstance) -> dict:
    """Structure report: max nonzeros per row, kappa, spectral range."""
    eigenvalues = np.linalg.eigvalsh(problem.matrix)
    mags = np.abs(eigenvalues)
    return {
        "nnz_per_row_max": max_nonzeros_per_row(problem.matrix),
        "kappa": float(mags.max() / mags.min()),
        "spectral_range": (float(eigenvalues[0]), float(eigenvalues[-1])),
    }
