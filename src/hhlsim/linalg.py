"""Dense complex linear algebra: eigendecomposition, matrix exponentials and
the classical direct solver used as the ground-truth reference.

All matrices are dense ``numpy`` arrays of ``complex128``. Sparsity is treated
as metadata on :class:`ProblemInstance`, never as a storage format: at the
sizes this package targets (N <= 1024) dense storage is at most a few MB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonHermitian,
    NonPowerOfTwoDimension,
    SingularMatrix,
    ZeroVector,
)

# Global numerical tolerance for double-precision checks.
ATOL = 1e-10
# Hermitian symmetry is held to a tighter bound than general comparisons.
HERMITIAN_ATOL = 1e-12


def as_complex_matrix(a) -> np.ndarray:
    """Coerce input to a square complex128 ndarray."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def max_asymmetry(a: np.ndarray) -> float:
    """Largest elementwise deviation from Hermitian symmetry."""
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def require_hermitian(a, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    a = as_complex_matrix(a)
    asym = max_asymmetry(a)
    if asym > atol:
        raise NonHermitian(asym)
    return a


def require_power_of_two(n: int) -> int:
    """Number of qubits needed for dimension n, or raise."""
    if n < 1 or (n & (n - 1)) != 0:
        raise NonPowerOfTwoDimension(f"dimension {n} is not a power of two")
    return n.bit_length() - 1


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors[:, j]`` is the
    orthonormal eigenvector for ``eigenvalues[j]``. Output is deterministic
    for identical input: degenerate subspaces are re-orthonormalized against
    the canonical basis and every column's phase is fixed so that its first
    significant entry is real positive.

    ``run_hhl`` computes one per solve and hands it to ``resolve_config``,
    the representability check and the exact and block backends.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def reconstruct(self) -> np.ndarray:
        """Rebuild the matrix as sum_j lambda_j v_j v_j^dagger."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def _canonicalize_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first entry above threshold is real positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        mags = np.abs(col)
        idx = int(np.argmax(mags > 1e-8 * max(mags.max(), 1e-300)))
        pivot = col[idx]
        if abs(pivot) > 0:
            out[:, j] = col * (abs(pivot) / pivot)
    return out


def _reorthonormalize_cluster(block: np.ndarray) -> np.ndarray:
    """Deterministic basis for a degenerate eigenspace.

    Projects canonical basis vectors onto the span of ``block`` and
    Gram-Schmidts them, which removes LAPACK's arbitrary choice of basis
    inside the cluster. Candidates are tried in order of projection mass
    (ties broken by index), so the scan stays O(n k^2) instead of sweeping
    every near-null canonical vector.
    """
    k = block.shape[1]
    mass = np.sum(np.abs(block) ** 2, axis=1)
    basis: list[np.ndarray] = []
    for i in np.argsort(-mass, kind="stable"):
        cand = block @ block[i, :].conj()  # projection of e_i onto the span
        for b in basis:
            cand -= b * (b.conj() @ cand)
        nrm = np.linalg.norm(cand)
        if nrm > 1e-6:
            basis.append(cand / nrm)
        if len(basis) == k:
            break
    if len(basis) < k:  # numerically pathological; keep LAPACK's basis
        return block
    return np.column_stack(basis)


def hermitian_eigendecomposition(a) -> Spectrum:
    """Eigendecompose a Hermitian matrix with deterministic tie-breaking."""
    a = require_hermitian(a)
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    scale = max(float(np.max(np.abs(w))), 1e-300)
    # Group near-equal eigenvalues and fix a basis inside each group.
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > 1e-8 * scale:
            if i - start > 1:
                v[:, start:i] = _reorthonormalize_cluster(v[:, start:i])
            start = i
    v = _canonicalize_phases(v)
    return Spectrum(eigenvalues=w, eigenvectors=v)


def condition_number(eigenvalues: np.ndarray) -> float:
    """kappa = max|lambda| / min|lambda| of a Hermitian spectrum."""
    mags = np.abs(eigenvalues)
    lo, hi = float(mags.min()), float(mags.max())
    if lo <= 1e-14 * hi:
        raise SingularMatrix(f"smallest |eigenvalue| {lo:.3e} is negligible against {hi:.3e}")
    return hi / lo


def unitary_exponential(a, t: float) -> np.ndarray:
    """exp(i*A*t) for Hermitian A, computed exactly via eigendecomposition."""
    spec = hermitian_eigendecomposition(a)
    return propagator_from_spectrum(spec, t)


def propagator_from_spectrum(spectrum: Spectrum, t: float) -> np.ndarray:
    """exp(i*A*t) from a precomputed spectrum (V e^{i lambda t} V^dagger)."""
    v = spectrum.eigenvectors
    phases = np.exp(1j * spectrum.eigenvalues * t)
    return (v * phases) @ v.conj().T


@dataclass(frozen=True)
class ProblemInstance:
    """A Hermitian linear system A x = b with sparsity/conditioning metadata.

    The instance holds no eigenvectors: kappa comes from the eigenvalues
    alone, and ``run_hhl`` computes the full spectrum once per solve.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    sparsity: int
    condition_number: float

    def __post_init__(self):
        if self.matrix.shape[0] != len(self.rhs):
            raise DimensionMismatch(
                f"matrix dim {self.matrix.shape[0]} != rhs dim {len(self.rhs)}"
            )
        if np.linalg.norm(self.rhs) == 0.0:
            raise ZeroVector("right-hand side has zero norm")
        if self.condition_number < 1.0:
            raise ValueError(f"condition number {self.condition_number} < 1")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_arrays(cls, matrix, rhs) -> "ProblemInstance":
        """Build an instance, measuring sparsity and conditioning from the matrix."""
        m = require_hermitian(matrix)
        b = np.asarray(rhs, dtype=np.complex128).reshape(-1)
        return cls(
            matrix=m,
            rhs=b,
            sparsity=max_nonzeros_per_row(m),
            condition_number=condition_number(np.linalg.eigvalsh(m)),
        )


def max_nonzeros_per_row(a: np.ndarray, threshold: float = 1e-12) -> int:
    return int(np.max(np.count_nonzero(np.abs(a) > threshold, axis=1)))


def solve_linear(problem: ProblemInstance) -> np.ndarray:
    """Classical direct solve of A x = b (the ground-truth oracle).

    Returns the unnormalized solution; callers normalize when comparing
    against quantum amplitudes. The LU route keeps this solver independent
    of the eigendecomposition used elsewhere; singularity surfaces either as
    a LAPACK failure or as a residual blow-up.
    """
    try:
        x = np.linalg.solve(problem.matrix, problem.rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    residual = np.linalg.norm(problem.matrix @ x - problem.rhs)
    if not np.isfinite(x).all() or residual > 1e-10 * np.linalg.norm(problem.rhs):
        raise SingularMatrix(
            f"direct solve residual {residual:.3e} exceeds tolerance; matrix is near-singular"
        )
    return x


# ---------------------------------------------------------------------------
# JSON literal format shared by the CLI and test fixtures:
#   matrix: {"n": N, "re": [[...]], "im": [[...]]}
#   vector: {"re": [...], "im": [...]}


def matrix_to_json(a: np.ndarray) -> dict:
    a = as_complex_matrix(a)
    return {"n": a.shape[0], "re": a.real.tolist(), "im": a.imag.tolist()}


def matrix_from_json(doc: dict) -> np.ndarray:
    n = int(doc["n"])
    re = np.asarray(doc["re"], dtype=float)
    im = np.asarray(doc["im"], dtype=float)
    if re.shape != (n, n) or im.shape != (n, n):
        raise DimensionMismatch(
            f"matrix document claims n={n} but carries shapes {re.shape} / {im.shape}"
        )
    return re + 1j * im


def vector_to_json(v: np.ndarray) -> dict:
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    return {"re": v.real.tolist(), "im": v.imag.tolist()}


def vector_from_json(doc: dict) -> np.ndarray:
    re = np.asarray(doc["re"], dtype=float)
    im = np.asarray(doc["im"], dtype=float)
    if re.shape != im.shape:
        raise DimensionMismatch("vector re/im parts have different lengths")
    return re + 1j * im


def problem_to_json(problem: ProblemInstance) -> dict:
    return {
        "matrix": matrix_to_json(problem.matrix),
        "rhs": vector_to_json(problem.rhs),
        "sparsity": problem.sparsity,
        "condition_number": problem.condition_number,
    }


def problem_from_json(doc: dict) -> ProblemInstance:
    return ProblemInstance.from_arrays(
        matrix_from_json(doc["matrix"]), vector_from_json(doc["rhs"])
    )
