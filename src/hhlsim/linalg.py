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
    """Largest elementwise deviation from Hermitian symmetry.

    An exactly real matrix is read as real: |x + 0i| = |x|, so the value is
    the same at half the arithmetic.
    """
    if not a.size:
        return 0.0
    a = a if a.imag.any() else a.real
    return float(np.max(np.abs(a - a.conj().T)))


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
    orthonormal eigenvector for ``eigenvalues[j]`` (real for a real matrix).
    The basis inside a degenerate eigenspace is whichever LAPACK returns; no
    output reads it, since every quantity the solve reports depends only on
    the eigenspace projectors.

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


def hermitian_eigendecomposition(a) -> Spectrum:
    """Eigendecompose a Hermitian matrix with one LAPACK call.

    An exactly real matrix goes to the real ``eigh`` (about twice as fast as
    the complex one); LAPACK reads one triangle, and ``require_hermitian``
    has already bounded the asymmetry.
    """
    a = require_hermitian(a)
    w, v = np.linalg.eigh(a if a.imag.any() else a.real)
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
    a LAPACK failure or as a residual blow-up. An exactly real matrix is
    factored once as real, with the real and imaginary parts of b as two
    right-hand sides.
    """
    a, b = problem.matrix, problem.rhs
    try:
        if a.imag.any():
            x = np.linalg.solve(a, b)
        else:
            parts = np.linalg.solve(a.real, np.stack([b.real, b.imag], axis=1))
            x = parts[:, 0] + 1j * parts[:, 1]
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
