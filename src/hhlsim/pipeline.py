"""End-to-end quantum linear solve on the state-vector engine.

Stages: one eigendecomposition of A (shared by the config resolution, the
representability check and the exact and block backends), encode b on the
data register, phase-estimate the eigenvalues into the clock register,
rotate the ancilla by arcsin(C/lambda) controlled on each clock bin,
post-select ancilla = 1, uncompute the clock, and read the solution
amplitudes off the zero-clock data block.

The state is never held as the full ancilla-clock-data register. HHL is
diagonal in A's eigenbasis (Harrow, Hassidim and Lloyd, 0811.3171), and the
route follows from what the backend offers:

* Eigenbasis route (exact and block, whose U = V diag(e^{i*phi}) V^dagger
  shares A's eigenvectors V). With beta = V^dagger b/||b|| and the
  phase-estimation kernel P[k, j] of :func:`hhlsim.qpe.spectral_phase_estimation`,
  the bin gains c_k = min(C/lambda_k, 1) (c_0 = 0) give the zero-bin mass
  P[0] . |beta|^2, the success probability (c^2)^T P |beta|^2 and the
  uncomputed zero-clock block V (beta * c^T P) / sqrt(success). No
  propagator is built; the only mat-vecs are V^dagger b and the product
  with V.
* Matrix route (Trotter). The solve builds one base propagator
  U = exp(i*A*t); phase estimation and its uncompute each apply it as a
  Krylov sequence of mat-vecs plus an FFT along the clock axis (see
  :mod:`hhlsim.qpe`). The rotation's ancilla = 1 branch is the clock-by-data
  array scaled bin by bin by the same gains, and post-selection keeps
  exactly that branch, renormalized by its squared norm (the success
  probability).

On both routes the clock residual is 1 minus the squared norm of the
zero-clock block. Reported fidelities therefore measure algorithmic error
only; shot noise enters solely through histogram sampling on the final
state.

The reported cost is that of the modelled circuit, in closed form and the
same on both routes: each pass is a ladder of 2^n_c - 1 applications of U,
and each application spends the backend's ``exponentials_per_application``
elementary exponentials.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, fields, replace

import numpy as np

from .errors import (
    DimensionMismatch,
    IndefiniteMatrix,
    PostSelectionImpossible,
    ZeroEigenvalueBin,
    ZeroVector,
)
from .hamiltonian import make_backend
from .linalg import (
    ProblemInstance,
    Spectrum,
    hermitian_eigendecomposition,
    require_power_of_two,
    solve_linear,
    vector_from_json,
    vector_to_json,
)
from .qpe import inverse_phase_estimation, phase_estimation, spectral_phase_estimation
from .statevector import RegisterLayout, fidelity

POPULATION_CUTOFF = 1e-12


@dataclass(frozen=True)
class HhlConfig:
    """Run parameters; fields left as None are resolved from the spectrum.

    No solve reads ``shots`` or ``seed``: they are only serialized, and stay
    because existing callers still pass them.
    """

    n_c: int | None = None
    t: float | None = None
    C: float | None = None
    method: str = "exact"
    trotter_steps: int = 8
    trotter_order: int = 2
    taylor_k: int | None = None
    shots: int = 10_000
    seed: int = 0

    def backend_label(self) -> str:
        if self.method == "trotter":
            return f"trotter-o{self.trotter_order}-s{self.trotter_steps}"
        if self.method == "block":
            return f"block-k{self.taylor_k}" if self.taylor_k is not None else "block"
        return self.method


@dataclass(frozen=True)
class CostCounters:
    controlled_u_count: int
    elementary_exp_count: int


@dataclass(frozen=True)
class HhlResult:
    """Post-selected solution with its quality and cost diagnostics."""

    solution_amplitudes: np.ndarray
    success_probability: float
    post_norm: float
    fidelity: float
    clock_residual: float
    cost: CostCounters
    resolved: HhlConfig  # config with n_c / t / C filled in


MAX_AUTO_CLOCK = 7


def _grid_scale(eigenvalues: np.ndarray, bins: int) -> float | None:
    """Largest Delta with every eigenvalue an integer multiple <= bins-1.

    Candidates are lambda_min / k; returns None when no k <= bins-1 puts all
    eigenvalues on the integer grid.
    """
    lam_min = float(np.min(eigenvalues))
    lam_max = float(np.max(eigenvalues))
    for k in range(1, bins):
        delta = lam_min / k
        if lam_max / delta > bins - 1 + 1e-9:
            return None
        ratios = eigenvalues / delta
        if np.all(np.abs(ratios - np.round(ratios)) <= 1e-9 * np.maximum(ratios, 1.0)):
            return delta
    return None


def _check_positive_definite(spectrum: Spectrum) -> None:
    lam_min = float(np.min(spectrum.eigenvalues))
    lam_max = float(np.max(np.abs(spectrum.eigenvalues)))
    if lam_min <= 1e-12 * max(lam_max, 1.0):
        raise IndefiniteMatrix(
            f"pipeline requires a positive-definite matrix (min eigenvalue {lam_min:.3e})"
        )


def _populated_eigenvalues(problem: ProblemInstance, spectrum: Spectrum) -> np.ndarray:
    """Eigenvalues of every cluster whose projection of b/||b|| exceeds the cutoff.

    A cluster is the eigenvalues equal after rounding to 12 decimals. Its
    weight is the norm of b's part in the whole eigenspace, which does not
    depend on the basis chosen inside a degenerate eigenspace.
    """
    b_hat = problem.rhs / np.linalg.norm(problem.rhs)
    beta = spectrum.eigenvectors.conj().T @ b_hat
    _, cluster = np.unique(np.round(spectrum.eigenvalues, 12), return_inverse=True)
    weight = np.sqrt(np.bincount(cluster, weights=np.abs(beta) ** 2))
    return spectrum.eigenvalues[weight[cluster] > POPULATION_CUTOFF]


def resolve_config(problem: ProblemInstance, config: HhlConfig, spectrum: Spectrum) -> HhlConfig:
    """Fill in n_c, t and C from the populated part of the spectrum.

    The evolution time maps the populated eigenvalues onto the clock grid
    exactly whenever a common divisor exists; otherwise the largest eigenvalue
    lands near the top bin. C defaults to 90% of the smallest populated bin
    eigenvalue so every rotation angle stays valid.
    """
    _check_positive_definite(spectrum)
    lam_pop = np.unique(np.round(_populated_eigenvalues(problem, spectrum), 12))
    if lam_pop.size == 0:
        raise ZeroVector("right-hand side has no overlap with the spectrum")
    lam_max = float(np.max(lam_pop))

    # One grid search at the widest clock allowed: a smaller clock fits the
    # same Delta or none, so n_c and t are read off that one Delta.
    n_c, t = config.n_c, config.t
    delta = None
    if n_c is None or t is None:
        delta = _grid_scale(lam_pop, 1 << (MAX_AUTO_CLOCK if n_c is None else n_c))

    def fits(width: int) -> bool:
        return delta is not None and lam_max / delta <= (1 << width) - 1 + 1e-9

    if n_c is None:
        n_c = next((width for width in range(1, MAX_AUTO_CLOCK + 1) if fits(width)), 6)
    if t is None:
        bins = 1 << n_c
        if fits(n_c):
            t = 2.0 * np.pi / (bins * delta)
        else:
            t = 2.0 * np.pi * (bins - 1) / (bins * lam_max)

    bins = 1 << n_c
    positions = lam_pop * t * bins / (2.0 * np.pi)
    if np.any(positions < 0.5) or np.any(positions >= bins - 0.5):
        raise ZeroEigenvalueBin(
            "populated eigenvalues map outside clock bins 1..2^n_c - 1 "
            f"(bin positions {np.round(positions, 3)}); the problem is mis-scaled"
        )

    lam_bin_min = 2.0 * np.pi * float(np.round(np.min(positions))) / (bins * t)
    c = config.C
    if c is None:
        c = 0.9 * lam_bin_min
    elif not 0.0 < c <= lam_bin_min * (1.0 + 1e-9):
        raise ValueError(
            f"inversion constant C={c} outside (0, {lam_bin_min:.6g}] for the populated bins"
        )
    return replace(config, n_c=n_c, t=t, C=c)


def spectrum_is_representable(
    problem: ProblemInstance, n_c: int, t: float, spectrum: Spectrum
) -> bool:
    """True when every populated eigenvalue sits exactly on the clock grid."""
    positions = _populated_eigenvalues(problem, spectrum) * t * (1 << n_c) / (2.0 * np.pi)
    on_grid = np.abs(positions - np.round(positions)) <= 1e-9 * np.maximum(positions, 1.0)
    return bool(np.all(on_grid) and np.all(np.round(positions) >= 1))


def amplitude_encode(b) -> np.ndarray:
    """The data-register state b/||b|| on log2(len(b)) qubits."""
    v = np.asarray(b, dtype=np.complex128).reshape(-1)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ZeroVector("cannot encode the zero vector")
    require_power_of_two(len(v))
    return v / norm


def _bin_gains(c: float, n_c: int, t: float) -> np.ndarray:
    """sin of the ancilla rotation per clock bin: min(C/lambda_m, 1), 0 on bin 0.

    lambda_m = 2*pi*m / (2^n_c * t). Bin 0 has no finite rotation; bins
    below C (possible only as discretization leakage) clamp at arcsin(1).
    """
    if c <= 0.0:
        raise ValueError(f"inversion constant must be positive, got {c}")
    bins = 1 << n_c
    lam = 2.0 * np.pi * np.arange(1, bins) / (bins * t)
    gains = np.zeros(bins)
    gains[1:] = np.minimum(c / lam, 1.0)
    return gains


def _check_zero_bin(zero_bin_mass: float, tolerance: float) -> None:
    if zero_bin_mass > tolerance:
        raise ZeroEigenvalueBin(
            f"clock bin 0 carries probability {zero_bin_mass:.3e} (tolerance {tolerance:.1e})"
        )


def _check_success(success: float) -> None:
    if success < 1e-12:
        raise PostSelectionImpossible(f"ancilla success probability {success:.3e} below 1e-12")


def eigenvalue_inversion(
    amplitudes: np.ndarray,
    c: float,
    n_c: int,
    t: float,
    zero_bin_tolerance: float = 1e-10,
) -> np.ndarray:
    """Ancilla = 1 branch of the rotation by 2*arcsin(C/lambda_m) on clock bin m.

    Takes the clock-by-data ``amplitudes`` of phase estimation (ancilla 0)
    and returns what the rotation moves to ancilla 1: bin m scaled by its
    gain (see :func:`_bin_gains`). Bin 0 must be (near-)empty and stays on
    ancilla 0.
    """
    gains = _bin_gains(c, n_c, t)
    bins = 1 << n_c
    if amplitudes.ndim != 2 or amplitudes.shape[0] != bins:
        raise DimensionMismatch(
            f"amplitudes of shape {amplitudes.shape} do not have {bins} clock bins"
        )
    _check_zero_bin(float(np.sum(np.abs(amplitudes[0]) ** 2)), zero_bin_tolerance)
    rotated = np.zeros_like(amplitudes)
    rotated[1:] = gains[1:, None] * amplitudes[1:]
    return rotated


def spectral_inversion(
    beta: np.ndarray,
    kernel: np.ndarray,
    c: float,
    n_c: int,
    t: float,
    zero_bin_tolerance: float = 1e-10,
) -> tuple[np.ndarray, float]:
    """Rotation, post-selection and clock uncompute in A's eigenbasis.

    ``kernel`` is the (2^n_c, N) phase-estimation kernel P of
    :func:`hhlsim.qpe.spectral_phase_estimation` and ``beta`` the data state
    in the eigenbasis. Returns the eigenbasis amplitudes of the uncomputed
    zero-clock block of the ancilla = 1 branch before renormalization,
    beta * (c^T P), and the success probability (c^2)^T P |beta|^2, with
    the bin gains c of :func:`_bin_gains`. Bin 0 must be (near-)empty, as
    in :func:`eigenvalue_inversion`.
    """
    gains = _bin_gains(c, n_c, t)
    if kernel.shape != (len(gains), len(beta)):
        raise DimensionMismatch(
            f"kernel of shape {kernel.shape}, expected ({len(gains)}, {len(beta)}) "
            f"for {n_c} clock qubits"
        )
    beta2 = beta.real**2 + beta.imag**2
    _check_zero_bin(float(kernel[0] @ beta2), zero_bin_tolerance)
    success = float(gains**2 @ kernel @ beta2)
    return beta * (gains @ kernel), success


def run_hhl(problem: ProblemInstance, config: HhlConfig) -> HhlResult:
    """Execute the full pipeline and score the solution against the direct solve."""
    # The clock-by-data arrays hold half the modelled register; refuse a
    # register over the amplitude budget, at the widest clock the config
    # allows, before the spectrum or anything else is built.
    widest_clock = MAX_AUTO_CLOCK if config.n_c is None else config.n_c
    RegisterLayout(n_clock=widest_clock, n_data=require_power_of_two(problem.dim))
    spectrum = hermitian_eigendecomposition(problem.matrix)
    resolved = resolve_config(problem, config, spectrum)
    n_c, t, c = resolved.n_c, resolved.t, resolved.C
    representable = spectrum_is_representable(problem, n_c, t, spectrum)

    backend = make_backend(
        problem.matrix,
        spectrum,
        resolved.method,
        trotter_steps=resolved.trotter_steps,
        trotter_order=resolved.trotter_order,
        taylor_k=resolved.taylor_k,
    )
    # Only the exact backend on an on-grid spectrum is guaranteed to leave
    # bin 0 empty; off-grid spectra and approximate propagators leak a little
    # mass everywhere, so only a gross population (a genuinely mis-scaled
    # problem, already screened in resolve_config) is an error there.
    strict = representable and resolved.method == "exact"
    zero_bin_tolerance = 1e-10 if strict else 0.5
    b_hat = amplitude_encode(problem.rhs)
    phases = backend.eigenphases(t)
    if phases is None:
        u = backend.propagator(t)
        phased = phase_estimation(b_hat, u, n_c)
        rotated = eigenvalue_inversion(phased, c, n_c, t, zero_bin_tolerance=zero_bin_tolerance)
        success = float(np.sum(np.abs(rotated) ** 2))
        _check_success(success)
        solution = inverse_phase_estimation(rotated / math.sqrt(success), u, n_c)
    else:
        v = spectrum.eigenvectors
        beta = v.conj().T @ b_hat
        kernel = spectral_phase_estimation(beta, v, phases, n_c)
        weights, success = spectral_inversion(
            beta, kernel, c, n_c, t, zero_bin_tolerance=zero_bin_tolerance
        )
        _check_success(success)
        solution = v @ (weights / math.sqrt(success))
    solution_norm = float(np.linalg.norm(solution))
    clock_residual = 1.0 - solution_norm**2
    if solution_norm < 1e-12:
        raise PostSelectionImpossible("no amplitude survived on the zero-clock block")
    solution /= solution_norm

    x_exact = solve_linear(problem)
    x_exact /= np.linalg.norm(x_exact)
    fid = fidelity(solution, x_exact)

    # The modelled circuit runs the controlled-U^(2^k) ladder twice, forward
    # and to uncompute: 2^n_c - 1 applications of U per pass.
    applications = 2 * ((1 << n_c) - 1)

    return HhlResult(
        solution_amplitudes=solution,
        success_probability=success,
        post_norm=c / math.sqrt(success),
        fidelity=fid,
        clock_residual=max(clock_residual, 0.0),
        cost=CostCounters(applications, applications * backend.exponentials_per_application(t)),
        resolved=resolved,
    )


def expected_outcome_distribution(problem: ProblemInstance) -> np.ndarray:
    """Reference outcome probabilities |x_i|^2 / ||x||^2 from the direct solve."""
    x = solve_linear(problem)
    return np.abs(x) ** 2 / float(np.linalg.norm(x) ** 2)


# ---------------------------------------------------------------------------
# JSON round trips for problem + config documents and results.


def dataclass_from_json(cls, doc: dict, **parsed):
    """``cls`` from the keys of ``doc`` it has fields for.

    Unknown keys are ignored, so documents that still carry a removed field
    load; a missing field without a default raises KeyError. ``parsed``
    gives fields the caller has already converted.
    """
    values = {}
    for f in fields(cls):
        if f.name in parsed:
            values[f.name] = parsed[f.name]
        elif f.name in doc:
            values[f.name] = doc[f.name]
        elif f.default is MISSING and f.default_factory is MISSING:
            raise KeyError(f.name)
    return cls(**values)


def config_to_json(config: HhlConfig) -> dict:
    return asdict(config)


def config_from_json(doc: dict) -> HhlConfig:
    return dataclass_from_json(HhlConfig, doc)


def result_to_json(result: HhlResult) -> dict:
    return {
        "solution_amplitudes": vector_to_json(result.solution_amplitudes),
        "success_probability": result.success_probability,
        "post_norm": result.post_norm,
        "fidelity": result.fidelity,
        "clock_residual": result.clock_residual,
        "cost": asdict(result.cost),
        "resolved_config": config_to_json(result.resolved),
    }


def result_from_json(doc: dict) -> HhlResult:
    return HhlResult(
        solution_amplitudes=vector_from_json(doc["solution_amplitudes"]),
        success_probability=doc["success_probability"],
        post_norm=doc["post_norm"],
        fidelity=doc["fidelity"],
        clock_residual=doc["clock_residual"],
        cost=dataclass_from_json(CostCounters, doc["cost"]),
        resolved=config_from_json(doc["resolved_config"]),
    )
