"""Correctness gate: every solve is checked against numpy directly.

The oracle calls ``np.linalg.solve`` and ``np.linalg.eigh`` itself, never
``hhlsim.linalg``, so a defect in the program's own linear algebra cannot
pass its own check. A check returns a list of problems; empty means pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Seed-code measurements on these workloads sit far inside these limits:
# |p_success - formula| <= 4e-16 and clock_residual <= 3e-15 on dense-exact.
ON_GRID_TOLERANCE = 1e-9
FIDELITY_AGREEMENT = 1e-9


@dataclass(frozen=True)
class Oracle:
    x: np.ndarray  # normalized direct solution of A x = b
    eigenvalues: np.ndarray
    beta2: np.ndarray  # |<v_j|b/||b||>|^2 over the eigenvectors of A


def make_oracle(matrix: np.ndarray, rhs: np.ndarray) -> Oracle:
    x = np.linalg.solve(matrix, rhs)
    w, v = np.linalg.eigh(matrix)
    b_hat = rhs / np.linalg.norm(rhs)
    return Oracle(
        x=x / np.linalg.norm(x),
        eigenvalues=w,
        beta2=np.abs(v.conj().T @ b_hat) ** 2,
    )


def expected_controlled_u(n_c: int) -> int:
    """Forward plus inverse phase estimation apply U sum_k 2^k times each."""
    return 2 * ((1 << n_c) - 1)


def oracle_fidelity(result, oracle: Oracle) -> float:
    """|<x_oracle|x_hhl>|^2 with the solve's amplitudes renormalized."""
    sol = np.asarray(result.solution_amplitudes, dtype=np.complex128)
    return float(np.abs(np.vdot(sol / np.linalg.norm(sol), oracle.x)) ** 2)


def check_result(result, oracle: Oracle, fidelity_floor: float, on_grid_exact: bool) -> list[str]:
    """Problems with one ``HhlResult`` against the oracle."""
    problems = []
    fid = oracle_fidelity(result, oracle)
    if not fid >= fidelity_floor:
        problems.append(f"fidelity {fid!r} below floor {fidelity_floor!r}")
    if not abs(fid - result.fidelity) <= FIDELITY_AGREEMENT:
        problems.append(f"reported fidelity {result.fidelity!r} disagrees with oracle {fid!r}")
    n_c = result.resolved.n_c
    if result.cost.controlled_u_count != expected_controlled_u(n_c):
        problems.append(
            f"controlled_u_count {result.cost.controlled_u_count} != "
            f"{expected_controlled_u(n_c)} for n_c={n_c}"
        )
    if on_grid_exact:
        c = result.resolved.C
        predicted = float(np.sum(oracle.beta2 * c**2 / oracle.eigenvalues**2))
        if not abs(result.success_probability - predicted) <= ON_GRID_TOLERANCE:
            problems.append(
                f"success probability {result.success_probability!r} != "
                f"on-grid formula {predicted!r}"
            )
        if not result.clock_residual <= ON_GRID_TOLERANCE:
            problems.append(f"clock residual {result.clock_residual!r} above {ON_GRID_TOLERANCE}")
    return problems


def check_row(row: dict, fidelity_floor: float) -> list[str]:
    """Problems with one ``rows.csv`` row of a sweep.

    Rows do not carry n_c, so the counter check asks only that the count
    has the form 2 * (2^n_c - 1) for a clock width the pipeline can pick.
    """
    if row["error"]:
        return [f"error row: {row['error']}"]
    problems = []
    fid = float(row["fidelity"])
    if not fid >= fidelity_floor:
        problems.append(f"fidelity {fid!r} below floor {fidelity_floor!r}")
    count = int(row["controlled_u_count"])
    if count not in {expected_controlled_u(n_c) for n_c in range(1, 8)}:
        problems.append(f"controlled_u_count {count} is not 2*(2^n_c - 1) for n_c in 1..7")
    return problems
