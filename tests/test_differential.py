"""Differential gate: run_hhl's Krylov + FFT phase estimation against the
gate-level oracle in ``qpe_oracle`` (controlled U^(2^k) ladder, gate-by-gate
QFT, full-register collapse, and for the block backend a base propagator
built from ``block_encode(A)`` rather than from the shared spectrum)."""

import numpy as np
import pytest

import qpe_oracle
from hhlsim import qpe, statevector
from hhlsim.families import FAMILIES, FamilySpec, generate
from hhlsim.hamiltonian import make_backend
from hhlsim.linalg import hermitian_eigendecomposition
from hhlsim.pipeline import HhlConfig, amplitude_encode, run_hhl, spectrum_is_representable
from hhlsim.qpe import phase_estimation

METHODS = {
    "exact": HhlConfig(method="exact"),
    "trotter-o2-s8": HhlConfig(method="trotter", trotter_steps=8, trotter_order=2),
    "block": HhlConfig(method="block"),
    "block-k30-nc5": HhlConfig(method="block", taylor_k=30, n_c=5),
}


@pytest.mark.parametrize("dim", [8, 32])
@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("family", FAMILIES)
def test_run_hhl_matches_gate_level_oracle(family, method, dim):
    problem = generate(FamilySpec(family, dim, seed=1))
    config = METHODS[method]
    result = run_hhl(problem, config)
    oracle = qpe_oracle.hhl(problem, config)
    assert result.resolved == oracle.resolved
    assert np.max(np.abs(result.solution_amplitudes - oracle.solution_amplitudes)) <= 1e-10
    assert abs(result.success_probability - oracle.success_probability) <= 1e-10
    assert abs(result.clock_residual - oracle.clock_residual) <= 1e-10
    assert result.cost.controlled_u_count == oracle.controlled_u_count
    assert result.cost.elementary_exp_count == oracle.elementary_exp_count


@pytest.mark.parametrize(
    "family, on_grid", [("dense", True), ("tridiagonal", False)], ids=["on-grid", "off-grid"]
)
def test_clock_distribution_matches_gate_level_oracle(family, on_grid):
    problem = generate(FamilySpec(family, 32, seed=2))
    oracle = qpe_oracle.hhl(problem, HhlConfig(method="exact"))
    n_c, t = oracle.resolved.n_c, oracle.resolved.t
    spectrum = hermitian_eigendecomposition(problem.matrix)
    assert spectrum_is_representable(problem, n_c, t, spectrum) == on_grid
    u = make_backend(problem.matrix, spectrum, "exact").propagator(t)
    phased = phase_estimation(amplitude_encode(problem.rhs), u, n_c)
    distribution = np.sum(np.abs(phased) ** 2, axis=1)
    assert np.max(np.abs(distribution - oracle.clock_distribution)) <= 1e-12


@pytest.mark.parametrize("method", ["exact", "trotter", "block"])
def test_run_hhl_runs_no_gates_and_no_ladder_powers(monkeypatch, method):
    # Any other unitarity check in the package goes through statevector's
    # _check_unitary; phase estimation checks its one base U through its own
    # reference. The one matrix power left is the Trotter base: `steps`
    # repetitions of one product-formula step. The block base is evaluated on
    # the spectrum, so no solve takes an SVD.
    powers, svds, gates, gate_checks, base_checks = [], [], [], [], []
    real_power, real_svd = np.linalg.matrix_power, np.linalg.svd
    real_check, real_gate = statevector._check_unitary, qpe_oracle.apply_unitary
    monkeypatch.setattr(np.linalg, "matrix_power", lambda a, n: powers.append(n) or real_power(a, n))
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(a) or real_svd(*a, **k))
    monkeypatch.setattr(qpe_oracle, "apply_unitary", lambda *a, **k: gates.append(a) or real_gate(*a, **k))
    monkeypatch.setattr(statevector, "_check_unitary", lambda u: gate_checks.append(u) or real_check(u))
    monkeypatch.setattr(qpe, "_check_unitary", lambda u: base_checks.append(u) or real_check(u))
    config = HhlConfig(method=method, trotter_steps=8)
    result = run_hhl(generate(FamilySpec("dense", 8, seed=0)), config)
    assert gates == []
    assert svds == []
    assert gate_checks == []
    assert len(base_checks) == 1
    assert powers == ([8] if method == "trotter" else [])
    assert result.cost.controlled_u_count == 2 * ((1 << result.resolved.n_c) - 1)
