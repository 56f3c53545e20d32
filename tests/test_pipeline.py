import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhlsim import hamiltonian, pipeline, qpe
from hhlsim.errors import (
    DimensionMismatch,
    IndefiniteMatrix,
    NonUnitary,
    RegisterTooLarge,
    ZeroEigenvalueBin,
    ZeroVector,
)
from hhlsim.families import FAMILIES, FamilySpec, generate
from hhlsim.hamiltonian import BlockEvolution, ExactEvolution
from hhlsim.linalg import ProblemInstance, Spectrum, hermitian_eigendecomposition
from hhlsim.pipeline import (
    HhlConfig,
    amplitude_encode,
    config_from_json,
    config_to_json,
    eigenvalue_inversion,
    expected_outcome_distribution,
    resolve_config,
    result_from_json,
    result_to_json,
    run_hhl,
    spectral_inversion,
    spectrum_is_representable,
)
from hhlsim.qpe import inverse_phase_estimation, phase_estimation, spectral_phase_estimation
from hhlsim.statevector import RegisterLayout
from hhlsim.sweep import demo_problem
from qpe_oracle import init_state, prepare_b

DEMO = np.array([[1.0, -0.5], [-0.5, 1.0]], dtype=complex)


class TestAmplitudeEncoding:
    def test_basis_vector(self):
        np.testing.assert_allclose(amplitude_encode([1.0, 0.0]), [1.0, 0.0], atol=1e-14)

    def test_uniform(self):
        amps = amplitude_encode(np.ones(8))
        np.testing.assert_allclose(amps, np.full(8, 1 / np.sqrt(8)), atol=1e-12)

    def test_three_four_five(self):
        np.testing.assert_allclose(amplitude_encode([3.0, 4.0]), [0.6, 0.8], atol=1e-12)

    def test_complex_phases_exact(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        np.testing.assert_allclose(amplitude_encode(v), v / np.linalg.norm(v), atol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            amplitude_encode(np.zeros(4))

    def test_prepare_b_leaves_other_registers_cleared(self):
        layout = RegisterLayout(n_clock=2, n_data=1)
        state = prepare_b(init_state(layout), np.array([3.0, 4.0]))
        np.testing.assert_allclose(state.amplitudes[:2], [0.6, 0.8], atol=1e-12)
        assert np.all(state.amplitudes[2:] == 0)


class TestEigenvalueInversion:
    # eigenvalue_inversion returns the ancilla = 1 branch as clock-by-data
    # amplitudes; its squared norm is the ancilla-1 probability.
    def _phased(self, matrix, b, n_c, t):
        u = ExactEvolution(hermitian_eigendecomposition(matrix)).propagator(t)
        return phase_estimation(amplitude_encode(b), u, n_c)

    def test_bin_equal_to_c_fully_rotates(self):
        # single populated bin at lambda = 1 with C = 1: arcsin(1) = pi/2
        phased = self._phased(np.diag([1.0, 1.0]), [1.0, 0.0], 2, 2 * np.pi / 4)
        rotated = eigenvalue_inversion(phased, 1.0, 2, 2 * np.pi / 4)
        assert np.sum(np.abs(rotated) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_demo_amplitude_ratio_three_to_one(self):
        # C = 0.5 on eigenvalues (0.5, 1.5): ancilla-1 amplitudes in ratio 3:1
        phased = self._phased(DEMO, [1.0, 0.0], 2, np.pi)
        rotated = eigenvalue_inversion(phased, 0.5, 2, np.pi)
        amp_low = np.linalg.norm(rotated[1])  # bin 1 = eigenvalue 0.5 branch
        amp_high = np.linalg.norm(rotated[3])  # bin 3 = eigenvalue 1.5 branch
        assert amp_low / amp_high == pytest.approx(3.0, abs=1e-9)

    def test_half_ratio_quarter_probability(self):
        # C / lambda = 0.5 on the only populated bin: ancilla-1 mass = 0.25
        phased = self._phased(np.diag([2.0, 2.0]), [1.0, 0.0], 2, 2 * np.pi / 4)
        rotated = eigenvalue_inversion(phased, 1.0, 2, 2 * np.pi / 4)
        assert np.sum(np.abs(rotated) ** 2) == pytest.approx(0.25, abs=1e-10)

    def test_populated_zero_bin_rejected(self):
        # eigenvalue 0 on a populated eigenvector drops mass onto bin 0
        phased = self._phased(np.diag([0.0, 2.0]), [1.0, 1.0], 2, 2 * np.pi / 4)
        with pytest.raises(ZeroEigenvalueBin):
            eigenvalue_inversion(phased, 1.0, 2, 2 * np.pi / 4)

    def test_invalid_constant(self):
        phased = self._phased(np.diag([1.0, 1.0]), [1.0, 0.0], 2, 2 * np.pi / 4)
        with pytest.raises(ValueError):
            eigenvalue_inversion(phased, -0.1, 2, 2 * np.pi / 4)

    def test_clock_width_mismatch(self):
        phased = self._phased(np.diag([1.0, 1.0]), [1.0, 0.0], 2, 2 * np.pi / 4)
        with pytest.raises(DimensionMismatch):
            eigenvalue_inversion(phased, 1.0, 3, 2 * np.pi / 4)


class TestSpectralInversion:
    # spectral_inversion returns the eigenbasis amplitudes beta * (c^T P) of
    # the uncomputed ancilla = 1 branch and its probability (c^2)^T P |beta|^2.
    def _kernel(self, matrix, b, n_c, t):
        spectrum = hermitian_eigendecomposition(matrix)
        v = spectrum.eigenvectors
        beta = v.conj().T @ amplitude_encode(b)
        return beta, spectral_phase_estimation(beta, v, ExactEvolution(spectrum).eigenphases(t), n_c)

    def test_bin_equal_to_c_fully_rotates(self):
        beta, kernel = self._kernel(np.diag([1.0, 1.0]), [1.0, 0.0], 2, 2 * np.pi / 4)
        weights, success = spectral_inversion(beta, kernel, 1.0, 2, 2 * np.pi / 4)
        assert success == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(weights, beta, atol=1e-10)

    def test_demo_amplitude_ratio_three_to_one(self):
        # C = 0.5 on eigenvalues (0.5, 1.5), both populated equally
        beta, kernel = self._kernel(DEMO, [1.0, 0.0], 2, np.pi)
        weights, _ = spectral_inversion(beta, kernel, 0.5, 2, np.pi)
        assert abs(weights[0]) / abs(weights[1]) == pytest.approx(3.0, abs=1e-9)

    def test_half_ratio_quarter_probability(self):
        beta, kernel = self._kernel(np.diag([2.0, 2.0]), [1.0, 0.0], 2, 2 * np.pi / 4)
        _, success = spectral_inversion(beta, kernel, 1.0, 2, 2 * np.pi / 4)
        assert success == pytest.approx(0.25, abs=1e-10)

    def test_populated_zero_bin_rejected(self):
        beta, kernel = self._kernel(np.diag([0.0, 2.0]), [1.0, 1.0], 2, 2 * np.pi / 4)
        with pytest.raises(ZeroEigenvalueBin):
            spectral_inversion(beta, kernel, 1.0, 2, 2 * np.pi / 4)

    @pytest.mark.parametrize("c", [0.0, -0.1])
    def test_invalid_constant(self, c):
        beta, kernel = self._kernel(np.diag([1.0, 1.0]), [1.0, 0.0], 2, 2 * np.pi / 4)
        with pytest.raises(ValueError):
            spectral_inversion(beta, kernel, c, 2, 2 * np.pi / 4)

    def test_clock_width_mismatch(self):
        beta, kernel = self._kernel(np.diag([1.0, 1.0]), [1.0, 0.0], 2, 2 * np.pi / 4)
        with pytest.raises(DimensionMismatch):
            spectral_inversion(beta, kernel, 1.0, 3, 2 * np.pi / 4)

    def test_matches_the_matrix_route_off_grid(self):
        # the same inversion and uncompute as eigenvalue_inversion and the
        # Horner pass on the propagator, on a spectrum that leaks into
        # every bin
        rng = np.random.default_rng(8)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        a = (a + a.conj().T) / 2 + 6 * np.eye(8)
        b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        n_c, t, c = 4, 0.37, 0.5
        spectrum = hermitian_eigendecomposition(a)
        beta, kernel = self._kernel(a, b, n_c, t)
        weights, success = spectral_inversion(beta, kernel, c, n_c, t, zero_bin_tolerance=0.5)
        u = ExactEvolution(spectrum).propagator(t)
        rotated = eigenvalue_inversion(
            phase_estimation(amplitude_encode(b), u, n_c), c, n_c, t, zero_bin_tolerance=0.5
        )
        assert success == pytest.approx(float(np.sum(np.abs(rotated) ** 2)), abs=1e-13)
        np.testing.assert_allclose(
            spectrum.eigenvectors @ weights, inverse_phase_estimation(rotated, u, n_c), atol=1e-13
        )


class TestEigenbasisRoute:
    @pytest.mark.parametrize("method", ["exact", "block"])
    def test_exact_and_block_apply_no_propagator(self, monkeypatch, method):
        # no U is built, no Krylov or Horner pass runs and no power is taken
        calls = []

        def spy(owner, name):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(name) or real(*a, **k))

        for owner in (hamiltonian.EvolutionBackend, ExactEvolution, BlockEvolution):
            spy(owner, "propagator")
        for owner in (pipeline, qpe):
            spy(owner, "phase_estimation")
            spy(owner, "inverse_phase_estimation")
        spy(np.linalg, "matrix_power")
        result = run_hhl(generate(FamilySpec("tridiagonal", 32, seed=3)), HhlConfig(method=method))
        assert calls == []
        assert result.fidelity >= 0.999

    @pytest.mark.parametrize("method", ["exact", "block"])
    def test_non_orthonormal_eigenbasis_is_not_unitary(self, monkeypatch, method):
        # the eigenbasis is the operator the solve uses, and is checked as one
        def skewed_eigendecomposition(a):
            spectrum = hermitian_eigendecomposition(a)
            v = spectrum.eigenvectors.copy()
            v[:, 0] += 1e-6 * v[:, 1]
            return Spectrum(eigenvalues=spectrum.eigenvalues, eigenvectors=v)

        monkeypatch.setattr(pipeline, "hermitian_eigendecomposition", skewed_eigendecomposition)
        with pytest.raises(NonUnitary):
            run_hhl(generate(FamilySpec("dense", 8, seed=0)), HhlConfig(method=method))


class TestRunHhlDemo:
    def test_solution_and_probabilities(self):
        result = run_hhl(demo_problem(), HhlConfig(method="exact"))
        expected = np.array([2.0, 1.0]) / np.sqrt(5.0)
        np.testing.assert_allclose(np.abs(result.solution_amplitudes), expected, atol=1e-10)
        probs = np.abs(result.solution_amplitudes) ** 2
        np.testing.assert_allclose(probs, [0.8, 0.2], atol=1e-10)
        assert probs[0] / probs[1] == pytest.approx(4.0, abs=1e-8)
        assert result.fidelity >= 1 - 1e-10

    def test_success_probability_formula(self):
        # beta = (1, 1)/sqrt(2) over eigenvalues (0.5, 1.5)
        config = HhlConfig(method="exact", C=0.45)
        result = run_hhl(demo_problem(), config)
        expected = 0.45**2 * (0.5 / 0.25 + 0.5 / 2.25)
        assert result.success_probability == pytest.approx(expected, abs=1e-9)
        assert result.post_norm == pytest.approx(0.45 / np.sqrt(expected), abs=1e-9)

    def test_demo_resolves_exact_bins(self):
        result = run_hhl(demo_problem(), HhlConfig(method="exact"))
        assert result.resolved.n_c == 2
        assert result.resolved.t == pytest.approx(np.pi)
        assert result.clock_residual <= 1e-10


class TestRunHhlGeneral:
    def test_identity_problem(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        problem = ProblemInstance.from_arrays(np.eye(4), b)
        result = run_hhl(problem, HhlConfig(method="exact", C=0.7))
        assert result.fidelity >= 1 - 1e-10
        assert result.success_probability == pytest.approx(0.49, abs=1e-9)
        np.testing.assert_allclose(
            result.solution_amplitudes * np.linalg.norm(b), b, atol=1e-8
        )

    def test_random_representable_oracle_equivalence(self):
        # integer spectra are exactly representable: the pipeline is algebraic
        rng = np.random.default_rng(10)
        for _ in range(5):
            values = rng.integers(2, 15, size=8).astype(float)
            z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            q, _ = np.linalg.qr(z)
            a = (q * values) @ q.conj().T
            a = (a + a.conj().T) / 2
            b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            problem = ProblemInstance.from_arrays(a, b)
            result = run_hhl(problem, HhlConfig(method="exact"))
            assert result.fidelity >= 1 - 1e-8

    def test_rescaling_invariance(self):
        problem = demo_problem()
        scaled = ProblemInstance.from_arrays(problem.matrix, problem.rhs * (2.0 - 1.5j))
        r1 = run_hhl(problem, HhlConfig(method="exact"))
        r2 = run_hhl(scaled, HhlConfig(method="exact"))
        assert abs(r1.fidelity - r2.fidelity) <= 1e-10
        np.testing.assert_allclose(
            np.abs(r1.solution_amplitudes), np.abs(r2.solution_amplitudes), atol=1e-10
        )
        assert r1.success_probability == pytest.approx(r2.success_probability, abs=1e-10)

    def test_success_probability_never_exceeds_one(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            values = rng.integers(2, 12, size=4).astype(float)
            a = np.diag(values)
            b = rng.standard_normal(4)
            result = run_hhl(ProblemInstance.from_arrays(a, b), HhlConfig(method="exact"))
            assert 0.0 < result.success_probability <= 1.0

    def test_indefinite_rejected(self):
        problem = ProblemInstance.from_arrays(np.diag([-1.0, 2.0]), np.array([1.0, 1.0]))
        with pytest.raises(IndefiniteMatrix):
            run_hhl(problem, HhlConfig(method="exact"))

    def test_mis_scaled_time_rejected(self):
        # explicit t pushing eigenvalues past the top bin wraps onto bin 0
        with pytest.raises(ZeroEigenvalueBin):
            run_hhl(demo_problem(), HhlConfig(method="exact", n_c=2, t=2 * np.pi))

    def test_register_over_budget_rejected_before_any_build(self, monkeypatch):
        # 1 + 30 + 1 qubits exceed MAX_QUBITS; unchecked, phase estimation
        # would allocate a (2^30, 2) array, so building a backend fails the test.
        def no_backend(*args, **kwargs):
            raise AssertionError("a backend was built for an over-budget register")

        monkeypatch.setattr(pipeline, "make_backend", no_backend)
        with pytest.raises(RegisterTooLarge):
            run_hhl(demo_problem(), HhlConfig(method="exact", n_c=30, t=1.0))

    def test_register_budget_checked_before_the_spectrum(self, monkeypatch):
        # 1 + 20 + 6 qubits exceed MAX_QUBITS. Resolving t for this clock
        # walks _grid_scale over ~5e4 candidates, so neither the spectrum
        # nor the grid search may run before the budget check.
        problem = generate(FamilySpec("tridiagonal", 64, seed=1, kappa_target=20.0))

        def refuse(*args, **kwargs):
            raise AssertionError("spectrum work done for an over-budget register")

        monkeypatch.setattr(pipeline, "hermitian_eigendecomposition", refuse)
        monkeypatch.setattr(pipeline, "_grid_scale", refuse)
        with pytest.raises(RegisterTooLarge):
            run_hhl(problem, HhlConfig(method="exact", n_c=20))

    def test_explicit_c_validated(self):
        with pytest.raises(ValueError):
            run_hhl(demo_problem(), HhlConfig(method="exact", C=0.8))  # above lambda_min

    def test_trotter_fidelity_non_decreasing_in_steps(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((4, 4))
        a = (a + a.T) / 2 + 4 * np.eye(4)
        problem = ProblemInstance.from_arrays(a, rng.standard_normal(4))
        fids = []
        for steps in (1, 2, 4, 8, 16):
            result = run_hhl(problem, HhlConfig(method="trotter", trotter_steps=steps, trotter_order=2))
            fids.append(result.fidelity)
        floor = 1 - 1e-9
        for prev, cur in zip(fids, fids[1:]):
            assert cur >= prev - 1e-12 or cur >= floor

    def test_clock_residual_reported_for_off_grid(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4))
        a = (a + a.T) / 2 + 4 * np.eye(4)
        problem = ProblemInstance.from_arrays(a, rng.standard_normal(4))
        result = run_hhl(problem, HhlConfig(method="exact"))
        assert result.clock_residual > 0.0
        assert result.fidelity > 0.9


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(["diagonal", "dense", "tridiagonal"]),
    dim=st.sampled_from([2, 4, 8]),
    seed=st.integers(0, 10_000),
    s=st.floats(0.01, 1000.0),
    c=st.complex_numbers(min_magnitude=0.01, max_magnitude=1000.0),
    method=st.sampled_from(["exact", "block"]),
)
def test_rescaling_invariance_property(family, dim, seed, s, c, method):
    # A -> sA rescales t and C by 1/s and s; b -> cb only rescales the input.
    problem = generate(FamilySpec(family, dim, seed))
    scaled = ProblemInstance.from_arrays(s * problem.matrix, c * problem.rhs)
    r1 = run_hhl(problem, HhlConfig(method=method))
    r2 = run_hhl(scaled, HhlConfig(method=method))
    assert r2.resolved.n_c == r1.resolved.n_c
    assert abs(r2.fidelity - r1.fidelity) <= 1e-9
    assert abs(r2.success_probability - r1.success_probability) <= 1e-9


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(["diagonal", "dense"]),
    dim=st.sampled_from([2, 4, 8, 16, 32]),
    seed=st.integers(0, 10_000),
)
def test_on_grid_success_probability_property(family, dim, seed):
    # On the clock grid the exact backend inverts every eigenvalue exactly:
    # success = sum_j |beta_j|^2 C^2 / lambda_j^2 and the clock uncomputes.
    problem = generate(FamilySpec(family, dim, seed))
    result = run_hhl(problem, HhlConfig(method="exact"))
    n_c, t = result.resolved.n_c, result.resolved.t
    assert spectrum_is_representable(problem, n_c, t, hermitian_eigendecomposition(problem.matrix))
    w, v = np.linalg.eigh(problem.matrix)
    beta2 = np.abs(v.conj().T @ (problem.rhs / np.linalg.norm(problem.rhs))) ** 2
    predicted = float(np.sum(beta2 * result.resolved.C**2 / w**2))
    assert abs(result.success_probability - predicted) <= 1e-12
    assert result.clock_residual <= 1e-12


class TestOneSpectrumPerSolve:
    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        calls = []
        real_eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(args[0].shape)
            return real_eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        return calls

    @pytest.mark.parametrize("family", FAMILIES)
    def test_generation_computes_no_eigenvectors(self, eigh_calls, family):
        generate(FamilySpec(family, 8, seed=0))
        assert eigh_calls == []

    @pytest.mark.parametrize(
        "family, structure_calls",
        [("diagonal", 0), ("dense", 0), ("tridiagonal", 1), ("moderate", 1)],
    )
    def test_generation_takes_kappa_from_its_construction(self, monkeypatch, family, structure_calls):
        # Spectrum-first families already hold their eigenvalues; the
        # structure-first ones run only the eigvalsh that sizes their shift.
        calls = []
        real_eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda a, *r, **k: calls.append(a.shape) or real_eigvalsh(a, *r, **k)
        )
        for kappa in (2.0, 20.0):
            calls.clear()
            problem = generate(FamilySpec(family, 16, seed=4, kappa_target=kappa))
            assert len(calls) == structure_calls
            measured = np.abs(real_eigvalsh(problem.matrix))
            kappa_measured = measured.max() / measured.min()
            assert abs(problem.condition_number - kappa_measured) <= 1e-12 * kappa_measured

    @pytest.mark.parametrize("method", ["exact", "trotter", "block"])
    def test_one_eigendecomposition_per_solve(self, eigh_calls, method):
        problem = generate(FamilySpec("dense", 8, seed=0))
        eigh_calls.clear()
        run_hhl(problem, HhlConfig(method=method))
        assert eigh_calls == [(8, 8)]


class TestDegenerateBasisInvariance:
    """No output reads the basis LAPACK picks inside a degenerate eigenspace:
    each cluster of the spectrum ``run_hhl`` receives is rotated by a seeded
    random unitary, and the solve must not move."""

    @staticmethod
    def rotate_clusters(spectrum, rng):
        w, v = spectrum.eigenvalues, spectrum.eigenvectors.astype(np.complex128)
        edges = np.flatnonzero(np.diff(w) > 1e-8 * np.max(np.abs(w))) + 1
        rotated = 0
        for lo, hi in zip(np.r_[0, edges], np.r_[edges, len(w)]):
            k = hi - lo
            if k > 1:
                q, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
                v[:, lo:hi] = v[:, lo:hi] @ q
                rotated += 1
        return Spectrum(eigenvalues=w, eigenvectors=v), rotated

    @pytest.mark.parametrize("method", ["exact", "block", "trotter"])
    @pytest.mark.parametrize("family", ["diagonal", "dense"])
    def test_run_hhl_invariant_under_cluster_rotation(self, monkeypatch, family, method):
        problem = generate(FamilySpec(family, 32, seed=5))
        config = HhlConfig(method=method)
        reference = run_hhl(problem, config)

        rng = np.random.default_rng(17)
        rotated_clusters = []

        def rotated_eigendecomposition(a):
            spectrum, count = self.rotate_clusters(hermitian_eigendecomposition(a), rng)
            rotated_clusters.append(count)
            return spectrum

        monkeypatch.setattr(pipeline, "hermitian_eigendecomposition", rotated_eigendecomposition)
        result = run_hhl(problem, config)
        assert rotated_clusters and rotated_clusters[0] > 0  # the spectrum is degenerate
        assert result.resolved == reference.resolved
        assert result.cost == reference.cost
        assert np.max(np.abs(result.solution_amplitudes - reference.solution_amplitudes)) <= 1e-12
        for field in ("success_probability", "clock_residual", "fidelity", "post_norm"):
            assert abs(getattr(result, field) - getattr(reference, field)) <= 1e-12


class TestExpectedOutcomeDistribution:
    def test_demo(self):
        np.testing.assert_allclose(
            expected_outcome_distribution(demo_problem()), [0.8, 0.2], atol=1e-12
        )

    def test_identity(self):
        problem = ProblemInstance.from_arrays(np.eye(2), np.array([1.0, 0.0]))
        np.testing.assert_allclose(expected_outcome_distribution(problem), [1.0, 0.0], atol=1e-14)

    def test_diag_hand_solved(self):
        problem = ProblemInstance.from_arrays(
            np.diag([1.0, 2.0]), np.array([1.0, 1.0]) / np.sqrt(2)
        )
        np.testing.assert_allclose(expected_outcome_distribution(problem), [0.8, 0.2], atol=1e-12)


class TestConfigResolution:
    def test_auto_clock_width_demo(self):
        problem = demo_problem()
        spectrum = hermitian_eigendecomposition(problem.matrix)
        resolved = resolve_config(problem, HhlConfig(), spectrum)
        assert resolved.n_c == 2
        assert resolved.t == pytest.approx(np.pi)
        assert resolved.C == pytest.approx(0.45)

    def test_fallback_for_off_grid(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((4, 4))
        a = (a + a.T) / 2 + 4 * np.eye(4)
        problem = ProblemInstance.from_arrays(a, rng.standard_normal(4))
        spectrum = hermitian_eigendecomposition(a)
        resolved = resolve_config(problem, HhlConfig(), spectrum)
        assert resolved.n_c == 6
        lam_max = float(np.max(spectrum.eigenvalues))
        assert resolved.t == pytest.approx(2 * np.pi * 63 / (64 * lam_max))


    def test_populated_set_depends_on_cluster_mass_not_basis(self):
        # spectrum {1, 1, 2, 3}: the eigenvalue-1 cluster carries b-weight
        # 1.27e-12 > 1e-12 whether it sits on one eigenvector or is split
        # below the cutoff over both, so the populated set and C agree
        a = np.diag([1.0, 1.0, 2.0, 3.0])
        spectrum = hermitian_eigendecomposition(a)
        split = [0.9e-12, 0.9e-12, 0.6, 0.8]
        rotated = [math.hypot(0.9e-12, 0.9e-12), 0.0, 0.6, 0.8]
        resolved = [
            resolve_config(ProblemInstance.from_arrays(a, b), HhlConfig(), spectrum)
            for b in (split, rotated)
        ]
        assert resolved[0] == resolved[1]
        assert resolved[0].C == pytest.approx(0.9)


class TestSerialization:
    def test_config_round_trip(self):
        config = HhlConfig(n_c=3, t=1.5, C=0.4, method="trotter", trotter_steps=5, seed=7)
        assert config_from_json(config_to_json(config)) == config

    def test_config_defaults_for_missing_fields(self):
        config = config_from_json({"method": "block"})
        assert config.method == "block"
        assert config.shots == 10_000

    def test_config_ignores_unknown_keys(self):
        # documents written before HhlConfig.epsilon was removed still load
        doc = dict(config_to_json(HhlConfig(n_c=3, method="trotter")), epsilon=1e-8, extra="x")
        assert config_from_json(doc) == HhlConfig(n_c=3, method="trotter")
        assert "epsilon" not in config_to_json(HhlConfig())

    def test_result_round_trip(self):
        result = run_hhl(demo_problem(), HhlConfig(method="exact"))
        again = result_from_json(result_to_json(result))
        np.testing.assert_allclose(again.solution_amplitudes, result.solution_amplitudes)
        assert again.fidelity == result.fidelity
        assert again.cost == result.cost
        assert again.resolved == result.resolved
