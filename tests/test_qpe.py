"""Phase estimation on the eigenbasis and Krylov + FFT paths, and the
gate-level oracle's QFT.

The QFT and clock-readout tests exercise the test-only gate engine in
``qpe_oracle``; ``tests/test_differential.py`` holds the two engines to each
other on whole solves.
"""

import numpy as np
import pytest

import qpe_oracle
from hhlsim.errors import DimensionMismatch, NonUnitary
from hhlsim.hamiltonian import BlockEvolution, ExactEvolution
from hhlsim.linalg import ProblemInstance, hermitian_eigendecomposition
from hhlsim.pipeline import HhlConfig, amplitude_encode, eigenvalue_inversion, run_hhl
from hhlsim.qpe import inverse_phase_estimation, phase_estimation, spectral_phase_estimation
from hhlsim.statevector import RegisterLayout, state_from_amplitudes
from qpe_oracle import (
    ClockRegisterNotCleared,
    apply_qft,
    apply_unitary,
    init_state,
    qft,
    read_clock,
)

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def exact_propagator(a, t):
    return ExactEvolution(hermitian_eigendecomposition(a)).propagator(t)


def clock_distribution(phased):
    """Clock-bin probabilities of clock-by-data amplitudes."""
    return np.sum(np.abs(phased) ** 2, axis=1)


def random_state(layout, seed):
    rng = np.random.default_rng(seed)
    n = 1 << layout.num_qubits
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return state_from_amplitudes(layout, amps / np.linalg.norm(amps))


class TestQftMatrix:
    def test_one_qubit_is_hadamard(self):
        np.testing.assert_allclose(qft(1), H, atol=1e-14)

    def test_column_zero_uniform(self):
        f = qft(3)
        np.testing.assert_allclose(f[:, 0], np.full(8, 1 / np.sqrt(8)), atol=1e-14)

    def test_entry_formula(self):
        f = qft(3)
        assert f[1, 1] == pytest.approx(np.exp(2j * np.pi / 8) / np.sqrt(8))

    def test_unitary(self):
        for n in (1, 2, 4):
            f = qft(n)
            np.testing.assert_allclose(f.conj().T @ f, np.eye(1 << n), atol=1e-12)

    def test_range_check(self):
        with pytest.raises(DimensionMismatch):
            qft(0)
        with pytest.raises(DimensionMismatch):
            qft(13)


class TestQftCircuit:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("inverse", [False, True])
    def test_circuit_matches_matrix(self, n, inverse):
        layout = RegisterLayout(n_clock=0, n_data=n, n_ancilla=0)
        qubits = list(range(n))
        state = random_state(layout, seed=n)
        expected = state.copy()
        matrix = qft(n).conj().T if inverse else qft(n)
        apply_unitary(expected, matrix, qubits)
        apply_qft(state, qubits, inverse=inverse)
        np.testing.assert_allclose(state.amplitudes, expected.amplitudes, atol=1e-12)

    def test_circuit_on_embedded_register(self):
        # clock register sits mid-index; the gate decomposition must respect it
        layout = RegisterLayout(n_clock=3, n_data=2)
        state = random_state(layout, seed=9)
        expected = state.copy()
        apply_unitary(expected, qft(3), layout.clock_qubits)
        apply_qft(state, layout.clock_qubits)
        np.testing.assert_allclose(state.amplitudes, expected.amplitudes, atol=1e-12)


class TestPhaseEstimation:
    def test_zero_phase_keeps_clock_clear(self):
        # data |0> is an eigenstate of exp(i*A*t) with eigenvalue exactly
        # representable as bin 0 when A|0> = 0
        u = exact_propagator(np.diag([0.0, 1.0]), 2 * np.pi / 8)
        phased = phase_estimation(np.array([1.0, 0.0]), u, 3)
        assert clock_distribution(phased)[0] == pytest.approx(1.0, abs=1e-10)

    def test_deterministic_bin(self):
        # A = diag(1, 3), t = 2*pi/8, n_c = 3: eigenstate |1> lands on bin 3
        u = exact_propagator(np.diag([1.0, 3.0]), 2 * np.pi / 8)
        phased = phase_estimation(np.array([0.0, 1.0]), u, 3)
        probs = clock_distribution(phased)
        assert int(np.argmax(probs)) == 3
        assert probs[3] == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(phased[3], [0.0, 1.0], atol=1e-10)

    def test_demo_two_peaks(self):
        # eigenvalues 0.5 and 1.5 with t = pi map to bins 1 and 3; b = (1, 0)
        # splits evenly over both eigenvectors
        u = exact_propagator(np.array([[1.0, -0.5], [-0.5, 1.0]]), np.pi)
        phased = phase_estimation(np.array([1.0, 0.0]), u, 2)
        np.testing.assert_allclose(clock_distribution(phased), [0.0, 0.5, 0.0, 0.5], atol=1e-10)

    def test_controlled_u_count(self):
        # the ladder of controlled U^(2^k), k < n_c, is 2^n_c - 1 applications
        # of U per pass; a solve runs it forward and to uncompute
        problem = ProblemInstance.from_arrays(np.diag([1.0, 2.0]), np.array([1.0, 0.0]))
        for n_c in range(1, 8):
            cost = run_hhl(problem, HhlConfig(n_c=n_c, t=2 * np.pi / (1 << n_c))).cost
            assert cost.controlled_u_count == 2 * ((1 << n_c) - 1)
            assert cost.elementary_exp_count == cost.controlled_u_count

    def test_clock_must_start_cleared(self):
        # the gate-level oracle starts from a full register state; the
        # Krylov path takes the data state alone and checks its width
        layout = RegisterLayout(n_clock=2, n_data=1)
        state = init_state(layout)
        apply_unitary(state, H, [layout.clock_qubits[0]])
        with pytest.raises(ClockRegisterNotCleared):
            qpe_oracle.phase_estimation(state, exact_propagator(np.eye(2), 1.0), 2)
        with pytest.raises(DimensionMismatch):
            phase_estimation(np.ones(4) / 2, exact_propagator(np.eye(2), 1.0), 2)
        with pytest.raises(DimensionMismatch):
            phase_estimation(np.array([1.0, 0.0]), exact_propagator(np.eye(2), 1.0), 0)

    def test_nearest_bin_mass_bound(self):
        # standard guarantee: the closest bin carries at least 4/pi^2
        rng = np.random.default_rng(31)
        for _ in range(20):
            lam = rng.uniform(1.0, 14.0)  # keep the phase inside bins 1..15
            u = exact_propagator(np.diag([0.0, lam]), 2 * np.pi / 16)
            phased = phase_estimation(np.array([0.0, 1.0]), u, 4)
            nearest = int(np.round(lam))
            assert clock_distribution(phased)[nearest] >= 4 / np.pi**2 - 1e-9


class TestSpectralPhaseEstimation:
    # P[k, j] is the probability that eigenvector j lands on clock bin k
    def _random_case(self, dim, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        spectrum = hermitian_eigendecomposition((a + a.conj().T) / 2 + 3 * np.eye(dim))
        b_hat = amplitude_encode(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        return spectrum, b_hat, spectrum.eigenvectors.conj().T @ b_hat

    @pytest.mark.parametrize("backend", [ExactEvolution, BlockEvolution])
    def test_kernel_matches_the_krylov_pass(self, backend):
        # bin k of the Krylov pass is V (alpha_k * beta), so its eigenbasis
        # components have squared moduli P[k] * |beta|^2
        spectrum, b_hat, beta = self._random_case(8, seed=3)
        evolution = backend(spectrum)
        t, n_c = 0.41, 4
        kernel = spectral_phase_estimation(beta, spectrum.eigenvectors, evolution.eigenphases(t), n_c)
        phased = phase_estimation(b_hat, evolution.propagator(t), n_c)
        components = phased @ spectrum.eigenvectors.conj()
        np.testing.assert_allclose(kernel * np.abs(beta) ** 2, np.abs(components) ** 2, atol=1e-13)
        np.testing.assert_allclose(kernel.sum(axis=0), 1.0, atol=1e-13)

    def test_on_grid_phase_is_one_bin(self):
        # A = diag(1, 3), t = 2*pi/8: eigenvector j sits on bin lambda_j alone
        spectrum = hermitian_eigendecomposition(np.diag([1.0, 3.0]))
        phases = ExactEvolution(spectrum).eigenphases(2 * np.pi / 8)
        kernel = spectral_phase_estimation(np.array([0.6, 0.8]), spectrum.eigenvectors, phases, 3)
        expected = np.zeros((8, 2))
        expected[1, 0] = expected[3, 1] = 1.0
        np.testing.assert_allclose(kernel, expected, atol=1e-15)

    def test_shapes_clock_and_unitarity_checked(self):
        spectrum, _, beta = self._random_case(4, seed=5)
        v, phases = spectrum.eigenvectors, spectrum.eigenvalues
        with pytest.raises(DimensionMismatch):
            spectral_phase_estimation(beta, v, phases, 0)
        with pytest.raises(DimensionMismatch):
            spectral_phase_estimation(beta[:3], v, phases, 2)
        with pytest.raises(DimensionMismatch):
            spectral_phase_estimation(beta, v, phases[:3], 2)
        with pytest.raises(DimensionMismatch):
            spectral_phase_estimation(beta, v[:, :3], phases, 2)
        with pytest.raises(NonUnitary):
            spectral_phase_estimation(beta, 1.001 * v, phases, 2)


class TestInversePhaseEstimation:
    def test_adjoint_composition_random_states(self):
        layout = RegisterLayout(n_clock=3, n_data=2)
        for seed in range(5):
            state = random_state(layout, seed)
            original = state.amplitudes.copy()
            # adjoint composition holds for any input, cleared clock or not,
            # so drive the oracle's circuit pair directly
            apply_qft(state, layout.clock_qubits, inverse=True)
            apply_qft(state, layout.clock_qubits, inverse=False)
            np.testing.assert_allclose(state.amplitudes, original, atol=1e-12)

    def test_forward_then_inverse_is_identity(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = (a + a.conj().T) / 2 + 3 * np.eye(4)
        u = exact_propagator(a, 0.4)
        b_hat = amplitude_encode(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        phased = phase_estimation(b_hat, u, 4)
        np.testing.assert_allclose(inverse_phase_estimation(phased, u, 4), b_hat, atol=1e-9)

    def test_representable_uncompute_clears_clock(self):
        u = exact_propagator(np.diag([1.0, 3.0]), 2 * np.pi / 8)
        phased = phase_estimation(np.array([0.6, 0.8]), u, 3)
        block = inverse_phase_estimation(phased, u, 3)
        assert np.linalg.norm(block) ** 2 >= 1.0 - 1e-10
        with pytest.raises(DimensionMismatch):
            inverse_phase_estimation(phased, u, 2)
        with pytest.raises(DimensionMismatch):
            inverse_phase_estimation(phased[:1], u, 0)

    def test_non_representable_leaves_residual(self):
        # off-grid eigenvalues leak over several bins; once the clock-controlled
        # rotation has acted, the uncompute cannot fully disentangle them. The
        # residual is a diagnostic, not an error.
        t = 2 * np.pi / 8
        u = exact_propagator(np.diag([1.0, np.pi]), t)
        phased = phase_estimation(np.array([0.6, 0.8]), u, 3)
        rotated = eigenvalue_inversion(phased, 0.9, 3, t, zero_bin_tolerance=0.5)
        block = inverse_phase_estimation(rotated / np.linalg.norm(rotated), u, 3)
        residual = 1.0 - np.linalg.norm(block) ** 2
        assert residual > 1e-6


def test_phase_estimate_fields():
    layout = RegisterLayout(n_clock=2, n_data=1)
    state = init_state(layout)
    qpe_oracle.prepare_b(state, np.array([0.0, 1.0]))
    t = 2 * np.pi / 4
    qpe_oracle.phase_estimation(state, exact_propagator(np.diag([0.0, 2.0]), t), 2)
    estimate = read_clock(state, t)
    assert estimate.clock_distribution.sum() == pytest.approx(1.0, abs=1e-10)
    assert estimate.peak_bin == 2
    assert estimate.implied_eigenvalue == pytest.approx(2.0)
