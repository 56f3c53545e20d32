import numpy as np
import pytest
from scipy import stats

from hhlsim.errors import (
    DimensionMismatch,
    IndexOverlap,
    NonUnitary,
    RegisterTooLarge,
)
from hhlsim.statevector import (
    RegisterLayout,
    StateVector,
    fidelity,
    marginal_probabilities,
    sample_counts,
    state_from_amplitudes,
)
from qpe_oracle import ZeroProbabilityBranch, apply_unitary, collapse, init_state, measure_qubit

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def single_register(n):
    return RegisterLayout(n_clock=0, n_data=n, n_ancilla=0)


def random_state(layout, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << layout.num_qubits) + 1j * rng.standard_normal(
        1 << layout.num_qubits
    )
    return state_from_amplitudes(layout, amps / np.linalg.norm(amps))


def random_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def controlled_matrix_oracle(n, u, targets, controls):
    """Brute-force 2^n x 2^n controlled operator, built state by state."""
    dim = 1 << n
    full = np.zeros((dim, dim), dtype=complex)
    k = len(targets)
    for col in range(dim):
        if all((col >> c) & 1 for c in controls):
            gate_col = 0
            for i, t in enumerate(targets):
                gate_col |= ((col >> t) & 1) << i
            base = col
            for t in targets:
                base &= ~(1 << t)
            for gate_row in range(1 << k):
                row = base
                for i, t in enumerate(targets):
                    row |= ((gate_row >> i) & 1) << t
                full[row, col] += u[gate_row, gate_col]
        else:
            full[col, col] = 1.0
    return full


class TestLayoutAndInit:
    def test_small_layouts(self):
        for (nc, nd), total in [((1, 1), 8), ((3, 1), 32), ((4, 8), 1 << 13)]:
            state = init_state(RegisterLayout(n_clock=nc, n_data=nd))
            assert len(state.amplitudes) == total
            assert state.amplitudes[0] == 1.0
            assert np.count_nonzero(state.amplitudes) == 1
            assert state.norm() == pytest.approx(1.0)

    def test_register_budget(self):
        with pytest.raises(RegisterTooLarge):
            RegisterLayout(n_clock=16, n_data=16)

    def test_register_indices(self):
        layout = RegisterLayout(n_clock=3, n_data=2)
        assert layout.data_qubits == [0, 1]
        assert layout.clock_qubits == [2, 3, 4]
        assert layout.ancilla_qubit == 5


class TestApplyUnitary:
    def test_x_flips(self):
        state = init_state(single_register(1))
        apply_unitary(state, X, [0])
        np.testing.assert_allclose(state.amplitudes, [0, 1], atol=1e-14)

    def test_hadamard(self):
        state = init_state(single_register(1))
        apply_unitary(state, H, [0])
        np.testing.assert_allclose(state.amplitudes, [1, 1] / np.sqrt(2), atol=1e-14)

    def test_control_off_is_identity(self):
        state = init_state(single_register(2))  # control qubit 1 is |0>
        before = state.amplitudes.copy()
        apply_unitary(state, X, [0], controls=[1])
        np.testing.assert_array_equal(state.amplitudes, before)

    def test_control_on_fires(self):
        state = init_state(single_register(2))
        apply_unitary(state, X, [1])  # set control
        apply_unitary(state, X, [0], controls=[1])
        np.testing.assert_allclose(state.amplitudes, [0, 0, 0, 1], atol=1e-14)

    def test_matches_bruteforce_controlled_matrix(self):
        rng = np.random.default_rng(77)
        for n, k, n_controls in [(3, 1, 0), (4, 1, 1), (5, 2, 1), (6, 2, 2), (6, 3, 1)]:
            qubits = list(rng.permutation(n))
            targets, controls = qubits[:k], qubits[k : k + n_controls]
            u = random_unitary(1 << k, rng)
            state = random_state(single_register(n), seed=n * 100 + k)
            expected = controlled_matrix_oracle(n, u, targets, controls) @ state.amplitudes
            apply_unitary(state, u, targets, controls=controls)
            np.testing.assert_allclose(state.amplitudes, expected, atol=1e-11)

    def test_norm_preserved_over_many_gates(self):
        rng = np.random.default_rng(123)
        state = random_state(single_register(5), seed=6)
        for _ in range(10_000):
            k = int(rng.integers(1, 3))
            qubits = list(rng.permutation(5)[:k])
            apply_unitary(state, random_unitary(1 << k, rng), qubits)
        assert abs(state.norm() - 1.0) <= 1e-9

    def test_overlap_rejected(self):
        state = init_state(single_register(2))
        with pytest.raises(IndexOverlap):
            apply_unitary(state, X, [0], controls=[0])

    def test_dimension_mismatch(self):
        state = init_state(single_register(2))
        with pytest.raises(DimensionMismatch):
            apply_unitary(state, np.eye(4), [0])

    def test_non_unitary_rejected(self):
        state = init_state(single_register(1))
        with pytest.raises(NonUnitary):
            apply_unitary(state, np.array([[1, 0], [0, 2.0]]), [0])


class TestMeasurement:
    def test_basis_state(self):
        state = init_state(single_register(1))
        apply_unitary(state, X, [0])
        p0, p1, c0, c1 = measure_qubit(state, 0)
        assert p1 == pytest.approx(1.0)
        assert c0 is None  # dead branch has no normalizable state
        np.testing.assert_allclose(c1.amplitudes, [0, 1], atol=1e-14)

    def test_plus_state(self):
        state = init_state(single_register(1))
        apply_unitary(state, H, [0])
        p0, p1, c0, c1 = measure_qubit(state, 0)
        assert p0 == pytest.approx(0.5)
        assert p1 == pytest.approx(0.5)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(c0.amplitudes, [1, 0], atol=1e-14)

    def test_collapse_dead_branch_raises(self):
        state = init_state(single_register(1))
        with pytest.raises(ZeroProbabilityBranch):
            collapse(state, 0, 1)

    def test_collapse_renormalizes(self):
        state = state_from_amplitudes(single_register(2), [0.6, 0.0, 0.8, 0.0])
        p, collapsed = collapse(state, 1, 1)
        assert p == pytest.approx(0.64)
        np.testing.assert_allclose(collapsed.amplitudes, [0, 0, 1, 0], atol=1e-12)


class TestMarginals:
    def test_bit_order(self):
        # state |q1 q0> = |10>: index 2
        state = state_from_amplitudes(single_register(2), [0, 0, 1, 0])
        np.testing.assert_allclose(marginal_probabilities(state, [0]), [1, 0])
        np.testing.assert_allclose(marginal_probabilities(state, [1]), [0, 1])
        np.testing.assert_allclose(marginal_probabilities(state, [0, 1]), [0, 0, 1, 0])
        np.testing.assert_allclose(marginal_probabilities(state, [1, 0]), [0, 1, 0, 0])


class TestSampling:
    def test_deterministic_outcome(self):
        state = state_from_amplitudes(single_register(1), [0, 1])
        hist = sample_counts(state, [0], shots=1000, seed=1)
        assert hist.counts == {"1": 1000}
        assert hist.shots == 1000

    def test_balanced_within_5_sigma(self):
        state = state_from_amplitudes(single_register(1), [1, 1] / np.sqrt(2))
        hist = sample_counts(state, [0], shots=10_000, seed=42)
        sigma = np.sqrt(10_000 * 0.25)
        assert abs(hist.counts["0"] - 5000) <= 5 * sigma

    def test_reproducible(self):
        state = random_state(single_register(3), seed=17)
        h1 = sample_counts(state, [0, 1, 2], shots=5000, seed=9)
        h2 = sample_counts(state, [0, 1, 2], shots=5000, seed=9)
        assert h1.counts == h2.counts
        assert h1.seed == 9

    def test_chi_squared_against_amplitudes(self):
        state = random_state(single_register(3), seed=8)
        shots = 100_000
        hist = sample_counts(state, [0, 1, 2], shots=shots, seed=3)
        probs = state.probabilities()
        observed = np.array([hist.counts.get(format(i, "03b"), 0) for i in range(8)])
        _, p_value = stats.chisquare(observed, probs * shots)
        assert p_value > 1e-3


class TestFidelity:
    def test_identical(self):
        v = np.array([0.6, 0.8j])
        assert fidelity(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert fidelity(np.array([1, 0]), np.array([0, 1])) == pytest.approx(0.0)

    def test_half_overlap(self):
        assert fidelity(np.array([1.0, 0.0]), np.array([1, 1]) / np.sqrt(2)) == pytest.approx(0.5)

    def test_symmetric_and_phase_invariant(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a))
        assert fidelity(a * np.exp(0.3j), b) == pytest.approx(fidelity(a, b))

    def test_accepts_state_objects(self):
        s = init_state(single_register(2))
        assert fidelity(s, s.amplitudes) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fidelity(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0]))
