import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhlsim.families import FamilySpec, generate
from hhlsim.errors import (
    DimensionMismatch,
    NonHermitian,
    NonPowerOfTwoDimension,
    TruncationInsufficient,
)
from hhlsim.hamiltonian import (
    BlockEvolution,
    ExactEvolution,
    PauliTermList,
    TrotterEvolution,
    block_encode,
    make_trotter_plan,
    pauli_decompose,
    pauli_word_matrix,
    select_taylor_truncation,
    taylor_exponential,
    trotter_unitary,
)
from hhlsim.linalg import (
    ProblemInstance,
    hermitian_eigendecomposition,
    propagator_from_spectrum,
    unitary_exponential,
)
from hhlsim.pipeline import HhlConfig, run_hhl
from hhlsim.qpe import inverse_phase_estimation, phase_estimation
from qpe_oracle import controlled_power

DEMO = np.array([[1.0, -0.5], [-0.5, 1.0]], dtype=complex)
# Same off-diagonal coupling plus a Z component, so the Pauli terms no longer
# commute and product-formula error is visible.
NONCOMMUTING = np.array([[1.3, -0.5], [-0.5, 0.7]], dtype=complex)


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def assert_unitary(u, atol=1e-9):
    np.testing.assert_allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=atol)


class TestPauliDecompose:
    def test_identity(self):
        terms = pauli_decompose(np.eye(2))
        assert terms.terms == ((1.0, "I"),)

    def test_demo_matrix(self):
        terms = pauli_decompose(DEMO)
        assert terms.terms == ((1.0, "I"), (-0.5, "X"))

    def test_lexicographic_order(self):
        terms = pauli_decompose(random_hermitian(4, seed=1))
        words = [w for _, w in terms.terms]
        assert words == sorted(words)

    def test_round_trip_property(self):
        for n, seed in [(4, 0), (4, 1), (8, 2), (8, 3)]:
            a = random_hermitian(n, seed)
            np.testing.assert_allclose(pauli_decompose(a).reconstruct(), a, atol=1e-10)

    def test_word_action_matches_kron(self):
        # the column action (reconstruct) and the row action (one Trotter
        # factor, exp(i*theta*P) = cos + i*sin*P) both read the masks
        theta = 0.3
        for word in ("X", "Y", "Z", "XZ", "YY", "IXY", "ZIY"):
            dense = pauli_word_matrix(word)
            terms = pauli_decompose(dense)
            assert terms.terms == ((1.0, word),)
            np.testing.assert_allclose(terms.reconstruct(), dense, atol=1e-14)
            step = trotter_unitary(make_trotter_plan(terms, steps=1, order=1), theta)
            expected = math.cos(theta) * np.eye(len(dense)) + 1j * math.sin(theta) * dense
            np.testing.assert_allclose(step, expected, atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_coefficients_are_normalized_traces(self, dim):
        a = random_hermitian(dim, seed=dim)
        n = dim.bit_length() - 1
        expected = {
            "".join(word): np.trace(pauli_word_matrix("".join(word)) @ a).real / dim
            for word in itertools.product("IXYZ", repeat=n)
        }
        found = {word: coeff for coeff, word in pauli_decompose(a).terms}
        assert set(found) == {w for w, c in expected.items() if abs(c) > 1e-12}
        for word, coeff in found.items():
            assert coeff == pytest.approx(expected[word], abs=1e-13)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), sparsity=st.floats(0.0, 0.9))
    def test_mask_round_trip_property(self, n, seed, sparsity):
        rng = np.random.default_rng(seed)
        a = random_hermitian(1 << n, seed)
        a[rng.random(a.shape) < sparsity] = 0.0
        a = (a + a.conj().T) / 2
        terms = pauli_decompose(a)
        np.testing.assert_allclose(terms.reconstruct(), a, atol=1e-12)
        words = [w for _, w in terms.terms]
        assert words == sorted(words)
        for (_, word), x, z in zip(terms.terms, terms.xmasks.tolist(), terms.zmasks.tolist()):
            single = PauliTermList(np.ones(1), np.array([x]), np.array([z]), n)
            np.testing.assert_allclose(single.reconstruct(), pauli_word_matrix(word), atol=1e-15)

    def test_sparse_input_has_few_terms(self):
        a = np.diag(np.arange(1.0, 17.0))
        terms = pauli_decompose(a)
        assert terms.term_count <= 16  # diagonal matrices stay in the {I,Z} family
        assert all(set(w) <= {"I", "Z"} for _, w in terms.terms)

    def test_coefficients_real(self):
        terms = pauli_decompose(random_hermitian(8, seed=12))
        assert all(isinstance(c, float) for c, _ in terms.terms)

    def test_non_hermitian(self):
        with pytest.raises(NonHermitian):
            pauli_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_power_of_two(self):
        with pytest.raises(NonPowerOfTwoDimension):
            pauli_decompose(np.eye(3))


class TestTrotter:
    def test_single_term_exact(self):
        a = 0.7 * pauli_word_matrix("XZ")
        for steps in (1, 3):
            plan = make_trotter_plan(a, steps=steps, order=1)
            np.testing.assert_allclose(
                trotter_unitary(plan, 1.1), unitary_exponential(a, 1.1), atol=1e-10
            )

    def test_commuting_terms_exact_one_step(self):
        a = np.diag([0.3, 1.1, 2.2, 0.9])  # {I,Z} words all commute
        plan = make_trotter_plan(a, steps=1, order=1)
        np.testing.assert_allclose(
            trotter_unitary(plan, 0.9), unitary_exponential(a, 0.9), atol=1e-10
        )

    def test_demo_matrix_exact_at_any_step_count(self):
        # The demo matrix splits into I and X terms, which commute, so the
        # product formula carries no step-count error at all.
        exact = unitary_exponential(DEMO, 1.0)
        for r in (4, 8, 16, 32, 64):
            u = trotter_unitary(make_trotter_plan(DEMO, r, order=1), 1.0)
            assert np.linalg.norm(u - exact, 2) <= 1e-12

    @pytest.mark.parametrize("order", [1, 2])
    def test_error_slope_matches_order(self, order):
        exact = unitary_exponential(NONCOMMUTING, 1.0)
        steps = np.array([4, 8, 16, 32, 64])
        errors = []
        for r in steps:
            plan = make_trotter_plan(NONCOMMUTING, int(r), order=order)
            errors.append(np.linalg.norm(trotter_unitary(plan, 1.0) - exact, 2))
        slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
        assert slope == pytest.approx(-order, abs=0.15)

    def test_error_monotone_until_floor(self):
        exact = unitary_exponential(NONCOMMUTING, 1.0)
        errors = []
        for r in (1, 2, 4, 8, 16, 32, 64, 128):
            plan = make_trotter_plan(NONCOMMUTING, r, order=1)
            errors.append(np.linalg.norm(trotter_unitary(plan, 1.0) - exact, 2))
        for prev, cur in zip(errors, errors[1:]):
            assert cur <= prev or cur <= 1e-12

    def test_outputs_unitary(self):
        a = random_hermitian(4, seed=6)
        for order in (1, 2):
            plan = make_trotter_plan(a, 5, order=order)
            assert_unitary(trotter_unitary(plan, 1.0))

    def test_factors_per_step_by_order(self):
        # DEMO has two terms (I, X); the symmetric order-2 step sweeps them twice.
        assert make_trotter_plan(DEMO, 2, order=1).factors_per_step == 2
        assert make_trotter_plan(DEMO, 2, order=2).factors_per_step == 4

    def test_plan_rejects_bad_order(self):
        with pytest.raises(ValueError):
            make_trotter_plan(DEMO, 2, order=3)


class TestBlockEncode:
    def test_pauli_x(self):
        enc = block_encode(pauli_word_matrix("X"))
        np.testing.assert_allclose(
            enc.alpha * enc.unitary[:2, :2], pauli_word_matrix("X"), atol=1e-10
        )
        assert_unitary(enc.unitary, atol=1e-10)

    def test_zero_matrix(self):
        enc = block_encode(np.zeros((2, 2)))
        np.testing.assert_allclose(
            enc.unitary, np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]]),
            atol=1e-12,
        )

    def test_demo_matrix_extraction(self):
        enc = block_encode(DEMO)
        np.testing.assert_allclose(enc.encoded_matrix(), DEMO, atol=1e-10)
        assert enc.alpha >= 1.5

    def test_random_invariants(self):
        for seed in range(10):
            a = random_hermitian(8, seed)
            enc = block_encode(a)
            np.testing.assert_allclose(enc.encoded_matrix(), a, atol=1e-10)
            assert_unitary(enc.unitary, atol=1e-10)


class TestTaylorExponential:
    def test_time_zero(self):
        enc = block_encode(DEMO)
        np.testing.assert_allclose(taylor_exponential(enc, 0.0, truncation=5), np.eye(2), atol=1e-12)

    def test_demo_matrix_k20(self):
        enc = block_encode(DEMO)
        np.testing.assert_allclose(
            taylor_exponential(enc, 1.0, truncation=20),
            unitary_exponential(DEMO, 1.0),
            atol=1e-10,
        )

    def test_diagonal_phases_k25(self):
        # eigenvalues 0.5 and 1.5 at t = pi give phases i and -i
        enc = block_encode(np.diag([0.5, 1.5]))
        u = taylor_exponential(enc, np.pi, truncation=25)
        np.testing.assert_allclose(u, np.diag([1j, -1j]), atol=1e-9)

    def test_auto_truncation(self):
        enc = block_encode(DEMO)
        u = taylor_exponential(enc, 1.0)
        np.testing.assert_allclose(u, unitary_exponential(DEMO, 1.0), atol=1e-10)

    def test_truncation_insufficient_explicit(self):
        enc = block_encode(DEMO)
        with pytest.raises(TruncationInsufficient):
            taylor_exponential(enc, 1.0, truncation=2, tolerance=1e-9)

    def test_truncation_insufficient_auto(self):
        enc = block_encode(100.0 * np.eye(2))
        with pytest.raises(TruncationInsufficient):
            taylor_exponential(enc, 2.0)

    def test_select_truncation_bound(self):
        k = select_taylor_truncation(1.5, 1.0)
        assert 0 < k <= 40

    def test_matches_exact_at_k40(self):
        # brute-force equivalence across sizes with ||A||*t <= 4
        for n, seed in [(2, 0), (4, 1), (8, 2), (16, 3)]:
            a = random_hermitian(n, seed)
            a /= np.linalg.norm(a, 2)
            t = 4.0
            enc = block_encode(a)
            np.testing.assert_allclose(
                taylor_exponential(enc, t, truncation=40),
                unitary_exponential(a, t),
                atol=1e-8,
            )


class TestBackends:
    # Backends hand out only the base U = exp(i*A*t); phase estimation
    # applies U^m as m mat-vecs. Powers here come from the test oracle's
    # controlled_power, the matrix power of that base.
    def test_exact_power_one_is_exponential(self):
        backend = ExactEvolution(hermitian_eigendecomposition(DEMO))
        np.testing.assert_allclose(
            backend.propagator(0.8), unitary_exponential(DEMO, 0.8), atol=1e-12
        )

    def test_power_zero_rejected(self):
        # a ladder needs at least one rung: both phase-estimation passes
        # refuse an empty clock, and the oracle refuses U^0
        spectrum = hermitian_eigendecomposition(DEMO)
        for backend in (ExactEvolution(spectrum), TrotterEvolution(DEMO), BlockEvolution(spectrum)):
            u = backend.propagator(1.0)
            with pytest.raises(DimensionMismatch):
                phase_estimation(np.array([1.0, 0.0]), u, 0)
            with pytest.raises(DimensionMismatch):
                inverse_phase_estimation(np.zeros((1, 2), dtype=complex), u, 0)
            with pytest.raises(ValueError):
                controlled_power(backend, 1.0, 0)

    def test_trotter_power_matches_rescaled_plan(self):
        backend = TrotterEvolution(NONCOMMUTING, steps=3, order=2)
        via_power = controlled_power(backend, 0.6, 4)
        plan = make_trotter_plan(NONCOMMUTING, steps=12, order=2)
        np.testing.assert_allclose(via_power, trotter_unitary(plan, 4 * 0.6), atol=1e-12)

    def test_exact_power_semantics(self):
        backend = ExactEvolution(hermitian_eigendecomposition(NONCOMMUTING))
        np.testing.assert_allclose(
            controlled_power(backend, 0.5, 8),
            unitary_exponential(NONCOMMUTING, 4.0),
            atol=1e-10,
        )

    def test_block_power_is_composed_base(self):
        # the Krylov sequence inside phase estimation is U^m b for the one
        # base U it is handed: recover it from the clock-axis FFT
        base = BlockEvolution(hermitian_eigendecomposition(NONCOMMUTING)).propagator(0.5)
        b = np.array([0.6, 0.8j])
        krylov = np.fft.ifft(phase_estimation(b, base, 3) * 8, axis=0)
        for m in range(8):
            np.testing.assert_allclose(krylov[m], np.linalg.matrix_power(base, m) @ b, atol=1e-12)

    def test_every_backend_output_unitary(self):
        a = random_hermitian(4, seed=14)
        for backend in (
            ExactEvolution(hermitian_eigendecomposition(a)),
            TrotterEvolution(a, steps=2, order=1),
            BlockEvolution(hermitian_eigendecomposition(a)),
        ):
            for power in (1, 2, 8):
                assert_unitary(controlled_power(backend, 0.7, power), atol=1e-9)

    def test_counters(self):
        # n_c = 2 runs rungs U^1 and U^2 forward and again to uncompute;
        # 2 terms (I, X) per step, 4 steps per application of U
        problem = ProblemInstance.from_arrays(DEMO, np.array([1.0, 0.0]))
        config = HhlConfig(n_c=2, method="trotter", trotter_steps=4, trotter_order=1)
        cost = run_hhl(problem, config).cost
        assert cost.controlled_u_count == 2 * 3
        assert cost.elementary_exp_count == 2 * 3 * 4 * 2

    def test_block_counter_tracks_series_terms(self):
        # n_c = 3: rungs U^1, U^2 and U^4 per pass, K = 12 series terms each
        problem = ProblemInstance.from_arrays(DEMO, np.array([1.0, 0.0]))
        cost = run_hhl(problem, HhlConfig(n_c=3, method="block", taylor_k=12)).cost
        assert cost.controlled_u_count == 2 * 7
        assert cost.elementary_exp_count == 2 * 7 * 12

    def test_exponentials_per_application(self):
        spectrum = hermitian_eigendecomposition(NONCOMMUTING)
        assert ExactEvolution(spectrum).exponentials_per_application(0.7) == 1
        # 3 terms (I, X, Z) per sweep, two sweeps per order-2 step, 5 steps
        assert TrotterEvolution(NONCOMMUTING, steps=5).exponentials_per_application(0.7) == 5 * 2 * 3
        block = BlockEvolution(spectrum)
        auto = select_taylor_truncation(block.encoding.alpha, 0.7)
        assert block.exponentials_per_application(0.7) == auto
        assert BlockEvolution(spectrum, truncation=9).exponentials_per_application(0.7) == 9

    @pytest.mark.parametrize("method", ["exact", "trotter", "block"])
    def test_run_hhl_builds_one_propagator(self, monkeypatch, method):
        # Trotter's forward and inverse phase estimation share the one base
        # U; exact and block solve on their eigenphases and build none
        problem = generate(FamilySpec("tridiagonal", 8, seed=0))
        owner = {"exact": ExactEvolution, "trotter": TrotterEvolution, "block": BlockEvolution}[method]
        calls, real = [], owner.propagator
        monkeypatch.setattr(owner, "propagator", lambda self, t: calls.append(t) or real(self, t))
        result = run_hhl(problem, HhlConfig(method=method))
        assert calls == ([result.resolved.t] if method == "trotter" else [])

    def test_eigenphases_match_the_propagator(self):
        # U = V diag(e^{i*phi}) V^dagger for the backends that offer phases;
        # Trotter's U is not diagonal in A's eigenbasis and offers none
        spectrum = hermitian_eigendecomposition(NONCOMMUTING)
        v, t = spectrum.eigenvectors, 0.7
        for backend in (ExactEvolution(spectrum), BlockEvolution(spectrum), BlockEvolution(spectrum, 4)):
            phases = backend.eigenphases(t)
            rebuilt = (v * np.exp(1j * phases)) @ v.conj().T
            np.testing.assert_allclose(rebuilt, backend.propagator(t), rtol=0, atol=1e-14)
        np.testing.assert_allclose(ExactEvolution(spectrum).eigenphases(t), spectrum.eigenvalues * t)
        assert TrotterEvolution(NONCOMMUTING).eigenphases(t) is None


class TestBlockHotPath:
    """The backend evaluates the series on the shared spectrum, never on the
    doubled unitary or on A itself; the series of matrix products on
    ``block_encode(A)`` stays the reference it must match to roundoff."""

    @pytest.mark.parametrize(
        "a",
        [
            DEMO,
            random_hermitian(8, seed=21),
            generate(FamilySpec("tridiagonal", 64, seed=0)).matrix,
        ],
        ids=["demo", "random-8", "tridiagonal-64"],
    )
    def test_base_propagator_equals_block_encode_reference(self, a):
        t = 0.5
        backend = BlockEvolution(hermitian_eigendecomposition(a))
        reference = taylor_exponential(block_encode(a), t)
        np.testing.assert_allclose(backend.propagator(t), reference, rtol=0, atol=1e-13)

    def test_block_solve_where_the_series_svd_does_not_converge(self):
        # On this instance numpy's SVD of the truncated series raises "SVD
        # did not converge" with OpenBLAS 0.3.31, so a polar step taken by
        # SVD failed. The backend takes the phase of the series on the
        # spectrum, and the reference takes the polar factor from eigh of
        # the series' Gram matrix; both must hold here.
        problem = generate(FamilySpec("tridiagonal", 256, seed=45_000_028))
        spectrum = hermitian_eigendecomposition(problem.matrix)
        result = run_hhl(problem, HhlConfig(n_c=7, method="block"))
        t = result.resolved.t
        base = BlockEvolution(spectrum).propagator(t)
        np.testing.assert_allclose(base, propagator_from_spectrum(spectrum, t), rtol=0, atol=1e-10)
        assert result.fidelity >= 0.999
        reference = taylor_exponential(block_encode(problem.matrix), t)
        np.testing.assert_allclose(reference, base, rtol=0, atol=1e-13)
