import numpy as np
import pytest

from hhlsim.errors import (
    DimensionMismatch,
    NonHermitian,
    SingularMatrix,
    ZeroVector,
)
from hhlsim.families import FamilySpec, generate
from hhlsim.linalg import (
    ProblemInstance,
    condition_number,
    hermitian_eigendecomposition,
    matrix_from_json,
    max_asymmetry,
    matrix_to_json,
    problem_from_json,
    problem_to_json,
    solve_linear,
    unitary_exponential,
    vector_from_json,
    vector_to_json,
)

DEMO = np.array([[1.0, -0.5], [-0.5, 1.0]], dtype=complex)


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


class TestEigendecomposition:
    def test_identity(self):
        spec = hermitian_eigendecomposition(np.eye(2))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 1.0])
        np.testing.assert_allclose(
            spec.eigenvectors.conj().T @ spec.eigenvectors, np.eye(2), atol=1e-10
        )

    def test_demo_matrix(self):
        spec = hermitian_eigendecomposition(DEMO)
        np.testing.assert_allclose(spec.eigenvalues, [0.5, 1.5], atol=1e-12)
        # Each eigenvector is fixed only up to a unit phase.
        s = 1 / np.sqrt(2)
        for j, expected in enumerate(([s, s], [s, -s])):
            overlap = np.vdot(spec.eigenvectors[:, j], expected)
            assert abs(abs(overlap) - 1.0) <= 1e-12

    def test_random_residual(self):
        a = random_hermitian(8, seed=11)
        spec = hermitian_eigendecomposition(a)
        norm = np.linalg.norm(a, 2)
        for j in range(8):
            resid = a @ spec.eigenvectors[:, j] - spec.eigenvalues[j] * spec.eigenvectors[:, j]
            assert np.linalg.norm(resid) <= 1e-10 * norm

    def test_orthonormal(self):
        spec = hermitian_eigendecomposition(random_hermitian(16, seed=3))
        gram = spec.eigenvectors.conj().T @ spec.eigenvectors
        assert np.max(np.abs(gram - np.eye(16))) <= 1e-10

    def test_ascending(self):
        spec = hermitian_eigendecomposition(random_hermitian(8, seed=5))
        assert np.all(np.diff(spec.eigenvalues) >= 0)

    def test_round_trip_property(self):
        for seed in range(10):
            a = random_hermitian(8, seed)
            spec = hermitian_eigendecomposition(a)
            np.testing.assert_allclose(spec.reconstruct(), a, atol=1e-10)

    def test_deterministic(self):
        a = random_hermitian(8, seed=21)
        s1 = hermitian_eigendecomposition(a)
        s2 = hermitian_eigendecomposition(a.copy())
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        assert np.array_equal(s1.eigenvectors, s2.eigenvectors)

    def test_degenerate_block_deterministic(self):
        # two-fold degenerate eigenvalue
        a = np.diag([1.0, 1.0, 2.0]).astype(complex)
        s1 = hermitian_eigendecomposition(a)
        s2 = hermitian_eigendecomposition(a)
        assert np.array_equal(s1.eigenvectors, s2.eigenvectors)
        np.testing.assert_allclose(s1.reconstruct(), a, atol=1e-10)

    @pytest.mark.parametrize(
        "family, dtype", [("tridiagonal", np.float64), ("dense", np.complex128)]
    )
    def test_one_eigh_real_for_real_input(self, monkeypatch, family, dtype):
        # An exactly real matrix goes to the real eigh, a complex one to the
        # complex eigh; either way one LAPACK call and the same matrix back.
        a = generate(FamilySpec(family, 16, seed=3)).matrix
        calls = []
        real_eigh = np.linalg.eigh
        monkeypatch.setattr(
            np.linalg, "eigh", lambda m, *r, **k: calls.append(m.dtype) or real_eigh(m, *r, **k)
        )
        spec = hermitian_eigendecomposition(a)
        assert calls == [dtype]
        assert np.max(np.abs(spec.reconstruct() - a)) <= 1e-10

    @pytest.mark.parametrize("family", ["tridiagonal", "dense"])
    def test_asymmetry_of_a_real_matrix_read_as_real(self, family):
        a = generate(FamilySpec(family, 16, seed=3)).matrix.copy()
        a[2, 5] += 3e-13
        assert max_asymmetry(a) == float(np.max(np.abs(a - a.conj().T)))
        assert max_asymmetry(a) > 0.0

    def test_non_hermitian_reports_asymmetry(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(NonHermitian) as excinfo:
            hermitian_eigendecomposition(a)
        assert excinfo.value.max_asymmetry == pytest.approx(2.0)


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(np.linalg.eigvalsh(np.eye(4))) == 1.0

    def test_demo_matrix(self):
        assert condition_number(np.linalg.eigvalsh(DEMO)) == pytest.approx(3.0)

    def test_diagonal(self):
        assert condition_number(np.array([1.0, 2.0, 4.0, 8.0])) == pytest.approx(8.0)

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            condition_number(np.array([0.0, 1.0]))


class TestUnitaryExponential:
    def test_zero_matrix(self):
        np.testing.assert_allclose(unitary_exponential(np.zeros((2, 2)), 3.7), np.eye(2), atol=1e-12)

    def test_diagonal(self):
        t = 0.83
        u = unitary_exponential(np.diag([2.0, 5.0]), t)
        np.testing.assert_allclose(u, np.diag(np.exp(1j * np.array([2.0, 5.0]) * t)), atol=1e-12)

    def test_taylor_series_oracle(self):
        # 30-term series is an independent route to exp(i*A*t)
        t = 1.0
        series = np.eye(2, dtype=complex)
        term = np.eye(2, dtype=complex)
        for j in range(1, 30):
            term = term @ (1j * DEMO * t) / j
            series = series + term
        np.testing.assert_allclose(unitary_exponential(DEMO, t), series, atol=1e-10)

    def test_unitary(self):
        u = unitary_exponential(random_hermitian(8, seed=2), 1.3)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-10)

    def test_inverse_property(self):
        a = random_hermitian(4, seed=9)
        u = unitary_exponential(a, 0.7) @ unitary_exponential(a, -0.7)
        np.testing.assert_allclose(u, np.eye(4), atol=1e-10)

    def test_group_property(self):
        a = random_hermitian(4, seed=10)
        lhs = unitary_exponential(a, 1.1)
        rhs = unitary_exponential(a, 0.4) @ unitary_exponential(a, 0.7)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestSolveLinear:
    def test_demo_system(self):
        problem = ProblemInstance.from_arrays(DEMO, np.array([1.0, 0.0]))
        x = solve_linear(problem)
        np.testing.assert_allclose(x, [4.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_identity(self):
        b = np.array([0.3, -0.7 + 0.2j])
        problem = ProblemInstance.from_arrays(np.eye(2), b)
        np.testing.assert_allclose(solve_linear(problem), b, atol=1e-12)

    def test_random_residual(self):
        a = random_hermitian(16, seed=4) + 8 * np.eye(16)
        rng = np.random.default_rng(40)
        b = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        problem = ProblemInstance.from_arrays(a, b)
        x = solve_linear(problem)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("family", ["tridiagonal", "moderate", "dense"])
    def test_real_matrix_factored_once_as_real(self, monkeypatch, family):
        # an exactly real A takes one real LU with Re b and Im b as its two
        # right-hand sides; a complex A one complex LU
        problem = generate(FamilySpec(family, 32, seed=6))
        calls, real_solve = [], np.linalg.solve
        monkeypatch.setattr(
            np.linalg, "solve", lambda a, b: calls.append((a.dtype, b.shape)) or real_solve(a, b)
        )
        x = solve_linear(problem)
        real = family != "dense"
        assert calls == ([(np.float64, (32, 2))] if real else [(np.complex128, (32,))])
        reference = real_solve(problem.matrix, problem.rhs)
        assert np.max(np.abs(x - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_singular(self):
        problem = ProblemInstance(
            matrix=np.diag([1.0, 0.0]).astype(complex),
            rhs=np.array([1.0, 1.0], dtype=complex),
            sparsity=1,
            condition_number=1.0,
        )
        with pytest.raises(SingularMatrix):
            solve_linear(problem)


class TestProblemInstance:
    def test_metadata(self):
        problem = ProblemInstance.from_arrays(DEMO, np.array([1.0, 0.0]))
        assert problem.sparsity == 2
        assert problem.condition_number == pytest.approx(3.0)

    def test_zero_rhs(self):
        with pytest.raises(ZeroVector):
            ProblemInstance.from_arrays(DEMO, np.zeros(2))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ProblemInstance.from_arrays(DEMO, np.ones(4))


class TestJsonFormats:
    def test_matrix_round_trip(self):
        a = random_hermitian(4, seed=8)
        doc = matrix_to_json(a)
        assert doc["n"] == 4
        np.testing.assert_allclose(matrix_from_json(doc), a)

    def test_vector_round_trip(self):
        v = np.array([1.0 + 2.0j, -0.5])
        np.testing.assert_allclose(vector_from_json(vector_to_json(v)), v)

    def test_matrix_shape_check(self):
        with pytest.raises(DimensionMismatch):
            matrix_from_json({"n": 3, "re": [[1.0]], "im": [[0.0]]})

    def test_problem_round_trip(self):
        problem = ProblemInstance.from_arrays(DEMO, np.array([1.0, 0.0]))
        again = problem_from_json(problem_to_json(problem))
        np.testing.assert_allclose(again.matrix, problem.matrix)
        np.testing.assert_allclose(again.rhs, problem.rhs)
        assert again.sparsity == problem.sparsity
