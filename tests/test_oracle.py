import numpy as np

from indeflq.core import ProblemData
from indeflq.oracle import dp_solve
from indeflq.riccati import solve_riccati

from conftest import random_definite_problem, scalar_benchmark


def still_data(n, Q, N, T=2.0, points=9):
    grid = np.linspace(0.0, T, points)
    return ProblemData(n=n, k=1, d=1, T=T,
                       A=np.zeros((n, n)), B=np.zeros((n, 1)),
                       C=[np.zeros((n, n))], D=[np.zeros((n, 1))],
                       R=[[1.0]], Q=Q, N=N, grid=grid)


class TestTrivial:
    def test_identity_recursion(self):
        N = np.array([[3.0, 1.0], [1.0, 2.0]])
        data = still_data(2, np.zeros((2, 2)), N)
        for ns in (1, 5, 17):
            res = dp_solve(data, ns)
            assert res.constraint_ok
            assert np.allclose(res.P0, N, atol=1e-14)

    def test_one_step_quadrature_convention(self):
        # A = B = C = D = 0, one step: P0 = Q*T + N
        N = np.array([[3.0, 1.0], [1.0, 2.0]])
        data = still_data(2, np.eye(2), N)
        res = dp_solve(data, 1)
        assert np.allclose(res.P0, 2.0 * np.eye(2) + N, atol=1e-14)


class TestConvergence:
    def test_scalar_definite_to_implicit_value(self):
        data = scalar_benchmark(1.0)
        sol = solve_riccati(data)
        errs = [dp_solve(data, ns).error_vs(sol.P0) for ns in (64, 128, 256, 512)]
        ratios = [errs[i] / errs[i + 1] for i in range(3)]
        order = np.log2(errs[0] / errs[-1]) / 3.0
        assert order >= 0.8
        assert all(1.6 <= r <= 2.6 for r in ratios)

    def test_certified_indefinite_case(self):
        data = scalar_benchmark(-0.15)
        sol = solve_riccati(data)
        errs = []
        for ns in (64, 128, 256, 512):
            res = dp_solve(data, ns)
            assert res.constraint_ok
            errs.append(res.error_vs(sol.P0))
        ratios = [errs[i] / errs[i + 1] for i in range(3)]
        assert all(1.6 <= r <= 2.6 for r in ratios)

    def test_richardson_consistency(self, rng_session):
        for _ in range(3):
            data = random_definite_problem(rng_session)
            sol = solve_riccati(data)
            errs = [dp_solve(data, ns).error_vs(sol.P0) for ns in (64, 128, 256, 512)]
            diffs = [
                np.linalg.norm(dp_solve(data, ns).P0 - dp_solve(data, 2 * ns).P0)
                for ns in (64, 128, 256)
            ]
            ratios = [diffs[i] / diffs[i + 1] for i in range(2)]
            assert all(1.6 <= r <= 2.6 for r in ratios)
            assert errs[0] > errs[-1]


class TestStructure:
    def test_iterates_symmetric(self, rng_session):
        data = random_definite_problem(rng_session)
        res = dp_solve(data, 128)
        assert np.array_equal(res.P0, res.P0.T)

    def test_constraint_abort(self):
        # weight below the sharp threshold: the discrete weight loses
        # positivity once the value path dips under |r|
        data = scalar_benchmark(-0.17)
        res = dp_solve(data, 256)
        assert not res.constraint_ok
        assert res.P0 is None
        assert res.violation_step is not None
        assert np.isnan(res.error_vs(np.array([[0.0]])))
