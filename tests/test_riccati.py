import copy

import numpy as np
import pytest
from scipy.optimize import brentq

from indeflq.core import CoefficientPath, ProblemData, symmetrize
from indeflq.errors import ConstraintViolation, StepLimit
from indeflq.oracle import dp_solve
from indeflq.riccati import (
    BLOWUP,
    COMPLETED,
    CONSTRAINT_VIOLATION,
    SolverConfig,
    check_solution_residual,
    solve_riccati,
)
from indeflq.specio import parse_spec
from indeflq import bundled

from conftest import random_definite_problem, scalar_benchmark


def implicit_solution_root(r, t):
    """Backward flow of dP/dt = P^2/(r+P), P(1) = 1.

    Separation of variables gives ln P - r/P = t - r - 1; bisect that for P.
    """
    lo = 1e-6 if r >= 0 else -r * (1.0 + 1e-9)
    return brentq(
        lambda p: np.log(p) - r / p - t + r + 1.0, lo, 2.0, xtol=1e-14
    )


class TestScalarBenchmark:
    def test_matches_implicit_solution(self):
        data = scalar_benchmark(1.0)
        sol = solve_riccati(data)
        assert sol.status == COMPLETED
        # independent oracle: bisection on ln P - 1/P = t - 2 at t = 0
        P_star = brentq(lambda p: np.log(p) - 1.0 / p + 2.0, 0.1, 1.0, xtol=1e-14)
        assert abs(P_star - 0.64220070405987) < 1e-11
        assert abs(sol.P0[0, 0] - P_star) <= 1e-6
        assert check_solution_residual(sol, data) <= 1e-6

    def test_whole_path_matches_oracle(self):
        data = scalar_benchmark(1.0)
        sol = solve_riccati(data)
        for j in range(0, sol.grid.size, 64):
            p_ref = implicit_solution_root(1.0, sol.grid[j])
            assert abs(sol.P[j, 0, 0] - p_ref) < 1e-7

    def test_indefinite_certified_weight(self):
        data = scalar_benchmark(-0.15)
        sol = solve_riccati(data)
        assert sol.status == COMPLETED
        assert sol.margin_min_dense > 0.05
        p_ref = implicit_solution_root(-0.15, 0.0)
        assert abs(sol.P0[0, 0] - p_ref) <= 1e-6

    def test_constraint_violation_bracketed(self):
        data = scalar_benchmark(-0.17)
        sol = solve_riccati(data)
        assert sol.status == CONSTRAINT_VIOLATION
        # margin hits the floor where ln P + 0.17/P bottoms out:
        # t* = ln(0.17) + 1 + (1 - 0.17)... derived by separation of variables
        t_star = np.log(0.17) + 0.17 / 0.17 - (np.log(1.0) + 0.17 / 1.0 - 1.0)
        assert abs(sol.t_event - t_star) <= 2e-6
        # stored trajectory only covers (t*, T]
        assert sol.grid[0] > sol.t_event


class TestZeroSolution:
    def test_zero_terminal_zero_Q(self, rng_session):
        for _ in range(5):
            data = random_definite_problem(rng_session)
            data = data.with_weights(Q=np.zeros((data.n, data.n)),
                                     N=np.zeros((data.n, data.n)))
            sol = solve_riccati(data)
            assert sol.status == COMPLETED
            assert np.max(np.abs(sol.P)) == 0.0
            assert check_solution_residual(sol, data) <= 1e-12


class TestBlowupCounterexample:
    def test_branch_and_escape(self):
        spec = parse_spec(bundled.example_doc("blowup_ode"))
        sol = solve_riccati(spec.data, spec.solver)
        assert sol.status == BLOWUP
        assert 0.9 < sol.t_event < 1.0
        mask = sol.grid >= 1.0
        branch = 1.0 / (3.0 - sol.grid[mask])
        assert np.max(np.abs(sol.P[mask, 0, 0] - branch)) <= 1e-6
        # trajectory stored only above the escape time
        assert sol.grid[0] >= sol.t_event

    def test_terminal_exactness(self):
        spec = parse_spec(bundled.example_doc("blowup_ode"))
        sol = solve_riccati(spec.data, spec.solver)
        assert np.array_equal(sol.P[-1], np.array([[1.0]]))


class TestResidual:
    def test_corrupted_path_is_detected(self):
        data = scalar_benchmark(1.0)
        sol = solve_riccati(data)
        bad = copy.deepcopy(sol)
        bad.P = bad.P + 0.1 * np.eye(1)
        assert check_solution_residual(bad, data) > 0.01

    def test_requires_completed(self):
        data = scalar_benchmark(-0.17)
        sol = solve_riccati(data)
        with pytest.raises(ValueError):
            check_solution_residual(sol, data)

    def test_needs_an_interior_point(self):
        # two stored points leave no central difference to probe: the check
        # must refuse rather than report a zero defect for a corrupted path
        spec = parse_spec(bundled.example_doc("example504_r1"))
        sol = solve_riccati(spec.data, SolverConfig(output_points=2))
        sol.P[0] += 5.0
        with pytest.raises(ValueError, match="at least 3 stored points"):
            check_solution_residual(sol, spec.data)
        # likewise with no probe asked for
        sol = solve_riccati(spec.data)
        with pytest.raises(ValueError, match="1 probe"):
            check_solution_residual(sol, spec.data, probe_points=0)

    def test_nonpositive_weight_raises(self):
        # hat_R = 1 + P for the scalar benchmark; P = -5 inside breaks it
        data = scalar_benchmark(1.0)
        sol = solve_riccati(data)
        bad = copy.deepcopy(sol)
        bad.P[1:-1] = -5.0
        with pytest.raises(ConstraintViolation):
            check_solution_residual(bad, data)


class TestInvariants:
    def test_terminal_copied_exactly(self, rng_session):
        data = random_definite_problem(rng_session)
        sol = solve_riccati(data)
        assert np.array_equal(sol.P[-1], symmetrize(data.N))

    def test_margin_positive_when_completed(self, rng_session):
        for _ in range(5):
            data = random_definite_problem(rng_session)
            sol = solve_riccati(data)
            assert sol.status == COMPLETED
            assert sol.margin_min_dense > 1e-8
            assert np.all(sol.margin > 1e-8)

    def test_stored_P_symmetric(self, rng_session):
        data = random_definite_problem(rng_session)
        sol = solve_riccati(data)
        skew = sol.P - np.swapaxes(sol.P, -1, -2)
        assert np.max(np.abs(skew)) <= 1e-10

    def test_uniqueness_regression(self, rng_session):
        data = random_definite_problem(rng_session)
        cfg = SolverConfig()
        sol = solve_riccati(data, cfg)
        tight = SolverConfig(rel_tol=cfg.rel_tol / 2, abs_tol=cfg.abs_tol / 2)
        sol2 = solve_riccati(data, tight)
        diff = np.linalg.norm(sol.P0 - sol2.P0)
        assert diff <= 10 * cfg.rel_tol * (1 + np.linalg.norm(sol.P0))

    def test_monotone_in_terminal_weight(self, rng_session):
        for _ in range(5):
            data = random_definite_problem(rng_session)
            sol = solve_riccati(data)
            bigger = data.with_weights(N=data.N + np.eye(data.n))
            sol2 = solve_riccati(bigger)
            for _ in range(4):
                xi = rng_session.standard_normal(data.n)
                v1 = xi @ sol.P0 @ xi
                v2 = xi @ sol2.P0 @ xi
                assert v2 - v1 >= -1e-8

    def test_oracle_convergence_order(self, rng_session):
        # classical definite regime: discrete DP value converges to P(0)
        orders = []
        for _ in range(20):
            data = random_definite_problem(rng_session)
            sol = solve_riccati(data)
            e64 = dp_solve(data, 64).error_vs(sol.P0)
            e512 = dp_solve(data, 512).error_vs(sol.P0)
            if e64 < 1e-11:  # nothing to measure
                continue
            orders.append(np.log2(e64 / e512) / 3.0)
        assert len(orders) >= 15
        assert min(orders) >= 0.8

    def test_deterministic_reruns(self, rng_session):
        data = random_definite_problem(rng_session)
        s1 = solve_riccati(data)
        s2 = solve_riccati(data)
        assert np.array_equal(s1.P, s2.P)
        assert s1.accepted_steps == s2.accepted_steps


class TestStepLimit:
    def test_budget_exhaustion(self):
        data = scalar_benchmark(1.0)
        with pytest.raises(StepLimit):
            solve_riccati(data, SolverConfig(max_steps=10))


@pytest.mark.parametrize("key", ["rel_tol", "abs_tol", "max_norm", "eps_pos"])
def test_nan_setting_rejected(key):
    # a NaN tolerance or cap would disable the check it drives
    with pytest.raises(ValueError, match="must be positive"):
        solve_riccati(scalar_benchmark(1.0), SolverConfig(**{key: float("nan")}))


class TestPiecewiseConstantKinks:
    def test_jump_forced_as_step_boundary(self):
        # R jumps 4 -> 1 at t = 0.5; with left-constant interpolation the
        # solver must split steps there even when no output point lands on it.
        grid = np.linspace(0.0, 1.0, 3)
        R = np.array([4.0, 1.0, 1.0])[:, None, None]
        data = ProblemData(
            n=1, k=1, d=1, T=1.0, A=0.0, B=1.0, C=[0.0], D=[0.0],
            R=CoefficientPath(grid, R, "piecewise-constant-left"),
            Q=0.0, N=[[1.0]], grid=grid,
        )
        sol = solve_riccati(data, SolverConfig(output_points=2))
        # separation of variables per piece: P(0.5) = 1/(2 - 0.5) = 2/3,
        # then 1/P(0) = 1/P(0.5) + 0.5/4
        p_exact = 1.0 / (1.5 + 0.125)
        assert sol.status == COMPLETED
        assert abs(sol.P0[0, 0] - p_exact) <= 1e-9

    def test_violation_at_breakpoint(self):
        # R jumps 1 -> -2 at t = 0.5 and R + P(0.5) < 0 on the new piece:
        # the violation holds from the breakpoint on, with no step into it
        grid = np.linspace(0.0, 1.0, 3)
        R = np.array([-2.0, 1.0, 1.0])[:, None, None]
        data = ProblemData(
            n=1, k=1, d=1, T=1.0, A=0.0, B=1.0, C=[0.0], D=[1.0],
            R=CoefficientPath(grid, R, "piecewise-constant-left"),
            Q=0.0, N=[[1.0]], grid=grid,
        )
        for points in (2, 9, 513):
            sol = solve_riccati(data, SolverConfig(output_points=points))
            assert sol.status == CONSTRAINT_VIOLATION
            assert sol.t_event == 0.5
            assert sol.margin_min_dense < 0.0
            assert sol.grid[0] >= 0.5
