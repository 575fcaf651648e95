import copy

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.optimize import brentq

from indeflq import core, riccati
from indeflq.core import DEFAULT_EPS_POS, CoefficientPath, ProblemData, lq_block, symmetrize
from indeflq.errors import ConstraintViolation, StepLimit
from indeflq.oracle import dp_ladder
from indeflq.certificates import certify_scalar_comparison
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

from conftest import (
    problems,
    random_definite_problem,
    reference_lq_terms,
    scalar_benchmark,
    seeds,
    smooth_blowup_doc,
)


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
    @hypothesis.settings(max_examples=5)
    @hypothesis.given(data=problems)
    def test_zero_terminal_zero_Q(self, data):
        data = data.with_weights(Q=np.zeros((data.n, data.n)), N=np.zeros((data.n, data.n)))
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

    def test_smooth_blowup_bisected_to_the_bracket(self):
        # the slope norm crosses max_norm inside an accepted step, so the event
        # time is bisected on the step's continuous extension
        spec = parse_spec(smooth_blowup_doc())
        sol = solve_riccati(spec.data, spec.solver)
        assert sol.status == BLOWUP
        assert abs(sol.t_event - (1.0 - np.log(10.0) / 10.0)) <= 1e-6 * spec.data.T
        # six stages per trial step, one event test at the piece start, and
        # one evaluation per halving of the bracket
        assert sol.rhs_evaluations - 6 * (sol.accepted_steps + sol.rejected_steps) - 1 == 13


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

    def test_nonpositive_weight_raises(self):
        # hat_R = 1 + P for the scalar benchmark; P = -5 inside breaks it
        data = scalar_benchmark(1.0)
        sol = solve_riccati(data)
        bad = copy.deepcopy(sol)
        bad.P[1:-1] = -5.0
        with pytest.raises(ConstraintViolation):
            check_solution_residual(bad, data)


class TestInvariants:
    def test_terminal_copied_exactly(self):
        data = random_definite_problem(np.random.default_rng(1))
        sol = solve_riccati(data)
        assert np.array_equal(sol.P[-1], symmetrize(data.N))

    @hypothesis.settings(max_examples=5)
    @hypothesis.given(data=problems)
    def test_margin_positive_when_completed(self, data):
        sol = solve_riccati(data)
        assert sol.status == COMPLETED
        assert sol.margin_min_dense > 1e-8
        assert np.all(sol.margin > 1e-8)

    def test_stored_P_symmetric(self):
        data = random_definite_problem(np.random.default_rng(2))
        sol = solve_riccati(data)
        skew = sol.P - np.swapaxes(sol.P, -1, -2)
        assert np.max(np.abs(skew)) <= 1e-10

    def test_uniqueness_regression(self):
        data = random_definite_problem(np.random.default_rng(3))
        cfg = SolverConfig()
        sol = solve_riccati(data, cfg)
        tight = SolverConfig(rel_tol=cfg.rel_tol / 2, abs_tol=cfg.abs_tol / 2)
        sol2 = solve_riccati(data, tight)
        diff = np.linalg.norm(sol.P0 - sol2.P0)
        assert diff <= 10 * cfg.rel_tol * (1 + np.linalg.norm(sol.P0))

    @hypothesis.settings(max_examples=5)
    @hypothesis.given(seed=seeds)
    def test_monotone_in_terminal_weight(self, seed):
        rng = np.random.default_rng(seed)
        data = random_definite_problem(rng)
        sol = solve_riccati(data)
        sol2 = solve_riccati(data.with_weights(N=data.N + np.eye(data.n)))
        for xi in rng.standard_normal((4, data.n)):
            assert xi @ sol2.P0 @ xi - xi @ sol.P0 @ xi >= -1e-8

    @hypothesis.settings(max_examples=20)
    @hypothesis.given(data=problems)
    def test_oracle_convergence_order(self, data):
        # classical definite regime: discrete DP value converges to P(0) at first order
        sol = solve_riccati(data)
        e64, e512 = (res.error_vs(sol.P0) for res in dp_ladder(data, (64, 512)))
        hypothesis.assume(e64 >= 1e-11)  # else nothing to measure
        assert np.log2(e64 / e512) / 3.0 >= 0.8

    def test_deterministic_reruns(self):
        data = random_definite_problem(np.random.default_rng(4))
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

    def test_constant_data_are_one_piece(self):
        # time-invariant coefficients jump at no grid point: left-constant
        # interpolation takes the piecewise-linear solve's steps and stores its P
        sols = []
        for interpolation in ("piecewise-linear", "piecewise-constant-left"):
            doc = bundled.example_doc("definite_2x2")
            doc["grid"]["interpolation"] = interpolation
            spec = parse_spec(doc)
            assert spec.data.jumps.size == 0
            sols.append(solve_riccati(spec.data, spec.solver))
        linear, constant = sols
        assert (constant.accepted_steps, constant.rhs_evaluations) == (26, 157)
        assert (linear.accepted_steps, linear.rhs_evaluations) == (26, 157)
        assert constant.P.tobytes() == linear.P.tobytes()


def count_calls(monkeypatch, calls, kernel, *modules):
    """Replace ``kernel`` by ``calls``-counting ``kernel`` in each of ``modules``."""
    for module in modules:
        monkeypatch.setattr(module, kernel.__name__,
                            lambda *args: calls.append(1) or kernel(*args))


class TestStageReuse:
    @pytest.mark.parametrize("interpolation", ["piecewise-linear", "piecewise-constant-left"])
    def test_lq_block_calls_per_step(self, monkeypatch, interpolation):
        # a step trial evaluates its six new stages; the accepted point's block
        # is its last stage's, so H is evaluated only once more per coefficient
        # piece (at its start).  Each evaluation takes one slope; lq_block runs
        # per evaluation on time-varying linear data, but once per frozen
        # piece, for its map; once more for the stored gains (through lq_terms)
        grid = np.linspace(0.0, 1.0, 9)
        R = CoefficientPath(grid, (1.0 + 0.5 * np.sin(3.0 * grid))[:, None, None], interpolation)
        data = ProblemData(n=1, k=1, d=1, T=1.0, A=0.0, B=1.0, C=[0.0], D=[1.0], R=R,
                           Q=0.0, N=[[1.0]], grid=grid)
        slopes, kernel = [], []
        count_calls(monkeypatch, slopes, core.schur_complement, riccati)
        count_calls(monkeypatch, kernel, lq_block, riccati, core)
        sol = solve_riccati(data, SolverConfig(output_points=513))
        frozen = interpolation == "piecewise-constant-left"
        pieces = 8 if frozen else 1
        trials = sol.accepted_steps + sol.rejected_steps
        assert sol.completed
        # the lower bound keeps the count from passing on a kernel it does not see
        assert 6 * trials <= len(slopes) <= 6 * trials + pieces + 1
        assert sol.rhs_evaluations == len(slopes)
        assert len(kernel) == (pieces if frozen else sol.rhs_evaluations) + 1

    def test_large_frozen_piece_calls_lq_block(self, monkeypatch):
        # n = k = 12 gives K 82944 entries, above MAP_MAX_ENTRIES: time-invariant
        # data then call lq_block at each evaluation and build no map, and agree
        # with the map's solve when the bound is raised
        n = k = 12
        rng = np.random.default_rng(3)
        data = ProblemData(n=n, k=k, d=1, T=1.0,
                           A=-0.5 * np.eye(n) + 0.03 * rng.standard_normal((n, n)),
                           B=0.3 * rng.standard_normal((n, k)),
                           C=[0.03 * rng.standard_normal((n, n))],
                           D=[0.03 * rng.standard_normal((n, k))],
                           R=np.eye(k), Q=np.eye(n), N=np.eye(n), grid=np.linspace(0.0, 1.0, 2))
        assert (n * (n + k)) ** 2 > core.MAP_MAX_ENTRIES
        maps, kernel = [], []
        count_calls(monkeypatch, maps, core.lq_block_map, riccati)
        count_calls(monkeypatch, kernel, lq_block, riccati, core)
        sol = solve_riccati(data, SolverConfig(output_points=9))
        assert sol.completed and not maps
        assert len(kernel) == sol.rhs_evaluations + 1
        monkeypatch.setattr(core, "MAP_MAX_ENTRIES", (n * (n + k)) ** 2)
        mapped = solve_riccati(data, SolverConfig(output_points=9))
        assert len(maps) == 1 and mapped.accepted_steps == sol.accepted_steps
        assert np.max(np.abs(mapped.P - sol.P)) <= 1e-12 * np.max(np.abs(sol.P))


class TestBlockKernel:
    @pytest.mark.parametrize(
        "name", ["blowup_ode", "example504_r1", "example504_rneg015", "example504_rneg017"])
    def test_scalar_specs_bitwise_as_term_by_term(self, monkeypatch, name):
        # on the scalar specs the block kernel adds the same products in the
        # same order as the term-by-term formula, and the affine map of a
        # frozen piece built from either kernel gives the same H: the stored
        # P is bitwise equal
        spec = parse_spec(bundled.example_doc(name))
        sol = solve_riccati(spec.data, spec.solver)

        calls = []

        def reference_block(blocks, P, Lambda=None):
            calls.append(1)
            (AB, V, Z), n = blocks, P.shape[-1]
            coeffs = (AB[..., :n], AB[..., n:], V[..., :n], V[..., n:],
                      Z[..., n:, n:], Z[..., :n, :n])
            hat, rhs, base = reference_lq_terms(coeffs, P, Lambda)
            return np.block([[base, rhs.swapaxes(-1, -2)], [rhs, hat]])

        for module in (riccati, core):
            monkeypatch.setattr(module, "lq_block", reference_block)
        ref = solve_riccati(spec.data, spec.solver)
        assert ref.rhs_evaluations == sol.rhs_evaluations
        # the map's one call or one per evaluation, and one for the stored gains
        assert len(calls) == (1 if spec.data.time_invariant else ref.rhs_evaluations) + 1
        assert (sol.status, sol.t_event) == (ref.status, ref.t_event)
        assert np.array_equal(sol.P, ref.P)


class TestDenseOutput:
    @pytest.mark.parametrize("name", ["example504_r1", "shift_demo"])
    def test_output_times_do_not_touch_step_control(self, name):
        # output times are filled from the continuous extension, so the step
        # sequence and P(0) are the same on every output grid
        spec = parse_spec(bundled.example_doc(name))
        sols = [solve_riccati(spec.data, SolverConfig(output_points=points))
                for points in (2, 9, 513, 1025)]
        assert len({(s.accepted_steps, s.rejected_steps) for s in sols}) == 1
        assert len({s.P0.tobytes() for s in sols}) == 1

    @pytest.mark.parametrize("points", [5, 9, 129, 513])
    def test_smooth_approach_to_floor_is_a_violation(self, points):
        # the effective weight of rneg017 falls to the floor with a growing
        # slope, so every short trial step holds a stage below it: that is
        # a constraint violation, not a step-size underflow
        spec = parse_spec(bundled.example_doc("example504_rneg017"))
        sol = solve_riccati(spec.data, SolverConfig(output_points=points))
        assert sol.status == CONSTRAINT_VIOLATION
        assert abs(sol.t_event - 0.0580431) <= 1e-6 * spec.data.T


def indefinite_problem(rng, n, k, d, points, constant=False):
    """Random coefficient paths with an indefinite R and a positive terminal weight
    (time-invariant when ``constant``)."""
    grid = np.linspace(0.0, 1.0, points)

    def path(rows, cols, scale):
        return scale * rng.standard_normal((rows, cols) if constant else (points, rows, cols))

    U = np.linalg.qr(rng.standard_normal((k, k)))[0]
    lam = rng.uniform(-1.0, 1.0, k)
    lam[0] = -abs(lam[0]) - 0.1
    Mn, Mq = rng.standard_normal((2, n, n))
    return ProblemData(n=n, k=k, d=d, T=1.0, A=path(n, n, 0.5), B=path(n, k, 0.5),
                       C=[path(n, n, 0.3) for _ in range(d)],
                       D=[path(n, k, 1.0) for _ in range(d)],
                       R=symmetrize(U @ np.diag(lam) @ U.T), Q=Mq + Mq.T,
                       N=3.0 * (Mn @ Mn.T + np.eye(n)), grid=grid)


class TestStageWeightNotPositive:
    @hypothesis.settings(max_examples=60)
    @hypothesis.given(seed=seeds, n=st.integers(1, 2), k=st.integers(2, 3),
                      d=st.integers(2, 3), points=st.integers(2, 8), constant=st.booleans())
    def test_indefinite_weights_end_in_a_status(self, seed, n, k, d, points, constant):
        # a stage whose weight is not positive definite has a NaN slope, and so
        # do the stages after it; the rejected-step rule must not read their NaN H,
        # whether lq_block or a frozen piece's map (constant data) forms it
        data = indefinite_problem(np.random.default_rng(seed), n, k, d, points, constant)
        sol = solve_riccati(data, SolverConfig(output_points=9))
        assert sol.status in (COMPLETED, CONSTRAINT_VIOLATION, BLOWUP)

    def test_singular_weight_at_the_terminal_time(self):
        # hat_R = R is singular at t = T: a constraint violation there, with a NaN gain
        grid = np.linspace(0.0, 1.0, 5)
        data = ProblemData(n=1, k=2, d=1, T=1.0, A=0.0, B=[[1.0, 0.5]], C=[0.0],
                           D=[np.zeros((1, 2))], R=[[1.0, 1.0], [1.0, 1.0]], Q=0.0,
                           N=[[1.0]], grid=grid)
        sol = solve_riccati(data)
        assert (sol.status, sol.t_event) == (CONSTRAINT_VIOLATION, 1.0)
        assert sol.margin_min_dense <= DEFAULT_EPS_POS
        assert np.all(np.isnan(sol.gain[-1]))


def test_linalg_solve_call_budget(monkeypatch):
    # the only linear solve is derive_gain_margin's batched one, whatever the step
    # count; the scalar comparison eliminates by schur_complement (the DP ladder's
    # budget is oracle's test_call_budget)
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append(1) or solve(*args))
    data = parse_spec(bundled.example_doc("definite_2x2")).data
    steps = set()
    for rel_tol in (1e-6, 1e-8, 1e-10):
        calls.clear()
        sol = solve_riccati(data, SolverConfig(rel_tol=rel_tol))
        steps.add(sol.accepted_steps)
        assert sol.completed and len(calls) == 1
    assert len(steps) == 3
    calls.clear()
    certify_scalar_comparison(data, 0.5)
    certify_scalar_comparison(scalar_benchmark(-0.15), "optimal-constant")
    assert calls == []
