import numpy as np
import pytest
from scipy.optimize import brentq

from indeflq.certificates import (
    _threshold_alpha,
    _witness_and_slope,
    apply_shift,
    certify_definite_regime,
    certify_scalar_comparison,
    check_subsolution,
    constant_threshold_alpha_schedule,
    optimal_constant_alpha,
    shift_solution_back,
)
from indeflq.core import ProblemData, min_eigenvalue
from indeflq.errors import GridMismatch
from indeflq.riccati import COMPLETED, check_solution_residual, solve_riccati
from indeflq.specio import parse_spec
from indeflq import bundled

from conftest import random_definite_problem, scalar_benchmark


class TestThresholdRoot:
    def test_value(self):
        a = optimal_constant_alpha()
        assert abs(a - 0.15859) <= 5e-5
        assert abs((a - np.log(a)) - 2.0) <= 1e-10

    def test_bracketing_guard(self):
        # the defining function straddles 2 between 0.1 and 0.3
        f = lambda a: a - np.log(a)
        assert abs(f(0.1) - 2.4026) < 5e-5 and f(0.1) > 2.0
        assert abs(f(0.3) - 1.5040) < 5e-5 and f(0.3) < 2.0


class TestScalarComparison:
    def test_constant_alpha_closed_form(self):
        # benchmark data: Upsilon = -1/(1-alpha), phi = exp(-(1-t)/(1-alpha))
        data = scalar_benchmark(1.0)
        for alpha in (0.0, 0.3, 0.7):
            cert = certify_scalar_comparison(data, alpha)
            expected = np.exp(-(1.0 - data.grid) / (1.0 - alpha))
            assert np.max(np.abs(cert.phi - expected)) < 1e-12
            assert cert.certified

    def test_alpha_zero_degenerate_exponent(self):
        # A = B = C = 0, Q = 0, N = I: phi is identically one
        grid = np.linspace(0.0, 1.0, 33)
        data = ProblemData(n=2, k=2, d=1, T=1.0,
                           A=np.zeros((2, 2)), B=np.zeros((2, 2)),
                           C=[np.zeros((2, 2))], D=[np.eye(2)],
                           R=np.eye(2), Q=np.zeros((2, 2)), N=np.eye(2), grid=grid)
        cert = certify_scalar_comparison(data, 0.0)
        assert np.max(np.abs(cert.phi - 1.0)) < 1e-12
        assert cert.certified and abs(cert.epsilon - 1.0) < 1e-12
        failing = data.with_weights(R=np.zeros((2, 2)))
        cert2 = certify_scalar_comparison(failing, 0.0)
        assert not cert2.certified

    def test_optimal_schedule_threshold(self):
        a_star = optimal_constant_alpha()
        outcomes = {}
        for r in (-0.15, -0.17, -0.158, -0.159):
            cert = certify_scalar_comparison(scalar_benchmark(r), "optimal-constant")
            outcomes[r] = cert
        assert outcomes[-0.15].certified
        assert not outcomes[-0.17].certified
        # sharpness: the flip brackets the analytic threshold within 1e-3
        assert outcomes[-0.158].certified
        assert not outcomes[-0.159].certified
        assert abs(outcomes[-0.15].threshold + a_star) < 1e-3

    def test_schedule_matches_inverse_map(self):
        times, alpha = constant_threshold_alpha_schedule(n_points=4097)
        # t(alpha) = alpha - ln(alpha) - 1 away from the capped head
        sel = slice(64, None, 64)
        t_back = alpha[sel] - np.log(alpha[sel]) - 1.0
        assert np.max(np.abs(t_back - times[sel])) < 1e-10

    def test_precondition_failure(self):
        data = scalar_benchmark(1.0)
        broken = ProblemData(n=1, k=1, d=1, T=1.0, A=0.0, B=1.0, C=[0.0], D=[0.0],
                             R=1.0, Q=0.0, N=[[1.0]], grid=data.grid)
        cert = certify_scalar_comparison(broken, 0.1)
        assert not cert.certified and cert.epsilon == 0.0
        assert cert.reason.startswith("sum_i D_i'D_i not uniformly positive")
        assert cert.t_worst is None

    def test_nan_alpha_rejected(self):
        data = scalar_benchmark(1.0, points=5)
        values = np.array([0.1, 0.1, np.nan, 0.1, 0.1])
        for alpha in (float("nan"), values):
            with pytest.raises(ValueError, match="alpha values"):
                certify_scalar_comparison(data, alpha)

    def test_alpha_path_times_must_increase(self):
        # a path on its own times, increasing or not, is refused: alpha is a
        # scalar, an array on the problem grid, or the named schedule
        data = scalar_benchmark(1.0)
        bad = [
            (np.array([0.0, 0.7, 0.3, 1.0]), np.array([0.1, 0.9, 0.1, 0.1])),
            (np.array([]), np.array([])),
            (np.array([0.0]), np.array([0.1])),
        ]
        for alpha in bad:
            with pytest.raises(ValueError, match="alpha array must be sampled on the problem grid"):
                certify_scalar_comparison(data, alpha)

    def test_phi_nonpositive(self):
        data = scalar_benchmark(1.0).with_weights(N=np.array([[0.0]]))
        cert = certify_scalar_comparison(data, 0.1)
        assert not cert.certified and cert.epsilon == 0.0
        # phi(T) = lam_min(N) = 0 is the last nonpositive point
        assert cert.reason == "comparison function phi is nonpositive at t=1"
        assert cert.t_worst == 1.0


class TestGradedQuadrature:
    def test_named_schedule_reaches_sharp_threshold(self):
        a_star = optimal_constant_alpha()
        cert = certify_scalar_comparison(scalar_benchmark(-0.15), "optimal-constant")
        # within 1e-8 of the sharp bound, and on its conservative side
        assert 0.0 <= cert.threshold + a_star < 1e-8

    def test_flip_within_1e7_of_sharp_threshold(self):
        a_star = optimal_constant_alpha()
        sched = "optimal-constant"
        assert certify_scalar_comparison(scalar_benchmark(-a_star + 1e-7), sched).certified
        assert not certify_scalar_comparison(scalar_benchmark(-a_star - 1e-7), sched).certified

    def test_threshold_alpha_against_brentq(self):
        t = np.concatenate([np.geomspace(1e-4, 50.0, 200), np.linspace(1e-4, 50.0, 200)])
        ref = np.array([brentq(lambda a, s=s: a - np.log(a) - 1.0 - s, 1e-30, 1.0,
                               xtol=1e-300, rtol=1e-15) for s in t])
        assert np.max(np.abs(_threshold_alpha(t) - ref)) <= 1e-13

    def test_threshold_alpha_residual_near_branch_point(self):
        t = np.geomspace(1e-300, 50.0, 2000)
        a = _threshold_alpha(t)
        assert np.all((a > 0.0) & (a <= 1.0))
        assert np.all(np.abs(a - np.log(a) - 1.0 - t) <= 1e-15 * (1.0 + t))
        assert _threshold_alpha(0.0) == 1.0

    def test_second_order_on_graded_nodes(self):
        # the named schedule takes quadrature_nodes(data) nodes: 2049 on a 513-point
        # grid, 4097 on a 1025-point one; the time-invariant problem is the same
        a_star = optimal_constant_alpha()
        certs = [certify_scalar_comparison(scalar_benchmark(-0.15, points=p), "optimal-constant")
                 for p in (513, 1025)]
        assert [cert.quad_nodes for cert in certs] == [2049, 4097]
        errors = [cert.threshold + a_star for cert in certs]
        assert errors[1] * 3.0 <= errors[0]

    def test_alpha_one_only_at_first_node(self):
        data = scalar_benchmark(1.0, points=5)
        for values in ([0.5, 1.0, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5, 0.5, 1.0]):
            with pytest.raises(ValueError, match=r"alpha values must lie in \[0, 1\)"):
                certify_scalar_comparison(data, np.array(values))
        with pytest.raises(ValueError, match=r"alpha values must lie in \[0, 1\)"):
            certify_scalar_comparison(data, 1.0)
        # the named schedule starts at alpha = 1 on graded nodes
        cert = certify_scalar_comparison(data, "optimal-constant")
        assert cert.certified and np.all(np.isfinite(cert.phi))

    # alpha paths on the problem grid ``times`` that reach 1 at t = 0 off the named
    # schedule: on uniform nodes the integral of Upsilon diverges like log t
    @pytest.mark.parametrize("times, values", [
        # linearly in t
        (np.linspace(0.0, 1.0, 5), [1.0, 0.5, 0.5, 0.5, 0.5]),
        (np.linspace(0.0, 1.0, 2049), 1.0 - np.linspace(0.0, 1.0, 2049)),
        # quadratically in t
        (np.linspace(0.0, 1.0, 2049), 1.0 - np.linspace(0.0, 1.0, 2049) ** 2),
        # the schedule's values: dt/dindex does not vanish at 0
        (np.linspace(0.0, 1.0, 2049), _threshold_alpha(np.linspace(0.0, 1.0, 2049))),
    ])
    def test_alpha_one_refused_off_the_schedule(self, times, values):
        data = scalar_benchmark(1.0, points=times.size)
        with pytest.raises(ValueError, match=r"alpha values must lie in \[0, 1\)"):
            certify_scalar_comparison(data, np.asarray(values, dtype=float))

    def test_alpha_one_refused_on_grid_arrays_and_refined_schedules(self):
        data = scalar_benchmark(-0.15, points=2049)
        grid_alpha = _threshold_alpha(data.grid)
        assert grid_alpha[0] == 1.0
        with pytest.raises(ValueError, match=r"alpha values must lie in \[0, 1\)"):
            certify_scalar_comparison(data, grid_alpha)
        # a (times, values) path is no form a spec can write: the schedule is named
        graded = np.linspace(0.0, 1.0, 2049) ** 2
        with pytest.raises(ValueError, match="alpha array must be sampled on the problem"):
            certify_scalar_comparison(data, (graded, np.full(graded.size, 0.1)))
        with pytest.raises(ValueError, match="unknown alpha schedule 'optimal'"):
            certify_scalar_comparison(data, "optimal")
        with pytest.raises(ValueError, match="needs horizon T = 1"):
            certify_scalar_comparison(scalar_benchmark(-0.15, T=2.0), "optimal-constant")

    def test_schedule_sized_from_a_fine_grid(self):
        a_star = optimal_constant_alpha()
        data = scalar_benchmark(-0.15, points=2049)
        cert = certify_scalar_comparison(data, "optimal-constant")
        assert cert.quad_nodes == 8193
        assert 0.0 <= cert.threshold + a_star < 1e-8

    def test_quadrature_counters(self):
        data = scalar_benchmark(-0.15)
        a_star = optimal_constant_alpha()
        cert = certify_scalar_comparison(data, "optimal-constant")
        assert cert.quad_nodes == 2049
        # the every-second-node difference bounds the error of a second-order rule
        assert cert.threshold + a_star <= cert.quad_error < 1e-8
        # constants and grid arrays take as many uniform nodes: 4 per grid panel,
        # at least 2049
        assert certify_scalar_comparison(data, 0.1).quad_nodes == 2049
        fine = scalar_benchmark(-0.15, points=1001)
        assert certify_scalar_comparison(fine, np.full(1001, 0.1)).quad_nodes == 4001

    def test_counters_on_definite_kinds_only(self):
        grid = np.linspace(0.0, 1.0, 17)
        common = dict(n=2, k=2, d=1, T=1.0, A=np.zeros((2, 2)), B=np.zeros((2, 2)),
                      C=[np.zeros((2, 2))], D=[np.eye(2)], Q=np.zeros((2, 2)),
                      N=np.eye(2), grid=grid)
        terminal = certify_definite_regime(ProblemData(R=np.zeros((2, 2)), **common))
        assert terminal.kind == "definite-terminal-weight"
        assert terminal.quad_nodes == 2049 and terminal.quad_error is not None
        control = certify_definite_regime(ProblemData(R=np.eye(2), **common))
        assert control.kind == "definite-control-weight"
        assert control.quad_nodes is None and control.quad_error is None


class TestSubsolution:
    def test_zero_on_blowup_data(self):
        spec = parse_spec(bundled.example_doc("blowup_ode"))
        cert = check_subsolution(spec.data, eps_pos=spec.solver.eps_pos)
        assert cert.certified and cert.epsilon > 0.0

    def test_zero_on_definite_data(self):
        data = random_definite_problem(np.random.default_rng(5))
        cert = check_subsolution(data)
        r_floor = float(np.min(min_eigenvalue(data.R.samples)))
        assert cert.certified
        assert abs(cert.epsilon - r_floor) <= 1e-6 * (1 + r_floor)

    def test_negative_weight_fails_constraint(self):
        data = scalar_benchmark(-0.1)
        cert = check_subsolution(data)
        assert not cert.certified
        assert "control weight" in cert.reason
        assert cert.t_worst is not None

    def test_terminal_domination(self):
        # static data: the drift residual vanishes for any constant F,
        # leaving only the terminal condition F(T) <= N to violate
        grid = np.linspace(0.0, 1.0, 17)
        data = ProblemData(n=1, k=1, d=1, T=1.0, A=0.0, B=0.0, C=[0.0], D=[0.0],
                           R=1.0, Q=0.0, N=[[1.0]], grid=grid)
        cert = check_subsolution(data, F=np.array([[2.0]]), dF=np.array([[0.0]]))
        assert not cert.certified
        assert "terminal" in cert.reason

    def test_grid_mismatch(self):
        # F sampled on an 11-point grid against the problem's 257 points
        data = scalar_benchmark(1.0)
        with pytest.raises(GridMismatch, match="F: expected a 1x1 matrix or 257 such samples"):
            check_subsolution(data, F=np.zeros((11, 1, 1)), dF=np.zeros((11, 1, 1)))
        with pytest.raises(GridMismatch, match="F: expected a 1x1 matrix"):
            check_subsolution(data, F=np.zeros((2, 2)))

    def test_finite_difference_derivative(self):
        # supplying F without dF works, with inflated tolerance
        data = scalar_benchmark(1.0)
        F = 0.1 * (1.0 + data.grid)[:, None, None]
        cert = check_subsolution(data, F)
        # dF/dt = 0.1 > 0 and f(F) >= 0 here, so certification holds
        assert cert.certified

    def test_slope_without_witness_is_used(self):
        # F absent is the zero path, with the given slope: dF = -100 fails the
        # drift check as it does with F = 0 given
        spec = parse_spec(bundled.example_doc("blowup_ode"))
        dF = np.array([[-100.0]])
        for F in (None, np.array([[0.0]])):
            cert = check_subsolution(spec.data, F=F, dF=dF, eps_pos=spec.solver.eps_pos)
            assert (cert.verdict, cert.reason, cert.t_worst) == (
                "failed", "drift residual dF/dt + f(F, 0) not positive semi-definite", 0.0)

    def test_zero_witness_checked_at_tol(self):
        # F and dF absent: dF is exactly 0, so the drift residual Q is checked
        # at tol, not at the 10x tolerance of a differenced slope
        grid = np.linspace(0.0, 1.0, 5)
        for q, certified in ((-5e-9, False), (-5e-10, True)):
            data = ProblemData(n=1, k=1, d=1, T=1.0, A=0.0, B=1.0, C=[0.0], D=[1.0], R=1.0,
                               Q=q, N=[[1.0]], grid=grid)
            assert check_subsolution(data, tol=1e-9).certified is certified

    def test_zero_drift_residual_is_not_strict(self):
        # f(1, 0) = 2A - B^2/R = 0 exactly, and any reduction of R makes it
        # negative: the bisection must not accept a shift that rounding hides
        data = ProblemData(n=1, k=1, d=1, T=1.0, A=0.5, B=1.0, C=[0.0], D=[0.0], R=1.0,
                           Q=0.0, N=[[1.0]], grid=np.linspace(0.0, 1.0, 5))
        cert = check_subsolution(data, F=np.array([[1.0]]), dF=np.array([[0.0]]), tol=0.0)
        assert (cert.verdict, cert.epsilon) == ("failed", 0.0)
        assert cert.reason == "no positive margin: subsolution is not strict"

    def test_finite_difference_needs_three_points(self):
        data = scalar_benchmark(1.0, points=2)
        with pytest.raises(ValueError, match="dF"):
            check_subsolution(data, F=np.array([[0.0]]))
        assert check_subsolution(data, F=np.array([[0.0]]), dF=np.array([[0.0]])).certified


class TestDefiniteRegime:
    def test_case_i(self):
        grid = np.linspace(0.0, 1.0, 17)
        data = ProblemData(n=2, k=1, d=1, T=1.0, A=np.zeros((2, 2)),
                           B=np.zeros((2, 1)), C=[np.zeros((2, 2))],
                           D=[np.zeros((2, 1))], R=[[1.0]],
                           Q=np.zeros((2, 2)), N=np.zeros((2, 2)), grid=grid)
        cert = certify_definite_regime(data)
        assert cert.certified and cert.kind == "definite-control-weight"

    def test_case_ii(self):
        grid = np.linspace(0.0, 1.0, 17)
        data = ProblemData(n=2, k=2, d=1, T=1.0, A=np.zeros((2, 2)),
                           B=np.zeros((2, 2)), C=[np.zeros((2, 2))],
                           D=[np.eye(2)], R=np.zeros((2, 2)),
                           Q=np.zeros((2, 2)), N=np.eye(2), grid=grid)
        cert = certify_definite_regime(data)
        assert cert.certified and cert.kind == "definite-terminal-weight"
        assert cert.epsilon > 0.0

    @pytest.mark.parametrize("weights, reason", [
        ({"Q": -1.0}, "Q not positive semi-definite (min -1.000e+00); case ii: needs"),
        ({"N": -1.0}, "N not positive semi-definite (min -1.000e+00); case ii: needs"),
        # case ii's preconditions hold (R = -5e-11 is within PSD_SLACK of 0), but
        # alpha phi D'D = 0.01 * 2e-6 * 1e-4 does not lift R above 0
        ({"R": -5e-11, "D": 0.01, "N": 2e-6},
         "case ii: control weight does not clear the admissible lower bound"),
    ], ids=["Q", "N", "case-ii"])
    def test_failure_reason(self, weights, reason):
        w = {"R": 1.0, "Q": 0.0, "N": 1.0, "D": 0.0, **weights}
        data = ProblemData(n=1, k=1, d=1, T=1.0, A=[[0.0]], B=[[0.0]], C=[[[0.0]]],
                           D=[[[w["D"]]]], R=[[w["R"]]], Q=[[w["Q"]]], N=[[w["N"]]],
                           grid=np.linspace(0.0, 1.0, 17))
        cert = certify_definite_regime(data)
        assert not cert.certified and reason in cert.reason

    def test_both_fail(self):
        grid = np.linspace(0.0, 1.0, 17)
        data = ProblemData(n=2, k=2, d=1, T=1.0, A=np.zeros((2, 2)),
                           B=np.zeros((2, 2)), C=[np.zeros((2, 2))],
                           D=[np.zeros((2, 2))], R=np.zeros((2, 2)),
                           Q=np.zeros((2, 2)), N=np.zeros((2, 2)), grid=grid)
        cert = certify_definite_regime(data)
        assert not cert.certified
        assert "case i" in cert.reason and "case ii" in cert.reason


class TestShift:
    def test_zero_shift_is_identity(self):
        data = random_definite_problem(np.random.default_rng(6))
        shifted, residual = apply_shift(data, np.zeros((data.n, data.n)))
        assert residual == 0.0
        assert np.allclose(shifted.R.samples, data.R.samples, atol=1e-15)
        assert np.allclose(shifted.Q.samples, data.Q.samples, atol=1e-15)
        assert np.allclose(shifted.N, data.N, atol=1e-15)

    def test_uncontrolled_formulas(self):
        spec = parse_spec(bundled.example_doc("shift_demo"))
        data = spec.data
        K = np.asarray(spec.certificate["K"], dtype=float)
        shifted, residual = apply_shift(data, K)
        assert residual == 0.0  # B = 0, D = 0
        assert np.allclose(shifted.N, data.N - K[-1], atol=1e-14)
        # spot-check Q_hat at one grid point with plain matrix algebra
        j = 101
        A = data.A.samples[j]
        C = data.C[0].samples[j]
        dK = np.gradient(K, data.grid[1] - data.grid[0], axis=0)[j]
        Qh = data.Q.samples[j] + dK + A.T @ K[j] + K[j] @ A + C.T @ K[j] @ C
        assert np.allclose(shifted.Q.samples[j], Qh, atol=1e-12)

    def test_default_derivative_is_second_order_at_both_ends(self):
        # K = K0 + t^2 K1: second-order differences give dK = 2t K1 up to rounding
        # at every grid point, the ends included, as a candidate's dF does
        spec = parse_spec(bundled.example_doc("shift_demo"))
        data, t = spec.data, spec.data.grid[:, None, None]
        K0, K1 = np.array([[0.5, 0.2], [0.2, -0.3]]), np.array([[1.0, -0.4], [-0.4, 2.0]])
        shifted, _ = apply_shift(data, K0 + t * t * K1)
        exact, _ = apply_shift(data, K0 + t * t * K1, dK=2.0 * t * K1)
        assert np.max(np.abs(shifted.Q.samples - exact.Q.samples)) <= 1e-11
        _, dF, _ = _witness_and_slope(K0 + t * t * K1, None, data.grid, data.n, "F")
        assert np.max(np.abs(dF - 2.0 * t * K1)) <= 1e-11

    def test_controlled_formulas(self):
        # B != 0 and D != 0: R_hat, Q_hat and the compensation residual
        # against plain matrix algebra at every grid point
        data = random_definite_problem(np.random.default_rng(31), n=2, k=2, d=2, points=9)
        Kc = np.random.default_rng(32).standard_normal((data.grid.size, 2, 2))
        K = Kc + np.swapaxes(Kc, -1, -2)
        shifted, residual = apply_shift(data, K)
        dK = np.gradient(K, data.grid[1] - data.grid[0], axis=0, edge_order=2)
        worst = 0.0
        for j in range(data.grid.size):
            A, B, R, Q = (p.samples[j] for p in (data.A, data.B, data.R, data.Q))
            C = [c.samples[j] for c in data.C]
            D = [di.samples[j] for di in data.D]
            Kj = K[j]
            Rh = R + sum(Di.T @ Kj @ Di for Di in D)
            Qh = Q + dK[j] + A.T @ Kj + Kj @ A + sum(Ci.T @ Kj @ Ci for Ci in C)
            defect = Kj @ B + sum(Ci.T @ Kj @ Di for Ci, Di in zip(C, D))
            worst = max(worst, np.linalg.norm(defect))
            assert np.allclose(shifted.R.samples[j], Rh, rtol=0.0, atol=1e-12)
            assert np.allclose(shifted.Q.samples[j], Qh, rtol=0.0, atol=1e-12)
        assert worst > 0.1
        assert abs(residual - worst) <= 1e-12 * worst

    def test_involution(self):
        data = random_definite_problem(np.random.default_rng(7))
        rngK = np.random.default_rng(99)
        Kc = rngK.standard_normal((data.n, data.n))
        K = np.broadcast_to(0.3 * (Kc + Kc.T), (data.grid.size, data.n, data.n)).copy()
        shifted, _ = apply_shift(data, K)
        back, _ = apply_shift(shifted, -K)
        assert np.max(np.abs(back.R.samples - data.R.samples)) <= 1e-12
        assert np.max(np.abs(back.Q.samples - data.Q.samples)) <= 1e-12
        assert np.max(np.abs(back.N - data.N)) <= 1e-12

    def test_round_trip_through_solver(self):
        spec = parse_spec(bundled.example_doc("shift_demo"))
        data = spec.data
        K = np.asarray(spec.certificate["K"], dtype=float)
        shifted, residual = apply_shift(data, K)
        assert residual <= 1e-12
        sol = solve_riccati(shifted, spec.solver)
        assert sol.status == COMPLETED
        composed = shift_solution_back(sol, K, data)
        res = check_solution_residual(composed, data)
        budget = 10 * spec.solver.rel_tol * (1 + np.max(np.abs(composed.P)))
        assert res <= budget

    def test_grid_mismatch(self):
        data = random_definite_problem(np.random.default_rng(8))
        with pytest.raises(GridMismatch):
            apply_shift(data, np.zeros((3, data.n, data.n)))
