import numpy as np
import pytest

from indeflq.certificates import (
    SubsolutionCandidate,
    apply_shift,
    certify_definite_regime,
    certify_scalar_comparison,
    check_subsolution,
    constant_threshold_alpha_schedule,
    optimal_constant_alpha,
    shift_solution_back,
)
from indeflq.core import CoefficientPath, ProblemData, min_eigenvalue
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
        assert np.max(np.abs(cert.boundary)) == 0.0
        assert cert.certified and abs(cert.epsilon - 1.0) < 1e-12
        failing = data.with_weights(R=np.zeros((2, 2)))
        cert2 = certify_scalar_comparison(failing, 0.0)
        assert not cert2.certified

    def test_optimal_schedule_threshold(self):
        sched = constant_threshold_alpha_schedule()
        a_star = optimal_constant_alpha()
        outcomes = {}
        for r in (-0.15, -0.17, -0.158, -0.159):
            cert = certify_scalar_comparison(scalar_benchmark(r), sched)
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
        data = scalar_benchmark(1.0)
        times = np.linspace(0.0, 1.0, 5)
        values = np.array([0.1, 0.1, np.nan, 0.1, 0.1])
        for alpha in (float("nan"), (times, values)):
            with pytest.raises(ValueError, match="alpha values"):
                certify_scalar_comparison(data, alpha)

    def test_alpha_path_times_must_increase(self):
        data = scalar_benchmark(1.0)
        bad = [
            (np.array([0.0, 0.7, 0.3, 1.0]), np.array([0.1, 0.9, 0.1, 0.1])),
            (np.array([]), np.array([])),
            (np.array([0.0]), np.array([0.1])),
        ]
        for alpha in bad:
            with pytest.raises(ValueError, match="strictly increasing"):
                certify_scalar_comparison(data, alpha)

    def test_phi_nonpositive(self):
        data = scalar_benchmark(1.0).with_weights(N=np.array([[0.0]]))
        cert = certify_scalar_comparison(data, 0.1)
        assert not cert.certified and cert.epsilon == 0.0
        # phi(T) = lam_min(N) = 0 is the last nonpositive point
        assert cert.reason == "comparison function phi is nonpositive at t=1"
        assert cert.t_worst == 1.0


class TestSubsolution:
    def test_zero_on_blowup_data(self):
        spec = parse_spec(bundled.example_doc("blowup_ode"))
        cert = check_subsolution(SubsolutionCandidate.zero(spec.data), spec.data,
                                 eps_pos=spec.solver.eps_pos)
        assert cert.certified and cert.epsilon > 0.0

    def test_zero_on_definite_data(self, rng_session):
        data = random_definite_problem(rng_session)
        cert = check_subsolution(SubsolutionCandidate.zero(data), data)
        r_floor = float(np.min(min_eigenvalue(data.R.samples)))
        assert cert.certified
        assert abs(cert.epsilon - r_floor) <= 1e-6 * (1 + r_floor)

    def test_negative_weight_fails_constraint(self):
        data = scalar_benchmark(-0.1)
        cert = check_subsolution(SubsolutionCandidate.zero(data), data)
        assert not cert.certified
        assert "control weight" in cert.reason
        assert cert.t_worst is not None

    def test_terminal_domination(self):
        # static data: the drift residual vanishes for any constant F,
        # leaving only the terminal condition F(T) <= N to violate
        grid = np.linspace(0.0, 1.0, 17)
        data = ProblemData(n=1, k=1, d=1, T=1.0, A=0.0, B=0.0, C=[0.0], D=[0.0],
                           R=1.0, Q=0.0, N=[[1.0]], grid=grid)
        cand = SubsolutionCandidate(grid=grid, F=np.array([[2.0]]),
                                    dF=np.array([[0.0]]))
        cert = check_subsolution(cand, data)
        assert not cert.certified
        assert "terminal" in cert.reason

    def test_grid_mismatch(self):
        data = scalar_benchmark(1.0)
        other = np.linspace(0.0, 1.0, 11)
        cand = SubsolutionCandidate(grid=other, F=np.zeros((11, 1, 1)),
                                    dF=np.zeros((11, 1, 1)))
        with pytest.raises(GridMismatch):
            check_subsolution(cand, data)

    def test_finite_difference_derivative(self):
        # supplying F without dF works, with inflated tolerance
        data = scalar_benchmark(1.0)
        F = 0.1 * (1.0 + data.grid)[:, None, None]
        cand = SubsolutionCandidate(grid=data.grid, F=F)
        assert cand.derivative_fd
        cert = check_subsolution(cand, data)
        # dF/dt = 0.1 > 0 and f(F) >= 0 here, so certification holds
        assert cert.certified

    def test_finite_difference_needs_three_points(self):
        grid = np.linspace(0.0, 1.0, 2)
        with pytest.raises(ValueError, match="dF"):
            SubsolutionCandidate(grid=grid, F=np.array([[0.5]]))
        cand = SubsolutionCandidate(grid=grid, F=np.array([[0.5]]), dF=np.array([[0.0]]))
        assert not cand.derivative_fd

    def test_monotone_in_R(self, rng_session):
        for _ in range(50):
            data = random_definite_problem(rng_session, points=17)
            cand = SubsolutionCandidate.zero(data)
            c_lo = check_subsolution(cand, data)
            bump = rng_session.standard_normal((data.k, data.k))
            data_hi = data.with_weights(R=data.R.samples[0] + bump @ bump.T)
            c_hi = check_subsolution(cand, data_hi)
            assert c_lo.certified and c_hi.certified
            assert c_hi.epsilon >= c_lo.epsilon - 1e-9


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
    def test_zero_shift_is_identity(self, rng_session):
        data = random_definite_problem(rng_session)
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

    def test_controlled_formulas(self):
        # B != 0 and D != 0: R_hat, Q_hat and the compensation residual
        # against plain matrix algebra at every grid point
        data = random_definite_problem(np.random.default_rng(31), n=2, k=2, d=2, points=9)
        Kc = np.random.default_rng(32).standard_normal((data.grid.size, 2, 2))
        K = Kc + np.swapaxes(Kc, -1, -2)
        shifted, residual = apply_shift(data, K)
        dK = np.gradient(K, data.grid[1] - data.grid[0], axis=0)
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

    def test_involution(self, rng_session):
        data = random_definite_problem(rng_session)
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

    def test_grid_mismatch(self, rng_session):
        data = random_definite_problem(rng_session)
        with pytest.raises(GridMismatch):
            apply_shift(data, np.zeros((3, data.n, data.n)))


class TestSoundnessChain:
    def test_certified_implies_solvable_and_dominating(self, rng_session):
        # any certificate with positive margin must come with a completed
        # solve whose trajectory dominates the witness
        cases = []
        for _ in range(6):
            cases.append(random_definite_problem(rng_session, points=33))
        cases.append(scalar_benchmark(-0.15))
        for data in cases:
            if data.T == 1.0 and data.n == 1 and data.R.samples[0, 0, 0] < 0:
                cert = certify_scalar_comparison(data, constant_threshold_alpha_schedule())
            else:
                cert = certify_definite_regime(data)
            assert cert.certified and cert.epsilon > 0.0
            sol = solve_riccati(data)
            assert sol.status == COMPLETED
            if cert.phi is not None:
                F_path = cert.phi[:, None, None] * np.eye(data.n)
            else:
                F_path = np.zeros((data.grid.size, data.n, data.n))
            FP = CoefficientPath(data.grid, F_path)
            for j in range(0, sol.grid.size, 32):
                gap = sol.P[j] - FP.at(sol.grid[j])
                assert min_eigenvalue(gap) >= -1e-6
