"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Expensive shared artifacts (solved benchmark problems) are built in
session fixtures; each criterion times exactly the work it asserts about.
"""

import time

import numpy as np
import pytest
from scipy.optimize import brentq

from indeflq import bundled, simulate
from indeflq.certificates import (
    apply_shift,
    certify_definite_regime,
    certify_scalar_comparison,
    check_subsolution,
    optimal_constant_alpha,
    shift_solution_back,
)
from indeflq.cli import main as cli_main
from indeflq.core import (
    CoefficientPath,
    ProblemData,
    eval_f,
    eval_gamma,
    eval_hat_R,
    lq_block,
    lq_block_map,
    min_eigenvalue,
    symmetrize,
)
from indeflq.oracle import dp_ladder
from indeflq.riccati import (
    BLOWUP,
    COMPLETED,
    check_solution_residual,
    solve_riccati,
)
from indeflq.simulate import (
    ControlPolicy,
    SimConfig,
    completing_square_report,
    fundamental_pair_check,
    hamiltonian_identity_check,
    simulate_cost,
)
from indeflq.specio import load_spec_file, parse_spec

from conftest import random_definite_problem, random_scalar_data, scalar_benchmark


def _report(num, desc, ok, elapsed, budget):
    flag = "PASS" if (ok and elapsed <= budget) else "FAIL"
    print(f"[criterion {num:>2}] {flag}  {elapsed:6.2f}s / {budget:.0f}s  {desc}")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed <= budget, f"criterion {num} exceeded its {budget:.0f}s budget ({elapsed:.2f}s)"


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("acceptance_specs")
    for name in bundled.example_names():
        assert cli_main(["example", name, "--out-dir", str(d), "--quiet"]) == 0
    return d


@pytest.fixture(scope="module")
def definite_spec():
    return parse_spec(bundled.example_doc("definite_2x2"))


@pytest.fixture(scope="module")
def definite_solution(definite_spec):
    return solve_riccati(definite_spec.data, definite_spec.solver)


@pytest.fixture(scope="module")
def solved_corpus(definite_spec, definite_solution):
    """Completed solutions reused by several criteria."""
    corpus = [
        (definite_spec.data, definite_solution),
        (scalar_benchmark(1.0), solve_riccati(scalar_benchmark(1.0))),
        (scalar_benchmark(-0.15), solve_riccati(scalar_benchmark(-0.15))),
    ]
    rng = np.random.default_rng(404)
    for _ in range(5):
        data = random_definite_problem(rng)
        corpus.append((data, solve_riccati(data)))
    shift_spec = parse_spec(bundled.example_doc("shift_demo"))
    corpus.append((shift_spec.data, solve_riccati(shift_spec.data, shift_spec.solver)))
    for _, sol in corpus:
        assert sol.status == COMPLETED
    return corpus


def test_criterion_1_threshold_reproduction(spec_dir):
    t0 = time.perf_counter()
    alpha = optimal_constant_alpha()
    ok = abs(alpha - 0.15859) <= 5e-5

    def chain(name):
        out = str(spec_dir / f"chain_{name}.json")
        code = cli_main(["certify", "--spec", str(spec_dir / name),
                         "--out", out, "--quiet"])
        if code != 0:
            return code
        return cli_main(["solve", "--spec", str(spec_dir / name),
                         "--out", out, "--quiet"])

    ok = ok and chain("example504_rneg015.yaml") == 0
    ok = ok and chain("example504_rneg017.yaml") == 4
    elapsed = time.perf_counter() - t0
    _report(1, "sharp threshold alpha=0.15859 and certify->solve chain", ok, elapsed, 1.0)


def test_criterion_2_blowup_counterexample(spec_dir):
    t0 = time.perf_counter()
    spec = load_spec_file(spec_dir / "blowup_ode.yaml")
    sol = solve_riccati(spec.data, spec.solver)
    ok = sol.status == BLOWUP and 0.9 < sol.t_event < 1.0
    mask = sol.grid >= 1.0
    branch_err = float(np.max(np.abs(sol.P[mask, 0, 0] - 1.0 / (3.0 - sol.grid[mask]))))
    ok = ok and branch_err <= 1e-6
    cert = check_subsolution(spec.data, eps_pos=spec.solver.eps_pos)
    ok = ok and cert.certified and cert.epsilon > 0.0
    elapsed = time.perf_counter() - t0
    _report(
        2,
        f"blow-up at t*={sol.t_event:.4f} with branch error {branch_err:.1e}, "
        "zero subsolution still certified",
        ok, elapsed, 1.0,
    )


def test_criterion_3_scalar_solver_accuracy():
    t0 = time.perf_counter()
    data = scalar_benchmark(1.0)
    sol = solve_riccati(data)
    P_star = brentq(lambda p: np.log(p) - 1.0 / p + 2.0, 0.1, 1.0, xtol=1e-15)
    err = abs(sol.P0[0, 0] - P_star)
    ok = sol.status == COMPLETED and err <= 1e-6
    elapsed = time.perf_counter() - t0
    _report(3, f"|P(0) - implicit-solution root| = {err:.2e}", ok, elapsed, 1.0)


def test_criterion_4_oracle_convergence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    problems = [random_definite_problem(rng) for _ in range(10)]
    problems.append(scalar_benchmark(-0.15))
    ok = True
    worst = (np.inf, -np.inf)
    for data in problems:
        sol = solve_riccati(data)
        ok = ok and sol.status == COMPLETED
        errs = []
        for res in dp_ladder(data, (64, 128, 256, 512)):
            ok = ok and res.constraint_ok
            errs.append(res.error_vs(sol.P0))
        ratios = [errs[i] / errs[i + 1] for i in range(3)]
        worst = (min(worst[0], *ratios), max(worst[1], *ratios))
        ok = ok and all(1.6 <= r <= 2.6 for r in ratios)
    elapsed = time.perf_counter() - t0
    _report(4, f"DP halving ratios within [1.6, 2.6] (seen [{worst[0]:.2f}, {worst[1]:.2f}])",
            ok, elapsed, 30.0)


def test_criterion_5_value_identity(definite_spec, definite_solution):
    t0 = time.perf_counter()
    data, xi = definite_spec.data, definite_spec.xi
    sol = definite_solution
    policy = ControlPolicy.from_solution(sol)
    value = sol.value_at(xi)
    # kappa calibrated at the coarse refinement with a disjoint seed
    cal = simulate_cost(data, policy, xi, SimConfig(100_000, 128, seed=777001))
    kappa = 2.0 * (abs(cal.cost_mean - value) + 3 * cal.cost_stderr) * 128 / data.T
    run = simulate_cost(data, policy, xi, SimConfig(100_000, 512, seed=42424242))
    bias = abs(run.cost_mean - value)
    tol = 3 * run.cost_stderr + kappa * data.T / 512
    ok = bias <= tol
    elapsed = time.perf_counter() - t0
    _report(5, f"|cost - value| = {bias:.2e} <= {tol:.2e} with 1e5 antithetic pairs",
            ok, elapsed, 60.0)


def test_criterion_6_completing_square(definite_spec, definite_solution):
    t0 = time.perf_counter()
    data, xi = definite_spec.data, definite_spec.xi
    sol = definite_solution
    gain = ControlPolicy.from_solution(sol).gain
    v = np.array([0.6, -0.4])
    # kappa from the coarsest refinement at the largest perturbation
    cal = completing_square_report(
        data, sol, ControlPolicy(gain=gain, perturb=v), xi,
        SimConfig(20_000, 128, seed=990011),
    )
    kappa = 2.0 * (cal.cs_residual + 3 * cal.cs_stderr) * 128 / data.T
    ok = True
    costs = []
    stderrs = []
    for delta in (0.1, 0.5, 1.0):
        rep = completing_square_report(
            data, sol, ControlPolicy(gain=gain, perturb=delta * v), xi,
            SimConfig(20_000, 512, seed=550123),
        )
        tol = 3 * rep.cs_stderr + kappa * data.T / 512
        ok = ok and rep.cs_residual <= tol and rep.cs_rhs > 0.0
        costs.append(rep.cost_mean)
        stderrs.append(rep.cost_stderr)
    for i in (0, 1):
        gap = costs[i + 1] - costs[i]
        ok = ok and gap > 3.0 * float(np.hypot(stderrs[i], stderrs[i + 1]))
    elapsed = time.perf_counter() - t0
    _report(6, "completing-square residual within tolerance, cost strictly "
               "increasing in the perturbation", ok, elapsed, 90.0)


def test_criterion_7_fundamental_pair(definite_spec, definite_solution):
    t0 = time.perf_counter()
    grid = np.linspace(0.0, 1.0, 9)
    gbm = ProblemData(n=1, k=1, d=1, T=1.0, A=0.0, B=0.0, C=[1.0], D=[0.0],
                      R=1.0, Q=0.0, N=[[1.0]], grid=grid)
    d64 = fundamental_pair_check(gbm, np.zeros((1, 1)), SimConfig(256, 64, seed=881))
    d256 = fundamental_pair_check(gbm, np.zeros((1, 1)), SimConfig(256, 256, seed=881))
    ok = d64 / d256 >= 1.5
    gain_path = CoefficientPath(definite_solution.grid, definite_solution.gain)
    d2 = fundamental_pair_check(definite_spec.data, gain_path,
                                SimConfig(256, 256, seed=881))
    ok = ok and d2 <= 10.0 * d256
    elapsed = time.perf_counter() - t0
    _report(7, f"strong-order defect ratio {d64 / d256:.2f} >= 1.5; closed-loop "
               f"defect {d2:.3f} <= 10x scalar {d256:.3f}", ok, elapsed, 30.0)


def test_criterion_8_hamiltonian_identity(solved_corpus):
    t0 = time.perf_counter()
    ok = True
    worst_ratio = 0.0
    for data, sol in solved_corpus:
        defect = hamiltonian_identity_check(data, sol)
        scale = 1.0 + float(np.max(np.sqrt(np.sum(sol.P * sol.P, axis=(1, 2)))))
        worst_ratio = max(worst_ratio, defect / (1e-10 * scale))
        ok = ok and defect <= 1e-10 * scale
    elapsed = time.perf_counter() - t0
    _report(8, f"gain stationarity defect at most {worst_ratio:.1e} of the 1e-10 budget",
            ok, elapsed, 1.0)


def test_criterion_9_shift_round_trip():
    t0 = time.perf_counter()
    spec = parse_spec(bundled.example_doc("shift_demo"))
    K = np.asarray(spec.certificate["K"], dtype=float)
    shifted, residual = apply_shift(spec.data, K)
    sol = solve_riccati(shifted, spec.solver)
    ok = residual <= 1e-12 and sol.status == COMPLETED
    composed = shift_solution_back(sol, K, spec.data)
    res = check_solution_residual(composed, spec.data)
    budget = 10 * spec.solver.rel_tol * (1 + float(np.max(np.abs(composed.P))))
    ok = ok and res <= budget
    elapsed = time.perf_counter() - t0
    _report(9, f"shifted solve + add-back residual {res:.2e} <= {budget:.2e}",
            ok, elapsed, 1.0)


def random_matrix_data(rng, psd_Q):
    """n <= 3, k, d <= 2 on a 5-point grid: R = 0.3 MM' + I, N = 0, Q >= 0 or Q = 0."""
    n, k, d = (int(rng.integers(1, top)) for top in (4, 3, 3))
    M, Mq = rng.standard_normal((k, k)), rng.standard_normal((n, n))
    return ProblemData(
        n=n, k=k, d=d, T=1.0, A=rng.standard_normal((n, n)), B=rng.standard_normal((n, k)),
        C=[0.5 * rng.standard_normal((n, n)) for _ in range(d)],
        D=[0.5 * rng.standard_normal((n, k)) for _ in range(d)],
        R=0.3 * (M @ M.T) + np.eye(k), Q=Mq @ Mq.T if psd_Q else np.zeros((n, n)),
        N=np.zeros((n, n)), grid=np.linspace(0.0, 1.0, 5),
    )


def test_criterion_10_property_suites(definite_spec, definite_solution, monkeypatch):
    t0 = time.perf_counter()
    ok = True
    instances = 0
    rng = np.random.default_rng(31337)

    # gain stationarity identity and symmetry closure of the drift, 1000 draws of each
    # family: Lambda != 0 with Q = 0 (half of them scalar data), and Q >= 0, whose drift
    # is taken with Lambda = None and no floor on the weight
    for with_lambda in (True, False):
        for draw in range(1000):
            if with_lambda and rng.random() < 0.5:
                data = random_scalar_data(rng, points=5)[0]
            else:
                data = random_matrix_data(rng, psd_Q=not with_lambda)
            P = symmetrize(rng.standard_normal((data.n, data.n)))
            Lam = np.stack([symmetrize(rng.standard_normal((data.n, data.n)))
                            for _ in range(data.d)])
            t = float(rng.random())
            hat = eval_hat_R(P, data, t)
            if not with_lambda and draw % 5 == 0:
                # on 200 draws: the effective weight is monotone in R
                bump = rng.standard_normal((data.k, data.k))
                data_hi = data.with_weights(R=data.R.samples[0] + bump @ bump.T)
                ok = ok and min_eigenvalue(eval_hat_R(P, data_hi, t) - hat) >= -1e-12
                instances += 1
            if min_eigenvalue(hat) < 1e-3:
                continue
            G = eval_gamma(P, Lam, data, t)
            A, B, C, D, R, Q = data.stacked_at(t)
            rhs = B.T @ P + sum(D[i].T @ (P @ C[i] + Lam[i]) for i in range(data.d))
            ok = ok and np.linalg.norm(hat @ G + rhs) <= 1e-10 * (
                1 + np.linalg.norm(P) + np.linalg.norm(Lam))
            f = eval_f(P, Lam, data, t) if with_lambda else eval_f(P, None, data, t, eps_pos=0.0)
            ok = ok and np.linalg.norm(f - f.T) <= 1e-12 * (1 + np.linalg.norm(f))
            instances += 1

    # scalar consistency of all three evaluators, each within 1e-11 and 1e-12 relative,
    # and the effective weight monotone in R on scalar data
    for _ in range(200):
        data, (a, b, c, dd, r, q, nn) = random_scalar_data(rng, points=5)
        p, lam, t = float(rng.standard_normal()), float(rng.standard_normal()), float(rng.random())
        hat = r + dd * p * dd
        ok = ok and abs(eval_hat_R([[p]], data, t)[0, 0] - hat) < 1e-12
        if hat > 1e-3:
            num = b * p + dd * (p * c + lam)
            f_hand = 2 * a * p + c * c * p + 2 * c * lam + q - num * num / hat
            for got, want in ((eval_gamma([[p]], [[[lam]]], data, t)[0, 0], -num / hat),
                              (eval_f([[p]], [[[lam]]], data, t)[0, 0], f_hand)):
                ok = ok and abs(got - want) < min(1e-11, 1e-12 * (1 + abs(want)))
        data_hi = data.with_weights(R=r + float(rng.standard_normal()) ** 2)
        ok = ok and eval_hat_R([[p]], data_hi, t)[0, 0] - eval_hat_R([[p]], data, t)[0, 0] >= -1e-12
        instances += 2

    # subsolution margin monotone in R
    for _ in range(50):
        data = random_definite_problem(rng, points=17)
        c_lo = check_subsolution(data)
        bump = rng.standard_normal((data.k, data.k))
        c_hi = check_subsolution(data.with_weights(R=data.R.samples[0] + bump @ bump.T))
        ok = ok and c_lo.certified and c_hi.certified
        ok = ok and c_hi.epsilon >= c_lo.epsilon - 1e-9
        instances += 1

    # certified => solvable: a completed solve above the witness at every 32nd stored
    # point, for the definite regime and the scalar example at its constant threshold
    cases = [random_definite_problem(rng, points=33) for _ in range(8)]
    for data in cases + [scalar_benchmark(-0.15)]:
        if data.R.samples[0, 0, 0] < 0:
            cert = certify_scalar_comparison(data, "optimal-constant")
        else:
            cert = certify_definite_regime(data)
        sol = solve_riccati(data)
        ok = ok and cert.certified and cert.epsilon > 0.0 and sol.status == COMPLETED
        F = np.zeros((data.grid.size, data.n, data.n)) if cert.phi is None else (
            cert.phi[:, None, None] * np.eye(data.n))
        witness = CoefficientPath(data.grid, F)
        for j in range(0, sol.grid.size, 32):
            ok = ok and min_eigenvalue(sol.P[j] - witness.at(sol.grid[j])) >= -1e-6
        instances += 1

    # the affine map of H on frozen blocks is lq_block of P's symmetric part, for a
    # non-symmetric P of norm up to the blow-up cap and channels down to 1e-4, n <= 3,
    # k <= 3, d <= 2: each entry within 1e-13 of the size of its terms (lq_block on
    # absolute values), so an R kept at |R| is not rounded at |R| |P|
    for _ in range(300):
        n, k, d = (int(rng.integers(1, top)) for top in (4, 4, 3))
        blocks = (rng.standard_normal((n, n + k)),
                  10.0 ** -rng.uniform(0, 4) * rng.standard_normal((d, n, n + k)),
                  symmetrize(rng.standard_normal((n + k, n + k))))
        P = 10.0 ** rng.uniform(0, 8) * rng.standard_normal((n, n))
        K, z = lq_block_map(blocks)
        H = lq_block(blocks, symmetrize(P)).ravel()
        size = lq_block(tuple(np.abs(b) for b in blocks), symmetrize(np.abs(P))).ravel()
        ok = ok and bool(np.all(np.abs(K @ P.ravel() + z - H) <= 1e-13 * (1 + size)))
        instances += 1

    # bit-reproducibility under thread-count variation, over five blocks of 400 pairs
    monkeypatch.setattr(simulate, "BLOCK_INCREMENTS", 400 * 64)
    policy = ControlPolicy.from_solution(definite_solution)
    cfg = SimConfig(n_paths=2000, n_steps=64, seed=616)
    reps = [
        simulate_cost(definite_spec.data, policy, definite_spec.xi, cfg, n_workers=w)
        for w in (1, 2, 5)
    ]
    ok = ok and reps[0].cost_mean == reps[1].cost_mean == reps[2].cost_mean
    ok = ok and reps[0].cost_stderr == reps[1].cost_stderr == reps[2].cost_stderr
    instances += 3

    elapsed = time.perf_counter() - t0
    _report(10, f"property suites over {instances} randomized instances", ok, elapsed, 120.0)
    assert instances >= 1000
