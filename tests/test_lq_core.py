import re
import warnings

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from indeflq.core import (
    CoefficientPath,
    ProblemData,
    eval_f,
    eval_gamma,
    eval_hat_R,
    lq_terms,
    min_eigenvalue,
    schur_complement,
    schur_steps,
    symmetrize,
)
from indeflq.certificates import apply_shift, check_subsolution
from indeflq.errors import ConstraintViolation, GridMismatch
from indeflq.simulate import ControlPolicy, SimConfig, simulate_cost

from conftest import reference_lq_terms


def make_data(**kw):
    grid = np.linspace(0.0, 1.0, 17)
    base = dict(n=1, k=1, d=1, T=1.0, A=0.0, B=1.0, C=[0.0], D=[1.0],
                R=1.0, Q=0.0, N=[[1.0]], grid=grid)
    base.update(kw)
    return ProblemData(**base)


class TestHatR:
    def test_zero_P_returns_R(self):
        rng = np.random.default_rng(3)
        grid = np.linspace(0.0, 1.0, 9)
        R = symmetrize(rng.standard_normal((2, 2)))
        data = ProblemData(n=2, k=2, d=2, T=1.0,
                           A=np.zeros((2, 2)), B=np.zeros((2, 2)),
                           C=[rng.standard_normal((2, 2)) for _ in range(2)],
                           D=[rng.standard_normal((2, 2)) for _ in range(2)],
                           R=R, Q=np.zeros((2, 2)), N=np.zeros((2, 2)), grid=grid)
        out = eval_hat_R(np.zeros((2, 2)), data, 0.3)
        assert np.allclose(out, R, atol=1e-14)

    def test_scalar_shift(self):
        # D = 1 makes the effective weight r + p
        data = make_data(R=0.7)
        out = eval_hat_R(np.array([[0.25]]), data, 0.5)
        assert abs(out[0, 0] - 0.95) < 1e-14

    def test_two_noises(self):
        data = make_data(d=2, C=[0.0, 0.0], D=[1.0, 1.0], R=1.0)
        out = eval_hat_R(np.array([[2.0]]), data, 0.0)
        assert abs(out[0, 0] - 5.0) < 1e-14


class TestGamma:
    def test_vanishing_numerator(self):
        grid = np.linspace(0.0, 1.0, 9)
        data = ProblemData(n=2, k=1, d=1, T=1.0,
                           A=np.eye(2) * 0.1, B=np.zeros((2, 1)),
                           C=[np.zeros((2, 2))], D=[np.zeros((2, 1))],
                           R=[[2.0]], Q=np.zeros((2, 2)), N=np.zeros((2, 2)), grid=grid)
        G = eval_gamma(np.eye(2) * 0.4, None, data, 0.2)
        assert np.max(np.abs(G)) == 0.0

    def test_scalar_formula(self):
        # A=0, B=0, C=1, D=1: Gamma = -(p + lam)/(r + p)
        data = make_data(A=0.0, B=0.0, C=[1.0], D=[1.0], R=0.8)
        p, lam = 0.6, -0.2
        G = eval_gamma(np.array([[p]]), np.array([[[lam]]]), data, 0.4)
        assert abs(G[0, 0] - (-(p + lam) / (0.8 + p))) < 1e-14

    def test_constraint_violation(self):
        data = make_data(R=-0.5)
        with pytest.raises(ConstraintViolation):
            eval_gamma(np.array([[0.2]]), None, data, 0.1)


class TestF:
    def test_decoupled_reduces_to_Q(self):
        rng = np.random.default_rng(11)
        grid = np.linspace(0.0, 1.0, 9)
        Q = symmetrize(rng.standard_normal((3, 3)))
        data = ProblemData(n=3, k=2, d=1, T=1.0,
                           A=np.zeros((3, 3)), B=np.zeros((3, 2)),
                           C=[np.zeros((3, 3))], D=[np.zeros((3, 2))],
                           R=np.eye(2), Q=Q, N=np.zeros((3, 3)), grid=grid)
        P = symmetrize(rng.standard_normal((3, 3)))
        assert np.allclose(eval_f(P, None, data, 0.7), Q, atol=1e-14)

    def test_scalar_quadratic_drift(self):
        # A=C=Q=0, B=D=1: f = -(p + lam)^2 / (r + p)
        data = make_data(R=0.9)
        p, lam = 0.5, 0.3
        out = eval_f(np.array([[p]]), np.array([[[lam]]]), data, 0.2)
        assert abs(out[0, 0] + (p + lam) ** 2 / (0.9 + p)) < 1e-14

    def test_scalar_linear_drift(self):
        # B = D = C = 0, A = a: f = 2 a p + q
        a, q, p = 0.7, -0.4, 1.3
        data = make_data(A=a, B=0.0, C=[0.0], D=[0.0], R=1.0, Q=q)
        out = eval_f(np.array([[p]]), None, data, 0.6)
        assert abs(out[0, 0] - (2 * a * p + q)) < 1e-13


class TestMinEigenvalue:
    def test_identity(self):
        assert abs(min_eigenvalue(np.eye(2)) - 1.0) < 1e-15

    def test_diagonal(self):
        assert abs(min_eigenvalue(np.diag([3.0, -2.0])) + 2.0) < 1e-15

    def test_two_by_two_closed_form(self):
        # eigenvalues of [[2,1],[1,2]] are 1 and 3
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        a, b, c = M[0, 0], M[0, 1], M[1, 1]
        lam = 0.5 * (a + c - np.sqrt((a - c) ** 2 + 4 * b * b))
        assert abs(lam - 1.0) < 1e-15
        assert abs(min_eigenvalue(M) - lam) < 1e-12

    def test_accuracy_contract(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            M = symmetrize(rng.standard_normal((4, 4)))
            lam = min_eigenvalue(M)
            norm = np.linalg.norm(M)
            shifted = M - lam * np.eye(4)
            assert min_eigenvalue(shifted) >= -1e-10 * norm


class TestCoefficientPath:
    def test_piecewise_linear_is_continuous(self):
        grid = np.linspace(0.0, 1.0, 5)
        samples = np.arange(5.0)[:, None, None]
        path = CoefficientPath(grid, samples)
        ts = np.linspace(0.0, 1.0, 101)
        vals = path.at(ts)[:, 0, 0]
        assert np.allclose(vals, 4.0 * ts, atol=1e-14)

    def test_piecewise_constant_left(self):
        grid = np.linspace(0.0, 1.0, 5)
        samples = np.arange(5.0)[:, None, None]
        path = CoefficientPath(grid, samples, "piecewise-constant-left")
        assert path.at(0.26)[0, 0] == 1.0
        assert path.at(0.0)[0, 0] == 0.0
        assert path.at(0.999)[0, 0] == 3.0

    def test_nonuniform_grid_rejected(self):
        grid = np.array([0.0, 0.3, 1.0])
        with pytest.raises(ValueError):
            CoefficientPath(grid, np.zeros((3, 1, 1)))

    def test_nonfinite_rejected(self):
        grid = np.linspace(0.0, 1.0, 3)
        bad = np.zeros((3, 1, 1))
        bad[1] = np.inf
        with pytest.raises(ValueError):
            CoefficientPath(grid, bad)


class TestProblemData:
    def test_asymmetric_weight_rejected(self):
        with pytest.raises(ValueError):
            make_data(Q=np.array([[0.0, 1.0], [0.0, 0.0]]), n=2,
                      A=np.zeros((2, 2)), B=np.zeros((2, 1)),
                      C=[np.zeros((2, 2))], D=[np.zeros((2, 1))],
                      N=np.zeros((2, 2)))

    def test_terminal_weight_stack_rejected(self):
        with pytest.raises(GridMismatch, match=r"N: expected a 1x1 matrix"):
            make_data(N=np.ones((3, 1, 1)))

    def test_grid_must_cover_horizon(self):
        with pytest.raises(ValueError):
            ProblemData(n=1, k=1, d=1, T=2.0, A=0.0, B=1.0, C=[0.0], D=[1.0],
                        R=1.0, Q=0.0, N=[[1.0]], grid=np.linspace(0, 1, 5))


def _wrong_shape_at(entry):
    """Call one entry point with a 3-sample path on a 17-point problem grid."""
    data = make_data()
    wrong = np.zeros((3, 1, 1))
    if entry == "C[0]":
        make_data(C=[wrong])
    elif entry == "gain":
        simulate_cost(data, ControlPolicy(gain=wrong), [1.0], SimConfig(2, 4))
    elif entry == "gain path":
        gain = CoefficientPath(data.grid, np.zeros((17, 2, 1)))
        simulate_cost(data, ControlPolicy(gain=gain), [1.0], SimConfig(2, 4))
    elif entry == "perturbation":
        simulate_cost(data, ControlPolicy(perturb=wrong[:, :, 0]), [1.0], SimConfig(2, 4))
    elif entry == "K":
        apply_shift(data, wrong)
    else:
        check_subsolution(data, F=np.zeros((17, 1, 1)), dF=wrong)


@pytest.mark.parametrize("entry", ["C[0]", "gain", "gain path", "perturbation", "K", "dF"])
def test_wrong_shape_names_the_input(entry):
    # every constant-or-sampled input is read by one rule, with one message;
    # a CoefficientPath is read on its own grid and only its shape is checked
    if entry == "gain path":
        message = "gain: expected a path of shape (1, 1), got shape (2, 1)"
    elif entry == "perturbation":
        message = "perturbation: expected a 1-vector or 17 such samples, got shape (3, 1)"
    else:
        message = f"{entry}: expected a 1x1 matrix or 17 such samples, got shape (3, 1, 1)"
    with pytest.raises(GridMismatch, match=f"^{re.escape(message)}$"):
        _wrong_shape_at(entry)


class TestStackedAt:
    @pytest.mark.parametrize("mode", ["piecewise-linear", "piecewise-constant-left"])
    def test_scalar_matches_vector_bitwise(self, mode):
        # one locate-and-lerp serves scalar and vector times alike, and each
        # coefficient comes out as its own path would interpolate it
        rng = np.random.default_rng(23)
        grid = np.linspace(0.0, 1.5, 7)
        n, k, d = 2, 1, 2

        def path(rows, cols, sym=False):
            S = rng.standard_normal((grid.size, rows, cols))
            if sym:
                S = S + np.swapaxes(S, -1, -2)
            return CoefficientPath(grid, S, mode)

        data = ProblemData(n=n, k=k, d=d, T=1.5, A=path(n, n), B=path(n, k),
                           C=[path(n, n) for _ in range(d)], D=[path(n, k) for _ in range(d)],
                           R=path(k, k, True), Q=path(n, n, True), N=np.eye(n), grid=grid)
        # 0, T, every breakpoint and every midpoint
        times = np.concatenate([grid, 0.5 * (grid[1:] + grid[:-1])])
        stacked = data.stacked_at(times)
        for i, t in enumerate(times):
            pointwise = data.stacked_at(t)
            per_path = (data.A.at(t), data.B.at(t), np.stack([c.at(t) for c in data.C]),
                        np.stack([di.at(t) for di in data.D]), data.R.at(t), data.Q.at(t))
            for name, vec, pt, own in zip("ABCDRQ", stacked, pointwise, per_path):
                row = vec[:, i] if name in "CD" else vec[i]
                assert np.array_equal(row, pt), (name, t)
                assert np.array_equal(pt, own), (name, t)


class TestBlockKernel:
    def test_matches_term_by_term_reference(self):
        # random sizes, one time and a stack of times, with no Lambda and with a
        # non-symmetric one: the three blocks of H are the term-by-term objects
        rng = np.random.default_rng(31)
        grid = np.linspace(0.0, 1.0, 5)

        def path(rows, cols, sym=False):
            S = rng.standard_normal((grid.size, rows, cols))
            return S + np.swapaxes(S, -1, -2) if sym else S

        for _ in range(40):
            n, k, d = (int(v) for v in rng.integers(1, 4, size=3))
            data = ProblemData(n=n, k=k, d=d, T=1.0, A=path(n, n), B=path(n, k),
                               C=[path(n, n) for _ in range(d)],
                               D=[path(n, k) for _ in range(d)],
                               R=path(k, k, True), Q=path(n, n, True), N=np.eye(n), grid=grid)
            for t in (float(rng.random()), rng.random(4)):
                lead = np.shape(t)
                P = symmetrize(3.0 * rng.standard_normal(lead + (n, n)))
                for Lam in (None, rng.standard_normal((d, *lead, n, n))):
                    got = lq_terms(data.blocks_at(t), P, Lam)
                    want = reference_lq_terms(data.stacked_at(t), P, Lam)
                    scale = 1.0 + np.linalg.norm(P) + (0.0 if Lam is None else np.linalg.norm(Lam))
                    for name, g, w in zip(("hat", "rhs", "base"), got, want):
                        assert g.shape == w.shape, name
                        assert np.max(np.abs(g - w)) <= 1e-13 * scale, (name, n, k, d)


class TestSchurComplement:
    @staticmethod
    def random_block(rng, lead, n, k):
        """A symmetric (n + k)-square H, stacked over ``lead``, whose hat is positive definite."""
        H = rng.standard_normal(lead + (n + k, n + k))
        H = H + H.swapaxes(-1, -2)
        M = rng.standard_normal(lead + (k, k))
        H[..., n:, n:] = M @ M.swapaxes(-1, -2) + 0.5 * np.eye(k)
        return H

    def test_matches_solve_reference(self):
        rng = np.random.default_rng(41)
        for n in (1, 2, 3):
            for k in (1, 2, 3):
                for lead in ((), (7,), (3, 4)):
                    H = self.random_block(rng, lead, n, k)
                    hat, rhs = H[..., n:, n:], H[..., n:, :n]
                    want = H[..., :n, :n] - rhs.swapaxes(-1, -2) @ np.linalg.solve(hat, rhs)
                    got = schur_complement(H, n)
                    assert got.shape == want.shape
                    scale = np.max(np.abs(want), axis=(-2, -1))
                    err = np.max(np.abs(got - want), axis=(-2, -1))
                    assert np.all(err <= 1e-12 * scale), (n, k, lead)

    def test_k1_is_the_division_bitwise(self):
        rng = np.random.default_rng(43)
        for n in (1, 2, 3):
            for lead in ((), (9,)):
                H = self.random_block(rng, lead, n, 1)
                hat, rhs = H[..., n:, n:], H[..., n:, :n]
                want = H[..., :n, :n] - rhs.swapaxes(-1, -2) @ (rhs / hat)
                assert np.array_equal(schur_complement(H, n), want)

    @pytest.mark.parametrize("hat", [[[1.0, 1.0], [1.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]],
                                     [[0.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]]])
    def test_one_block_with_a_hat_not_positive_definite_is_nan(self, hat):
        # singular, or indefinite with a positive diagonal: NaN without a warning
        H = np.zeros((4, 4))
        H[:2, :2] = [[2.0, 0.5], [0.5, 1.0]]
        H[2:, :2] = [[0.3, -0.2], [0.1, 0.4]]
        H[:2, 2:] = H[2:, :2].T
        H[2:, 2:] = hat
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = schur_complement(H, 2)
        assert got.shape == (2, 2) and np.all(np.isnan(got))

    @hypothesis.settings(max_examples=60)
    @hypothesis.given(n=st.integers(1, 3), k=st.integers(1, 3), counts=st.integers(1, 5),
                      steps=st.integers(1, 4), strided=st.booleans(),
                      seed=st.integers(0, 2 ** 32 - 1))
    def test_span_form_is_schur_complement_bitwise(self, n, k, counts, steps, strided, seed):
        # each step's out against schur_complement of its stack and against the elimination
        # by matmul, bit for bit, through zero and negative pivots and infinite entries into
        # inf and NaN; out strided like the oracle's P, a view of [vec P; 1]
        rng = np.random.default_rng(seed)
        m = n + k
        filled = rng.standard_normal((steps, counts, m, m))
        special = rng.choice([0.0, -0.0, -1.0, np.inf, -np.inf], size=filled.shape)
        hit = rng.random(filled.shape) < 0.2
        filled[hit] = special[hit]
        Ms = np.full_like(filled, np.nan)
        out = np.empty((counts, n * n + strided))[:, :n * n].reshape(counts, n, n)
        got = []
        with np.errstate(all="ignore"):
            for a, Ma in enumerate(schur_steps(Ms, n, out)):
                Ma[...] = filled[a]
                if a:
                    got.append(out.copy())
            got.append(out.copy())
            assert len(got) == steps
            for H, P in zip(filled, got):
                assert np.array_equal(P.view(np.uint64), schur_complement(H, n).view(np.uint64))
            # matmul's outer product sums from +0, so -0 - 0 can differ in the sign of
            # the zero; on entries without -0 (a sum's, as in the oracle's M) the bits agree
            H = filled + 0.0
            want = schur_complement(H, n)
            for p in range(m - 1, n - 1, -1):
                row = H[..., p:p + 1, :p]
                H = H[..., :p, :p] - row.swapaxes(-1, -2) @ (row / H[..., p:p + 1, p:p + 1])
            assert np.array_equal(want.view(np.uint64), H.view(np.uint64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            H = filled[0, 0].copy()
            H[m - 1, m - 1] = rng.choice([0.0, -0.0, -1.0, -np.inf])
            assert np.all(np.isnan(schur_complement(H, n)))
