import os

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from indeflq.core import CoefficientPath, ProblemData, symmetrize

# every property draws the same examples on every run, alone or in the full suite,
# and no example database is written
hypothesis.settings.register_profile("indeflq", derandomize=True, deadline=None, database=None)
hypothesis.settings.load_profile("indeflq")


@pytest.fixture(autouse=True)
def no_child_left():
    # a run shared with a forked child reaps it, whatever happens
    yield
    if hasattr(os, "fork"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def random_definite_problem(rng, n=None, k=None, d=None, T=1.0, points=65):
    """A well-conditioned classical problem: R >> 0, Q >= 0, N >= 0."""
    n = int(n if n is not None else rng.integers(1, 4))
    k = int(k if k is not None else rng.integers(1, 3))
    d = int(d if d is not None else rng.integers(1, 3))
    grid = np.linspace(0.0, T, points)
    A = 0.6 * rng.standard_normal((n, n))
    B = 0.7 * rng.standard_normal((n, k))
    C = [0.3 * rng.standard_normal((n, n)) for _ in range(d)]
    D = [0.3 * rng.standard_normal((n, k)) for _ in range(d)]
    M = rng.standard_normal((k, k))
    R = 0.2 * (M @ M.T) + (0.5 + 0.5 * rng.random()) * np.eye(k)
    Mq = rng.standard_normal((n, n))
    Q = 0.3 * (Mq @ Mq.T)
    Mn = rng.standard_normal((n, n))
    N = 0.3 * (Mn @ Mn.T)
    return ProblemData(n=n, k=k, d=d, T=T, A=A, B=B, C=C, D=D, R=R, Q=Q, N=N, grid=grid)


def random_varying_problem(rng, interpolation, n=None, k=None, d=None):
    """random_definite_problem on 2-9 grid points, each coefficient path scaled by its
    own factor in [0.5, 1.5] at each point: time-varying, R >> 0 and Q >= 0 kept."""
    points = int(rng.integers(2, 10))
    data = random_definite_problem(rng, n=n, k=k, d=d, points=points)

    def vary(path):
        scale = rng.uniform(0.5, 1.5, (points, 1, 1))
        return CoefficientPath(data.grid, path.samples * scale, interpolation)

    return ProblemData(n=data.n, k=data.k, d=data.d, T=data.T, A=vary(data.A), B=vary(data.B),
                       C=[vary(c) for c in data.C], D=[vary(dd) for dd in data.D],
                       R=vary(data.R), Q=vary(data.Q), N=data.N, grid=data.grid)


def scalar_benchmark(r, points=257, T=1.0):
    """A = C = Q = 0, B = D = 1, terminal weight 1: the sharp scalar example."""
    grid = np.linspace(0.0, T, points)
    return ProblemData(
        n=1, k=1, d=1, T=T, A=0.0, B=1.0, C=[0.0], D=[1.0],
        R=float(r), Q=0.0, N=[[1.0]], grid=grid,
    )


def smooth_blowup_doc():
    """A spec whose slope norm reaches ``max_norm`` inside a solver step.

    A = 5, B = C = D = Q = 0, R = N = 1, T = 1: P(t) = exp(10 (1 - t)), and the
    slope norm 10 P reaches the cap 100 at t* = 1 - ln(10)/10.
    """
    return {
        "dimensions": {"n": 1, "k": 1, "d": 1},
        "horizon": 1.0,
        "grid": {"points": 2},
        "coefficients": {"A": 5.0, "B": 0.0, "C": [0.0], "D": [0.0], "R": 1.0, "Q": 0.0},
        "terminal": [[1.0]],
        "solver": {"max_norm": 100.0},
    }


def random_scalar_data(rng, points=33):
    """Random scalar problem with a comfortably positive effective weight."""
    grid = np.linspace(0.0, 1.0, points)
    a, b, c, dd = (float(v) for v in 0.8 * rng.standard_normal(4))
    r = float(0.5 + rng.random())
    q = float(rng.standard_normal())
    nn = float(rng.standard_normal())
    data = ProblemData(
        n=1, k=1, d=1, T=1.0, A=a, B=b, C=[c], D=[dd],
        R=r, Q=q, N=[[nn]], grid=grid,
    )
    return data, (a, b, c, dd, r, q, nn)


def reference_lq_terms(coeffs, P, Lambda=None):
    """(hat, rhs, base) term by term over the channels, from stacked_at's coefficients.

    The effective weight R + sum D'PD (symmetrized), the gain right-hand side
    B'P + sum D'(PC + Lambda) and the drift base A'P + PA + Q + sum (C'PC +
    C'Lambda + Lambda C), each added in the order of the formula.
    """
    A, B, C, D, R, Q = coeffs
    tr = lambda M: M.swapaxes(-1, -2)  # noqa: E731
    hat, rhs, base = R, tr(B) @ P, tr(A) @ P + P @ A + Q
    for i in range(len(C)):
        L = np.zeros_like(P) if Lambda is None else Lambda[i]
        hat = hat + tr(D[i]) @ P @ D[i]
        rhs = rhs + tr(D[i]) @ P @ C[i] + tr(D[i]) @ L
        base = base + tr(C[i]) @ P @ C[i] + (tr(C[i]) @ L + L @ C[i])
    return symmetrize(hat), rhs, base


# the seed of one random problem, and that problem
seeds = st.integers(0, 2 ** 32 - 1)
problems = seeds.map(lambda seed: random_definite_problem(np.random.default_rng(seed)))
