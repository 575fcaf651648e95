"""Problem data and the Riccati operators of the indefinite LQ theory.

Coefficients are deterministic matrix paths sampled on one uniform grid over
[0, T].  Because the data are deterministic, the martingale part of the
unknown vanishes and every operator below is evaluated with that part set to
zero unless a nonzero family is passed explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintViolation, GridMismatch

__all__ = [
    "PIECEWISE_CONSTANT_LEFT",
    "PIECEWISE_LINEAR",
    "DEFAULT_EPS_POS",
    "CoefficientPath",
    "ProblemData",
    "symmetrize",
    "symmetric_part_error",
    "min_eigenvalue",
    "path_samples",
    "lq_terms",
    "riccati_drift",
    "eval_hat_R",
    "eval_gamma",
    "eval_f",
]

PIECEWISE_CONSTANT_LEFT = "piecewise-constant-left"
PIECEWISE_LINEAR = "piecewise-linear"

# Positivity floor applied to the minimal eigenvalue of the effective control
# weight R + sum_i D_i' P D_i.  Turns the strict inequality of the constraint
# into a testable predicate and guards the inverse in the gain formula.
DEFAULT_EPS_POS = 1e-8

# Construction-time symmetry tolerances for weight matrices.
SYMMETRY_TOL = 1e-12
SYMMETRY_HARD_REL = 1e-9


def symmetrize(M):
    """Project onto the symmetric part, (M + M') / 2 (batched over leading axes)."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def symmetric_part_error(M):
    """Frobenius norm of the antisymmetric part (batched: max over leading axes)."""
    M = np.asarray(M, dtype=float)
    skew = M - np.swapaxes(M, -1, -2)
    return float(np.max(np.sqrt(np.sum(skew * skew, axis=(-2, -1)))))


def min_eigenvalue(M):
    """Smallest eigenvalue of a symmetric matrix (a float), or of each in a stack."""
    M = symmetrize(M)
    if M.shape[-1] == 1:
        return float(M[..., 0, 0]) if M.ndim == 2 else M[..., 0, 0]
    return float(np.linalg.eigvalsh(M)[0]) if M.ndim == 2 else np.linalg.eigvalsh(M)[..., 0]


def path_samples(value, points, shape, name):
    """``(points, *shape)`` samples of a path given as one constant or per grid point.

    ``value`` is one ``shape`` matrix held at every grid point, exactly
    ``points`` such matrices, or a 0-d scalar read as a 1x1 matrix (a
    1-vector when ``shape`` is a vector shape).  Any other shape raises
    GridMismatch and non-finite entries raise ValueError, both naming ``name``.
    """
    arr = np.asarray(value, dtype=float)
    given = arr.shape
    if arr.ndim == 0:
        arr = arr.reshape((1,) * len(shape))
    if arr.shape == shape:
        arr = np.broadcast_to(arr, (points, *shape)).copy()
    elif arr.shape != (points, *shape):
        one = f"{shape[0]}-vector" if len(shape) == 1 else f"{shape[0]}x{shape[1]} matrix"
        raise GridMismatch(
            f"{name}: expected a {one} or {points} such samples, got shape {given}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: contains non-finite entries")
    return arr


def _interpolate(samples, h, piecewise_constant, t):
    """Locate scalar or vector ``t`` on a uniform grid of step ``h`` and interpolate.

    ``samples`` holds one matrix per grid point; the result has the shape of
    ``t`` followed by the matrix shape.
    """
    m = samples.shape[0] - 1
    pos = np.minimum(np.maximum(np.asarray(t, dtype=float) / h, 0.0), m)
    j = np.minimum(pos.astype(int), m - 1)
    if piecewise_constant:
        return samples[j]
    w = (pos - j)[..., None, None]
    return (1.0 - w) * samples[j] + w * samples[j + 1]


@dataclass(frozen=True)
class CoefficientPath:
    """A matrix-valued path given by samples on a uniform grid.

    Parameters
    ----------
    grid : array, shape (m+1,)
        Strictly increasing times t_0 = 0 < ... < t_m = T with uniform spacing.
    samples : array, shape (m+1, rows, cols)
        One matrix per grid point.
    interpolation : str
        ``piecewise-constant-left`` (value on [t_j, t_{j+1}) is the sample at
        t_j; at t = T the last piece's value, i.e. the left limit) or
        ``piecewise-linear`` (default).
    """

    grid: np.ndarray
    samples: np.ndarray
    interpolation: str = PIECEWISE_LINEAR

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        samples = np.asarray(self.samples, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must hold at least two times")
        if samples.ndim != 3 or samples.shape[0] != grid.size:
            raise ValueError(
                f"samples shape {samples.shape} does not match grid of {grid.size} points"
            )
        if grid[0] != 0.0:
            raise ValueError("grid must start at 0")
        T = grid[-1]
        if T <= 0.0:
            raise ValueError("horizon must be positive")
        h = T / (grid.size - 1)
        if np.max(np.abs(np.diff(grid) - h)) > 1e-12 * T:
            raise ValueError("grid spacing is not uniform")
        if not np.all(np.isfinite(samples)):
            raise ValueError("path samples contain non-finite entries")
        if self.interpolation not in (PIECEWISE_CONSTANT_LEFT, PIECEWISE_LINEAR):
            raise ValueError(f"unknown interpolation mode {self.interpolation!r}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "samples", samples)

    @property
    def m(self) -> int:
        return self.grid.size - 1

    @property
    def T(self) -> float:
        return float(self.grid[-1])

    @property
    def shape(self):
        return self.samples.shape[1:]

    def at(self, t):
        """Evaluate at scalar or vector ``t`` in [0, T]."""
        return _interpolate(
            self.samples, self.T / self.m, self.interpolation == PIECEWISE_CONSTANT_LEFT, t
        )


def _as_path(value, grid, shape, name, interpolation):
    """A CoefficientPath on the problem grid: ``value`` itself, or path_samples of it."""
    if not isinstance(value, CoefficientPath):
        return CoefficientPath(grid, path_samples(value, grid.size, shape, name), interpolation)
    if value.shape != shape:
        raise GridMismatch(f"{name}: expected a path of shape {shape}, got shape {value.shape}")
    if not np.array_equal(value.grid, grid):
        raise GridMismatch(f"{name}: path grid differs from the problem grid")
    return value


@dataclass(frozen=True)
class ProblemData:
    """Coefficient tuple (A, B, C_1..C_d, D_1..D_d; R, Q, N) with horizon T.

    ``R`` and ``Q`` may be indefinite; ``N`` is the terminal weight, one n x n
    matrix.  All paths share one uniform grid: each coefficient is a
    CoefficientPath on ``grid`` or a value ``path_samples`` reads (one constant
    matrix or one sample per grid point).
    """

    n: int
    k: int
    d: int
    T: float
    A: CoefficientPath
    B: CoefficientPath
    C: tuple
    D: tuple
    R: CoefficientPath
    Q: CoefficientPath
    N: np.ndarray
    grid: np.ndarray = field(repr=False)

    def __post_init__(self):
        n, k, d = int(self.n), int(self.k), int(self.d)
        if min(n, k, d) < 1:
            raise ValueError("dimensions n, k, d must be positive")
        T = float(self.T)
        if T <= 0.0:
            raise ValueError("horizon T must be positive")
        grid = np.asarray(self.grid, dtype=float)
        if abs(grid[-1] - T) > 1e-12 * max(T, 1.0):
            raise ValueError("grid must end at the horizon T")
        given = [self.A, self.B, self.R, self.Q, *self.C, *self.D]
        modes = {p.interpolation for p in given if isinstance(p, CoefficientPath)}
        if len(modes) > 1:
            raise ValueError(f"coefficient paths mix interpolation modes: {sorted(modes)}")
        interp = modes.pop() if modes else PIECEWISE_LINEAR
        A = _as_path(self.A, grid, (n, n), "A", interp)
        B = _as_path(self.B, grid, (n, k), "B", interp)
        C = tuple(_as_path(ci, grid, (n, n), f"C[{i}]", interp) for i, ci in enumerate(self.C))
        D = tuple(_as_path(di, grid, (n, k), f"D[{i}]", interp) for i, di in enumerate(self.D))
        if len(C) != d or len(D) != d:
            raise ValueError(f"C and D must each have d = {d} entries")
        R = _as_path(self.R, grid, (k, k), "R", interp)
        Q = _as_path(self.Q, grid, (n, n), "Q", interp)
        N = np.asarray(self.N, dtype=float)
        if N.ndim == 0:
            N = N.reshape(1, 1)
        if N.shape != (n, n):
            raise GridMismatch(f"N: expected a {n}x{n} matrix, got shape {N.shape}")
        if not np.all(np.isfinite(N)):
            raise ValueError("N: contains non-finite entries")
        for name, path in (("R", R), ("Q", Q)):
            err = symmetric_part_error(path.samples)
            if err > SYMMETRY_TOL * max(1.0, float(np.max(np.abs(path.samples)))):
                raise ValueError(f"{name} samples are not symmetric (defect {err:.3e})")
        if symmetric_part_error(N) > SYMMETRY_TOL * max(1.0, float(np.max(np.abs(N)))):
            raise ValueError("terminal weight N is not symmetric")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "N", symmetrize(N))
        # every coefficient flattened side by side, so one locate-and-lerp
        # serves all of them at once; _layout maps table columns back
        paths = (A, B, *C, *D, R, Q)
        table = np.concatenate([p.samples.reshape(grid.size, 1, -1) for p in paths], axis=2)
        object.__setattr__(self, "_table", CoefficientPath(grid, table, interp))
        layout = []
        start = 0
        for shape in ((n, n), (n, k), (d, n, n), (d, n, k), (k, k), (n, n)):
            stop = start + int(np.prod(shape))
            layout.append((start, stop, shape))
            start = stop
        object.__setattr__(self, "_layout", tuple(layout))

    @property
    def m(self) -> int:
        return self.grid.size - 1

    @property
    def interpolation(self) -> str:
        return self.A.interpolation

    @property
    def time_invariant(self) -> bool:
        """Whether every coefficient path holds one matrix over the whole grid."""
        table = self._table.samples
        return bool(np.all(table == table[0]))

    def stacked_at(self, t):
        """All coefficients at scalar or vector ``t``: (A, B, C, D, R, Q).

        C and D are indexed by noise channel first: shape (d,) + t.shape +
        the matrix shape.
        """
        flat = self._table.at(t)[..., 0, :]
        lead = flat.shape[:-1]
        A, B, C, D, R, Q = (
            flat[..., start:stop].reshape(lead + shape) for start, stop, shape in self._layout
        )
        L = len(lead)
        channel_first = (L, *range(L), L + 1, L + 2)
        return A, B, C.transpose(channel_first), D.transpose(channel_first), R, Q

    def with_weights(self, R=None, Q=None, N=None):
        """Copy of the data with some weights replaced (paths or constants)."""
        return ProblemData(
            n=self.n, k=self.k, d=self.d, T=self.T,
            A=self.A, B=self.B, C=self.C, D=self.D,
            R=self.R if R is None else R,
            Q=self.Q if Q is None else Q,
            N=self.N if N is None else N,
            grid=self.grid,
        )


def lq_terms(coeffs, P, Lambda=None):
    """The three Riccati objects at one time or along a stack of times.

    ``coeffs`` is ``(A, B, C, D, R, Q)`` as returned by
    ``ProblemData.stacked_at``; ``P`` is (n, n) or (t, n, n) to match, and
    ``Lambda`` (optional) holds one such matrix per noise channel.  Returns

    - ``hat``  = R + sum_i D_i' P D_i, symmetrized (the effective control weight);
    - ``rhs``  = B'P + sum_i D_i'(P C_i + Lambda_i) (the gain right-hand side,
      hat Gamma = -rhs);
    - ``base`` = A'P + PA + Q + sum_i (C_i'P C_i + C_i'Lambda_i + Lambda_i C_i)
      (the drift without the quadratic term, not symmetrized).
    """
    A, B, C, D, R, Q = coeffs
    hat = np.array(R)
    rhs = B.swapaxes(-1, -2) @ P
    M = A.swapaxes(-1, -2) @ P
    base = M + M.swapaxes(-1, -2) + Q
    for i, (Ci, Di) in enumerate(zip(C, D)):
        DtP = Di.swapaxes(-1, -2) @ P
        hat += DtP @ Di
        rhs += DtP @ Ci
        Ct = Ci.swapaxes(-1, -2)
        base += (Ct @ P) @ Ci
        if Lambda is not None:
            rhs += Di.swapaxes(-1, -2) @ Lambda[i]
            base += Ct @ Lambda[i] + Lambda[i] @ Ci
    return 0.5 * (hat + hat.swapaxes(-1, -2)), rhs, base


def riccati_drift(hat, rhs, base):
    """The drift f = base - rhs' hat^{-1} rhs from lq_terms, symmetrized (batched).

    Equals base - Gamma' hat_R Gamma because hat_R Gamma = -rhs.  Symmetrized
    inline rather than through ``symmetrize``: the solver calls this at every stage.
    """
    f = base - rhs.swapaxes(-1, -2) @ np.linalg.solve(hat, rhs)
    return 0.5 * (f + f.swapaxes(-1, -2))


def _checked_terms(P, Lambda, data: ProblemData, t, eps_pos):
    """lq_terms at time t; ConstraintViolation when hat_R is not above eps_pos."""
    if Lambda is not None:
        Lambda = np.asarray(Lambda, dtype=float)
        if Lambda.shape != (data.d, data.n, data.n):
            raise ValueError(
                f"Lambda must have shape ({data.d}, {data.n}, {data.n}), got {Lambda.shape}"
            )
    hat, rhs, base = lq_terms(data.stacked_at(t), symmetrize(P), Lambda)
    lam = min_eigenvalue(hat)
    if lam <= eps_pos:
        raise ConstraintViolation(t, lam)
    return hat, rhs, base


def eval_hat_R(P, data: ProblemData, t):
    """Effective control weight R(t) + sum_i D_i(t)' P D_i(t), symmetrized."""
    return lq_terms(data.stacked_at(t), np.asarray(P, dtype=float))[0]


def eval_gamma(P, Lambda, data: ProblemData, t, eps_pos=DEFAULT_EPS_POS):
    """Optimal feedback gain Gamma(P, Lambda) at time t.

    Solves hat_R(P) Gamma = -(B'P + sum_i D_i'(P C_i + Lambda_i)).  Raises
    ConstraintViolation when the minimal eigenvalue of hat_R(P) is at or below
    the positivity floor.
    """
    hat, rhs, _ = _checked_terms(P, Lambda, data, t, eps_pos)
    return -np.linalg.solve(hat, rhs)


def eval_f(P, Lambda, data: ProblemData, t, eps_pos=DEFAULT_EPS_POS):
    """Riccati drift operator f(P, Lambda) at time t (symmetric n x n).

    f = A'P + PA + sum_i (C_i'P C_i + C_i' L_i + L_i C_i) + Q - Gamma' hat_R Gamma.
    """
    return riccati_drift(*_checked_terms(P, Lambda, data, t, eps_pos))
