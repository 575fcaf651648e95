"""Problem data and the Riccati operators of the indefinite LQ theory.

Coefficients are deterministic matrix paths sampled on one uniform grid over
[0, T].  Because the data are deterministic, the martingale part of the
unknown vanishes and every operator below is evaluated with that part set to
zero unless a nonzero family is passed explicitly.

The Riccati generator is the Schur complement of one symmetric block,
H(P) = [[A'P + PA + C'PC + Q, (B'P + D'PC)'], [B'P + D'PC, R + D'PD]] (summed
over the channels); ``lq_block`` is the one implementation of H and
``schur_complement`` the one elimination of its effective weight R + D'PD,
for the solver, the certificates and (as ``schur_steps``) the DP oracle;
``lq_block_map`` builds H's affine map vec H = K vec P + z on frozen data from it.
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
    "lq_block",
    "lq_block_map",
    "lq_terms",
    "schur_complement",
    "schur_steps",
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

# Construction-time symmetry tolerance for weight matrices.
SYMMETRY_TOL = 1e-12

# The largest map K of H or of the DP oracle's step (n^2 (n + k)^2 entries: n = k = 8) the
# solver and the oracle build on frozen data; larger ones cost memory, and both lose to their
# direct products near n = k = 12 (see README): an oracle step (d = 1, 512..8192 ladder) takes
# 20.4 us by map against 24.5 us at n = k = 4, and 50.4 against 57.0 us at n = k = 8.
MAP_MAX_ENTRIES = 16384

# largest coefficient table, rows x entries of A, B, C, D, R and Q at one row (80 MB of
# floats), a row being a grid point, a Monte Carlo or DP step; twice the DP step maps, too
MAX_TABLE_ENTRIES = 10 ** 7


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
    M = np.asarray(M, dtype=float)
    if M.shape[-1] == 1:  # a 1x1 block is symmetric already
        return float(M[..., 0, 0]) if M.ndim == 2 else M[..., 0, 0].copy()
    # eigvalsh reads one triangle, so the other one must agree with it
    M = symmetrize(M)
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
    if isinstance(t, float):  # the same operations on Python floats, in a third of the time
        pos = min(max(t / h, 0.0), m)
        j = min(int(pos), m - 1)
        w = pos - j
        return samples[j] if piecewise_constant else (1.0 - w) * samples[j] + w * samples[j + 1]
    pos = np.minimum(np.maximum(np.asarray(t, dtype=float) / h, 0.0), m)
    j = np.minimum(pos.astype(int), m - 1)
    if piecewise_constant:
        return samples[j]
    # copies (take never returns a view) weighted in place: two temporaries, not three
    lo, hi = np.take(samples, j, axis=0), np.take(samples, j + 1, axis=0)
    w = (pos - j)[..., None, None]
    lo *= 1.0 - w
    hi *= w
    lo += hi
    return lo


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
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must hold at least two times")
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
        # every coefficient in one block table, rows [A B; C_1 D_1; ...; Q 0; 0 R],
        # so one locate-and-lerp serves all of them at once (see blocks_at)
        zero = np.zeros((grid.size, n, k))
        table = np.block([[A.samples, B.samples],
                          *([ci.samples, di.samples] for ci, di in zip(C, D)),
                          [Q.samples, zero], [zero.swapaxes(1, 2), R.samples]])
        table = CoefficientPath(grid, table, interp)
        for name, value in dict(n=n, k=k, d=d, T=T, grid=grid, A=A, B=B, C=C, D=D, R=R, Q=Q,
                                N=symmetrize(N), _table=table).items():
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return self.grid.size - 1

    @property
    def interpolation(self) -> str:
        return self.A.interpolation

    @property
    def time_invariant(self) -> bool:
        """Whether every coefficient path holds one matrix over the whole grid."""
        return bool(np.all(self._table.samples == self._table.samples[0]))

    @property
    def jumps(self) -> np.ndarray:
        """Interior grid indices j where some coefficient's sample j differs from sample j - 1."""
        samples = self._table.samples
        return np.flatnonzero(np.any(samples[1:-1] != samples[:-2], axis=(1, 2))) + 1

    def blocks_at(self, t):
        """Views of the block table at scalar or vector ``t``: ``[A B]``, the
        channels ``V_i = [C_i D_i]`` (indexed first) and ``Z = diag(Q, R)``."""
        n, d = self.n, self.d
        rows = self._table.at(t)
        L = rows.ndim - 2
        V = rows[..., n:(1 + d) * n, :].reshape(*rows.shape[:L], d, n, -1)
        V = V.transpose(L, *range(L), L + 1, L + 2)
        return rows[..., :n, :], V, rows[..., (1 + d) * n:, :]

    def stacked_at(self, t):
        """All coefficients at scalar or vector ``t``: (A, B, C, D, R, Q), views of
        ``blocks_at``'s.  C and D are indexed by noise channel first."""
        (AB, V, Z), n = self.blocks_at(t), self.n
        return AB[..., :n], AB[..., n:], V[..., :n], V[..., n:], Z[..., n:, n:], Z[..., :n, :n]

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


def lq_block(blocks, P, Lambda=None):
    """H = [[base, rhs'], [rhs, hat]] at one time or along a stack of times.

    H = [AB'P, 0] + [AB'P, 0]' + Z + sum_i V_i'P V_i from ``blocks`` =
    ``ProblemData.blocks_at(t)`` and a symmetric ``P``, (n, n) or (t, n, n) to
    match; ``Lambda`` (optional, one such matrix per noise channel) adds
    D_i'Lambda_i to ``rhs`` and C_i'Lambda_i + Lambda_i C_i to ``base``.
    """
    AB, V, Z = blocks
    n = P.shape[-1]
    ABtP = AB.swapaxes(-1, -2) @ P
    H = np.zeros(ABtP.shape[:-1] + (ABtP.shape[-2],))  # (n + k) square
    H[..., :n] = ABtP
    H[..., :n, :] += ABtP.swapaxes(-1, -2)
    H += Z
    for i, Vi in enumerate(V):
        H += Vi.swapaxes(-1, -2) @ P @ Vi
        if Lambda is not None:
            H[..., :n] += Vi.swapaxes(-1, -2) @ Lambda[i]
            H[..., :n, :n] += Lambda[i] @ Vi[..., :n]
    return H


def lq_block_map(blocks):
    """(K, z): ``K @ P.ravel() + z`` is ``lq_block(blocks, symmetrize(P)).ravel()`` to
    rounding, on ``blocks`` = (AB, V, Z) at one time.  z is Z and column a*n + b of K is
    lq_block without Z at E_ab = (e_a e_b' + e_b e_a') / 2, all n^2 of them in one call."""
    (AB, V, Z), n = blocks, blocks[0].shape[0]
    E = symmetrize(np.eye(n * n).reshape(n * n, n, n))  # row a*n + b of I is e_a e_b'
    K = lq_block((AB, V, np.zeros_like(Z)), E).reshape(n * n, -1)
    return np.ascontiguousarray(K.T), Z.ravel()


def lq_terms(blocks, P, Lambda=None):
    """(hat, rhs, base): the lower-right, lower-left and upper-left blocks of
    ``lq_block(blocks, P, Lambda)`` as views.  hat = R + sum D'PD is the effective
    control weight, rhs = B'P + sum D'(PC + Lambda) the gain right-hand side
    (hat Gamma = -rhs), base = A'P + PA + Q + sum (C'PC + C'Lambda + Lambda C)."""
    H, n = lq_block(blocks, P, Lambda), P.shape[-1]
    return H[..., n:, n:], H[..., n:, :n], H[..., :n, :n]


def _views(H, p):
    """What eliminating pivot p of H reads: its row, that row as a column, the pivot, the lead."""
    row = H[..., p:p + 1, :p]
    return row, row.swapaxes(-1, -2), H[..., p:p + 1, p:p + 1], H[..., :p, :p]


def _pivot(row, col, pivot, lead, out=None):
    """lead - col (row / pivot) of ``_views``, into ``out`` where given.  The outer product is a
    multiply, col @ (row / pivot) but for the sign of a zero subtracted from a -0 lead."""
    return np.subtract(lead, col * (row / pivot), out=out)


def schur_complement(H, n):
    """base - rhs' hat^-1 rhs of H = [[base, rhs'], [rhs, hat]] with n state rows
    (batched), by eliminating hat's rows one pivot at a time, the last one first.

    No solve and no symmetrization: each pivot (``_pivot``) is a division, a multiply and a
    subtraction, and it reads H's lower triangle and leading block.  The unpivoted elimination
    is backward stable on a positive definite hat, whose pivots are then all positive, and only
    then (Golub & Van Loan, Matrix Computations, 4.2): one H (2-d) is NaN at the first pivot
    that is not > 0.  A stack is not tested; its callers test hat first.
    """
    for p in range(H.shape[-1] - 1, n - 1, -1):
        if H.ndim == 2 and not H[p, p] > 0.0:
            return np.full((n, n), np.nan)
        H = _pivot(*_views(H, p))
    return H


def schur_steps(Ms, n, out):
    """Yield each Ms[a] of a stack of steps to be filled, then write schur_complement(Ms[a], n)
    into ``out``, bit for bit, untested: per pivot three ufunc calls on views built once."""
    q, dims = range(Ms.shape[-1] - 1, n - 1, -1), Ms.shape[1:-2]
    # each pivot's result: out for the last, else a buffer the next one reads by fixed views
    outs = [np.empty(dims + (p, p)) for p in q[:-1]] + [out]
    later = [(*_views(H, p), dest) for p, H, dest in zip(q[1:], outs, outs[1:])]
    for Ma, row, col, pivot, lead in zip(Ms, *_views(Ms, q[0])):
        yield Ma
        _pivot(row, col, pivot, lead, outs[0])
        for views in later:
            _pivot(*views)


def _checked_block(P, Lambda, data: ProblemData, t, eps_pos):
    """lq_block at time t; ConstraintViolation when hat_R is not above eps_pos."""
    shape = (data.d, data.n, data.n)
    Lambda = None if Lambda is None else np.asarray(Lambda, dtype=float)
    if Lambda is not None and Lambda.shape != shape:
        raise ValueError(f"Lambda must have shape {shape}, got {Lambda.shape}")
    H = lq_block(data.blocks_at(t), symmetrize(P), Lambda)
    lam = min_eigenvalue(H[data.n:, data.n:])
    if lam <= eps_pos:
        raise ConstraintViolation(t, lam)
    return H


def eval_hat_R(P, data: ProblemData, t):
    """Effective control weight R(t) + sum_i D_i(t)' P D_i(t) of the symmetric part of P."""
    return lq_terms(data.blocks_at(t), symmetrize(P))[0]


def eval_gamma(P, Lambda, data: ProblemData, t, eps_pos=DEFAULT_EPS_POS):
    """Optimal feedback gain Gamma(P, Lambda) at time t.

    Solves hat_R(P) Gamma = -(B'P + sum_i D_i'(P C_i + Lambda_i)).  Raises
    ConstraintViolation when the minimal eigenvalue of hat_R(P) is at or below
    the positivity floor.
    """
    H, n = _checked_block(P, Lambda, data, t, eps_pos), data.n
    return -np.linalg.solve(H[n:, n:], H[n:, :n])


def eval_f(P, Lambda, data: ProblemData, t, eps_pos=DEFAULT_EPS_POS):
    """Riccati drift operator f(P, Lambda) at time t (symmetric n x n).

    f = A'P + PA + sum_i (C_i'P C_i + C_i' L_i + L_i C_i) + Q - Gamma' hat_R Gamma,
    the Schur complement of hat_R in H, symmetrized.
    """
    return symmetrize(schur_complement(_checked_block(P, Lambda, data, t, eps_pos), data.n))
