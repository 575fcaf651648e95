"""Solvability certificates for the indefinite Riccati problem.

A certificate is a checkable witness that the backward Riccati flow admits a
bounded solution: either a concrete subsolution (drift residual positive
semi-definite, effective control weight positive, terminal value dominated by
N), the scalar comparison-function criterion with its explicit exponential
formula, the two classical definite-regime cases, or a shift of the weights
by a compensating path K.

Every certificate carries the margin epsilon: the largest uniform amount by
which the control weight R could be lowered with the witness still valid.
A strictly positive margin is what guarantees both solvability of the Riccati
problem and attainment of the optimal control.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import lambertw

from .core import (
    DEFAULT_EPS_POS,
    CoefficientPath,
    ProblemData,
    lq_terms,
    min_eigenvalue,
    path_samples,
    riccati_drift,
    symmetric_part_error,
    symmetrize,
)
from .errors import GridMismatch
from .riccati import RiccatiSolution, derive_gain_margin

__all__ = [
    "SubsolutionCandidate",
    "Certificate",
    "check_subsolution",
    "certify_scalar_comparison",
    "certify_definite_regime",
    "apply_shift",
    "shift_solution_back",
    "optimal_constant_alpha",
    "constant_threshold_alpha_schedule",
    "KIND_SUBSOLUTION",
    "KIND_SCALAR_COMPARISON",
    "KIND_DEFINITE_CONTROL",
    "KIND_DEFINITE_TERMINAL",
    "KIND_SHIFT",
]

# Certificate kinds.  The scalar-comparison kind is the phi-based criterion;
# the two definite kinds are the classical sufficient conditions it recovers.
KIND_SUBSOLUTION = "explicit-subsolution"
KIND_SCALAR_COMPARISON = "scalar-comparison"
KIND_DEFINITE_CONTROL = "definite-control-weight"
KIND_DEFINITE_TERMINAL = "definite-terminal-weight"
KIND_SHIFT = "shift"

CERTIFIED = "certified"
FAILED = "failed"

# slack accepted on semi-definiteness checks of given data
PSD_SLACK = 1e-10

# the comparison-function quadrature grid is at least QUAD_REFINE times finer
# than the coefficient grid, with at least QUAD_MIN_PANELS panels
QUAD_REFINE = 4
QUAD_MIN_PANELS = 2048

# the constant-threshold alpha schedule is capped at 1 - ALPHA_CAP
ALPHA_CAP = 1e-3


@dataclass
class SubsolutionCandidate:
    """A candidate subsolution path F with its time derivative.

    ``F`` and ``dF`` are read by ``core.path_samples`` on ``grid`` (one
    symmetric matrix or one per grid point).  When ``dF`` is omitted it is
    filled by central differences on the grid (one-sided at the ends; at least
    3 points) and checks run with a 10x inflated tolerance.
    """

    grid: np.ndarray
    F: np.ndarray
    dF: np.ndarray | None = None
    derivative_fd: bool = field(default=False, repr=False)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        F = np.asarray(self.F, dtype=float)
        n = F.shape[-1] if F.ndim else 1  # checked against the problem in check_subsolution
        F = _witness(F, grid, n, "F")
        if self.dF is not None:
            dF = _witness(self.dF, grid, n, "dF")
        elif grid.size < 3:
            raise ValueError("dF: required when the grid has fewer than 3 points")
        else:
            dF = np.gradient(F, grid[1] - grid[0], axis=0, edge_order=2)
            self.derivative_fd = True
        self.grid = grid
        self.F = F
        self.dF = dF

    @classmethod
    def zero(cls, data: ProblemData) -> "SubsolutionCandidate":
        z = np.zeros((data.grid.size, data.n, data.n))
        return cls(grid=data.grid, F=z, dF=np.zeros_like(z))


@dataclass
class Certificate:
    """Solvability verdict with its margin and witnessing paths."""

    kind: str
    verdict: str
    epsilon: float
    reason: str | None = None
    t_worst: float | None = None
    phi: np.ndarray | None = None
    boundary: np.ndarray | None = None
    threshold: float | None = None

    @classmethod
    def failed(cls, kind, reason, t_worst=None, **witness) -> "Certificate":
        """A failed verdict: zero margin, the reason and where it was worst."""
        return cls(kind=kind, verdict=FAILED, epsilon=0.0, reason=reason, t_worst=t_worst,
                   **witness)

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED

    def witness_value_at_zero(self, n: int) -> np.ndarray:
        """F(0) of the certificate's witness (zero matrix when none is carried)."""
        if self.phi is not None:
            return float(self.phi[0]) * np.eye(n)
        return np.zeros((n, n))


def check_subsolution(
    cand: SubsolutionCandidate,
    data: ProblemData,
    tol: float = 1e-9,
    eps_pos: float = DEFAULT_EPS_POS,
) -> Certificate:
    """Check the three subsolution conditions and measure the margin.

    Certified when, at every grid point, the drift residual dF/dt + f(F, 0)
    is positive semi-definite to ``tol``, the effective control weight stays
    above the positivity floor, and F(T) <= N to ``tol``.  The margin epsilon
    is the supremal uniform reduction of R under which F remains a
    subsolution, found by bisection to 1e-6 relative.
    """
    if cand.grid.size != data.grid.size or not np.allclose(
        cand.grid, data.grid, rtol=0.0, atol=1e-12 * max(1.0, data.T)
    ):
        raise GridMismatch("candidate grid differs from the problem grid")
    if cand.F.shape[1:] != (data.n, data.n):
        raise GridMismatch(
            f"candidate F holds {cand.F.shape[1]}x{cand.F.shape[2]} matrices, "
            f"the problem needs {data.n}x{data.n}"
        )
    tol_eff = tol * (10.0 if cand.derivative_fd else 1.0)
    grid = data.grid
    hat, rhs, base = lq_terms(data.stacked_at(grid), cand.F)
    base = cand.dF + base

    def drift_eigs(shift):
        """Minimal eigenvalues of dF/dt + f(F, 0) with R lowered by ``shift``."""
        return min_eigenvalue(riccati_drift(hat - shift * np.eye(data.k), rhs, base))

    hat_eigs = min_eigenvalue(hat)
    hat_min = float(np.min(hat_eigs))
    if hat_min <= eps_pos:
        j = int(np.argmin(hat_eigs))
        return Certificate.failed(
            KIND_SUBSOLUTION, "effective control weight not positive along F", float(grid[j]))
    drift = drift_eigs(0.0)
    if float(np.min(drift)) < -tol_eff:
        j = int(np.argmin(drift))
        return Certificate.failed(
            KIND_SUBSOLUTION, "drift residual dF/dt + f(F, 0) not positive semi-definite",
            float(grid[j]))
    term = min_eigenvalue(data.N - cand.F[-1])
    if term < -tol_eff:
        return Certificate.failed(
            KIND_SUBSOLUTION, "terminal value F(T) not dominated by N", float(grid[-1]))

    # supremal shift keeping F a subsolution of the R-reduced problem
    eps_hi = hat_min - eps_pos

    def ok(shift):
        if shift >= hat_min - eps_pos:
            return False
        return float(np.min(drift_eigs(shift))) >= -tol_eff

    if ok(eps_hi * (1.0 - 1e-12)):
        epsilon = eps_hi
    else:
        lo, hi = 0.0, eps_hi
        while hi - lo > 1e-6 * max(hi, 1e-30):
            mid = 0.5 * (lo + hi)
            if ok(mid):
                lo = mid
            else:
                hi = mid
        epsilon = lo
    if epsilon <= 0.0:
        return Certificate.failed(
            KIND_SUBSOLUTION, "no positive margin: subsolution is not strict")
    return Certificate(kind=KIND_SUBSOLUTION, verdict=CERTIFIED, epsilon=float(epsilon))


def _cumtrapz(values, h):
    out = np.zeros_like(values)
    out[1:] = np.cumsum(0.5 * h * (values[1:] + values[:-1]))
    return out


def _normalize_alpha(alpha, data: ProblemData):
    """Quadrature times plus alpha values on them."""
    base_points = max(QUAD_REFINE * data.m + 1, QUAD_MIN_PANELS + 1)
    if np.isscalar(alpha):
        a = float(alpha)
        times = np.linspace(0.0, data.T, base_points)
        return times, np.full(base_points, a)
    if isinstance(alpha, tuple):
        a_grid = np.asarray(alpha[0], dtype=float)
        a_vals = np.asarray(alpha[1], dtype=float)
        if a_grid.shape != a_vals.shape or a_grid.ndim != 1:
            raise ValueError("alpha path must be (times, values) of equal length")
        # written so that NaN times fail too
        if a_grid.size < 2 or not np.all(np.diff(a_grid) > 0.0):
            raise ValueError("alpha path times must be at least 2 strictly increasing points")
        if abs(a_grid[0]) > 1e-12 or abs(a_grid[-1] - data.T) > 1e-12 * max(1.0, data.T):
            raise ValueError("alpha path must span [0, T]")
        n_pts = max(a_grid.size, base_points)
        step = a_grid[1] - a_grid[0]
        uniform = np.max(np.abs(np.diff(a_grid) - step)) <= 1e-12 * max(1.0, data.T)
        if uniform and a_grid.size == n_pts:
            return a_grid, a_vals
        times = np.linspace(0.0, data.T, n_pts)
        return times, np.interp(times, a_grid, a_vals)
    a_vals = np.asarray(alpha, dtype=float)
    if a_vals.shape != data.grid.shape:
        raise ValueError("alpha array must be sampled on the problem grid")
    times = np.linspace(0.0, data.T, base_points)
    return times, np.interp(times, data.grid, a_vals)


def _upsilon_parts(coeffs, n):
    """sum D'D, (B + sum C'D)' and A + A' + sum C'C: lq_terms at P = I, R = Q = 0."""
    A, B, C, D, R, _ = coeffs
    return lq_terms((A, B, C, D, np.zeros_like(R), 0.0), np.eye(n))


def certify_scalar_comparison(
    data: ProblemData,
    alpha,
    eps_pos: float = DEFAULT_EPS_POS,
) -> Certificate:
    """Scalar comparison-function certificate.

    Solves the linear comparison ODE for phi in closed form,
    phi(t) = Phi(t,T) lam_min(N) + integral_t^T Phi(t,s) lam_min(Q(s)) ds with
    Phi(t,s) = exp(integral_t^s lam_min(Upsilon(alpha))), by composite
    quadrature on a grid at least QUAD_REFINE times finer than the
    coefficient grid.  Certified when phi stays positive and the control
    weight clears the admissible lower bound -alpha phi sum_i D_i'D_i with a
    positive margin.

    Parameters
    ----------
    alpha : float, (times, values) pair, or array on the problem grid
        Tuning path with values in [0, 1).
    """
    times, a_vals = _normalize_alpha(alpha, data)
    # written so that NaN fails: every comparison with NaN is False
    if not np.all((a_vals >= 0.0) & (a_vals < 1.0)):
        raise ValueError("alpha values must lie in [0, 1)")
    h = times[1] - times[0]

    coeffs = data.stacked_at(times)
    R_, Q_ = coeffs[4], coeffs[5]
    sumDtD, Mt, ups = _upsilon_parts(coeffs, data.n)
    dd_eigs = min_eigenvalue(sumDtD)
    if float(np.min(dd_eigs)) < eps_pos:
        j = int(np.argmin(dd_eigs))
        return Certificate.failed(
            KIND_SCALAR_COMPARISON,
            f"sum_i D_i'D_i not uniformly positive (min eigenvalue "
            f"{dd_eigs[j]:.3e} at t={times[j]:.6g})",
        )

    sol = np.linalg.solve(sumDtD, Mt)
    quad = np.einsum("tkn,tkr->tnr", Mt, sol)
    ups = ups - quad / (1.0 - a_vals)[:, None, None]
    upsilon = min_eigenvalue(ups)
    qmin = min_eigenvalue(Q_)
    nu = min_eigenvalue(data.N)

    I = _cumtrapz(upsilon, h)
    w = np.exp(I - np.max(I))
    wq = w * qmin
    panels = 0.5 * h * (wq[1:] + wq[:-1])
    Jrev = np.zeros_like(wq)
    Jrev[:-1] = np.cumsum(panels[::-1])[::-1]
    with np.errstate(all="ignore"):
        phi = (w[-1] * nu + Jrev) / w
    if not np.all(np.isfinite(phi)):
        raise ValueError("phi evaluation overflowed; coefficients out of desk scale")

    if float(np.min(phi)) <= 0.0:
        t_bad = float(times[np.flatnonzero(phi <= 0.0)[-1]])
        return Certificate.failed(
            KIND_SCALAR_COMPARISON, f"comparison function phi is nonpositive at t={t_bad:.6g}",
            t_bad)

    aphi = a_vals * phi
    adm = min_eigenvalue(R_ + aphi[:, None, None] * sumDtD)
    eps = float(np.min(adm))
    j = int(np.argmin(adm))
    threshold = -float(np.min(aphi * dd_eigs))

    # store witness paths on the coarse problem grid
    phi_coarse = np.interp(data.grid, times, phi)
    alpha_coarse = np.interp(data.grid, times, a_vals)
    sumDtD_coarse = _upsilon_parts(data.stacked_at(data.grid), data.n)[0]
    boundary = -(alpha_coarse * phi_coarse)[:, None, None] * sumDtD_coarse

    witness = dict(phi=phi_coarse, boundary=boundary, threshold=threshold)
    if eps > 0.0:
        return Certificate(kind=KIND_SCALAR_COMPARISON, verdict=CERTIFIED, epsilon=eps, **witness)
    return Certificate.failed(
        KIND_SCALAR_COMPARISON, "control weight does not clear the admissible lower bound",
        float(times[j]), **witness)


def _threshold_alpha(t):
    """Root alpha in (0, 1] of alpha - ln(alpha) = 1 + t, for t >= 0.

    In closed form alpha = -W0(-exp(-(1 + t))) with the principal Lambert W
    branch.  At t = 0 the argument is the branch point -1/e, where lambertw
    returns NaN, so alpha = 1 is set there directly.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(invalid="ignore"):
        alpha = -lambertw(-np.exp(-(1.0 + t))).real
    return np.where(t == 0.0, 1.0, alpha)


def optimal_constant_alpha() -> float:
    """Terminal alpha of the constant-threshold schedule on unit horizon.

    The unique root in (0, 1) of alpha - ln(alpha) = 2; the sharp admissible
    lower bound for the scalar benchmark weight is its negative, about
    -0.15859.
    """
    return float(_threshold_alpha(1.0))


def constant_threshold_alpha_schedule(n_points: int = 2 ** 18 + 1):
    """The alpha path on [0, 1] that makes the admissible bound time-constant.

    Inverts t(alpha) = alpha - ln(alpha) - 1 on the decreasing branch
    alpha in (0, 1] through the Lambert W closed form.  The exact schedule
    touches alpha = 1 at t = 0 (an integrable endpoint singularity of the
    comparison ODE); values are capped at 1 - ALPHA_CAP so the quadrature in
    certify_scalar_comparison stays finite.  Returns (times, values).
    """
    times = np.linspace(0.0, 1.0, int(n_points))
    return times, np.minimum(_threshold_alpha(times), 1.0 - ALPHA_CAP)


def certify_definite_regime(data: ProblemData, eps_pos: float = DEFAULT_EPS_POS) -> Certificate:
    """Classical definite-regime certificates.

    Case i: R uniformly positive with Q, N positive semi-definite.
    Case ii: N uniformly positive, sum_i D_i'D_i uniformly positive, and
    Q, R positive semi-definite; certified by delegating to the scalar
    comparison criterion with a small constant alpha.
    """
    r_eigs = min_eigenvalue(data.R.samples)
    q_eigs = min_eigenvalue(data.Q.samples)
    r_min = float(np.min(r_eigs))
    q_min = float(np.min(q_eigs))
    n_min = min_eigenvalue(data.N)
    scale_r = max(1.0, float(np.max(np.abs(data.R.samples))))
    scale_q = max(1.0, float(np.max(np.abs(data.Q.samples))))
    scale_n = max(1.0, float(np.max(np.abs(data.N))))

    psd_q = q_min >= -PSD_SLACK * scale_q
    psd_n = n_min >= -PSD_SLACK * scale_n
    if r_min > eps_pos and psd_q and psd_n:
        return Certificate(
            kind=KIND_DEFINITE_CONTROL, verdict=CERTIFIED, epsilon=r_min - eps_pos
        )

    reasons = []
    if not (r_min > eps_pos):
        reasons.append(f"case i: control weight not uniformly positive (min {r_min:.3e})")
    if not psd_q:
        reasons.append(f"Q not positive semi-definite (min {q_min:.3e})")
    if not psd_n:
        reasons.append(f"N not positive semi-definite (min {n_min:.3e})")

    psd_r = r_min >= -PSD_SLACK * scale_r
    dd_eigs = min_eigenvalue(_upsilon_parts(data.stacked_at(data.grid), data.n)[0])
    dd_min = float(np.min(dd_eigs))
    if psd_q and psd_r and n_min > eps_pos and dd_min >= eps_pos:
        inner = certify_scalar_comparison(data, 0.01, eps_pos=eps_pos)
        if inner.certified:
            inner.kind = KIND_DEFINITE_TERMINAL
            return inner
        reasons.append(f"case ii: {inner.reason}")
    else:
        reasons.append(
            "case ii: needs N >> 0, sum D_i'D_i >> 0 and Q, R >= 0 "
            f"(min eig N {n_min:.3e}, min eig sum D'D {dd_min:.3e})"
        )
    return Certificate.failed(KIND_DEFINITE_CONTROL, "; ".join(reasons))


def _witness(value, grid, n, name):
    """An n x n witness path on ``grid`` (``core.path_samples``), symmetrized.

    ValueError when the samples are not symmetric.
    """
    samples = path_samples(value, grid.size, (n, n), name)
    if symmetric_part_error(samples) > 1e-10 * max(1.0, float(np.max(np.abs(samples)))):
        raise ValueError(f"{name} must be symmetric")
    return symmetrize(samples)


def apply_shift(data: ProblemData, K, dK=None):
    """Shift the weights by a compensating path K.

    Returns ``(shifted_data, residual)`` where the shifted problem has
    Q_hat = Q + dK + A'K + KA + sum_i C_i'K C_i, R_hat = R + sum_i D_i'K D_i,
    N_hat = N - K(T), and ``residual`` is the maximal Frobenius norm of
    K B + sum_i C_i'K D_i over the grid.  The shift is certificate-valid only
    when the residual vanishes (to tolerance): then P solves the shifted
    problem iff P + K solves the original one.

    ``dK`` defaults to central differences of K on the grid.
    """
    grid = data.grid
    K = _witness(K, grid, data.n, "K")
    if dK is None:
        dK = np.gradient(K, grid[1] - grid[0], axis=0)
    else:
        dK = _witness(dK, grid, data.n, "dK")

    hat, rhs, base = lq_terms(data.stacked_at(grid), K)
    # rhs = B'K + sum_i D_i'K C_i is the transpose of the compensation defect
    # K B + sum_i C_i'K D_i because K is symmetric; the norm is the same
    residual = float(np.max(np.sqrt(np.sum(rhs * rhs, axis=(-2, -1)))))
    shifted = data.with_weights(R=hat, Q=symmetrize(base + dK), N=data.N - K[-1])
    return shifted, residual


def shift_solution_back(
    solution: RiccatiSolution, K, original_data: ProblemData
) -> RiccatiSolution:
    """Recover the original-problem trajectory P + K from a shifted solve."""
    grid, n = original_data.grid, original_data.n
    K_path = CoefficientPath(grid, _witness(K, grid, n, "K"))
    P = solution.P + K_path.at(solution.grid)
    gain, margin = derive_gain_margin(original_data, solution.grid, P)
    return RiccatiSolution(
        grid=solution.grid.copy(),
        P=symmetrize(P),
        gain=gain,
        margin=margin,
        status=solution.status,
        t_event=solution.t_event,
        accepted_steps=solution.accepted_steps,
        rejected_steps=solution.rejected_steps,
        margin_min_dense=float(np.min(margin)),
    )
