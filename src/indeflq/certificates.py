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

The scalar comparison function is integrated by one trapezoid rule in the node
index of its alpha path, weighted by dt/dindex.  It is second order on uniform
nodes and on the graded nodes t = u^2 of the constant-threshold schedule, whose
alpha = 1 endpoint at t = 0 makes Upsilon singular like t^(-1/2); about 2000
graded nodes reproduce the sharp threshold of the scalar benchmark to 1e-8.
That alpha = 1 endpoint is admitted only through the schedule's name,
"optimal-constant": elsewhere the integral of Upsilon can diverge.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DEFAULT_EPS_POS,
    CoefficientPath,
    ProblemData,
    lq_block,
    lq_terms,
    min_eigenvalue,
    path_samples,
    schur_complement,
    symmetric_part_error,
    symmetrize,
)
from .riccati import RiccatiSolution, derive_gain_margin

__all__ = [
    "Certificate",
    "check_subsolution",
    "certify_scalar_comparison",
    "certify_definite_regime",
    "apply_shift",
    "shift_solution_back",
    "optimal_constant_alpha",
    "constant_threshold_alpha_schedule",
    "quadrature_nodes",
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

# Halley steps of _threshold_alpha; 3 already reach full precision on t in [1e-4, 50]
HALLEY_STEPS = 6


@dataclass
class Certificate:
    """Solvability verdict with its margin and witnessing paths."""

    kind: str
    verdict: str
    epsilon: float
    reason: str | None = None
    t_worst: float | None = None
    phi: np.ndarray | None = None
    threshold: float | None = None
    quad_nodes: int | None = None
    quad_error: float | None = None

    @classmethod
    def failed(cls, kind, reason, t_worst=None, **witness) -> "Certificate":
        """A failed verdict: zero margin, the reason and where it was worst."""
        return cls(kind=kind, verdict=FAILED, epsilon=0.0, reason=reason, t_worst=t_worst,
                   **witness)

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED


def check_subsolution(
    data: ProblemData,
    F=None,
    dF=None,
    tol: float = 1e-9,
    eps_pos: float = DEFAULT_EPS_POS,
) -> Certificate:
    """Check the three subsolution conditions for a witness F and measure the margin.

    ``F`` and ``dF`` are read on the problem grid by ``_witness_and_slope``, as
    ``apply_shift`` reads K: one symmetric matrix or one per grid point.  When
    ``dF`` is omitted it is filled by second-order differences and the checks
    run with a 10x inflated tolerance.  ``F=None`` is the zero path, with
    dF = 0 where ``dF`` is omitted too.

    Certified when, at every grid point, the drift residual dF/dt + f(F, 0)
    is positive semi-definite to ``tol``, the effective control weight stays
    above the positivity floor, and F(T) <= N to ``tol``.  The margin epsilon
    is the supremal uniform reduction of R under which F remains a
    subsolution, found by bisection to an absolute width of 1e-6 times its
    upper bound (the effective weight's least eigenvalue less the floor); a
    margin below that width is not strict, and fails.
    """
    grid, n = data.grid, data.n
    if F is None:
        F = np.zeros((n, n))
        dF = F if dF is None else dF
    F, dF, derivative_fd = _witness_and_slope(F, dF, grid, n, "F")
    tol_eff = tol * (10.0 if derivative_fd else 1.0)
    H = lq_block(data.blocks_at(grid), F)
    H[:, :n, :n] += dF

    def drift_eigs(shift):
        """Minimal eigenvalues of dF/dt + f(F, 0) with R (lower right in H) less ``shift``."""
        return min_eigenvalue(schur_complement(H - shift * np.diag(np.arange(n + data.k) >= n), n))

    hat_eigs = min_eigenvalue(H[:, n:, n:])
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
    term = min_eigenvalue(data.N - F[-1])
    if term < -tol_eff:
        return Certificate.failed(
            KIND_SUBSOLUTION, "terminal value F(T) not dominated by N", float(grid[-1]))

    # supremal shift keeping F a subsolution of the R-reduced problem
    eps_hi = hat_min - eps_pos

    def ok(shift):
        return float(np.min(drift_eigs(shift))) >= -tol_eff

    width = 1e-6 * eps_hi  # reached in 20 halvings
    if ok(eps_hi * (1.0 - 1e-12)):
        epsilon = eps_hi
    else:
        lo, hi = 0.0, eps_hi
        while hi - lo > width:
            mid = 0.5 * (lo + hi)
            if ok(mid):
                lo = mid
            else:
                hi = mid
        epsilon = lo
    if epsilon < width:
        return Certificate.failed(
            KIND_SUBSOLUTION, "no positive margin: subsolution is not strict")
    return Certificate(kind=KIND_SUBSOLUTION, verdict=CERTIFIED, epsilon=float(epsilon))


def _cumtrapz(values):
    """Running trapezoid integral of ``values`` at unit spacing."""
    out = np.zeros_like(values)
    out[1:] = np.cumsum(0.5 * (values[1:] + values[:-1]))
    return out


def quadrature_nodes(data: ProblemData) -> int:
    """Least node count of the comparison-function quadrature on ``data``.

    QUAD_REFINE times the coefficient-grid panels, at least QUAD_MIN_PANELS,
    plus one: always odd, so every second node again spans [0, T].
    """
    return max(QUAD_REFINE * data.m + 1, QUAD_MIN_PANELS + 1)


def _alpha_path(alpha, data: ProblemData):
    """Quadrature times, alpha values on them, and whether alpha = 1 at t = 0.

    A scalar alpha, or an array on the problem grid, is sampled on
    ``quadrature_nodes(data)`` uniform times.  The name "optimal-constant" is
    ``constant_threshold_alpha_schedule`` on that many graded nodes, on
    T = 1 only; it alone starts at the singular endpoint alpha = 1.
    """
    if isinstance(alpha, str):  # before np.isscalar, which is true for a string too
        if alpha != "optimal-constant":
            raise ValueError(f"unknown alpha schedule {alpha!r}")
        if abs(data.T - 1.0) > 1e-12:
            raise ValueError("the optimal-constant alpha schedule needs horizon T = 1")
        return (*constant_threshold_alpha_schedule(quadrature_nodes(data)), True)
    times = np.linspace(0.0, data.T, quadrature_nodes(data))
    if np.isscalar(alpha):
        a_vals = np.full(times.size, float(alpha))
    else:
        a_vals = np.asarray(alpha, dtype=float)
        if a_vals.shape != data.grid.shape:
            raise ValueError("alpha array must be sampled on the problem grid")
        a_vals = np.interp(times, data.grid, a_vals)
    # written so that NaN fails: every comparison with NaN is False
    if not np.all((a_vals >= 0.0) & (a_vals < 1.0)):
        raise ValueError("alpha values must lie in [0, 1)")
    return times, a_vals, False


def _upsilon_block(blocks, n):
    """lq_block at P = I, R = Q = 0: [[A + A' + sum C'C, .], [(B + sum C'D)', sum D'D]];
    Upsilon(alpha) is its Schur complement once sum D'D is scaled by 1 - alpha."""
    return lq_block((*blocks[:2], 0.0), np.eye(n))


def _comparison_phi(times, upsilon, qmin, nu, singular):
    """The comparison function phi on ``times`` (see certify_scalar_comparison).

    Both integrals are trapezoid sums in the node index, weighted by the
    Jacobian dt/dindex (``np.gradient``, second order): h on uniform nodes,
    exact on t = T u^2.  When ``singular`` (the named schedule: alpha = 1 at
    t = 0, where Upsilon is -inf but Upsilon dt/du is finite) the first
    integrand value is the linear extrapolation 2 g_1 - g_2 of the next two.
    """
    jac = np.gradient(times, edge_order=2)
    g = upsilon * jac
    if singular:
        g[0] = 2.0 * g[1] - g[2]
    I = _cumtrapz(g)
    w = np.exp(I - np.max(I))
    Jrev = _cumtrapz((w * qmin * jac)[::-1])[::-1]
    with np.errstate(all="ignore"):
        phi = (w[-1] * nu + Jrev) / w
    if not np.all(np.isfinite(phi)):
        raise ValueError("phi evaluation overflowed; coefficients out of desk scale")
    return phi


def certify_scalar_comparison(
    data: ProblemData,
    alpha,
    eps_pos: float = DEFAULT_EPS_POS,
) -> Certificate:
    """Scalar comparison-function certificate.

    Solves the linear comparison ODE for phi in closed form,
    phi(t) = Phi(t,T) lam_min(N) + integral_t^T Phi(t,s) lam_min(Q(s)) ds with
    Phi(t,s) = exp(integral_t^s lam_min(Upsilon(alpha))), by the trapezoid
    rule in the node index of the alpha path (``_comparison_phi``), which is
    second order on uniform and graded nodes alike.  Certified when phi stays
    positive and the control weight clears the admissible lower bound
    -alpha phi sum_i D_i'D_i with a positive margin.  The certificate reports
    the node count and, as the quadrature error, the change of the threshold
    when only every second node is used.

    Parameters
    ----------
    alpha : float, array on the problem grid, or "optimal-constant"
        Tuning path with values in [0, 1), the forms a spec's certificate
        block can write.  A scalar or a grid array is sampled on
        ``quadrature_nodes(data)`` uniform nodes.  "optimal-constant" is
        ``constant_threshold_alpha_schedule`` on that many graded nodes
        (horizon T = 1 only), whose alpha = 1 at t = 0 is admitted there alone.
    """
    times, a_vals, singular = _alpha_path(alpha, data)

    blocks, n = data.blocks_at(times), data.n
    Q_, R_ = blocks[2][:, :n, :n], blocks[2][:, n:, n:]
    H = _upsilon_block(blocks, n)
    sumDtD = H[:, n:, n:].copy()
    dd_eigs = min_eigenvalue(sumDtD)
    if float(np.min(dd_eigs)) < eps_pos:
        j = int(np.argmin(dd_eigs))
        return Certificate.failed(
            KIND_SCALAR_COMPARISON,
            f"sum_i D_i'D_i not uniformly positive (min eigenvalue "
            f"{dd_eigs[j]:.3e} at t={times[j]:.6g})",
        )

    gap = 1.0 - a_vals
    if singular:
        gap[0] = 1.0  # any finite value: the integrand there is extrapolated
    H[:, n:, n:] *= gap[:, None, None]
    upsilon = min_eigenvalue(schur_complement(H, n))
    qmin = min_eigenvalue(Q_)
    nu = min_eigenvalue(data.N)
    phi = _comparison_phi(times, upsilon, qmin, nu, singular)

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
    phi_half = _comparison_phi(times[::2], upsilon[::2], qmin[::2], nu, singular)
    quad_error = abs(threshold + float(np.min(a_vals[::2] * phi_half * dd_eigs[::2])))

    # the witness phi on the coarse problem grid
    witness = dict(phi=np.interp(data.grid, times, phi), threshold=threshold,
                   quad_nodes=int(times.size), quad_error=quad_error)
    if eps > 0.0:
        return Certificate(kind=KIND_SCALAR_COMPARISON, verdict=CERTIFIED, epsilon=eps, **witness)
    return Certificate.failed(
        KIND_SCALAR_COMPARISON, "control weight does not clear the admissible lower bound",
        float(times[j]), **witness)


def _threshold_alpha(t):
    """Root alpha in (0, 1] of alpha - ln(alpha) = 1 + t, for t >= 0.

    In closed form alpha = -W0(-exp(-(1 + t))) with the principal Lambert W
    branch; alpha(0) = 1 is the branch point.  Computed by HALLEY_STEPS
    Halley steps on f(a) = (a - 1) - ln(a) - t, started from the branch-point
    series 1 - p + p^2/3 - p^3/36 with p = sqrt(2t) for t <= 2 and from
    exp(-(1 + t)) beyond (Corless et al., "On the Lambert W function", 1996).
    a - 1 is exact near the branch point, so f keeps its absolute accuracy
    where a - ln(a) is flat.
    """
    t = np.asarray(t, dtype=float)
    alpha = np.ones_like(t)
    pos = t > 0.0
    tp = t[pos]
    p = np.sqrt(2.0 * tp)
    a = np.where(tp <= 2.0, 1.0 - p + p * p / 3.0 - p ** 3 / 36.0, np.exp(-(1.0 + tp)))
    for _ in range(HALLEY_STEPS):
        e = a - 1.0
        f = e - np.log(a) - tp
        # a - f/f' (1 - f f''/(2 f'^2))^-1 with f' = e/a, f'' = 1/a^2
        a = a - 2.0 * a * f * e / (2.0 * e * e - f)
    alpha[pos] = a
    return alpha


def optimal_constant_alpha() -> float:
    """Terminal alpha of the constant-threshold schedule on unit horizon.

    The unique root in (0, 1) of alpha - ln(alpha) = 2; the sharp admissible
    lower bound for the scalar benchmark weight is its negative, about
    -0.15859.
    """
    return float(_threshold_alpha(1.0))


def constant_threshold_alpha_schedule(n_points: int = 2049):
    """The alpha path on [0, 1] that makes the admissible bound time-constant.

    Inverts t(alpha) = alpha - ln(alpha) - 1 on the decreasing branch
    alpha in (0, 1].  The exact schedule touches alpha = 1 at t = 0, where
    1 - alpha ~ sqrt(2t) gives Upsilon an integrable t^(-1/2) singularity.
    So the nodes are graded, t = u^2 with u uniform on [0, 1]: in u the
    integrand of the comparison ODE is smooth and the trapezoid rule of
    certify_scalar_comparison is second order.  The value at t = 0 is exactly
    1; the certifier admits it as the singular endpoint when alpha is
    "optimal-constant", which builds this schedule on
    ``quadrature_nodes(data)`` nodes.  Returns (times, values).
    """
    times = np.linspace(0.0, 1.0, int(n_points)) ** 2
    return times, _threshold_alpha(times)


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
    n = data.n
    dd_eigs = min_eigenvalue(_upsilon_block(data.blocks_at(data.grid), n)[:, n:, n:])
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


def _witness_and_slope(value, slope, grid, n, name):
    """``_witness`` of a path and of its time derivative (named d + ``name``), and
    whether the derivative was filled in: when ``slope`` is None, by second-order
    differences (``np.gradient``, one-sided at the ends) on at least 3 points."""
    W = _witness(value, grid, n, name)
    if slope is not None:
        return W, _witness(slope, grid, n, "d" + name), False
    if grid.size < 3:
        raise ValueError(f"d{name}: required when the grid has fewer than 3 points")
    return W, np.gradient(W, grid[1] - grid[0], axis=0, edge_order=2), True


def apply_shift(data: ProblemData, K, dK=None):
    """Shift the weights by a compensating path K.

    Returns ``(shifted_data, residual)`` where the shifted problem has
    Q_hat = Q + dK + A'K + KA + sum_i C_i'K C_i, R_hat = R + sum_i D_i'K D_i,
    N_hat = N - K(T), and ``residual`` is the maximal Frobenius norm of
    K B + sum_i C_i'K D_i over the grid.  The shift is certificate-valid only
    when the residual vanishes (to tolerance): then P solves the shifted
    problem iff P + K solves the original one.

    ``dK`` defaults to second-order differences of K on the grid, as
    ``check_subsolution``'s dF does (``_witness_and_slope``).
    """
    grid = data.grid
    K, dK, _ = _witness_and_slope(K, dK, grid, data.n, "K")

    hat, rhs, base = lq_terms(data.blocks_at(grid), K)
    # rhs = B'K + sum_i D_i'K C_i is the transpose of the compensation defect
    # K B + sum_i C_i'K D_i because K is symmetric; the norm is the same
    residual = float(np.max(np.sqrt(np.sum(rhs * rhs, axis=(-2, -1)))))
    shifted = data.with_weights(R=symmetrize(hat), Q=symmetrize(base + dK), N=data.N - K[-1])
    return shifted, residual


def shift_solution_back(
    solution: RiccatiSolution, K, original_data: ProblemData
) -> RiccatiSolution:
    """Recover the original-problem trajectory P + K from a shifted solve."""
    grid, n = original_data.grid, original_data.n
    K_path = CoefficientPath(grid, _witness(K, grid, n, "K"))
    P = solution.P + K_path.at(solution.grid)  # exactly symmetric, as both terms are
    gain, margin = derive_gain_margin(original_data, solution.grid, P)
    return replace(solution, grid=solution.grid.copy(), P=P, gain=gain, margin=margin,
                   margin_min_dense=float(np.min(margin)))
