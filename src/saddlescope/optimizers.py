"""Gradient descent, Riemannian GD on the sphere, and the proximal point
method, packaged as non-autonomous dynamical systems driven by a step-size
schedule; and the sphere's exponential chart: exp, log, the tangent
lift and the pullback Hessian.

All objective callables are vectorized over leading axes: f maps
(..., d) -> (...), grad maps (..., d) -> (..., d), hess maps
(..., d) -> (..., d, d).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dynsys import NonAutonomousSystem, SystemMap, _row_norms
from .phcert import Schedule, check_pp_steps, step_size


class InnerSolveFailed(RuntimeError):
    """The proximal inner Newton solve did not reach tolerance."""


@dataclass(frozen=True)
class Objective:
    """A C^2 cost with gradient and Hessian callables.

    lipschitz_L, when set, bounds ||hess(x)|| (a global bound for
    genuinely L-smooth objectives; a documented box-local surrogate
    otherwise).
    """

    f: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    dim: int
    lipschitz_L: Optional[float] = None


@dataclass(frozen=True)
class SphereObjective:
    """An ambient objective restricted to the unit sphere S^{d-1}."""

    ambient: Objective

    @property
    def dim(self) -> int:
        return self.ambient.dim

    def f(self, x: np.ndarray) -> np.ndarray:
        return self.ambient.f(x)

    def riemannian_grad(self, x: np.ndarray) -> np.ndarray:
        """(I - x x^T) grad f(x) for unit-norm x; vectorized."""
        x = np.asarray(x, dtype=float)
        g = np.asarray(self.ambient.grad(x), dtype=float)
        s = np.add.reduce(x * g, axis=-1, keepdims=True)
        return g - s * x

    def retraction(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Metric projection R_x(v) = (x + v)/||x + v||; for unit x and
        tangent v the denominator is sqrt(1 + ||v||^2) >= 1."""
        w = np.asarray(x, dtype=float) + np.asarray(v, dtype=float)
        return w / _row_norms(w)[..., None]


# --- small batched linear solves ---------------------------------------------

# The adjugate of J = [[a, b, c], [e, f, g], [h, i, j]] in row-major order,
# [[A, D, G], [B, E, H], [C, Fm, I2]], each entry from the flat indices
# (p, q, r, s) of its 2x2 product J[p] J[q] - J[r] J[s]; solve_small
# negates the odd entries D, B, H and Fm
_ADJ3 = np.array(
    [
        (4, 8, 5, 7), (1, 8, 2, 7), (1, 5, 2, 4),  # A = fj - gi, D = -(bj - ci), G = bg - cf
        (3, 8, 5, 6), (0, 8, 2, 6), (0, 5, 2, 3),  # B = -(ej - gh), E = aj - ch, H = -(ag - ce)
        (3, 7, 4, 6), (0, 7, 1, 6), (0, 4, 1, 3),  # C = ei - fh, Fm = -(ai - bh), I2 = af - be
    ]
).T


def solve_small(J: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Solve J x = F batched over the leading axes J and F share.

    Cramer's rule for d <= 3 keeps the proximal inner loop cheap at desk
    scale and bitwise-reproducible across batch shapes: with the cofactors
    of _ADJ3, det = a A + b B + c C and x_0 = (A F_0 + D F_1 + G F_2) / det,
    summed left to right.  For d = 3 one gather forms all nine 2x2
    products on component-major (9, N) planes, so every operation runs
    over one entry per row.
    """
    d = J.shape[-1]
    if d == 1:
        return F / J[..., 0, 0][..., None]
    if d == 2:
        a, b = J[..., 0, 0], J[..., 0, 1]
        c, e = J[..., 1, 0], J[..., 1, 1]
        F0, F1 = F[..., 0], F[..., 1]
        det = a * e - b * c
        out = np.empty(F.shape)
        np.divide(e * F0 - b * F1, det, out=out[..., 0])
        np.divide(a * F1 - c * F0, det, out=out[..., 1])
        return out
    if d == 3:
        Jt = np.ascontiguousarray(J.reshape(-1, 9).T)
        P = Jt[_ADJ3]  # (4, 9, N)
        adj = P[0] * P[1]
        adj -= P[2] * P[3]
        np.negative(adj[1::2], out=adj[1::2])
        det = Jt[0] * adj[0] + Jt[1] * adj[3] + Jt[2] * adj[6]
        T = adj.reshape(3, 3, -1) * F.reshape(-1, 3).T  # T[k, l] = adj[k, l] F_l
        x = T[:, 0] + T[:, 1]
        x += T[:, 2]
        x /= det
        return x.T.reshape(F.shape)
    return np.linalg.solve(J, F[..., None])[..., 0]


# --- gradient descent --------------------------------------------------------


def gd_system(objective: Objective, schedule: Schedule) -> NonAutonomousSystem:
    """GD maps g_k(x) = x - alpha_k grad f(x) with Jacobian I - alpha_k hess."""

    def map_at(k: int) -> SystemMap:
        alpha = step_size(schedule, k)

        def evaluate(x):
            x = np.asarray(x, dtype=float)
            return x - alpha * np.asarray(objective.grad(x), dtype=float)

        def jacobian(x):
            return np.eye(objective.dim) - alpha * np.asarray(objective.hess(x))

        return SystemMap(evaluate, jacobian)

    return NonAutonomousSystem(map_at, objective.dim)


# --- Riemannian gradient descent on the sphere -------------------------------


def rgd_system(objective: SphereObjective, schedule: Schedule) -> NonAutonomousSystem:
    """RGD maps g_k(x) = R_x(-alpha_k grad f(x)) on the unit sphere."""

    def map_at(k: int) -> SystemMap:
        alpha = step_size(schedule, k)

        def evaluate(x):
            return objective.retraction(x, -alpha * objective.riemannian_grad(x))

        def jacobian(x):
            # ambient differential of w(x)/||w(x)|| with
            # w = x - alpha (grad f - x (x . grad f)), over leading axes
            x = np.asarray(x, dtype=float)
            g = np.asarray(objective.ambient.grad(x), dtype=float)
            H = np.asarray(objective.ambient.hess(x), dtype=float)
            eye = np.eye(objective.dim)
            s = np.sum(x * g, axis=-1)[..., None]
            Hx = (H @ x[..., None])[..., 0]
            Dw = (
                eye
                - alpha * H
                + alpha * (s[..., None] * eye + x[..., :, None] * (g + Hx)[..., None, :])
            )
            w = x - alpha * (g - s * x)
            nw = _row_norms(w)[..., None, None]
            what = w[..., :, None] / nw
            return (eye - what * np.swapaxes(what, -1, -2)) @ Dw / nw

        return SystemMap(evaluate, jacobian)

    return NonAutonomousSystem(map_at, objective.dim)


# --- proximal point ----------------------------------------------------------

_ROUNDING_FLOOR = 8.0 * np.finfo(float).eps  # relative residual floor of z + a grad f(z) - x
PROX_MAX_ITER = 100  # Newton updates before InnerSolveFailed


@functools.lru_cache(maxsize=8)
def _identity(d: int) -> np.ndarray:
    """The d x d identity, built once per dimension and read-only."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def prox_solve(
    objective: Objective,
    alpha: float,
    X: np.ndarray,
    inner_tol: float,
) -> np.ndarray:
    """Solve z + alpha grad f(z) = x by Newton, warm-started at x.

    The Newton matrix I + alpha hess f(z) is positive definite for
    alpha < 1/L, so the iteration is well posed.  Residuals are checked
    before each update, and a row stops updating once its own residual
    meets max(inner_tol, 8 eps ||x||), the rounding floor of the residual
    for large x; so every row of a batch gets the bits it would get
    alone and exact fixed points return their input bitwise.
    """
    X = np.asarray(X, dtype=float)
    Z = X.copy()
    eye = _identity(X.shape[-1])
    tol = np.maximum(inner_tol, _ROUNDING_FLOOR * _row_norms(X))
    for _ in range(PROX_MAX_ITER + 1):
        F = prox_inverse(objective, alpha, Z) - X
        done = _row_norms(F) <= tol
        n_done = np.count_nonzero(done)
        if n_done == done.size:
            return Z
        J = eye + alpha * np.asarray(objective.hess(Z), dtype=float)
        step = solve_small(J, F)
        if n_done:
            step[done] = 0.0
        Z -= step
    raise InnerSolveFailed(
        f"proximal Newton residual above {inner_tol:g} after {PROX_MAX_ITER} steps; "
        "check the declared Lipschitz constant"
    )


def pp_system(
    objective: Objective, schedule: Schedule, inner_tol: float = 1e-12
) -> NonAutonomousSystem:
    """Proximal point maps g_k(x) = argmin_z f(z) + ||z - x||^2 / (2 alpha_k).

    Requires a declared gradient Lipschitz constant and
    sup_k alpha_k < 1/L, which makes every subproblem strongly convex;
    the implicit update solves z + alpha_k grad f(z) = x by Newton.  The
    differential is (I + alpha_k hess f(g_k(x)))^{-1}.
    """
    if objective.lipschitz_L is None:
        raise ValueError("proximal point needs objective.lipschitz_L")
    check_pp_steps(schedule, objective.lipschitz_L)

    def map_at(k: int) -> SystemMap:
        alpha = step_size(schedule, k)

        def evaluate(x):
            return prox_solve(objective, alpha, x, inner_tol)

        def jacobian(x):
            z = prox_solve(objective, alpha, np.asarray(x, dtype=float), inner_tol)
            return np.linalg.inv(
                np.eye(objective.dim) + alpha * np.asarray(objective.hess(z))
            )

        return SystemMap(evaluate, jacobian)

    return NonAutonomousSystem(map_at, objective.dim)


def prox_inverse(objective: Objective, alpha: float, x: np.ndarray) -> np.ndarray:
    """The inverse map u_alpha(x) = x + alpha grad f(x) of the proximal update."""
    x = np.asarray(x, dtype=float)
    return x + alpha * np.asarray(objective.grad(x), dtype=float)


# --- the sphere's exponential chart ------------------------------------------

CHART_RADIUS = math.pi / 2  # half the sphere's injectivity radius
FIXED_POINT_TOL = 1e-10  # how far g_0(base) may lie from base in lift_to_tangent
UNIT_TOL = 1e-10  # how far the norm of a point on the sphere may lie from 1


class OutsideChart(RuntimeError):
    """An iterate of a lifted (tangent-space) system left the chart domain."""


def tangent_basis(base: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the tangent space at base.

    Vectorized over leading axes: (..., d) -> (..., d, d-1), one QR of
    [base | I] per point.
    """
    base = np.asarray(base, dtype=float)
    d = base.shape[-1]
    eye = np.broadcast_to(np.eye(d), base.shape[:-1] + (d, d))
    Q, _ = np.linalg.qr(np.concatenate([base[..., None], eye], axis=-1))
    return Q[..., 1:d]


def sphere_exp(base: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Riemannian exponential at base for ambient tangent vectors v."""
    v = np.asarray(v, dtype=float)
    theta = _row_norms(v)[..., None]
    return np.cos(theta) * base + np.sinc(theta / math.pi) * v


def sphere_log(base: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Riemannian logarithm at base, for p not antipodal to base.

    The angle comes from arctan2, which stays fully accurate near the
    base point where arccos loses half its digits.
    """
    p = np.asarray(p, dtype=float)
    c = np.clip(np.sum(p * base, axis=-1, keepdims=True), -1.0, 1.0)
    w = p - c * base
    nw = _row_norms(w)[..., None]
    theta = np.arctan2(nw, c)
    scale = np.where(nw > 1e-300, theta / np.maximum(nw, 1e-300), 1.0)
    return scale * w


# Power-series coefficients in rho = theta^2, highest degree first, of
# C = cos(theta), S = sin(theta)/theta, T = S'(theta)/theta and
# U = T'(theta)/theta, one column each; 12 terms reach rounding for theta <= 1
_EXP_SERIES = np.array(
    [
        [
            (-1) ** n / math.factorial(2 * n),
            (-1) ** n / math.factorial(2 * n + 1),
            (-1) ** (n + 1) * 2 * (n + 1) / math.factorial(2 * n + 3),
            (-1) ** n * 4 * (n + 1) * (n + 2) / math.factorial(2 * n + 5),
        ]
        for n in range(11, -1, -1)
    ]
)


def _exp_coefficients(rho: np.ndarray) -> np.ndarray:
    """C, S, T, U at points rho = theta^2 of shape (N,), as (N, 4).

    The series serves theta <= 1, where the closed forms lose digits to
    cancellation; the closed forms serve larger theta.
    """
    out = np.vander(rho, len(_EXP_SERIES)) @ _EXP_SERIES
    far = rho > 1.0
    if np.any(far):
        t = np.sqrt(rho[far])
        sin, cos = np.sin(t), np.cos(t)
        out[far] = np.stack(
            [cos, sin / t, (t * cos - sin) / t**3, (3.0 * (sin - t * cos) - t * t * sin) / t**5],
            axis=-1,
        )
    return out


def pullback_hessian(objective: SphereObjective, base: np.ndarray):
    """Exact Hessian of the tangent-chart pullback v -> f(exp_b(Q v)).

    With w = Q v, theta = |w|, S = sin(theta)/theta, T = S'(theta)/theta,
    U = T'(theta)/theta, x = exp_b(w) = cos(theta) b + S w, g = grad f(x),
    H = hess f(x) and Dx = S I - S b w^T + T w w^T, the Hessian is
    Q^T [Dx^T H Dx - (g.b)(S I + T w w^T) + (g.w)(T I + U w w^T)
    + T (w g^T + g w^T)] Q, evaluated in the d - 1 chart coordinates
    (Q^T w = v, Q^T b = 0).  At v = 0 it is the Riemannian Hessian.
    Takes one chart point (k,) or a batch (..., k).
    """
    base = np.asarray(base, dtype=float)
    Q = tangent_basis(base)
    k = base.size - 1
    eye = np.eye(k)

    def hess(V):
        V = np.asarray(V, dtype=float)
        Vb = V.reshape(-1, k)
        C, S, T, U = _exp_coefficients(np.sum(Vb * Vb, axis=-1)).T
        W = Vb @ Q.T
        X = C[:, None] * base + S[:, None] * W
        g = np.asarray(objective.ambient.grad(X), dtype=float)
        H = np.asarray(objective.ambient.hess(X), dtype=float)
        J = S[:, None, None] * Q + (T[:, None] * W - S[:, None] * base)[:, :, None] * Vb[:, None, :]
        gb = g @ base
        gw = np.sum(g * W, axis=-1)
        gv = (T[:, None] * (g @ Q))[:, :, None] * Vb[:, None, :]
        out = (
            np.swapaxes(J, -1, -2) @ H @ J
            + (gw * T - gb * S)[:, None, None] * eye
            + (gw * U - gb * T)[:, None, None] * (Vb[:, :, None] * Vb[:, None, :])
            + gv
            + np.swapaxes(gv, -1, -2)
        )
        return out.reshape(V.shape[:-1] + (k, k))

    return hess


def lift_to_tangent(
    objective: SphereObjective,
    base: np.ndarray,
    system: NonAutonomousSystem,
) -> NonAutonomousSystem:
    """Conjugate a sphere system into tangent coordinates at a fixed point.

    Returns the system v -> log_base(g_k(exp_base(v))) expressed in a
    (d-1)-dimensional orthonormal tangent basis.  base must be fixed by
    the system.  An input beyond CHART_RADIUS, or an image whose
    geodesic distance from base exceeds it, raises OutsideChart, and the
    exception ends any run of the lifted system.
    """
    base = np.asarray(base, dtype=float)
    if abs(np.linalg.norm(base) - 1.0) > UNIT_TOL:
        raise ValueError("base must be a unit vector")
    probe = np.asarray(system.map_at(0).evaluate(base))
    if np.linalg.norm(probe - base) > FIXED_POINT_TOL:
        raise ValueError("base is not a fixed point of the system")
    Q = tangent_basis(base)

    def map_at(k: int) -> SystemMap:
        inner = system.map_at(k)

        def evaluate(vc):
            vc = np.asarray(vc, dtype=float)
            vn = _row_norms(vc)
            if np.any(vn > CHART_RADIUS):
                raise OutsideChart("input left the tangent chart")
            p = sphere_exp(base, vc @ Q.T)
            p1 = np.asarray(inner.evaluate(p), dtype=float)
            # distance check via arctan2 (well-conditioned near the base)
            c1 = np.clip(np.sum(p1 * base, axis=-1), -1.0, 1.0)
            s1 = _row_norms(p1 - c1[..., None] * base)
            if np.any(np.arctan2(s1, c1) > CHART_RADIUS + 1e-12):
                raise OutsideChart("iterate left the tangent chart")
            return sphere_log(base, p1) @ Q

        return SystemMap(evaluate)

    return NonAutonomousSystem(map_at, objective.dim - 1)
