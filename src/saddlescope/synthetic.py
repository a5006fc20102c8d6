"""Factories for pseudo-hyperbolic pairs and graph-class members.

Used by the verification harness and the CLI presets: randomized pairs
with analytically certified constants (the remainders are sums of sine
waves whose global Lipschitz constant in the splitting max-norm is known
in closed form), plus the two hand-built 2-d chains.  Every pair is
built in splitting coordinates, as its blocks A_cs, A_u and a remainder.
"""

from __future__ import annotations

import numpy as np

from .dynsys import Splitting
from .graphtransform import GraphFunction, PHPair
from .phcert import globalize

# random_ph_pair draws lam, mu - lam and eps / ((mu - lam)/4) uniformly
# from these ranges; the sine perturbation's Lipschitz constant is
# PAIR_NONLINEARITY * eps
PAIR_LAM_RANGE = (1.0, 1.3)
PAIR_GAP_RANGE = (0.5, 1.2)
PAIR_EPS_FRACTION = (0.2, 0.8)
PAIR_NONLINEARITY = 0.9
QUADRATIC_COEFF = 0.01  # coefficient of the quadratic terms of perturbed_quadratic_pair
F1_GRAPH_LIP = 0.85  # true Lipschitz constant of random_f1_graph's members


def random_ph_pair(rng: np.random.Generator, m: int, n: int) -> PHPair:
    """A random globally pseudo-hyperbolic pair with certified constants.

    The blocks in a random orthogonal splitting have singular values
    inside [lam/3, lam] on E_cs and [mu, 1.3 mu] on E_u; eps is drawn
    strictly below (mu - lam)/4 and the sine remainder is normalized so
    its exact global Lipschitz constant (max-norm) is
    PAIR_NONLINEARITY * eps < eps.
    """
    d = m + n
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    splitting = Splitting.from_columns(Q[:, :m], Q[:, m:])

    lam = float(rng.uniform(*PAIR_LAM_RANGE))
    mu = lam + float(rng.uniform(*PAIR_GAP_RANGE))
    eps = float(rng.uniform(*PAIR_EPS_FRACTION)) * (mu - lam) / 4.0

    def random_block(k, smin, smax):
        U, _ = np.linalg.qr(rng.standard_normal((k, k)))
        V, _ = np.linalg.qr(rng.standard_normal((k, k)))
        s = rng.uniform(smin, smax, size=k)
        return U @ np.diag(s) @ V.T

    C = random_block(m, lam / 3.0, lam)
    Uu = random_block(n, mu, 1.3 * mu)

    # remainder sum_i a_i w_i sin(v_i . (y, z)), with w_i and v_i drawn
    # as ambient vectors and held in coordinates; Lip in the max-norm is
    # exactly sum_i a_i after normalizing w_i to unit max-norm and v_i
    # to unit dual norm ||v_cs|| + ||v_u||
    terms = []
    budget = PAIR_NONLINEARITY * eps
    weights = rng.dirichlet(np.ones(2)) * budget
    for a in weights:
        w = rng.standard_normal(d)
        w_cs, w_u = splitting.coords_cs(w), splitting.coords_u(w)
        w_scale = max(np.linalg.norm(w_cs), np.linalg.norm(w_u))
        v = rng.standard_normal(d)
        v_cs, v_u = splitting.coords_cs(v), splitting.coords_u(v)
        v_scale = np.linalg.norm(v_cs) + np.linalg.norm(v_u)
        terms.append((float(a), w_cs / w_scale, w_u / w_scale, v_cs / v_scale, v_u / v_scale))

    def remainder(Y, Z):
        R_cs, R_u = np.zeros(np.shape(Y)), np.zeros(np.shape(Z))
        # s and t hold every per-point intermediate, in place of a fresh
        # array for each; s is a * sin(Y v_cs + Z v_u)
        s, t = np.empty(np.shape(Y)[:-1]), np.empty(np.shape(Y)[:-1])
        for a, w_cs, w_u, v_cs, v_u in terms:
            np.matmul(Y, v_cs, out=s)
            s += np.matmul(Z, v_u, out=t)
            np.sin(s, out=s)
            s *= a
            # one pass per component: a broadcast over the short last
            # axis is numpy's slow path; each product is the same
            for R, w in ((R_cs, w_cs), (R_u, w_u)):
                for j, wj in enumerate(w):
                    R[..., j] += np.multiply(s, wj, out=t)
        return R_cs, R_u

    return PHPair(splitting, C, Uu, mu=mu, lam=lam, eps=eps, remainder=remainder)


def random_f1_graph(
    rng: np.random.Generator,
    m: int,
    n: int,
    radius: float = 1.0,
    delta: float = 1.0 / 64.0,
) -> GraphFunction:
    """A smooth random graph-class member with true Lipschitz <= F1_GRAPH_LIP.

    phi(y) = C tanh(W y) scaled so ||C|| ||W|| = F1_GRAPH_LIP; smoothness keeps
    the lattice sampling a faithful member of the class (the interpolant
    inherits the bound up to curvature * delta).
    """
    W = rng.standard_normal((m, m)) + np.eye(m)
    C = rng.standard_normal((n, m))
    scale = F1_GRAPH_LIP / (np.linalg.norm(C, 2) * np.linalg.norm(W, 2))
    C = C * scale

    def fn(y):
        return np.tanh(np.asarray(y) @ W.T) @ C.T

    g = GraphFunction.from_callable(fn, m, n, radius, delta)
    g.values[g.origin_index] = 0.0  # tanh(0) = 0; pin it bitwise
    return g


def axes_splitting_2d() -> Splitting:
    return Splitting([np.array([1.0, 0.0])], [np.array([0.0, 1.0])])


def split_diagonal_pair(lam: float = 1.0, mu: float = 2.0, eps: float = 0.1) -> PHPair:
    """The linear 1-d/1-d pair g = T = diag(lam, mu) on the axes splitting."""
    return PHPair(axes_splitting_2d(), [[lam]], [[mu]], mu=mu, lam=lam, eps=eps)


def perturbed_quadratic_pair(eps: float = 0.08) -> PHPair:
    """Globalized quadratic perturbation of diag(1, 2) in the plane.

    With c = QUADRATIC_COEFF the raw remainder r(y, z) = (c z^2, c y^2)
    has Lip(r|B_r) = 2 c r in the max-norm, so choosing
    r = eps / (8 c) meets the local eps/4 budget; the bump blend
    then makes the pair globally pseudo-hyperbolic with constant eps.
    """
    splitting = axes_splitting_2d()

    def raw(x):  # on the axes splitting a point is its coordinates (y, z)
        x = np.asarray(x, dtype=float)
        return QUADRATIC_COEFF * np.stack([x[..., 1] ** 2, x[..., 0] ** 2], axis=-1)

    blended = globalize(
        raw, r=eps / (8.0 * QUADRATIC_COEFF), eps_budget=eps, splitting=splitting
    )

    def remainder(Y, Z):
        R = blended(np.concatenate([Y, Z], axis=-1))
        return R[..., :1], R[..., 1:]

    return PHPair(splitting, [[1.0]], [[2.0]], mu=2.0, lam=1.0, eps=eps, remainder=remainder)
