"""Discretized graph transform on spaces of Lipschitz graphs.

Candidate invariant sets are graphs of functions phi: E_cs -> E_u with
phi(0) = 0 and Lip(phi) <= 1, discretized on a regular lattice with
multilinear interpolation.  A pseudo-hyperbolic pair is held in the
splitting coordinates (y, z) of those graphs, as its linear blocks
A_cs, A_u and a remainder, so g(y, z) = (A_cs y + r_cs, A_u z + r_u).
The transform Gamma maps phi to the function whose graph g carries into
graph(phi); its value at y is the fixed point of a contraction on E_u,
z <- A_u^{-1} (phi(A_cs y + r_cs(y, z)) - r_u(y, z)).
Iterating the transforms of a non-autonomous sequence right-to-left from
the zero function builds the center-stable graphs, and the potential
V_phi(x) = ||p_u(x) - phi(p_cs(x))|| certifies that off-graph points are
expelled at rate mu - 2 eps > 1.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dynsys import Splitting, SystemMap, _row_norms

MAX_FACTOR_DIM = 2  # function-space iteration is exponential in dim(E_cs)
DEFAULT_RADIUS = 1.0
DEFAULT_DELTA = 1.0 / 64.0
LIP_GRID_TOL = 1e-8
FIXED_POINT_MAX_ITER = 10_000  # auxiliary-map iterations before NoContraction
CONSISTENCY_NODES = 32  # nodes re-solved by verify_graph_invariance


class NoContraction(RuntimeError):
    """The auxiliary fixed-point iteration failed to contract."""


class IncompatibleSplitting(ValueError):
    """Pairs in a composition do not share one splitting."""


class _InterpWork:
    """The arrays one interpolation of N points writes into."""

    def __init__(self, m: int, n: int, N: int):
        self.N = N
        self.frac = np.empty((m, N))
        self.lower = np.empty((m, N))  # floor(frac), then 1 - frac
        self.idx = np.empty((m, N), dtype=int)
        self.out = np.empty((N, n))
        self.weight = np.empty(N)
        self.gathered = np.empty(N)
        self.nodes = np.empty(N, dtype=int)


class GraphFunction:
    """A function E_cs -> E_u sampled on a regular lattice.

    The lattice covers [-radius, radius]^m with spacing delta (radius
    must be an integer multiple of delta so the origin is a node);
    values holds one E_u vector per node.  Evaluation is multilinear
    between nodes and clamps each coordinate to the box outside it,
    which extends the function with zero slope and so preserves the
    Lipschitz bound.  values keeps the shape (npts,)*m + (n,) and may be
    written after construction; evaluation reads it afresh on every call
    through its flat C-order buffer, where node i's E_u vector is the
    run of n entries at n*i.
    """

    _work: Optional[_InterpWork] = None  # set by with_work

    def __init__(
        self,
        m: int,
        n: int,
        radius: float = DEFAULT_RADIUS,
        delta: float = DEFAULT_DELTA,
        values: Optional[np.ndarray] = None,
    ):
        if not (1 <= m <= MAX_FACTOR_DIM and 1 <= n <= MAX_FACTOR_DIM):
            raise ValueError(f"factor dims must be in [1, {MAX_FACTOR_DIM}]")
        if not (math.isfinite(delta) and delta > 0):
            raise ValueError("delta must be positive and finite")
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError("radius must be positive and finite")
        steps = radius / delta
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("radius must be an integer multiple of delta")
        self.m, self.n = m, n
        self.radius = float(radius)
        self.delta = float(delta)
        self.npts = 2 * int(round(steps)) + 1
        self.axis = (np.arange(self.npts) - self.npts // 2) * self.delta
        shape = (self.npts,) * m + (n,)
        if values is None:
            self.values = np.zeros(shape)
        else:
            values = np.asarray(values, dtype=float)
            if values.shape != shape:
                raise ValueError(f"values must have shape {shape}")
            self.values = values

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, m: int, n: int, radius=DEFAULT_RADIUS, delta=DEFAULT_DELTA):
        return cls(m, n, radius, delta)

    @classmethod
    def from_callable(cls, fn, m, n, radius=DEFAULT_RADIUS, delta=DEFAULT_DELTA):
        g = cls(m, n, radius, delta)
        vals = np.asarray(fn(g.node_coords()), dtype=float)
        g.values = vals.reshape(g.values.shape)
        return g

    def like(self, values: np.ndarray) -> "GraphFunction":
        return GraphFunction(self.m, self.n, self.radius, self.delta, values)

    # -- geometry --------------------------------------------------------------

    def node_coords(self) -> np.ndarray:
        """All lattice nodes as an (npts^m, m) array."""
        grids = np.meshgrid(*([self.axis] * self.m), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def nodal_values(self) -> np.ndarray:
        return self.values.reshape(-1, self.n)

    @property
    def origin_index(self) -> tuple:
        return (self.npts // 2,) * self.m

    def with_work(self, N: int) -> "GraphFunction":
        """This function, with interpolation work arrays for N points.

        The copy shares values, and each of its calls on N points writes
        into the same arrays, its result included, so a call overwrites
        the result of the one before.  It serves callers that use each
        result before the next call, such as the sweeps of one
        fixed-point solve; other point counts get fresh arrays.
        """
        out = self.like(self.values)
        out._work = _InterpWork(self.m, self.n, N)
        return out

    def __call__(self, y: np.ndarray) -> np.ndarray:
        """Clamped multilinear interpolation; (..., m) -> (..., n).

        Evaluated as a stencil on the flat values buffer: a point's 2^m
        corner nodes sit at fixed offsets from its flat base index, and
        component k of node i is entry n*i + k, so each corner is one
        np.take per E_u component and every pass runs over arrays with
        one entry per point.  The arithmetic is the per-node formula's
        in the same order: a corner's weight is the product of the
        per-axis factors 1 - frac and frac in axis order, and corners
        are added, in itertools.product order, to a zero start.
        """
        y = np.asarray(y, dtype=float)
        scalar_in = y.ndim == 1
        m, n = self.m, self.n
        points = y.reshape(-1, m)
        N = len(points)
        work = self._work
        if work is None or work.N != N:
            work = _InterpWork(m, n, N)
        frac, lower, idx = work.frac, work.lower, work.idx  # (m, N): one row per axis
        np.copyto(frac, points.T)
        np.clip(frac, -self.radius, self.radius, out=frac)
        frac += self.radius
        frac /= self.delta
        np.copyto(idx, np.floor(frac, out=lower), casting="unsafe")
        np.clip(idx, 0, self.npts - 2, out=idx)
        frac -= idx
        factors = (np.subtract(1.0, frac, out=lower), frac)
        base = idx[0]  # becomes n * (flat index of the lowest corner)
        for j in range(1, m):
            base *= self.npts
            base += idx[j]
        base *= n
        flat = self.values.reshape(-1)
        out = work.out
        out.fill(0.0)
        weight, gathered, nodes = work.weight, work.gathered, work.nodes
        for corner in itertools.product((0, 1), repeat=m):
            w = factors[corner[0]][0]
            offset = corner[0]
            for j in range(1, m):
                w = np.multiply(w, factors[corner[j]][j], out=weight)
                offset = offset * self.npts + corner[j]
            for k in range(n):
                shift = offset * n + k
                ix = np.add(base, shift, out=nodes) if shift else base
                # ix is in range by construction; mode="clip" lets np.take
                # write straight into `gathered`
                np.take(flat, ix, out=gathered, mode="clip")
                np.multiply(w, gathered, out=gathered)
                out[:, k] += gathered
        return out[0] if scalar_in else out.reshape(y.shape[:-1] + (n,))

    # -- invariants ------------------------------------------------------------

    def lipschitz_upper(self) -> float:
        """Max slope between axis-adjacent nodes (grid surrogate of Lip)."""
        worst = 0.0
        for ax in range(self.m):
            d = np.diff(self.values, axis=ax)
            worst = max(worst, float(np.max(_row_norms(d))) / self.delta)
        return worst

    def validate(self) -> None:
        origin = self.values[self.origin_index]
        if np.any(origin != 0.0):
            raise ValueError("value at the origin node must be exactly zero")
        lip = self.lipschitz_upper()
        if lip > 1.0 + LIP_GRID_TOL:
            raise ValueError(f"adjacent-node Lipschitz bound violated: {lip}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "dims": [self.m, self.n],
                "R": self.radius,
                "delta": self.delta,
                "values": self.values.tolist(),
            },
            sort_keys=True,
        )


def function_norm(phi: GraphFunction) -> float:
    """max over non-origin nodes of ||phi(y)|| / ||y||.

    A grid surrogate of the sup over all y != 0 (a lower bound; exact
    for piecewise-linear data in one dimension).
    """
    Y = phi.node_coords()
    V = phi.nodal_values()
    ny = _row_norms(Y)
    keep = ny > 0
    return float(np.max(_row_norms(V[keep]) / ny[keep]))


@dataclass(frozen=True)
class PHPair:
    """A pseudo-hyperbolic pair in splitting coordinates.

    The map is g(y, z) = (A_cs y + r_cs(y, z), A_u z + r_u(y, z)) for
    y in E_cs and z in E_u: its linear part T = diag(A_cs, A_u) is
    mu-expanding on E_u and lam-non-expanding on E_cs, and the
    remainder (Y, Z) -> (R_cs, R_u) must be eps-Lipschitz with
    eps < (mu - lam)/4 in the splitting max-norm.  remainder is None
    for a linear pair.
    """

    splitting: Splitting
    A_cs: np.ndarray
    A_u: np.ndarray
    mu: float
    lam: float
    eps: float
    remainder: Optional[Callable] = None

    def __post_init__(self):
        m, n = self.splitting.dim_cs, self.splitting.dim_u
        A_cs = np.asarray(self.A_cs, dtype=float)
        A_u = np.asarray(self.A_u, dtype=float)
        if A_cs.shape != (m, m) or A_u.shape != (n, n):
            raise ValueError(f"need A_cs of shape {(m, m)} and A_u of shape {(n, n)}")
        object.__setattr__(self, "A_cs", A_cs)
        object.__setattr__(self, "A_u", A_u)
        su = np.linalg.svd(A_u, compute_uv=False)
        if su.min() < self.mu - 1e-10:
            raise ValueError(
                f"A_u not mu-expanding: sigma_min = {su.min():.6g} < mu = {self.mu}"
            )
        if A_cs.size:
            scs = np.linalg.svd(A_cs, compute_uv=False)
            if scs.max() > self.lam + 1e-10:
                raise ValueError(f"A_cs not lam-bounded: sigma_max = {scs.max():.6g}")
        if not (self.eps > 0 and self.eps < (self.mu - self.lam) / 4.0):
            raise ValueError("need 0 < eps < (mu - lam)/4")
        object.__setattr__(self, "_A_u_inv", np.linalg.inv(A_u))

    @property
    def m(self) -> int:
        return self.splitting.dim_cs

    @property
    def n(self) -> int:
        return self.splitting.dim_u

    def step(self, Y: np.ndarray, Z: np.ndarray) -> tuple:
        """g in coordinates: (Y, Z) -> (A_cs Y + R_cs, A_u Z + R_u)."""
        GY, GZ = Y @ self.A_cs.T, Z @ self.A_u.T
        if self.remainder is not None:
            R_cs, R_u = self.remainder(Y, Z)
            GY += R_cs
            GZ += R_u
        return GY, GZ

    @property
    def g(self) -> SystemMap:
        """The ambient map x -> embed(step(p_cs x, p_u x))."""
        sp = self.splitting
        return SystemMap(lambda x: sp.embed(*self.step(sp.coords_cs(x), sp.coords_u(x))))

    def contraction_factor(self) -> float:
        """Lipschitz bound 2 eps / mu of the auxiliary map in z."""
        return 2.0 * self.eps / self.mu

    def gamma_lipschitz(self) -> float:
        """Contraction factor (lam + eps)/(mu - 2 eps) of the transform."""
        return (self.lam + self.eps) / (self.mu - 2.0 * self.eps)

    def graph_lip_bound(self) -> float:
        """Lipschitz bound (lam + 2 eps)/(mu - 2 eps) of transformed graphs."""
        return (self.lam + 2.0 * self.eps) / (self.mu - 2.0 * self.eps)


def _aux_rhs(
    pair: PHPair, phi: Callable, Y: np.ndarray, AY: np.ndarray, Z: np.ndarray
) -> np.ndarray:
    """One sweep z <- A_u^{-1} (phi(A_cs y + r_cs(y, z)) - r_u(y, z)).

    AY is Y @ A_cs.T, which does not change between sweeps.
    """
    if pair.remainder is None:
        return np.asarray(phi(AY)) @ pair._A_u_inv.T
    R_cs, R_u = pair.remainder(Y, Z)
    rhs = np.asarray(phi(AY + R_cs))
    rhs -= R_u
    return rhs @ pair._A_u_inv.T


def _solve_fixed_points(
    pair: PHPair,
    phi: GraphFunction,
    Y: np.ndarray,
    tol: float,
    ratio_sink: Optional[list] = None,
) -> np.ndarray:
    """Fixed points of the auxiliary maps at each row of Y, from z = 0.

    The contraction factor 2 eps / mu < 1 guarantees geometric
    convergence; successive-step ratios above 1 (measured away from the
    floating-point noise floor) raise NoContraction.  Every sweep
    interpolates phi into the same work arrays.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    phi = phi.with_work(len(Y))
    AY = Y @ pair.A_cs.T
    Z = np.zeros((len(Y), pair.n))
    prev_step = None
    floor = max(10.0 * tol, 1e-12)
    for it in range(FIXED_POINT_MAX_ITER):
        Znew = _aux_rhs(pair, phi, Y, AY, Z)
        step = _row_norms(Znew - Z)
        if prev_step is not None:
            mask = prev_step > floor
            if np.any(mask):
                ratios = step[mask] / prev_step[mask]
                worst = float(np.max(ratios))
                if ratio_sink is not None:
                    ratio_sink.append(worst)
                if worst > 1.0:
                    raise NoContraction(
                        f"successive-step ratio {worst:.6g} exceeds 1; "
                        "the pseudo-hyperbolicity certificate is violated"
                    )
        prev_step = step
        Z = Znew
        if float(np.max(step)) <= tol:
            return Z
    raise NoContraction(f"no convergence within {FIXED_POINT_MAX_ITER} iterations")


def graph_transform(
    pair: PHPair,
    phi: GraphFunction,
    tol: float,
    ratio_sink: Optional[list] = None,
) -> GraphFunction:
    """Apply the transform of the pair to phi, node by node.

    Returns the lattice sampling of Gamma(phi).  The result is checked
    against the graph-class invariants and against the Lipschitz bound
    (lam + 2 eps)/(mu - 2 eps) plus the nodal solve slack.
    """
    phi.validate()
    if (phi.m, phi.n) != (pair.m, pair.n):
        raise ValueError("graph dims do not match the pair's splitting")
    Y = phi.node_coords()
    Z = _solve_fixed_points(pair, phi, Y, tol, ratio_sink=ratio_sink)
    values = Z.reshape(phi.values.shape)
    origin = values[phi.origin_index]
    if np.linalg.norm(origin) > max(10.0 * tol, 1e-12):
        raise NoContraction(
            f"origin fixed point {origin} is non-zero: the map does not fix 0"
        )
    values[phi.origin_index] = 0.0
    out = phi.like(values)
    slack = 2.0 * tol / phi.delta + 1e-10
    lip = out.lipschitz_upper()
    if lip > pair.graph_lip_bound() + slack:
        raise NoContraction(
            f"transformed graph slope {lip:.8g} exceeds the bound "
            f"{pair.graph_lip_bound():.8g} (+ solve slack)"
        )
    out.validate()
    return out


def compose_phi(
    pairs: Sequence[PHPair],
    tol: float,
    radius: float = DEFAULT_RADIUS,
    delta: float = DEFAULT_DELTA,
) -> list:
    """Composed transforms of the zero function, applied right to left.

    With pairs = (p_kbar, ..., p_kend), returns the chain whose j-th
    entry is the composition starting at pair j, so chain[0] is
    Gamma_kbar(... Gamma_kend(zero function) ...) and consecutive entries
    satisfy chain[j] = Gamma_j(chain[j+1]), the graph-invariance chain.
    All pairs must share one splitting.
    """
    if len(pairs) == 0:
        raise ValueError("need at least one pair")
    ref = pairs[0].splitting
    for p in pairs[1:]:
        if (
            p.splitting.basis_cs.shape != ref.basis_cs.shape
            or not np.allclose(p.splitting.basis_cs, ref.basis_cs, atol=1e-12)
            or not np.allclose(p.splitting.basis_u, ref.basis_u, atol=1e-12)
        ):
            raise IncompatibleSplitting(
                "pairs must be jointly pseudo-hyperbolic on one splitting"
            )
    phi = GraphFunction.zero(pairs[0].m, pairs[0].n, radius, delta)
    chain = []
    for pair in reversed(pairs):
        phi = graph_transform(pair, phi, tol)
        chain.append(phi)
    chain.reverse()
    return chain


@dataclass
class PotentialGrowthReport:
    samples: int
    factor: float  # mu - 2 eps
    slack: float
    min_ratio: float
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        return json.dumps(
            {
                "samples": self.samples,
                "factor": self.factor,
                "slack": self.slack,
                "min_ratio": self.min_ratio,
                "violations": self.violations,
            },
            sort_keys=True,
        )


def verify_potential_growth(
    pair: PHPair,
    phi: GraphFunction,
    samples: int,
    tol: float = 1e-9,
    seed: int = 0,
) -> PotentialGrowthReport:
    """Check V_phi(g(x)) >= (mu - 2 eps) V_{Gamma phi}(x) on random points.

    The slack delta*(1 + Lip) + tol accounts for storing Gamma(phi) on
    the lattice (interpolation between nodes plus the nodal solve
    tolerance); violations beyond it are reported, not raised.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    gphi = graph_transform(pair, phi, tol)
    rng = np.random.default_rng(seed)
    Y = rng.uniform(-phi.radius, phi.radius, size=(samples, phi.m))
    Z = rng.uniform(-phi.radius, phi.radius, size=(samples, phi.n))
    GY, GZ = pair.step(Y, Z)
    lhs = _row_norms(GZ - phi(GY))
    rhs = _row_norms(Z - gphi(Y))
    factor = pair.mu - 2.0 * pair.eps
    slack = phi.delta * 2.0 + tol  # delta * (1 + Lip), Lip <= 1 on the class
    bad = np.flatnonzero(lhs < factor * rhs - slack)
    X = pair.splitting.embed(Y[bad], Z[bad])
    violations = [
        {"x": x.tolist(), "lhs": float(lhs[i]), "rhs": float(factor * rhs[i])}
        for x, i in zip(X, bad)
    ]
    meaningful = rhs > slack
    min_ratio = (
        float(np.min(lhs[meaningful] / rhs[meaningful]))
        if np.any(meaningful)
        else math.inf
    )
    return PotentialGrowthReport(
        samples=samples,
        factor=factor,
        slack=slack,
        min_ratio=min_ratio,
        violations=violations,
    )


def verify_graph_invariance(
    pair_k: PHPair,
    phi_k: GraphFunction,
    phi_k1: GraphFunction,
    samples: int,
    tol: float = 1e-9,
    seed: int = 0,
) -> float:
    """Residual of g_k(graph(phi_k)) lying inside graph(phi_{k+1}).

    phi_k must be the transform of phi_{k+1} under pair_k (re-solved on
    CONSISTENCY_NODES sampled nodes, which may drift from phi_k by at
    most max(100 tol, 1e-8)).  Returns the sup over sampled y of
    ||p_u(g(y, phi_k(y))) - phi_{k+1}(p_cs(g(y, phi_k(y))))||.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    nodes = phi_k.node_coords()
    pick = rng.choice(len(nodes), size=min(CONSISTENCY_NODES, len(nodes)), replace=False)
    resolved = _solve_fixed_points(pair_k, phi_k1, nodes[pick], tol)
    drift = np.max(_row_norms(resolved - phi_k.nodal_values()[pick]))
    if drift > max(100 * tol, 1e-8):
        raise ValueError(
            f"phi_k is not the graph transform of phi_k1 (nodal drift {drift:.3e})"
        )
    Y = rng.uniform(-phi_k.radius, phi_k.radius, size=(samples, phi_k.m))
    GY, GZ = pair_k.step(Y, phi_k(Y))
    return float(np.max(_row_norms(GZ - phi_k1(GY))))
