"""Pseudo-hyperbolicity certification for step-size driven systems.

Certifies that a strict saddle is a non-uniformly pseudo-hyperbolic (NPH)
unstable fixed point for a given step-size schedule: eigensplitting,
per-step constants (mu_k, lambda_k, eps_k), the admissibility partition,
non-summability classification, a sampled local Lipschitz radius, and
bump-function globalization of locally-controlled remainders.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dynsys import Splitting, _row_norms

LIPSCHITZ_SEED = 0x5ADD1E
ADMISSIBLE_HORIZON = 100_000  # explicit lists are checked over this prefix
NONSUMMABLE_THRESHOLD = 1e3  # partial sum that counts an explicit list as divergent
NONSUMMABLE_HORIZON = 1_000_000  # explicit-list prefix summed for that test
RADIUS_SAMPLES = 512  # Sobol points per candidate radius (plus the axis endpoints)
RADIUS_LEVELS = 64  # bisection levels of the radius search
GLOBALIZE_PAIRS = 4096  # sampled point pairs per Lipschitz check in globalize
GLOBALIZE_CHECK_FACTOR = 2.0  # the global check samples B_{factor r}


class InvalidParameter(ValueError):
    pass


class NotAdmissible(Exception):
    """Admissibility check failed; the message names the violation."""


class RadiusNotFound(RuntimeError):
    pass


class CertificateFailure(Exception):
    """A certificate inequality failed; the message names it."""


class StepTooLarge(CertificateFailure):
    pass


class BudgetViolated(RuntimeError):
    pass


# --- step-size schedules ----------------------------------------------------

FAMILIES = ("constant", "polynomial", "cosine", "explicit_list")


@dataclass(frozen=True)
class Schedule:
    """A deterministic step-size sequence alpha_0, alpha_1, ...

    Families: constant (alpha_k = alpha0), polynomial
    (alpha_k = alpha0/(k+1)^gamma), cosine
    (alpha_k = alpha0/(k+1)^gamma * (1 + cos(pi (k+1/2)/(2T+1)))),
    explicit_list (user-supplied values).  For every family alpha_0 is
    the given alpha0; the family formula applies from k = 1 on.

    Construction accepts any gamma > 0 so that super-harmonic decay can
    be classified by classify_nonsummable; evaluating steps of a
    polynomial/cosine schedule with gamma outside (0, 1] raises
    InvalidParameter (the avoidance results need gamma in (0, 1]).
    """

    family: str
    alpha0: float
    gamma: Optional[float] = None
    T: Optional[int] = None
    values: Optional[tuple] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidParameter(f"unknown schedule family {self.family!r}")
        if self.family != "explicit_list" and not 0 < self.alpha0 < math.inf:
            raise InvalidParameter("alpha0 must be finite and positive")
        if self.family in ("polynomial", "cosine"):
            if self.gamma is None or not self.gamma > 0:
                raise InvalidParameter("polynomial/cosine schedules need gamma > 0")
        if self.family == "cosine":
            if self.T is None or self.T < 0 or int(self.T) != self.T:
                raise InvalidParameter("cosine schedules need integer T >= 0")
        if self.family == "explicit_list":
            if self.values is None or len(self.values) == 0:
                raise InvalidParameter("explicit_list schedules need values")
            vals = np.asarray(self.values, dtype=float)
            if not np.all((vals > 0) & (vals < math.inf)):
                raise InvalidParameter("explicit step sizes must be finite and positive")
            object.__setattr__(self, "values", tuple(float(v) for v in vals))
            object.__setattr__(self, "alpha0", float(vals[0]))

    def describe(self) -> str:
        if self.family == "constant":
            return f"const:{self.alpha0:g}"
        if self.family == "polynomial":
            return f"poly:{self.gamma:g}:{self.alpha0:g}"
        if self.family == "cosine":
            return f"cos:{self.gamma:g}:{self.T}:{self.alpha0:g}"
        return f"list:[{len(self.values)} values]"


def constant_schedule(alpha0: float) -> Schedule:
    return Schedule("constant", alpha0)


def polynomial_schedule(alpha0: float, gamma: float) -> Schedule:
    return Schedule("polynomial", alpha0, gamma=gamma)


def cosine_schedule(alpha0: float, gamma: float, T: int) -> Schedule:
    return Schedule("cosine", alpha0, gamma=gamma, T=T)


def explicit_schedule(values: Sequence[float]) -> Schedule:
    # __post_init__ checks the values and sets alpha0 to the first one
    return Schedule("explicit_list", math.nan, values=tuple(values))


def _check_gamma_range(schedule: Schedule) -> None:
    if schedule.family in ("polynomial", "cosine") and not (0 < schedule.gamma <= 1):
        raise InvalidParameter(
            f"gamma={schedule.gamma} outside (0, 1] for {schedule.family} schedule"
        )


def step_size(schedule: Schedule, k: int) -> float:
    """alpha_k of the schedule.  k = 0 returns alpha0 for every family."""
    if k < 0:
        raise InvalidParameter("step index must be >= 0")
    if schedule.family == "explicit_list":
        if k >= len(schedule.values):
            raise InvalidParameter(f"explicit schedule exhausted at k={k}")
        return schedule.values[k]
    if k == 0:
        return schedule.alpha0
    if schedule.family == "constant":
        return schedule.alpha0
    _check_gamma_range(schedule)
    base = schedule.alpha0 / (k + 1) ** schedule.gamma
    if schedule.family == "polynomial":
        return base
    return base * (1.0 + math.cos(math.pi * (k + 0.5) / (2 * schedule.T + 1)))


def _step_list(schedule: Schedule) -> Optional[tuple]:
    """The steps as a list: an explicit list's values, and a constant
    schedule as the one-value list (alpha0,); None for vanishing steps."""
    if schedule.family == "constant":
        return (schedule.alpha0,)
    return schedule.values


def schedule_sup(schedule: Schedule) -> float:
    """sup_k alpha_k, exact for the closed-form families."""
    steps = _step_list(schedule)
    if steps is not None:
        return float(max(steps))
    _check_gamma_range(schedule)
    if schedule.family == "polynomial":
        return schedule.alpha0  # alpha0 / (k+1)^gamma decreases
    # envelope alpha0 * 2 / (k+1)^gamma decays below any current max;
    # alpha_k decreases along each residue class mod 4T + 2 from its
    # first member in k >= 1, so no later k can raise the max
    best = schedule.alpha0
    k = 1
    while k <= 4 * schedule.T + 2 and 2.0 * schedule.alpha0 / (k + 1) ** schedule.gamma > best:
        best = max(best, step_size(schedule, k))
        k += 1
    return best


def check_pp_steps(schedule: Schedule, L: float) -> float:
    """sup_k alpha_k, after checking the proximal point bound sup alpha_k < 1/L.

    Raises StepTooLarge when the bound fails.
    """
    sup = schedule_sup(schedule)
    if sup >= 1.0 / L:
        raise StepTooLarge(f"sup alpha_k = {sup:g} is not below 1/L = {1.0 / L:g}")
    return sup


# --- admissibility ----------------------------------------------------------


def _first_at_most(alpha: Callable[[int], float], guess: float, bound: float) -> int:
    """The smallest m >= 0 with alpha(m) <= bound, for alpha decreasing in m.

    Starts from a closed-form guess and corrects it by galloping and
    bisection over alpha comparisons, so an inexact guess costs O(log)
    evaluations, also where alpha is flat in floating point.
    """
    hi = max(0, math.ceil(guess))
    if alpha(hi) <= bound:
        lo, step = hi - 1, 1
        while lo >= 0 and alpha(lo) <= bound:
            hi, step = lo, 2 * step
            lo = hi - step
        lo = max(lo, -1)  # alpha(lo) > bound, or lo = -1
    else:
        lo, step = hi, 1
        hi = lo + step
        while alpha(hi) > bound:
            lo, step = hi, 2 * step
            hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if alpha(mid) <= bound:
            hi = mid
        else:
            lo = mid
    return hi


def _admissible_K(schedule: Schedule, bound: float) -> int:
    """1 + the last k with alpha_k > bound (0 if none), for a vanishing schedule.

    Polynomial steps decrease, so K is the first k with alpha_k <= bound.
    The cosine factor has period P = 4T + 2 in k, so for k >= 1 alpha_k
    decreases along each residue class mod P, whose first member s is
    one of 1..P.  Each class's first k_s = s + m P with alpha <= bound
    has a closed form, corrected with step_size comparisons, and
    K = max(alpha_0 > bound, max_s (k_s - P + 1)).  Only classes that
    start before the envelope 2 alpha0 / (k+1)^gamma falls to the bound
    can exceed it.  Raises OverflowError when a crossing lies beyond the
    float range.
    """
    a0, g = schedule.alpha0, schedule.gamma
    if schedule.family == "polynomial":
        return _first_at_most(
            lambda k: step_size(schedule, k), (a0 / bound) ** (1.0 / g) - 1, bound
        )
    P = 4 * schedule.T + 2
    try:
        k_env = _first_at_most(
            lambda k: 2.0 * a0 / (k + 1) ** g, (2.0 * a0 / bound) ** (1.0 / g) - 1, bound
        )
    except OverflowError:  # every class starts before the envelope's crossing
        k_env = P + 1
    K = 1 if a0 > bound else 0
    for s in range(1, min(P, k_env - 1) + 1):
        f = 1.0 + math.cos(math.pi * (s + 0.5) / (2 * schedule.T + 1))
        guess = ((a0 * f / bound) ** (1.0 / g) - 1 - s) / P
        m = _first_at_most(lambda m: step_size(schedule, s + m * P), guess, bound)
        if m > 0:
            K = max(K, s + (m - 1) * P + 1)
    return K


@dataclass(frozen=True)
class AdmissibilityResult:
    """Eventual partition for the multipliers |1 - alpha_k h_i|.

    Indices are 0-based.  c is the expansion margin
    (|1 - alpha_k h_j| >= 1 + c alpha_k on I_u for k >= K); it is +inf
    when I_u is empty.  empirical=True means only a finite prefix of an
    explicit list was checked.
    """

    K: int
    I_cs: frozenset
    I_u: frozenset
    c: float
    empirical: bool = False


def check_admissible(eigenvalues: np.ndarray, schedule: Schedule) -> AdmissibilityResult:
    """Partition Hessian eigenvalues into center-stable/unstable indices.

    Vanishing (polynomial/cosine) families are resolved analytically
    with the largest valid margin c and the smallest valid start index
    K.  Ties |1 - alpha_k h_i| = 1 go to I_cs.  Step lists are verified
    over their first ADMISSIBLE_HORIZON steps; a constant schedule is
    the one-value list (alpha0,), which is exact, and an explicit list
    is flagged empirical.  Raises NotAdmissible when the partition has
    not settled over the final tenth of the checked prefix.
    """
    h = np.asarray(eigenvalues, dtype=float)
    d = h.size

    if schedule.family in ("polynomial", "cosine"):
        # vanishing steps: the eventual partition is the sign partition
        I_cs = frozenset(np.flatnonzero(h >= 0.0).tolist())
        I_u = frozenset(np.flatnonzero(h < 0.0).tolist())
        c = float(np.min(np.abs(h[list(I_u)]))) if I_u else math.inf
        pos = h[h > 0.0]
        if pos.size == 0:
            return AdmissibilityResult(0, I_cs, I_u, c)
        # condition (i) on I_cs needs alpha_k <= 2 / h_max from K on
        bound = 2.0 / float(np.max(pos))
        try:
            K = _admissible_K(schedule, bound)
        except OverflowError:
            raise NotAdmissible(
                f"{schedule.describe()}: alpha_k exceeds 2/h_max = {bound:g} "
                "at step indices beyond the float range"
            ) from None
        return AdmissibilityResult(K, I_cs, I_u, c)

    # a step list: finite-prefix verification
    steps = _step_list(schedule)
    n = min(ADMISSIBLE_HORIZON, len(steps))
    alphas = np.asarray(steps[:n])
    mult = np.abs(1.0 - alphas[:, None] * h[None, :])  # (n, d)
    unstable = mult > 1.0
    final = unstable[-1]
    settled = np.all(unstable == final[None, :], axis=1)
    K = n - 1
    while K > 0 and settled[K - 1]:
        K -= 1
    if K > 0.9 * n:
        flip = int(np.flatnonzero(~settled)[-1])
        bad = int(np.flatnonzero(unstable[flip] != final)[0])
        raise NotAdmissible(
            f"partition for eigenvalue index {bad} still flipping at k={flip} "
            f"(checked horizon {n})"
        )
    I_u = frozenset(np.flatnonzero(final).tolist())
    I_cs = frozenset(range(d)) - I_u
    if I_u:
        margins = (mult[K:, list(I_u)] - 1.0) / alphas[K:, None]
        c = float(np.min(margins))
    else:
        c = math.inf
    return AdmissibilityResult(K, I_cs, I_u, c, empirical=schedule.family == "explicit_list")


def classify_nonsummable(schedule: Schedule) -> str:
    """Classify sum_k alpha_k: 'divergent', 'convergent', 'unknown', or
    'divergent-empirical' (explicit lists whose partial sums reach
    NONSUMMABLE_THRESHOLD within NONSUMMABLE_HORIZON steps).

    Closed-form families are decided analytically: p-series ground truth
    for polynomial decay, times the strictly positive periodic cosine
    factor for cosine decay.
    """
    if schedule.family == "constant":
        return "divergent"
    if schedule.family in ("polynomial", "cosine"):
        return "divergent" if schedule.gamma <= 1.0 else "convergent"
    n = min(NONSUMMABLE_HORIZON, len(schedule.values))
    if float(np.sum(np.asarray(schedule.values[:n]))) >= NONSUMMABLE_THRESHOLD:
        return "divergent-empirical"
    return "unknown"


def is_nonsummable(schedule: Schedule) -> bool:
    return classify_nonsummable(schedule) in ("divergent", "divergent-empirical")


# --- spectral data ----------------------------------------------------------


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of a symmetric Hessian, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # orthonormal columns, matching order

    @classmethod
    def from_hessian(cls, H: np.ndarray) -> "SpectralData":
        H = np.asarray(H, dtype=float)
        w, V = np.linalg.eigh(H)
        order = np.argsort(w)[::-1]
        return cls(eigenvalues=w[order], eigenvectors=V[:, order])


# --- sampled Lipschitz constants and the bump globalization -----------------


# The first rows of Joe & Kuo's new-joe-kuo-6.21201 table: per dimension,
# the primitive polynomial x^s + a_1 x^(s-1) + ... + a_(s-1) x + 1 as the
# integer with bits 1 a_1 ... a_(s-1) 1, and the initial direction numbers
# m_1..m_s.  The first dimension (polynomial 1) has every m_j = 1.
SOBOL_TABLE = (
    (1, (1,)),
    (3, (1,)),
    (7, (1, 3)),
    (11, (1, 3, 1)),
    (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)),
    (25, (1, 3, 5, 13)),
    (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)),
    (47, (1, 1, 7, 11, 19)),
    (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)),
    (61, (1, 3, 5, 5, 31)),
    (67, (1, 3, 3, 9, 7, 49)),
    (91, (1, 1, 1, 15, 21, 21)),
    (97, (1, 3, 1, 13, 27, 49)),
)
SOBOL_BITS = 30  # bits per coordinate, so at most 2^30 points


def _sobol_directions(dim: int, m: int) -> np.ndarray:
    """The first m direction numbers v_j = m_j 2^(SOBOL_BITS - j) per dimension.

    Beyond the table's initial values, m_j follows the Bratley-Fox
    recurrence m_j = 2 a_1 m_(j-1) ^ ... ^ 2^(s-1) a_(s-1) m_(j-s+1)
    ^ 2^s m_(j-s) ^ m_(j-s).
    """
    rows = []
    for poly, init in SOBOL_TABLE[:dim]:
        s = poly.bit_length() - 1
        mj = list(init) if s else [1] * m
        for j in range(s, m):
            new = mj[j - s] ^ (mj[j - s] << s)
            for k in range(1, s):
                if (poly >> (s - k)) & 1:
                    new ^= mj[j - k] << k
            mj.append(new)
        rows.append([mj[j] << (SOBOL_BITS - 1 - j) for j in range(m)])
    return np.array(rows, dtype=np.uint32).reshape(dim, m)


def _sobol_cube(n: int, dim: int, seed: Optional[int]) -> np.ndarray:
    """n Sobol points in [-1, 1]^dim: the first n of 2^ceil(log2 n) points.

    The sequence is Sobol's with the direction numbers of Joe & Kuo,
    "Constructing Sobol sequences with better two-dimensional
    projections", SIAM J. Sci. Comput. 30 (2008) 2635-2654, in Gray-code
    order on SOBOL_BITS bits, starting at the shift.  With a seed it is
    scrambled as scipy does: a random digital shift, then a left linear
    matrix scramble (LMS) of the direction numbers by random
    lower-triangular bit matrices with a unit diagonal, both drawn from
    np.random.default_rng(seed) in that order.  The points are the first
    n rows of scipy.stats.qmc.Sobol(dim, scramble=seed is not None,
    seed=seed).random_base2(m), m = max(1, ceil(log2 n)), bit for bit.
    Raises InvalidParameter for a dimension beyond SOBOL_TABLE or more
    than 2^SOBOL_BITS points.
    """
    if not 0 <= dim <= len(SOBOL_TABLE):
        raise InvalidParameter(
            f"Sobol points are tabulated for at most {len(SOBOL_TABLE)} dimensions, got {dim}"
        )
    if n > 1 << SOBOL_BITS:
        raise InvalidParameter(f"at most 2^{SOBOL_BITS} Sobol points, got {n}")
    m = max(1, (n - 1).bit_length())  # ceil(log2 n)
    v = _sobol_directions(dim, m)
    if seed is None:
        shift = np.zeros(dim, dtype=np.uint32)
    else:
        rng = np.random.default_rng(seed)
        bits = np.arange(SOBOL_BITS, dtype=np.uint32)
        shift = rng.integers(0, 2, size=(dim, SOBOL_BITS), dtype=np.uint32) @ (1 << bits)
        ltm = np.tril(rng.integers(0, 2, size=(dim, SOBOL_BITS, SOBOL_BITS), dtype=np.uint32))
        ltm[:, bits, bits] = 1
        # bit SOBOL_BITS-1-p of a scrambled number is the parity of row p
        # of its matrix (column 0 weighing most) against the number's bits
        msb_first = bits[::-1]
        v_bits = (v[:, :, None] >> msb_first) & 1
        v = ((v_bits @ ltm.transpose(0, 2, 1)) & 1) @ (1 << msb_first)
    # point k is the shift XOR the v_j of the set bits j of gray(k), and
    # gray(2^j + i) = 2^j + gray(2^j - 1 - i), so each power-of-two block
    # is the one before it reversed and XORed with the next v_j
    q = np.empty((1 << m, dim), dtype=np.uint32)
    q[0] = shift
    for j in range(m):
        h = 1 << j
        np.bitwise_xor(q[h - 1 :: -1], v[:, j], out=q[h : 2 * h])
    u = q[:n] * 2.0**-SOBOL_BITS
    return 2.0 * u - 1.0


def _to_ball(u: np.ndarray, radius: float, norm) -> np.ndarray:
    """Scale cube points into the `norm`-ball, pushing overshoots onto it.

    Keeps near-boundary coverage, which is where Lipschitz ratios of
    smooth maps peak.
    """
    u = u * radius
    norms = np.asarray(norm(u), dtype=float)
    scale = np.where(norms > radius, radius / np.maximum(norms, 1e-300), 1.0)
    return u * scale[:, None]


def sample_lipschitz(
    map_diff: Callable[[np.ndarray], np.ndarray],
    region_radius: float,
    pairs: int,
    splitting: Optional[Splitting] = None,
    dim: Optional[int] = None,
    seed: int = LIPSCHITZ_SEED,
) -> float:
    """Sampled lower bound on Lip(map_diff) over the ball of given radius.

    Ratios ||diff(x) - diff(y)|| / ||x - y|| over low-discrepancy point
    pairs, measured in the splitting max-norm when a splitting is given
    (Euclidean otherwise).  A lower bound on the true constant; the
    fixed default seed keeps runs reproducible.
    """
    if pairs < 1:
        raise InvalidParameter("pairs must be >= 1")
    if splitting is not None:
        dim = splitting.dim
        norm = splitting.max_norm
    elif dim is None:
        raise InvalidParameter("need a splitting or an explicit dim")
    else:
        norm = _row_norms
    # pairs drawn jointly from a 2*dim-dimensional stream so that nearby
    # near-boundary pairs (the ratio maximizers) are actually sampled
    u = _sobol_cube(pairs, 2 * dim, seed)
    X = _to_ball(u[:, :dim], region_radius, norm)
    Y = _to_ball(u[:, dim:], region_radius, norm)
    dxy = np.asarray(norm(X - Y), dtype=float)
    keep = dxy > 1e-15
    if not np.any(keep):
        return 0.0
    fX = np.asarray(map_diff(X[keep]), dtype=float)
    fY = np.asarray(map_diff(Y[keep]), dtype=float)
    ratios = np.asarray(norm(fX - fY), dtype=float) / dxy[keep]
    return float(np.max(ratios))


def bump(x_norm: np.ndarray, r: float) -> np.ndarray:
    """Radial bump q = min(1, max(0, 2 - (2/r)||x||)): 1 on B_{r/2}, 0 off B_r."""
    return np.minimum(1.0, np.maximum(0.0, 2.0 - (2.0 / r) * np.asarray(x_norm)))


def globalize(
    remainder: Callable[[np.ndarray], np.ndarray],
    r: float,
    eps_budget: float,
    splitting: Optional[Splitting] = None,
    dim: Optional[int] = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """Blend the remainder g - T of a map into zero outside a ball.

    Returns x -> q(x) (g - T)(x) with the radial bump q, so that the
    globalized map g~ = T + q (g - T) is g on B_{r/2} exactly, T outside
    B_r exactly, and Lip(g~ - T) <= eps_budget globally whenever
    Lip((g - T)|B_r) <= eps_budget/4.  Both Lipschitz conditions are
    verified by sampling GLOBALIZE_PAIRS pairs (in the splitting max-norm
    when given; dim is needed without one), the local one with
    LIPSCHITZ_SEED and the global one on B_{GLOBALIZE_CHECK_FACTOR r}
    with LIPSCHITZ_SEED + 1; raises BudgetViolated if either sampled
    estimate exceeds its bound.
    """
    norm = _row_norms if splitting is None else splitting.max_norm

    local = sample_lipschitz(remainder, r, GLOBALIZE_PAIRS, splitting=splitting, dim=dim)
    if local > eps_budget / 4.0:
        raise BudgetViolated(
            f"sampled Lip((g - T)|B_r) = {local:.3e} exceeds eps_budget/4 = "
            f"{eps_budget / 4.0:.3e}"
        )

    def blended(x):
        x = np.asarray(x, dtype=float)
        return bump(norm(x), r)[..., None] * np.asarray(remainder(x), dtype=float)

    global_lip = sample_lipschitz(
        blended,
        GLOBALIZE_CHECK_FACTOR * r,
        GLOBALIZE_PAIRS,
        splitting=splitting,
        dim=dim,
        seed=LIPSCHITZ_SEED + 1,
    )
    if global_lip > eps_budget:
        raise BudgetViolated(
            f"sampled global Lip(g~ - T) = {global_lip:.3e} exceeds eps_budget = "
            f"{eps_budget:.3e}"
        )
    return blended


# --- local Lipschitz radius from the Hessian modulus ------------------------


def _symmetric_norm(D: np.ndarray) -> np.ndarray:
    """Spectral norms of symmetric matrices (..., k, k), without an SVD.

    For k <= 2 the eigenvalues are m +- hypot((a - d)/2, b) with
    m = (a + d)/2, so the norm is |m| + hypot((a - d)/2, b) (|a| for
    k = 1); larger k takes max |eigvalsh|.
    """
    k = D.shape[-1]
    if k == 1:
        return np.abs(D[..., 0, 0])
    if k == 2:
        a, d = D[..., 0, 0], D[..., 1, 1]
        b = 0.5 * (D[..., 0, 1] + D[..., 1, 0])
        return np.abs(0.5 * (a + d)) + np.hypot(0.5 * (a - d), b)
    return np.max(np.abs(np.linalg.eigvalsh(D)), axis=-1)


def check_box(box: float) -> None:
    """Raise InvalidParameter unless the sampling box is finite and positive."""
    if not (math.isfinite(box) and box > 0):
        raise InvalidParameter(f"box must be finite and positive, got {box}")


def estimate_radius(
    hessian: Callable[[np.ndarray], np.ndarray],
    c: float,
    dim: int,
    box: float = 2.0,
) -> float:
    """Largest r in (0, box] with sampled max ||H(x) - H(0)|| <= c over ||x|| <= r.

    The sampled sup uses deterministic quasi-random points per candidate
    radius; the search is a RADIUS_LEVELS-level bisection (the Hessian modulus of
    continuity is nondecreasing in r).  The Hessians must be symmetric.
    Raises InvalidParameter unless box is finite and positive, and
    RadiusNotFound when even the smallest bisection radius fails, which
    signals a discontinuous or misconfigured Hessian.
    """
    if c <= 0:
        raise InvalidParameter("c must be positive")
    check_box(box)
    H0 = np.asarray(hessian(np.zeros(dim)), dtype=float)

    # with the axis endpoints +-e_i, where a modulus such as 3 x_1^2 peaks
    eye = np.eye(dim)
    base = np.vstack([_sobol_cube(RADIUS_SAMPLES, dim, seed=None), eye, -eye])

    def omega(radius: float) -> float:
        pts = _to_ball(base, radius, _row_norms)
        H = np.asarray(hessian(pts), dtype=float)
        return float(np.max(_symmetric_norm(H - H0)))

    if omega(box) <= c:
        return box
    lo, hi = 0.0, box
    for _ in range(RADIUS_LEVELS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if omega(mid) <= c:
            lo = mid
        else:
            hi = mid
    if lo == 0.0:
        raise RadiusNotFound(
            f"no radius in (0, {box}] keeps the Hessian modulus below {c}"
        )
    return lo


# --- certificates -----------------------------------------------------------


@dataclass(frozen=True)
class PHCertificate:
    """Per-step pseudo-hyperbolicity constants for one (system, saddle) pair.

    For k >= K the linearizations T_k are lambda_k-non-expanding on E_cs
    and mu_k-expanding on E_u, with the nonlinear remainder eps_k/4-small
    on the ball of radius r; eps_k < (mu_k - lambda_k)/4 and the ratios
    eps_k/(mu_k - 2 eps_k) are non-summable.  The record holds only the
    constants: lambda_k = 1, and mu_k, eps_k and their formula text are
    derived from c, which is -h for pp's first negative eigenvalue h.
    """

    kind: str  # "gd" or "pp"
    splitting: Splitting
    K: int
    schedule: Schedule
    c: float
    r: float
    partition: tuple  # (I_cs, I_u) as sorted tuples, 0-based

    @property
    def mu_formula(self) -> str:
        if self.kind == "gd":
            return f"1 + {self.c:g}*alpha_k"
        return f"1/(1 + alpha_k*({-self.c:g}))"

    @property
    def eps_formula(self) -> str:
        return f"{self.c / 5.0:g}*alpha_k"

    def alpha(self, k) -> np.ndarray:
        """alpha_k by step_size: a float for an int k, an array over an iterable of ints."""
        if np.iterable(k):
            return np.array([step_size(self.schedule, int(j)) for j in k], dtype=float)
        return np.float64(step_size(self.schedule, int(k)))

    def lam(self, k) -> np.ndarray:
        return np.ones_like(np.asarray(k, dtype=float))

    def mu(self, k) -> np.ndarray:
        if self.kind == "gd":
            return 1.0 + self.c * self.alpha(k)
        return 1.0 / (1.0 - self.c * self.alpha(k))

    def eps(self, k) -> np.ndarray:
        if self.kind == "gd":
            return self.c * self.alpha(k) / 5.0
        return (self.c / 5.0) * self.alpha(k)

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "K": int(self.K),
            "c": self.c,
            "r": self.r if math.isfinite(self.r) else "inf",
            "schedule": self.schedule.describe(),
            "partition": {
                "I_cs": list(self.partition[0]),
                "I_u": list(self.partition[1]),
            },
            "mu_k": self.mu_formula,
            "lambda_k": "1",
            "eps_k": self.eps_formula,
            "basis_cs": self.splitting.basis_cs.T.tolist(),
            "basis_u": self.splitting.basis_u.T.tolist(),
        }
        return json.dumps(payload, sort_keys=True)


def _certificate(
    kind: str,
    spectral: SpectralData,
    schedule: Schedule,
    K: int,
    c: float,
    r: float,
    I_cs,
    I_u,
) -> PHCertificate:
    """The certificate with the eigenvector splitting along (I_cs, I_u)."""
    I_cs, I_u = tuple(sorted(I_cs)), tuple(sorted(I_u))
    V = spectral.eigenvectors
    splitting = Splitting.from_columns(V[:, list(I_cs)], V[:, list(I_u)])
    return PHCertificate(kind, splitting, K, schedule, c, r, (I_cs, I_u))


def build_gd_certificate(
    spectral: SpectralData,
    schedule: Schedule,
    hessian: Callable[[np.ndarray], np.ndarray],
    box: float = 2.0,
) -> PHCertificate:
    """NPH certificate for gradient descent at a strict saddle.

    Uses lambda_k = 1, mu_k = 1 + c alpha_k, eps_k = c alpha_k / 5 with
    the admissibility margin c, the eigenvector splitting, and a radius
    r such that the sampled Hessian modulus stays below c/20 (so that
    Lip((g_k - T_k)|B_r) <= alpha_k * c/20 = eps_k/4).
    """
    adm = check_admissible(spectral.eigenvalues, schedule)
    if len(adm.I_u) == 0:
        raise CertificateFailure(
            "dim(E_u) >= 1 violated: no unstable directions under this schedule"
        )
    if not is_nonsummable(schedule):
        raise CertificateFailure(
            "non-summability violated: sum of eps_k/(mu_k - 2 eps_k) is finite"
        )
    r = estimate_radius(hessian, adm.c / 20.0, spectral.eigenvalues.size, box=box)
    return _certificate("gd", spectral, schedule, adm.K, adm.c, r, adm.I_cs, adm.I_u)


def build_pp_certificate(
    spectral: SpectralData,
    schedule: Schedule,
    L: float,
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    box: float = 2.0,
) -> PHCertificate:
    """NPH certificate for the proximal point method at a strict saddle.

    With s = #{eigenvalues in [0, L]}, h the (s+1)-st eigenvalue (the
    first negative one) and c = -h: lambda_k = 1, mu_k = 1/(1 - c alpha_k),
    eps_k = (c/5) alpha_k, splitting by eigenvalue sign.  Requires
    sup alpha_k < 1/L and non-summable steps.  The radius is sampled
    from the Hessian modulus when one is supplied; with hessian=None the
    remainder is assumed exactly linear (quadratic objective) and r is
    unbounded.  L must be finite and positive (InvalidParameter).
    """
    if not (math.isfinite(L) and L > 0):
        raise InvalidParameter(f"L must be finite and positive, got {L}")
    h = spectral.eigenvalues
    if np.max(np.abs(h)) > L + 1e-12:
        raise CertificateFailure(
            f"eigenvalue magnitude {np.max(np.abs(h)):g} exceeds the declared L={L:g}"
        )
    neg = h[h < 0]
    if neg.size == 0:
        raise CertificateFailure("not a strict saddle: no negative eigenvalue")
    sup = check_pp_steps(schedule, L)
    if not is_nonsummable(schedule):
        raise CertificateFailure("non-summability violated for the PP schedule")
    s = int(np.sum(h >= 0))
    c = -float(h[s])  # minus the first negative eigenvalue, descending order
    if hessian is None:
        r = math.inf
    else:
        rho = 1.0 / (1.0 - sup * L)
        R = estimate_radius(hessian, (c / 20.0) / rho**2, h.size, box=box)
        r = R / rho
    return _certificate("pp", spectral, schedule, 0, c, r, range(s), range(s, h.size))


def validate_certificate(cert: PHCertificate, ks: Optional[Sequence[int]] = None) -> None:
    """Check the defining inequalities at sampled k; raises CertificateFailure.

    By default k runs over K, ..., K + 10^4 as Python ints, so any K works.
    """
    if ks is None:
        ks = range(cert.K, cert.K + 10_001)
    lam, mu, eps = cert.lam(ks), cert.mu(ks), cert.eps(ks)
    if not np.all(lam >= 1.0):
        raise CertificateFailure("lambda_k >= 1 violated")
    if not np.all(mu > lam):
        raise CertificateFailure("mu_k > lambda_k violated")
    if not np.all(eps < (mu - lam) / 4.0):
        raise CertificateFailure("eps_k < (mu_k - lambda_k)/4 violated")
