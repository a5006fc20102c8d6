"""Non-autonomous discrete dynamical systems: maps, splittings, trajectories.

A system is a sequence of update maps g_0, g_1, ... applied as
x_{k+1} = g_k(x_k).  Everything here is plain numpy; update maps are
expected to be vectorized over leading axes, i.e. evaluate() accepts
both a single point of shape (d,) and a batch of shape (N, d).

One stepping engine, evolve_batch, iterates a batch of rows with
per-row stop and divergence rules; an exception raised by a map ends
the whole call.  It steps the rows in blocks of up to STOP_WINDOW
steps, checks each step with a cheap divergence guard and tests the
stop rule once per block, with the outputs of a check after every
step.  The stop rule (STOP_WINDOW steps below STOP_TOL) and the tail
ring (the last STOP_WINDOW states) are the engine's own, so
run_trajectory, a one-row call that also keeps a sampled history, and
the Monte Carlo cells, which run every trial and probe as a row, stop
and keep tails alike.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

DEFAULT_STORE_CAP = 10_000
STORE_STRIDE = 100  # run_trajectory keeps every STORE_STRIDE-th iterate past store_cap
STOP_WINDOW = 60  # consecutive small steps that stop a row; also the tail ring's length
STOP_TOL = 1e-12  # per-step displacement below which a step counts as small
DIVERGENCE_RADIUS = 1e8  # a finite iterate beyond this norm has diverged


def thread_cap() -> int:
    """SADDLESCOPE_THREADS if set, else the CPUs this process may run on."""
    env = os.environ.get("SADDLESCOPE_THREADS")
    if env:
        return max(1, int(env))
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class SystemMap:
    """One update map of a non-autonomous system.

    evaluate must be deterministic and vectorized over leading axes:
    input (..., d) -> output (..., d).  jacobian, when present, is
    vectorized the same way: (..., d) -> the (..., d, d) Jacobian
    matrices, so a single point (d,) gives one (d, d) matrix.  label is
    free text for callers; no saddlescope map sets one.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    label: str = ""


@dataclass(frozen=True)
class NonAutonomousSystem:
    """A sequence of update maps indexed by the step counter k >= 0."""

    map_at: Callable[[int], SystemMap]
    dimension: int


class Splitting:
    """Orthogonal decomposition R^d = E_cs + E_u with orthonormal bases.

    basis_cs and basis_u are sequences of d-vectors, either of them
    empty but not both; they must be mutually orthonormal (within 1e-12).  Coordinates in each factor
    carry the Euclidean norm; the induced norm on R^d is the max of the
    two factor norms (see max_norm).
    """

    def __init__(self, basis_cs: Sequence[np.ndarray], basis_u: Sequence[np.ndarray]):
        cs, u = np.asarray(basis_cs, dtype=float), np.asarray(basis_u, dtype=float)
        if not (cs.size or u.size):
            raise ValueError("a splitting needs a basis vector in E_cs or E_u")
        d = np.atleast_2d(cs if cs.size else u).shape[1]
        # an empty factor, [] included, is a (d, 0) basis
        self.basis_cs, self.basis_u = (
            np.atleast_2d(b).T if b.size else np.zeros((d, 0)) for b in (cs, u)
        )
        self.dim_cs = self.basis_cs.shape[1]
        self.dim_u = self.basis_u.shape[1]
        self.dim = self.dim_cs + self.dim_u
        B = np.hstack([self.basis_cs, self.basis_u])
        if B.shape[0] != self.dim:
            raise ValueError(f"need d = m + n basis vectors, got {B.shape}")
        gram = B.T @ B
        if not np.allclose(gram, np.eye(self.dim), atol=1e-12):
            raise ValueError("basis vectors are not mutually orthonormal to 1e-12")

    def coords_cs(self, x: np.ndarray) -> np.ndarray:
        """E_cs coordinates of x; shape (..., d) -> (..., m)."""
        return np.asarray(x) @ self.basis_cs

    def coords_u(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x) @ self.basis_u

    def embed(self, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Ambient point from factor coordinates y (..., m), z (..., n)."""
        return np.asarray(y) @ self.basis_cs.T + np.asarray(z) @ self.basis_u.T

    def max_norm(self, x: np.ndarray) -> np.ndarray:
        """max(||p_cs x||_2, ||p_u x||_2); vectorized over leading axes."""
        return np.maximum(_row_norms(self.coords_cs(x)), _row_norms(self.coords_u(x)))

    @classmethod
    def from_columns(cls, B_cs: np.ndarray, B_u: np.ndarray) -> "Splitting":
        return cls(np.asarray(B_cs).T, np.asarray(B_u).T)


@dataclass
class TrajectoryRecord:
    """A run trajectory with sampled storage.

    iterates[j] is the state after step_indices[j] applications of the
    system; consecutive stored indices satisfy
    iterates[j+1] = map_at(step_indices[j]).evaluate(iterates[j]) exactly
    whenever step_indices[j+1] == step_indices[j] + 1.
    """

    initial: np.ndarray
    step_indices: np.ndarray
    iterates: np.ndarray
    steps_taken: int
    classification: str = "undecided"
    limit_estimate: Optional[np.ndarray] = None

    def tail(self, length: int) -> np.ndarray:
        """Trailing consecutively-stored iterates, newest last."""
        idx = self.step_indices
        cut = len(idx)
        while cut > 1 and idx[cut - 1] - idx[cut - 2] == 1 and len(idx) - cut < length:
            cut -= 1
        return self.iterates[max(cut - 1, len(idx) - length):]


# --- the stepping engine ----------------------------------------------------------


def _row_sumsq(X: np.ndarray) -> np.ndarray:
    """Per-row sum of squares over the last axis, the d squares added in order.

    One pass squares every entry and d - 1 column adds follow, where
    np.add.reduce(X * X, axis=-1) runs a short loop for every row.  numpy
    adds up to seven components in this order (from a leading 0.0, which
    leaves a square as it is), so for d <= 7 the bits agree, ±0, inf and
    NaN included; from d = 8 on its pairwise unrolling changes the order.
    The catalogue and the graph-transform factors have d <= 3.
    """
    P = X * X
    sq = P[..., 0]
    for k in range(1, X.shape[-1]):
        sq = sq + P[..., k]
    return sq


def _row_norms(X: np.ndarray) -> np.ndarray:
    """np.linalg.norm(X, axis=-1), bit for bit for d <= 7, from _row_sumsq.

    Every per-row Euclidean norm of the package comes from here.  A
    zero-width factor, such as the E_cs of an all-negative spectrum, has
    norm 0; a single row (d,) gives a scalar, as np.linalg.norm does.
    """
    if not X.shape[-1]:
        return np.zeros(X.shape[:-1])[()]
    sq = _row_sumsq(X)
    return np.sqrt(sq, out=sq) if X.ndim > 1 else np.sqrt(sq)


ACTIVE, STOPPED, DIVERGED = 0, 1, 2  # row status codes
# a block of n rows in d dimensions has at most max(1, BLOCK_ENTRIES // (n d))
# steps, so the arrays of a big batch's block stay small
BLOCK_ENTRIES = 8192


def evolve_batch(
    system: NonAutonomousSystem,
    X0: np.ndarray,
    max_steps: int,
    stop_tol: float,
    store_cap: int = 0,
    store_stride: int = 0,
):
    """Iterate every row of X0 under the system, each with its own stops.

    A row is STOPPED after STOP_WINDOW consecutive steps with
    ||x_{k+1} - x_k|| < stop_tol, DIVERGED on a non-finite coordinate or
    a norm beyond DIVERGENCE_RADIUS, and otherwise ACTIVE after max_steps
    steps; max_steps must be >= 1 and stop_tol positive.  An exception
    raised by a map propagates.  The gd, rgd and pp maps act row by row,
    so a row's iterates are bitwise those of a one-row run, whatever
    else shares the batch.

    The rows advance in blocks of J = min(STOP_WINDOW - max(run), steps
    left, max(1, BLOCK_ENTRIES // (n d))) steps, where run counts a row's
    trailing small steps and n its active rows, so no run can reach
    STOP_WINDOW before a block's last step.  After each step one guard,
    max |x_ij| <= DIVERGENCE_RADIUS / sqrt(d) (1 - 1e-12), proves every
    norm within the radius (the margin covers the rounding of the d
    squares and their sum); when it fails, the block ends there and the
    exact norm rule runs, so a diverged row is never fed to a map again.
    At a block's end the displacements of all its steps give the runs,
    and the stopped and diverged rows leave at the step they would leave
    if the rule were tested after every step: the outputs and the
    sequence of map calls are those of a per-step check, bit for bit.

    Returns (ring, steps, status, history): ring[k % STOP_WINDOW, i] is
    x_k of row i over its last STOP_WINDOW steps (read it with tail_of),
    steps[i] counts the maps applied to row i, and history holds x_k for
    every k <= store_cap and every store_stride-th k beyond (stride 0:
    none).  ring and history may hold the non-finite state of a blow-up.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if not stop_tol > 0:
        raise ValueError("stop_tol must be positive")
    Xa = np.array(X0, dtype=float)
    N, d = Xa.shape
    steps = np.full(N, max_steps)
    status = np.full(N, ACTIVE)
    ring = np.full((STOP_WINDOW, N, d), np.nan)
    ring[0] = Xa
    n_hist = min(max_steps, store_cap) + 1
    if store_stride and max_steps > store_cap:
        n_hist += max_steps // store_stride - store_cap // store_stride
    history = np.full((n_hist, N, d), np.nan)
    history[0] = Xa
    guard = DIVERGENCE_RADIUS / math.sqrt(d) * (1.0 - 1e-12)
    # every block's states are a prefix view (J + 1, n, d) of one buffer;
    # (J + 1) n d is at most max(n d, BLOCK_ENTRIES) + n d
    buf = np.empty(min((min(STOP_WINDOW, max_steps) + 1) * N * d, BLOCK_ENTRIES + 2 * N * d))
    # Xa, idx and run hold the active rows only; they are re-gathered
    # when a row leaves, and until then every write is a plain slice
    idx, rows = np.arange(N), slice(None)
    run = np.zeros(N, dtype=int)  # consecutive steps below stop_tol
    top = 0  # max(run)
    k = 0
    while k < max_steps:
        n = idx.size
        J = min(STOP_WINDOW - top, max_steps - k, max(1, BLOCK_ENTRIES // (n * d)))
        B = buf[: (J + 1) * n * d].reshape(J + 1, n, d)
        B[0] = Xa
        tripped = False
        for j in range(1, J + 1):
            Xa = np.asarray(system.map_at(k + j - 1).evaluate(Xa), dtype=float)
            B[j] = Xa
            # a NaN fails the guard too
            if not np.maximum.reduce(np.abs(Xa), axis=None) <= guard:
                tripped = True
                break
        S = B[: j + 1]
        small = _row_norms(S[1:] - S[:-1]) < stop_tol  # (j, n)
        if top or np.count_nonzero(small):
            if j == 1:  # the per-step rule, cheaper than the block rule on many rows
                run = np.where(small[0], run + 1, 0)
            else:
                # a row's trailing small steps, or its run carried on when
                # every step was small
                tail = np.argmin(small[::-1], axis=0)
                run = np.where(np.logical_and.reduce(small, axis=0), run + j, tail)
            top = int(np.maximum.reduce(run))
        p = (k + 1) % STOP_WINDOW  # ring slot of x_{k+1}; the block wraps at most once
        a = min(j, STOP_WINDOW - p)
        ring[p : p + a, rows] = S[1 : a + 1]
        if a < j:
            ring[: j - a, rows] = S[a + 1 :]
        if k < store_cap:
            c = min(j, store_cap - k)
            history[k + 1 : k + 1 + c, rows] = S[1 : c + 1]
        if store_stride:
            first = max(k, store_cap) // store_stride + 1  # x_{first * stride} is the next kept
            c = (k + j) // store_stride - first + 1
            if c > 0:
                h = store_cap + first - store_cap // store_stride
                history[h : h + c, rows] = S[first * store_stride - k :: store_stride]
        k += j
        # norm <= R is the exact rule; a NaN norm fails it
        bad = ~(_row_norms(Xa) <= DIVERGENCE_RADIUS) if tripped else None
        if top >= STOP_WINDOW or (tripped and np.count_nonzero(bad)):
            stop = run >= STOP_WINDOW
            leave = stop
            status[idx[stop]] = STOPPED
            if tripped:
                status[idx[bad]] = DIVERGED  # a blow-up wins over a stop
                leave = stop | bad
            steps[idx[leave]] = k
            idx, rows, Xa, run = idx[~leave], idx[~leave], Xa[~leave], run[~leave]
            if not idx.size:
                break
            top = int(np.maximum.reduce(run))
    return ring, steps, status, history


def tail_of(ring: np.ndarray, steps: np.ndarray, i: int):
    """(step indices, states) of row i's finite ring entries, oldest first."""
    tail_len = ring.shape[0]
    ks = np.arange(max(0, int(steps[i]) - tail_len + 1), int(steps[i]) + 1)
    X = ring[ks % tail_len, i]
    finite = np.all(np.isfinite(X), axis=1)
    return ks[finite], X[finite]


def run_trajectory(
    system: NonAutonomousSystem,
    x0: np.ndarray,
    max_steps: int,
    stop_tol: float,
    store_cap: int = DEFAULT_STORE_CAP,
) -> TrajectoryRecord:
    """Iterate the system from x0 and record the trajectory.

    A one-row evolve_batch, so it stops and diverges as a Monte Carlo row
    from x0 does; a diverged trajectory is classified "diverged", any
    other "undecided" (classify_limit resolves it against a catalogue).
    Storage keeps every iterate up to store_cap steps, every
    STORE_STRIDE-th one beyond that, and the finite states of the tail
    ring (the last STOP_WINDOW, or one fewer after a non-finite blow-up).
    """
    x0 = np.asarray(x0, dtype=float)
    ring, steps, status, history = evolve_batch(
        system, x0.reshape(1, -1), max_steps, stop_tol, store_cap, STORE_STRIDE
    )
    diverged = status[0] == DIVERGED
    tail_ks, tail_X = tail_of(ring, steps, 0)
    ks = np.arange(steps[0] + 1)
    ks = ks[(ks <= store_cap) | (ks % STORE_STRIDE == 0)]
    X = history[: len(ks), 0]
    finite = np.all(np.isfinite(X), axis=1)
    ks, first = np.unique(np.concatenate([ks[finite], tail_ks]), return_index=True)
    return TrajectoryRecord(
        initial=x0.copy(),
        step_indices=ks,
        iterates=np.concatenate([X[finite], tail_X])[first],
        steps_taken=int(steps[0]),
        classification="diverged" if diverged else "undecided",
        limit_estimate=None if diverged else tail_X[-1],
    )


def counterexample_product() -> np.ndarray:
    """Product (g1 g2 g2)^2 for two expanding 2x2 maps without a shared
    invariant splitting.

    Each factor has an unstable fixed point at the origin, yet the
    six-fold composition annihilates the whole plane: a full-measure set
    of initial conditions lands exactly on the fixed point.  Returns the
    (numerically zero) product matrix.
    """
    g1 = np.array([[0.0, 0.0], [-1.0 / 5.0, 2.0]])
    g2 = np.array([[198.0, 1.0 / 5.0], [0.0, 2.0]])
    once = g1 @ g2 @ g2
    return once @ once
