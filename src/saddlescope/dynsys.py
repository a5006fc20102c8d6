"""Non-autonomous discrete dynamical systems: maps, splittings, trajectories.

A system is a sequence of update maps g_0, g_1, ... applied as
x_{k+1} = g_k(x_k).  Everything here is plain numpy; update maps are
expected to be vectorized over leading axes, i.e. evaluate() accepts
both a single point of shape (d,) and a batch of shape (N, d).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

DEFAULT_STORE_CAP = 10_000
DEFAULT_STORE_STRIDE = 100
DEFAULT_TAIL = 60
DEFAULT_DIVERGENCE_RADIUS = 1e8


class OutsideChart(RuntimeError):
    """An iterate of a lifted (tangent-space) system left the chart domain.

    Raised by tangent-space lifts of manifold systems; run_trajectory
    catches it and marks the trajectory undecided.
    """


@dataclass(frozen=True)
class SystemMap:
    """One update map of a non-autonomous system.

    evaluate must be deterministic and vectorized over leading axes:
    input (..., d) -> output (..., d).  jacobian, when present, maps a
    single point (d,) to the (d, d) Jacobian matrix.
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

    basis_cs and basis_u are sequences of d-vectors; they must be
    mutually orthonormal (within 1e-12).  Coordinates in each factor
    carry the Euclidean norm; the induced norm on R^d is the max of the
    two factor norms (see max_norm).
    """

    def __init__(self, basis_cs: Sequence[np.ndarray], basis_u: Sequence[np.ndarray]):
        self.basis_cs = np.atleast_2d(np.asarray(basis_cs, dtype=float)).T  # (d, m)
        self.basis_u = np.atleast_2d(np.asarray(basis_u, dtype=float)).T  # (d, n)
        if self.basis_cs.shape[1] == 0:
            self.basis_cs = self.basis_cs.reshape(self.basis_u.shape[0], 0)
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

    def project_cs(self, x: np.ndarray) -> np.ndarray:
        """Ambient orthogonal projection onto E_cs."""
        return self.coords_cs(x) @ self.basis_cs.T

    def project_u(self, x: np.ndarray) -> np.ndarray:
        return self.coords_u(x) @ self.basis_u.T

    def embed(self, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Ambient point from factor coordinates y (..., m), z (..., n)."""
        return np.asarray(y) @ self.basis_cs.T + np.asarray(z) @ self.basis_u.T

    def max_norm(self, x: np.ndarray) -> np.ndarray:
        """max(||p_cs x||_2, ||p_u x||_2); vectorized over leading axes."""
        ncs = np.linalg.norm(self.coords_cs(x), axis=-1)
        nu = np.linalg.norm(self.coords_u(x), axis=-1)
        return np.maximum(ncs, nu)

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

    def to_json(self) -> str:
        payload = {
            "initial": self.initial.tolist(),
            "steps_taken": int(self.steps_taken),
            "classification": self.classification,
            "limit_estimate": None
            if self.limit_estimate is None
            else self.limit_estimate.tolist(),
            "iterates_sampled": [
                {"k": int(k), "x": x.tolist()}
                for k, x in zip(self.step_indices, self.iterates)
            ],
        }
        return json.dumps(payload, sort_keys=True)


def run_trajectory(
    system: NonAutonomousSystem,
    x0: np.ndarray,
    max_steps: int,
    stop_tol: float,
    window: int = 10,
    store_cap: int = DEFAULT_STORE_CAP,
    store_stride: int = DEFAULT_STORE_STRIDE,
    tail: int = DEFAULT_TAIL,
    divergence_radius: float = DEFAULT_DIVERGENCE_RADIUS,
) -> TrajectoryRecord:
    """Iterate the system from x0 and record the trajectory.

    Stops after max_steps, or once ||x_{k+1} - x_k|| < stop_tol for
    `window` consecutive steps, or on blow-up (non-finite coordinate or
    norm beyond divergence_radius, classification "diverged").  Storage
    keeps every iterate up to store_cap steps, every store_stride-th one
    beyond that, plus the trailing max(window, tail) iterates.

    Classification is "undecided" unless the trajectory diverged; use a
    downstream classifier to resolve limits against a catalogue.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if stop_tol <= 0:
        raise ValueError("stop_tol must be positive")

    x = np.asarray(x0, dtype=float).copy()
    keep_tail = max(window, tail)
    stored: list[tuple[int, np.ndarray]] = [(0, x.copy())]
    ring: list[tuple[int, np.ndarray]] = [(0, x.copy())]
    consecutive = 0
    classification = "undecided"
    limit: Optional[np.ndarray] = None
    steps_taken = 0

    for k in range(max_steps):
        gk = system.map_at(k)
        try:
            x1 = np.asarray(gk.evaluate(x), dtype=float)
        except OutsideChart:
            classification = "undecided"
            limit = x.copy()
            break
        steps_taken = k + 1
        bad = not np.all(np.isfinite(x1))
        if not bad and float(np.linalg.norm(x1)) > divergence_radius:
            bad = True
        if bad:
            classification = "diverged"
            limit = None
            if np.all(np.isfinite(x1)):
                ring.append((k + 1, x1.copy()))
            x = x1
            break
        if k + 1 <= store_cap or (k + 1) % store_stride == 0:
            stored.append((k + 1, x1.copy()))
        ring.append((k + 1, x1.copy()))
        if len(ring) > keep_tail:
            ring.pop(0)
        if float(np.linalg.norm(x1 - x)) < stop_tol:
            consecutive += 1
        else:
            consecutive = 0
        x = x1
        if consecutive >= window:
            limit = x.copy()
            break
    else:
        limit = x.copy() if np.all(np.isfinite(x)) else None

    merged = {k: v for k, v in stored}
    merged.update({k: v for k, v in ring})
    ks = sorted(merged)
    record = TrajectoryRecord(
        initial=np.asarray(x0, dtype=float).copy(),
        step_indices=np.array(ks, dtype=int),
        iterates=np.array([merged[k] for k in ks]),
        steps_taken=steps_taken,
        classification=classification,
        limit_estimate=limit,
    )
    return record


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
