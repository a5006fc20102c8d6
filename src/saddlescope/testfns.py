"""Benchmark objectives with analytically known critical structure.

Every entry lists its critical points (or one-parameter families), their
classification, and the Hessian spectrum there, so that trajectory
limits can be matched and saddle hits counted.  A strict saddle is a
critical point whose Hessian has at least one strictly negative
eigenvalue; saddle_line's saddles are non-isolated and double_well's
gradient is not globally Lipschitz, which the avoidance theory must
tolerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .dynsys import _row_norms
from .optimizers import Objective, SphereObjective

MIN = "min"
STRICT_SADDLE = "strict_saddle"
MAX = "max"
DEGENERATE = "degenerate"


@dataclass(frozen=True)
class CriticalPoint:
    point: np.ndarray
    classification: str
    eigenvalues: tuple  # Hessian spectrum, descending

    def distance(self, x: np.ndarray) -> np.ndarray:
        return _row_norms(np.asarray(x, dtype=float) - self.point)


@dataclass(frozen=True)
class CriticalFamily:
    """A parametrized curve of critical points t -> point(t)."""

    sample: Callable[[np.ndarray], np.ndarray]
    distance_fn: Callable[[np.ndarray], np.ndarray]
    classification: str
    eigenvalues: tuple

    def distance(self, x: np.ndarray) -> np.ndarray:
        return self.distance_fn(np.asarray(x))


@dataclass(frozen=True)
class CataloguedObjective:
    key: str
    objective: Union[Objective, SphereObjective]
    critical_points: tuple

    @property
    def is_sphere(self) -> bool:
        return isinstance(self.objective, SphereObjective)

    @property
    def dim(self) -> int:
        return self.objective.dim

    def gradient_norm(self, x: np.ndarray) -> np.ndarray:
        """Euclidean gradient norm; Riemannian for sphere objectives."""
        if self.is_sphere:
            g = self.objective.riemannian_grad(x)
        else:
            g = self.objective.grad(x)
        return _row_norms(np.asarray(g, dtype=float))

    def nearest_critical(self, x: np.ndarray):
        """(entry, distance) of the closest catalogued critical set."""
        best, best_d = None, np.inf
        for entry in self.critical_points:
            d = float(entry.distance(x))
            if d < best_d:
                best, best_d = entry, d
        return best, best_d


def _quad_1d() -> CataloguedObjective:
    def f(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * x[..., 0] ** 2

    def grad(x):
        return np.asarray(x, dtype=float).copy()

    def hess(x):
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1] + (1, 1))

    obj = Objective(f, grad, hess, dim=1, lipschitz_L=1.0)
    return CataloguedObjective(
        "quad_1d", obj, (CriticalPoint(np.zeros(1), MIN, (1.0,)),)
    )


def _constant_hessian(H: np.ndarray):
    """The Hessian of a quadratic: a fresh copy of H for every point of x.

    Filling one np.empty costs far less per call than np.broadcast_to's
    Python-level set-up, and gives the same values.
    """

    def hess(x):
        out = np.empty(np.shape(x)[:-1] + H.shape)
        out[...] = H
        return out

    return hess


def _quad_saddle() -> CataloguedObjective:
    def f(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * (x[..., 0] ** 2 - x[..., 1] ** 2)

    def grad(x):
        x = np.asarray(x, dtype=float)
        out = x.copy()
        np.negative(x[..., 1], out=out[..., 1])
        return out

    hess = _constant_hessian(np.diag([1.0, -1.0]))
    obj = Objective(f, grad, hess, dim=2, lipschitz_L=1.0)
    saddle = CriticalPoint(np.zeros(2), STRICT_SADDLE, (1.0, -1.0))
    return CataloguedObjective("quad_saddle", obj, (saddle,))


def _double_well() -> CataloguedObjective:
    def f(x):
        x = np.asarray(x, dtype=float)
        return 0.25 * (x[..., 0] ** 2 - 1.0) ** 2 + 0.5 * x[..., 1] ** 2

    def grad(x):
        x = np.asarray(x, dtype=float)
        x0 = x[..., 0]
        out = x.copy()
        # the cube as products: numpy takes x0 ** 3 through libm pow
        np.subtract(x0 * x0 * x0, x0, out=out[..., 0])
        return out

    H1 = np.array([[0.0, 0.0], [0.0, 1.0]])  # the Hessian less its (0, 0) entry

    def hess(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape[:-1] + (2, 2))
        out[...] = H1
        out[..., 0, 0] = 3.0 * x[..., 0] ** 2 - 1.0
        return out

    # gradient is cubic, so not globally Lipschitz; L = max(3*9 - 1, 1)
    # is a declared surrogate on the test box [-3, 3]^2
    obj = Objective(f, grad, hess, dim=2, lipschitz_L=26.0)
    points = (
        CriticalPoint(np.array([1.0, 0.0]), MIN, (2.0, 1.0)),
        CriticalPoint(np.array([-1.0, 0.0]), MIN, (2.0, 1.0)),
        CriticalPoint(np.zeros(2), STRICT_SADDLE, (1.0, -1.0)),
    )
    return CataloguedObjective("double_well", obj, points)


def _saddle_line() -> CataloguedObjective:
    def f(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * (x[..., 0] ** 2 - x[..., 1] ** 2)

    def grad(x):
        x = np.asarray(x, dtype=float)
        out = x.copy()
        np.negative(x[..., 1], out=out[..., 1])
        out[..., 2] = 0.0
        return out

    hess = _constant_hessian(np.diag([1.0, -1.0, 0.0]))
    obj = Objective(f, grad, hess, dim=3, lipschitz_L=1.0)
    family = CriticalFamily(
        sample=lambda t: np.stack(
            [np.zeros_like(t), np.zeros_like(t), np.asarray(t, dtype=float)], axis=-1
        ),
        distance_fn=lambda x: _row_norms(np.asarray(x, dtype=float)[..., :2]),
        classification=STRICT_SADDLE,
        eigenvalues=(1.0, 0.0, -1.0),
    )
    return CataloguedObjective("saddle_line", obj, (family,))


RAYLEIGH_DIAG = np.array([1.0, 2.0, 3.0])


def _rayleigh_sphere() -> CataloguedObjective:
    D = np.diag(RAYLEIGH_DIAG)

    def f(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.sum(x * (x @ D.T), axis=-1)

    def grad(x):
        return np.asarray(x, dtype=float) @ D.T

    ambient = Objective(f, grad, _constant_hessian(D), dim=3, lipschitz_L=3.0)
    obj = SphereObjective(ambient)
    # Riemannian Hessian spectrum at eigenvector e_j is {h_i - h_j : i != j}
    points = []
    classes = {0: MIN, 1: STRICT_SADDLE, 2: MAX}
    for j in range(3):
        eigs = tuple(
            sorted((RAYLEIGH_DIAG[i] - RAYLEIGH_DIAG[j] for i in range(3) if i != j),
                   reverse=True)
        )
        for sign in (1.0, -1.0):
            e = np.zeros(3)
            e[j] = sign
            points.append(CriticalPoint(e, classes[j], eigs))
    return CataloguedObjective("rayleigh_sphere", obj, tuple(points))


_BUILDERS = {
    "quad_saddle": _quad_saddle,
    "double_well": _double_well,
    "saddle_line": _saddle_line,
    "rayleigh_sphere": _rayleigh_sphere,
    "quad_1d": _quad_1d,
}

KEYS = tuple(_BUILDERS)


def get(key: str) -> CataloguedObjective:
    if key not in _BUILDERS:
        raise KeyError(f"unknown objective {key!r}; have {sorted(_BUILDERS)}")
    return _BUILDERS[key]()
