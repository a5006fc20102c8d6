"""Monte Carlo verification of strict-saddle avoidance, plus the sampled
full-rank (Luzin N^-1) scan.

Random initializations are evolved in one vectorized batch per cell
(one call into dynsys.evolve_batch, the engine behind run_trajectory),
with any stable-set probes stacked under the trials, and every row is
classified against the objective catalogue by the same helper; only the
trial rows are counted.  Rows are independent (the per-trial random
substreams derive from one seed, and the gd, rgd and pp maps act
row-wise), so neither batching nor probes change a trial's result.
Convergence to a saddle is declared conservatively: the gradient must be
below 1e-8 AND the iterate within 1e-3 of a catalogued saddle for the
final 50 stored iterates, so that the slow transients of vanishing step
sizes never count as hits.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dynsys import DIVERGED, TrajectoryRecord, tail_of
from .dynsys import evolve_batch as _evolve_batch
from .optimizers import gd_system, pp_system, prox_solve, rgd_system
from .phcert import (
    Schedule,
    StepTooLarge,
    check_admissible,
    constant_schedule,
    is_nonsummable,
    schedule_sup,
)
from .testfns import MIN, STRICT_SADDLE, CataloguedObjective, get

SADDLE_GRAD_TOL = 1e-8
SADDLE_DIST_TOL = 1e-3
SADDLE_WINDOW = 50
STOP_WINDOW = 60  # > SADDLE_WINDOW: the confinement check postdates the stop transient
STOP_TOL = 1e-12  # per-step displacement below which a trial counts as stopped
LIMIT_GRAD_TOL = 1e-4  # gradient gate for matching a limit to the catalogue
DEFAULT_BOX = 2.0
DET_THRESHOLD = 1e-12

ALGORITHMS = ("gd", "rgd", "pp")


def default_max_steps(schedule: Schedule) -> int:
    """10^6 for harmonic-rate schedules (gamma = 1), 10^5 otherwise."""
    if schedule.family in ("polynomial", "cosine") and schedule.gamma == 1.0:
        return 1_000_000
    return 100_000


def build_system(entry: CataloguedObjective, algorithm: str, schedule: Schedule):
    if algorithm == "gd":
        if entry.is_sphere:
            raise ValueError("gd needs a Euclidean objective")
        return gd_system(entry.objective, schedule)
    if algorithm == "rgd":
        if not entry.is_sphere:
            raise ValueError("rgd needs a sphere objective")
        return rgd_system(entry.objective, schedule)
    if algorithm == "pp":
        if entry.is_sphere:
            raise ValueError("pp needs a Euclidean objective")
        return pp_system(entry.objective, schedule)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def validate_cell(entry: CataloguedObjective, algorithm: str, schedule: Schedule):
    """Check the certificate preconditions the avoidance theory needs."""
    if not is_nonsummable(schedule):
        raise ValueError("schedule is summable; avoidance theory does not apply")
    if algorithm == "pp":
        # PP needs sup alpha_k < 1/L; its splitting is by eigenvalue sign,
        # so the multiplier-partition admissibility check does not apply
        L = entry.objective.lipschitz_L
        if L is None:
            raise ValueError("pp needs a declared Lipschitz constant")
        if schedule_sup(schedule) >= 1.0 / L:
            raise StepTooLarge(f"sup alpha_k >= 1/L = {1.0 / L:g}")
        return
    for cp in entry.critical_points:
        if cp.classification != STRICT_SADDLE:
            continue
        res = check_admissible(np.asarray(cp.eigenvalues), schedule)
        if len(res.I_u) == 0:
            raise ValueError("schedule leaves a saddle without unstable directions")


# --- limit classification -----------------------------------------------------

_CLASS_OF = {
    MIN: "converged_minimizer",
    STRICT_SADDLE: "converged_strict_saddle",
    "max": "converged_other_critical",
    "degenerate": "converged_other_critical",
}


def classify_limit(record: TrajectoryRecord, entry: CataloguedObjective) -> str:
    """Match a finished trajectory's tail against the catalogue.

    Returns the catalogued class when the tail iterate has gradient
    below LIMIT_GRAD_TOL and sits within SADDLE_DIST_TOL of a catalogued
    critical point/family.  A strict-saddle verdict additionally requires
    gradient < 1e-8 and distance < 1e-3 over the final 50 stored
    iterates (transient proximity under vanishing steps must not count).
    """
    if record.classification == "diverged":
        return "diverged"
    tail = record.tail(SADDLE_WINDOW)
    if len(tail) == 0:
        return "undecided"
    final = tail[-1]
    if not np.all(np.isfinite(final)):
        return "diverged"
    if float(entry.gradient_norm(final)) >= LIMIT_GRAD_TOL:
        return "undecided"
    nearest, dist = entry.nearest_critical(final)
    if nearest is None or dist >= SADDLE_DIST_TOL:
        return "undecided"
    verdict = _CLASS_OF[nearest.classification]
    if verdict != "converged_strict_saddle":
        return verdict
    if len(tail) < SADDLE_WINDOW:
        return "undecided"
    grads = np.asarray(entry.gradient_norm(tail))
    dists = np.asarray(nearest.distance(tail))
    if np.all(grads < SADDLE_GRAD_TOL) and np.all(dists < SADDLE_DIST_TOL):
        return "converged_strict_saddle"
    return "undecided"


# --- reports --------------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


@dataclass
class AvoidanceReport:
    objective_key: str
    algorithm: str
    schedule: str
    trials: int
    seed: int
    counts: dict
    saddle_hits: list
    stable_set_probe: list
    rows: list  # per-trial: (trial, x0, classification, steps, final_grad_norm)

    def to_json(self) -> str:
        return json.dumps(
            {
                "objective": self.objective_key,
                "algorithm": self.algorithm,
                "schedule": self.schedule,
                "trials": self.trials,
                "seed": self.seed,
                "counts": self.counts,
                "saddle_hits": self.saddle_hits,
                "stable_set_probe": self.stable_set_probe,
            },
            sort_keys=True,
        )

    def to_csv(self) -> str:
        d = len(self.rows[0][1]) if self.rows else 0
        header = (
            ["trial", "seed"]
            + [f"x0_{j}" for j in range(d)]
            + ["classification", "steps", "final_grad_norm"]
        )
        lines = [",".join(header)]
        for trial, x0, cls, steps, gnorm in self.rows:
            lines.append(
                ",".join(
                    [str(trial), str(self.seed)]
                    + [_fmt(v) for v in x0]
                    + [cls, str(steps), _fmt(gnorm)]
                )
            )
        return "\n".join(lines) + "\n"


def _initial_points(
    entry: CataloguedObjective, trials: int, seed: int, box: float
) -> np.ndarray:
    """Per-trial substreams: trial i draws from SeedSequence((seed, i))."""
    d = entry.dim
    out = np.empty((trials, d))
    for i in range(trials):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        )
        if entry.is_sphere:
            v = rng.standard_normal(d)
            out[i] = v / np.linalg.norm(v)
        else:
            out[i] = rng.uniform(-box, box, size=d)
    return out


def _probe_points(probes: Sequence, entry: CataloguedObjective) -> np.ndarray:
    """Probe starts as a (len(probes), d) array; a wrong shape raises."""
    P0 = np.empty((len(probes), entry.dim))
    for j, p in enumerate(probes):
        p = np.asarray(p, dtype=float)
        if p.shape != (entry.dim,):
            raise ValueError(
                f"probe {j} has shape {p.shape}; {entry.key} needs dimension {entry.dim}"
            )
        P0[j] = p
    return P0


def _classify_rows(entry: CataloguedObjective, X0, ring, steps, status):
    """Yield (verdict, final iterate, final gradient norm) per batch row."""
    for i, x0 in enumerate(X0):
        ks, tail = tail_of(ring, steps, i)
        rec = TrajectoryRecord(
            initial=x0,
            step_indices=ks,
            iterates=tail,
            steps_taken=int(steps[i]),
            classification="diverged" if status[i] == DIVERGED else "undecided",
        )
        final = tail[-1] if len(tail) else x0
        gn = float(entry.gradient_norm(final)) if np.all(np.isfinite(final)) else math.inf
        yield classify_limit(rec, entry), final, gn


def monte_carlo_avoidance(
    objective_key: str,
    algorithm: str,
    schedule: Schedule,
    trials: int,
    seed: int,
    box: float = DEFAULT_BOX,
    max_steps: Optional[int] = None,
    probes: Sequence = (),
) -> AvoidanceReport:
    """Random-initialization avoidance experiment for one cell.

    Samples `trials` initial points uniformly from the box (uniformly on
    the sphere for sphere objectives) with per-trial substreams of
    `seed`, evolves them under the algorithm, classifies the limits, and
    reports counts and any saddle hits.  `probes` are extra
    initializations (e.g. points placed on a stable manifold); they join
    the trials' batch but are reported separately and not counted.  An
    explicit-list schedule caps the run at its length.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    entry = get(objective_key)
    P0 = _probe_points(probes, entry)
    validate_cell(entry, algorithm, schedule)
    system = build_system(entry, algorithm, schedule)
    if max_steps is None:
        max_steps = default_max_steps(schedule)
    if schedule.family == "explicit_list":
        max_steps = min(max_steps, len(schedule.values))

    X0 = np.vstack([_initial_points(entry, trials, seed, box), P0])
    ring, steps, status, _ = _evolve_batch(
        system, X0, max_steps, STOP_TOL, window=STOP_WINDOW, tail_len=STOP_WINDOW
    )

    counts = {
        "converged_minimizer": 0,
        "converged_strict_saddle": 0,
        "converged_other_critical": 0,
        "diverged": 0,
        "undecided": 0,
    }
    saddle_hits = []
    rows = []
    probe_results = []
    for i, (cls, final, gn) in enumerate(_classify_rows(entry, X0, ring, steps, status)):
        x0 = X0[i].tolist()
        if i >= trials:
            probe_results.append(
                {"x0": x0, "classification": cls, "limit": final.tolist(), "steps": int(steps[i])}
            )
            continue
        counts[cls] += 1
        rows.append((i, x0, cls, int(steps[i]), gn))
        if cls == "converged_strict_saddle":
            saddle_hits.append({"trial": i, "x0": x0, "limit": final.tolist()})

    return AvoidanceReport(
        objective_key=objective_key,
        algorithm=algorithm,
        schedule=schedule.describe(),
        trials=trials,
        seed=seed,
        counts=counts,
        saddle_hits=saddle_hits,
        stable_set_probe=probe_results,
        rows=rows,
    )


def _run_cell(kwargs: dict) -> AvoidanceReport:
    return monte_carlo_avoidance(**kwargs)


def thread_cap() -> int:
    env = os.environ.get("SADDLESCOPE_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def run_matrix(cells: Sequence[dict], threads: Optional[int] = None) -> list:
    """Run many avoidance cells, process-parallel, in deterministic order.

    Each cell is a kwargs dict for monte_carlo_avoidance.  Results come
    back in input order; per-cell outputs are independent of the worker
    count (all randomness is per-trial substreams of the cell seed).
    SADDLESCOPE_THREADS caps the worker pool.
    """
    workers = min(threads or thread_cap(), max(len(cells), 1))
    if workers <= 1 or len(cells) <= 1:
        return [_run_cell(c) for c in cells]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_cell, cells))


# --- sampled Luzin N^-1 rank scan ------------------------------------------------


@dataclass
class LuzinReport:
    objective_key: str
    algorithm: str
    alphas: list
    min_abs_det: list  # per alpha
    flagged: list  # {alpha, index, x, det}
    seed: int
    threshold: float = DET_THRESHOLD

    def to_json(self) -> str:
        return json.dumps(
            {
                "objective": self.objective_key,
                "algorithm": self.algorithm,
                "alphas": self.alphas,
                "min_abs_det": self.min_abs_det,
                "flagged": self.flagged,
                "seed": self.seed,
                "threshold": self.threshold,
            },
            sort_keys=True,
        )

    @property
    def flagged_alphas(self) -> list:
        return sorted({f["alpha"] for f in self.flagged})


def luzin_scan(
    objective_key: str,
    algorithm: str,
    alpha_grid: Sequence[float],
    x_samples: int,
    seed: int,
    box: float = DEFAULT_BOX,
    threshold: float = DET_THRESHOLD,
    inner_tol: float = 1e-12,
) -> LuzinReport:
    """Jacobian-determinant scan over (step size, point) samples.

    For GD the determinant is det(I - alpha hess f(x)); for PP it is
    det (I + alpha hess f(g_alpha(x)))^{-1} (never small for
    alpha < 1/L); for RGD it is the tangent-space determinant in
    orthonormal bases.  Pairs with |det| below the threshold are
    flagged and surfaced; nothing is auto-excluded.
    """
    entry = get(objective_key)
    d = entry.dim
    flagged = []
    min_dets = []
    alphas = [float(a) for a in alpha_grid]
    for j, alpha in enumerate(alphas):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(j,)))
        )
        if entry.is_sphere:
            X = rng.standard_normal((x_samples, d))
            X /= np.linalg.norm(X, axis=1, keepdims=True)
        else:
            X = rng.uniform(-box, box, size=(x_samples, d))
        if algorithm == "gd":
            H = np.asarray(entry.objective.hess(X))
            dets = np.linalg.det(np.eye(d) - alpha * H)
        elif algorithm == "pp":
            L = entry.objective.lipschitz_L
            if L is None or alpha >= 1.0 / L:
                raise StepTooLarge(f"alpha = {alpha:g} is not below 1/L")
            Z = prox_solve(entry.objective, alpha, X, inner_tol)
            dets = 1.0 / np.linalg.det(np.eye(d) + alpha * np.asarray(entry.objective.hess(Z)))
        elif algorithm == "rgd":
            from .optimizers import tangent_basis

            sys_ = rgd_system(entry.objective, constant_schedule(alpha))
            smap = sys_.map_at(0)
            dets = np.empty(x_samples)
            for i in range(x_samples):
                x = X[i]
                J = smap.jacobian(x)
                gx = np.asarray(smap.evaluate(x))
                dets[i] = np.linalg.det(tangent_basis(gx).T @ J @ tangent_basis(x))
        else:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        small = np.abs(dets) < threshold
        for i in np.flatnonzero(small):
            flagged.append(
                {
                    "alpha": alpha,
                    "index": int(i),
                    "x": X[i].tolist(),
                    "det": float(dets[i]),
                }
            )
        min_dets.append(float(np.min(np.abs(dets))))
    return LuzinReport(
        objective_key=objective_key,
        algorithm=algorithm,
        alphas=alphas,
        min_abs_det=min_dets,
        flagged=flagged,
        seed=seed,
        threshold=threshold,
    )

