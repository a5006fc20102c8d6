"""Monte Carlo verification of strict-saddle avoidance, plus the sampled
full-rank (Luzin N^-1) scan.

Random initializations are evolved in one vectorized batch per cell
(one call into dynsys.evolve_batch, the engine behind run_trajectory,
whose stop rule both share), with any stable-set probes stacked under
the trials.  Every row is then classified against the objective
catalogue at once, with array operations over the engine's tail ring
(_classify_rows); classify_limit applies the same classifier to a
single record, so a probe row and run_trajectory from the same start
get the same verdict, step count and limit.  Only the trial rows
are counted.  Rows are independent (the per-trial random substreams
derive from one seed, and the gd, rgd and pp maps act row-wise), so
neither batching nor probes change a trial's result.  Convergence to a
saddle is declared conservatively: the gradient must be below 1e-8 AND
the iterate within 1e-3 of a catalogued saddle for the final 50 stored
iterates, so that the slow transients of vanishing step sizes never
count as hits.
"""

from __future__ import annotations

import json
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dynsys import ACTIVE, DIVERGED, STOP_TOL, TrajectoryRecord, _row_norms
from .dynsys import evolve_batch as _evolve_batch
from .optimizers import UNIT_TOL, gd_system, pp_system, rgd_system, tangent_basis
from .phcert import Schedule, check_admissible, check_box, constant_schedule, is_nonsummable
from .testfns import DEGENERATE, MAX, MIN, STRICT_SADDLE, CataloguedObjective, get

SADDLE_GRAD_TOL = 1e-8
SADDLE_DIST_TOL = 1e-3
SADDLE_WINDOW = 50  # < dynsys.STOP_WINDOW: the confinement check postdates the stop transient
LIMIT_GRAD_TOL = 1e-4  # gradient gate for matching a limit to the catalogue
DEFAULT_BOX = 2.0
DET_THRESHOLD = 1e-12

ALGORITHMS = ("gd", "rgd", "pp")


def default_max_steps(schedule: Schedule) -> int:
    """10^6 for harmonic-rate schedules (gamma = 1), 10^5 otherwise."""
    if schedule.family in ("polynomial", "cosine") and schedule.gamma == 1.0:
        return 1_000_000
    return 100_000


def check_algorithm(entry: CataloguedObjective, algorithm: str) -> None:
    """Raise ValueError unless the algorithm runs on the objective: rgd on
    a sphere objective, gd and pp on a Euclidean one."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    on_sphere = algorithm == "rgd"
    if on_sphere != entry.is_sphere:
        raise ValueError(f"{algorithm} needs a {'sphere' if on_sphere else 'Euclidean'} objective")


def build_system(entry: CataloguedObjective, algorithm: str, schedule: Schedule):
    check_algorithm(entry, algorithm)
    # looked up at call time, so a rebinding of these names takes effect
    factory = {"gd": gd_system, "rgd": rgd_system, "pp": pp_system}[algorithm]
    return factory(entry.objective, schedule)


def validate_cell(entry: CataloguedObjective, algorithm: str, schedule: Schedule):
    """Check the certificate preconditions the avoidance theory needs."""
    if not is_nonsummable(schedule):
        raise ValueError("schedule is summable; avoidance theory does not apply")
    if algorithm == "pp":
        # PP splits by eigenvalue sign, so the multiplier-partition
        # admissibility check does not apply; pp_system checks L and
        # sup alpha_k < 1/L when build_system runs
        return
    for cp in entry.critical_points:
        if cp.classification != STRICT_SADDLE:
            continue
        res = check_admissible(np.asarray(cp.eigenvalues), schedule)
        if len(res.I_u) == 0:
            raise ValueError("schedule leaves a saddle without unstable directions")


# --- limit classification -----------------------------------------------------

VERDICTS = (
    "converged_minimizer",
    "converged_strict_saddle",
    "converged_other_critical",
    "diverged",
    "undecided",
)
_MINIMIZER, _SADDLE, _OTHER, _DIVERGED, _UNDECIDED = range(len(VERDICTS))
_CODE_OF = {MIN: _MINIMIZER, STRICT_SADDLE: _SADDLE, MAX: _OTHER, DEGENERATE: _OTHER}


def _classify_rows(entry: CataloguedObjective, X0, ring, steps, status):
    """Classify every batch row against the catalogue at once.

    ring, steps and status are evolve_batch's outputs.  A row's final
    state is its last finite ring entry: ring[steps], or ring[steps - 1]
    after a non-finite blow-up (its X0 row, with an infinite gradient
    norm, when neither is finite).  A row is "diverged" when its status
    says so or ring[steps] is not finite.  Otherwise its verdict is the
    class of the nearest catalogued critical set (first set on a tie)
    when the final gradient is below LIMIT_GRAD_TOL and that set is
    within SADDLE_DIST_TOL, else "undecided".  A strict-saddle verdict
    further needs SADDLE_WINDOW stored iterates, all with gradient below
    SADDLE_GRAD_TOL and within SADDLE_DIST_TOL of that saddle, so that
    transient proximity under vanishing steps does not count.

    Returns (codes, final, gnorm): indices into VERDICTS, the (N, d)
    final states and their (N,) gradient norms.
    """
    L, N, _ = ring.shape
    rows = np.arange(N)
    last = ring[steps % L, rows]
    prev = ring[(steps - 1) % L, rows]
    last_ok = np.all(np.isfinite(last), axis=1)
    prev_ok = (steps >= 1) & np.all(np.isfinite(prev), axis=1)
    final = np.where(last_ok[:, None], last, np.where(prev_ok[:, None], prev, X0))
    has = last_ok | prev_ok
    gnorm = np.full(N, np.inf)
    gnorm[has] = entry.gradient_norm(final[has])

    diverged = (status == DIVERGED) | ~last_ok
    codes = np.where(diverged, _DIVERGED, _UNDECIDED)
    # a NaN gradient norm passes the gate, as `not gnorm >= tol` does
    cand = np.flatnonzero(~diverged & ~(gnorm >= LIMIT_GRAD_TOL))
    sets = entry.critical_points
    dist = np.array([s.distance(final[cand]) for s in sets])
    dist[np.isnan(dist)] = np.inf  # a NaN distance never makes a set nearest
    near = np.argmin(dist, axis=0)  # the first set on a tie
    hit = dist[near, np.arange(cand.size)] < SADDLE_DIST_TOL
    cand, near = cand[hit], near[hit]
    codes[cand] = np.array([_CODE_OF[s.classification] for s in sets])[near]

    saddle = codes[cand] == _SADDLE
    codes[cand[saddle]] = _UNDECIDED  # until its window proves confined
    full = saddle & (np.minimum(steps[cand] + 1, L) >= SADDLE_WINDOW)
    cand, near = cand[full], near[full]
    ks = steps[cand] - np.arange(SADDLE_WINDOW - 1, -1, -1)[:, None]
    window = ring[ks % L, cand]  # (SADDLE_WINDOW, n, d), oldest first
    confined = np.all(entry.gradient_norm(window) < SADDLE_GRAD_TOL, axis=0)
    for j in np.unique(near):
        on = near == j
        confined[on] &= np.all(sets[j].distance(window[:, on]) < SADDLE_DIST_TOL, axis=0)
    codes[cand[confined]] = _SADDLE
    return codes, final, gnorm


def classify_limit(record: TrajectoryRecord, entry: CataloguedObjective) -> str:
    """Match a finished trajectory's tail against the catalogue.

    A one-record call into _classify_rows: the record's trailing
    SADDLE_WINDOW consecutively stored iterates become a one-row ring,
    so trials, probes and this function share one classification rule.
    """
    tail = record.tail(SADDLE_WINDOW)
    diverged = record.classification == "diverged"
    if len(tail) == 0:
        return "diverged" if diverged else "undecided"
    status = np.array([DIVERGED if diverged else ACTIVE])
    codes, _, _ = _classify_rows(entry, tail[-1:], tail[:, None], np.array([len(tail) - 1]), status)
    return VERDICTS[codes[0]]


# --- reports --------------------------------------------------------------------


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
        # one template per row; %.17g prints the digits format(v, ".17g") does
        row = "%s,%s," + "%.17g," * d + "%s,%s,%.17g"
        lines = [",".join(header)]
        lines += [
            row % (trial, self.seed, *x0, cls, steps, gnorm)
            for trial, x0, cls, steps, gnorm in self.rows
        ]
        return "\n".join(lines) + "\n"


# --- per-trial substreams -----------------------------------------------------------

# numpy's SeedSequence hash constants (NEP 19 fixes the algorithm) and the
# Philox4x64-10 multipliers and key increments (Salmon et al., SC 2011)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # SeedSequence's default pool size, in uint32 words
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10


def _hash_consts(init: int, mult: int):
    """The (xor, multiply) constant pairs of successive SeedSequence hashes."""
    h = init
    while True:
        nxt = h * mult & _MASK32
        yield h, nxt
        h = nxt


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    a, b = next(consts)
    value = (value ^ a) * b  # uint32 arithmetic, wrapping as in C
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def _substream_keys(seed: int, trials: int) -> tuple:
    """Philox keys of SeedSequence(entropy=seed, spawn_key=(i,)), i < trials.

    Runs SeedSequence's entropy mixing and generate_state(2, uint64) as
    uint32 array arithmetic over the trial index i (one uint32 word, so
    i < 2**32).  The assembled entropy is the seed's little-endian
    uint32 words, zero-padded to the pool size because a spawn key
    follows, then i.  Returns the two (trials,) uint64 key words.
    """
    words, n = [], seed
    while True:
        words.append(n & _MASK32)
        n >>= 32
        if not n:
            break
    words += [0] * (_POOL - len(words))
    entropy = [np.array([w], dtype=np.uint32) for w in words]
    entropy.append(np.arange(trials, dtype=np.uint32))

    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(e, consts) for e in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for e in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(e, consts))

    consts = _hash_consts(_INIT_B, _MULT_B)
    w = [_hashmix(p, consts).astype(np.uint64) for p in pool]
    return w[0] | (w[1] << np.uint64(32)), w[2] | (w[3] << np.uint64(32))


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple:
    """High and low 64-bit words of the 128-bit products m * x."""
    lo32 = np.uint64(_MASK32)
    m_lo, m_hi = m & lo32, m >> np.uint64(32)
    x_lo, x_hi = x & lo32, x >> np.uint64(32)
    ll, lh, hl = x_lo * m_lo, x_lo * m_hi, x_hi * m_lo
    mid = (ll >> np.uint64(32)) + (lh & lo32) + (hl & lo32)
    hi = x_hi * m_hi + (lh >> np.uint64(32)) + (hl >> np.uint64(32)) + (mid >> np.uint64(32))
    return hi, m * x


def _philox_words(keys: tuple, n: int) -> np.ndarray:
    """The first n uint64 outputs of Philox4x64-10 under each key.

    numpy's Philox starts from counter 0 and increments it before each
    block, so block b is the 10-round bijection of counter (b + 1, 0, 0, 0).
    Returns a (trials, n) uint64 array.
    """
    k0, k1 = keys
    blocks = -(-n // 4)
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)[:, None] + np.zeros_like(k0)
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack([c0, c1, c2, c3], axis=-1)  # (blocks, trials, 4)
    return words.transpose(1, 0, 2).reshape(len(k0), 4 * blocks)[:, :n]


def _initial_points(
    entry: CataloguedObjective, trials: int, seed: int, box: float
) -> np.ndarray:
    """Trial i's start, drawn from Generator(Philox(SeedSequence(entropy=seed,
    spawn_key=(i,)))), for every trial at once.

    Trial i's Philox key is what that SeedSequence's generate_state(2,
    uint64) gives; _substream_keys derives all of them in one array pass.
    Box cells run the Philox rounds on every key (_philox_words) and
    apply numpy's uniform transform, low + (high - low) * ((u >> 11) *
    2**-53), to the first d words.  Sphere cells re-key one Philox
    Generator per trial and let numpy draw the d normals, since
    standard_normal's ziggurat tables are not reachable from Python.
    The draws are bitwise those of the per-trial Generators, which
    tests/test_avoidance.py checks against the installed numpy, and bad
    seeds and boxes raise numpy's own errors.
    """
    seq = np.random.SeedSequence(entropy=seed)  # numpy's checks of the seed
    rng = np.random.Generator(np.random.Philox(seq))
    keys = _substream_keys(operator.index(seq.entropy), trials)
    d = entry.dim
    if entry.is_sphere:
        state = rng.bit_generator.state  # counter 0, empty buffer
        out, sq = np.empty((trials, d)), np.empty(trials)
        for i, key in enumerate(zip(keys[0].tolist(), keys[1].tolist())):
            state["state"]["key"] = key
            rng.bit_generator.state = state
            v = rng.standard_normal(out=out[i])
            sq[i] = v.dot(v)  # np.linalg.norm(v) is sqrt(v.dot(v)), rounded alike
        return out / np.sqrt(sq)[:, None]
    rng.uniform(-box, box, size=0)  # numpy's checks of the box
    low = float(-box)
    span = float(box) - low
    return low + span * ((_philox_words(keys, d) >> np.uint64(11)) * 2.0**-53)


def check_start(entry: CataloguedObjective, x, name: str) -> np.ndarray:
    """x as a (d,) float array; raises ValueError on a wrong shape, on a
    non-finite coordinate and, on the sphere, on a norm more than
    UNIT_TOL from 1."""
    x = np.asarray(x, dtype=float)
    if x.shape != (entry.dim,):
        raise ValueError(f"{name} has shape {x.shape}; {entry.key} needs dimension {entry.dim}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} has a non-finite coordinate: {x.tolist()}")
    if entry.is_sphere and not abs(np.linalg.norm(x) - 1.0) <= UNIT_TOL:
        raise ValueError(f"{name} has norm {np.linalg.norm(x):g}; {entry.key} needs a unit vector")
    return x


def _probe_points(probes: Sequence, entry: CataloguedObjective) -> np.ndarray:
    """Probe starts as a (len(probes), d) array; a bad start raises."""
    P0 = np.empty((len(probes), entry.dim))
    for j, p in enumerate(probes):
        P0[j] = check_start(entry, p, f"probe {j}")
    return P0


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
    check_box(box)
    entry = get(objective_key)
    P0 = _probe_points(probes, entry)
    validate_cell(entry, algorithm, schedule)
    system = build_system(entry, algorithm, schedule)
    if max_steps is None:
        max_steps = default_max_steps(schedule)
    if schedule.family == "explicit_list":
        max_steps = min(max_steps, len(schedule.values))

    X0 = np.vstack([_initial_points(entry, trials, seed, box), P0])
    ring, steps, status, _ = _evolve_batch(system, X0, max_steps, STOP_TOL)

    codes, final, gnorm = _classify_rows(entry, X0, ring, steps, status)
    counts = dict(zip(VERDICTS, np.bincount(codes[:trials], minlength=len(VERDICTS)).tolist()))
    x0s, names, nsteps = X0.tolist(), [VERDICTS[c] for c in codes], steps.tolist()
    rows = list(zip(range(trials), x0s, names, nsteps, gnorm.tolist()))
    saddle_hits = [
        {"trial": i, "x0": x0s[i], "limit": final[i].tolist()}
        for i in np.flatnonzero(codes[:trials] == _SADDLE).tolist()
    ]
    probe_results = [
        {"x0": x0s[i], "classification": names[i], "limit": final[i].tolist(), "steps": nsteps[i]}
        for i in range(trials, len(X0))
    ]
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
    """SADDLESCOPE_THREADS if set, else the CPUs this process may run on."""
    env = os.environ.get("SADDLESCOPE_THREADS")
    if env:
        return max(1, int(env))
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_matrix(cells: Sequence[dict], threads: Optional[int] = None) -> list:
    """Run many avoidance cells, process-parallel, in deterministic order.

    Each cell is a kwargs dict for monte_carlo_avoidance.  Results come
    back in input order: a cell's AvoidanceReport, or the exception the
    cell raised, so one failing cell costs no other cell its report.
    Per-cell outputs are independent of the worker count (all randomness
    is per-trial substreams of the cell seed).  SADDLESCOPE_THREADS caps
    the worker pool.
    """
    workers = min(threads or thread_cap(), max(len(cells), 1))
    if workers <= 1 or len(cells) <= 1:
        results = []
        for c in cells:
            try:
                results.append(_run_cell(c))
            except Exception as exc:
                results.append(exc)
        return results
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_cell, c) for c in cells]
        return [f.exception() or f.result() for f in futures]


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
) -> LuzinReport:
    """Jacobian-determinant scan over (step size, point) samples.

    For each alpha, g = build_system(entry, algorithm,
    constant_schedule(alpha)).map_at(0) gives the Jacobian J of every
    sample point in one call.  The determinant is det J on Euclidean
    objectives and det(Q(g(x))^T J Q(x)) on the sphere, with Q the
    tangent basis.  Pairs with |det| below DET_THRESHOLD are flagged
    and surfaced; nothing is auto-excluded.  build_system raises
    ValueError for an objective the algorithm does not take, and
    StepTooLarge for a pp alpha not below 1/L.
    """
    if x_samples < 1:
        raise ValueError("x_samples must be >= 1")
    check_box(box)
    entry = get(objective_key)
    d = entry.dim
    flagged = []
    min_dets = []
    alphas = [float(a) for a in alpha_grid]
    for j, alpha in enumerate(alphas):
        g = build_system(entry, algorithm, constant_schedule(alpha)).map_at(0)
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(j,)))
        )
        if entry.is_sphere:
            X = rng.standard_normal((x_samples, d))
            X /= _row_norms(X)[:, None]
        else:
            X = rng.uniform(-box, box, size=(x_samples, d))
        J = g.jacobian(X)
        if entry.is_sphere:
            J = np.swapaxes(tangent_basis(g.evaluate(X)), -1, -2) @ J @ tangent_basis(X)
        dets = np.linalg.det(J)
        small = np.abs(dets) < DET_THRESHOLD
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
    )
