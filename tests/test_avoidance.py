import hashlib
import math
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from saddlescope import avoidance
from saddlescope.avoidance import (
    VERDICTS,
    AvoidanceReport,
    build_system,
    classify_limit,
    default_max_steps,
    luzin_scan,
    monte_carlo_avoidance,
    run_matrix,
    validate_cell,
    _classify_rows,
    _evolve_batch,
)
from saddlescope.dynsys import (
    ACTIVE,
    DIVERGED,
    STOP_TOL,
    STOPPED,
    TrajectoryRecord,
    run_trajectory,
    tail_of,
)
from saddlescope.optimizers import gd_system, rgd_system, tangent_basis
from saddlescope.phcert import (
    StepTooLarge,
    constant_schedule,
    cosine_schedule,
    explicit_schedule,
    polynomial_schedule,
)
from saddlescope.testfns import CataloguedObjective, get


def make_record(points, steps_taken=None, classification="undecided"):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(points)
    steps_taken = steps_taken if steps_taken is not None else n - 1
    return TrajectoryRecord(
        initial=points[0],
        step_indices=np.arange(steps_taken - n + 1, steps_taken + 1),
        iterates=points,
        steps_taken=steps_taken,
        classification=classification,
    )


# --- classify_limit -----------------------------------------------------------


def test_classify_minimizer_near_well():
    entry = get("double_well")
    rec = make_record([[0.99998, 1e-6]] * 5, steps_taken=400)
    assert classify_limit(rec, entry) == "converged_minimizer"


def test_classify_saddle_requires_confined_window():
    entry = get("double_well")
    # 50 iterates pinned at the saddle: a hit
    rec = make_record([[0.0, 0.0]] * 60, steps_taken=300)
    assert classify_limit(rec, entry) == "converged_strict_saddle"
    # transient proximity only: final point close but window not confined
    drift = np.column_stack([np.zeros(60), np.geomspace(0.5, 1e-9, 60)])
    rec2 = make_record(drift, steps_taken=300)
    assert classify_limit(rec2, entry) == "undecided"


def test_classify_diverged_passthrough():
    entry = get("double_well")
    rec = make_record([[5.0, 5.0]], classification="diverged")
    assert classify_limit(rec, entry) == "diverged"


def test_classify_far_point_undecided():
    entry = get("double_well")
    rec = make_record([[0.5, 0.5]] * 60, steps_taken=100)
    assert classify_limit(rec, entry) == "undecided"


def _hand_built_batch():
    """One row per classifier branch, stored like evolve_batch's ring."""
    L, drift = 60, np.geomspace(0.5, 1e-9, 60)
    rows = [  # (steps, status, state at step k, expected verdict)
        (300, STOPPED, lambda k: [1.0 + 1e-7, 0.0], "converged_minimizer"),
        (300, STOPPED, lambda k: [0.0, 0.0], "converged_strict_saddle"),
        (300, ACTIVE, lambda k: [0.0, drift[k - 241]], "undecided"),  # transient pass
        (30, STOPPED, lambda k: [0.0, 0.0], "undecided"),  # 31 stored iterates
        (300, ACTIVE, lambda k: [0.5, 0.5], "undecided"),  # far from the catalogue
        (80, DIVERGED, lambda k: [2e8 if k == 80 else 1.0, 0.0], "diverged"),
        (80, DIVERGED, lambda k: [np.nan if k == 80 else 5e7, 1.0], "diverged"),
    ]
    ring = np.full((L, len(rows), 2), np.nan)
    for i, (s, _, state, _) in enumerate(rows):
        for k in range(max(0, s - L + 1), s + 1):
            ring[k % L, i] = state(k)
    X0 = np.zeros((len(rows), 2))
    steps = np.array([r[0] for r in rows])
    status = np.array([r[1] for r in rows])
    return X0, ring, steps, status, [r[3] for r in rows]


def test_classify_rows_one_row_per_branch():
    entry = get("double_well")
    X0, ring, steps, status, expected = _hand_built_batch()
    codes, final, gnorm = _classify_rows(entry, X0, ring, steps, status)
    assert [VERDICTS[c] for c in codes] == expected
    for i in range(len(X0)):
        _, tail = tail_of(ring, steps, i)
        np.testing.assert_array_equal(final[i], tail[-1])
        assert gnorm[i] == float(entry.gradient_norm(tail[-1]))
    # the NaN blow-up reports its last finite state
    np.testing.assert_array_equal(final[6], [5e7, 1.0])


def _classify_one(entry, ring, steps, status, i):
    """Reference: one row at a time, through nearest_critical and the tail."""
    _, tail = tail_of(ring, steps, i)
    if status[i] == DIVERGED:
        return "diverged"
    final = tail[-1]
    if float(entry.gradient_norm(final)) >= 1e-4:
        return "undecided"
    nearest, dist = entry.nearest_critical(final)
    if nearest is None or dist >= 1e-3:
        return "undecided"
    verdict = {"min": "converged_minimizer", "strict_saddle": "converged_strict_saddle"}.get(
        nearest.classification, "converged_other_critical"
    )
    if verdict != "converged_strict_saddle":
        return verdict
    window = tail[-50:]
    confined = (
        len(window) == 50
        and np.all(entry.gradient_norm(window) < 1e-8)
        and np.all(nearest.distance(window) < 1e-3)
    )
    return verdict if confined else "undecided"


@pytest.mark.parametrize(
    "key, algo, probes",
    [
        ("double_well", "gd", [[0.0, 0.5], [0.0, 1e-12]]),
        ("rayleigh_sphere", "rgd", [[0.0, 1.0, 0.0], [0.0, 0.6, 0.8], [0.0, 0.0, 1.0]]),
        ("saddle_line", "gd", [[1.0, 0.0, 3.0]]),
    ],
)
@pytest.mark.parametrize("max_steps", [30, 3000])
def test_classify_rows_matches_the_row_loop(key, algo, probes, max_steps):
    # random starts reach minimizers or diverge; the probes sit on stable
    # sets, and 30 steps leave them short of the 50-iterate window
    entry = get(key)
    X0 = np.vstack([avoidance._initial_points(entry, 200, 4, 2.0), probes])
    system = build_system(entry, algo, constant_schedule(0.5))
    ring, steps, status, _ = _evolve_batch(system, X0, max_steps, 1e-12)
    codes, _, _ = _classify_rows(entry, X0, ring, steps, status)
    expected = [_classify_one(entry, ring, steps, status, i) for i in range(len(X0))]
    assert [VERDICTS[c] for c in codes] == expected


def test_classify_rows_without_a_finite_state():
    entry = get("double_well")
    ring = np.full((60, 1, 2), np.nan)
    X0 = np.array([[np.nan, 0.0]])
    codes, final, gnorm = _classify_rows(entry, X0, ring, np.array([1]), np.array([DIVERGED]))
    assert VERDICTS[codes[0]] == "diverged"
    assert np.isnan(final[0, 0]) and gnorm[0] == np.inf


def test_classification_calls_do_not_grow_with_trials(monkeypatch):
    # the verdicts cost a fixed number of array calls per cell, not one per row
    calls = {"gradient_norm": 0, "nearest_critical": 0}
    for name in calls:
        orig = getattr(CataloguedObjective, name)

        def counted(self, x, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(self, x)

        monkeypatch.setattr(CataloguedObjective, name, counted)
    seen = []
    for trials in (8, 800):
        calls.update(gradient_norm=0, nearest_critical=0)
        monte_carlo_avoidance("quad_saddle", "gd", constant_schedule(0.5), trials=trials, seed=3)
        seen.append(dict(calls))
    assert seen[0] == seen[1]
    assert seen[0]["gradient_norm"] >= 1 and seen[0]["nearest_critical"] == 0


# --- batched evolution ---------------------------------------------------------


def test_batch_matches_run_trajectory_bitwise():
    # row independence: each row of a batch is bitwise its own one-row run
    entry = get("double_well")
    sched = polynomial_schedule(0.4, 0.5)
    system = gd_system(entry.objective, sched)
    rng = np.random.default_rng(5)
    X0 = rng.uniform(-2, 2, size=(7, 2))
    ring, steps, status, _ = _evolve_batch(system, X0, max_steps=300, stop_tol=1e-9)
    for i in range(7):
        rec = run_trajectory(system, X0[i], max_steps=300, stop_tol=1e-9)
        assert rec.steps_taken == int(steps[i])
        _, tail = tail_of(ring, steps, i)
        np.testing.assert_array_equal(tail, rec.tail(len(tail)))


@pytest.mark.parametrize(
    "key, algo, alpha0",
    [("double_well", "pp", 0.5 / 26), ("rayleigh_sphere", "rgd", 0.4)],
    ids=["pp", "rgd"],
)
def test_batch_matches_run_trajectory_bitwise_per_algorithm(key, algo, alpha0):
    entry = get(key)
    system = build_system(entry, algo, polynomial_schedule(alpha0, 0.5))
    rng = np.random.default_rng(5)
    X0 = rng.uniform(-2, 2, size=(7, entry.dim))
    if entry.is_sphere:
        X0 /= np.linalg.norm(X0, axis=1, keepdims=True)
    ring, steps, status, _ = _evolve_batch(system, X0, max_steps=300, stop_tol=1e-9)
    for i in range(7):
        rec = run_trajectory(system, X0[i], max_steps=300, stop_tol=1e-9)
        assert rec.steps_taken == int(steps[i])
        _, tail = tail_of(ring, steps, i)
        np.testing.assert_array_equal(tail, rec.tail(len(tail)))


@pytest.mark.parametrize(
    "key, algo, alpha, x0",
    [
        ("double_well", "gd", 0.5, [0.0, 0.5]),
        ("double_well", "pp", 0.5 / 26, [0.0, 0.5]),
        ("quad_saddle", "gd", 0.5, [0.5, 0.0]),
        ("quad_saddle", "pp", 0.5, [0.5, 0.0]),
        ("saddle_line", "gd", 0.5, [1.0, 0.0, 3.0]),
        ("saddle_line", "pp", 0.5, [1.0, 0.0, 3.0]),
        ("rayleigh_sphere", "rgd", 0.5, [0.0, 0.6, 0.8]),
        ("quad_1d", "gd", 0.5, [1.5]),
        ("double_well", "gd", 0.5, [0.3, -1.1]),
    ],
    ids=["dw-gd-probe", "dw-pp-probe", "qs-gd-probe", "qs-pp-probe", "sl-gd-probe",
         "sl-pp-probe", "sphere-rgd", "q1d-gd", "dw-gd-generic"],
)
def test_run_trajectory_agrees_with_the_probe_row(key, algo, alpha, x0):
    # one stop rule: a trajectory and a Monte Carlo probe row from the same
    # start share their verdict, step count and limit
    entry = get(key)
    schedule = constant_schedule(alpha)
    rec = run_trajectory(build_system(entry, algo, schedule), np.array(x0), 20_000, STOP_TOL)
    report = monte_carlo_avoidance(
        key, algo, schedule, trials=1, seed=0, max_steps=20_000, probes=[x0]
    )
    [probe] = report.stable_set_probe
    assert classify_limit(rec, entry) == probe["classification"]
    assert rec.steps_taken == probe["steps"]
    assert rec.limit_estimate.tolist() == probe["limit"]


def test_batch_tail_ends_at_last_finite_state():
    # growth by 1 % a step wraps the 60-slot ring about 23 times before
    # the state turns NaN; a stale slot must not leak into the tail
    from saddlescope.dynsys import DIVERGED, NonAutonomousSystem, SystemMap

    system = NonAutonomousSystem(
        lambda k: SystemMap(lambda x: np.where(np.abs(x) > 1e6, np.nan, 1.01 * x)), 1
    )
    ring, steps, status, _ = _evolve_batch(
        system, np.array([[1.0]]), max_steps=5000, stop_tol=1e-300
    )
    assert status[0] == DIVERGED
    assert int(steps[0]) > 20 * 60
    ks, tail = tail_of(ring, steps, 0)
    assert np.all(np.isfinite(tail))
    assert len(tail) == 59
    np.testing.assert_array_equal(ks, np.arange(steps[0] - 59, steps[0]))
    # a consecutive tail is strictly increasing; a stale wrapped entry
    # would break monotonicity
    assert np.all(np.diff(tail[:, 0]) > 0)
    assert tail[-1, 0] > 1e6


def test_default_max_steps():
    assert default_max_steps(polynomial_schedule(0.5, 1.0)) == 10**6
    assert default_max_steps(cosine_schedule(0.5, 1.0, 4)) == 10**6
    assert default_max_steps(polynomial_schedule(0.5, 0.5)) == 10**5
    assert default_max_steps(constant_schedule(0.5)) == 10**5


# --- monte carlo ---------------------------------------------------------------


def test_monte_carlo_double_well_no_saddle_hits():
    report = monte_carlo_avoidance(
        "double_well",
        "gd",
        constant_schedule(0.5),
        trials=64,
        seed=42,
        max_steps=2000,
        probes=[np.array([0.0, 0.5])],
    )
    assert sum(report.counts.values()) == 64
    assert report.counts["converged_strict_saddle"] == 0
    assert report.counts["converged_minimizer"] > 50
    assert report.saddle_hits == []
    # the on-manifold probe proves the harness can detect saddle capture
    assert len(report.stable_set_probe) == 1
    assert report.stable_set_probe[0]["classification"] == "converged_strict_saddle"


def test_monte_carlo_rgd_sphere():
    report = monte_carlo_avoidance(
        "rayleigh_sphere",
        "rgd",
        constant_schedule(0.5),
        trials=32,
        seed=7,
        max_steps=3000,
    )
    assert report.counts["converged_strict_saddle"] == 0
    assert report.counts["converged_minimizer"] >= 30


def test_monte_carlo_pp_quad_saddle_diverges_from_saddle():
    report = monte_carlo_avoidance(
        "quad_saddle",
        "pp",
        constant_schedule(0.5),
        trials=32,
        seed=3,
        max_steps=2000,
    )
    assert report.counts["converged_strict_saddle"] == 0
    assert report.counts["diverged"] >= 30


def test_monte_carlo_validates_preconditions():
    with pytest.raises(StepTooLarge):
        monte_carlo_avoidance(
            "quad_saddle", "pp", constant_schedule(1.5), trials=4, seed=0
        )
    with pytest.raises(ValueError):
        monte_carlo_avoidance(
            "quad_saddle", "gd", polynomial_schedule(1.0, 2.0), trials=4, seed=0
        )


def test_monte_carlo_deterministic_outputs():
    kwargs = dict(
        objective_key="double_well",
        algorithm="gd",
        schedule=constant_schedule(0.4),
        trials=16,
        seed=11,
        max_steps=500,
    )
    a = monte_carlo_avoidance(**kwargs)
    b = monte_carlo_avoidance(**kwargs)
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()


# sha256 of to_json() + to_csv() for three small cells, recorded with the
# one-Generator-per-trial sampler and the per-float CSV formatter: a change
# to the draws, the verdicts or the serialization shows here
REPORT_DIGESTS = [
    ("double_well", "gd", 11, [(0.0, 0.5)],
     "a32a3242a41337fd0924e29bb92c4c1a29101f0ef16101535eecdf8ffb07c1d4"),
    ("saddle_line", "pp", 12, [],
     "7e0753758defd6ad4eab370dd198a9c92104711b1a2e0f6b721816a61fca5849"),
    ("rayleigh_sphere", "rgd", 13, [],
     "68339c89e471086f77ed9e3c311756f0e7a119d61abcd7a2c223b463b9f3248e"),
    ("saddle_line", "pp", 14, [],
     "ddd375545d279b23672edd872c4adc94ef8e41b552632b0de1154bbbd5319a4d"),
    ("double_well", "pp", 15, [(0.0, 0.5)],
     "42679035e5b6d310bbf54b778ef19b91e90692cb880658cc7ad8681cf38da708"),
]
# the pinned cells that are not 200 trials at constant step 0.5, by seed: a
# vanishing-step cosine cell whose trials run their whole budget, and 199
# trials plus a probe (200 rows) at double_well's pp step 0.5 / L
PINNED_CELLS = {
    14: dict(schedule=cosine_schedule(0.5, 1.0, 4), trials=64, max_steps=3000),
    15: dict(schedule=constant_schedule(0.5 / 26.0), trials=199),
}


@pytest.mark.parametrize("key, algo, seed, probes, digest", REPORT_DIGESTS)
def test_report_bytes_are_pinned(key, algo, seed, probes, digest):
    cell = PINNED_CELLS.get(seed, dict(schedule=constant_schedule(0.5), trials=200))
    r = monte_carlo_avoidance(key, algo, seed=seed, probes=probes, **cell)
    assert hashlib.sha256((r.to_json() + r.to_csv()).encode()).hexdigest() == digest


def _per_trial_points(dim, is_sphere, trials, seed, box):
    # the reference: one SeedSequence -> Philox -> Generator per trial
    out = np.empty((trials, dim))
    for i in range(trials):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        )
        if is_sphere:
            v = rng.standard_normal(dim)
            out[i] = v / np.linalg.norm(v)
        else:
            out[i] = rng.uniform(-box, box, size=dim)
    return out


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 10**30, 2**130 + 5])
@pytest.mark.parametrize("is_sphere", [False, True])
def test_initial_points_match_the_per_trial_generators(seed, is_sphere):
    for dim in (1, 2, 3, 6):
        entry = SimpleNamespace(dim=dim, is_sphere=is_sphere)
        ref = _per_trial_points(dim, is_sphere, 3000, seed, 1.5)
        for trials in (1, 7, 3000):
            got = avoidance._initial_points(entry, trials, seed, 1.5)
            assert got.tobytes() == ref[:trials].tobytes(), (dim, trials)


@pytest.mark.parametrize("seed", [-1, 1.5, "3"])
def test_initial_points_reject_bad_seeds_as_numpy_does(seed):
    with pytest.raises((ValueError, TypeError)) as want:
        np.random.SeedSequence(entropy=seed, spawn_key=(0,))
    for is_sphere in (False, True):
        entry = SimpleNamespace(dim=2, is_sphere=is_sphere)
        with pytest.raises(want.type, match=re.escape(str(want.value))):
            avoidance._initial_points(entry, 4, seed, 2.0)


@pytest.mark.parametrize("box", [math.inf, math.nan, -1.0, None])
def test_initial_points_reject_bad_boxes_as_numpy_does(box):
    rng = np.random.Generator(np.random.Philox(0))
    with pytest.raises((ValueError, TypeError, OverflowError)) as want:
        rng.uniform(-box, box, size=2)
    entry = SimpleNamespace(dim=2, is_sphere=False)
    with pytest.raises(want.type, match=re.escape(str(want.value))):
        avoidance._initial_points(entry, 4, 1, box)


def test_seed_sequences_do_not_grow_with_trials(monkeypatch):
    # the starts cost a fixed number of numpy seedings per cell, not one per trial
    calls = []
    orig = np.random.SeedSequence

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counted)
    seen = []
    for trials in (8, 800):
        calls.clear()
        monte_carlo_avoidance("quad_saddle", "gd", constant_schedule(0.5), trials=trials, seed=3)
        seen.append(len(calls))
    assert seen[0] == seen[1] >= 1


# The stable-set probe (0, 0.5) of double_well as the parent engine, which
# evolved probes in a batch of their own, reported it for
# trials=16, seed=3, max_steps=3000.
PROBE_BY_ALGO = {
    "gd": (0.5, {"x0": [0.0, 0.5], "classification": "converged_strict_saddle",
                 "limit": [0.0, 1.5777218104420236e-30], "steps": 98}),
    "pp": (0.5 / 26, {"x0": [0.0, 0.5], "classification": "converged_strict_saddle",
                      "limit": [0.0, 5.176439748594269e-11], "steps": 1266}),
}


@pytest.mark.parametrize("algo", sorted(PROBE_BY_ALGO))
def test_probes_leave_the_trials_unchanged(algo, monkeypatch):
    alpha, expected_probe = PROBE_BY_ALGO[algo]
    kwargs = dict(
        objective_key="double_well",
        algorithm=algo,
        schedule=constant_schedule(alpha),
        trials=16,
        seed=3,
        max_steps=3000,
    )
    calls = []
    engine = avoidance._evolve_batch

    def counted(*args, **kw):
        calls.append(len(args[1]))
        return engine(*args, **kw)

    monkeypatch.setattr(avoidance, "_evolve_batch", counted)
    plain = monte_carlo_avoidance(**kwargs)
    probed = monte_carlo_avoidance(**kwargs, probes=[np.array([0.0, 0.5])])
    assert calls == [16, 17]  # one batch per cell, the probe included
    assert probed.rows == plain.rows
    assert probed.counts == plain.counts
    assert probed.saddle_hits == plain.saddle_hits
    assert probed.stable_set_probe == [expected_probe]


def test_explicit_list_cell_stops_at_the_list_end():
    report = monte_carlo_avoidance(
        "double_well", "gd", explicit_schedule([1.0] * 1200), trials=8, seed=0
    )
    assert report.counts["undecided"] == 6
    assert report.counts["diverged"] == 2
    assert max(row[3] for row in report.rows) == 1200


@pytest.mark.parametrize("probe", [[0.0, 0.5, 1.0], [0.5], 0.5])
def test_probe_dimension_checked_before_any_trial(probe, monkeypatch):
    def no_engine(*args, **kw):
        raise AssertionError("trials evolved before the probe check")

    monkeypatch.setattr(avoidance, "_evolve_batch", no_engine)
    with pytest.raises(ValueError, match="needs dimension 2"):
        monte_carlo_avoidance(
            "double_well", "gd", constant_schedule(0.5), trials=4, seed=0, probes=[probe]
        )


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about a second to import; the package needs
    # none of scipy (see test_cli_runs_load_no_scipy)
    code = "import sys, saddlescope; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_run_matrix_orders_results():
    cells = [
        dict(
            objective_key="double_well",
            algorithm="gd",
            schedule=constant_schedule(0.4),
            trials=8,
            seed=s,
            max_steps=300,
        )
        for s in (1, 2, 3)
    ]
    reports = run_matrix(cells, threads=2)
    assert [r.seed for r in reports] == [1, 2, 3]
    solo = monte_carlo_avoidance(**cells[1])
    assert reports[1].to_json() == solo.to_json()


@pytest.mark.parametrize("threads", [1, 2])
def test_run_matrix_isolates_a_failing_cell(threads):
    # pp on double_well needs sup alpha_k < 1/26, so the first cell fails
    bad = dict(objective_key="double_well", algorithm="pp", schedule=constant_schedule(0.5),
               trials=8, seed=1)
    good = dict(objective_key="quad_saddle", algorithm="gd", schedule=constant_schedule(0.5),
                trials=8, seed=2)
    results = run_matrix([bad, good], threads=threads)
    assert isinstance(results[0], StepTooLarge)
    assert "sup alpha_k = 0.5 is not below 1/L" in str(results[0])
    solo = monte_carlo_avoidance(**good)
    assert results[1].to_json() == solo.to_json()
    assert results[1].to_csv() == solo.to_csv()


def test_csv_shape():
    report = monte_carlo_avoidance(
        "quad_saddle", "gd", constant_schedule(0.5), trials=5, seed=1, max_steps=200
    )
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "trial,seed,x0_0,x0_1,classification,steps,final_grad_norm"
    assert len(lines) == 6


# --- luzin scans ----------------------------------------------------------------


def test_luzin_1d_flags_exactly_alpha_one():
    report = luzin_scan("quad_1d", "gd", [0.5, 1.0, 1.5], x_samples=100, seed=0)
    assert report.flagged_alphas == [1.0]


def test_luzin_quad_saddle_no_flags():
    report = luzin_scan("quad_saddle", "gd", [0.5], x_samples=200, seed=0)
    assert report.flagged == []
    assert report.min_abs_det[0] == pytest.approx(0.75, rel=1e-12)


def test_luzin_pp_diffeomorphism():
    report = luzin_scan("quad_saddle", "pp", [0.5], x_samples=200, seed=0)
    assert report.flagged == []
    assert report.min_abs_det[0] == pytest.approx(4.0 / 3.0, rel=1e-10)


def test_luzin_pp_rejects_large_alpha():
    with pytest.raises(StepTooLarge):
        luzin_scan("quad_saddle", "pp", [1.2], x_samples=10, seed=0)


def test_luzin_double_well_isolated_flags():
    # det(I - alpha H(x)) = (1 - alpha(3x^2 - 1))(1 - alpha): zero set is
    # measure zero in (alpha, x); only alpha = 1 is hit by the grid
    report = luzin_scan(
        "double_well", "gd", [0.25, 0.5, 1.0], x_samples=500, seed=4
    )
    assert report.flagged_alphas == [1.0]


def test_luzin_rgd_runs_and_is_deterministic():
    r1 = luzin_scan("rayleigh_sphere", "rgd", [0.3], x_samples=50, seed=9)
    r2 = luzin_scan("rayleigh_sphere", "rgd", [0.3], x_samples=50, seed=9)
    assert r1.to_json() == r2.to_json()
    assert r1.flagged == []


def test_luzin_rgd_determinants_match_per_point():
    # the reference takes det(Q(g(x))^T J(x) Q(x)) one sample at a time
    entry = get("rayleigh_sphere")
    alphas = [0.1, 0.5, 1.0]
    report = luzin_scan("rayleigh_sphere", "rgd", alphas, x_samples=300, seed=5)
    assert report.flagged == []
    for j, alpha in enumerate(alphas):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=5, spawn_key=(j,)))
        )
        X = rng.standard_normal((300, 3))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        g = rgd_system(entry.objective, constant_schedule(alpha)).map_at(0)
        dets = [
            np.linalg.det(tangent_basis(g.evaluate(x)).T @ g.jacobian(x) @ tangent_basis(x))
            for x in X
        ]
        assert report.min_abs_det[j] == pytest.approx(min(map(abs, dets)), rel=1e-12)


def test_thread_cap_counts_the_usable_cpus(monkeypatch):
    # the pool is sized by the CPUs this process may run on, not the machine's
    monkeypatch.delenv("SADDLESCOPE_THREADS", raising=False)
    monkeypatch.setattr(avoidance.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(avoidance.os, "cpu_count", lambda: 64)
    assert avoidance.thread_cap() == 1
    monkeypatch.delattr(avoidance.os, "sched_getaffinity")
    assert avoidance.thread_cap() == 64
    monkeypatch.setenv("SADDLESCOPE_THREADS", "3")
    assert avoidance.thread_cap() == 3
