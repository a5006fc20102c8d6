import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlescope import dynsys
from saddlescope.dynsys import (
    NonAutonomousSystem,
    Splitting,
    SystemMap,
    counterexample_product,
    run_trajectory,
)


def gd_map(grad, alpha):
    return SystemMap(evaluate=lambda x: x - alpha * grad(x), label=f"gd a={alpha}")


def quad_saddle_grad(x):
    x = np.asarray(x)
    return np.stack([x[..., 0], -x[..., 1]], axis=-1)


def test_run_trajectory_first_iterate_linear_map():
    system = NonAutonomousSystem(lambda k: gd_map(quad_saddle_grad, 0.1), 2)
    rec = run_trajectory(system, np.array([1.0, 1.0]), max_steps=1, stop_tol=1e-12)
    np.testing.assert_array_equal(rec.iterates[1], [0.9, 1.1])


def test_run_trajectory_fixed_point_stays_put():
    system = NonAutonomousSystem(lambda k: gd_map(quad_saddle_grad, 0.3), 2)
    rec = run_trajectory(system, np.zeros(2), max_steps=100, stop_tol=1e-12)
    assert np.all(rec.iterates == 0.0)
    # displacement 0, so it stops after STOP_WINDOW steps
    assert rec.steps_taken < 100


def test_run_trajectory_double_well_vanishing_steps():
    # oracle: the analytic minimizer (1, 0); a long reference run with a
    # 1e-12 stop tolerance must land within 1e-4 of it
    def grad(x):
        x = np.asarray(x)
        return np.stack([x[..., 0] ** 3 - x[..., 0], x[..., 1]], axis=-1)

    def map_at(k):
        return gd_map(grad, 0.2 / (k + 1) ** 0.5)

    system = NonAutonomousSystem(map_at, 2)
    rec = run_trajectory(
        system, np.array([0.5, 0.3]), max_steps=10**5, stop_tol=1e-12
    )
    assert rec.limit_estimate is not None
    assert np.linalg.norm(rec.limit_estimate - np.array([1.0, 0.0])) < 1e-4


def test_run_trajectory_replay_is_exact():
    def grad(x):
        x = np.asarray(x)
        return np.stack([x[..., 0] ** 3 - x[..., 0], x[..., 1]], axis=-1)

    system = NonAutonomousSystem(lambda k: gd_map(grad, 0.1 / (k + 1)), 2)
    rec = run_trajectory(system, np.array([0.4, -1.2]), max_steps=200, stop_tol=1e-15)
    for j in range(len(rec.step_indices) - 1):
        k0, k1 = rec.step_indices[j], rec.step_indices[j + 1]
        if k1 == k0 + 1:
            replay = system.map_at(int(k0)).evaluate(rec.iterates[j])
            np.testing.assert_array_equal(replay, rec.iterates[j + 1])


def test_run_trajectory_divergence_flagged():
    system = NonAutonomousSystem(lambda k: SystemMap(lambda x: 3.0 * x), 1)
    rec = run_trajectory(system, np.array([1.0]), max_steps=10_000, stop_tol=1e-12)
    assert rec.classification == "diverged"
    assert rec.limit_estimate is None


def test_run_trajectory_nan_flagged_diverged():
    def step(x):
        return np.where(np.abs(x) > 10, np.nan, x * 4.0)

    system = NonAutonomousSystem(lambda k: SystemMap(step), 1)
    rec = run_trajectory(system, np.array([1.0]), max_steps=100, stop_tol=1e-12)
    assert rec.classification == "diverged"
    # the NaN state is not stored: the record ends at the last finite one
    assert np.all(np.isfinite(rec.iterates))
    assert rec.step_indices[-1] == rec.steps_taken - 1


def test_run_trajectory_is_one_engine_call(monkeypatch):
    # run_trajectory has no loop of its own: one call into the batch
    # engine, with a single row
    calls = []
    engine = dynsys.evolve_batch

    def counted(system, X0, *args, **kw):
        calls.append(np.shape(X0))
        return engine(system, X0, *args, **kw)

    monkeypatch.setattr(dynsys, "evolve_batch", counted)
    system = NonAutonomousSystem(lambda k: gd_map(quad_saddle_grad, 0.1), 2)
    rec = run_trajectory(system, np.array([1.0, 1.0]), max_steps=50, stop_tol=1e-12)
    assert calls == [(1, 2)]
    assert rec.steps_taken == 50


@pytest.mark.parametrize("stop_tol", [0.0, -1.0, float("nan")])
def test_run_trajectory_rejects_a_stop_tol_that_is_not_positive(stop_tol):
    system = NonAutonomousSystem(lambda k: gd_map(quad_saddle_grad, 0.1), 2)
    with pytest.raises(ValueError, match="stop_tol must be positive"):
        run_trajectory(system, np.ones(2), max_steps=3, stop_tol=stop_tol)


def test_run_trajectory_sampled_storage():
    system = NonAutonomousSystem(lambda k: SystemMap(lambda x: x * 0.999999), 1)
    rec = run_trajectory(
        system, np.array([1.0]), max_steps=2000, stop_tol=1e-300, store_cap=100
    )
    assert dynsys.STORE_STRIDE == 100 and dynsys.STOP_WINDOW == 60
    ks = set(rec.step_indices.tolist())
    assert {0, 1, 100}.issubset(ks)
    assert {101, 150, 1899}.isdisjoint(ks)  # beyond cap, only strided + tail survive
    assert set(range(200, 2001, 100)).issubset(ks)
    assert all(k in ks for k in range(1941, 2001))
    assert 1940 not in ks
    assert len(rec.tail(60)) == 60


def test_trajectory_json_roundtrip():
    system = NonAutonomousSystem(lambda k: gd_map(quad_saddle_grad, 0.1), 2)
    rec = run_trajectory(system, np.array([1.0, 1.0]), max_steps=5, stop_tol=1e-12)
    assert rec.classification == "undecided"
    assert rec.steps_taken == 5
    assert rec.step_indices[0] == 0 and rec.iterates[0].tolist() == [1.0, 1.0]


# --- splittings and the max-norm ------------------------------------------


def test_max_norm_axes():
    sp = Splitting([np.array([1.0, 0.0])], [np.array([0.0, 1.0])])
    assert sp.max_norm(np.array([3.0, -4.0])) == 4.0
    assert sp.max_norm(np.zeros(2)) == 0.0


def test_max_norm_empty_cs_factor():
    # an empty E_cs has norm 0, so the max-norm is ||p_u x||
    e1, e2 = np.eye(2)
    sp = Splitting([], [e1, e2])
    assert sp.basis_cs.shape == (2, 0) and sp.dim_cs == 0 and sp.dim == 2
    X = np.array([[3.0, -4.0], [0.0, 0.0], [-1e-3, 2.0]])
    assert sp.max_norm(X).tolist() == np.linalg.norm(X, axis=-1).tolist()
    assert sp.max_norm(X[0]) == 5.0


def test_max_norm_empty_u_factor():
    # an empty E_u has norm 0, so the max-norm is ||p_cs x||, for [] and
    # for a (d, 0) column block alike
    e_cs = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    X = np.array([[3.0, -4.0], [0.0, 0.0], [-1e-3, 2.0]])
    for sp in (Splitting(e_cs, []), Splitting.from_columns(e_cs.T, np.zeros((2, 0)))):
        assert sp.basis_u.shape == (2, 0) and sp.dim_u == 0 and sp.dim_cs == 2 and sp.dim == 2
        assert sp.max_norm(X).tolist() == np.linalg.norm(X @ e_cs.T, axis=-1).tolist()
        assert sp.max_norm(X[0]) == np.linalg.norm(X[0] @ e_cs.T)
    with pytest.raises(ValueError):
        Splitting([], [])
    with pytest.raises(ValueError):
        Splitting.from_columns(np.zeros((2, 0)), np.zeros((2, 0)))


def test_max_norm_rotated_splitting():
    # oracle: hand projection onto span{(1,1)/sqrt2} and span{(1,-1)/sqrt2},
    # cross-checked with brute-force projector matrices
    e_cs = np.array([1.0, 1.0]) / np.sqrt(2)
    e_u = np.array([1.0, -1.0]) / np.sqrt(2)
    sp = Splitting([e_cs], [e_u])
    x = np.array([1.0, 0.0])
    P_cs = np.outer(e_cs, e_cs)
    P_u = np.outer(e_u, e_u)
    brute = max(np.linalg.norm(P_cs @ x), np.linalg.norm(P_u @ x))
    got = sp.max_norm(x)
    assert got == pytest.approx(brute, abs=1e-15)
    assert got == pytest.approx(0.7071067811865476, abs=1e-15)


def test_projectors_sum_to_identity_and_are_idempotent():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((4, 4))
    Q, _ = np.linalg.qr(A)
    sp = Splitting.from_columns(Q[:, :3], Q[:, 3:])
    X = rng.standard_normal((100, 4))
    zero_cs, zero_u = np.zeros((100, 3)), np.zeros((100, 1))

    def project_cs(x):
        return sp.embed(sp.coords_cs(x), zero_u)

    def project_u(x):
        return sp.embed(zero_cs, sp.coords_u(x))

    np.testing.assert_allclose(project_cs(X) + project_u(X), X, atol=1e-12)
    np.testing.assert_allclose(project_cs(project_cs(X)), project_cs(X), atol=1e-12)
    np.testing.assert_allclose(project_u(project_cs(X)), 0.0, atol=1e-12)


def test_splitting_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        Splitting([np.array([1.0, 0.0])], [np.array([1.0, 1e-6])])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_max_norm_axioms(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    m = int(rng.integers(1, d))
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    sp = Splitting.from_columns(Q[:, :m], Q[:, m:])
    X = rng.standard_normal((1000, d))
    Y = rng.standard_normal((1000, d))
    c = rng.standard_normal(1000)
    nx, ny = sp.max_norm(X), sp.max_norm(Y)
    assert np.all(sp.max_norm(X + Y) <= nx + ny + 1e-10)
    np.testing.assert_allclose(sp.max_norm(c[:, None] * X), np.abs(c) * nx, atol=1e-10)
    assert np.all(nx[np.linalg.norm(X, axis=1) > 1e-8] > 0)


# --- the shared-splitting counterexample ----------------------------------


def test_counterexample_exact_rational_oracle():
    g1 = [[Fraction(0), Fraction(0)], [Fraction(-1, 5), Fraction(2)]]
    g2 = [[Fraction(198), Fraction(1, 5)], [Fraction(0), Fraction(2)]]

    def matmul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)
        ]

    g2sq = matmul(g2, g2)
    assert g2sq == [[Fraction(39204), Fraction(40)], [Fraction(0), Fraction(4)]]
    once = matmul(g1, g2sq)
    assert once == [[Fraction(0), Fraction(0)], [Fraction(-39204, 5), Fraction(0)]]
    squared = matmul(once, once)
    assert squared == [[Fraction(0)] * 2, [Fraction(0)] * 2]


def test_counterexample_product_is_zero():
    prod = counterexample_product()
    assert np.max(np.abs(prod)) < 1e-9


def _special_rows(rng, shape):
    """Normals over a wide range of scales, with ±0, ±inf and NaN mixed in."""
    X = rng.standard_normal(shape) * np.exp(rng.uniform(-300, 300, shape))
    for value, share in ((0.0, 0.1), (-0.0, 0.1), (np.inf, 0.02), (-np.inf, 0.02), (np.nan, 0.02)):
        X[rng.random(shape) < share] = value
    return X


@pytest.mark.parametrize("d", range(8))
def test_row_sumsq_matches_add_reduce_bitwise(d):
    # _row_norms against np.linalg.norm for d = 0..7, _row_sumsq for d >= 1
    rng = np.random.default_rng(d)
    for shape in ((4000, d), (50, 80, d), (d,)):
        X = _special_rows(rng, shape)
        with np.errstate(over="ignore", invalid="ignore"):
            if d:
                want = np.add.reduce(X * X, axis=-1)
                got = dynsys._row_sumsq(X)
                assert np.shape(got) == want.shape
                assert np.asarray(got).tobytes() == want.tobytes(), (d, shape)
            want = np.linalg.norm(X, axis=-1)
            got = dynsys._row_norms(X)
        assert type(got) is type(want) and np.shape(got) == want.shape
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (d, shape)


def test_row_norms_have_one_owner():
    # every per-row Euclidean norm of the package goes through
    # dynsys._row_norms: no np.linalg.norm(..., axis=...) and no
    # np.sqrt(_row_sumsq(...)) in the source
    found = []
    for path in sorted(Path(dynsys.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = ast.unparse(node.func)
            if (name == "np.linalg.norm" and any(k.arg == "axis" for k in node.keywords)) or (
                name == "np.sqrt" and "_row_sumsq(" in ast.unparse(node.args[0])
            ):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not found, found


# --- the blocked engine against a per-step reference -----------------------


def _per_step_evolve_batch(system, X0, max_steps, stop_tol, store_cap=0, store_stride=0):
    """The reference engine: the stop and divergence rules tested after every step."""
    W, R = dynsys.STOP_WINDOW, dynsys.DIVERGENCE_RADIUS
    row_sumsq = dynsys._row_sumsq
    Xa = np.array(X0, dtype=float)
    N, d = Xa.shape
    steps = np.full(N, max_steps)
    status = np.full(N, dynsys.ACTIVE)
    ring = np.full((W, N, d), np.nan)
    ring[0] = Xa
    n_hist = min(max_steps, store_cap) + 1
    if store_stride and max_steps > store_cap:
        n_hist += max_steps // store_stride - store_cap // store_stride
    history = np.full((n_hist, N, d), np.nan)
    history[0] = Xa
    h = 0
    idx, rows = np.arange(N), slice(None)
    run = np.zeros(N, dtype=int)
    top = 0
    for k in range(max_steps):
        X1 = np.asarray(system.map_at(k).evaluate(Xa), dtype=float)
        k1 = k + 1
        ring[k1 % W, rows] = X1
        if k1 <= store_cap or (store_stride and k1 % store_stride == 0):
            h += 1
            history[h, rows] = X1
        D = X1 - Xa
        small = np.sqrt(row_sumsq(D)) < stop_tol
        if top or np.count_nonzero(small):
            run = np.where(small, run + 1, 0)
            top = np.maximum.reduce(run)
        sq = row_sumsq(X1)
        if not math.sqrt(np.maximum.reduce(sq)) <= R or top >= W:
            stop = run >= W
            bad = ~(np.sqrt(sq) <= R)
            status[idx[stop]] = dynsys.STOPPED
            status[idx[bad]] = dynsys.DIVERGED
            leave = stop | bad
            steps[idx[leave]] = k1
            idx, rows, X1, run = idx[~leave], idx[~leave], X1[~leave], run[~leave]
            if not idx.size:
                break
            top = np.maximum.reduce(run)
        Xa = X1
    return ring, steps, status, history


def _scripted_system(d, calls):
    """Rows follow scripts keyed by a tag kept, unchanged, in the last coordinate.

    Scripts (tag % 9): halve towards 0; move by 1 until a step, then stay
    put; triple until the norm passes the radius; turn NaN, +inf or -inf
    at a step; sit between R/sqrt(d) and R, moving by 1 until a step;
    take runs of small steps of a tag-dependent length between big ones;
    at a step, jump past the radius in one coordinate (odd tags) or set
    every coordinate to 0.8 R (even tags: past the radius for d > 2).  Each call's step
    index and row tags are appended to calls.
    """
    R = dynsys.DIVERGENCE_RADIUS

    def map_at(k):
        def evaluate(X):
            X = np.array(X, dtype=float)
            tag = X[:, -1].astype(int)
            calls.append((k, tuple(tag.tolist())))
            kind, at = tag % 9, (7 * tag) % 173
            x = X[:, :-1]
            new = np.select(
                [
                    kind[:, None] == 0,
                    (kind[:, None] == 1) & (k < at[:, None]),
                    kind[:, None] == 1,
                    kind[:, None] == 2,
                    (kind[:, None] >= 3) & (kind[:, None] <= 5) & (k == at[:, None]),
                    (kind[:, None] == 6) & (k < at[:, None]),
                    kind[:, None] == 6,
                    (kind[:, None] == 7) & ((k % (40 + tag[:, None] % 50)) == 0),
                    kind[:, None] == 7,
                    (kind[:, None] == 8) & (k == at[:, None]),
                ],
                [
                    x * 0.5,
                    x + 1.0,
                    x,
                    x * 3.0,
                    np.choose((kind[:, None] - 3) % 3, [np.nan, np.inf, -np.inf]) + 0 * x,
                    x + (-1.0) ** k,
                    x,
                    x + 1.0,
                    x + 1e-14,
                    np.where(tag[:, None] % 2, x + 2.0 * R, 0.8 * R),
                ],
                default=x + 0.25,
            )
            X[:, :-1] = new
            return X

        return SystemMap(evaluate)

    return NonAutonomousSystem(map_at, d)


def _scripted_starts(rng, N, d):
    X = rng.uniform(-2.0, 2.0, (N, d))
    tag = np.arange(N)
    X[:, -1] = tag
    kind = tag % 9
    parked = dynsys.DIVERGENCE_RADIUS * 0.9 / np.sqrt(max(d - 1, 1))
    X[kind == 6, :-1] = parked  # above R / sqrt(d) in every coordinate, below R in norm
    X[kind == 2, 0] = 10.0 ** rng.uniform(0, 7, np.count_nonzero(kind == 2))
    return X


@pytest.mark.parametrize(
    "N, d, max_steps",
    [(1, 2, 400), (64, 2, 400), (3000, 2, 260), (64, 3, 300), (200, 2, 61), (30, 2, 1)],
)
def test_evolve_batch_matches_per_step_reference_bitwise(N, d, max_steps):
    rng = np.random.default_rng(N + d + max_steps)
    combos = [(0, 0), (0, 1), (1, 0), (7, 3), (59, 60), (60, 7), (61, 100), (150, 1), (5, 2)]
    combos += [(max_steps + 5, 7), (max_steps, 0)]
    for store_cap, store_stride in combos:
        for tags in ([0], [6], [1, 6], None) if N == 1 else (None,):
            X0 = _scripted_starts(rng, N, d)
            if tags is not None:
                X0[:, -1] = tags[store_cap % len(tags)]
                if X0[0, -1] == 6:
                    X0[0, :-1] = dynsys.DIVERGENCE_RADIUS * 0.9 / np.sqrt(max(d - 1, 1))
            got_calls, want_calls = [], []
            args = (max_steps, 1e-12, store_cap, store_stride)
            with np.errstate(over="ignore", invalid="ignore"):
                got = dynsys.evolve_batch(_scripted_system(d, got_calls), X0, *args)
                want = _per_step_evolve_batch(_scripted_system(d, want_calls), X0, *args)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (store_cap, store_stride)
            assert got_calls == want_calls


def test_scripted_rows_cover_every_way_to_leave():
    # the cases the bitwise check relies on: stops after runs carried
    # across blocks and at staggered steps, parked rows that fail the
    # guard every step yet stay, and NaN, +-inf and finite blow-ups
    N, d, W, R = 64, 3, dynsys.STOP_WINDOW, dynsys.DIVERGENCE_RADIUS
    X0 = _scripted_starts(np.random.default_rng(0), N, d)
    with np.errstate(over="ignore", invalid="ignore"):
        ring, steps, status, _ = dynsys.evolve_batch(_scripted_system(d, []), X0, 400, 1e-12)
    kind = np.arange(N) % 9
    final = ring[steps % W, np.arange(N), 0]
    assert np.all(status[np.isin(kind, [0, 1, 6])] == dynsys.STOPPED)
    assert np.all(status[np.isin(kind, [2, 3, 4, 5, 8])] == dynsys.DIVERGED)
    assert set(status[kind == 7]) == {dynsys.ACTIVE, dynsys.STOPPED}
    assert len(set(steps[status == dynsys.STOPPED] % W)) > 10
    parked = kind == 6
    assert np.all(X0[parked, 0] > R / np.sqrt(d))
    assert np.all(np.linalg.norm(ring[steps[parked] % W, np.flatnonzero(parked)], axis=1) < R)
    assert np.isnan(final[kind == 3]).all()
    assert (final[kind == 4] == np.inf).all() and (final[kind == 5] == -np.inf).all()
    jumped = np.isfinite(final) & (kind == 8)
    assert np.all(jumped == (kind == 8)) and set(final[jumped] < R) == {True, False}
