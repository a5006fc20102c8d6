import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from saddlescope import avoidance, testfns
from saddlescope.dynsys import STOP_TOL, evolve_batch
from saddlescope.optimizers import tangent_basis
from saddlescope.phcert import constant_schedule, polynomial_schedule
from saddlescope.testfns import (
    KEYS,
    RAYLEIGH_DIAG,
    STRICT_SADDLE,
    CataloguedObjective,
    get,
)


def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        out[j] = (f(x + e) - f(x - e)) / (2 * h)
    return out


def test_catalogue_keys():
    assert KEYS == (
        "quad_saddle",
        "double_well",
        "saddle_line",
        "rayleigh_sphere",
        "quad_1d",
    )
    assert [get(k).key for k in KEYS] == list(KEYS)
    with pytest.raises(KeyError):
        get("rosenbrock")


def test_gradients_vanish_at_critical_points():
    rng = np.random.default_rng(0)
    for entry in map(get, KEYS):
        for cp in entry.critical_points:
            if hasattr(cp, "sample"):
                ts = rng.uniform(-10.0, 10.0, size=100)
                pts = cp.sample(ts)
            else:
                pts = cp.point[None, :]
            norms = entry.gradient_norm(pts)
            assert np.max(norms) <= 1e-10, entry.key


def test_double_well_gradient_at_origin():
    entry = get("double_well")
    np.testing.assert_array_equal(entry.objective.grad(np.zeros(2)), [0.0, 0.0])


def test_saddle_line_gradient_z_independent():
    entry = get("saddle_line")
    np.testing.assert_array_equal(
        entry.objective.grad(np.array([0.0, 0.0, 7.3])), [0.0, 0.0, 0.0]
    )


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    for entry in map(get, KEYS):
        obj = entry.objective.ambient if entry.is_sphere else entry.objective
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, size=obj.dim)
            fd = fd_gradient(obj.f, x)
            g = np.asarray(obj.grad(x))
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)


def test_hessian_matches_gradient_differences():
    rng = np.random.default_rng(2)
    for entry in map(get, KEYS):
        obj = entry.objective.ambient if entry.is_sphere else entry.objective
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, size=obj.dim)
            H = np.asarray(obj.hess(x))
            h = 1e-6
            for j in range(obj.dim):
                e = np.zeros(obj.dim)
                e[j] = h
                col = (np.asarray(obj.grad(x + e)) - np.asarray(obj.grad(x - e))) / (
                    2 * h
                )
                np.testing.assert_allclose(H[:, j], col, rtol=1e-5, atol=1e-7)


def test_listed_eigenvalues_match_spectra():
    for entry in map(get, KEYS):
        for cp in entry.critical_points:
            if hasattr(cp, "sample"):
                point = cp.sample(np.array(0.7))
            else:
                point = cp.point
            if entry.is_sphere:
                # Riemannian Hessian P (H - (x . grad f) I) P on the tangent
                obj = entry.objective
                x = point
                H = np.asarray(obj.ambient.hess(x))
                s = float(x @ np.asarray(obj.ambient.grad(x)))
                Q = tangent_basis(x)
                M = Q.T @ (H - s * np.eye(obj.dim)) @ Q
                eigs = np.sort(np.linalg.eigvalsh(M))[::-1]
            else:
                eigs = np.sort(
                    np.linalg.eigvalsh(np.asarray(entry.objective.hess(point)))
                )[::-1]
            np.testing.assert_allclose(eigs, cp.eigenvalues, atol=1e-8)


def test_rayleigh_saddle_spectrum():
    entry = get("rayleigh_sphere")
    saddles = [
        cp for cp in entry.critical_points if cp.classification == STRICT_SADDLE
    ]
    assert len(saddles) == 2
    for cp in saddles:
        assert cp.eigenvalues == (1.0, -1.0)
        assert abs(cp.point[1]) == 1.0


def test_strict_saddles_numerically_strict():
    for entry in map(get, KEYS):
        for cp in entry.critical_points:
            if cp.classification == STRICT_SADDLE:
                assert min(cp.eigenvalues) <= -1e-6


def test_double_well_box_local_lipschitz_bound():
    entry = get("double_well")
    obj = entry.objective
    assert obj.lipschitz_L == 26.0
    rng = np.random.default_rng(3)
    X = rng.uniform(-3.0, 3.0, size=(2000, 2))  # the box L = 26 is declared on
    norms = np.linalg.norm(obj.hess(X), ord=2, axis=(-2, -1))
    assert np.max(norms) <= obj.lipschitz_L


def test_nearest_critical():
    entry = get("double_well")
    cp, d = entry.nearest_critical(np.array([0.99998, 1e-6]))
    assert cp.classification == "min"
    assert d < 1e-3
    entry3 = get("saddle_line")
    fam, d3 = entry3.nearest_critical(np.array([1e-4, -1e-4, 52.0]))
    assert fam.classification == STRICT_SADDLE
    assert d3 == pytest.approx(np.hypot(1e-4, 1e-4))


# Each catalogue gradient and Hessian as a formula of its own, in the
# expressions and operand order the catalogue evaluates
def _reference_derivatives(key, x):
    lead = x.shape[:-1]
    if key == "quad_1d":
        return x.copy(), np.ones(lead + (1, 1))
    if key == "quad_saddle":
        H = np.broadcast_to(np.diag([1.0, -1.0]), lead + (2, 2))
        return np.stack([x[..., 0], -x[..., 1]], axis=-1), H
    if key == "double_well":
        H = np.zeros(lead + (2, 2))
        H[..., 0, 0] = 3.0 * x[..., 0] ** 2 - 1.0
        H[..., 1, 1] = 1.0
        x0 = x[..., 0]
        return np.stack([x0 * x0 * x0 - x0, x[..., 1]], axis=-1), H
    if key == "saddle_line":
        H = np.broadcast_to(np.diag([1.0, -1.0, 0.0]), lead + (3, 3))
        return np.stack([x[..., 0], -x[..., 1], np.zeros_like(x[..., 2])], axis=-1), H
    D = np.diag(RAYLEIGH_DIAG)
    return x @ D.T, np.broadcast_to(D, lead + (3, 3))


@pytest.mark.parametrize("key", KEYS)
def test_catalogue_derivatives_match_their_formulas_bitwise(key):
    entry = get(key)
    obj = entry.objective.ambient if entry.is_sphere else entry.objective
    rng = np.random.default_rng(5)
    X = 3.0 * rng.standard_normal((60, 70, entry.dim))
    for value, share in ((0.0, 0.1), (-0.0, 0.1), (np.inf, 0.02), (-np.inf, 0.02), (np.nan, 0.02)):
        X[rng.random(X.shape) < share] = value
    with np.errstate(invalid="ignore", over="ignore"):
        for x in (X, X[0], X[0, 0]):
            g, H = _reference_derivatives(key, x)
            assert np.asarray(obj.grad(x)).tobytes() == g.tobytes(), x.shape
            assert np.asarray(obj.hess(x)).tobytes() == np.ascontiguousarray(H).tobytes(), x.shape
            rg = obj.grad(x)
            if entry.is_sphere:
                rg = rg - np.sum(x * rg, axis=-1, keepdims=True) * x
            norm = np.linalg.norm(rg, axis=-1)
            assert np.asarray(entry.gradient_norm(x)).tobytes() == norm.tobytes()
            for s in entry.critical_points:
                want = (
                    np.linalg.norm(x[..., :2], axis=-1)
                    if key == "saddle_line"
                    else np.linalg.norm(x - s.point, axis=-1)
                )
                assert np.asarray(s.distance(x)).tobytes() == want.tobytes()


# --- double_well's cube as products --------------------------------------------


def _pow_double_well():
    # the catalogue's double_well with the gradient it had before the
    # cube became products: x0 ** 3 - x0, through libm pow
    entry = get("double_well")

    def grad(x):
        x = np.asarray(x, dtype=float)
        x0 = x[..., 0]
        out = x.copy()
        np.subtract(x0 ** 3, x0, out=out[..., 0])
        return out

    return replace(entry, objective=replace(entry.objective, grad=grad))


@pytest.mark.parametrize(
    "algo, schedule, trials, max_steps, seed",
    [
        ("gd", polynomial_schedule(0.5, 1.0), 64, 3000, 21),
        ("gd", constant_schedule(0.5), 400, 100_000, 22),
        ("pp", constant_schedule(0.5 / 26.0), 100, 100_000, 23),
    ],
    ids=["gd-poly:1:0.5", "gd-const:0.5", "pp-const:0.5/26"],
)
def test_double_well_products_keep_the_pow_verdicts(algo, schedule, trials, max_steps, seed):
    # products and pow differ only in the last bits of a cube, so the
    # rows keep their stops and verdicts and their finals stay within 1e-12
    entry, ref = get("double_well"), _pow_double_well()
    X0 = np.vstack([avoidance._initial_points(entry, trials, seed, avoidance.DEFAULT_BOX), [[0.0, 0.5]]])
    runs = []
    for e in (entry, ref):
        system = avoidance.build_system(e, algo, schedule)
        ring, steps, status, _ = evolve_batch(system, X0, max_steps, STOP_TOL)
        codes, final, _ = avoidance._classify_rows(e, X0, ring, steps, status)
        runs.append((status, steps, codes, final))
    (status, steps, codes, final), (status_r, steps_r, codes_r, final_r) = runs
    assert status.tolist() == status_r.tolist()
    assert steps.tolist() == steps_r.tolist()
    assert codes.tolist() == codes_r.tolist()
    np.testing.assert_allclose(final, final_r, rtol=1e-12, atol=0.0)


def test_catalogue_takes_no_pow_of_three_or_more():
    # numpy evaluates x ** 3 and higher through libm pow, several times
    # the cost of the products, so the catalogue writes them as products
    found = []
    tree = ast.parse(Path(testfns.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
            exp = node.right if isinstance(node, ast.BinOp) else node.value
            value = getattr(exp, "value", None)
            if isinstance(value, (int, float)) and float(value).is_integer() and value >= 3:
                found.append(f"testfns.py:{node.lineno}: {ast.unparse(node)}")
    assert not found, found
