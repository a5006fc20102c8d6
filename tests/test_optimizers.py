import math

import numpy as np
import pytest

from saddlescope.dynsys import NonAutonomousSystem, SystemMap, run_trajectory
from saddlescope.optimizers import (
    InnerSolveFailed,
    Objective,
    OutsideChart,
    SphereObjective,
    gd_system,
    lift_to_tangent,
    pp_system,
    prox_inverse,
    prox_solve,
    rgd_system,
    solve_small,
    sphere_exp,
    sphere_log,
    tangent_basis,
)
from saddlescope.phcert import (
    SpectralData,
    StepTooLarge,
    build_pp_certificate,
    constant_schedule,
    polynomial_schedule,
)
from saddlescope.testfns import get


def fd_jacobian(fn, x, h=1e-6):
    """Central-difference Jacobian oracle."""
    x = np.asarray(x, dtype=float)
    d = x.size
    cols = []
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        cols.append((np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2 * h))
    return np.stack(cols, axis=-1)


# --- gradient descent --------------------------------------------------------


def test_gd_quadratic_step():
    sys_ = gd_system(get("quad_saddle").objective, constant_schedule(0.1))
    np.testing.assert_array_equal(
        sys_.map_at(0).evaluate(np.array([1.0, 1.0])), [0.9, 1.1]
    )


def test_gd_fixes_critical_points():
    for key in ("quad_saddle", "double_well", "saddle_line"):
        entry = get(key)
        sys_ = gd_system(entry.objective, polynomial_schedule(0.5, 1.0))
        for cp in entry.critical_points:
            pts = (
                [cp.sample(np.array(t)) for t in (-3.0, 0.0, 7.3)]
                if hasattr(cp, "sample")
                else [cp.point]
            )
            for p in pts:
                for k in range(0, 40, 7):
                    assert (
                        np.linalg.norm(sys_.map_at(k).evaluate(p) - p) <= 1e-10
                    )


def test_gd_arbitrarily_large_steps_are_legal():
    # f = x^4/4 with alpha_0 = 1 from x = 2: one step lands at -6
    obj = Objective(
        f=lambda x: 0.25 * np.asarray(x)[..., 0] ** 4,
        grad=lambda x: np.asarray(x) ** 3,
        hess=lambda x: 3.0 * (np.asarray(x) ** 2)[..., None],
        dim=1,
    )
    sys_ = gd_system(obj, constant_schedule(1.0))
    assert sys_.map_at(0).evaluate(np.array([2.0]))[0] == -6.0


def test_gd_jacobian_matches_finite_differences():
    entry = get("double_well")
    sys_ = gd_system(entry.objective, constant_schedule(0.2))
    x = np.array([0.3, -0.8])
    J = sys_.map_at(0).jacobian(x)
    np.testing.assert_allclose(
        J, fd_jacobian(sys_.map_at(0).evaluate, x), rtol=1e-5, atol=1e-8
    )


# --- Riemannian gradient descent ----------------------------------------------


def test_rgd_fixes_sphere_critical_points():
    entry = get("rayleigh_sphere")
    sys_ = rgd_system(entry.objective, constant_schedule(0.1))
    for cp in entry.critical_points:
        np.testing.assert_array_equal(sys_.map_at(0).evaluate(cp.point), cp.point)


def test_rgd_hand_computed_step():
    entry = get("rayleigh_sphere")
    sys_ = rgd_system(entry.objective, constant_schedule(0.1))
    x = np.ones(3) / math.sqrt(3.0)
    got = sys_.map_at(0).evaluate(x)
    expected = np.array([1.1, 1.0, 0.9]) / math.sqrt(3.02)
    np.testing.assert_allclose(got, expected, atol=1e-14)


def test_rgd_riemannian_grad_against_finite_differences():
    # oracle: tangent directional derivatives of the restricted cost
    entry = get("rayleigh_sphere")
    obj = entry.objective
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        g = obj.riemannian_grad(x)
        assert abs(float(x @ g)) < 1e-10
        Q = tangent_basis(x)
        h = 1e-6
        for j in range(2):
            v = Q[:, j]
            plus = (x + h * v) / np.linalg.norm(x + h * v)
            minus = (x - h * v) / np.linalg.norm(x - h * v)
            fd = (obj.f(plus) - obj.f(minus)) / (2 * h)
            assert float(g @ v) == pytest.approx(float(fd), abs=1e-6)


def test_rgd_stays_on_sphere_long_run():
    entry = get("rayleigh_sphere")
    sys_ = rgd_system(entry.objective, polynomial_schedule(0.5, 1.0))
    x = np.array([0.6, 0.48, 0.64])
    x /= np.linalg.norm(x)
    for k in range(100_000):
        x = sys_.map_at(k).evaluate(x)
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-12


def test_rgd_jacobian_matches_finite_differences():
    entry = get("rayleigh_sphere")
    g = rgd_system(entry.objective, constant_schedule(0.3)).map_at(0)
    rng = np.random.default_rng(4)
    X = rng.standard_normal((40, 3))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    J = g.jacobian(X)
    assert J.shape == (40, 3, 3)
    for x, Jx in zip(X, J):
        # a batch gives each row the bits of its own one-point call
        np.testing.assert_array_equal(Jx, g.jacobian(x))
    for x, Jx in zip(X[:5], J[:5]):
        np.testing.assert_allclose(Jx, fd_jacobian(g.evaluate, x), rtol=1e-5, atol=1e-7)


def test_tangent_basis_batched_matches_rows():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((4, 6, 3))
    X /= np.linalg.norm(X, axis=-1, keepdims=True)
    Q = tangent_basis(X)
    assert Q.shape == (4, 6, 3, 2)
    assert tangent_basis(X[0, 0]).shape == (3, 2)
    for i in range(4):
        for j in range(6):
            np.testing.assert_array_equal(Q[i, j], tangent_basis(X[i, j]))


# --- proximal point ------------------------------------------------------------


def test_pp_quadratic_closed_form():
    entry = get("quad_saddle")
    sys_ = pp_system(entry.objective, constant_schedule(0.1), inner_tol=1e-13)
    got = sys_.map_at(0).evaluate(np.array([1.0, 1.0]))
    np.testing.assert_allclose(got, [1.0 / 1.1, 1.0 / 0.9], atol=1e-13)


def test_pp_newton_matches_closed_form_random_points():
    entry = get("quad_saddle")
    H = np.diag([1.0, -1.0])
    rng = np.random.default_rng(8)
    X = rng.uniform(-2, 2, size=(1000, 2))
    alpha = 0.5
    Z = prox_solve(entry.objective, alpha, X, inner_tol=1e-13)
    closed = np.linalg.solve(np.eye(2) + alpha * H, X.T).T
    np.testing.assert_allclose(Z, closed, atol=1e-12)


def test_pp_fixes_critical_points_bitwise():
    entry = get("double_well")
    sys_ = pp_system(entry.objective, constant_schedule(0.01))
    for cp in entry.critical_points:
        np.testing.assert_array_equal(sys_.map_at(3).evaluate(cp.point), cp.point)


def test_pp_inverse_round_trip():
    entry = get("double_well")
    alpha = 0.01
    sys_ = pp_system(entry.objective, constant_schedule(alpha), inner_tol=1e-13)
    rng = np.random.default_rng(12)
    X = rng.uniform(-3, 3, size=(100, 2))
    Z = sys_.map_at(0).evaluate(X)
    np.testing.assert_allclose(prox_inverse(entry.objective, alpha, Z), X, atol=1e-10)


def test_pp_newton_matrix_positive_definite():
    entry = get("double_well")
    alpha = 0.03  # below 1/L = 1/26
    rng = np.random.default_rng(2)
    X = rng.uniform(-3, 3, size=(200, 2))
    Z = prox_solve(entry.objective, alpha, X, inner_tol=1e-12)
    H = entry.objective.hess(Z)
    eigs = np.linalg.eigvalsh(np.eye(2) + alpha * H)
    assert np.min(eigs) >= 1.0 - alpha * 26.0 - 1e-10


def test_pp_contraction_bound():
    entry = get("quad_saddle")
    alpha = 0.5
    sys_ = pp_system(entry.objective, constant_schedule(alpha))
    rng = np.random.default_rng(9)
    rho = 1.0 / (1.0 - alpha * 1.0)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=2)
        J = sys_.map_at(0).jacobian(x)
        assert np.linalg.norm(J, 2) <= rho + 1e-8


def test_pp_rejects_large_steps():
    entry = get("quad_saddle")
    with pytest.raises(StepTooLarge):
        pp_system(entry.objective, constant_schedule(1.0))
    obj1d = Objective(
        f=lambda x: -np.asarray(x)[..., 0] ** 2,
        grad=lambda x: -2.0 * np.asarray(x),
        hess=lambda x: np.full(np.asarray(x).shape[:-1] + (1, 1), -2.0),
        dim=1,
        lipschitz_L=2.0,
    )
    with pytest.raises(StepTooLarge):
        pp_system(obj1d, constant_schedule(0.9))


def test_pp_step_bound_one_message():
    # pp_system and build_pp_certificate share one step bound and its message
    entry = get("quad_saddle")
    sched = polynomial_schedule(1.25, 0.5)
    with pytest.raises(StepTooLarge) as system_exc:
        pp_system(entry.objective, sched)
    with pytest.raises(StepTooLarge) as cert_exc:
        build_pp_certificate(SpectralData.from_hessian(np.diag([1.0, -1.0])), sched, L=1.0)
    assert str(system_exc.value) == str(cert_exc.value) == "sup alpha_k = 1.25 is not below 1/L = 1"


def test_pp_requires_lipschitz_constant():
    obj = Objective(
        f=lambda x: np.sum(np.asarray(x) ** 2, axis=-1),
        grad=lambda x: 2.0 * np.asarray(x),
        hess=lambda x: np.broadcast_to(
            2.0 * np.eye(1), np.asarray(x).shape[:-1] + (1, 1)
        ),
        dim=1,
    )
    with pytest.raises(ValueError):
        pp_system(obj, constant_schedule(0.1))


def test_solve_small_matches_numpy():
    rng = np.random.default_rng(6)
    for d in (1, 2, 3, 4):
        J = rng.standard_normal((50, d, d)) + 3.0 * np.eye(d)
        F = rng.standard_normal((50, d))
        np.testing.assert_allclose(
            solve_small(J, F), np.linalg.solve(J, F[..., None])[..., 0], atol=1e-10
        )


def test_all_algorithms_fix_critical_points_at_20_ks():
    ks = np.arange(1, 101, 5)  # 20 sampled step indices
    cases = []
    for key in ("quad_saddle", "double_well", "saddle_line"):
        entry = get(key)
        L = entry.objective.lipschitz_L
        cases.append((entry, gd_system(entry.objective, polynomial_schedule(0.5, 1.0))))
        cases.append(
            (entry, pp_system(entry.objective, polynomial_schedule(0.5 / L, 1.0)))
        )
    sphere = get("rayleigh_sphere")
    cases.append((sphere, rgd_system(sphere.objective, polynomial_schedule(0.5, 1.0))))
    for entry, system in cases:
        for cp in entry.critical_points:
            pts = (
                [cp.sample(np.array(t)) for t in (-2.0, 0.0, 5.5)]
                if hasattr(cp, "sample")
                else [cp.point]
            )
            for p in pts:
                for k in ks:
                    drift = np.linalg.norm(system.map_at(int(k)).evaluate(p) - p)
                    assert drift <= 1e-10, (entry.key, cp.classification, k)


# --- tangent-space lifts --------------------------------------------------------


def test_lift_fixes_origin():
    entry = get("rayleigh_sphere")
    sys_ = rgd_system(entry.objective, polynomial_schedule(0.2, 1.0))
    lifted = lift_to_tangent(entry.objective, np.array([0.0, 1.0, 0.0]), sys_)
    for k in (0, 1, 5):
        np.testing.assert_array_equal(lifted.map_at(k).evaluate(np.zeros(2)), 0.0)


def test_lift_linearization_spectrum():
    # D g~_k(0) has eigenvalues 1 - alpha_k (h_i - h_base) = {1 + a, 1 - a}
    entry = get("rayleigh_sphere")
    alpha = 0.2
    sys_ = rgd_system(entry.objective, constant_schedule(alpha))
    lifted = lift_to_tangent(entry.objective, np.array([0.0, 1.0, 0.0]), sys_)
    J = fd_jacobian(lifted.map_at(0).evaluate, np.zeros(2), h=1e-6)
    eigs = np.sort(np.linalg.eigvals(J).real)
    np.testing.assert_allclose(eigs, [1.0 - alpha, 1.0 + alpha], atol=1e-8)


def test_sphere_exp_log_round_trip():
    # log is the true logarithm on the whole sphere short of the antipode
    base = np.array([0.0, 1.0, 0.0])
    rng = np.random.default_rng(5)
    V = rng.standard_normal((400, 3))
    V -= np.outer(V @ base, base)
    lengths = np.append(rng.uniform(0.01, 0.99 * math.pi, size=399), 0.99 * math.pi)
    V *= (lengths / np.linalg.norm(V, axis=1))[:, None]
    P = sphere_exp(base, V)
    np.testing.assert_allclose(np.linalg.norm(P, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(sphere_log(base, P), V, atol=1e-10)


def test_lift_round_trip_in_chart():
    entry = get("rayleigh_sphere")
    base = np.array([0.0, 1.0, 0.0])
    Q = tangent_basis(base)
    rng = np.random.default_rng(15)
    for _ in range(50):
        vc = rng.standard_normal(2)
        vc *= rng.uniform(0, math.pi / 4) / np.linalg.norm(vc)
        p = sphere_exp(base, vc @ Q.T)
        back = sphere_log(base, p) @ Q
        np.testing.assert_allclose(back, vc, atol=1e-10)


def test_lift_outside_chart_raises():
    # a sphere map fixing the base but flinging everything else to the
    # antipodal hemisphere leaves the pi/2 chart immediately, and the
    # engine lets the exception end the run
    entry = get("rayleigh_sphere")
    base = np.array([0.0, 1.0, 0.0])

    def fling(p):
        p = np.asarray(p, dtype=float)
        c = np.sum(p * base, axis=-1, keepdims=True)
        return np.where(c > 0.99, p, -p)

    sys_ = NonAutonomousSystem(lambda k: SystemMap(fling), 3)
    lifted = lift_to_tangent(entry.objective, base, sys_)
    with pytest.raises(OutsideChart, match="iterate left"):
        lifted.map_at(0).evaluate(np.array([0.9, 0.4]))
    with pytest.raises(OutsideChart, match="input left"):
        lifted.map_at(0).evaluate(np.array([2.0, 0.0]))
    with pytest.raises(OutsideChart):
        run_trajectory(lifted, np.array([0.9, 0.4]), max_steps=50, stop_tol=1e-12)


def test_lift_requires_fixed_point():
    entry = get("rayleigh_sphere")
    sys_ = rgd_system(entry.objective, constant_schedule(0.2))
    x = np.array([0.6, 0.8, 0.0])
    with pytest.raises(ValueError):
        lift_to_tangent(entry.objective, x, sys_)


def _cramer(J, F):
    """The closed-form solve written out entry by entry, for d = 2 and 3."""
    if J.shape[-1] == 2:
        a, b = J[..., 0, 0], J[..., 0, 1]
        c, e = J[..., 1, 0], J[..., 1, 1]
        det = a * e - b * c
        x0 = (e * F[..., 0] - b * F[..., 1]) / det
        x1 = (a * F[..., 1] - c * F[..., 0]) / det
        return np.stack([x0, x1], axis=-1)
    a, b, c = J[..., 0, 0], J[..., 0, 1], J[..., 0, 2]
    e, f, g = J[..., 1, 0], J[..., 1, 1], J[..., 1, 2]
    h, i, j = J[..., 2, 0], J[..., 2, 1], J[..., 2, 2]
    A = f * j - g * i
    B = -(e * j - g * h)
    C = e * i - f * h
    det = a * A + b * B + c * C
    D = -(b * j - c * i)
    E = a * j - c * h
    Fm = -(a * i - b * h)
    G = b * g - c * f
    H = -(a * g - c * e)
    I2 = a * f - b * e
    x0 = (A * F[..., 0] + D * F[..., 1] + G * F[..., 2]) / det
    x1 = (B * F[..., 0] + E * F[..., 1] + H * F[..., 2]) / det
    x2 = (C * F[..., 0] + Fm * F[..., 1] + I2 * F[..., 2]) / det
    return np.stack([x0, x1, x2], axis=-1)


@pytest.mark.parametrize("d", [2, 3])
def test_solve_small_matches_cramer_bitwise(d):
    rng = np.random.default_rng(d)
    J = rng.standard_normal((400, d, d)) + 3.0 * np.eye(d)
    F = rng.standard_normal((400, d))
    # entries from {-1, ±0, 1}: many cofactors cancel to ±0, some rows are singular
    J[:300] = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(300, d, d))
    F[:150] = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(150, d))
    J[300] = 1.0  # singular
    J[301, 0, 1] = np.nan
    F[302, -1] = np.nan
    with np.errstate(divide="ignore", invalid="ignore"):
        want = _cramer(J, F)
        for lead in ((400,), (20, 20)):
            got = solve_small(J.reshape(lead + (d, d)), F.reshape(lead + (d,)))
            assert got.shape == lead + (d,)
            assert got.tobytes() == want.reshape(got.shape).tobytes(), lead
        assert solve_small(J[7], F[7]).tobytes() == want[7].tobytes()
    if d == 3:  # the rows exercise cofactors of -0.0, here B = -(ej - gh)
        B = -(J[:300, 1, 0] * J[:300, 2, 2] - J[:300, 1, 2] * J[:300, 2, 0])
        assert np.any((B == 0.0) & np.signbit(B))


def test_rgd_map_matches_its_formula_bitwise():
    sphere = get("rayleigh_sphere").objective
    rng = np.random.default_rng(3)
    X = rng.standard_normal((500, 3))
    X /= np.linalg.norm(X, axis=-1, keepdims=True)
    X[:50] = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(50, 3))
    g = X @ np.diag([1.0, 2.0, 3.0])
    rg = g - np.sum(X * g, axis=-1, keepdims=True) * X
    assert sphere.riemannian_grad(X).tobytes() == rg.tobytes()
    w = X - 0.3 * rg
    with np.errstate(invalid="ignore"):
        want = w / np.linalg.norm(w, axis=-1, keepdims=True)
        assert sphere.retraction(X, -0.3 * rg).tobytes() == want.tobytes()
        assert sphere.retraction(X[60], -0.3 * rg[60]).tobytes() == want[60].tobytes()
