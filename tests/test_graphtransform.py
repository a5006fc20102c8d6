import itertools
import math

import numpy as np
import pytest

from saddlescope.dynsys import Splitting
from saddlescope.graphtransform import (
    GraphFunction,
    IncompatibleSplitting,
    NoContraction,
    PHPair,
    _aux_rhs,
    _solve_fixed_points,
    compose_phi,
    function_norm,
    graph_transform,
    verify_graph_invariance,
    verify_potential_growth,
)
from saddlescope.synthetic import (
    axes_splitting_2d,
    perturbed_quadratic_pair,
    random_f1_graph,
    random_ph_pair,
    split_diagonal_pair,
)


def raw_quadratic_pair(coeff=0.01, eps=0.1):
    """Unglobalized (y, z) -> (y + c z^2, 2 z + c y^2); fine near the origin."""
    return PHPair(
        axes_splitting_2d(),
        [[1.0]],
        [[2.0]],
        mu=2.0,
        lam=1.0,
        eps=eps,
        remainder=lambda Y, Z: (coeff * Z**2, coeff * Y**2),
    )


def fixed_point(pair, phi, y, tol):
    """The auxiliary contraction's fixed point at the one parameter y."""
    return _solve_fixed_points(pair, phi, np.atleast_2d(y), tol)[0]


def identity_graph(radius=1.0, delta=1.0 / 64.0):
    return GraphFunction.from_callable(lambda y: y.copy(), 1, 1, radius, delta)


# --- graph functions ---------------------------------------------------------


def test_graph_function_requires_origin_node():
    with pytest.raises(ValueError):
        GraphFunction(1, 1, radius=1.0, delta=0.3)


def test_graph_function_interpolation_linear_exact():
    phi = identity_graph()
    y = np.array([[0.015], [-0.77], [0.5]])
    np.testing.assert_allclose(phi(y), y, atol=1e-15)


def test_graph_function_clamps_outside_box():
    phi = identity_graph()
    assert phi(np.array([2.5])) == pytest.approx(1.0)
    assert phi(np.array([-3.0])) == pytest.approx(-1.0)


def test_graph_function_validate_rejects_steep_data():
    phi = identity_graph()
    vals = phi.values.copy()
    vals[3] += 0.1
    with pytest.raises(ValueError):
        phi.like(vals).validate()


def test_graph_function_validate_rejects_nonzero_origin():
    phi = identity_graph()
    vals = 0.5 * np.ones_like(phi.values)
    with pytest.raises(ValueError):
        phi.like(vals).validate()


def test_function_norm_zero_and_identity():
    assert function_norm(GraphFunction.zero(1, 1)) == 0.0
    assert function_norm(identity_graph()) == 1.0


def test_function_norm_tanh():
    # ratio tanh(y)/y decreases in |y|, so the nodal max sits at |y| = delta
    delta = 1.0 / 64.0
    phi = GraphFunction.from_callable(np.tanh, 1, 1, radius=2.0, delta=delta)
    got = function_norm(phi)
    assert got == pytest.approx(math.tanh(delta) / delta, rel=1e-12)
    dense = np.linspace(1e-6, 2.0, 200_001)
    assert got == pytest.approx(np.max(np.tanh(dense) / dense), abs=1e-4)
    assert got == pytest.approx(1.0 - delta**2 / 3.0, abs=1e-6)


def test_graph_function_json():
    import json

    payload = json.loads(GraphFunction.zero(1, 1, 1.0, 0.5).to_json())
    assert payload["dims"] == [1, 1]
    assert payload["delta"] == 0.5
    assert len(payload["values"]) == 5


# --- pairs --------------------------------------------------------------------


@pytest.mark.parametrize(
    "blocks, constants, message",
    [
        (([[1.0]], [[1.5]]), (2.0, 1.0, 0.1), "A_u not mu-expanding"),
        (([[1.2]], [[2.0]]), (2.0, 1.0, 0.1), "A_cs not lam-bounded"),
        (([[1.0]], [[2.0]]), (2.0, 1.0, 0.0), "need 0 < eps < (mu - lam)/4"),
        (([[1.0]], [[2.0]]), (2.0, 1.0, -0.1), "need 0 < eps < (mu - lam)/4"),
        (([[1.0]], [[2.0]]), (2.0, 1.0, 0.25), "need 0 < eps < (mu - lam)/4"),
        (([[1.0]], [[2.0]]), (2.0, 1.0, math.nan), "need 0 < eps < (mu - lam)/4"),
        (([1.0], [[2.0]]), (2.0, 1.0, 0.1), "need A_cs of shape (1, 1)"),
    ],
    ids=["A_u-below-mu", "A_cs-above-lam", "eps-0", "eps-negative", "eps-at-gap/4",
         "eps-nan", "A_cs-not-square"],
)
def test_pair_rejects_constants_it_cannot_certify(blocks, constants, message):
    mu, lam, eps = constants
    with pytest.raises(ValueError) as err:
        PHPair(axes_splitting_2d(), *blocks, mu=mu, lam=lam, eps=eps)
    assert message in str(err.value)


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_ph_pair(np.random.default_rng(3), 1, 1),
        lambda: random_ph_pair(np.random.default_rng(3), 2, 2),
        split_diagonal_pair,
        perturbed_quadratic_pair,
    ],
    ids=["random-1x1", "random-2x2", "split-diagonal", "perturbed-quadratic"],
)
def test_ambient_map_is_the_coordinate_step(make):
    pair = make()
    sp = pair.splitting
    rng = np.random.default_rng(8)
    Y = rng.uniform(-2.0, 2.0, size=(500, pair.m))
    Z = rng.uniform(-2.0, 2.0, size=(500, pair.n))
    np.testing.assert_allclose(
        pair.g.evaluate(sp.embed(Y, Z)), sp.embed(*pair.step(Y, Z)), rtol=0, atol=1e-14
    )
    np.testing.assert_allclose(
        pair.g.evaluate(sp.embed(Y[0], Z[0])), sp.embed(*pair.step(Y[0], Z[0])), atol=1e-14
    )


# --- the auxiliary contraction ----------------------------------------------


def test_auxiliary_fixed_point_linear_zero():
    pair = split_diagonal_pair()
    phi = GraphFunction.zero(1, 1)
    for y in (-0.8, 0.0, 0.3):
        z = fixed_point(pair, phi, np.array([y]), tol=1e-12)
        assert z == pytest.approx(0.0, abs=1e-12)


def test_auxiliary_fixed_point_identity_graph_closed_form():
    # h_y(z) = phi(y)/2 = y/2, independent of z
    pair = split_diagonal_pair()
    phi = identity_graph()
    z = fixed_point(pair, phi, np.array([0.625]), tol=1e-12)
    assert z[0] == pytest.approx(0.3125, abs=1e-12)


def test_auxiliary_fixed_point_quadratic_perturbation():
    # phi = 0: h_y(z) = -(1/2) * 0.01 y^2, independent of z
    pair = raw_quadratic_pair()
    phi = GraphFunction.zero(1, 1)
    z = fixed_point(pair, phi, np.array([1.0]), tol=1e-14)
    assert z[0] == pytest.approx(-0.005, abs=1e-14)


def test_auxiliary_contraction_ratio_bound():
    rng = np.random.default_rng(11)
    for m, n in [(1, 1), (2, 1), (1, 2)]:
        pair = random_ph_pair(rng, m, n)
        phi = GraphFunction.zero(m, n, 1.0, 1.0 / 32.0)
        sink = []
        graph_transform(pair, phi, tol=1e-11, ratio_sink=sink)
        assert sink, "expected ratio observations"
        assert max(sink) <= pair.contraction_factor() + 1e-9


def test_auxiliary_no_contraction_detected():
    # A_u claims mu = 2 but the z-remainder has slope 10: certificate lies
    pair = PHPair(
        axes_splitting_2d(),
        [[1.0]],
        [[2.0]],
        mu=2.0,
        lam=1.0,
        eps=0.2,
        remainder=lambda Y, Z: (np.zeros_like(Y), 5.0 * np.sin(2.0 * Z) + Y),
    )
    with pytest.raises(NoContraction):
        fixed_point(pair, GraphFunction.zero(1, 1), np.array([0.5]), 1e-10)


def test_parameter_lipschitz_bound():
    # for fixed z, y -> h_y^phi(z) is (lam + 2 eps)/mu Lipschitz
    rng = np.random.default_rng(5)
    for _ in range(5):
        pair = random_ph_pair(rng, 1, 1)
        phi = random_f1_graph(rng, 1, 1)
        Y = rng.uniform(-1, 1, size=(400, 1))
        Y2 = rng.uniform(-1, 1, size=(400, 1))
        z = rng.uniform(-0.5, 0.5, size=(1, 1))
        Z = np.broadcast_to(z, (400, 1))
        H1 = _aux_rhs(pair, phi, Y, Y @ pair.A_cs.T, Z)
        H2 = _aux_rhs(pair, phi, Y2, Y2 @ pair.A_cs.T, Z)
        num = np.linalg.norm(H1 - H2, axis=1)
        den = np.linalg.norm(Y - Y2, axis=1)
        keep = den > 1e-9
        bound = (pair.lam + 2.0 * pair.eps) / pair.mu
        # grid slack: the interpolated phi adds curvature*delta to its
        # Lipschitz constant, scaled by eps/mu in the bound
        assert np.max(num[keep] / den[keep]) <= bound + phi.delta * pair.eps / pair.mu


# --- the graph transform -----------------------------------------------------


def test_graph_transform_zero_linear():
    pair = split_diagonal_pair()
    out = graph_transform(pair, GraphFunction.zero(1, 1), tol=1e-12)
    assert np.all(out.values == 0.0)


def test_graph_transform_identity_closed_form():
    pair = split_diagonal_pair()
    out = graph_transform(pair, identity_graph(), tol=1e-12)
    nodes = out.node_coords()[:, 0]
    np.testing.assert_allclose(out.nodal_values()[:, 0], nodes / 2.0, atol=1e-12)


def test_graph_transform_preserves_class():
    rng = np.random.default_rng(23)
    for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        pair = random_ph_pair(rng, m, n)
        phi = random_f1_graph(rng, m, n, delta=1.0 / 16.0)
        out = graph_transform(pair, phi, tol=1e-11)
        out.validate()
        assert out.lipschitz_upper() <= pair.graph_lip_bound() + 1e-8


def test_graph_transform_contraction_closed_form():
    # phi1(y) = y, phi2 = 0: ||Gamma phi1 - Gamma phi2|| / ||phi1 - phi2|| = 1/2
    pair = split_diagonal_pair(eps=0.1)
    g1 = graph_transform(pair, identity_graph(), tol=1e-12)
    g2 = graph_transform(pair, GraphFunction.zero(1, 1), tol=1e-12)
    num = function_norm(g1.like(g1.values - g2.values))
    den = function_norm(identity_graph())
    assert num / den == pytest.approx(0.5, abs=1e-11)
    assert num / den <= pair.gamma_lipschitz()


def test_graph_transform_contraction_random_pairs():
    rng = np.random.default_rng(101)
    tol = 1e-11
    checked = 0
    for trial in range(20):
        m, n = [(1, 1), (1, 2), (2, 1), (2, 2)][trial % 4]
        delta = 1.0 / 32.0 if m == 1 else 1.0 / 16.0
        pair = random_ph_pair(rng, m, n)
        for _ in range(3 if m == 1 else 2):
            p1 = random_f1_graph(rng, m, n, delta=delta)
            p2 = random_f1_graph(rng, m, n, delta=delta)
            den = function_norm(p1.like(p1.values - p2.values))
            if den < 1e-3:
                continue
            g1 = graph_transform(pair, p1, tol)
            g2 = graph_transform(pair, p2, tol)
            num = function_norm(g1.like(g1.values - g2.values))
            slack = (2.0 * tol / delta) / den
            assert num / den <= pair.gamma_lipschitz() + slack
            checked += 1
    assert checked >= 50


# --- composition -------------------------------------------------------------


def test_compose_linear_chain_is_zero():
    pair = split_diagonal_pair()
    phi = compose_phi([pair] * 15, tol=1e-12)[0]
    assert np.all(phi.values == 0.0)


def test_compose_single_pair_equals_transform_of_zero():
    pair = perturbed_quadratic_pair()
    a = compose_phi([pair], tol=1e-11)[0]
    b = graph_transform(pair, GraphFunction.zero(1, 1), tol=1e-11)
    np.testing.assert_array_equal(a.values, b.values)


def test_compose_horizon_cauchy_bound():
    # Lip(Gamma_k) <= 0.6 gives ||phi_{0,20} - phi_{0,10}|| <= 0.6^11
    pair = perturbed_quadratic_pair(eps=0.04)
    assert pair.gamma_lipschitz() <= 0.6
    phi_10 = compose_phi([pair] * 11, tol=1e-12)[0]
    phi_20 = compose_phi([pair] * 21, tol=1e-12)[0]
    diff = function_norm(phi_10.like(phi_20.values - phi_10.values))
    assert diff <= 0.6**11
    assert diff <= pair.gamma_lipschitz() ** 11 + 1e-9


def test_compose_rejects_mismatched_splittings():
    p1 = split_diagonal_pair()
    sp = Splitting([np.array([0.0, 1.0])], [np.array([1.0, 0.0])])
    p2 = PHPair(sp, [[1.0]], [[2.0]], mu=2.0, lam=1.0, eps=0.1)
    with pytest.raises(IncompatibleSplitting):
        compose_phi([p1, p2], tol=1e-10)


def test_compose_chain_consecutive_transforms():
    pair = perturbed_quadratic_pair()
    chain = compose_phi([pair] * 5, tol=1e-11)
    assert len(chain) == 5
    re0 = graph_transform(pair, chain[1], tol=1e-11)
    np.testing.assert_allclose(chain[0].values, re0.values, atol=1e-10)


# --- the potential -----------------------------------------------------------


def _deviation(phi, splitting, X):
    """The potential V_phi(x) = ||p_u(x) - phi(p_cs(x))||, from the coordinates."""
    return np.linalg.norm(splitting.coords_u(X) - phi(splitting.coords_cs(X)), axis=-1)


def test_potential_values():
    sp = axes_splitting_2d()
    phi = identity_graph()
    half = phi.like(phi.values / 2.0)
    # on the graph
    assert _deviation(half, sp, np.array([0.5, 0.25])) == pytest.approx(0.0, abs=1e-15)
    # phi = 0: V(x) = |z|
    assert _deviation(GraphFunction.zero(1, 1), sp, np.array([0.3, -0.7])) == (
        pytest.approx(0.7)
    )
    # inside the box: x = (0.8, 0.5) -> |0.5 - 0.4|
    assert _deviation(half, sp, np.array([0.8, 0.5])) == pytest.approx(0.1)


def test_potential_growth_linear_ratio_two():
    pair = split_diagonal_pair(eps=1e-6)
    report = verify_potential_growth(pair, GraphFunction.zero(1, 1), 2000, tol=1e-12)
    assert report.ok
    assert report.min_ratio == pytest.approx(2.0, abs=1e-5)


def test_potential_growth_on_graph_points():
    pair = perturbed_quadratic_pair()
    phi = GraphFunction.zero(1, 1)
    gphi = graph_transform(pair, phi, tol=1e-11)
    Y = np.linspace(-0.9, 0.9, 33)[:, None]
    X = pair.splitting.embed(Y, gphi(Y))
    GX = pair.g.evaluate(X)
    lhs = _deviation(phi, pair.splitting, GX)
    rhs = _deviation(gphi, pair.splitting, X)
    # x on graph(Gamma phi): the right side is ~0 and the left dominates
    assert np.max(rhs) < 1e-9
    assert np.all(lhs >= (pair.mu - 2 * pair.eps) * rhs - 1e-9)


def test_potential_growth_perturbed_pair():
    pair = perturbed_quadratic_pair(eps=0.02)
    report = verify_potential_growth(pair, GraphFunction.zero(1, 1), 10_000, tol=1e-10)
    assert report.factor == pytest.approx(1.96)
    assert report.ok
    assert report.min_ratio >= report.factor - report.slack


# --- graph invariance --------------------------------------------------------


def test_invariance_linear_zero_residual():
    pair = split_diagonal_pair()
    z = GraphFunction.zero(1, 1)
    resid = verify_graph_invariance(pair, z, z, samples=200, tol=1e-12)
    assert resid == 0.0


def test_invariance_closed_form_chain():
    # constant chain of diag(1,2): phi_k(y) = y/2^{m-k} ending at phi_m = id
    pair = split_diagonal_pair()
    tol = 1e-12
    chain = [identity_graph()]
    for _ in range(4):
        chain.append(graph_transform(pair, chain[-1], tol))
    chain.reverse()  # chain[k] = Gamma^{m-k}(id) = y / 2^{m-k}
    for k in range(4):
        resid = verify_graph_invariance(pair, chain[k], chain[k + 1], 500, tol=tol)
        assert resid < 1e-11


def test_invariance_randomized_pair_residual():
    rng = np.random.default_rng(77)
    pair = random_ph_pair(rng, 1, 1)
    tol = 1e-8
    phi_k1 = graph_transform(
        pair, GraphFunction.zero(1, 1, 1.0, 1.0 / 128.0), tol
    )
    phi_k = graph_transform(pair, phi_k1, tol)
    resid = verify_graph_invariance(pair, phi_k, phi_k1, samples=2000, tol=tol)
    assert resid <= 1e-4


def test_invariance_rejects_wrong_phi_pair():
    pair = perturbed_quadratic_pair()
    z = GraphFunction.zero(1, 1)
    wrong = identity_graph()
    with pytest.raises(ValueError):
        verify_graph_invariance(pair, wrong, z, samples=10, tol=1e-10)


# --- the stencil and the sweep against the per-node formulas ----------------
#
# The references below are the straightforward formulations: corners
# gathered with a tuple index into the (npts,)*m + (n,) values array,
# A_cs y formed afresh in every sweep, the sine remainder as one
# broadcast product per term, norms from np.linalg.norm.  The fast paths
# must reproduce them bit for bit.


def reference_interpolate(phi, y):
    y = np.asarray(y, dtype=float)
    scalar_in = y.ndim == 1
    pts = y.reshape(-1, phi.m)
    u = np.clip(pts, -phi.radius, phi.radius)
    t = (u + phi.radius) / phi.delta
    idx = np.clip(np.floor(t).astype(int), 0, phi.npts - 2)
    frac = t - idx
    out = np.zeros((len(pts), phi.n))
    for corner in itertools.product((0, 1), repeat=phi.m):
        w = np.ones(len(pts))
        for j, b in enumerate(corner):
            w = w * (frac[:, j] if b else 1.0 - frac[:, j])
        nodes = tuple(idx[:, j] + corner[j] for j in range(phi.m))
        out += w[:, None] * phi.values[nodes]
    return out[0] if scalar_in else out.reshape(y.shape[:-1] + (phi.n,))


def reference_lipschitz_upper(phi):
    worst = 0.0
    for ax in range(phi.m):
        d = np.diff(phi.values, axis=ax)
        worst = max(worst, float(np.max(np.linalg.norm(d, axis=-1))) / phi.delta)
    return worst


def reference_sine_remainder(pair):
    """random_ph_pair's remainder as sum_i a_i sin(v_i . (y, z)) w_i in
    coordinates, one broadcast product per term, from the terms its
    closure holds."""
    fn = pair.remainder
    cells = dict(zip(fn.__code__.co_freevars, (c.cell_contents for c in fn.__closure__)))

    def remainder(Y, Z):
        R_cs, R_u = np.zeros(np.shape(Y)), np.zeros(np.shape(Z))
        for a, w_cs, w_u, v_cs, v_u in cells["terms"]:
            s = a * np.sin(Y @ v_cs + Z @ v_u)[..., None]
            R_cs = R_cs + s * w_cs
            R_u = R_u + s * w_u
        return R_cs, R_u

    return remainder


def reference_solve(pair, phi, Y, tol, ratio_sink):
    """The fixed-point iteration with every sweep built from scratch."""
    remainder = reference_sine_remainder(pair)
    A_u_inv = np.linalg.inv(pair.A_u)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    Z = np.zeros((len(Y), pair.n))
    prev_step = None
    floor = max(10.0 * tol, 1e-12)
    while True:
        R_cs, R_u = remainder(Y, Z)
        rhs = reference_interpolate(phi, Y @ pair.A_cs.T + R_cs) - R_u
        Znew = rhs @ A_u_inv.T
        step = np.linalg.norm(Znew - Z, axis=1)
        if prev_step is not None:
            mask = prev_step > floor
            if np.any(mask):
                ratio_sink.append(float(np.max(step[mask] / prev_step[mask])))
        prev_step = step
        Z = Znew
        if float(np.max(step)) <= tol:
            return Z


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 2)])
@pytest.mark.parametrize("delta", [1.0 / 64.0, 1.0 / 128.0])
@pytest.mark.parametrize("radius", [1.0, 2.0])
def test_interpolation_matches_tuple_indexed_formula_bitwise(m, n, delta, radius):
    rng = np.random.default_rng([m, n, int(1 / delta), int(radius)])
    phi = GraphFunction(m, n, radius, delta)
    phi.values[...] = rng.standard_normal(phi.values.shape)
    axis = phi.axis
    special = np.concatenate(
        [axis[rng.integers(0, len(axis), 40)], [-radius, radius, -0.0, 0.0]]
    )
    batches = [
        rng.uniform(-radius, radius, size=(300, m)),  # inside the box
        rng.uniform(-3.0 * radius, 3.0 * radius, size=(300, m)),  # mostly outside
        rng.choice(special, size=(300, m)),  # nodes, box edges, signed zeros
        rng.uniform(-1.5 * radius, 1.5 * radius, size=(4, 5, m)),  # extra batch axes
    ]
    for Y in batches:
        assert same_bits(phi(Y), reference_interpolate(phi, Y))
        for y in Y.reshape(-1, m)[:20]:
            assert same_bits(phi(y), reference_interpolate(phi, y))
    assert phi.lipschitz_upper() == reference_lipschitz_upper(phi)
    # a zero start turns -0.0 data into +0.0, as the per-node sum does
    neg_zero = phi.like(np.full(phi.values.shape, -0.0))
    assert same_bits(neg_zero(batches[0]), reference_interpolate(neg_zero, batches[0]))
    # one solve's work arrays serve different point sets in a row; each
    # call overwrites the last one's result in place
    swept = phi.with_work(300)
    for Y in batches[:3]:
        got = swept(Y)
        assert same_bits(got, phi(Y))
        assert np.shares_memory(got, swept._work.out)
    # another point count gets fresh arrays
    got = swept(batches[3])
    assert same_bits(got, phi(batches[3]))
    assert not np.shares_memory(got, swept._work.out)


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_graph_transform_matches_reference_solve_bitwise(m, n):
    rng = np.random.default_rng([31, m, n])
    pair = random_ph_pair(rng, m, n)
    delta = 1.0 / 64.0 if m == 1 else 1.0 / 16.0
    tol = 1e-10
    Y = rng.uniform(-2.0, 2.0, size=(50, m))
    Z = rng.uniform(-2.0, 2.0, size=(50, n))
    for got, ref in zip(pair.remainder(Y, Z), reference_sine_remainder(pair)(Y, Z)):
        assert same_bits(got, ref)
    for got, ref in zip(pair.remainder(Y[0], Z[0]), reference_sine_remainder(pair)(Y[0], Z[0])):
        assert same_bits(got, ref)
    for phi in (GraphFunction.zero(m, n, 1.0, delta), random_f1_graph(rng, m, n, delta=delta)):
        sink, ref_sink = [], []
        out = graph_transform(pair, phi, tol, ratio_sink=sink)
        Z = reference_solve(pair, phi, phi.node_coords(), tol, ref_sink)
        ref = Z.reshape(phi.values.shape)
        ref[phi.origin_index] = 0.0
        assert same_bits(out.values, ref)
        assert sink == ref_sink and len(sink) > 0
    # one solve's work arrays serve two point sets in a row: each sweep
    # equals the reference sweep from fresh arrays
    phi = random_f1_graph(rng, m, n, delta=delta)
    swept = phi.with_work(50)
    A_u_inv = np.linalg.inv(pair.A_u)
    for _ in range(2):
        Y = rng.uniform(-2.0, 2.0, size=(50, m))
        Z = rng.uniform(-2.0, 2.0, size=(50, n))
        R_cs, R_u = reference_sine_remainder(pair)(Y, Z)
        ref = (reference_interpolate(phi, Y @ pair.A_cs.T + R_cs) - R_u) @ A_u_inv.T
        assert same_bits(_aux_rhs(pair, swept, Y, Y @ pair.A_cs.T, Z), ref)
