import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlescope.dynsys import Splitting
from saddlescope.phcert import (
    LIPSCHITZ_SEED,
    SOBOL_TABLE,
    _sobol_cube,
    _symmetric_norm,
    BudgetViolated,
    CertificateFailure,
    InvalidParameter,
    NotAdmissible,
    Schedule,
    SpectralData,
    StepTooLarge,
    bump,
    build_gd_certificate,
    build_pp_certificate,
    check_admissible,
    classify_nonsummable,
    constant_schedule,
    cosine_schedule,
    estimate_radius,
    explicit_schedule,
    globalize,
    polynomial_schedule,
    sample_lipschitz,
    schedule_sup,
    step_size,
    validate_certificate,
)
from saddlescope.testfns import get

# --- schedules --------------------------------------------------------------


def test_step_size_constant():
    sched = constant_schedule(0.3)
    assert step_size(sched, 7) == 0.3
    assert step_size(sched, 0) == 0.3


def test_step_size_polynomial():
    sched = polynomial_schedule(1.0, 1.0)
    assert step_size(sched, 3) == 0.25
    assert step_size(sched, 0) == 1.0


def test_step_size_cosine():
    # alpha_1 = (1/2) (1 + cos(pi * 1.5 / 3)) and cos(pi/2) = 0
    sched = cosine_schedule(1.0, 1.0, 1)
    assert step_size(sched, 1) == pytest.approx(0.5, abs=1e-15)
    assert step_size(sched, 0) == 1.0


def test_step_size_k0_is_alpha0_for_all_families():
    for sched in (
        constant_schedule(0.7),
        polynomial_schedule(0.7, 0.5),
        cosine_schedule(0.7, 1.0, 3),
    ):
        assert step_size(sched, 0) == 0.7


def test_step_size_rejects_gamma_out_of_range():
    sched = polynomial_schedule(1.0, 2.0)  # construction OK (classification)
    with pytest.raises(InvalidParameter):
        step_size(sched, 1)


def test_cosine_factor_strictly_positive():
    # the cosine term is periodic and never hits -1, so alpha_k > 0
    for T in (0, 1, 4, 9):
        sched = cosine_schedule(1.0, 1.0, T)
        alphas = [step_size(sched, k) for k in range(1, 5 * (2 * T + 1))]
        assert min(alphas) > 0


def test_schedule_sup():
    assert schedule_sup(constant_schedule(0.4)) == 0.4
    assert schedule_sup(polynomial_schedule(0.4, 1.0)) == 0.4
    # cosine with gamma < 1 can exceed alpha0 at k = 1
    sched = cosine_schedule(1.0, 0.25, 6)
    sup = schedule_sup(sched)
    assert sup >= step_size(sched, 1)
    assert sup == max(step_size(sched, k) for k in range(200))


def test_schedule_rejects_bad_parameters():
    with pytest.raises(InvalidParameter):
        constant_schedule(-0.1)
    with pytest.raises(InvalidParameter):
        Schedule("polynomial", 1.0, gamma=0.0)
    with pytest.raises(InvalidParameter):
        Schedule("cosine", 1.0, gamma=0.5, T=-1)
    with pytest.raises(InvalidParameter):
        explicit_schedule([0.1, -0.2])
    with pytest.raises(InvalidParameter):
        Schedule("warmup", 1.0)


# --- admissibility ----------------------------------------------------------


def test_admissible_polynomial_sign_partition():
    # h = (2, -1), poly gamma=1 alpha0=1: |1 - alpha_k*2| <= 1 iff alpha_k <= 1,
    # true for all k; |1 + alpha_k| = 1 + 1*alpha_k gives c = 1
    res = check_admissible(np.array([2.0, -1.0]), polynomial_schedule(1.0, 1.0))
    assert res.I_cs == frozenset({0})
    assert res.I_u == frozenset({1})
    assert res.c == 1.0
    assert res.K == 0


def test_admissible_constant_negative_eigenvalue():
    res = check_admissible(np.array([-3.0]), constant_schedule(0.1))
    assert res.I_u == frozenset({0})
    assert res.c == pytest.approx(3.0, rel=1e-12)
    assert res.K == 0


def test_admissible_constant_no_unstable_direction():
    # |1 - 0.2*5| = 0 <= 1: everything center-stable, empty I_u
    res = check_admissible(np.array([5.0]), constant_schedule(0.2))
    assert res.I_cs == frozenset({0})
    assert res.I_u == frozenset()
    assert math.isinf(res.c)


def test_admissible_tie_goes_to_center_stable():
    # alpha0*h = 2 gives multiplier exactly 1
    res = check_admissible(np.array([2.0]), constant_schedule(1.0))
    assert res.I_cs == frozenset({0})


def test_admissible_vanishing_with_large_initial_steps():
    # alpha_k = 4/(k+1): alpha_k * h = 8/(k+1) <= 2 from k = 3 on
    res = check_admissible(np.array([2.0, -1.0]), polynomial_schedule(4.0, 1.0))
    assert res.K == 3
    assert res.I_cs == frozenset({0})
    assert res.c == 1.0


def _scanned_polynomial_K(sched, bound):
    # the reference: the first k with alpha_k <= bound, one k at a time
    K = 0
    while step_size(sched, K) > bound:
        K += 1
    return K


@pytest.mark.parametrize("gamma", [1.0, 0.7, 0.5, 0.35])
def test_admissible_polynomial_K_matches_the_scan(gamma):
    for alpha0 in (0.3, 1.0, 1.7, 2.0, 3.0):
        for h_max in (0.5, 1.0, 2.0):
            sched = polynomial_schedule(alpha0, gamma)
            res = check_admissible(np.array([h_max, -1.0]), sched)
            assert res.K == _scanned_polynomial_K(sched, 2.0 / h_max), (alpha0, h_max)


def test_admissible_polynomial_small_gamma_is_closed_form():
    # poly:0.02:3 against the bound 2: K = ceil(1.5^50) - 1, far beyond
    # any scan
    sched = polynomial_schedule(3.0, 0.02)
    res = check_admissible(np.array([1.0, -1.0]), sched)
    assert res.K == 637621500
    assert step_size(sched, res.K) <= 2.0 < step_size(sched, res.K - 1)
    assert schedule_sup(polynomial_schedule(0.01, 0.01)) == 0.01


def test_admissible_cosine_smallest_K():
    sched = cosine_schedule(4.0, 1.0, 2)
    h = np.array([2.0, -0.5])
    res = check_admissible(h, sched)
    bound = 2.0 / 2.0
    alphas = [step_size(sched, k) for k in range(res.K, res.K + 2000)]
    assert max(alphas) <= bound + 1e-15
    if res.K > 0:
        assert step_size(sched, res.K - 1) > bound


def _scanned_cosine_K(sched, bound):
    # the reference: find where the envelope 2 alpha0 / (k+1)^gamma drops
    # to the bound, then scan back one k at a time
    k_env = 0
    while 2.0 * sched.alpha0 / (k_env + 1) ** sched.gamma > bound:
        k_env += 1
    K = k_env
    while K > 0 and step_size(sched, K - 1) <= bound:
        K -= 1
    return K


def _scanned_cosine_sup(sched):
    # the reference: every k until the envelope falls below the running max
    best, k = sched.alpha0, 1
    while 2.0 * sched.alpha0 / (k + 1) ** sched.gamma > best:
        best = max(best, step_size(sched, k))
        k += 1
    return best


@pytest.mark.parametrize("gamma", [1.0, 0.6, 0.35])
def test_admissible_cosine_K_matches_the_scan(gamma):
    for alpha0 in (0.3, 1.0, 1.7, 3.0):
        for T in (0, 1, 4, 9):
            sched = cosine_schedule(alpha0, gamma, T)
            assert schedule_sup(sched) == _scanned_cosine_sup(sched), (alpha0, T)
            for h_max in (0.5, 1.0, 2.0, 4.0):
                res = check_admissible(np.array([h_max, -1.0]), sched)
                assert res.K == _scanned_cosine_K(sched, 2.0 / h_max), (alpha0, T, h_max)


def test_admissible_cosine_small_gamma_is_closed_form():
    # cos:0.1:4:3 against the bound 1: K is near (3 f_max)^10 ~ 5e7, far
    # beyond a one-k-at-a-time scan; K - 1 exceeds the bound and no k in
    # the next periods does
    sched = cosine_schedule(3.0, 0.1, 4)
    res = check_admissible(np.array([2.0, -1.0]), sched)
    assert 10**7 < res.K < 10**8
    assert step_size(sched, res.K - 1) > 1.0
    assert all(step_size(sched, k) <= 1.0 for k in range(res.K, res.K + 5 * 18))


@pytest.mark.parametrize(
    "sched",
    [polynomial_schedule(5.0, 0.01), cosine_schedule(5.0, 0.01, 4), cosine_schedule(24.0, 0.004, 0)],
    ids=["poly:0.01:5", "cos:0.01:4:5", "cos:0.004:0:24"],
)
def test_admissible_K_where_steps_are_flat_in_floating_point(sched):
    # alpha_k changes by less than an ulp between neighbours near K
    # (K > 10^39), so a one-k-at-a-time correction never ends; K - 1 still
    # exceeds the bound.  For cos:0.004:0:24 the envelope's crossing is
    # beyond the float range but the steps' own crossing is not
    res = check_admissible(np.array([1.0, -1.0]), sched)
    assert res.K > 10**39
    assert step_size(sched, res.K - 1) > 2.0


def test_admissible_cosine_K_beyond_float_range_raises():
    with pytest.raises(NotAdmissible, match=r"cos:0\.0005:4:3"):
        check_admissible(np.array([1.0, -1.0]), cosine_schedule(3.0, 0.0005, 4))


def test_schedule_sup_cosine_small_gamma_finishes():
    # the envelope stays above alpha0 until k + 1 = 2^100; the sup is
    # among the first 4T + 2 steps
    sched = cosine_schedule(1.0, 0.01, 4)
    assert schedule_sup(sched) == max(step_size(sched, k) for k in range(19))


def test_admissible_explicit_list_empirical():
    sched = explicit_schedule([2.0, 1.5, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05, 0.04, 0.03])
    res = check_admissible(np.array([2.0, -1.0]), sched)
    assert res.empirical
    assert res.I_u == frozenset({1})
    # first two steps flip index 0 into the unstable side: K = 2
    assert res.K == 2
    alphas = np.array(sched.values[res.K:])
    expected_c = float(np.min((np.abs(1.0 + alphas) - 1.0) / alphas))
    assert res.c == pytest.approx(expected_c, rel=1e-12)


def test_admissible_polynomial_K_beyond_float_range_raises():
    with pytest.raises(NotAdmissible, match=r"poly:0\.0005:3"):
        check_admissible(np.array([1.0, -1.0]), polynomial_schedule(3.0, 0.0005))


def test_admissible_explicit_list_unsettled_raises():
    # multiplier for h=2 oscillates across |1 - alpha*2| = 1 forever
    vals = [1.2 if k % 2 else 0.3 for k in range(50)]
    with pytest.raises(NotAdmissible, match="eigenvalue index 0 still flipping"):
        check_admissible(np.array([2.0]), explicit_schedule(vals))


@given(
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=5),
    st.floats(0.0, 4.0, exclude_min=True),
    st.integers(1, 50),
)
def test_constant_schedule_is_a_one_value_step_list(h, alpha, n):
    # any length of the explicit list [alpha] * n gives the constant
    # schedule's partition, K and margin bit for bit; only the empirical
    # flag differs
    h = np.array(h)
    const = check_admissible(h, constant_schedule(alpha))
    listed = check_admissible(h, explicit_schedule([alpha] * n))
    assert (const.K, const.I_cs, const.I_u) == (listed.K, listed.I_cs, listed.I_u)
    assert np.float64(const.c).tobytes() == np.float64(listed.c).tobytes()
    assert not const.empirical and listed.empirical
    assert schedule_sup(constant_schedule(alpha)) == schedule_sup(explicit_schedule([alpha] * n))


# --- non-summability --------------------------------------------------------


def test_classify_nonsummable_pseries_ground_truth():
    for gamma in (0.25, 0.5, 0.75, 1.0):
        assert classify_nonsummable(polynomial_schedule(1.0, gamma)) == "divergent"
        assert classify_nonsummable(cosine_schedule(1.0, gamma, 3)) == "divergent"
    for gamma in (1.25, 2.0):
        assert classify_nonsummable(polynomial_schedule(1.0, gamma)) == "convergent"
        assert classify_nonsummable(cosine_schedule(1.0, gamma, 3)) == "convergent"


def test_classify_nonsummable_constant():
    assert classify_nonsummable(constant_schedule(0.01)) == "divergent"


def test_classify_nonsummable_explicit_inverse_square_unknown():
    vals = 1.0 / (np.arange(100_000) + 1.0) ** 2
    assert classify_nonsummable(explicit_schedule(vals)) == "unknown"


def test_classify_nonsummable_explicit_crossing_threshold():
    vals = np.full(2_000, 1.0)
    assert classify_nonsummable(explicit_schedule(vals)) == "divergent-empirical"


# --- radius estimation ------------------------------------------------------


def quad_hessian(dim):
    def hess(x):
        x = np.asarray(x)
        return np.broadcast_to(np.eye(dim), x.shape[:-1] + (dim, dim))

    return hess


def test_estimate_radius_constant_hessian_hits_box():
    assert estimate_radius(quad_hessian(2), 0.5, 2, box=10.0) == 10.0


def test_estimate_radius_quartic():
    # f = x^4/12, Hessian x^2, modulus omega(r) = r^2; solve r^2 = 0.04
    def hess(x):
        x = np.asarray(x)
        return (x**2)[..., None]

    r = estimate_radius(hess, 0.04, 1, box=2.0)
    assert r == pytest.approx(0.2, abs=5e-3)


def test_estimate_radius_sine():
    # Hessian -sin(x), omega(r) = sin(r) for r <= pi/2; solve sin(r) = 0.5
    def hess(x):
        x = np.asarray(x)
        return (-np.sin(x))[..., None]

    r = estimate_radius(hess, 0.5, 1, box=2.0)
    assert r == pytest.approx(math.pi / 6, abs=5e-3)


def test_estimate_radius_monotone_in_c():
    def hess(x):
        x = np.asarray(x)
        return (x**2)[..., None]

    r_small = estimate_radius(hess, 0.01, 1)
    r_big = estimate_radius(hess, 0.09, 1)
    assert r_small < r_big


@pytest.mark.parametrize("box", [0.0, -1.0, math.nan, math.inf])
def test_estimate_radius_rejects_a_bad_box(box):
    with pytest.raises(InvalidParameter):
        estimate_radius(quad_hessian(2), 0.5, 2, box=box)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3),
    st.sampled_from(["general", "diagonal", "zero"]),
    st.integers(0, 2**32 - 1),
)
def test_symmetric_norm_matches_the_svd_norm(k, kind, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((50, k, k)) * 10.0 ** rng.uniform(-6, 6, (50, 1, 1))
    if kind == "general":
        D = 0.5 * (A + np.swapaxes(A, -1, -2))
    elif kind == "diagonal":
        D = A * np.eye(k)
    else:
        D = np.zeros((50, k, k))
    svd = np.linalg.norm(D, ord=2, axis=(-2, -1))
    np.testing.assert_allclose(_symmetric_norm(D), svd, rtol=1e-13, atol=0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_symmetric_norm_is_bitwise_on_diag_a_0(seed):
    # double_well's H(x) - H(0) = diag(3 x_1^2, 0)
    rng = np.random.default_rng(seed)
    D = np.zeros((50, 2, 2))
    D[:, 0, 0] = rng.standard_normal(50) * 10.0 ** rng.uniform(-8, 8, 50)
    np.testing.assert_array_equal(
        _symmetric_norm(D), np.linalg.norm(D, ord=2, axis=(-2, -1))
    )


# --- sampled Lipschitz constants --------------------------------------------


def test_sample_lipschitz_linear_diagonal_max_norm():
    sp = Splitting([np.array([1.0, 0.0])], [np.array([0.0, 1.0])])
    A = np.diag([0.5, 2.0])
    got = sample_lipschitz(lambda x: x @ A.T, 1.0, 4096, splitting=sp)
    assert got <= 2.0 + 1e-12
    assert got > 1.95


def test_sample_lipschitz_zero_map():
    assert sample_lipschitz(lambda x: 0.0 * x, 1.0, 128, dim=2) == 0.0


def test_sample_lipschitz_square_1d():
    # x -> x^2 on [-1, 1]: slope |x + y| approaches 2 at the endpoints
    got = sample_lipschitz(lambda x: x**2, 1.0, 100_000, dim=1)
    assert 1.9 <= got <= 2.0 + 1e-12


# --- Sobol points -----------------------------------------------------------

# sha256 of _sobol_cube(n, dim, seed).tobytes(), recorded from
# scipy.stats.qmc.Sobol: the sets estimate_radius draws (512 unscrambled
# points), the two globalize checks (4096 pairs of points in 1 or 2
# dimensions) and the sample_lipschitz calls of the tests
SOBOL_PINS = [
    (512, 1, None, "dd720f523bb32abd45238fb5e81bdf2e7a62b974c5fe8562ace50656491d8391"),
    (512, 2, None, "767cac6d78a5ecfe9ecf37ba7fb4e36ff0467d636adece5e3f05a8e6617d5fbc"),
    (512, 3, None, "4e16b06b049c624926fee17d074463fbd27250ce11e0979a7083897397d6f6cb"),
    (512, 4, None, "94c641d36de50dead8b762006cb7103e77c7076b1028cf89d4927bc63763ee1b"),
    (4096, 2, LIPSCHITZ_SEED,
     "feda98e76e26ddb63fac254bb40e5785b8d5bb51ee364eaea4d2319b5d7fbdff"),
    (4096, 2, LIPSCHITZ_SEED + 1,
     "0d6eb6297da4d0388c941544fee6b04fb532eec60403c182fb06610bac6dfabf"),
    (4096, 4, LIPSCHITZ_SEED,
     "5a67d5d6ba3b8b05dcf840f1996e4f5137827b0b4b3d5564ee504c3afb9f3283"),
    (4096, 4, LIPSCHITZ_SEED + 1,
     "afeeb516a0d0607f3f862edf140e4dedb0c7775a15bf127669f80b21bf9c1a41"),
    (128, 4, LIPSCHITZ_SEED,
     "c3640f9edab136a8ef0545e8f4d0b58926e332ff0d0b40ddfb939359b02f3789"),
    (50_000, 2, LIPSCHITZ_SEED,
     "9898759739a8af2d69d6998193831780db259aeffb3b4ecdee4b4db8c00b9a2b"),
    (100_000, 2, LIPSCHITZ_SEED,
     "17ab5317b376a34299d96ada5a2aecbf221563256a4e4828d8642abc74e2af9f"),
]


@pytest.mark.parametrize("n, dim, seed, digest", SOBOL_PINS)
def test_sobol_sets_are_pinned(n, dim, seed, digest):
    u = _sobol_cube(n, dim, seed)
    assert u.shape == (n, dim) and u.dtype == np.float64
    assert hashlib.sha256(u.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("dim", range(1, len(SOBOL_TABLE) + 1))
def test_sobol_cube_matches_scipy_bitwise(dim):
    qmc = pytest.importorskip("scipy.stats").qmc
    for m in range(1, 18):
        for seed in (None, LIPSCHITZ_SEED, LIPSCHITZ_SEED + 1, 7):
            ref = qmc.Sobol(dim, scramble=seed is not None, seed=seed).random_base2(m)
            got = _sobol_cube(2**m, dim, seed)
            assert got.tobytes() == (2.0 * ref - 1.0).tobytes(), (m, seed)


def test_sobol_cube_rejects_out_of_range_requests():
    assert _sobol_cube(3, len(SOBOL_TABLE), None).shape == (3, len(SOBOL_TABLE))
    with pytest.raises(InvalidParameter, match="at most 16 dimensions"):
        _sobol_cube(8, 17, None)
    # pairs are drawn from a 2*dim-dimensional stream
    with pytest.raises(InvalidParameter, match="at most 16 dimensions, got 18"):
        sample_lipschitz(lambda x: x, 1.0, 8, dim=9)
    with pytest.raises(InvalidParameter, match=r"at most 2\^30 Sobol points"):
        _sobol_cube(2**30 + 1, 1, None)


# --- globalization ----------------------------------------------------------


def test_bump_values():
    r = 2.0
    assert bump(np.array(r / 2), r) == 1.0
    assert bump(np.array(r), r) == 0.0
    assert bump(np.array(3 * r / 4), r) == pytest.approx(0.5, abs=1e-15)


def test_globalize_linear_map_unchanged():
    # a zero remainder stays zero: the globalized map is T itself
    blended = globalize(lambda x: np.zeros_like(x), r=1.0, eps_budget=0.1, dim=1)
    X = np.linspace(-3, 3, 101)[:, None]
    np.testing.assert_allclose(0.9 * X + blended(X), 0.9 * X, atol=0)


def test_globalize_1d_quadratic_perturbation():
    # g = 0.9 x + 0.01 x^2, T = 0.9, r = 1: Lip((g-T)|B_1) = 0.02 <= budget/4
    remainder = lambda x: 0.01 * np.asarray(x) ** 2
    blended = globalize(remainder, r=1.0, eps_budget=0.08, dim=1)
    grid = np.linspace(-2.0, 2.0, 10_001)[:, None]
    inner = np.abs(grid[:, 0]) <= 0.5
    outer = np.abs(grid[:, 0]) >= 1.0
    np.testing.assert_array_equal(blended(grid[inner]), remainder(grid[inner]))
    np.testing.assert_array_equal(blended(grid[outer]), 0.0)
    # finite-difference Lipschitz oracle on the dense grid
    vals = blended(grid)[:, 0]
    slopes = np.abs(np.diff(vals)) / np.abs(np.diff(grid[:, 0]))
    assert np.max(slopes) <= 0.08
    assert np.all(vals[np.abs(grid[:, 0]) >= 1.0] == 0.0)


def test_globalize_rejects_overbudget_map():
    with pytest.raises(BudgetViolated):
        globalize(lambda x: 0.5 * np.asarray(x) ** 2, r=1.0, eps_budget=0.1, dim=1)


# --- certificates -----------------------------------------------------------


def quad_saddle_spectral():
    H = np.diag([1.0, -1.0])
    return SpectralData.from_hessian(H), quad_hessian_of(H)


def quad_hessian_of(H):
    def hess(x):
        x = np.asarray(x)
        return np.broadcast_to(H, x.shape[:-1] + H.shape)

    return hess


def test_gd_certificate_quad_saddle_polynomial():
    spectral, hess = quad_saddle_spectral()
    cert = build_gd_certificate(spectral, polynomial_schedule(1.0, 1.0), hess)
    ks = np.arange(0, 50)
    np.testing.assert_allclose(cert.lam(ks), 1.0)
    np.testing.assert_allclose(cert.mu(ks), 1.0 + 1.0 / (ks + 1.0))
    np.testing.assert_allclose(cert.eps(ks), 0.2 / (ks + 1.0))
    assert cert.r == 2.0  # constant Hessian: radius unbounded by the box
    assert cert.c == 1.0
    validate_certificate(cert)


def test_gd_certificate_double_well_radius():
    # double well at the saddle: Hessian diag(3x^2 - 1, 1), h = (1, -1),
    # constant alpha0 = 0.1 gives c = 1; omega(r) = 3 r^2 = c/20 = 0.05
    H0 = np.diag([-1.0, 1.0])

    def hess(x):
        x = np.asarray(x)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 3.0 * x[..., 0] ** 2 - 1.0
        out[..., 1, 1] = 1.0
        return out

    spectral = SpectralData.from_hessian(H0)
    cert = build_gd_certificate(spectral, constant_schedule(0.1), hess)
    assert cert.c == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(cert.mu(np.arange(5)), 1.1)
    np.testing.assert_allclose(cert.eps(np.arange(5)), 0.02)
    assert cert.r == pytest.approx(math.sqrt(0.05 / 3.0), abs=5e-3)


def test_certificate_alpha_is_step_size_bitwise():
    # certificates and the stepping engine read alpha_k from one source
    spectral, hess = quad_saddle_spectral()
    sched = polynomial_schedule(0.5, 0.5)
    cert = build_gd_certificate(spectral, sched, hess)
    ks = np.arange(200_000)
    want = np.array([step_size(sched, k) for k in range(200_000)])
    assert np.array_equal(cert.alpha(ks), want)
    assert cert.alpha(7) == step_size(sched, 7)
    np.testing.assert_array_equal(cert.mu(ks), 1.0 + cert.c * want)


def test_validate_certificate_beyond_int64_K():
    # cos:0.01:4:5 on double_well keeps alpha_k above 2/h_max = 2 until
    # K ~ 3.7e69, far beyond any fixed-width integer
    hess = get("double_well").objective.hess
    sched = cosine_schedule(5.0, 0.01, 4)
    cert = build_gd_certificate(SpectralData.from_hessian(hess(np.zeros(2))), sched, hess)
    assert cert.K > 2**64
    validate_certificate(cert)
    assert cert.alpha(cert.K) == step_size(sched, cert.K)


def test_gd_certificate_eps_strictly_inside_quarter_gap():
    spectral, hess = quad_saddle_spectral()
    cert = build_gd_certificate(spectral, constant_schedule(0.3), hess)
    ks = np.arange(cert.K, cert.K + 1000)
    assert np.all(cert.eps(ks) < (cert.mu(ks) - cert.lam(ks)) / 4.0)


def test_gd_certificate_rejects_no_unstable():
    spectral = SpectralData.from_hessian(np.diag([2.0, 1.0]))
    with pytest.raises(CertificateFailure):
        build_gd_certificate(
            spectral, polynomial_schedule(0.5, 1.0), quad_hessian(2)
        )


def test_gd_certificate_rejects_summable_schedule():
    spectral, hess = quad_saddle_spectral()
    with pytest.raises(CertificateFailure):
        build_gd_certificate(spectral, polynomial_schedule(1.0, 2.0), hess)


def test_pp_certificate_quad_saddle():
    spectral, _ = quad_saddle_spectral()
    cert = build_pp_certificate(spectral, constant_schedule(0.5), L=1.0)
    ks = np.arange(10)
    np.testing.assert_allclose(cert.mu(ks), 2.0)
    np.testing.assert_allclose(cert.eps(ks), 0.1)
    np.testing.assert_allclose(cert.lam(ks), 1.0)
    assert np.all(cert.eps(ks) < (cert.mu(ks) - cert.lam(ks)) / 4.0)
    validate_certificate(cert)


def test_pp_certificate_step_too_large():
    spectral = SpectralData.from_hessian(np.array([[-2.0]]))
    with pytest.raises(StepTooLarge):
        build_pp_certificate(spectral, constant_schedule(0.9), L=2.0)


def test_pp_nonsummability_lower_bound():
    # displayed bound in the instability proof: eps/(mu - 2 eps) >=
    # beta (1 - t_max)/5 * alpha with beta = 1, t_max = 0.5
    spectral, _ = quad_saddle_spectral()
    cert = build_pp_certificate(spectral, constant_schedule(0.5), L=1.0)
    ks = np.arange(100)
    ratio = cert.eps(ks) / (cert.mu(ks) - 2.0 * cert.eps(ks))
    alphas = cert.alpha(ks)
    assert np.all(ratio >= 0.1 * alphas - 1e-15)
    assert ratio[0] == pytest.approx(1.0 / 18.0, rel=1e-12)


def test_certificate_json_has_closed_forms():
    spectral, hess = quad_saddle_spectral()
    cert = build_gd_certificate(spectral, polynomial_schedule(1.0, 1.0), hess)
    import json

    payload = json.loads(cert.to_json())
    assert payload["mu_k"] == "1 + 1*alpha_k"
    assert payload["lambda_k"] == "1"
    assert payload["partition"]["I_u"] == [1]


# --- certificate spectral-bound property -------------------------------------


def test_gd_certificate_spectral_bounds_100_hessians():
    # 100 random symmetric 4x4 Hessians with at least one negative
    # eigenvalue; spot-check the subspace bounds at sampled k
    rng = np.random.default_rng(2718)
    built = 0
    while built < 100:
        A = rng.standard_normal((4, 4))
        H = (A + A.T) / 2.0
        if np.min(np.linalg.eigvalsh(H)) >= 0:
            continue
        spectral = SpectralData.from_hessian(H)
        sched = [
            constant_schedule(float(rng.uniform(0.05, 0.8))),
            polynomial_schedule(float(rng.uniform(0.2, 2.0)), 1.0),
            cosine_schedule(float(rng.uniform(0.2, 2.0)), 1.0, int(rng.integers(0, 5))),
        ][built % 3]
        cert = build_gd_certificate(spectral, sched, quad_hessian_of(H))
        built += 1
        Y = rng.standard_normal((100, cert.splitting.dim_cs)) @ cert.splitting.basis_cs.T
        Z = rng.standard_normal((100, cert.splitting.dim_u)) @ cert.splitting.basis_u.T
        for k in (cert.K, cert.K + 1, cert.K + 97, cert.K + 10_000):
            alpha = float(cert.alpha(int(k)))
            lam, mu = float(cert.lam(int(k))), float(cert.mu(int(k)))
            TY = Y - alpha * (Y @ H.T)
            TZ = Z - alpha * (Z @ H.T)
            assert np.all(
                np.linalg.norm(TY, axis=1) <= lam * np.linalg.norm(Y, axis=1) + 1e-10
            )
            assert np.all(
                np.linalg.norm(TZ, axis=1) >= mu * np.linalg.norm(Z, axis=1) - 1e-10
            )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gd_certificate_spectral_bounds_random_hessians(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((4, 4))
    H = (A + A.T) / 2.0
    if np.all(np.linalg.eigvalsh(H) >= 0):
        H = H - np.eye(4) * (np.max(np.linalg.eigvalsh(H)) + 0.5)
    spectral = SpectralData.from_hessian(H)
    sched = [
        constant_schedule(float(rng.uniform(0.05, 0.8))),
        polynomial_schedule(float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.3, 1.0))),
        cosine_schedule(float(rng.uniform(0.2, 2.0)), 1.0, int(rng.integers(0, 5))),
    ][int(rng.integers(0, 3))]
    try:
        cert = build_gd_certificate(spectral, sched, quad_hessian_of(H))
    except CertificateFailure:
        return  # schedule/eigenvalue combination without unstable directions
    ks = np.concatenate([np.arange(cert.K, cert.K + 100), [cert.K + 10_000]])
    for k in ks[:: max(1, len(ks) // 20)]:
        alpha = float(cert.alpha(int(k)))
        Tk = np.eye(4) - alpha * H
        B_cs, B_u = cert.splitting.basis_cs, cert.splitting.basis_u
        Y = rng.standard_normal((100, 4)) @ B_cs @ B_cs.T  # orthogonal projections
        Z = rng.standard_normal((100, 4)) @ B_u @ B_u.T
        lam = float(cert.lam(int(k)))
        mu = float(cert.mu(int(k)))
        ny = np.linalg.norm(Y @ Tk.T, axis=1)
        nz = np.linalg.norm(Z @ Tk.T, axis=1)
        assert np.all(ny <= lam * np.linalg.norm(Y, axis=1) + 1e-10)
        assert np.all(nz >= mu * np.linalg.norm(Z, axis=1) - 1e-10)



# --- schedule properties ----------------------------------------------------


@settings(max_examples=200, deadline=2000)
@given(
    st.sampled_from(["polynomial", "cosine"]),
    st.floats(0.01, 1.0),
    st.floats(1e-3, 10.0),
    st.integers(0, 8),
    st.floats(0.1, 30.0),
)
def test_schedule_K_and_sup_properties(family, gamma, alpha0, T, h_max):
    if family == "polynomial":
        sched = polynomial_schedule(alpha0, gamma)
    else:
        sched = cosine_schedule(alpha0, gamma, T)
    # within the per-example deadline, a value or NotAdmissible, never
    # another error
    try:
        K = check_admissible(np.array([h_max, -1.0]), sched).K
    except NotAdmissible:
        K = None
    sup = schedule_sup(sched)
    if K is not None and family == "polynomial":
        # K is 1 + the last k with alpha_k > 2/h_max
        if K >= 1:
            assert step_size(sched, K - 1) > 2.0 / h_max
        assert step_size(sched, K) <= 2.0 / h_max
    assert all(sup >= step_size(sched, k) for k in range(4 * T + 3))
