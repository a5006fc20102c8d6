"""Acceptance suite: one test per criterion, each printing a pass line.

Run as  pytest tests/test_acceptance.py -v -s  (the -s shows the pass
lines and timings; without it they appear only for failures).
The Monte Carlo matrix (criteria 6 and 10) is the long pole: it runs
21 cells x 1000 trials twice, process-parallel (SADDLESCOPE_THREADS
caps the workers).
"""

import json
import time

import numpy as np
import pytest

from saddlescope.avoidance import luzin_scan, monte_carlo_avoidance, run_matrix
from saddlescope.dynsys import SystemMap, counterexample_product
from saddlescope.graphtransform import (
    GraphFunction,
    function_norm,
    graph_transform,
    compose_phi,
    verify_graph_invariance,
    verify_potential_growth,
)
from saddlescope.optimizers import prox_inverse, prox_solve, pullback_hessian
from saddlescope.phcert import (
    SpectralData,
    build_gd_certificate,
    build_pp_certificate,
    classify_nonsummable,
    constant_schedule,
    cosine_schedule,
    explicit_schedule,
    globalize,
    polynomial_schedule,
    sample_lipschitz,
)
from saddlescope.synthetic import random_f1_graph, random_ph_pair, split_diagonal_pair
from saddlescope.testfns import STRICT_SADDLE, get


def _ok(n, msg, t):
    print(f"[PASS] criterion {n}: {msg} ({t:.2f}s)")


# --- criterion 1: counterexample regression -----------------------------------


def test_criterion_01_counterexample():
    counterexample_product()  # warm-up (numpy dispatch)
    t0 = time.perf_counter()
    prod = counterexample_product()
    dt = time.perf_counter() - t0
    assert np.max(np.abs(prod)) < 1e-9
    assert dt < 1e-3
    _ok(1, f"(g1 g2 g2)^2 = 0 entrywise < 1e-9, runtime {dt * 1e6:.0f}us", dt)


# --- criterion 2: graph-transform lemma suite ----------------------------------


def test_criterion_02_graph_transform_lemmas():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    delta, tol = 1.0 / 128.0, 1e-8
    shapes = [(1, 1), (1, 2), (2, 1), (2, 2)] * 5
    worst_aux, worst_gamma_margin, worst_growth, worst_resid = 0.0, np.inf, np.inf, 0.0
    for pair_idx, (m, n) in enumerate(shapes):
        pair = random_ph_pair(rng, m, n)
        sink = []
        zero = GraphFunction.zero(m, n, 1.0, delta)
        phi_k1 = graph_transform(pair, zero, tol, ratio_sink=sink)
        phi_k = graph_transform(pair, phi_k1, tol, ratio_sink=sink)

        # (b) transform contraction on random graph-class members
        while True:
            p1 = random_f1_graph(rng, m, n, delta=delta)
            p2 = random_f1_graph(rng, m, n, delta=delta)
            den = function_norm(p1.like(p1.values - p2.values))
            if den >= 0.05:
                break
        g1 = graph_transform(pair, p1, tol, ratio_sink=sink)
        g2 = graph_transform(pair, p2, tol, ratio_sink=sink)
        num = function_norm(g1.like(g1.values - g2.values))
        slack = (2.0 * tol / delta) / den
        assert num / den <= pair.gamma_lipschitz() + slack, (m, n)
        worst_gamma_margin = min(
            worst_gamma_margin, pair.gamma_lipschitz() + slack - num / den
        )

        # (a) auxiliary contraction ratios over all fixed-point solves
        assert max(sink) <= pair.contraction_factor() + 1e-9, (m, n)
        worst_aux = max(worst_aux, max(sink) - pair.contraction_factor())

        # (c) potential growth on 10^4 samples
        report = verify_potential_growth(
            pair, phi_k1, samples=10_000, tol=tol, seed=1000 + pair_idx
        )
        assert report.ok, (m, n, report.violations[:3])
        worst_growth = min(worst_growth, report.min_ratio - report.factor)

        # (d) graph invariance residual at delta = 1/128, tol = 1e-8
        resid = verify_graph_invariance(
            pair, phi_k, phi_k1, samples=2000, tol=tol, seed=2000 + pair_idx
        )
        assert resid <= 1e-4, (m, n, resid)
        worst_resid = max(worst_resid, resid)
    dt = time.perf_counter() - t0
    assert dt < 300.0
    _ok(
        2,
        "20 randomized pairs: aux ratios within 2eps/mu"
        f" (worst excess {worst_aux:.2e}), contraction within bound,"
        f" potential growth holds, max invariance residual {worst_resid:.2e}",
        dt,
    )


# --- criterion 3: closed-form transform ----------------------------------------


def test_criterion_03_closed_form():
    t0 = time.perf_counter()
    pair = split_diagonal_pair()  # g = T = diag(1, 2)
    ident = GraphFunction.from_callable(lambda y: y.copy(), 1, 1)
    out = graph_transform(pair, ident, tol=1e-12)
    nodes = out.node_coords()[:, 0]
    assert np.max(np.abs(out.nodal_values()[:, 0] - nodes / 2.0)) <= 1e-10
    for horizon in (1, 5, 20):
        phi = compose_phi([pair] * horizon, tol=1e-12)[0]
        assert np.all(phi.values == 0.0)
    dt = time.perf_counter() - t0
    assert dt < 10.0
    _ok(3, "Gamma(id) = id/2 at every node; linear chains stay zero", dt)


# --- criterion 4: certificate suite ---------------------------------------------


def _spectral_bound_check(H, cert, rng, slack=1e-10):
    d = H.shape[0]
    ks = np.arange(cert.K, cert.K + 10_001)
    alphas = cert.alpha(ks)
    lam, mu, eps = cert.lam(ks), cert.mu(ks), cert.eps(ks)
    assert np.all(lam == 1.0)
    np.testing.assert_array_equal(mu, 1.0 + cert.c * alphas)
    np.testing.assert_array_equal(eps, cert.c * alphas / 5.0)
    assert np.all(eps < (mu - lam) / 4.0)
    Y = rng.standard_normal((100, cert.splitting.dim_cs)) @ cert.splitting.basis_cs.T
    Z = rng.standard_normal((100, cert.splitting.dim_u)) @ cert.splitting.basis_u.T
    ny, nz = np.linalg.norm(Y, axis=1), np.linalg.norm(Z, axis=1)
    YH, ZH = Y @ H.T, Z @ H.T
    for block in np.array_split(np.arange(len(ks)), 20):
        a = alphas[block][:, None, None]
        TY = Y[None] - a * YH[None]
        TZ = Z[None] - a * ZH[None]
        assert np.all(
            np.linalg.norm(TY, axis=2) <= lam[block][:, None] * ny[None] + slack
        )
        assert np.all(
            np.linalg.norm(TZ, axis=2) >= mu[block][:, None] * nz[None] - slack
        )


def test_criterion_04_certificates():
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)
    schedules = [
        constant_schedule(0.5),
        polynomial_schedule(1.0, 1.0),
        cosine_schedule(0.5, 1.0, 4),
    ]
    checked = 0
    for key in ("quad_saddle", "double_well", "saddle_line"):
        entry = get(key)
        for cp in entry.critical_points:
            if cp.classification != STRICT_SADDLE:
                continue
            point = cp.sample(np.array(0.0)) if hasattr(cp, "sample") else cp.point
            H = np.asarray(entry.objective.hess(point))
            spectral = SpectralData.from_hessian(H)
            for sched in schedules:
                cert = build_gd_certificate(spectral, sched, entry.objective.hess)
                _spectral_bound_check(H, cert, rng)
                checked += 1
    # the sphere saddle, certified through its Riemannian Hessian: the
    # exponential-chart pullback's Hessian at v = 0
    entry = get("rayleigh_sphere")
    base = np.array([0.0, 1.0, 0.0])
    M = pullback_hessian(entry.objective, base)(np.zeros(2))
    spectral = SpectralData.from_hessian(M)
    for sched in schedules:
        cert = build_gd_certificate(
            spectral, sched, lambda v: np.broadcast_to(M, np.asarray(v).shape[:-1] + M.shape)
        )
        _spectral_bound_check(M, cert, rng)
        checked += 1
    # PP certificate exact values on quad_saddle
    pp_cert = build_pp_certificate(
        SpectralData.from_hessian(np.diag([1.0, -1.0])), constant_schedule(0.5), L=1.0
    )
    ks = np.arange(0, 10_001)
    assert np.all(pp_cert.mu(ks) == 2.0)
    assert np.all(pp_cert.eps(ks) == 0.1)
    assert np.all(pp_cert.lam(ks) == 1.0)
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _ok(
        4,
        f"{checked} GD certificates pass formula + spectral bounds at 1e-10;"
        " PP certificate gives mu=2, eps=0.1 exactly",
        dt,
    )


# --- criterion 5: non-summability classifier ------------------------------------


def test_criterion_05_nonsummability():
    t0 = time.perf_counter()
    for gamma in (0.25, 0.5, 0.75, 1.0, 1.25, 2.0):
        expected = "divergent" if gamma <= 1.0 else "convergent"
        assert classify_nonsummable(polynomial_schedule(1.0, gamma)) == expected
    assert classify_nonsummable(constant_schedule(0.01)) == "divergent"
    inv_sq = explicit_schedule(1.0 / (np.arange(1_000_000) + 1.0) ** 2)
    assert classify_nonsummable(inv_sq) == "unknown"
    dt = time.perf_counter() - t0
    assert dt < 1.0
    _ok(5, "divergent iff gamma <= 1; constant divergent; 1/(k+1)^2 not", dt)


# --- criteria 6 and 10: the Monte Carlo matrix -----------------------------------

MATRIX_MAX_STEPS = 100_000  # runtime-driven override; module defaults keep 1e6


def _schedules_for(alpha0):
    return [
        constant_schedule(alpha0),
        polynomial_schedule(alpha0, 1.0),
        cosine_schedule(alpha0, 1.0, 4),
    ]


def _acceptance_cells():
    cells = []
    idx = 0
    for key in ("quad_saddle", "double_well", "saddle_line"):
        L = get(key).objective.lipschitz_L
        for algo in ("gd", "pp"):
            alpha0 = 0.5 if algo == "gd" else 0.5 / L
            for sched in _schedules_for(alpha0):
                cell = dict(
                    objective_key=key,
                    algorithm=algo,
                    schedule=sched,
                    trials=1000,
                    seed=4200 + idx,
                    max_steps=MATRIX_MAX_STEPS,
                )
                if key == "double_well" and algo == "gd" and sched.family == "constant":
                    # adversarial probe on the invariant axis x = 0: GD
                    # preserves it, so this must converge to the saddle
                    cell["probes"] = [np.array([0.0, 0.5])]
                cells.append(cell)
                idx += 1
    for sched in _schedules_for(0.5):
        cells.append(
            dict(
                objective_key="rayleigh_sphere",
                algorithm="rgd",
                schedule=sched,
                trials=1000,
                seed=4200 + idx,
                max_steps=MATRIX_MAX_STEPS,
            )
        )
        idx += 1
    return cells


def _serialize_reports(reports):
    return "\n".join(r.to_json() for r in reports) + "\n" + "".join(
        r.to_csv() for r in reports
    )


@pytest.fixture(scope="module")
def matrix_run():
    cells = _acceptance_cells()
    t0 = time.perf_counter()
    reports = run_matrix(cells)
    dt = time.perf_counter() - t0
    return cells, reports, dt


def test_criterion_06_monte_carlo_avoidance(matrix_run):
    cells, reports, dt = matrix_run
    assert len(reports) == 21
    total_saddle = sum(r.counts["converged_strict_saddle"] for r in reports)
    total_trials = sum(sum(r.counts.values()) for r in reports)
    assert total_trials == 21_000
    assert total_saddle == 0
    probes = [p for r in reports for p in r.stable_set_probe]
    assert len(probes) == 1
    assert probes[0]["classification"] == "converged_strict_saddle"
    assert dt < 1800.0
    _ok(
        6,
        f"21 cells x 1000 trials: 0 saddle hits; probe detected exactly one",
        dt,
    )


def test_criterion_10_determinism(matrix_run):
    cells, reports, _ = matrix_run
    t0 = time.perf_counter()
    rerun = run_matrix(cells)
    dt = time.perf_counter() - t0
    assert _serialize_reports(rerun) == _serialize_reports(reports)
    _ok(10, "matrix rerun with the same seeds is byte-identical (JSON+CSV)", dt)


# --- criterion 7: proximal inverse property ---------------------------------------


def test_criterion_07_pp_inverse():
    t0 = time.perf_counter()
    dw = get("double_well").objective
    alpha = 0.01
    rng = np.random.default_rng(7)
    X = rng.uniform(-3.0, 3.0, size=(1000, 2))  # the box of double_well's declared L
    Z = prox_solve(dw, alpha, X, inner_tol=1e-12)
    assert np.max(np.linalg.norm(prox_inverse(dw, alpha, Z) - X, axis=1)) <= 1e-10

    qs = get("quad_saddle").objective
    H = np.diag([1.0, -1.0])
    alpha = 0.5
    X = rng.uniform(-2, 2, size=(1000, 2))
    Z = prox_solve(qs, alpha, X, inner_tol=1e-13)
    closed = np.linalg.solve(np.eye(2) + alpha * H, X.T).T
    assert np.max(np.abs(Z - closed)) <= 1e-12
    dt = time.perf_counter() - t0
    assert dt < 30.0
    _ok(7, "u(g(x)) = x to 1e-10; Newton matches (I+aH)^{-1}x to 1e-12", dt)


# --- criterion 8: globalization ----------------------------------------------------


def test_criterion_08_globalization():
    t0 = time.perf_counter()
    raw = SystemMap(lambda x: 0.9 * np.asarray(x) + 0.01 * np.asarray(x) ** 2)
    remainder = globalize(lambda x: 0.01 * np.asarray(x) ** 2, r=1.0, eps_budget=0.08, dim=1)
    blended = SystemMap(lambda x: 0.9 * np.asarray(x) + remainder(x))
    grid = np.linspace(-2.0, 2.0, 20_001)[:, None]
    inner = np.abs(grid[:, 0]) <= 0.5
    outer = np.abs(grid[:, 0]) >= 1.0
    np.testing.assert_array_equal(blended.evaluate(grid[inner]), raw.evaluate(grid[inner]))
    np.testing.assert_array_equal(blended.evaluate(grid[outer]), 0.9 * grid[outer])
    lip = sample_lipschitz(
        lambda x: blended.evaluate(x) - 0.9 * np.asarray(x), 2.0, 50_000, dim=1
    )
    assert lip <= 0.08
    dt = time.perf_counter() - t0
    assert dt < 5.0
    _ok(8, f"blend exact on both regions; sampled Lip(g~-T) = {lip:.4f} <= 0.08", dt)


# --- criterion 9: Luzin scans -------------------------------------------------------


def test_criterion_09_luzin():
    t0 = time.perf_counter()
    report = luzin_scan("quad_1d", "gd", [0.5, 1.0, 1.5], x_samples=200, seed=9)
    assert report.flagged_alphas == [1.0]
    alphas = np.linspace(0.05, 0.95, 10)
    pp_report = luzin_scan("quad_saddle", "pp", alphas, x_samples=100, seed=9)
    assert pp_report.flagged == []
    assert min(pp_report.min_abs_det) > 1e-12
    dt = time.perf_counter() - t0
    assert dt < 10.0
    _ok(
        9,
        "1D quadratic flags exactly alpha=1; PP flags nothing on 1000 samples",
        dt,
    )
