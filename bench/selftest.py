"""Self-tests of the benchmark's correctness checks.

    python3 bench/selftest.py

Each test builds an output that is right by construction, shows that
the check accepts it, then plants one wrong result (a saddle hit, a
step count off by two, a certificate with eps_k >= (mu_k - lambda_k)/4,
and so on) and shows that the check rejects it.  Needs only numpy.
"""

from __future__ import annotations

import copy
import math
import os
import sys
from types import SimpleNamespace

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402

CONST = ("const", 0.5, None, None)
POLY = ("poly", 0.5, 1.0, None)
FAILURES = []


def expect(name: str, accepted: list, rejected: list) -> None:
    ok = not accepted and bool(rejected)
    print(f"{'ok  ' if ok else 'FAIL'} {name}")
    if not ok:
        FAILURES.append((name, accepted, rejected))


def _report(rows, probes=()):
    counts = dict.fromkeys(
        ["converged_minimizer", "converged_strict_saddle", "converged_other_critical", "diverged", "undecided"], 0
    )
    for r in rows:
        counts[r[2]] += 1
    hits = [{"trial": r[0]} for r in rows if r[2] == "converged_strict_saddle"]
    return SimpleNamespace(counts=counts, rows=rows, saddle_hits=hits, stable_set_probe=list(probes))


def _x0(n, d, seed=3):
    return np.random.default_rng(seed).uniform(-2.0, 2.0, size=(n, d))


def test_saddle_hit():
    x0 = _x0(20, 2)
    cell = dict(key="double_well", algo="gd", spec=CONST, trials=20, max_steps=1000)
    rows = [(i, x.tolist(), "converged_minimizer", 100, 1e-13) for i, x in enumerate(x0)]
    good = checks.check_report(_report(rows), cell, "converge")
    rows[7] = (7, x0[7].tolist(), "converged_strict_saddle", 100, 1e-13)
    expect("a planted saddle hit is rejected", good, checks.check_report(_report(rows), cell, "converge"))


def test_divergence_step_off_by_two():
    x0 = _x0(50, 3)
    cell = dict(key="saddle_line", algo="gd", spec=CONST, trials=50, max_steps=100_000)
    want, _ = checks.quadratic_divergence_step("gd", CONST, x0)
    rows = [(i, x.tolist(), "diverged", int(k), 1e9) for i, (x, k) in enumerate(zip(x0, want))]
    good = checks.check_report(_report(rows), cell, "diverge")
    rows[3] = (3, x0[3].tolist(), "diverged", int(want[3]) + 2, 1e9)
    expect("a divergence step count off by two is rejected", good, checks.check_report(_report(rows), cell, "diverge"))


def test_final_gradient():
    x0 = _x0(10, 2)
    cell = dict(key="quad_saddle", algo="gd", spec=POLY, trials=10, max_steps=500)
    g = checks.quadratic_final_grad("gd", POLY, x0, 500)
    rows = [(i, x.tolist(), "undecided", 500, float(v)) for i, (x, v) in enumerate(zip(x0, g))]
    good = checks.check_report(_report(rows), cell, "budget")
    rows[2] = (2, x0[2].tolist(), "undecided", 500, float(g[2]) * (1 + 1e-6))
    expect("a final gradient norm off the step-size product is rejected", good,
           checks.check_report(_report(rows), cell, "budget"))
    rows[2] = (2, x0[2].tolist(), "undecided", 498, float(g[2]))
    expect("a trial that stops before its budget is rejected", good, checks.check_report(_report(rows), cell, "budget"))


def test_probe():
    x0 = _x0(4, 2)
    cell = dict(key="double_well", algo="gd", spec=CONST, trials=4, max_steps=1000, probes=[(0.0, 0.5)])
    rows = [(i, x.tolist(), "converged_minimizer", 100, 1e-13) for i, x in enumerate(x0)]
    probe = {"x0": [0.0, 0.5], "classification": "converged_strict_saddle", "limit": [0.0, 1e-30], "steps": 98}
    good = checks.check_report(_report(rows, [probe]), cell, "converge")
    bad = []
    for change in ({"limit": [1e-300, 1e-30]}, {"classification": "converged_minimizer"}, {"classification": "undecided"}):
        bad.append(checks.check_report(_report(rows, [{**probe, **change}]), cell, "converge"))
    expect("a probe off the axis, at a minimizer, or undecided under constant steps is rejected",
           good, [b for b in bad if b] if all(bad) else [])


def _gd_cert(eps="0.2*alpha_k", r=2.0):
    return {
        "saddle": [0.0, 0.0], "K": 0, "c": 1.0, "r": r, "schedule": "const:0.5",
        "partition": {"I_cs": [0], "I_u": [1]}, "mu_k": "1 + 1*alpha_k", "lambda_k": "1",
        "eps_k": eps, "basis_cs": [[1.0, 0.0]], "basis_u": [[0.0, 1.0]],
    }


def test_certificate():
    r_a = checks.analytic_radius("quad_saddle", "gd", CONST, 1.0)
    radius, good = checks.check_certificate(_gd_cert(), "quad_saddle", "gd", CONST, r_a)
    good = good + ([radius] if radius else [])
    _, bad = checks.check_certificate(_gd_cert(eps="0.3*alpha_k"), "quad_saddle", "gd", CONST, r_a)
    expect("a certificate with eps_k >= (mu_k - lambda_k)/4 is rejected", good, bad)
    cert = _gd_cert()
    cert["mu_k"] = "1 + 1.5*alpha_k"
    _, bad = checks.check_certificate(cert, "quad_saddle", "gd", CONST, r_a)
    expect("a certificate claiming more expansion than the Hessian gives is rejected", good, bad)
    dw = checks.analytic_radius("double_well", "gd", CONST, 26.0)
    radius, _ = checks.check_certificate(_gd_cert(r=dw * 1.004), "double_well", "gd", CONST, dw)
    expect("a radius 0.4 % beyond the analytic one is flagged", [], [radius] if radius else [])
    assert math.isclose(dw, math.sqrt(1 / 60)), dw


def test_trajectory():
    ks = np.arange(0, 2001)
    a = checks.alphas(POLY, 2001)
    X = np.empty((2001, 2))
    X[0] = (1.3, -0.7)
    for k in range(2000):
        x = X[k]
        X[k + 1] = x - a[k] * np.array([x[0] ** 3 - x[0], x[1]])
    good = checks.check_trajectory(ks, X, "gd", POLY, 2000)
    Xb = X.copy()
    Xb[1500, 0] += 1e-9
    expect("a GD iterate off its update equation is rejected", good, checks.check_trajectory(ks, Xb, "gd", POLY, 2000))
    S = np.empty((2001, 3))
    S[0] = np.array([0.6, 0.0, 0.8])
    for k in range(2000):
        x = S[k]
        s = float(x @ (checks.RAYLEIGH * x))
        w = x - a[k] * (checks.RAYLEIGH * x - s * x)
        S[k + 1] = w / np.linalg.norm(w)
    good = checks.check_trajectory(ks, S, "rgd", POLY, 2000)
    Sb = S.copy()
    Sb[900:] *= 1.0 + 1e-9
    expect("RGD iterates off the unit sphere are rejected", good, checks.check_trajectory(ks, Sb, "rgd", POLY, 2000))


def test_luzin_and_graphs():
    n, seed, alphas = 50, 4, [0.25, 1.0]
    dets = [checks.luzin_closed_form("double_well", "gd", a, checks.luzin_points(seed, j, n, 2, False))
            for j, a in enumerate(alphas)]
    flagged = [{"alpha": 1.0, "index": i, "x": [], "det": 0.0} for i in range(n)]
    report = {"alphas": alphas, "min_abs_det": [float(np.min(np.abs(d))) for d in dets],
              "flagged": flagged, "threshold": 1e-12}
    good = checks.check_luzin(report, 0, "double_well", "gd", seed, n)
    bad_report = copy.deepcopy(report)
    bad_report["min_abs_det"][0] *= 1.001
    expect("a Luzin determinant off its closed form is rejected", good,
           checks.check_luzin(bad_report, 0, "double_well", "gd", seed, n))
    nodes = np.linspace(-1, 1, 129)
    expect("Gamma(id) off id/2 is rejected", checks.check_half_identity(nodes, nodes / 2),
           checks.check_half_identity(nodes, nodes / 2 + 1e-9 * (nodes > 0.5)))


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
    sys.exit(1 if FAILURES else 0)
