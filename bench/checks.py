"""Correctness checks for the benchmark's outputs.

Every reference value here is computed by the benchmark itself, from
closed forms or from properties the method must have; nothing is
compared against a stored copy of an earlier run.  Each check returns a
list of problems (empty when the output is right).  The certificate
check separates a radius beyond the analytic one, a known fault of
phcert.estimate_radius, from every other kind of wrong output.
"""

from __future__ import annotations

import math
import re

import numpy as np

DIVERGENCE_RADIUS = 1e8
SPECTRAL_SLACK = 1e-10
CERT_HORIZON = 10_000


# --- step sizes, computed apart from phcert ---------------------------------------


def alphas(spec: tuple, n: int) -> np.ndarray:
    """alpha_0 .. alpha_{n-1} of a schedule spec (family, alpha0, gamma, T)."""
    family, a0, gamma, T = spec
    k = np.arange(n, dtype=float)
    if family == "const":
        out = np.full(n, a0)
    else:
        out = a0 / (k + 1.0) ** gamma
        if family == "cos":
            out = out * (1.0 + np.cos(np.pi * (k + 0.5) / (2 * T + 1)))
    out[0] = a0
    return out


def schedule_sup(spec: tuple) -> float:
    """sup_k alpha_k: alpha0 for const and poly; for cos the envelope
    2 alpha0 / (k+1)^gamma falls below alpha0 after a finite prefix."""
    family, a0, gamma, T = spec
    if family != "cos":
        return a0
    n = int(math.ceil(2.0 ** (1.0 / gamma))) + 2
    return float(np.max(alphas(spec, n)))


# --- Monte Carlo reports ---------------------------------------------------------------

_QUADRATIC = ("quad_saddle", "saddle_line")


def _factors(algo: str, a: np.ndarray):
    """Per-step multipliers along the h = +1 and h = -1 eigendirections."""
    if algo == "gd":
        return 1.0 - a, 1.0 + a
    return 1.0 / (1.0 + a), 1.0 / (1.0 - a)


def quadratic_final_grad(algo: str, spec: tuple, x0: np.ndarray, steps: int) -> np.ndarray:
    """||grad f(x_steps)|| for f = (x^2 - y^2)/2 (+ 0 * z) in closed form."""
    stable, unstable = _factors(algo, alphas(spec, steps))
    x = x0[:, 0] * np.prod(stable)
    y = x0[:, 1] * np.prod(unstable)
    return np.hypot(x, y)


def quadratic_divergence_step(algo: str, spec: tuple, x0: np.ndarray, horizon: int = 400):
    """First k with ||x_k|| > 1e8 under a constant step, and whether an
    iterate sits within rounding of the radius (then k +- 1 is allowed)."""
    a = spec[1]
    s, u = _factors(algo, np.array([a]))
    k = np.arange(1, horizon + 1, dtype=float)
    xs = x0[:, :1] * s[0] ** k
    ys = x0[:, 1:2] * u[0] ** k
    zs = x0[:, 2:3] if x0.shape[1] > 2 else 0.0
    norms = np.sqrt(xs**2 + ys**2 + zs**2)
    first = np.argmax(norms > DIVERGENCE_RADIUS, axis=1) + 1
    close = np.any(np.abs(norms / DIVERGENCE_RADIUS - 1.0) < 1e-9, axis=1)
    return first, close


def check_report(report, cell: dict, mode: str) -> list:
    """Problems in one AvoidanceReport.

    mode "budget": every trial must use its whole step budget (vanishing
    steps); "diverge": every trial must diverge at the closed-form step
    (constant steps on the quadratic saddles); "converge": no constraint
    beyond the common ones.
    """
    bad = []
    key, algo, spec = cell["key"], cell["algo"], cell["spec"]
    trials, max_steps = cell["trials"], cell["max_steps"]
    rows = report.rows
    if len(rows) != trials or sum(report.counts.values()) != trials:
        return [f"{key}/{algo}: {len(rows)} rows, counts sum {sum(report.counts.values())}, want {trials}"]
    tally = {}
    for row in rows:
        tally[row[2]] = tally.get(row[2], 0) + 1
    if any(report.counts.get(c, 0) != n for c, n in tally.items()):
        bad.append(f"{key}/{algo}: counts {report.counts} disagree with the rows {tally}")
    if report.counts.get("converged_strict_saddle", 0) or report.saddle_hits or "converged_strict_saddle" in tally:
        bad.append(f"{key}/{algo}: a random trial ended converged_strict_saddle")
    x0 = np.array([row[1] for row in rows], dtype=float)
    steps = np.array([row[3] for row in rows])
    if mode == "budget":
        if np.any(steps != max_steps) or "diverged" in tally:
            bad.append(f"{key}/{algo}: trials did not all use the {max_steps}-step budget")
        elif key in _QUADRATIC:
            want = quadratic_final_grad(algo, spec, x0, max_steps)
            got = np.array([row[4] for row in rows])
            err = float(np.max(np.abs(got - want) / want))
            if not err <= 1e-9:
                bad.append(f"{key}/{algo}: final gradient norms off the closed form by {err:.3e}")
    elif mode == "diverge":
        want, close = quadratic_divergence_step(algo, spec, x0)
        off = np.abs(steps - want)
        if set(tally) != {"diverged"} or np.any(off > np.where(close, 1, 0)):
            j = int(np.argmax(off))
            bad.append(
                f"{key}/{algo}: divergence step {steps[j]} of trial {j}, closed form gives {want[j]}"
            )
    for probe, p0 in zip(report.stable_set_probe, cell.get("probes", ())):
        limit = probe["limit"]
        if p0[0] == 0.0 and limit[0] != 0.0:
            bad.append(f"{key}/{algo}: probe left the axis x = 0 (x = {limit[0]!r})")
        if probe["classification"] == "converged_minimizer":
            bad.append(f"{key}/{algo}: stable-set probe ended converged_minimizer")
        if spec[0] == "const" and probe["classification"] != "converged_strict_saddle":
            bad.append(f"{key}/{algo}: constant-step probe ended {probe['classification']}")
    if len(report.stable_set_probe) != len(cell.get("probes", ())):
        bad.append(f"{key}/{algo}: {len(report.stable_set_probe)} probe results")
    return bad


# --- certificates ------------------------------------------------------------------------

RAYLEIGH = np.array([1.0, 2.0, 3.0])


def saddle_hessian(key: str, saddle: np.ndarray) -> np.ndarray:
    """Hessian at the saddle, in the coordinates the certificate uses."""
    if key == "quad_saddle":
        return np.diag([1.0, -1.0])
    if key == "double_well":
        return np.diag([3.0 * saddle[0] ** 2 - 1.0, 1.0])
    if key == "saddle_line":
        return np.diag([1.0, -1.0, 0.0])
    if key == "rayleigh_sphere":
        # tangent coordinates in the basis the certificates are written
        # in: the last d-1 columns of Q in the QR factorization of [b | I]
        Q = np.linalg.qr(np.concatenate([saddle[:, None], np.eye(3)], axis=1))[0][:, 1:]
        s = float(saddle @ (RAYLEIGH * saddle))
        return Q.T @ (np.diag(RAYLEIGH) - s * np.eye(3)) @ Q
    raise KeyError(key)


def admissibility_margin(eigs: np.ndarray, spec: tuple) -> float:
    """The GD expansion margin c: |1 - alpha h| >= 1 + c alpha on I_u."""
    if spec[0] == "const":
        a = spec[1]
        mult = np.abs(1.0 - a * eigs)
        return float(np.min((mult[mult > 1.0] - 1.0) / a))
    return float(np.min(np.abs(eigs[eigs < 0.0])))


def _series(coeffs: np.ndarray, rho: np.ndarray, deriv: int) -> np.ndarray:
    n = np.arange(len(coeffs))
    c = coeffs.copy()
    for _ in range(deriv):
        c = (c * n)[1:]
        n = n[1:] - 1
    return np.polynomial.polynomial.polyval(rho, c)


def _pullback_series():
    n = np.arange(25)
    fact = np.array([math.factorial(2 * j) for j in range(27)], dtype=float)
    # cos^2(t) = (1 + cos 2t)/2 and sin^2(t)/t^2 = (1 - cos 2t)/(2 t^2) in rho = t^2
    C = np.where(n == 0, 1.0, (-1.0) ** n * 4.0**n / (2.0 * fact[n]))
    S = (-1.0) ** n * 4.0 ** (n + 1) / (2.0 * fact[n + 1])
    return C, S


def sphere_pullback_hessian(V: np.ndarray, d_base: float, P: np.ndarray) -> np.ndarray:
    """Exact Hessian of v -> f(exp_b(v)) for f = x^T D x / 2 at an
    eigenvector b of D, in tangent coordinates along the other
    eigenvectors: f(exp_b(v)) = (d_b C(|v|^2) + S(|v|^2) v^T P v) / 2."""
    C, S = _pullback_series()
    rho = np.sum(V * V, axis=-1)
    C1, C2 = _series(C, rho, 1), _series(C, rho, 2)
    S0, S1, S2 = _series(S, rho, 0), _series(S, rho, 1), _series(S, rho, 2)
    q = np.einsum("...i,ij,...j->...", V, P, V)
    I = np.eye(V.shape[-1])
    vv = V[..., :, None] * V[..., None, :]
    Pv = V @ P.T
    sym = V[..., :, None] * Pv[..., None, :] + Pv[..., :, None] * V[..., None, :]
    e = lambda a: a[..., None, None]
    return (
        0.5 * d_base * (2.0 * e(C1) * I + 4.0 * e(C2) * vv)
        + 0.5 * (e(q) * (2.0 * e(S1) * I + 4.0 * e(S2) * vv) + 4.0 * e(S1) * sym + 2.0 * e(S0) * P)
    )


def _radius_from_modulus(omega, budget: float, box: float) -> float:
    if omega(box) <= budget:
        return box
    lo, hi = 0.0, box
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if omega(mid) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


def sphere_radius(budget: float, box: float, j: int = 1) -> float:
    """Largest r with ||H(v) - H(0)|| <= budget on |v| <= r for the
    Rayleigh pullback at +-e_j (a dense polar grid that contains both
    coordinate axes, where the modulus peaks)."""
    P = np.diag(np.delete(RAYLEIGH, j))
    H0 = sphere_pullback_hessian(np.zeros(2), RAYLEIGH[j], P)
    ang = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)

    def omega(r):
        V = (np.linspace(r / 40.0, r, 40)[:, None, None] * dirs[None]).reshape(-1, 2)
        D = sphere_pullback_hessian(V, RAYLEIGH[j], P) - H0
        return float(np.max(np.abs(np.linalg.eigvalsh(D))))

    return _radius_from_modulus(omega, budget, box)


def analytic_radius(key: str, algo: str, spec: tuple, L: float, box: float = 2.0) -> float:
    """The certificate radius computed from the objective's Hessian."""
    if key == "rayleigh_sphere":
        eigs = np.array([-1.0, 1.0])
        return sphere_radius(admissibility_margin(eigs, spec) / 20.0, min(box, 1.0))
    eigs = np.linalg.eigvalsh(saddle_hessian(key, np.zeros(3)))
    if algo == "gd":
        budget, rho = admissibility_margin(eigs, spec) / 20.0, 1.0
    else:
        rho = 1.0 / (1.0 - schedule_sup(spec) * L)
        budget = (-float(np.max(eigs[eigs < 0.0])) / 20.0) / rho**2
    if key == "double_well":
        # ||H(x) - H(0)|| = 3 x_1^2, largest on the x_1 axis
        R = min(box, math.sqrt(budget / 3.0))
    else:
        R = box  # constant Hessian
    return R / rho


_NUM = r"([-+0-9.eE]+)"
_GD_MU = re.compile(rf"^1 \+ {_NUM}\*alpha_k$")
_PP_MU = re.compile(rf"^1/\(1 \+ alpha_k\*\({_NUM}\)\)$")
_EPS = re.compile(rf"^{_NUM}\*alpha_k$")


def check_certificate(cert: dict, key: str, algo: str, spec: tuple, r_analytic: float):
    """(radius_problem, other_problems) for one certificate JSON entry."""
    bad = []
    saddle = np.asarray(cert["saddle"], dtype=float)
    H = saddle_hessian(key, saddle)
    Bcs = np.asarray(cert["basis_cs"], dtype=float).reshape(-1, H.shape[0]).T
    Bu = np.asarray(cert["basis_u"], dtype=float).reshape(-1, H.shape[0]).T
    B = np.hstack([Bcs, Bu])
    if B.shape[1] != H.shape[0] or not np.allclose(B.T @ B, np.eye(H.shape[0]), atol=1e-12):
        return None, [f"{key}/{algo}: splitting basis is not orthonormal"]
    if Bu.shape[1] == 0:
        return None, [f"{key}/{algo}: empty unstable subspace"]
    if Bcs.shape[1] and np.max(np.abs(Bu.T @ H @ Bcs)) > 1e-12:
        return None, [f"{key}/{algo}: splitting is not Hessian-invariant"]
    if cert["lambda_k"] != "1":
        bad.append(f"{key}/{algo}: lambda_k = {cert['lambda_k']!r}")
    mu_re = _GD_MU if algo != "pp" else _PP_MU
    m_mu, m_eps = mu_re.match(cert["mu_k"]), _EPS.match(cert["eps_k"])
    if not (m_mu and m_eps):
        return None, bad + [f"{key}/{algo}: unreadable formulas {cert['mu_k']!r}, {cert['eps_k']!r}"]
    K = int(cert["K"])
    a = alphas(spec, K + CERT_HORIZON + 1)[K:]
    coef = float(m_mu.group(1))
    mu = 1.0 + coef * a if algo != "pp" else 1.0 / (1.0 + a * coef)
    lam = np.ones_like(a)
    eps = float(m_eps.group(1)) * a
    if not np.all((eps > 0.0) & (eps < (mu - lam) / 4.0)):
        k = int(np.argmin((mu - lam) / 4.0 - eps))
        bad.append(f"{key}/{algo}: eps_k >= (mu_k - lambda_k)/4 at k = {K + k}")
    # T_k restricted to each factor, from the eigenvalues of H there
    g_cs = np.linalg.eigvalsh(Bcs.T @ H @ Bcs) if Bcs.shape[1] else np.zeros(0)
    g_u = np.linalg.eigvalsh(Bu.T @ H @ Bu)
    if algo == "pp":
        s_cs = 1.0 / np.abs(1.0 + a[:, None] * g_cs[None])
        s_u = 1.0 / np.abs(1.0 + a[:, None] * g_u[None])
    else:
        s_cs = np.abs(1.0 - a[:, None] * g_cs[None])
        s_u = np.abs(1.0 - a[:, None] * g_u[None])
    if s_cs.size and not np.all(s_cs.max(axis=1) <= lam + SPECTRAL_SLACK):
        bad.append(f"{key}/{algo}: T_k expands E_cs beyond lambda_k")
    if not np.all(s_u.min(axis=1) >= mu - SPECTRAL_SLACK):
        bad.append(f"{key}/{algo}: T_k expands E_u by less than mu_k")
    r = float(cert["r"])
    radius = None
    if not r <= r_analytic * (1.0 + 1e-12):
        radius = (
            f"{key}/{algo}/{spec[0]}: radius {r:.6g} exceeds the analytic {r_analytic:.6g}"
        )
    return radius, bad


# --- graph-transform lemmas ------------------------------------------------------------


def check_lemma_pair(out: dict, seed) -> list:
    """The four lemma inequalities on one randomized pair."""
    pair, delta, tol = out["pair"], out["delta"], out["tol"]
    tag = f"lemma {pair.m}x{pair.n}"
    bad = []
    if not max(out["sink"]) <= pair.contraction_factor() + 1e-9:
        bad.append(f"{tag}: auxiliary ratio {max(out['sink']):.6g} above 2 eps/mu")
    num, den = out["num"], out["den"]
    if not num / den <= pair.gamma_lipschitz() + (2.0 * tol / delta) / den:
        bad.append(f"{tag}: transform contraction {num / den:.6g} above its bound")
    if out["growth"].violations:
        bad.append(f"{tag}: potential growth violated at {len(out['growth'].violations)} points")
    if not out["resid"] <= 1e-4:
        bad.append(f"{tag}: invariance residual {out['resid']:.3e}")
    # the same two inequalities again, on points the benchmark draws
    rng = np.random.default_rng(seed)
    sp, phi1, phi0 = pair.splitting, out["phi_k1"], out["phi_k"]
    Y = rng.uniform(-1.0, 1.0, size=(2000, pair.m))
    Z = rng.uniform(-1.0, 1.0, size=(2000, pair.n))
    X = sp.embed(Y, Z)
    GX = np.asarray(pair.g.evaluate(X))
    lhs = np.linalg.norm(sp.coords_u(GX) - phi1(sp.coords_cs(GX)), axis=-1)
    rhs = np.linalg.norm(sp.coords_u(X) - phi0(sp.coords_cs(X)), axis=-1)
    if np.any(lhs < (pair.mu - 2.0 * pair.eps) * rhs - (2.0 * delta + tol)):
        bad.append(f"{tag}: V(g x) < (mu - 2 eps) V(x) on benchmark points")
    X = sp.embed(Y, phi0(Y))
    GX = np.asarray(pair.g.evaluate(X))
    resid = np.linalg.norm(sp.coords_u(GX) - phi1(sp.coords_cs(GX)), axis=-1)
    if not float(np.max(resid)) <= 1e-4:
        bad.append(f"{tag}: g(graph phi_k) leaves graph phi_k+1 by {float(np.max(resid)):.3e}")
    return bad


def check_half_identity(nodes: np.ndarray, values: np.ndarray) -> list:
    err = float(np.max(np.abs(values - nodes / 2.0)))
    return [] if err <= 1e-10 else [f"Gamma(id) differs from id/2 by {err:.3e}"]


def check_graphs(report: dict, rc: int, chain: str) -> list:
    bad = [] if rc == 0 else [f"graphs {chain}: exit code {rc}"]
    res = report["invariance_residuals"]
    if not all(r <= report["residual_budget"] for r in res):
        bad.append(f"graphs {chain}: invariance residual {max(res):.3e} over budget")
    if report["potential_growth"]["violations"]:
        bad.append(f"graphs {chain}: potential growth violated")
    c = report["contraction"]
    if not c["measured_ratio"] <= c["bound"] + 1e-5:
        bad.append(f"graphs {chain}: contraction ratio {c['measured_ratio']:.6g} > {c['bound']:.6g}")
    if chain == "linear" and (report["final_norm"] != 0.0 or any(r != 0.0 for r in res)):
        bad.append("graphs linear: a linear chain moved the zero graph")
    return bad


# --- Luzin scans ----------------------------------------------------------------------------


def luzin_points(seed: int, j: int, n: int, dim: int, sphere: bool, box: float = 2.0):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(j,))))
    if sphere:
        X = rng.standard_normal((n, dim))
        return X / np.linalg.norm(X, axis=1, keepdims=True)
    return rng.uniform(-box, box, size=(n, dim))


def rgd_tangent_det(X: np.ndarray, a: float) -> np.ndarray:
    """|det| of the RGD map's differential between tangent spaces."""
    D = RAYLEIGH
    s = np.sum(X * X * D, axis=1)
    DX = X * D
    W = X - a * (DX - s[:, None] * X)
    nw = np.linalg.norm(W, axis=1)
    I = np.eye(3)
    Dw = I - a * np.diag(D) + a * (s[:, None, None] * I + 2.0 * X[:, :, None] * DX[:, None, :])
    What = W / nw[:, None]
    J = (I - What[:, :, None] * What[:, None, :]) @ Dw / nw[:, None, None]
    Bx = np.linalg.svd(X[:, None, :])[2][:, 1:, :].transpose(0, 2, 1)  # (n, 3, 2)
    JB = J @ Bx
    return np.sqrt(np.abs(np.linalg.det(np.swapaxes(JB, 1, 2) @ JB)))


def luzin_closed_form(key: str, algo: str, a: float, X: np.ndarray) -> np.ndarray:
    if algo == "gd" and key == "double_well":
        return (1.0 - a * (3.0 * X[:, 0] ** 2 - 1.0)) * (1.0 - a)
    if algo == "pp" and key == "saddle_line":
        return np.full(len(X), 1.0 / ((1.0 + a) * (1.0 - a)))
    if algo == "rgd" and key == "rayleigh_sphere":
        return rgd_tangent_det(X, a)
    raise KeyError((key, algo))


def check_luzin(report: dict, rc: int, key: str, algo: str, seed: int, samples: int) -> list:
    if rc != 0:
        return [f"luzin {algo}: exit code {rc}"]
    bad = []
    dim = 3 if key in ("saddle_line", "rayleigh_sphere") else 2
    flagged = {(f["alpha"], f["index"]): f["det"] for f in report["flagged"]}
    want_flags = set()
    for j, a in enumerate(report["alphas"]):
        X = luzin_points(seed, j, samples, dim, key == "rayleigh_sphere")
        det = luzin_closed_form(key, algo, a, X)
        got = report["min_abs_det"][j]
        want = float(np.min(np.abs(det)))
        if not abs(got - want) <= 1e-9 * want + 1e-15:
            bad.append(f"luzin {algo} alpha={a}: min |det| {got!r}, closed form {want!r}")
        for i in np.flatnonzero(np.abs(det) < report["threshold"]):
            want_flags.add((a, int(i)))
        for (fa, i), fd in flagged.items():
            if fa == a and not abs(abs(fd) - abs(det[i])) <= 1e-12 + 1e-9 * abs(det[i]):
                bad.append(f"luzin {algo} alpha={a}: flagged det {fd!r} at {i}, closed form {det[i]!r}")
                break
    if set(flagged) != want_flags:
        bad.append(f"luzin {algo}: flagged {len(flagged)} pairs, closed form flags {len(want_flags)}")
    return bad


# --- trajectories ----------------------------------------------------------------------------


def _double_well_grad(X):
    return np.stack([X[:, 0] ** 3 - X[:, 0], X[:, 1]], axis=-1)


def check_trajectory(ks: np.ndarray, X: np.ndarray, algo: str, spec: tuple, steps: int) -> list:
    """Consecutive stored iterates against the update equations."""
    tag = f"trajectory {algo}"
    bad = []
    if int(ks[-1]) != steps:
        bad.append(f"{tag}: stopped after {int(ks[-1])} of {steps} steps")
    if not np.all(np.isfinite(X)):
        return bad + [f"{tag}: non-finite iterate"]
    j = np.flatnonzero(np.diff(ks) == 1)
    if len(j) < min(steps, 1000):
        return bad + [f"{tag}: only {len(j)} consecutive stored pairs"]
    a = alphas(spec, steps + 1)[ks[j]][:, None]
    x, x1 = X[j], X[j + 1]
    if algo == "gd":
        err = np.abs(x1 - (x - a * _double_well_grad(x))) / (1.0 + np.abs(x))
        if not float(np.max(err)) <= 1e-12:
            bad.append(f"{tag}: x_(k+1) != x_k - alpha_k grad f(x_k) (error {float(np.max(err)):.3e})")
    elif algo == "pp":
        err = np.abs(x1 + a * _double_well_grad(x1) - x)
        if not float(np.max(err)) <= 1e-10:
            bad.append(f"{tag}: x_(k+1) + alpha_k grad f(x_(k+1)) != x_k (error {float(np.max(err)):.3e})")
    else:
        norm_err = float(np.max(np.abs(np.linalg.norm(X, axis=1) - 1.0)))
        if not norm_err <= 1e-12:
            bad.append(f"{tag}: iterate off the unit sphere by {norm_err:.3e}")
        s = np.sum(x * x * RAYLEIGH, axis=1, keepdims=True)
        w = x - a * (x * RAYLEIGH - s * x)
        err = float(np.max(np.abs(x1 - w / np.linalg.norm(w, axis=1, keepdims=True))))
        if not err <= 1e-12:
            bad.append(f"{tag}: x_(k+1) != R_x(-alpha_k grad f(x_k)) (error {err:.3e})")
    return bad
