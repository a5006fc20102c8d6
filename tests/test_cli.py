import hashlib
import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from saddlescope.avoidance import build_system
from saddlescope.cli import (
    ConfigError,
    main,
    parse_schedule,
    parse_vector,
    pullback_hessian,
    saddle_certificates,
)
from saddlescope.dynsys import STOP_TOL, run_trajectory
from saddlescope.optimizers import Objective, sphere_exp, tangent_basis
from saddlescope.testfns import get


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- schedule parsing ----------------------------------------------------------


def test_parse_schedule_forms(tmp_path):
    s = parse_schedule("const:0.3")
    assert (s.family, s.alpha0) == ("constant", 0.3)
    s = parse_schedule("poly:1:1.0")
    assert (s.family, s.gamma, s.alpha0) == ("polynomial", 1.0, 1.0)
    s = parse_schedule("cos:1:4:0.5")
    assert (s.family, s.gamma, s.T, s.alpha0) == ("cosine", 1.0, 4, 0.5)
    f = tmp_path / "steps.txt"
    f.write_text("0.5\n0.25\n0.125\n")
    s = parse_schedule(f"list:@{f}")
    assert s.values == (0.5, 0.25, 0.125)
    with pytest.raises(ConfigError):
        parse_schedule("warmup:0.1")
    with pytest.raises(ConfigError):
        parse_schedule("poly:1.0")


def test_parse_vector():
    np.testing.assert_array_equal(parse_vector("1,0.5"), [1.0, 0.5])
    with pytest.raises(ConfigError):
        parse_vector("1,x")


# --- certify --------------------------------------------------------------------


def test_certify_quad_saddle_gd(capsys, tmp_path):
    code, out, _ = run_cli(
        [
            "certify",
            "--objective",
            "quad_saddle",
            "--algo",
            "gd",
            "--schedule",
            "poly:1:1.0",
            "--output",
            str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    cert = payload["certificates"][0]
    assert cert["c"] == 1.0
    assert cert["lambda_k"] == "1"
    assert (tmp_path / "certs" / "quad_saddle_gd.json").exists()


def test_certify_double_well_gd_radius_within_analytic(capsys):
    # ||H(x) - H(0)|| = 3 x_1^2 meets the budget c/20 = 0.05 on the x_1
    # axis at r = sqrt(0.05/3); the sampled radius must not exceed it
    code, out, _ = run_cli(
        ["certify", "--objective", "double_well", "--algo", "gd", "--schedule", "const:0.5"],
        capsys,
    )
    assert code == 0
    for cert in json.loads(out)["certificates"]:
        assert cert["r"] <= math.sqrt(0.05 / 3.0) * (1.0 + 1e-12)


@pytest.mark.parametrize("objective", ["double_well", "quad_saddle", "rayleigh_sphere"])
@pytest.mark.parametrize("box", ["0", "-1", "nan", "inf"])
def test_certify_rejects_a_bad_box(objective, box, capsys):
    # the sphere caps its box at 1, after the check
    algo = "rgd" if objective == "rayleigh_sphere" else "gd"
    code, out, err = run_cli(
        ["certify", "--objective", objective, "--algo", algo, "--schedule", "const:0.5",
         f"--box={box}"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("config error: ")
    assert "Traceback" not in err


def _shifted_double_well(shift):
    entry = get("double_well")
    obj = entry.objective
    moved = Objective(
        lambda x: obj.f(np.asarray(x) - shift),
        lambda x: obj.grad(np.asarray(x) - shift),
        lambda x: obj.hess(np.asarray(x) - shift),
        dim=2,
        lipschitz_L=obj.lipschitz_L,
    )
    points = tuple(replace(cp, point=cp.point + shift) for cp in entry.critical_points)
    return replace(entry, objective=moved, critical_points=points)


@pytest.mark.parametrize("algo, spec", [("gd", "const:0.5"), ("pp", "const:0.03")])
def test_certificate_radius_is_centred_at_the_saddle(algo, spec):
    # the same double_well with its saddle moved to (0.7, 0) certifies
    # the same radius
    schedule = parse_schedule(spec)
    [(_, cert)] = saddle_certificates(get("double_well"), algo, schedule)
    [(point, moved)] = saddle_certificates(_shifted_double_well(np.array([0.7, 0.0])), algo, schedule)
    np.testing.assert_array_equal(point, [0.7, 0.0])
    assert moved.r == pytest.approx(cert.r, rel=1e-12)


def test_certify_pp_small_gamma_finishes():
    # gamma = 0.01: the sup of the steps is alpha0, found without a scan
    proc = subprocess.run(
        [sys.executable, "-m", "saddlescope.cli", "certify", "--objective", "double_well",
         "--algo", "pp", "--schedule", "poly:0.01:0.01"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", ["certify", "avoid"])
def test_cosine_small_gamma_finishes(command):
    # gamma = 0.01: alpha_k first stays below 2/h_max near k = 10^69
    extra = ["--trials", "2", "--max-steps", "10"] if command == "avoid" else []
    proc = subprocess.run(
        [sys.executable, "-m", "saddlescope.cli", command, "--objective", "double_well",
         "--algo", "gd", "--schedule", "cos:0.01:4:5.0"] + extra,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_certify_pp_step_too_large(capsys):
    # alpha_0 = 0.9 >= 1/L = 0.5 violates the step-size precondition
    code, _, err = run_cli(
        [
            "certify",
            "--objective",
            "quad_saddle",
            "--algo",
            "pp",
            "--schedule",
            "const:0.9",
            "--L",
            "2",
        ],
        capsys,
    )
    assert code == 2
    assert "StepTooLarge" in err


def test_certify_pp_alpha_below_inverse_L_is_legal(capsys):
    # 0.9 < 1/L = 1: the certificate exists (mu_k = 10, eps_k = 0.18)
    code, out, _ = run_cli(
        [
            "certify",
            "--objective",
            "quad_saddle",
            "--algo",
            "pp",
            "--schedule",
            "const:0.9",
            "--L",
            "1",
        ],
        capsys,
    )
    assert code == 0


def test_certify_unknown_objective(capsys):
    code, _, err = run_cli(
        [
            "certify",
            "--objective",
            "nope",
            "--algo",
            "gd",
            "--schedule",
            "const:0.1",
        ],
        capsys,
    )
    assert code == 1


def test_certify_pp_quad_saddle_values(capsys):
    code, out, _ = run_cli(
        [
            "certify",
            "--objective",
            "quad_saddle",
            "--algo",
            "pp",
            "--schedule",
            "const:0.5",
            "--L",
            "1",
        ],
        capsys,
    )
    assert code == 0
    cert = json.loads(out)["certificates"][0]
    assert cert["mu_k"] == "1/(1 + alpha_k*(-1))"
    assert cert["eps_k"] == "0.2*alpha_k"


def test_certify_rgd_rayleigh(capsys):
    code, out, _ = run_cli(
        [
            "certify",
            "--objective",
            "rayleigh_sphere",
            "--algo",
            "rgd",
            "--schedule",
            "poly:1:0.5",
        ],
        capsys,
    )
    assert code == 0
    certs = json.loads(out)["certificates"]
    assert len(certs) == 2  # +e2 and -e2
    assert all(c["c"] == pytest.approx(1.0, rel=1e-4) for c in certs)


@pytest.mark.parametrize("spec", ["const:0.5", "poly:1:1.0", "cos:1:4:0.5"])
def test_certify_rayleigh_radius_is_analytic(spec, capsys):
    # on the chart about +-e2 the modulus ||H(v) - H(0)|| meets the budget
    # c/20 = 0.05 at |v| = asin(sqrt(0.025)); the radius must not exceed it
    code, out, _ = run_cli(
        ["certify", "--objective", "rayleigh_sphere", "--algo", "rgd", "--schedule", spec],
        capsys,
    )
    assert code == 0
    analytic = math.asin(math.sqrt(0.025))
    certs = json.loads(out)["certificates"]
    assert len(certs) == 2
    for cert in certs:
        assert cert["r"] == pytest.approx(analytic, rel=1e-12)
        assert cert["r"] <= analytic * (1.0 + 1e-12)


# sha256 of `certify` stdout for every catalogued strict saddle x algorithm
# under a constant, a harmonic and a cosine schedule (pp at alpha0 = 0.5/L),
# plus an explicit --L and a gamma = 1/2 case: a change to the splitting,
# the constants, the radius or the serialization shows here
_DW = "0.019230769230769232"  # 0.5 / 26, double_well's pp step
CERTIFY_DIGESTS = [
    ("quad_saddle", "gd", "const:0.5", (),
     "b5b1b12099872e7fbcea9e5e031ec2e0bd3503ce413e403dab9184ca536ad300"),
    ("quad_saddle", "gd", "poly:1:1.0", (),
     "14333f7fa5aa663319d8cb6973303f0274418459984f3f53174bdb7560e18b13"),
    ("quad_saddle", "gd", "cos:1:4:0.5", (),
     "0cccb3709b5c10c437baf648a92e5144d045d70851dfa7e699b3a0613dbedca6"),
    ("quad_saddle", "pp", "const:0.5", (),
     "2e13dace1254fbe748b9903c6f98f70af61a28192a4da1b9678c3bfc6fbf93ee"),
    ("quad_saddle", "pp", "poly:1:0.5", (),
     "213c249be96d904bebec543489119e6a01d94719c488eb1bb5e693de11d91283"),
    ("quad_saddle", "pp", "cos:1:4:0.5", (),
     "6eeda4a96713f0de8afa6cc0d8fa49da3b810dae4d8d13a85b5df81f4dbabcde"),
    ("double_well", "gd", "const:0.5", (),
     "171aea6545b0415531b4e817460b254074debcfefdb66e81e9d518ad16a2708d"),
    ("double_well", "gd", "poly:1:1.0", (),
     "d9a81259b24c8c39cf166ad35d7b339f34f39e914a0b04d476563e37565b3651"),
    ("double_well", "gd", "cos:1:4:0.5", (),
     "465a1af945f0da8e8325d25a4d009a0087ec9efc243d5e21addc67f6692e467c"),
    ("double_well", "pp", f"const:{_DW}", (),
     "3a67bf5ca1802615af2301de21ad0ddfe719306238c97c718229335c13ab5912"),
    ("double_well", "pp", f"poly:1:{_DW}", (),
     "b672d1267c737018a13ad23bd6a9893ac4257f104e93e22e5652c32d89da2d93"),
    ("double_well", "pp", f"cos:1:4:{_DW}", (),
     "6540279f55a7a8befd1f194e755e8883fc9ff9cafc6f4f72fe702ff5da564b04"),
    ("saddle_line", "gd", "const:0.5", (),
     "c41110b3a850de6cb4c45c40c32f77ee0047748c964b1325454f946eb049032d"),
    ("saddle_line", "gd", "poly:1:1.0", (),
     "b25866a9e23fff994cc8f8d2670c9bec73239910905868fec677751b6249070f"),
    ("saddle_line", "gd", "cos:1:4:0.5", (),
     "458eb98b440bbcff1b04ebec71d39738d94ba7bd0dd970d08f6f8c60c23811ef"),
    ("saddle_line", "pp", "const:0.5", (),
     "a8319d30a4ea8dd3abbb3cd8ef5824d54c4683fcae13f152d3ee684be8ceb12e"),
    ("saddle_line", "pp", "poly:1:0.5", (),
     "e59a7a97a491667898c8d37b136c076081ac901e3a7479445823a6aefe5c0e12"),
    ("saddle_line", "pp", "cos:1:4:0.5", (),
     "4a140b229f709b9ddff1566dfb3bc1a2d2d5180e2fe4382e9a9099af9c19ce8b"),
    ("rayleigh_sphere", "rgd", "const:0.5", (),
     "b94c30a07ce344dd5e244f689225367546a1d0c10847afecee05e0f9f5e6941b"),
    ("rayleigh_sphere", "rgd", "poly:1:1.0", (),
     "2444c818c1861c601acf967d7a564812c3b627a771c43304ef102bd15e9b85eb"),
    ("rayleigh_sphere", "rgd", "cos:1:4:0.5", (),
     "6050a08b0a268fc5beadaba5d749f56f644b5fec545b033f4c33bd327b07467e"),
    ("quad_saddle", "pp", "const:0.5", ("--L", "1"),
     "2e13dace1254fbe748b9903c6f98f70af61a28192a4da1b9678c3bfc6fbf93ee"),
    ("quad_saddle", "pp", "const:0.5", ("--L", "1.5"),
     "781b7b1c20087b69317583bc7ebe3d1f2b7b54cadf6bbd8ba12f50c149a83053"),
    ("double_well", "gd", "poly:0.5:0.5", (),
     "9696a547d117f6f17e9c632e8c8e369e1ddf41e5ec5abacc7990cb0afa7aa680"),
]


@pytest.mark.parametrize("key, algo, spec, extra, digest", CERTIFY_DIGESTS)
def test_certify_bytes_are_pinned(key, algo, spec, extra, digest, capsys):
    code, out, _ = run_cli(
        ["certify", "--objective", key, "--algo", algo, "--schedule", spec, *extra], capsys
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_runs_load_no_scipy():
    # certificate radii and globalize's Lipschitz checks draw their Sobol
    # points from numpy, so no command imports scipy
    runs = [
        ["certify", "--objective", "rayleigh_sphere", "--algo", "rgd", "--schedule", "const:0.5"],
        ["certify", "--objective", "double_well", "--algo", "pp", "--schedule", f"const:{_DW}"],
        ["graphs", "--chain", "perturbed"],
    ]
    code = f"""
import contextlib, io, sys
import saddlescope
from saddlescope.cli import main
for args in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == 0, args
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def _central_hessian(f, v, h=1e-4):
    k = v.size
    E = h * np.eye(k)
    return np.array(
        [
            [
                (f(v + E[i] + E[j]) - f(v + E[i] - E[j]) - f(v - E[i] + E[j]) + f(v - E[i] - E[j]))
                / (4.0 * h * h)
                for j in range(k)
            ]
            for i in range(k)
        ]
    )


def _riemannian_hessian(objective, x):
    """Q^T (H - (x . grad f) I) Q: the sphere's Riemannian Hessian at x."""
    Q = tangent_basis(x)
    s = x @ objective.ambient.grad(x)
    return Q.T @ (objective.ambient.hess(x) - s * np.eye(x.size)) @ Q


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_pullback_hessian_is_exact(sign):
    objective = get("rayleigh_sphere").objective
    base = np.array([0.0, sign, 0.0])
    hess = pullback_hessian(objective, base)
    # at v = 0 the exponential-chart pullback has the Riemannian Hessian,
    # at the saddle and at off-axis points, which are not critical
    X = sign * np.random.default_rng(3).standard_normal((20, 3))
    X /= np.linalg.norm(X, axis=-1, keepdims=True)
    for x in [base, *X]:
        np.testing.assert_allclose(
            pullback_hessian(objective, x)(np.zeros(2)),
            _riemannian_hessian(objective, x),
            rtol=0,
            atol=1e-12,
        )
    Q = tangent_basis(base)
    f = lambda v: objective.f(sphere_exp(base, v @ Q.T))
    rng = np.random.default_rng(7)
    V = rng.uniform(-1.0, 1.0, size=(64, 2))
    V = V[np.linalg.norm(V, axis=-1) <= 1.0]
    H = hess(V)
    assert H.shape == (len(V), 2, 2)
    np.testing.assert_allclose(H, np.swapaxes(H, -1, -2), rtol=0, atol=1e-14)
    for v, Hv in zip(V, H):
        np.testing.assert_allclose(Hv, _central_hessian(f, v), rtol=0, atol=1e-6)
        np.testing.assert_allclose(hess(v), Hv, rtol=0, atol=1e-15)
    # past |v| = 1 the series gives way to the closed forms
    far = rng.uniform(-2.0, 2.0, size=(8, 2))
    far = far[np.linalg.norm(far, axis=-1) > 1.0]
    for v, Hv in zip(far, hess(far)):
        np.testing.assert_allclose(Hv, _central_hessian(f, v), rtol=0, atol=1e-6)


# --- graphs ---------------------------------------------------------------------


def test_graphs_linear_chain(capsys, tmp_path):
    code, out, _ = run_cli(
        [
            "graphs",
            "--chain",
            "linear",
            "--horizon",
            "10",
            "--delta",
            "0.015625",
            "--samples",
            "200",
            "--output",
            str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["max_residual"] == 0.0
    assert report["final_norm"] == 0.0
    dumps = sorted((tmp_path / "graphs").glob("phi_*.json"))
    assert len(dumps) == 10
    lattice = json.loads(dumps[0].read_text())
    assert all(v == [0.0] for v in lattice["values"])


def test_graphs_perturbed_chain(capsys):
    code, out, _ = run_cli(
        ["graphs", "--chain", "perturbed", "--horizon", "6", "--samples", "500"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["max_residual"] <= 1e-4
    assert report["potential_growth"]["violations"] == []
    assert report["contraction"]["ok"]


@pytest.mark.parametrize("budget, code", [("-1", 2), ("inf", 0)])
def test_graphs_residual_budget_is_compared(budget, code, capsys):
    argv = ["graphs", "--chain", "perturbed", "--horizon", "2", "--samples", "100"]
    got, out, _ = run_cli([*argv, f"--max-residual={budget}"], capsys)
    assert got == code
    assert json.loads(out)["residual_budget"] == float(budget)


def test_graphs_mismatched_exits_one(capsys):
    code, _, err = run_cli(
        ["graphs", "--chain", "mismatched", "--horizon", "4"], capsys
    )
    assert code == 1
    assert "IncompatibleSplitting" in err


# --- avoid ----------------------------------------------------------------------


def test_avoid_small_run(capsys, tmp_path):
    code, out, _ = run_cli(
        [
            "avoid",
            "--objective",
            "double_well",
            "--algo",
            "gd",
            "--schedule",
            "const:0.5",
            "--trials",
            "16",
            "--seed",
            "42",
            "--max-steps",
            "2000",
            "--init-on",
            "0,0.5",
            "--output",
            str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["saddle_hits"] == []
    assert (
        report["stable_set_probe"][0]["classification"] == "converged_strict_saddle"
    )
    assert (tmp_path / "avoid" / "double_well_gd_constant.csv").exists()


def test_avoid_probe_dimension_config_error(capsys):
    code, out, err = run_cli(
        [
            "avoid",
            "--objective",
            "double_well",
            "--algo",
            "gd",
            "--schedule",
            "const:0.5",
            "--trials",
            "4",
            "--init-on",
            "0,0.5,1",
        ],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert "shape (3,)" in err and "needs dimension 2" in err


def test_avoid_zero_trials_config_error(capsys):
    code, _, err = run_cli(
        [
            "avoid",
            "--objective",
            "double_well",
            "--algo",
            "gd",
            "--schedule",
            "const:0.5",
            "--trials",
            "0",
        ],
        capsys,
    )
    assert code == 1
    assert err == "config error: trials must be >= 1\n"


# --- luzin ----------------------------------------------------------------------


def test_luzin_1d(capsys):
    code, out, _ = run_cli(
        [
            "luzin",
            "--objective",
            "quad_1d",
            "--algo",
            "gd",
            "--alpha-grid",
            "0.5,1.0,1.5",
            "--samples",
            "50",
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert sorted({f["alpha"] for f in report["flagged"]}) == [1.0]


@pytest.mark.parametrize(
    "objective,algo",
    [("rayleigh_sphere", "pp"), ("rayleigh_sphere", "gd"), ("double_well", "rgd")],
)
def test_luzin_mismatched_objective_exits_one(objective, algo, capsys):
    _assert_mismatch_is_config_error(
        ["luzin", "--objective", objective, "--algo", algo, "--alpha-grid", "0.1"], capsys
    )


@pytest.mark.parametrize(
    "objective,algo,start",
    [("rayleigh_sphere", "pp", "0,0.6,0.8"), ("rayleigh_sphere", "gd", "0,0.6,0.8"),
     ("double_well", "rgd", "0,0.5")],
)
@pytest.mark.parametrize("command", ["certify", "avoid", "evolve"])
def test_mismatched_objective_exits_one(command, objective, algo, start, capsys):
    # one objective/algorithm rule for every subcommand
    extra = {"certify": [], "avoid": ["--trials", "2"], "evolve": ["--init", start, "--steps", "3"]}
    _assert_mismatch_is_config_error(
        [command, "--objective", objective, "--algo", algo, "--schedule", "const:0.5",
         *extra[command]],
        capsys,
    )


def _assert_mismatch_is_config_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("config error: ") and "objective" in err
    assert "Traceback" not in err


# --- evolve ---------------------------------------------------------------------


def test_evolve_quad_saddle(capsys):
    code, out, _ = run_cli(
        [
            "evolve",
            "--objective",
            "quad_saddle",
            "--algo",
            "gd",
            "--schedule",
            "const:0.1",
            "--init",
            "1,1",
            "--steps",
            "3",
        ],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,x_0,x_1"
    rows = [list(map(float, ln.split(",")[1:])) for ln in lines[1:-1]]
    expected = [[1, 1], [0.9, 1.1], [0.81, 1.21], [0.729, 1.331]]
    np.testing.assert_allclose(rows, expected, atol=1e-12)
    assert lines[-1].startswith("# classification=")


def test_evolve_blowup_footer(capsys):
    code, out, _ = run_cli(
        [
            "evolve",
            "--objective",
            "double_well",
            "--algo",
            "gd",
            "--schedule",
            "const:10",
            "--init",
            "1.5,0",
            "--steps",
            "50",
        ],
        capsys,
    )
    assert code == 0
    assert "# classification=diverged" in out


def test_evolve_reports_catalogue_verdict(capsys):
    code, out, _ = run_cli(
        ["evolve", "--objective", "double_well", "--algo", "gd", "--schedule", "const:0.5",
         "--init=0.5,0.5", "--steps", "2000"],
        capsys,
    )
    assert code == 0
    assert out.rstrip("\n").split("\n")[-1] == "# classification=converged_minimizer steps=98"


def test_evolve_stops_like_an_avoid_probe(capsys):
    # the stable-axis probe of the avoid cell double_well/gd/const:0.5
    code, out, _ = run_cli(
        ["evolve", "--objective", "double_well", "--algo", "gd", "--schedule", "const:0.5",
         "--init=0,0.5", "--steps", "2000"],
        capsys,
    )
    assert code == 0
    assert out.rstrip("\n").split("\n")[-1] == "# classification=converged_strict_saddle steps=98"


def test_evolve_pp_step_too_large_exits_two(capsys):
    # sup alpha_k = 0.5 is not below 1/L = 1/26
    code, out, err = run_cli(
        ["evolve", "--objective", "double_well", "--algo", "pp", "--schedule", "const:0.5",
         "--init", "1,1", "--steps", "3"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("StepTooLarge: ")
    assert "Traceback" not in err


def test_evolve_negative_init(capsys):
    code, out, _ = run_cli(
        ["evolve", "--objective", "quad_saddle", "--algo", "gd", "--schedule", "const:0.1",
         "--init", "-1,0.5", "--steps", "1"],
        capsys,
    )
    assert code == 0
    assert out.split("\n")[1] == "0,-1,0.5"


@pytest.mark.parametrize(
    "key, algo, spec, init, steps",
    [
        ("double_well", "gd", "const:10", "1.5,0", 50),
        ("quad_saddle", "gd", "poly:1:0.5", "-0,1e-300", 40),
        ("rayleigh_sphere", "rgd", "const:0.5", "0.6,0,0.8", 30),
        ("double_well", "pp", "poly:1:0.01", "-1.25,0.75", 30),
    ],
)
def test_evolve_rows_match_per_float_formatting(capsys, key, algo, spec, init, steps):
    # the rows, formatted one float at a time as str(k) and f"{v:.17g}"
    entry = get(key)
    system = build_system(entry, algo, parse_schedule(spec))
    rec = run_trajectory(
        system, parse_vector(init), max_steps=steps, stop_tol=STOP_TOL, store_cap=steps
    )
    want = ["k," + ",".join(f"x_{j}" for j in range(entry.dim))] + [
        ",".join([str(int(k))] + [f"{float(v):.17g}" for v in x])
        for k, x in zip(rec.step_indices, rec.iterates)
    ]
    code, out, _ = run_cli(
        ["evolve", "--objective", key, "--algo", algo, "--schedule", spec,
         f"--init={init}", "--steps", str(steps)],
        capsys,
    )
    assert code == 0
    assert out.rstrip("\n").split("\n")[:-1] == want


def test_avoid_diverging_pp_cell_completes(capsys):
    # far from the saddle the Newton residual's rounding floor exceeds
    # the absolute inner tolerance; the trials must still end diverged
    code, out, _ = run_cli(
        ["avoid", "--objective", "quad_saddle", "--algo", "pp", "--schedule", "poly:0.5:0.5",
         "--trials", "4", "--max-steps", "3000"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["counts"]["diverged"] == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--objective", "quad_saddle", "--algo", "gd"],
        ["avoid", "--objective", "quad_saddle", "--algo", "gd", "--trials", "2", "--max-steps", "10"],
    ],
    ids=["certify", "avoid"],
)
def test_overflowing_polynomial_K_is_not_admissible(argv, capsys):
    # (3/2)^(1/0.0005) steps before alpha_k <= 2/h_max: beyond the float range
    code, out, err = run_cli(argv + ["--schedule", "poly:0.0005:3"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("NotAdmissible: poly:0.0005:3")
    assert "Traceback" not in err


# --- exit-code / strictness contract ---------------------------------------------

_QS_GD = ["--objective", "quad_saddle", "--algo", "gd"]
_AVOID = ["avoid", *_QS_GD, "--schedule", "const:0.5", "--trials", "2"]
_EVOLVE = ["evolve", *_QS_GD, "--schedule", "const:0.5", "--init", "1,1"]
_SPHERE = ["--objective", "rayleigh_sphere", "--algo", "rgd", "--schedule", "const:0.5"]
_QS_PP = ["certify", "--objective", "quad_saddle", "--algo", "pp", "--schedule", "const:0.5"]
_EMPTY_LIST = ["--schedule", "list:@/dev/null"]
_BAD_L = "L must be finite and positive"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["graphs", "--horizon", "0"], "need at least one pair"),
        (["graphs", "--delta", "0"], "delta must be positive"),
        (["graphs", "--radius", "0.3"], "radius must be an integer multiple of delta"),
        (["graphs", "--samples", "0"], "samples must be >= 1"),
        (["luzin", *_QS_GD, "--alpha-grid", "0.5", "--samples", "0"], "samples must be >= 1"),
        (["luzin", *_QS_GD, "--alpha-grid", "x"], "could not convert string to float"),
        (["luzin", *_QS_GD, "--alpha-grid", "0.5", "--box=inf"], "box must be finite and positive"),
        ([*_EVOLVE, "--steps", "0"], "max_steps must be >= 1"),
        ([*_AVOID, "--box=inf"], "box must be finite and positive"),
        ([*_AVOID, "--max-steps=-5"], "max_steps must be >= 1"),
        ([*_AVOID, "--max-steps", "0"], "max_steps must be >= 1"),
        ([*_QS_PP, "--L=nan"], _BAD_L),
        ([*_QS_PP, "--L=0"], _BAD_L),
        ([*_QS_PP, "--L=-1"], _BAD_L),
        ([*_QS_PP, "--L=inf"], _BAD_L),
        (["certify", *_QS_GD, *_EMPTY_LIST], "explicit_list schedules need values"),
        (["avoid", *_QS_GD, *_EMPTY_LIST, "--trials", "2"], "explicit_list schedules need values"),
        (["evolve", *_QS_GD, *_EMPTY_LIST, "--init", "1,1", "--steps", "3"],
         "explicit_list schedules need values"),
        (["luzin", *_SPHERE[:4], "--alpha-grid=inf", "--samples", "3"],
         "alpha0 must be finite and positive"),
        (["certify", *_QS_GD, "--schedule", "const:inf"], "alpha0 must be finite and positive"),
        (["avoid", *_QS_GD, "--schedule", "list:@STEPS_WITH_INF", "--trials", "2"],
         "explicit step sizes must be finite and positive"),
        (["graphs", "--horizon", "2", "--max-residual=nan"], "max_residual must not be NaN"),
        (["avoid", "--objective", "quad_saddle", "--algo", "pp", "--schedule", "const:0.5",
          "--trials", "2", "--init-on", "nan,0"], "probe 0 has a non-finite coordinate"),
        ([*_EVOLVE[:-1], "nan,0", "--steps", "5"], "init has a non-finite coordinate"),
        ([*_EVOLVE[:-1], "1,-inf", "--steps", "5"], "init has a non-finite coordinate"),
        (["graphs", "--tol", "0"], "tol must be positive and finite"),
        (["graphs", "--tol=-1"], "tol must be positive and finite"),
        (["graphs", "--tol", "nan"], "tol must be positive and finite"),
        (["graphs", "--radius", "inf"], "radius must be positive and finite"),
        (["graphs", "--radius", "0"], "radius must be positive and finite"),
        (["graphs", "--radius=-1"], "radius must be positive and finite"),
        (["graphs", "--delta", "inf"], "delta must be positive and finite"),
    ],
    ids=["graphs-horizon-0", "graphs-delta-0", "graphs-radius-0.3", "graphs-samples-0",
         "luzin-samples-0", "luzin-grid-x", "luzin-box-inf", "evolve-steps-0", "avoid-box-inf",
         "avoid-max-steps--5", "avoid-max-steps-0", "certify-L-nan", "certify-L-0",
         "certify-L--1", "certify-L-inf", "certify-empty-list", "avoid-empty-list",
         "evolve-empty-list", "luzin-alpha-inf", "certify-const-inf", "avoid-list-inf",
         "graphs-max-residual-nan", "avoid-pp-probe-nan", "evolve-init-nan", "evolve-init-inf",
         "graphs-tol-0", "graphs-tol--1", "graphs-tol-nan", "graphs-radius-inf", "graphs-radius-0",
         "graphs-radius--1", "graphs-delta-inf"],
)
def test_bad_numeric_arguments_are_config_errors(argv, message, capsys, tmp_path):
    steps = tmp_path / "steps.txt"
    steps.write_text("0.5 inf 0.25\n")
    argv = [a.replace("@STEPS_WITH_INF", f"@{steps}") for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("config error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", *_SPHERE, "--init", "0,0,0", "--steps", "3"],
        ["evolve", *_SPHERE, "--init", "3,0,4", "--steps", "3"],
        ["avoid", *_SPHERE, "--trials", "2", "--init-on", "0,0,0"],
        ["avoid", *_SPHERE, "--trials", "2", "--init-on", "0,2,0"],
    ],
    ids=["evolve-origin", "evolve-norm5", "avoid-origin", "avoid-norm2"],
)
def test_sphere_starts_off_the_sphere_are_config_errors(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("config error: ") and err.rstrip().endswith("needs a unit vector")


def test_unknown_flag_exits_one():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "saddlescope.cli",
            "avoid",
            "--objective",
            "double_well",
            "--algo",
            "gd",
            "--schedule",
            "const:0.5",
            "--trials",
            "2",
            "--frobnicate",
            "1",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "frobnicate" in proc.stderr


def test_unknown_short_flag_exits_one(capsys):
    # widening the negative-number rule must leave -x an (unknown) option
    with pytest.raises(SystemExit) as exc:
        main(["avoid", "--objective", "double_well", "--algo", "gd",
              "--schedule", "const:0.5", "--trials", "2", "-x", "1"])
    assert exc.value.code == 1
    assert "-x" in capsys.readouterr().err


def test_cli_rerun_byte_identical(tmp_path):
    args = [
        sys.executable,
        "-m",
        "saddlescope.cli",
        "avoid",
        "--objective",
        "quad_saddle",
        "--algo",
        "gd",
        "--schedule",
        "poly:1:0.5",
        "--trials",
        "8",
        "--seed",
        "7",
        "--max-steps",
        "500",
    ]
    a = subprocess.run(args, capture_output=True)
    b = subprocess.run(args, capture_output=True)
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0
