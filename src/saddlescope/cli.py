"""Batch experiment runner.

Subcommands: certify (NPH certificates), graphs (graph-transform chains
and lemma verification), avoid (Monte Carlo saddle avoidance), luzin
(Jacobian rank scans), evolve (single trajectories as CSV).  Exit codes:
0 success, 1 configuration error, 2 certificate/verifier failure,
3 avoidance violation.  Subcommands raise, and main alone maps what
they raise to an exit code and a one-line message.  Outputs land under
--output DIR in certs/, graphs/, avoid/, luzin/, evolve/.  Every
subcommand runs in one process.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import avoidance, graphtransform, phcert, synthetic, testfns
from .dynsys import STOP_TOL, Splitting, run_trajectory
from .graphtransform import (
    GraphFunction,
    IncompatibleSplitting,
    NoContraction,
    compose_phi,
    function_norm,
    graph_transform,
    verify_graph_invariance,
    verify_potential_growth,
)
from .optimizers import pullback_hessian
from .phcert import (
    CertificateFailure,
    NotAdmissible,
    RadiusNotFound,
    Schedule,
    SpectralData,
    build_gd_certificate,
    build_pp_certificate,
)
from .testfns import STRICT_SADDLE

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CERT = 2
EXIT_AVOID = 3


class ConfigError(Exception):
    pass


_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a vector such as -1,0.5 is a value, not an option
        self._negative_number_matcher = re.compile(rf"^-{_NUMBER}(?:,[-+]?{_NUMBER})*$")

    # argparse exits 2 on bad flags by default; the contract is exit 1
    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def parse_schedule(spec: str) -> Schedule:
    """Shell-friendly schedule syntax:
    const:a0 | poly:gamma:a0 | cos:gamma:T:a0 | list:@file."""
    parts = spec.split(":")
    try:
        if parts[0] == "const" and len(parts) == 2:
            return phcert.constant_schedule(float(parts[1]))
        if parts[0] == "poly" and len(parts) == 3:
            return phcert.polynomial_schedule(float(parts[2]), float(parts[1]))
        if parts[0] == "cos" and len(parts) == 4:
            return phcert.cosine_schedule(
                float(parts[3]), float(parts[1]), int(parts[2])
            )
        if parts[0] == "list" and len(parts) == 2 and parts[1].startswith("@"):
            values = [
                float(tok)
                for tok in Path(parts[1][1:]).read_text().split()
            ]
            return phcert.explicit_schedule(values)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad schedule {spec!r}: {exc}") from exc
    raise ConfigError(f"bad schedule syntax {spec!r}")


def parse_vector(spec: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in spec.split(",")], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"bad vector {spec!r}") from exc


def _outdir(args, sub: str):
    if args.output is None:
        return None
    path = Path(args.output) / sub
    path.mkdir(parents=True, exist_ok=True)
    return path


def _emit(text: str, path) -> None:
    print(text)
    if path is not None:
        path.write_text(text + ("\n" if not text.endswith("\n") else ""))


def _get_entry(key: str) -> testfns.CataloguedObjective:
    try:
        return testfns.get(key)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc


def saddle_certificates(entry, algorithm: str, schedule: Schedule, L=None, box=2.0):
    """Build one certificate per catalogued strict saddle.

    Certificate radii bound the Hessian modulus on a ball about the
    chart origin, so each saddle gets a chart centred at it: the
    sphere's exponential-chart pullback, with the box capped at |v| <= 1,
    or the Euclidean translate.  The chart Hessian at 0 gives the
    splitting and constants.
    """
    avoidance.check_algorithm(entry, algorithm)
    phcert.check_box(box)  # before the sphere's cap can hide a bad box
    saddles = [
        cp for cp in entry.critical_points if cp.classification == STRICT_SADDLE
    ]
    if not saddles:
        raise ConfigError(f"{entry.key} has no catalogued strict saddles")
    if algorithm == "pp":
        L = L if L is not None else entry.objective.lipschitz_L
        if L is None:
            raise ConfigError("pp certification needs --L")
    results = []
    for cp in saddles:
        point = cp.sample(np.array(0.0)) if hasattr(cp, "sample") else cp.point
        if entry.is_sphere:
            hess = pullback_hessian(entry.objective, point)
            chart_dim, chart_box = entry.dim - 1, min(box, 1.0)
        else:
            hess = lambda X: entry.objective.hess(X + point)
            chart_dim, chart_box = entry.dim, box
        spectral = SpectralData.from_hessian(hess(np.zeros(chart_dim)))
        if algorithm == "pp":
            cert = build_pp_certificate(spectral, schedule, L, hessian=hess, box=chart_box)
        else:
            cert = build_gd_certificate(spectral, schedule, hess, box=chart_box)
        results.append((point, cert))
    return results


# --- subcommands ---------------------------------------------------------------


def cmd_certify(args) -> int:
    entry = _get_entry(args.objective)
    schedule = parse_schedule(args.schedule)
    certs = saddle_certificates(entry, args.algo, schedule, L=args.L, box=args.box)
    payload = {
        "objective": entry.key,
        "algorithm": args.algo,
        "schedule": schedule.describe(),
        "certificates": [
            {"saddle": point.tolist(), **json.loads(cert.to_json())}
            for point, cert in certs
        ],
    }
    out = _outdir(args, "certs")
    _emit(
        json.dumps(payload, sort_keys=True, indent=2),
        out / f"{entry.key}_{args.algo}.json" if out else None,
    )
    return EXIT_OK


_CHAINS = ("linear", "perturbed", "mismatched")


def _preset_chain(name: str, horizon: int):
    if name == "linear":
        return [synthetic.split_diagonal_pair() for _ in range(horizon)]
    if name == "perturbed":
        pair = synthetic.perturbed_quadratic_pair(eps=0.08)
        return [pair] * horizon
    if name == "mismatched":
        good = synthetic.split_diagonal_pair()
        sp = Splitting([np.array([0.0, 1.0])], [np.array([1.0, 0.0])])
        bad = graphtransform.PHPair(sp, [[1.0]], [[2.0]], mu=2.0, lam=1.0, eps=0.1)
        return [good, bad] * max(horizon // 2, 1)
    raise ConfigError(f"unknown chain {name!r}; have {_CHAINS}")


def cmd_graphs(args) -> int:
    if np.isnan(args.max_residual):  # every comparison with NaN is False
        raise ConfigError("max_residual must not be NaN")
    chain_spec = _preset_chain(args.chain, args.horizon)
    out = _outdir(args, "graphs")
    chain = compose_phi(chain_spec, tol=args.tol, radius=args.radius, delta=args.delta)

    if out:
        for j, phi in enumerate(chain):
            (out / f"phi_{j:03d}.json").write_text(phi.to_json())

    residuals = []
    for j in range(len(chain) - 1):
        residuals.append(
            verify_graph_invariance(
                chain_spec[j],
                chain[j],
                chain[j + 1],
                samples=args.samples,
                tol=args.tol,
                seed=args.seed,
            )
        )
    growth = verify_potential_growth(
        chain_spec[0], chain[0], samples=args.samples, tol=args.tol, seed=args.seed
    )
    pair = chain_spec[0]
    rng = np.random.default_rng(args.seed)
    probe = synthetic.random_f1_graph(
        rng, pair.m, pair.n, radius=args.radius, delta=args.delta
    )
    zero = GraphFunction.zero(pair.m, pair.n, args.radius, args.delta)
    gp = graph_transform(pair, probe, args.tol)
    gz = graph_transform(pair, zero, args.tol)
    den = function_norm(probe.like(probe.values - zero.values))
    ratio = function_norm(gp.like(gp.values - gz.values)) / den
    contraction_ok = ratio <= pair.gamma_lipschitz() + (2 * args.tol / args.delta) / den

    report = {
        "chain": args.chain,
        "horizon": args.horizon,
        "delta": args.delta,
        "invariance_residuals": residuals,
        "max_residual": max(residuals) if residuals else 0.0,
        "residual_budget": args.max_residual,
        "potential_growth": json.loads(growth.to_json()),
        "contraction": {
            "measured_ratio": ratio,
            "bound": pair.gamma_lipschitz(),
            "ok": bool(contraction_ok),
        },
        "final_norm": function_norm(chain[0]),
    }
    _emit(
        json.dumps(report, sort_keys=True, indent=2),
        out / "report.json" if out else None,
    )
    violated = (
        (residuals and max(residuals) > args.max_residual)
        or not growth.ok
        or not contraction_ok
    )
    return EXIT_CERT if violated else EXIT_OK


def cmd_avoid(args) -> int:
    entry = _get_entry(args.objective)
    schedule = parse_schedule(args.schedule)
    probes = [parse_vector(p) for p in args.init_on or []]
    report = avoidance.monte_carlo_avoidance(
        args.objective,
        args.algo,
        schedule,
        trials=args.trials,
        seed=args.seed,
        box=args.box,
        max_steps=args.max_steps,
        probes=probes,
    )
    out = _outdir(args, "avoid")
    stem = f"{entry.key}_{args.algo}_{schedule.family}"
    _emit(report.to_json(), out / f"{stem}.json" if out else None)
    if out:
        (out / f"{stem}.csv").write_text(report.to_csv())
    if report.saddle_hits:
        print(
            f"avoidance violated: {len(report.saddle_hits)} random trial(s) "
            "converged to a strict saddle",
            file=sys.stderr,
        )
        return EXIT_AVOID
    return EXIT_OK


def cmd_luzin(args) -> int:
    _get_entry(args.objective)
    report = avoidance.luzin_scan(
        args.objective,
        args.algo,
        [float(tok) for tok in args.alpha_grid.split(",")],
        x_samples=args.samples,
        seed=args.seed,
        box=args.box,
    )
    out = _outdir(args, "luzin")
    _emit(
        report.to_json(), out / f"{args.objective}_{args.algo}.json" if out else None
    )
    return EXIT_OK


def cmd_evolve(args) -> int:
    entry = _get_entry(args.objective)
    schedule = parse_schedule(args.schedule)
    x0 = avoidance.check_start(entry, parse_vector(args.init), "init")
    system = avoidance.build_system(entry, args.algo, schedule)
    record = run_trajectory(
        system, x0, max_steps=args.steps, stop_tol=STOP_TOL, store_cap=args.steps
    )
    lines = ["k," + ",".join(f"x_{j}" for j in range(entry.dim))]
    # one template per row; %.17g prints the digits format(v, ".17g") does
    row = "%d" + ",%.17g" * entry.dim
    lines += [
        row % (k, *x.tolist()) for k, x in zip(record.step_indices.tolist(), record.iterates)
    ]
    lines.append(
        f"# classification={avoidance.classify_limit(record, entry)} "
        f"steps={record.steps_taken}"
    )
    text = "\n".join(lines)
    out = _outdir(args, "evolve")
    _emit(text, out / f"{entry.key}_{args.algo}.csv" if out else None)
    return EXIT_OK


# --- entry point -----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="saddlescope", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", default=None, help="output directory")

    p = sub.add_parser("certify", parents=[], help="build NPH certificates")
    p.add_argument("--objective", required=True)
    p.add_argument("--algo", required=True, choices=avoidance.ALGORITHMS)
    p.add_argument("--schedule", required=True)
    p.add_argument("--L", type=float, default=None)
    p.add_argument("--box", type=float, default=2.0)
    common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("graphs", help="graph-transform chains and verification")
    p.add_argument("--chain", default="linear", choices=_CHAINS)
    p.add_argument("--horizon", type=int, default=10)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=1.0 / 128.0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-residual", type=float, default=1e-4)
    common(p)
    p.set_defaults(func=cmd_graphs)

    p = sub.add_parser("avoid", help="Monte Carlo saddle avoidance")
    p.add_argument("--objective", required=True)
    p.add_argument("--algo", required=True, choices=avoidance.ALGORITHMS)
    p.add_argument("--schedule", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--box", type=float, default=avoidance.DEFAULT_BOX)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument(
        "--init-on",
        action="append",
        metavar="X0",
        help="extra probe initialization 'x,y,...' (repeatable; never fails the run)",
    )
    common(p)
    p.set_defaults(func=cmd_avoid)

    p = sub.add_parser("luzin", help="Jacobian determinant scan")
    p.add_argument("--objective", required=True)
    p.add_argument("--algo", required=True, choices=avoidance.ALGORITHMS)
    p.add_argument("--alpha-grid", required=True, help="comma-separated step sizes")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--box", type=float, default=avoidance.DEFAULT_BOX)
    common(p)
    p.set_defaults(func=cmd_luzin)

    p = sub.add_parser("evolve", help="stream one trajectory as CSV")
    p.add_argument("--objective", required=True)
    p.add_argument("--algo", required=True, choices=avoidance.ALGORITHMS)
    p.add_argument("--schedule", required=True)
    p.add_argument("--init", required=True, help="initial point 'x,y,...'")
    p.add_argument("--steps", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_evolve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IncompatibleSplitting as exc:  # a ValueError, named for the chain it rejects
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CertificateFailure, NotAdmissible, NoContraction, RadiusNotFound) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CERT


if __name__ == "__main__":
    sys.exit(main())
