"""The four benchmark workloads.

Each workload builds its inputs from the run seed, runs one round of
operations through the public saddlescope functions and the in-process
CLI, and checks a round's outputs.  A round is always the same list of
operations, so the share of failed operations is the same in every run.

Sizes are chosen so that one layer does most of each workload's work
(see README.md for the table of which metric should move where).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import checks

perf_counter = time.perf_counter

@dataclass
class Op:
    name: str
    seconds: float
    output: object = None
    error: str = ""


@dataclass
class Outcome:
    failed: list = field(default_factory=list)  # (op name, reason)
    wrong: list = field(default_factory=list)  # problems in outputs of ops that did not fail


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def schedule(spec: tuple):
    from saddlescope import phcert

    family, a0, gamma, T = spec
    if family == "const":
        return phcert.constant_schedule(a0)
    if family == "poly":
        return phcert.polynomial_schedule(a0, gamma)
    return phcert.cosine_schedule(a0, gamma, T)


def spec_text(spec: tuple) -> str:
    family, a0, gamma, T = spec
    if family == "const":
        return f"const:{a0!r}"
    if family == "poly":
        return f"poly:{gamma!r}:{a0!r}"
    return f"cos:{gamma!r}:{T}:{a0!r}"


def run_cli(argv: list):
    from saddlescope import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
    return h.hexdigest()


# --- Monte Carlo workloads ----------------------------------------------------------

PROBE = (0.0, 0.5)  # on the stable axis x = 0 of double_well


class MonteCarlo:
    """Cells through avoidance.run_matrix, then report serialization."""

    def __init__(self, seed: int, cells: list, extra_cell=None):
        self.cells = cells
        self.extra_cell = extra_cell
        for i, c in enumerate(cells + ([extra_cell] if extra_cell else [])):
            c["seed"] = 1000 * seed + i
        self.workers = min(nproc(), len(cells))
        self.kwargs = [self._kwargs(c) for c in cells]
        self.extra_kwargs = self._kwargs(extra_cell) if extra_cell else None

    @staticmethod
    def _kwargs(c: dict) -> dict:
        kw = dict(
            objective_key=c["key"],
            algorithm=c["algo"],
            schedule=c["schedule"],
            trials=c["trials"],
            seed=c["seed"],
            max_steps=c["max_steps"],
        )
        if c.get("probes"):
            kw["probes"] = [np.array(p) for p in c["probes"]]
        return kw

    def run_round(self) -> list:
        from saddlescope import avoidance

        try:
            reports = avoidance.run_matrix(self.kwargs, threads=self.workers)
            ops = [Op(c["name"], r.bench_cell_s, (r, r.to_json(), r.to_csv())) for c, r in zip(self.cells, reports)]
        except Exception as exc:  # a crash in one cell loses the whole matrix
            ops = [Op(c["name"], 0.0, error=f"{type(exc).__name__}: {exc}") for c in self.cells]
        if self.extra_kwargs is not None:
            c = self.extra_cell
            t0 = perf_counter()
            try:
                r = avoidance.run_matrix([self.extra_kwargs], threads=1)[0]
                ops.append(Op(c["name"], r.bench_cell_s, (r, r.to_json(), r.to_csv())))
            except Exception as exc:
                ops.append(Op(c["name"], perf_counter() - t0, error=f"{type(exc).__name__}: {exc}"))
        return ops

    def reports(self, ops) -> list:
        return [op.output[0] for op in ops if not op.error]

    def digest(self, ops) -> str:
        return _digest(*(op.output[1] + op.output[2] if not op.error else op.error for op in ops))

    def check(self, ops) -> Outcome:
        out = Outcome()
        cells = self.cells + ([self.extra_cell] if self.extra_cell else [])
        for c, op in zip(cells, ops):
            if op.error:
                out.failed.append((op.name, op.error))
                continue
            out.wrong += checks.check_report(op.output[0], c, c["mode"])
        return out


def _cell(key, algo, spec, trials, max_steps, mode, probes=()):
    return dict(
        name=f"{key}/{algo}/{spec_text(spec)}",
        key=key,
        algo=algo,
        spec=spec,
        schedule=schedule(spec),
        trials=trials,
        max_steps=max_steps,
        mode=mode,
        probes=list(probes),
    )


def mc_vanishing(seed: int) -> MonteCarlo:
    """Harmonic polynomial and cosine steps; every trial runs its whole budget."""
    cells = []
    for family in ("poly", "cos"):
        spec = (family, 0.5, 1.0, 4)
        cells += [
            _cell("saddle_line", "pp", spec, 64, 3000, "budget"),
            _cell("double_well", "gd", spec, 64, 3000, "budget", [PROBE]),
            _cell("rayleigh_sphere", "rgd", spec, 64, 3000, "budget"),
            _cell("quad_saddle", "gd", spec, 64, 3000, "budget"),
        ]
    return MonteCarlo(seed, cells)


DW_L = 26.0  # double_well's declared box-local Lipschitz surrogate


def mc_constant(seed: int) -> MonteCarlo:
    """Constant steps: the batches empty within tens to ~1300 steps, so
    per-trial set-up, classification and serialization dominate."""
    T = 3000
    const = ("const", 0.5, None, None)
    cells = [
        # PP solves a Newton system per trial-step and its trials take
        # ~1300 steps, so fewer trials keep this cell near the others
        _cell("double_well", "pp", ("const", 0.5 / DW_L, None, None), 400, 100_000, "converge", [PROBE]),
        _cell("double_well", "gd", const, T, 100_000, "converge", [PROBE]),
        _cell("rayleigh_sphere", "rgd", const, T, 100_000, "converge"),
        _cell("quad_saddle", "gd", const, T, 100_000, "diverge"),
        _cell("quad_saddle", "pp", const, T, 100_000, "diverge"),
        _cell("saddle_line", "gd", const, T, 100_000, "diverge"),
        _cell("saddle_line", "pp", const, T, 100_000, "diverge"),
        _cell("quad_1d", "gd", const, T, 100_000, "converge"),
        _cell("quad_1d", "pp", const, T, 100_000, "converge"),
    ]
    # An explicit list the validators accept; the engine asks for
    # alpha_1200 and the whole cell is lost (counted as failed).
    from saddlescope import phcert

    explicit = dict(
        name="double_well/gd/list:[1.0]*1200",
        key="double_well",
        algo="gd",
        spec=None,
        schedule=phcert.explicit_schedule([1.0] * 1200),
        trials=8,
        max_steps=100_000,
        mode="converge",
        probes=[],
    )
    return MonteCarlo(seed, cells, explicit)


# --- theory: certificates, graph transforms, Luzin scans ----------------------------


GD_CERT_SCHEDULES = [("const", 0.5, None, None), ("poly", 1.0, 1.0, None), ("cos", 0.5, 1.0, 4)]
LEMMA_SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2))
LEMMA_DELTA, LEMMA_TOL = 1.0 / 128.0, 1e-8
LEMMA_SEED = 2024
LUZIN = (
    ("gd", "double_well", "0.25,0.5,1.0", 2000),
    ("pp", "saddle_line", "0.1,0.5,0.9", 2000),
    ("rgd", "rayleigh_sphere", "0.1,0.5,1.0", 300),
)


class Theory:
    def __init__(self, seed: int):
        self.seed = seed
        self.certs = []
        for key, L in (("quad_saddle", 1.0), ("double_well", DW_L), ("saddle_line", 1.0)):
            for algo in ("gd", "pp"):
                a0 = 0.5 / L  # PP needs sup alpha_k < 1/L
                specs = GD_CERT_SCHEDULES if algo == "gd" else [
                    ("const", a0, None, None), ("poly", a0, 1.0, None), ("cos", a0, 1.0, 4)]
                self.certs += [(key, algo, s, L) for s in specs]
        self.certs += [("rayleigh_sphere", "rgd", s, 3.0) for s in GD_CERT_SCHEDULES]
        # The lemma pairs are fixed: their cost varies several-fold from
        # pair to pair, which would make theory's timings follow the seed.
        self.lemma_seeds = [(LEMMA_SEED, i) for i in range(len(LEMMA_SHAPES))]
        self._radii = {}

    def run_round(self) -> list:
        from saddlescope.graphtransform import (
            GraphFunction,
            function_norm,
            graph_transform,
            verify_graph_invariance,
            verify_potential_growth,
        )
        from saddlescope import synthetic

        ops = []
        for key, algo, spec, L in self.certs:
            t0 = perf_counter()
            rc, text, err = run_cli(
                ["certify", "--objective", key, "--algo", algo, "--schedule", spec_text(spec)]
            )
            dt = perf_counter() - t0
            name = f"certify {key}/{algo}/{spec[0]}"
            if rc != 0:
                ops.append(Op(name, dt, error=f"exit {rc}: {err.strip()}"))
                continue
            certs = json.loads(text)["certificates"]
            ops += [Op(name, dt / len(certs), (c, key, algo, spec, L)) for c in certs]

        for (m, n), s in zip(LEMMA_SHAPES, self.lemma_seeds):
            t0 = perf_counter()
            rng = np.random.default_rng(s)
            pair = synthetic.random_ph_pair(rng, m, n)
            sink = []
            zero = GraphFunction.zero(m, n, 1.0, LEMMA_DELTA)
            phi_k1 = graph_transform(pair, zero, LEMMA_TOL, ratio_sink=sink)
            phi_k = graph_transform(pair, phi_k1, LEMMA_TOL, ratio_sink=sink)
            while True:
                p1 = synthetic.random_f1_graph(rng, m, n, delta=LEMMA_DELTA)
                p2 = synthetic.random_f1_graph(rng, m, n, delta=LEMMA_DELTA)
                den = function_norm(p1.like(p1.values - p2.values))
                if den >= 0.05:
                    break
            g1 = graph_transform(pair, p1, LEMMA_TOL, ratio_sink=sink)
            g2 = graph_transform(pair, p2, LEMMA_TOL, ratio_sink=sink)
            num = function_norm(g1.like(g1.values - g2.values))
            growth = verify_potential_growth(pair, phi_k1, samples=10_000, tol=LEMMA_TOL, seed=s[1])
            resid = verify_graph_invariance(pair, phi_k, phi_k1, samples=2000, tol=LEMMA_TOL, seed=s[1])
            out = dict(
                pair=pair, sink=sink, num=num, den=den, growth=growth, resid=resid,
                phi_k=phi_k, phi_k1=phi_k1, delta=LEMMA_DELTA, tol=LEMMA_TOL, seed=s,
            )
            ops.append(Op(f"lemma {m}x{n}", perf_counter() - t0, out))

        t0 = perf_counter()
        ident = GraphFunction.from_callable(lambda y: y.copy(), 1, 1)
        half = graph_transform(synthetic.split_diagonal_pair(), ident, tol=1e-12)
        ops.append(
            Op("Gamma(id)", perf_counter() - t0, (half.node_coords()[:, 0], half.nodal_values()[:, 0]))
        )

        for chain in ("linear", "perturbed"):
            t0 = perf_counter()
            rc, text, err = run_cli(["graphs", "--chain", chain, "--seed", str(self.seed)])
            ops.append(Op(f"graphs {chain}", perf_counter() - t0, (rc, text)))

        for algo, key, grid, samples in LUZIN:
            t0 = perf_counter()
            rc, text, err = run_cli(
                ["luzin", "--objective", key, "--algo", algo, "--alpha-grid", grid,
                 "--samples", str(samples), "--seed", str(self.seed)]
            )
            ops.append(Op(f"luzin {algo}", perf_counter() - t0, (rc, text)))
        return ops

    def reports(self, ops) -> list:
        return []

    def digest(self, ops) -> str:
        parts = []
        for op in ops:
            if op.error:
                parts.append(op.error)
            elif op.name.startswith(("graphs", "luzin")):
                parts.append(op.output[1])
            elif op.name.startswith("certify"):
                parts.append(json.dumps(op.output[0], sort_keys=True))
            elif op.name.startswith("lemma"):
                parts.append(op.output["phi_k"].values.tobytes())
            else:
                parts.append(op.output[1].tobytes())
        return _digest(*parts)

    def _radius(self, key, algo, spec, L):
        k = (key, algo, spec)
        if k not in self._radii:
            self._radii[k] = checks.analytic_radius(key, algo, spec, L)
        return self._radii[k]

    def check(self, ops) -> Outcome:
        out = Outcome()
        for op in ops:
            if op.error:
                out.failed.append((op.name, op.error))
            elif op.name.startswith("certify"):
                cert, key, algo, spec, L = op.output
                radius, bad = checks.check_certificate(
                    cert, key, algo, spec, self._radius(key, algo, spec, L)
                )
                out.wrong += bad
                if radius:
                    out.failed.append((op.name, radius))
            elif op.name.startswith("lemma"):
                out.wrong += checks.check_lemma_pair(op.output, op.output["seed"] + (1,))
            elif op.name == "Gamma(id)":
                out.wrong += checks.check_half_identity(*op.output)
            elif op.name.startswith("graphs"):
                rc, text = op.output
                out.wrong += checks.check_graphs(json.loads(text), rc, op.name.split()[1])
            elif op.name.startswith("luzin"):
                rc, text = op.output
                algo = op.name.split()[1]
                _, key, _, samples = next(x for x in LUZIN if x[0] == algo)
                out.wrong += checks.check_luzin(json.loads(text), rc, key, algo, self.seed, samples)
        return out


# --- trajectory: the single-row engine ----------------------------------------------

TRAJECTORIES = (
    # (algo, objective, schedule spec, run_trajectory steps, evolve steps)
    ("gd", "double_well", ("poly", 0.5, 1.0, None), 20_000, 5_000),
    ("pp", "double_well", ("poly", 0.5 / DW_L, 1.0, None), 6_000, 1_500),
    ("rgd", "rayleigh_sphere", ("poly", 0.5, 1.0, None), 12_000, 3_000),
)


class Trajectory:
    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.starts = []
        for algo, key, spec, n_run, n_evolve in TRAJECTORIES:
            if key == "rayleigh_sphere":
                x = rng.standard_normal(3)
                x = x / np.linalg.norm(x)
            else:
                x = rng.uniform(-2.0, 2.0, size=2)
            self.starts.append(x)

    def run_round(self) -> list:
        from saddlescope import avoidance, dynsys, testfns

        ops = []
        for (algo, key, spec, n_run, _), x0 in zip(TRAJECTORIES, self.starts):
            t0 = perf_counter()
            system = avoidance.build_system(testfns.get(key), algo, schedule(spec))
            rec = dynsys.run_trajectory(system, x0, max_steps=n_run, stop_tol=1e-12)
            ops.append(Op(f"run_trajectory {algo}", perf_counter() - t0, (rec.step_indices, rec.iterates)))
        for (algo, key, spec, _, n_evolve), x0 in zip(TRAJECTORIES, self.starts):
            t0 = perf_counter()
            rc, text, err = run_cli(
                ["evolve", "--objective", key, "--algo", algo, "--schedule", spec_text(spec),
                 "--init=" + ",".join(repr(float(v)) for v in x0), "--steps", str(n_evolve)]
            )
            dt = perf_counter() - t0
            if rc != 0:
                ops.append(Op(f"evolve {algo}", dt, error=f"exit {rc}: {err.strip()}"))
            else:
                ops.append(Op(f"evolve {algo}", dt, text))
        return ops

    def reports(self, ops) -> list:
        return []

    def digest(self, ops) -> str:
        return _digest(
            *(op.error or (op.output if isinstance(op.output, str) else op.output[1].tobytes()) for op in ops)
        )

    def check(self, ops) -> Outcome:
        out = Outcome()
        n = len(TRAJECTORIES)
        for i, op in enumerate(ops):
            algo, key, spec, n_run, n_evolve = TRAJECTORIES[i % n]
            if op.error:
                out.failed.append((op.name, op.error))
                continue
            if i < n:
                ks, X = op.output
                steps = n_run
            else:
                body = [ln for ln in op.output.splitlines()[1:] if not ln.startswith("#")]
                data = np.array([[float(v) for v in ln.split(",")] for ln in body])
                ks, X = data[:, 0].astype(int), data[:, 1:]
                steps = n_evolve
                if len(ks) != steps + 1:
                    out.wrong.append(f"{op.name}: {len(ks)} rows for {steps} steps")
            out.wrong += [f"{op.name}: {p}" for p in checks.check_trajectory(ks, X, algo, spec, steps)]
        return out


WORKLOADS = {
    "mc-vanishing": mc_vanishing,
    "mc-constant": mc_constant,
    "theory": Theory,
    "trajectory": Trajectory,
}
