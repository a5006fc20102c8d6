"""In-memory span recording around calls into the saddlescope layers.

A span is (name, parent, start, end, size, extra): `parent` is the index
of the span that was open when this one started (-1 for none), `size`
and `extra` are per-call counts (rows evaluated, lattice nodes, steps
taken, iterates stored) taken from the arguments or the result.  Spans
live in flat typed arrays so that a traced round of a million calls
stays in tens of megabytes; they are written out once, when the
benchmark ends.

Tracing wraps module attributes and class attributes of the program
from the outside.  Nothing under src/ is edited.  Every rebinding of a
wrapped function inside the saddlescope package (``from .x import f``)
is replaced as well, so that internal callers are traced too.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
import time
from array import array

import numpy as np

perf_counter = time.perf_counter

GRAPH_SHAPES = ("1x1", "1x2", "2x1", "2x2")

SPAN_NAMES = (
    "bench.round",
    "avoidance._run_cell",
    "avoidance._evolve_batch",
    "avoidance.classify_limit",
    "avoidance._initial_points",
    "avoidance.validate_cell",
    "avoidance.report",
    "optimizers.map_at",
    "optimizers.gd_eval",
    "optimizers.rgd_eval",
    "optimizers.pp_eval",
    "optimizers.prox_solve",
    "testfns.grad",
    "testfns.hess",
    "testfns.nearest_critical",
    "dynsys.run_trajectory",
    "dynsys.tail",
    "phcert.step_size",
    "phcert.schedule_sup",
    "phcert.check_admissible",
    "phcert.estimate_radius",
    "phcert.estimate_radius_hess",
    "phcert.certificate",
    "phcert.sample_lipschitz",
    "phcert.globalize",
    *(f"graphtransform.graph_transform.{s}" for s in GRAPH_SHAPES),
    "graphtransform._aux_rhs",
    "graphtransform.interp",
    "graphtransform.verify",
    "synthetic.pair",
    "cli.certify",
    "cli.graphs",
    "cli.luzin",
    "cli.evolve",
    "cli.pullback_hessian",
)


def _rows(x) -> float:
    shape = np.shape(x)
    return float(math.prod(shape[:-1])) if len(shape) > 1 else 1.0


class Tracer:
    """Append-only span store with a stack of open spans."""

    def __init__(self):
        self.ids = {n: i for i, n in enumerate(SPAN_NAMES)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("d")
        self.extra = array("d")
        self.stack = [-1]

    def __len__(self) -> int:
        return len(self.name)

    def open(self, name: str, size: float = 0.0) -> int:
        i = len(self.name)
        self.name.append(self.ids[name])
        self.parent.append(self.stack[-1])
        self.size.append(size)
        self.extra.append(0.0)
        self.end.append(0.0)
        self.start.append(0.0)
        self.stack.append(i)
        self.start[i] = perf_counter()
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, size=None, result=None):
        """Return fn wrapped in a span.  `name` may be a callable of the
        arguments; `size(*args)` and `result(out) -> (size, extra)` fill
        the per-call counts."""
        fixed = None if callable(name) else name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(
                fixed or name(*args, **kwargs),
                size(*args, **kwargs) if size else 0.0,
            )
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if result is not None:
                self.size[i], self.extra[i] = result(out)
            return out

        return wrapper

    # -- moving spans between processes --------------------------------------

    def export(self, mark: int) -> tuple:
        """Spans recorded since `mark`, removed from this store."""
        out = tuple(
            arr[mark:].tobytes()
            for arr in (self.name, self.parent, self.start, self.end, self.size, self.extra)
        )
        for arr in (self.name, self.parent, self.start, self.end, self.size, self.extra):
            del arr[mark:]
        return mark, out

    def absorb(self, exported: tuple) -> None:
        """Append spans exported by `export`, re-basing their parents.

        A parent index below the exporter's mark was open when the
        exporter started; in a forked worker it is an index of this
        store, so it is kept as is.
        """
        mark, blobs = exported
        base = len(self.name)
        name, parent = array("i"), array("i")
        name.frombytes(blobs[0])
        parent.frombytes(blobs[1])
        self.name.extend(name)
        self.parent.extend(
            array("i", (p if p < mark else p - mark + base for p in parent))
        )
        for arr, blob in zip((self.start, self.end, self.size, self.extra), blobs[2:]):
            arr.frombytes(blob)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "size": np.frombuffer(self.size, dtype=np.float64).copy(),
            "extra": np.frombuffer(self.extra, dtype=np.float64).copy(),
        }

    def clear(self) -> None:
        for arr in (self.name, self.parent, self.start, self.end, self.size, self.extra):
            del arr[:]
        self.stack = [-1]


# --- the cell timer: the one wrapper that is on in untraced runs too ----------

_TRACER = None
_ORIGINAL_RUN_CELL = None


def timed_run_cell(kwargs):
    """Stand-in for avoidance._run_cell that times the cell where it runs.

    Module level, so that the worker pool can pickle it by name.  It
    attaches the cell's wall time (and, when tracing, the spans the cell
    recorded) to the report, which travels back to the parent.
    """
    tracer = _TRACER
    mark = len(tracer) if tracer is not None else 0
    i = tracer.open("avoidance._run_cell") if tracer is not None else -1
    t0 = perf_counter()
    try:
        report = _ORIGINAL_RUN_CELL(kwargs)
    finally:
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.close(i)
    report.bench_cell_s = dt
    if tracer is not None:
        report.bench_spans = tracer.export(mark)
    return report


def install_cell_timer() -> None:
    global _ORIGINAL_RUN_CELL
    from saddlescope import avoidance

    if _ORIGINAL_RUN_CELL is None:
        _ORIGINAL_RUN_CELL = avoidance._run_cell
        avoidance._run_cell = timed_run_cell


def collect_cell_spans(tracer, reports) -> None:
    for r in reports:
        spans = r.__dict__.pop("bench_spans", None)
        if spans is not None:
            tracer.absorb(spans)


# --- installing the wrappers ----------------------------------------------------


def _rebind(orig, new) -> None:
    for modname, mod in list(sys.modules.items()):
        if modname == "saddlescope" or modname.startswith("saddlescope."):
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of the loaded saddlescope package."""
    global _TRACER
    from saddlescope import (
        avoidance,
        cli,
        dynsys,
        graphtransform,
        optimizers,
        phcert,
        synthetic,
        testfns,
    )

    _TRACER = tracer
    W = tracer.wrap

    def fn(mod, attr, name, **kw):
        orig = getattr(mod, attr)
        _rebind(orig, W(name, orig, **kw))

    fn(avoidance, "_evolve_batch", "avoidance._evolve_batch")
    fn(avoidance, "classify_limit", "avoidance.classify_limit")
    fn(avoidance, "_initial_points", "avoidance._initial_points")
    fn(avoidance, "validate_cell", "avoidance.validate_cell")
    fn(optimizers, "prox_solve", "optimizers.prox_solve", size=lambda obj, a, X, *r, **k: _rows(X))
    fn(
        dynsys,
        "run_trajectory",
        "dynsys.run_trajectory",
        result=lambda rec: (float(rec.steps_taken), float(len(rec.step_indices))),
    )
    fn(phcert, "step_size", "phcert.step_size")
    fn(phcert, "schedule_sup", "phcert.schedule_sup")
    fn(phcert, "check_admissible", "phcert.check_admissible")
    fn(phcert, "build_gd_certificate", "phcert.certificate")
    fn(phcert, "build_pp_certificate", "phcert.certificate")
    fn(phcert, "sample_lipschitz", "phcert.sample_lipschitz")
    fn(phcert, "globalize", "phcert.globalize")
    fn(
        graphtransform,
        "graph_transform",
        lambda pair, phi, *a, **k: f"graphtransform.graph_transform.{phi.m}x{phi.n}",
        size=lambda pair, phi, *a, **k: float(phi.npts**phi.m),
    )
    fn(graphtransform, "_aux_rhs", "graphtransform._aux_rhs")
    fn(graphtransform, "verify_potential_growth", "graphtransform.verify")
    fn(graphtransform, "verify_graph_invariance", "graphtransform.verify")
    for attr in ("random_ph_pair", "split_diagonal_pair", "perturbed_quadratic_pair"):
        fn(synthetic, attr, "synthetic.pair")
    for attr, name in (
        ("cmd_certify", "cli.certify"),
        ("cmd_graphs", "cli.graphs"),
        ("cmd_luzin", "cli.luzin"),
        ("cmd_evolve", "cli.evolve"),
    ):
        fn(cli, attr, name)

    orig_radius = phcert.estimate_radius

    def estimate_radius(hessian, *a, **k):
        return orig_radius(W("phcert.estimate_radius_hess", hessian), *a, **k)

    _rebind(orig_radius, W("phcert.estimate_radius", estimate_radius))

    orig_pullback = cli.pullback_hessian

    def pullback_hessian(*a, **k):
        return W("cli.pullback_hessian", orig_pullback(*a, **k))

    _rebind(orig_pullback, W("cli.pullback_hessian", pullback_hessian))

    for kind in ("gd", "rgd", "pp"):
        orig_factory = getattr(optimizers, f"{kind}_system")
        _rebind(orig_factory, _system_factory(tracer, orig_factory, f"optimizers.{kind}_eval"))

    orig_get = testfns.get

    def get(key):
        entry = orig_get(key)
        obj = entry.objective
        ambient = obj.ambient if entry.is_sphere else obj
        ambient = dataclasses.replace(
            ambient,
            grad=W("testfns.grad", ambient.grad, size=_rows),
            hess=W("testfns.hess", ambient.hess, size=_rows),
        )
        obj = testfns.SphereObjective(ambient) if entry.is_sphere else ambient
        return dataclasses.replace(entry, objective=obj)

    _rebind(orig_get, get)

    for cls, attr, name, kw in (
        (dynsys.TrajectoryRecord, "tail", "dynsys.tail", {}),
        (testfns.CataloguedObjective, "nearest_critical", "testfns.nearest_critical", {}),
        (avoidance.AvoidanceReport, "to_json", "avoidance.report", {}),
        (avoidance.AvoidanceReport, "to_csv", "avoidance.report", {}),
        (
            graphtransform.GraphFunction,
            "__call__",
            "graphtransform.interp",
            {"size": lambda self, y: _rows(y) if np.ndim(y) > 1 else 1.0},
        ),
    ):
        setattr(cls, attr, W(name, getattr(cls, attr), **kw))


def _system_factory(tracer, orig, eval_name):
    from saddlescope.dynsys import NonAutonomousSystem, SystemMap

    def factory(*args, **kwargs):
        system = orig(*args, **kwargs)
        inner = system.map_at

        def map_at(k):
            i = tracer.open("optimizers.map_at")
            try:
                sm = inner(k)
                return SystemMap(
                    tracer.wrap(eval_name, sm.evaluate, size=_rows),
                    sm.jacobian,
                    sm.label,
                )
            finally:
                tracer.close(i)

        return NonAutonomousSystem(map_at, system.dimension)

    return factory


# --- per-layer metrics from the spans -------------------------------------------


def layer_metrics(spans: dict, reports: list) -> dict:
    """Derive self times, counts and ratios for every per-layer metric.

    `reports` are the round's AvoidanceReports (trial step counts and
    verdicts are read from them).  A metric whose layer did no work in
    the round reads 0.
    """
    names = SPAN_NAMES
    nid = {n: i for i, n in enumerate(names)}
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    size, extra = spans["size"], spans["extra"]
    n = len(name)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)[:n]
    self_time = dur - child_time

    def sel(key):
        return name == nid[key]

    def total(key):
        return float(dur[sel(key)].sum())

    def count(key):
        return float(np.count_nonzero(sel(key)))

    def mean(key):
        c = count(key)
        return total(key) / c if c else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def parent_is(child_key, parent_keys):
        m = sel(child_key)
        pids = parent[m]
        ok = pids >= 0
        pnames = np.full(pids.shape, -1)
        pnames[ok] = name[pids[ok]]
        return np.isin(pnames, [nid[p] for p in parent_keys])

    engine = sel("avoidance._evolve_batch")
    engine_steps = float(np.count_nonzero(parent_is("optimizers.map_at", ["avoidance._evolve_batch"])))
    prox = sel("optimizers.prox_solve")
    newton = float(np.count_nonzero(parent_is("testfns.hess", ["optimizers.prox_solve"])))
    radius_hess = count("phcert.estimate_radius_hess")
    traj = sel("dynsys.run_trajectory")
    interp = sel("graphtransform.interp")

    steps = [row[3] for r in reports for row in r.rows]
    out = {
        "avoidance.cell_s": mean("avoidance._run_cell"),
        "avoidance.engine_us_per_step": 1e6 * ratio(float(self_time[engine].sum()), engine_steps),
        "avoidance.batch_steps": engine_steps,
        "avoidance.trial_steps_median": float(np.median(steps)) if steps else 0.0,
        "avoidance.undecided_trials": float(sum(r.counts["undecided"] for r in reports)),
        "avoidance.classify_us_per_verdict": 1e6 * mean("avoidance.classify_limit"),
        "avoidance.init_points_ms": 1e3 * total("avoidance._initial_points"),
        "avoidance.report_ms": 1e3 * total("avoidance.report"),
        "avoidance.validate_cell_ms": 1e3 * total("avoidance.validate_cell"),
        "optimizers.map_at_us": 1e6 * mean("optimizers.map_at"),
    }
    for kind in ("gd", "rgd", "pp"):
        key = f"optimizers.{kind}_eval"
        out[f"optimizers.{kind}_eval_us"] = 1e6 * mean(key)
        out[f"optimizers.{kind}_rows_per_call"] = ratio(float(size[sel(key)].sum()), count(key))
    out.update(
        {
            "optimizers.prox_solve_us": 1e6 * mean("optimizers.prox_solve"),
            "optimizers.prox_newton_iters": ratio(newton, float(np.count_nonzero(prox))),
            "testfns.grad_calls": count("testfns.grad"),
            "testfns.grad_us": 1e6 * mean("testfns.grad"),
            "testfns.hess_calls": count("testfns.hess"),
            "testfns.nearest_critical_us": 1e6 * mean("testfns.nearest_critical"),
            "dynsys.run_trajectory_us_per_step": 1e6
            * ratio(float(dur[traj].sum()), float(size[traj].sum())),
            "dynsys.stored_iterates": float(extra[traj].sum()),
            "dynsys.tail_us": 1e6 * mean("dynsys.tail"),
            "phcert.step_size_calls": count("phcert.step_size"),
            "phcert.schedule_sup_ms": 1e3 * total("phcert.schedule_sup"),
            "phcert.check_admissible_ms": 1e3 * total("phcert.check_admissible"),
            "phcert.estimate_radius_ms": 1e3 * total("phcert.estimate_radius"),
            "phcert.estimate_radius_hess_calls": radius_hess,
            "phcert.certificate_ms": 1e3 * total("phcert.certificate"),
            "phcert.sample_lipschitz_ms": 1e3 * total("phcert.sample_lipschitz"),
            "phcert.globalize_ms": 1e3 * total("phcert.globalize"),
        }
    )
    for shape in GRAPH_SHAPES:
        key = f"graphtransform.graph_transform.{shape}"
        m = sel(key)
        sweeps = float(np.count_nonzero(parent_is("graphtransform._aux_rhs", [key])))
        out[f"graphtransform.transform_us_per_node.{shape}"] = 1e6 * ratio(
            float(dur[m].sum()), float(size[m].sum())
        )
        out[f"graphtransform.sweeps_per_transform.{shape}"] = ratio(sweeps, count(key))
    out.update(
        {
            "graphtransform.interp_us_per_point": 1e6
            * ratio(float(dur[interp].sum()), float(size[interp].sum())),
            "graphtransform.verify_ms": 1e3 * total("graphtransform.verify"),
            "synthetic.pair_ms": 1e3 * total("synthetic.pair"),
            "cli.certify_ms": 1e3 * total("cli.certify"),
            "cli.graphs_ms": 1e3 * total("cli.graphs"),
            "cli.luzin_ms": 1e3 * total("cli.luzin"),
            "cli.evolve_ms": 1e3 * total("cli.evolve"),
            "cli.pullback_hessian_ms": 1e3 * total("cli.pullback_hessian"),
        }
    )
    return out


LAYER_UNITS = {
    "avoidance.cell_s": "s",
    "avoidance.engine_us_per_step": "us",
    "avoidance.batch_steps": "count",
    "avoidance.trial_steps_median": "count",
    "avoidance.undecided_trials": "count",
    "avoidance.classify_us_per_verdict": "us",
    "avoidance.init_points_ms": "ms",
    "avoidance.report_ms": "ms",
    "avoidance.validate_cell_ms": "ms",
    "optimizers.map_at_us": "us",
    "optimizers.gd_eval_us": "us",
    "optimizers.gd_rows_per_call": "count",
    "optimizers.rgd_eval_us": "us",
    "optimizers.rgd_rows_per_call": "count",
    "optimizers.pp_eval_us": "us",
    "optimizers.pp_rows_per_call": "count",
    "optimizers.prox_solve_us": "us",
    "optimizers.prox_newton_iters": "count",
    "testfns.grad_calls": "count",
    "testfns.grad_us": "us",
    "testfns.hess_calls": "count",
    "testfns.nearest_critical_us": "us",
    "dynsys.run_trajectory_us_per_step": "us",
    "dynsys.stored_iterates": "count",
    "dynsys.tail_us": "us",
    "phcert.step_size_calls": "count",
    "phcert.schedule_sup_ms": "ms",
    "phcert.check_admissible_ms": "ms",
    "phcert.estimate_radius_ms": "ms",
    "phcert.estimate_radius_hess_calls": "count",
    "phcert.certificate_ms": "ms",
    "phcert.sample_lipschitz_ms": "ms",
    "phcert.globalize_ms": "ms",
    **{f"graphtransform.transform_us_per_node.{s}": "us" for s in GRAPH_SHAPES},
    **{f"graphtransform.sweeps_per_transform.{s}": "count" for s in GRAPH_SHAPES},
    "graphtransform.interp_us_per_point": "us",
    "graphtransform.verify_ms": "ms",
    "synthetic.pair_ms": "ms",
    "cli.certify_ms": "ms",
    "cli.graphs_ms": "ms",
    "cli.luzin_ms": "ms",
    "cli.evolve_ms": "ms",
    "cli.pullback_hessian_ms": "ms",
    "saddlescope.import_s": "s",
    "trace.overhead_s": "s",
}
