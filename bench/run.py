"""saddlescope benchmark: one workload per run, result as one JSON line.

    python3 bench/run.py --workload mc-vanishing --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
./src, so nothing needs installing.  With --trace 0 the last line of
standard output carries the end-to-end metrics, measured untraced; with
--trace 1 it carries the per-layer metrics of a traced run (see
README.md).  Spans of traced rounds are written to .bench_trace/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 3  # fresh interpreters timed per run, besides this one
WORKLOADS = ("mc-vanishing", "mc-constant", "theory", "trajectory")  # before the timed import

perf_counter = time.perf_counter


def die(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program() -> float:
    """Import saddlescope from ./src and return the import time."""
    if not os.path.isfile(os.path.join(SRC, "saddlescope", "__init__.py")):
        die(f"no saddlescope sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    import saddlescope

    dt = perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(saddlescope.__file__))) != SRC:
        die(f"imported saddlescope from {saddlescope.__file__}, not from {SRC}")
    return dt


def set_up(workload: str, seed: int):
    """Import the program and build the workload's inputs, timed."""
    t0 = perf_counter()
    import_s = import_program()
    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    return wl, import_s, perf_counter() - t0


def probe_setup(workload: str, seed: int) -> list:
    """Set-up timings of fresh interpreters, one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            die(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def cpu_now() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_rounds(wl, seconds: float, tracer=None):
    """Whole rounds until `seconds` have passed; at least one.

    Only the first round keeps its outputs (for the full checks); later
    rounds keep a digest, so that memory does not grow with the number
    of rounds.
    """
    import spans

    rounds = []
    t_start = perf_counter()
    while True:
        if tracer is not None:
            tracer.clear()
            root = tracer.open("bench.round")
        c0, t0 = cpu_now(), perf_counter()
        ops = wl.run_round()
        wall, cpu = perf_counter() - t0, cpu_now() - c0
        rnd = {
            "wall": wall,
            "cpu": cpu,
            "slowest": max(op.seconds for op in ops),
            "attempted": len(ops),
            "digest": wl.digest(ops),
        }
        if tracer is not None:
            tracer.close(root)
            spans.collect_cell_spans(tracer, wl.reports(ops))
            rnd["spans"] = tracer.arrays()
            rnd["layers"] = spans.layer_metrics(rnd["spans"], wl.reports(ops))
        if not rounds:
            rnd["ops"] = ops
        rounds.append(rnd)
        del ops
        if perf_counter() - t_start >= seconds:
            return rounds


def judge(wl, rounds):
    """Check the first round in full and every later round for identical
    output.  Returns (attempted, failed, problems)."""
    outcome = wl.check(rounds[0]["ops"])
    for name, why in outcome.failed:
        print(f"bench: failed operation {name}: {why}", file=sys.stderr)
    problems = list(outcome.wrong)
    if any(r["digest"] != rounds[0]["digest"] for r in rounds):
        problems.append("a round's outputs differ from the first round's (non-deterministic)")
    attempted = sum(r["attempted"] for r in rounds)
    return attempted, len(outcome.failed) * len(rounds), problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    sys.path.insert(0, HERE)
    wl, import_s, setup_s = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
        return 0
    probes = probe_setup(args.workload, args.seed)
    setup_median = statistics.median([setup_s] + [s["setup_s"] for s in probes])
    import_median = statistics.median([import_s] + [s["import_s"] for s in probes])

    import spans

    spans.install_cell_timer()
    if args.trace:
        plain = run_rounds(wl, args.seconds / 2)
        tracer = spans.Tracer()
        spans.install(tracer)
        traced = run_rounds(wl, args.seconds / 2, tracer)
        rounds = plain + traced
    else:
        rounds = run_rounds(wl, args.seconds)
    attempted, failed, problems = judge(wl, rounds)
    print("bench: rounds (wall s, cpu s, slowest op s): "
          + " ".join(f"({r['wall']:.3f}, {r['cpu']:.2f}, {r['slowest']:.3f})" for r in rounds), file=sys.stderr)
    for msg in problems:
        print(f"bench: WRONG {msg}", file=sys.stderr)

    if args.trace:
        values = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        values["saddlescope.import_s"] = import_median
        values["trace.overhead_s"] = statistics.median(r["wall"] for r in traced) - statistics.median(
            r["wall"] for r in plain
        )
        write_trace(args, traced)
        metrics = {k: {"value": v, "unit": spans.LAYER_UNITS[k]} for k, v in values.items()}
    else:
        peak_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        metrics = {
            "setup_s": {"value": setup_median, "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall"] for r in rounds), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
            "slowest_op_s": {"value": statistics.median(r["slowest"] for r in rounds), "unit": "s"},
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def write_trace(args, traced) -> None:
    import numpy as np
    import spans

    out = os.path.join(ROOT, ".bench_trace")
    os.makedirs(out, exist_ok=True)
    arrays = {"names": np.array(spans.SPAN_NAMES)}
    for i, r in enumerate(traced):
        arrays.update({f"round{i}_{k}": v for k, v in r["spans"].items()})
    np.savez(os.path.join(out, f"{args.workload}-seed{args.seed}.npz"), **arrays)


if __name__ == "__main__":
    sys.exit(main())
