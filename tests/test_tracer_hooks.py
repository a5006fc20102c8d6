import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs():
    # bench/spans.py wraps program names it finds with getattr, so a
    # renamed or moved function breaks the traced benchmark run
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import spans\n"
        "spans.install_cell_timer(); spans.install(spans.Tracer())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_traced_graph_transforms_are_counted():
    # spans.layer_metrics counts a transform's sweeps as the _aux_rhs
    # calls made inside it, so _aux_rhs must stay one module-level call
    # per sweep; a pair maker and globalize must stay traced too
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import numpy as np, spans\n"
        "tracer = spans.Tracer(); spans.install(tracer)\n"
        "from saddlescope import cli, graphtransform, synthetic\n"
        "argv = ['graphs', '--chain', 'perturbed', '--horizon', '2', '--samples', '200']\n"
        "assert cli.main(argv) == 0\n"
        "pair = synthetic.random_ph_pair(np.random.default_rng(0), 2, 1)\n"
        "phi = graphtransform.GraphFunction.zero(2, 1, 1.0, 1.0 / 16.0)\n"
        "graphtransform.graph_transform(pair, phi, 1e-9)\n"
        "m = spans.layer_metrics(tracer.arrays(), [])\n"
        "for key in ('graphtransform.sweeps_per_transform.1x1',\n"
        "            'graphtransform.sweeps_per_transform.2x1',\n"
        "            'synthetic.pair_ms', 'phcert.globalize_ms'):\n"
        "    assert m[key] > 0, (key, m[key])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_traced_certificates_are_timed():
    # the theory workload times certify through these spans: the builders,
    # the radius search's Hessian, the subcommand and the sphere pullback
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import spans\n"
        "from saddlescope import cli\n"
        "# an untraced call first, as a traced benchmark run makes: the\n"
        "# parser it builds must not keep the unwrapped subcommands\n"
        "argv = ['certify', '--objective', 'quad_saddle', '--algo', 'gd', '--schedule', 'const:0.5']\n"
        "assert cli.main(argv) == 0\n"
        "tracer = spans.Tracer(); spans.install(tracer)\n"
        "for key, algo, spec in (('double_well', 'gd', 'const:0.5'),\n"
        "                        ('quad_saddle', 'pp', 'poly:1:0.5'),\n"
        "                        ('rayleigh_sphere', 'rgd', 'cos:1:4:0.5')):\n"
        "    argv = ['certify', '--objective', key, '--algo', algo, '--schedule', spec]\n"
        "    assert cli.main(argv) == 0\n"
        "m = spans.layer_metrics(tracer.arrays(), [])\n"
        "for key in ('phcert.certificate_ms', 'phcert.estimate_radius_hess_calls',\n"
        "            'cli.certify_ms', 'cli.pullback_hessian_ms'):\n"
        "    assert m[key] > 0, (key, m[key])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_threaded_sweeps_are_counted_once():
    # a 2x2 lattice at delta 1/128 splits across two threads; only the
    # calling thread opens spans, so the threaded transform records as
    # many spans as the serial one, the same sweep count, and closes
    # every span
    code = (
        "import os, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import numpy as np, spans\n"
        "tracer = spans.Tracer(); spans.install(tracer)\n"
        "from saddlescope import graphtransform, synthetic\n"
        "key = 'graphtransform.sweeps_per_transform.2x2'\n"
        "def transform(threads):\n"
        "    os.environ['SADDLESCOPE_THREADS'] = threads\n"
        "    pair = synthetic.random_ph_pair(np.random.default_rng(0), 2, 2)\n"
        "    phi = graphtransform.GraphFunction.zero(2, 2, 1.0, 1.0 / 128.0)\n"
        "    mark = len(tracer)\n"
        "    graphtransform.graph_transform(pair, phi, 1e-9)\n"
        "    return spans.layer_metrics(tracer.arrays(), [])[key], len(tracer) - mark\n"
        "serial, serial_spans = transform('1')\n"
        "both, threaded_spans = transform('2')  # both: the mean over the two transforms\n"
        "assert serial > 0 and both == serial, (serial, both)\n"
        "assert threaded_spans == serial_spans, (serial_spans, threaded_spans)\n"
        "assert tracer.stack == [-1], tracer.stack\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
