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
