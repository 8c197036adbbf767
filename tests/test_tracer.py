"""bench/tracer.py must still find the package's entry points.

The tracer wraps functions at the names callers look them up by; a
refactor that renames or bypasses one reads as zero in the benchmark's
per-layer metrics instead of failing.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_traces_micelle_converge(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    trace, out = tmp_path / "trace.jsonl", tmp_path / "c.csv"
    args = ["converge", "--kind", "micelle", "--eps-list", "0.1", "--alpha", "0.5", "--out", str(out)]
    done = subprocess.run(
        [sys.executable, str(TRACER), str(trace), *args], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr

    tracer = _load_tracer()
    metrics = tracer.layer_metrics(*tracer.read_trace(trace), out.stat().st_size)
    for name in ("energy.fch_energy.calls", "sequences.build_micelle_field.calls", "geometry.place_micelle_centers.calls"):
        assert metrics[name] == 1, name
    for name in ("micelle.shots", "stencils.points", "energy.grid_points"):
        assert metrics[name] > 0, name
