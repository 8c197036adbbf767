"""bench/tracer.py must still find the package's entry points.

The tracer wraps functions at the names callers look them up by; a
refactor that renames or bypasses one reads as zero in the benchmark's
per-layer metrics instead of failing.
"""

import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_metrics(tmp_path, *args):
    """Per-layer metrics of one traced CLI run with `args`, and its span count per name."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    trace, out = tmp_path / "trace.jsonl", tmp_path / "out.csv"
    done = subprocess.run(
        [sys.executable, str(TRACER), str(trace), *args, "--out", str(out)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr

    tracer = _load_tracer()
    spans, counters = tracer.read_trace(trace)
    return tracer.layer_metrics(spans, counters, out.stat().st_size), Counter(span["name"] for span in spans)


def test_tracer_traces_micelle_converge(tmp_path):
    metrics, _ = _traced_metrics(tmp_path, "converge", "--kind", "micelle", "--eps-list", "0.1", "--alpha", "0.5")
    for name in ("energy.fch_energy.calls", "sequences.build_micelle_field.calls", "geometry.place_micelle_centers.calls"):
        assert metrics[name] == 1, name
    for name in ("micelle.shots", "stencils.points", "energy.grid_points"):
        assert metrics[name] > 0, name


def test_tracer_traces_g1_in_a_phase_map(tmp_path):
    # G1 lives in fchlab.limits; the tracer still finds it by energy.g1_energy
    metrics, calls = _traced_metrics(tmp_path, "phase", "--eta1-range", "0.5:1.5:3", "--eta2-range=-1:1:2")
    assert metrics["energy.g1_energy.calls"] == 3 * 2
    assert calls["sequences.phase_diagram"] == 1
    assert metrics["micelle.shoot_micelle.calls"] == 1
