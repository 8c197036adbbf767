"""End-to-end benchmark of the `fchlab` CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One run:

1. writes the workload's configuration, drawn from the seed, as JSON;
2. for about `--seconds` seconds, and at least twice, runs one CLI
   invocation at a time in a fresh interpreter, so module caches start
   cold as they do for a user: a closed loop with one client, one child
   at a time.  Each untraced child notes when `import fchlab.cli` has
   finished, which gives the set-up time of every invocation;
3. checks every output outside the timed region: exit code 0,
   byte-identical CSV and manifest across the invocations of the run, and
   the workload's numerical gate (see checks.py);
4. prints one JSON line with `correct`, `attempted`, `failed` and
   `metrics`, and appends a fuller record to .bench_out/results.jsonl.

With `--trace 0` the metrics are the end-to-end ones, each the median over
the run's invocations.  With `--trace 1` the run alternates untraced and
traced invocations (tracer.py) and reports per-layer metrics from the
traced ones, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import checks
import tracer
from workloads import WORKLOADS, make_config

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
TRACER = Path(tracer.__file__).resolve()
# The console script's body, plus a note of the (system-wide) monotonic
# clock once the import is done; the note is not a CLI output.
ENTRY = (
    "import sys, time; from fchlab.cli import main; "
    "open('imported.txt', 'w').write(repr(time.clock_gettime(time.CLOCK_MONOTONIC))); "
    "sys.exit(main())"
)
# every child is killed this long after the run started, so the run ends
# well within three minutes even if the program hangs
RUN_DEADLINE_S = 150.0


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def launch(argv, cwd, deadline):
    """Run one child to completion; return (exit code, start time, wall seconds, rusage)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = _now()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = _now() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, wall, usage


def _median(values):
    # empty only when the deadline cut the run short, which the gate reports
    values = list(values)
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fchlab" / "cli.py").is_file():
        print(f"bench: no fchlab package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2

    t_run = _now()
    deadline = t_run + RUN_DEADLINE_S
    spec = WORKLOADS[args.workload]
    work = OUT / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = make_config(args.workload, args.seed)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2) + "\n")
    cli_args = [spec["command"], "--config", str(cfg_path)]
    problems = []

    invocations = []
    # start another invocation while at least half of it is expected to fall
    # inside the measuring window
    while len(invocations) < 2 or _now() - t_run + _median(i["wall_s"] for i in invocations) / 2 < args.seconds:
        if _now() >= deadline:
            break
        k = len(invocations)
        traced = args.trace == 1 and k % 2 == 1
        inv_dir = work / f"inv{k}"
        inv_dir.mkdir()
        if traced:
            argv_k = [sys.executable, str(TRACER), "trace.jsonl"] + cli_args
        else:
            argv_k = [sys.executable, "-c", ENTRY] + cli_args
        code, start, wall, usage = launch(argv_k, inv_dir, deadline)
        invocations.append({
            "dir": inv_dir,
            "traced": traced,
            "code": code,
            "start": start,
            "wall_s": wall,
            "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
        })

    # correctness gate, outside the timed region
    reference = None
    for inv in invocations:
        inv["ok"] = False
        if inv["code"] != 0:
            problems.append(f"{inv['dir'].name}: exit code {inv['code']}")
            continue
        try:
            outputs = tuple((inv["dir"] / name).read_bytes() for name in ("out.csv", "out.csv.manifest.json"))
        except OSError as exc:
            problems.append(f"{inv['dir'].name}: {exc}")
            continue
        inv["output_bytes"] = sum(len(b) for b in outputs)
        if reference is None:
            reference = outputs
        if outputs != reference:
            problems.append(f"{inv['dir'].name}: outputs differ from the run's first invocation")
            continue
        inv["ok"] = True
    limit_rel_err = None
    if reference is not None:
        sys.path.insert(0, str(SRC))
        check = checks.check_converge if spec["command"] == "converge" else checks.check_phase
        try:
            content_problems, limit_rel_err = check(cfg, spec, reference[0])
        except Exception:  # a malformed output must fail the gate, not the benchmark
            content_problems = [f"gate raised:\n{traceback.format_exc()}"]
        problems += content_problems
        if content_problems:
            for inv in invocations:
                inv["ok"] = False

    if len(invocations) < 2:
        problems.append(f"only {len(invocations)} invocation(s) before the deadline")
    plain = [inv for inv in invocations if not inv["traced"]]
    setup = [
        float((inv["dir"] / "imported.txt").read_text()) - inv["start"] for inv in plain if inv["code"] == 0
    ]
    if args.trace == 0:
        metrics = {
            "wall_s": (_median(inv["wall_s"] for inv in plain), "s"),
            "setup_s": (_median(setup), "s"),
            "peak_rss_mb": (_median(inv["peak_rss_mb"] for inv in plain), "MB"),
        }
    else:
        traced = [inv for inv in invocations if inv["traced"] and inv["ok"]]
        per_inv = [
            tracer.layer_metrics(*tracer.read_trace(inv["dir"] / "trace.jsonl"), inv["output_bytes"])
            for inv in traced
        ]
        values = {
            name: _median(layer[name] for layer in per_inv)
            for name, _ in tracer.LAYER_METRICS
            if name not in tracer.RUN_METRICS
        }
        values["trace.wall_s"] = _median(inv["wall_s"] for inv in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - _median(inv["wall_s"] for inv in plain)
        metrics = {name: (values[name], unit) for name, unit in tracer.LAYER_METRICS}

    failed = sum(not inv["ok"] for inv in invocations)
    result = {
        "correct": not problems,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_s": _now() - t_run,
        **result,
        "failed_frac": failed / len(invocations),
        "limit_rel_err": limit_rel_err,
        "problems": problems,
        "samples": {
            "setup_s": setup,
            "wall_s": [inv["wall_s"] for inv in plain],
            "peak_rss_mb": [inv["peak_rss_mb"] for inv in plain],
        },
    }
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    for p in problems:
        print(f"bench: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
