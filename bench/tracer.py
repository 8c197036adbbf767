"""Span tracer for one `fchlab` CLI process, installed from outside the package.

Each public entry point is wrapped at every name a caller looks it up by:
the tracer scans the globals of every loaded `fchlab` module and replaces
each reference to a target function with its wrapper, and patches methods
on their classes.  A wrapped call records a span (id, parent id, name,
start, end) in memory; counters derived from argument and result shapes
are added at the same boundary.  `dwell_scalar`, the ODE right-hand side,
runs about 67k times per micelle solve, so it is counted but not timed.

Run as a script, it traces one CLI invocation and writes the spans as
JSONL, followed by one line with the counters:

    PYTHONPATH=src python3 bench/tracer.py trace.jsonl converge --config cfg.json
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import defaultdict

import numpy as np

F64_MB = 8 / 1e6  # megabytes per float64 sample


def _count_fch_energy(counters, args, kwargs, result):
    vals = args[0].values
    counters["energy.grid_points"] += vals.size
    counters["energy.nonzero_points"] += int((vals != 0.0).sum())


def _count_stencil(counters, args, kwargs, result):
    counters["stencils.points"] += int(np.size(args[0]))


def _count_well(name):
    def count(counters, args, kwargs, result):
        counters[f"potential.{name}.points"] += int(np.size(args[0]))

    return count


def _count_solve_ivp(counters, args, kwargs, result):
    counters["micelle.shots"] += 1
    counters["micelle.rhs_evals"] += int(result.nfev)


def _count_grid(counters, args, kwargs, result):
    counters["geometry.grid_points"] += int(np.prod(result.shape))


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self._ids = itertools.count(1)
        self._tickers = {}
        self._stack = [0]
        self._t0 = time.perf_counter()

    def wrap(self, name, fn, count=None):
        """Return `fn` wrapped in a span called `name`; `count` adds counters."""
        spans, stack, ids, counters = self.spans, self._stack, self._ids, self.counters
        clock = time.perf_counter
        t0 = self._t0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start - t0, end - t0))
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return wrapper

    def count_calls(self, name, fn):
        """Return `fn` wrapped so that it only counts its calls."""
        tick = self._tickers[name] = itertools.count()

        @functools.wraps(fn)
        def wrapper(*args):
            next(tick)
            return fn(*args)

        return wrapper

    def snapshot(self) -> dict:
        out = dict(self.counters)
        for name, tick in self._tickers.items():
            out[name] = next(tick)
        return out

    def install(self):
        """Wrap the package's entry points; call after `import fchlab.cli`."""
        import fchlab.bilayer
        import fchlab.energy
        import fchlab.geometry
        import fchlab.micelle
        import fchlab.potential
        import fchlab.sequences
        from fchlab import _stencils

        functions = [
            ("sequences.run_convergence", fchlab.sequences.run_convergence, None),
            ("sequences.phase_diagram", fchlab.sequences.phase_diagram, None),
            ("sequences.build_micelle_field", fchlab.sequences.build_micelle_field, None),
            ("sequences.build_bilayer_field", fchlab.sequences.build_bilayer_field, None),
            ("energy.fch_energy", fchlab.energy.fch_energy, _count_fch_energy),
            ("energy.g1_energy", fchlab.energy.g1_energy, None),
            ("potential.eval_well", fchlab.potential.eval_well, _count_well("eval_well")),
            ("potential.eval_dwell", fchlab.potential.eval_dwell, _count_well("eval_dwell")),
            ("micelle.shoot_micelle", fchlab.micelle.shoot_micelle, None),
            ("micelle.solve_ivp", fchlab.micelle.solve_ivp, _count_solve_ivp),
            ("bilayer.solve_profile", fchlab.bilayer.solve_profile, None),
            ("geometry.place_micelle_centers", fchlab.geometry.place_micelle_centers, None),
        ]
        for name in ("d1_bounded", "d2_bounded", "d1_periodic", "d2_periodic"):
            functions.append((f"stencils.{name}", getattr(_stencils, name), _count_stencil))
        for name, fn, count in functions:
            self._replace(fn, self.wrap(name, fn, count))
        dwell = fchlab.potential.dwell_scalar
        self._replace(dwell, self.count_calls("potential.dwell_scalar.calls", dwell))

        geom = fchlab.geometry
        build = vars(geom.TubularGrid)["build"].__func__
        geom.TubularGrid.build = classmethod(self.wrap("geometry.TubularGrid.build", build, _count_grid))
        base = geom.InterfaceGeom
        base.surface_quadrature = self.wrap("geometry.surface_quadrature", base.surface_quadrature)
        for cls in base.__subclasses__():
            for method in ("lame", "curvatures"):
                if method in vars(cls):
                    setattr(cls, method, self.wrap(f"geometry.{method}", vars(cls)[method]))

    @staticmethod
    def _replace(target, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "fchlab" and not mod_name.startswith("fchlab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is target:
                    setattr(module, attr, wrapper)

    def dump(self, path):
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name, "start": start, "end": end}) + "\n")
            fh.write(json.dumps({"counters": self.snapshot()}) + "\n")


def read_trace(path):
    spans, counters = [], {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if "counters" in rec:
                counters = rec["counters"]
            else:
                spans.append(rec)
    return spans, counters


# Per-layer metrics derived from one traced invocation: (name, unit).
LAYER_METRICS = [
    ("cli.main.s", "s"),
    ("cli.output_bytes", "B"),
    ("sequences.run_convergence.s", "s"),
    ("sequences.build_micelle_field.calls", "count"),
    ("sequences.build_micelle_field.s", "s"),
    ("sequences.build_micelle_field.self_s", "s"),
    ("sequences.build_bilayer_field.calls", "count"),
    ("sequences.build_bilayer_field.s", "s"),
    ("sequences.phase_diagram.s", "s"),
    ("sequences.phase_diagram.self_s", "s"),
    ("energy.fch_energy.calls", "count"),
    ("energy.fch_energy.s", "s"),
    ("energy.fch_energy.self_s", "s"),
    ("energy.grid_points", "count"),
    ("energy.grid_mb_computed", "MB"),
    ("energy.support_frac", "ratio"),
    ("energy.ns_per_point", "ns"),
    ("energy.g1_energy.calls", "count"),
    ("energy.g1_energy.s", "s"),
    ("stencils.d1_bounded.calls", "count"),
    ("stencils.d1_bounded.s", "s"),
    ("stencils.d2_bounded.calls", "count"),
    ("stencils.d2_bounded.s", "s"),
    ("stencils.d1_periodic.calls", "count"),
    ("stencils.d1_periodic.s", "s"),
    ("stencils.d2_periodic.calls", "count"),
    ("stencils.d2_periodic.s", "s"),
    ("stencils.points", "count"),
    ("stencils.mb_computed", "MB"),
    ("potential.eval_well.calls", "count"),
    ("potential.eval_well.s", "s"),
    ("potential.eval_well.points", "count"),
    ("potential.eval_dwell.calls", "count"),
    ("potential.eval_dwell.s", "s"),
    ("potential.eval_dwell.points", "count"),
    ("potential.ns_per_point", "ns"),
    ("potential.dwell_scalar.calls", "count"),
    ("micelle.shoot_micelle.calls", "count"),
    ("micelle.shoot_micelle.s", "s"),
    ("micelle.shots", "count"),
    ("micelle.rhs_evals", "count"),
    ("micelle.cache_hit_frac", "ratio"),
    ("bilayer.solve_profile.calls", "count"),
    ("bilayer.solve_profile.s", "s"),
    ("geometry.TubularGrid.build.calls", "count"),
    ("geometry.grid_mb_computed", "MB"),
    ("geometry.place_micelle_centers.calls", "count"),
    ("geometry.place_micelle_centers.s", "s"),
    ("geometry.surface_quadrature.calls", "count"),
    ("geometry.surface_quadrature.s", "s"),
    ("geometry.lame.calls", "count"),
    ("geometry.curvatures.calls", "count"),
    ("trace.spans", "count"),
    ("trace.attributed_frac", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]


# Set by the benchmark from the wall times of its traced and untraced
# invocations.
RUN_METRICS = ("trace.wall_s", "trace.overhead_s")


def layer_metrics(spans, counters, output_bytes) -> dict:
    """Per-layer metrics of one traced invocation, all but RUN_METRICS.

    A span's self time is its duration minus the time covered by its
    children; calls on one thread nest, so that is the sum of the
    children's durations.
    """
    calls = defaultdict(int)
    incl = defaultdict(float)
    child_time = defaultdict(float)
    for sp in spans:
        child_time[sp["parent"]] += sp["end"] - sp["start"]
    self_s = defaultdict(float)
    for sp in spans:
        dur = sp["end"] - sp["start"]
        calls[sp["name"]] += 1
        incl[sp["name"]] += dur
        self_s[sp["name"]] += dur - child_time[sp["id"]]

    # a shoot_micelle call that started no solve_ivp shot was a cache hit;
    # nothing between the two is wrapped, so a shot's parent is the call
    shooting = {sp["parent"] for sp in spans if sp["name"] == "micelle.solve_ivp"}
    n_shoot = calls["micelle.shoot_micelle"]

    points = counters.get("energy.grid_points", 0)
    well_points = counters.get("potential.eval_well.points", 0) + counters.get("potential.eval_dwell.points", 0)
    stencil_points = counters.get("stencils.points", 0)
    main_s = incl["cli.main"]
    out = {}
    for metric, _unit in LAYER_METRICS:
        stem, _, kind = metric.rpartition(".")
        table = {"calls": calls, "s": incl, "self_s": self_s}.get(kind)
        if table is not None and stem in table:
            out[metric] = table[stem]
    out.update({
        "cli.output_bytes": output_bytes,
        "energy.grid_points": points,
        "energy.grid_mb_computed": points * F64_MB,
        "energy.support_frac": counters.get("energy.nonzero_points", 0) / points if points else 0.0,
        "energy.ns_per_point": 1e9 * incl["energy.fch_energy"] / points if points else 0.0,
        "stencils.points": stencil_points,
        # each stencil call reads its input and writes one output array
        "stencils.mb_computed": 2 * stencil_points * F64_MB,
        "potential.eval_well.points": counters.get("potential.eval_well.points", 0),
        "potential.eval_dwell.points": counters.get("potential.eval_dwell.points", 0),
        "potential.ns_per_point": (
            1e9 * (incl["potential.eval_well"] + incl["potential.eval_dwell"]) / well_points if well_points else 0.0
        ),
        "potential.dwell_scalar.calls": counters.get("potential.dwell_scalar.calls", 0),
        "micelle.shots": counters.get("micelle.shots", 0),
        "micelle.rhs_evals": counters.get("micelle.rhs_evals", 0),
        "micelle.cache_hit_frac": (n_shoot - len(shooting)) / n_shoot if n_shoot else 0.0,
        "geometry.grid_mb_computed": counters.get("geometry.grid_points", 0) * F64_MB,
        "trace.spans": len(spans),
        "trace.attributed_frac": 1.0 - self_s["cli.main"] / main_s if main_s else 0.0,
    })
    for metric, _unit in LAYER_METRICS:
        if metric not in RUN_METRICS:
            out.setdefault(metric, 0)
    return out


def main(argv):
    trace_path, cli_args = argv[0], argv[1:]
    import fchlab.cli

    tracer = Tracer()
    tracer.install()
    cli_main = tracer.wrap("cli.main", fchlab.cli.main)
    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
