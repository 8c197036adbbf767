"""Command-line interface: profile solves, convergence studies, phase maps.

Every run resolves its configuration from defaults, an optional JSON
config file, and explicit flags (flags win), then writes a manifest with
the fully resolved configuration next to each output so results are
reproducible byte for byte.

Each command returns (csv text, summary line, exit code) for `main` to
write.  A dry run is the run stopped before its first field: `profile` and
`phase` build none and run in full, and `converge` prepares every width
(`family.prepare`: the grid, the micelle count and placement) and stops.
So a dry run refuses every exit 2 and 3 the run refuses, a placement's
exit 4 (a spread that cannot place a count within a sphere's cap-packing
bound) and a phase map's (a limit that is not finite); only exit 4 from
the energy pass (a non-finite energy, the micelle-overlap guard) needs the
run.

Exit codes: 0 success, 1 convergence checks failed, 2 usage or config
error (and a request too large for this machine: the 2^30-byte grid cap,
or an allocation the OS refuses), 3 infeasible model, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .errors import InfeasibleModelError, NumericsError
from .geometry import geometry_from_config
from .micelle import shoot_micelle, virial_defect
from .potential import WellParams, default_params
from .bilayer import solve_profile
from .sequences import BilayerFamily, MicelleFamily, phase_diagram, run_convergence

_WELL_KEYS = ("r", "u_plus", "tau", "p", "c5")

# geometry flags and the geometry keys they set
_GEOMETRY_FLAGS = {"shape": "shape", "rho": "rho", "a": "a", "b": "b", "torus_R": "R", "torus_r": "r"}

# fitted eps-rates accepted by `converge` when the last width misses the limit by more than 0.1%
_RATE_WINDOW = (0.7, 2.5)

# the sequence family of each converge kind, and the config keys it reads beyond the shared ones
_FAMILIES = {"bilayer": (BilayerFamily, ()), "micelle": (MicelleFamily, ("alpha",))}

# most (eta1, eta2) cells a phase map accepts
_MAX_CELLS = 2**20

# c5 None: default_params audits the far-field coefficient
_DEFAULT_WELL = {"r": 1.75, "u_plus": 1.0, "tau": 0.25, "p": 3.0, "c5": None}

# _merge deep-copies these before filling in a run's configuration
_DEFAULTS = {
    "profile": {
        "kind": None,
        "well": _DEFAULT_WELL,
        "n": 2,
        "samples": 512,
        "out": "profile.csv",
    },
    "converge": {
        "kind": "bilayer",
        "well": _DEFAULT_WELL,
        "geometry": {"shape": "circle", "rho": 1.0},
        "eps_list": None,
        "eta1": 1.0,
        "eta2": 1.0,
        "alpha": 0.5,
        "out": "converge.csv",
    },
    "phase": {
        "well": _DEFAULT_WELL,
        "geometry": {"shape": "sphere", "rho": 3.0},
        "alpha": 0.5,
        "eta1_range": (0.1, 2.0, 21),
        "eta2_range": (-2.0, 6.0, 21),
        "out": "phase.csv",
    },
}


def _well_from_config(cfg) -> WellParams:
    """The well of a resolved config; each value must be a finite number, c5 may be null (audited)."""
    well = cfg["well"]
    values = {key: _number(well[key], key) for key in _WELL_KEYS if key != "c5"}
    if well.get("c5") is None:
        return default_params(**values)
    return WellParams(**values, c5=_number(well["c5"], "c5"))


def _real(val, name) -> float:
    """val as a float; refuses null, strings and booleans by the name it came from."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ValueError(f"{name} must be a number")
    return float(val)


def _number(val, name) -> float:
    """val as a finite float; refuses what _real refuses, and nan and inf, by name."""
    val = _real(val, name)
    if not math.isfinite(val):
        raise ValueError(f"{name} must be finite")
    return val


def _count(val, name) -> int:
    """val as an int >= 1; refuses booleans, null, strings and non-integral numbers by the name it came from."""
    integral = isinstance(val, int) or (isinstance(val, float) and val.is_integer())
    if isinstance(val, bool) or not integral or val < 1:
        raise ValueError(f"{name} must be an integer >= 1")
    return int(val)


def _widths(val):
    """An eps_list value: null (the family's default schedule) or a list of finite numbers, refused by its key."""
    if val is None:
        return None
    if not isinstance(val, (list, tuple)):
        raise ValueError("eps_list must be a list of numbers")
    return tuple(_number(eps, "eps_list entry") for eps in val)


def _range(resolved, key):
    """resolved[key] as (lo, hi, count): two numbers and an integral count >= 1."""
    val = resolved[key]
    if not isinstance(val, (list, tuple)) or len(val) != 3:
        raise ValueError(f"{key} must be [lo, hi, count]")
    lo, hi, count = val
    return _number(lo, f"{key} lo"), _number(hi, f"{key} hi"), _count(count, f"{key} count")


def _merge(defaults, config, flags):
    """Defaults, then the config file, then the flags that are set.

    Refuses keys the command does not know, so a typo cannot run a default.
    """
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    out = json.loads(json.dumps(defaults))  # deep copy
    for key, val in config.items():
        if key not in defaults:
            raise ValueError(f"unknown config key {key!r}")
        if key in ("well", "geometry") and not isinstance(val, dict):
            # geometry too: the geometry flags below edit the block in place
            raise ValueError(f"{key} must be a JSON object")
        if key == "well":
            unknown = [k for k in val if k not in _WELL_KEYS]
            if unknown:
                raise ValueError(f"unknown well key {unknown[0]!r}")
            out["well"].update(val)
        else:
            out[key] = val
    for key, val in flags.items():
        if val is None:
            continue
        if key in _WELL_KEYS:
            out["well"][key] = val
        elif key in _GEOMETRY_FLAGS:
            # a new shape starts a fresh block: the old shape's keys would be refused
            if key == "shape" and val != out["geometry"].get("shape"):
                out["geometry"] = {"shape": val}
            else:
                out["geometry"][_GEOMETRY_FLAGS[key]] = val
        else:
            out[key] = val
    return out


def _write_manifest(out_path: Path, command: str, resolved: dict, seed):
    manifest = {
        "command": command,
        "config": resolved,
        "seed": seed,
        "version": __version__,
        "output": str(out_path),
    }
    man_path = out_path.with_suffix(out_path.suffix + ".manifest.json")
    man_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _emit_error(exc) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    if isinstance(exc, InfeasibleModelError):
        return 3
    if isinstance(exc, NumericsError):
        return 4
    return 2


def cmd_profile(resolved, _dry_run):
    params = _well_from_config(resolved)
    kind = resolved["kind"]
    # the pulse's sample count, or the micelle's ambient dimension
    key = "samples" if kind == "bilayer" else "n"
    size = _count(resolved[key], key)
    if kind == "bilayer":
        prof = solve_profile(params, samples=size)
        line = (
            f"bilayer profile: u_max={prof.u_max:.9g} L={prof.half_width_L:.9g} "
            f"a_star={prof.a_star:.9g} b_star={prof.b_star:.9g}"
        )
    else:
        prof = shoot_micelle(size, params)
        line = (
            f"micelle profile (n={prof.dim_n}): amplitude={prof.amplitude:.9g} "
            f"R0={prof.r0_support:.9g} sigma_n={prof.sigma_n:.9g} "
            f"virial_defect={virial_defect(prof):.3e}"
        )
    return prof.to_csv(), line, 0


def cmd_converge(resolved, dry_run):
    geom = geometry_from_config(resolved["geometry"])
    params = _well_from_config(resolved)
    kind = resolved["kind"]
    if not isinstance(kind, str) or kind not in _FAMILIES:
        raise ValueError("kind must be 'bilayer' or 'micelle'")
    family_cls, keys = _FAMILIES[kind]
    family = family_cls(
        geom=geom,
        params=params,
        eta1=_number(resolved["eta1"], "eta1"),
        eta2=_number(resolved["eta2"], "eta2"),
        eps_list=_widths(resolved["eps_list"]),
        # alpha: limits.check_alpha refuses nan and inf with the other alphas it refuses
        **{key: _real(resolved[key], key) for key in keys},
    )
    if dry_run:
        for eps in family.eps_list:
            family.prepare(eps)
        return None
    report = run_convergence(family)
    errors, rate = report.errors, report.fitted_rate
    rate_txt = "" if rate is None else f"{rate:.3f}"
    line = (
        f"{kind} on {geom.name}: predicted={report.predicted_limit:.9g} "
        f"last_energy={report.energy_list[-1]:.9g} rate={rate_txt}"
    )
    # a single width has no trend to test; at a last width within 0.1% of the
    # limit, rate and decrease tests would probe discretization noise
    converged = errors[-1] < 1e-3 * max(abs(report.predicted_limit), 1e-12)
    lo, hi = _RATE_WINDOW
    # no rate (too few widths, or a micelle family) counts as pass (documented behavior)
    rate_ok = rate is None or lo <= rate <= hi
    passed = len(errors) < 2 or converged or (rate_ok and errors[-1] < errors[0])
    return report.to_csv(), line, 0 if passed else 1


def cmd_phase(resolved, _dry_run):
    geom = geometry_from_config(resolved["geometry"])
    lo1, hi1, n1 = _range(resolved, "eta1_range")
    lo2, hi2, n2 = _range(resolved, "eta2_range")
    if n1 * n2 > _MAX_CELLS:
        raise ValueError(f"phase map of {n1 * n2} cells is above the {_MAX_CELLS} allowed")
    params = _well_from_config(resolved)
    cells = []
    for i in range(n1):
        eta1 = lo1 if n1 == 1 else lo1 + (hi1 - lo1) * i / (n1 - 1)
        for j in range(n2):
            eta2 = lo2 if n2 == 1 else lo2 + (hi2 - lo2) * j / (n2 - 1)
            cells.append((eta1, eta2))
    table = phase_diagram(geom, _real(resolved["alpha"], "alpha"), params, cells)
    regimes = table.count_regimes()
    summary = ", ".join(f"(bilayer {b}, micelle {m}): {k}" for (b, m), k in sorted(regimes.items()))
    return table.to_csv(), f"phase map on {geom.name} (n={table.dim_n}): {summary}", 0


# each takes (resolved, dry_run); only converge builds fields, so only it stops early
_COMMANDS = {"profile": cmd_profile, "converge": cmd_converge, "phase": cmd_phase}


def _add_common(sub):
    sub.add_argument("--config", type=str, default=None, help="JSON config file")
    sub.add_argument("--out", type=str, default=None, help="output CSV path")
    sub.add_argument("--seed", type=int, default=0, help="recorded in the manifest")
    sub.add_argument(
        "--dry-run",
        action="store_true",
        help="prepare every width and refuse what the run refuses, then print the resolved config; write nothing",
    )


def _add_well_flags(sub):
    sub.add_argument("--r", type=float, default=None)
    sub.add_argument("--u-plus", dest="u_plus", type=float, default=None)
    sub.add_argument("--tau", type=float, default=None)
    sub.add_argument("--p", type=float, default=None)
    sub.add_argument("--c5", type=float, default=None)


def _add_geometry_flags(sub):
    sub.add_argument("--shape", type=str, default=None, choices=["circle", "ellipse", "sphere", "torus"])
    sub.add_argument("--rho", type=float, default=None)
    sub.add_argument("--a", type=float, default=None)
    sub.add_argument("--b", type=float, default=None)
    sub.add_argument("--torus-R", dest="torus_R", type=float, default=None)
    sub.add_argument("--torus-r", dest="torus_r", type=float, default=None)


def build_parser():
    parser = argparse.ArgumentParser(prog="fchlab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"fchlab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_prof = subs.add_parser("profile", help="solve and dump a bilayer or micelle profile")
    p_prof.add_argument("--kind", type=str, required=True, choices=["bilayer", "micelle"])
    p_prof.add_argument("--n", type=int, default=None, help="ambient dimension for micelles")
    p_prof.add_argument("--samples", type=int, default=None)
    _add_well_flags(p_prof)
    _add_common(p_prof)

    p_conv = subs.add_parser("converge", help="energy convergence along a width schedule")
    p_conv.add_argument("--kind", type=str, default=None, choices=["bilayer", "micelle"])
    p_conv.add_argument("--eps-list", dest="eps_list", type=str, default=None, help="comma-separated widths")
    p_conv.add_argument("--eta1", type=float, default=None)
    p_conv.add_argument("--eta2", type=float, default=None)
    p_conv.add_argument("--alpha", type=float, default=None)
    _add_well_flags(p_conv)
    _add_geometry_flags(p_conv)
    _add_common(p_conv)

    p_phase = subs.add_parser("phase", help="closed-form limit comparison over an eta grid")
    p_phase.add_argument("--alpha", type=float, default=None)
    p_phase.add_argument("--eta1-range", dest="eta1_range", type=str, default=None, help="lo:hi:num")
    p_phase.add_argument("--eta2-range", dest="eta2_range", type=str, default=None, help="lo:hi:num")
    _add_well_flags(p_phase)
    _add_geometry_flags(p_phase)
    _add_common(p_phase)
    return parser


def _parse_range(text, key):
    """A lo:hi:num flag as (lo, hi, num) for _range to check; refuses text that is not three numbers by key."""
    try:
        lo, hi, num = (float(part) for part in text.split(":"))
    except ValueError:  # not a number, or not three parts
        raise ValueError(f"{key} must be lo:hi:num") from None
    return lo, hi, int(num) if num.is_integer() else num


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command

    try:
        config = json.loads(Path(args.config).read_text()) if args.config else {}
        flags = {k: v for k, v in vars(args).items() if k not in ("command", "config", "seed", "dry_run")}
        if command == "converge" and flags.get("eps_list") is not None:
            try:  # floats for _widths to check
                flags["eps_list"] = [float(part) for part in flags["eps_list"].split(",")]
            except ValueError:
                raise ValueError("eps_list must be comma-separated numbers") from None
        if command == "phase":
            for key in ("eta1_range", "eta2_range"):
                if flags.get(key) is not None:
                    flags[key] = _parse_range(flags[key], key)
        resolved = _merge(_DEFAULTS[command], config, flags)
        out_path = Path(resolved["out"])
        result = _COMMANDS[command](resolved, args.dry_run)
        if args.dry_run:
            print(json.dumps(resolved, sort_keys=True))
            return 0
        csv_text, line, code = result
        out_path.write_text(csv_text)
        _write_manifest(out_path, command, resolved, args.seed)
        print(line)
        return code
    # OSError: an unreadable config or output path; TypeError: a config value of the wrong type
    except (InfeasibleModelError, NumericsError, ValueError, KeyError, TypeError, OSError) as exc:
        return _emit_error(exc)
    # the OS refused an allocation: named by the public class, not numpy's private subclass
    except MemoryError as exc:
        return _emit_error(MemoryError(str(exc)))


if __name__ == "__main__":
    sys.exit(main())
