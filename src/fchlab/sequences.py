"""Competing thin-domain sequences and their limit studies.

Two families of fields supported near a fixed interface are built here:
bilayer fields u(s, z) = U(z - p(s)) from the compacton pulse, and micelle
fields summing radial compactons centered at well-separated interface
points.  Their rescaled energies are swept over a decreasing width
schedule and compared against the predicted limits: the bending-type
interface energy for the bilayer family and
-alpha*(eta1/2 + (2-n)/(2n)*eta2)*sigma_n for the micelle family.

Counting convention: one embedded micelle carries the unit-sphere area
factor omega = unit_sphere_area(n) on top of the 1-D radial energy, so
hitting the limit above requires N = round(alpha/omega * eps^(1-n))
centers.  The width schedule for micelle runs is snapped so that this
count is an exact integer; at desk-scale widths the count is small enough
that naive rounding would otherwise distort the limit by several percent.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .bilayer import solve_profile
from .energy import Field, fch_energy, fch_energy_sweep, g1_energy
from .errors import InfeasibleModelError, NumericsError
from .geometry import InterfaceGeom, TubularGrid, place_micelle_centers
from .micelle import shoot_micelle, unit_sphere_area
from .potential import WellParams

__all__ = [
    "SequenceSpec",
    "ConvergenceReport",
    "DerivativeBoundsLedger",
    "PhaseDiagram",
    "build_bilayer_field",
    "build_micelle_field",
    "run_convergence",
    "verify_derivative_bounds",
    "phase_diagram",
    "micelle_limit",
    "check_alpha",
    "snap_micelle_eps",
    "default_eps_schedule",
]

_BILAYER_EPS = (0.1, 0.05, 0.025, 0.0125)
_MICELLE_EPS_REQUEST = (0.05, 0.025, 0.0125, 0.00625)
# default chart resolution of a micelle field: samples across one micelle diameter 2*eps*R0
_POINTS_PER_MICELLE = 96


def micelle_limit(dim_n: int, alpha: float, eta1: float, eta2: float, sigma_n: float) -> float:
    """Limiting energy of the micelle sequence: -alpha*(eta1/2 + (2-n)/(2n)*eta2)*sigma_n."""
    return -alpha * (0.5 * eta1 + (2.0 - dim_n) / (2.0 * dim_n) * eta2) * sigma_n


def check_alpha(alpha) -> None:
    """Refuse a micelle density coefficient that is not a finite number > 0."""
    if alpha is None or not 0.0 < alpha < math.inf:
        raise ValueError("micelle sequences need alpha > 0")


def snap_micelle_eps(alpha: float, dim_n: int, eps: float):
    """Nearest width at which the micelle count is an exact integer.

    Returns (eps_snapped, count) with count = alpha/omega * eps^(1-n).
    """
    check_alpha(alpha)
    omega = unit_sphere_area(dim_n)
    count = max(1, round(alpha / omega * eps ** (1 - dim_n)))
    eps_snapped = (alpha / (omega * count)) ** (1.0 / (dim_n - 1))
    return eps_snapped, count


def default_eps_schedule(kind: str, alpha: float | None = None, dim_n: int = 2):
    """Default decreasing width schedules per sequence kind."""
    if kind == "bilayer":
        return _BILAYER_EPS
    if kind != "micelle":
        raise ValueError("kind must be 'bilayer' or 'micelle'")
    out = []
    for eps in _MICELLE_EPS_REQUEST:
        snapped, _ = snap_micelle_eps(alpha, dim_n, eps)
        if not out or snapped < out[-1] * (1.0 - 1e-12):
            out.append(snapped)
    return tuple(out)


@dataclass(frozen=True, eq=False)
class SequenceSpec:
    """Inputs for one convergence study.

    translate is an optional callable p of the chart coordinates shifting
    the bilayer pulse along z; it must keep the pulse inside the slab:
    max|p| + L < ell.  alpha is the micelle limit-density coefficient (see
    the module docstring for the counting convention).
    """

    kind: str
    geom: InterfaceGeom
    params: WellParams
    eta1: float
    eta2: float
    eps_list: tuple
    alpha: float | None = None
    translate: object | None = None
    ell: float | None = None
    ns: object | None = None
    nz: int = 513

    def __post_init__(self):
        if self.kind not in ("bilayer", "micelle"):
            raise ValueError("kind must be 'bilayer' or 'micelle'")
        eps = tuple(float(e) for e in self.eps_list)
        if not eps or any(e <= 0 for e in eps) or any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("eps_list must be positive and strictly decreasing")
        object.__setattr__(self, "eps_list", eps)
        if self.kind == "micelle":
            check_alpha(self.alpha)
            if self.translate is not None:
                raise ValueError("translate applies to bilayer sequences only")


def _translate_max(spec: SequenceSpec) -> float:
    """max |p| of the translate over a 256-per-axis chart probe; 0 without one."""
    if spec.translate is None:
        return 0.0
    mesh = np.meshgrid(*[np.linspace(0.0, per, 256) for per in spec.geom.chart_periods], indexing="ij")
    return float(np.max(np.abs(spec.translate(*mesh))))


def _bilayer_ell(spec: SequenceSpec, profile, pmax: float):
    if spec.ell is not None:
        return spec.ell
    return 1.05 * (profile.half_width_L + pmax)


def build_bilayer_field(spec: SequenceSpec, eps: float) -> Field:
    """Sample u(s, z) = U(z - p(s)) on the tubular grid for this width."""
    if spec.kind != "bilayer":
        raise ValueError("spec is not a bilayer sequence")
    profile = solve_profile(spec.params)
    pmax = _translate_max(spec)
    ell = _bilayer_ell(spec, profile, pmax)
    if spec.translate is not None and pmax + profile.half_width_L >= ell:
        raise InfeasibleModelError("translate pushes the pulse outside |z| < ell")
    ns = spec.ns if spec.ns is not None else (64 if spec.translate is None else 192)
    grid = TubularGrid.build(spec.geom, ell, eps, ns, spec.nz)
    z = grid.z_grid.reshape((1,) * spec.geom.chart_dims + (-1,))
    if spec.translate is None:
        vals = np.broadcast_to(profile.evaluate(z), grid.shape).copy()
    else:
        p = np.asarray(spec.translate(*grid.s_mesh), dtype=float)[..., None]
        vals = profile.evaluate(z - p)
    return Field(grid, np.maximum(vals, 0.0))


def _chart_window(geom, grid, center_t, halfwidths):
    """Index windows (per chart axis) of the given half-widths around a center."""
    slices = []
    for axis, (t_axis, h, halfwidth) in enumerate(zip(grid.s_grids, grid.h_s, halfwidths)):
        if 2 * halfwidth + 1 >= len(t_axis) or not geom.periodic[axis]:
            slices.append(np.arange(len(t_axis)))
            continue
        i0 = int(np.round(center_t[axis] / h))
        slices.append(np.mod(np.arange(i0 - halfwidth, i0 + halfwidth + 1), len(t_axis)))
    return slices


def build_micelle_field(spec: SequenceSpec, eps: float) -> Field:
    """Superpose radial compactons at separated interface points.

    Supports are pairwise disjoint by the placement separation 2*eps*R0;
    a runtime overlap check guards the construction.
    """
    if spec.kind != "micelle":
        raise ValueError("spec is not a micelle sequence")
    geom = spec.geom
    n_amb = geom.ambient_n
    prof = shoot_micelle(n_amb, spec.params)
    r0 = prof.r0_support
    ell = spec.ell if spec.ell is not None else 1.05 * r0
    alpha_count = spec.alpha / unit_sphere_area(n_amb)
    centers = place_micelle_centers(geom, eps, alpha_count, r0)

    # metric factors on a coarse chart mesh: the largest sets the default
    # resolution, the smallest a conservative chart extent of one micelle
    lames = geom.lame(*np.meshgrid(*[np.linspace(0, p, 128) for p in geom.chart_periods], indexing="ij"))
    if spec.ns is not None:
        ns = spec.ns
    else:
        ns = []
        for w, period in zip(lames, geom.chart_periods):
            h_target = 2.0 * eps * r0 / _POINTS_PER_MICELLE * (1.0 / float(np.max(w)))
            ns.append(int(np.ceil(period / h_target)))
        ns = tuple(ns)
    grid = TubularGrid.build(geom, ell, eps, ns, min(spec.nz, 257))

    vals = np.zeros(grid.shape)
    mesh = grid.s_mesh
    z_offset = (eps * grid.z_grid)[:, None]
    reach = 1.2 * eps * r0 + eps * ell
    halfwidths = [
        int(np.ceil(reach / max(float(np.min(w)), 1e-12) / h)) + 4 for w, h in zip(lames, grid.h_s)
    ]
    for center in centers:
        c_pos = geom.position(*center)
        windows = _chart_window(geom, grid, center, halfwidths)
        sub_mesh = [m[np.ix_(*windows)] if geom.chart_dims > 1 else m[windows[0]] for m in mesh]
        # phi(s) + eps*z*n(s): position and normal once per chart point, not per z sample
        pos = geom.position(*sub_mesh)[..., None, :] + z_offset * geom.normal(*sub_mesh)[..., None, :]
        radius = np.linalg.norm(pos - c_pos, axis=-1) / eps
        inside = radius < r0
        bump = np.zeros(radius.shape)
        bump[inside] = np.maximum(prof.evaluate(radius[inside]), 0.0)
        idx = np.ix_(*windows, np.arange(grid.shape[-1]))
        if np.any((vals[idx] > 0.0) & (bump > 0.0)):
            raise NumericsError("micelle supports overlap despite placement separation")
        vals[idx] += bump
    return Field(grid, vals)


# the CSV columns between abs_error and n_micelles, by EnergyReport field name
_REPORT_COLUMNS = (
    "equipartition_defect", "bilayer_residual", "mass", "norm_u_lp", "norm_uz_l2", "norm_us_l2", "norm_uss_l2"
)


@dataclass(frozen=True)
class ConvergenceReport:
    """One EnergyReport per width of a schedule, against the predicted limit.

    Energies, errors, the eps-rate and the Aitken value derive from reports.
    A snapped micelle family hits its limit at every width, so its error is
    discretisation only: it has no eps-rate or Aitken value (both None).

    uniform_thickness holds eps*ell*kappa0 < 1/2 per width, the unscaled
    half-thickness against the curvature; TubularGrid.uniform_thickness is
    the eps-free ell*kappa0 < 1/2.
    """

    kind: str
    geometry: str
    eta1: float
    eta2: float
    alpha: float | None
    eps_list: tuple
    reports: tuple
    predicted_limit: float
    n_micelles: tuple | None
    uniform_thickness: tuple

    @property
    def energy_list(self) -> tuple:
        return tuple(r.total for r in self.reports)

    @property
    def errors(self) -> tuple:
        """|E - limit| per width."""
        return tuple(abs(r.total - self.predicted_limit) for r in self.reports)

    @property
    def fitted_rate(self) -> float | None:
        return None if self.kind == "micelle" else _fit_rate(self.eps_list, self.errors)

    @property
    def extrapolated(self) -> float | None:
        return None if self.kind == "micelle" else _aitken(self.energy_list)

    def to_csv(self) -> str:
        columns = ("eps", "energy", "predicted_limit", "abs_error", *_REPORT_COLUMNS, "n_micelles", "uniform_thickness")
        lines = [",".join(columns)]
        counts = self.n_micelles or ("",) * len(self.reports)
        rows = zip(self.eps_list, self.reports, self.errors, counts, self.uniform_thickness)
        for eps, rep, err, count, uniform in rows:
            values = (eps, rep.total, self.predicted_limit, err, *(getattr(rep, k) for k in _REPORT_COLUMNS))
            lines.append(",".join([f"{v:.17g}" for v in values] + [str(count), "1" if uniform else "0"]))
        return "\n".join(lines) + "\n"


def _fit_rate(eps, errors):
    pts = [(e, r) for e, r in zip(eps, errors) if r > 1e-13]
    if len(pts) < 3:
        return None
    ee = np.log([p[0] for p in pts[-3:]])
    rr = np.log([p[1] for p in pts[-3:]])
    slope = np.polyfit(ee, rr, 1)[0]
    return float(slope)


def _aitken(values):
    if len(values) < 3:
        return None
    e1, e2, e3 = values[-3:]
    denom = (e3 - e2) - (e2 - e1)
    if abs(denom) < 1e-15 * (abs(e1) + abs(e2) + abs(e3) + 1e-30):
        return None
    return float(e3 - (e3 - e2) ** 2 / denom)


def run_convergence(spec: SequenceSpec) -> ConvergenceReport:
    """Evaluate the energy along the width schedule against the predicted limit."""
    geom = spec.geom
    if spec.kind == "bilayer":
        # U(z - p(s)) is width-free on the rescaled slab: one field serves every width
        fld = build_bilayer_field(spec, spec.eps_list[0])
        reports = fch_energy_sweep(fld, geom, spec.eps_list, spec.eta1, spec.eta2, spec.params)
        counts = None
        prof = solve_profile(spec.params)
        predicted = g1_energy(geom, prof.a_star, prof.b_star, spec.eta1, spec.eta2)
    else:
        reports, counts = [], []
        for eps in spec.eps_list:
            fld = build_micelle_field(spec, eps)
            counts.append(snap_micelle_eps(spec.alpha, geom.ambient_n, eps)[1])
            reports.append(fch_energy(fld, geom, spec.eta1, spec.eta2, spec.params))
        prof = shoot_micelle(geom.ambient_n, spec.params)
        predicted = micelle_limit(geom.ambient_n, spec.alpha, spec.eta1, spec.eta2, prof.sigma_n)
    # every width's field has the same ell
    ell = fld.grid.ell
    return ConvergenceReport(
        kind=spec.kind,
        geometry=geom.name,
        eta1=spec.eta1,
        eta2=spec.eta2,
        alpha=spec.alpha,
        eps_list=spec.eps_list,
        reports=tuple(reports),
        predicted_limit=float(predicted),
        n_micelles=tuple(counts) if counts is not None else None,
        uniform_thickness=tuple(e * ell * geom.kappa0 < 0.5 for e in spec.eps_list),
    )


@dataclass(frozen=True)
class DerivativeBoundsLedger:
    """Which derivative-bound hypotheses a sequence satisfies.

    base_bounded: u, u_z, and eps*u_s uniformly bounded.
    tangential_gradient_bounded: u_s + eps*u_ss uniformly bounded (enhanced first bound).
    tangential_hessian_vanishing: eps*u_ss vanishing (enhanced second bound).
    """

    base_bounded: bool
    tangential_gradient_bounded: bool
    tangential_hessian_vanishing: bool
    slopes: dict
    fit_constant: float

    def summary(self) -> str:
        marks = {True: "pass", False: "fail"}
        return (
            f"base {marks[self.base_bounded]}, tangential-gradient "
            f"{marks[self.tangential_gradient_bounded]}, tangential-hessian "
            f"{marks[self.tangential_hessian_vanishing]} (C = {self.fit_constant:.4g})"
        )


def _log_slope(eps, values, floor):
    vals = np.asarray(values, dtype=float)
    if np.all(vals <= floor):
        return None
    return float(np.polyfit(np.log(eps), np.log(np.maximum(vals, 1e-300)), 1)[0])


def verify_derivative_bounds(report: ConvergenceReport) -> DerivativeBoundsLedger:
    """Classify the sequence against the derivative-bound hypotheses.

    A quantity counts as bounded when it does not grow as eps decreases
    (log-log slope >= -0.15 or identically negligible), and as vanishing
    when its slope is >= 0.5 or it is negligible outright.
    """
    eps = np.asarray(report.eps_list)
    pairs = list(zip(eps, report.reports))
    q1 = [r.norm_u_lp + r.norm_uz_l2 + e * r.norm_us_l2 for e, r in pairs]
    q2 = [r.norm_us_l2 + e * r.norm_uss_l2 for e, r in pairs]
    q3 = [e * r.norm_uss_l2 for e, r in pairs]
    scale = max(max(q1), 1.0)
    floor = 1e-10 * scale

    s1 = _log_slope(eps, q1, floor)
    s2 = _log_slope(eps, q2, floor)
    s3 = _log_slope(eps, q3, floor)
    bounded1 = s1 is None or s1 >= -0.15
    bounded2 = s2 is None or s2 >= -0.15
    vanish3 = s3 is None or s3 >= 0.5
    return DerivativeBoundsLedger(
        base_bounded=bool(bounded1),
        tangential_gradient_bounded=bool(bounded2),
        tangential_hessian_vanishing=bool(vanish3),
        slopes={"base_bounded": s1, "tangential_gradient_bounded": s2, "tangential_hessian_vanishing": s3},
        fit_constant=float(max(q1)),
    )


@dataclass(frozen=True)
class PhaseDiagram:
    """Closed-form limit comparison over a grid of (eta1, eta2) pairs."""

    geometry: str
    dim_n: int
    alpha: float
    rows: tuple  # (eta1, eta2, bilayer_limit, micelle_limit, winner, valid)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("eta1,eta2,bilayer_limit,micelle_limit,bilayer_sign,micelle_sign,winner,valid\n")
        for eta1, eta2, bl, mi, winner, valid in self.rows:
            if valid:
                buf.write(
                    f"{eta1:.17g},{eta2:.17g},{bl:.17g},{mi:.17g},"
                    f"{_sign_label(bl)},{_sign_label(mi)},{winner},1\n"
                )
            else:
                buf.write(f"{eta1:.17g},{eta2:.17g},,,,,invalid,0\n")
        return buf.getvalue()

    def count_regimes(self):
        counts = {}
        for _, _, bl, mi, winner, valid in self.rows:
            if not valid:
                continue
            key = (_sign_label(bl), _sign_label(mi))
            counts[key] = counts.get(key, 0) + 1
        return counts


def _sign_label(x):
    if x > 0:
        return "+"
    if x < 0:
        return "-"
    return "0"


def phase_diagram(geom: InterfaceGeom, alpha: float, params: WellParams, eta_grid) -> PhaseDiagram:
    """Tabulate both limiting energies and the winning structure per cell.

    eta_grid is an iterable of (eta1, eta2) pairs; cells with eta1 <= 0 are
    marked invalid rather than fatal.
    """
    check_alpha(alpha)
    prof_b = solve_profile(params)
    n_amb = geom.ambient_n
    prof_m = shoot_micelle(n_amb, params)
    rows = []
    for eta1, eta2 in eta_grid:
        if eta1 <= 0.0:
            rows.append((float(eta1), float(eta2), math.nan, math.nan, "invalid", False))
            continue
        bl = g1_energy(geom, prof_b.a_star, prof_b.b_star, eta1, eta2)
        mi = micelle_limit(n_amb, alpha, eta1, eta2, prof_m.sigma_n)
        winner = "micelle" if mi < bl else "bilayer"
        rows.append((float(eta1), float(eta2), float(bl), float(mi), winner, True))
    return PhaseDiagram(geometry=geom.name, dim_n=n_amb, alpha=alpha, rows=tuple(rows))
