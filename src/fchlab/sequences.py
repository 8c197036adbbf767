"""Competing thin-domain sequence families and their limit studies.

A family maps a width eps to a field supported near a fixed interface and
names the energy its fields tend to as eps shrinks.  `BilayerFamily` builds
u(s, z) = U(z - p(s)) from the compacton pulse and tends to the bending-type
interface energy G1; `MicelleFamily` sums radial compactons centered at
well-separated interface points and tends to
-alpha*(eta1/2 + (2-n)/(2n)*eta2)*sigma_n.  `run_convergence` sweeps a
family's rescaled energy over its decreasing width schedule against that
limit.

A micelle family's count of centers at a width follows the counting
convention stated in `fchlab.limits`; its default width schedule is
snapped (`snap_micelle_eps`) to make that count an exact integer.
"""

from __future__ import annotations

import io
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .bilayer import solve_profile
from .energy import Field, fch_energy, fch_energy_sweep
from .errors import InfeasibleModelError, NumericsError, PlacementError
from .geometry import InterfaceGeom, TubularGrid, place_micelle_centers
from .limits import check_alpha, g1_energy, micelle_count, micelle_limit, snap_micelle_eps
from .micelle import shoot_micelle
from .potential import WellParams

__all__ = [
    "BilayerFamily",
    "MicelleFamily",
    "ConvergenceReport",
    "DerivativeBoundsLedger",
    "PhaseDiagram",
    "build_bilayer_field",
    "build_micelle_field",
    "run_convergence",
    "verify_derivative_bounds",
    "phase_diagram",
]

_MICELLE_EPS_REQUEST = (0.05, 0.025, 0.0125, 0.00625)
# default chart resolution of a micelle field: samples across one micelle diameter 2*eps*R0
_POINTS_PER_MICELLE = 96
# samples (chart points x z) of one chunk of a center's candidate chart
# points: their offset positions and differences take 24 bytes a sample each
_WINDOW_CHUNK_SAMPLES = 2**20


@dataclass(frozen=True, eq=False)
class _Family:
    """Inputs every family shares; eps_list None takes `default_schedule()`.

    nz None takes 513 z samples for a bilayer and 257 for a micelle.

    A family prepares a width (`prepare`: its grid and, for micelles, the
    placed centers), builds a field there (`field`), and names its limit
    (`limit`).  The builders call `prepare` first and a dry run calls only
    it, so a dry run refuses each width the builders refuse.
    Class constants: `width_free`, one field serves every width; `fits_rate`,
    its report fits an eps-rate and an Aitken value.
    """

    geom: InterfaceGeom
    params: WellParams
    eta1: float
    eta2: float
    eps_list: tuple | None = None
    ell: float | None = None
    ns: object | None = None
    nz: int | None = None

    def __post_init__(self):
        eps = tuple(float(e) for e in (self.default_schedule() if self.eps_list is None else self.eps_list))
        if not eps or any(not 0.0 < e < math.inf for e in eps) or any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("eps_list must be finite, positive and strictly decreasing")
        object.__setattr__(self, "eps_list", eps)

    def micelle_count(self, eps: float) -> int | None:
        return None


@dataclass(frozen=True, eq=False)
class BilayerFamily(_Family):
    """Bilayer fields u(s, z) = U(z - p(s)), width-free on the rescaled slab, tending to G1.

    translate is an optional callable p of the chart coordinates shifting
    the pulse along z; the pulse must stay inside the slab: max|p| + L < ell.
    A p that is not finite on the grid's chart nodes is refused (ValueError).
    """

    translate: object | None = None
    width_free = True
    fits_rate = True

    def default_schedule(self) -> tuple:
        return (0.1, 0.05, 0.025, 0.0125)

    def prepare(self, eps: float) -> tuple[TubularGrid, np.ndarray | float]:
        """(grid, p) at width eps: ell, ns and nz as given, or their defaults.

        p is the translate sampled on the grid's chart nodes once the grid
        passes its size check (0.0 without a translate).  By default
        ell = 1.05*(L + max|p|), 64 chart samples per axis (192 with a
        translate) and 513 z samples.
        """
        half_width = solve_profile(self.params).half_width_L
        ns = self.ns if self.ns is not None else (64 if self.translate is None else 192)
        nz = 513 if self.nz is None else self.nz
        grid = TubularGrid.build(self.geom, self.ell if self.ell is not None else 1.05 * half_width, eps, ns, nz)
        p = pmax = 0.0
        if self.translate is not None:
            p = np.asarray(self.translate(*grid.s_mesh), dtype=float)
            pmax = float(np.max(np.abs(p)))
            if not math.isfinite(pmax):
                raise ValueError(f"translate must be finite on the chart, got max|p| = {pmax}")
            if self.ell is None:  # the default slab follows max|p|; the chart nodes do not depend on ell
                grid = TubularGrid.build(self.geom, 1.05 * (half_width + pmax), eps, ns, nz)
        if pmax + half_width >= grid.ell:
            raise InfeasibleModelError("the pulse reaches |z| = ell: max|p| + L must stay below ell")
        return grid, p

    def field(self, eps: float) -> Field:
        return build_bilayer_field(self, eps)

    def limit(self) -> float:
        prof = solve_profile(self.params)
        return g1_energy(self.geom, prof.a_star, prof.b_star, self.eta1, self.eta2)


@dataclass(frozen=True, eq=False)
class MicelleFamily(_Family):
    """Micelle fields at snapped widths, tending to the micelle limit.

    alpha is the limit-density coefficient; micelle_count(eps) is the count
    of fchlab.limits.micelle_count.  Centers move with eps, so each width
    has its own field.  The count hits the limit at every width: no
    eps-rate to fit.
    """

    alpha: float | None = None
    width_free = False
    fits_rate = False

    def __post_init__(self):
        check_alpha(self.alpha)
        super().__post_init__()

    def default_schedule(self) -> tuple:
        # the snapped requests, one width per count
        snapped = {snap_micelle_eps(self.alpha, self.geom.ambient_n, eps)[0] for eps in _MICELLE_EPS_REQUEST}
        return tuple(sorted(snapped, reverse=True))

    def prepare(self, eps: float) -> tuple[TubularGrid, np.ndarray]:
        """(grid, centers) at width eps: ell, ns and nz as given, or their defaults.

        By default ell = 1.05*R0, _POINTS_PER_MICELLE chart samples across
        one micelle diameter 2*eps*R0 where the metric factor is largest,
        and 257 z samples.  The grid is sized before micelle_count(eps)
        centers are placed; a count of 0 is a PlacementError too.
        """
        geom = self.geom
        r0 = shoot_micelle(geom.ambient_n, self.params).r0_support
        ell = self.ell if self.ell is not None else 1.05 * r0
        ns = self.ns
        if ns is None:
            ns = tuple(_chart_samples(period, eps, r0, hi) for period, hi in zip(geom.chart_periods, geom.lame_max))
        grid = TubularGrid.build(geom, ell, eps, ns, 257 if self.nz is None else self.nz)
        count = self.micelle_count(eps)
        if count < 1:
            raise PlacementError(f"the requested density rounds to 0 centers at eps = {eps:.4g}")
        return grid, place_micelle_centers(geom, eps, count, r0)

    def field(self, eps: float) -> Field:
        return build_micelle_field(self, eps)

    def limit(self) -> float:
        n_amb = self.geom.ambient_n
        return micelle_limit(n_amb, self.alpha, self.eta1, self.eta2, shoot_micelle(n_amb, self.params).sigma_n)

    def micelle_count(self, eps: float) -> int:
        return micelle_count(self.alpha, self.geom.ambient_n, eps)


def _chart_samples(period, eps, r0, lame_max) -> int:
    """ceil(period / h) samples at spacing h = 2*eps*r0 / _POINTS_PER_MICELLE / lame_max.

    Formed exactly where h underflows or period / h overflows, so a width
    too small for any grid is refused by the grid's size check, which names
    the bytes it asks for.
    """
    h = 2.0 * eps * r0 / _POINTS_PER_MICELLE * (1.0 / lame_max)
    if h > 0.0 and period / h < math.inf:
        return int(np.ceil(period / h))
    from fractions import Fraction  # imports decimal, which no other run needs

    return math.ceil(Fraction(period) * _POINTS_PER_MICELLE * Fraction(lame_max) / (2 * Fraction(eps) * Fraction(r0)))


def build_bilayer_field(family: BilayerFamily, eps: float) -> Field:
    """Sample u(s, z) = U(z - p(s)) on the family's grid for this width.

    u is held at the rank p has: along a periodic chart axis other than
    axis 0 on which p does not depend (phi on a sphere or a torus, and
    every such axis when there is no translate) it has length 1, the
    grid's least_shape; axis 0 and every bounded axis have their full length.
    """
    grid, p = family.prepare(eps)
    profile = solve_profile(family.params)
    p = np.broadcast_to(p, np.broadcast_shapes(np.shape(p), grid.least_shape[:-1]))
    vals = profile.evaluate(grid.z_grid - p[..., None])
    return Field(grid, np.maximum(vals, 0.0, out=vals))


def build_micelle_field(family: MicelleFamily, eps: float) -> Field:
    """Superpose radial compactons at separated interface points.

    A sample phi(s) + eps*z*n(s) lies within eps*R0 of a center c only if
    |phi(s) - c| < eps*(R0 + ell), since |z| <= ell; each center's bump is
    formed on the chart points that pass this test, found in the slab
    |x0 - c0| < eps*(R0 + ell) of the chart points sorted once by their
    first ambient coordinate x0.  They are processed in chunks of at most
    _WINDOW_CHUNK_SAMPLES samples (at least one chart point), and each
    chunk keeps only its chart points that hold a nonzero sample; a chunk
    that holds none is dropped, which bounds what is held between chunks.
    The kept bumps go to Field._from_pieces, which lays out the field's
    live-row runs and adds the bumps into them, so no array of the whole
    grid is formed.  Supports are pairwise disjoint by the placement
    separation 2*eps*R0; Field._from_pieces refuses pieces that overlap
    (NumericsError).
    """
    geom = family.geom
    prof = shoot_micelle(geom.ambient_n, family.params)
    r0 = prof.r0_support
    grid, centers = family.prepare(eps)
    *ns, nz = grid.shape
    points = geom.position(*grid.s_mesh).reshape(-1, geom.ambient_n)
    order = np.argsort(points[:, 0], kind="stable")
    x0 = points[order, 0]
    reach = eps * (r0 + grid.ell)
    step = max(1, _WINDOW_CHUNK_SAMPLES // nz)
    pieces = []  # (chart indices, bumps) of the chart points of a chunk holding a nonzero sample
    for center in centers:
        c_pos = geom.position(*center)
        slab = order[np.searchsorted(x0, c_pos[0] - reach, "right") : np.searchsorted(x0, c_pos[0] + reach)]
        near = np.unravel_index(np.sort(slab[np.linalg.norm(points[slab] - c_pos, axis=-1) < reach]), ns)
        for start in range(0, len(near[0]), step):
            idx = tuple(i[start : start + step] for i in near)
            # the trailing axis: position and normal once per chart point, not per z sample
            pos = geom.offset_position([g[i][:, None] for g, i in zip(grid.s_grids, idx)], grid.z_grid, eps)
            radius = np.linalg.norm(pos - c_pos, axis=-1) / eps
            del pos
            inside = radius < r0
            bump = np.zeros(radius.shape)
            bump[inside] = np.maximum(prof.evaluate(radius[inside]), 0.0)
            holds = np.any(bump, axis=-1)
            if holds.any():
                pieces.append((tuple(i[holds] for i in idx), bump[holds]))
    return Field._from_pieces(grid, pieces)


# the CSV columns between abs_error and n_micelles, by EnergyReport field name
_REPORT_COLUMNS = (
    "equipartition_defect", "bilayer_residual", "mass", "norm_u_lp", "norm_uz_l2", "norm_us_l2", "norm_uss_l2"
)


@dataclass(frozen=True)
class ConvergenceReport:
    """One EnergyReport per width of a family's schedule, against its limit.

    Energies, errors, the eps-rate and the Aitken value derive from reports.
    Without the family's fits_rate (a snapped micelle family hits its limit
    at every width) there is no eps-rate or Aitken value (both None).

    uniform_thickness holds eps*ell*kappa0 < 1/2 per width, the unscaled
    half-thickness against the curvature.
    """

    fits_rate: bool
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
        return _fit_rate(self.eps_list, self.errors) if self.fits_rate else None

    @property
    def extrapolated(self) -> float | None:
        return _aitken(self.energy_list) if self.fits_rate else None

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


def run_convergence(family) -> ConvergenceReport:
    """Evaluate a family's energy along its width schedule against its limit."""
    geom, eps_list = family.geom, family.eps_list
    # kappa0 feeds only the uniform-thickness column
    kappa0 = geom.kappa0
    coeffs = (family.eta1, family.eta2, family.params)
    if family.width_free:  # one field, swept over every width
        fld = family.field(eps_list[0])
        reports = fch_energy_sweep(fld, eps_list, *coeffs)
        ells = [fld.grid.ell] * len(eps_list)
    else:
        reports, ells = [], []
        for eps in eps_list:
            fld = family.field(eps)
            reports.append(fch_energy(fld, *coeffs))
            ells.append(fld.grid.ell)
            del fld  # the next width's field is built without this one alive
    counts = tuple(family.micelle_count(eps) for eps in eps_list)
    return ConvergenceReport(
        fits_rate=family.fits_rate,
        eps_list=eps_list,
        reports=tuple(reports),
        predicted_limit=float(family.limit()),
        n_micelles=None if None in counts else counts,
        uniform_thickness=tuple(e * ell * kappa0 < 0.5 for e, ell in zip(eps_list, ells)),
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

    dim_n: int
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
        return dict(Counter((_sign_label(bl), _sign_label(mi)) for _, _, bl, mi, _, valid in self.rows if valid))


def _sign_label(x):
    if x > 0:
        return "+"
    if x < 0:
        return "-"
    return "0"


def phase_diagram(geom: InterfaceGeom, alpha: float, params: WellParams, eta_grid) -> PhaseDiagram:
    """Tabulate both limiting energies and the winning structure per cell.

    eta_grid is an iterable of (eta1, eta2) pairs; cells with eta1 <= 0 or
    a non-finite eta are marked invalid rather than fatal.  A valid cell
    whose limit is not finite (eta1 + eta2 or alpha*eta past the float
    range) raises NumericsError naming the cell and the side, since no
    winner can be read from it.
    """
    check_alpha(alpha)
    prof_b = solve_profile(params)
    n_amb = geom.ambient_n
    prof_m = shoot_micelle(n_amb, params)
    rows = []
    for eta1, eta2 in eta_grid:
        if not (0.0 < eta1 < math.inf and math.isfinite(eta2)):
            rows.append((float(eta1), float(eta2), math.nan, math.nan, "invalid", False))
            continue
        bl = g1_energy(geom, prof_b.a_star, prof_b.b_star, eta1, eta2)
        mi = micelle_limit(n_amb, alpha, eta1, eta2, prof_m.sigma_n)
        for side, value in (("bilayer_limit", bl), ("micelle_limit", mi)):
            if not math.isfinite(value):
                raise NumericsError(f"{side} of the cell eta1 = {eta1!r}, eta2 = {eta2!r} is not finite: {value!r}")
        winner = "micelle" if mi < bl else "bilayer"
        rows.append((float(eta1), float(eta2), float(bl), float(mi), winner, True))
    return PhaseDiagram(dim_n=n_amb, rows=tuple(rows))
