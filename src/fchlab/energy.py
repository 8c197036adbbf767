"""Rescaled FCH energy and diagnostics on tubular grids.

The evaluator works in chart coordinates with explicit metric factors.
With offset scale factors H_j = w_j(t) * (1 + eps*z*kappa_j(t)) the
ambient gradient and Laplacian of a field u(s, z) read

    grad u = sum_j T_j * u_tj / H_j + n * u_z / eps
    lap u  = u_zz / eps^2 + sum_j kappa_j/(1 + eps*z*kappa_j) * u_z / eps
             + sum_j [ u_tjtj / H_j^2 + c_j * u_tj ]

where c_j = d/dt_j (P / H_j^2) / P and P = J * prod_j w_j is the full
volume density.  In arc-length coordinates on a curve this reduces to the
familiar expansion with the first-order tangential term
-eps*z*(dkappa/ds) * (1+eps*z*kappa)^(-3) * u_s; on spheres and tori the
same formula also produces the cross-metric terms that a naive
per-coordinate expansion misses.  The c_j coefficients are obtained by
differencing the sampled metric products, so geometries only need to
supply w_j and kappa_j.

Samples, stencil spacings and the flat weight prod_j w_j(t) with the z
trapezoid are all in rescaled chart and z coordinates; eps enters only
through the factors 1 + eps*z*kappa_j and the powers of eps in the
residual and the gradient.  So one pass over a field runs every width of
a schedule, on the field's own grid.

The pass runs on tiles of the field's support: a range of chart-axis-0
rows by a range of z indices.  The live rows are those within 8 rows of
a row holding a nonzero sample, wrapped on a periodic axis and clipped on
a bounded one.  Because W(0) = W'(0) = 0 and the chained chart stencils
u -> u_t -> u_ss reach 4 rows (the one-sided edge rows read 6), every
integrand and every samplewise operator is an exact zero off them.  Each
maximal run of live rows, cut at a periodic seam, is split into equal
row chunks of at most _TILE_SAMPLES samples (at least 8 rows), and each
chunk into equal z ranges of at most _TILE_SAMPLES samples (at least 4
indices).  A tile reads a halo from the field itself along each axis: 4
rows of chart axis 0, which the chained stencils and the metric
coefficient d1_s(P/H_0^2) reach, and 2 z indices, which u_z and u_zz
reach.  A halo wraps on a periodic axis and is clipped at a bounded end,
where the stencils apply the one-sided rows they apply on the whole axis.
So every stencil operand is a true neighbour: each sample's value, and
each value of the samplewise operators, does not depend on the tiling.

A tile forms W, W', every stencil of u once and the partials of the six
flat-weight diagnostics (equipartition defect, pulse residual and the
four norms).  Then, per width, it forms the metric on its rows and one
loop over the chart axes forms H_j once for the three terms that read it
(u_tt/H_j^2 and c_j*u_t of the Laplacian, (u_t/H_j)^2 of |grad u|^2).
The metric has the rank the geometry gives its factors: on a sphere or a
torus none depends on phi, so a surface tile's metric is rows x 1 x z and
broadcasts against the field, and phi forms no c_j: P/H_j^2 is constant
along it, and the periodic stencil of a constant is exactly 0.  Outputs
are bit for bit those of the metric sampled on the whole mesh.
The Laplacian, the residual and |grad u|^2 accumulate in place and
become the partials of the quadratic, functional, mass and audit
integrals.  No name holds a tile past its visit, so a pass holds a few
dozen tile-sized arrays whatever the size of the grid, and they stay in
cache between the operations that read them.  An all-zero field has no
tiles and reports zeros; |domain| of the lower-bound audit still covers
every row.

The partials are combined in tile order with math.fsum and scaled by
prod_j h_j, so results depend only on the samples and the array shape
and are bit-reproducible; a grid of one tile sums as a whole-grid pass,
and other grids move at round-off when the tiling changes.  A width at
which a reported integral is not finite (eps**2 underflows below eps of
about 1e-154) is refused with a NumericsError naming the width.
fch_energy_sweep agrees bit for bit with fch_energy at each width and
checks each width with geometry.check_width, as constructing a
TubularGrid does, so the pass itself checks no metric.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ._stencils import d1_bounded, d1_periodic, d2_bounded, d2_periodic
from .errors import InfeasibleModelError, NumericsError
from .geometry import InterfaceGeom, TubularGrid, bending_integral, check_width
from .potential import GrowthViolation, WellParams, audit_growth, default_audit_grid, eval_well_and_dwell

__all__ = [
    "Field",
    "EnergyReport",
    "LowerBoundAudit",
    "curvilinear_gradient",
    "curvilinear_laplacian",
    "cahn_hilliard_residual",
    "fch_energy",
    "fch_energy_sweep",
    "g1_energy",
    "lower_bound_audit",
]


@dataclass(frozen=True, eq=False)
class Field:
    """Concentration samples on a tubular grid.

    Admissible fields are nonnegative and vanish at z = +-ell (no-contact
    boundary); construction validates both unless check_bc is disabled for
    operator-level tests with synthetic fields.
    """

    grid: TubularGrid
    values: np.ndarray
    check_bc: bool = True

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ValueError(f"field shape {vals.shape} does not match grid {self.grid.shape}")
        # min and max propagate nan and reach inf, and need no whole-grid temporary
        lo, hi = float(np.min(vals)), float(np.max(vals))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("field contains non-finite samples")
        object.__setattr__(self, "values", vals)
        if self.check_bc:
            scale = max(hi, -lo, 1.0)  # max |u|
            if np.max(np.abs(vals[..., 0])) > 1e-10 * scale or np.max(np.abs(vals[..., -1])) > 1e-10 * scale:
                raise ValueError("field must vanish at z = +-ell")
            if lo < -1e-10 * scale:
                raise ValueError("field must be nonnegative")

    @property
    def eps(self):
        return self.grid.eps


@dataclass(frozen=True)
class EnergyReport:
    """Rescaled energy with its split and the norm diagnostics.

    total = quadratic_part - functional_part by construction; the norms
    are those controlling the through-plane and tangential derivatives.
    """

    eps: float
    total: float
    quadratic_part: float
    functional_part: float
    mass: float
    equipartition_defect: float
    bilayer_residual: float
    norm_u_lp: float
    norm_uz_l2: float
    norm_us_l2: float
    norm_uss_l2: float

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


# Chained chart stencils (u -> u_t -> u_ss) reach 4 rows, and the one-sided
# edge rows read 6; beyond this many rows from every nonzero row each
# integrand and each samplewise operator vanishes exactly.
_HALO = 8

# Samples in the body of one tile (at least 8 rows by 4 z indices): a pass
# holds a few dozen arrays of about this size whatever the size of the grid,
# small enough to stay in cache between the operations that read them.
_TILE_SAMPLES = 2**16


class _Span:
    """Indices a .. b-1 along one axis of n samples, and the indices around them.

    take(x, reach) takes indices a-reach .. b-1+reach of x along the axis:
    wrapped mod n on a periodic axis, clipped at the ends of a bounded one,
    where a stencil then applies the one-sided rows it applies on the whole
    axis.  A span that is the whole axis takes no halo, so its stencils see
    the axis as a whole-grid pass does.
    """

    def __init__(self, a, b, n, periodic, axis):
        self.a, self.b, self.n, self.periodic, self.axis = a, b, n, periodic, axis

    def _pad(self, reach):
        """Indices before and after the body in take(x, reach)."""
        if self.b - self.a == self.n:
            return 0, 0
        if self.periodic:
            return reach, reach
        return min(reach, self.a), min(reach, self.n - self.b)

    def _at(self, key):
        """An index that applies key along the span's axis."""
        if self.axis < 0:
            return (Ellipsis, key) + (slice(None),) * (-1 - self.axis)
        return (slice(None),) * self.axis + (key,)

    def take(self, x, reach):
        lo, hi = self._pad(reach)
        start, stop = self.a - lo, self.b + hi
        if start >= 0 and stop <= self.n:
            return x[self._at(slice(start, stop))]
        return np.take(x, np.arange(start, stop) % self.n, axis=self.axis)

    def within(self, outer, inner):
        """The index of take(x, outer) that is take(x, inner)."""
        lo_out = self._pad(outer)[0]
        lo_in, hi_in = self._pad(inner)
        return self._at(slice(lo_out - lo_in, lo_out + self.b - self.a + hi_in))


def _split(start, stop, count):
    """start .. stop-1 cut into count equal runs, as (a, b) pairs."""
    edges = [start + (stop - start) * i // count for i in range(count + 1)]
    return zip(edges, edges[1:])


def _tiles(u, periodic):
    """Tiles over the rows within _HALO of a row of u holding a nonzero sample, as (rows, z range) spans.

    The marks wrap on a periodic axis and are clipped on a bounded one.
    Each maximal run of marked rows (a run is cut at a periodic seam) is
    split into equal row chunks of at most _TILE_SAMPLES samples, unless 8
    rows hold more, and each chunk into equal z ranges of at most
    _TILE_SAMPLES samples, at least 4 z indices each.  An all-zero u has no
    tiles.
    """
    n, nz = u.shape[0], u.shape[-1]
    row = math.prod(u.shape[1:])
    hits = np.flatnonzero(np.any(u, axis=tuple(range(1, u.ndim))))
    near = (hits[:, None] + np.arange(-_HALO, _HALO + 1)).ravel()
    near = near % n if periodic else near[(near >= 0) & (near < n)]
    marks = np.zeros(n + 2, dtype=bool)
    marks[near + 1] = True
    ends = np.flatnonzero(marks[1:] != marks[:-1]).tolist()  # run starts and stops, alternating
    rows = max(8, _TILE_SAMPLES // row)
    out = []
    for start, stop in zip(ends[::2], ends[1::2]):
        length = stop - start
        for a, b in _split(start, stop, max(1, min(-(-length // rows), length // 8))):
            count = max(1, min(-(-(b - a) * row // _TILE_SAMPLES), nz // 4))
            span = _Span(a, b, n, periodic, 0)
            out += [(span, _Span(c, d, nz, False, -1)) for c, d in _split(0, nz, count)]
    return out


class _Chart:
    """Width-free sampling of one grid: curvatures, Lame factors, stencils, quadrature weights.

    Curvatures and Lame factors are sampled once on the sparse chart mesh
    and held as the geometry returns them, without a z axis, so they cost a
    chart, not a grid.  A factor has length 1 along an axis it does not
    depend on (phi on a sphere or a torus): the metric built from it
    broadcasts against the field along that axis, which the geometry's
    contract makes a periodic one other than the tiled axis 0.  The z
    trapezoid weights and the chart cell prod_j h_j do not depend on eps
    either, so one chart serves every width.
    """

    def __init__(self, grid: TubularGrid):
        mesh = grid.s_mesh
        self.grid = grid
        self.geom = geom = grid.geom
        self.kappas = [np.asarray(k, dtype=float) for k in geom.curvatures(*mesh)]
        self.lames = [np.asarray(w, dtype=float) for w in geom.lame(*mesh)]
        self.z_weights = grid.z_trapezoid_weights()
        self.cell = float(np.prod(grid.h_s))

    def total(self, partials):
        """The integral from its tile partials: their exactly rounded sum, times prod h_s.

        nan when the partials hold both infinities or their sum passes the
        float range, where fsum raises.
        """
        try:
            return float(math.fsum(partials) * self.cell)
        except (ValueError, OverflowError):
            return math.nan

    def rows(self, span: _Span, reach):
        """Curvatures and Lame factors on a span's rows at this reach, with a z axis."""
        return (
            [span.take(k, reach)[..., None] for k in self.kappas],
            [span.take(w, reach)[..., None] for w in self.lames],
        )

    def d1_s(self, f, axis):
        h = self.grid.h_s[axis]
        if self.geom.periodic[axis]:
            return d1_periodic(f, axis, h)
        return d1_bounded(f, axis, h)

    def d2_s(self, f, axis):
        h = self.grid.h_s[axis]
        if self.geom.periodic[axis]:
            return d2_periodic(f, axis, h)
        return d2_bounded(f, axis, h)


class _Tile:
    """The width-free fields of one tile: every stencil pass of u on the tile's body.

    u_z and u_zz are formed on the body rows and the z range +-2 and cut
    to the body.  Chart axis 0's stencils read past the body rows: u_t
    there is formed from u on the body +-4 rows and kept on the body +-2
    rows (t_near[0]), which the chained u_ss reads, as the metric
    coefficient d1_s(P/H_0^2) reads the metric there; u_tt there is formed
    from u on the body +-2 rows.  The chart is held on the body +-2 rows:
    body is their index that is the body, near[axis] the part of them an
    axis's stencils read for the body, and inner[axis] the body within
    near[axis].
    """

    def __init__(self, chart: _Chart, rows: _Span, zs: _Span, u):
        self.chart = chart
        dims = chart.geom.chart_dims
        self.index = (slice(rows.a, rows.b), Ellipsis, slice(zs.a, zs.b))
        self.body = body = rows.within(2, 0)
        self.near = [slice(None)] + [body] * (dims - 1)
        self.inner = [body] + [slice(None)] * (dims - 1)
        self.kappas, self.lames = chart.rows(rows, 2)
        self.weight = math.prod(self.lames)
        self.z_grid = zs.take(chart.grid.z_grid, 0)
        self.z_weights = zs.take(chart.z_weights, 0)
        # the z range is taken first, so a copy across a periodic seam is tile-sized
        ext = rows.take(zs.take(u, 2), 4)
        window, z_body = ext[rows.within(4, 0)], zs.within(2, 0)
        h_z = chart.grid.h_z
        self.u_z = d1_bounded(window, -1, h_z)[z_body]
        self.u_zz = d2_bounded(window, -1, h_z)[z_body]
        ext = ext[z_body]
        reach2 = rows.within(4, 2)
        self.u = u = ext[rows.within(4, 0)]
        self.t_near = [chart.d1_s(ext, 0)[reach2]]
        self.t_near += [chart.d1_s(u, axis) for axis in range(1, dims)]
        self.u_t = [t[inner] for t, inner in zip(self.t_near, self.inner)]
        self.u_tt = [chart.d2_s(ext[reach2], 0)[body]]
        self.u_tt += [chart.d2_s(u, axis) for axis in range(1, dims)]

    def partial(self, f, density):
        """The tile's part of integral f density ds dz, trapezoid in z, before the chart spacings."""
        g = f * density
        g *= self.z_weights
        return np.sum(g)


class _Metric:
    """The metric at width eps on a tile's rows: 1 + eps*z*kappa_j and P = J * weight."""

    def __init__(self, kappas, weight, z_grid, eps):
        zrow = z_grid.reshape((1,) * (kappas[0].ndim - 1) + (-1,))
        self.one_plus = [1.0 + eps * zrow * k for k in kappas]
        self.P = math.prod(self.one_plus) * weight


def _each_tile(chart: _Chart, u, visit):
    """visit(tile) for each tile of u, in order.

    No name holds a tile past its visit, so a pass holds one tile at a time.
    """
    for rows, zs in _tiles(u, chart.geom.periodic[0]):
        visit(_Tile(chart, rows, zs, u))


def _times(a, b):
    """a * b, formed in a's buffer unless a is smaller than b, as a metric term is where its factors have length 1."""
    return np.multiply(a, b, out=a if a.shape == b.shape else None)


def _width_terms(b: _Tile, m: _Metric, eps):
    """The Laplacian and |grad u|^2 on the tile's body at the metric's width.

    One loop over the chart axes forms H_j once for the three terms that
    read it: u_tt / H_j^2 and c_j * u_t of the Laplacian and (u_t / H_j)^2
    of the gradient.  Both sums accumulate in place, and each axis's
    temporaries are freed before the next axis.  Along an axis where the
    chart's factors have length 1, H_j broadcasts against the field and c_j
    is 0, so it is not formed.
    """
    body = b.body
    P = m.P[body]
    lap = b.u_zz / eps**2
    curv = sum(k[body] / f[body] for k, f in zip(b.kappas, m.one_plus))
    curv = _times(curv, b.u_z)  # curv * u_z / eps
    curv /= eps
    lap += curv
    del curv
    grad_sq = b.u_z / eps
    grad_sq *= grad_sq
    for axis, (t, tt) in enumerate(zip(b.u_t, b.u_tt)):
        near, inner = b.near[axis], b.inner[axis]
        h = b.lames[axis][near] * m.one_plus[axis][near]  # H_j
        term = t / h[inner]
        term *= term
        grad_sq += term
        h *= h  # H_j^2
        np.divide(tt, h[inner], out=term)
        lap += term
        del term
        if h.shape[axis] == 1:  # P / H_j^2 is constant along this axis: c_j = 0
            continue
        np.divide(m.P[near], h, out=h)  # the metric coefficient P / H_j^2
        term = b.chart.d1_s(h, axis)[inner]
        del h
        term /= P
        term = _times(term, t)
        lap += term
        del term
    return lap, grad_sq


def _residual(b: _Tile, eps, dwell):
    """The metric at width eps and, on the tile's body, -eps*lap(u) + W'(u)/eps and |grad u|^2."""
    m = _Metric(b.kappas, b.weight, b.z_grid, eps)
    # the Laplacian's array becomes the residual in place
    residual, grad_sq = _width_terms(b, m, eps)
    residual *= -eps
    residual += dwell / eps
    return m, residual, grad_sq


def curvilinear_gradient(field: Field):
    """Gradient components in the frame (T_1, ..., T_{n-1}, n).

    Tangential component j is u_sj / (1 + eps*z*kappa_j) with u_sj the
    arc-length derivative; the normal component is u_z / eps.
    """
    grid, eps = field.grid, field.eps
    out = np.zeros((grid.geom.chart_dims + 1,) + grid.shape)

    def visit(b):
        m = _Metric(b.kappas, b.weight, b.z_grid, eps)
        for axis, t in enumerate(b.u_t):
            out[axis][b.index] = t / (b.lames[axis][b.body] * m.one_plus[axis][b.body])
        out[-1][b.index] = b.u_z / eps

    _each_tile(_Chart(grid), field.values, visit)
    return out


def curvilinear_laplacian(field: Field):
    """Ambient Laplacian of the field in tubular coordinates."""
    grid, eps = field.grid, field.eps
    out = np.zeros(grid.shape)

    def visit(b):
        out[b.index] = _width_terms(b, _Metric(b.kappas, b.weight, b.z_grid, eps), eps)[0]

    _each_tile(_Chart(grid), field.values, visit)
    return out


def _flat_partials(b: _Tile, well, dwell, p):
    """The tile's partials of the flat-weight integrals (no Jacobian), per axis for the tangential norms."""
    weight = b.weight[b.body]
    partial = b.partial
    u_z = b.u_z
    parts = {
        "equipartition_defect": partial(np.abs(0.5 * u_z**2 - well), weight),
        "bilayer_residual": partial((-b.u_zz + dwell) ** 2, weight),
        "norm_u_lp": partial(np.abs(b.u) ** p, weight),
        "norm_uz_l2": partial(u_z**2, weight),
    }
    for axis, t in enumerate(b.t_near):
        near, inner = b.near[axis], b.inner[axis]
        w = b.lames[axis]
        parts["norm_us_l2", axis] = partial((t[inner] / w[b.body]) ** 2, weight)
        u_ss = b.chart.d1_s(t / w[near], axis)[inner] / w[b.body]
        parts["norm_uss_l2", axis] = partial(u_ss**2, weight)
    return parts


def _flat_report(chart: _Chart, sums, p):
    """The EnergyReport diagnostics integrated with the flat weight, by field name."""
    total = chart.total
    norm_us = 0.0
    norm_uss = 0.0
    for axis in range(chart.geom.chart_dims):
        norm_us += np.sqrt(total(sums["norm_us_l2", axis]))
        norm_uss += np.sqrt(total(sums["norm_uss_l2", axis]))
    return {
        "equipartition_defect": total(sums["equipartition_defect"]),
        "bilayer_residual": float(np.sqrt(total(sums["bilayer_residual"]))),
        "norm_u_lp": float(total(sums["norm_u_lp"]) ** (1.0 / p)),
        "norm_uz_l2": float(np.sqrt(total(sums["norm_uz_l2"]))),
        "norm_us_l2": float(norm_us),
        "norm_uss_l2": float(norm_uss),
    }


def _width_partials(b: _Tile, eps, well, dwell, eta1, eta2, audit_a1, p):
    """The tile's partials of the Jacobian-weighted integrals at width eps, with the audit's if audit_a1 is set."""
    m, residual, grad_sq = _residual(b, eps, dwell)
    partial = b.partial
    P = m.P[b.body]
    parts = {
        "quadratic": partial(0.5 * residual**2, P),
        "functional": partial(0.5 * eta1 * eps**2 * grad_sq + eta2 * well, P),
        "mass": partial(b.u, P),
    }
    if audit_a1 is not None:
        integrand = 0.25 * residual**2 + 0.5 * eta1 * eps**2 * grad_sq + audit_a1 * np.abs(b.u) ** p
        parts["audit"] = partial(integrand, P)
    return parts


def _energy_pass(chart: _Chart, u, eps_list, eta1, eta2, params: WellParams, audit_a1=None):
    """One tile pass over the support of u for every width: (EnergyReport, audit integral) per width.

    The audit integral is None unless audit_a1 (the bound's A1) is set.
    Refuses a width at which a reported integral is not finite (a
    NumericsError naming the width and the integral), so the pass does
    not warn about the overflows it then refuses.
    """
    p = params.p
    flat = defaultdict(list)
    widths = [defaultdict(list) for _ in eps_list]

    def visit(b):
        well, dwell = eval_well_and_dwell(b.u, params)
        for key, part in _flat_partials(b, well, dwell, p).items():
            flat[key].append(part)
        for eps, sums in zip(eps_list, widths):
            for key, part in _width_partials(b, eps, well, dwell, eta1, eta2, audit_a1, p).items():
                sums[key].append(part)

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        _each_tile(chart, u, visit)
        diagnostics = _flat_report(chart, flat, p)
    out = []
    for eps, sums in zip(eps_list, widths):
        quadratic = chart.total(sums["quadratic"])
        functional = chart.total(sums["functional"])
        report = EnergyReport(
            eps=eps,
            total=quadratic - functional,
            quadratic_part=quadratic,
            functional_part=functional,
            mass=chart.total(sums["mass"]),
            **diagnostics,
        )
        audit = chart.total(sums["audit"]) if audit_a1 is not None else None
        values = dict(report.__dict__, audit_integral=audit) if audit_a1 is not None else report.__dict__
        bad = [key for key, value in values.items() if not math.isfinite(value)]
        if bad:
            raise NumericsError(f"energy at eps = {eps!r} is not finite: {bad[0]} = {values[bad[0]]!r}")
        out.append((report, audit))
    return out


def _check_eta(eta1, eta2):
    if not (np.isfinite(eta1) and np.isfinite(eta2)):
        raise ValueError("eta coefficients must be finite")


def cahn_hilliard_residual(field: Field, params: WellParams):
    """Samplewise -eps*lap(u) + W'(u)/eps, the quantity squared in the energy."""
    grid, eps = field.grid, field.eps
    out = np.zeros(grid.shape)

    def visit(b):
        out[b.index] = _residual(b, eps, eval_well_and_dwell(b.u, params)[1])[1]

    _each_tile(_Chart(grid), field.values, visit)
    return out


def fch_energy_sweep(field: Field, eps_list, eta1: float, eta2: float, params: WellParams) -> tuple:
    """Rescaled FCH energy of one field's samples at each width of eps_list.

    The samples u(s, z) live on the rescaled slab, so one field serves a
    whole width schedule: one pass forms every stencil pass of u once per
    tile, and only the metric, the Laplacian, the residual, |grad u|^2
    and the three Jacobian-weighted integrals run per width.  Each width
    other than the field's own is checked against the field grid's
    geometry and ell by geometry.check_width, the check every TubularGrid
    runs when constructed.  Returns one EnergyReport per width, each equal to
    fch_energy of the same samples on the grid of that width; a width at
    which a reported integral is not finite raises NumericsError.
    """
    _check_eta(eta1, eta2)
    grid = field.grid
    eps_list = [float(eps) for eps in eps_list]
    for eps in eps_list:
        if eps != grid.eps:  # the field's own width was checked when its grid was constructed
            check_width(grid.geom, grid.ell, eps)
    return tuple(report for report, _ in _energy_pass(_Chart(grid), field.values, eps_list, eta1, eta2, params))


def fch_energy(field: Field, eta1: float, eta2: float, params: WellParams) -> EnergyReport:
    """Rescaled FCH energy of the field plus all report diagnostics."""
    return fch_energy_sweep(field, (field.eps,), eta1, eta2, params)[0]


def g1_energy(geom: InterfaceGeom, a_star: float, b_star: float, eta1: float, eta2: float) -> float:
    """Limiting interface energy: integral of a* H0^2 - (eta1+eta2) b* over Gamma.

    a* and b* are constants of the profile, so this is an affine map of two
    cached geometry invariants: a* * bending_integral(geom) - (eta1+eta2) * b* * |Gamma|.
    """
    if a_star < 0.0:
        raise ValueError("a_star must be nonnegative")
    if b_star < 0.0:
        raise ValueError("b_star must be nonnegative")
    return float(a_star * bending_integral(geom) - (eta1 + eta2) * (b_star * geom.surface_measure))


@dataclass(frozen=True)
class LowerBoundAudit:
    """Both sides of the rescaled uniform lower bound and its margin.

    rhs = integral - a2 * domain_measure; integral is the bound's integral
    part, so a report shows how much of rhs the -A2*|domain| term carries.
    """

    lhs: float
    rhs: float
    integral: float
    a1: float
    a2: float
    domain_measure: float

    @property
    def margin(self):
        return self.lhs - self.rhs

    @property
    def holds(self):
        return self.lhs >= self.rhs


def lower_bound_audit(field: Field, eta1: float, eta2: float, params: WellParams) -> LowerBoundAudit:
    """Check the explicit-constant lower bound on the rescaled energy.

    With A1 = C1*(eta1*p - eta2) - eps^2*eta1^2 and
    A2 = max(0, -(eta1*C4 - eta2*C3)) the energy dominates

        integral { (1/4) R^2 + (eta1 eps^2 / 2)|grad u|^2 + A1 |u|^p } J ds dz
        - A2 * |domain|

    where R is the Cahn-Hilliard residual.  The growth constants C1, C3
    and C4 are those audit_growth certifies for the well on
    default_audit_grid(params); a well they cannot be certified for (a
    GrowthViolation) has no bound, and is refused with the violation's
    message.  Requires eta2 < p*eta1 and eps small enough that A1 > 0.
    """
    eps = field.eps
    p = params.p
    if not eta2 < p * eta1:
        raise InfeasibleModelError("lower bound inapplicable: requires eta2 < p*eta1")
    growth = audit_growth(params, default_audit_grid(params))
    if isinstance(growth, GrowthViolation):
        raise InfeasibleModelError(f"lower bound inapplicable: {growth.message}")
    a1 = growth.c1 * (eta1 * p - eta2) - eps**2 * eta1**2
    if a1 <= 0.0:
        raise InfeasibleModelError("lower bound inapplicable: eps too large for A1 > 0")
    a2 = max(0.0, -(eta1 * growth.c4 - eta2 * growth.c3))

    _check_eta(eta1, eta2)
    grid = field.grid
    chart = _Chart(grid)
    ((report, integral),) = _energy_pass(chart, field.values, (eps,), eta1, eta2, params, audit_a1=a1)
    # |domain| is over every row, as the tiles of a field nonzero on every row;
    # the audit integrand vanishes off the support.  P is broadcast to the
    # whole tile, so an axis along which the factors have length 1 counts
    # each of its samples
    parts = []
    for rows, zs in _tiles(np.broadcast_to(1.0, grid.shape), chart.geom.periodic[0]):
        kappas, lames = chart.rows(rows, 0)
        P = _Metric(kappas, math.prod(lames), zs.take(grid.z_grid, 0), eps).P
        g = np.broadcast_to(P, (rows.b - rows.a, *grid.shape[1:-1], zs.b - zs.a)) * zs.take(chart.z_weights, 0)
        parts.append(np.sum(g))
    domain = chart.total(parts)
    return LowerBoundAudit(
        lhs=report.total,
        rhs=integral - a2 * domain,
        integral=integral,
        a1=float(a1),
        a2=float(a2),
        domain_measure=domain,
    )
