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

A field stores only its live rows, and lays them out itself (Field): the
chart-axis-0 rows within 8 rows of a row holding a nonzero sample,
wrapped on a periodic axis and clipped on a bounded one, held as one
block per maximal run of them; a run across a periodic seam is one
block.  Builders hand a field its samples, never its layout.  Because
W(0) = W'(0) = 0 and the 5-point stencils reach 2 rows (a one-sided row
at a bounded edge reads 5 past it, and an edge is never trimmed), every
integrand and every samplewise operator is an exact zero off the runs,
and the rows there are never allocated.  The same holds on a run's 4
outer rows, since its 8 outer rows hold no nonzero sample: the pass
tiles only each run's body, the run without those rows (an end at the
edge of a bounded axis, where the one-sided rows apply, is kept, and a
run over the whole axis is its own body), so each run holds the halo its
tiles read.  A body across the seam is tiled as its two parts either
side of it.  Each body is split into equal row chunks of at most
_TILE_SAMPLES samples (at least 8 rows), and each chunk into equal z
ranges of at most _TILE_SAMPLES samples (at least 4 indices), samples
being counted in the shape the pass's arrays take (see held axes below).
A tile reads a halo of 2 along each axis it cuts: chart axis 0's rows,
which u_t, u_tt and the metric coefficient d1_s(P/H_0^2) reach, and z,
which u_z and u_zz reach.  A halo wraps on a periodic axis and is
clipped at a bounded end, where the stencils apply the one-sided rows
they apply on the whole axis.  The tile takes its samples and their
halo from its run's block with _Span.take, as it takes the chart
factors: a view, except where the run is a whole periodic axis cut into
several tiles and the halo wraps.  So every stencil operand is a true
neighbour: each sample's value, and each value of the samplewise
operators, does not depend on the tiling.

A tile forms W, W', every stencil of u once and the partials of the six
flat-weight diagnostics (equipartition defect, pulse residual and the
four norms).  The tangential norms read the Laplacian's stencils: the
arc-length derivatives along chart axis j are u_s = u_tj / w_j and
u_ss = (u_tjtj - u_s * dw_j/dt_j) / w_j^2, with dw_j/dt_j the stencil of
the Lame factor, not formed along an axis where that factor has length
1.  Then, per width, it forms the metric on its rows and one
loop over the chart axes forms H_j once for the three terms that read it
(u_tt/H_j^2 and c_j*u_t of the Laplacian, (u_t/H_j)^2 of |grad u|^2).
The metric has the rank the geometry gives its factors: on a sphere or a
torus none depends on phi, so a surface tile's metric is rows x 1 x z and
broadcasts against the field, and phi forms no c_j: P/H_j^2 is constant
along it, and the periodic stencil of a constant is exactly 0.  Outputs
are bit for bit those of the metric sampled on the whole mesh.

The field has the rank it has too (Field): an untranslated bilayer on a
sphere or a torus is held as rows x 1 x z.  Along a held axis u forms no
stencil, for the same reason: each would be exactly 0, and so is every
term it feeds (its parts of |grad u|^2, the Laplacian and the tangential
norms).  The Laplacian and |grad u|^2 start at the broadcast shape of the
field's and the metric's arrays, so they accumulate in place whichever
of the two is held, and a tile's partial counts each sample of a held
axis as many times as the grid has samples along it, so every integral
is over the whole grid.  The samplewise operators return whole-grid
arrays, bit for bit those of the field broadcast to the whole grid; the
integrals move at round-off against that field, since n_j equal terms
are summed as one product.

The Laplacian, the residual and |grad u|^2 accumulate in place and
become the partials of the quadratic, functional, mass and audit
integrals.  No name holds a tile past its visit, so a pass holds a few
dozen tile-sized arrays whatever the size of the grid, and they stay in
cache between the operations that read them.  An all-zero field has no
tiles and reports zeros.  Tiles serve only the field: |domain| of the
lower-bound audit is the closed-form z integral of P per chart point,
prod_j w_j * sum_k eps^k e_k M_k with e_k the curvatures' elementary
symmetric functions (geometry.symmetric_curvatures) and M_k the moments
of the z trapezoid, at the chart's rank and summed over every chart
point.

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
from .geometry import TubularGrid, check_width, symmetric_curvatures
# unused here: bench/tracer.py finds G1 by this attribute, until the package
# traces itself (ROADMAP item 11)
from .limits import g1_energy
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
    "lower_bound_audit",
]


# The stencils of u reach 2 rows, and a one-sided row at a bounded edge reads
# 5 past it, so beyond 5 rows from every nonzero row each integrand and each
# samplewise operator vanishes exactly.  A run holds the rows within 8; with
# the 4 outer rows _tiles trims, this sets the tiling, and so the summation
# order of every integral.
_HALO = 8

# Samples in the body of one tile (at least 8 rows by 4 z indices): a pass
# holds a few dozen arrays of about this size whatever the size of the grid,
# small enough to stay in cache between the operations that read them.
_TILE_SAMPLES = 2**16


def live_runs(hits, n, periodic):
    """The rows of an axis of n rows within _HALO of a row in hits, as maximal runs (start, stop).

    The marks wrap on a periodic axis and are clipped on a bounded one.  A
    run across a periodic seam is one run whose start lies in 0 .. n-1 and
    whose stop passes n: it holds rows start .. n-1, then 0 .. stop-n-1.
    """
    near = (np.asarray(hits, dtype=np.intp)[:, None] + np.arange(-_HALO, _HALO + 1)).ravel()
    near = near % n if periodic else near[(near >= 0) & (near < n)]
    marks = np.zeros(n + 2, dtype=bool)
    marks[near + 1] = True
    ends = np.flatnonzero(marks[1:] != marks[:-1]).tolist()  # run starts and stops, alternating
    runs = list(zip(ends[::2], ends[1::2]))
    if periodic and len(runs) > 1 and runs[0][0] == 0 and runs[-1][1] == n:  # the run across the seam
        (_, m), *runs = runs
        runs[-1] = (runs[-1][0], n + m)
    return runs


class Field:
    """Concentration samples on a tubular grid, stored as runs of rows along chart axis 0.

    Along each axis the field has the grid's length or that of
    grid.least_shape, 1 on a periodic chart axis other than axis 0: the
    field is then constant along that axis and is held at the rank it
    has (an untranslated bilayer on a sphere or a torus is rows x 1 x z),
    by the rule the geometry's curvatures and Lame factors follow
    (InterfaceGeom).

    Only the live rows are stored: the rows within _HALO of a row holding a
    nonzero sample (live_runs).  runs is a list of (first row, block)
    pairs, one per maximal run of live rows in row order, block holding
    rows first .. first+len(block)-1 taken mod the row count, so the block
    of a run across a periodic seam holds its rows before the seam, then
    those after it.  Every row off the runs is an exact zero and is never
    allocated.  The layout is the class's own: Field(grid, values) marks a
    dense array by this rule and holds views of it, copying only the block
    of a run across the seam, and Field._from_pieces lays out the runs of a
    sum of pieces.  values builds the dense array of the field's shape on
    each access, for callers outside the package.

    Admissible fields are nonnegative and vanish at z = +-ell (no-contact
    boundary); construction validates both, reading only the runs, unless
    check_bc is disabled for operator-level tests with synthetic fields.
    """

    def __init__(self, grid: TubularGrid, values, check_bc: bool = True):
        vals = np.asarray(values, dtype=float)
        _check_shape(grid, vals.shape)
        hits = np.flatnonzero(np.any(vals, axis=tuple(range(1, vals.ndim))))
        runs = live_runs(hits, len(vals), grid.geom.periodic[0])
        # a view of each run, and a copy of the one across a periodic seam
        self._hold(grid, vals.shape, [(a, _Span(a, b, len(vals), True, 0).take(vals, 0)) for a, b in runs], check_bc)

    @classmethod
    def _from_pieces(cls, grid: TubularGrid, pieces) -> Field:
        """The field of the grid's shape that sums pieces, (chart index, z columns) pairs, in order.

        A piece's chart index is a tuple of index arrays, one per chart
        axis, and its z columns hold the samples at those chart points, one
        row of the grid's z length each; a piece may span runs.  The runs
        are views of one zero-filled array holding every live row.  Pieces
        whose nonzero samples meet are refused (NumericsError): the micelle
        builder's supports are disjoint by their placement separation.
        """
        n = grid.shape[0]
        bounds = live_runs(np.concatenate([idx[0] for idx, _ in pieces] or [[]]), n, grid.geom.periodic[0])
        live = np.concatenate([np.arange(a, b) for a, b in bounds] or [np.arange(0)]) % n
        held = np.zeros((len(live), *grid.shape[1:]))
        at = np.zeros(n, dtype=np.intp)  # each live row's row of held
        at[live] = np.arange(len(live))
        for idx, cols in pieces:
            where = (at[idx[0]], *idx[1:])
            if np.any((held[where] > 0.0) & (cols > 0.0)):
                raise NumericsError("micelle supports overlap despite placement separation")
            held[where] += cols
        fld = cls.__new__(cls)
        fld._hold(grid, grid.shape, [(a, held[at[a] : at[a] + b - a]) for a, b in bounds], True)
        return fld

    def _hold(self, grid, shape, runs, check_bc):
        self.grid, self.shape, self.runs, self.check_bc = grid, shape, runs, check_bc
        blocks = [block for _, block in runs]
        # the rows off the runs hold zeros, and min and max propagate nan and reach inf
        gaps = [0.0] if sum(len(b) for b in blocks) < shape[0] else []
        lo = float(np.min([np.min(b) for b in blocks] + gaps))
        hi = float(np.max([np.max(b) for b in blocks] + gaps))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("field contains non-finite samples")
        if check_bc:
            scale = max(hi, -lo, 1.0)  # max |u|
            edge = max([float(np.max(np.abs(b[..., [0, -1]]))) for b in blocks] + gaps)
            if edge > 1e-10 * scale:
                raise ValueError("field must vanish at z = +-ell")
            if lo < -1e-10 * scale:
                raise ValueError("field must be nonnegative")

    @property
    def eps(self):
        return self.grid.eps

    @property
    def values(self) -> np.ndarray:
        """The samples as one array of the field's shape, zero off the runs; built on each access."""
        out = np.zeros(self.shape)
        for a, block in self.runs:
            out[np.arange(a, a + len(block)) % self.shape[0]] = block
        return out


def _check_shape(grid, shape):
    """Refuse a field shape with an axis of neither the grid's length nor the grid's least_shape."""
    if len(shape) != len(grid.shape) or any(m not in pair for m, *pair in zip(shape, grid.shape, grid.least_shape)):
        raise ValueError(f"field shape {shape} does not match grid {grid.shape}")


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

    def body(self):
        """The index of take(x, 2) that is the span."""
        lo = self._pad(2)[0]
        return self._at(slice(lo, lo + self.b - self.a))


def _split(start, stop, count):
    """start .. stop-1 cut into count equal runs, as (a, b) pairs."""
    edges = [start + (stop - start) * i // count for i in range(count + 1)]
    return zip(edges, edges[1:])


def _tiles(runs, periodic, shape):
    """Tiles over the bodies of runs of rows, (start, stop) pairs along axis 0 of shape, as (run, rows, z range).

    A run's body is the run without its 4 outer rows at each end, which
    hold no nonzero sample within the 2 rows the stencils reach: an end at
    the edge of a bounded axis, whose one-sided rows read 5 rows, is not
    trimmed, and a run that is the whole axis is its own body.  A body
    across a periodic seam is tiled as its two parts within 0 .. n-1.  Each
    part is split into equal row chunks of at most _TILE_SAMPLES samples,
    unless 8 rows hold more, and each chunk into equal z ranges of at most
    _TILE_SAMPLES samples, at least 4 z indices each.  Samples are counted
    in shape, the shape the pass's arrays take.  A tile carries the index
    of its run; its row span wraps on a periodic axis 0.
    """
    n, nz = shape[0], shape[-1]
    row = math.prod(shape[1:])
    rows = max(8, _TILE_SAMPLES // row)
    out = []
    for k, (start, stop) in enumerate(runs):
        if stop - start < n:  # the body: the run without its outer rows, kept at a bounded edge
            start += 4 if periodic or start > 0 else 0
            stop -= 4 if periodic or stop < n else 0
        for lo, hi in [(start, min(stop, n)), (max(start, n) - n, stop - n)]:  # the body before and after the seam
            length = hi - lo
            if length <= 0:
                continue
            for a, b in _split(lo, hi, max(1, min(-(-length // rows), length // 8))):
                count = max(1, min(-(-(b - a) * row // _TILE_SAMPLES), nz // 4))
                span = _Span(a, b, n, periodic, 0)
                out += [(k, span, _Span(c, d, nz, False, -1)) for c, d in _split(0, nz, count)]
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

    @property
    def shape(self):
        """The broadcast shape of the curvatures and Lame factors, with a z axis of length 1."""
        return np.broadcast_shapes(*(f.shape for f in self.kappas + self.lames)) + (1,)

    def total(self, partials):
        """The integral from its tile partials: their exactly rounded sum, times prod h_s.

        nan when the partials hold both infinities or their sum passes the
        float range, where fsum raises.
        """
        try:
            return float(math.fsum(partials) * self.cell)
        except (ValueError, OverflowError):
            return math.nan

    def rows(self, span: _Span):
        """Curvatures and Lame factors on a span's rows and the 2 rows either side, with a z axis."""
        return (
            [span.take(k, 2)[..., None] for k in self.kappas],
            [span.take(w, 2)[..., None] for w in self.lames],
        )

    def domain_density(self, eps):
        """The z integral of P at width eps per chart point, at the chart's rank, in closed form.

        P = prod_j w_j * sum_k (eps*z)^k e_k, so its z trapezoid is
        prod_j w_j * sum_k eps^k e_k M_k with M_k = sum_z w_z z^k the
        trapezoid's moments: exact algebra on the same rules.
        """
        z, e = self.grid.z_grid, symmetric_curvatures(self.kappas)
        return math.prod(self.lames) * sum(eps**k * np.sum(self.z_weights * z**k) * e_k for k, e_k in enumerate(e))

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


def _window(field: Field, run, rows: _Span, zs: _Span):
    """A tile's samples with their halo, 2 rows and 2 z indices, taken from the block of its run.

    The rows are numbered from the run's first row.  The run holds the
    halo of each tile of its body, so the window is a view of the block,
    unless the run is a whole periodic axis cut into several tiles: there
    the halo wraps, as it does for the chart factors.
    """
    first, block = field.runs[run]
    a = (rows.a - first) % rows.n
    return _Span(a, a + rows.b - rows.a, len(block), rows.periodic, 0).take(zs.take(block, 2), 2)


class _Tile:
    """The width-free fields of one tile: every stencil pass of u on the tile's body.

    The tile reads u with its halo from the block of its run, the run-th
    of field.runs (_window), a view unless that halo wraps a whole periodic
    axis.  Each stencil of u is formed on the body and the halo of 2 along
    its own axis, and cut to the body: u_z and u_zz on the z range +-2,
    chart axis 0's u_t and u_tt on the body +-2 rows, and those of every
    other chart axis on the whole axis, which a tile never cuts.  The
    chart is held on the body +-2 rows, which the metric coefficient
    d1_s(P/H_0^2) reads: body is their index that is the body, near[axis]
    the part of them an axis's metric stencil reads for the body, and
    inner[axis] the body within near[axis].  u_t and u_tt hold one entry
    per axis of axes: axis 0 and each axis along which u is not held at
    length 1, since along a held axis every stencil of u is exactly 0.
    """

    def __init__(self, chart: _Chart, run: int, rows: _Span, zs: _Span, field: Field):
        self.chart = chart
        dims = chart.geom.chart_dims
        self.axes = [0] + [axis for axis in range(1, dims) if field.shape[axis] > 1]
        self.index = (slice(rows.a, rows.b), Ellipsis, slice(zs.a, zs.b))
        # samples of the whole grid on the tile's body
        self.samples = (rows.b - rows.a) * math.prod(chart.grid.shape[1:-1]) * (zs.b - zs.a)
        self.body = body = rows.body()
        self.near = [slice(None)] + [body] * (dims - 1)
        self.inner = [body] + [slice(None)] * (dims - 1)
        self.kappas, self.lames = chart.rows(rows)
        self.weight = math.prod(self.lames)
        self.z_grid = zs.take(chart.grid.z_grid, 0)
        self.z_weights = zs.take(chart.z_weights, 0)
        ext = _window(field, run, rows, zs)
        z_body, h_z = zs.body(), chart.grid.h_z
        self.u_z = d1_bounded(ext[body], -1, h_z)[z_body]
        self.u_zz = d2_bounded(ext[body], -1, h_z)[z_body]
        ext = ext[z_body]
        self.u = u = ext[body]
        self.u_t = [chart.d1_s(ext, 0)[body]] + [chart.d1_s(u, axis) for axis in self.axes[1:]]
        self.u_tt = [chart.d2_s(ext, 0)[body]] + [chart.d2_s(u, axis) for axis in self.axes[1:]]

    def partial(self, f, density):
        """The tile's part of integral f density ds dz, trapezoid in z, before the chart spacings.

        Each sample of an axis along which f * density has length 1 is
        counted as many times as the grid has samples along it.
        """
        g = f * density
        g *= self.z_weights
        return np.sum(g) * (self.samples // g.size)


class _Metric:
    """The metric at width eps on a tile's rows: 1 + eps*z*kappa_j and P = J * weight."""

    def __init__(self, kappas, weight, z_grid, eps):
        zrow = z_grid.reshape((1,) * (kappas[0].ndim - 1) + (-1,))
        self.one_plus = [1.0 + eps * zrow * k for k in kappas]
        self.P = math.prod(self.one_plus) * weight


def _run_rows(field: Field):
    """The field's runs as (start, stop) row pairs."""
    return [(a, a + len(block)) for a, block in field.runs]


def _each_tile(chart: _Chart, field: Field, visit):
    """visit(tile) for each tile of the field's runs, in order.

    No name holds a tile past its visit, so a pass holds one tile at a time.
    """
    shape = np.broadcast_shapes(field.shape, chart.shape)
    for run, rows, zs in _tiles(_run_rows(field), chart.geom.periodic[0], shape):
        visit(_Tile(chart, run, rows, zs, field))


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
    is 0, so it is not formed; an axis along which u is held has no terms
    at all, since each is a product with a stencil of u, which is 0 there.
    """
    body = b.body
    P = m.P[body]
    # both sums take the broadcast shape of the field's and the metric's arrays
    shape = np.broadcast_shapes(b.u.shape, P.shape)
    lap = np.divide(b.u_zz, eps**2, out=np.empty(shape))
    curv = sum(k[body] / f[body] for k, f in zip(b.kappas, m.one_plus))
    curv = _times(curv, b.u_z)  # curv * u_z / eps
    curv /= eps
    lap += curv
    del curv
    grad_sq = np.divide(b.u_z, eps, out=np.empty(shape))
    grad_sq *= grad_sq
    for axis, t, tt in zip(b.axes, b.u_t, b.u_tt):
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
        for axis, t in zip(b.axes, b.u_t):
            out[axis][b.index] = t / (b.lames[axis][b.body] * m.one_plus[axis][b.body])
        out[-1][b.index] = b.u_z / eps

    _each_tile(_Chart(grid), field, visit)
    return out


def curvilinear_laplacian(field: Field):
    """Ambient Laplacian of the field in tubular coordinates."""
    grid, eps = field.grid, field.eps
    out = np.zeros(grid.shape)

    def visit(b):
        out[b.index] = _width_terms(b, _Metric(b.kappas, b.weight, b.z_grid, eps), eps)[0]

    _each_tile(_Chart(grid), field, visit)
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
    for axis, t, tt in zip(b.axes, b.u_t, b.u_tt):
        w = b.lames[axis]
        w_body = w[b.body]
        u_s = t / w_body
        parts["norm_us_l2", axis] = partial(u_s**2, weight)
        # w^2 u_ss = w d/dt (u_t / w) = u_tt - u_s dw/dt, and dw/dt = 0 where w has length 1
        u_ss = tt if w.shape[axis] == 1 else tt - u_s * b.chart.d1_s(w, axis)[b.body]
        parts["norm_uss_l2", axis] = partial((u_ss / w_body**2) ** 2, weight)
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


def _energy_pass(chart: _Chart, field: Field, eps_list, eta1, eta2, params: WellParams, audit_a1=None):
    """One tile pass over the field's runs for every width: (EnergyReport, audit integral) per width.

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
        _each_tile(chart, field, visit)
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

    _each_tile(_Chart(grid), field, visit)
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
    return tuple(report for report, _ in _energy_pass(_Chart(grid), field, eps_list, eta1, eta2, params))


def fch_energy(field: Field, eta1: float, eta2: float, params: WellParams) -> EnergyReport:
    """Rescaled FCH energy of the field plus all report diagnostics."""
    return fch_energy_sweep(field, (field.eps,), eta1, eta2, params)[0]


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
    _check_eta(eta1, eta2)
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

    chart = _Chart(field.grid)
    ((report, integral),) = _energy_pass(chart, field, (eps,), eta1, eta2, params, audit_a1=a1)
    domain = chart.total(np.broadcast_to(chart.domain_density(eps), field.grid.shape[:-1]).ravel())
    return LowerBoundAudit(
        lhs=report.total,
        rhs=integral - a2 * domain,
        integral=integral,
        a1=float(a1),
        a2=float(a2),
        domain_measure=domain,
    )
