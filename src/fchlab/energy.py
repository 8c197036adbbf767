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

Integrals run over the field's support plus a halo of 8 chart samples:
along each chart axis, every index within 8 samples of a column holding a
nonzero sample, as one tensor sub-grid (z stays whole, spacings are the
grid's).  This is exact because W(0) = W'(0) = 0: every integrand vanishes
where u and its stencil derivatives do.  The chained chart stencils
u -> u_t -> u_ss reach 4 samples and the one-sided edge rows read 6, so
at every kept sample each stencil operand is either the true neighbour or
an exact zero standing in for one; across a gap between kept indices the
metric stencils only ever multiply an exact-zero u_t.  Only the summation
order changes, so sparse fields agree with the whole-grid sums to
round-off and fully supported fields (every index kept) bit for bit.  An
all-zero field has no support and takes the whole-grid pass, so its report
comes from the same integrals as any other.  The degenerate-metric check
and |domain| in the lower-bound audit still cover the whole grid.

The width eps enters only through the metric.  Samples, stencil spacings
and the flat weight prod_j w_j(t) with the z trapezoid are all in
rescaled chart and z coordinates; eps appears in the factors
1 + eps*z*kappa_j and in the powers of eps in the residual and the
gradient.  So the energy runs as two passes.  The field pass, once per
field, takes the support, u, W and W', u_z, u_zz and each per-axis u_t
and u_tt, and holds them for the whole width schedule, so no stencil of
u runs twice.  Its six flat-weight diagnostics (equipartition defect,
pulse residual and the four norms) are evaluated before the first width
pass, so their temporaries never meet a width's arrays.  The width pass,
once per eps, builds 1 + eps*z*kappa_j, P and the degenerate check, then
runs one loop over the chart axes.  H_j depends on eps, so that loop forms
it there, once per axis, for the three terms that read it: u_tt/H_j^2 and
the metric term c_j*u_t of the Laplacian and (u_t/H_j)^2 of |grad u|^2.
Only one H_j is alive at a time, and the Laplacian, the residual and
|grad u|^2 accumulate in place.  The quadratic, functional and mass
integrals follow.  fch_energy_sweep evaluates one field at a schedule of
widths, each on the same operations and arrays as its own fch_energy
call, so the two agree bit for bit.

All reductions are plain numpy sums in a fixed order, so results are
bit-reproducible for identical inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._stencils import d1_bounded, d1_periodic, d2_bounded, d2_periodic
from .errors import InfeasibleModelError
from .geometry import InterfaceGeom, TubularGrid, bending_integral
from .potential import GrowthConstants, WellParams, eval_well_and_dwell

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
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite samples")
        object.__setattr__(self, "values", vals)
        if self.check_bc:
            scale = max(float(np.max(np.abs(vals))), 1.0)
            if np.max(np.abs(vals[..., 0])) > 1e-10 * scale or np.max(np.abs(vals[..., -1])) > 1e-10 * scale:
                raise ValueError("field must vanish at z = +-ell")
            if np.min(vals) < -1e-10 * scale:
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


# Chained chart stencils (u -> u_t -> u_ss) reach 4 samples, and the one-sided
# edge rows read 6; beyond this many samples from every nonzero column each
# integrand vanishes exactly.
_HALO = 8


def _support(u, geom: InterfaceGeom):
    """Selector of the sub-grid within _HALO chart samples of any nonzero column.

    np.ix_ of the per-axis chart indices; Ellipsis when that is the whole
    grid, so a fully supported field is a view, not a copy, and for an
    all-zero field, which then takes the same pass as any other.
    """
    cols = np.any(u != 0.0, axis=-1)
    if not cols.any():
        return Ellipsis
    index = []
    for axis, periodic in enumerate(geom.periodic):
        n = cols.shape[axis]
        hits = np.flatnonzero(np.any(cols, axis=tuple(a for a in range(cols.ndim) if a != axis)))
        near = (hits[:, None] + np.arange(-_HALO, _HALO + 1)).ravel()
        near = near % n if periodic else near[(near >= 0) & (near < n)]
        index.append(np.unique(near))
    if all(len(i) == n for i, n in zip(index, cols.shape)):
        return Ellipsis
    return np.ix_(*index)


def _integrate(grid: TubularGrid, f, density):
    """integral f density ds dz with trapezoid in z, periodic trapezoid in s."""
    g = f * density
    g *= grid.z_trapezoid_weights()
    return float(np.sum(g) * float(np.prod(grid.h_s)))


class _Chart:
    """Width-free sampling of one grid's chart: Lame factors, flat weight, stencils.

    select picks a sub-grid from any array over the chart, and z with it
    (Ellipsis: the whole grid); z stays whole and the stencils keep the
    grid's spacings.  Curvatures and Lame factors are sampled once on the
    whole chart mesh; whole_kappas keeps the curvatures for each width's
    metric check.
    """

    def __init__(self, grid: TubularGrid, geom: InterfaceGeom, select=Ellipsis):
        mesh = grid.s_mesh
        self.grid = grid
        self.geom = geom
        self.select = select
        self.whole_kappas = [np.asarray(k, dtype=float) for k in geom.curvatures(*mesh)]
        self.kappas = [k[select][..., None] for k in self.whole_kappas]
        self.lames = [np.asarray(w, dtype=float)[select][..., None] for w in geom.lame(*mesh)]
        self.weight = math.prod(self.lames)

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

    def integrate_flat(self, f):
        """integral f weight ds dz (no Jacobian), for the derivative-bound norms."""
        return _integrate(self.grid, f, self.weight)


class _Metric:
    """The metric of a chart at one width: 1 + eps*z*kappa_j and P = J * weight.

    The scale factors H_j = w_j * (1 + eps*z*kappa_j) are not held; scale
    forms one axis's when a term needs it.

    Refuses a metric with 1 + eps*z*kappa <= 0 anywhere on the grid, not
    only on the chart's sub-grid; the factor is linear in z, so its
    minimum over the slab sits at z = +-ell.
    """

    def __init__(self, chart: _Chart, grid: TubularGrid):
        eps = grid.eps
        ends = grid.z_grid[[0, -1]]
        if min(float(np.min(1.0 + eps * ends * k[..., None])) for k in chart.whole_kappas) <= 0.0:
            raise InfeasibleModelError("degenerate tubular metric: 1 + eps*z*kappa <= 0")
        self.chart = chart
        self.grid = grid
        zrow = grid.z_grid.reshape((1,) * chart.geom.chart_dims + (-1,))
        self.one_plus = [1.0 + eps * zrow * k for k in chart.kappas]
        self.P = math.prod(self.one_plus) * chart.weight

    def scale(self, axis):
        """H_j = w_j * (1 + eps*z*kappa_j) along one chart axis."""
        return self.chart.lames[axis] * self.one_plus[axis]

    def integrate(self, f):
        """integral f J weight ds dz."""
        return _integrate(self.grid, f, self.P)


def curvilinear_gradient(field: Field, geom: InterfaceGeom):
    """Gradient components in the frame (T_1, ..., T_{n-1}, n).

    Tangential component j is u_sj / (1 + eps*z*kappa_j) with u_sj the
    arc-length derivative; the normal component is u_z / eps.
    """
    chart = _Chart(field.grid, geom)
    m = _Metric(chart, field.grid)
    u_z, _, u_t, _ = _derivatives(field.values, chart)
    return np.stack([t / m.scale(axis) for axis, t in enumerate(u_t)] + [u_z / field.grid.eps])


def curvilinear_laplacian(field: Field, geom: InterfaceGeom):
    """Ambient Laplacian of the field in tubular coordinates."""
    chart = _Chart(field.grid, geom)
    return _width_terms(_Metric(chart, field.grid), *_derivatives(field.values, chart))[0]


def _derivatives(u, chart: _Chart):
    """u_z, u_zz and the per-axis lists u_t and u_tt: every stencil pass of u."""
    h_z = chart.grid.h_z
    axes = range(chart.geom.chart_dims)
    u_t = [chart.d1_s(u, axis) for axis in axes]
    u_tt = [chart.d2_s(u, axis) for axis in axes]
    return d1_bounded(u, -1, h_z), d2_bounded(u, -1, h_z), u_t, u_tt


def _width_terms(m: _Metric, u_z, u_zz, u_t, u_tt):
    """The Laplacian and |grad u|^2 at the metric's width.

    One loop over the chart axes forms H_j once for the three terms that
    read it: u_tt / H_j^2 and c_j * u_t of the Laplacian and (u_t / H_j)^2
    of the gradient.  Both sums accumulate in place, and each axis's
    temporaries are freed before the next axis.
    """
    chart = m.chart
    eps = m.grid.eps
    lap = u_zz / eps**2
    curv = sum(k / f for k, f in zip(chart.kappas, m.one_plus))
    curv *= u_z  # curv * u_z / eps
    curv /= eps
    lap += curv
    del curv
    grad_sq = u_z / eps
    grad_sq *= grad_sq
    for axis, (t, tt) in enumerate(zip(u_t, u_tt)):
        h = m.scale(axis)
        term = t / h
        term *= term
        grad_sq += term
        h *= h  # H_j^2
        np.divide(tt, h, out=term)
        lap += term
        del term
        np.divide(m.P, h, out=h)  # the metric coefficient P / H_j^2
        term = chart.d1_s(h, axis)
        del h
        term /= m.P
        term *= t
        lap += term
        del term
    return lap, grad_sq


class _FieldPass:
    """The width-free half of the energy of one field: everything but the metric.

    Holds the support's chart, u, W, W', u_z, u_zz and each per-axis u_t
    and u_tt for the whole width schedule, and (on first use) the six
    flat-weight report diagnostics.  The scale factors H_j depend on the
    width, so each width pass forms them one axis at a time.
    """

    def __init__(self, field: Field, geom: InterfaceGeom, params: WellParams):
        self.params = params
        select = _support(field.values, geom)
        self.chart = chart = _Chart(field.grid, geom, select)
        self.u = u = field.values[select]
        self.well, self.dwell = eval_well_and_dwell(u, params)
        self.u_z, self.u_zz, self.u_t, self.u_tt = _derivatives(u, chart)

    @cached_property
    def flat(self):
        """The EnergyReport diagnostics integrated with the flat weight, by field name."""
        chart, u, u_z = self.chart, self.u, self.u_z
        p = self.params.p
        norm_us = 0.0
        norm_uss = 0.0
        for axis, t in enumerate(self.u_t):
            w = chart.lames[axis]
            norm_us += np.sqrt(chart.integrate_flat((t / w) ** 2))
            u_ss = chart.d1_s(t / w, axis) / w
            norm_uss += np.sqrt(chart.integrate_flat(u_ss**2))
        return {
            "equipartition_defect": chart.integrate_flat(np.abs(0.5 * u_z**2 - self.well)),
            "bilayer_residual": float(np.sqrt(chart.integrate_flat((-self.u_zz + self.dwell) ** 2))),
            "norm_u_lp": float(chart.integrate_flat(np.abs(u) ** p) ** (1.0 / p)),
            "norm_uz_l2": float(np.sqrt(chart.integrate_flat(u_z**2))),
            "norm_us_l2": float(norm_us),
            "norm_uss_l2": float(norm_uss),
        }


def _width_pass(fp: _FieldPass, grid: TubularGrid):
    """The metric at grid.eps, the residual -eps*lap(u) + W'(u)/eps and |grad u|^2."""
    m = _Metric(fp.chart, grid)
    eps = grid.eps
    # the Laplacian's array becomes the residual in place
    residual, grad_sq = _width_terms(m, fp.u_z, fp.u_zz, fp.u_t, fp.u_tt)
    residual *= -eps
    residual += fp.dwell / eps
    return m, residual, grad_sq


def _report(fp: _FieldPass, grid: TubularGrid, eta1: float, eta2: float):
    """The energy report at grid.eps, with the width pass it was built from."""
    # the flat diagnostics first, so their temporaries never meet a width pass's arrays
    flat = fp.flat
    m, residual, grad_sq = _width_pass(fp, grid)
    eps = grid.eps
    quadratic = m.integrate(0.5 * residual**2)
    functional = m.integrate(0.5 * eta1 * eps**2 * grad_sq + eta2 * fp.well)
    report = EnergyReport(
        eps=eps,
        total=quadratic - functional,
        quadratic_part=quadratic,
        functional_part=functional,
        mass=m.integrate(fp.u),
        **flat,
    )
    return report, m, residual, grad_sq


def _width_grid(grid: TubularGrid, geom: InterfaceGeom, eps: float) -> TubularGrid:
    """The grid at width eps with this grid's ell, ns and nz; the grid itself at its own width."""
    if eps == grid.eps:
        return grid
    return TubularGrid.build(geom, grid.ell, eps, grid.shape[:-1], grid.shape[-1])


def _check_eta(eta1, eta2):
    if not (np.isfinite(eta1) and np.isfinite(eta2)):
        raise ValueError("eta coefficients must be finite")


def cahn_hilliard_residual(field: Field, geom: InterfaceGeom, params: WellParams):
    """Samplewise -eps*lap(u) + W'(u)/eps, the quantity squared in the energy."""
    out = np.zeros(field.grid.shape)
    fp = _FieldPass(field, geom, params)
    out[fp.chart.select] = _width_pass(fp, field.grid)[1]
    return out


def fch_energy_sweep(
    field: Field, geom: InterfaceGeom, eps_list, eta1: float, eta2: float, params: WellParams
) -> tuple:
    """Rescaled FCH energy of one field's samples at each width of eps_list.

    The samples u(s, z) live on the rescaled slab, so one field serves a
    whole width schedule: the field pass runs once, and only the metric,
    the Laplacian, the residual, |grad u|^2 and the three Jacobian-weighted
    integrals run per width.  Width eps is evaluated on
    TubularGrid.build(geom, ell, eps, ns, nz) with the field grid's ell, ns
    and nz (on the field's own grid at its own width), so TubularGrid.build
    checks every width as it checks any grid.  Returns one EnergyReport per
    width, each equal to fch_energy of the same samples on that grid.
    """
    _check_eta(eta1, eta2)
    grids = [_width_grid(field.grid, geom, eps) for eps in eps_list]
    fp = _FieldPass(field, geom, params)
    return tuple(_report(fp, grid, eta1, eta2)[0] for grid in grids)


def fch_energy(field: Field, geom: InterfaceGeom, eta1: float, eta2: float, params: WellParams) -> EnergyReport:
    """Rescaled FCH energy of the field plus all report diagnostics."""
    return fch_energy_sweep(field, geom, (field.eps,), eta1, eta2, params)[0]


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


def lower_bound_audit(
    field: Field,
    geom: InterfaceGeom,
    eta1: float,
    eta2: float,
    params: WellParams,
    growth: GrowthConstants,
) -> LowerBoundAudit:
    """Check the explicit-constant lower bound on the rescaled energy.

    With A1 = C1*(eta1*p - eta2) - eps^2*eta1^2 and
    A2 = max(0, -(eta1*C4 - eta2*C3)) the energy dominates

        integral { (1/4) R^2 + (eta1 eps^2 / 2)|grad u|^2 + A1 |u|^p } J ds dz
        - A2 * |domain|

    where R is the Cahn-Hilliard residual.  Requires eta2 < p*eta1 and eps
    small enough that A1 > 0.
    """
    eps = field.grid.eps
    p = params.p
    if not eta2 < p * eta1:
        raise InfeasibleModelError("lower bound inapplicable: requires eta2 < p*eta1")
    a1 = growth.c1 * (eta1 * p - eta2) - eps**2 * eta1**2
    if a1 <= 0.0:
        raise InfeasibleModelError("lower bound inapplicable: eps too large for A1 > 0")
    a2 = max(0.0, -(eta1 * growth.c4 - eta2 * growth.c3))

    _check_eta(eta1, eta2)
    fp = _FieldPass(field, geom, params)
    report, m, residual, grad_sq = _report(fp, field.grid, eta1, eta2)
    # |domain| is over the whole grid; the integrand below vanishes off the support
    domain = _Metric(_Chart(field.grid, geom), field.grid).integrate(np.ones(field.grid.shape))
    integral = m.integrate(0.25 * residual**2 + 0.5 * eta1 * eps**2 * grad_sq + a1 * np.abs(fp.u) ** p)
    return LowerBoundAudit(
        lhs=report.total,
        rhs=integral - a2 * domain,
        integral=integral,
        a1=float(a1),
        a2=float(a2),
        domain_measure=domain,
    )
