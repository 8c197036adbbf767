"""Codimension-one interfaces, curvatures, tubular grids, and placement.

Interfaces are supplied as closed-form charts (angle parameters) carrying
an explicit metric weight, since global arc-length coordinates do not
exist on spheres or tori.  Surface integrals always go through the weight:
integral_Gamma f ds = integral_Q f * weight dt.  Principal curvatures are
given in closed form per geometry, and so are kappa_max, the supremum of
max_j |kappa_j| over the interface, and lame_max, the largest Lame factor
of each chart axis, which sets a micelle's default chart spacing.
symmetric_curvatures turns sampled curvatures into their elementary
symmetric functions 1, e_1 = H0 and, on a surface, e_2 = K: the one
source of the total curvature, of the tubular Jacobian
sum_k (eps*z)^k e_k and of the audit's |domain|.  A tubular grid is admissible by one
rule, eps*ell*kappa_max < 1 (check_width): exactly the widths at which the
Jacobian prod_j (1 + eps*z*kappa_j) stays positive for |z| <= ell.  The
paper's constant kappa0 also bounds the curvatures' arc-length
derivatives: it is max(kappa_max, dkappa_max), where dkappa_max is the
closed-form supremum of |d kappa_j / d s_i| per shape, and it feeds only
the uniform-thickness report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._numerics import gauss_legendre
from .errors import InfeasibleModelError, NumericsError, PlacementError

__all__ = [
    "InterfaceGeom",
    "Circle",
    "Ellipse",
    "Sphere",
    "Torus",
    "TubularGrid",
    "check_width",
    "geometry_from_config",
    "jacobian",
    "symmetric_curvatures",
    "total_curvature",
    "bending_integral",
    "place_micelle_centers",
]

# nodes per chart axis of the cached surface rule; curves can afford more
_SURFACE_NODES = 512
_CURVE_NODES = 2048
# intervals of the arc-length table that places micelle centers on curves
_ARCLENGTH_NODES = 16384
# bytes of the largest field TubularGrid.build accepts (float64 samples)
_MAX_FIELD_BYTES = 2**30


class InterfaceGeom:
    """Base class for closed codimension-one interfaces.

    Subclasses provide chart callables; everything here is derived.  All
    chart functions broadcast over numpy arrays of chart coordinates.
    curvatures and lame return each factor at the broadcast shape of the
    coordinates it depends on, so on a sparse chart mesh a factor has
    length 1 along an axis it does not depend on (phi on a sphere or a
    torus).  That axis may only be a periodic one other than axis 0: the
    energy pass tiles axis 0, and along a length-1 axis it forms no c_j,
    which is exact because the periodic stencil of a constant is exactly 0
    (the one-sided rows of a bounded axis are not).  A Field's samples
    follow the same rule, and along such an axis the pass forms no stencil
    of u.
    Instances are immutable after construction and safe to share.
    """

    name: str
    ambient_n: int
    periodic: tuple
    chart_periods: tuple
    # the supremum of max_j |kappa_j| over the interface, in closed form
    kappa_max: float
    # the supremum of max_ij |d kappa_j / d s_i| over the interface, in closed form
    dkappa_max: float
    # per chart axis, the maximum of its Lame factor over the interface, in closed form
    lame_max: tuple

    def curvatures(self, *t):
        raise NotImplementedError

    def lame(self, *t):
        raise NotImplementedError

    def position(self, *t):
        raise NotImplementedError

    def normal(self, *t):
        raise NotImplementedError

    @property
    def chart_dims(self):
        return self.ambient_n - 1

    def metric_weight(self, *t):
        return math.prod(self.lame(*t))

    def offset_position(self, t, z, eps):
        """Ambient position of the tubular point phi(s) + eps*z*n(s)."""
        pos = self.position(*t)
        nrm = self.normal(*t)
        return pos + (eps * np.asarray(z))[..., None] * nrm

    @property
    def kappa0(self):
        """Uniform bound on |kappa_j| and |d kappa_j / d s_i|."""
        return max(self.kappa_max, self.dkappa_max)

    def surface_quadrature(self, n_nodes=512):
        """The chart rule at the chart's rank: (sparse mesh, one 1-D weight array per chart axis).

        integral_Gamma f ds is the sum over the mesh of
        f * metric_weight * prod_k w_k.  The weights hold no metric, so a
        caller forms f and the metric weight at their own rank and never
        needs an array of the rule's full shape (_surface_integrals).
        """
        grids, weights = [], []
        for (per, period) in zip(self.periodic, self.chart_periods):
            if per:
                grids.append(_chart_axis(per, period, n_nodes))
                weights.append(np.full(n_nodes, period / n_nodes))
            else:
                nodes, ww = _nonperiodic_rule(n_nodes)
                grids.append(nodes)
                weights.append(ww)
        return np.meshgrid(*grids, indexing="ij", sparse=True), tuple(weights)

    @cached_property
    def _surface_integrals(self):
        """(|Gamma|, integral of H0^2), each integrand held at its own rank.

        The metric weight takes the rule's weights of every axis along which
        it or H0 varies; an axis along which both have length 1 (phi on a
        sphere or a torus) contributes the sum of its weights as a factor.
        On a curve this is weight * metric elementwise and one np.sum.
        """
        mesh, weights = self.surface_quadrature(_SURFACE_NODES if self.chart_dims > 1 else _CURVE_NODES)
        wq = self.metric_weight(*mesh)
        h0 = total_curvature(self, mesh)
        scale = 1.0
        for axis, w in enumerate(weights):
            if wq.shape[axis] == h0.shape[axis] == 1:
                scale *= np.sum(w)
            else:
                wq = w.reshape([-1 if k == axis else 1 for k in range(len(weights))]) * wq
        return float(np.sum(wq) * scale), float(np.sum(h0 * h0 * wq) * scale)

    @property
    def surface_measure(self):
        return self._surface_integrals[0]

    @cached_property
    def arclength_table(self):
        """(t, s(t)) on 16385 chart nodes of a curve: trapezoid arc length from t = 0."""
        t = np.linspace(0.0, self.chart_periods[0], _ARCLENGTH_NODES + 1)
        cum = _cumulative_trapezoid(self.lame(t)[0], t)
        # every placement on this curve shares the table
        t.flags.writeable = cum.flags.writeable = False
        return t, cum


def _chart_axis(periodic, period, n):
    """n nodes along one chart axis: from 0 with spacing period/n if periodic, else cell midpoints."""
    if periodic:
        return np.arange(n) * (period / n)
    return (np.arange(n) + 0.5) * (period / n)


def _cumulative_trapezoid(f, t):
    """Trapezoid integrals of f from t[0] to each node of t."""
    return np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(t))])


def _nonperiodic_rule(n_nodes):
    # only the sphere polar angle lands here; Gauss-Legendre in cos(theta)
    # integrates the sin(theta) weight exactly through the substitution
    xi, ww = gauss_legendre(n_nodes)
    theta = np.arccos(xi[::-1])
    # weights are for d(xi); the metric weight below contributes rho^2 sin,
    # so divide the sin factor back out
    return theta, ww[::-1] / np.sin(theta)


class Circle(InterfaceGeom):
    """Circle of radius rho in the plane, outward normal."""

    def __init__(self, rho: float):
        if not 0.0 < rho < math.inf:
            raise ValueError("circle radius must be positive and finite")
        self.rho = float(rho)
        self.kappa_max = 1.0 / self.rho
        self.dkappa_max = 0.0
        self.lame_max = (self.rho,)
        self.name = "circle"
        self.ambient_n = 2
        self.periodic = (True,)
        self.chart_periods = (2.0 * math.pi,)

    def curvatures(self, t):
        return (np.full_like(np.asarray(t, dtype=float), 1.0 / self.rho),)

    def lame(self, t):
        return (np.full_like(np.asarray(t, dtype=float), self.rho),)

    def position(self, t):
        t = np.asarray(t, dtype=float)
        return self.rho * np.stack([np.cos(t), np.sin(t)], axis=-1)

    def normal(self, t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.cos(t), np.sin(t)], axis=-1)


class Ellipse(InterfaceGeom):
    """Ellipse (a cos t, b sin t), outward normal."""

    def __init__(self, a: float, b: float):
        if not (0.0 < a < math.inf and 0.0 < b < math.inf):
            raise ValueError("ellipse semi-axes must be positive and finite")
        self.a = float(a)
        self.b = float(b)
        # |kappa| peaks at the tips: a/b^2 at t = 0 and b/a^2 at t = pi/2
        self.kappa_max = max(self.a / self.b / self.b, self.b / self.a / self.a)
        if not math.isfinite(self.kappa_max):
            key, other = ("a", "b") if self.a < self.b else ("b", "a")
            raise ValueError(
                f"ellipse geometry key {key!r} = {getattr(self, key)!r} is too small against "
                f"{other} = {getattr(self, other)!r}: the tip curvature {other}/{key}^2 overflows"
            )
        self.dkappa_max = _ellipse_dkappa_max(max(self.a, self.b), min(self.a, self.b))
        # the speed peaks at the ends of the minor axis
        self.lame_max = (max(self.a, self.b),)
        self.name = "ellipse"
        self.ambient_n = 2
        self.periodic = (True,)
        self.chart_periods = (2.0 * math.pi,)

    def _speed(self, t):
        return np.sqrt((self.a * np.sin(t)) ** 2 + (self.b * np.cos(t)) ** 2)

    def curvatures(self, t):
        t = np.asarray(t, dtype=float)
        return (self.a * self.b / self._speed(t) ** 3,)

    def lame(self, t):
        return (self._speed(np.asarray(t, dtype=float)),)

    def position(self, t):
        t = np.asarray(t, dtype=float)
        return np.stack([self.a * np.cos(t), self.b * np.sin(t)], axis=-1)

    def normal(self, t):
        t = np.asarray(t, dtype=float)
        w = self._speed(t)
        return np.stack([self.b * np.cos(t) / w, self.a * np.sin(t) / w], axis=-1)


def _ellipse_dkappa_max(p, q):
    """sup |d kappa / ds| on the ellipse of semi-axes p >= q; inf where it overflows.

    With t = q/p, c = 1 - t^2 and x the squared sine of the chart angle
    from the long axis's tip, |d kappa / ds| = 3tc sqrt(x(1 - x)) /
    (t^2 + cx)^3 / p^2, which peaks at the small root of
    4cx^2 - (5c + 2t^2)x + t^2 = 0.  Formed in units of p, so that p^2,
    which overflows past p = 1e154, never appears.
    """
    t = q / p
    c = 1.0 - t * t
    big = 5.0 * c + 2.0 * t * t
    x = 2.0 * t * t / (big + math.sqrt(big * big - 16.0 * c * t * t))
    try:
        return 3.0 * t * c * math.sqrt(x * (1.0 - x)) / (t * t + c * x) ** 3 / p / p
    except (OverflowError, ZeroDivisionError):  # the cube underflows to 0 or overflows
        return math.inf


class Sphere(InterfaceGeom):
    """Sphere of radius rho, chart (theta, phi), outward normal."""

    def __init__(self, rho: float):
        if not 0.0 < rho < math.inf:
            raise ValueError("sphere radius must be positive and finite")
        self.rho = float(rho)
        self.kappa_max = 1.0 / self.rho
        self.dkappa_max = 0.0
        # rho sin(theta) peaks at the equator
        self.lame_max = (self.rho, self.rho)
        self.name = "sphere"
        self.ambient_n = 3
        self.periodic = (False, True)
        self.chart_periods = (math.pi, 2.0 * math.pi)

    def curvatures(self, theta, phi):
        theta = np.asarray(theta, dtype=float)
        return (np.full_like(theta, 1.0 / self.rho), np.full_like(theta, 1.0 / self.rho))

    def lame(self, theta, phi):
        theta = np.asarray(theta, dtype=float)
        return (np.full_like(theta, self.rho), self.rho * np.sin(theta))

    def position(self, theta, phi):
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        st, ct = np.sin(theta), np.cos(theta)
        return self.rho * np.stack([st * np.cos(phi), st * np.sin(phi), ct * np.ones_like(phi)], axis=-1)

    def normal(self, theta, phi):
        return self.position(theta, phi) / self.rho


class Torus(InterfaceGeom):
    """Torus with center-circle radius R and tube radius r, outward normal.

    Chart (theta, phi): theta around the tube, phi around the axis.
    """

    def __init__(self, R: float, r: float):
        if not 0.0 < r < R < math.inf:
            raise ValueError("torus radii must be finite and satisfy 0 < r < R")
        self.R = float(R)
        self.r = float(r)
        # 1/r around the tube; |cos(theta)/(R + r cos(theta))| peaks at theta = pi
        self.kappa_max = max(1.0 / self.r, 1.0 / (self.R - self.r))
        # d kappa_2 / ds = -R sin(theta) / (r (R + r cos(theta))^2) along theta, whose
        # peak solves r cos^2 - R cos - 2r = 0; the root in [-1, 0] in its stable form
        cos_peak = -4.0 * self.r / (self.R + math.sqrt(self.R * self.R + 8.0 * self.r * self.r))
        ring = self.R + self.r * cos_peak
        self.dkappa_max = self.R * math.sqrt(1.0 - cos_peak * cos_peak) / (self.r * ring * ring)
        # R + r cos(theta) peaks on the outer equator
        self.lame_max = (self.r, self.R + self.r)
        self.name = "torus"
        self.ambient_n = 3
        self.periodic = (True, True)
        self.chart_periods = (2.0 * math.pi, 2.0 * math.pi)

    def curvatures(self, theta, phi):
        theta = np.asarray(theta, dtype=float)
        return (np.full_like(theta, 1.0 / self.r), np.cos(theta) / (self.R + self.r * np.cos(theta)))

    def lame(self, theta, phi):
        theta = np.asarray(theta, dtype=float)
        return (np.full_like(theta, self.r), self.R + self.r * np.cos(theta))

    def position(self, theta, phi):
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        ring = self.R + self.r * np.cos(theta)
        return np.stack([ring * np.cos(phi), ring * np.sin(phi), self.r * np.sin(theta) * np.ones_like(phi)], axis=-1)

    def normal(self, theta, phi):
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        ct = np.cos(theta)
        return np.stack([ct * np.cos(phi), ct * np.sin(phi), np.sin(theta) * np.ones_like(phi)], axis=-1)


# each shape's class and the config keys of its constructor arguments, in order
_SHAPES = {
    "circle": (Circle, ("rho",)),
    "ellipse": (Ellipse, ("a", "b")),
    "sphere": (Sphere, ("rho",)),
    "torus": (Torus, ("R", "r")),
}


def geometry_from_config(cfg: dict) -> InterfaceGeom:
    """Build a geometry from a config mapping like {"shape": "circle", "rho": 1}.

    Names the first missing key, refuses any key the shape does not use,
    and refuses a value that is not a finite number by its key.
    """
    if not isinstance(cfg, dict):
        raise ValueError("geometry must be a JSON object")
    shape = cfg.get("shape")
    if shape not in _SHAPES:
        raise ValueError(f"unknown shape {shape!r}")
    cls, keys = _SHAPES[shape]
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ValueError(f"{shape} geometry needs key {missing[0]!r}")
    unused = [k for k in cfg if k != "shape" and k not in keys]
    if unused:
        raise ValueError(f"{shape} geometry does not use key {unused[0]!r}")
    for key in keys:
        if isinstance(cfg[key], bool) or not isinstance(cfg[key], (int, float)) or not math.isfinite(cfg[key]):
            raise ValueError(f"{shape} geometry key {key!r} must be a finite number")
    return cls(*(float(cfg[k]) for k in keys))


def symmetric_curvatures(kappas):
    """The elementary symmetric functions [1, e_1, ..., e_m] of m sampled principal curvatures.

    e_1 = H0 is the total curvature and, on a surface, e_2 = K the Gauss
    curvature; the tubular Jacobian prod_j (1 + eps*z*kappa_j) is
    sum_k (eps*z)^k e_k.  e_1 adds the curvatures in order, and each e_k
    has the broadcast shape of the curvatures.
    """
    kappas = [np.asarray(k, dtype=float) for k in kappas]
    out = [np.ones(np.broadcast_shapes(*(k.shape for k in kappas))), kappas[0]]
    for kap in kappas[1:]:
        out = [out[0]] + [e + kap * lower for e, lower in zip(out[1:], out[:-1])] + [kap * out[-1]]
    return out


def total_curvature(geom: InterfaceGeom, t):
    """Total curvature H0(s) = e_1, the sum of the principal curvatures."""
    return symmetric_curvatures(geom.curvatures(*_as_chart(geom, t)))[1]


def _as_chart(geom, t):
    if geom.chart_dims == 1 and not isinstance(t, (tuple, list)):
        return (t,)
    return tuple(t)


def jacobian(geom: InterfaceGeom, t, z, eps: float):
    """Tubular Jacobian prod_j (1 + eps*z*kappa_j), formed as sum_k (eps*z)^k e_k(s).

    e_k are the elementary symmetric functions of the principal curvatures
    (symmetric_curvatures, e_0 = 1).
    """
    ez = eps * np.asarray(z, dtype=float)
    return sum(ez**k * e for k, e in enumerate(symmetric_curvatures(geom.curvatures(*_as_chart(geom, t)))))


def bending_integral(geom: InterfaceGeom) -> float:
    """integral over Gamma of H0(s)^2 ds."""
    return geom._surface_integrals[1]


def check_width(geom: InterfaceGeom, ell: float, eps: float) -> None:
    """Refuse a width at which the tubular map of half-thickness ell degenerates.

    The one admissibility rule of a tubular grid: eps and ell finite and
    positive, and eps*ell*kappa_max < 1.  The Jacobian prod_j (1 + eps*z*kappa_j)
    is then positive for every |z| <= ell and every point of the interface,
    and at a larger width it vanishes where |kappa_j| peaks.  Every
    TubularGrid runs this check when constructed, and fch_energy_sweep runs
    it for each width other than its grid's.  A nan or infinite value is a
    usage error (ValueError) named by its key, not an infeasible model.
    """
    for name, value in (("eps", eps), ("ell", ell)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if ell <= 0.0 or eps <= 0.0:
        raise ValueError("ell and eps must be positive")
    if not eps * ell * geom.kappa_max < 1.0:
        raise InfeasibleModelError(
            f"tubular grid degenerate: eps*ell*kappa_max = {eps * ell * geom.kappa_max:.3f} >= 1"
        )


@dataclass(frozen=True, eq=False)
class TubularGrid:
    """Tensor grid on the rescaled tubular domain Q x [-ell, ell].

    Construction refuses a width at which the Jacobian is not positive on
    the whole domain, eps*ell*kappa_max >= 1, by check_width; so does any
    route to a grid, build or direct construction.
    """

    geom: InterfaceGeom
    ell: float
    eps: float
    s_grids: tuple
    z_grid: np.ndarray

    def __post_init__(self):
        check_width(self.geom, self.ell, self.eps)

    @classmethod
    def build(cls, geom, ell, eps, ns, nz):
        """The grid of ns chart samples and nz z samples on Q x [-ell, ell] at width eps.

        Refuses a grid whose field would take more than _MAX_FIELD_BYTES,
        before anything of its size is allocated, and then a degenerate
        width as construction does.
        """
        if isinstance(ns, int):
            ns = (ns,) * geom.chart_dims
        if len(ns) != geom.chart_dims:
            raise ValueError("ns must match the chart dimension")
        shape = (*ns, nz)
        if min(shape) < 4:
            raise ValueError("at least 4 points per direction required")
        nbytes = 8 * math.prod(shape)
        if nbytes > _MAX_FIELD_BYTES:
            raise ValueError(
                f"{geom.name} grid {'x'.join(map(str, shape))} needs {nbytes} bytes a field, "
                f"above the {_MAX_FIELD_BYTES} bytes allowed"
            )
        grids = tuple(_chart_axis(*axis) for axis in zip(geom.periodic, geom.chart_periods, ns))
        with np.errstate(invalid="ignore"):  # an infinite ell is refused by its key on construction
            z = np.linspace(-ell, ell, nz)
        return cls(geom=geom, ell=float(ell), eps=float(eps), s_grids=grids, z_grid=z)

    @property
    def shape(self):
        return tuple(len(g) for g in self.s_grids) + (len(self.z_grid),)

    @property
    def least_shape(self):
        """The least shape of a field on this grid: 1 on each periodic chart axis past axis 0, the full length elsewhere.

        A field may be held at length 1 along such an axis (energy.Field),
        by the rule the geometry's curvatures and Lame factors follow.
        """
        periodic = (False,) + self.geom.periodic[1:] + (False,)
        return tuple(1 if per else n for n, per in zip(self.shape, periodic))

    @property
    def s_mesh(self):
        return np.meshgrid(*self.s_grids, indexing="ij", sparse=True)

    @property
    def h_s(self):
        return tuple(
            period / len(g) if per else g[1] - g[0]
            for g, per, period in zip(self.s_grids, self.geom.periodic, self.geom.chart_periods)
        )

    @property
    def h_z(self):
        return float(self.z_grid[1] - self.z_grid[0])

    def z_trapezoid_weights(self):
        w = np.full(len(self.z_grid), self.h_z)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


def _halton(count, base):
    """Points 1..count of the base-`base` Halton sequence; finished indices add exact zeros."""
    i, res, f = np.arange(1, count + 1), np.zeros(count), 1.0
    while i.any():
        f /= base
        res += f * (i % base)
        i //= base
    return res


def place_micelle_centers(geom: InterfaceGeom, eps: float, count: int, r0: float):
    """Choose `count` chart points with separation > 2*eps*r0.

    Curves get equal arc-length spacing; surfaces get an area-proportional
    low-discrepancy spread with greedy rejection.  Raises PlacementError
    when the separation constraint cannot be met, reporting how many
    centers fit at this eps.  On a sphere the count is first held to the
    cap-packing bound: a count above it is a PlacementError, and a count
    within it that the spread cannot place is a NumericsError naming both.
    """
    if eps <= 0.0 or r0 <= 0.0:
        raise ValueError("eps and r0 must be positive")
    min_sep = 2.0 * eps * r0
    if geom.chart_dims == 1:
        return _place_on_curve(geom, count, min_sep, eps)
    return _place_on_surface(geom, count, min_sep, eps)


def _curve_points_at_arclength(geom, s_values):
    t_tab, cum = geom.arclength_table
    return np.interp(s_values, cum, t_tab)


def _min_adjacent_chord(geom, t_pts):
    pos = geom.position(t_pts)
    nxt = np.roll(pos, -1, axis=0)
    return float(np.min(np.linalg.norm(pos - nxt, axis=-1))) if len(t_pts) > 1 else np.inf


def _place_on_curve(geom, n_pts, min_sep, eps):
    length = geom.surface_measure
    # a chord is no longer than its arc length/n, so no count above
    # length/min_sep fits; one more absorbs the arc-length table's round-off
    fits = min(n_pts, math.floor(length / min_sep) + 1)
    while True:
        t_pts = _curve_points_at_arclength(geom, np.arange(fits) * (length / fits))
        # on a convex closed curve equal arc spacing attains its minimum
        # pairwise distance at adjacent pairs
        if fits == 1 or _min_adjacent_chord(geom, t_pts) > min_sep:
            break
        fits -= 1
    if fits < n_pts:
        raise PlacementError(
            f"cannot place {n_pts} centers with separation {min_sep:.4g}; "
            f"equal arc-length spacing fits at most {fits} at eps = {eps:.4g}"
        )
    return t_pts.reshape(-1, 1)


def _surface_candidates(geom, count):
    if isinstance(geom, Sphere):
        k = np.arange(count)
        golden = math.pi * (3.0 - math.sqrt(5.0))
        xi = 1.0 - (2.0 * k + 1.0) / count
        theta = np.arccos(np.clip(xi, -1.0, 1.0))
        phi = np.mod(k * golden, 2.0 * math.pi)
        return np.stack([theta, phi], axis=-1)
    # torus and friends: Halton in the chart with an area-equalizing map
    # along the first coordinate
    t_tab = np.linspace(0.0, geom.chart_periods[0], 4097)
    cdf = _cumulative_trapezoid(geom.metric_weight(t_tab, 0.0), t_tab)
    cdf /= cdf[-1]
    u1 = _halton(count, 2)
    u2 = _halton(count, 3)
    theta = np.interp(u1, cdf, t_tab)
    phi = u2 * geom.chart_periods[1]
    return np.stack([theta, phi], axis=-1)


def _greedy_spread(geom, n_pts, min_sep):
    """Greedy rejection over 64*n_pts candidates: (centers or None, how many were accepted).

    Each acceptance refuses every candidate within min_sep of it, itself included.
    """
    cap = 64 * n_pts
    candidates = _surface_candidates(geom, cap)
    pos = geom.position(candidates[:, 0], candidates[:, 1])
    free = np.ones(cap, dtype=bool)
    accepted: list[int] = []
    while len(accepted) < n_pts and free.any():
        i = int(np.argmax(free))
        accepted.append(i)
        free &= np.linalg.norm(pos - pos[i], axis=-1) > min_sep
    if len(accepted) < n_pts:
        return None, len(accepted)
    return candidates[accepted], n_pts


def _cap_packing_bound(rho, min_sep):
    """The most points on a sphere of radius rho that lie pairwise more than min_sep apart.

    Points at chord > min_sep = 2*rho*sin(theta/2) are centres of disjoint
    caps of angular radius theta/2, each of area 2*pi*rho^2*(1 - cos(theta/2)),
    so at most 2 / (1 - cos(theta/2)) of them fit; a chord of 2*rho or more
    leaves room for one.
    """
    if min_sep >= 2.0 * rho:
        return 1
    return math.floor(2.0 / (1.0 - math.cos(math.asin(min_sep / (2.0 * rho)))))


def _place_on_surface(geom, n_pts, min_sep, eps):
    # on a sphere cap packing bounds the count, so a request above the bound
    # builds candidates for the bound only; other surfaces have no bound here
    bound = _cap_packing_bound(geom.rho, min_sep) if isinstance(geom, Sphere) else None
    request = n_pts if bound is None else min(n_pts, bound)
    centers, fits = _greedy_spread(geom, request, min_sep)
    if request == n_pts:
        if centers is not None:
            return centers
        if bound is not None:  # the count may fit: the spread failed, not the request
            raise NumericsError(
                f"the greedy spread placed {fits} of {n_pts} centers with separation {min_sep:.4g} "
                f"at eps = {eps:.4g}, within the cap-packing bound of {bound}"
            )
    # the candidate spread is built from the requested count, so a request
    # for `fits` draws other candidates: walk down to a count whose own
    # request succeeds (one center always does)
    while centers is None and _greedy_spread(geom, fits, min_sep)[0] is None:
        fits -= 1
    above = "" if bound is None else f"cap packing fits at most {bound}; "
    raise PlacementError(
        f"cannot place {n_pts} centers with separation {min_sep:.4g}; "
        f"{above}the greedy spread fits {fits} at eps = {eps:.4g}"
    )
