"""Codimension-one interfaces, curvatures, tubular grids, and placement.

Interfaces are supplied as closed-form charts (angle parameters) carrying
an explicit metric weight, since global arc-length coordinates do not
exist on spheres or tori.  Surface integrals always go through the weight:
integral_Gamma f ds = integral_Q f * weight dt.  Principal curvatures are
given in closed form per geometry; the uniform bound kappa0 covers both
the curvatures and their arc-length derivatives on a validation grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._numerics import gauss_legendre
from .errors import InfeasibleModelError, PlacementError

__all__ = [
    "InterfaceGeom",
    "Circle",
    "Ellipse",
    "Sphere",
    "Torus",
    "TubularGrid",
    "geometry_from_config",
    "jacobian",
    "gaussian_curvature_sums",
    "total_curvature",
    "bending_integral",
    "place_micelle_centers",
    "validate_uniform_thickness",
    "uniform_thickness_ok",
]

_VALIDATION_NODES = 512
# nodes per chart axis of the cached surface rule; curves can afford more
_SURFACE_NODES = 512
_CURVE_NODES = 2048
# intervals of the arc-length table that places micelle centers on curves
_ARCLENGTH_NODES = 16384


class InterfaceGeom:
    """Base class for closed codimension-one interfaces.

    Subclasses provide chart callables; everything here is derived.  All
    chart functions broadcast over numpy arrays of chart coordinates.
    Instances are immutable after construction and safe to share.
    """

    name: str
    ambient_n: int
    periodic: tuple
    chart_periods: tuple

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

    @cached_property
    def kappa0(self):
        """Uniform bound on |kappa_j| and |d kappa_j / d s_i|."""
        axes = [_chart_axis(per, period, _VALIDATION_NODES) for per, period in zip(self.periodic, self.chart_periods)]
        mesh = np.meshgrid(*axes, indexing="ij")
        kappas = self.curvatures(*mesh)
        lames = self.lame(*mesh)
        bound = 0.0
        for kap in kappas:
            kap = np.broadcast_to(kap, mesh[0].shape)
            bound = max(bound, float(np.max(np.abs(kap))))
            for axis, (w, period) in enumerate(zip(lames, self.chart_periods)):
                h = period / _VALIDATION_NODES
                dk_dt = _periodic_or_interior_gradient(kap, axis, h, self.periodic[axis])
                w = np.broadcast_to(np.asarray(w, dtype=float), mesh[0].shape)
                bound = max(bound, float(np.max(np.abs(dk_dt / w))))
        return bound

    def surface_quadrature(self, n_nodes=512):
        """Quadrature (mesh tuple, weights) with weights including the metric."""
        grids, wlists = [], []
        for (per, period) in zip(self.periodic, self.chart_periods):
            if per:
                grids.append(_chart_axis(per, period, n_nodes))
                wlists.append(np.full(n_nodes, period / n_nodes))
            else:
                nodes, ww = _nonperiodic_rule(self, period, n_nodes)
                grids.append(nodes)
                wlists.append(ww)
        mesh = np.meshgrid(*grids, indexing="ij")
        wq = np.ones(mesh[0].shape)
        for axis, ww in enumerate(wlists):
            shape = [1] * len(wlists)
            shape[axis] = -1
            wq = wq * ww.reshape(shape)
        wq = wq * self.metric_weight(*mesh)
        return mesh, wq

    @cached_property
    def surface_rule(self):
        """(mesh, weights, H0) of the quadrature behind every integral over Gamma."""
        mesh, wq = self.surface_quadrature(_SURFACE_NODES if self.chart_dims > 1 else _CURVE_NODES)
        rule = (*mesh, wq, total_curvature(self, mesh))
        # every caller, a*/b* callables included, shares these arrays
        for arr in rule:
            arr.flags.writeable = False
        return mesh, wq, rule[-1]

    @cached_property
    def surface_measure(self):
        return float(np.sum(self.surface_rule[1]))

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


def _periodic_or_interior_gradient(f, axis, h, periodic):
    if periodic:
        return (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis)) / (2.0 * h)
    return np.gradient(f, h, axis=axis)


def _nonperiodic_rule(geom, period, n_nodes):
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
        if rho <= 0.0:
            raise ValueError("circle radius must be positive")
        self.rho = float(rho)
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
        if a <= 0.0 or b <= 0.0:
            raise ValueError("ellipse semi-axes must be positive")
        self.a = float(a)
        self.b = float(b)
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


class Sphere(InterfaceGeom):
    """Sphere of radius rho, chart (theta, phi), outward normal."""

    def __init__(self, rho: float):
        if rho <= 0.0:
            raise ValueError("sphere radius must be positive")
        self.rho = float(rho)
        self.name = "sphere"
        self.ambient_n = 3
        self.periodic = (False, True)
        self.chart_periods = (math.pi, 2.0 * math.pi)

    def curvatures(self, theta, phi):
        shape = np.broadcast(np.asarray(theta), np.asarray(phi)).shape
        k = np.full(shape, 1.0 / self.rho)
        return (k, k.copy())

    def lame(self, theta, phi):
        theta = np.asarray(theta, dtype=float)
        shape = np.broadcast(theta, np.asarray(phi)).shape
        return (np.full(shape, self.rho), np.broadcast_to(self.rho * np.sin(theta), shape).copy())

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
        if not 0.0 < r < R:
            raise ValueError("torus radii must satisfy 0 < r < R")
        self.R = float(R)
        self.r = float(r)
        self.name = "torus"
        self.ambient_n = 3
        self.periodic = (True, True)
        self.chart_periods = (2.0 * math.pi, 2.0 * math.pi)

    def curvatures(self, theta, phi):
        theta = np.asarray(theta, dtype=float)
        shape = np.broadcast(theta, np.asarray(phi)).shape
        k1 = np.full(shape, 1.0 / self.r)
        k2 = np.broadcast_to(np.cos(theta) / (self.R + self.r * np.cos(theta)), shape).copy()
        return (k1, k2)

    def lame(self, theta, phi):
        theta = np.asarray(theta, dtype=float)
        shape = np.broadcast(theta, np.asarray(phi)).shape
        return (np.full(shape, self.r), np.broadcast_to(self.R + self.r * np.cos(theta), shape).copy())

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


def geometry_from_config(cfg: dict) -> InterfaceGeom:
    """Build a geometry from a config mapping like {"shape": "circle", "rho": 1}."""
    shape = cfg.get("shape")
    if shape == "circle":
        return Circle(cfg["rho"])
    if shape == "ellipse":
        return Ellipse(cfg["a"], cfg["b"])
    if shape == "sphere":
        return Sphere(cfg["rho"])
    if shape == "torus":
        return Torus(cfg["R"], cfg["r"])
    raise ValueError(f"unknown shape {shape!r}")


def total_curvature(geom: InterfaceGeom, t):
    """Total curvature H0(s) = sum of principal curvatures."""
    kappas = geom.curvatures(*_as_chart(geom, t))
    out = kappas[0].astype(float, copy=True)
    for kap in kappas[1:]:
        out = out + kap
    return out


def _as_chart(geom, t):
    if geom.chart_dims == 1 and not isinstance(t, (tuple, list)):
        return (t,)
    return tuple(t)


def jacobian(geom: InterfaceGeom, t, z, eps: float):
    """Tubular Jacobian: product of (1 + eps*z*kappa_j), i.e. the polynomial
    sum over j of eps^j K_j(s) z^j with K_j the elementary symmetric
    functions of the principal curvatures (K_0 = 1)."""
    kappas = geom.curvatures(*_as_chart(geom, t))
    z = np.asarray(z, dtype=float)
    out = None
    for kap in kappas:
        factor = 1.0 + eps * z * kap
        out = factor if out is None else out * factor
    return out


def gaussian_curvature_sums(geom: InterfaceGeom, t):
    """[K_0, K_1, ..., K_{n-1}]: elementary symmetric functions of the kappas."""
    kappas = geom.curvatures(*_as_chart(geom, t))
    sums = [np.ones_like(np.asarray(kappas[0], dtype=float))]
    for kap in kappas:
        new = []
        for j in range(len(sums) + 1):
            term = sums[j] if j < len(sums) else 0.0
            if j > 0:
                term = term + sums[j - 1] * kap
            new.append(term)
        sums = new
    return sums


def bending_integral(geom: InterfaceGeom) -> float:
    """integral over Gamma of H0(s)^2 ds."""
    _, wq, h0 = geom.surface_rule
    return float(np.sum(h0 * h0 * wq))


def validate_uniform_thickness(geom: InterfaceGeom, ell: float):
    """Enforce ell < 1/(2*kappa0), the uniform-in-eps thickness hypothesis."""
    if not ell * geom.kappa0 < 0.5:
        raise InfeasibleModelError(
            f"half-thickness ell={ell} violates ell < 1/(2*kappa0) = {0.5 / geom.kappa0}"
        )


def uniform_thickness_ok(geom: InterfaceGeom, ell: float) -> bool:
    try:
        validate_uniform_thickness(geom, ell)
    except InfeasibleModelError:
        return False
    return True


@dataclass(frozen=True, eq=False)
class TubularGrid:
    """Tensor grid on the rescaled tubular domain Q x [-ell, ell].

    The hard validity requirement is positivity of the Jacobian on the
    grid, eps*ell*kappa0 < 1.  The stronger uniform hypothesis
    ell*kappa0 < 1/2 is tracked separately (uniform_thickness flag) because
    wide compactons need ell beyond it on strongly curved interfaces.
    """

    geom: InterfaceGeom
    ell: float
    eps: float
    s_grids: tuple
    z_grid: np.ndarray

    @classmethod
    def build(cls, geom, ell, eps, ns, nz):
        if ell <= 0.0 or eps <= 0.0:
            raise ValueError("ell and eps must be positive")
        if not eps * ell * geom.kappa0 < 1.0:
            raise InfeasibleModelError(
                f"tubular grid degenerate: eps*ell*kappa0 = {eps * ell * geom.kappa0:.3f} >= 1"
            )
        if isinstance(ns, int):
            ns = (ns,) * geom.chart_dims
        if len(ns) != geom.chart_dims:
            raise ValueError("ns must match the chart dimension")
        grids = []
        for n_i, per, period in zip(ns, geom.periodic, geom.chart_periods):
            if n_i < 4:
                raise ValueError("at least 4 points per direction required")
            grids.append(_chart_axis(per, period, n_i))
        if nz < 4:
            raise ValueError("at least 4 points per direction required")
        z = np.linspace(-ell, ell, nz)
        return cls(geom=geom, ell=float(ell), eps=float(eps), s_grids=tuple(grids), z_grid=z)

    @property
    def shape(self):
        return tuple(len(g) for g in self.s_grids) + (len(self.z_grid),)

    @property
    def s_mesh(self):
        return np.meshgrid(*self.s_grids, indexing="ij")

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

    @property
    def uniform_thickness(self) -> bool:
        return uniform_thickness_ok(self.geom, self.ell)


def _halton(index, base):
    res, f = 0.0, 1.0
    i = index
    while i > 0:
        f /= base
        res += f * (i % base)
        i //= base
    return res


def place_micelle_centers(geom: InterfaceGeom, eps: float, alpha: float, r0: float):
    """Choose N = round(alpha * eps^(1-n)) chart points with separation > 2*eps*r0.

    Curves get equal arc-length spacing; surfaces get an area-proportional
    low-discrepancy spread with greedy rejection.  Raises PlacementError
    when the separation constraint cannot be met, reporting how many
    centers fit at this eps (counts, not densities: a caller's alpha may
    be scaled before it gets here).
    """
    if eps <= 0.0 or r0 <= 0.0:
        raise ValueError("eps and r0 must be positive")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    n_amb = geom.ambient_n
    n_pts = int(round(alpha * eps ** (1 - n_amb)))
    if n_pts < 1:
        raise PlacementError(f"the requested density rounds to 0 centers at eps = {eps:.4g}")
    min_sep = 2.0 * eps * r0

    if geom.chart_dims == 1:
        return _place_on_curve(geom, n_pts, min_sep, eps)
    return _place_on_surface(geom, n_pts, min_sep, eps)


def _curve_points_at_arclength(geom, s_values):
    t_tab, cum = geom.arclength_table
    return np.interp(s_values, cum, t_tab)


def _min_adjacent_chord(geom, t_pts):
    pos = geom.position(t_pts)
    nxt = np.roll(pos, -1, axis=0)
    return float(np.min(np.linalg.norm(pos - nxt, axis=-1))) if len(t_pts) > 1 else np.inf


def _place_on_curve(geom, n_pts, min_sep, eps):
    length = geom.surface_measure
    s_values = np.arange(n_pts) * (length / n_pts)
    t_pts = _curve_points_at_arclength(geom, s_values)
    # on a convex closed curve equal arc spacing attains its minimum
    # pairwise distance at adjacent pairs
    if _min_adjacent_chord(geom, t_pts) <= min_sep:
        n_max = n_pts
        while n_max > 1:
            n_max -= 1
            trial = _curve_points_at_arclength(geom, np.arange(n_max) * (length / n_max))
            if _min_adjacent_chord(geom, trial) > min_sep:
                break
        raise PlacementError(
            f"cannot place {n_pts} centers with separation {min_sep:.4g}; "
            f"equal arc-length spacing fits at most {n_max} at eps = {eps:.4g}"
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
    u1 = np.array([_halton(i + 1, 2) for i in range(count)])
    u2 = np.array([_halton(i + 1, 3) for i in range(count)])
    theta = np.interp(u1, cdf, t_tab)
    phi = u2 * geom.chart_periods[1]
    return np.stack([theta, phi], axis=-1)


def _greedy_spread(geom, n_pts, min_sep):
    """Greedy rejection over 64*n_pts candidates: (centers or None, how many were accepted)."""
    cap = 64 * n_pts
    candidates = _surface_candidates(geom, cap)
    pos = geom.position(candidates[:, 0], candidates[:, 1])
    accepted: list[int] = []
    acc_pos = np.empty((0, geom.ambient_n))
    for i in range(cap):
        if acc_pos.shape[0]:
            if np.min(np.linalg.norm(acc_pos - pos[i], axis=-1)) <= min_sep:
                continue
        accepted.append(i)
        acc_pos = np.vstack([acc_pos, pos[i]])
        if len(accepted) == n_pts:
            return candidates[accepted], n_pts
    return None, len(accepted)


def _place_on_surface(geom, n_pts, min_sep, eps):
    centers, fits = _greedy_spread(geom, n_pts, min_sep)
    if centers is not None:
        return centers
    # the candidate spread is built from the requested count, so a request
    # for `fits` draws other candidates: walk down to a count whose own
    # request succeeds (one center always does)
    while _greedy_spread(geom, fits, min_sep)[0] is None:
        fits -= 1
    raise PlacementError(
        f"cannot place {n_pts} centers with separation {min_sep:.4g}; "
        f"the greedy spread fits {fits} at eps = {eps:.4g}"
    )
