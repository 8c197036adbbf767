"""Compactly supported single-pulse bilayer profile.

The profile solves U_zz = W'(U) with U and U_z vanishing at the support
edges +-L.  It is constructed from the first integral (1/2)U_z^2 = W(U) by
quadrature in u, not by integrating the ODE through the compacton edge:
the ODE is non-Lipschitz at U = 0 and admits non-unique continuations
there, while the width integral

    z(u) = integral_u^{u_max} dv / sqrt(2 W(v))

is well posed.  Both endpoint singularities are removed by substitutions:
u = t^(2/(2-r)) near u = 0 and u = u_max - y^2 near the peak, after which
the integrands are smooth on closed intervals (the fractional powers cancel
exactly).
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._numerics import ClampedSpline, gauss_legendre, sorted_unique
from .errors import NumericsError
from .potential import (
    MEMO_SIZE,
    WellParams,
    eval_dwell,
    eval_well,
    quadratic_factor,
    quadratic_factor_coeffs,
    smallest_positive_bracket_root,
)

__all__ = [
    "BilayerProfile",
    "peak_amplitude",
    "half_width",
    "solve_profile",
]

_GL_NODES, _GL_WEIGHTS = gauss_legendre(8)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS
# equal cells of each u-space integral (upper and lower segment), and of
# each cumulative width map before the targets are inserted
_N_DENSE = 4096
# the half width on _N_DENSE cells must agree with the rule on half as many
_WIDTH_RTOL = 1e-9
# most half-profile nodes solve_profile accepts
_MAX_SAMPLES = 2**20


def peak_amplitude(params: WellParams) -> float:
    """Peak value u_max of the pulse: smallest positive zero of W above 0.

    W(u_max) = 0 with W'(u_max) < 0; raises InfeasibleWellError when the
    quadratic bracket has no root in (0, u_plus) (tau too large).
    """
    root = smallest_positive_bracket_root(params)
    if eval_dwell(root, params) >= 0.0:
        raise NumericsError("bracket root is not a descending zero of W")
    return root


def _width_integrand_lower(t, params, a):
    # u = t^a; the t-powers of 1/sqrt(2*W) cancel exactly against du
    return a / np.sqrt(2.0 * quadratic_factor(t**a, params))


def _width_integrand_upper(y, params, u_max, qslope):
    # u = u_max - y^2; quad(u_max - y^2) = qslope*y^2 + y^4 exactly
    u = u_max - y * y
    return 2.0 / np.sqrt(2.0 * u**params.r * (qslope + y * y))


def _split(params, u_max):
    a = 2.0 / (2.0 - params.r)
    u_mid = 0.5 * u_max
    t1 = u_mid ** (1.0 / a)
    yy = np.sqrt(u_max - u_mid)
    b_coef, _ = quadratic_factor_coeffs(params)
    qslope = -(2.0 * u_max + b_coef)  # -quad'(u_max) > 0
    if qslope <= 0.0:
        raise NumericsError("degenerate bracket slope at the peak")
    return a, u_mid, t1, yy, qslope


def _gl_panels(f, grid):
    """Integral of f over each cell of grid, 8-point Gauss-Legendre per cell."""
    lo = grid[:-1]
    h = np.diff(grid)
    nodes = lo[:, None] + h[:, None] * _GL_NODES[None, :]
    return h * (f(nodes) @ _GL_WEIGHTS)


def _cumulative_gl(f, grid):
    """Cumulative integral of f from grid[0] along a fine grid, 8-pt GL per cell."""
    out = np.empty_like(grid)
    out[0] = 0.0
    np.cumsum(_gl_panels(f, grid), out=out[1:])
    return out


def _u_integral(params, u_max, lower, upper, cells):
    """integral_0^{t1} lower(t) dt + integral_0^{yy} upper(y) dy on `cells` equal GL cells each.

    The two halves of a u-space integral over (0, u_max) after the
    substitutions of _split; lower takes (t, a), upper takes (y, qslope).
    """
    a, _, t1, yy, qslope = _split(params, u_max)
    v1 = np.sum(_gl_panels(lambda t: lower(t, a), np.linspace(0.0, t1, cells + 1)))
    v2 = np.sum(_gl_panels(lambda y: upper(y, qslope), np.linspace(0.0, yy, cells + 1)))
    return float(v1 + v2)


def half_width(params: WellParams) -> float:
    """Support half-width L = integral_0^{u_max} du / sqrt(2 W(u)).

    Finite because r < 2; it is the total of the profile's dense width map
    (see solve_profile), so it shares the profile's memo.
    """
    return solve_profile(params).half_width_L


def _hermite_trapz(z, f, fp):
    """Corrected trapezoid using exact endpoint derivatives, O(h^4) per cell."""
    h = np.diff(z)
    return float(np.sum(0.5 * h * (f[:-1] + f[1:]) + (h * h / 12.0) * (fp[:-1] - fp[1:])))


@dataclass(frozen=True, eq=False)
class BilayerProfile:
    """Sampled compacton pulse with its shape constants.

    z_samples is strictly increasing on [-L, L] and the profile is even in
    z by construction; a_star and b_star come from independent quadrature
    routes (u-space energy integral vs z-space well integral) and agree to
    quadrature accuracy because of the first integral.
    """

    params: WellParams
    u_max: float
    half_width_L: float
    z_samples: np.ndarray
    u_samples: np.ndarray
    u_prime_samples: np.ndarray
    a_star: float
    b_star: float
    mass_per_length: float
    _dense_z: np.ndarray = field(repr=False, compare=False)
    _dense_u: np.ndarray = field(repr=False, compare=False)
    _interp: ClampedSpline = field(repr=False, compare=False)

    def evaluate(self, z):
        """Profile value at arbitrary z (0 outside the support)."""
        z = np.asarray(z, dtype=float)
        inside = np.abs(z) < self.half_width_L
        out = np.where(inside, self._interp(np.minimum(np.abs(z), self.half_width_L)), 0.0)
        return out if out.ndim else float(out)

    def header_json(self) -> str:
        head = {
            "kind": "bilayer",
            "params": json.loads(self.params.to_json()),
            "u_max": self.u_max,
            "L": self.half_width_L,
            "a_star": self.a_star,
            "b_star": self.b_star,
        }
        return json.dumps(head, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(self.header_json() + "\n")
        buf.write("z,u\n")
        for z, u in zip(self.z_samples, self.u_samples):
            buf.write(f"{z:.17g},{u:.17g}\n")
        return buf.getvalue()


def _build_dense_map(params, u_max, y_targets, t_targets):
    """Dense right-half profile (z ascending from 0 to L) and the width maps at the targets.

    The target nodes are inserted into the cumulative grids so the width
    map is evaluated at them exactly (no interpolation jitter).  The half
    width L is the map's total; it is refused (NumericsError) unless the
    rule on _N_DENSE // 2 equal cells per segment agrees to _WIDTH_RTOL.
    Returns (z_dense, u_dense, cum_b at y_targets, cum_a at t_targets).
    """
    a, _, t1, yy, qslope = _split(params, u_max)

    def lower(t, a):
        return _width_integrand_lower(t, params, a)

    def upper(y, qslope):
        return _width_integrand_upper(y, params, u_max, qslope)

    y_grid = sorted_unique(np.concatenate([np.linspace(0.0, yy, _N_DENSE + 1), y_targets]))
    cum_b = _cumulative_gl(lambda y: upper(y, qslope), y_grid)
    b_total = cum_b[-1]

    t_grid = sorted_unique(np.concatenate([np.linspace(0.0, t1, _N_DENSE + 1), t_targets]))
    cum_a = _cumulative_gl(lambda t: lower(t, a), t_grid)
    a_total = cum_a[-1]

    total = b_total + a_total
    coarse = _u_integral(params, u_max, lower, upper, _N_DENSE // 2)
    if not np.isfinite(total) or abs(total - coarse) > _WIDTH_RTOL * abs(total):
        raise NumericsError(f"width quadrature did not converge: {total} on {_N_DENSE} cells, {coarse} on half")

    # upper segment: z = cum_b(y), u = u_max - y^2 (z ascending, u descending)
    z_up = cum_b
    u_up = u_max - y_grid**2
    # lower segment: z = b_total + a_total - cum_a(t), u = t^a; traverse t
    # descending so z ascends from z_mid to L
    z_lo = (total - cum_a)[::-1]
    u_lo = (t_grid**a)[::-1]

    z_dense = np.concatenate([z_up, z_lo[1:]])
    u_dense = np.concatenate([u_up, u_lo[1:]])
    return z_dense, u_dense, cum_b[np.searchsorted(y_grid, y_targets)], cum_a[np.searchsorted(t_grid, t_targets)]


def _sqrtW_integral(params, u_max):
    """integral_0^{u_max} sqrt(W(u)) du via the same substitutions."""
    expo = 2.0 * params.r / (2.0 - params.r)

    def lower(t, a):
        return a * t**expo * np.sqrt(quadratic_factor(t**a, params))

    def upper(y, qslope):
        u = u_max - y * y
        return 2.0 * y * y * u ** (0.5 * params.r) * np.sqrt(qslope + y * y)

    return _u_integral(params, u_max, lower, upper, _N_DENSE)


def _mass_integral_u(params, u_max):
    """integral_{-L}^{L} U dz = 2 integral_0^{u_max} u / sqrt(2W) du."""

    def lower(t, a):
        return _width_integrand_lower(t, params, a) * t**a

    def upper(y, qslope):
        return _width_integrand_upper(y, params, u_max, qslope) * (u_max - y * y)

    return 2.0 * _u_integral(params, u_max, lower, upper, _N_DENSE)


@lru_cache(maxsize=MEMO_SIZE)
def solve_profile(params: WellParams, samples: int = 512) -> BilayerProfile:
    """Construct the bilayer pulse on [-L, L].

    samples is the number of half-profile nodes, 32 to 2^20 (graded
    toward both the support edge and the peak); the mirrored output
    carries 2*samples - 1 samples.  a_star = sqrt(2) * integral sqrt(W) du and b_star =
    integral W(U(z)) dz are filled by independent quadratures.
    """
    if samples < 32:
        raise ValueError("samples must be at least 32")
    if samples > _MAX_SAMPLES:
        raise ValueError(f"samples = {samples} is above the {_MAX_SAMPLES} allowed")
    u_max = peak_amplitude(params)

    # graded public nodes: Chebyshev clustering at u = 0 and u = u_max
    theta = np.linspace(0.0, np.pi, samples)
    u_nodes = u_max * 0.5 * (1.0 - np.cos(theta))
    a, u_mid, *_ = _split(params, u_max)
    hi = u_nodes >= u_mid
    y_targets = np.sqrt(np.maximum(u_max - u_nodes[hi], 0.0))
    t_targets = u_nodes[~hi] ** (1.0 / a)

    z_dense, u_dense, cum_b, cum_a = _build_dense_map(params, u_max, y_targets, t_targets)
    length = float(z_dense[-1])

    # z(u) at the nodes, read off the cumulative maps where they were inserted
    z_nodes = np.empty_like(u_nodes)
    z_nodes[hi] = cum_b
    z_nodes[~hi] = length - cum_a
    z_nodes[0] = length
    z_nodes[-1] = 0.0

    # u ascending means z descending; flip to ascend in z, then mirror
    z_half = z_nodes[::-1]
    u_half = u_nodes[::-1]
    z_samples = np.concatenate([-z_half[::-1], z_half[1:]])
    u_samples = np.concatenate([u_half[::-1], u_half[1:]])
    w_samples = eval_well(u_samples, params)
    u_prime = -np.sign(z_samples) * np.sqrt(np.maximum(2.0 * w_samples, 0.0))

    a_star = np.sqrt(2.0) * _sqrtW_integral(params, u_max)

    # z-space route for b_star: corrected trapezoid on the dense half grid
    # with exact derivatives d/dz W(U) = W'(U) U_z from the first integral
    w_dense = eval_well(u_dense, params)
    uz_dense = -np.sqrt(np.maximum(2.0 * w_dense, 0.0))
    b_star = 2.0 * _hermite_trapz(z_dense, w_dense, eval_dwell(u_dense, params) * uz_dense)

    mass_z = 2.0 * _hermite_trapz(z_dense, u_dense, uz_dense)

    return BilayerProfile(
        params=params,
        u_max=u_max,
        half_width_L=length,
        z_samples=z_samples,
        u_samples=u_samples,
        u_prime_samples=u_prime,
        a_star=float(a_star),
        b_star=float(b_star),
        mass_per_length=float(mass_z),
        _dense_z=z_dense,
        _dense_u=u_dense,
        _interp=ClampedSpline(z_dense, u_dense, 0.0, 0.0),
    )


def mass_per_length_u_route(params: WellParams) -> float:
    """Mass integral computed in u-space, for cross-checking the z route."""
    u_max = peak_amplitude(params)
    return _mass_integral_u(params, u_max)
