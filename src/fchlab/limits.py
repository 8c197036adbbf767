"""Closed forms of the two thin-domain limits and of the micelle count.

Bilayers tend to the bending-type interface energy G1 (`g1_energy`);
micelle sequences tend to -alpha*(eta1/2 + (2-n)/(2n)*eta2)*sigma_n
(`micelle_limit`).  Profile constants (a*, b*, sigma_n) come in as
arguments, so this module imports no solver.

Counting convention: one embedded micelle carries the unit-sphere area
factor omega = unit_sphere_area(n) on top of the 1-D radial energy, so
hitting the limit above requires N = round(alpha/omega * eps^(1-n))
centers.  N is formed in one place, `micelle_count`, and
`snap_micelle_eps` snaps a width so that it is an exact integer; at
desk-scale widths the count is small enough that naive rounding would
otherwise distort the limit by several percent.  A count past the float
range is formed exactly, so placement refuses it as it refuses any count
it cannot place.
"""

from __future__ import annotations

import math

from .geometry import InterfaceGeom, bending_integral

__all__ = [
    "unit_sphere_area",
    "g1_energy",
    "micelle_limit",
    "check_alpha",
    "micelle_count",
    "snap_micelle_eps",
]


def unit_sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^(n-1) in R^n (2*pi at n=2, 4*pi at n=3)."""
    return 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)


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


def micelle_limit(dim_n: int, alpha: float, eta1: float, eta2: float, sigma_n: float) -> float:
    """Limiting energy of the micelle sequence: -alpha*(eta1/2 + (2-n)/(2n)*eta2)*sigma_n."""
    return -alpha * (0.5 * eta1 + (2.0 - dim_n) / (2.0 * dim_n) * eta2) * sigma_n


def check_alpha(alpha) -> None:
    """Refuse a micelle density coefficient that is not a finite number > 0."""
    if alpha is None or not 0.0 < alpha < math.inf:
        raise ValueError("micelle sequences need alpha > 0")


def micelle_count(alpha, dim_n, eps) -> int:
    """The counting convention: round(alpha/omega * eps^(1-n)) micelles at width eps, exact past the float range."""
    try:
        return round(alpha / unit_sphere_area(dim_n) * eps ** (1 - dim_n))
    except OverflowError:  # eps^(1-n) or the count passes the float range
        from fractions import Fraction  # imports decimal, which no other run needs

        return round(Fraction(alpha) / Fraction(unit_sphere_area(dim_n)) * Fraction(eps) ** (1 - dim_n))


def snap_micelle_eps(alpha: float, dim_n: int, eps: float):
    """Nearest width at which the micelle count is an exact integer.

    Returns (eps_snapped, count) with count = alpha/omega * eps^(1-n), at least 1.
    """
    check_alpha(alpha)
    count = max(1, micelle_count(alpha, dim_n, eps))
    try:
        share = alpha / (unit_sphere_area(dim_n) * count)
    except OverflowError:  # a count past the float range moves eps by less than one part in count
        return eps, count
    eps_snapped = share ** (1.0 / (dim_n - 1))
    return eps_snapped, count
