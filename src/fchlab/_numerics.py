"""Quadrature and interpolation kernels on numpy alone.

- gauss_legendre: nodes and weights by Newton's method on the three-term
  Legendre recurrence, with no eigenvalue solve.
- ClampedSpline: the cubic spline with prescribed end slopes.  It follows
  scipy.interpolate.CubicSpline step for step: the tridiagonal slope system
  is solved by the elimination of LAPACK's dgtsv (partial pivoting by row
  interchange), the Hermite coefficients are formed as CubicHermiteSpline
  forms them, and PPoly's power sum evaluates them.
- simpson: composite Simpson on an odd number of samples at arbitrary
  spacing, scipy.integrate.simpson's formula for that case.

The spline and Simpson follow scipy's algorithms (Copyright (c) 2001-2002
Enthought, Inc. 2003, SciPy Developers; BSD-3-Clause, whose full notice is
reproduced in fchlab/_ode.py), so on the same inputs they return the same
floats.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["gauss_legendre", "ClampedSpline", "simpson"]


def _legendre_pair(n, x):
    """(P_n(x), P_(n-1)(x)) by the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, p_prev


def gauss_legendre(n: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], n >= 2.

    Newton's method on P_n starts from the asymptotic nodes
    cos(pi (k - 1/4) / (n + 1/2)) and stops once no node moves by more
    than 1e-16; the weights are 2 / ((1 - x^2) P_n'(x)^2) at the converged
    nodes.  The rule is symmetrised about 0.
    """
    if n < 2:
        raise ValueError("a Gauss-Legendre rule needs at least 2 nodes")
    k = np.arange(n, 0, -1)
    x = np.cos(math.pi * (k - 0.25) / (n + 0.5))
    for _ in range(100):
        p, p_prev = _legendre_pair(n, x)
        dp = n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-16:
            break
    else:
        raise ArithmeticError(f"Gauss-Legendre Newton iteration did not converge for n = {n}")
    p, p_prev = _legendre_pair(n, x)
    one_minus_x2 = (1.0 - x) * (1.0 + x)
    dp = n * (p_prev - x * p) / one_minus_x2
    w = 2.0 / (one_minus_x2 * dp * dp)
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


def _solve_tridiagonal(dl, d, du, b):
    """Solve the tridiagonal system (sub-, main, super-diagonal) as LAPACK dgtsv does."""
    dl, d, du, b = (list(map(float, v)) for v in (dl, d, du, b))
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            # no row interchange
            if d[i] == 0.0:
                raise ZeroDivisionError("singular tridiagonal system")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            # interchange rows i and i + 1
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            temp = b[i]
            b[i] = b[i + 1]
            b[i + 1] = temp - fact * b[i + 1]
    if d[n - 1] == 0.0:
        raise ZeroDivisionError("singular tridiagonal system")
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return np.array(b)


class ClampedSpline:
    """C^2 cubic interpolant of (x, y) with end slopes (slope_start, slope_end).

    x must be strictly increasing with at least 3 nodes.  Points outside
    [x[0], x[-1]] extrapolate the end pieces.
    """

    def __init__(self, x, y, slope_start: float, slope_end: float):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = len(x)
        if n < 3 or y.shape != x.shape:
            raise ValueError("a clamped spline needs matching x and y with at least 3 nodes")
        dx = np.diff(x)
        if np.any(dx <= 0.0):
            raise ValueError("spline nodes must be strictly increasing")
        slope = np.diff(y) / dx
        # node slopes s: s[0] and s[-1] prescribed, interior rows
        # dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1] = rhs[i]
        diag = np.empty(n)
        diag[0] = diag[-1] = 1.0
        diag[1:-1] = 2.0 * (dx[:-1] + dx[1:])
        upper = np.empty(n - 1)
        upper[0] = 0.0
        upper[1:] = dx[:-1]
        lower = np.empty(n - 1)
        lower[:-1] = dx[1:]
        lower[-1] = 0.0
        rhs = np.empty(n)
        rhs[0] = slope_start
        rhs[-1] = slope_end
        rhs[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        s = _solve_tridiagonal(lower, diag, upper, rhs)
        t = (s[:-1] + s[1:] - 2.0 * slope) / dx
        self.x = x
        # piece i: c0 (x - x_i)^3 + c1 (x - x_i)^2 + c2 (x - x_i) + c3
        self._c0 = t / dx
        self._c1 = (slope - s[:-1]) / dx - t
        self._c2 = s[:-1]
        self._c3 = y[:-1]

    def __call__(self, xv):
        xv = np.asarray(xv, dtype=float)
        i = np.clip(np.searchsorted(self.x, xv, side="right") - 1, 0, len(self.x) - 2)
        s = xv - self.x[i]
        s2 = s * s
        return ((self._c3[i] + self._c2[i] * s) + self._c1[i] * s2) + self._c0[i] * (s2 * s)


def simpson(y, x) -> float:
    """Composite Simpson integral of samples y at strictly increasing x (odd count)."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n = len(y)
    if n < 3 or n % 2 == 0 or x.shape != y.shape:
        raise ValueError("simpson needs an odd number (>= 3) of samples matching x")
    h = np.diff(x)
    h0 = h[0 : n - 2 : 2]
    h1 = h[1 : n - 1 : 2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    tmp = (
        hsum
        / 6.0
        * (
            y[0 : n - 2 : 2] * (2.0 - 1.0 / h0divh1)
            + y[1 : n - 1 : 2] * (hsum * (hsum / hprod))
            + y[2:n:2] * (2.0 - h0divh1)
        )
    )
    return float(np.sum(tmp))
