"""Fourth-order finite-difference stencils used by the energy evaluator.

One 5-point core serves both kinds of axis.  Each derivative order has one
interior row formula, written in place into one C-contiguous output whose
interior rows read their neighbours as slices of the samples.  Only the
two rows at each end differ: periodic axes apply the interior formula to
a small copy of the rows around the seam, and bounded axes (the z axis,
the sphere polar angle) apply one-sided stencils of the same order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["d1_periodic", "d2_periodic", "d1_bounded", "d2_bounded"]


def _d1_rows(out, h, f_m2, f_m1, f_0, f_p1, f_p2):
    # (8 (f_p1 - f_m1) - (f_p2 - f_m2)) / 12h, grouped so that equal
    # neighbors cancel exactly in floating point
    np.subtract(f_p1, f_m1, out=out)
    out *= 8.0
    out -= f_p2 - f_m2
    out /= 12.0 * h


def _d2_rows(out, h, f_m2, f_m1, f_0, f_p1, f_p2):
    # (16 (f_m1 + f_p1) - (f_m2 + f_p2) - 30 f_0) / 12h^2
    np.add(f_m1, f_p1, out=out)
    out *= 16.0
    out -= f_m2 + f_p2
    out -= 30.0 * f_0
    out /= 12.0 * h * h


# one-sided rows for the two samples nearest an end, in units of 1/12h^power;
# integer coefficient tables keep the stencil exact on constants
_D1_EDGE = np.array(
    [
        [-25.0, 48.0, -36.0, 16.0, -3.0],
        [-3.0, -10.0, 18.0, -6.0, 1.0],
    ]
)

_D2_EDGE = np.array(
    [
        [45.0, -154.0, 214.0, -156.0, 61.0, -10.0],
        [10.0, -15.0, -4.0, 14.0, -6.0, 1.0],
    ]
)


def _five_point(f, axis, h, power, periodic):
    """The 5-point stencil of derivative order `power` along `axis`.

    Returns a new C-contiguous array.  A periodic axis wraps: its two rows
    at each end read their neighbours from a copy of the 8 rows n-4 .. n+3
    (mod n) around the seam, and below 4 samples a first neighbour would
    also be a second one.  A bounded axis contracts the one-sided table
    with the first and the reversed last k samples, which needs 6 samples.
    """
    f = np.asarray(f, dtype=float)
    n = f.shape[axis]
    kind, least = ("periodic", 4) if periodic else ("bounded", 6)
    if n < least:
        raise ValueError(f"{kind} stencils need at least {least} samples")
    rows, table = (_d1_rows, _D1_EDGE) if power == 1 else (_d2_rows, _D2_EDGE)

    def at(key):
        index = [slice(None)] * f.ndim
        index[axis] = key
        return tuple(index)

    def neighbours(a, start, stop):
        return [a[at(slice(start + k, stop + k))] for k in range(-2, 3)]

    out = np.empty(f.shape)
    rows(out[at(slice(2, n - 2))], h, *neighbours(f, 2, n - 2))
    if periodic:
        seam = np.take(f, [n - 4, n - 3, n - 2, n - 1, 0, 1, 2, 3], axis=axis)
        rows(out[at(slice(0, 2))], h, *neighbours(seam, 4, 6))
        rows(out[at(slice(n - 2, n))], h, *neighbours(seam, 2, 4))
        return out
    k = table.shape[1]
    head = np.tensordot(table, np.moveaxis(f[at(slice(0, k))], axis, -1), axes=([1], [-1]))
    tail = np.tensordot(table, np.moveaxis(f[at(slice(-1, -k - 1, -1))], axis, -1), axes=([1], [-1]))
    # the last rows see the samples reversed, which flips an odd derivative
    sign = -1.0 if power == 1 else 1.0
    scale = 12.0 * h**power
    for i in range(2):
        out[at(i)] = head[i] / scale
        out[at(-1 - i)] = sign * tail[i] / scale
    return out


def d1_periodic(f, axis, h):
    return _five_point(f, axis, h, 1, periodic=True)


def d2_periodic(f, axis, h):
    return _five_point(f, axis, h, 2, periodic=True)


def d1_bounded(f, axis, h):
    return _five_point(f, axis, h, 1, periodic=False)


def d2_bounded(f, axis, h):
    return _five_point(f, axis, h, 2, periodic=False)
