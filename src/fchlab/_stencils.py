"""Fourth-order finite-difference stencils used by the energy evaluator.

Periodic directions use centered differences written into one output
array: interior rows read their neighbours as slices of the samples, and
the two rows at each end read them from a small copy of the rows around
the seam.  Bounded directions (the z axis, the sphere polar angle) switch
to one-sided stencils of the same order on the two layers nearest each
end.
"""

from __future__ import annotations

import numpy as np

__all__ = ["d1_periodic", "d2_periodic", "d1_bounded", "d2_bounded"]


def _periodic(f, axis, rows):
    """A 5-point stencil along a periodic axis, as a new C-contiguous array.

    rows(out, f_m2, f_m1, f_0, f_p1, f_p2) writes a block of rows from
    their neighbours f[i-2] .. f[i+2].  Interior rows read them as slices
    of f; the two rows at each end read them from a copy of the 8 rows
    n-4 .. n+3 (mod n) around the seam.  Below 4 samples a first neighbour
    would also be a second one.
    """
    f = np.asarray(f, dtype=float)
    n = f.shape[axis]
    if n < 4:
        raise ValueError("periodic stencils need at least 4 samples")

    def along(a, start, stop):
        index = [slice(None)] * a.ndim
        index[axis] = slice(start, stop)
        return a[tuple(index)]

    def neighbours(a, start, stop):
        return [along(a, start + k, stop + k) for k in range(-2, 3)]

    out = np.empty(f.shape)
    rows(along(out, 2, n - 2), *neighbours(f, 2, n - 2))
    seam = np.take(f, [n - 4, n - 3, n - 2, n - 1, 0, 1, 2, 3], axis=axis)
    rows(along(out, 0, 2), *neighbours(seam, 4, 6))
    rows(along(out, n - 2, n), *neighbours(seam, 2, 4))
    return out


def d1_periodic(f, axis, h):
    def rows(out, f_m2, f_m1, f_0, f_p1, f_p2):
        # (8 (f_p1 - f_m1) - (f_p2 - f_m2)) / 12h, grouped so that equal
        # neighbors cancel exactly in floating point
        np.subtract(f_p1, f_m1, out=out)
        out *= 8.0
        out -= f_p2 - f_m2
        out /= 12.0 * h

    return _periodic(f, axis, rows)


def d2_periodic(f, axis, h):
    def rows(out, f_m2, f_m1, f_0, f_p1, f_p2):
        # (16 (f_m1 + f_p1) - (f_m2 + f_p2) - 30 f_0) / 12h^2
        np.add(f_m1, f_p1, out=out)
        out *= 16.0
        out -= f_m2 + f_p2
        out -= 30.0 * f_0
        out /= 12.0 * h * h

    return _periodic(f, axis, rows)


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


def _apply_edges(out, f, h, table, power):
    # integer coefficient tables keep the stencil exact on constants
    k = table.shape[1]
    head = np.tensordot(table, f[..., :k], axes=([1], [-1]))
    tail = np.tensordot(table, f[..., -1:-k - 1:-1], axes=([1], [-1]))
    sign = -1.0 if power == 1 else 1.0
    scale = 12.0 * h**power
    out[..., 0] = head[0] / scale
    out[..., 1] = head[1] / scale
    out[..., -1] = sign * tail[0] / scale
    out[..., -2] = sign * tail[1] / scale
    return out


def _centered_last(f, h, power):
    out = np.empty_like(f)
    if power == 1:
        out[..., 2:-2] = (8.0 * (f[..., 3:-1] - f[..., 1:-3]) - (f[..., 4:] - f[..., :-4])) / (12.0 * h)
    else:
        out[..., 2:-2] = (
            16.0 * (f[..., 1:-3] + f[..., 3:-1]) - (f[..., :-4] + f[..., 4:]) - 30.0 * f[..., 2:-2]
        ) / (12.0 * h * h)
    return out


def d1_bounded(f, axis, h):
    f = np.moveaxis(f, axis, -1)
    if f.shape[-1] < 6:
        raise ValueError("bounded stencils need at least 6 samples")
    out = _centered_last(f, h, 1)
    out = _apply_edges(out, f, h, _D1_EDGE, 1)
    return np.moveaxis(out, -1, axis)


def d2_bounded(f, axis, h):
    f = np.moveaxis(f, axis, -1)
    if f.shape[-1] < 6:
        raise ValueError("bounded stencils need at least 6 samples")
    out = _centered_last(f, h, 2)
    out = _apply_edges(out, f, h, _D2_EDGE, 2)
    return np.moveaxis(out, -1, axis)
