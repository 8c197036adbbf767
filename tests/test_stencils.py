"""The four 4th-order stencils are exact on polynomials of degree <= 4.

The energy pass computes each stencil derivative of a field once and feeds
it to several terms, so every row must be exact: the one-sided edge rows
of the bounded stencils included.  Periodic stencils wrap at the ends;
there every row is an interior row of some rotation of the samples.  Both
kinds read their neighbours as slices and write one C-contiguous output,
and give the same floats as frozen references: the periodic formula on
np.roll copies, and the bounded interior on a moved-last copy with the
one-sided tables applied at the ends.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.polynomial import polynomial as P

from fchlab._stencils import d1_bounded, d1_periodic, d2_bounded, d2_periodic

coefficient = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def polynomial_lines(draw):
    """Samples of a degree <= 4 polynomial along a random axis of a small array.

    Each line along the axis holds the same polynomial times its own factor.
    Returns (f, axis, h, x, coefficients, line factors).
    """
    ndim = draw(st.integers(1, 3))
    axis = draw(st.integers(-ndim, ndim - 1))
    shape = [draw(st.integers(1, 3)) for _ in range(ndim)]
    shape[axis] = draw(st.integers(6, 14))
    h = draw(st.sampled_from([0.5, 0.25, 0.1, 0.0625]))
    x = draw(st.floats(-1.0, 1.0)) + h * np.arange(shape[axis])
    coeffs = np.array(draw(st.lists(coefficient, min_size=1, max_size=5)))
    other = [n for i, n in enumerate(shape) if i != axis % ndim]
    factors = (draw(coefficient) + 0.25 * np.arange(int(np.prod(other)))).reshape(other + [1])
    f = np.moveaxis(factors * P.polyval(x, coeffs), -1, axis)
    return f, axis, h, x, coeffs, factors


def exact_and_tolerance(axis, h, x, coeffs, factors, order):
    exact = np.moveaxis(factors * P.polyval(x, P.polyder(coeffs, order)), -1, axis)
    # round-off of the samples, amplified by the stencil's 1/h^order
    scale = np.max(np.abs(factors)) * float(np.max(P.polyval(np.abs(x), np.abs(coeffs))))
    return exact, 1e-13 * (scale + 1.0) / h**order


@pytest.mark.parametrize("stencil, order", [(d1_bounded, 1), (d2_bounded, 2)])
@given(sample=polynomial_lines())
def test_bounded_stencils_exact_on_every_row(stencil, order, sample):
    f, axis, h, x, coeffs, factors = sample
    exact, tol = exact_and_tolerance(axis, h, x, coeffs, factors, order)
    assert np.max(np.abs(stencil(f, axis, h) - exact)) <= tol


@pytest.mark.parametrize("stencil, order", [(d1_periodic, 1), (d2_periodic, 2)])
@given(sample=polynomial_lines(), shift=st.integers(0, 13))
def test_periodic_stencils_exact_and_shift_equivariant(stencil, order, sample, shift):
    f, axis, h, x, coeffs, factors = sample
    exact, tol = exact_and_tolerance(axis, h, x, coeffs, factors, order)
    out = stencil(f, axis, h)
    interior = np.take(out - exact, np.arange(2, f.shape[axis] - 2), axis=axis)
    assert np.max(np.abs(interior)) <= tol
    # the wrapped rows apply the interior formula to the rotated samples
    assert np.array_equal(stencil(np.roll(f, shift, axis=axis), axis, h), np.roll(out, shift, axis=axis))


def roll_d1_periodic(f, axis, h):
    """The periodic first derivative as four np.roll copies: the reference."""
    return (
        8.0 * (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis))
        - (np.roll(f, -2, axis=axis) - np.roll(f, 2, axis=axis))
    ) / (12.0 * h)


def roll_d2_periodic(f, axis, h):
    """The periodic second derivative as four np.roll copies: the reference."""
    return (
        16.0 * (np.roll(f, 1, axis=axis) + np.roll(f, -1, axis=axis))
        - (np.roll(f, 2, axis=axis) + np.roll(f, -2, axis=axis))
        - 30.0 * f
    ) / (12.0 * h * h)


_REFERENCE_D1_EDGE = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0], [-3.0, -10.0, 18.0, -6.0, 1.0]])
_REFERENCE_D2_EDGE = np.array(
    [[45.0, -154.0, 214.0, -156.0, 61.0, -10.0], [10.0, -15.0, -4.0, 14.0, -6.0, 1.0]]
)


def _reference_apply_edges(out, f, h, table, power):
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


def _reference_centered_last(f, h, power):
    out = np.empty_like(f)
    if power == 1:
        out[..., 2:-2] = (8.0 * (f[..., 3:-1] - f[..., 1:-3]) - (f[..., 4:] - f[..., :-4])) / (12.0 * h)
    else:
        out[..., 2:-2] = (
            16.0 * (f[..., 1:-3] + f[..., 3:-1]) - (f[..., :-4] + f[..., 4:]) - 30.0 * f[..., 2:-2]
        ) / (12.0 * h * h)
    return out


def moved_d1_bounded(f, axis, h):
    """The bounded first derivative on the stencil axis moved last: the reference."""
    f = np.moveaxis(f, axis, -1)
    out = _reference_apply_edges(_reference_centered_last(f, h, 1), f, h, _REFERENCE_D1_EDGE, 1)
    return np.moveaxis(out, -1, axis)


def moved_d2_bounded(f, axis, h):
    """The bounded second derivative on the stencil axis moved last: the reference."""
    f = np.moveaxis(f, axis, -1)
    out = _reference_apply_edges(_reference_centered_last(f, h, 2), f, h, _REFERENCE_D2_EDGE, 2)
    return np.moveaxis(out, -1, axis)


@st.composite
def arbitrary_samples(draw, least):
    """Arbitrary samples on 1-3 axes, the stencil axis least-14 long, in C or Fortran order."""
    ndim = draw(st.integers(1, 3))
    axis = draw(st.integers(-ndim, ndim - 1))
    shape = [draw(st.integers(1, 3)) for _ in range(ndim)]
    shape[axis] = draw(st.integers(least, 14))
    values = draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e6, 1e6, allow_nan=False)))
    order = draw(st.sampled_from("CF"))
    return np.asarray(values, order=order), axis, draw(st.sampled_from([0.5, 0.1, 0.0625]))


def assert_same_bytes_c_contiguous(out, f, expected):
    assert out.flags.c_contiguous
    assert out.shape == f.shape
    assert out.tobytes() == np.ascontiguousarray(expected).tobytes()


@pytest.mark.parametrize(
    "stencil, reference", [(d1_periodic, roll_d1_periodic), (d2_periodic, roll_d2_periodic)]
)
@given(sample=arbitrary_samples(4))
def test_periodic_stencils_match_roll_bit_for_bit(stencil, reference, sample):
    f, axis, h = sample
    assert_same_bytes_c_contiguous(stencil(f, axis, h), f, reference(f, axis, h))


@pytest.mark.parametrize(
    "stencil, reference", [(d1_bounded, moved_d1_bounded), (d2_bounded, moved_d2_bounded)]
)
@given(sample=arbitrary_samples(6))
def test_bounded_stencils_match_moved_last_bit_for_bit(stencil, reference, sample):
    f, axis, h = sample
    assert_same_bytes_c_contiguous(stencil(f, axis, h), f, reference(f, axis, h))


@pytest.mark.parametrize(
    "stencil, least, n",
    [
        pytest.param(stencil, least, n, id=f"{n}-{stencil.__name__}")
        for stencil, least in [(d1_periodic, 4), (d2_periodic, 4), (d1_bounded, 6), (d2_bounded, 6)]
        for n in range(1, least)
    ],
)
def test_periodic_stencils_refuse_fewer_than_4_samples(stencil, least, n):
    """Each stencil refuses fewer samples than it needs: 4 periodic, 6 bounded."""
    with pytest.raises(ValueError, match=f"at least {least} samples"):
        stencil(np.ones((2, n)), 1, 0.5)
    with pytest.raises(ValueError, match=f"at least {least} samples"):
        stencil(np.ones((n, 7)), -2, 0.5)
