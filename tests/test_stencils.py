"""The four 4th-order stencils are exact on polynomials of degree <= 4.

The energy pass computes each stencil derivative of a field once and feeds
it to several terms, so every row must be exact: the one-sided edge rows
of the bounded stencils included.  Periodic stencils wrap at the ends;
there every row is an interior row of some rotation of the samples.  They
read their neighbours as slices, not as np.roll copies, and give the same
floats as the same formula on np.roll copies.
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


@st.composite
def periodic_samples(draw):
    """Arbitrary samples on 1-3 axes, the stencil axis 4-14 long, in C or Fortran order."""
    ndim = draw(st.integers(1, 3))
    axis = draw(st.integers(-ndim, ndim - 1))
    shape = [draw(st.integers(1, 3)) for _ in range(ndim)]
    shape[axis] = draw(st.integers(4, 14))
    values = draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e6, 1e6, allow_nan=False)))
    order = draw(st.sampled_from("CF"))
    return np.asarray(values, order=order), axis, draw(st.sampled_from([0.5, 0.1, 0.0625]))


@pytest.mark.parametrize(
    "stencil, reference", [(d1_periodic, roll_d1_periodic), (d2_periodic, roll_d2_periodic)]
)
@given(sample=periodic_samples())
def test_periodic_stencils_match_roll_bit_for_bit(stencil, reference, sample):
    f, axis, h = sample
    out = stencil(f, axis, h)
    assert out.flags.c_contiguous
    assert out.shape == f.shape
    assert out.tobytes() == np.ascontiguousarray(reference(f, axis, h)).tobytes()


@pytest.mark.parametrize("stencil", [d1_periodic, d2_periodic])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_periodic_stencils_refuse_fewer_than_4_samples(stencil, n):
    with pytest.raises(ValueError, match="at least 4 samples"):
        stencil(np.ones((2, n)), 1, 0.5)
    with pytest.raises(ValueError, match="at least 4 samples"):
        stencil(np.ones((n, 5)), -2, 0.5)
