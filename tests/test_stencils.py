"""The four 4th-order stencils are exact on polynomials of degree <= 4.

The energy pass computes each stencil derivative of a field once and feeds
it to several terms, so every row must be exact: the one-sided edge rows
of the bounded stencils included.  Periodic stencils wrap at the ends;
there every row is an interior row of some rotation of the samples.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
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
