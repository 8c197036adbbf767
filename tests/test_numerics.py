"""In-package numerics: Gauss-Legendre rules, the clamped spline, Simpson and DOP853."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fchlab._numerics import ClampedSpline, gauss_legendre, simpson, sorted_unique
from fchlab._ode import N_STAGES, _B, _C, _E3, _E5, _ROWS, _dot, _step_kernel, solve_ivp


def test_gauss_legendre_512_integrates_every_moment():
    x, w = gauss_legendre(512)
    assert np.all(np.diff(x) > 0.0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    # exact for degree <= 1023: odd moments vanish by symmetry, even ones are 2/(2k+1)
    even = np.array([np.dot(w, x ** (2 * k)) for k in range(512)])
    exact = 2.0 / (2.0 * np.arange(512) + 1.0)
    # numpy's eigenvalue-based leggauss(512) misses by 3.6e-12 here
    assert np.max(np.abs(even / exact - 1.0)) < 1e-13


@pytest.mark.parametrize(
    "n, nodes, weights",
    [
        (2, [-1 / math.sqrt(3), 1 / math.sqrt(3)], [1.0, 1.0]),
        (3, [-math.sqrt(0.6), 0.0, math.sqrt(0.6)], [5 / 9, 8 / 9, 5 / 9]),
    ],
)
def test_gauss_legendre_closed_forms(n, nodes, weights):
    x, w = gauss_legendre(n)
    assert x == pytest.approx(nodes, abs=3e-16)
    assert w == pytest.approx(weights, rel=1e-15)


def test_gauss_legendre_8_exact_to_degree_15():
    x, w = gauss_legendre(8)
    for k in range(16):
        assert np.dot(w, x**k) == pytest.approx((1 + (-1) ** k) / (k + 1), abs=1e-15)
    with pytest.raises(ValueError):
        gauss_legendre(1)


def graded_grid():
    # spacing jumps by ~1e4 twice, so LAPACK-style elimination interchanges rows
    return np.array([0.0, 1.0, 1.001, 1.002, 10.0, 10.5, 30.0])


def test_clamped_spline_reproduces_cubics():
    # a cubic with its exact end slopes is its own clamped spline
    x = graded_grid()
    coef = (0.3, -1.2, 0.05, 2.0)
    y = np.polyval(coef, x)
    slope = np.polyval(np.polyder(coef), x)
    spl = ClampedSpline(x, y, slope[0], slope[-1])
    probe = np.linspace(-1.0, 31.0, 997)
    exact = np.polyval(coef, probe)
    assert np.max(np.abs(spl(probe) - exact)) < 1e-12 * np.max(np.abs(exact))


def test_clamped_spline_validation():
    with pytest.raises(ValueError):
        ClampedSpline([0.0, 1.0], [0.0, 1.0], 0.0, 0.0)
    with pytest.raises(ValueError):
        ClampedSpline([0.0, 1.0, 1.0], [0.0, 1.0, 2.0], 0.0, 0.0)


def test_simpson_exact_for_quadratics_at_any_spacing():
    x = np.sort(np.concatenate([[0.0, 3.0], np.random.default_rng(3).uniform(0.0, 3.0, 99)]))
    y = 2.0 * x**2 - x + 0.5
    assert simpson(y, x) == pytest.approx(18.0 - 4.5 + 1.5, rel=1e-13)
    with pytest.raises(ValueError):
        simpson(y[:-1], x[:-1])


def oscillator(t, y):
    return (y[1], -y[0])


def test_dop853_oscillator_and_events():
    def falling_zero(t, y):
        return y[0]

    falling_zero.direction = -1.0

    def speed(t, y):
        return y[1] + 0.5

    speed.terminal = True
    speed.direction = 1.0

    # y = cos t; y' = -sin t falls through -0.5 at pi / 6 (not counted, wrong
    # direction) and rises through it at 5 pi / 6, after cos falls through
    # zero at pi / 2, where the integration stops
    sol = solve_ivp(oscillator, (0.0, 20.0), [1.0, 0.0], rtol=1e-12, atol=1e-14, events=(speed, falling_zero), dense_output=True)
    assert sol.status == 1 and sol.message == "A termination event occurred."
    assert len(sol.t_events[0]) == 0
    assert sol.t_events[1] == pytest.approx([math.pi / 2], abs=1e-12)
    assert sol.y_events[1][0] == pytest.approx([0.0, -1.0], abs=1e-12)
    assert sol.t[-1] == sol.t_events[1][0]
    r = np.linspace(0.0, sol.t[-1], 301)
    assert np.max(np.abs(sol.sol(r) - np.array([np.cos(r), -np.sin(r)]))) < 1e-11
    # 12 evaluations per step attempt and 3 per interpolant
    assert sol.nfev >= 15 * (len(sol.t) - 1)

    late = solve_ivp(oscillator, (0.0, 20.0), [1.0, 0.0], rtol=1e-12, atol=1e-14, events=(speed,))
    assert late.t_events[0] == pytest.approx([5 * math.pi / 6], abs=1e-12)
    falling_zero.terminal = False
    with pytest.raises(ValueError):
        solve_ivp(oscillator, (0.0, 20.0), [1.0, 0.0], rtol=1e-12, atol=1e-14, events=(falling_zero,))


def test_dop853_reaches_the_end():
    sol = solve_ivp(oscillator, (0.0, 3.0), [1.0, 0.0], rtol=1e-10, atol=1e-12)
    assert sol.status == 0 and sol.t[-1] == 3.0 and sol.sol is None
    assert sol.t_events == [] and sol.y_events == []
    with pytest.raises(ValueError):
        solve_ivp(oscillator, (1.0, 0.0), [1.0, 0.0], rtol=1e-10, atol=1e-12)


def test_dop853_sums_left_to_right():
    # compensated summation (the built-in sum() from Python 3.12 on) gives
    # 2.0 here; the stages must round the same way on every Python version
    assert _dot([1.0, 1e100, 1.0, -1e100], [1.0, 1.0, 1.0, 1.0]) == 0.0
    assert _dot([0.1, 0.2, 0.3], [3.0, 2.0, 1.0]) == (0.1 * 3.0 + 0.2 * 2.0) + 0.3 * 1.0


def reference_step(fun, t, y, f, h, rtol, atol):
    """One DOP853 step as a loop over _dot, zero coefficients included: (y_new, f_new, stages, err5_sq, err3_sq)."""
    stages = [f]
    for s in range(1, N_STAGES):
        y_s = [a + _dot(_ROWS[s], [k[i] for k in stages]) * h for i, a in enumerate(y)]
        stages.append(fun(t + _C[s] * h, y_s))
    y_new = [a + h * _dot(_B, [k[i] for k in stages]) for i, a in enumerate(y)]
    stages.append(list(fun(t + h, y_new)))
    err5 = [_dot(_E5, [k[i] for k in stages]) for i in range(len(y))]
    err3 = [_dot(_E3, [k[i] for k in stages]) for i in range(len(y))]
    # the step control's error-norm squares: each component over atol + max(|y|, |y_new|)*rtol
    scale = [atol + max(abs(a), abs(b)) * rtol for a, b in zip(y, y_new)]
    err5 = [e / s for e, s in zip(err5, scale)]
    err3 = [e / s for e, s in zip(err3, scale)]
    return y_new, stages[-1], stages, math.sqrt(_dot(err5, err5)) ** 2, math.sqrt(_dot(err3, err3)) ** 2


def bits(values):
    return [float(v).hex() for v in values]


finite = st.floats(-1e6, 1e6)


@st.composite
def step_inputs(draw):
    dim = draw(st.integers(1, 3))
    vector = st.lists(finite, min_size=dim, max_size=dim)
    return (
        draw(finite),
        draw(vector),
        draw(st.lists(vector, min_size=N_STAGES + 1, max_size=N_STAGES + 1)),
        draw(st.floats(1e-12, 1e3)),
        draw(st.floats(1e-14, 1e-2)),
        draw(st.floats(1e-16, 1e-2)),
    )


@given(step_inputs())
def test_step_kernel_matches_dot_sums_bit_for_bit(inputs):
    t, y, ks, h, rtol, atol = inputs

    def replay(calls):
        # returns the drawn stage values in turn and records what it is asked
        def fun(t_s, y_s):
            calls.append((float(t_s).hex(), bits(y_s)))
            return tuple(ks[len(calls)])

        return fun

    calls_ref, calls_kernel = [], []
    ref = reference_step(replay(calls_ref), t, y, list(ks[0]), h, rtol, atol)
    out = _step_kernel(len(y))(replay(calls_kernel), t, y, list(ks[0]), h, rtol, atol)
    assert calls_kernel == calls_ref
    y_new, f_new, stages, err5_sq, err3_sq = out
    assert bits(y_new) == bits(ref[0]) and bits(f_new) == bits(ref[1])
    assert [bits(k) for k in stages] == [bits(k) for k in ref[2]]
    assert bits([err5_sq, err3_sq]) == bits(ref[3:])


def test_step_kernel_built_on_first_solver_not_at_import():
    code = (
        "import fchlab.cli, fchlab._ode as ode; print(ode._step_kernel.cache_info().currsize); "
        "ode.solve_ivp(lambda t, y: (y[1], -y[0]), (0.0, 1.0), [1.0, 0.0], rtol=1e-8, atol=1e-10); "
        "print(ode._step_kernel.cache_info().currsize)"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "1"]


@given(st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0 / 3.0, 2.0, 1e300]), max_size=40))
def test_sorted_unique_is_np_unique(values):
    # np.unique imports numpy.ma; its sort and neighbour test are kept bit for bit
    x = np.asarray(values, dtype=float)
    assert sorted_unique(x).tobytes() == np.unique(x).tobytes()
    seg = np.arange(x.size)[::-1] % 3
    assert sorted_unique(seg).tobytes() == np.unique(seg).tobytes()
