import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fchlab import WellParams, audit_growth, default_params, eval_dwell, eval_well
from fchlab import potential
from fchlab.errors import InfeasibleWellError
from fchlab.potential import (
    GrowthConstants,
    GrowthViolation,
    default_audit_grid,
    default_c5,
    _blended,
    dwell_scalar,
    eval_cutoff,
    eval_well_and_dwell,
    quadratic_factor,
)


def bisect_root(f, lo, hi, tol=1e-14):
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def test_well_vanishes_at_origin(params):
    assert eval_well(0.0, params) == 0.0
    assert eval_dwell(0.0, params) == 0.0


def test_well_depth_at_right_minimum(params):
    expected = -params.tau / params.r * params.u_plus ** (1.0 + params.r)
    assert eval_well(params.u_plus, params) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(-1.0 / 7.0, rel=1e-12)


def test_well_zero_at_peak_amplitude(params):
    # oracle: bisection on the quadratic factor alone
    u_max = bisect_root(lambda u: quadratic_factor(u, params), 0.3, 0.6)
    assert u_max == pytest.approx(0.4769, abs=5e-5)
    assert abs(eval_well(u_max, params)) < 1e-13


def test_dwell_matches_finite_difference(params):
    h = 1e-6
    fd = (eval_well(0.3 + h, params) - eval_well(0.3 - h, params)) / (2 * h)
    assert eval_dwell(0.3, params) == pytest.approx(fd, rel=1e-6)


def test_dwell_matches_finite_difference_random(params):
    rng = np.random.default_rng(7)
    us = rng.uniform(0.05, 2.0 * params.u_plus, size=64)
    h = 1e-6
    fd = (eval_well(us + h, params) - eval_well(us - h, params)) / (2 * h)
    assert np.allclose(eval_dwell(us, params), fd, rtol=1e-6)


def test_dwell_power_law_at_origin(params):
    # W'(u)/u^(r-1) -> r * (bracket at 0) as u -> 0+
    limit = params.r * quadratic_factor(0.0, params)
    ratios = [eval_dwell(u, params) / u ** (params.r - 1.0) for u in (1e-3, 1e-4, 1e-5)]
    gaps = [abs(r - limit) for r in ratios]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-4
    assert ratios[-1] > 0


def test_well_sign_structure(params):
    u_max = bisect_root(lambda u: quadratic_factor(u, params), 0.3, 0.6)
    inside = np.linspace(1e-9, u_max - 1e-9, 10000)
    outside = np.linspace(u_max + 1e-9, params.u_plus, 10000)
    assert np.all(eval_well(inside, params) > 0.0)
    assert np.all(eval_well(outside, params) < 0.0)


def test_depth_decreases_with_tau():
    depths = [eval_well(1.0, default_params(tau=t)) for t in (0.1, 0.25, 0.5)]
    assert depths[0] > depths[1] > depths[2]


def test_closed_form_in_cutoff_core(params):
    us = np.linspace(-1.0, 2.0 * params.u_plus, 1001)
    direct = np.abs(us) ** params.r * quadratic_factor(us, params)
    assert np.array_equal(eval_well(us, params), direct)
    far = np.array([-5.0, 5.0, 100.0])
    assert np.array_equal(eval_well(far, params), params.c5 * np.abs(far) ** params.p)


def test_cutoff_is_c2_bump(params):
    lo_out, lo_in, hi_in, hi_out = params.cutoff_knots
    assert eval_cutoff(np.array([lo_in, 0.0, hi_in]), params).tolist() == [1.0, 1.0, 1.0]
    assert eval_cutoff(np.array([lo_out - 0.5, hi_out + 0.5]), params).tolist() == [0.0, 0.0]
    # two continuous derivatives across the joins
    for knot in params.cutoff_knots:
        h = 1e-4
        us = np.array([knot - 2 * h, knot - h, knot, knot + h, knot + 2 * h])
        vals = eval_cutoff(us, params)
        d2 = np.diff(vals, 2) / h**2
        assert abs(d2[1] - d2[0]) < 0.2


def test_serialization_roundtrip_bit_identical(params):
    clone = WellParams.from_json(params.to_json())
    us = np.linspace(-3.0, 4.0, 4001)
    assert np.array_equal(eval_well(us, params), eval_well(us, clone))
    assert np.array_equal(eval_dwell(us, params), eval_dwell(us, clone))


def test_default_c5_is_power_of_two_and_removes_spurious_zeros(params):
    c5 = default_c5()
    assert c5 == params.c5
    assert np.log2(c5) == round(np.log2(c5))
    left = -np.geomspace(1e-3, 1000.0, 2000)
    right = params.u_plus + 1e-3 + np.geomspace(1e-3, 1000.0, 2000)
    assert np.all(eval_dwell(left, params) < 0.0)
    assert np.all(eval_dwell(right, params) > 0.0)


def knot_neighbours(params, steps=3):
    """Each cutoff knot with its `steps` nearest floats on either side."""
    out = []
    for knot in params.cutoff_knots:
        for direction in (-np.inf, np.inf):
            u = knot
            for _ in range(steps):
                u = np.nextafter(u, direction)
                out.append(u)
        out.append(knot)
    return np.array(out)


def test_dwell_scalar_fast_path_matches(params):
    us = np.concatenate([np.linspace(-3.0, 4.0, 10001), knot_neighbours(params)])
    ref = eval_dwell(us, params)
    fast = np.array([dwell_scalar(float(u), params) for u in us])
    assert np.allclose(fast, ref, rtol=1e-14, atol=1e-15)


@given(st.floats(-3.0, 4.0))
def test_dwell_scalar_matches_anywhere(params, u):
    assert np.allclose(dwell_scalar(u, params), eval_dwell(np.array([u]), params), rtol=1e-14, atol=1e-15)


wells = st.builds(
    WellParams,
    r=st.floats(1.51, 1.99),
    u_plus=st.floats(0.2, 3.0),
    tau=st.floats(0.01, 1.0),
    p=st.floats(2.0, 4.0),
    c5=st.floats(0.0, 64.0),
)


@given(wells, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64))
def test_fused_core_branch_bit_identical_to_blend(well, fractions):
    lo, hi = well.cutoff_knots[1:3]
    us = np.clip(lo + (hi - lo) * np.array(fractions), lo, hi)
    us = np.concatenate([us, [lo, 0.0, hi]])
    fused = eval_well_and_dwell(us, well)
    blended = _blended(us, well)
    assert np.array_equal(fused[0], blended[0])
    assert np.array_equal(fused[1], blended[1])


@given(st.lists(st.floats(-3.0, 4.0), min_size=1, max_size=4))
def test_fused_matches_blend_anywhere(params, us):
    fused = eval_well_and_dwell(np.array(us), params)
    blended = _blended(np.array(us), params)
    assert np.array_equal(fused[0], blended[0]) and np.array_equal(fused[1], blended[1])
    assert eval_well_and_dwell(us[0], params) == (eval_well(us[0], params), eval_dwell(us[0], params))


@given(wells)
def test_well_is_c2_at_the_cutoff_knots(well):
    # one-sided second-order extrapolations of W and W' to each knot, and
    # one-sided derivatives of W' (that is W''), agree from both sides; a
    # cubic (C^1) smoothstep makes the W'' gap O(1) of the scale, this one
    # leaves truncation of about 4e-4 of it
    h = 1e-4
    steps = h * np.arange(1, 4)
    for knot in well.cutoff_knots:
        w_l, w_r, w_k = eval_well(knot - steps, well), eval_well(knot + steps, well), eval_well(knot, well)
        d_l, d_r, d_k = eval_dwell(knot - steps, well), eval_dwell(knot + steps, well), eval_dwell(knot, well)
        scale = 1.0 + np.max(np.abs(np.concatenate([w_l, w_r, d_l, d_r])))

        def extrapolate(f):
            return 3.0 * f[0] - 3.0 * f[1] + f[2]

        for side_w, side_d in ((w_l, d_l), (w_r, d_r)):
            assert abs(extrapolate(side_w) - w_k) <= 1e-5 * scale, knot
            assert abs(extrapolate(side_d) - d_k) <= 1e-5 * scale, knot
        dd_left = (3.0 * d_k - 4.0 * d_l[0] + d_l[1]) / (2.0 * h)
        dd_right = (-3.0 * d_k + 4.0 * d_r[0] - d_r[1]) / (2.0 * h)
        assert abs(dd_right - dd_left) <= 1e-2 * scale, knot


def test_non_finite_input_rejected(params):
    with pytest.raises(ValueError):
        eval_well(np.nan, params)
    with pytest.raises(ValueError):
        eval_dwell(np.inf, params)


def test_parameter_validation():
    with pytest.raises(ValueError):
        WellParams(r=1.4, u_plus=1.0, tau=0.25, p=3.0, c5=1.0)
    with pytest.raises(ValueError):
        WellParams(r=2.0, u_plus=1.0, tau=0.25, p=3.0, c5=1.0)
    with pytest.raises(ValueError):
        WellParams(r=1.75, u_plus=-1.0, tau=0.25, p=3.0, c5=1.0)
    with pytest.raises(ValueError):
        WellParams(r=1.75, u_plus=1.0, tau=0.25, p=1.5, c5=1.0)


def test_dimension_bound_on_p(params):
    params.check_dimension(3)  # p = 3 < 4 is fine
    with pytest.raises(InfeasibleWellError):
        params.check_dimension(4)  # needs p < 3


def test_growth_audit_default_feasible(params, growth):
    assert isinstance(growth, GrowthConstants)
    assert growth.c1 > 0.0
    grid = default_audit_grid(params)
    w = eval_well(grid, params)
    dw = eval_dwell(grid, params)
    lead = growth.c1 * np.abs(grid) ** params.p
    tol = 1e-8 * (1.0 + np.abs(w) + lead)
    assert np.all(lead + growth.c2 <= w + tol)
    assert np.all(w <= lead + growth.c3 + tol)
    assert np.all(np.abs(dw) <= growth.c1 * params.p * np.abs(grid) ** (params.p - 1) + growth.c3p + tol)
    assert np.all(growth.c1 * params.p * np.abs(grid) ** params.p + growth.c4 <= dw * grid + tol)


def test_growth_audit_rejects_vanishing_far_field(params):
    bad = WellParams(r=params.r, u_plus=params.u_plus, tau=params.tau, p=3.0, c5=0.0)
    report = audit_growth(bad, default_audit_grid(bad))
    assert isinstance(report, GrowthViolation)
    assert len(report.violating_u) > 0
    # oracle: with any core-fitted constants, the lower bound fails at u = 1e3
    assert eval_well(1e3, bad) == 0.0


def test_growth_audit_singleton_grid(params):
    gc = audit_growth(params, np.array([0.0]))
    assert isinstance(gc, GrowthConstants)
    assert gc.c2 <= 0.0 <= gc.c3


def test_growth_constants_pinned(growth):
    # recorded before the audit shared one W/W' evaluation among its candidates
    assert growth == GrowthConstants(
        c1=2.0,
        c2=-14.089556480376,
        c3=2.4379322487529995,
        c3p=31.132712689475653,
        c4=-26.460169986499995,
    )


def test_growth_audit_evaluates_the_well_once(params, monkeypatch):
    # params and the grid first: default_c5 evaluates W' on its own grids
    grid = default_audit_grid(params)
    calls = []
    fused = potential.eval_well_and_dwell

    def counted(u, p):
        calls.append(np.shape(u))
        return fused(u, p)

    monkeypatch.setattr(potential, "eval_well_and_dwell", counted)
    assert isinstance(audit_growth(params, grid), GrowthConstants)
    assert len(calls) == 1
