import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from fchlab import default_params, eval_dwell, eval_well, half_width, peak_amplitude, solve_profile
from fchlab.bilayer import (
    _exponent_a,
    _split,
    _width_integrand_lower,
    _width_integrand_upper,
    mass_per_length_u_route,
)
from fchlab.errors import InfeasibleWellError


def test_peak_amplitude_against_quadratic_formula(params):
    # u^2 - 1.75 u + 0.6071428... = 0, smaller root
    b, c = 0.25 - 2.0, 1.0 - 0.25 * 2.75 / 1.75
    expected = 0.5 * (-b - np.sqrt(b * b - 4 * c))
    u_max = peak_amplitude(params)
    assert u_max == pytest.approx(expected, rel=1e-14)
    assert u_max == pytest.approx(0.4769, abs=5e-5)
    assert eval_dwell(u_max, params) < 0.0


def test_peak_amplitude_degenerates_as_tau_vanishes():
    u_max = peak_amplitude(default_params(tau=1e-8))
    assert abs(u_max - 1.0) < 1e-3


def test_peak_amplitude_infeasible_for_large_tau():
    # critical tau = r*u_plus/(1+r); beyond it the root leaves (0, u_plus)
    from fchlab import WellParams

    tau_crit = 1.75 / 2.75
    bad = WellParams(r=1.75, u_plus=1.0, tau=tau_crit + 0.07, p=3.0, c5=2.0)
    roots = np.roots([1.0, bad.tau - 2.0, 1.0 - bad.tau * 2.75 / 1.75])
    assert not np.any((roots > 0) & (roots < 1.0) & np.isreal(roots))
    with pytest.raises(InfeasibleWellError):
        peak_amplitude(bad)


def test_half_width_against_midpoint_oracle(params):
    length = half_width(params)
    u_max = peak_amplitude(params)
    a, _, t1, yy, qslope = _split(params, u_max)
    n = 1_000_000
    t_mid = (np.arange(n) + 0.5) * (t1 / n)
    y_mid = (np.arange(n) + 0.5) * (yy / n)
    oracle = (
        np.sum(_width_integrand_lower(t_mid, params, a)) * t1 / n
        + np.sum(_width_integrand_upper(y_mid, params, u_max, qslope)) * yy / n
    )
    assert length == pytest.approx(oracle, rel=1e-8)
    assert length > 0.0


def test_half_width_refuses_unconverged_quadrature(params, monkeypatch):
    # two cells per segment disagree with one far beyond the 1e-9 check
    from fchlab import bilayer
    from fchlab.errors import NumericsError

    monkeypatch.setattr(bilayer, "_N_DENSE", 2)
    # half_width reads the memoised profile
    solve_profile.cache_clear()
    with pytest.raises(NumericsError, match="width quadrature did not converge"):
        half_width(params)


def test_half_width_grows_toward_r_equals_two():
    assert half_width(default_params(r=1.99)) > half_width(default_params(r=1.75))


def test_width_integrand_is_reciprocal_speed(params):
    # the substituted integrand equals dz/du = 1/sqrt(2 W) after the change
    # of variables, checked at u = u_max/2
    u_max = peak_amplitude(params)
    u = 0.5 * u_max
    _, _, _, _, qslope = _split(params, u_max)
    y = np.sqrt(u_max - u)
    direct = 1.0 / np.sqrt(2.0 * eval_well(u, params))
    assert _width_integrand_upper(y, params, u_max, qslope) / (2.0 * y) == pytest.approx(direct, rel=1e-12)


def test_profile_satisfies_ode_discretely(params):
    prof = solve_profile(params, 1024)
    z, u = prof.z_samples, prof.u_samples
    h1 = z[1:-1] - z[:-2]
    h2 = z[2:] - z[1:-1]
    d2 = 2 * (h1 * u[2:] - (h1 + h2) * u[1:-1] + h2 * u[:-2]) / (h1 * h2 * (h1 + h2))
    resid = -d2 + eval_dwell(u[1:-1], params)
    mask = u[1:-1] > 1e-6 * prof.u_max
    mask[:1] = False
    mask[-1:] = False
    weight = 0.5 * (h1 + h2)
    assert np.sqrt(np.sum(resid[mask] ** 2 * weight[mask])) < 1e-5


def test_profile_matches_independent_rk4(params, profile):
    def rhs(state):
        return np.array([state[1], eval_dwell(state[0], params)])

    z_stop = 0.95 * profile.half_width_L
    n = 4000
    h = z_stop / n
    state = np.array([profile.u_max, 0.0])
    worst = 0.0
    for i in range(n):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        worst = max(worst, abs(state[0] - profile.evaluate((i + 1) * h)))
    assert worst < 1e-5


def test_shape_constants_agree(profile):
    assert profile.a_star == pytest.approx(profile.b_star, rel=1e-8)
    assert profile.a_star > 0.0


def test_equipartition_along_profile(params, profile):
    # stored derivative carries the first integral exactly
    direct = 0.5 * profile.u_prime_samples**2 - eval_well(profile.u_samples, params)
    assert np.max(np.abs(direct)) < 1e-12
    # independent route: differentiate the sampled pulse with a spline
    z = np.concatenate([-profile._dense_z[::-1], profile._dense_z[1:]])
    u = np.concatenate([profile._dense_u[::-1], profile._dense_u[1:]])
    du = CubicSpline(z, u).derivative()(z)
    defect = np.abs(0.5 * du**2 - eval_well(u, params))
    assert np.max(defect) < 1e-8


def test_mass_reproducible_between_routes(params, profile):
    other = mass_per_length_u_route(params)
    assert profile.mass_per_length == pytest.approx(other, rel=1e-8)
    assert profile.mass_per_length > 0.0


def test_edge_regularity(params, profile):
    z_probe = profile.half_width_L - np.array([1e-2, 1e-4, 1e-6])
    u_probe = profile.evaluate(z_probe)
    assert np.all(np.diff(u_probe) < 0.0)
    du = -np.sqrt(2.0 * eval_well(u_probe, params))
    assert np.all(np.abs(np.diff(np.abs(du))) >= 0.0)
    assert abs(du[-1]) < 1e-8
    assert abs(eval_dwell(u_probe[-1], params)) < 1e-8
    assert profile.evaluate(profile.half_width_L + 0.5) == 0.0


def test_a_star_monotone_in_tau():
    # deeper right well (larger tau) pulls the bracket root toward 0 and
    # lowers the barrier, so the positive lobe integral shrinks
    stars = [solve_profile(default_params(tau=t)).a_star for t in (0.1, 0.25, 0.5)]
    assert stars[0] > stars[1] > stars[2]


def test_profile_symmetry_and_monotonicity(profile):
    z, u = profile.z_samples, profile.u_samples
    assert np.array_equal(u, u[::-1])
    assert np.array_equal(z, -z[::-1])
    mid = len(z) // 2
    assert np.all(np.diff(u[: mid + 1]) > 0.0)
    assert np.all(np.diff(u[mid:]) < 0.0)
    assert u[0] == 0.0 and u[-1] == 0.0
    assert u[mid] == profile.u_max


def test_csv_dump_deterministic(params):
    a = solve_profile(params, 64).to_csv()
    b = solve_profile(params, 64).to_csv()
    assert a == b
    header = a.splitlines()[0]
    assert '"a_star"' in header and a.splitlines()[1] == "z,u"


def test_sample_count_validation(params):
    with pytest.raises(ValueError):
        solve_profile(params, 16)
