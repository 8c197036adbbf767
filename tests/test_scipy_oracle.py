"""The in-package numerics against scipy, which the test extra installs as an oracle."""

import numpy as np
import pytest
import scipy.integrate as scipy_integrate
import scipy.interpolate as scipy_interpolate

from fchlab import half_width, micelle, shoot_micelle
from fchlab._numerics import ClampedSpline, simpson
from fchlab.bilayer import _split, _width_integrand_lower, _width_integrand_upper, peak_amplitude


def assert_rel(got, want, rel):
    assert np.max(np.abs(np.asarray(got) - want)) <= rel * np.max(np.abs(want))


def test_spline_matches_scipy_on_the_bilayer_map(profile):
    # 8703 graded nodes; the elimination takes dgtsv's row-interchange branch
    z, u = profile._dense_z, profile._dense_u
    ref = scipy_interpolate.CubicSpline(z, u, bc_type=((1, 0.0), (1, 0.0)))
    probe = np.concatenate([z, np.linspace(0.0, z[-1], 20001), 0.5 * (z[1:] + z[:-1])])
    assert_rel(ClampedSpline(z, u, 0.0, 0.0)(probe), ref(probe), 1e-15)


@pytest.mark.parametrize("dim_n", [2, 3])
def test_spline_and_simpson_match_scipy_on_micelles(params, dim_n):
    m = shoot_micelle(dim_n, params)
    r, u, du = m.r_samples, m.u_samples, m.du_samples
    ref = scipy_interpolate.CubicSpline(r, u, bc_type=((1, 0.0), (1, float(du[-1]))))
    probe = np.concatenate([r, np.linspace(0.0, r[-1], 20001)])
    assert_rel(m._interp(probe), ref(probe), 1e-15)
    for y, x in ((du * du * r ** (dim_n - 1.0), r), (du[::2] ** 2 * r[::2] ** (dim_n - 1.0), r[::2])):
        assert simpson(y, x) == pytest.approx(scipy_integrate.simpson(y, x=x), rel=1e-15)


def test_half_width_matches_adaptive_quadrature(params):
    u_max = peak_amplitude(params)
    a, _, t1, yy, qslope = _split(params, u_max)
    lower, _ = scipy_integrate.quad(_width_integrand_lower, 0.0, t1, args=(params, a), epsabs=0.0, epsrel=1e-13, limit=200)
    upper, _ = scipy_integrate.quad(
        _width_integrand_upper, 0.0, yy, args=(params, u_max, qslope), epsabs=0.0, epsrel=1e-13, limit=200
    )
    assert half_width(params) == pytest.approx(lower + upper, rel=1e-14)


def shot_args(params, dim_n):
    """(params, n, r_max, cap_hi) and the seed range of shoot_micelle on this well."""
    cap = 2.0 * params.u_plus
    lo = peak_amplitude(params) + 1e-4
    return (params, dim_n, 400.0 * max(1.0, params.u_plus)), cap + 0.5 * params.u_plus, np.linspace(lo, cap, 17)


def scipy_dop853(*args, **kwargs):
    return scipy_integrate.solve_ivp(*args, method="DOP853", **kwargs)


@pytest.mark.parametrize("dim_n", [2, 3])
def test_shots_match_scipy_dop853(params, dim_n, monkeypatch):
    args, cap_hi, seeds = shot_args(params, dim_n)
    a_star = shoot_micelle(dim_n, params).amplitude
    amps = [a_star + s * 10.0**-k for k in range(1, 8) for s in (-1.0, 1.0)] + list(seeds)
    ours = [micelle._classify(a, *args, cap_hi)[:3] for a in amps]
    monkeypatch.setattr(micelle, "solve_ivp", scipy_dop853)
    theirs = [micelle._classify(a, *args, cap_hi)[:3] for a in amps]
    for a, (label, defect, r_land), (label_s, defect_s, r_land_s) in zip(amps, ours, theirs):
        assert label == label_s, a
        assert r_land == pytest.approx(r_land_s, rel=1e-6), a
        assert defect == pytest.approx(defect_s, rel=1e-6), a


@pytest.mark.parametrize("dim_n", [2, 3])
def test_dense_output_matches_scipy(params, dim_n, monkeypatch):
    # one clean stall and one clean cross beside the grazing amplitude; at a*
    # itself the landing sits at both integrators' noise floor
    args, cap_hi, _ = shot_args(params, dim_n)
    a_star = shoot_micelle(dim_n, params).amplitude
    for a in (a_star - 1e-6, a_star + 1e-6):
        ours = micelle._classify(a, *args, cap_hi, dense=True)
        with monkeypatch.context() as m:
            m.setattr(micelle, "solve_ivp", scipy_dop853)
            theirs = micelle._classify(a, *args, cap_hi, dense=True)
        radii = np.linspace(micelle._R_INIT, min(ours[2], theirs[2]), 2049)
        assert np.max(np.abs(ours[3].sol(radii) - theirs[3].sol(radii))) <= 1e-9
