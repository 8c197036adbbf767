import numpy as np
import pytest
from dataclasses import replace
from scipy.integrate import simpson

from fchlab import micelle_energy, shoot_micelle, unit_sphere_area, virial_defect
from fchlab.sequences import micelle_limit


def test_n1_reduces_to_bilayer_half_pulse(params, profile):
    m = shoot_micelle(1, params)
    assert m.amplitude == pytest.approx(profile.u_max, abs=1e-6)
    assert m.r0_support == pytest.approx(profile.half_width_L, rel=1e-10)
    ref = profile.evaluate(m.r_samples)
    assert np.max(np.abs(m.u_samples - ref)) < 1e-6
    assert m.sigma_n == pytest.approx(profile.a_star, rel=1e-6)


def test_n1_virial_is_equipartition(params):
    m = shoot_micelle(1, params)
    assert virial_defect(m, params) < 1e-8


def _well(profile, params):
    from fchlab import eval_well

    return eval_well(profile.u_samples, params)


def test_n2_well_integral_vanishes(params, micelle2):
    r = micelle2.r_samples
    w_int = simpson(_well(micelle2, params) * r, x=r)
    assert abs(w_int) < 1e-6 * micelle2.sigma_n
    assert virial_defect(micelle2, params) < 1e-6


def test_n3_virial_identity(params, micelle3):
    r = micelle3.r_samples
    w_int = simpson(_well(micelle3, params) * r**2, x=r)
    assert w_int == pytest.approx(-micelle3.sigma_n / 6.0, rel=1e-4)
    assert virial_defect(micelle3, params) < 1e-4


def test_virial_check_has_teeth(params, micelle2):
    scaled = replace(
        micelle2,
        u_samples=1.1 * micelle2.u_samples,
        du_samples=1.1 * micelle2.du_samples,
        _interp=micelle2._interp,
    )
    assert virial_defect(scaled, params) > 1e-3


def test_grazing_landing(micelle2, micelle3):
    assert micelle2.grazing_defect <= 1e-9
    assert micelle3.grazing_defect <= 1e-9
    for m in (micelle2, micelle3):
        assert abs(m.u_samples[-1]) < 1e-8
        assert abs(m.du_samples[-1]) < 1e-8


def test_profile_shape(micelle2):
    assert micelle2.du_samples[0] == 0.0
    assert micelle2.u_samples[0] == micelle2.amplitude
    interior = micelle2.u_samples[: int(0.9 * len(micelle2.u_samples))]
    assert np.all(np.diff(interior) < 0.0)
    assert micelle2.sigma_n > 0.0


def test_sigma_stable_under_step_halving(micelle2):
    r, du = micelle2.r_samples, micelle2.du_samples
    full = simpson(du**2 * r, x=r)
    half = simpson(du[::2] ** 2 * r[::2], x=r[::2])
    assert full == pytest.approx(half, rel=1e-6)


def test_amplitude_increases_with_dimension(params, micelle2, micelle3):
    m1 = shoot_micelle(1, params)
    assert m1.amplitude < micelle2.amplitude < micelle3.amplitude


def test_micelle_energy_formula():
    sigma = 0.7
    # n = 2: eta2 drops out entirely
    assert micelle_energy(2, 0.1, 1.3, 5.0, sigma) == pytest.approx(-0.1 * 1.3 * sigma / 2.0)
    assert micelle_energy(2, 0.1, 1.3, -5.0, sigma) == micelle_energy(2, 0.1, 1.3, 17.0, sigma)
    # n = 3 at eta2 = 3*eta1 the prefactor vanishes
    assert micelle_energy(3, 0.05, 1.0, 3.0, sigma) == pytest.approx(0.0, abs=1e-15)
    # eta1 = 1, eta2 = -1: strictly negative for n >= 2
    for n in (2, 3, 4):
        assert micelle_energy(n, 0.1, 1.0, -1.0, sigma) < 0.0


def test_micelle_energy_validation():
    with pytest.raises(ValueError):
        micelle_energy(0, 0.1, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        micelle_energy(2, -0.1, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        micelle_energy(2, 0.1, 1.0, 1.0, -1.0)


def test_limit_formula_consistent_at_eta2_minus_eta1():
    # -alpha*(1 - 1/n)*eta1*sigma vs the general expression at eta2 = -eta1
    for n in (2, 3, 4):
        general = micelle_limit(n, 0.5, 1.2, -1.2, 0.9)
        special = -0.5 * (1.0 - 1.0 / n) * 1.2 * 0.9
        assert general == pytest.approx(special, rel=1e-14)


def test_unit_sphere_area():
    assert unit_sphere_area(1) == pytest.approx(2.0)
    assert unit_sphere_area(2) == pytest.approx(2.0 * np.pi)
    assert unit_sphere_area(3) == pytest.approx(4.0 * np.pi)


def test_dimension_validation(params):
    with pytest.raises(ValueError):
        shoot_micelle(0, params)
    with pytest.raises(ValueError):
        shoot_micelle(5, params)


def test_csv_header_carries_virial(params, micelle2):
    text = micelle2.to_csv()
    head = text.splitlines()[0]
    assert '"virial_defect"' in head and '"sigma_n"' in head
    assert text.splitlines()[1] == "R,u"


@pytest.mark.parametrize("dim_n", [2, 3])
def test_bracket_scan_stops_at_first_pair(params, dim_n, monkeypatch):
    from fchlab import micelle
    from fchlab.bilayer import peak_amplitude

    # the scan shoot_micelle runs on its default well and amplitude cap
    cap = 2.0 * params.u_plus
    args = (params, dim_n, 400.0 * max(1.0, params.u_plus), peak_amplitude(params) + 1e-4, cap)
    cap_hi = cap + 0.5 * params.u_plus
    seeds = np.linspace(args[3], args[4], 17)
    labels = [micelle._classify(a, *args[:3], cap_hi)[0] for a in seeds]
    first = next(i for i in range(1, 17) if {labels[i - 1], labels[i]} == {"stall", "cross"})
    stall, cross = (first - 1, first) if labels[first - 1] == "stall" else (first, first - 1)

    calls = []
    classify = micelle._classify

    def counted(*a, **kw):
        calls.append(a[0])
        return classify(*a, **kw)

    monkeypatch.setattr(micelle, "_classify", counted)
    assert micelle._find_bracket(*args, cap_hi) == (seeds[stall], seeds[cross])
    # only the seeds up to the bracket's right end are shot
    assert calls == list(seeds[: first + 1])
    assert len(calls) < 17
