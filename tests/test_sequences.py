import numpy as np
import pytest

from fchlab import (
    Circle,
    Ellipse,
    Field,
    InterfaceGeom,
    Sphere,
    TubularGrid,
    build_bilayer_field,
    build_micelle_field,
    default_eps_schedule,
    fch_energy,
    g1_energy,
    micelle_energy,
    micelle_limit,
    phase_diagram,
    place_micelle_centers,
    run_convergence,
    shoot_micelle,
    snap_micelle_eps,
    unit_sphere_area,
    verify_derivative_bounds,
)
from fchlab.errors import InfeasibleModelError
from fchlab.sequences import SequenceSpec


def bilayer_spec(params, **kw):
    defaults = dict(
        kind="bilayer",
        geom=Circle(1.0),
        params=params,
        eta1=1.0,
        eta2=1.0,
        eps_list=default_eps_schedule("bilayer"),
    )
    defaults.update(kw)
    return SequenceSpec(**defaults)


def test_spec_validation(params):
    with pytest.raises(ValueError):
        bilayer_spec(params, eps_list=(0.05, 0.1))
    with pytest.raises(ValueError):
        bilayer_spec(params, kind="micelle", alpha=None)
    with pytest.raises(ValueError):
        bilayer_spec(params, kind="pore")


def test_bilayer_field_is_s_independent(params):
    fld = build_bilayer_field(bilayer_spec(params), 0.1)
    rep = fch_energy(fld, Circle(1.0), 1.0, 1.0, params)
    assert rep.norm_us_l2 == 0.0
    assert rep.norm_uss_l2 == 0.0


def test_bilayer_mass_quantization(params, profile, bilayer_report):
    base = Circle(1.0).surface_measure * profile.mass_per_length
    for eps, rep in zip(bilayer_report.eps_list, bilayer_report.reports):
        assert abs(rep.mass / base - 1.0) <= 1.5 * eps


def test_bilayer_translate_keeps_bounds(params):
    spec = bilayer_spec(params, translate=lambda s: 0.1 * np.sin(s), eps_list=(0.1, 0.05))
    rep = run_convergence(spec)
    led = verify_derivative_bounds(rep)
    assert led.base_bounded and led.tangential_gradient_bounded and led.tangential_hessian_vanishing
    # translate shifts mass but leaves the energy limit unchanged at leading order
    assert abs(rep.energy_list[-1] - rep.predicted_limit) < 0.05 * abs(rep.predicted_limit)


def test_bilayer_translate_containment(params, profile):
    spec = bilayer_spec(params, translate=lambda s: 0.2 * np.sin(s), ell=profile.half_width_L + 0.1)
    with pytest.raises(InfeasibleModelError):
        build_bilayer_field(spec, 0.05)


def test_micelle_field_single_center(params, micelle2):
    # one compacton: energy matches the closed form with the angular factor,
    # improving under width refinement
    omega = unit_sphere_area(2)
    gaps = []
    for eps in (0.05, 0.02):
        spec = SequenceSpec(
            kind="micelle",
            geom=Circle(1.0),
            params=params,
            eta1=1.0,
            eta2=1.0,
            alpha=omega * eps,  # exactly one center at this width
            eps_list=(eps,),
        )
        fld = build_micelle_field(spec, eps)
        rep = fch_energy(fld, Circle(1.0), 1.0, 1.0, params)
        predicted = omega * micelle_energy(2, eps, 1.0, 1.0, micelle2.sigma_n)
        gaps.append(abs(rep.total - predicted) / abs(predicted))
    assert gaps[0] <= 0.02 and gaps[1] <= 0.02
    # refinement must not worsen the match beyond the discretization floor
    assert gaps[1] <= max(gaps[0], 1e-4)

    # on a sphere the bump equals U(|phi(s) + eps*z*n(s) - center| / eps)
    # sampled point by point through offset_position, bit for bit
    geom, eps = Sphere(3.0), 0.1
    omega = unit_sphere_area(3)
    spec = SequenceSpec(
        kind="micelle", geom=geom, params=params, eta1=1.0, eta2=1.0, alpha=omega * eps**2,
        eps_list=(eps,), ns=(48, 96), nz=65,
    )
    fld = build_micelle_field(spec, eps)
    prof = shoot_micelle(3, params)
    (center,) = place_micelle_centers(geom, eps, spec.alpha / omega, prof.r0_support)
    grid = fld.grid
    t = [np.broadcast_to(m[..., None], grid.shape) for m in grid.s_mesh]
    pos = geom.offset_position(t, np.broadcast_to(grid.z_grid, grid.shape), eps)
    ref = np.maximum(prof.evaluate(np.linalg.norm(pos - geom.position(*center), axis=-1) / eps), 0.0)
    assert np.count_nonzero(ref) > 0
    assert np.array_equal(fld.values, ref)


def test_g1_positive_whenever_eta2_below_minus_eta1(params, profile):
    from fchlab import Torus

    a, b = profile.a_star, profile.b_star
    for geom in (Circle(1.0), Ellipse(2.0, 1.0), Sphere(3.0), Torus(3.0, 1.0)):
        for eta1, eta2 in ((1.0, -1.5), (0.5, -0.6), (2.0, -2.1)):
            assert g1_energy(geom, a, b, eta1, eta2) > 0.0


def test_micelle_supports_disjoint(params, micelle2):
    eps = default_eps_schedule("micelle", alpha=0.5, dim_n=2)[-1]
    spec = SequenceSpec(
        kind="micelle", geom=Circle(1.0), params=params, eta1=1.0, eta2=1.0, alpha=0.5, eps_list=(eps,)
    )
    fld = build_micelle_field(spec, eps)  # raises if any supports overlap
    assert np.max(fld.values) <= micelle2.amplitude * (1.0 + 1e-8)


def test_micelle_norms_diverge(params, micelle_report_circle):
    led = verify_derivative_bounds(micelle_report_circle)
    assert led.base_bounded
    assert not led.tangential_gradient_bounded
    assert not led.tangential_hessian_vanishing
    # fitted growth c * eps^(-1) and c * eps^(-2)
    assert led.slopes["tangential_gradient_bounded"] == pytest.approx(-1.0, abs=0.15)
    eps = np.asarray(micelle_report_circle.eps_list)
    uss = np.asarray([r.norm_uss_l2 for r in micelle_report_circle.reports])
    slope = np.polyfit(np.log(eps), np.log(uss), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.2)
    c_fit = float(np.exp(np.mean(np.log(np.asarray([r.norm_us_l2 for r in micelle_report_circle.reports]) * eps))))
    assert c_fit > 0.0


def test_bilayer_convergence_to_interface_energy(params, profile, bilayer_report):
    rep = bilayer_report
    g1 = g1_energy(Circle(1.0), profile.a_star, profile.b_star, 1.0, 1.0)
    assert rep.predicted_limit == pytest.approx(g1, rel=1e-12)
    assert rep.predicted_limit == pytest.approx(-2 * np.pi * profile.a_star, rel=1e-8)
    errs = [abs(e - rep.predicted_limit) for e in rep.energy_list]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert rep.extrapolated == pytest.approx(rep.predicted_limit, rel=0.01)
    assert rep.fitted_rate is not None and 0.7 <= rep.fitted_rate <= 2.5


def test_bilayer_positive_limit_for_negative_eta2(params, profile):
    spec = bilayer_spec(params, eta2=-1.0, eps_list=(0.05, 0.025))
    rep = run_convergence(spec)
    assert rep.predicted_limit == pytest.approx(profile.a_star * 2 * np.pi, rel=1e-10)
    assert rep.predicted_limit > 0.0
    assert rep.energy_list[-1] > 0.0


def test_micelle_limit_value(params, micelle2, micelle_report_circle):
    rep = micelle_report_circle
    assert rep.predicted_limit == pytest.approx(-0.25 * micelle2.sigma_n, rel=1e-12)
    rel = abs(rep.energy_list[-1] - rep.predicted_limit) / abs(rep.predicted_limit)
    assert rel < 0.02


def test_micelle_report_fits_no_rate(micelle_report_circle):
    # snapped widths hit the limit at every width: what error remains is
    # discretisation, which has no eps-rate to fit or extrapolate
    rep = micelle_report_circle
    assert len(rep.eps_list) >= 3
    assert rep.fitted_rate is None
    assert rep.extrapolated is None
    assert rep.errors == tuple(abs(e - rep.predicted_limit) for e in rep.energy_list)


def test_micelle_limit_geometry_independent(micelle_report_circle, micelle_report_ellipse):
    a = micelle_report_circle.energy_list[-1]
    b = micelle_report_ellipse.energy_list[-1]
    assert abs(a - b) <= 0.01 * abs(micelle_report_circle.predicted_limit)
    assert micelle_report_circle.predicted_limit == micelle_report_ellipse.predicted_limit


def test_oscillatory_bilayer_breaks_enhanced_bound(params, profile):
    geom = Circle(1.0)
    ell = 1.05 * profile.half_width_L
    from fchlab.sequences import ConvergenceReport

    eps_list = (0.1, 0.05, 0.025)
    reports = []
    for eps in eps_list:
        grid = TubularGrid.build(geom, ell, eps, 512, 385)
        s = grid.s_grids[0][:, None]
        k = round(1.0 / eps)
        vals = np.maximum(profile.evaluate(grid.z_grid)[None, :] * (1.0 + 0.5 * np.sin(k * s)), 0.0)
        reports.append(fch_energy(Field(grid, vals), geom, 1.0, 1.0, params))
    report = ConvergenceReport(
        kind="bilayer",
        geometry="circle",
        eta1=1.0,
        eta2=1.0,
        alpha=None,
        eps_list=eps_list,
        reports=tuple(reports),
        predicted_limit=0.0,
        n_micelles=None,
        uniform_thickness=(False, False, False),
    )
    led = verify_derivative_bounds(report)
    assert led.base_bounded
    assert not led.tangential_gradient_bounded


def test_phase_diagram_regimes(params, profile, micelle3):
    geom = Sphere(3.0)
    table = phase_diagram(geom, 0.5, params, [(1.0, -1.0), (1.0, 4.0)])
    rows = {(\
        round(r[0], 6), round(r[1], 6)): r for r in table.rows}
    eta_neg = rows[(1.0, -1.0)]
    assert eta_neg[2] > 0.0 and eta_neg[3] < 0.0 and eta_neg[4] == "micelle"
    # eta2 > 3*eta1 on a large sphere: signs reverse and the bilayer wins
    eta_pos = rows[(1.0, 4.0)]
    assert eta_pos[2] < 0.0 and eta_pos[3] > 0.0 and eta_pos[4] == "bilayer"
    # micelle sign boundary sits exactly at eta2 = n/(n-2) * eta1 = 3*eta1
    assert micelle_limit(3, 0.5, 1.0, 3.0, micelle3.sigma_n) == pytest.approx(0.0, abs=1e-15)


def test_phase_diagram_sphere_threshold(params, profile):
    # bilayer limit changes sign at rho = 2/sqrt(eta1+eta2) when a*=b*
    eta1, eta2 = 1.0, 4.0
    rho_crit = 2.0 / np.sqrt(eta1 + eta2)
    assert g1_energy(Sphere(rho_crit * 1.01), profile.a_star, profile.b_star, eta1, eta2) < 0.0
    assert g1_energy(Sphere(rho_crit * 0.99), profile.a_star, profile.b_star, eta1, eta2) > 0.0


def test_phase_diagram_builds_one_surface_rule(params, micelle3, monkeypatch):
    # G1 is affine in eta1 + eta2: every cell reads the geometry's cached rule
    calls = []
    quadrature = InterfaceGeom.surface_quadrature

    def counted(self, *args, **kwargs):
        calls.append(args)
        return quadrature(self, *args, **kwargs)

    monkeypatch.setattr(InterfaceGeom, "surface_quadrature", counted)
    cells = [(0.05 + 1.95 * i / 13, -2.0 + 8.0 * j / 40) for i in range(14) for j in range(41)]
    table = phase_diagram(Sphere(3.0), 0.5, params, cells)
    assert len(table.rows) == 14 * 41
    assert len(calls) <= 1


def test_phase_diagram_invalid_cells(params):
    table = phase_diagram(Circle(1.0), 0.5, params, [(0.0, 1.0), (1.0, 1.0)])
    assert table.rows[0][4] == "invalid" and not table.rows[0][5]
    assert table.rows[1][5]
    csv = table.to_csv()
    assert "invalid" in csv


def test_snap_micelle_eps_counts():
    for eps_req in (0.05, 0.025, 0.0125):
        eps, count = snap_micelle_eps(0.5, 2, eps_req)
        assert count == round(0.5 / (unit_sphere_area(2) * eps))
        assert abs(0.5 / (unit_sphere_area(2) * eps) - count) < 1e-9


def test_csv_deterministic(bilayer_report):
    assert bilayer_report.to_csv() == bilayer_report.to_csv()
    lines = bilayer_report.to_csv().splitlines()
    assert lines[0].startswith("eps,energy,predicted_limit")
    assert len(lines) == 1 + len(bilayer_report.eps_list)


def small_sphere_spec(params, **kw):
    defaults = dict(
        kind="bilayer", geom=Sphere(3.0), params=params, eta1=1.0, eta2=1.0,
        eps_list=(0.1, 0.05, 0.025, 0.0125),
        translate=lambda th, ph: 0.1 * np.sin(th) ** 2 * np.cos(ph), ns=(16, 24), nz=65,
    )
    defaults.update(kw)
    return SequenceSpec(**defaults)


# Recorded when every width built and evaluated its own field; re-recorded
# when the half width, the width map and a* moved from adaptive quadrature
# to Gauss-Legendre cells.  Against that recording, energy, predicted_limit,
# mass and the norms moved by <= 1.6e-14 relative; the cancellation
# residuals moved further: abs_error by 1.1e-11, equipartition_defect by
# 1.4e-12 and bilayer_residual by 1.1e-12.
SMALL_SPHERE_CSV = (
    "eps,energy,predicted_limit,abs_error,equipartition_defect,bilayer_residual,mass,norm_u_lp,"
    "norm_uz_l2,norm_us_l2,norm_uss_l2,n_micelles,uniform_thickness\n"
    "0.10000000000000001,-12.582903508016203,-12.508782407770862,0.074121100245340799,"
    "0.0046696529194820667,0.00084497213237040732,195.21601272358396,"
    "2.9566583010792651,4.0129588131582858,0.14614379343458353,0.074690958466778812,,1\n"
    "0.050000000000000003,-12.540948649143107,-12.508782407770862,0.032166241372244997,"
    "0.0046696529194820667,0.00084497213237040732,194.88489513632285,"
    "2.9566583010792651,4.0129588131582858,0.14614379343458353,0.074690958466778812,,1\n"
    "0.025000000000000001,-12.53005830520301,-12.508782407770862,0.021275897432147417,"
    "0.0046696529194820667,0.00084497213237040732,194.8021157395076,"
    "2.9566583010792651,4.0129588131582858,0.14614379343458353,0.074690958466778812,,1\n"
    "0.012500000000000001,-12.525729267902047,-12.508782407770862,0.016946860131184849,"
    "0.0046696529194820667,0.00084497213237040732,194.78142089030376,"
    "2.9566583010792651,4.0129588131582858,0.14614379343458353,0.074690958466778812,,1\n"
)


def test_bilayer_sweep_csv_pinned(params):
    assert run_convergence(small_sphere_spec(params)).to_csv() == SMALL_SPHERE_CSV


def test_bilayer_sweep_builds_one_field(params, monkeypatch):
    # width-free terms once: u_t (both axes), u_z, u_zz and the u_ss norms;
    # per width only d2_s(u) and the metric coefficient d1_s(P/H^2) per axis
    from fchlab import energy, sequences

    calls = {}
    for name in ("d1_bounded", "d2_bounded", "d1_periodic", "d2_periodic"):
        def counted(*a, _name=name, _fn=getattr(energy, name), **kw):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*a, **kw)

        monkeypatch.setattr(energy, name, counted)
    builds = []
    build = sequences.build_bilayer_field
    monkeypatch.setattr(sequences, "build_bilayer_field", lambda *a: builds.append(a[1]) or build(*a))
    run_convergence(small_sphere_spec(params))
    assert builds == [0.1]
    assert calls == {"d1_bounded": 7, "d2_bounded": 5, "d1_periodic": 6, "d2_periodic": 4}
    assert sum(calls.values()) == 22


def test_bilayer_sweep_refuses_degenerate_width(params, profile):
    # Sphere(3): kappa0 = 1/3, so eps*ell*kappa0 >= 1 once eps >= 3/ell
    ell = 1.05 * profile.half_width_L
    spec = small_sphere_spec(params, translate=None, ell=ell, eps_list=(3.0 / ell, 0.1))
    with pytest.raises(InfeasibleModelError, match="eps\\*ell\\*kappa0"):
        run_convergence(spec)
