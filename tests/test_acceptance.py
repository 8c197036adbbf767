"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Shared heavy computations (profiles, shoots, convergence sweeps) come from
session fixtures in conftest so the whole suite stays at desk scale.
"""

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline

from fchlab import (
    Circle,
    Ellipse,
    Field,
    Sphere,
    TubularGrid,
    eval_well,
    fch_energy,
    g1_energy,
    lower_bound_audit,
    micelle_limit,
    shoot_micelle,
    verify_derivative_bounds,
    virial_defect,
)


def _verdict(tag, ok, detail):
    print(f"ACCEPT-{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {tag} failed: {detail}"


def test_criterion_1_equipartition(params, profile, bilayer_report):
    # pointwise first integral along the profile, derivative from an
    # independent spline differentiation of the sampled pulse
    z = np.concatenate([-profile._dense_z[::-1], profile._dense_z[1:]])
    u = np.concatenate([profile._dense_u[::-1], profile._dense_u[1:]])
    du = CubicSpline(z, u).derivative()(z)
    pointwise = float(np.max(np.abs(0.5 * du**2 - eval_well(u, params))))

    # integrated defect along the embedded sequence; the constructed fields
    # carry the first integral exactly, so the defect sits at the quadrature
    # floor for every eps (slope fitting degenerates); accept either a
    # slope within 1 +- 0.2 or the floor branch
    defects = np.asarray([r.equipartition_defect for r in bilayer_report.reports])
    floor = 1e-6 * Circle(1.0).surface_measure
    if np.all(defects <= floor):
        decay_ok, decay_detail = True, f"defects at quadrature floor (max {defects.max():.2e})"
    else:
        slope = np.polyfit(np.log(bilayer_report.eps_list), np.log(defects), 1)[0]
        decay_ok, decay_detail = 0.8 <= slope <= 1.2, f"slope {slope:.3f}"
    _verdict(
        "1-equipartition",
        pointwise <= 1e-8 and decay_ok,
        f"max pointwise defect {pointwise:.2e}, {decay_detail}",
    )


def test_criterion_2_shape_constants(profile):
    rel = abs(profile.a_star - profile.b_star) / abs(profile.a_star)
    _verdict(
        "2-shape-constants",
        rel <= 1e-8 and profile.a_star > 0,
        f"a*={profile.a_star:.12g} b*={profile.b_star:.12g} rel={rel:.2e}",
    )


def test_criterion_3_virial(params, micelle2, micelle3):
    d2 = virial_defect(micelle2, params)
    d3 = virial_defect(micelle3, params)
    _verdict("3-virial", d2 <= 1e-6 and d3 <= 1e-4, f"n=2 defect {d2:.2e}, n=3 defect {d3:.2e}")


def test_criterion_4_bilayer_limit(profile, bilayer_report):
    rep = bilayer_report
    g1 = -2.0 * np.pi * profile.a_star  # 2*pi*a*(1 - 2) at eta1 = eta2 = 1
    errs = [abs(e - rep.predicted_limit) for e in rep.energy_list]
    monotone = all(b < a for a, b in zip(errs, errs[1:]))
    rel = abs(rep.extrapolated - g1) / abs(g1)
    _verdict(
        "4-bilayer-limit",
        monotone and rel <= 0.01 and abs(rep.predicted_limit - g1) < 1e-10,
        f"errors {['%.2e' % e for e in errs]}, extrapolated rel err {rel:.2e}",
    )


def test_criterion_5_micelle_limit(micelle2, micelle_report_circle, micelle_report_ellipse):
    rep = micelle_report_circle
    target = -0.25 * micelle2.sigma_n
    rel = abs(rep.energy_list[-1] - target) / abs(target)
    cross = abs(micelle_report_circle.energy_list[-1] - micelle_report_ellipse.energy_list[-1]) / abs(target)
    _verdict(
        "5-micelle-limit",
        rel <= 0.02 and cross <= 0.01 and abs(rep.predicted_limit - target) < 1e-12,
        f"rel err {rel:.2e} at eps={rep.eps_list[-1]:.4g}, circle-ellipse gap {cross:.2e}",
    )


def test_criterion_6_norm_ledger(bilayer_report, micelle_report_circle):
    led_b = verify_derivative_bounds(bilayer_report)
    led_m = verify_derivative_bounds(micelle_report_circle)
    ok = (
        led_b.base_bounded
        and led_b.tangential_gradient_bounded
        and led_b.tangential_hessian_vanishing
        and led_m.base_bounded
        and not led_m.tangential_gradient_bounded
        and not led_m.tangential_hessian_vanishing
    )
    _verdict("6-norm-ledger", ok, f"bilayer [{led_b.summary()}], micelle [{led_m.summary()}]")


def test_criterion_7_regime_signs(params, profile, micelle2, micelle3):
    # eta2 = -eta1: bilayer limit positive, micelle limit negative
    bl_neg = g1_energy(Circle(1.0), profile.a_star, profile.b_star, 1.0, -1.0)
    mi_neg = micelle_limit(2, 0.5, 1.0, -1.0, micelle2.sigma_n)
    # n = 3, eta2 > 3*eta1, sphere radius above the sign threshold: reversed
    eta1, eta2 = 1.0, 4.0
    rho = 3.0
    assert rho > 2.0 / np.sqrt(eta1 + eta2)
    bl_pos = g1_energy(Sphere(rho), profile.a_star, profile.b_star, eta1, eta2)
    mi_pos = micelle_limit(3, 0.5, eta1, eta2, micelle3.sigma_n)
    ok = bl_neg > 0 > mi_neg and bl_pos < 0 < mi_pos
    _verdict(
        "7-regime-signs",
        ok,
        f"eta2=-eta1: ({bl_neg:.3g}, {mi_neg:.3g}); n=3 eta2=4eta1 sphere: ({bl_pos:.3g}, {mi_pos:.3g})",
    )


def test_criterion_8_lower_bound(params, profile, growth):
    geom = Circle(1.0)
    ell = 1.05 * profile.half_width_L
    grid = TubularGrid.build(geom, ell, 0.05, 48, 513)
    vals = np.broadcast_to(profile.evaluate(grid.z_grid)[None, :], grid.shape).copy()
    audits = [lower_bound_audit(Field(grid, vals), geom, 1.0, 1.0, params, growth)]

    rng = np.random.default_rng(2024)
    bump_grid = TubularGrid.build(geom, 0.45, 0.05, 64, 257)
    s = bump_grid.s_grids[0][:, None]
    z = bump_grid.z_grid[None, :]
    for _ in range(20):
        amp = rng.uniform(0.1, 1.5)
        z0 = rng.uniform(0.15, 0.42)
        k = rng.integers(1, 5)
        phase = rng.uniform(0, 2 * np.pi)
        body = np.where(np.abs(z) < z0, (1.0 - (z / z0) ** 2) ** 3, 0.0)
        field = Field(bump_grid, amp * body * (1.0 + rng.uniform(-0.3, 0.3) * np.sin(k * s + phase)))
        audits.append(lower_bound_audit(field, geom, 1.0, 1.0, params, growth))
    worst = min(a.margin for a in audits)
    _verdict(
        "8-lower-bound",
        all(a.holds for a in audits),
        f"21 fields audited, smallest margin {worst:.4g}",
    )


def test_criterion_9_cross_module(params, profile):
    m1 = shoot_micelle(1, params)
    amp_gap = abs(m1.amplitude - profile.u_max)
    sigma_rel = abs(m1.sigma_n - profile.a_star) / profile.a_star
    _verdict(
        "9-cross-module",
        amp_gap <= 1e-6 and sigma_rel <= 1e-6,
        f"amplitude gap {amp_gap:.2e}, sigma1 vs a* rel {sigma_rel:.2e}",
    )
