import numpy as np
import pytest

from fchlab import (
    Circle,
    Ellipse,
    Field,
    SequenceSpec,
    Sphere,
    TubularGrid,
    build_bilayer_field,
    build_micelle_field,
    cahn_hilliard_residual,
    curvilinear_gradient,
    curvilinear_laplacian,
    eval_dwell,
    fch_energy,
    fch_energy_sweep,
    g1_energy,
    lower_bound_audit,
    snap_micelle_eps,
)
from fchlab.errors import InfeasibleModelError


def smooth_bump(z, z0):
    out = np.where(np.abs(z) < z0, (1.0 - (z / z0) ** 2) ** 3, 0.0)
    return out


def circle_grid(eps=0.1, ell=0.8, ns=64, nz=257):
    return TubularGrid.build(Circle(1.0), ell, eps, ns, nz)


def test_gradient_of_s_independent_field_has_zero_tangential(params):
    grid = circle_grid()
    vals = np.broadcast_to(smooth_bump(grid.z_grid, 0.6), grid.shape).copy()
    g = curvilinear_gradient(Field(grid, vals), grid.geom)
    assert np.all(g[0] == 0.0)


def test_gradient_of_linear_field(params):
    grid = circle_grid()
    vals = np.broadcast_to(grid.z_grid[None, :], grid.shape).copy()
    g = curvilinear_gradient(Field(grid, vals, check_bc=False), grid.geom)
    assert np.max(np.abs(g[0])) < 1e-13
    assert np.max(np.abs(g[1] - 1.0 / grid.eps)) < 1e-10


def test_gradient_tangential_closed_form_fourth_order():
    errs = []
    for ns in (32, 64):
        grid = circle_grid(ns=ns)
        s = grid.s_grids[0][:, None]
        gz = smooth_bump(grid.z_grid, 0.6)[None, :]
        fld = Field(grid, np.sin(s) * gz + 1.0e-9, check_bc=False)
        g = curvilinear_gradient(fld, grid.geom)
        exact = np.cos(s) * gz / (1.0 + grid.eps * grid.z_grid[None, :])
        errs.append(np.max(np.abs(g[0] - exact)))
    assert errs[0] / errs[1] > 10.0  # 4th order would give 16


def test_laplacian_of_constant_is_zero():
    grid = circle_grid()
    fld = Field(grid, np.ones(grid.shape), check_bc=False)
    assert np.max(np.abs(curvilinear_laplacian(fld, grid.geom))) == 0.0


def test_laplacian_radial_closed_form():
    # s-independent field on the circle: lap = u_zz/eps^2 + kappa u_z/(eps(1+eps z kappa))
    errs = []
    for nz in (257, 513):
        grid = circle_grid(nz=nz)
        z = grid.z_grid
        c = np.pi / (2.0 * grid.ell)
        u = np.cos(c * z) ** 4
        up = -4.0 * c * np.sin(c * z) * np.cos(c * z) ** 3
        upp = -4.0 * c * c * (np.cos(c * z) ** 4 - 3.0 * np.sin(c * z) ** 2 * np.cos(c * z) ** 2)
        fld = Field(grid, np.broadcast_to(u, grid.shape).copy(), check_bc=False)
        lap = curvilinear_laplacian(fld, grid.geom)
        eps = grid.eps
        exact = upp / eps**2 + up / (eps * (1.0 + eps * z))
        errs.append(np.max(np.abs(lap - exact[None, :])))
    assert errs[0] / errs[1] > 10.0


def _laplacian_closed_form(geom, grid):
    """u = sin t * cos^4(pi z / 2 ell) and its exact Laplacian, split off the metric-gradient term.

    lap u = u_zz/eps^2 + kappa/(1 + eps z kappa) u_z/eps + H^-1 d_t(u_t / H)
    with H = w(1 + eps z kappa); the last term is u_tt/H^2 - u_t H_t/H^3.
    """
    t = grid.s_grids[0][:, None]
    z = grid.z_grid[None, :]
    eps = grid.eps
    c = np.pi / (2.0 * grid.ell)
    g = np.cos(c * z) ** 4
    g_z = -4.0 * c * np.sin(c * z) * np.cos(c * z) ** 3
    g_zz = -4.0 * c * c * (np.cos(c * z) ** 4 - 3.0 * np.sin(c * z) ** 2 * np.cos(c * z) ** 2)
    if isinstance(geom, Ellipse):
        w = np.sqrt((geom.a * np.sin(t)) ** 2 + (geom.b * np.cos(t)) ** 2)
        w_t = (geom.a**2 - geom.b**2) * np.sin(t) * np.cos(t) / w
        kappa = geom.a * geom.b / w**3
        kappa_t = -3.0 * kappa * w_t / w
    else:
        w, w_t, kappa, kappa_t = geom.rho, 0.0, 1.0 / geom.rho, 0.0
    one_plus = 1.0 + eps * z * kappa
    h = w * one_plus
    h_t = w_t * one_plus + w * eps * z * kappa_t
    u = np.sin(t) * g
    main = np.sin(t) * (g_zz / eps**2 + kappa / one_plus * g_z / eps) - np.sin(t) * g / h**2
    metric_gradient = -np.cos(t) * g * h_t / h**3
    return u, main, metric_gradient


@pytest.mark.parametrize("geom", [Ellipse(2.0, 1.0), Circle(1.0)], ids=["ellipse", "circle"])
def test_laplacian_closed_form_fourth_order(geom):
    errs = []
    for ns, nz in ((64, 257), (128, 513)):
        grid = TubularGrid.build(geom, 0.15, 0.1, ns, nz)
        u, main, metric_gradient = _laplacian_closed_form(geom, grid)
        lap = curvilinear_laplacian(Field(grid, u, check_bc=False), geom)
        errs.append(np.max(np.abs(lap - main - metric_gradient)))
    assert errs[0] / errs[1] > 14.0  # 4th order gives 16
    if isinstance(geom, Ellipse):
        # the metric-gradient term (about 0.51) is far above the error (about 0.0057),
        # so a Laplacian without it fails; on the circle the term is identically 0
        assert np.max(np.abs(metric_gradient)) > 50.0 * errs[1]


def test_zero_field_has_zero_energy(params):
    grid = circle_grid()
    rep = fch_energy(Field(grid, np.zeros(grid.shape)), grid.geom, 1.0, 1.0, params)
    assert rep.total == 0.0
    assert rep.mass == 0.0
    assert rep.norm_u_lp == 0.0


def test_exact_bilayer_diagnostics(params, profile):
    geom = Circle(1.0)
    ell = 1.05 * profile.half_width_L
    grid = TubularGrid.build(geom, ell, 0.05, 48, 1025)
    vals = np.broadcast_to(profile.evaluate(grid.z_grid)[None, :], grid.shape).copy()
    rep = fch_energy(Field(grid, vals), geom, 1.0, 1.0, params)
    assert rep.equipartition_defect <= 1e-8 * geom.surface_measure
    assert rep.bilayer_residual <= 1e-5
    assert rep.total == rep.quadratic_part - rep.functional_part


def test_energy_approaches_interface_limit(params, profile):
    geom = Circle(1.0)
    ell = 1.05 * profile.half_width_L
    g1 = g1_energy(geom, profile.a_star, profile.b_star, 1.0, 1.0)
    errs = []
    for eps in (0.1, 0.05, 0.025, 0.0125):
        grid = TubularGrid.build(geom, ell, eps, 48, 513)
        vals = np.broadcast_to(profile.evaluate(grid.z_grid)[None, :], grid.shape).copy()
        rep = fch_energy(Field(grid, vals), geom, 1.0, 1.0, params)
        errs.append(abs(rep.total - g1))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    rate = np.polyfit(np.log([0.1, 0.05, 0.025, 0.0125]), np.log(errs), 1)[0]
    assert rate > 0.8  # symmetric profile on the circle actually gives ~2


def test_quadrature_self_convergence(params, profile):
    geom = Circle(1.0)
    ell = 1.05 * profile.half_width_L
    vals_of = {}
    for ns, nz in ((48, 513), (96, 1025)):
        grid = TubularGrid.build(geom, ell, 0.05, ns, nz)
        vals = np.broadcast_to(profile.evaluate(grid.z_grid)[None, :], grid.shape).copy()
        vals_of[(ns, nz)] = fch_energy(Field(grid, vals), geom, 1.0, 1.0, params).total
    a, b = vals_of[(48, 513)], vals_of[(96, 1025)]
    assert abs(a - b) < 1e-6 * abs(b)


def test_norm_diagnostics_uniform_in_eps(params, profile):
    geom = Circle(1.0)
    ell = 1.05 * profile.half_width_L
    rows = []
    for eps in (0.1, 0.05, 0.025, 0.0125):
        grid = TubularGrid.build(geom, ell, eps, 48, 513)
        vals = np.broadcast_to(profile.evaluate(grid.z_grid)[None, :], grid.shape).copy()
        rep = fch_energy(Field(grid, vals), geom, 1.0, 1.0, params)
        rows.append((rep.norm_u_lp, rep.norm_uz_l2, rep.norm_us_l2, rep.norm_uss_l2))
    arr = np.array(rows)
    assert np.max(arr[:, 0]) / np.min(arr[:, 0]) < 1.001
    assert np.max(arr[:, 1]) / np.min(arr[:, 1]) < 1.001
    assert np.all(arr[:, 2] == 0.0) and np.all(arr[:, 3] == 0.0)


def test_g1_closed_forms(profile):
    a = profile.a_star
    for rho in (0.5, 1.0, 2.0):
        expected = 2 * np.pi * a * (1.0 / rho - 2.0 * rho)
        assert g1_energy(Circle(rho), a, a, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)
    rho_zero = 1.0 / np.sqrt(2.0)
    assert abs(g1_energy(Circle(rho_zero), a, a, 1.0, 1.0)) < 1e-12
    # eta2 = -eta1: pure bending, positive for any curved interface
    assert g1_energy(Circle(1.0), a, a, 1.0, -1.0) == pytest.approx(a * 2 * np.pi, rel=1e-12)
    assert g1_energy(Sphere(3.0), a, a, 1.0, 1.0) == pytest.approx(16 * np.pi * a - 2 * a * 4 * np.pi * 9, rel=1e-12)


def test_g1_accepts_s_dependent_constants(profile):
    geom = Circle(1.0)
    a = profile.a_star
    const = g1_energy(geom, a, a, 1.0, 1.0)
    callables = g1_energy(geom, lambda t: a + 0.0 * t, lambda t: a + 0.0 * t, 1.0, 1.0)
    assert callables == pytest.approx(const, rel=1e-12)
    varying = g1_energy(geom, lambda t: a * (1 + 0.5 * np.sin(t)), a, 1.0, 1.0)
    # sin integrates away on the circle
    assert varying == pytest.approx(const, rel=1e-10)


def test_report_serializes_flat(params):
    import json

    grid = circle_grid()
    rep = fch_energy(Field(grid, np.zeros(grid.shape)), grid.geom, 1.0, 1.0, params)
    payload = json.loads(rep.to_json())
    assert payload["total"] == 0.0
    assert all(not isinstance(v, (dict, list)) for v in payload.values())


def test_cahn_hilliard_residual_zero_field(params):
    grid = circle_grid()
    r = cahn_hilliard_residual(Field(grid, np.zeros(grid.shape)), grid.geom, params)
    assert np.max(np.abs(r)) == 0.0


def test_cahn_hilliard_residual_bounded_on_bilayer(params, profile):
    geom = Circle(1.0)
    ell = 1.05 * profile.half_width_L
    norms = []
    for eps in (0.1, 0.05, 0.025):
        grid = TubularGrid.build(geom, ell, eps, 48, 513)
        vals = np.broadcast_to(profile.evaluate(grid.z_grid)[None, :], grid.shape).copy()
        fld = Field(grid, vals)
        res = cahn_hilliard_residual(fld, geom, params)
        wz = grid.z_trapezoid_weights()
        w = geom.metric_weight(grid.s_mesh[0])[:, None]
        norms.append(np.sqrt(np.sum(res**2 * w * wz) * grid.h_s[0]))
    assert max(norms) / min(norms) < 1.1


def test_cahn_hilliard_residual_detects_pearling(params, profile):
    geom = Circle(1.0)
    ell = 1.05 * profile.half_width_L
    norms = []
    for eps in (0.1, 0.05):
        grid = TubularGrid.build(geom, ell, eps, 256, 385)
        s = grid.s_grids[0][:, None]
        k = round(1.0 / eps)
        vals = profile.evaluate(grid.z_grid)[None, :] * (1.0 + 0.5 * np.sin(k * s))
        fld = Field(grid, np.maximum(vals, 0.0))
        res = cahn_hilliard_residual(fld, geom, params)
        wz = grid.z_trapezoid_weights()
        w = geom.metric_weight(grid.s_mesh[0])[:, None]
        norms.append(np.sqrt(np.sum(res**2 * w * wz) * grid.h_s[0]))
    assert norms[1] > 1.5 * norms[0]


def test_lower_bound_zero_field(params, growth):
    grid = circle_grid(ell=0.45, eps=0.05)
    audit = lower_bound_audit(Field(grid, np.zeros(grid.shape)), grid.geom, 1.0, 1.0, params, growth)
    assert audit.lhs == 0.0
    assert audit.rhs == pytest.approx(-audit.a2 * audit.domain_measure)
    assert audit.holds


def test_lower_bound_exact_bilayer(params, profile, growth):
    geom = Circle(1.0)
    ell = 1.05 * profile.half_width_L
    grid = TubularGrid.build(geom, ell, 0.05, 48, 513)
    vals = np.broadcast_to(profile.evaluate(grid.z_grid)[None, :], grid.shape).copy()
    audit = lower_bound_audit(Field(grid, vals), geom, 1.0, 1.0, params, growth)
    assert audit.holds
    assert audit.margin > 0.0


def test_lower_bound_random_bumps(params, growth):
    rng = np.random.default_rng(42)
    grid = circle_grid(ell=0.45, eps=0.05, ns=64, nz=257)
    s = grid.s_grids[0][:, None]
    z = grid.z_grid[None, :]
    for _ in range(20):
        amp = rng.uniform(0.1, 1.5)
        z0 = rng.uniform(0.15, 0.42)
        k = rng.integers(1, 5)
        phase = rng.uniform(0, 2 * np.pi)
        mod = 1.0 + rng.uniform(-0.3, 0.3) * np.sin(k * s + phase)
        vals = amp * smooth_bump(z, z0) * mod
        audit = lower_bound_audit(Field(grid, vals), grid.geom, 1.0, 1.0, params, growth)
        assert audit.holds


def test_lower_bound_precondition(params, growth):
    grid = circle_grid(ell=0.45, eps=0.05)
    fld = Field(grid, np.zeros(grid.shape))
    with pytest.raises(InfeasibleModelError):
        lower_bound_audit(fld, grid.geom, 1.0, 4.0, params, growth)  # eta2 >= p*eta1


def test_field_validation(params):
    grid = circle_grid()
    bad = np.zeros(grid.shape)
    bad[3, 5] = np.nan
    with pytest.raises(ValueError):
        Field(grid, bad)
    stray = np.ones(grid.shape)  # violates the z boundary condition
    with pytest.raises(ValueError):
        Field(grid, stray)
    negative = np.zeros(grid.shape)
    negative[4, 100] = -0.5
    with pytest.raises(ValueError):
        Field(grid, negative)
    with pytest.raises(ValueError):
        Field(grid, np.zeros((3, 3)))


# Reports and audit sides recorded before the energy terms were shared
# between fch_energy and lower_bound_audit; the shared pass must reproduce
# them to round-off.  The micelle case was re-recorded with the in-package
# DOP853 shooter, whose profile lands at another R0 (grazing defect below
# 1e-9 either way); the earlier evaluator reproduces it from that profile.
PINNED = {
    "sphere_bilayer": {
        "total": -12.582903508016177,
        "quadratic_part": 3.579114009917066,
        "functional_part": 16.162017517933243,
        "mass": 195.21601272358396,
        "equipartition_defect": 0.004669652919475356,
        "bilayer_residual": 0.0008449721323694565,
        "norm_u_lp": 2.956658301079265,
        "norm_uz_l2": 4.012958813158286,
        "norm_us_l2": 0.14614379343458372,
        "norm_uss_l2": 0.07469095846677881,
        "audit_lhs": -12.582903508016177,
        "audit_rhs": -57547.84054201744,
    },
    "ellipse_micelle": {
        "total": -0.08694963252121529,
        "quadratic_part": 1.8590948849598385e-07,
        "functional_part": 0.08694981843070379,
        "mass": 1.1393313989048364,
        "equipartition_defect": 0.06996542801954417,
        "bilayer_residual": 0.21570793218708115,
        "norm_u_lp": 0.6417871906500199,
        "norm_uz_l2": 0.29557038955099885,
        "norm_us_l2": 7.394545939390522,
        "norm_uss_l2": 135.13655948138606,
        "audit_lhs": -0.08694963252121529,
        "audit_rhs": -4843.642954882572,
    },
}


def pinned_field(case, params):
    if case == "sphere_bilayer":
        # a tilted pulse, so the tangential norms are not round-off
        spec = SequenceSpec(
            kind="bilayer", geom=Sphere(3.0), params=params, eta1=1.0, eta2=1.0, eps_list=(0.1,),
            translate=lambda th, ph: 0.1 * np.sin(th) ** 2 * np.cos(ph), ns=(16, 24), nz=65,
        )
        return build_bilayer_field(spec, 0.1), spec.geom
    eps, _ = snap_micelle_eps(0.5, 2, 0.05)
    spec = SequenceSpec(
        kind="micelle", geom=Ellipse(2.0, 1.0), params=params, eta1=1.0, eta2=1.0, alpha=0.5,
        eps_list=(eps,), ns=(768,), nz=129,
    )
    return build_micelle_field(spec, eps), spec.geom


@pytest.mark.parametrize("case", sorted(PINNED))
def test_energy_and_audit_pinned(case, params, growth):
    fld, geom = pinned_field(case, params)
    rep = fch_energy(fld, geom, 1.0, 1.0, params)
    audit = lower_bound_audit(fld, geom, 1.0, 1.0, params, growth)
    got = dict(rep.__dict__, audit_lhs=audit.lhs, audit_rhs=audit.rhs)
    for key, value in PINNED[case].items():
        assert got[key] == pytest.approx(value, rel=1e-13), key


# Integral part of the audit's rhs, recorded before it was reported: rhs =
# integral - a2*|domain|, and the -a2*|domain| term carries the bound.
# The micelle value was re-recorded with the in-package shooter's profile.
PINNED_AUDIT_INTEGRAL = {
    "ellipse_micelle": 1.1405911212039925,
    "sphere_bilayer": 113.07669152971695,
}


@pytest.mark.parametrize("case", sorted(PINNED_AUDIT_INTEGRAL))
def test_audit_integral_pinned(case, params, growth):
    fld, geom = pinned_field(case, params)
    audit = lower_bound_audit(fld, geom, 1.0, 1.0, params, growth)
    assert audit.integral == pytest.approx(PINNED_AUDIT_INTEGRAL[case], rel=1e-13)
    assert audit.rhs == audit.integral - audit.a2 * audit.domain_measure


def sweep_spec(case, params):
    if case == "sphere_bilayer":
        return SequenceSpec(
            kind="bilayer", geom=Sphere(3.0), params=params, eta1=1.0, eta2=0.5, eps_list=(0.1, 0.05, 0.025),
            translate=lambda th, ph: 0.1 * np.sin(th) ** 2 * np.cos(ph), ns=(16, 24), nz=65,
        )
    return SequenceSpec(
        kind="bilayer", geom=Ellipse(2.0, 1.0), params=params, eta1=1.0, eta2=0.5, eps_list=(0.04, 0.02, 0.01),
        translate=lambda t: 0.1 * np.cos(t), ns=96, nz=129,
    )


@pytest.mark.parametrize("case", ["sphere_bilayer", "ellipse_bilayer"])
def test_sweep_equals_one_width_calls(case, params):
    # U(z - p(s)) does not depend on eps: one field's sweep is each width's own field
    spec = sweep_spec(case, params)
    fld = build_bilayer_field(spec, spec.eps_list[0])
    sweep = fch_energy_sweep(fld, spec.geom, spec.eps_list, 1.0, 0.5, params)
    assert len(sweep) == len(spec.eps_list)
    for eps, rep in zip(spec.eps_list, sweep):
        one = fch_energy(build_bilayer_field(spec, eps), spec.geom, 1.0, 0.5, params)
        for key, value in one.__dict__.items():
            assert getattr(rep, key) == value, (eps, key)


def test_sweep_checks_each_width(params):
    spec = sweep_spec("sphere_bilayer", params)
    fld = build_bilayer_field(spec, 0.1)
    # eps*ell*kappa0 >= 1 on Sphere(3) once eps*ell >= 3
    with pytest.raises(InfeasibleModelError):
        fch_energy_sweep(fld, spec.geom, (0.1, 3.0 / fld.grid.ell), 1.0, 1.0, params)
    with pytest.raises(ValueError):
        fch_energy_sweep(fld, spec.geom, (0.1, 0.0), 1.0, 1.0, params)
    zero = Field(fld.grid, np.zeros(fld.grid.shape))
    reps = fch_energy_sweep(zero, spec.geom, (0.1, 0.05), 1.0, 1.0, params)
    assert [r.eps for r in reps] == [0.1, 0.05]
    assert all(v == 0.0 for r in reps for k, v in r.__dict__.items() if k != "eps")


# Reports and audit sides recorded with the whole-grid evaluator, before
# integrals were restricted to the support plus its stencil halo.  Micelle
# values beyond rel 1e-12 were re-recorded with the in-package shooter's
# profiles, which the whole-grid evaluator reproduces exactly.
EDGE_PINNED = {
    # a micelle straddling the periodic seam s = 0, off-centre
    "circle_micelle_seam": {
        "total": -0.08693534020872573,
        "quadratic_part": 4.142521132290303e-06,
        "functional_part": 0.08693948272985802,
        "mass": 1.139331398928243,
        "equipartition_defect": 0.06962049014779027,
        "bilayer_residual": 0.2146946138680144,
        "norm_u_lp": 0.6412854184369525,
        "norm_uz_l2": 0.2950551045002409,
        "norm_us_l2": 7.405493218510029,
        "norm_uss_l2": 135.1778015362472,
        "audit_lhs": -0.08693534020872573,
        "audit_rhs": -3140.8148779833987,
    },
    # support on theta rows 0..20 of 64: the bounded axis's true edge and a cut one
    "sphere_micelle": {
        "total": 0.1336685461216151,
        "quadratic_part": 0.5771097620060376,
        "functional_part": 0.4434412158844225,
        "mass": 8.387070426246154,
        "equipartition_defect": 0.682079502160305,
        "bilayer_residual": 0.67212153444905,
        "norm_u_lp": 1.411199826846481,
        "norm_uz_l2": 0.6771471933851148,
        "norm_us_l2": 13.331814123503792,
        "norm_uss_l2": 77.16692843703026,
        "audit_lhs": 0.1336685461216151,
        "audit_rhs": -68424.08162039454,
    },
    # every column nonzero: the support is the whole grid
    "ellipse_bilayer": {
        "total": -0.9037374205598467,
        "quadratic_part": 0.4739717966835873,
        "functional_part": 1.377709217243434,
        "mass": 16.658509122680826,
        "equipartition_defect": 2.5463441642395313e-05,
        "bilayer_residual": 1.5946335358042883e-05,
        "norm_u_lp": 1.3026741558483521,
        "norm_uz_l2": 1.1737527818589704,
        "norm_us_l2": 0.050477605589144436,
        "norm_uss_l2": 0.04091644295708765,
        "audit_lhs": -0.9037374205598467,
        "audit_rhs": -4791.04613915672,
    },
}


def edge_field(case, params):
    if case == "circle_micelle_seam":
        eps, _ = snap_micelle_eps(0.5, 2, 0.05)
        spec = SequenceSpec(
            kind="micelle", geom=Circle(1.0), params=params, eta1=1.0, eta2=1.0, alpha=0.5,
            eps_list=(eps,), ns=(512,), nz=129,
        )
        fld = build_micelle_field(spec, eps)
        return Field(fld.grid, np.roll(fld.values, 7, axis=0)), spec.geom
    if case == "sphere_micelle":
        eps, _ = snap_micelle_eps(0.5, 3, 0.1)
        spec = SequenceSpec(
            kind="micelle", geom=Sphere(3.0), params=params, eta1=1.0, eta2=1.0, alpha=0.5,
            eps_list=(eps,), ns=(64, 128), nz=65,
        )
        return build_micelle_field(spec, eps), spec.geom
    spec = SequenceSpec(
        kind="bilayer", geom=Ellipse(2.0, 1.0), params=params, eta1=1.0, eta2=1.0, eps_list=(0.025,),
        translate=lambda t: 0.1 * np.cos(t), ns=96, nz=129,
    )
    return build_bilayer_field(spec, 0.025), spec.geom


@pytest.mark.parametrize("case", sorted(EDGE_PINNED))
def test_support_local_pass_pinned(case, params, growth):
    fld, geom = edge_field(case, params)
    rep = fch_energy(fld, geom, 1.0, 1.0, params)
    audit = lower_bound_audit(fld, geom, 1.0, 1.0, params, growth)
    got = dict(rep.__dict__, audit_lhs=audit.lhs, audit_rhs=audit.rhs)
    for key, value in EDGE_PINNED[case].items():
        assert got[key] == pytest.approx(value, rel=1e-12), key


@pytest.mark.parametrize("case", ["circle_micelle_seam", "sphere_micelle"])
def test_residual_matches_whole_grid_operators(case, params):
    fld, geom = edge_field(case, params)
    res = cahn_hilliard_residual(fld, geom, params)
    assert res.shape == fld.grid.shape
    eps = fld.grid.eps
    dense = -eps * curvilinear_laplacian(fld, geom) + eval_dwell(fld.values, params) / eps
    assert np.array_equal(res, dense)


def test_degenerate_metric_refused_off_the_support(params):
    # kappa peaks at 2 at t = 0 and is 1/4 at t = pi/2; eps*ell = 0.6 makes
    # 1 - eps*ell*kappa negative only near t = 0, far from the field
    geom = Ellipse(2.0, 1.0)
    ns, ell, eps = 256, 1.0, 0.6
    s = np.arange(ns) * (2.0 * np.pi / ns)
    grid = TubularGrid(geom=geom, ell=ell, eps=eps, s_grids=(s,), z_grid=np.linspace(-ell, ell, 65))
    vals = smooth_bump(s[:, None] - 0.5 * np.pi, 0.3) * smooth_bump(grid.z_grid[None, :], 0.8)
    fld = Field(grid, vals)
    assert np.all(1.0 - eps * ell * geom.curvatures(s[np.any(vals > 0.0, axis=1)])[0] > 0.0)
    with pytest.raises(InfeasibleModelError):
        fch_energy(fld, geom, 1.0, 1.0, params)
    with pytest.raises(InfeasibleModelError):
        fch_energy(Field(grid, np.zeros(grid.shape)), geom, 1.0, 1.0, params)
