import json
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest

from fchlab import cli, energy
from fchlab import (
    BilayerFamily,
    Circle,
    ConvergenceReport,
    Ellipse,
    EnergyReport,
    Field,
    InterfaceGeom,
    MicelleFamily,
    Sphere,
    Torus,
    TubularGrid,
    build_bilayer_field,
    build_micelle_field,
    fch_energy,
    g1_energy,
    micelle_limit,
    phase_diagram,
    place_micelle_centers,
    run_convergence,
    sequences,
    shoot_micelle,
    snap_micelle_eps,
    solve_profile,
    unit_sphere_area,
    verify_derivative_bounds,
)
from fchlab.errors import InfeasibleModelError, NumericsError, PlacementError


def bilayer_spec(params, **kw):
    defaults = dict(geom=Circle(1.0), params=params, eta1=1.0, eta2=1.0)
    defaults.update(kw)
    return BilayerFamily(**defaults)


def test_spec_validation(params):
    with pytest.raises(ValueError, match="strictly decreasing"):
        bilayer_spec(params, eps_list=(0.05, 0.1))
    with pytest.raises(ValueError, match="strictly decreasing"):
        MicelleFamily(geom=Circle(1.0), params=params, eta1=1.0, eta2=1.0, alpha=0.5, eps_list=(0.05, 0.1))
    for eps_list in ((float("nan"),), (0.1, float("nan")), (float("inf"), 0.1)):
        with pytest.raises(ValueError, match="finite"):
            bilayer_spec(params, eps_list=eps_list)
    with pytest.raises(ValueError, match="alpha > 0"):
        MicelleFamily(geom=Circle(1.0), params=params, eta1=1.0, eta2=1.0, alpha=None)


def test_bilayer_field_is_s_independent(params):
    fld = build_bilayer_field(bilayer_spec(params), 0.1)
    rep = fch_energy(fld, 1.0, 1.0, params)
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


def _spike_at_a_grid_node(params, value):
    """A translate that is `value` at the second chart node of the default translated grid and 0 elsewhere.

    That node lies between the nodes of a 256-per-axis chart probe.
    """
    grid, _ = bilayer_spec(params, translate=np.zeros_like).prepare(0.1)
    node = grid.s_grids[0][1]
    return lambda s: np.where(s == node, value, 0.0)


@pytest.mark.parametrize(
    "translate, ell",
    [
        (lambda s: np.where(s > 1.0, np.nan, 0.0), 5.0),  # nan on many nodes, ell given
        (lambda s: np.where(s > 1.0, np.nan, 0.0), None),  # nan on many nodes, ell from max|p|
        (lambda s: np.where(s > 1.0, np.inf, 0.0), None),
        ("grid node", None),  # nan at one grid node only
    ],
)
def test_a_translate_that_is_not_finite_is_refused(params, translate, ell):
    # a nan probe once zeroed its rows silently or blamed ell, and an infinite
    # one was an InfeasibleModelError
    translate = _spike_at_a_grid_node(params, np.nan) if translate == "grid node" else translate
    with pytest.raises(ValueError, match=r"^translate must be finite on the chart, got max\|p\| = (nan|inf)$"):
        build_bilayer_field(bilayer_spec(params, translate=translate, ell=ell), 0.1)


@pytest.mark.parametrize("dry_run", [True, False], ids=["prepare", "build"])
def test_the_translate_is_bounded_on_the_grid(params, profile, dry_run):
    # max|p| = 3 at one grid node: bounded on a chart probe that missed that
    # node, the default slab was too thin and a given ell = 9 (< L + 3) was
    # let through, and both builds failed with "field must vanish at z = +-ell"
    def grid_at(family, eps):
        return family.prepare(eps)[0] if dry_run else build_bilayer_field(family, eps).grid

    family = bilayer_spec(params, translate=_spike_at_a_grid_node(params, 3.0))
    assert grid_at(family, 0.05).ell == 1.05 * (profile.half_width_L + 3.0)
    for eps in (0.1, 0.05):
        with pytest.raises(InfeasibleModelError, match="must stay below ell"):
            grid_at(replace(family, ell=9.0), eps)


def test_prepare_samples_the_translate_on_its_grid(params):
    grid, p = bilayer_spec(params, translate=_spike_at_a_grid_node(params, 3.0)).prepare(0.05)
    assert p.shape == grid.shape[:-1] and np.count_nonzero(p) == 1 and np.max(p) == 3.0
    assert bilayer_spec(params).prepare(0.05)[1] == 0.0


def test_untranslated_pulse_containment(params, profile):
    # a pulse reaching |z| = ell is infeasible whether or not it is translated
    spec = bilayer_spec(params, ell=0.5 * profile.half_width_L)
    with pytest.raises(InfeasibleModelError, match="must stay below ell"):
        build_bilayer_field(spec, 0.05)


def test_micelle_field_single_center(params, micelle2):
    # one compacton: energy matches the closed form with the angular factor,
    # improving under width refinement
    omega = unit_sphere_area(2)
    gaps = []
    for eps in (0.05, 0.02):
        spec = MicelleFamily(
            geom=Circle(1.0),
            params=params,
            eta1=1.0,
            eta2=1.0,
            alpha=omega * eps,  # exactly one center at this width
            eps_list=(eps,),
        )
        fld = build_micelle_field(spec, eps)
        rep = fch_energy(fld, 1.0, 1.0, params)
        predicted = micelle_limit(2, spec.alpha, 1.0, 1.0, micelle2.sigma_n)
        gaps.append(abs(rep.total - predicted) / abs(predicted))
    assert gaps[0] <= 0.02 and gaps[1] <= 0.02
    # refinement must not worsen the match beyond the discretization floor
    assert gaps[1] <= max(gaps[0], 1e-4)

    # on each shape the bump equals U(radius) with each sample's radius from
    # the builder's two scalars formed on the whole grid, bit for bit, and
    # the ambient U(|phi(s) + eps*z*n(s) - center| / eps) to round-off.  Both
    # radii are differences of ambient points of size about 1, divided by
    # eps, so they part by a few ulps over eps: each sample by at most
    # 1e-15/eps amplitudes (measured here: 1.8e-15 amplitudes at most)
    for geom, eps, ns in (
        (Circle(1.0), 0.1, None),
        (Ellipse(2.0, 1.0), 0.05, None),
        (Sphere(3.0), 0.1, (48, 96)),
        (Torus(3.0, 1.0), 0.05, (128, 384)),
    ):
        n = geom.ambient_n
        spec = MicelleFamily(
            geom=geom, params=params, eta1=1.0, eta2=1.0, alpha=unit_sphere_area(n) * eps ** (n - 1),
            eps_list=(eps,), ns=ns, nz=65,
        )
        fld = build_micelle_field(spec, eps)
        prof = shoot_micelle(n, params)
        (center,) = place_micelle_centers(geom, eps, spec.micelle_count(eps), prof.r0_support)
        c_pos = geom.position(*center)
        ref = np.maximum(prof.evaluate(_two_scalar_radii(fld.grid, c_pos)), 0.0)
        assert np.count_nonzero(ref) > 0
        assert np.array_equal(fld.values, ref), geom.name
        ambient = np.maximum(prof.evaluate(_ambient_radii(fld.grid, c_pos)), 0.0)
        assert np.max(np.abs(fld.values - ambient)) <= 1e-15 / eps * prof.amplitude, geom.name


def _two_scalars(grid, c_pos):
    """(beta, q) at every chart point, formed as the builder forms them: beta = n.(phi - c), q = |phi - c - beta*n|^2."""
    t = [np.broadcast_to(m, grid.shape[:-1]) for m in grid.s_mesh]
    nrm = grid.geom.normal(*t)
    d = grid.geom.position(*t) - c_pos
    beta = np.sum(nrm * d, axis=-1)
    d -= beta[..., None] * nrm
    return beta, np.sum(d * d, axis=-1)


def _two_scalar_radii(grid, c_pos):
    """Each sample's radius from c_pos, sqrt(q + (beta + eps*z)^2) / eps, on the whole grid."""
    beta, q = _two_scalars(grid, c_pos)
    return np.sqrt(q[..., None] + np.square(beta[..., None] + grid.eps * grid.z_grid)) / grid.eps


def _ambient_radii(grid, c_pos):
    """Each sample's radius from c_pos, |phi(s) + eps*z*n(s) - c| / eps, from its ambient position."""
    t = [np.broadcast_to(m, grid.shape[:-1]) for m in grid.s_mesh]
    phi, nrm, ez = grid.geom.position(*t), grid.geom.normal(*t), grid.eps * grid.z_grid
    sq = sum(np.square(phi[..., k, None] + ez * nrm[..., k, None] - c) for k, c in enumerate(c_pos))
    return np.sqrt(sq) / grid.eps


def test_family_builds_the_nz_it_asks_for(params):
    eps, _ = snap_micelle_eps(0.5, 2, 0.05)
    micelles = MicelleFamily(
        geom=Circle(1.0), params=params, eta1=1.0, eta2=1.0, alpha=0.5, eps_list=(eps,), ns=(512,), nz=385
    )
    assert build_micelle_field(micelles, eps).grid.shape == (512, 385)
    # nz None: 257 z samples for a micelle, 513 for a bilayer
    assert build_micelle_field(replace(micelles, nz=None), eps).grid.shape == (512, 257)
    assert build_bilayer_field(bilayer_spec(params), 0.1).grid.shape == (64, 513)


def test_oversized_grid_is_refused_before_it_is_allocated(params):
    # the default micelle resolution on Torus(3, 1) at eps 0.0499 asks for
    # about 629 x 2516 x 257 samples, 3.25 GB a field
    family = MicelleFamily(
        geom=Torus(3.0, 1.0), params=params, eta1=1.0, eta2=1.0, alpha=0.5, eps_list=(0.0499,)
    )
    shoot_micelle(3, params)  # the memoised profile, outside the measurement
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^torus grid \d+x\d+x257 needs \d+ bytes a field"):
            run_convergence(family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


def test_micelle_windows_build_in_chunks(params, monkeypatch):
    # a center's bump is formed and added into the field in chunks of at
    # most energy._TILE_SAMPLES samples.  On Sphere(1) at eps 0.05 the chart
    # points a center can reach are up to a sixth of the chart; formed in
    # one piece, one center's radii alone would take 64 MB on the default
    # 314x628x257 field
    family = MicelleFamily(
        geom=Sphere(1.0), params=params, eta1=1.0, eta2=1.0, alpha=0.1, eps_list=(0.05,), ns=(40, 80), nz=65
    )
    whole = build_micelle_field(family, 0.05)  # the default 2^16: chunks of 1008 chart points
    assert np.count_nonzero(whole.values) > 0
    # 2^14 samples: chunks of 252 chart points of 65 samples
    monkeypatch.setattr(energy, "_TILE_SAMPLES", 2**14)
    assert build_micelle_field(family, 0.05).values.tobytes() == whole.values.tobytes()
    # 2^10 samples: chunks of 15 chart points
    monkeypatch.setattr(energy, "_TILE_SAMPLES", 2**10)
    tracemalloc.start()
    try:
        fld = build_micelle_field(family, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fld.values.tobytes() == whole.values.tobytes()
    assert peak < 2 * fld.values.nbytes


def test_micelle_build_holds_no_second_copy_of_the_field(params):
    # beside the field, the build holds one chunk and three scalars per
    # reachable chart point, so what it takes past the stored bytes stays
    # flat as the centers double (measured: +0.06 MB, against +2.87 MB
    # stored); a build holding each bump apart until the field is laid out
    # would grow by about the field's growth
    shoot_micelle(2, params)  # the memoised profile, outside the measurement
    extra, stored = [], []
    for alpha in (1.25, 2.5):
        family = MicelleFamily(
            geom=Circle(2.0), params=params, eta1=1.0, eta2=1.0, alpha=alpha, eps_list=(0.01,), ns=(4096,)
        )
        family.prepare(0.01)  # placement's tables, outside the measurement
        tracemalloc.start()
        try:
            fld = build_micelle_field(family, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(fld.runs) == family.micelle_count(0.01) == 16 * alpha  # 20, then 40 centers
        stored.append(sum(block.nbytes for _, block in fld.runs))
        extra.append(peak - stored[-1])
    assert extra[1] - extra[0] < 0.05 * (stored[1] - stored[0])


def test_overlapping_micelles_are_a_numerics_error(params, monkeypatch, tmp_path, capsys):
    # one center placed twice: its two bumps meet at every nonzero sample
    def twice(geom, eps, count, r0):
        return np.repeat(place_micelle_centers(geom, eps, count, r0)[:1], 2, axis=0)

    monkeypatch.setattr(sequences, "place_micelle_centers", twice)
    eps, _ = snap_micelle_eps(0.5, 2, 0.05)
    family = MicelleFamily(geom=Circle(1.0), params=params, eta1=1.0, eta2=1.0, alpha=0.5, eps_list=(eps,))
    with pytest.raises(NumericsError, match="^micelle supports overlap despite placement separation$"):
        build_micelle_field(family, eps)
    out = tmp_path / "conv.csv"
    assert cli.main(["converge", "--kind", "micelle", "--alpha", "0.5", "--eps-list", repr(eps), "--out", str(out)]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "NumericsError"
    assert sorted(tmp_path.iterdir()) == []


def _dense_micelle_samples(family, eps):
    """The micelle field's bumps, each formed on the whole grid from the two scalars and added into one array."""
    prof = shoot_micelle(family.geom.ambient_n, family.params)
    grid, centers = family.prepare(eps)
    vals = np.zeros(grid.shape)
    for center in centers:
        radii = _two_scalar_radii(grid, family.geom.position(*center))
        inside = radii < prof.r0_support  # U vanishes elsewhere
        vals[inside] += np.maximum(prof.evaluate(radii[inside]), 0.0)
    return grid, centers, vals


@pytest.fixture(scope="module")
def finest_ellipse(params):
    """The finest width of the ellipse's default schedule: (family, eps, micelle count, field)."""
    eps, count = snap_micelle_eps(0.5, 2, 0.00625)
    family = MicelleFamily(geom=Ellipse(2.0, 1.0), params=params, eta1=1.0, eta2=1.0, alpha=0.5, eps_list=(eps,))
    return family, eps, count, build_micelle_field(family, eps)


def test_micelle_field_stores_only_its_live_rows(finest_ellipse):
    # 13 micelles on an 11959 x 257 grid, about 15% of whose rows lie within
    # 8 of a nonzero row
    family, eps, count, fld = finest_ellipse
    n = fld.grid.shape[0]
    assert (count, fld.grid.shape) == (13, (11959, 257))
    grid, centers, dense = _dense_micelle_samples(family, eps)
    assert np.array_equal(fld.values, dense)
    # the ambient formula to round-off, by the bound of
    # test_micelle_field_single_center (measured here: 1.4e-14 amplitudes)
    prof = shoot_micelle(2, family.params)
    ambient = np.zeros(grid.shape)
    for center in centers:
        radii = _ambient_radii(grid, family.geom.position(*center))
        inside = radii < prof.r0_support
        ambient[inside] += np.maximum(prof.evaluate(radii[inside]), 0.0)
    assert np.max(np.abs(dense - ambient)) <= 1e-15 / eps * prof.amplitude
    hits = np.flatnonzero(np.any(dense, axis=-1))
    gap = np.abs(np.arange(n)[:, None] - hits)
    live = np.minimum(gap, n - gap).min(axis=1) <= 8  # t is periodic
    stored = np.zeros(n, dtype=bool)
    for a, block in fld.runs:
        stored[np.arange(a, a + len(block)) % n] = True
    assert np.array_equal(stored, live)
    assert 0.13 < np.count_nonzero(stored) / n < 0.17


def test_every_tile_of_a_micelle_field_reads_a_view_of_its_run(finest_ellipse):
    # each run holds the halo of the tiles of its body, so no window is
    # copied; one micelle meets the seam, and its run's body is tiled in two
    fld = finest_ellipse[3]
    tiles = energy._tiles(energy._run_rows(fld), True, fld.shape)
    assert (len(fld.runs), len(tiles)) == (13, 14)
    for run, rows, zs in tiles:
        assert np.shares_memory(energy._window(fld, run, rows, zs), fld.runs[run][1])


def test_micelle_field_visits_only_chart_points_near_its_centers(params, monkeypatch):
    # a center's bump is formed on the chart points whose least radius over
    # |z| <= ell, sqrt(q + max(|beta| - eps*ell, 0)^2) / eps, lies below R0,
    # and on no others: here one more than the 3335 chart points that hold
    # a nonzero sample (the distance test |phi(s) - c| < eps*(R0 + ell)
    # passes 3.9 times as many)
    geom = Sphere(3.0)
    family = MicelleFamily(
        geom=geom, params=params, eta1=1.0, eta2=1.0, alpha=0.5, eps_list=(0.05,), ns=(96, 192), nz=65
    )
    assert family.micelle_count(0.05) == 16
    formed = []
    from_pieces = Field._from_pieces.__func__

    def counting(cls, grid, rows, pieces):
        return from_pieces(cls, grid, rows, (formed.append(len(cols)) or (idx, cols) for idx, cols in pieces))

    monkeypatch.setattr(Field, "_from_pieces", classmethod(counting))
    fld = build_micelle_field(family, 0.05)
    grid, centers = family.prepare(0.05)
    r0 = shoot_micelle(3, params).r0_support
    reach = 0
    for center in centers:
        beta, q = _two_scalars(grid, geom.position(*center))
        least = np.maximum(np.abs(beta) - grid.eps * grid.ell, 0.0)
        reach += np.count_nonzero(np.sqrt(q + least * least) / grid.eps < r0)
    holding = np.count_nonzero(np.any(fld.values > 0.0, axis=-1))
    assert sum(formed) == reach
    assert 0 < holding <= sum(formed) <= 1.01 * holding


def test_g1_positive_whenever_eta2_below_minus_eta1(params, profile):
    from fchlab import Torus

    a, b = profile.a_star, profile.b_star
    for geom in (Circle(1.0), Ellipse(2.0, 1.0), Sphere(3.0), Torus(3.0, 1.0)):
        for eta1, eta2 in ((1.0, -1.5), (0.5, -0.6), (2.0, -2.1)):
            assert g1_energy(geom, a, b, eta1, eta2) > 0.0


def test_micelle_supports_disjoint(params, micelle2):
    eps = MicelleFamily(geom=Circle(1.0), params=params, eta1=1.0, eta2=1.0, alpha=0.5).eps_list[-1]
    spec = MicelleFamily(
        geom=Circle(1.0), params=params, eta1=1.0, eta2=1.0, alpha=0.5, eps_list=(eps,)
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


@dataclass(frozen=True, eq=False)
class OscillatoryBilayer(BilayerFamily):
    """U(z) * (1 + sin(s/eps)/2): the amplitude oscillates on the width's own scale."""

    width_free = False

    def field(self, eps):
        grid = TubularGrid.build(self.geom, self.ell, eps, self.ns, self.nz)
        s = grid.s_grids[0][:, None]
        k = round(1.0 / eps)
        pulse = solve_profile(self.params).evaluate(grid.z_grid)[None, :]
        return Field(grid, np.maximum(pulse * (1.0 + 0.5 * np.sin(k * s)), 0.0))


def test_oscillatory_bilayer_breaks_enhanced_bound(params, profile):
    family = OscillatoryBilayer(
        geom=Circle(1.0), params=params, eta1=1.0, eta2=1.0, eps_list=(0.1, 0.05, 0.025),
        ell=1.05 * profile.half_width_L, ns=512, nz=385,
    )
    report = run_convergence(family)
    led = verify_derivative_bounds(report)
    assert led.base_bounded
    assert not led.tangential_gradient_bounded


_LEDGER_EPS = (0.1, 0.05, 0.025, 0.0125)


def _ledger(norms):
    """The ledger of synthetic reports at _LEDGER_EPS with these (u, u_s, u_ss) norms, u_z = 0."""
    reports = tuple(
        EnergyReport(eps, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, u, 0.0, us, uss) for eps, (u, us, uss) in zip(_LEDGER_EPS, norms)
    )
    return verify_derivative_bounds(ConvergenceReport(True, _LEDGER_EPS, reports, 0.0, None, (True,) * len(reports)))


@pytest.mark.parametrize("s1", [-0.1, -0.2])
@pytest.mark.parametrize("s2", [-0.1, -0.2])
@pytest.mark.parametrize("s3", [0.55, 0.45])
def test_ledger_thresholds(s1, s2, s3):
    # bounded at a log-log slope >= -0.15, vanishing at >= 0.5: q1, q2 and
    # q3 follow exact powers of eps 0.05 from each line, on either side
    norms = []
    for eps in _LEDGER_EPS:
        uss = 0.01 * eps ** (s3 - 1.0)  # q3 = eps * u_ss
        us = eps**s2 - eps * uss  # q2 = u_s + eps * u_ss
        norms.append((eps**s1 - eps * us, us, uss))  # q1 = u + u_z + eps * u_s
    led = _ledger(norms)
    assert list(led.slopes.values()) == pytest.approx([s1, s2, s3], abs=1e-12)
    assert led.base_bounded == (s1 > -0.15)
    assert led.tangential_gradient_bounded == (s2 > -0.15)
    assert led.tangential_hessian_vanishing == (s3 > 0.5)


def test_ledger_counts_a_negligible_sequence_as_bounded_and_vanishing():
    led = _ledger([(0.0, 0.0, 0.0)] * len(_LEDGER_EPS))
    assert list(led.slopes.values()) == [None] * 3
    assert led.base_bounded and led.tangential_gradient_bounded and led.tangential_hessian_vanishing


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
    # G1 is affine in eta1 + eta2: every cell reads the geometry's cached invariants
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
    nan, inf = float("nan"), float("inf")
    cells = [(0.0, 1.0), (nan, 1.0), (inf, 1.0), (1.0, nan), (1.0, -inf), (1.0, 1.0)]
    table = phase_diagram(Circle(1.0), 0.5, params, cells)
    for row in table.rows[:-1]:
        assert row[4] == "invalid" and not row[5], row
    assert table.rows[-1][5]
    csv = table.to_csv()
    assert csv.count("invalid") == len(cells) - 1


def test_snap_micelle_eps_counts():
    for eps_req in (0.05, 0.025, 0.0125):
        eps, count = snap_micelle_eps(0.5, 2, eps_req)
        assert count == round(0.5 / (unit_sphere_area(2) * eps))
        assert abs(0.5 / (unit_sphere_area(2) * eps) - count) < 1e-9


def test_micelle_count_is_the_one_counting_convention(params):
    # round(alpha/omega * eps^(1-n)); the snap keeps at least one center
    omega = unit_sphere_area(2)
    family = MicelleFamily(geom=Circle(1.0), params=params, eta1=1.0, eta2=1.0, alpha=0.5, eps_list=(0.05,))
    for eps in (0.05, 0.0123, 0.4, 10.0):
        assert family.micelle_count(eps) == round(0.5 / omega * eps ** -1)
        assert snap_micelle_eps(0.5, 2, eps)[1] == max(1, family.micelle_count(eps))
    assert family.micelle_count(10.0) == 0


def test_micelle_builder_refuses_a_zero_count(params):
    # alpha/omega * eps^(1-n) = 0.3 rounds to no center: refused before placement
    eps = 0.05
    family = MicelleFamily(
        geom=Circle(1.0), params=params, eta1=1.0, eta2=1.0, alpha=0.3 * unit_sphere_area(2) * eps, eps_list=(eps,)
    )
    with pytest.raises(PlacementError, match=r"^the requested density rounds to 0 centers at eps = 0.05$"):
        build_micelle_field(family, eps)


def test_csv_deterministic(bilayer_report):
    assert bilayer_report.to_csv() == bilayer_report.to_csv()
    lines = bilayer_report.to_csv().splitlines()
    assert lines[0].startswith("eps,energy,predicted_limit")
    assert len(lines) == 1 + len(bilayer_report.eps_list)


def small_sphere_spec(params, **kw):
    defaults = dict(
        geom=Sphere(3.0), params=params, eta1=1.0, eta2=1.0,
        eps_list=(0.1, 0.05, 0.025, 0.0125),
        translate=lambda th, ph: 0.1 * np.sin(th) ** 2 * np.cos(ph), ns=(16, 24), nz=65,
    )
    defaults.update(kw)
    return BilayerFamily(**defaults)


# Recorded when every width built and evaluated its own field; re-recorded
# when the half width, the width map and a* moved from adaptive quadrature
# to Gauss-Legendre cells.  Against that recording, energy, predicted_limit,
# mass and the norms moved by <= 1.6e-14 relative; the cancellation
# residuals moved further: abs_error by 1.1e-11, equipartition_defect by
# 1.4e-12 and bilayer_residual by 1.1e-12.  Re-recorded when G1 became
# a* * bending_integral - (eta1+eta2) * b* * |Gamma| instead of one sum over
# the surface rule: predicted_limit moved 1 ulp and abs_error <= 1.05e-13
# relative.  Re-recorded when the default ell came to follow max|p| on the
# 16x24 grid instead of a 256-per-axis probe (8.573557 -> 8.572552):
# energy moved by <= 2.4e-7 relative, norm_uz_l2 by 6.9e-8, abs_error by
# 1.7e-4 and the cancellation residuals by 4.8e-4; the rest at round-off.
# Re-recorded when u_ss came to be formed from the 5-point u_tt instead of
# the chained d1_s(d1_s(u)/w)/w: norm_uss_l2 moved 0.074690958466775842 ->
# 0.07470427636287473 (1.8e-4 relative); every other column kept its bits.
# Re-recorded when the surface rule came to be held at the chart's rank
# (|Gamma| and the bending integral summed along theta, times the sum of
# the phi weights): predicted_limit moved 2 ulp (-12.508782407770861 ->
# ...864) and abs_error by the same 3.6e-15, <= 2.1e-13 relative.
SMALL_SPHERE_CSV = (
    "eps,energy,predicted_limit,abs_error,equipartition_defect,bilayer_residual,mass,norm_u_lp,"
    "norm_uz_l2,norm_us_l2,norm_uss_l2,n_micelles,uniform_thickness\n"
    "0.10000000000000001,-12.582904357069141,-12.508782407770864,0.074121949298277201,"
    "0.004667401928309908,0.00084458443441488298,195.21601272358313,"
    "2.9566583010792611,4.0129590882065074,0.14614379343458711,0.07470427636287473,,1\n"
    "0.050000000000000003,-12.540949597096034,-12.508782407770864,0.032167189325170042,"
    "0.004667401928309908,0.00084458443441488298,194.88489513632203,"
    "2.9566583010792611,4.0129590882065074,0.14614379343458711,0.07470427636287473,,1\n"
    "0.025000000000000001,-12.530059646339518,-12.508782407770864,0.021277238568654155,"
    "0.004667401928309908,0.00084458443441488298,194.80211573950675,"
    "2.9566583010792611,4.0129590882065074,0.14614379343458711,0.07470427636287473,,1\n"
    "0.012500000000000001,-12.525732181168955,-12.508782407770864,0.016949773398090784,"
    "0.004667401928309908,0.00084458443441488298,194.78142089030294,"
    "2.9566583010792611,4.0129590882065074,0.14614379343458711,0.07470427636287473,,1\n"
)


def test_bilayer_sweep_csv_pinned(params):
    assert run_convergence(small_sphere_spec(params)).to_csv() == SMALL_SPHERE_CSV


def test_bilayer_sweep_builds_one_field(params, monkeypatch):
    # width-free terms once: u_t and u_tt (both axes), u_z, u_zz and, for the
    # u_ss norm, d1_s of the theta Lame factor (the phi factor has length 1
    # along phi); per width only the metric coefficient d1_s(P/H^2) on theta,
    # since the metric is held at length 1 along phi, where that stencil is 0
    from fchlab import sequences

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
    assert calls == {"d1_bounded": 7, "d2_bounded": 2, "d1_periodic": 1, "d2_periodic": 1}
    assert sum(calls.values()) == 11


def test_bilayer_sweep_refuses_degenerate_width(params, profile):
    # Sphere(3): kappa_max = 1/3, so eps*ell*kappa_max >= 1 once eps >= 3/ell
    ell = 1.05 * profile.half_width_L
    spec = small_sphere_spec(params, translate=None, ell=ell, eps_list=(3.0 / ell, 0.1))
    with pytest.raises(InfeasibleModelError, match="eps\\*ell\\*kappa_max"):
        run_convergence(spec)
