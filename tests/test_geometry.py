import functools
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fchlab import (
    BilayerFamily,
    Circle,
    Ellipse,
    MicelleFamily,
    Sphere,
    Torus,
    TubularGrid,
    bending_integral,
    fch_energy_sweep,
    geometry,
    geometry_from_config,
    jacobian,
    place_micelle_centers,
    total_curvature,
    unit_sphere_area,
)
from fchlab.errors import InfeasibleModelError, NumericsError, PlacementError
from fchlab.geometry import (
    _cap_packing_bound,
    _chart_axis,
    _greedy_spread,
    _halton,
    _surface_candidates,
    check_width,
    symmetric_curvatures,
)


def fd_curvature_of_curve(geom, t, h=1e-4):
    # kappa = |x' cross x''| / |x'|^3 from finite differences of the chart map
    xp = (geom.position(t + h) - geom.position(t - h)) / (2 * h)
    xpp = (geom.position(t + h) - 2 * geom.position(t) + geom.position(t - h)) / h**2
    cross = xp[0] * xpp[1] - xp[1] * xpp[0]
    return abs(cross) / np.linalg.norm(xp) ** 3


def test_circle_curvature_and_weight():
    geom = Circle(2.5)
    t = np.linspace(0, 2 * np.pi, 64)
    assert np.allclose(geom.curvatures(t)[0], 1 / 2.5, atol=1e-15)
    assert np.allclose(geom.lame(t)[0], 2.5, atol=1e-15)
    assert geom.kappa0 == pytest.approx(1 / 2.5, abs=1e-12)


def test_ellipse_curvature_against_fd_oracle():
    geom = Ellipse(2.0, 1.0)
    for t in (0.0, 0.7, 1.9, 3.3, 5.1):
        assert geom.curvatures(np.array(t))[0] == pytest.approx(fd_curvature_of_curve(geom, t), rel=1e-6)


def test_sphere_and_torus_curvatures():
    s = Sphere(3.0)
    k1, k2 = s.curvatures(0.8, 1.1)
    assert float(k1) == pytest.approx(1 / 3.0) and float(k2) == pytest.approx(1 / 3.0)
    t = Torus(3.0, 1.0)
    k1, k2 = t.curvatures(np.pi / 3, 0.4)
    assert float(k1) == pytest.approx(1.0)
    assert float(k2) == pytest.approx(math.cos(np.pi / 3) / (3.0 + math.cos(np.pi / 3)))


def full_rule(geom, n_nodes):
    """(mesh, weight) of the surface rule with its weight formed at the rule's full shape, metric included."""
    mesh, weights = geom.surface_quadrature(n_nodes)
    return mesh, geom.metric_weight(*mesh) * functools.reduce(np.multiply.outer, weights)


def test_total_curvature_closed_forms():
    assert float(total_curvature(Circle(2.0), 0.3)) == pytest.approx(0.5)
    assert float(total_curvature(Sphere(2.0), (0.5, 0.5))) == pytest.approx(1.0)
    # turning number of the ellipse: integral of H0 ds = 2 pi
    geom = Ellipse(2.0, 1.0)
    mesh, wq = full_rule(geom, 4096)
    assert float(np.sum(total_curvature(geom, mesh) * wq)) == pytest.approx(2 * np.pi, rel=1e-10)


def test_bending_integral_closed_forms():
    assert bending_integral(Circle(2.0)) == pytest.approx(2 * np.pi / 2.0, rel=1e-12)
    assert bending_integral(Sphere(5.0)) == pytest.approx(16 * np.pi, rel=1e-12)
    e = Ellipse(2.0, 1.0)
    mesh, wq = full_rule(e, 4096)
    assert bending_integral(e) == pytest.approx(float(np.sum(total_curvature(e, mesh) ** 2 * wq)), rel=1e-8)
    # Torus(R, r): integral of H0^2 dA = 4 pi^2 R^2 / (r sqrt(R^2 - r^2))
    R, r = 3.0, 1.0
    assert bending_integral(Torus(R, r)) == pytest.approx(4 * np.pi**2 * R**2 / (r * math.sqrt(R**2 - r**2)), rel=1e-12)
    assert bending_integral(Torus(R, r)) == pytest.approx(125.61955559349983, rel=1e-12)


@pytest.mark.parametrize("shape", ["sphere", "torus"])
def test_surface_integrals_form_no_array_of_the_rules_shape(shape):
    # the 512 x 512 rule's weight alone would take 2 MiB; both integrands
    # vary along theta only, so the integrals need arrays of 512 samples
    geom = Sphere(3.0) if shape == "sphere" else Torus(3.0, 1.0)
    tracemalloc.start()
    try:
        geom._surface_integrals
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


def test_symmetric_curvatures_expand_the_jacobian():
    # three sampled curvatures at three ranks: e_k has their broadcast shape,
    # e_1 adds them in order, and sum_k x^k e_k is prod_j (1 + x*kappa_j)
    rng = np.random.default_rng(5)
    k1, k2, k3 = rng.uniform(-2.0, 2.0, (3, 1)), rng.uniform(-2.0, 2.0, (1, 4)), rng.uniform(-2.0, 2.0, (3, 4))
    e = symmetric_curvatures([k1, k2, k3])
    assert [x.shape for x in e] == [(3, 4)] * 4
    assert np.all(e[0] == 1.0)
    assert np.array_equal(e[1], k1 + k2 + k3)
    np.testing.assert_allclose(e[2], k1 * k2 + k1 * k3 + k2 * k3, rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(e[3], k1 * k2 * k3, rtol=1e-14)
    for x in (0.3, -0.7):
        product = (1.0 + x * k1) * (1.0 + x * k2) * (1.0 + x * k3)
        np.testing.assert_allclose(sum(x**k * e_k for k, e_k in enumerate(e)), product, rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("geom, euler", [(Sphere(3.0), 2), (Torus(3.0, 1.0), 0)], ids=["sphere", "torus"])
def test_gauss_bonnet(geom, euler):
    # integral of the Gauss curvature e_2 over the surface is 2 pi chi
    mesh, wq = full_rule(geom, 512)
    gauss = symmetric_curvatures(geom.curvatures(*mesh))[2]
    assert float(np.sum(gauss * wq)) == pytest.approx(2.0 * math.pi * euler, rel=1e-14, abs=1e-13)


def test_jacobian_values():
    circle = Circle(2.0)
    assert float(jacobian(circle, 0.1, 0.7, 0.0)) == 1.0
    assert float(jacobian(circle, 0.1, 0.7, 0.1)) == pytest.approx(1 + 0.1 * 0.7 / 2.0)
    sphere = Sphere(3.0)
    z, eps = 1.3, 0.05
    expected = 1 + 2 * eps * z / 3.0 + (eps * z) ** 2 / 9.0
    assert float(jacobian(sphere, (0.5, 0.2), z, eps)) == pytest.approx(expected, rel=1e-14)


def test_jacobian_matches_tubular_map_determinant():
    # oracle: numerical determinant of d(offset position)/d(theta, phi, zeta)
    geom = Sphere(3.0)
    theta, phi, z, eps = 0.9, 0.4, 1.1, 0.08
    h = 1e-6

    def pos(th, ph, zz):
        return geom.position(th, ph) + eps * zz * geom.normal(th, ph)

    cols = np.stack(
        [
            (pos(theta + h, phi, z) - pos(theta - h, phi, z)) / (2 * h),
            (pos(theta, phi + h, z) - pos(theta, phi - h, z)) / (2 * h),
            (pos(theta, phi, z + h) - pos(theta, phi, z - h)) / (2 * h),
        ],
        axis=-1,
    )
    det = abs(np.linalg.det(cols))
    reference = eps * geom.metric_weight(theta, phi) * jacobian(geom, (theta, phi), z, eps)
    assert det == pytest.approx(float(reference), rel=1e-8)


def test_surface_measures():
    assert Circle(1.5).surface_measure == pytest.approx(3 * np.pi, rel=1e-12)
    assert Sphere(2.0).surface_measure == pytest.approx(16 * np.pi, rel=1e-12)
    assert Torus(3.0, 1.0).surface_measure == pytest.approx(4 * np.pi**2 * 3.0, rel=1e-12)


def test_tubular_volume_identity():
    # eps * integral J weight dz ds equals the ambient volume of the slab
    for geom, exact in (
        (Circle(1.0), math.pi * ((1 + 0.1 * 0.45) ** 2 - (1 - 0.1 * 0.45) ** 2)),
        (Sphere(2.0), 4 * math.pi / 3 * ((2 + 0.1 * 0.45) ** 3 - (2 - 0.1 * 0.45) ** 3)),
    ):
        eps, ell = 0.1, 0.45
        mesh, wq = full_rule(geom, 256)
        z = np.linspace(-ell, ell, 513)
        wz = np.full(z.shape, z[1] - z[0])
        wz[0] *= 0.5
        wz[-1] *= 0.5
        t_tuple = tuple(m[..., None] for m in mesh)
        vol = eps * np.sum(jacobian(geom, t_tuple, z, eps) * wq[..., None] * wz)
        assert vol == pytest.approx(exact, rel=1e-6)


def test_tubular_grid_refuses_a_field_above_the_size_cap():
    # 8 bytes a sample: 4096 x 4096 x 8 samples are exactly 2^30 bytes
    geom = Sphere(3.0)
    assert TubularGrid.build(geom, 0.5, 0.1, (4096, 4096), 8).shape == (4096, 4096, 8)
    with pytest.raises(ValueError, match=r"^sphere grid 4096x4096x9 needs 1207959552 bytes a field"):
        TubularGrid.build(geom, 0.5, 0.1, (4096, 4096), 9)


def test_tubular_grid_requires_positive_jacobian():
    geom = Circle(1.0)
    with pytest.raises(InfeasibleModelError):
        TubularGrid.build(geom, 10.0, 0.11, 16, 65)
    assert TubularGrid.build(geom, 10.0, 0.05, 16, 65).shape == (16, 65)


def _circle_bilayer(params, ell=None):
    return BilayerFamily(geom=Circle(1.0), params=params, eta1=1.0, eta2=1.0, ell=ell, ns=16, nz=65)


# each route to check_width, with a nan or infinite eps or ell, and the key it names
NON_FINITE_WIDTHS = {
    "eps-nan": (lambda params: check_width(Circle(1.0), 1.0, math.nan), "eps"),
    "eps-inf": (lambda params: check_width(Circle(1.0), 1.0, math.inf), "eps"),
    "eps-minus-inf": (lambda params: check_width(Circle(1.0), 1.0, -math.inf), "eps"),
    "ell-nan": (lambda params: check_width(Circle(1.0), math.nan, 0.1), "ell"),
    "ell-inf": (lambda params: check_width(Circle(1.0), math.inf, 0.1), "ell"),
    "grid-ell-nan": (lambda params: TubularGrid.build(Circle(1.0), math.nan, 0.1, 16, 65), "ell"),
    "sweep-eps-nan": (
        lambda params: fch_energy_sweep(_circle_bilayer(params).field(0.1), (0.1, math.nan), 1.0, 1.0, params),
        "eps",
    ),
    "bilayer-ell-nan": (lambda params: _circle_bilayer(params, ell=math.nan).field(0.1), "ell"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_WIDTHS))
def test_non_finite_width_is_a_usage_error_named_by_key(params, case):
    # eps*ell*kappa_max = nan is no infeasibility verdict: such a width names its key
    evaluate, key = NON_FINITE_WIDTHS[case]
    with pytest.raises(ValueError, match=f"^{key} must be finite, got -?(nan|inf)$") as refused:
        evaluate(params)
    assert not isinstance(refused.value, InfeasibleModelError)


def test_placement_on_circle():
    pts = place_micelle_centers(Circle(1.0), 0.01, 50, 6.0)
    assert len(pts) == 50
    spacing = 2 * np.pi / 50
    assert spacing > 2 * 0.01 * 6.0
    pos = Circle(1.0).position(pts[:, 0])
    d = np.linalg.norm(pos[0] - pos[1])
    assert d > 2 * 0.01 * 6.0


def test_placement_count_scaling(params):
    # the family's count grows like eps^(1-n), and placement delivers each count
    cases = ((Circle(1.0), 0.5, 6.0, (0.02, 0.01)), (Sphere(1.0), 0.05, 1.0, (0.1, 0.05)))
    for geom, density, r0, (eps1, eps2) in cases:
        alpha = density * unit_sphere_area(geom.ambient_n)
        family = MicelleFamily(geom=geom, params=params, eta1=1.0, eta2=1.0, alpha=alpha, eps_list=(eps1, eps2))
        n1, n2 = (len(place_micelle_centers(geom, eps, family.micelle_count(eps), r0)) for eps in (eps1, eps2))
        assert (n1, n2) == (family.micelle_count(eps1), family.micelle_count(eps2))
        assert abs(n2 - (eps1 / eps2) ** (geom.ambient_n - 1) * n1) <= 1


def test_placement_separation_on_surfaces():
    for geom in (Sphere(1.0), Torus(3.0, 1.0)):
        pts = place_micelle_centers(geom, 0.05, 20, 1.0)
        pos = geom.position(pts[:, 0], pts[:, 1])
        n = len(pos)
        dmin = min(np.linalg.norm(pos[i] - pos[j]) for i in range(n) for j in range(i + 1, n))
        assert dmin > 2 * 0.05 * 1.0


@pytest.mark.parametrize("geom", [Circle(1.0), Sphere(3.0)], ids=["curve", "surface"])
@pytest.mark.parametrize("alpha", [math.inf, math.nan], ids=["inf", "nan"])
def test_placement_refuses_nonfinite_alpha(params, geom, alpha):
    # placement takes a count; the micelle family, which forms the count
    # round(alpha/omega * eps^(1-n)), refuses the alpha before it counts:
    # round() would raise OverflowError on inf and ValueError on nan
    with pytest.raises(ValueError, match=r"^micelle sequences need alpha > 0$"):
        MicelleFamily(geom=geom, params=params, eta1=1.0, eta2=1.0, alpha=alpha, eps_list=(0.05,))


def test_placement_infeasible_when_too_dense():
    # pigeonhole: 2*eps*r0 * N exceeds the circumference; the refusal counts centers
    with pytest.raises(PlacementError, match=r"cannot place 2000 centers .*fits at most 52 at eps = 0.01$"):
        place_micelle_centers(Circle(1.0), 0.01, 2000, 6.0)
    with pytest.raises(PlacementError) as err:
        place_micelle_centers(Sphere(1.0), 0.05, 400, 6.0)
    fit = re.fullmatch(r"cannot place 400 centers .*; the greedy spread fits (\d+) at eps = 0.05", str(err.value))
    assert fit and 1 <= int(fit[1]) < 400


@pytest.mark.parametrize("geom", [Sphere(1.0), Torus(3.0, 1.0)], ids=["sphere", "torus"])
def test_surface_refusal_reports_a_count_that_succeeds(geom):
    # the candidate spread depends on the requested count: before the refusal
    # walked down, 637 centers on Sphere(1) reported 12, 12 reported 11, and
    # only 10 succeeded (Torus(3, 1): 82 reported, 80 succeed)
    eps, r0 = 0.05, 9.598
    with pytest.raises(PlacementError) as err:
        place_micelle_centers(geom, eps, 637, r0)
    fits = int(re.search(r"the greedy spread fits (\d+) at", str(err.value))[1])
    assert 1 <= fits < 637
    assert len(place_micelle_centers(geom, eps, fits, r0)) == fits


def _platonic_vertices():
    """Unit vertices of the five Platonic solids, by vertex count."""
    g = (1.0 + math.sqrt(5.0)) / 2.0
    signs = [np.array(v) for v in itertools.product((-1.0, 1.0), repeat=3)]

    def cyclic(a, b):
        return [np.roll([0.0, a, b], k) for k in range(3)]

    sets = {
        4: [v for v in signs if np.prod(v) > 0],
        6: [np.roll([s, 0.0, 0.0], k) for s in (-1.0, 1.0) for k in range(3)],
        8: signs,
        12: [v for a in (-1.0, 1.0) for b in (-g, g) for v in cyclic(a, b)],
        20: signs + [v for a in (-1.0 / g, 1.0 / g) for b in (-g, g) for v in cyclic(a, b)],
    }
    return {n: np.array([v / np.linalg.norm(v) for v in pts]) for n, pts in sets.items()}


@pytest.mark.parametrize("count", [4, 6, 8, 12, 20])
def test_cap_packing_bound_admits_the_platonic_solids(count):
    # a placement that exists never exceeds the bound: the vertices lie
    # pairwise more than just under their least chord apart
    pos = _platonic_vertices()[count]
    assert len(pos) == count
    chord = min(np.linalg.norm(pos[i] - pos[j]) for i in range(count) for j in range(i))
    assert _cap_packing_bound(1.0, chord * (1.0 - 1e-9)) >= count
    assert _cap_packing_bound(2.0, 2.0 * chord * (1.0 - 1e-9)) >= count


def test_cap_packing_bound_values():
    # 2 / (1 - cos(theta/2)) with chord 2*rho*sin(theta/2)
    assert _cap_packing_bound(1.0, 2.0 * 0.05 * 9.598) == 16
    assert _cap_packing_bound(1.0, 2.0) == _cap_packing_bound(1.0, 5.0) == 1
    assert _cap_packing_bound(1.0, math.sqrt(2.0)) == 6


def test_sphere_counts_within_the_cap_bound_are_not_refused_as_infeasible():
    # 12 centres fit as an icosahedron (least chord 1.0515 > 0.9596), but the
    # spread places fewer: its failure is a numerics failure naming both counts
    for count in (11, 12):
        with pytest.raises(NumericsError, match=rf"placed \d+ of {count} centers .*cap-packing bound of 16$"):
            place_micelle_centers(Sphere(1.0), 0.05, count, 9.598)
    assert len(place_micelle_centers(Sphere(1.0), 0.05, 10, 9.598)) == 10


def test_sphere_refusal_builds_candidates_for_the_bound(monkeypatch):
    # 127324 centres asked for: every spread draws at most 64 candidates per
    # centre of the bound (16), not per centre asked for
    from fchlab import geometry

    sizes = []
    build = geometry._surface_candidates
    monkeypatch.setattr(geometry, "_surface_candidates", lambda geom, count: sizes.append(count) or build(geom, count))
    with pytest.raises(PlacementError, match=r"^cannot place 127324 centers .*; cap packing fits at most 16; "
                                             r"the greedy spread fits 10 at eps = 0.05$"):
        place_micelle_centers(Sphere(1.0), 0.05, 127324, 9.598)
    assert sizes and max(sizes) == 64 * 16


@pytest.mark.parametrize(
    "geom, rank",
    [(Circle(1.5), (12,)), (Ellipse(2.0, 1.0), (12,)), (Sphere(3.0), (12, 1)), (Torus(3.0, 1.0), (12, 1))],
    ids=["circle", "ellipse", "sphere", "torus"],
)
def test_factors_carry_the_rank_of_their_coordinates(geom, rank):
    # on a sparse chart mesh a factor has full length on axis 0 and on every
    # bounded axis, and length 1 only along a periodic axis it does not
    # depend on (phi on a sphere or a torus); broadcast, it is the sample on
    # the whole mesh
    ns = (12, 20)[: geom.chart_dims]
    axes = [_chart_axis(*axis) for axis in zip(geom.periodic, geom.chart_periods, ns)]
    sparse = np.meshgrid(*axes, indexing="ij", sparse=True)
    full = np.meshgrid(*axes, indexing="ij")
    for method in (geom.curvatures, geom.lame):
        for factor, whole in zip(method(*sparse), method(*full), strict=True):
            assert factor.shape == rank
            assert whole.shape == ns
            assert np.array_equal(np.broadcast_to(factor, ns), whole)


def test_kappa0_pinned():
    # Ellipse(2, 1): the closed-form sup of |d kappa/ds|; the sampled bound read 2.5995339272304157
    assert Circle(1.0).kappa0 == 1.0
    assert Ellipse(2.0, 1.0).kappa0 == 2.6020881661031807
    assert Sphere(3.0).kappa0 == 0.3333333333333333
    assert Torus(3.0, 1.0).kappa0 == 1.0


def test_ellipse_kappa0_covers_the_tip_curvature():
    # |kappa| peaks at a/b^2 (t = 0) and b/a^2 (t = pi/2); the 512-node mesh
    # hits both tips, but on a near-degenerate ellipse cos(pi/2) = 6e-17
    # leaves the sampled tip curvature far below the true one
    for a, b in ((2.0, 1.0), (1.0, 2.0), (3.0, 0.5), (1.7, 1.3), (1e-100, 1.0), (1.0, 1e-100)):
        geom = Ellipse(a, b)
        assert geom.kappa_max == max(a / b / b, b / a / a)
        assert geom.kappa0 >= geom.kappa_max
    # its sup of |d kappa/ds| is about 0.78/q^5 = 7.8e499: past the float range
    assert Ellipse(1e-100, 1.0).kappa0 == math.inf
    with pytest.raises(InfeasibleModelError, match="degenerate"):
        TubularGrid.build(Ellipse(1e-100, 1.0), 8.0, 0.1, (64,), 33)


_RADII = st.floats(0.1, 10.0)


@st.composite
def _tori(draw):
    big = draw(_RADII)
    return Torus(big, big * draw(st.floats(0.05, 0.95)))


_SHAPES = st.one_of(
    st.builds(Circle, _RADII),
    st.builds(Ellipse, _RADII, _RADII),
    st.builds(Sphere, _RADII),
    _tori(),
)


@given(_SHAPES)
def test_kappa_max_is_the_peak_curvature(geom):
    # a dense chart mesh holds every peak of |kappa_j|: the ellipse's tips at
    # t = 0 and pi/2 and the torus's inner equator at theta = pi
    nodes = 2**16 if geom.chart_dims == 1 else 2**10
    axes = [_chart_axis(per, period, nodes) for per, period in zip(geom.periodic, geom.chart_periods)]
    mesh = np.meshgrid(*axes, indexing="ij")
    sampled = max(float(np.max(np.abs(k))) for k in geom.curvatures(*mesh))
    assert sampled == pytest.approx(geom.kappa_max, rel=1e-12)
    assert geom.kappa0 >= geom.kappa_max


@pytest.mark.parametrize(
    "geom",
    [Circle(1.5), Ellipse(2.0, 1.0), Ellipse(0.5, 3.0), Ellipse(3.0, 0.5), Sphere(3.0), Sphere(0.7), Torus(3.0, 1.0), Torus(1.1, 1.0)],
    ids=["circle", "ellipse-2-1", "ellipse-0.5-3", "ellipse-3-0.5", "sphere-3", "sphere-0.7", "torus-3-1", "torus-1.1-1"],
)
def test_lame_max_is_the_peak_lame_factor(geom):
    # 2^16 intervals an axis, ends included: the nodes come within 5e-5 of
    # every peak (the ellipse's minor-axis ends, the sphere's equator, the
    # torus's outer equator), so the closed form is at or just above them
    axes = [np.linspace(0.0, period, 2**16 + 1) for period in geom.chart_periods]
    sampled = [float(np.max(w)) for w in geom.lame(*np.meshgrid(*axes, indexing="ij", sparse=True))]
    assert len(geom.lame_max) == geom.chart_dims
    for exact, sample in zip(geom.lame_max, sampled):
        assert sample <= exact <= sample * (1.0 + 1e-9)


@given(_SHAPES)
def test_kappa0_bounds_the_sampled_curvature_slopes(geom):
    # between neighbouring nodes of a dense chart mesh, the change of kappa_j
    # over the arc length between them (Simpson's rule on the Lame factor)
    # is d kappa_j / d s_i at a point between them; the sampled bound kappa0
    # once undershot these slopes by 0.1% on Ellipse(2, 1)
    nodes = 2**16 if geom.chart_dims == 1 else 2**10
    slopes = []
    for axis, period in enumerate(geom.chart_periods):
        h = period / nodes
        axes = [_chart_axis(per, p, nodes) for per, p in zip(geom.periodic, geom.chart_periods)]
        axes[axis] = np.arange(nodes + 1) * h
        ends = np.meshgrid(*axes, indexing="ij")
        axes[axis] = axes[axis][:-1] + 0.5 * h
        w, w_mid = geom.lame(*ends)[axis], geom.lame(*np.meshgrid(*axes, indexing="ij"))[axis]
        arc = h / 6.0 * (np.take(w, range(nodes), axis) + 4.0 * w_mid + np.take(w, range(1, nodes + 1), axis))
        slopes += [float(np.max(np.abs(np.diff(kap, axis=axis)) / arc)) for kap in geom.curvatures(*ends)]
    assert geom.kappa0 >= (1.0 - 1e-6) * max(slopes)


def test_ellipse_dkappa_max_is_formed_in_units_of_the_long_axis():
    # a^2 overflows on both; formed in units of a, the bound is inf where the
    # true slope (near 7.8e319) is, and 0 on a circle, where c = a^2 - b^2 = nan
    # once left kappa0 at kappa_max (1e160 on the first)
    assert Ellipse(1e160, 1.0).kappa0 == math.inf
    assert Ellipse(1e200, 1e200).dkappa_max == 0.0


def test_width_check_refuses_at_the_peak_curvature():
    # Ellipse(2, 1): kappa_max = 2 while kappa0 = 2.5995 also bounds d kappa/ds;
    # the Jacobian 1 - eps*z*kappa stays positive for eps*ell < 1/2
    geom = Ellipse(2.0, 1.0)
    check_width(geom, 1.0, 0.4999)
    assert 0.4999 * geom.kappa0 >= 1.0
    with pytest.raises(InfeasibleModelError, match=r"^tubular grid degenerate: eps\*ell\*kappa_max = 1\.000 >= 1$"):
        check_width(geom, 1.0, 0.5)
    with pytest.raises(InfeasibleModelError, match="kappa_max"):
        TubularGrid.build(geom, 1.0, 0.5, 64, 33)


def test_oversized_degenerate_grid_is_refused_for_its_size():
    # eps*ell*kappa_max = 2 and 2^21 x 65 samples: the size is refused first,
    # before anything of it is allocated
    with pytest.raises(ValueError, match=r"^circle grid 2097152x65 needs \d+ bytes a field"):
        TubularGrid.build(Circle(1.0), 1.0, 2.0, 2**21, 65)


@pytest.mark.parametrize(
    "a, b, key", [(1e-300, 1.0, "a"), (1.0, 1e-300, "b"), (1e200, 1e-200, "b")]
)
def test_ellipse_with_overflowing_tip_curvature_is_refused_by_key(a, b, key):
    with pytest.raises(ValueError, match=f"ellipse geometry key '{key}' = .* the tip curvature .* overflows"):
        Ellipse(a, b)
    with pytest.raises(ValueError, match=f"'{key}'"):
        geometry_from_config({"shape": "ellipse", "a": a, "b": b})


def test_torus_placement_pinned():
    # the area-equalizing CDF path, bit for bit against the values recorded
    # before it shared the cumulative trapezoid with the arc-length table
    expected = np.array(
        [
            [3.1415926535897993, 2.0943951023931953],
            [1.2540456386595398, 4.1887902047863905],
            [5.0291396685200525, 0.6981317007977318],
            [0.5977919953430568, 2.792526803190927],
            [4.2208616907469105, 4.886921905584122],
            [2.0623236164326846, 1.3962634015954636],
            [5.685393311836533, 3.490658503988659],
            [0.29559582859648403, 5.585053606381854],
        ]
    )
    assert np.array_equal(place_micelle_centers(Torus(3.0, 1.0), 0.25, 8, 1.0), expected)


def _halton_loop(index, base):
    res, f = 0.0, 1.0
    while index > 0:
        f /= base
        res += f * (index % base)
        index //= base
    return res


@pytest.mark.parametrize("base", [2, 3])
def test_halton_matches_the_scalar_loop(base):
    assert _halton(5000, base).tolist() == [_halton_loop(i, base) for i in range(1, 5001)]


def _greedy_loop(pos, n_pts, min_sep):
    accepted = []
    for i in range(len(pos)):
        if accepted and np.min(np.linalg.norm(pos[accepted] - pos[i], axis=-1)) <= min_sep:
            continue
        accepted.append(i)
        if len(accepted) == n_pts:
            break
    return accepted


# at eps 0.05, r0 9.598 the spreads for 10 and 80 succeed; for 12 it fits 11, for 82 it fits 80
@pytest.mark.parametrize(
    "geom, n_pts",
    [(Sphere(1.0), 10), (Sphere(1.0), 12), (Torus(3.0, 1.0), 80), (Torus(3.0, 1.0), 82)],
    ids=["sphere-10", "sphere-12", "torus-80", "torus-82"],
)
def test_greedy_spread_matches_the_candidate_loop(geom, n_pts):
    min_sep = 2.0 * 0.05 * 9.598
    candidates = _surface_candidates(geom, 64 * n_pts)
    accepted = _greedy_loop(geom.position(candidates[:, 0], candidates[:, 1]), n_pts, min_sep)
    centers, fits = _greedy_spread(geom, n_pts, min_sep)
    assert fits == len(accepted)
    if fits < n_pts:
        assert centers is None
    else:
        assert np.array_equal(centers, candidates[accepted])


def test_curve_placement_builds_one_arclength_table(monkeypatch):
    # placements on one curve share its table, refused ones walking down too
    geom = Ellipse(2.0, 1.0)
    assert geom.surface_measure > 0.0  # its rule samples lame as well
    calls = []
    lame = Ellipse.lame

    def counted(self, *t):
        calls.append(t)
        return lame(self, *t)

    monkeypatch.setattr(Ellipse, "lame", counted)
    for eps, count in ((0.05, 10), (0.02, 25), (0.01, 50)):
        place_micelle_centers(geom, eps, count, 6.0)
    with pytest.raises(PlacementError):
        place_micelle_centers(geom, 0.01, 2000, 6.0)
    assert len(calls) == 1


@pytest.mark.parametrize("geom, fits", [(Circle(1.0), 381), (Ellipse(2.0, 1.0), 587)], ids=["circle", "ellipse"])
def test_curve_refusal_starts_below_the_arc_length_bound(monkeypatch, geom, fits):
    # no count above |Gamma|/min_sep fits, so the walk starts there and
    # places a count or two, whatever count was asked for
    calls = []
    points = geometry._curve_points_at_arclength

    def counted(geom, s_values):
        calls.append(len(s_values))
        return points(geom, s_values)

    monkeypatch.setattr(geometry, "_curve_points_at_arclength", counted)
    message = f"cannot place 16000 centers with separation 0.01648; equal arc-length spacing fits at most {fits}"
    with pytest.raises(PlacementError, match=f"^{re.escape(message)} at eps = 0.001$"):
        place_micelle_centers(geom, 0.001, 16000, 8.24)
    assert len(calls) <= 3 and max(calls) <= fits + 1
    assert len(place_micelle_centers(geom, 0.001, fits, 8.24)) == fits


def test_geometry_from_config():
    assert isinstance(geometry_from_config({"shape": "circle", "rho": 1.0}), Circle)
    assert isinstance(geometry_from_config({"shape": "ellipse", "a": 2.0, "b": 1.0}), Ellipse)
    assert isinstance(geometry_from_config({"shape": "sphere", "rho": 2.0}), Sphere)
    assert isinstance(geometry_from_config({"shape": "torus", "R": 3.0, "r": 1.0}), Torus)
    with pytest.raises(ValueError):
        geometry_from_config({"shape": "klein-bottle"})
    # each shape value must be a finite number, refused by its key
    for value in (math.nan, math.inf, True, "2", None, [1.0]):
        with pytest.raises(ValueError, match=r"^circle geometry key 'rho' must be a finite number$"):
            geometry_from_config({"shape": "circle", "rho": value})
    with pytest.raises(ValueError, match=r"^ellipse geometry key 'a' must be a finite number$"):
        geometry_from_config({"shape": "ellipse", "a": math.inf, "b": 1.0})


def test_geometry_parameter_validation():
    with pytest.raises(ValueError):
        Circle(-1.0)
    with pytest.raises(ValueError):
        Torus(1.0, 2.0)
    # non-finite radii and semi-axes: a nan compares false and an inf radius has no curvature
    for make in (Circle, Sphere):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                make(value)
    for a, b in ((math.inf, 1.0), (2.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            Ellipse(a, b)
    for big, small in ((math.inf, 1.0), (math.nan, 1.0), (3.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            Torus(big, small)
