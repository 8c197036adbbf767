import math
import re

import numpy as np
import pytest

from fchlab import (
    Circle,
    Ellipse,
    Sphere,
    Torus,
    TubularGrid,
    bending_integral,
    gaussian_curvature_sums,
    geometry_from_config,
    jacobian,
    place_micelle_centers,
    total_curvature,
    uniform_thickness_ok,
    validate_uniform_thickness,
)
from fchlab.errors import InfeasibleModelError, PlacementError


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


def test_total_curvature_closed_forms():
    assert float(total_curvature(Circle(2.0), 0.3)) == pytest.approx(0.5)
    assert float(total_curvature(Sphere(2.0), (0.5, 0.5))) == pytest.approx(1.0)
    # turning number of the ellipse: integral of H0 ds = 2 pi
    geom = Ellipse(2.0, 1.0)
    mesh, wq = geom.surface_quadrature(4096)
    assert float(np.sum(total_curvature(geom, mesh) * wq)) == pytest.approx(2 * np.pi, rel=1e-10)


def test_bending_integral_closed_forms():
    assert bending_integral(Circle(2.0)) == pytest.approx(2 * np.pi / 2.0, rel=1e-12)
    assert bending_integral(Sphere(5.0)) == pytest.approx(16 * np.pi, rel=1e-12)
    e = Ellipse(2.0, 1.0)
    mesh, wq = e.surface_quadrature(4096)
    assert bending_integral(e) == pytest.approx(float(np.sum(total_curvature(e, mesh) ** 2 * wq)), rel=1e-8)


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


def test_gaussian_curvature_sums():
    sums = gaussian_curvature_sums(Sphere(3.0), (0.7, 0.3))
    assert [float(s) for s in sums] == pytest.approx([1.0, 2 / 3.0, 1 / 9.0])
    t = Torus(3.0, 1.0)
    k1, k2 = (float(k) for k in t.curvatures(1.0, 0.0))
    sums = gaussian_curvature_sums(t, (1.0, 0.0))
    assert [float(s) for s in sums] == pytest.approx([1.0, k1 + k2, k1 * k2])


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
        mesh, wq = geom.surface_quadrature(256)
        z = np.linspace(-ell, ell, 513)
        wz = np.full(z.shape, z[1] - z[0])
        wz[0] *= 0.5
        wz[-1] *= 0.5
        t_tuple = tuple(m[..., None] for m in mesh)
        vol = eps * np.sum(jacobian(geom, t_tuple, z, eps) * wq[..., None] * wz)
        assert vol == pytest.approx(exact, rel=1e-6)


def test_uniform_thickness_threshold():
    geom = Circle(2.0)  # kappa0 = 0.5, threshold ell = 1
    validate_uniform_thickness(geom, 0.999999999)
    assert uniform_thickness_ok(geom, 0.999999999)
    with pytest.raises(InfeasibleModelError):
        validate_uniform_thickness(geom, 1.0)
    assert not uniform_thickness_ok(geom, 1.0000000001)


def test_tubular_grid_requires_positive_jacobian():
    geom = Circle(1.0)
    with pytest.raises(InfeasibleModelError):
        TubularGrid.build(geom, 10.0, 0.11, 16, 65)
    grid = TubularGrid.build(geom, 10.0, 0.05, 16, 65)
    assert grid.shape == (16, 65)
    assert not grid.uniform_thickness
    assert TubularGrid.build(geom, 0.4, 0.05, 16, 65).uniform_thickness


def test_placement_on_circle():
    pts = place_micelle_centers(Circle(1.0), 0.01, 0.5, 6.0)
    assert len(pts) == 50
    spacing = 2 * np.pi / 50
    assert spacing > 2 * 0.01 * 6.0
    pos = Circle(1.0).position(pts[:, 0])
    d = np.linalg.norm(pos[0] - pos[1])
    assert d > 2 * 0.01 * 6.0


def test_placement_count_scaling():
    n1 = len(place_micelle_centers(Circle(1.0), 0.02, 0.5, 6.0))
    n2 = len(place_micelle_centers(Circle(1.0), 0.01, 0.5, 6.0))
    assert abs(n2 - 2 * n1) <= 1
    m1 = len(place_micelle_centers(Sphere(1.0), 0.1, 0.05, 1.0))
    m2 = len(place_micelle_centers(Sphere(1.0), 0.05, 0.05, 1.0))
    assert abs(m2 - 4 * m1) <= 1


def test_placement_separation_on_surfaces():
    for geom in (Sphere(1.0), Torus(3.0, 1.0)):
        pts = place_micelle_centers(geom, 0.05, 0.05, 1.0)
        pos = geom.position(pts[:, 0], pts[:, 1])
        n = len(pos)
        dmin = min(np.linalg.norm(pos[i] - pos[j]) for i in range(n) for j in range(i + 1, n))
        assert dmin > 2 * 0.05 * 1.0


def test_placement_infeasible_when_too_dense():
    # pigeonhole: 2*eps*r0 * N exceeds the circumference; the refusal counts centers
    with pytest.raises(PlacementError, match=r"cannot place 2000 centers .*fits at most 52 at eps = 0.01$"):
        place_micelle_centers(Circle(1.0), 0.01, 20.0, 6.0)
    with pytest.raises(PlacementError) as err:
        place_micelle_centers(Sphere(1.0), 0.05, 1.0, 6.0)
    fit = re.fullmatch(r"cannot place 400 centers .*; the greedy spread fits (\d+) at eps = 0.05", str(err.value))
    assert fit and 1 <= int(fit[1]) < 400


@pytest.mark.parametrize("geom", [Sphere(1.0), Torus(3.0, 1.0)], ids=["sphere", "torus"])
def test_surface_refusal_reports_a_count_that_succeeds(geom):
    # the candidate spread depends on the requested count: before the refusal
    # walked down, 637 centers on Sphere(1) reported 12, 12 reported 11, and
    # only 10 succeeded (Torus(3, 1): 82 reported, 80 succeed)
    eps, r0 = 0.05, 9.598
    area = eps ** (geom.ambient_n - 1)
    with pytest.raises(PlacementError) as err:
        place_micelle_centers(geom, eps, 637 * area, r0)
    fits = int(re.search(r"the greedy spread fits (\d+) at", str(err.value))[1])
    assert 1 <= fits < 637
    assert len(place_micelle_centers(geom, eps, fits * area, r0)) == fits


def test_kappa0_pinned():
    # recorded before the validation mesh and the grid shared one chart-axis helper
    assert Circle(1.0).kappa0 == 1.0
    assert Ellipse(2.0, 1.0).kappa0 == 2.5995339272304157
    assert Sphere(3.0).kappa0 == 0.3333333333333333
    assert Torus(3.0, 1.0).kappa0 == 1.0


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
    assert np.array_equal(place_micelle_centers(Torus(3.0, 1.0), 0.25, 0.5, 1.0), expected)


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
    for eps in (0.05, 0.02, 0.01):
        place_micelle_centers(geom, eps, 0.5, 6.0)
    with pytest.raises(PlacementError):
        place_micelle_centers(geom, 0.01, 20.0, 6.0)
    assert len(calls) == 1


def test_geometry_from_config():
    assert isinstance(geometry_from_config({"shape": "circle", "rho": 1.0}), Circle)
    assert isinstance(geometry_from_config({"shape": "ellipse", "a": 2.0, "b": 1.0}), Ellipse)
    assert isinstance(geometry_from_config({"shape": "sphere", "rho": 2.0}), Sphere)
    assert isinstance(geometry_from_config({"shape": "torus", "R": 3.0, "r": 1.0}), Torus)
    with pytest.raises(ValueError):
        geometry_from_config({"shape": "klein-bottle"})


def test_geometry_parameter_validation():
    with pytest.raises(ValueError):
        Circle(-1.0)
    with pytest.raises(ValueError):
        Torus(1.0, 2.0)
