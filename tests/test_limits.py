"""The closed forms of fchlab.limits against the fields they describe."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest

from fchlab import Circle, Ellipse, MicelleFamily, Sphere, build_micelle_field, fch_energy, limits, shoot_micelle


def test_limits_imports_no_solver():
    # profile constants reach the closed forms as arguments
    tree = ast.parse(Path(limits.__file__).read_text())
    local = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}
    assert local == {"geometry"}


def test_a_count_past_the_float_range_is_exact():
    # alpha/omega/eps overflows at alpha = 1e308, and eps^(1-n) at eps = 1e-320
    omega = Fraction(limits.unit_sphere_area(2))
    for alpha, eps in ((1e308, 0.05), (0.5, 1e-320)):
        assert limits.micelle_count(alpha, 2, eps) == round(Fraction(alpha) / omega / Fraction(eps))
    # snapping that count moves the width by less than one part in the count
    assert limits.snap_micelle_eps(1e308, 2, 0.05) == (0.05, limits.micelle_count(1e308, 2, 0.05))
    # below the float range the float formula holds, bit for bit
    assert limits.snap_micelle_eps(0.5, 2, 0.05) == (0.5 / (2.0 * math.pi * 2), 2)


# measured gaps to the realised-density limit at the default resolution:
# 1.6e-5 and 1.7e-5 on the circle, 8.5e-6 and 9.1e-6 on the ellipse, and
# 4.4e-4 on the sphere, where alpha = 0.1 at eps = 0.1 asks for 0.80 centres
@pytest.mark.parametrize(
    "geom, alpha, eps, ns, bound",
    [
        (Circle(1.0), 0.5, 0.03, None, 5e-5),
        (Circle(1.0), 0.5, 0.02, None, 5e-5),
        (Ellipse(2.0, 1.0), 0.5, 0.03, None, 5e-5),
        (Ellipse(2.0, 1.0), 0.5, 0.02, None, 5e-5),
        (Sphere(3.0), 0.1, 0.1, (236, 471), 1e-3),
    ],
    ids=["circle-0.03", "circle-0.02", "ellipse-0.03", "ellipse-0.02", "sphere-0.1"],
)
def test_an_unsnapped_micelle_field_carries_the_realised_density(geom, alpha, eps, ns, bound, params):
    # the field holds micelle_count(eps) whole micelles, so its energy is the
    # limit at alpha_eps = count*omega*eps^(n-1), not at the requested alpha
    n = geom.ambient_n
    family = MicelleFamily(geom=geom, params=params, eta1=1.0, eta2=1.0, alpha=alpha, eps_list=(eps,), ns=ns)
    energy = fch_energy(build_micelle_field(family, eps), 1.0, 1.0, params).total
    alpha_eps = limits.micelle_count(alpha, n, eps) * limits.unit_sphere_area(n) * eps ** (n - 1)
    sigma = shoot_micelle(n, params).sigma_n
    realised = limits.micelle_limit(n, alpha_eps, 1.0, 1.0, sigma)
    requested = limits.micelle_limit(n, alpha, 1.0, 1.0, sigma)
    gap = abs(energy - realised) / abs(realised)
    assert gap <= bound
    assert abs(energy - requested) / abs(requested) > 100 * gap
