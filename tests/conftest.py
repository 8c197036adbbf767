import pytest
from hypothesis import settings

from fchlab import (
    BilayerFamily,
    Circle,
    Ellipse,
    MicelleFamily,
    audit_growth,
    default_audit_grid,
    default_params,
    run_convergence,
    shoot_micelle,
    solve_profile,
)

# property tests replay the same examples on every run and keep no database
settings.register_profile("fchlab", derandomize=True, deadline=None, max_examples=60, database=None)
settings.load_profile("fchlab")


@pytest.fixture(scope="session")
def params():
    return default_params()


@pytest.fixture(scope="session")
def profile(params):
    return solve_profile(params)


@pytest.fixture(scope="session")
def micelle2(params):
    return shoot_micelle(2, params)


@pytest.fixture(scope="session")
def micelle3(params):
    return shoot_micelle(3, params)


@pytest.fixture(scope="session")
def growth(params):
    return audit_growth(params, default_audit_grid(params))


@pytest.fixture(scope="session")
def bilayer_report(params):
    return run_convergence(BilayerFamily(geom=Circle(1.0), params=params, eta1=1.0, eta2=1.0))


@pytest.fixture(scope="session")
def micelle_report_circle(params):
    return run_convergence(MicelleFamily(geom=Circle(1.0), params=params, eta1=1.0, eta2=1.0, alpha=0.5))


@pytest.fixture(scope="session")
def micelle_report_ellipse(params):
    return run_convergence(MicelleFamily(geom=Ellipse(2.0, 1.0), params=params, eta1=1.0, eta2=1.0, alpha=0.5))
