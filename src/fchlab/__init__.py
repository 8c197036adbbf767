"""Compacton profiles and thin-domain energies of a highly amphiphilic
functionalized Cahn-Hilliard model."""

from .bilayer import BilayerProfile, half_width, peak_amplitude, solve_profile
from .energy import (
    EnergyReport,
    Field,
    LowerBoundAudit,
    cahn_hilliard_residual,
    curvilinear_gradient,
    curvilinear_laplacian,
    fch_energy,
    fch_energy_sweep,
    lower_bound_audit,
)
from .errors import (
    FchError,
    InfeasibleModelError,
    InfeasibleWellError,
    NumericsError,
    PlacementError,
)
from .geometry import (
    Circle,
    Ellipse,
    InterfaceGeom,
    Sphere,
    Torus,
    TubularGrid,
    bending_integral,
    geometry_from_config,
    jacobian,
    place_micelle_centers,
    total_curvature,
)
from .limits import g1_energy, micelle_limit, snap_micelle_eps, unit_sphere_area
from .micelle import MicelleProfile, shoot_micelle, virial_defect
from .potential import (
    GrowthConstants,
    GrowthViolation,
    WellParams,
    audit_growth,
    default_audit_grid,
    default_params,
    eval_dwell,
    eval_well,
)
from .sequences import (
    BilayerFamily,
    ConvergenceReport,
    DerivativeBoundsLedger,
    MicelleFamily,
    PhaseDiagram,
    build_bilayer_field,
    build_micelle_field,
    phase_diagram,
    run_convergence,
    verify_derivative_bounds,
)

__version__ = "0.1.0"
