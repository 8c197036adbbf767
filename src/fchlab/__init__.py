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
    g1_energy,
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
    gaussian_curvature_sums,
    geometry_from_config,
    jacobian,
    place_micelle_centers,
    total_curvature,
    uniform_thickness_ok,
    validate_uniform_thickness,
)
from .micelle import MicelleProfile, micelle_energy, shoot_micelle, unit_sphere_area, virial_defect
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
    ConvergenceReport,
    PhaseDiagram,
    SequenceSpec,
    DerivativeBoundsLedger,
    build_bilayer_field,
    build_micelle_field,
    default_eps_schedule,
    micelle_limit,
    phase_diagram,
    run_convergence,
    snap_micelle_eps,
    verify_derivative_bounds,
)

__version__ = "0.1.0"
