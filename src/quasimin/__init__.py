"""Box-constrained minimization of exponentially weighted Dirichlet energies.

Solves the Dirichlet problem of the quasi-linear elliptic system

    -e^{-f(U)} div(e^{f(U)} grad U) + (1/2) f'(U) |grad U|^2 = 0

for weights with the structure f'(U) = -U g(U), by direct minimization of
E(U) = int e^{f(U)} |DU|^2 over the admissible set {-C <= U <= C, U = phi on
the boundary}, with independent exact oracles (half-weight transform, sphere
geodesics) for verification.
"""

from .energy import CoefficientTensor, EnergyValue, el_residual, ellipticity_bounds, energy
from .grids import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    BoundaryData,
    DomainSpec,
    Field,
    Grid,
    build_grid,
    restrict,
    sample_boundary,
)
from .halfspace import ExhaustionReport, solve_exhaustion
from .optim import AdmissibleSet, SolveOptions, SolveReport, kkt_residual, minimize, project_admissible
from .oracle import (
    ConvergenceError,
    SourceField,
    TransformTable,
    poisson_dirichlet,
    solve_scalar_exact,
    solve_scalar_source,
)
from .sphere import (
    ChartPole,
    SphereMapResult,
    choose_poles,
    harmonic_residual,
    make_pole,
    solve_chart,
    solve_harmonic_pair,
    stereo_inverse,
    stereo_project,
    sup_distance,
)
from .weights import (
    Weight,
    WeightReport,
    constant,
    gaussian,
    sphere_chart,
    validate_weight,
)

__version__ = "0.1.0"
