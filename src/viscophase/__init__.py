"""viscophase: structured-grid simulator and diagnostics for a
cross-diffusively coupled phase-separation / bulk-stress / flow model."""

from .errors import (
    BlowUpError, ConfigError, GridMismatchError, InvalidDeltaError,
    PotentialDomainError, QuadratureResolutionError, SnapshotError,
    SolverError,
)
from .material import (
    Potential, Entropy, MaterialModel, double_well, flory_huggins_split,
    regularize_potential, regularize_mobility, regular_model,
    degenerate_model,
)
from .fields import (
    Grid, grad_arr, div_arr, lap_arr, integrate, solve_poisson,
    project_divergence_free,
)
from .dynamics import (
    State, SimConfig, make_state, step_phi_q, step_velocity,
    run_steps, simulate, build_grid, build_material, initial_state, dt_max,
    validate_config,
)
from .diagnostics import (
    Trajectory, EnergyBreakdown, EnergyInequalityReport, GronwallFit,
    BoundsReport, CheckRecord, energy, check_energy_inequality,
    relative_energy, gronwall_fit, bounds_report, write_report,
)
from .galerkin import (
    CosineBasis, project, assemble_rhs, integrate_galerkin,
    energy_galerkin, convergence_study,
)
from .snapshots import write_snapshot, read_snapshot, write_state, read_state

__version__ = "0.1.0"
