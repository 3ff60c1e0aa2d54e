"""Numerical laboratory for the 3D radial cubic-quintic NLS
i u_t + Lap u = |u|^2 u - |u|^4 u: spectral stepping, variational
thresholds, Morawetz monitors, and the scattering/blowup dichotomy."""

__version__ = "0.1.0"  # set before the imports below, so any submodule may read it

from .grid import (
    RadialField,
    RadialGrid,
    SpectralPlan,
    free_propagate,
    integrate_ball,
    laplacian,
)
from .functionals import (
    FunctionalReport,
    cutoff_identity_residual,
    local_l6,
    report,
)
from .variational import (
    Classification,
    classify,
    cubic_barrier,
    ground_state,
    scale_f12,
    scale_phi,
    thresholds,
)
from .dynamics import (
    RunOutcome,
    StepperConfig,
    Trajectory,
    evolve,
    flux_identity_residual,
    strang_step,
)
from .morawetz import (
    MorawetzWeight,
    averaged_local_l6,
    identity_residual,
    morawetz_action,
    morawetz_rate,
    weight_build,
)
from .config import ExperimentConfig, load_config
