"""Gray thermal radiative transfer in slab geometry.

Macro-micro moment scheme on a staggered grid, a fixed-rank basis-update &
Galerkin integrator, a rank-adaptive variant whose truncation preserves the
conserved first moment and the diffusion-limit direction, and the explicit
Rosseland-type diffusion solver used as the small-epsilon reference.
"""

from .angular import (
    NORM_P0,
    NORM_P1,
    AngularOperators,
    build_angular_operators,
    gauss_legendre,
)
from .bug_adaptive import (
    AugmentedFactors,
    ap_truncate,
    augment_bases,
    galerkin_s_hat,
    step_bug_adaptive,
)
from .bug_fixed import step_bug_fixed
from .cli_io import RunConfig, parse_config, run_simulation, simulate
from .full_scheme import FullSchemeWorkspace, step_full
from .limits_diagnostics import (
    cfl_report,
    energy,
    l2_relative_difference,
    mass,
    relative_mass_error,
    rosseland_step,
)
from .mesh_state import (
    AbsorptionField,
    FullMicroState,
    LowRankMicroState,
    MacroState,
    StaggeredGrid,
    scalar_flux,
    zero_low_rank_state,
)
from .scenarios import Scenario, build_scenario, scenario_defaults

__version__ = "0.1.0"
