"""Blow-up swirl fields in a finite cylinder and their verification suite."""

__version__ = "0.1.0"

from .errors import (AxiswirlError, BlowupTimeError, ConfigError, DomainError,
                     InvariantViolation, QuadratureConvergenceError)
from .numerics import DEFAULT_SPEC, QuadratureSpec, TimeLadder, integrate
from .profiles import (ForcingProfile, SwirlProfile, build_profile,
                       bump_forcing, forcing_from_samples, inner_integral,
                       ode_residual, reference_k, zero_forcing)
from .fields import EPS0, SolutionFamily, eval_pressure, evaluate
from .verify import (BoundCheck, ResidualReport, check_bound, check_boundary,
                     check_swirl_pde)
from .norms import (Classification, NormSeries, classify_LqtL1x, energy_series,
                    l1_series, spatial_L1)
from .oracle import (OracleConfig, OracleRun, convergence_study,
                     default_levels, solve)

__all__ = [name for name in dir() if not name.startswith("_")]
