"""Blow-up swirl fields in a finite cylinder and their verification suite."""

__version__ = "0.1.0"

from .errors import (AxiswirlError, BlowupTimeError, ConfigError, DomainError,
                     InvariantViolation, QuadratureConvergenceError)
from .numerics import (DEFAULT_SPEC, QuadratureSpec, RadialGrid, TimeLadder,
                       differentiate, integrate, make_radial_grid,
                       make_time_ladder)
from .profiles import (ForcingProfile, SwirlProfile, build_profile,
                       bump_forcing, forcing_from_samples, inner_integral,
                       ode_residual, reference_k, zero_forcing)
from .fields import (EPS0, FieldSample, SolutionFamily, VectorFieldValue, eval_Y,
                     eval_du_dr, eval_eta, eval_h, eval_pressure, eval_u,
                     eval_v, eval_vbar, sample, velocity)
from .verify import (BoundCheck, ResidualReport, check_bound, check_boundary,
                     check_swirl_pde, residual_order)
from .norms import (Classification, NormSeries, classify_LqtL1x, energy,
                    energy_series, l1_series, spatial_L1)
from .oracle import (OracleConfig, OracleRun, convergence_study,
                     default_levels, solve_eta, solve_swirl)

__all__ = [name for name in dir() if not name.startswith("_")]
