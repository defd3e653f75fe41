"""Growth-diffusion on moving domains: exact series solutions, finite-difference
solvers, spectral bounds, and critical-spreading asymptotics.

The package is organised around the fixed-domain change of variables
xi = (x - A(t)) L0 / L(t): ``motion`` describes the moving interval, ``eigen``
solves the associated Sturm-Liouville problems, ``exact`` assembles separable
series solutions, ``numeric`` provides Crank-Nicolson oracles, and
``critical`` implements the Airy-layer envelopes and boundary-exponent fits
for intervals spreading at the critical speed.
"""

from .motion import (
    BoundaryMotion,
    CaseKind,
    CriticalMotion,
    DomainCollapsedError,
    EtaSpec,
    MotionState,
    ParameterError,
    PhysicsParams,
    SeparableMotion,
    TabulatedMotion,
    classify,
    eval_motion,
    motion_from_document,
    motion_to_document,
    time_rescale,
    validity_horizon,
)
from .airy import airy_ai, airy_first_zero
from .eigen import EigenSystem, principal_eigen_bound, solve_sl
from .eigen import solve_radial as solve_radial_modes
from .exact import (
    GrowthVerdict,
    SeriesSolution,
    TruncationWarning,
    build_radial_series,
    build_series,
    eval_physical,
    eval_radial_physical,
    eval_radial_series,
    eval_series,
    growth_region,
)
from .numeric import GridSolution, solve_radial, solve_u, solve_w
from .critical import (
    CriticalFitReport,
    EnvelopePair,
    EnvelopeViolationError,
    envelope_bounds_general,
    fit_exponent,
    subsolution,
    supersolution,
    verify_envelope,
)

__version__ = "0.1.0"
