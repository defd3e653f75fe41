"""Prescribed boundary motions for the growth-diffusion problem on a moving interval.

The physical problem lives on A(t) < x < A(t) + L(t) with homogeneous Dirichlet
ends.  Everything downstream (series solutions, finite-difference solvers,
envelope bounds) is driven by the kinematics collected here.  ``eval_motion``
reads them at one time, or at an array of times in one numpy pass: the
interval length L, the left endpoint A and their first two derivatives, as a
``MotionState`` of floats or of arrays; no quadrature.  A separable motion
computes its case and gamma0 once, and a tabulated one sums one spline piece.
``length_jerk`` adds L's third derivative to a state.  The
rescaled time s(t) = integral of L0^2 / L(z)^2 is ``time_rescale``'s job,
with adaptive quadrature on critical and tabulated motions.

Every time integral of a motion (s(t) here, the frame drift in ``transforms``,
the barrier gauge in ``critical``) goes through one checked quadrature,
``time_integral``, built on QUADPACK's adaptive rule (Piessens et al.,
*QUADPACK*, Springer 1983).

A check that reads only the caller's arguments raises ``ParameterError``
before any computation, across the package; a failure found while
computing, such as ``DomainCollapsedError``, is another ``ValueError``.

Every function of a motion's time checks the time with one rule,
``_require_time``, before it reads the kinematics: a time that is not finite
and >= 0, or lies past a tabulated motion's table, raises ``ParameterError``;
then one at or past ``validity_horizon`` raises ``DomainCollapsedError("motion
collapsed: its length vanished at t=<horizon>, before t=<t>")``.

Three families are supported:

* ``SeparableMotion`` -- L(t)^2 = a t^2 + 2 b t + L0^2 together with a left
  endpoint whose acceleration is gamma1 / L^3.  These are exactly the motions
  for which Lddot * L^3 and Addot * L^3 are constant, which is what makes the
  transformed problem separable.
* ``CriticalMotion`` -- symmetric interval A = -L/2 whose half-length advances
  at the spreading speed c* = 2 sqrt(D f0) minus a logarithmic lag
  alpha * log(t + 1) and a decaying perturbation eta(t).
* ``TabulatedMotion`` -- cubic-spline interpolation of sampled (A, L) for
  motions outside the closed-form families.  A state reads the one piece of
  the two-column spline that holds t, summed as scipy sums it, so the values
  are the spline's own to the last bit.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

__all__ = [
    "PhysicsParams",
    "EtaSpec",
    "SeparableMotion",
    "CriticalMotion",
    "TabulatedMotion",
    "BoundaryMotion",
    "MotionState",
    "CaseKind",
    "DomainCollapsedError",
    "ParameterError",
    "classify",
    "eval_motion",
    "length_jerk",
    "time_rescale",
    "validity_horizon",
    "centering_defect",
    "require_centered",
    "motion_to_document",
    "motion_from_document",
    "motion_content_hash",
]

# Relative discrimination threshold below which a*L0^2 - b^2 is treated as zero
# and the quadratic length law degenerates to L = L0 + (b/L0) t.
LINEAR_DEGENERACY_RTOL = 1e-12

# Tolerance of ``time_integral``, the one quadrature of every time integral.
_QUAD_OPTS = {"epsabs": 1e-12, "epsrel": 1e-12, "limit": 400}


class ParameterError(ValueError):
    """A bad argument, refused before any computation; the CLI exits 2."""


class DomainCollapsedError(ValueError):
    """Raised when a motion is evaluated at or beyond its collapse time."""


def _require_finite(**fields) -> None:
    """Refuse a non-finite field: nan passes no sign check and inf passes some."""
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class PhysicsParams:
    """Diffusivity and linear growth rate; both strictly positive."""

    D: float
    f0: float

    def __post_init__(self) -> None:
        _require_finite(D=self.D, f0=self.f0)
        if not (self.D > 0.0):
            raise ParameterError(f"diffusivity D must be positive, got {self.D}")
        if not (self.f0 > 0.0):
            raise ParameterError(f"growth rate f0 must be positive, got {self.f0}")

    @cached_property
    def c_star(self) -> float:
        """Spreading speed 2 sqrt(D f0) of the unconstrained problem."""
        return 2.0 * math.sqrt(self.D * self.f0)


@dataclass(frozen=True)
class EtaSpec:
    """Decaying perturbation eta(t) = k (1 + t)^p with p < 0.

    The derivatives of eta must vanish at infinity for the critical-case
    asymptotics to hold, hence the sign restriction on p.  With k = 0 (of
    either sign) p plays no part, so the spec is stored as k = 0.0, p = -1.0.
    """

    k: float = 0.0
    p: float = -1.0

    def __post_init__(self) -> None:
        _require_finite(k=self.k, p=self.p)
        if self.k == 0.0:
            object.__setattr__(self, "k", 0.0)
            object.__setattr__(self, "p", -1.0)
        elif not (self.p < 0.0):
            raise ParameterError(f"eta exponent p must be negative, got {self.p}")

    def derivative(self, t, order: int = 0):
        """The order-th derivative of eta at t (order 0: eta itself).  With
        k = 0 every derivative is zero, and subtracting it leaves every
        kinematic value unchanged, so it is not computed."""
        if self.k == 0.0:
            return 0.0
        coeff = self.k
        for j in range(order):
            coeff *= self.p - j
        return coeff * (1.0 + t) ** (self.p - order)


@dataclass(frozen=True)
class SeparableMotion:
    """Length law L^2 = a t^2 + 2 b t + L0^2 with endpoint acceleration gamma1 / L^3.

    The left endpoint integrates Addot = gamma1 / L^3 twice; ``c`` and ``d``
    are the free velocity and offset constants of that double integration.
    """

    physics: PhysicsParams
    a: float
    b: float
    L0: float
    gamma1: float = 0.0
    c: float = 0.0
    d: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(a=self.a, b=self.b, L0=self.L0, gamma1=self.gamma1, c=self.c, d=self.d)
        if not (self.L0 > 0.0):
            raise ParameterError(f"initial length L0 must be positive, got {self.L0}")

    # -- convenience constructors for the individual closed-form cases --

    @staticmethod
    def fixed_length(physics: PhysicsParams, L0: float, gamma1: float = 0.0,
                     c: float = 0.0, d: float = 0.0) -> "SeparableMotion":
        return SeparableMotion(physics, 0.0, 0.0, L0, gamma1, c, d)

    @staticmethod
    def linear_length(physics: PhysicsParams, L0: float, slope: float,
                      gamma1: float = 0.0, c: float = 0.0, d: float = 0.0) -> "SeparableMotion":
        """L(t) = L0 + slope * t, realised as a = slope^2, b = slope * L0."""
        _require_finite(slope=slope)
        if slope == 0.0:
            return SeparableMotion.fixed_length(physics, L0, gamma1, c, d)
        return SeparableMotion(physics, slope * slope, slope * L0, L0, gamma1, c, d)

    @staticmethod
    def sqrt_length(physics: PhysicsParams, L0: float, rho: float,
                    gamma1: float = 0.0, c: float = 0.0, d: float = 0.0) -> "SeparableMotion":
        """L(t) = sqrt(L0^2 + 2 rho t)."""
        return SeparableMotion(physics, 0.0, rho, L0, gamma1, c, d)

    @staticmethod
    def symmetric(physics: PhysicsParams, L0: float, a: float = 0.0,
                  b: float = 0.0) -> "SeparableMotion":
        """Motion with A = -L/2 for the given length law (interval centred at 0).

        Requires gamma1 = -gamma0 / 2, which fixes the endpoint acceleration;
        the remaining integration constants follow from A(0) = -L0/2 and
        Adot(0) = -Ldot(0)/2.  The case decides, not gamma0: a linear law's
        gamma0 may be the nonzero roundoff of a L0^2 - b^2, and gamma1 is 0.
        """
        m = SeparableMotion(physics, a, b, L0)
        if m.case_kind in (CaseKind.FIXED_LENGTH, CaseKind.LINEAR_LENGTH):
            return SeparableMotion(physics, a, b, L0, 0.0, -0.5 * b / L0, -0.5 * L0)
        return SeparableMotion(physics, a, b, L0, -0.5 * m.gamma0, 0.0, 0.0)

    # The case facts below are computed once per motion.  They are not
    # fields, so equality, hashing and the motion document never see them.

    @cached_property
    def gamma0(self) -> float:
        """Separability constant Lddot * L^3 = a L0^2 - b^2."""
        return self.a * self.L0 ** 2 - self.b ** 2

    @cached_property
    def case_kind(self) -> CaseKind:
        """The closed-form case of this length law, as ``classify`` reports it."""
        return classify(self)

    @cached_property
    def _horizon(self) -> float:
        """``validity_horizon``, computed once per motion."""
        return _separable_horizon(self)


@dataclass(frozen=True)
class CriticalMotion:
    """Symmetric interval spreading at c* with a logarithmic lag.

    L(t) = 2 (c* (t + t0) - alpha log(t + 1) - eta(t)) and A = -L/2.  The
    start-time shift t0, chosen so L(0) = L0_offset > 0, only adds a constant to
    the lag terms; it absorbs any constant part of eta, so ``EtaSpec`` has none.
    """

    physics: PhysicsParams
    alpha: float
    L0_offset: float = 1.0
    eta: EtaSpec = field(default_factory=EtaSpec)

    def __post_init__(self) -> None:
        _require_finite(alpha=self.alpha, L0_offset=self.L0_offset)
        if not (self.alpha > 0.0):
            raise ParameterError(f"log-lag coefficient alpha must be positive, got {self.alpha}")
        if not (self.L0_offset > 0.0):
            raise ParameterError(f"L0_offset must be positive, got {self.L0_offset}")

    @cached_property
    def t0(self) -> float:
        return (0.5 * self.L0_offset + self.eta.derivative(0.0)) / self.physics.c_star

    @cached_property
    def _horizon(self) -> float:
        """``validity_horizon``, computed once per motion."""
        return _critical_horizon(self)

    @property
    def L0(self) -> float:
        return self.L0_offset


@dataclass(frozen=True)
class TabulatedMotion:
    """Twice-differentiable spline interpolation of sampled endpoint data.

    The samples define one cubic spline with the columns (A, L).  A state is
    read from the one spline piece that holds t: its cubic is summed once for
    each of A, L and their derivatives, with scipy ``PPoly``'s interval rule
    and summation order, so every value equals the spline's own bit for bit.
    """

    physics: PhysicsParams
    times: tuple
    A_values: tuple
    L_values: tuple

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 4:
            raise ParameterError("tabulated motion needs at least 4 samples")
        for name, v in (("times", t), ("A_values", self.A_values), ("L_values", self.L_values)):
            finite = np.isfinite(np.asarray(v, dtype=float))
            if not np.all(finite):
                j = int(np.argmin(finite))
                raise ParameterError(f"tabulated {name} must be finite, got {v[j]} at index {j}")
        if not np.all(np.diff(t) > 0):
            raise ParameterError("sample times must be strictly increasing")
        if len(self.A_values) != t.size or len(self.L_values) != t.size:
            raise ParameterError("A_values and L_values must match times in length")
        if t[0] > 0.0:
            raise ParameterError("samples must cover t = 0")
        object.__setattr__(self, "times", tuple(float(v) for v in t))
        object.__setattr__(self, "A_values", tuple(float(v) for v in self.A_values))
        object.__setattr__(self, "L_values", tuple(float(v) for v in self.L_values))

    @staticmethod
    def from_callables(physics: PhysicsParams, A, L, t_max: float,
                       num_samples: int = 2001) -> "TabulatedMotion":
        ts = np.linspace(0.0, t_max, num_samples)
        return TabulatedMotion(physics, tuple(ts), tuple(A(t) for t in ts), tuple(L(t) for t in ts))

    @cached_property
    def _spline(self) -> CubicSpline:
        return CubicSpline(self.times, np.column_stack((self.A_values, self.L_values)))

    @cached_property
    def _pieces(self) -> np.ndarray:
        """One row per spline piece: A's then L's coefficients, highest power first."""
        c = self._spline.c
        return c.transpose(1, 2, 0).reshape(c.shape[1], 8)

    @cached_property
    def L0(self) -> float:
        return float(self._spline(0.0)[1])

    @cached_property
    def _horizon(self) -> float:
        """``validity_horizon``, computed once per motion."""
        return _tabulated_horizon(self)


BoundaryMotion = SeparableMotion | CriticalMotion | TabulatedMotion


class MotionState(NamedTuple):
    """Snapshot of the interval kinematics at one instant (no rescaled time)."""

    t: float
    L: float
    Ldot: float
    Lddot: float
    A: float
    Adot: float
    Addot: float


class CaseKind(Enum):
    FIXED_LENGTH = "fixed_length"
    LINEAR_LENGTH = "linear_length"
    SQRT_LENGTH = "sqrt_length"
    QUAD_NEG = "quad_neg"
    QUAD_POS = "quad_pos"
    CRITICAL_CASE = "critical_case"
    GENERAL = "general"


def classify(motion: BoundaryMotion) -> CaseKind:
    """Sort a motion into its closed-form solution case.

    Tabulated motions are reported as GENERAL rather than rejected: they are
    legitimate inputs for the numeric solver and the comparison bounds, just
    not for the per-case series formulas.
    """
    if isinstance(motion, CriticalMotion):
        return CaseKind.CRITICAL_CASE
    if isinstance(motion, TabulatedMotion):
        return CaseKind.GENERAL
    a, b = motion.a, motion.b
    g0 = motion.gamma0
    if a == 0.0 and b == 0.0:
        return CaseKind.FIXED_LENGTH
    if a == 0.0:
        return CaseKind.SQRT_LENGTH
    scale = max(abs(a) * motion.L0 ** 2, b * b)
    if abs(g0) < LINEAR_DEGENERACY_RTOL * scale:
        return CaseKind.LINEAR_LENGTH
    if g0 < 0.0:
        return CaseKind.QUAD_NEG
    return CaseKind.QUAD_POS


def _first(t, bad):
    """The time a failed check names: t, or an array t's first entry where ``bad`` holds."""
    return float(t[np.argmax(bad)]) if isinstance(t, np.ndarray) else t


def _require_time(motion: BoundaryMotion, t) -> None:
    """The time rule (module docstring) for t, or for each entry of a 1-D array t,
    whose first offending entry a refusal names.  It accepts one interval."""
    lo = hi = t
    if not isinstance(t, float) and isinstance(t, np.ndarray):    # a float skips the second test
        lo, hi = t.min(initial=0.0), t.max(initial=-math.inf)
    if not (0.0 <= lo and hi < math.inf):      # False for nan
        raise ParameterError(f"motions are defined for finite t >= 0, got "
                             f"t={_first(t, ~np.isfinite(t) | (t < 0.0))}")
    if type(motion) is TabulatedMotion and hi > motion.times[-1]:
        raise ParameterError(f"t={_first(t, t > motion.times[-1])} beyond tabulated range "
                             f"[0, {motion.times[-1]}]")
    # Past its first zero a length may turn positive again; the domain stays gone.
    horizon = motion._horizon
    if hi >= horizon:
        raise DomainCollapsedError(f"motion collapsed: its length vanished at t={horizon}, "
                                   f"before t={float(_first(t, t >= horizon))}")


# Each kinematics body reads one time t with ``xp = math``, or a 1-D array of
# times with ``xp = numpy``, that the rule accepted.  Its length-sign guard only
# meets roundoff just below the horizon, before a sqrt or a division fails.
def _separable_kinematics(m: SeparableMotion, t, xp=math):
    Lsq = m.a * t * t + 2.0 * m.b * t + m.L0 ** 2
    if (Lsq if xp is math else Lsq.min(initial=math.inf)) <= 0.0:
        raise DomainCollapsedError(f"interval length vanished at t={_first(t, Lsq <= 0.0)}")
    L = xp.sqrt(Lsq)
    Ldot = (m.a * t + m.b) / L
    Lddot = m.gamma0 / L ** 3
    kind = m.case_kind
    g1, c, d = m.gamma1, m.c, m.d
    if kind is CaseKind.FIXED_LENGTH:
        A = g1 * t * t / (2.0 * m.L0 ** 3) + c * t + d
        Adot = g1 * t / m.L0 ** 3 + c
    elif kind is CaseKind.LINEAR_LENGTH:
        slope = m.b / m.L0
        A = g1 / (2.0 * slope * slope * L) + c * t + d
        Adot = -g1 / (2.0 * slope * L * L) + c
    elif kind is CaseKind.SQRT_LENGTH:
        rho = m.b
        A = -g1 * L / (rho * rho) + c * t + d
        Adot = -g1 / (rho * L) + c
    else:
        beta = m.b ** 2 - m.a * m.L0 ** 2  # -gamma0
        A = -g1 * L / beta + c * t + d
        Adot = -g1 * (m.a * t + m.b) / (beta * L) + c
    Addot = g1 / L ** 3
    return MotionState(t, L, Ldot, Lddot, A, Adot, Addot)


def _critical_half_length(m: CriticalMotion, t, xp=math):
    """c* (t + t0) - alpha log(1 + t) - eta(t); nonpositive once the domain collapsed."""
    return m.physics.c_star * (t + m.t0) - m.alpha * xp.log1p(t) - m.eta.derivative(t)


def _critical_kinematics(m: CriticalMotion, t, xp=math):
    cs = m.physics.c_star
    eta = m.eta
    L = 2.0 * _critical_half_length(m, t, xp)
    if (L if xp is math else L.min(initial=math.inf)) <= 0.0:
        raise DomainCollapsedError(f"critical motion collapsed at or before t="
                                   f"{_first(t, L <= 0.0)}; increase L0_offset")
    Ldot = 2.0 * (cs - m.alpha / (1.0 + t) - eta.derivative(t, 1))
    Lddot = 2.0 * (m.alpha / (1.0 + t) ** 2 - eta.derivative(t, 2))
    return MotionState(t, L, Ldot, Lddot, -0.5 * L, -0.5 * Ldot, -0.5 * Lddot)


def _spline_piece(m: TabulatedMotion, t, xp=math):
    """A's and L's coefficients on the spline piece holding t, and t's offset in it.

    scipy's interval rule: times[i] <= t < times[i + 1], with t = times[-1]
    (or beyond) in the last piece and t < times[0] in the first.
    """
    times = m.times
    if xp is np:
        i = np.searchsorted(m._spline.x, t, "right").clip(1, len(times) - 1) - 1
        return *m._pieces[i].T.reshape(2, 4, t.size), t - m._spline.x[i]
    i = min(max(bisect_right(times, t) - 1, 0), len(times) - 2)
    a3, a2, a1, a0, l3, l2, l1, l0 = m._pieces[i].tolist()
    return (a3, a2, a1, a0), (l3, l2, l1, l0), t - times[i]


def _cubic_read(c, s: float):
    """Value, first and second derivative of c3 s^3 + c2 s^2 + c1 s + c0.

    Each sum runs in scipy ``PPoly``'s order: from the constant term up,
    starting at 0.0, each term (coefficient * s^j) * k!/(k - nu)!, with s^j
    built by repeated multiplication.
    """
    c3, c2, c1, c0 = c
    s2 = s * s
    return (0.0 + c0 + c1 * s + c2 * s2 + c3 * (s2 * s),
            0.0 + c1 + c2 * s * 2.0 + c3 * s2 * 3.0,
            0.0 + c2 * 2.0 + c3 * s * 6.0)


def _tabulated_kinematics(m: TabulatedMotion, t, xp=math):
    cA, cL, s = _spline_piece(m, t, xp)
    L, Ldot, Lddot = _cubic_read(cL, s)
    if (L if xp is math else L.min(initial=math.inf)) <= 0.0:
        raise DomainCollapsedError(f"tabulated length is non-positive at t={_first(t, L <= 0.0)}")
    A, Adot, Addot = _cubic_read(cA, s)
    return MotionState(t, L, Ldot, Lddot, A, Adot, Addot)


_KINEMATICS = {SeparableMotion: _separable_kinematics, CriticalMotion: _critical_kinematics,
               TabulatedMotion: _tabulated_kinematics}


def eval_motion(motion: BoundaryMotion, t: float | np.ndarray) -> MotionState:
    """Kinematics at a time t the time rule accepts, or at each time of a 1-D
    array t; s(t) is ``time_rescale``'s job."""
    _require_time(motion, t)
    if not isinstance(t, float) and isinstance(t, np.ndarray):    # a float skips the second test
        return _KINEMATICS[type(motion)](motion, t, np)
    return _KINEMATICS[type(motion)](motion, t)


def _kinematics_on(motion: BoundaryMotion, t_from: float, t_to: float):
    """The kinematics body for quadrature nodes in [t_from, t_to]: the rule
    accepts one interval of times, so both ends passing it clears every node."""
    _require_time(motion, t_from)
    _require_time(motion, t_to)
    return partial(_KINEMATICS[type(motion)], motion)


def length_jerk(motion: BoundaryMotion, st: MotionState):
    """Third derivative of L at the state's time(s), which ``eval_motion`` does not read."""
    if isinstance(motion, SeparableMotion):
        return -3.0 * motion.gamma0 * st.Ldot / st.L ** 4
    if isinstance(motion, CriticalMotion):
        return 2.0 * (-2.0 * motion.alpha / (1.0 + st.t) ** 3 - motion.eta.derivative(st.t, 3))
    l3 = _spline_piece(motion, st.t, np if isinstance(st.t, np.ndarray) else math)[1][0]
    return 0.0 + l3 * 6.0           # PPoly's sum for the third derivative


def time_integral(integrand, t_from: float, t_to: float) -> float:
    """Integral of ``integrand(z)`` over [t_from, t_to], its error estimate checked.

    The range is cut at the powers of ten inside it past t = 10, so algebraic
    tails keep their resolution at any horizon; a range ending at t <= 10 is
    one adaptive ``quad`` call.  Raises ``RuntimeError`` naming the interval
    when the summed error estimate exceeds 1e-9 max(1, |value|).
    """
    cuts = [t_from]
    edge = 10.0
    while edge < t_to:
        if edge > t_from:
            cuts.append(edge)
        edge *= 10.0
    cuts.append(t_to)
    val = err = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        v, e = quad(integrand, lo, hi, **_QUAD_OPTS)
        val += v
        err += e
    if err > 1e-9 * max(1.0, abs(val)):
        raise RuntimeError(
            f"quadrature on [{t_from:.6g}, {t_to:.6g}] did not converge: "
            f"error estimate {err:.3g} for the value {val:.10g}")
    return val


def _quadrature_rescale(motion: BoundaryMotion, t: float) -> float:
    """s(t) by ``time_integral``, independent of the per-case closed forms."""
    L0sq = motion.L0 ** 2
    state = _kinematics_on(motion, 0.0, t)
    return time_integral(lambda z: L0sq / state(z).L ** 2, 0.0, t)


def time_rescale(motion: BoundaryMotion, t: float) -> float:
    """Rescaled time s(t) = integral_0^t L0^2 / L(z)^2 dz.

    Closed forms exist for every separable case; critical and tabulated
    motions fall back to ``time_integral``, at tolerance 1e-12 with its error
    estimate checked.
    """
    _require_time(motion, t)
    if t == 0.0:
        return 0.0
    if isinstance(motion, SeparableMotion):
        kind = motion.case_kind
        L0sq = motion.L0 ** 2
        a, b = motion.a, motion.b
        if kind is CaseKind.FIXED_LENGTH:
            return t
        if kind is CaseKind.LINEAR_LENGTH:
            slope = b / motion.L0
            return motion.L0 * t / (motion.L0 + slope * t)
        if kind is CaseKind.SQRT_LENGTH:
            rho = b
            return (L0sq / (2.0 * rho)) * math.log1p(2.0 * rho * t / L0sq)
        if kind is CaseKind.QUAD_POS:
            sq = math.sqrt(motion.gamma0)
            return (L0sq / sq) * (math.atan((a * t + b) / sq) - math.atan(b / sq))
        # QUAD_NEG: partial fractions around the real roots of L^2.
        sb = math.sqrt(b * b - a * L0sq)
        ratio = ((a * t + b - sb) * (b + sb)) / ((b - sb) * (a * t + b + sb))
        return (L0sq / (2.0 * sb)) * math.log(abs(ratio))
    return _quadrature_rescale(motion, t)


def _separable_horizon(m: SeparableMotion) -> float:
    a, b, L0sq = m.a, m.b, m.L0 ** 2
    if a == 0.0:
        if b >= 0.0:
            return math.inf
        return -L0sq / (2.0 * b)
    if m.case_kind is CaseKind.LINEAR_LENGTH:
        # L = L0 + (b/L0) t: gamma0 is roundoff, of either sign, so the
        # discriminant below cannot decide; a shrinking law ends at L0/|slope|.
        return -b / a if b < 0.0 else math.inf
    disc = b * b - a * L0sq
    if disc < 0.0:
        return math.inf  # gamma0 > 0 forces a > 0, so L^2 never vanishes
    sq = math.sqrt(disc)
    roots = sorted(((-b - sq) / a, (-b + sq) / a))
    positive = [r for r in roots if r > 0.0]
    return positive[0] if positive else math.inf


def _first_root(f, ts, vals, **tols) -> float:
    """The first root of f on the samples ``vals = f(ts)``: 0.0 when the first
    sample is nonpositive, +inf when none is, else brentq (xtol 1e-13) between
    the first nonpositive sample and the one before it."""
    below = np.flatnonzero(vals <= 0.0)
    if below.size == 0:
        return math.inf
    i = below[0]
    if i == 0:
        return 0.0
    return brentq(f, ts[i - 1], ts[i], xtol=1e-13, **tols)


def _critical_horizon(m: CriticalMotion) -> float:
    cs = m.physics.c_star
    # Beyond t_safe the half-length derivative is certainly positive.
    t_safe = max(0.0, 2.0 * m.alpha / cs - 1.0)
    if m.eta.k != 0.0:
        # |eta'(t)| < c*/2 once (1+t)^(1-p) > 2|k p|/c*.
        kd = 2.0 * abs(m.eta.k * m.eta.p) / cs
        t_safe = max(t_safe, kd ** (1.0 / (1.0 - m.eta.p)))
    ts = np.linspace(0.0, t_safe + 1.0, 4097)
    return _first_root(lambda t: _critical_half_length(m, t), ts,
                       _critical_half_length(m, ts, np), rtol=1e-14)


def _tabulated_horizon(m: TabulatedMotion) -> float:
    ts = np.linspace(m.times[0], m.times[-1], 8 * len(m.times))
    return _first_root(lambda t: _cubic_read(*_spline_piece(m, t)[1:])[0], ts,
                       m._spline(ts)[:, 1])


def validity_horizon(motion: BoundaryMotion) -> float:
    """First positive time at which L(t) = 0, or +inf if the length never vanishes."""
    return motion._horizon


def centering_defect(motion: BoundaryMotion) -> str | None:
    """None when the motion keeps A = -L/2 for all time, as the radial
    reduction, the critical barriers and the half-interval w march need;
    otherwise the first offset that breaks it, named with its value.

    The rule reads the motion's definition, each offset to 1e-9 of its scale.
    A critical motion is centred by construction.  A tabulated spline is
    linear in its samples, so A + L/2 vanishes identically exactly when it
    vanishes at every sample.  A separable motion has Addot + Lddot/2 =
    (gamma1 + gamma0/2) / L^3, so A + L/2 vanishes identically exactly when
    gamma1 = -gamma0/2 and A + L/2 and its rate vanish at t = 0; the gamma
    offset is measured against ``classify``'s scale max(|a| L0^2, b^2) plus
    D^2, as a linear law's gamma0 is only the roundoff of that difference.
    """
    checks = ()
    if isinstance(motion, TabulatedMotion):
        L = np.array(motion.L_values)
        off = np.array(motion.A_values) + 0.5 * L
        j = int(np.argmax(np.abs(off) / np.maximum(motion.L0, np.abs(L))))
        checks = ((f"A + L/2 at the sample t={motion.times[j]:.6g}", off[j],
                   max(motion.L0, abs(L[j]))),)
    elif isinstance(motion, SeparableMotion):
        st = eval_motion(motion, 0.0)
        scale = max(abs(motion.a) * motion.L0 ** 2, motion.b ** 2) + motion.physics.D ** 2
        checks = (("gamma1 + gamma0/2", motion.gamma1 + 0.5 * motion.gamma0, scale),
                  ("A + L/2 at t=0", st.A + 0.5 * st.L, motion.L0),
                  ("Adot + Ldot/2 at t=0", st.Adot + 0.5 * st.Ldot, math.sqrt(scale) / motion.L0))
    for name, off, size in checks:
        if abs(off) > 1e-9 * size:
            return f"{name} = {off:.3e}"
    return None


def require_centered(motion: BoundaryMotion) -> None:
    """Raise unless the motion is centred by ``centering_defect``'s rule; the
    w equation takes any motion."""
    defect = centering_defect(motion)
    if defect is not None:
        raise ParameterError(f"motion is not centred: {defect}")


# ---------------------------------------------------------------------------
# serialization


def motion_to_document(motion: BoundaryMotion) -> dict:
    """JSON-ready document {family, params, physics}; floats survive round-trip exactly."""
    phys = {"D": motion.physics.D, "f0": motion.physics.f0}
    if isinstance(motion, SeparableMotion):
        return {"family": "separable", "physics": phys,
                "params": {"a": motion.a, "b": motion.b, "L0": motion.L0,
                           "gamma1": motion.gamma1, "c": motion.c, "d": motion.d}}
    if isinstance(motion, CriticalMotion):
        return {"family": "critical", "physics": phys,
                "params": {"alpha": motion.alpha, "L0_offset": motion.L0_offset,
                           "eta": {"k": motion.eta.k, "p": motion.eta.p}}}
    if isinstance(motion, TabulatedMotion):
        return {"family": "tabulated", "physics": phys,
                "params": {"times": list(motion.times), "A": list(motion.A_values),
                           "L": list(motion.L_values)}}
    raise TypeError(f"unknown motion type {type(motion)!r}")


def motion_from_document(doc: dict) -> BoundaryMotion:
    """The motion ``motion_to_document`` described; a document that builds no
    valid motion (a key missing, a value of the wrong kind, an unknown family,
    a refused parameter) raises ``ParameterError``."""
    try:
        family = doc["family"]
        phys = PhysicsParams(float(doc["physics"]["D"]), float(doc["physics"]["f0"]))
        params = doc["params"]
        if family == "separable":
            return SeparableMotion(phys, float(params["a"]), float(params["b"]),
                                   float(params["L0"]), float(params.get("gamma1", 0.0)),
                                   float(params.get("c", 0.0)), float(params.get("d", 0.0)))
        if family == "critical":
            eta = params.get("eta", {})
            return CriticalMotion(phys, float(params["alpha"]), float(params["L0_offset"]),
                                  EtaSpec(float(eta.get("k", 0.0)), float(eta.get("p", -1.0))))
        if family == "tabulated":
            return TabulatedMotion(phys, tuple(params["times"]), tuple(params["A"]),
                                   tuple(params["L"]))
        raise ParameterError(f"unknown motion family {family!r}")
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ParameterError(f"malformed motion document: {exc}") from exc


def motion_content_hash(motion: BoundaryMotion) -> str:
    """SHA-256 of the motion document, serialized with sorted keys."""
    import hashlib

    document = json.dumps(motion_to_document(motion), sort_keys=True)
    return hashlib.sha256(document.encode()).hexdigest()
