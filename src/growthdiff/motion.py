"""Prescribed boundary motions for the growth-diffusion problem on a moving interval.

The physical problem lives on A(t) < x < A(t) + L(t) with homogeneous Dirichlet
ends.  Everything downstream (series solutions, finite-difference solvers,
envelope bounds) is driven by the kinematics collected here.  ``eval_motion``
is the one way to read them at time t: the interval length L, the left
endpoint A and their first two derivatives, as a ``MotionState``.  It runs no
quadrature.  The rescaled time s(t) = integral of L0^2 / L(z)^2 is a separate
call, ``time_rescale``, because critical and tabulated motions need adaptive
quadrature for it.

Every time integral of a motion (s(t) here, the frame drift in ``transforms``,
the barrier gauge in ``critical``) goes through one checked quadrature,
``time_integral``, built on QUADPACK's adaptive rule (Piessens et al.,
*QUADPACK*, Springer 1983).

Three families are supported:

* ``SeparableMotion`` -- L(t)^2 = a t^2 + 2 b t + L0^2 together with a left
  endpoint whose acceleration is gamma1 / L^3.  These are exactly the motions
  for which Lddot * L^3 and Addot * L^3 are constant, which is what makes the
  transformed problem separable.
* ``CriticalMotion`` -- symmetric interval A = -L/2 whose half-length advances
  at the spreading speed c* = 2 sqrt(D f0) minus a logarithmic lag
  alpha * log(t + 1) and a decaying perturbation eta(t).
* ``TabulatedMotion`` -- cubic-spline interpolation of sampled (A, L) for
  motions outside the closed-form families, read through one two-column
  spline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

__all__ = [
    "PhysicsParams",
    "EtaSpec",
    "SeparableMotion",
    "CriticalMotion",
    "TabulatedMotion",
    "BoundaryMotion",
    "MotionState",
    "CaseKind",
    "CaseTag",
    "DomainCollapsedError",
    "classify",
    "eval_motion",
    "time_rescale",
    "validity_horizon",
    "motion_to_document",
    "motion_from_document",
    "motion_dumps",
    "motion_content_hash",
]

# Relative discrimination threshold below which a*L0^2 - b^2 is treated as zero
# and the quadratic length law degenerates to L = L0 + (b/L0) t.
LINEAR_DEGENERACY_RTOL = 1e-12

# Tolerance of ``time_integral``, the one quadrature of every time integral.
_QUAD_OPTS = {"epsabs": 1e-12, "epsrel": 1e-12, "limit": 400}


class DomainCollapsedError(ValueError):
    """Raised when a motion is evaluated at or beyond its collapse time."""


@dataclass(frozen=True)
class PhysicsParams:
    """Diffusivity and linear growth rate; both strictly positive."""

    D: float
    f0: float

    def __post_init__(self) -> None:
        if not (self.D > 0.0):
            raise ValueError(f"diffusivity D must be positive, got {self.D}")
        if not (self.f0 > 0.0):
            raise ValueError(f"growth rate f0 must be positive, got {self.f0}")

    @property
    def c_star(self) -> float:
        """Spreading speed 2 sqrt(D f0) of the unconstrained problem."""
        return 2.0 * math.sqrt(self.D * self.f0)


@dataclass(frozen=True)
class EtaSpec:
    """Decaying perturbation eta(t) = eta0 + k (1 + t)^p with p < 0.

    The derivatives of eta must vanish at infinity for the critical-case
    asymptotics to hold, hence the sign restriction on p (ignored when k = 0).
    """

    eta0: float = 0.0
    k: float = 0.0
    p: float = -1.0

    def __post_init__(self) -> None:
        if self.k != 0.0 and not (self.p < 0.0):
            raise ValueError(f"eta exponent p must be negative, got {self.p}")

    def value(self, t: float) -> float:
        return self.eta0 + self.k * (1.0 + t) ** self.p

    def d1(self, t: float) -> float:
        return self.k * self.p * (1.0 + t) ** (self.p - 1.0)

    def d2(self, t: float) -> float:
        return self.k * self.p * (self.p - 1.0) * (1.0 + t) ** (self.p - 2.0)


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
        if not (self.L0 > 0.0):
            raise ValueError(f"initial length L0 must be positive, got {self.L0}")

    # -- convenience constructors for the individual closed-form cases --

    @staticmethod
    def fixed_length(physics: PhysicsParams, L0: float, gamma1: float = 0.0,
                     c: float = 0.0, d: float = 0.0) -> "SeparableMotion":
        return SeparableMotion(physics, 0.0, 0.0, L0, gamma1, c, d)

    @staticmethod
    def linear_length(physics: PhysicsParams, L0: float, slope: float,
                      gamma1: float = 0.0, c: float = 0.0, d: float = 0.0) -> "SeparableMotion":
        """L(t) = L0 + slope * t, realised as a = slope^2, b = slope * L0."""
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
        Adot(0) = -Ldot(0)/2.
        """
        gamma0 = a * L0 ** 2 - b ** 2
        if gamma0 == 0.0:
            return SeparableMotion(physics, a, b, L0, 0.0, -0.5 * b / L0, -0.5 * L0)
        return SeparableMotion(physics, a, b, L0, -0.5 * gamma0, 0.0, 0.0)

    @property
    def gamma0(self) -> float:
        """Separability constant Lddot * L^3 = a L0^2 - b^2."""
        return self.a * self.L0 ** 2 - self.b ** 2


@dataclass(frozen=True)
class CriticalMotion:
    """Symmetric interval spreading at c* with a logarithmic lag.

    L(t) = 2 (c* (t + t0) - alpha log(t + 1) - eta(t)) and A = -L/2.  The
    start-time shift t0 only adds a constant to the lag terms, so it stays in
    the admissible perturbation class; it is chosen so L(0) = L0_offset > 0.
    """

    physics: PhysicsParams
    alpha: float
    L0_offset: float = 1.0
    eta: EtaSpec = field(default_factory=EtaSpec)

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0):
            raise ValueError(f"log-lag coefficient alpha must be positive, got {self.alpha}")
        if not (self.L0_offset > 0.0):
            raise ValueError(f"L0_offset must be positive, got {self.L0_offset}")

    @property
    def t0(self) -> float:
        return (0.5 * self.L0_offset + self.eta.value(0.0)) / self.physics.c_star

    @property
    def L0(self) -> float:
        return self.L0_offset


@dataclass(frozen=True)
class TabulatedMotion:
    """Twice-differentiable spline interpolation of sampled endpoint data.

    The samples are read through one cubic spline with the columns (A, L).
    """

    physics: PhysicsParams
    times: tuple
    A_values: tuple
    L_values: tuple

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 4:
            raise ValueError("tabulated motion needs at least 4 samples")
        if not np.all(np.diff(t) > 0):
            raise ValueError("sample times must be strictly increasing")
        if len(self.A_values) != t.size or len(self.L_values) != t.size:
            raise ValueError("A_values and L_values must match times in length")
        if t[0] > 0.0:
            raise ValueError("samples must cover t = 0")
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

    @property
    def L0(self) -> float:
        return float(self._spline(0.0)[1])


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


@dataclass(frozen=True)
class CaseTag:
    kind: CaseKind
    gamma0: float | None


def classify(motion: BoundaryMotion) -> CaseTag:
    """Sort a motion into its closed-form solution case.

    Tabulated motions are reported as GENERAL rather than rejected: they are
    legitimate inputs for the numeric solver and the comparison bounds, just
    not for the per-case series formulas.
    """
    if isinstance(motion, CriticalMotion):
        return CaseTag(CaseKind.CRITICAL_CASE, None)
    if isinstance(motion, TabulatedMotion):
        return CaseTag(CaseKind.GENERAL, None)
    a, b = motion.a, motion.b
    g0 = motion.gamma0
    if a == 0.0 and b == 0.0:
        return CaseTag(CaseKind.FIXED_LENGTH, 0.0)
    if a == 0.0:
        return CaseTag(CaseKind.SQRT_LENGTH, g0)
    scale = max(abs(a) * motion.L0 ** 2, b * b)
    if abs(g0) < LINEAR_DEGENERACY_RTOL * scale:
        return CaseTag(CaseKind.LINEAR_LENGTH, 0.0)
    if g0 < 0.0:
        return CaseTag(CaseKind.QUAD_NEG, g0)
    return CaseTag(CaseKind.QUAD_POS, g0)


def _separable_kinematics(m: SeparableMotion, t: float):
    Lsq = m.a * t * t + 2.0 * m.b * t + m.L0 ** 2
    if Lsq <= 0.0:
        raise DomainCollapsedError(
            f"interval length vanished at or before t={t} (horizon {validity_horizon(m)})")
    L = math.sqrt(Lsq)
    Ldot = (m.a * t + m.b) / L
    Lddot = m.gamma0 / L ** 3
    kind = classify(m).kind
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


def _critical_half_length(m: CriticalMotion, t: float) -> float:
    """c* (t + t0) - alpha log(1 + t) - eta(t); nonpositive once the domain collapsed."""
    return m.physics.c_star * (t + m.t0) - m.alpha * math.log1p(t) - m.eta.value(t)


def _critical_kinematics(m: CriticalMotion, t: float):
    cs = m.physics.c_star
    eta = m.eta
    L = 2.0 * _critical_half_length(m, t)
    if L <= 0.0:
        raise DomainCollapsedError(
            f"critical motion collapsed at or before t={t}; increase L0_offset")
    Ldot = 2.0 * (cs - m.alpha / (1.0 + t) - eta.d1(t))
    Lddot = 2.0 * (m.alpha / (1.0 + t) ** 2 - eta.d2(t))
    return MotionState(t, L, Ldot, Lddot, -0.5 * L, -0.5 * Ldot, -0.5 * Lddot)


def _tabulated_kinematics(m: TabulatedMotion, t: float):
    if t > m.times[-1]:
        raise ValueError(f"t={t} beyond tabulated range [0, {m.times[-1]}]")
    A, L = m._spline(t)
    if L <= 0.0:
        raise DomainCollapsedError(f"tabulated length is non-positive at t={t}")
    (Adot, Ldot), (Addot, Lddot) = m._spline(t, 1), m._spline(t, 2)
    return MotionState(t, float(L), float(Ldot), float(Lddot),
                       float(A), float(Adot), float(Addot))


def eval_motion(motion: BoundaryMotion, t: float) -> MotionState:
    """Interval kinematics at one instant; s(t) is ``time_rescale``'s job."""
    if t < 0.0:
        raise ValueError(f"motions are defined for t >= 0, got t={t}")
    if isinstance(motion, SeparableMotion):
        return _separable_kinematics(motion, t)
    if isinstance(motion, CriticalMotion):
        return _critical_kinematics(motion, t)
    return _tabulated_kinematics(motion, t)


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
    return time_integral(lambda z: L0sq / eval_motion(motion, z).L ** 2, 0.0, t)


def time_rescale(motion: BoundaryMotion, t: float) -> float:
    """Rescaled time s(t) = integral_0^t L0^2 / L(z)^2 dz.

    Closed forms exist for every separable case; critical and tabulated
    motions fall back to ``time_integral``, at tolerance 1e-12 with its error
    estimate checked.
    """
    if t < 0.0:
        raise ValueError(f"time_rescale requires t >= 0, got {t}")
    if t == 0.0:
        return 0.0
    if isinstance(motion, SeparableMotion):
        tag = classify(motion)
        L0sq = motion.L0 ** 2
        a, b = motion.a, motion.b
        if tag.kind is CaseKind.FIXED_LENGTH:
            return t
        if tag.kind is CaseKind.LINEAR_LENGTH:
            slope = b / motion.L0
            return motion.L0 * t / (motion.L0 + slope * t)
        if tag.kind is CaseKind.SQRT_LENGTH:
            rho = b
            return (L0sq / (2.0 * rho)) * math.log1p(2.0 * rho * t / L0sq)
        if tag.kind is CaseKind.QUAD_POS:
            sq = math.sqrt(tag.gamma0)
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
    disc = b * b - a * L0sq
    if disc < 0.0:
        return math.inf  # gamma0 > 0 forces a > 0, so L^2 never vanishes
    sq = math.sqrt(disc)
    roots = sorted(((-b - sq) / a, (-b + sq) / a))
    positive = [r for r in roots if r > 0.0]
    return positive[0] if positive else math.inf


def _critical_horizon(m: CriticalMotion) -> float:
    cs = m.physics.c_star
    # Beyond t_safe the half-length derivative is certainly positive.
    t_safe = max(0.0, 2.0 * m.alpha / cs - 1.0)
    if m.eta.k != 0.0:
        # |eta'(t)| < c*/2 once (1+t)^(1-p) > 2|k p|/c*.
        kd = 2.0 * abs(m.eta.k * m.eta.p) / cs
        t_safe = max(t_safe, kd ** (1.0 / (1.0 - m.eta.p)))
    ts = np.linspace(0.0, t_safe + 1.0, 4097)
    vals = np.array([_critical_half_length(m, t) for t in ts])
    below = np.nonzero(vals <= 0.0)[0]
    if below.size == 0:
        return math.inf
    from scipy.optimize import brentq
    i = below[0]
    return brentq(lambda t: _critical_half_length(m, t), ts[i - 1], ts[i],
                  xtol=1e-13, rtol=1e-14)


def _tabulated_horizon(m: TabulatedMotion) -> float:
    ts = np.linspace(m.times[0], m.times[-1], 8 * len(m.times))
    vals = m._spline(ts)[:, 1]
    below = np.nonzero(vals <= 0.0)[0]
    if below.size == 0:
        return math.inf
    from scipy.optimize import brentq
    i = below[0]
    if i == 0:
        return 0.0
    return brentq(lambda t: float(m._spline(t)[1]), ts[i - 1], ts[i], xtol=1e-13)


def validity_horizon(motion: BoundaryMotion) -> float:
    """First positive time at which L(t) = 0, or +inf if the length never vanishes."""
    if isinstance(motion, SeparableMotion):
        return _separable_horizon(motion)
    if isinstance(motion, CriticalMotion):
        return _critical_horizon(motion)
    return _tabulated_horizon(motion)


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
                           "eta": {"eta0": motion.eta.eta0, "k": motion.eta.k,
                                   "p": motion.eta.p}}}
    if isinstance(motion, TabulatedMotion):
        return {"family": "tabulated", "physics": phys,
                "params": {"times": list(motion.times), "A": list(motion.A_values),
                           "L": list(motion.L_values)}}
    raise TypeError(f"unknown motion type {type(motion)!r}")


def motion_from_document(doc: dict) -> BoundaryMotion:
    try:
        family = doc["family"]
        phys = PhysicsParams(float(doc["physics"]["D"]), float(doc["physics"]["f0"]))
        params = doc["params"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed motion document: {exc}") from exc
    if family == "separable":
        return SeparableMotion(phys, float(params["a"]), float(params["b"]),
                               float(params["L0"]), float(params.get("gamma1", 0.0)),
                               float(params.get("c", 0.0)), float(params.get("d", 0.0)))
    if family == "critical":
        eta = params.get("eta", {})
        return CriticalMotion(phys, float(params["alpha"]), float(params["L0_offset"]),
                              EtaSpec(float(eta.get("eta0", 0.0)), float(eta.get("k", 0.0)),
                                      float(eta.get("p", -1.0))))
    if family == "tabulated":
        return TabulatedMotion(phys, tuple(params["times"]), tuple(params["A"]),
                               tuple(params["L"]))
    raise ValueError(f"unknown motion family {family!r}")


def motion_dumps(motion: BoundaryMotion) -> str:
    return json.dumps(motion_to_document(motion), sort_keys=True)


def motion_content_hash(motion: BoundaryMotion) -> str:
    import hashlib

    return hashlib.sha256(motion_dumps(motion).encode()).hexdigest()
