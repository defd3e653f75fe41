"""Bounds and exponent fits at the critical spreading speed.

When a centred interval spreads at the free speed c* = 2 sqrt(D f0) minus a
logarithmic lag alpha log(t + 1), the density neither grows nor dies at a
plain exponential rate: it follows the power law

    psi(A + y, t) = O( y * t^(-1 - n/2 + alpha c* / 2D) )

in n space dimensions.  This module provides the machinery to verify that law
numerically (``run_critical`` runs it end to end as one pipeline):

* explicit super- and subsolution barriers for the potential-form field w,
  calibrated against a finite-difference run and checked at its later output
  times, with s(t) and the barrier gauge carried from one time to the next;
* the potential P(t) = Lddot L^3 / 4 D^2 whose growth drives the barriers, and
  its rate dP/dt in closed form from the motion's third derivative of L;
* a fit of the decay exponent of psi at fixed distances from the moving
  endpoint, compared with the predicted value.  The plain log-log slope over
  a finite window still carries the t^(-1/2) relaxation of a pulled front, so
  the fit also reports the limit of log psi = c + p log t + b t^(-1/2);
* one-sided comparison series for general motions with pinched potentials,
  plain ``SeriesSolution``s read on ``exact.eval_series``'s generic route.

The subsolution glues a scaled Airy function to its tangent line and then to
zero.  It fits the domain only once P is large enough, and is monotone only
while P is nondecreasing, so barriers start from a computed onset time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq
from scipy.special import j0, jn_zeros

from .airy import airy_ai, airy_first_zero
from .eigen import solve_sl
from .exact import SeriesSolution, eval_physical, eval_series, expand, transform_ic
from .motion import (
    BoundaryMotion,
    CaseKind,
    CriticalMotion,
    MotionState,
    ParameterError,
    SeparableMotion,
    _kinematics_on,
    _quadrature_rescale,
    _require_time,
    classify,
    eval_motion,
    length_jerk,
    motion_to_document,
    require_centered,
    time_integral,
    time_rescale,
)
from .numeric import GridSolution, grid_manifest, solve_radial, solve_w, w_weights
from .output import write_csv
from .transforms import log_radial_factor, log_shape_factor, log_time_factor

__all__ = [
    "EnvelopeViolationError",
    "EnvelopePair",
    "CriticalFitReport",
    "CriticalRun",
    "potential_value",
    "potential_rate",
    "potential_asymptote",
    "subsolution_onset",
    "supersolution",
    "subsolution",
    "supersolution_residual",
    "subsolution_residual",
    "verify_envelope",
    "envelope_to_csv",
    "boundary_gradient",
    "solve_critical",
    "fit_window",
    "fit_exponent",
    "fit_report_document",
    "run_critical",
    "verify_nested",
    "envelope_bounds_general",
    "eval_bound",
]

_AI0, _AIP0 = airy_ai(0.0)
_C1 = airy_first_zero()
# Tangent-line extent of the glued barrier: it reaches zero at
# z = -Ai(0)/Ai'(0), i.e. at xi/L0 = -_SLOPE_SUM / P^(1/3).
_SLOPE_SUM = _AI0 / _AIP0 + _C1          # about -3.7098

_BESSEL_J0_ZERO = float(jn_zeros(0, 1)[0])


class EnvelopeViolationError(RuntimeError):
    """A calibrated barrier was crossed by more than the allowed slack."""


# ---------------------------------------------------------------------------
# potential


def potential_value(motion: BoundaryMotion, t: float) -> float:
    """P = Lddot L^3 / 4 D^2."""
    return _potential(eval_motion(motion, t), motion.physics.D)


def _potential(st: MotionState, D: float):
    """P = Lddot L^3 / 4 D^2 from one kinematic state (of floats or of arrays)."""
    return st.Lddot * st.L ** 3 / (4.0 * D ** 2)


def _potential_rate(motion: BoundaryMotion, st: MotionState, D: float):
    """dP/dt from one kinematic state and the motion's third derivative of L."""
    if isinstance(motion, SeparableMotion):
        return 0.0 * st.L                # Lddot L^3 is the constant gamma0
    return (length_jerk(motion, st) * st.L + 3.0 * st.Lddot * st.Ldot) * st.L ** 2 / (4.0 * D ** 2)


def potential_rate(motion: BoundaryMotion, t: float) -> float:
    """dP/dt = (Ldddot L^3 + 3 Lddot L^2 Ldot) / 4 D^2 in closed form, Ldddot from
    ``length_jerk``; exactly 0.0 on a separable motion, whose Lddot L^3 is constant."""
    return _potential_rate(motion, eval_motion(motion, t), motion.physics.D)


def potential_asymptote(motion: CriticalMotion) -> float:
    """Leading coefficient of P(t) ~ coeff * t for a critical motion."""
    if not isinstance(motion, CriticalMotion):
        raise ParameterError("the linear asymptote exists only for critical motions")
    ph = motion.physics
    return 4.0 * motion.alpha * ph.c_star ** 3 / ph.D ** 2


# ---------------------------------------------------------------------------
# barriers for the potential-form field


def _check_potential_sign(motion: BoundaryMotion, points: np.ndarray) -> None:
    negative = _potential(eval_motion(motion, points), motion.physics.D) < 0.0
    if np.any(negative):
        raise ValueError("supersolution needs a nonnegative potential; "
                         f"P({points[np.argmax(negative)]:.6g}) < 0")


def _check_barrier(motion: BoundaryMotion, t: float, n_dim: int | None,
                   t_ref: float | None = None) -> None:
    """The one check of a barrier's arguments, before any computation: n_dim is
    None (the interval) or 1..3, t and an Airy barrier's onset t_ref pass the
    time rule, and t >= t_ref."""
    if n_dim not in (None, 1, 2, 3):
        raise ParameterError("radial barriers are only available for n_dim <= 3")
    _require_time(motion, t)
    if t_ref is not None:
        _require_time(motion, t_ref)
        if t < t_ref:
            raise ParameterError(f"barrier is only defined from its onset t_ref={t_ref}")


def _upper_barrier(motion: BoundaryMotion, x, s: float, n_dim: int | None = None) -> np.ndarray:
    """Principal mode at rescaled time s: the interval's (n_dim None) in xi, a ball's
    in r (n_dim 1, 2 or 3)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    D, L0 = motion.physics.D, motion.L0
    if n_dim is None:
        return np.sin(np.pi * x / L0) * math.exp(-D * np.pi ** 2 * s / L0 ** 2)
    R0 = 0.5 * L0
    r_hat = x / R0
    if n_dim == 1:
        h0, lam = np.cos(0.5 * np.pi * x / R0), np.pi ** 2 / 4.0
    elif n_dim == 2:
        h0, lam = j0(_BESSEL_J0_ZERO * r_hat), _BESSEL_J0_ZERO ** 2
    else:
        h0, lam = np.sinc(r_hat), np.pi ** 2
    return h0 * math.exp(-D * lam * s / R0 ** 2)


def supersolution(motion: BoundaryMotion, x, t: float, n_dim: int | None = None) -> np.ndarray:
    """Decaying principal-mode barrier: sin(pi xi / L0) exp(-D pi^2 s(t) / L0^2) on
    the interval (n_dim None), h0(r/R0) exp(-D lambda0 s(t) / R0^2) on a ball.

    Lies above any solution of the potential form (up to calibration) because
    the potential term only removes mass when P >= 0; refuses motions whose
    potential dips negative before t.
    """
    _check_barrier(motion, t, n_dim)
    _check_potential_sign(motion, np.linspace(0.0, t, 128))
    return _upper_barrier(motion, x, time_rescale(motion, t), n_dim)


def _min_potential(xi_extent_ratio: float) -> float:
    # The glued barrier spans xi/L0 in [0, -_SLOPE_SUM / P^(1/3)]; it must fit
    # inside the allowed extent (the full interval, or half of it for balls).
    return (-_SLOPE_SUM / xi_extent_ratio) ** 3


def subsolution_onset(motion: BoundaryMotion, t_max: float,
                      radial: bool = False) -> float:
    """Earliest time from which the Airy barrier is defined and monotone.

    Requires P(t) large enough for the profile to fit in the domain and
    dP/dt >= 0 from the onset to t_max.  Raises if no such time exists.
    """
    _require_time(motion, t_max)
    p_min = _min_potential(0.5 if radial else 1.0)
    D = motion.physics.D
    st = eval_motion(motion, np.linspace(0.0, t_max, 4097))
    pvals, rates = _potential(st, D), _potential_rate(motion, st, D)
    rate_tol = -1e-10 * max(1.0, float(np.max(np.abs(rates))))
    # rates[i:] all clear the tolerance iff their minimum does; a NaN fails both.
    ok = (pvals >= p_min) & (np.minimum.accumulate(rates[::-1])[::-1] >= rate_tol)
    idx = np.nonzero(ok)[0]
    if idx.size == 0:
        raise ValueError(
            f"no valid barrier onset in [0, {t_max}]: need P >= {p_min:.2f} "
            "with nondecreasing P afterwards")
    i = int(idx[0])
    if i == 0:
        return 0.0
    if pvals[i - 1] < p_min <= pvals[i]:
        return float(brentq(
            lambda z: potential_value(motion, z) - p_min, st.t[i - 1], st.t[i], xtol=1e-10))
    return float(st.t[i])


def _barrier_profile(motion: BoundaryMotion, xi: np.ndarray, t: float, P: float,
                     extent: float):
    """Piecewise barrier value, xi-derivative and second derivative at potential
    P(t), refused unless the profile fits in ``extent`` L0 (1 on the interval,
    0.5 on a ball)."""
    L0 = motion.L0
    if P <= 0.0:
        raise ValueError(f"barrier undefined: P({t}) = {P:.3g} is not positive")
    p_min = _min_potential(extent)
    if P < p_min:
        raise ValueError(f"barrier does not fit in the {'half ' if extent < 1.0 else ''}domain "
                         f"at t={t}: P = {P:.4g} < {p_min:.4g}")
    p13 = P ** (1.0 / 3.0)
    xi_hat = xi / L0
    z = p13 * xi_hat + _C1
    xi_star_hat = -_SLOPE_SUM / p13
    # Ai is read only on the curved part z <= 0; beyond it the tangent line
    # (and further out the dead zone) takes over.
    curved = z <= 0.0
    ai, aip = np.zeros((2,) + z.shape)
    ai[curved], aip[curved] = airy_ai(z[curved])
    val = np.where(curved, ai / p13, (_AI0 + _AIP0 * z) / p13)
    der = np.where(curved, aip / L0, _AIP0 / L0)
    # Ai'' = z Ai on the curved part; the tangent part is linear.
    der2 = np.where(curved, p13 * z * ai / L0 ** 2, 0.0)
    # Pin the defining zero: Ai at the computed c1 is roundoff, not 0.
    dead = (xi_hat >= xi_star_hat) | (xi_hat == 0.0)
    val = np.where(dead, 0.0, val)
    der = np.where(dead, 0.0, der)
    der2 = np.where(dead, 0.0, der2)
    return val, der, der2


def _clock(motion: BoundaryMotion, t_from: float, t_to: float) -> float:
    """Increment of the gauge log a(t) = _SLOPE_SUM D int P^(2/3) / L^2 over
    [t_from, t_to], by ``time_integral``; s(t) is ``_quadrature_rescale``'s."""
    state = _kinematics_on(motion, t_from, t_to)
    if t_to == t_from:
        return 0.0
    D = motion.physics.D

    def gauge(z):
        st = state(z)
        P = _potential(st, D)
        if P < 0.0:
            raise ValueError(f"barrier gauge needs a nonnegative potential; P({z:.6g}) = {P:.6g}")
        return P ** (2.0 / 3.0) / st.L ** 2

    return _SLOPE_SUM * D * time_integral(gauge, t_from, t_to)


def _lower_barrier(motion: BoundaryMotion, x, t: float, P: float, log_gauge: float,
                   n_dim: int | None = None) -> np.ndarray:
    """Airy barrier at P(t) and log a(t): a wbar(xi) on the interval (n_dim None),
    a wtilde(R0 - r) / r^((n-1)/2) on a ball (``_barrier_profile`` checks the fit)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if n_dim is None:
        return _barrier_profile(motion, x, t, P, 1.0)[0] * math.exp(log_gauge)
    w1 = _barrier_profile(motion, 0.5 * motion.L0 - x, t, P, 0.5)[0]
    out = np.zeros_like(x)
    mask = w1 > 0.0
    out[mask] = math.exp(log_gauge) * w1[mask] / x[mask] ** (0.5 * (n_dim - 1))
    return out


def subsolution(motion: BoundaryMotion, x, t: float, t_ref: float,
                n_dim: int | None = None) -> np.ndarray:
    """Glued Airy barrier, valid for t >= t_ref (the onset): a(t) * wbar(xi, t) on
    the interval (n_dim None), a(t) * wtilde(R0 - r, t) / r^((n-1)/2) on a ball.

    The ball barrier vanishes near the centre, so the division is harmless;
    two-sided critical bounds are only available for n_dim <= 3, where the
    curvature term has the right sign.
    """
    _check_barrier(motion, t, n_dim, t_ref)
    return _lower_barrier(motion, x, t, potential_value(motion, t),
                          _clock(motion, t_ref, t), n_dim)


# ---------------------------------------------------------------------------
# residual sign checks


def _potential_term(motion: BoundaryMotion, xi: np.ndarray, st: MotionState) -> np.ndarray:
    """Zeroth-order coefficient of the potential-form equation at (xi, st.t)."""
    _, quad, lin = w_weights(motion, st)
    L0 = motion.L0
    return quad * (xi / L0) * (xi / L0 - 1.0) + lin * (xi / L0)


def supersolution_residual(motion: BoundaryMotion, xi, t: float) -> np.ndarray:
    """time-derivative minus spatial operator for the sine barrier; >= 0 when P >= 0."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    # The diffusion part cancels exactly, leaving minus the potential term.
    return -_potential_term(motion, xi, eval_motion(motion, t)) * supersolution(motion, xi, t)


def subsolution_residual(motion: BoundaryMotion, xi, t: float,
                         t_ref: float) -> np.ndarray:
    """time-derivative minus spatial operator for the Airy barrier.

    Must be <= 0 wherever the barrier is positive.  Points in the dead region
    are reported as exactly zero.
    """
    _check_barrier(motion, t, None, t_ref)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    st = eval_motion(motion, t)
    D = motion.physics.D
    P = _potential(st, D)
    val, der, der2 = _barrier_profile(motion, xi, t, P, 1.0)
    d_eff = D * (motion.L0 / st.L) ** 2
    pdot = _potential_rate(motion, st, D)
    gauge_rate = _SLOPE_SUM * D * P ** (2.0 / 3.0) / st.L ** 2
    dt_part = (pdot / (3.0 * P)) * (xi * der - val) + gauge_rate * val
    residual = dt_part - d_eff * der2 - _potential_term(motion, xi, st) * val
    return np.where(val > 0.0, residual * math.exp(_clock(motion, t_ref, t)), 0.0)


# ---------------------------------------------------------------------------
# envelope verification against a finite-difference run


@dataclass(frozen=True)
class EnvelopePair:
    """Calibrated barriers sandwiching a computed potential-form field."""

    times: np.ndarray
    grid: np.ndarray
    lower: np.ndarray          # C1 * subsolution at each (time, node)
    upper: np.ndarray          # C2 * supersolution at each (time, node)
    field: np.ndarray
    slack: np.ndarray          # the smaller barrier gap over max |field| at that time
    C1: float
    C2: float
    t_cal: float
    onset: float
    worst_slack: float
    worst_time: float
    worst_xi: float


def _refuse_nan(**tolerances) -> None:
    """Refuse a NaN tolerance: it compares False with everything, so it turns
    its gate off.  An infinite tolerance is a gate that passes everything."""
    for name, value in tolerances.items():
        if math.isnan(value):
            raise ParameterError(f"{name} must be a number, got {value}")


def verify_envelope(motion: BoundaryMotion, solution: GridSolution,
                    slack_tol: float = 1e-8) -> EnvelopePair:
    """Calibrate barriers at one snapshot and check them at all later ones.

    The calibration time t_cal is the first output time at or after the
    barrier onset.  C2 scales the supersolution up to touch the field there;
    C1 scales the subsolution down likewise.  At every later output time the
    field must stay between the scaled barriers, up to slack_tol relative to
    the field's sup norm; a deeper violation raises EnvelopeViolationError
    with its location.  ``EnvelopePair.slack`` is that relative gap at every
    (time, node), the smaller of the two, and ``envelope_to_csv`` writes it.
    The motion must be centred: the barriers' signs assume the centred
    potential.  A NaN slack_tol is refused.
    """
    _refuse_nan(slack_tol=slack_tol)
    solution.check_owner(motion, "verify_envelope", "potential-form")
    require_centered(motion)
    t_end = float(solution.times[-1])
    radial = solution.kind == "radial"
    n_dim = solution.n_dim if radial else None
    onset = subsolution_onset(motion, t_end, radial=radial)
    check = np.nonzero(solution.times >= onset - 1e-12)[0]
    if check.size < 2:
        raise ValueError(
            f"no room to verify: barrier onset {onset:.4g} leaves fewer than "
            "two output times")
    times = [float(t) for t in solution.times[check]]
    t_cal = times[0]
    _check_potential_sign(motion, np.unique(np.concatenate(
        [np.linspace(0.0, t, 128) for t in times])))

    grid = solution.grid
    lower = np.empty((check.size, grid.size))
    upper = np.empty_like(lower)
    s, log_gauge = time_rescale(motion, t_cal), _clock(motion, onset, t_cal)
    for row, t in enumerate(times):
        if row:
            s += _quadrature_rescale(motion, t, t_from=times[row - 1])
            log_gauge += _clock(motion, times[row - 1], t)
        lower[row] = _lower_barrier(motion, grid, t, potential_value(motion, t),
                                    log_gauge, n_dim)
        upper[row] = _upper_barrier(motion, grid, s, n_dim)

    w_cal, sub_cal, sup_cal = solution.values[check[0]], lower[0], upper[0]
    pos = sup_cal > 0.0
    C2 = float(np.max(w_cal[pos] / sup_cal[pos]))
    mask = sub_cal > 1e-14 * np.max(sub_cal)
    if not np.any(mask):
        raise ValueError("subsolution vanished on the whole grid at t_cal")
    C1 = float(np.min(w_cal[mask] / sub_cal[mask]))
    if C1 <= 0.0:
        raise ValueError(
            "field is not positive where the subsolution lives at t_cal; "
            "calibration impossible")
    lower *= C1
    upper *= C2

    field = solution.values[check]
    scale = np.max(np.abs(field), axis=1)
    below = field - lower
    slack = upper - field
    np.copyto(slack, below, where=below < slack)    # np.where(below < above, below, above)
    slack /= np.maximum(scale, 1e-300)[:, None]
    # The gate reads the rows whose field is not all zero.
    rows = np.flatnonzero(scale > 0.0)
    worst, worst_t, worst_xi = math.inf, math.nan, math.nan
    if rows.size:
        i, j = divmod(int(np.argmin(slack[rows])), grid.size)
        worst, worst_t, worst_xi = float(slack[rows[i], j]), times[rows[i]], float(grid[j])
    pair = EnvelopePair(solution.times[check], grid, lower, upper, field, slack,
                        C1, C2, t_cal, onset, worst, worst_t, worst_xi)
    if worst < -slack_tol:
        raise EnvelopeViolationError(
            f"envelope violated: slack {worst:.3e} at t={worst_t:.6g}, "
            f"coordinate {worst_xi:.6g}")
    return pair


def envelope_to_csv(pair: EnvelopePair, path) -> None:
    """Long-format CSV of the barriers and the field at every checked node;
    the slack column is ``pair.slack``, the array ``verify_envelope`` gates on."""
    write_csv(path, ["t", "xi", "lower", "field", "upper", "slack"],
              (np.column_stack((np.full(pair.grid.size, t), pair.grid, lower, field, upper, slack))
               for t, lower, field, upper, slack in zip(pair.times, pair.lower, pair.field,
                                                        pair.upper, pair.slack)))


# ---------------------------------------------------------------------------
# boundary gradient and exponent fit


def _log_psi_factor(motion: BoundaryMotion, solution: GridSolution, at, t: float):
    """log(psi / field) at reference node(s) ``at`` and time t of a potential-form
    run: log_time_factor + log_shape_factor on a w run, -log_radial_factor on a ball."""
    if solution.kind == "w":
        return log_time_factor(motion, t) + log_shape_factor(motion, at, t)
    return -log_radial_factor(motion, at, t, solution.n_dim)


def boundary_gradient(motion: BoundaryMotion, solution: GridSolution) -> tuple[np.ndarray, np.ndarray]:
    """Physical-space gradient of psi at the moving boundary for each output time.

    The shape factor is flat at the endpoint, so the gradient is the one-sided
    slope of the stored field times dxi/dx = L0/L, times the psi/w (or psi/W)
    factor at the endpoint.
    """
    solution.check_owner(motion, "boundary_gradient", "potential-form")
    times = solution.times
    # Each row runs from its boundary node, where the stored field is zero.
    w_run = solution.kind == "w"
    rows = solution.values if w_run else solution.values[:, ::-1]
    end = 0.0 if w_run else 0.5 * motion.L0
    slopes = (4.0 * rows[:, 1] - rows[:, 2]) / (2.0 * (solution.grid[1] - solution.grid[0]))
    scales = motion.L0 / eval_motion(motion, times).L
    factors = [float(np.exp(_log_psi_factor(motion, solution, end, t))) for t in times.tolist()]
    return np.asarray(times, dtype=float), slopes * scales * factors


@dataclass(frozen=True)
class CriticalFitReport:
    """Result of fitting the power-law decay of psi near the moving boundary.

    ``fitted_exponent`` and ``per_probe`` are plain least-squares slopes of
    log psi on log t over the window, and ``residual_rms`` is their residual.
    ``limit_exponent`` and ``limit_per_probe`` are the exponents p of the
    relaxation model log psi = c + p log t + b t^(-1/2), and
    ``relaxation_coeff`` is b averaged over the probes.
    """

    route: str
    n_dim: int
    alpha: float
    predicted_exponent: float
    fitted_exponent: float
    per_probe: tuple
    probes: tuple
    window: tuple
    t_final: float
    residual_rms: float
    limit_exponent: float
    limit_per_probe: tuple
    relaxation_coeff: float

    @property
    def error(self) -> float:
        return self.fitted_exponent - self.predicted_exponent

    @property
    def limit_error(self) -> float:
        return self.limit_exponent - self.predicted_exponent


def fit_report_document(report: CriticalFitReport) -> dict:
    return {
        "schema_version": 1,
        "route": report.route,
        "n_dim": report.n_dim,
        "alpha": report.alpha,
        "predicted_exponent": report.predicted_exponent,
        "fitted_exponent": report.fitted_exponent,
        "error": report.error,
        "per_probe": list(report.per_probe),
        "probes": list(report.probes),
        "window": list(report.window),
        "t_final": report.t_final,
        "residual_rms": report.residual_rms,
        "limit_exponent": report.limit_exponent,
        "limit_error": report.limit_error,
        "limit_per_probe": list(report.limit_per_probe),
        "relaxation_coeff": report.relaxation_coeff,
    }


def _probe_log_psi(motion, solution, probes, times):
    """log psi(boundary + y, t) reassembled from potential-form snapshots.

    Returns one row per probe offset y and one column per time.  The probes'
    reference nodes are placed, and checked, at every time in one array pass:
    a probe outside the domain (y <= 0, or y >= L(t) on the interval, y > R(t)
    on the ball) at any time raises ValueError, naming the first such time,
    before a field is read.  Each stored row's spline is built once and read
    at every probe, and the psi/w (or psi/W) factor is ``_log_psi_factor``'s.
    """
    y = np.asarray(probes, dtype=float)[:, None]
    L = eval_motion(motion, times).L
    if solution.kind == "w":
        name, extent = "L", L
        outside = (y <= 0.0) | (y >= extent)
        at = y * motion.L0 / L
    else:
        name, extent = "R", 0.5 * L
        outside = (y <= 0.0) | (y > extent)
        at = (extent - y) * (0.5 * motion.L0) / extent
    if np.any(outside):
        j, i = divmod(int(np.argmax(outside.T)), y.size)    # the first time, then probe
        raise ValueError(f"probe offset y={probes[i]} lies outside the domain at "
                         f"t={times[j]:.6g}, where {name}(t)={extent[j]:.6g}")
    out = np.empty(at.shape)
    for i, t in enumerate(times.tolist()):
        w_vals = CubicSpline(solution.grid, solution.slice_at(t))(at[:, i])
        if np.any(w_vals <= 0.0):
            raise RuntimeError(f"probe value nonpositive at t={t:.6g}, offset "
                               f"y={probes[np.argmax(w_vals <= 0.0)]}; cannot fit a log slope")
        out[:, i] = np.log(w_vals) + _log_psi_factor(motion, solution, at[:, i], t)
    return out


# Pulled fronts reach their asymptote algebraically: the local log-log slope of
# the density behind the front carries a deficit decaying like t^(-1/2) (Ebert
# & van Saarloos, Physica D 146, 2000; Nolen, Roquejoffre & Ryzhik, 2019).
_RELAXATION_POWER = -0.5


def _fit_log_decay(times: np.ndarray, logs) -> tuple:
    """Regress each row of log psi on log t, plainly and with the relaxation term.

    Each model is one least-squares solve over every probe, with design
    [1, log t] or [1, log t, t^(-1/2)].  Returns the plain slopes, the
    exponents p and coefficients b of log psi = c + p log t + b t^(-1/2), and
    the residual RMS of the plain fit.
    """
    rhs = np.transpose(logs)                 # one column per probe
    design = np.column_stack((np.ones_like(times), np.log(times), times ** _RELAXATION_POWER))
    plain, resid_sq = np.linalg.lstsq(design[:, :2], rhs, rcond=None)[:2]
    _, limits, relax = np.linalg.lstsq(design, rhs, rcond=None)[0]
    return plain[1].tolist(), limits.tolist(), relax.tolist(), math.sqrt(resid_sq.sum() / rhs.size)


def solve_critical(motion: CriticalMotion, n_dim: int, t_final: float, grid_size: int,
                   dt: float, num_outputs: int) -> GridSolution:
    """Potential-form run of a critical motion from the 1-ball's principal mode.

    The output times are ``_output_times(t_final, dt, num_outputs)``.  The
    data is the supersolution's mode at s = 0, ``_upper_barrier``'s: n_dim
    = 1 runs ``solve_w`` from the interval's sine, which it marches as the
    even half of the interval; balls run ``solve_radial`` from the 1-ball's
    cosine dome: n = 2 and 3 start from it, not from J0 or sinc.
    """
    outputs = _output_times(t_final, dt, num_outputs)
    w0 = lambda x: _upper_barrier(motion, x, 0.0, None if n_dim == 1 else 1)
    if n_dim == 1:
        return solve_w(motion, w0, grid_size=grid_size, dt=dt, T=t_final,
                       output_times=outputs)
    return solve_radial(motion, w0, n_dim, grid_size=grid_size, dt=dt, T=t_final,
                        output_times=outputs)


def _output_times(t_final: float, dt: float, num_outputs: int) -> np.ndarray:
    """0 and a geometric grid of ``num_outputs`` points (none for a count
    below 1) from max(10 dt, 1e-2) to t_final, sorted and distinct."""
    return np.unique(np.concatenate(
        [[0.0], np.geomspace(max(10.0 * dt, 1e-2), t_final, max(num_outputs, 0))]))


def _window_times(times: np.ndarray, window: tuple) -> np.ndarray:
    """The output times inside the fit window, of which a fit needs at least 8."""
    inside = times[(times >= window[0]) & (times <= window[1])]
    if inside.size < 8:
        raise ParameterError(f"only {inside.size} output times fall in the fit window "
                             f"{window}; need >= 8: raise num_outputs or lower dt")
    return inside


def fit_window(t_final: float, window: tuple | None = None,
               probes=(0.5, 1.0, 2.0)) -> tuple[float, float]:
    """Check an exponent fit's inputs and return its window, before any solve.

    The window (default: the last 1.5 decades) must be two numbers, sit
    inside (0, t_final] and span 1.5 decades.  The probe offsets must be one
    or more finite positive numbers; ``_probe_log_psi`` checks them against
    the domain.
    """
    if window is None:
        window = (t_final / 10 ** 1.5, t_final)
    if len(window) != 2:
        raise ParameterError(f"fit window must be two numbers lo, hi, got {window}")
    if not 0.0 < window[0] < window[1] <= t_final:
        raise ParameterError(f"fit window {window} must sit inside (0, t_final]")
    if math.log10(window[1] / window[0]) < 1.5 - 1e-9:
        raise ParameterError("fit window must span at least 1.5 decades")
    y = np.asarray(probes, dtype=float)
    if y.ndim != 1 or y.size == 0 or not np.all(np.isfinite(y) & (y > 0.0)):
        raise ParameterError(
            f"probe offsets must be one or more finite positive numbers, got {probes!r}")
    return float(window[0]), float(window[1])


def fit_exponent(motion: BoundaryMotion, n_dim: int = 1,
                 probes=(0.5, 1.0, 2.0), t_final: float = 1e3,
                 window: tuple | None = None, grid_size: int = 1024,
                 dt: float = 2e-3, num_outputs: int = 81,
                 solution: GridSolution | None = None) -> CriticalFitReport:
    """Fit the decay exponent of psi at fixed offsets behind the moving boundary.

    For critical motions this runs the potential-form solver, reassembles
    psi(A + y, t) at each probe offset y, and regresses log psi on log t over
    the fit window (``fit_window``; default: the last 1.5 decades before
    t_final).  The prediction is -1 - n/2 + alpha c* / 2D.

    For the balanced linearly-spreading configuration the exact single-mode
    series replaces the solver and the prediction is the diffusive -3/2.

    Both routes report two estimates.  ``fitted_exponent`` is the plain
    least-squares slope: a finite-window local slope, which at a critical
    front still lags the limit by a t^(-1/2) relaxation.  ``limit_exponent``
    is the exponent p of log psi = c + p log t + b t^(-1/2), fitted by linear
    least squares with the relaxation power fixed by theory.

    A critical motion may pass a finished potential-form ``solution`` in place
    of the solve: the grid and dimension come from that run, ``num_outputs``
    is unused, and ``t_final`` must be the run's last stored time.  Either
    way a fit needs 8 output times in the window; a solve is refused before
    its march if its own would leave fewer.  The series route marches
    nothing and refuses a ``solution``.
    """
    ph = motion.physics
    window = fit_window(t_final, window, probes)

    if isinstance(motion, CriticalMotion):
        route = "numeric"
        alpha = motion.alpha
        predicted = -1.0 - 0.5 * n_dim + alpha * ph.c_star / (2.0 * ph.D)
        if solution is None:
            times = _window_times(_output_times(t_final, dt, num_outputs), window)
            solution = solve_critical(motion, n_dim, t_final, grid_size, dt, num_outputs)
        else:
            solution.check_owner(motion, f"fit_exponent with n_dim={n_dim}",
                                 "potential-form", n_dim)
            if solution.times[-1] != t_final:
                raise ParameterError(f"t_final={t_final} is not the run's last stored "
                                     f"time {solution.times[-1]}")
            times = _window_times(solution.times, window)
        logs = _probe_log_psi(motion, solution, [float(y) for y in probes], times)
    else:
        # balanced spreading interval: exact series, no solver
        if solution is not None:
            raise ParameterError("fit_exponent reads a run only for a critical motion; "
                                 "the series route marches nothing")
        if n_dim != 1:
            raise ParameterError("the series route is one-dimensional")
        if classify(motion) is not CaseKind.LINEAR_LENGTH:
            raise ParameterError("series route needs a linearly spreading interval")
        slope = motion.b / motion.L0
        if (abs(slope - 2.0 * ph.c_star) > 1e-9 * ph.c_star
                or abs(motion.c + ph.c_star) > 1e-9 * ph.c_star
                or motion.gamma1 != 0.0):
            raise ParameterError(
                "series route needs the balanced configuration: both endpoints "
                "receding at the free speed c*")
        route = "series"
        alpha = 0.0
        predicted = -1.5
        eig = solve_sl(ph.D, motion.L0, motion.gamma0, 0.0, grid_size=1024,
                       num_modes=4, extrapolate=True)
        coeffs = np.zeros(eig.num_modes)
        coeffs[0] = 1.0
        sol = SeriesSolution(motion, eig, coeffs)
        times = np.geomspace(window[0], window[1], 33)
        logs = []
        for y in probes:
            vals = np.array([float(eval_physical(sol, np.array([eval_motion(motion, t).A + y]),
                                                 float(t))[0]) for t in times])
            if np.any(vals <= 0.0):
                raise RuntimeError(f"probe value nonpositive for offset y={y}")
            logs.append(np.log(vals))

    slopes, limits, relax, rms = _fit_log_decay(times, logs)
    return CriticalFitReport(route, n_dim, alpha, predicted, float(np.mean(slopes)),
                             tuple(slopes), tuple(float(y) for y in probes),
                             window, float(t_final), rms, float(np.mean(limits)),
                             tuple(limits), float(np.mean(relax)))


class CriticalRun(NamedTuple):
    """What ``run_critical`` computed; ``document`` is the report JSON."""

    solution: GridSolution
    envelope: EnvelopePair
    report: CriticalFitReport
    document: dict


def run_critical(motion: CriticalMotion, n_dim: int = 1, probes=(0.5, 1.0, 2.0),
                 t_final: float = 1e3, window: tuple | None = None,
                 grid_size: int = 1024, dt: float = 2e-3, num_outputs: int = 81,
                 slack_tol: float = 1e-8, tol: float = 0.05) -> CriticalRun:
    """Check the fit's inputs, march once, verify the envelope, fit, report.

    The inputs are checked before the march: the window and probes
    (``fit_window``), and the count of output times in the window.  The
    document is the march's ``grid_manifest`` (run kind, scheme, step record,
    negative values, motion hash), then the fit report, the motion, ``tol``
    (recorded, not applied) and the envelope; the keys they share carry the
    same values.  Nothing is written.  A NaN slack_tol or tol is refused.
    """
    _refuse_nan(slack_tol=slack_tol, tol=tol)
    window = fit_window(t_final, window, probes)
    _window_times(_output_times(t_final, dt, num_outputs), window)
    solution = solve_critical(motion, n_dim, t_final, grid_size, dt, num_outputs)
    envelope = verify_envelope(motion, solution, slack_tol=slack_tol)
    report = fit_exponent(motion, n_dim=n_dim, probes=probes, t_final=t_final,
                          window=window, solution=solution)
    document = {**grid_manifest(solution), **fit_report_document(report),
                "motion": motion_to_document(motion), "tol": tol, "envelope": {
                    "C1": envelope.C1, "C2": envelope.C2, "t_cal": envelope.t_cal,
                    "onset": envelope.onset, "worst_slack": envelope.worst_slack,
                    "worst_time": envelope.worst_time, "worst_xi": envelope.worst_xi,
                    "slack_tol": slack_tol}}
    return CriticalRun(solution, envelope, report, document)


# ---------------------------------------------------------------------------
# one-sided comparison series for general motions


def verify_nested(inner: BoundaryMotion, outer: BoundaryMotion, t_max: float) -> None:
    """Check that the inner domain stays inside the outer one up to t_max."""
    _require_time(inner, t_max)
    _require_time(outer, t_max)
    ts = np.linspace(0.0, t_max, 256)
    si, so = eval_motion(inner, ts), eval_motion(outer, ts)
    bad = (si.A < so.A - 1e-12) | (si.A + si.L > so.A + so.L + 1e-12)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise ValueError(f"domains are not nested at t={ts[j]:.6g}: [{si.A[j]:.6g}, "
                         f"{si.A[j] + si.L[j]:.6g}] vs [{so.A[j]:.6g}, {so.A[j] + so.L[j]:.6g}]")


def eval_bound(bound: SeriesSolution, xi, t: float) -> np.ndarray:
    """A comparison series is an ordinary ``SeriesSolution``: read it with
    ``eval_series`` on the generic route, and with that evaluator's checks."""
    return eval_series(bound, xi, t, route="generic")


def envelope_bounds_general(motion: BoundaryMotion, u0,
                            gamma0_lo: float, gamma0_hi: float,
                            gamma1_lo: float, gamma1_hi: float,
                            t_max: float, grid_size: int = 512,
                            num_modes: int = 32, n_check: int = 1000) -> tuple:
    """Comparison series (lower, upper) from pinched potential coefficients.

    Validates at n_check seeded random times that the motion's instantaneous
    coefficients Lddot L^3 and Addot L^3 stay inside the supplied brackets,
    then builds two frozen Sturm-Liouville systems (one per corner) sharing
    the initial expansion of u0 (a callable of the nodes, or their values on
    ``grid_size`` + 1 equal steps of [0, L0]), which must vanish at both ends.
    Evaluated with the true motion's time rescaling and exponential factors
    (``eval_bound``), they bound the solution one-sidedly.
    """
    _require_time(motion, t_max)
    D = motion.physics.D
    L0 = motion.L0
    scale0 = max(abs(gamma0_lo), abs(gamma0_hi), 1.0)
    scale1 = max(abs(gamma1_lo), abs(gamma1_hi), 1.0)
    worst = (0.0, 0.0, "")
    st = eval_motion(motion, np.random.default_rng(0).uniform(0.0, t_max, n_check))
    g0, g1 = st.Lddot * st.L ** 3, st.Addot * st.L ** 3
    for val, lo, hi, scale, name in ((g0, gamma0_lo, gamma0_hi, scale0, "Lddot L^3"),
                                     (g1, gamma1_lo, gamma1_hi, scale1, "Addot L^3")):
        breach = np.maximum(lo - val, val - hi) / scale
        j = int(np.argmax(breach))
        if breach[j] > worst[0]:
            worst = (float(breach[j]), float(st.t[j]), name)
    if worst[0] > 1e-9:
        raise ValueError(
            f"potential coefficients escape the brackets: {worst[2]} at "
            f"t={worst[1]:.6g} by relative margin {worst[0]:.3e}")

    grid = np.linspace(0.0, L0, grid_size + 1)
    w0 = transform_ic(motion, grid, u0)
    bounds = []
    for g0, g1 in ((gamma0_lo, gamma1_lo), (gamma0_hi, gamma1_hi)):
        eig = solve_sl(D, L0, g0, g1, grid_size=grid_size, num_modes=num_modes)
        bounds.append(SeriesSolution(motion, eig, expand(w0, eig)))
    return tuple(bounds)
