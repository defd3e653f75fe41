"""Change-of-variable factors between the physical density and its fixed-domain forms.

The moving interval A(t) < x < A(t) + L(t) is mapped to the reference interval
0 < xi < L0 by xi = (x - A) L0 / L, turning psi(x, t) into u(xi, t).  A further
exponential substitution

    u = w * exp(log_time_factor + log_shape_factor)

absorbs the advection produced by the moving frame, leaving w to satisfy a
pure potential-form heat equation in the rescaled clock s(t).  The factors are
kept in log space throughout: at the long horizons used for the critical-case
fits (t ~ 1e3 with near-ballistic endpoints) the exponents reach several
hundred and the linear-space factors would overflow.

For radially symmetric balls |x| < R(t) the analogous substitution maps psi to
W via ``log_radial_factor``; the interval machinery is recovered with L = 2 R.

This module is the only home of these factors.  The solvers' initial data,
the interval series and the critical-case probes and boundary gradients all
get them from here; only the closed-form prefactors of ``exact``'s series
routes are written out there, kept apart so the generic route can check them.
It also holds ``initial_values``, the one Dirichlet rule for initial data;
whether a motion is centred is ``motion.require_centered``'s call.
"""

from __future__ import annotations

import math

import numpy as np

from .motion import (BoundaryMotion, CriticalMotion, ParameterError, _kinematics_on,
                     _require_time, eval_motion, time_integral)

__all__ = [
    "xi_from_x",
    "x_from_xi",
    "drift_integral",
    "log_time_factor",
    "log_shape_factor",
    "u_from_w",
    "w_from_u",
    "initial_w_from_u",
    "initial_values",
    "log_radial_factor",
    "psi_from_W",
    "initial_W_from_psi",
]


def xi_from_x(motion: BoundaryMotion, x, t: float):
    """Map physical position(s) to the reference coordinate xi = (x - A) L0 / L."""
    st = eval_motion(motion, t)
    return (np.asarray(x, dtype=float) - st.A) * (motion.L0 / st.L)


def x_from_xi(motion: BoundaryMotion, xi, t: float):
    st = eval_motion(motion, t)
    return st.A + np.asarray(xi, dtype=float) * (st.L / motion.L0)


def drift_integral(motion: BoundaryMotion, t: float) -> float:
    """Accumulated frame-drift penalty: integral of Adot^2 / 4D over [0, t].

    Evaluated by ``motion.time_integral`` for every family (tolerance 1e-12,
    error estimate checked), which keeps this routine independent of the
    closed-form reductions used elsewhere.
    """
    state = _kinematics_on(motion, 0.0, t)
    if t == 0.0:
        return 0.0
    inv4d = 0.25 / motion.physics.D
    return time_integral(lambda z: state(z).Adot ** 2 * inv4d, 0.0, t)


def _critical_log_time_factor(motion: CriticalMotion, t: float) -> float:
    """Closed form of f0 t - integral Adot^2 / 4D for the critical motion.

    With half-length derivative c* - alpha/(1+t) - eta'(t) the square expands
    into elementary pieces; f0 t cancels the c*^2 term exactly, which is why
    this is evaluated in closed form rather than by quadrature (the two huge
    terms would otherwise have to cancel numerically at t ~ 1e4).
    """
    D = motion.physics.D
    cs = motion.physics.c_star
    al = motion.alpha
    k, p = motion.eta.k, motion.eta.p
    acc = 2.0 * cs * al * math.log1p(t) - al * al * t / (1.0 + t)
    if k != 0.0:
        op = (1.0 + t) ** p
        acc += 2.0 * cs * k * (op - 1.0)
        acc -= 2.0 * al * k * p * ((1.0 + t) ** (p - 1.0) - 1.0) / (p - 1.0)
        acc -= k * k * p * p * ((1.0 + t) ** (2.0 * p - 1.0) - 1.0) / (2.0 * p - 1.0)
    return acc / (4.0 * D)


def log_time_factor(motion: BoundaryMotion, t: float) -> float:
    """log of the xi-independent factor in u/w: f0 t - integral Adot^2 / 4D."""
    _require_time(motion, t)
    if isinstance(motion, CriticalMotion):
        return _critical_log_time_factor(motion, t)
    return motion.physics.f0 * t - drift_integral(motion, t)


def log_shape_factor(motion: BoundaryMotion, xi, t: float, state=None):
    """log of the xi-dependent factor in u/w.

    Equals 0.5 log(L0/L) - xi^2 Ldot L / (4 D L0^2) - xi Adot L / (2 D L0);
    vectorized over xi.  ``state``, the motion's ``eval_motion`` read at t,
    spares a caller that holds it a second read.
    """
    st = eval_motion(motion, t) if state is None else state
    D = motion.physics.D
    L0 = motion.L0
    xi = np.asarray(xi, dtype=float)
    return (0.5 * math.log(L0 / st.L)
            - xi * xi * (st.Ldot * st.L / (4.0 * D * L0 ** 2))
            - xi * (st.Adot * st.L / (2.0 * D * L0)))


def u_from_w(motion: BoundaryMotion, xi, t: float, w_values):
    log_fac = log_time_factor(motion, t) + log_shape_factor(motion, xi, t)
    return np.asarray(w_values, dtype=float) * np.exp(log_fac)


def w_from_u(motion: BoundaryMotion, xi, t: float, u_values):
    log_fac = log_time_factor(motion, t) + log_shape_factor(motion, xi, t)
    return np.asarray(u_values, dtype=float) * np.exp(-log_fac)


def initial_w_from_u(motion: BoundaryMotion, xi, u0_values):
    """Initial transform w(xi, 0) = u(xi, 0) exp(xi^2 Ldot(0)/(4 D L0) + xi Adot(0)/(2 D)).

    Special case of ``w_from_u`` at t = 0, written out because every series
    expansion is seeded from its bits, and ``w_from_u`` rounds some differently.
    """
    st = eval_motion(motion, 0.0)
    D = motion.physics.D
    xi = np.asarray(xi, dtype=float)
    log_fac = xi * xi * (st.Ldot / (4.0 * D * st.L)) + xi * (st.Adot / (2.0 * D))
    return np.asarray(u0_values, dtype=float) * np.exp(log_fac)


def initial_values(data, grid, ball: bool = False) -> np.ndarray:
    """``data`` (a callable of the nodes, or node values) on ``grid``; it must
    be finite, and vanish, to 1e-12 of its maximum, at both ends of an
    interval, or at the last node, r = R0, of a ball."""
    values = np.asarray(data(grid) if callable(data) else data, dtype=float)
    if values.shape != grid.shape:
        raise ParameterError(f"initial data has shape {values.shape}, grid has shape {grid.shape}")
    finite = np.isfinite(values)
    if not np.all(finite):
        j = int(np.argmin(finite))
        raise ParameterError(f"initial data must be finite, got {values[j]} at node {grid[j]:.6g}")
    ends = values[-1:] if ball else values[[0, -1]]
    if np.any(np.abs(ends) > 1e-12 * (np.max(np.abs(values)) or 1.0)):
        raise ParameterError("initial data must vanish " + (
            "on the ball boundary" if ball else "at both interval endpoints"))
    return values


# ---------------------------------------------------------------------------
# radially symmetric ball |x| < R(t), R = L/2 of a centred interval motion


def log_radial_factor(motion: BoundaryMotion, r, t: float, n_dim: int):
    """log(W / psi) for the ball substitution, vectorized over the radius r.

    W = psi * (R/R0)^{n/2} exp(-f0 t + integral Rdot^2/4D
                               + Rdot R (r^2 - R0^2) / (4 D R0^2)),
    with R = L/2 taken from the centred interval motion.
    """
    st = eval_motion(motion, t)
    D = motion.physics.D
    R0 = 0.5 * motion.L0
    R, Rdot = 0.5 * st.L, 0.5 * st.Ldot
    r = np.asarray(r, dtype=float)
    return (0.5 * n_dim * math.log(R / R0)
            - log_time_factor(motion, t)
            + Rdot * R * (r * r - R0 ** 2) / (4.0 * D * R0 ** 2))


def psi_from_W(motion: BoundaryMotion, r, t: float, W_values, n_dim: int):
    log_fac = log_radial_factor(motion, r, t, n_dim)
    return np.asarray(W_values, dtype=float) * np.exp(-log_fac)


def initial_W_from_psi(motion: BoundaryMotion, r, psi0_values, n_dim: int):
    """Initial radial transform; at t = 0 only the Rdot R (r^2 - R0^2) term survives."""
    st = eval_motion(motion, 0.0)
    D = motion.physics.D
    R0 = 0.5 * motion.L0
    r = np.asarray(r, dtype=float)
    log_fac = 0.25 * st.Ldot * st.L * (r * r - R0 ** 2) / (4.0 * D * R0 ** 2)
    return np.asarray(psi0_values, dtype=float) * np.exp(log_fac)
