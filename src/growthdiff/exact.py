"""Series solutions of the growth-diffusion equation on separable moving domains.

For length laws L^2 = a t^2 + 2 b t + L0^2 with endpoint acceleration
gamma1 / L^3 the transformed problem separates: the solution is a sum of
Sturm-Liouville modes g_n(xi) carried by exp(sigma_n s(t)) and multiplied by
an explicit exponential prefactor.  Each closed-form case (fixed, linear,
square-root and quadratic-in-time length) has its own reduction of the two
prefactor integrals; the ``generic`` evaluation route instead computes both
integrals by ``motion.time_integral``, the package's one checked quadrature.
The two routes are algebraically identical, so their agreement is a strong
transcription check and is enforced in the test suite at relative 1e-9.

Radially symmetric balls |x| < R(t) with R^2 quadratic in t separate the same
way; ``build_radial_series`` handles those with a fixed centre.  Interval,
ball and comparison series (``critical.envelope_bounds_general``) are all one
``SeriesSolution`` class, summed by one evaluator, ``_sum_modes``, which reads
every tabulated mode shape through one spline call and checks the sum's
accuracy: the last mode's share, and the roundoff of the sum itself.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline

from .eigen import EigenSystem, solve_radial, solve_sl
from .motion import (
    BoundaryMotion,
    CaseKind,
    ParameterError,
    SeparableMotion,
    _quadrature_rescale,
    _require_time,
    classify,
    eval_motion,
    motion_content_hash,
    motion_to_document,
    require_centered,
    time_rescale,
    validity_horizon,
)
from .output import write_csv
from .transforms import (
    drift_integral,
    initial_values,
    initial_w_from_u,
    log_shape_factor,
    x_from_xi,
    xi_from_x,
)

__all__ = [
    "TruncationWarning",
    "SeriesSolution",
    "GrowthVerdict",
    "transform_ic",
    "expand",
    "build_series",
    "eval_w",
    "eval_series",
    "eval_physical",
    "build_radial_series",
    "eval_radial_series",
    "eval_radial_physical",
    "growth_region",
    "compare_to_series",
    "series_to_csv",
    "series_manifest",
]

# A mode tail larger than this fraction of the total triggers TruncationWarning,
# and so does a sum whose roundoff exceeds this fraction of its largest value.
_TAIL_RTOL = 1e-8
_EPS = np.finfo(float).eps


class TruncationWarning(UserWarning):
    """The series misses its tolerance: the last retained mode, or the sum's
    roundoff where the modes cancel, still contributes visibly."""


@dataclass(frozen=True)
class SeriesSolution:
    """Mode expansion of one initial condition over one motion.

    A ball's expansion has ``eigen.radial`` set and its dimension in ``eigen.n_dim``.
    """

    motion: BoundaryMotion
    eigen: EigenSystem
    coeffs: np.ndarray

    @property
    def physics(self):
        return self.motion.physics

    @property
    def truncation(self) -> int:
        return len(self.coeffs)

    @cached_property
    def _modes(self) -> CubicSpline:
        """One spline through all mode shapes; called at xi it returns (modes, points)."""
        return CubicSpline(self.eigen.grid, self.eigen.modes, axis=1)


def transform_ic(motion: BoundaryMotion, xi, u0_values) -> np.ndarray:
    """Map initial data u(xi, 0) to w(xi, 0); the data must vanish at both ends."""
    xi = np.asarray(xi, dtype=float)
    return initial_w_from_u(motion, xi, initial_values(u0_values, xi))


def expand(w0_values, eigen: EigenSystem) -> np.ndarray:
    """Mode coefficients of grid data w0 against the eigensystem's quadrature rule."""
    w0 = np.asarray(w0_values, dtype=float)
    if w0.shape != eigen.grid.shape:
        raise ParameterError(f"w0 has {w0.size} values, eigen grid has {eigen.grid.size}")
    return eigen.modes @ (eigen.weights * w0)


def build_series(motion: SeparableMotion, u0, grid_size: int = 512,
                 num_modes: int = 32, extrapolate: bool = False) -> SeriesSolution:
    """Expand initial data u0 (callable or node values) into a SeriesSolution.

    ``extrapolate`` Richardson-corrects the eigenvalues; worthwhile whenever
    the solution is needed at times where exp(sigma_n t) amplifies the O(h^2)
    eigenvalue bias beyond the target accuracy.
    """
    kind = classify(motion)
    if kind in (CaseKind.CRITICAL_CASE, CaseKind.GENERAL):
        raise ParameterError(f"series solutions need a separable motion, got {kind.value}")
    eig = solve_sl(motion.physics.D, motion.L0, motion.gamma0, motion.gamma1,
                   grid_size=grid_size, num_modes=num_modes, extrapolate=extrapolate)
    w0 = transform_ic(motion, eig.grid, u0(eig.grid) if callable(u0) else u0)
    return SeriesSolution(motion, eig, expand(w0, eig))


# ---------------------------------------------------------------------------
# evaluation


def _reference_xi(sol, xi) -> np.ndarray:
    """Positions clipped to [0, L0], or [0, R0] on a ball (``sol.eigen.L0``)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    size = sol.eigen.L0
    tol = 1e-12 * size
    if not np.all((xi >= -tol) & (xi <= size + tol)):     # False for nan
        name = "reference radius" if sol.eigen.radial else "xi"
        raise ParameterError(f"{name} must lie in [0, {size}]")
    return np.clip(xi, 0.0, size)


def _sum_modes(sol, xi: np.ndarray, log_theta: np.ndarray,
               extra_log=0.0) -> np.ndarray:
    """Sum c_n * exp(log_theta_n + extra_log) * g_n(xi) with two accuracy checks.

    ``extra_log`` is the xi-dependent (or scalar) log-prefactor; folding it
    into the exponent keeps individual terms finite even when the prefactor
    alone would overflow.  Warns (``TruncationWarning``) when the last term
    exceeds ``_TAIL_RTOL`` of the total at some xi, or the sum's roundoff,
    eps * max_xi sum_n |term_n(xi)|, exceeds ``_TAIL_RTOL`` of max_xi |total|.
    """
    # The spline returns a transposed view; summing it in C order keeps the
    # reduction order, and so every bit, of a mode-by-mode read.
    g = np.ascontiguousarray(sol._modes(xi))
    amp = sol.coeffs[:, None] * np.exp(log_theta[:, None] + extra_log)
    terms = amp * g
    total = terms.sum(axis=0)
    mags = np.abs(terms, out=terms)     # in place: terms is not read again
    size = np.abs(total)
    peak = size.max(initial=0.0)
    tail = mags[-1]
    with np.errstate(invalid="ignore"):
        bad = tail > _TAIL_RTOL * np.maximum(size, 1e-12 * peak)
    if np.any(bad & (tail > 0.0)):
        warnings.warn(
            f"mode {sol.truncation} still contributes more than {_TAIL_RTOL:g} "
            "of the series; increase num_modes", TruncationWarning, stacklevel=3)
    roundoff = _EPS * mags.sum(axis=0).max(initial=0.0)
    if roundoff > _TAIL_RTOL * peak:
        warnings.warn(
            f"the modes cancel: the sum's roundoff, {roundoff:.3g}, exceeds "
            f"{_TAIL_RTOL:g} of its largest value, {peak:.3g}", TruncationWarning,
            stacklevel=3)
    return total


def _closed_drift(motion: SeparableMotion, t: float, L: float, s: float) -> float:
    """Closed form of integral Adot^2 / 4D over [0, t] for each separable case."""
    D = motion.physics.D
    L0, g1, c = motion.L0, motion.gamma1, motion.c
    kind = motion.case_kind
    if kind is CaseKind.FIXED_LENGTH:
        acc = g1 * g1 * t ** 3 / (3.0 * L0 ** 6) + c * g1 * t * t / L0 ** 3 + c * c * t
    elif kind is CaseKind.LINEAR_LENGTH:
        slope = motion.b / L0
        acc = (c * c * t - c * g1 * t / (slope * L0 * L)
               + (g1 * g1 / (12.0 * slope ** 3)) * (1.0 / L0 ** 3 - 1.0 / L ** 3))
    elif kind is CaseKind.SQRT_LENGTH:
        rho = motion.b
        acc = (c * c * t - 2.0 * c * g1 * (L - L0) / rho ** 2
               + (g1 * g1 / rho ** 3) * math.log(L / L0))
    else:
        beta = motion.b ** 2 - motion.a * L0 ** 2
        acc = ((c * c + g1 * g1 * motion.a / beta ** 2) * t
               - 2.0 * c * g1 * (L - L0) / beta
               + (g1 * g1 / (beta * L0 ** 2)) * s)
    return acc / (4.0 * D)


def _route_clock(sol, xi, t: float, route: str):
    """The checked positions and s(t) on ``route``: the closed form on "fast",
    quadrature on "generic"; the route, t and xi are checked in that order."""
    if route not in ("fast", "generic"):
        raise ParameterError(f"unknown route {route!r}")
    _require_time(sol.motion, t)
    xi = _reference_xi(sol, xi)
    return xi, (time_rescale if route == "fast" else _quadrature_rescale)(sol.motion, t)


def eval_w(sol: SeriesSolution, xi, t: float, route: str = "fast") -> np.ndarray:
    """Potential-form field w(xi, t) = sum c_n exp(sigma_n s(t)) g_n(xi)."""
    xi, s = _route_clock(sol, xi, t, route)
    return _sum_modes(sol, xi, sol.eigen.sigmas * s)


def eval_series(sol: SeriesSolution, xi, t: float, route: str = "fast") -> np.ndarray:
    """Fixed-domain field u(xi, t).

    route="fast" uses the per-case closed forms of s(t) and the drift
    integral; route="generic" computes both by quadrature.  Anything else is
    rejected.  The shape factor is folded into every term, so ``_sum_modes``
    measures u's own roundoff, and warns where a factor spanning tens of
    decades makes the terms cancel past ``_TAIL_RTOL``.
    """
    xi, s = _route_clock(sol, xi, t, route)
    m = sol.motion
    state = eval_motion(m, t)
    drift = _closed_drift(m, t, state.L, s) if route == "fast" else drift_integral(m, t)
    log_pre = m.physics.f0 * t - drift + log_shape_factor(m, xi, t, state)
    return _sum_modes(sol, xi, sol.eigen.sigmas * s, log_pre)


def eval_physical(sol: SeriesSolution, x, t: float) -> np.ndarray:
    """Physical density psi(x, t); x must lie inside the moving interval."""
    state = eval_motion(sol.motion, t)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    tol = 1e-12 * max(sol.motion.L0, state.L)
    if np.any(x < state.A - tol) or np.any(x > state.A + state.L + tol):
        raise ValueError(
            f"position outside the moving interval [{state.A}, {state.A + state.L}] "
            f"at t={t}")
    return eval_series(sol, xi_from_x(sol.motion, x, t), t)


def compare_to_series(sol: SeriesSolution, run) -> np.ndarray:
    """Rows (t, abs_linf, rel_linf, worst_xi) of a u ``GridSolution`` against the
    series, one per stored time, over the interior nodes; rel_linf is relative
    to the series' interior sup norm."""
    run.check_owner(sol.motion, "compare_to_series", "u")
    rows = np.empty((run.times.size, 4))
    for i, t in enumerate(run.times.tolist()):
        u_ref = eval_series(sol, run.grid, t)[1:-1]
        diff = np.abs(run.values[i][1:-1] - u_ref)
        scale = float(np.max(np.abs(u_ref)))
        if scale == 0.0:
            raise ValueError(f"reference field vanishes at t={t}; "
                             "relative comparison undefined")
        k = int(np.argmax(diff))
        rows[i] = t, diff[k], diff[k] / scale, run.grid[k + 1]
    return rows


# ---------------------------------------------------------------------------
# radially symmetric ball with fixed centre


def build_radial_series(motion: SeparableMotion, psi0, n_dim: int,
                        grid_size: int = 512, num_modes: int = 32,
                        extrapolate: bool = False) -> SeriesSolution:
    """Expand radial initial data psi0(r) on the ball of diameter L(t).

    ``motion`` describes the diameter: the ball radius is R = L/2 and the
    motion must be centred (A = -L/2, ``motion.require_centered``), as
    ``SeparableMotion.symmetric`` builds it.  Only the radially symmetric
    sector is expanded.
    """
    if not isinstance(motion, SeparableMotion):
        raise ParameterError("radial series need a separable diameter motion")
    require_centered(motion)
    R0 = 0.5 * motion.L0
    eig = solve_radial(motion.physics.D, R0, motion.gamma0 / 16.0, n_dim,
                       grid_size=grid_size, num_modes=num_modes, extrapolate=extrapolate)
    r = eig.grid
    psi0_vals = initial_values(psi0, r, ball=True)
    st = eval_motion(motion, 0.0)
    # W = psi exp(Rdot R r^2 / (4 D R0^2)) at t = 0, with Rdot R = Ldot L / 4.
    log_fac = 0.25 * st.Ldot * st.L * r * r / (4.0 * motion.physics.D * R0 ** 2)
    return SeriesSolution(motion, eig, expand(psi0_vals * np.exp(log_fac), eig))


def eval_radial_series(sol: SeriesSolution, r, t: float) -> np.ndarray:
    """Physical density psi at reference radius r in [0, R0] (r maps to |x| R0/R)."""
    r, s = _route_clock(sol, r, t, "fast")
    R0 = sol.eigen.L0
    state = eval_motion(sol.motion, t)
    D = sol.physics.D
    RdotR = 0.25 * state.Ldot * state.L
    log_pre = (0.5 * sol.eigen.n_dim * math.log(2.0 * R0 / state.L)
               + sol.physics.f0 * t
               - RdotR * r * r / (4.0 * D * R0 ** 2))
    return _sum_modes(sol, r, sol.eigen.sigmas * s, log_pre)


def eval_radial_physical(sol: SeriesSolution, radius, t: float) -> np.ndarray:
    """Physical density at physical radius |x| = radius inside the ball."""
    state = eval_motion(sol.motion, t)
    R = 0.5 * state.L
    radius = np.atleast_1d(np.asarray(radius, dtype=float))
    if np.any(radius < 0.0) or np.any(radius > R * (1.0 + 1e-12)):
        raise ValueError(f"radius outside the ball of radius {R} at t={t}")
    return eval_radial_series(sol, radius * (0.5 * sol.motion.L0 / R), t)


# ---------------------------------------------------------------------------
# long-time growth verdicts


@dataclass(frozen=True)
class GrowthVerdict:
    """Long-time fate of solutions over one separable motion.

    kind is one of "collapse", "decay", "grow", "window", "marginal";
    ``window`` is the open xi-interval where the pointwise exponential rate is
    positive ("grow" means the window is all of (0, L0)); ``rate`` is the
    xi-independent part of that exponential rate when one exists.
    """

    kind: str
    window: tuple | None = None
    collapse_time: float | None = None
    rate: float | None = None
    note: str = ""


def _window_verdict(lo: float, hi: float, L0: float, note: str) -> GrowthVerdict:
    lo, hi = max(0.0, lo), min(L0, hi)
    if hi <= lo:
        return GrowthVerdict("decay", note=note + "; growth window is empty")
    if lo == 0.0 and hi == L0:
        return GrowthVerdict("grow", window=(0.0, L0), note=note)
    return GrowthVerdict("window", window=(lo, hi), note=note)


def growth_region(motion: SeparableMotion) -> GrowthVerdict:
    """Classify the long-time behaviour of u over a separable motion.

    The verdict follows the sign of the pointwise exponential rate
    f0 - (c_eff + xi * v / L0)^2 / 4D, where v is the asymptotic length
    growth speed and c_eff the asymptotic endpoint drift.
    """
    kind = classify(motion)
    if kind in (CaseKind.CRITICAL_CASE, CaseKind.GENERAL):
        raise ParameterError(f"growth verdicts need a separable motion, got {kind.value}")
    horizon = validity_horizon(motion)
    if math.isfinite(horizon):
        return GrowthVerdict("collapse", collapse_time=horizon,
                             note="length vanishes in finite time; all modes die")
    ph = motion.physics
    cs = ph.c_star
    L0, g1, c = motion.L0, motion.gamma1, motion.c
    if kind is CaseKind.FIXED_LENGTH:
        if g1 != 0.0:
            return GrowthVerdict(
                "decay", note="accelerating endpoints on a fixed length force "
                "super-exponential decay")
        rate = ph.f0 - ph.D * math.pi ** 2 / L0 ** 2 - c * c / (4.0 * ph.D)
        if rate > 0.0:
            return GrowthVerdict("grow", window=(0.0, L0), rate=rate,
                                 note="f0 exceeds the diffusive and drift losses")
        if rate < 0.0:
            return GrowthVerdict("decay", rate=rate,
                                 note="diffusive and drift losses exceed f0")
        return GrowthVerdict("marginal", rate=0.0,
                             note="f0 exactly balances the losses")
    if kind is CaseKind.SQRT_LENGTH:
        rate = ph.f0 - c * c / (4.0 * ph.D)
        if rate > 0.0:
            return GrowthVerdict("grow", window=(0.0, L0), rate=rate,
                                 note="diffusive losses vanish; only drift competes with f0")
        if rate < 0.0:
            return GrowthVerdict("decay", rate=rate, note="endpoint drift beats f0")
        return GrowthVerdict("marginal", rate=0.0, note="drift exactly balances f0")
    if kind is CaseKind.LINEAR_LENGTH:
        v = motion.b / L0
        return _window_verdict((L0 / v) * (-cs - c), (L0 / v) * (cs - c), L0,
                               "growth where the local frame speed stays below c*")
    # Quadratic length growth: v -> sqrt(a), endpoint drift -> c - gamma1 sqrt(a) / beta.
    v = math.sqrt(motion.a)
    beta = motion.b ** 2 - motion.a * L0 ** 2
    c_eff = c - g1 * v / beta
    return _window_verdict((L0 / v) * (-cs - c_eff), (L0 / v) * (cs - c_eff), L0,
                           "growth where the local frame speed stays below c*")


# ---------------------------------------------------------------------------
# export


def series_to_csv(sol: SeriesSolution, path, xi, times,
                  route: str = "fast") -> None:
    """Write columns x, xi, t, psi, u, w; one row per (time, position).

    Every time is evaluated before the file is opened, so a time the series
    cannot reach raises without leaving a partial file.
    """
    xi = _reference_xi(sol, xi)
    blocks = []
    for t in times:
        x = x_from_xi(sol.motion, xi, float(t))
        u = eval_series(sol, xi, float(t), route)
        w = eval_w(sol, xi, float(t), route)
        blocks.append(np.column_stack((x, xi, np.full(xi.size, t), u, u, w)))
    write_csv(path, ["x", "xi", "t", "psi", "u", "w"], blocks)


def series_manifest(sol: SeriesSolution) -> dict:
    """JSON-ready description of a series solution (no field data)."""
    doc = {
        "schema_version": 1,
        "motion": motion_to_document(sol.motion),
        "motion_hash": motion_content_hash(sol.motion),
        "truncation": sol.truncation,
        "grid_size": sol.eigen.grid_size,
        "sigmas": [float(v) for v in sol.eigen.sigmas],
    }
    if sol.eigen.radial:
        doc["n_dim"] = sol.eigen.n_dim
    return doc
