"""Finite-difference solvers for the growth-diffusion equation on moving domains.

Three forms are integrated on the fixed reference domain:

* ``solve_u``      -- advection-diffusion-growth form of u(xi, t) for any motion;
* ``solve_w``      -- potential form of w(xi, t) for centred motions (A = -L/2);
* ``solve_radial`` -- potential form of W(r, t) on a ball of diameter L(t).

All three use a theta-weighted implicit step (Crank-Nicolson by default) with
coefficients frozen at the half step, which keeps the scheme second order in
time even though the coefficients are time dependent.  theta must lie in
[1/2, 1], where the scheme is A-stable, so no step size limit applies.  Spatial
discretisation is the standard second-order stencil; the radial solver uses a
conservative finite-volume form whose r = 0 row encodes the regularity
condition W'(0) = 0.

One kernel marches all three.  Its unknowns are the interior nodes only
(1..N-1 on the interval, 0..N-1 on the ball); the Dirichlet nodes carry no
unknown and are stored as exact zeros.  The coefficients depend on t alone,
so the kernel builds them, and the implicit-side diagonals, for a block of
``_BLOCK`` steps at a time; each step is then the explicit product on the
field and one call to LAPACK's tridiagonal solver ``dgtsv``.

Solvers are deterministic: the same inputs produce bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .eigen import _radial_volumes
from .motion import (
    BoundaryMotion,
    DomainCollapsedError,
    motion_content_hash,
    eval_motion,
    validity_horizon,
)
from .output import write_csv
from .transforms import require_centered

__all__ = [
    "GridSolution",
    "solve_u",
    "solve_w",
    "solve_radial",
    "grid_to_csv",
    "grid_manifest",
]


@dataclass(frozen=True)
class GridSolution:
    """Time slices of one finite-difference run on the reference domain."""

    kind: str              # "u", "w" or "radial"
    grid: np.ndarray       # reference nodes (xi, or r for the radial kind)
    times: np.ndarray      # output times, snapped to step multiples
    values: np.ndarray     # shape (len(times), len(grid))
    dt: float              # effective step actually used
    theta: float
    n_dim: int
    motion_hash: str

    @property
    def grid_size(self) -> int:
        return self.grid.size - 1

    def slice_at(self, t: float) -> np.ndarray:
        """Field values at one stored output time."""
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t={t} is not an output time of this run")
        return self.values[i]


def _prepare_run(motion: BoundaryMotion, ic, grid: np.ndarray, dt: float,
                 T: float, output_times, theta: float):
    if not (dt > 0.0) or not (T > 0.0):
        raise ValueError("dt and T must be positive")
    if not (0.5 <= theta <= 1.0):
        raise ValueError(f"theta must lie in [0.5, 1], got {theta}")
    if T >= validity_horizon(motion):
        raise DomainCollapsedError(
            f"T={T} reaches the collapse time {validity_horizon(motion)}")
    field0 = np.asarray(ic(grid) if callable(ic) else ic, dtype=float)
    if field0.shape != grid.shape:
        raise ValueError(f"initial data has shape {field0.shape}, grid has {grid.shape}")
    n_steps = max(1, int(round(T / dt)))
    dt_eff = T / n_steps
    if output_times is None:
        output_times = np.linspace(0.0, T, 11)
    out = np.asarray(output_times, dtype=float)
    if np.any(out < 0.0) or np.any(out > T * (1.0 + 1e-12)):
        raise ValueError("output times must lie in [0, T]")
    idx = sorted(set(int(round(t / dt_eff)) for t in out))
    return field0, n_steps, dt_eff, idx


_BLOCK = 32  # steps whose rows are built together; 16-128 time alike


def _march(rows, v0, n_steps, dt, theta, out_idx):
    """Advance (I - theta dt A) v_new = (I + (1-theta) dt A) v_old.

    ``v0`` holds the interior unknowns only.  ``rows(ts)`` takes an array of
    half-step times and returns the sub-diagonals, diagonals and
    super-diagonals of A there, one row per time; the Dirichlet neighbours
    are zero, so their couplings are simply left out.  The kernel calls it
    once per block of ``_BLOCK`` steps, forms that block's implicit-side
    diagonals, and then makes each step the five in-order right-hand-side
    operations and one LAPACK ``dgtsv`` solve, which overwrites the step's
    implicit-side rows in place.  Returns the unknowns at the step indices
    ``out_idx``.
    """
    v = v0.copy()
    snaps = np.empty((len(out_idx), v.size))
    slot = {k: i for i, k in enumerate(out_idx)}
    if 0 in slot:
        snaps[slot[0]] = v
    explicit = (1.0 - theta) * dt
    implicit = theta * dt
    for first in range(0, n_steps, _BLOCK):
        ks = range(first, min(first + _BLOCK, n_steps))
        subs, diags, sups = rows((np.array(ks) + 0.5) * dt)
        lower, mid, upper = subs * -implicit, 1.0 - implicit * diags, sups * -implicit
        for j, k in enumerate(ks):
            sub, diag, sup = subs[j], diags[j], sups[j]
            rhs = diag * v
            rhs[:-1] += sup * v[1:]
            rhs[1:] += sub * v[:-1]
            rhs *= explicit
            rhs += v
            v, info = dgtsv(lower[j], mid[j], upper[j], rhs, True, True, True, True)[3:]
            if info:
                raise np.linalg.LinAlgError(
                    f"theta step to t={(k + 1) * dt:.6g} is singular (dgtsv info={info})")
            if k + 1 in slot:
                if not np.all(np.isfinite(v)):
                    raise RuntimeError(
                        f"solver produced non-finite values by t={(k + 1) * dt}")
                snaps[slot[k + 1]] = v
    return snaps


def _solve(kind: str, motion: BoundaryMotion, ic, extent: float, grid_size: int,
           dt: float, T: float, output_times, theta: float, n_dim: int,
           make_rows) -> GridSolution:
    """Shared run: grid, checks, the march and the ``GridSolution``.

    ``make_rows(nodes, h)`` receives the interior nodes and the spacing and
    returns the ``rows(ts)`` that ``_march`` calls.  Interval runs have a
    Dirichlet node at each end; radial runs only at r = R0.
    """
    if grid_size < 8:
        raise ValueError("grid_size must be at least 8")
    grid = np.linspace(0.0, extent, grid_size + 1)
    h = extent / grid_size
    field0, n_steps, dt_eff, out_idx = _prepare_run(
        motion, ic, grid, dt, T, output_times, theta)
    interior = slice(0, -1) if kind == "radial" else slice(1, -1)
    scale = np.max(np.abs(field0)) or 1.0
    if kind == "radial":
        if abs(field0[-1]) > 1e-12 * scale:
            raise ValueError("initial data must vanish on the ball boundary")
    elif abs(field0[0]) > 1e-12 * scale or abs(field0[-1]) > 1e-12 * scale:
        raise ValueError("initial data must vanish at both endpoints")
    rows = make_rows(grid[interior], h)
    values = np.zeros((len(out_idx), grid.size))
    values[:, interior] = _march(rows, field0[interior], n_steps, dt_eff, theta,
                                 out_idx)
    times = np.array([i * dt_eff for i in out_idx])
    return GridSolution(kind, grid, times, values, dt_eff, theta, n_dim,
                        motion_content_hash(motion))


def solve_u(motion: BoundaryMotion, u0, grid_size: int = 512, dt: float = 1e-3,
            T: float = 1.0, output_times=None, theta: float = 0.5) -> GridSolution:
    """Integrate the advection-diffusion-growth form of u on [0, L0].

    Rejects runs whose cell Peclet number |V| h / D_eff exceeds 2 at any step:
    the centred advection stencil would lose its comparison structure there.
    """
    L0 = motion.L0
    D, f0 = motion.physics.D, motion.physics.f0

    def make_rows(xi, h):
        ones = np.ones(xi.size)

        def rows(ts):
            states = [eval_motion(motion, float(t)) for t in ts]
            d_eff = np.array([D * (L0 / st.L) ** 2 for st in states])[:, None]
            Adot, Ldot, L = np.array([(st.Adot, st.Ldot, st.L) for st in states]).T[:, :, None]
            vel = (Adot * L0 + xi * Ldot) / L
            peclet = np.max(np.abs(vel), axis=1) * h / d_eff[:, 0]
            bad = np.flatnonzero(peclet > 2.0)
            if bad.size:
                t, peclet = ts[bad[0]], peclet[bad[0]]
                need = int(math.ceil(grid_size * peclet / 2.0)) + 1
                raise ValueError(
                    f"cell Peclet number {peclet:.2f} exceeds 2 at t={t:.6g}; "
                    f"increase grid_size to at least {need}")
            adv = vel / (2.0 * h)
            return ((d_eff / h ** 2 - adv)[:, 1:],
                    (-2.0 * d_eff / h ** 2 + f0) * ones,
                    (d_eff / h ** 2 + adv)[:, :-1])
        return rows

    return _solve("u", motion, u0, L0, grid_size, dt, T, output_times, theta, 1,
                  make_rows)


def solve_w(motion: BoundaryMotion, w0, grid_size: int = 512, dt: float = 1e-3,
            T: float = 1.0, output_times=None, theta: float = 0.5) -> GridSolution:
    """Integrate the potential form of w on [0, L0]; needs a centred motion."""
    require_centered(motion, T)
    L0 = motion.L0
    D = motion.physics.D

    def make_rows(xi, h):
        shape = (xi / L0) * (xi / L0 - 1.0)
        ones = np.ones(xi.size - 1)

        def rows(ts):
            states = [eval_motion(motion, float(t)) for t in ts]
            d_eff = np.array([D * (L0 / st.L) ** 2 for st in states])[:, None]
            # D_eff * P(t) (xi/L0)(xi/L0 - 1) / L0^2 with P = Lddot L^3 / 4 D^2
            pot = np.array([st.Lddot * st.L / (4.0 * D) for st in states])[:, None] * shape
            off = (d_eff / h ** 2) * ones
            return off, -2.0 * d_eff / h ** 2 + pot, off
        return rows

    return _solve("w", motion, w0, L0, grid_size, dt, T, output_times, theta, 1,
                  make_rows)


def solve_radial(motion: BoundaryMotion, W0, n_dim: int, grid_size: int = 512,
                 dt: float = 1e-3, T: float = 1.0, output_times=None,
                 theta: float = 0.5) -> GridSolution:
    """Integrate the radial potential form of W on [0, R0] with R = L/2.

    ``motion`` describes the ball diameter and must be centred.  The r = 0 row
    is the finite-volume regularity row; r = R0 is a Dirichlet node.
    """
    if n_dim not in (1, 2, 3):
        raise ValueError(f"n_dim must be 1, 2 or 3, got {n_dim}")
    require_centered(motion, T)
    R0 = 0.5 * motion.L0
    D = motion.physics.D

    def make_rows(r, h):
        cell = _radial_volumes(r, h, n_dim) * h
        face_hi = (r + 0.5 * h) ** (n_dim - 1)
        face_lo = np.concatenate(([0.0], face_hi[:-1]))
        shape = r ** 2 / R0 ** 2 - 1.0

        def rows(ts):
            states = [eval_motion(motion, float(t)) for t in ts]
            d_eff = np.array([D * (R0 / (0.5 * st.L)) ** 2 for st in states])[:, None]
            # D_eff * Q(t) (r^2/R0^2 - 1) / R0^2 with Q = Rddot R^3 / 4 D^2
            pot = np.array([0.25 * st.Lddot * st.L / (4.0 * D)
                            for st in states])[:, None] * shape
            up = d_eff * face_hi / cell
            low = d_eff * face_lo / cell
            return low[:, 1:], -(up + low) + pot, up[:, :-1]
        return rows

    return _solve("radial", motion, W0, R0, grid_size, dt, T, output_times, theta,
                  n_dim, make_rows)


def grid_to_csv(solution: GridSolution, path) -> None:
    """Long-format CSV with columns t, xi, value (xi is the radius for radial runs)."""
    grid = solution.grid
    write_csv(path, ["t", "xi", "value"],
              (np.column_stack((np.full(grid.size, t), grid, row))
               for t, row in zip(solution.times, solution.values)))


def grid_manifest(solution: GridSolution) -> dict:
    """JSON-ready run description: scheme, sizes and the motion content hash."""
    return {
        "schema_version": 1,
        "kind": solution.kind,
        "scheme": "theta-implicit, coefficients at the half step",
        "theta": solution.theta,
        "grid_size": solution.grid_size,
        "dt": solution.dt,
        "n_dim": solution.n_dim,
        "num_output_times": int(solution.times.size),
        "t_final": float(solution.times[-1]) if solution.times.size else None,
        "motion_hash": solution.motion_hash,
    }
