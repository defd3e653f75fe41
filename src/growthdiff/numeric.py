"""Finite-difference solvers for the growth-diffusion equation on moving domains.

Three forms are integrated on the fixed reference domain:

* ``solve_u``      -- advection-diffusion-growth form of u(xi, t) for any motion;
* ``solve_w``      -- potential form of w(xi, t) for any motion;
* ``solve_radial`` -- potential form of W(r, t) on a ball of diameter L(t),
  for centred motions (A = -L/2).

All three march Crank-Nicolson, written as the implicit midpoint rule, with
coefficients frozen at each step's midpoint, which keeps the scheme second
order in time even though the coefficients are time dependent.  The
potential forms march the operators ``eigen`` solves with frozen weights:
its ``interval_profiles`` (the second-order stencil and two potential
profiles) and ``radial_profiles`` (a conservative finite-volume form whose
r = 0 row encodes the regularity condition W'(0) = 0).

One kernel marches all three.  Its unknowns are the interior nodes only
(1..N-1 on the interval, 0..N-1 on the ball); the Dirichlet nodes carry no
unknown and are stored as exact zeros.  Each operator is a weighted sum
A(t) = sum_j c_j(t) P_j of fixed tridiagonal profiles P_j, built once per
run.  The march works at two granularities.  A chunk of ``_CHUNK`` steps
reads its weights c_j from one array read of the motion's kinematics at its
midpoints; a sub-block of ``_BLOCK`` steps of it builds its implicit sides
1/2 I - dt/4 A in one matrix product; a step is one LAPACK solve and
v <- z - v.  The symmetric operators, w and the radial one on
sqrt(cell volume) W, use ``dptsv``: a w or radial step needs 1/2 I - dt/4 A
positive definite, and a longer one, which would flip the sign of the
fastest growing mode, raises ``LinAlgError``.  The advective u operator uses
``dgtsv``; its eigenvalues are at most f0, and a step of dt f0 >= 2 raises
``LinAlgError`` before its chunk is marched.  An output time off the step
grid is an extra step boundary, so every stored time is the requested one.

A w run of a centred motion from even data on an even grid marches only its
even half, as the 1-ball ``solve_radial`` marches it, and mirrors the stored
field back onto the interval: the same operator folded at the midpoint, on
half the unknowns (``solve_w``).

Solvers are deterministic: the same inputs produce bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgtsv, dptsv

from .eigen import interval_profiles, profile_rows, radial_profiles
from .motion import (
    BoundaryMotion,
    ParameterError,
    _require_time,
    centering_defect,
    motion_content_hash,
    eval_motion,
    require_centered,
)
from .output import write_csv
from .transforms import initial_values

__all__ = [
    "StepRecord",
    "GridSolution",
    "solve_u",
    "solve_w",
    "w_weights",
    "solve_radial",
    "grid_to_csv",
    "grid_manifest",
]


class StepRecord(NamedTuple):
    """How a run marched: its step count and its shortest and longest step."""

    count: int
    dt_min: float
    dt_max: float


_FORMS = {"u": ("u",), "potential-form": ("w", "radial")}    # run kinds of each form


@dataclass(frozen=True)
class GridSolution:
    """Time slices of one finite-difference run on the reference domain."""

    kind: str              # "u", "w" or "radial"
    grid: np.ndarray       # reference nodes (xi, or r for the radial kind)
    times: np.ndarray      # the requested output times, sorted, each stored exactly
    values: np.ndarray     # shape (len(times), len(grid))
    steps: StepRecord      # the march's step count and dt range
    n_dim: int
    motion_hash: str

    @property
    def grid_size(self) -> int:
        return self.grid.size - 1

    def check_owner(self, motion: BoundaryMotion, user: str, form: str,
                    n_dim: int | None = None) -> None:
        """Raise unless this is a ``form`` run ("u", or "potential-form": w or
        radial), of dimension ``n_dim`` if given, computed for ``motion``.  The
        kind is checked first, then the motion hash; ``user`` names the caller."""
        if self.kind not in _FORMS[form] or n_dim not in (None, self.n_dim):
            dimension = "" if n_dim is None else " of that dimension"
            raise ParameterError(f"{user} needs a {form} run{dimension}, got a "
                                 f"{self.kind!r} run with n_dim={self.n_dim}")
        if self.motion_hash != motion_content_hash(motion):
            raise ParameterError("the run was computed for a different motion")

    def slice_at(self, t: float) -> np.ndarray:
        """Field values at one stored output time."""
        i = int(np.argmin(np.abs(self.times - t)))
        if not math.isfinite(t) or abs(self.times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise ParameterError(f"t={t} is not an output time of this run")
        return self.values[i]


# A kinematics read is mostly numpy's per-call overhead: 1,024 times cost at
# most twice what 32 do, so a chunk is long.  The sides product is
# memory-bound: at 128 or 512 steps it cost 3-4 times more per step than at
# 32, so a sub-block is short.
_CHUNK = 1024  # steps whose weights come from one kinematics read
_BLOCK = 32    # steps of a chunk whose implicit sides are one product


def _schedule(T: float, dt: float, times: np.ndarray):
    """The steps, made a chunk at a time, and the time each output is read at.

    The steps are the uniform grid k h, h = T/round(T/dt); an output time off
    it by more than roundoff (1e-12 T) cuts its step.  Whole steps keep their
    (k + 1/2) h midpoints and length h, so runs whose outputs sit on the grid
    march the uniform steps bit for bit.  Chunks are ``_CHUNK`` grid steps,
    each yielded as (midpoints, lengths, end times); a chunk with a cut step
    holds its pieces and a column of step lengths.
    """
    n = max(1, int(round(T / dt)))
    h = T / n
    k = np.rint(times / h)
    on_grid = np.abs(times - k * h) <= 1e-12 * T
    cuts = times[~on_grid]
    cut_chunk = np.floor(cuts / h).astype(int) // _CHUNK

    def chunks():
        for a in range(0, n, _CHUNK):
            ks = np.arange(a, min(a + _CHUNK, n) + 1)      # the chunk's grid times
            b = np.union1d(ks * h, cuts[cut_chunk == a // _CHUNK])
            kb = np.rint(b / h)
            on_kb = b == kb * h
            whole = on_kb[:-1] & on_kb[1:]               # both ends on the grid
            yield (np.where(whole, (kb[:-1] + 0.5) * h, 0.5 * (b[:-1] + b[1:])),
                   np.where(whole, h, np.diff(b))[:, None], b[1:])
    return chunks(), np.where(on_grid, k * h, times)


def _march(profiles, weights, v0, chunks, reads, bound=None):
    """Advance Crank-Nicolson, (I - dt/2 A) v_new = (I + dt/2 A) v_old, over
    the (midpoints, lengths, end times) chunks of steps ``chunks`` yields.

    ``v0`` holds the interior unknowns.  The operator, less the couplings to
    the zero Dirichlet nodes, is A(t) = sum_j c_j(t) P_j: row j of
    ``profiles`` is the fixed P_j as ``profile_rows`` lays it out, and
    ``weights(ts)`` returns the (len(ts), J) scalars c_j at a chunk's
    midpoints, read once per chunk.  The implicit sides 1/2 I - dt/4 A of
    each ``_BLOCK`` steps of a chunk are one product,
    [1 | -dt/4 c] @ [1/2 I ; P].  gemm rounds each row of it alike for 2 to
    ``_BLOCK`` rows, but numpy sends a one-row product to gemv, which rounds
    otherwise; a one-row block is doubled to stay on gemm, so the chunk size
    changes no bit.  As I + dt/2 A = 2 I - (I - dt/2 A), a step
    solves (1/2 I - dt/4 A) z = v_old in place on its row of that product,
    by ``dptsv`` if every P_j is symmetric (the side must then be positive
    definite) or else by ``dgtsv``, and v_new = z - v_old.  ``bound``, if
    given, bounds A's eigenvalues above: a step with dt bound >= 2 would flip
    the sign of a mode, and is refused before its chunk's weights are read.
    Returns the unknowns at each of ``reads`` (0 or step ends) and the
    ``StepRecord`` of the steps marched.
    """
    v = v0
    n = v.size
    symmetric = np.array_equal(profiles[:, :n - 1], profiles[:, 2 * n - 1:])
    basis = np.vstack((profile_rows(n, (0.0, 0.5, 0.0)), profiles))
    snaps = np.empty((len(reads), n))
    slot = {}
    for i, t in enumerate(reads.tolist()):
        slot.setdefault(t, []).append(i)
    snaps[slot.get(0.0, [])] = v
    count, dt_min, dt_max = 0, math.inf, 0.0
    for mids, lengths, ends in chunks:
        if bound is not None:
            long = ends[lengths[:, 0] * bound >= 2.0]
            if long.size:
                raise np.linalg.LinAlgError(f"step to t={long[0]:.6g} is too long for the "
                                            "growth rate; use a smaller dt")
        count += mids.size
        dt_min, dt_max = min(dt_min, lengths.min()), max(dt_max, lengths.max())
        coef = np.column_stack((np.ones(len(mids)), -0.25 * lengths * weights(mids)))
        for a in range(0, len(mids), _BLOCK):
            rows = coef[a:a + _BLOCK]
            sides = (rows if len(rows) > 1 else rows.repeat(2, axis=0)) @ basis
            lower, mid, upper = sides[:, :n - 1], sides[:, n - 1:2 * n - 1], sides[:, 2 * n - 1:]
            for j, end in enumerate(ends[a:a + _BLOCK].tolist()):
                z, info = (dptsv(mid[j], lower[j], v, True, True, False)[2:] if symmetric else
                           dgtsv(lower[j], mid[j], upper[j], v, True, True, True, False)[3:])
                if info:
                    raise np.linalg.LinAlgError(f"step to t={end:.6g} is " + (
                        f"too long for the growth rate; use a smaller dt (dptsv info={info})"
                        if symmetric else f"singular (dgtsv info={info})"))
                v = z - v
                if end in slot:
                    if not np.all(np.isfinite(v)):
                        raise RuntimeError(f"solver produced non-finite values by t={end}")
                    snaps[slot[end]] = v
    return snaps, StepRecord(count, float(dt_min), float(dt_max))


def _solve(kind: str, motion: BoundaryMotion, ic, extent: float, grid_size: int,
           dt: float, T: float, output_times, n_dim: int, make_basis) -> GridSolution:
    """Shared run: grid, checks, the march and the ``GridSolution``.

    ``make_basis(nodes, h)`` receives the interior nodes and the spacing and
    returns the ``(profiles, weights)`` that ``_march`` takes and the scale s
    of the unknowns it marches, s times the field.  Interval runs have a
    Dirichlet node at each end; radial runs only at r = R0.
    """
    if grid_size < 8:
        raise ParameterError("grid_size must be at least 8")
    if not (0.0 < dt < math.inf and 0.0 < T < math.inf):     # False for nan
        raise ParameterError(f"dt and T must be finite and positive, got dt={dt}, T={T}")
    times = np.unique(np.linspace(0.0, T, 11) if output_times is None else
                      np.asarray(output_times, dtype=float))
    if not np.all((times >= 0.0) & (times <= T)):   # False for nan
        raise ParameterError("output times must lie in [0, T]")
    grid = np.linspace(0.0, extent, grid_size + 1)
    h = extent / grid_size
    field0 = initial_values(ic, grid, ball=kind == "radial")
    _require_time(motion, T)
    interior = slice(0, -1) if kind == "radial" else slice(1, -1)
    profiles, weights, s = make_basis(grid[interior], h)
    # The Peclet guard leaves every eigenvalue of the u operator real and at most f0.
    bound = motion.physics.f0 if kind == "u" else None
    snaps, steps = _march(profiles, weights, s * field0[interior], *_schedule(T, dt, times),
                          bound)
    values = np.zeros((times.size, grid.size))
    values[:, interior] = snaps / s
    return GridSolution(kind, grid, times, values, steps, n_dim,
                        motion_content_hash(motion))


def solve_u(motion: BoundaryMotion, u0, grid_size: int = 512, dt: float = 1e-3,
            T: float = 1.0, output_times=None) -> GridSolution:
    """Integrate the advection-diffusion-growth form of u on [0, L0].

    Rejects runs whose cell Peclet number |V| h / D_eff exceeds 2 at any step:
    the centred advection stencil would lose its comparison structure there.
    """
    L0 = motion.L0
    D, f0 = motion.physics.D, motion.physics.f0

    def make_basis(xi, h):
        ends = xi[[0, -1]]

        def weights(ts):
            st = eval_motion(motion, ts)
            # V = a + b xi with a = Adot L0 / L and b = Ldot / L; float_power is the
            # libm pow of a float's **, so u runs keep the scalar reads' bits.
            c = np.column_stack((D * np.float_power(L0 / st.L, 2), st.Adot * L0 / st.L,
                                 st.Ldot / st.L, np.full(ts.size, f0)))
            # Each rounded step of a + b xi is monotone in xi, so max |V| is at an end node.
            peclet = np.max(np.abs(c[:, 1:2] + c[:, 2:3] * ends), axis=1) * h / c[:, 0]
            bad = np.flatnonzero(peclet > 2.0)
            if bad.size:
                t, peclet = ts[bad[0]], float(peclet[bad[0]])
                need, advice = grid_size * peclet / 2.0, ""    # need is inf past any grid
                if math.isfinite(need):
                    # Rounded up to the three digits shown, so the advice is enough.
                    need = math.ceil(need) + 1
                    scale = 10 ** max(0, len(str(need)) - 3)
                    advice = f"; increase grid_size to at least {-(-need // scale) * scale:.3g}"
                raise ValueError(f"cell Peclet number {peclet:#.3g} exceeds 2 at t={t:.6g}{advice}")
            return c
        return np.vstack((interval_profiles(L0, grid_size)[:1],
                          profile_rows(xi.size, (-0.5 / h, 0.0, 0.5 / h),
                                       (-0.5 * xi[1:] / h, 0.0, 0.5 * xi[:-1] / h),
                                       (0.0, 1.0, 0.0)))), weights, 1.0

    return _solve("u", motion, u0, L0, grid_size, dt, T, output_times, 1, make_basis)


def w_weights(motion: BoundaryMotion, st):
    """Weights D (L0/L)^2, Lddot L / 4D and (Addot + Lddot/2) L / 2D of
    ``interval_profiles`` in the w operator at the kinematic state ``st``: the
    potential is Lddot L / 4D (xi/L0)^2 + Addot L / 2D xi/L0.  A centred
    motion has Addot = -Lddot/2, and its third weight is 0.0."""
    D = motion.physics.D
    return (D * (motion.L0 / st.L) ** 2, st.Lddot * st.L / (4.0 * D),
            (st.Addot + 0.5 * st.Lddot) * st.L / (2.0 * D))


def solve_w(motion: BoundaryMotion, w0, grid_size: int = 512, dt: float = 1e-3,
            T: float = 1.0, output_times=None) -> GridSolution:
    """Integrate the potential form of w on [0, L0], for any motion: the
    profiles ``eigen.solve_sl`` freezes, weighted by ``w_weights``.

    A centred motion's w equation commutes with the reflection
    xi -> L0 - xi, and its even half is the 1-ball problem in r = xi - L0/2:
    ``radial_profiles(L0/2, 1, N/2)`` is the interval operator folded at the
    midpoint, whose r = 0 row (2/h^2)(v_1 - v_0) is the midpoint row with
    v_-1 = v_1, and (xi/L0)(xi/L0 - 1) = (r^2/R0^2 - 1)/4.  So when the
    motion is centred (``centering_defect``), N = ``grid_size`` is even and
    at least 16, and the sampled data is even to 1e-12 of its maximum, the
    run marches ``solve_radial`` on the nodes xi >= L0/2 and stores that
    field mirrored onto the interval grid: exactly even, with the step
    record the full march would keep, at half its unknowns.  The odd part
    it drops is under the bound ``initial_values`` puts on end values.
    """
    L0 = motion.L0
    # The half is a 1-ball of grid_size/2 intervals, and a run needs at least 8.
    if grid_size >= 16 and grid_size % 2 == 0 and centering_defect(motion) is None:
        grid = np.linspace(0.0, L0, grid_size + 1)
        f = initial_values(w0, grid)
        if np.max(np.abs(f - f[::-1])) <= 1e-12 * np.max(np.abs(f)):
            half = solve_radial(motion, f[grid_size // 2:], 1, grid_size // 2, dt, T,
                                output_times)
            return replace(half, kind="w", grid=grid,
                           values=np.hstack((half.values[:, :0:-1], half.values)))

    def make_basis(xi, h):
        weights = lambda ts: np.column_stack(w_weights(motion, eval_motion(motion, ts)))
        return interval_profiles(L0, grid_size), weights, 1.0

    return _solve("w", motion, w0, L0, grid_size, dt, T, output_times, 1, make_basis)


def solve_radial(motion: BoundaryMotion, W0, n_dim: int, grid_size: int = 512,
                 dt: float = 1e-3, T: float = 1.0, output_times=None) -> GridSolution:
    """Integrate the radial potential form of W on [0, R0] with R = L/2.

    ``motion`` describes the ball diameter and must be centred.  The operator
    is D (R0/R)^2 and Q(t) = Rddot R / 4D times ``radial_profiles``, the
    profiles ``eigen.solve_radial`` freezes, marched on sqrt(mu h) W.
    """
    if n_dim not in (1, 2, 3):
        raise ParameterError(f"n_dim must be 1, 2 or 3, got {n_dim}")
    require_centered(motion)
    R0 = 0.5 * motion.L0

    def make_basis(r, h):
        profiles, mu = radial_profiles(R0, n_dim, grid_size)

        def weights(ts):
            # D (R0/R)^2 = D (L0/L)^2, and Q = Rddot R / 4D is a quarter of Lddot L / 4D.
            diffusion, potential, _ = w_weights(motion, eval_motion(motion, ts))
            return np.column_stack((diffusion, 0.25 * potential))
        return profiles, weights, np.sqrt(mu * h)

    return _solve("radial", motion, W0, R0, grid_size, dt, T, output_times, n_dim,
                  make_basis)


def grid_to_csv(solution: GridSolution, path) -> None:
    """Long-format CSV with columns t, xi, value (xi is the radius for radial runs)."""
    grid = solution.grid
    write_csv(path, ["t", "xi", "value"],
              (np.column_stack((np.full(grid.size, t), grid, row))
               for t, row in zip(solution.times, solution.values)))


def grid_manifest(solution: GridSolution) -> dict:
    """JSON-ready run description: scheme, sizes, step record, the motion
    content hash, and ``negative_values``: the count of negative stored values,
    with the first and last output time holding one (None if there is none)."""
    negative = np.count_nonzero(solution.values < 0.0, axis=1)
    at = solution.times[negative > 0]
    return {
        "schema_version": 1,
        "kind": solution.kind,
        "scheme": "Crank-Nicolson (implicit midpoint), coefficients at the half step",
        "grid_size": solution.grid_size,
        "steps": solution.steps._asdict(),
        "n_dim": solution.n_dim,
        "num_output_times": int(solution.times.size),
        "t_final": float(solution.times[-1]) if solution.times.size else None,
        "negative_values": {"count": int(negative.sum()),
                            "first_t": float(at[0]) if at.size else None,
                            "last_t": float(at[-1]) if at.size else None},
        "motion_hash": solution.motion_hash,
    }
