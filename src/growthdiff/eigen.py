"""Sturm-Liouville eigenproblems for the separable moving-interval solutions.

The fixed-domain substitution turns each separable boundary motion into

    sigma g = D g'' + (gamma0 xi^2 / (4 D L0^4) + gamma1 xi / (2 D L0^3)) g

on (0, L0) with Dirichlet ends.  Each geometry's discrete operator is a
weighted sum of fixed tridiagonal profiles, built here only: central
differences on the interval, a conservative finite-volume form on the n-ball.
``numeric`` marches the sum with weights read from the motion; here the
weights are frozen and LAPACK solves the symmetric eigenproblem for the
leading modes, by a route chosen from the size alone.  With n unknowns and k
modes, MRRR (``dstemr``) runs when 64 k >= n and n <= 2048: it was measured
the faster route there (BENCH_eigen_mrrr.json holds the crossover) and it
returns eigenvalues to relative accuracy.  scipy's ``dstemr``
wrapper returns an n x n vector array whatever subset is asked for (33 MB at
n = 2048), so larger operators, and few-mode solves, take bisection plus
inverse iteration (``dstebz`` + ``dstein``) at LAPACK's advised tolerance
2 * DLAMCH('S'), which stops each eigenvalue at about 2 ulp of itself rather
than at eps * ||T||.  A closed-form upper bound for the shrinking case
gamma0 = -rho^2 < 0 is also provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .motion import ParameterError, _require_finite
from .output import write_csv

__all__ = [
    "EigenSystem",
    "profile_rows",
    "interval_profiles",
    "radial_profiles",
    "solve_sl",
    "solve_radial",
    "principal_eigen_bound",
    "radial_principal_bound",
    "eigen_to_csv",
    "eigen_header",
]

MIN_GRID = 64


@dataclass(frozen=True)
class EigenSystem:
    """Computed eigenpairs on a uniform grid.

    ``modes[k]`` holds g_{k+1} on the full node set including the Dirichlet
    end(s), normalised to unit discrete L2 norm under ``weights`` and signed
    so the value nearest the left end of the domain is positive.  ``sigmas``
    are sorted descending, so ``sigmas[0]`` is the principal eigenvalue.
    ``solver`` names the LAPACK route of the modes solve, "dstemr" or
    "dstebz+dstein".
    """

    sigmas: np.ndarray
    modes: np.ndarray
    grid: np.ndarray
    weights: np.ndarray
    D: float
    L0: float
    gamma0: float
    gamma1: float
    solver: str
    n_dim: int = 1
    radial: bool = False

    @property
    def grid_size(self) -> int:
        return self.grid.size - 1

    @property
    def num_modes(self) -> int:
        return self.sigmas.size


def profile_rows(n, *stencils):
    """Tridiagonal profiles of order ``n`` as rows [sub | main | super], each
    stencil a (sub, main, super) triple of arrays or scalars."""
    return np.array([np.concatenate([np.broadcast_to(d, (m,)) for d, m in
                                     zip(stencil, (n - 1, n, n - 1))])
                     for stencil in stencils], dtype=float)


def interval_profiles(L0: float, grid_size: int) -> np.ndarray:
    """The interval operator's profiles on the interior nodes, as ``profile_rows``:
    the Dirichlet stencil (1, -2, 1)/h^2, diag((xi/L0)(xi/L0 - 1)) and diag(xi/L0)."""
    h = L0 / grid_size
    xi = np.linspace(0.0, L0, grid_size + 1)[1:-1]
    return profile_rows(xi.size, (1.0 / h ** 2, -2.0 / h ** 2, 1.0 / h ** 2),
                        (0.0, (xi / L0) * (xi / L0 - 1.0), 0.0), (0.0, xi / L0, 0.0))


def radial_profiles(R0: float, n_dim: int, grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The ball operator's profiles on r_0 .. r_{N-1}, as ``profile_rows``, and
    the volumes mu of the cells [r - h/2, r + h/2] clipped at 0.

    The rows are the finite-volume stencil of v'' + (n-1)/r v', symmetric on
    sqrt(mu h) v, whose r = 0 row is the regularity row v'(0) = 0, and
    diag((r/R0)^2 - 1).  The Dirichlet node r = R0 carries no unknown.
    """
    h = R0 / grid_size
    r = np.linspace(0.0, R0, grid_size + 1)[:-1]
    mu = ((r + 0.5 * h) ** n_dim - np.clip(r - 0.5 * h, 0.0, None) ** n_dim) / n_dim
    cell = mu * h
    face_hi = (r + 0.5 * h) ** (n_dim - 1)        # flux faces r + h/2
    face_lo = np.concatenate(([0.0], face_hi[:-1]))
    off = face_hi[:-1] / np.sqrt(cell[:-1] * cell[1:])
    return profile_rows(r.size, (off, -(face_hi + face_lo) / cell, off),
                        (0.0, r ** 2 / R0 ** 2 - 1.0, 0.0)), mu


def _eigenpairs(frozen, unknowns: slice, shift: float, grid_size: int, num_modes: int,
                extrapolate: bool):
    """Leading eigenpairs of a frozen operator plus ``shift``, sigmas descending.

    ``frozen(N)`` returns, on N grid intervals, the operator as one
    ``profile_rows`` row over the ``unknowns`` nodes and every node's
    quadrature weight; mu, the unknowns' weights, make sqrt(mu) v its
    symmetric form.  The modes have unit mu-weighted norm and a positive
    first nonzero value.  The Richardson coarse solve is the same call at
    N/2, so its eigenvalues are those of the full solve there, bit for bit;
    the fourth value returned names the fine solve's route.
    """
    if grid_size < MIN_GRID:
        raise ParameterError(f"grid_size must be at least {MIN_GRID}, got {grid_size}")
    if num_modes < 1 or num_modes > grid_size // 4:
        raise ParameterError(
            f"num_modes must lie in [1, grid_size/4] = [1, {grid_size // 4}], got {num_modes}")
    if extrapolate and grid_size % 2 != 0:
        raise ParameterError("extrapolation requires an even grid_size")

    def eigh(N):
        row, weights = frozen(N)
        n = weights[unknowns].size
        mrrr = 64 * num_modes >= n and n <= 2048       # the size rule; dstemr ignores tol
        sigmas, vecs = eigh_tridiagonal(row[n - 1:2 * n - 1], row[2 * n - 1:], select="i",
                                        select_range=(n - num_modes, n - 1),
                                        lapack_driver="stemr" if mrrr else "stebz",
                                        tol=2.0 * np.finfo(float).tiny)
        return sigmas, vecs, weights, "dstemr" if mrrr else "dstebz+dstein"

    sigmas, vecs, weights, solver = eigh(grid_size)
    mu = weights[unknowns]
    # ascending from LAPACK; flip to descending so index 0 is the principal mode
    v = vecs[:, ::-1] * (1.0 / np.sqrt(mu))[:, None]
    v /= np.sqrt(mu @ (v * v))
    v *= np.where(np.where(v[0] != 0.0, v[0], v[1]) < 0.0, -1.0, 1.0)
    modes = np.zeros((num_modes, weights.size))
    modes[:, unknowns] = v.T
    sigmas = sigmas[::-1] + shift
    if extrapolate:
        sigmas = (4.0 * sigmas - (eigh(grid_size // 2)[0][::-1] + shift)) / 3.0
    return sigmas, modes, weights, solver


def solve_sl(D: float, L0: float, gamma0: float, gamma1: float,
             grid_size: int = 512, num_modes: int = 8,
             extrapolate: bool = False) -> EigenSystem:
    """Solve the interval eigenproblem on ``grid_size`` (>= 64) intervals.

    The operator is [D, gamma0 / (4 D L0^2), (gamma1 + gamma0/2) / (2 D L0^2)]
    times ``interval_profiles``; its ``num_modes`` (at most grid_size / 4)
    leading eigenpairs are returned.  With ``extrapolate`` the eigenvalues are
    Richardson-extrapolated from a half-resolution solve (the central-difference
    error is a clean h^2 term); the modes are kept from the fine grid.
    """
    _require_finite(D=D, L0=L0, gamma0=gamma0, gamma1=gamma1)
    if D <= 0 or L0 <= 0:
        raise ParameterError("D and L0 must be positive")
    coef = np.array([D, gamma0 / (4.0 * D * L0 ** 2),
                     (gamma1 + 0.5 * gamma0) / (2.0 * D * L0 ** 2)])

    def frozen(N):
        weights = np.full(N + 1, L0 / N)
        weights[[0, -1]] *= 0.5                 # the trapezoid rule
        return coef @ interval_profiles(L0, N), weights

    sigmas, modes, weights, solver = _eigenpairs(frozen, slice(1, -1), 0.0, grid_size,
                                                 num_modes, extrapolate)
    return EigenSystem(sigmas, modes, np.linspace(0.0, L0, grid_size + 1), weights,
                       D, L0, gamma0, gamma1, solver)


def principal_eigen_bound(rho: float, gamma1: float, D: float, L0: float) -> float:
    """Strict upper bound for the principal eigenvalue when gamma0 = -rho^2 < 0.

    Completing the square in the Hermite-weighted form of the operator gives

        sigma_1 < -|rho| / (2 L0^2) + gamma1^2 / (4 D rho^2 L0^2).
    """
    if rho == 0.0:
        raise ParameterError("the shrinking-case bound requires rho != 0")
    if D <= 0 or L0 <= 0:
        raise ParameterError("D and L0 must be positive")
    r = abs(rho)
    return -r / (2.0 * L0 ** 2) + gamma1 ** 2 / (4.0 * D * rho ** 2 * L0 ** 2)


def radial_principal_bound(rho: float, n_dim: int, R0: float) -> float:
    """Ball analogue of the shrinking-case bound: sigma_1 < -n |rho| / (2 R0^2)."""
    if rho == 0.0:
        raise ParameterError("the shrinking-case bound requires rho != 0")
    if n_dim < 1:
        raise ParameterError("n_dim must be a positive integer")
    return -n_dim * abs(rho) / (2.0 * R0 ** 2)


def solve_radial(D: float, R0: float, gamma0: float, n_dim: int,
                 grid_size: int = 512, num_modes: int = 8,
                 extrapolate: bool = False) -> EigenSystem:
    """Radially symmetric eigenproblem on the n-ball of radius R0.

    sigma v = D (v'' + (n-1)/r v') + gamma0 r^2 / (4 D R0^4) v with v'(0) = 0
    and v(R0) = 0, discretised in conservative (finite-volume) form so the
    operator stays symmetric under the discrete volume weights.  The operator
    solved is [D, gamma0 / (4 D R0^2)] times ``radial_profiles``, whose
    potential is r^2/R0^2 - 1; gamma0 / (4 D R0^2) is added back to the sigmas.
    """
    _require_finite(D=D, R0=R0, gamma0=gamma0)
    if D <= 0 or R0 <= 0:
        raise ParameterError("D and R0 must be positive")
    if n_dim not in (1, 2, 3):
        raise ParameterError(f"n_dim must be 1, 2 or 3, got {n_dim}")
    shift = gamma0 / (4.0 * D * R0 ** 2)
    coef = np.array([D, shift])

    def frozen(N):
        profiles, mu = radial_profiles(R0, n_dim, N)
        return coef @ profiles, np.append(mu, 0.0)

    sigmas, modes, weights, solver = _eigenpairs(frozen, slice(0, -1), shift, grid_size,
                                                 num_modes, extrapolate)
    return EigenSystem(sigmas, modes, np.linspace(0.0, R0, grid_size + 1), weights,
                       D, R0, gamma0, 0.0, solver, n_dim=n_dim, radial=True)


def eigen_header(eig: EigenSystem) -> dict:
    """JSON-ready metadata block describing an eigen solve."""
    return {
        "schema_version": 1,
        "kind": "radial" if eig.radial else "interval",
        "D": eig.D,
        "domain_size": eig.L0,
        "gamma0": eig.gamma0,
        "gamma1": eig.gamma1,
        "n_dim": eig.n_dim,
        "grid_size": eig.grid_size,
        "num_modes": eig.num_modes,
        "solver": eig.solver,
        "sigmas": [float(s) for s in eig.sigmas],
    }


def eigen_to_csv(eig: EigenSystem, path) -> None:
    """Write the grid and mode columns: xi, g_1, ..., g_k."""
    write_csv(path, ["xi"] + [f"g_{k + 1}" for k in range(eig.num_modes)],
              [np.column_stack((eig.grid, eig.modes.T))])
