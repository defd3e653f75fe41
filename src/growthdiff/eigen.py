"""Sturm-Liouville eigenproblems for the separable moving-interval solutions.

The fixed-domain substitution turns each separable boundary motion into

    sigma g = D g'' + (gamma0 xi^2 / (4 D L0^4) + gamma1 xi / (2 D L0^3)) g

on (0, L0) with Dirichlet ends.  This module discretises that operator (and
its radially symmetric n-ball analogue) with second-order central differences
on a uniform grid and solves the resulting symmetric tridiagonal eigenproblem
with LAPACK.  A closed-form upper bound for the principal eigenvalue in the
shrinking case gamma0 = -rho^2 < 0 is also provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .output import write_csv

__all__ = [
    "EigenSystem",
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
    """

    sigmas: np.ndarray
    modes: np.ndarray
    grid: np.ndarray
    weights: np.ndarray
    D: float
    L0: float
    gamma0: float
    gamma1: float
    n_dim: int = 1
    radial: bool = False

    @property
    def grid_size(self) -> int:
        return self.grid.size - 1

    @property
    def num_modes(self) -> int:
        return self.sigmas.size


def _validate_sizes(grid_size: int, num_modes: int) -> None:
    if grid_size < MIN_GRID:
        raise ValueError(f"grid_size must be at least {MIN_GRID}, got {grid_size}")
    if num_modes < 1 or num_modes > grid_size // 4:
        raise ValueError(
            f"num_modes must lie in [1, grid_size/4] = [1, {grid_size // 4}], got {num_modes}")


def _solve_sl_raw(D, L0, gamma0, gamma1, grid_size, num_modes, vectors=True):
    h = L0 / grid_size
    xi = np.linspace(0.0, L0, grid_size + 1)
    interior = xi[1:-1]
    q = gamma0 * interior ** 2 / (4.0 * D * L0 ** 4) + gamma1 * interior / (2.0 * D * L0 ** 3)
    diag = -2.0 * D / h ** 2 + q
    off = np.full(grid_size - 2, D / h ** 2)
    m = grid_size - 1
    found = eigh_tridiagonal(diag, off, eigvals_only=not vectors, select="i",
                             select_range=(m - num_modes, m - 1))
    # ascending from LAPACK; flip to descending so index 0 is the principal mode
    if not vectors:
        return found[::-1]
    vals, vecs = found
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    modes = np.zeros((num_modes, grid_size + 1))
    for k in range(num_modes):
        g = vecs[:, k]
        g = g / math.sqrt(h * float(np.dot(g, g)))
        if g[0] < 0.0:
            g = -g
        modes[k, 1:-1] = g
    weights = np.full(grid_size + 1, h)
    weights[0] = weights[-1] = 0.5 * h
    return vals, modes, xi, weights


def solve_sl(D: float, L0: float, gamma0: float, gamma1: float,
             grid_size: int = 512, num_modes: int = 8,
             extrapolate: bool = False) -> EigenSystem:
    """Solve the interval eigenproblem on a uniform grid.

    Parameters
    ----------
    D, L0, gamma0, gamma1 : float
        Diffusivity, domain length, and the two separability constants.
    grid_size : int
        Number of grid intervals (>= 64); grid_size + 1 nodes.
    num_modes : int
        Leading eigenpairs to return, at most grid_size / 4.
    extrapolate : bool
        If set, also solve at half resolution and Richardson-extrapolate the
        eigenvalues (the central-difference error is a clean h^2 term).  The
        modes are kept from the fine grid.
    """
    if D <= 0 or L0 <= 0:
        raise ValueError("D and L0 must be positive")
    _validate_sizes(grid_size, num_modes)
    vals, modes, xi, weights = _solve_sl_raw(D, L0, gamma0, gamma1, grid_size, num_modes)
    if extrapolate:
        if grid_size % 2 != 0:
            raise ValueError("extrapolation requires an even grid_size")
        coarse = _solve_sl_raw(D, L0, gamma0, gamma1, grid_size // 2, num_modes,
                               vectors=False)
        vals = (4.0 * vals - coarse) / 3.0
    return EigenSystem(vals, modes, xi, weights, D, L0, gamma0, gamma1)


def principal_eigen_bound(rho: float, gamma1: float, D: float, L0: float) -> float:
    """Strict upper bound for the principal eigenvalue when gamma0 = -rho^2 < 0.

    Completing the square in the Hermite-weighted form of the operator gives

        sigma_1 < -|rho| / (2 L0^2) + gamma1^2 / (4 D rho^2 L0^2).
    """
    if rho == 0.0:
        raise ValueError("the shrinking-case bound requires rho != 0")
    if D <= 0 or L0 <= 0:
        raise ValueError("D and L0 must be positive")
    r = abs(rho)
    return -r / (2.0 * L0 ** 2) + gamma1 ** 2 / (4.0 * D * rho ** 2 * L0 ** 2)


def radial_principal_bound(rho: float, n_dim: int, R0: float) -> float:
    """Ball analogue of the shrinking-case bound: sigma_1 < -n |rho| / (2 R0^2)."""
    if rho == 0.0:
        raise ValueError("the shrinking-case bound requires rho != 0")
    if n_dim < 1:
        raise ValueError("n_dim must be a positive integer")
    return -n_dim * abs(rho) / (2.0 * R0 ** 2)


def _radial_volumes(r: np.ndarray, h: float, n_dim: int) -> np.ndarray:
    """Cell volumes integral r^{n-1} dr over [r_j - h/2, r_j + h/2] (clipped at 0)."""
    lo = np.clip(r - 0.5 * h, 0.0, None)
    hi = r + 0.5 * h
    return (hi ** n_dim - lo ** n_dim) / n_dim


def _solve_radial_raw(D, R0, gamma0, n_dim, grid_size, num_modes, vectors=True):
    h = R0 / grid_size
    r = np.linspace(0.0, R0, grid_size + 1)
    # unknowns at j = 0 .. grid_size-1; Dirichlet at r = R0, regularity at r = 0
    rj = r[:-1]
    mu = _radial_volumes(rj, h, n_dim)
    face = (rj + 0.5 * h) ** (n_dim - 1)          # flux faces j+1/2
    q = gamma0 * rj ** 2 / (4.0 * D * R0 ** 4)
    upper = D * face / (mu * h)                   # coupling j -> j+1
    lower = D * face[:-1] / (mu[1:] * h)          # coupling j -> j-1
    diag = q.copy()
    diag[0] -= upper[0]
    diag[1:] -= upper[1:] + lower
    off = np.sqrt(upper[:-1] * lower)             # symmetrised off-diagonal
    m = grid_size
    found = eigh_tridiagonal(diag, off, eigvals_only=not vectors, select="i",
                             select_range=(m - num_modes, m - 1))
    if not vectors:
        return found[::-1]
    vals, vecs = found
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    # undo the diagonal similarity: v_j = q_j / sqrt(mu_j)
    scale = 1.0 / np.sqrt(mu)
    modes = np.zeros((num_modes, grid_size + 1))
    weights = np.zeros(grid_size + 1)
    weights[:-1] = mu
    for k in range(num_modes):
        v = vecs[:, k] * scale
        v = v / math.sqrt(float(np.sum(mu * v * v)))
        if v[0] < 0.0 or (v[0] == 0.0 and v[1] < 0.0):
            v = -v
        modes[k, :-1] = v
    return vals, modes, r, weights


def solve_radial(D: float, R0: float, gamma0: float, n_dim: int,
                 grid_size: int = 512, num_modes: int = 8,
                 extrapolate: bool = False) -> EigenSystem:
    """Radially symmetric eigenproblem on the n-ball of radius R0.

    sigma v = D (v'' + (n-1)/r v') + gamma0 r^2 / (4 D R0^4) v with v'(0) = 0
    and v(R0) = 0, discretised in conservative (finite-volume) form so the
    operator stays symmetric under the discrete volume weights.
    """
    if D <= 0 or R0 <= 0:
        raise ValueError("D and R0 must be positive")
    if n_dim not in (1, 2, 3):
        raise ValueError(f"n_dim must be 1, 2 or 3, got {n_dim}")
    _validate_sizes(grid_size, num_modes)
    vals, modes, r, weights = _solve_radial_raw(D, R0, gamma0, n_dim, grid_size, num_modes)
    if extrapolate:
        if grid_size % 2 != 0:
            raise ValueError("extrapolation requires an even grid_size")
        coarse = _solve_radial_raw(D, R0, gamma0, n_dim, grid_size // 2, num_modes,
                                   vectors=False)
        vals = (4.0 * vals - coarse) / 3.0
    return EigenSystem(vals, modes, r, weights, D, R0, gamma0, 0.0,
                       n_dim=n_dim, radial=True)


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
        "sigmas": [float(s) for s in eig.sigmas],
    }


def eigen_to_csv(eig: EigenSystem, path) -> None:
    """Write the grid and mode columns: xi, g_1, ..., g_k."""
    write_csv(path, ["xi"] + [f"g_{k + 1}" for k in range(eig.num_modes)],
              [np.column_stack((eig.grid, eig.modes.T))])
