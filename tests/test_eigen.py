import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.optimize import brentq
from scipy.special import j0, spherical_jn

from growthdiff.eigen import (eigen_header, interval_profiles, principal_eigen_bound,
                              radial_principal_bound, radial_profiles, solve_radial, solve_sl)
from growthdiff.motion import ParameterError


class TestInterval:
    def test_sine_baseline(self):
        eig = solve_sl(1.0, math.pi, 0.0, 0.0, grid_size=512, num_modes=4,
                       extrapolate=True)
        for n, sigma in enumerate(eig.sigmas, start=1):
            assert sigma == pytest.approx(-float(n ** 2), abs=1e-6)
        xi = eig.grid
        sine = np.sin(xi)
        sine /= np.sqrt(np.trapezoid(sine ** 2, xi))
        g1 = eig.modes[0] / np.sqrt(np.trapezoid(eig.modes[0] ** 2, xi))
        assert np.max(np.abs(g1 - sine)) < 1e-4

    def test_mode_conventions(self):
        eig = solve_sl(1.0, 1.0, -2.0, 1.0, grid_size=256, num_modes=6)
        h = eig.grid[1] - eig.grid[0]
        for k, g in enumerate(eig.modes):
            assert g[0] == 0.0 and g[-1] == 0.0
            assert g[1] > 0.0                        # slope sign convention
            norm = np.trapezoid(g ** 2, dx=h)
            assert norm == pytest.approx(1.0, rel=1e-12)
            for other in eig.modes[k + 1:]:
                assert abs(np.trapezoid(g * other, dx=h)) < 1e-8
        assert np.all(np.diff(eig.sigmas) < 0.0)
        assert np.all(eig.modes[0][1:-1] > 0.0)

    def test_matches_dense_solver(self):
        D, L0, g0, g1 = 0.7, 1.3, -2.0, 1.5
        eig = solve_sl(D, L0, g0, g1, grid_size=256, num_modes=3, extrapolate=False)
        n = 255
        h = L0 / 256
        xi = np.linspace(h, L0 - h, n)
        q = g0 * xi ** 2 / (4 * D * L0 ** 4) + g1 * xi / (2 * D * L0 ** 3)
        main = -2.0 * D / h ** 2 + q
        off = np.full(n - 1, D / h ** 2)
        dense = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
        ref = np.sort(eigh(dense, eigvals_only=True))[::-1][:3]
        assert np.allclose(eig.sigmas, ref, rtol=1e-10, atol=1e-10)

    def test_positive_linear_potential_raises_sigma1(self):
        base = solve_sl(1.0, 1.0, 0.0, 0.0, grid_size=256, num_modes=1,
                        extrapolate=True)
        lifted = solve_sl(1.0, 1.0, 0.0, 1.0, grid_size=256, num_modes=1,
                          extrapolate=True)
        assert base.sigmas[0] == pytest.approx(-math.pi ** 2, abs=1e-4)
        assert lifted.sigmas[0] > base.sigmas[0]

    def test_residual_convergence_order(self):
        errs = []
        for n in (128, 256, 512):
            eig = solve_sl(1.0, 1.0, -3.0, 2.0, grid_size=n, num_modes=1,
                           extrapolate=False)
            errs.append(eig.sigmas[0])
        fine = solve_sl(1.0, 1.0, -3.0, 2.0, grid_size=4096, num_modes=1,
                        extrapolate=False).sigmas[0]
        e = [abs(v - fine) for v in errs]
        order1 = math.log2(e[0] / e[1])
        order2 = math.log2(e[1] / e[2])
        assert 1.8 <= order1 <= 2.2
        assert 1.8 <= order2 <= 2.2

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_sl(0.0, 1.0, 0.0, 0.0, grid_size=128, num_modes=2)
        with pytest.raises(ValueError):
            solve_sl(1.0, 1.0, 0.0, 0.0, grid_size=32, num_modes=2)
        with pytest.raises(ValueError):
            solve_sl(1.0, 1.0, 0.0, 0.0, grid_size=128, num_modes=64)


class TestPrincipalBound:
    def test_reference_values(self):
        assert principal_eigen_bound(1.0, 0.0, 1.0, 1.0) == pytest.approx(-0.5)
        assert principal_eigen_bound(2.0, 0.0, 1.0, 1.0) == pytest.approx(-1.0)
        assert principal_eigen_bound(1.0, 2.0, 1.0, 1.0) == pytest.approx(0.5)

    def test_rejects_zero_rho(self):
        with pytest.raises(ValueError):
            principal_eigen_bound(0.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("D, L0", [(0.0, 1.0), (1.0, -1.0)])
    def test_rejects_nonpositive_diffusivity_or_length(self, D, L0):
        with pytest.raises(ParameterError, match="^D and L0 must be positive$"):
            principal_eigen_bound(1.0, 0.0, D, L0)

    @pytest.mark.parametrize("rho, n_dim, message", [
        (0.0, 2, "the shrinking-case bound requires rho != 0"),
        (1.0, 0, "n_dim must be a positive integer"),
    ], ids=["zero-rho", "zero-dimension"])
    def test_radial_bound_refusals(self, rho, n_dim, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            radial_principal_bound(rho, n_dim, 1.0)

    def test_negative_gamma0_example(self):
        eig = solve_sl(1.0, 1.0, -1.0, 0.0, grid_size=512, num_modes=1)
        assert eig.sigmas[0] < -0.5

    def test_sweep_is_strict(self, rng):
        D = L0 = 1.0
        for _ in range(10):
            rho = rng.uniform(0.1, 5.0)
            gamma1 = rng.uniform(-5.0, 5.0)
            eig = solve_sl(D, L0, -rho ** 2, gamma1, grid_size=512, num_modes=1)
            assert eig.sigmas[0] < principal_eigen_bound(rho, gamma1, D, L0)

    def test_selfadjoint_form_lambda(self, rng):
        # The Gaussian substitution turns the mode equation into a weighted
        # self-adjoint problem whose eigenvalue lambda = 1 + 2 L0^2 sigma1 /
        # |rho| - gamma1^2 / (2 D |rho|^3) must be negative; the identity
        # lambda = (2 L0^2 / |rho|) (sigma1 - bound) ties it to the bound.
        for _ in range(10):
            D = rng.uniform(0.5, 2.0)
            L0 = rng.uniform(0.5, 2.0)
            rho = rng.uniform(0.3, 3.0)
            gamma1 = rng.uniform(-3.0, 3.0)
            sigma1 = solve_sl(D, L0, -rho ** 2, gamma1, grid_size=512,
                              num_modes=1).sigmas[0]
            lam = 1.0 + 2.0 * L0 ** 2 * sigma1 / rho - gamma1 ** 2 / (2.0 * D * rho ** 3)
            shifted = (2.0 * L0 ** 2 / rho) * (
                sigma1 - principal_eigen_bound(rho, gamma1, D, L0))
            assert lam == pytest.approx(shifted, rel=1e-12, abs=1e-12)
            assert lam < 0.0


class TestRadial:
    def test_ball_baselines(self):
        for n_dim, expect in ((1, -(math.pi / 2.0) ** 2),
                              (2, -brentq(j0, 2.0, 3.0) ** 2),
                              (3, -math.pi ** 2)):
            eig = solve_radial(1.0, 1.0, 0.0, n_dim, grid_size=1024, num_modes=2)
            assert eig.sigmas[0] == pytest.approx(expect, rel=1e-6)

    def test_three_ball_mode_shape(self):
        eig = solve_radial(1.0, math.pi, 0.0, 3, grid_size=512, num_modes=1)
        assert eig.sigmas[0] == pytest.approx(-1.0, abs=1e-5)
        r = eig.grid[1:-1]
        ref = spherical_jn(0, r)
        ref /= np.sqrt(np.trapezoid(ref ** 2, r))
        g1 = eig.modes[0][1:-1] / np.sqrt(np.trapezoid(eig.modes[0][1:-1] ** 2, r))
        assert np.max(np.abs(g1 - ref)) < 1e-3

    def test_negative_gamma0_bound(self):
        # sigma1 < -n rho / (2 R0^2) for gamma0 = -rho^2.
        eig = solve_radial(1.0, 1.0, -1.0, 2, grid_size=512, num_modes=1)
        assert eig.sigmas[0] < radial_principal_bound(1.0, 2, 1.0)
        assert radial_principal_bound(1.0, 2, 1.0) == pytest.approx(-1.0)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            solve_radial(1.0, 1.0, 0.0, 4, grid_size=256, num_modes=1)

    def test_ordering_and_normalization(self):
        eig = solve_radial(1.0, 1.0, -2.0, 2, grid_size=512, num_modes=4)
        assert np.all(np.diff(eig.sigmas) < 0.0)
        assert np.all(eig.modes[0][1:-1] > 0.0)


@pytest.mark.parametrize("grid_size", [128, 256, 512])
def test_extrapolation_is_richardson_of_the_two_full_solves(grid_size):
    # The coarse half-grid solve keeps no modes; its eigenvalues are those of
    # the full solve at that grid, bit for bit.
    def extrapolated(solve, *args):
        fine, coarse = (solve(*args, grid_size=g, num_modes=8).sigmas
                        for g in (grid_size, grid_size // 2))
        ex = solve(*args, grid_size=grid_size, num_modes=8, extrapolate=True)
        assert np.array_equal(ex.sigmas, (4.0 * fine - coarse) / 3.0)

    extrapolated(solve_sl, 0.7, 1.3, -2.0, 1.5)
    for n_dim in (1, 2, 3):
        extrapolated(solve_radial, 0.7, 1.3, -2.0, n_dim)


def _sturm_principal(row, guess):
    """The largest eigenvalue of the float tridiagonal ``row`` ([sub | main |
    super]): 30-digit Sturm bisection, 40 halvings of a 1e-9 relative bracket."""
    n = (row.size + 2) // 3
    with mpmath.workdps(30):
        d = [mpmath.mpf(float(x)) for x in row[n - 1:2 * n - 1]]
        e2 = [mpmath.mpf(float(x)) ** 2 for x in row[2 * n - 1:]]

        def below(x):
            # eigenvalues below x: the negative pivots of T - x I
            q = d[0] - x
            count = int(q < 0)
            for di, ei2 in zip(d[1:], e2):
                q = di - x - ei2 / q
                count += q < 0
            return count

        lo, hi = (mpmath.mpf(guess) + s * 1e-9 * abs(guess) for s in (-1, 1))
        assert (below(lo), below(hi)) == (n - 1, n)
        for _ in range(40):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if below(mid) == n else (mid, hi)
        return float((lo + hi) / 2)


@pytest.mark.parametrize("case, num_modes, solver", [
    ("interval", 4, "dstebz+dstein"),
    ("interval", 32, "dstemr"),
    ("ball", 2, "dstebz+dstein"),
])
def test_principal_eigenvalue_against_an_exact_count(case, num_modes, solver):
    # Both routes land within 3e-12 relative of the stored float operator's
    # principal eigenvalue; bisection stopped at eps * ||T|| missed by 4.9e-12
    # to 6.3e-11 on these cases.
    if case == "interval":
        D, L0, g0, g1 = 1.0, math.pi, 0.2, 0.3
        eig = solve_sl(D, L0, g0, g1, grid_size=512, num_modes=num_modes)
        coef = np.array([D, g0 / (4.0 * D * L0 ** 2), (g1 + 0.5 * g0) / (2.0 * D * L0 ** 2)])
        row = coef @ interval_profiles(L0, 512)
    else:
        eig = solve_radial(1.0, 1.0, 0.0, 2, grid_size=2048, num_modes=num_modes)
        row = np.array([1.0, 0.0]) @ radial_profiles(1.0, 2, 2048)[0]
    assert eig.solver == solver
    exact = _sturm_principal(row, eig.sigmas[0])
    assert abs(eig.sigmas[0] - exact) < 3e-12 * abs(exact)


def test_the_size_rule_routes_agree():
    # At grid 512 (511 unknowns) 8 modes take MRRR and 4 take bisection.
    args = (0.7, 1.3, -2.0, 1.5)
    many, few = (solve_sl(*args, grid_size=512, num_modes=k) for k in (8, 4))
    assert (many.solver, few.solver) == ("dstemr", "dstebz+dstein")
    assert [eigen_header(e)["solver"] for e in (many, few)] == ["dstemr", "dstebz+dstein"]
    assert np.allclose(many.sigmas[:4], few.sigmas, rtol=1e-11, atol=0.0)
    assert np.max(np.abs(many.modes[:4] - few.modes)) < 1e-8
