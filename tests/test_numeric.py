import math

import numpy as np
import pytest

from growthdiff.exact import (build_radial_series, build_series,
                              eval_radial_series, eval_series)
from growthdiff.motion import (CriticalMotion, DomainCollapsedError,
                               PhysicsParams, SeparableMotion, eval_motion)
from growthdiff.numeric import (_BLOCK, grid_manifest, grid_to_csv, solve_radial, solve_u,
                               solve_w)
from growthdiff.transforms import initial_W_from_psi, psi_from_W, u_from_w


class TestFieldSolver:
    def test_stationary_interval_single_mode(self, physics):
        motion = SeparableMotion.fixed_length(physics, math.pi)
        sol = solve_u(motion, np.sin, grid_size=512, dt=1e-4, T=1.0)
        expected = math.exp((physics.f0 - 1.0) * 1.0) * np.sin(sol.grid)
        assert (np.max(np.abs(sol.slice_at(1.0) - expected))
                < 1e-5 * np.max(np.abs(expected)))

    def test_zero_data_stays_zero(self, physics):
        motion = SeparableMotion.linear_length(physics, 1.0, 0.5)
        sol = solve_u(motion, np.zeros(129), grid_size=128, dt=1e-3, T=0.5)
        assert np.all(sol.values == 0.0)

    def test_boundaries_pinned_and_values_finite(self, physics):
        motion = SeparableMotion.sqrt_length(physics, 2.0, 0.5, gamma1=0.2, c=0.1)
        sol = solve_u(motion, lambda xi: np.sin(0.5 * np.pi * xi),
                      grid_size=128, dt=1e-3, T=1.0)
        assert np.all(sol.values[:, 0] == 0.0)
        assert np.all(sol.values[:, -1] == 0.0)
        assert np.all(np.isfinite(sol.values))

    def test_nonnegative_data_stays_essentially_nonnegative(self, physics):
        motion = SeparableMotion.fixed_length(physics, 1.0)
        sol = solve_u(motion, lambda xi: np.sin(np.pi * xi),
                      grid_size=256, dt=1e-3, T=1.0)
        assert np.min(sol.values) >= -1e-10 * np.max(sol.values)

    def test_determinism(self, physics):
        motion = SeparableMotion.linear_length(physics, 1.0, 0.5, c=0.1)
        ic = lambda xi: np.sin(np.pi * xi)
        a = solve_u(motion, ic, grid_size=128, dt=1e-3, T=0.5)
        b = solve_u(motion, ic, grid_size=128, dt=1e-3, T=0.5)
        assert np.array_equal(a.values, b.values)

    def test_spatial_convergence_is_second_order(self, physics):
        motion = SeparableMotion.sqrt_length(physics, 2.0, 0.5, gamma1=0.2, c=0.1)
        u0 = lambda xi: np.sin(0.5 * np.pi * xi)
        ref = build_series(motion, u0, grid_size=1024, num_modes=32,
                           extrapolate=True)
        T = 0.25
        errs = []
        for g in (64, 128, 256):
            sol = solve_u(motion, u0, grid_size=g, dt=2.5e-5, T=T,
                          output_times=[T])
            errs.append(np.max(np.abs(sol.slice_at(T) - eval_series(ref, sol.grid, T))))
        for i in range(2):
            assert 1.8 < math.log2(errs[i] / errs[i + 1]) < 2.2

    def test_temporal_convergence_is_second_order(self, physics):
        motion = SeparableMotion.sqrt_length(physics, 2.0, 0.5, gamma1=0.2, c=0.1)
        u0 = lambda xi: np.sin(0.5 * np.pi * xi)
        T = 0.25
        ref = solve_u(motion, u0, grid_size=256, dt=1.25e-4, T=T,
                      output_times=[T]).slice_at(T)
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            sol = solve_u(motion, u0, grid_size=256, dt=dt, T=T, output_times=[T])
            errs.append(np.max(np.abs(sol.slice_at(T) - ref)))
        for i in range(2):
            assert 1.8 < math.log2(errs[i] / errs[i + 1]) < 2.2

    def test_domain_shrinks_faster_than_growth_in_nested_comparison(self, physics):
        inner = SeparableMotion.fixed_length(physics, 1.0)
        outer = SeparableMotion.linear_length(physics, 1.0, 1.0)
        ic = lambda xi: np.sin(np.pi * xi)
        si = solve_u(inner, ic, grid_size=256, dt=1e-3, T=1.0)
        so = solve_u(outer, ic, grid_size=256, dt=1e-3, T=1.0)
        for t in (0.5, 1.0):
            L = eval_motion(outer, t).L
            x = si.grid[1:-1]
            on_outer = np.interp(x / L, so.grid, so.slice_at(t))
            assert np.min(on_outer - si.slice_at(t)[1:-1]) >= -1e-9


def _dense_operator(kind, motion, grid, t, n_dim):
    """Full-grid matrix of the spatial operator at time t; Dirichlet rows are zero."""
    st = eval_motion(motion, t)
    D, f0 = motion.physics.D, motion.physics.f0
    h = grid[1] - grid[0]
    n = grid.size
    A = np.zeros((n, n))
    if kind == "radial":
        R0 = grid[-1]
        d_eff = D * (motion.L0 / st.L) ** 2
        for j in range(n - 1):
            lo, hi = max(grid[j] - 0.5 * h, 0.0), grid[j] + 0.5 * h
            mu = (hi ** n_dim - lo ** n_dim) / n_dim
            flux_hi = d_eff * hi ** (n_dim - 1) / (mu * h)
            flux_lo = d_eff * lo ** (n_dim - 1) / (mu * h) if j > 0 else 0.0
            A[j, j + 1] = flux_hi
            if j > 0:
                A[j, j - 1] = flux_lo
            A[j, j] = (-(flux_hi + flux_lo)
                       + st.Lddot * st.L / (16.0 * D) * (grid[j] ** 2 / R0 ** 2 - 1.0))
        return A
    d_eff = D * (motion.L0 / st.L) ** 2
    for j in range(1, n - 1):
        x = grid[j] / motion.L0
        if kind == "u":
            vel = (st.Adot * motion.L0 + grid[j] * st.Ldot) / st.L
            A[j, j - 1] = d_eff / h ** 2 - vel / (2.0 * h)
            A[j, j + 1] = d_eff / h ** 2 + vel / (2.0 * h)
            A[j, j] = -2.0 * d_eff / h ** 2 + f0
        else:
            A[j, j - 1] = A[j, j + 1] = d_eff / h ** 2
            A[j, j] = -2.0 * d_eff / h ** 2 + st.Lddot * st.L / (4.0 * D) * x * (x - 1.0)
    return A


class TestMarchKernel:
    @pytest.mark.parametrize("theta", [0.5, 0.75])
    @pytest.mark.parametrize("kind", ["u", "w", "radial"])
    def test_steps_match_dense_full_system_solve(self, physics, kind, theta):
        dt, n_steps = 2e-3, 4
        times = [k * dt for k in range(n_steps + 1)]
        if kind == "u":
            motion = SeparableMotion.sqrt_length(physics, 2.0, 0.5, gamma1=0.2, c=0.1)
            sol = solve_u(motion, lambda xi: np.sin(0.5 * np.pi * xi), grid_size=16,
                          dt=dt, T=times[-1], output_times=times, theta=theta)
        elif kind == "w":
            motion = CriticalMotion(physics, alpha=1.5)
            sol = solve_w(motion, lambda xi: np.sin(np.pi * xi / motion.L0), grid_size=16,
                          dt=dt, T=times[-1], output_times=times, theta=theta)
        else:
            motion = CriticalMotion(physics, alpha=2.5)
            R0 = 0.5 * motion.L0
            sol = solve_radial(motion, lambda r: np.cos(0.5 * np.pi * r / R0), 3,
                               grid_size=16, dt=dt, T=times[-1], output_times=times,
                               theta=theta)
        eye = np.eye(sol.grid.size)
        v = sol.values[0]
        for k in range(n_steps):
            A = _dense_operator(kind, motion, sol.grid, (k + 0.5) * dt, sol.n_dim)
            v = np.linalg.solve(eye - theta * dt * A, (eye + (1.0 - theta) * dt * A) @ v)
            assert (np.max(np.abs(sol.values[k + 1] - v))
                    <= 1e-13 * np.max(np.abs(v)))

    @staticmethod
    def _run(physics, kind, dt, output_times):
        T = output_times[-1]
        if kind == "u":
            motion = SeparableMotion.sqrt_length(physics, 2.0, 0.5, gamma1=0.2, c=0.1)
            sol = solve_u(motion, lambda xi: np.sin(0.5 * np.pi * xi), grid_size=16,
                          dt=dt, T=T, output_times=output_times)
        elif kind == "w":
            motion = CriticalMotion(physics, alpha=1.5)
            sol = solve_w(motion, lambda xi: np.sin(np.pi * xi / motion.L0), grid_size=16,
                          dt=dt, T=T, output_times=output_times)
        else:
            motion = CriticalMotion(physics, alpha=2.5)
            R0 = 0.5 * motion.L0
            sol = solve_radial(motion, lambda r: np.cos(0.5 * np.pi * r / R0), 3,
                               grid_size=16, dt=dt, T=T, output_times=output_times)
        return motion, sol

    @pytest.mark.parametrize("kind", ["u", "w", "radial"])
    def test_steps_across_block_seams_match_dense_solve(self, physics, kind):
        # Two block seams and a short last block: each step, from the stored
        # slice before it, is one dense full-grid theta step.
        dt, n_steps = 2e-3, 2 * _BLOCK + 6
        motion, sol = self._run(physics, kind, dt, [k * dt for k in range(n_steps + 1)])
        assert sol.times.size == n_steps + 1
        eye = np.eye(sol.grid.size)
        for k in range(n_steps):
            A = _dense_operator(kind, motion, sol.grid, (k + 0.5) * dt, sol.n_dim)
            v = np.linalg.solve(eye - 0.5 * dt * A, (eye + 0.5 * dt * A) @ sol.values[k])
            assert (np.max(np.abs(sol.values[k + 1] - v))
                    <= 1e-13 * np.max(np.abs(v))), f"step {k} -> {k + 1}"

    @pytest.mark.parametrize("kind", ["u", "w", "radial"])
    def test_last_slice_does_not_depend_on_the_output_times(self, physics, kind):
        dt, n_steps = 2e-3, 2 * _BLOCK + 6
        every = [k * dt for k in range(n_steps + 1)]
        _, dense = self._run(physics, kind, dt, every)
        _, sparse = self._run(physics, kind, dt, every[-1:])
        assert sparse.times.size == 1
        assert np.array_equal(dense.values[-1], sparse.values[-1])


class TestPotentialSolver:
    def test_centred_fixed_interval_is_plain_heat_flow(self, physics):
        motion = SeparableMotion.symmetric(physics, math.pi)
        sol = solve_w(motion, np.sin, grid_size=1024, dt=1e-3, T=0.5)
        expected = math.exp(-0.5) * np.sin(sol.grid)
        assert (np.max(np.abs(sol.slice_at(0.5) - expected))
                < 1e-6 * np.max(np.abs(expected)))

    def test_consistent_with_field_solver_through_the_substitution(self, physics):
        motion = CriticalMotion(physics, alpha=1.0, L0_offset=1.0)
        grid = np.linspace(0.0, 1.0, 1025)
        w0 = np.sin(math.pi * grid)
        u0 = u_from_w(motion, grid, 0.0, w0)
        outs = [0.0, 0.5, 1.0]
        sw = solve_w(motion, w0, grid_size=1024, dt=5e-4, T=1.0, output_times=outs)
        su = solve_u(motion, u0, grid_size=1024, dt=5e-4, T=1.0, output_times=outs)
        for t in (0.5, 1.0):
            direct = su.slice_at(t)[1:-1]
            mapped = u_from_w(motion, grid[1:-1], t, sw.slice_at(t)[1:-1])
            assert (np.max(np.abs(direct - mapped))
                    < 1e-5 * np.max(np.abs(direct)))

    def test_off_centre_motion_rejected(self, physics):
        motion = SeparableMotion.fixed_length(physics, math.pi)
        with pytest.raises(ValueError, match="centred"):
            solve_w(motion, np.sin, grid_size=64, dt=1e-3, T=0.5)


class TestRadialSolver:
    def test_stationary_ball_fundamental_mode(self, physics):
        motion = SeparableMotion.symmetric(physics, 2.0)
        sol = solve_radial(motion, lambda r: np.sinc(r), 3, grid_size=1024,
                           dt=2e-4, T=0.5)
        expected = math.exp(-math.pi ** 2 * 0.5) * np.sinc(sol.grid)
        assert (np.max(np.abs(sol.slice_at(0.5) - expected))
                < 1e-5 * np.max(np.abs(expected)))

    def test_one_dimensional_ball_is_half_of_the_interval_run(self, physics):
        motion = SeparableMotion.symmetric(physics, 2.0, a=1.0)
        sw = solve_w(motion, lambda xi: np.sin(0.5 * math.pi * xi),
                     grid_size=512, dt=1e-3, T=1.0)
        sr = solve_radial(motion, lambda r: np.cos(0.5 * math.pi * r), 1,
                          grid_size=256, dt=1e-3, T=1.0)
        half = sw.slice_at(1.0)[256:]
        assert (np.max(np.abs(sr.slice_at(1.0) - half))
                < 1e-8 * np.max(np.abs(half)))

    def test_matches_radial_series(self, physics):
        motion = SeparableMotion.symmetric(physics, 2.0, a=1.0)
        psi0 = lambda r: np.cos(0.5 * math.pi * r)
        W0 = lambda r: initial_W_from_psi(motion, r, psi0(r), 3)
        num = solve_radial(motion, W0, 3, grid_size=512, dt=5e-4, T=1.0)
        ser = build_radial_series(motion, psi0, 3, grid_size=512, num_modes=32,
                                  extrapolate=True)
        for t in (0.5, 1.0):
            interior = num.grid[:-1]
            psi_num = psi_from_W(motion, interior, t, num.slice_at(t)[:-1], 3)
            psi_ser = eval_radial_series(ser, interior, t)
            assert (np.max(np.abs(psi_num - psi_ser))
                    < 1e-4 * np.max(np.abs(psi_ser)))

    def test_boundary_node_is_exactly_zero(self, physics):
        motion = CriticalMotion(physics, alpha=2.5)
        R0 = 0.5 * motion.L0
        sol = solve_radial(motion, lambda r: np.cos(0.5 * np.pi * r / R0), 3,
                           grid_size=64, dt=1e-2, T=5.0)
        assert np.all(sol.values[:, -1] == 0.0)
        assert np.all(np.isfinite(sol.values))

    def test_dimension_validation(self, physics):
        motion = SeparableMotion.symmetric(physics, 2.0)
        with pytest.raises(ValueError, match="n_dim"):
            solve_radial(motion, lambda r: np.sinc(r), 4, grid_size=64,
                         dt=1e-3, T=0.1)


class TestValidation:
    def test_peclet_guard(self, physics):
        motion = SeparableMotion.fixed_length(physics, 1.0, c=50.0)
        with pytest.raises(ValueError, match="Peclet"):
            solve_u(motion, lambda xi: np.sin(np.pi * xi), grid_size=8,
                    dt=1e-4, T=0.1)

    def test_peclet_guard_names_the_first_breach_inside_a_block(self, physics):
        # The cell Peclet number first passes 2 at step 313, inside a block.
        motion = SeparableMotion.linear_length(physics, 1.0, 1.0, c=3.0)
        with pytest.raises(ValueError) as err:
            solve_u(motion, lambda xi: np.sin(np.pi * xi), grid_size=8, dt=1e-2, T=5.0)
        assert str(err.value) == ("cell Peclet number 2.00 exceeds 2 at t=3.135; "
                                  "increase grid_size to at least 10")

    def test_horizon_guard(self, physics):
        motion = SeparableMotion.sqrt_length(physics, 1.0, -0.5)
        with pytest.raises(DomainCollapsedError):
            solve_u(motion, lambda xi: np.sin(np.pi * xi), grid_size=64,
                    dt=1e-3, T=1.5)

    def test_initial_data_must_vanish(self, physics):
        motion = SeparableMotion.fixed_length(physics, 1.0)
        with pytest.raises(ValueError, match="vanish"):
            solve_u(motion, lambda xi: np.cos(np.pi * xi), grid_size=64,
                    dt=1e-3, T=0.1)

    @pytest.mark.parametrize("kwargs", [
        {"grid_size": 4},
        {"dt": -1e-3},
        {"theta": 1.5},
        {"theta": 0.0},
        {"theta": 0.49},
    ])
    def test_parameter_validation(self, physics, kwargs):
        motion = SeparableMotion.fixed_length(physics, 1.0)
        base = dict(grid_size=64, dt=1e-3, T=0.1)
        base.update(kwargs)
        with pytest.raises(ValueError):
            solve_u(motion, lambda xi: np.sin(np.pi * xi), **base)

    def test_slice_requires_stored_time(self, physics):
        motion = SeparableMotion.fixed_length(physics, 1.0)
        sol = solve_u(motion, lambda xi: np.sin(np.pi * xi), grid_size=64,
                      dt=1e-3, T=0.5, output_times=[0.0, 0.5])
        with pytest.raises(ValueError, match="output time"):
            sol.slice_at(0.3)


class TestExport:
    def test_manifest_and_csv(self, physics, tmp_path):
        motion = SeparableMotion.fixed_length(physics, 1.0)
        sol = solve_u(motion, lambda xi: np.sin(np.pi * xi), grid_size=16,
                      dt=1e-2, T=0.1, output_times=[0.0, 0.1])
        doc = grid_manifest(sol)
        assert doc["kind"] == "u"
        assert doc["grid_size"] == 16
        assert doc["num_output_times"] == 2
        path = tmp_path / "run.csv"
        grid_to_csv(sol, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,xi,value"
        assert len(lines) == 1 + 2 * 17
