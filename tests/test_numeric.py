import math
import warnings

import numpy as np
import pytest

import growthdiff.eigen as eigen
from growthdiff.eigen import solve_radial as radial_modes
from growthdiff.eigen import solve_sl
from growthdiff.exact import (TruncationWarning, build_radial_series, build_series,
                              eval_radial_series, eval_series)
from growthdiff.motion import (CriticalMotion, DomainCollapsedError, ParameterError,
                               PhysicsParams, SeparableMotion, TabulatedMotion, eval_motion,
                               validity_horizon)
import growthdiff.numeric as numeric
from growthdiff.numeric import (_BLOCK, StepRecord, grid_manifest, grid_to_csv, solve_radial,
                               solve_u, solve_w, w_weights)
from growthdiff.transforms import (initial_W_from_psi, initial_w_from_u, psi_from_W,
                                   u_from_w)

# Criterion 3's configurations, one per closed-form length law.
_FAMILIES = {
    "fixed": lambda ph: SeparableMotion.fixed_length(ph, math.pi, gamma1=0.5, c=0.5),
    "linear+": lambda ph: SeparableMotion.linear_length(ph, 1.0, 1.0, gamma1=0.3, c=0.2),
    "linear-": lambda ph: SeparableMotion.linear_length(ph, math.pi, -0.4, c=0.3),
    "sqrt+": lambda ph: SeparableMotion.sqrt_length(ph, 1.0, 1.0, gamma1=0.2, c=0.4),
    "sqrt-": lambda ph: SeparableMotion.sqrt_length(ph, 2.0, -0.5, gamma1=0.2, c=0.1),
    "quadneg": lambda ph: SeparableMotion(ph, 1.0, 2.0, 1.0, gamma1=0.2, c=0.3),
    "quadpos": lambda ph: SeparableMotion(ph, 1.0, 0.0, 1.0, gamma1=0.2, c=0.3),
}


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
    @staticmethod
    def _run(physics, kind, dt, output_times, n_dim=3):
        T = output_times[-1]
        if kind == "u":
            motion = SeparableMotion.sqrt_length(physics, 2.0, 0.5, gamma1=0.2, c=0.1)
            sol = solve_u(motion, lambda xi: np.sin(0.5 * np.pi * xi), grid_size=16,
                          dt=dt, T=T, output_times=output_times)
        elif kind in ("w", "w-asym"):
            # Even data on a centred motion marches the half interval; the
            # asymmetric twin keeps the full interval march covered.
            motion = CriticalMotion(physics, alpha=1.5)
            odd = 0.5 if kind == "w-asym" else 0.0
            sol = solve_w(motion, lambda xi: np.sin(np.pi * xi / motion.L0)
                          + odd * np.sin(2.0 * np.pi * xi / motion.L0), grid_size=16,
                          dt=dt, T=T, output_times=output_times)
        else:
            motion = CriticalMotion(physics, alpha=2.5)
            R0 = 0.5 * motion.L0
            sol = solve_radial(motion, lambda r: np.cos(0.5 * np.pi * r / R0), n_dim,
                               grid_size=16, dt=dt, T=T, output_times=output_times)
        return motion, sol

    @staticmethod
    def _dense_march(kind, motion, sol, dt, n_steps):
        """The explicit-product Crank-Nicolson march on the full grid, by dense solves."""
        eye = np.eye(sol.grid.size)
        v = sol.values[0]
        for k in range(n_steps):
            A = _dense_operator(kind, motion, sol.grid, (k + 0.5) * dt, sol.n_dim)
            v = np.linalg.solve(eye - 0.5 * dt * A, (eye + 0.5 * dt * A) @ v)
            yield v

    @pytest.mark.parametrize("kind", ["u", "w", "w-asym", "radial"])
    def test_steps_match_dense_full_system_solve(self, physics, kind):
        dt, n_steps = 2e-3, 4
        motion, sol = self._run(physics, kind, dt, [k * dt for k in range(n_steps + 1)])
        for k, v in enumerate(self._dense_march(kind, motion, sol, dt, n_steps)):
            assert (np.max(np.abs(sol.values[k + 1] - v))
                    <= 1e-13 * np.max(np.abs(v)))

    @pytest.mark.parametrize("kind", ["u", "w", "w-asym", "radial"])
    def test_long_march_matches_dense_explicit_product_march(self, physics, kind):
        # 2,000 steps: the update's roundoff must not build up against the
        # explicit-product form of the same step.
        dt, n_steps = 2e-3, 2000
        motion, sol = self._run(physics, kind, dt, [k * dt for k in range(n_steps + 1)])
        for k, v in enumerate(self._dense_march(kind, motion, sol, dt, n_steps)):
            assert (np.max(np.abs(sol.values[k + 1] - v))
                    <= 1e-12 * np.max(np.abs(v))), f"step {k + 1}"

    @pytest.mark.parametrize("kind", ["u", "w", "w-asym", "radial"])
    def test_steps_across_block_seams_match_dense_solve(self, physics, kind):
        # Two block seams and a short last block: each step, from the stored
        # slice before it, is one dense full-grid Crank-Nicolson step.
        dt, n_steps = 2e-3, 2 * _BLOCK + 6
        motion, sol = self._run(physics, kind, dt, [k * dt for k in range(n_steps + 1)])
        assert sol.times.size == n_steps + 1
        eye = np.eye(sol.grid.size)
        for k in range(n_steps):
            A = _dense_operator(kind, motion, sol.grid, (k + 0.5) * dt, sol.n_dim)
            v = np.linalg.solve(eye - 0.5 * dt * A, (eye + 0.5 * dt * A) @ sol.values[k])
            assert (np.max(np.abs(sol.values[k + 1] - v))
                    <= 1e-13 * np.max(np.abs(v))), f"step {k} -> {k + 1}"

    @pytest.mark.parametrize("kind", ["u", "w", "w-asym", "radial"])
    def test_cut_step_matches_dense_solves(self, physics, kind):
        # 0.0123 cuts the seventh step of 2e-3 in two; each piece is one dense
        # Crank-Nicolson step at its own midpoint and with its own length.
        times = [0.012, 0.0123, 0.014]
        motion, sol = self._run(physics, kind, 2e-3, times)
        assert sol.times.tolist() == times
        assert sol.steps.count == 8
        eye = np.eye(sol.grid.size)
        for k, (a, b) in enumerate(zip(times, times[1:])):
            A = _dense_operator(kind, motion, sol.grid, 0.5 * (a + b), sol.n_dim)
            v = np.linalg.solve(eye - 0.5 * (b - a) * A,
                                (eye + 0.5 * (b - a) * A) @ sol.values[k])
            assert (np.max(np.abs(sol.values[k + 1] - v))
                    <= 1e-13 * np.max(np.abs(v))), f"{a} -> {b}"

    def test_u_steps_match_dense_solve_where_the_velocity_changes_sign(self, physics):
        # Centred motion: V = Ldot (xi - L0/2) / L, so the constant and linear
        # advection profiles cancel at mid-domain and V changes sign there.
        motion = SeparableMotion.symmetric(physics, 2.0, a=1.0, b=0.5)
        dt, n_steps = 2e-3, 4
        st = eval_motion(motion, 0.5 * dt)
        assert st.Ldot > 0.0 and st.Adot == pytest.approx(-0.5 * st.Ldot)
        sol = solve_u(motion, lambda xi: np.sin(0.5 * np.pi * xi), grid_size=16, dt=dt,
                      T=n_steps * dt, output_times=[k * dt for k in range(n_steps + 1)])
        for k, v in enumerate(self._dense_march("u", motion, sol, dt, n_steps)):
            assert (np.max(np.abs(sol.values[k + 1] - v))
                    <= 1e-13 * np.max(np.abs(v)))

    @pytest.mark.parametrize("kind", ["u", "w", "w-asym", "radial"])
    def test_reruns_with_a_cut_step_are_bit_identical(self, physics, kind):
        # Three full blocks and a short fourth; 0.0123 cuts the seventh step.
        dt, n_steps = 2e-3, 3 * _BLOCK + 5
        times = [0.0, 0.0123, 0.1, n_steps * dt]
        _, a = self._run(physics, kind, dt, times)
        _, b = self._run(physics, kind, dt, times)
        assert a.steps.count == n_steps + 1
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("kind", ["u", "w", "w-asym", "radial"])
    def test_last_slice_does_not_depend_on_the_output_times(self, physics, kind):
        dt, n_steps = 2e-3, 2 * _BLOCK + 6
        every = [k * dt for k in range(n_steps + 1)]
        _, dense = self._run(physics, kind, dt, every)
        _, sparse = self._run(physics, kind, dt, every[-1:])
        assert sparse.times.size == 1
        assert np.array_equal(dense.values[-1], sparse.values[-1])

    @pytest.mark.parametrize("kind, n_dim", [("u", 1), ("w", 1), ("w-asym", 1), ("radial", 1),
                                             ("radial", 2), ("radial", 3)])
    def test_solver_follows_the_operator(self, physics, monkeypatch, kind, n_dim):
        # The potential forms are symmetric and go to dptsv; the advective u
        # form goes to dgtsv.  Every step calls exactly one of them.
        calls = []
        for name in ("dgtsv", "dptsv"):
            real = getattr(numeric, name)
            monkeypatch.setattr(numeric, name,
                                lambda *a, name=name, real=real: calls.append(name) or real(*a))
        dt, n_steps = 2e-3, _BLOCK + 6
        _, sol = self._run(physics, kind, dt, [k * dt for k in range(n_steps + 1)], n_dim)
        assert calls == ["dgtsv" if kind == "u" else "dptsv"] * sol.steps.count

    @pytest.mark.parametrize("n_dim", [1, 2, 3])
    def test_radial_profiles_are_bitwise_symmetric(self, physics, monkeypatch, n_dim):
        seen = []
        real = numeric._march
        monkeypatch.setattr(numeric, "_march",
                            lambda profiles, *a: seen.append(profiles) or real(profiles, *a))
        self._run(physics, "radial", 2e-3, [0.0, 2e-3], n_dim)
        (profiles,) = seen
        n = 16                                  # unknowns at r_0 .. r_15
        assert np.all(profiles[0, :n - 1] > 0.0)
        assert np.array_equal(profiles[:, :n - 1], profiles[:, 2 * n - 1:])

    @pytest.mark.parametrize("kind", ["u", "w", "w-asym", "radial"])
    def test_weights_are_one_array_read_per_chunk(self, physics, monkeypatch, kind):
        reads = []
        monkeypatch.setattr(numeric, "_CHUNK", 40)
        monkeypatch.setattr(numeric, "eval_motion",
                            lambda m, t: reads.append(t) or eval_motion(m, t))
        self._run(physics, kind, 0.01, [0.0, 0.5, 1.0])
        assert [r.size for r in reads] == [40, 40, 20]
        assert all(isinstance(r, np.ndarray) for r in reads)

    @pytest.mark.parametrize("kind", ["u", "w", "w-asym", "radial"])
    def test_chunk_size_changes_no_bit(self, physics, monkeypatch, kind):
        # 1,060 steps of 1e-3: the default chunk leaves a short last one.  The
        # cuts fall in the first step, on both sides of the seams at steps 280
        # (7 x 40) and 1024 (32 x 32), and in the last step.
        h, n = 1e-3, 1060
        times = [0.0, 0.3 * h, 279.5 * h, 280.25 * h, 0.5, 1023.7 * h, 1024.5 * h,
                 1059.4 * h, n * h]
        _, ref = self._run(physics, kind, h, times)
        assert ref.steps.count == n + 6
        for chunk in (1, 7, _BLOCK, _BLOCK + 8):
            monkeypatch.setattr(numeric, "_CHUNK", chunk)
            _, sol = self._run(physics, kind, h, times)
            assert sol.steps == ref.steps
            assert np.array_equal(sol.values, ref.values), f"_CHUNK = {chunk}"

    def test_u_weights_keep_the_scalar_reads_bits(self, physics, monkeypatch):
        # A separable array read gives L, Ldot and Adot to the bit, so a block's u
        # weights are the ones each step's scalar read gave, D (L0/L)^2 included.
        motion = SeparableMotion.sqrt_length(physics, 2.0, -0.5, gamma1=0.2, c=0.1)
        seen, march = [], numeric._march
        monkeypatch.setattr(numeric, "_march", lambda profiles, weights, *rest: seen.append(
            weights) or march(profiles, weights, *rest))
        solve_u(motion, lambda xi: np.sin(0.5 * np.pi * xi), grid_size=16, dt=0.1, T=1.0)
        ts = np.random.default_rng(5).uniform(0.0, 1.0, 20000)
        L0 = motion.L0
        scalar = [(physics.D * (L0 / st.L) ** 2, st.Adot * L0 / st.L, st.Ldot / st.L, physics.f0)
                  for st in (eval_motion(motion, t) for t in ts.tolist())]
        assert np.array_equal(seen[0](ts), np.array(scalar))


class TestPotentialSolver:
    def test_centred_fixed_interval_is_plain_heat_flow(self, physics):
        motion = SeparableMotion.symmetric(physics, math.pi)
        sol = solve_w(motion, np.sin, grid_size=1024, dt=1e-3, T=0.5)
        expected = math.exp(-0.5) * np.sin(sol.grid)
        assert (np.max(np.abs(sol.slice_at(0.5) - expected))
                < 1e-6 * np.max(np.abs(expected)))

    def test_centred_fixed_interval_with_asymmetric_data_is_plain_heat_flow(self, physics):
        # The twin of the run above on the full interval march: its odd mode
        # sin 2 xi keeps it off the half-interval route.
        motion = SeparableMotion.symmetric(physics, math.pi)
        sol = solve_w(motion, lambda xi: np.sin(xi) + 0.5 * np.sin(2.0 * xi), grid_size=1024,
                      dt=1e-3, T=0.5)
        expected = math.exp(-0.5) * np.sin(sol.grid) + 0.5 * math.exp(-2.0) * np.sin(2.0 * sol.grid)
        assert not np.array_equal(sol.values, sol.values[:, ::-1])
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

    def test_asymmetric_data_is_consistent_with_field_solver(self, physics):
        # The twin of the run above on the full interval march.
        motion = CriticalMotion(physics, alpha=1.0, L0_offset=1.0)
        grid = np.linspace(0.0, 1.0, 1025)
        w0 = np.sin(math.pi * grid) + 0.5 * np.sin(2.0 * math.pi * grid)
        u0 = u_from_w(motion, grid, 0.0, w0)
        outs = [0.0, 0.5, 1.0]
        sw = solve_w(motion, w0, grid_size=1024, dt=5e-4, T=1.0, output_times=outs)
        su = solve_u(motion, u0, grid_size=1024, dt=5e-4, T=1.0, output_times=outs)
        for t in (0.5, 1.0):
            direct = su.slice_at(t)[1:-1]
            mapped = u_from_w(motion, grid[1:-1], t, sw.slice_at(t)[1:-1])
            assert (np.max(np.abs(direct - mapped))
                    < 1e-5 * np.max(np.abs(direct)))

    def test_off_centre_principal_mode_decays_at_its_eigenvalue(self, physics):
        # A fixed length with an accelerating endpoint: w's operator is solve_sl's,
        # constant in time, so its principal mode only decays, as e^(sigma_1 t), up
        # to Crank-Nicolson's dt^2 sigma_1^3 t / 12 ~ 1e-7.
        motion = SeparableMotion.fixed_length(physics, math.pi, gamma1=0.5, c=0.5)
        eig = solve_sl(physics.D, math.pi, 0.0, 0.5, grid_size=512, num_modes=1)
        sol = solve_w(motion, eig.modes[0], grid_size=512, dt=1e-3, T=1.0)
        expected = math.exp(eig.sigmas[0]) * eig.modes[0]
        assert (np.max(np.abs(sol.slice_at(1.0) - expected))
                < 1e-6 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_any_motion_maps_back_to_the_series(self, physics, family):
        motion = _FAMILIES[family](physics)
        T = min(5.0, 0.8 * validity_horizon(motion))
        u0 = lambda xi: np.sin(np.pi * xi / motion.L0)
        grid = np.linspace(0.0, motion.L0, 513)
        times = [0.25 * T, 0.5 * T, 0.75 * T, T]
        sol = solve_w(motion, initial_w_from_u(motion, grid, u0(grid)), grid_size=512,
                      dt=1e-3, T=T, output_times=times)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            ref = build_series(motion, u0, grid_size=1024, num_modes=64, extrapolate=True)
            for t in times:
                exact = eval_series(ref, grid, t)
                mapped = u_from_w(motion, grid, t, sol.slice_at(t))
                assert np.max(np.abs(mapped - exact)) < 1e-4 * np.max(np.abs(exact)), t


class TestOneOperator:
    """numeric marches the profiles eigen freezes: where the motion's weights
    are the separable constants, the marched operator is eigen's, bit for bit."""

    @staticmethod
    def _capture(monkeypatch):
        frozen, marched = [], []
        eigh, march = eigen.eigh_tridiagonal, numeric._march
        monkeypatch.setattr(eigen, "eigh_tridiagonal",
                            lambda d, e, **kw: frozen.append((d, e)) or eigh(d, e, **kw))
        monkeypatch.setattr(numeric, "_march", lambda profiles, weights, *rest: marched.append(
            weights(np.array([0.0]))[0] @ profiles) or march(profiles, weights, *rest))
        return frozen, marched

    @staticmethod
    def _assert_same_operator(frozen, marched, n):
        ((diag, off),), (row,) = frozen, marched
        assert np.array_equal(row[:n - 1], off)
        assert np.array_equal(row[n - 1:2 * n - 1], diag)
        assert np.array_equal(row[2 * n - 1:], off)

    def test_w_operator_is_solve_sl_frozen(self, monkeypatch):
        # Dyadic D, L0 and gamma1 make Addot L / 2D and gamma1 / (2 D L0^2) one float.
        ph = PhysicsParams(D=0.5, f0=1.0)
        motion = SeparableMotion.fixed_length(ph, 2.0, gamma1=0.5, c=0.25)
        frozen, marched = self._capture(monkeypatch)
        solve_sl(ph.D, motion.L0, motion.gamma0, motion.gamma1, grid_size=64, num_modes=1)
        solve_w(motion, lambda xi: np.sin(0.5 * np.pi * xi), grid_size=64, dt=0.1, T=0.1)
        assert w_weights(motion, eval_motion(motion, 0.0))[2] != 0.0
        self._assert_same_operator(frozen, marched, 63)

    @pytest.mark.parametrize("n_dim", [1, 2, 3])
    def test_radial_operator_is_solve_radial_frozen(self, monkeypatch, n_dim):
        ph = PhysicsParams(D=0.7, f0=1.0)
        motion = SeparableMotion.symmetric(ph, 2.0, a=0.25, b=1.0)     # gamma0 = 0
        assert motion.gamma0 == 0.0
        frozen, marched = self._capture(monkeypatch)
        radial_modes(ph.D, 1.0, 0.0, n_dim, grid_size=64, num_modes=1)
        solve_radial(motion, lambda r: np.cos(0.5 * np.pi * r), n_dim, grid_size=64,
                     dt=0.1, T=0.1)
        self._assert_same_operator(frozen, marched, 64)


class TestRadialSolver:
    def test_stationary_ball_fundamental_mode(self, physics):
        motion = SeparableMotion.symmetric(physics, 2.0)
        sol = solve_radial(motion, lambda r: np.sinc(r), 3, grid_size=1024,
                           dt=2e-4, T=0.5)
        expected = math.exp(-math.pi ** 2 * 0.5) * np.sinc(sol.grid)
        assert (np.max(np.abs(sol.slice_at(0.5) - expected))
                < 1e-5 * np.max(np.abs(expected)))

    def test_one_dimensional_ball_is_half_of_the_interval_run(self, physics, monkeypatch):
        # The full interval march: this run would otherwise march the 1-ball itself.
        monkeypatch.setattr(numeric, "centering_defect", lambda motion: "forced")
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

    def test_peclet_guard_reads_the_left_end_node(self, physics):
        # The mirror image of the run above: V = (xi - 4) / L < 0, so max |V|
        # sits at the left interior node and the first breach is the same.
        motion = SeparableMotion.linear_length(physics, 1.0, 1.0, c=-4.0)
        st = eval_motion(motion, 3.135)
        left, right = ((st.Adot * motion.L0 + xi * st.Ldot) / st.L for xi in (1 / 8, 7 / 8))
        assert left < 0.0 and abs(left) > abs(right)
        with pytest.raises(ValueError) as err:
            solve_u(motion, lambda xi: np.sin(np.pi * xi), grid_size=8, dt=1e-2, T=5.0)
        assert str(err.value) == ("cell Peclet number 2.00 exceeds 2 at t=3.135; "
                                  "increase grid_size to at least 10")

    def test_indefinite_potential_step_is_refused(self):
        # At the step's midpoint the w operator's largest eigenvalue is about
        # 96.4, above 2/dt = 95.2: Crank-Nicolson's factor for that mode is
        # below -1, and the positive sine would come back negative.
        motion = SeparableMotion.symmetric(PhysicsParams(1, 1), 1.0, a=-1600, b=0)
        T = 0.021
        with pytest.raises(np.linalg.LinAlgError, match=r"t=0\.021 .*use a smaller dt"):
            solve_w(motion, lambda xi: np.sin(np.pi * xi), grid_size=64, dt=T, T=T,
                    output_times=[0, T])

    def test_growing_mode_flipping_u_step_is_refused(self):
        # Crank-Nicolson's factor for the sine's growth rate f0 - D (pi/10)^2 is
        # (1 + 1.35) / (1 - 1.35) < -1 at dt = 3: the step would flip its sign.
        motion = SeparableMotion.fixed_length(PhysicsParams(1, 1), 10.0)
        with pytest.raises(np.linalg.LinAlgError) as err:
            solve_u(motion, lambda xi: np.sin(np.pi * xi / 10.0), grid_size=64, dt=3.0, T=3.0,
                    output_times=[0, 3.0])
        assert str(err.value) == "step to t=3 is too long for the growth rate; use a smaller dt"

    def test_long_u_step_after_a_cut_one_is_refused(self):
        # The output time 1 cuts the one step of 3: [0, 1] passes, [1, 3] has dt f0 = 2.
        motion = SeparableMotion.fixed_length(PhysicsParams(1, 1), 10.0)
        with pytest.raises(np.linalg.LinAlgError) as err:
            solve_u(motion, lambda xi: np.sin(np.pi * xi / 10.0), grid_size=64, dt=3.0, T=3.0,
                    output_times=[0, 1, 3])
        assert str(err.value) == "step to t=3 is too long for the growth rate; use a smaller dt"

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

    @pytest.mark.parametrize("solve", [
        lambda m, f: solve_u(m, f, grid_size=64, dt=1e-3, T=0.01),
        lambda m, f: solve_w(m, f, grid_size=64, dt=1e-3, T=0.01),
        lambda m, f: solve_radial(m, f, 3, grid_size=64, dt=1e-3, T=0.01),
    ], ids=["u", "w", "radial"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_initial_data_is_refused(self, physics, solve, bad):
        # A nan passed the end test and marched until the finite check at t = 0.01.
        motion = SeparableMotion.symmetric(physics, 1.0)
        data = lambda x: np.where(x == 0.5, bad, np.sin(np.pi * x))
        with pytest.raises(ParameterError, match=f"initial data must be finite, got {bad}"):
            solve(motion, data)

    @pytest.mark.parametrize("kwargs", [
        {"grid_size": 4},
        {"dt": -1e-3},
        {"output_times": [0.0, math.nan]},
        {"output_times": [0.2]},
        {"output_times": [-1e-9]},
    ])
    def test_parameter_validation(self, physics, kwargs):
        motion = SeparableMotion.fixed_length(physics, 1.0)
        base = dict(grid_size=64, dt=1e-3, T=0.1)
        base.update(kwargs)
        with pytest.raises(ValueError, match="grid_size|positive|output times must "
                                             r"lie in \[0, T\]"):
            solve_u(motion, lambda xi: np.sin(np.pi * xi), **base)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["dt", "T"])
    @pytest.mark.parametrize("form", ["u", "w"])
    def test_non_finite_step_or_horizon_is_refused(self, physics, form, name, t):
        # T = inf was read as reaching the collapse time inf.
        motion = SeparableMotion.fixed_length(physics, 1.0)
        run = {"dt": 1e-2, "T": 0.1, name: t}
        with pytest.raises(ParameterError, match=f"^dt and T must be finite and positive, "
                                                 f"got dt={run['dt']}, T={run['T']}$"):
            (solve_u if form == "u" else solve_w)(motion, lambda xi: np.sin(np.pi * xi),
                                                  grid_size=16, output_times=[0.0], **run)

    def test_overflowing_march_is_a_numeric_failure(self, physics):
        # dt f0 = 1.999 passes the step bound, and each step multiplies the
        # principal mode by about 1.3e3: the field overflows in 100 steps.
        motion = SeparableMotion.fixed_length(physics, 100.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError,
                               match=r"^solver produced non-finite values by t=199\.9$"):
                solve_u(motion, lambda xi: np.sin(np.pi * xi / 100.0), grid_size=64,
                        dt=1.999, T=199.9, output_times=[0.0, 199.9])

    def test_slice_requires_stored_time(self, physics):
        motion = SeparableMotion.fixed_length(physics, 1.0)
        sol = solve_u(motion, lambda xi: np.sin(np.pi * xi), grid_size=64,
                      dt=1e-3, T=0.5, output_times=[0.0, 0.5])
        with pytest.raises(ValueError, match="output time"):
            sol.slice_at(0.3)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_slice_refuses_a_non_finite_time(self, physics, t):
        motion = SeparableMotion.fixed_length(physics, 1.0)
        sol = solve_u(motion, lambda xi: np.sin(np.pi * xi), grid_size=16,
                      dt=1e-2, T=0.1, output_times=[0.0, 0.1])
        with pytest.raises(ValueError, match=f"t={t} is not an output time of this run"):
            sol.slice_at(t)


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

    def test_manifest_counts_negative_values(self):
        # A fast-decaying sine: Crank-Nicolson leaves undamped stiff noise of
        # both signs where the true field, positive throughout, is ~5e-25.
        motion = SeparableMotion.fixed_length(
            PhysicsParams(2.9634155818297447, 2.7278172374232494), 0.7059338583334749,
            gamma1=-0.040024152384335654, c=-0.26762708036069616)
        sol = solve_u(motion, lambda xi: np.sin(np.pi * xi / motion.L0), grid_size=128,
                      dt=1e-3, T=1.0, output_times=[0.0, 0.5, 1.0])
        negative = grid_manifest(sol)["negative_values"]
        has_negative = np.any(sol.values < 0.0, axis=1)
        assert negative["count"] == np.sum(sol.values < 0.0)
        assert np.sum(sol.slice_at(1.0) < 0.0) >= 64
        assert negative["first_t"] == sol.times[has_negative][0]
        assert negative["last_t"] == 1.0

    def test_manifest_reports_no_negative_value_of_a_sine_w_run(self, physics):
        motion = SeparableMotion.symmetric(physics, 2.0, a=0.1, b=0.2)
        sol = solve_w(motion, lambda xi: np.sin(0.5 * np.pi * xi), grid_size=64,
                      dt=1e-3, T=0.1)
        assert grid_manifest(sol)["negative_values"] == {"count": 0, "first_t": None,
                                                         "last_t": None}


class TestOutputTimes:
    """Every stored time is a requested one: off-grid times are step boundaries."""

    @staticmethod
    def _solve(physics, dt, T, output_times):
        motion = SeparableMotion.fixed_length(physics, 1.0)
        return solve_u(motion, lambda xi: np.sin(np.pi * xi), grid_size=64, dt=dt,
                       T=T, output_times=output_times)

    def test_off_grid_time_is_stored_exactly(self, physics):
        sol = self._solve(physics, 1e-2, 1.0, [0.316228, 1.0])
        assert sol.times.tolist() == [0.316228, 1.0]
        # 100 uniform steps and the one extra boundary at 0.316228
        assert sol.steps == StepRecord(101, pytest.approx(0.32 - 0.316228), 1e-2)
        # The single sine mode decays like exp((f0 - D pi^2) t); read at the
        # grid time 0.32 instead, it would be about 3 % low.
        exact = math.exp((1.0 - math.pi ** 2) * 0.316228) * np.sin(np.pi * sol.grid)
        assert np.max(np.abs(sol.slice_at(0.316228) - exact)) <= 5e-3 * np.max(exact)

    def test_close_requests_stay_distinct(self, physics):
        sol = self._solve(physics, 1e-2, 1.0, [0.5, 0.500001, 1.0])
        assert sol.times.tolist() == [0.5, 0.500001, 1.0]
        assert not np.array_equal(sol.values[0], sol.values[1])
        assert sol.steps.count == 101

    def test_roundoff_from_the_grid_adds_no_step(self, physics):
        # 3 * 0.1 is 0.30000000000000004: read at the grid time 0.3, like 0.3
        # itself, and both are stored as asked.
        sol = self._solve(physics, 1e-2, 1.0, [0.3, 3 * 0.1, 1.0])
        assert sol.times.tolist() == [0.3, 3 * 0.1, 1.0]
        assert sol.steps == StepRecord(100, 1e-2, 1e-2)
        assert np.array_equal(sol.values[0], sol.values[1])
        ref = self._solve(physics, 1e-2, 1.0, [0.3, 1.0])
        assert np.array_equal(sol.values[1:], ref.values)

    def test_last_stored_time_is_T(self, physics):
        # 20 / 0.017 rounds to 1176 steps of 0.0170068...; the last one ends at 20.
        sol = self._solve(physics, 0.017, 20.0, [0.0, 20.0])
        assert sol.times[-1] == 20.0
        assert sol.steps.count == 1176

    def test_manifest_records_the_steps_marched(self, physics, monkeypatch):
        calls = []
        real = numeric.dgtsv
        monkeypatch.setattr(numeric, "dgtsv", lambda *a: calls.append(1) or real(*a))
        sol = self._solve(physics, 1e-2, 0.5, [0.0, 0.123, 0.1234, 0.5])
        doc = grid_manifest(sol)
        assert "dt" not in doc
        assert doc["steps"] == {"count": len(calls), "dt_min": sol.steps.dt_min,
                                "dt_max": 1e-2}
        assert len(calls) == 52
        assert doc["steps"]["dt_min"] == pytest.approx(4e-4)   # 0.123 -> 0.1234


def _centred_tabulated(physics):
    L = lambda t: 2.0 + 0.3 * t + 0.1 * math.sin(3.0 * t)
    return TabulatedMotion.from_callables(physics, lambda t: -0.5 * L(t), L, 2.0, 201)


_CENTRED = {
    "critical": lambda ph: CriticalMotion(ph, alpha=1.5),
    "quadratic": lambda ph: SeparableMotion.symmetric(ph, 2.0, a=1.0, b=0.5),
    "linear": lambda ph: SeparableMotion.symmetric(ph, 1.7, a=0.01, b=0.17),
    "tabulated": _centred_tabulated,
}


class TestHalfIntervalRoute:
    """A centred w run from even data on an even grid of at least 16 marches
    the 1-ball on xi >= L0/2 and mirrors it; any other w run marches the whole
    interval.  Forcing ``centering_defect`` to name a defect gives the full
    march of the same inputs."""

    @staticmethod
    def _data(motion, odd=0.0):
        L0 = motion.L0
        return lambda xi: np.sin(np.pi * xi / L0) + odd * np.sin(2.0 * np.pi * xi / L0)

    @staticmethod
    def _count_half_marches(monkeypatch):
        calls, real = [], numeric.solve_radial
        monkeypatch.setattr(numeric, "solve_radial",
                            lambda *a, **kw: calls.append(a[3]) or real(*a, **kw))
        return calls

    @staticmethod
    def _force_full_march(monkeypatch):
        monkeypatch.undo()
        monkeypatch.setattr(numeric, "centering_defect", lambda motion: "forced")

    @staticmethod
    def _refuse_half_march(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the half-interval route was taken")
        monkeypatch.setattr(numeric, "solve_radial", refuse)

    @pytest.mark.parametrize("name", sorted(_CENTRED))
    def test_half_march_agrees_with_the_full_march(self, physics, monkeypatch, name):
        motion = _CENTRED[name](physics)
        run = dict(grid_size=128, dt=1e-3, T=1.0, output_times=[0.0, 0.1234, 0.5, 1.0])
        calls = self._count_half_marches(monkeypatch)
        half = solve_w(motion, self._data(motion), **run)
        assert calls == [64]
        self._force_full_march(monkeypatch)
        full = solve_w(motion, self._data(motion), **run)
        assert np.array_equal(half.values, half.values[:, ::-1])
        assert half.steps == full.steps and half.steps.count == 1001
        assert (half.kind, half.n_dim, half.motion_hash) == (full.kind, full.n_dim,
                                                             full.motion_hash)
        assert np.array_equal(half.grid, full.grid)
        assert np.array_equal(half.times, full.times)
        scale = np.max(np.abs(full.values), axis=1)
        assert np.all(np.max(np.abs(half.values - full.values), axis=1) <= 1e-12 * scale)

    def test_odd_part_below_the_bound_is_dropped(self, physics, monkeypatch):
        motion = CriticalMotion(physics, alpha=1.5)
        calls = self._count_half_marches(monkeypatch)
        sol = solve_w(motion, self._data(motion, 1e-13), grid_size=64, dt=1e-2, T=0.5)
        assert calls == [32]
        assert np.array_equal(sol.values, sol.values[:, ::-1])

    @pytest.mark.parametrize("case", ["off-centre", "odd-part", "odd-grid"])
    def test_other_runs_march_the_whole_interval(self, physics, monkeypatch, case):
        motion = (SeparableMotion.fixed_length(physics, 2.0, gamma1=0.5, c=0.5)
                  if case == "off-centre" else CriticalMotion(physics, alpha=1.5))
        grid_size = 129 if case == "odd-grid" else 128
        self._refuse_half_march(monkeypatch)
        sol = solve_w(motion, self._data(motion, 1e-6 if case == "odd-part" else 0.0),
                      grid_size=grid_size, dt=1e-3, T=0.5)
        assert sol.grid_size == grid_size and np.all(np.isfinite(sol.values))

    def test_grids_below_16_march_the_whole_interval(self, physics, monkeypatch):
        # The 1-ball needs 8 intervals, so an interval of 8 to 15 keeps the
        # full march, and one below 8 is refused as before.
        motion = CriticalMotion(physics, alpha=1.5)
        self._refuse_half_march(monkeypatch)
        for grid_size in range(4, 16):
            run = dict(grid_size=grid_size, dt=1e-2, T=0.1)
            if grid_size < 8:
                with pytest.raises(ValueError, match="^grid_size must be at least 8$"):
                    solve_w(motion, self._data(motion), **run)
            else:
                assert solve_w(motion, self._data(motion), **run).grid_size == grid_size

    @pytest.mark.parametrize("case", ["horizon", "output-times", "long-step"])
    def test_refusals_are_the_full_marchs(self, monkeypatch, case):
        ph = PhysicsParams(1, 1)
        if case == "horizon":         # L = sqrt(1 - t) collapses at t = 1
            motion = SeparableMotion.symmetric(ph, 1.0, b=-0.5)
            run = dict(grid_size=64, dt=1e-3, T=1.0)
        elif case == "output-times":
            motion = CriticalMotion(ph, alpha=1.5)
            run = dict(grid_size=64, dt=1e-3, T=0.1, output_times=[0.0, 0.2])
        else:                         # test_indefinite_potential_step_is_refused's step
            motion = SeparableMotion.symmetric(ph, 1.0, a=-1600, b=0)
            run = dict(grid_size=64, dt=0.021, T=0.021, output_times=[0, 0.021])
        calls = self._count_half_marches(monkeypatch)
        with pytest.raises(Exception) as half:
            solve_w(motion, self._data(motion), **run)
        assert calls == [32]
        self._force_full_march(monkeypatch)
        with pytest.raises(Exception) as full:
            solve_w(motion, self._data(motion), **run)
        assert half.type is full.type
        if case == "long-step":
            # dptsv's info names a leading minor of its own system, so the
            # messages agree up to it.
            assert half.type is np.linalg.LinAlgError
            named = "step to t=0.021 is too long for the growth rate; use a smaller dt (dptsv info="
            assert str(half.value).startswith(named) and str(full.value).startswith(named)
        else:
            assert str(half.value) == str(full.value)
