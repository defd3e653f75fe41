import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from growthdiff.cli import main
from growthdiff.critical import envelope_bounds_general, eval_bound, fit_exponent
from growthdiff.exact import (SeriesSolution, TruncationWarning, build_radial_series,
                              build_series, compare_to_series, eval_physical,
                              eval_radial_physical, eval_radial_series, eval_series,
                              eval_w, expand, growth_region, series_manifest,
                              transform_ic)
from growthdiff.motion import (CriticalMotion, DomainCollapsedError,
                               PhysicsParams, SeparableMotion, TabulatedMotion,
                               eval_motion, motion_content_hash, validity_horizon)
from growthdiff.numeric import solve_u, solve_w
from growthdiff.transforms import w_from_u


def _sine(L0):
    return lambda xi: np.sin(np.pi * xi / L0)


class TestExpansion:
    def test_eigenmode_expands_to_unit_vector(self, physics):
        motion = SeparableMotion(physics, 1.0, 2.0, 1.0, gamma1=0.4, c=0.2)
        sol = build_series(motion, _sine(1.0), grid_size=256, num_modes=8)
        coeffs = expand(sol.eigen.modes[0], sol.eigen)
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(coeffs, expected, atol=1e-10)

    def test_mode_combination_recovers_weights(self, physics):
        motion = SeparableMotion(physics, 1.0, 2.0, 1.0, gamma1=0.4, c=0.2)
        sol = build_series(motion, _sine(1.0), grid_size=256, num_modes=8)
        combo = 3.0 * sol.eigen.modes[1] - sol.eigen.modes[3]
        expected = np.zeros(8)
        expected[1], expected[3] = 3.0, -1.0
        np.testing.assert_allclose(expand(combo, sol.eigen), expected, atol=1e-9)

    def test_parabola_coefficients(self, physics):
        motion = SeparableMotion.fixed_length(physics, math.pi)
        sol = build_series(motion, lambda xi: xi * (math.pi - xi),
                           grid_size=512, num_modes=8)
        for n in range(1, 9):
            if n % 2:
                exact = 4.0 * math.sqrt(2.0 / math.pi) / n ** 3
                assert sol.coeffs[n - 1] == pytest.approx(exact, abs=1e-9)
            else:
                assert abs(sol.coeffs[n - 1]) < 1e-12

    def test_initial_data_must_vanish_at_endpoints(self, physics):
        motion = SeparableMotion.fixed_length(physics, 1.0)
        xi = np.linspace(0.0, 1.0, 33)
        with pytest.raises(ValueError, match="vanish"):
            transform_ic(motion, xi, np.cos(np.pi * xi))

    def test_shape_mismatch_rejected(self, physics):
        motion = SeparableMotion.fixed_length(physics, 1.0)
        sol = build_series(motion, _sine(1.0), grid_size=128, num_modes=4)
        with pytest.raises(ValueError):
            expand(np.zeros(7), sol.eigen)

    def test_nonseparable_motion_rejected(self, physics):
        with pytest.raises(ValueError, match="separable"):
            build_series(CriticalMotion(physics, alpha=1.0), _sine(1.0))


class TestEvaluation:
    def test_stationary_interval_single_mode(self, physics):
        motion = SeparableMotion.fixed_length(physics, math.pi)
        sol = build_series(motion, np.sin, grid_size=512, num_modes=8,
                           extrapolate=True)
        xi = np.linspace(0.0, math.pi, 41)[1:-1]
        for t in (0.5, 2.0, 5.0):
            expected = math.exp((physics.f0 - 1.0) * t) * np.sin(xi)
            np.testing.assert_allclose(eval_series(sol, xi, t), expected,
                                       rtol=1e-9)

    def test_boundary_values_vanish(self, physics):
        motion = SeparableMotion.fixed_length(physics, math.pi)
        sol = build_series(motion, np.sin, grid_size=256, num_modes=8)
        vals = eval_series(sol, [0.0, math.pi], 1.0)
        assert np.all(np.abs(vals) < 1e-14)

    def test_linear_stretch_closed_form(self):
        ph = PhysicsParams(D=1.0, f0=1.0)
        motion = SeparableMotion.linear_length(ph, 1.0, 1.0)
        # choose u0 so the potential-form data is the bare first sine mode
        u0 = lambda xi: np.sin(np.pi * xi) * np.exp(-0.25 * xi * xi)
        sol = build_series(motion, u0, grid_size=1024, num_modes=8,
                           extrapolate=True)
        t, L, s = 1.0, 2.0, 0.5
        expected = (math.exp(ph.f0 * t) * math.sqrt(1.0 / L)
                    * math.exp(-0.25 * 0.25 * L) * math.exp(-math.pi ** 2 * s))
        assert float(eval_series(sol, [0.5], t)[0]) == pytest.approx(
            expected, rel=1e-8)

    def test_potential_form_consistent_with_field(self, physics, rng):
        motion = SeparableMotion.sqrt_length(physics, 2.0, 0.5, gamma1=0.3, c=0.1)
        sol = build_series(motion, _sine(2.0), grid_size=256, num_modes=16)
        xi = rng.uniform(0.1, 1.9, size=12)
        for t in (0.3, 1.4):
            u = eval_series(sol, xi, t)
            np.testing.assert_allclose(eval_w(sol, xi, t),
                                       w_from_u(motion, xi, t, u), rtol=1e-12)

    def test_linearity(self, physics, rng):
        motion = SeparableMotion.linear_length(physics, 1.0, 0.5, gamma1=0.2)
        u0a = lambda xi: np.sin(np.pi * xi)
        u0b = lambda xi: xi * (1.0 - xi)
        u0c = lambda xi: u0a(xi) + 2.0 * u0b(xi)
        kw = dict(grid_size=256, num_modes=24)
        sa = build_series(motion, u0a, **kw)
        sb = build_series(motion, u0b, **kw)
        sc = build_series(motion, u0c, **kw)
        xi = rng.uniform(0.0, 1.0, size=20)
        for t in (0.2, 1.0):
            np.testing.assert_allclose(
                eval_series(sc, xi, t),
                eval_series(sa, xi, t) + 2.0 * eval_series(sb, xi, t),
                rtol=1e-12, atol=1e-15)

    def test_initial_condition_reconstructed(self, physics):
        motion = SeparableMotion.fixed_length(physics, math.pi)
        u0 = lambda xi: (xi * (math.pi - xi)) ** 3
        sol = build_series(motion, u0, grid_size=512, num_modes=64)
        xi = sol.eigen.grid
        diff = eval_series(sol, xi, 0.0) - u0(xi)
        rel_l2 = (math.sqrt(np.trapezoid(diff ** 2, xi))
                  / math.sqrt(np.trapezoid(u0(xi) ** 2, xi)))
        assert rel_l2 < 1e-6

    def test_truncation_insensitive_once_modes_decay(self, physics):
        motion = SeparableMotion.fixed_length(physics, math.pi)
        u0 = lambda xi: xi * (math.pi - xi)
        a = build_series(motion, u0, grid_size=512, num_modes=32)
        b = build_series(motion, u0, grid_size=512, num_modes=48)
        xi = np.linspace(0.1, math.pi - 0.1, 17)
        va, vb = eval_series(a, xi, 0.5), eval_series(b, xi, 0.5)
        assert np.max(np.abs(va - vb)) < 1e-8 * np.max(np.abs(va))

    def test_tail_warning_when_truncated_too_hard(self, physics):
        motion = SeparableMotion.fixed_length(physics, math.pi)
        sol = build_series(motion, lambda xi: xi * (math.pi - xi),
                           grid_size=256, num_modes=3)
        with pytest.warns(TruncationWarning):
            eval_series(sol, np.linspace(0.3, 2.8, 9), 0.0)

    def test_no_tail_warning_for_resolved_series(self, physics):
        motion = SeparableMotion.fixed_length(physics, math.pi)
        sol = build_series(motion, lambda xi: xi * (math.pi - xi),
                           grid_size=256, num_modes=32)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            eval_series(sol, np.linspace(0.3, 2.8, 9), 0.1)

    @staticmethod
    def _ill_conditioned():
        # Adot ~ -8.6: the shape factor spans 88.9 in log over [0, L0], so u
        # = w e^(factor) turns w's roundoff near xi = L0 into values of
        # -5e11, where the maximum principle bounds |u| by e^(f0 t) ~ 1.6.
        motion = SeparableMotion.sqrt_length(
            PhysicsParams(0.19365126551807835, 1.9465216783714918), 3.9959005479234992,
            0.013950257065266314, gamma1=0.4966354201232952, c=0.2881399300340771)
        return build_series(motion, _sine(motion.L0), grid_size=2048, num_modes=128)

    @pytest.mark.parametrize("route", ["fast", "generic"])
    def test_ill_conditioned_shape_factor_warns(self, route):
        # The 128-mode tail is resolved, so only the roundoff of the
        # cancelling terms near xi = L0 can flag it.
        sol = self._ill_conditioned()
        xi = np.linspace(0.0, sol.motion.L0, 101)
        with pytest.warns(TruncationWarning) as caught:
            u = eval_series(sol, xi, 0.25, route=route)
        assert [str(w.message) for w in caught] == [
            "the modes cancel: the sum's roundoff, 3.21e+08, exceeds 1e-08 of its "
            "largest value, 5.06e+11"]
        assert np.min(u) < -1e9

    @pytest.mark.parametrize("route", ["fast", "generic"])
    def test_ill_conditioned_factor_is_sound_where_it_is_small(self, route):
        # On xi <= L0/2 the factor stays small and the terms do not cancel.
        sol = self._ill_conditioned()
        xi = np.linspace(0.0, 0.5 * sol.motion.L0, 51)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            u = eval_series(sol, xi, 0.25, route=route)
        assert np.min(u) >= 0.0

    def test_rejects_bad_route_and_coordinates(self, physics):
        motion = SeparableMotion.fixed_length(physics, 1.0)
        sol = build_series(motion, _sine(1.0), grid_size=128, num_modes=4)
        with pytest.raises(ValueError, match="route"):
            eval_series(sol, [0.5], 0.1, route="spline")
        with pytest.raises(ValueError, match="route"):
            eval_w(sol, [0.5], 0.1, route="bogus")
        with pytest.raises(ValueError):
            eval_series(sol, [-0.2], 0.1)
        with pytest.raises(ValueError):
            eval_series(sol, [1.3], 0.1)

    def test_collapse_time_is_enforced(self, physics):
        motion = SeparableMotion.sqrt_length(physics, 1.0, -0.5)
        sol = build_series(motion, _sine(1.0), grid_size=128, num_modes=8)
        with pytest.raises(DomainCollapsedError):
            eval_series(sol, [0.5], 1.2)


class TestDualRoutes:
    @pytest.mark.parametrize("builder", [
        lambda ph: SeparableMotion.fixed_length(ph, math.pi, gamma1=0.5, c=0.5),
        lambda ph: SeparableMotion.linear_length(ph, 1.0, 1.0, gamma1=0.3, c=0.2),
        lambda ph: SeparableMotion.sqrt_length(ph, 2.0, -0.5, gamma1=0.2, c=0.1),
        lambda ph: SeparableMotion(ph, 1.0, 2.0, 1.0, gamma1=0.2, c=0.3),
        lambda ph: SeparableMotion(ph, 1.0, 0.0, 1.0, gamma1=0.2, c=0.3),
    ])
    def test_fast_route_matches_quadrature_route(self, physics, rng, builder):
        motion = builder(physics)
        sol = build_series(motion, _sine(motion.L0), grid_size=256, num_modes=32)
        t_max = min(2.0, 0.8 * validity_horizon(motion))
        for _ in range(100):
            t = float(rng.uniform(0.05, t_max))
            xi = rng.uniform(0.0, motion.L0, size=3)
            fast = eval_series(sol, xi, t, route="fast")
            slow = eval_series(sol, xi, t, route="generic")
            scale = max(float(np.max(np.abs(fast))), 1e-300)
            assert np.max(np.abs(fast - slow)) <= 1e-9 * scale


class TestPhysicalFrame:
    def test_left_endpoint_and_midpoint(self, physics):
        motion = SeparableMotion.linear_length(physics, 1.0, 0.5, c=0.3)
        sol = build_series(motion, _sine(1.0), grid_size=256, num_modes=16)
        t = 1.2
        st = eval_motion(motion, t)
        assert float(eval_physical(sol, [st.A], t)[0]) == pytest.approx(0.0, abs=1e-14)
        mid = st.A + 0.5 * st.L
        assert float(eval_physical(sol, [mid], t)[0]) == pytest.approx(
            float(eval_series(sol, [0.5], t)[0]), rel=1e-12)

    def test_positions_outside_interval_rejected(self, physics):
        motion = SeparableMotion.fixed_length(physics, 1.0)
        sol = build_series(motion, _sine(1.0), grid_size=128, num_modes=4)
        with pytest.raises(ValueError, match="interval"):
            eval_physical(sol, [1.5], 0.1)


class TestSpreadingDecay:
    def test_balanced_spreading_probe_decays_three_halves(self):
        ph = PhysicsParams(D=1.0, f0=1.0)
        cs = ph.c_star
        motion = SeparableMotion.linear_length(ph, 1.0, 2.0 * cs, c=-cs)
        u0 = lambda xi: (np.sin(math.pi * xi)
                         * np.exp(-0.5 * cs * xi * xi + 0.5 * cs * xi))
        sol = build_series(motion, u0, grid_size=1024, num_modes=4,
                           extrapolate=True)
        times = np.geomspace(1e2, 1e4, 33)
        for y in (0.5, 1.0, 2.0):
            vals = np.array([
                float(eval_physical(sol, [eval_motion(motion, float(t)).A + y],
                                    float(t))[0])
                for t in times])
            slope = np.polynomial.polynomial.polyfit(
                np.log(times), np.log(vals), 1)[1]
            assert slope == pytest.approx(-1.5, abs=0.05)

    def test_criterion_5_probes_read_without_warning(self):
        # The shape factor spans 1e4 in log at t = 1e4, but at the probes,
        # near the left end, the terms are sound and do not cancel.
        ph = PhysicsParams(D=1.0, f0=1.0)
        cs = ph.c_star
        motion = SeparableMotion.linear_length(ph, 1.0, 2.0 * cs, c=-cs)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            report = fit_exponent(motion, probes=(1.0,), window=(1e2, 1e4), t_final=1e4)
        assert report.route == "series"


class TestCollapse:
    @pytest.mark.parametrize("builder, horizon", [
        (lambda ph: SeparableMotion.sqrt_length(ph, 1.0, -0.5), 1.0),
        (lambda ph: SeparableMotion(ph, -1.0, 1.0, 1.0), 1.0 + math.sqrt(2.0)),
    ])
    def test_everything_dies_before_the_domain_does(self, physics, builder, horizon):
        motion = builder(physics)
        assert validity_horizon(motion) == pytest.approx(horizon, rel=1e-12)
        sol = build_series(motion, _sine(1.0), grid_size=256, num_modes=16)
        xi = np.linspace(0.0, motion.L0, 513)
        assert np.max(np.abs(eval_series(sol, xi, horizon - 1e-3))) < 1e-6


class TestCompareToSeries:
    """The table behind the ``compare`` subcommand."""

    def test_rows_are_the_compare_table(self, physics, tmp_path):
        out = str(tmp_path / "cmp")
        assert main(["compare", "--family", "fixed", "--D", "1", "--f0", "1",
                     "--L0", "3.141592653589793", "--t-final", "0.2", "--grid", "64",
                     "--dt", "1e-2", "--out", out]) == 0
        written = np.loadtxt(out + ".csv", delimiter=",", skiprows=1)
        doc = json.loads((tmp_path / "cmp.json").read_text())
        motion = SeparableMotion.fixed_length(physics, math.pi)
        assert doc["motion_hash"] == motion_content_hash(motion)
        times = written[:, 0].tolist()
        sol = build_series(motion, _sine(math.pi), grid_size=512, num_modes=32)
        run = solve_u(motion, _sine(math.pi), grid_size=64, dt=1e-2, T=max(times),
                      output_times=times)
        rows = compare_to_series(sol, run)
        assert np.array_equal(rows, written)
        worst = rows[np.argmax(rows[:, 2])]
        assert [doc["worst_t"], doc["worst_rel_linf"], doc["worst_xi"]] == \
            [worst[0], worst[2], worst[3]]

    def test_vanishing_reference_names_the_first_time(self, physics):
        motion = SeparableMotion.fixed_length(physics, 1.0)
        sol = build_series(motion, _sine(1.0), grid_size=128, num_modes=8)
        zero = dataclasses.replace(sol, coeffs=np.zeros_like(sol.coeffs))
        run = solve_u(motion, _sine(1.0), grid_size=32, dt=1e-2, T=0.3,
                      output_times=[0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match=r"reference field vanishes at t=0\.1;"):
            compare_to_series(zero, run)

    def test_other_runs_are_refused(self, physics):
        centred = SeparableMotion.fixed_length(physics, 1.0, d=-0.5)
        sol = build_series(centred, _sine(1.0), grid_size=128, num_modes=8)
        w_run = solve_w(centred, _sine(1.0), grid_size=32, dt=1e-2, T=0.1)
        with pytest.raises(ValueError, match="needs a u run, got a 'w' run"):
            compare_to_series(sol, w_run)
        other = solve_u(SeparableMotion.fixed_length(physics, 2.0), _sine(2.0),
                        grid_size=32, dt=1e-2, T=0.1)
        with pytest.raises(ValueError, match="different motion"):
            compare_to_series(sol, other)


class TestGrowthRegion:
    def test_slow_spreading_interval_grows_everywhere(self, physics):
        verdict = growth_region(SeparableMotion.linear_length(physics, 1.0, 1.0))
        assert verdict.kind == "grow"
        assert verdict.window == (0.0, 1.0)

    def test_fast_drift_kills_growth(self, physics):
        verdict = growth_region(
            SeparableMotion.linear_length(physics, 1.0, 1.0, c=3.0))
        assert verdict.kind == "decay"

    def test_fast_spreading_leaves_partial_window(self, physics):
        verdict = growth_region(SeparableMotion.linear_length(physics, 1.0, 4.0))
        assert verdict.kind == "window"
        assert verdict.window[0] == pytest.approx(0.0)
        assert verdict.window[1] == pytest.approx(0.5)

    def test_fixed_interval_below_threshold_decays(self):
        ph = PhysicsParams(D=1.0, f0=0.5)
        verdict = growth_region(SeparableMotion.fixed_length(ph, 1.0))
        assert verdict.kind == "decay"
        assert verdict.rate == pytest.approx(0.5 - math.pi ** 2, rel=1e-12)

    def test_fixed_interval_at_threshold_is_marginal(self):
        ph = PhysicsParams(D=1.0, f0=1.0)
        verdict = growth_region(SeparableMotion.fixed_length(ph, math.pi))
        assert verdict.kind == "marginal"

    def test_fixed_interval_above_threshold_grows(self):
        ph = PhysicsParams(D=1.0, f0=2.0)
        verdict = growth_region(SeparableMotion.fixed_length(ph, math.pi))
        assert verdict.kind == "grow"
        assert verdict.rate == pytest.approx(1.0, rel=1e-12)

    def test_diffusive_spreading_grows_at_rate_f0(self, physics):
        verdict = growth_region(SeparableMotion.sqrt_length(physics, 1.0, 2.0))
        assert verdict.kind == "grow"
        assert verdict.rate == pytest.approx(physics.f0, rel=1e-12)

    def test_collapse_verdict_reports_the_time(self, physics):
        verdict = growth_region(SeparableMotion.sqrt_length(physics, 1.0, -0.5))
        assert verdict.kind == "collapse"
        assert verdict.collapse_time == pytest.approx(1.0, rel=1e-12)

    def test_critical_motion_rejected(self, physics):
        with pytest.raises(ValueError):
            growth_region(CriticalMotion(physics, alpha=1.0))


class TestRadialSeries:
    def test_stationary_ball_fundamental_mode(self, physics):
        motion = SeparableMotion.symmetric(physics, 2.0)
        sol = build_radial_series(motion, lambda r: np.sinc(r), 3,
                                  grid_size=512, num_modes=8, extrapolate=True)
        r = np.linspace(0.0, 0.95, 20)
        for t in (0.3, 1.0):
            expected = math.exp((physics.f0 - math.pi ** 2) * t) * np.sinc(r)
            np.testing.assert_allclose(eval_radial_series(sol, r, t), expected,
                                       rtol=1e-6)

    def test_one_dimensional_ball_matches_interval_series(self, physics):
        motion = SeparableMotion.symmetric(physics, 2.0, b=0.5)
        sol_int = build_series(motion, lambda xi: np.sin(0.5 * math.pi * xi),
                               grid_size=512, num_modes=32, extrapolate=True)
        sol_rad = build_radial_series(motion, lambda r: np.cos(0.5 * math.pi * r),
                                      1, grid_size=512, num_modes=32,
                                      extrapolate=True)
        for t in (0.3, 0.8):
            R = 0.5 * eval_motion(motion, t).L
            radius = np.linspace(0.05, 0.95, 10) * R
            np.testing.assert_allclose(eval_radial_physical(sol_rad, radius, t),
                                       eval_physical(sol_int, radius, t),
                                       rtol=1e-6)

    def test_boundary_data_must_vanish(self, physics):
        motion = SeparableMotion.symmetric(physics, 2.0)
        with pytest.raises(ValueError, match="vanish"):
            build_radial_series(motion, lambda r: np.cos(r), 3, grid_size=128)

    def test_off_centre_motion_rejected(self, physics):
        motion = SeparableMotion.fixed_length(physics, 2.0)
        with pytest.raises(ValueError, match="centred"):
            build_radial_series(motion, lambda r: np.sinc(r), 3, grid_size=128)

    def test_radius_outside_ball_rejected(self, physics):
        motion = SeparableMotion.symmetric(physics, 2.0)
        sol = build_radial_series(motion, lambda r: np.sinc(r), 3, grid_size=128,
                                  num_modes=4)
        with pytest.raises(ValueError, match="radius"):
            eval_radial_physical(sol, [1.4], 0.1)


class TestManifest:
    def test_describes_the_expansion(self, physics):
        motion = SeparableMotion.sqrt_length(physics, 1.0, 0.5, gamma1=0.2)
        sol = build_series(motion, _sine(1.0), grid_size=128, num_modes=6)
        doc = series_manifest(sol)
        assert doc["schema_version"] == 1
        assert doc["truncation"] == 6
        assert len(doc["sigmas"]) == 6
        assert isinstance(doc["motion_hash"], str) and len(doc["motion_hash"]) > 16
        assert "n_dim" not in doc

    def test_radial_series_records_its_dimension(self, physics):
        motion = SeparableMotion.symmetric(physics, 2.0, b=0.5)
        sol = build_radial_series(motion, lambda r: np.cos(0.5 * math.pi * r), 3,
                                  grid_size=128, num_modes=6)
        assert isinstance(sol, SeriesSolution)
        doc = series_manifest(sol)
        assert doc["n_dim"] == 3
        assert doc["truncation"] == 6


def _mode_by_mode(sol):
    """A copy of ``sol`` that reads its modes through one CubicSpline per mode.

    Returns the copy and the list of its reads, so a test can check that the
    evaluator really went through the replacement.
    """
    splines = [CubicSpline(sol.eigen.grid, m) for m in sol.eigen.modes]
    reads = []

    def read(xi):
        reads.append(xi)
        return np.array([sp(xi) for sp in splines])

    twin = dataclasses.replace(sol)
    twin.__dict__["_modes"] = read
    return twin, reads


class TestOneSplineRead:
    """Reading all modes through one spline changes no bit of any series value."""

    XI = np.linspace(0.0, 1.0, 101)

    @pytest.fixture(scope="class")
    def linear_series(self):
        # The exact subcommand's linear example: D 0.5, f0 1.2, slope 0.7, gamma1 0.3.
        motion = SeparableMotion.linear_length(PhysicsParams(D=0.5, f0=1.2), 1.0, 0.7,
                                               gamma1=0.3)
        return build_series(motion, _sine(1.0), grid_size=512, num_modes=32)

    @pytest.mark.parametrize("route", ["fast", "generic"])
    @pytest.mark.parametrize("evaluate", [eval_series, eval_w])
    def test_interval_series(self, linear_series, route, evaluate):
        twin, reads = _mode_by_mode(linear_series)
        for t in (0.2, 0.8):
            assert np.array_equal(evaluate(linear_series, self.XI, t, route),
                                  evaluate(twin, self.XI, t, route))
        assert len(reads) == 2

    def test_radial_series(self, physics):
        motion = SeparableMotion.symmetric(physics, 2.0, a=0.1, b=0.2)
        sol = build_radial_series(motion, lambda r: np.cos(0.5 * math.pi * r), 3)
        twin, reads = _mode_by_mode(sol)
        for t in (0.1, 0.7, 2.0):
            assert np.array_equal(eval_radial_series(sol, self.XI, t),
                                  eval_radial_series(twin, self.XI, t))
        assert len(reads) == 3

    def test_comparison_bounds(self, physics):
        length = lambda t: 2.0 + t + 0.1 * np.sin(t)
        wobble = TabulatedMotion.from_callables(physics, lambda t: -0.5 * length(t),
                                                length, 2.5, 1001)
        bounds = envelope_bounds_general(wobble, lambda xi: np.sin(0.5 * math.pi * xi),
                                         -6.5255, 0.3, -0.3, 3.4127, 2.0,
                                         grid_size=256, num_modes=16, n_check=100)
        xi = np.linspace(0.0, 2.0, 129)
        for bound in bounds:
            twin, reads = _mode_by_mode(bound)
            for t in (0.5, 2.0):
                assert np.array_equal(eval_bound(bound, xi, t), eval_bound(twin, xi, t))
            assert len(reads) == 2
