import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

import growthdiff.critical as critical
from growthdiff.airy import airy_ai, airy_first_zero
from growthdiff.critical import (EnvelopeViolationError, _fit_log_decay,
                                 _probe_log_psi,
                                 boundary_gradient, envelope_bounds_general,
                                 envelope_to_csv, eval_bound, fit_exponent,
                                 fit_report_document,
                                 potential_asymptote, potential_rate,
                                 potential_value, solve_critical,
                                 subsolution, subsolution_onset,
                                 subsolution_residual, supersolution,
                                 supersolution_residual, verify_envelope,
                                 verify_nested)
from growthdiff.exact import build_series, eval_series
from growthdiff.motion import (CriticalMotion, EtaSpec, PhysicsParams, SeparableMotion,
                               TabulatedMotion, eval_motion)
from growthdiff.numeric import solve_radial, solve_u, solve_w
from growthdiff.transforms import psi_from_W, u_from_w

# Glued-barrier geometry: the profile dies at xi/L0 = -SLOPE_SUM / P^(1/3),
# so it fits the interval once P >= (-SLOPE_SUM)^3 and the half-domain of a
# ball once P >= (-2 SLOPE_SUM)^3.
AI0, AIP0 = airy_ai(0.0)
C1_ZERO = airy_first_zero()
SLOPE_SUM = AI0 / AIP0 + C1_ZERO


def richardson_rate(f, t, h):
    """Five-point central difference of f at t, Richardson-extrapolated from h and h/2."""
    def five(k):
        return (f(t - 2.0 * k) - 8.0 * f(t - k) + 8.0 * f(t + k) - f(t + 2.0 * k)) / (12.0 * k)
    return (16.0 * five(0.5 * h) - five(h)) / 15.0


@pytest.fixture(scope="module")
def crit15():
    return CriticalMotion(PhysicsParams(D=1.0, f0=1.0), alpha=1.5)


@pytest.fixture(scope="module")
def crit25():
    return CriticalMotion(PhysicsParams(D=1.0, f0=1.0), alpha=2.5)


@pytest.fixture(scope="module")
def onset15(crit15):
    return subsolution_onset(crit15, 80.0)


@pytest.fixture(scope="module")
def interval_run(crit15):
    outputs = np.unique(np.concatenate([[0.0], np.geomspace(0.05, 80.0, 61)]))
    return solve_w(crit15, lambda xi: np.sin(np.pi * xi / crit15.L0),
                   grid_size=256, dt=5e-3, T=80.0, output_times=outputs)


@pytest.fixture(scope="module")
def ball_run(crit25):
    R0 = 0.5 * crit25.L0
    outputs = np.unique(np.concatenate([[0.0], np.geomspace(0.05, 60.0, 61)]))
    return solve_radial(crit25, lambda r: np.cos(0.5 * np.pi * r / R0), 3,
                        grid_size=256, dt=5e-3, T=60.0, output_times=outputs)


@pytest.fixture(scope="module")
def w_snapshot(crit15):
    return solve_critical(crit15, 1, 40.0, 256, 1e-2, 21)


@pytest.fixture(scope="module")
def ball_snapshot(crit25):
    return solve_critical(crit25, 3, 40.0, 256, 1e-2, 21)


@pytest.fixture(scope="module")
def wobble():
    # Tabulated near-linear spreading with a bounded oscillating acceleration.
    ph = PhysicsParams(D=1.0, f0=1.0)
    length = lambda t: 2.0 + t + 0.1 * np.sin(t)
    return TabulatedMotion.from_callables(ph, lambda t: -0.5 * length(t),
                                          length, 2.5, 1001)


class TestPotential:
    def test_zero_acceleration_means_zero_potential(self, physics):
        motion = SeparableMotion.fixed_length(physics, math.pi, gamma1=0.5)
        for t in (0.0, 1.0, 7.0):
            assert potential_value(motion, t) == 0.0

    def test_separable_potential_is_constant(self, physics):
        motion = SeparableMotion.symmetric(physics, 2.0, a=1.0)
        for t in (0.0, 1.0, 2.5):
            assert potential_value(motion, t) == pytest.approx(1.0, rel=1e-12)

    def test_ball_potential_is_one_sixteenth(self, physics):
        motion = SeparableMotion.symmetric(physics, 2.0, a=1.0)
        assert (potential_value(motion, 1.0, radial=True)
                == pytest.approx(1.0 / 16.0, rel=1e-12))

    def test_critical_potential_grows_linearly(self, crit15):
        coeff = potential_asymptote(crit15)
        ph = crit15.physics
        assert coeff == pytest.approx(
            4.0 * crit15.alpha * ph.c_star ** 3 / ph.D ** 2, rel=1e-14)
        ratio = potential_value(crit15, 1e3) / (coeff * 1e3)
        assert abs(ratio - 1.0) < 0.05

    def test_critical_rate_approaches_asymptote(self, crit15):
        coeff = potential_asymptote(crit15)
        assert abs(potential_rate(crit15, 1e3) / coeff - 1.0) < 0.05
        assert potential_rate(crit15, 4.0) > 0.0

    @pytest.mark.parametrize("eta", [EtaSpec(), EtaSpec(0.5, 1.0, -0.5)])
    def test_critical_rate_matches_extrapolated_difference(self, physics, eta):
        motion = CriticalMotion(physics, alpha=1.5, eta=eta)
        for t in (0.5, 4.0, 37.0, 900.0):
            ref = richardson_rate(lambda z: potential_value(motion, z), t, 0.02 * (1.0 + t))
            assert potential_rate(motion, t) == pytest.approx(ref, rel=1e-9)

    def test_separable_rate_is_exactly_zero(self, physics):
        for motion in (SeparableMotion.symmetric(physics, 2.0, a=1.0),
                       SeparableMotion.sqrt_length(physics, 1.0, 1.0, gamma1=0.2),
                       SeparableMotion(physics, 1.0, 2.0, 1.0, gamma1=0.2)):
            for t in (0.0, 0.7, 3.1):
                assert potential_rate(motion, t) == 0.0

    def test_tabulated_rate_matches_extrapolated_difference(self, wobble):
        # Each stencil stays inside one spline piece, where P is a polynomial.
        knot = wobble.times[1]
        for t in (knot * (i + 0.5) for i in (3, 170, 555, 998)):
            ref = richardson_rate(lambda z: potential_value(wobble, z), t, 2e-4)
            assert abs(potential_rate(wobble, t) - ref) <= 1e-8 * max(1.0, abs(ref))

    def test_asymptote_rejects_separable_motions(self, physics):
        motion = SeparableMotion.symmetric(physics, 2.0, a=1.0)
        with pytest.raises(ValueError, match="critical"):
            potential_asymptote(motion)


class TestOnset:
    def test_interval_onset_hits_fit_threshold(self, crit15, onset15):
        assert onset15 == pytest.approx(3.870427, abs=1e-4)
        assert (potential_value(crit15, onset15)
                == pytest.approx((-SLOPE_SUM) ** 3, rel=1e-8))

    def test_ball_onset_needs_four_times_the_cube_root(self, crit15):
        t_on = subsolution_onset(crit15, 80.0, radial=True)
        assert t_on == pytest.approx(14.493761, abs=1e-4)
        assert (potential_value(crit15, t_on)
                == pytest.approx((-2.0 * SLOPE_SUM) ** 3, rel=1e-8))

    def test_ball_onset_is_later(self, crit15, onset15):
        assert subsolution_onset(crit15, 80.0, radial=True) > onset15

    def test_reads_one_state_per_sample(self, crit15, onset15, monkeypatch):
        reads, root_reads = [], []
        monkeypatch.setattr(critical, "eval_motion",
                            lambda m, t: reads.append(t) or eval_motion(m, t))
        real_brentq = critical.brentq
        monkeypatch.setattr(critical, "brentq", lambda f, a, b, **kw: real_brentq(
            lambda z: root_reads.append(z) or f(z), a, b, **kw))
        assert subsolution_onset(crit15, 80.0) == onset15
        assert root_reads
        assert len(reads) <= 4097 + len(root_reads)

    def test_bounded_potential_has_no_onset(self, physics):
        motion = SeparableMotion.symmetric(physics, 2.0, a=1.0)
        with pytest.raises(ValueError, match="no valid barrier onset"):
            subsolution_onset(motion, 10.0)


class TestBarrierProfile:
    # t_ref = t keeps the gauge factor at exactly one.

    def test_vanishes_at_left_endpoint(self, crit15):
        assert subsolution(crit15, [0.0], 10.0, 10.0)[0] == 0.0

    def test_left_slope_is_airy_derivative_at_its_zero(self, crit15):
        h = 1e-5
        vm, vp = subsolution(crit15, [-h, h], 10.0, 10.0)
        slope = (vp - vm) / (2.0 * h)
        assert slope == pytest.approx(airy_ai(C1_ZERO)[1] / crit15.L0, rel=1e-7)

    def test_tangent_splice_is_smooth(self, crit15):
        # The curved and straight pieces meet where the profile argument
        # crosses zero; value and slope must agree there.
        p13 = potential_value(crit15, 10.0) ** (1.0 / 3.0)
        xi_glue = -C1_ZERO * crit15.L0 / p13
        eps = 1e-7
        left = subsolution(crit15, [xi_glue - 3 * eps, xi_glue - eps], 10.0, 10.0)
        right = subsolution(crit15, [xi_glue + eps, xi_glue + 3 * eps], 10.0, 10.0)
        dl = (left[1] - left[0]) / (2.0 * eps)
        dr = (right[1] - right[0]) / (2.0 * eps)
        assert abs(dl - dr) < 1e-8
        assert dl == pytest.approx(AIP0 / crit15.L0, rel=1e-6)

    def test_dead_region_is_exactly_zero(self, crit15):
        p13 = potential_value(crit15, 10.0) ** (1.0 / 3.0)
        xi_star = -SLOPE_SUM * crit15.L0 / p13
        inside, outside = subsolution(
            crit15, [xi_star - 1e-6, xi_star + 1e-6], 10.0, 10.0)
        assert inside > 0.0
        assert outside == 0.0
        assert subsolution(crit15, [0.9], 10.0, 10.0)[0] == 0.0

    def test_rejects_times_before_reference(self, crit15):
        with pytest.raises(ValueError, match="onset"):
            subsolution(crit15, [0.1], 5.0, 10.0)

    def test_rejects_nonpositive_potential(self, physics):
        motion = SeparableMotion.fixed_length(physics, 1.0)
        with pytest.raises(ValueError, match="not positive"):
            subsolution(motion, [0.2], 1.0, 0.5)


class TestGauge:
    def test_gauge_decays_to_a_positive_limit(self, crit15, onset15):
        # The prefactor a(t) shrinks like exp(-const t^(-1/3) corrections):
        # successive decade decrements should contract by about 10^(-1/3).
        vals = []
        for t in (1e3, 1e4, 1e5, 1e6):
            with_gauge = subsolution(crit15, [0.004], t, onset15)[0]
            bare = subsolution(crit15, [0.004], t, t)[0]
            vals.append(with_gauge / bare)
        assert vals[0] == pytest.approx(0.011092, rel=1e-3)
        assert all(v > 0.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.004
        d1, d2, d3 = (vals[i] - vals[i + 1] for i in range(3))
        assert d2 < 0.6 * d1
        assert d3 < 0.6 * d2

    @pytest.mark.parametrize("barrier", [
        lambda m, x, t, t_ref: subsolution(m, x, t, t_ref),
        lambda m, x, t, t_ref: subsolution(m, x, t, t_ref, 3),
        subsolution_residual,
    ], ids=["interval", "ball", "residual"])
    def test_reference_before_a_nonnegative_potential_is_refused(self, physics, barrier):
        # P(0) = -0.75, so P^(2/3) is complex at the gauge's first nodes.
        motion = CriticalMotion(physics, alpha=1.5, eta=EtaSpec(0.0, 4.0, -0.5))
        with pytest.raises(ValueError,
                           match=r"nonnegative potential; P\([0-9.e+-]+\) = -[0-9.e+-]+$"):
            barrier(motion, [0.1], 10.0, 0.0)


class TestSupersolution:
    def test_matches_rescaled_sine_decay(self, physics):
        motion = SeparableMotion.symmetric(physics, 2.0, a=1.0)
        xi = np.array([0.3, 1.0, 1.7])
        for t in (0.7, 2.3):
            s = quad(lambda z: (motion.L0 / eval_motion(motion, z).L) ** 2,
                     0.0, t, epsabs=1e-12, epsrel=1e-12)[0]
            expected = (np.sin(np.pi * xi / motion.L0)
                        * math.exp(-physics.D * np.pi ** 2 * s / motion.L0 ** 2))
            assert np.allclose(supersolution(motion, xi, t), expected,
                               rtol=1e-12, atol=0.0)

    def test_vanishes_at_endpoints(self, physics):
        motion = SeparableMotion.symmetric(physics, 2.0, a=1.0)
        vals = supersolution(motion, [0.0, 2.0], 1.0)
        assert np.all(np.abs(vals) < 1e-14)

    def test_refuses_negative_potential(self, physics):
        shrinking = SeparableMotion.symmetric(physics, 2.0, b=-0.4)
        with pytest.raises(ValueError, match="nonnegative potential"):
            supersolution(shrinking, [1.0], 1.0)


class TestRadialBarriers:
    def test_one_dimensional_ball_is_the_interval_barrier(self, crit25):
        R0 = 0.5 * crit25.L0
        r = np.linspace(1e-3, R0, 33)
        assert np.array_equal(subsolution(crit25, r, 30.0, 30.0, 1),
                              subsolution(crit25, R0 - r, 30.0, 30.0))

    def test_three_dimensional_barrier_lives_in_a_shell(self, crit25):
        R0 = 0.5 * crit25.L0
        r = np.linspace(1e-3, R0, 33)
        vals = subsolution(crit25, r, 30.0, 30.0, 3)
        assert np.all(vals[:3] == 0.0)
        assert np.any(vals > 0.0)
        assert vals[-1] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_high_dimensions(self, crit25):
        with pytest.raises(ValueError, match="n_dim <= 3"):
            subsolution(crit25, [0.2], 30.0, 30.0, 4)

    def test_rejects_profiles_wider_than_the_half_domain(self, crit15):
        # At t = 5 the interval barrier exists but the ball variant does not.
        assert potential_value(crit15, 5.0) > (-SLOPE_SUM) ** 3
        with pytest.raises(ValueError, match="does not fit"):
            subsolution(crit15, [0.2], 5.0, 5.0, 3)

    def test_supersolution_vanishes_at_the_ball_boundary(self, crit25):
        R0 = 0.5 * crit25.L0
        r = np.linspace(0.0, R0, 9)
        for n_dim in (1, 2, 3):
            vals = supersolution(crit25, r, 2.0, n_dim)
            assert vals[0] > 0.0
            assert abs(vals[-1]) < 1e-12 * vals[0]

    def test_supersolution_decay_rate(self, crit25):
        R0 = 0.5 * crit25.L0
        s = quad(lambda z: (crit25.L0 / eval_motion(crit25, z).L) ** 2,
                 0.0, 2.0, epsabs=1e-12, epsrel=1e-12)[0]
        centre = supersolution(crit25, np.array([0.0]), 2.0, 3)[0]
        assert centre == pytest.approx(
            math.exp(-crit25.physics.D * np.pi ** 2 * s / R0 ** 2), rel=1e-9)

    def test_supersolution_rejects_high_dimensions(self, crit25):
        with pytest.raises(ValueError, match="n_dim <= 3"):
            supersolution(crit25, [0.1], 1.0, 4)


class TestResidualSigns:
    def test_subsolution_residual_never_positive(self, crit15, onset15, rng):
        xis = rng.uniform(0.0, crit15.L0, 500)
        ts = rng.uniform(5.0, 60.0, 500)
        res = np.array([subsolution_residual(crit15, [x], float(t), onset15)[0]
                        for x, t in zip(xis, ts)])
        assert np.max(res) <= 1e-12
        assert np.min(res) < 0.0
        assert np.any(res == 0.0)

    def test_supersolution_residual_never_negative(self, physics, rng):
        motion = SeparableMotion.symmetric(physics, 2.0, a=1.0)
        xis = rng.uniform(0.0, motion.L0, 500)
        ts = rng.uniform(0.0, 3.0, 500)
        res = np.array([supersolution_residual(motion, [x], float(t))[0]
                        for x, t in zip(xis, ts)])
        assert np.min(res) >= -1e-12
        assert np.max(res) > 0.0


class TestVerifyEnvelope:
    def test_field_stays_between_calibrated_barriers(self, crit15, interval_run):
        pair = verify_envelope(crit15, interval_run)
        assert pair.onset == pytest.approx(3.870427, abs=1e-3)
        assert pair.t_cal == pytest.approx(4.185, rel=1e-9)
        assert pair.C1 == pytest.approx(0.0278165, rel=1e-3)
        assert pair.C2 == pytest.approx(0.6852952, rel=1e-3)
        assert pair.worst_slack == 0.0
        assert pair.worst_time == pytest.approx(pair.t_cal)
        assert pair.times.size == 25
        assert pair.lower.shape == pair.upper.shape == pair.field.shape
        assert pair.lower.shape == (25, interval_run.grid.size)

    def test_tight_tolerance_raises_with_location(self, crit15, interval_run):
        with pytest.raises(EnvelopeViolationError, match="envelope violated"):
            verify_envelope(crit15, interval_run, slack_tol=-1.0)

    def test_rejects_physical_frame_runs(self, crit15, physics):
        motion = SeparableMotion.fixed_length(physics, 1.0)
        urun = solve_u(motion, lambda xi: np.sin(np.pi * xi),
                       grid_size=32, dt=1e-3, T=0.01)
        with pytest.raises(ValueError, match="potential-form"):
            verify_envelope(crit15, urun)

    def test_rejects_foreign_solutions(self, interval_run):
        other = CriticalMotion(PhysicsParams(D=1.0, f0=1.0), alpha=1.0)
        with pytest.raises(ValueError, match="different motion"):
            verify_envelope(other, interval_run)

    def test_onset_failure_propagates(self, physics):
        motion = SeparableMotion.symmetric(physics, 2.0, a=1.0)
        run = solve_w(motion, lambda xi: np.sin(0.5 * np.pi * xi),
                      grid_size=64, dt=1e-2, T=2.0, output_times=[0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="barrier onset"):
            verify_envelope(motion, run)

    def test_rows_equal_the_barriers_from_scratch(self, crit15, interval_run,
                                                  crit25, ball_run):
        cases = ((crit15, interval_run,
                  lambda m, x, t, on: subsolution(m, x, t, on),
                  lambda m, x, t: supersolution(m, x, t)),
                 (crit25, ball_run,
                  lambda m, x, t, on: subsolution(m, x, t, on, 3),
                  lambda m, x, t: supersolution(m, x, t, 3)))
        for motion, run, sub, sup in cases:
            pair = verify_envelope(motion, run)
            for t, lower, upper in zip(pair.times, pair.lower, pair.upper):
                t = float(t)
                np.testing.assert_allclose(
                    lower, pair.C1 * sub(motion, pair.grid, t, pair.onset), rtol=1e-13, atol=0.0)
                np.testing.assert_allclose(
                    upper, pair.C2 * sup(motion, pair.grid, t), rtol=1e-13, atol=0.0)

    def test_sign_check_covers_every_checked_time(self, crit15, interval_run, monkeypatch):
        seen = set()
        real = critical.potential_value
        monkeypatch.setattr(critical, "potential_value",
                            lambda m, t, radial=False: seen.add(t) or real(m, t, radial))
        pair = verify_envelope(crit15, interval_run)
        for t in pair.times:
            assert seen.issuperset(np.linspace(0.0, float(t), 128).tolist())

    def test_negative_early_potential_is_refused(self, physics):
        # P(0) = -0.75, but P grows past the fit threshold by t = 5.93.
        motion = CriticalMotion(physics, alpha=1.5, eta=EtaSpec(0.0, 4.0, -0.5))
        assert potential_value(motion, 0.0) == pytest.approx(-0.75, rel=1e-12)
        assert subsolution_onset(motion, 40.0) == pytest.approx(5.93, abs=5e-3)
        run = solve_critical(motion, 1, 40.0, 128, 1e-2, 21)
        with pytest.raises(ValueError, match="nonnegative potential"):
            verify_envelope(motion, run)

    def test_csv_export(self, crit15, interval_run, tmp_path):
        pair = verify_envelope(crit15, interval_run)
        path = tmp_path / "envelope.csv"
        envelope_to_csv(pair, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,xi,lower,field,upper,slack"
        assert len(lines) == 1 + pair.times.size * pair.grid.size

    def test_ball_field_stays_between_barriers(self, crit25, ball_run):
        pair = verify_envelope(crit25, ball_run)
        assert pair.onset == pytest.approx(13.1177, abs=1e-3)
        assert pair.C1 > 0.0
        assert pair.C2 == pytest.approx(0.452185, rel=1e-3)
        assert pair.worst_slack == 0.0


class TestBoundaryGradient:
    def test_interval_gradient_band(self, crit15, interval_run):
        times, grads = boundary_gradient(crit15, interval_run)
        sel = grads[(times >= 10.0) & (times <= 80.0)]
        assert np.all(sel > 0.0)
        ratio = float(np.max(sel) / np.min(sel))
        assert ratio == pytest.approx(2.3229, rel=0.02)
        assert ratio < 3.0

    def test_ball_gradient_band(self, crit25, ball_run):
        times, grads = boundary_gradient(crit25, ball_run)
        sel = grads[(times >= 20.0) & (times <= 60.0)]
        assert np.all(sel > 0.0)
        assert float(np.max(sel) / np.min(sel)) < 3.0

    def test_rejects_physical_frame_runs(self, crit15, physics):
        motion = SeparableMotion.fixed_length(physics, 1.0)
        urun = solve_u(motion, lambda xi: np.sin(np.pi * xi),
                       grid_size=32, dt=1e-3, T=0.01)
        with pytest.raises(ValueError, match="potential-form"):
            boundary_gradient(crit15, urun)

    def test_interval_gradient_is_the_mapped_slope(self, crit15, w_snapshot):
        times, grads = boundary_gradient(crit15, w_snapshot)
        h = w_snapshot.grid[1] - w_snapshot.grid[0]
        for t, grad, w in zip(times[1:], grads[1:], w_snapshot.values[1:]):
            slope = (4.0 * w[1] - w[2]) / (2.0 * h)
            scale = crit15.L0 / eval_motion(crit15, t).L
            expect = slope * scale * u_from_w(crit15, [0.0], t, [1.0])[0]
            assert grad == pytest.approx(expect, rel=1e-12)

    def test_ball_gradient_is_the_mapped_slope(self, crit25, ball_snapshot):
        times, grads = boundary_gradient(crit25, ball_snapshot)
        h = ball_snapshot.grid[1] - ball_snapshot.grid[0]
        R0 = 0.5 * crit25.L0
        for t, grad, W in zip(times[1:], grads[1:], ball_snapshot.values[1:]):
            slope = (3.0 * W[-1] - 4.0 * W[-2] + W[-3]) / (2.0 * h)
            scale = crit25.L0 / eval_motion(crit25, t).L
            expect = -slope * scale * psi_from_W(crit25, [R0], t, [1.0], 3)[0]
            assert grad == pytest.approx(expect, rel=1e-12)


class TestProbes:
    PROBES = [0.5, 1.0, 2.0]

    def test_interval_probe_is_the_mapped_field(self, crit15, w_snapshot):
        times = w_snapshot.times[-4:]
        logs = _probe_log_psi(crit15, w_snapshot, self.PROBES, times)
        for i, t in enumerate(times):
            xi = np.asarray(self.PROBES) * crit15.L0 / eval_motion(crit15, t).L
            w = CubicSpline(w_snapshot.grid, w_snapshot.slice_at(t))(xi)
            expect = np.log(u_from_w(crit15, xi, t, w))
            assert np.max(np.abs(logs[:, i] - expect)) <= 1e-12

    def test_ball_probe_is_the_mapped_field(self, crit25, ball_snapshot):
        times = ball_snapshot.times[-4:]
        logs = _probe_log_psi(crit25, ball_snapshot, self.PROBES, times)
        R0 = 0.5 * crit25.L0
        for i, t in enumerate(times):
            R = 0.5 * eval_motion(crit25, t).L
            r = (R - np.asarray(self.PROBES)) * R0 / R
            W = CubicSpline(ball_snapshot.grid, ball_snapshot.slice_at(t))(r)
            expect = np.log(psi_from_W(crit25, r, t, W, 3))
            assert np.max(np.abs(logs[:, i] - expect)) <= 1e-12

    def test_offset_beyond_the_ball_radius_is_rejected(self, crit25, ball_snapshot):
        # The first output time in the window [40/10^1.5, 40] is t = 1.48,
        # where the radius is 1.19 < 2.
        with pytest.raises(ValueError, match=r"y=2.0 lies outside the domain at "
                                             r"t=1.48, where R\(t\)=1.189"):
            fit_exponent(crit25, n_dim=3, probes=(0.5, 2.0), t_final=40.0,
                         solution=ball_snapshot)

    def test_nonpositive_offset_is_rejected(self, crit15, w_snapshot):
        with pytest.raises(ValueError, match=r"y=0.0 lies outside the domain .* L\(t\)="):
            _probe_log_psi(crit15, w_snapshot, [0.0, 1.0], w_snapshot.times[-2:])


class TestFitExponent:
    def test_balanced_spreading_decays_diffusively(self, physics):
        cstar = physics.c_star
        motion = SeparableMotion.linear_length(physics, 1.0, 2.0 * cstar,
                                               c=-cstar)
        report = fit_exponent(motion, window=(1e2, 1e4), t_final=1e4)
        assert report.route == "series"
        assert report.predicted_exponent == -1.5
        assert abs(report.fitted_exponent + 1.5) <= 0.02
        assert len(report.per_probe) == 3
        assert all(abs(p + 1.5) <= 0.02 for p in report.per_probe)
        assert report.residual_rms < 0.01
        assert abs(report.limit_exponent + 1.5) <= 0.02
        assert len(report.limit_per_probe) == 3
        assert all(abs(p + 1.5) <= 0.02 for p in report.limit_per_probe)
        assert report.limit_error == report.limit_exponent + 1.5

    def test_relaxation_fit_recovers_exact_model(self):
        # log psi = c + p log t + b t^(-1/2) is inside the model, so the
        # corrected fit must return p and b to rounding, while the plain
        # slope keeps the relaxation bias.
        times = np.geomspace(10 ** 1.5, 1e3, 41)
        cases = ((-0.7, 4.1), (0.25, -2.0), (-1.5, 0.0))
        logs = [1.3 + p * np.log(times) + b / np.sqrt(times) for p, b in cases]
        slopes, limits, relax, _ = _fit_log_decay(times, logs)
        for (p, b), slope, limit, coeff in zip(cases, slopes, limits, relax):
            assert limit == pytest.approx(p, abs=1e-10)
            assert coeff == pytest.approx(b, abs=1e-10)
            if b > 0.0:
                assert slope < p - 0.01
        assert slopes[2] == pytest.approx(-1.5, abs=1e-12)

    def test_series_route_rejects_other_motions(self, physics):
        cstar = physics.c_star
        with pytest.raises(ValueError, match="linearly spreading"):
            fit_exponent(SeparableMotion.sqrt_length(physics, 1.0, 1.0),
                         window=(1e2, 1e4), t_final=1e4)
        with pytest.raises(ValueError, match="balanced configuration"):
            fit_exponent(SeparableMotion.linear_length(physics, 1.0, 1.0,
                                                       c=-cstar),
                         window=(1e2, 1e4), t_final=1e4)
        balanced = SeparableMotion.linear_length(physics, 1.0, 2.0 * cstar,
                                                 c=-cstar)
        with pytest.raises(ValueError, match="one-dimensional"):
            fit_exponent(balanced, n_dim=2, window=(1e2, 1e4), t_final=1e4)

    def test_numeric_route_reuses_a_computed_run(self, crit15, interval_run):
        report = fit_exponent(crit15, window=(2.5, 80.0), t_final=80.0,
                              solution=interval_run)
        assert report.route == "numeric"
        assert report.alpha == 1.5
        assert report.predicted_exponent == pytest.approx(0.0, abs=1e-12)
        # Short horizon, so the slow logarithmic transient still biases the
        # fit well below its eventual value.
        assert -0.65 < report.fitted_exponent < -0.35
        assert report.residual_rms < 0.3
        assert len(report.per_probe) == 3
        assert report.grid_size == interval_run.grid_size
        assert report.dt == interval_run.dt

    def test_window_validation(self, crit15, interval_run):
        with pytest.raises(ValueError, match="1.5 decades"):
            fit_exponent(crit15, window=(20.0, 80.0), t_final=80.0,
                         solution=interval_run)
        with pytest.raises(ValueError, match="inside"):
            fit_exponent(crit15, window=(2.5, 100.0), t_final=80.0,
                         solution=interval_run)

    @pytest.mark.parametrize("window", [(0.0, 80.0), (-1.0, 80.0)])
    def test_window_must_start_above_zero(self, crit15, window):
        with pytest.raises(ValueError, match=r"must sit inside \(0, t_final\]"):
            fit_exponent(crit15, window=window, t_final=80.0)

    def test_numeric_route_rejects_foreign_solutions(self, interval_run):
        other = CriticalMotion(PhysicsParams(D=1.0, f0=1.0), alpha=1.0)
        with pytest.raises(ValueError, match="different motion"):
            fit_exponent(other, window=(2.5, 80.0), t_final=80.0,
                         solution=interval_run)

    def test_numeric_route_rejects_a_run_of_another_dimension(self, crit25,
                                                              ball_snapshot):
        # An n = 3 ball run fitted with the default n_dim = 1 would be
        # compared against the interval's prediction.
        with pytest.raises(ValueError, match="n_dim=1 needs a potential-form run .* "
                                             "'radial' run with n_dim=3"):
            fit_exponent(crit25, probes=(0.5, 1.0), t_final=40.0,
                         solution=ball_snapshot)

    def test_numeric_route_rejects_physical_frame_runs(self, crit15):
        outputs = np.unique(np.concatenate([[0.0], np.geomspace(0.1, 10.0, 21)]))
        urun = solve_u(crit15, lambda xi: np.sin(np.pi * xi / crit15.L0),
                       grid_size=64, dt=1e-2, T=10.0, output_times=outputs)
        with pytest.raises(ValueError, match="needs a potential-form run .* 'u' run"):
            fit_exponent(crit15, probes=(0.5, 1.0), t_final=10.0, solution=urun)

    def test_exponent_tracks_lag_strength_affinely(self):
        # Four lag strengths at f0 = 8; each fit runs its own solver, so
        # this is the slowest test in the file (about 15 s).
        ph = PhysicsParams(D=1.0, f0=8.0)
        alphas = (0.1768, 0.3536, 0.5303, 0.7071)
        fitted = []
        for alpha in alphas:
            report = fit_exponent(CriticalMotion(ph, alpha=alpha),
                                  t_final=400.0, grid_size=768, dt=4e-3)
            fitted.append(report.fitted_exponent)
        design = np.vstack([np.ones(len(alphas)), alphas]).T
        slope = np.linalg.lstsq(design, np.asarray(fitted), rcond=None)[0][1]
        expected = ph.c_star / (2.0 * ph.D)
        assert abs(slope - expected) / expected < 0.10


class TestComparisonBounds:
    def test_coincident_brackets_reproduce_the_series(self, physics):
        motion = SeparableMotion(physics, 2.0, 1.0, 1.0, gamma1=0.3,
                                 c=-0.5, d=0.1)
        u0 = lambda xi: np.sin(np.pi * xi)
        lo, hi = envelope_bounds_general(motion, u0, motion.gamma0,
                                         motion.gamma0, 0.3, 0.3, 1.8,
                                         grid_size=512, num_modes=32)
        sol = build_series(motion, u0, grid_size=512, num_modes=32)
        xi = np.linspace(0.0, 1.0, 41)[1:-1]
        for t in (0.4, 1.0, 1.6):
            ref = eval_series(sol, xi, t)
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(eval_bound(lo, xi, t) - ref)) < 1e-9 * scale
            assert np.max(np.abs(eval_bound(hi, xi, t) - ref)) < 1e-9 * scale
        assert lo.side == "lower"
        assert hi.side == "upper"
        assert lo.sigma1 == hi.sigma1

    def test_tabulated_motion_is_bracketed(self, wobble):
        u0 = lambda xi: np.sin(0.5 * np.pi * xi)
        lo, hi = envelope_bounds_general(wobble, u0, -6.5255, 0.3,
                                         -0.3, 3.4127, 2.0,
                                         grid_size=512, num_modes=32)
        assert lo.sigma1 < hi.sigma1
        truth = solve_u(wobble, u0, grid_size=512, dt=5e-4, T=2.0,
                        output_times=[0.5, 1.5, 2.0])
        for t in (0.5, 1.5, 2.0):
            vals = truth.slice_at(t)
            scale = np.max(np.abs(vals))
            upper_margin = (eval_bound(hi, truth.grid, t) - vals) / scale
            lower_margin = (vals - eval_bound(lo, truth.grid, t)) / scale
            assert np.min(upper_margin) > -1e-8
            assert np.min(lower_margin) > -1e-8
            assert np.min(upper_margin[1:-1]) > 0.0
            assert np.min(lower_margin[1:-1]) > 0.0

    def test_rejects_escaping_coefficients(self, wobble):
        with pytest.raises(ValueError, match="escape the brackets"):
            envelope_bounds_general(wobble, lambda xi: np.sin(0.5 * np.pi * xi),
                                    -1.0, 0.3, -0.3, 3.4127, 2.0)


class TestNesting:
    def test_growing_domain_contains_fixed_domain(self, physics):
        inner = SeparableMotion.fixed_length(physics, 1.0)
        outer = SeparableMotion.linear_length(physics, 1.0, 1.0)
        verify_nested(inner, outer, 2.0)

    def test_reversed_domains_are_rejected(self, physics):
        inner = SeparableMotion.fixed_length(physics, 1.0)
        outer = SeparableMotion.linear_length(physics, 1.0, 1.0)
        with pytest.raises(ValueError, match="not nested"):
            verify_nested(outer, inner, 2.0)


class TestFitReportDocument:
    def test_document_round_trip(self, crit15, interval_run):
        report = fit_exponent(crit15, window=(2.5, 80.0), t_final=80.0,
                              solution=interval_run)
        doc = fit_report_document(report)
        assert doc["schema_version"] == 1
        assert doc["route"] == "numeric"
        assert doc["alpha"] == 1.5
        assert doc["fitted_exponent"] == report.fitted_exponent
        assert doc["error"] == pytest.approx(
            report.fitted_exponent - report.predicted_exponent)
        assert doc["per_probe"] == list(report.per_probe)
        assert doc["window"] == [2.5, 80.0]
        assert doc["limit_exponent"] == report.limit_exponent
        assert doc["limit_error"] == pytest.approx(
            report.limit_exponent - report.predicted_exponent)
        assert doc["limit_per_probe"] == list(report.limit_per_probe)
        assert len(doc["limit_per_probe"]) == len(doc["probes"])
        assert doc["relaxation_coeff"] == report.relaxation_coeff
        assert json.loads(json.dumps(doc)) == doc
