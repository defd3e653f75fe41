import dataclasses
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
                                 potential_value, run_critical, solve_critical,
                                 subsolution, subsolution_onset,
                                 subsolution_residual, supersolution,
                                 supersolution_residual, verify_envelope,
                                 verify_nested)
from growthdiff.exact import build_series, eval_series
from growthdiff.motion import (CriticalMotion, EtaSpec, ParameterError, PhysicsParams,
                               SeparableMotion, TabulatedMotion, eval_motion, time_rescale)
from growthdiff.numeric import grid_manifest, solve_radial, solve_u, solve_w
from growthdiff.transforms import log_radial_factor, psi_from_W, u_from_w

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

    @pytest.mark.parametrize("eta", [EtaSpec(), EtaSpec(1.0, -0.5)])
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

    def test_constant_potential_past_the_threshold_starts_at_zero(self, physics):
        # gamma0 = 300 holds P at 75 > 51.06 with dP/dt = 0 from t = 0 on.
        motion = SeparableMotion(physics, 300.0, 0.0, 1.0)
        assert potential_value(motion, 1.0) == 75.0
        assert subsolution_onset(motion, 5.0) == 0.0

    def test_onset_after_a_dip_of_the_rate_is_a_sample(self, physics):
        # P starts at 128 and dips to about 109 before growing: it never leaves the
        # threshold, so the onset is the first sample from which dP/dt stays >= 0.
        motion = CriticalMotion(physics, alpha=0.5, L0_offset=8.0)
        assert potential_rate(motion, 0.0) < 0.0
        onset = subsolution_onset(motion, 20.0)
        assert onset == 1.328125 == 20.0 * 272 / 4096
        assert potential_value(motion, onset) > (-SLOPE_SUM) ** 3


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
        motion = CriticalMotion(physics, alpha=1.5, eta=EtaSpec(4.0, -0.5))
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
        with pytest.raises(ValueError, match="does not fit in the half domain"):
            subsolution(crit15, [0.2], 5.0, 5.0, 3)
        # At t = 1, P = 4.67 is below the interval's threshold too: the profile
        # would not vanish by xi = L0, so it is no subsolution there.
        assert potential_value(crit15, 1.0) < (-SLOPE_SUM) ** 3
        for barrier in (lambda: subsolution(crit15, [0.5, crit15.L0], 1.0, 1.0),
                        lambda: subsolution_residual(crit15, [0.5], 1.0, 1.0)):
            with pytest.raises(ValueError, match=r"does not fit in the domain at t=1\.0: "
                                                 r"P = 4\.67\d* < 51\.06"):
                barrier()

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


class TestBarrierArguments:
    """Each barrier checks n_dim, t and t_ref once, before it reads the motion."""

    @pytest.fixture(autouse=True)
    def no_computation(self, monkeypatch):
        for name in ("_check_potential_sign", "time_rescale", "potential_value", "_clock",
                     "eval_motion"):
            monkeypatch.setattr(critical, name, _computed)

    @pytest.mark.parametrize("barrier", [
        lambda m: supersolution(m, [0.5], 500.0, n_dim=4),
        lambda m: subsolution(m, [0.5], 60.0, 10.0, n_dim=4),
        lambda m: subsolution(m, [0.5], 60.0, 10.0, n_dim=0),
    ], ids=["supersolution", "subsolution", "subsolution-zero"])
    def test_n_dim_is_refused_first(self, crit15, barrier):
        with pytest.raises(ParameterError, match="^radial barriers are only available "
                                                 "for n_dim <= 3$"):
            barrier(crit15)

    @pytest.mark.parametrize("barrier", [subsolution, subsolution_residual])
    def test_an_onset_after_t_is_refused(self, crit15, barrier):
        with pytest.raises(ParameterError, match=r"^barrier is only defined from its "
                                                 r"onset t_ref=80\.0$"):
            barrier(crit15, [0.5], 60.0, 80.0)


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
        # t_cal is the first requested output time past the onset, stored exactly.
        assert pair.t_cal == pytest.approx(4.18256, rel=1e-6)
        assert pair.t_cal in interval_run.times
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

    def test_rejects_off_centre_runs(self, physics):
        # solve_w marches any motion, but the barriers assume the centred potential.
        motion = SeparableMotion.fixed_length(physics, math.pi, gamma1=0.5, c=0.5)
        run = solve_w(motion, np.sin, grid_size=64, dt=1e-2, T=2.0,
                      output_times=[0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="not centred"):
            verify_envelope(motion, run)

    def test_one_time_past_the_onset_leaves_no_room(self, crit15):
        run = solve_w(crit15, lambda xi: np.sin(np.pi * xi / crit15.L0), grid_size=64,
                      dt=1e-2, T=40.0, output_times=[0.0, 40.0])
        with pytest.raises(ValueError, match=r"^no room to verify: barrier onset 3\.87 "
                                             "leaves fewer than two output times$"):
            verify_envelope(crit15, run)

    def test_subsolution_between_the_nodes_is_refused(self, physics):
        # P = 5e4 leaves the barrier alive only on xi/L0 < 0.1007, short of the
        # first node of an 8-interval grid.
        motion = SeparableMotion.symmetric(physics, 1.0, a=2e5)
        run = solve_w(motion, lambda xi: np.sin(np.pi * xi), grid_size=8, dt=1e-3, T=0.01,
                      output_times=[0.0, 0.01])
        with pytest.raises(ValueError, match="^subsolution vanished on the whole grid at t_cal$"):
            verify_envelope(motion, run)

    def test_field_negative_at_calibration_is_refused(self, crit15, interval_run):
        values = interval_run.values.copy()
        i = int(np.argmin(np.abs(interval_run.times - 4.18256)))      # t_cal
        values[i] = -np.abs(interval_run.values[i])
        with pytest.raises(ValueError, match="^field is not positive where the subsolution "
                                             "lives at t_cal; calibration impossible$"):
            verify_envelope(crit15, dataclasses.replace(interval_run, values=values))

    def test_ball_calibrates_the_supersolution_at_the_centre(self, crit25, ball_run):
        # r = 0 is an unknown of the ball, not a Dirichlet node: a field whose
        # ratio to the sine-like barrier peaks there sets C2 from it.
        pair = verify_envelope(crit25, ball_run)
        i = int(np.flatnonzero(ball_run.times == pair.t_cal)[0])
        sup = critical._upper_barrier(crit25, ball_run.grid, time_rescale(crit25, pair.t_cal), 3)
        values = ball_run.values.copy()
        values[i, 0] = 2.0 * pair.C2 * sup[0]
        centred = verify_envelope(crit25, dataclasses.replace(ball_run, values=values))
        assert centred.C2 == values[i, 0] / sup[0] > pair.C2
        assert centred.C1 == pair.C1

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
        monkeypatch.setattr(critical, "eval_motion", lambda m, t: seen.update(
            np.atleast_1d(t).tolist()) or eval_motion(m, t))
        pair = verify_envelope(crit15, interval_run)
        for t in pair.times:
            assert seen.issuperset(np.linspace(0.0, float(t), 128).tolist())

    def test_negative_early_potential_is_refused(self, physics):
        # P(0) = -0.75, but P grows past the fit threshold by t = 5.93.
        motion = CriticalMotion(physics, alpha=1.5, eta=EtaSpec(4.0, -0.5))
        assert potential_value(motion, 0.0) == pytest.approx(-0.75, rel=1e-12)
        assert subsolution_onset(motion, 40.0) == pytest.approx(5.93, abs=5e-3)
        run = solve_critical(motion, 1, 40.0, 128, 1e-2, 21)
        with pytest.raises(ValueError, match="nonnegative potential"):
            verify_envelope(motion, run)

    def test_nan_slack_tol_is_refused_before_any_computation(self, crit15, interval_run,
                                                              monkeypatch):
        # The last row scaled by 5 crosses the upper barrier; worst < -nan is False.
        values = interval_run.values.copy()
        values[-1] *= 5.0
        broken = dataclasses.replace(interval_run, values=values)
        with pytest.raises(EnvelopeViolationError):
            verify_envelope(crit15, broken, slack_tol=1e-8)
        assert verify_envelope(crit15, broken, slack_tol=math.inf).worst_slack < -0.3
        monkeypatch.setattr(critical, "subsolution_onset", _computed)
        with pytest.raises(ParameterError, match="^slack_tol must be a number, got nan$"):
            verify_envelope(crit15, broken, slack_tol=math.nan)

    def test_csv_export(self, crit15, interval_run, tmp_path):
        pair = verify_envelope(crit15, interval_run)
        path = tmp_path / "envelope.csv"
        envelope_to_csv(pair, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,xi,lower,field,upper,slack"
        assert len(lines) == 1 + pair.times.size * pair.grid.size

    @pytest.mark.parametrize("case", ["interval", "ball"])
    def test_gate_and_csv_read_one_slack(self, case, crit15, interval_run, crit25, ball_run,
                                         tmp_path):
        motion, run = (crit15, interval_run) if case == "interval" else (crit25, ball_run)
        # A stored row of zeros after t_cal has slack -lower / 1e-300 in the table,
        # and the gate skips it.
        values = run.values.copy()
        values[-1] = 0.0
        pair = verify_envelope(motion, dataclasses.replace(run, values=values))
        scale = np.max(np.abs(pair.field), axis=1, keepdims=True)
        gap = np.minimum(pair.upper - pair.field, pair.field - pair.lower)
        np.testing.assert_array_equal(pair.slack, gap / np.maximum(scale, 1e-300))
        path = tmp_path / "envelope.csv"
        envelope_to_csv(pair, path)
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(table[:, 5], pair.slack.ravel())
        assert pair.slack[-1].min() < -1e200
        rows = pair.slack[:-1]
        i, j = np.unravel_index(np.argmin(rows), rows.shape)
        assert pair.worst_slack == rows.min() == rows[i, j]
        assert (pair.worst_time, pair.worst_xi) == (pair.times[i], pair.grid[j])

    def test_ball_field_stays_between_barriers(self, crit25, ball_run):
        pair = verify_envelope(crit25, ball_run)
        assert pair.onset == pytest.approx(13.1177, abs=1e-3)
        assert pair.C1 > 0.0
        assert pair.C2 == pytest.approx(0.45904, rel=1e-3)
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

    def test_rejects_foreign_solutions(self, interval_run):
        other = CriticalMotion(PhysicsParams(D=1.0, f0=1.0), alpha=0.5)
        with pytest.raises(ValueError, match="different motion"):
            boundary_gradient(other, interval_run)

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

    def test_ball_gradient_is_the_three_point_formula(self, crit25, ball_snapshot):
        # The ball's row read from its boundary node r = R0, where W = 0, is
        # -(3 W_N - 4 W_N-1 + W_N-2) / 2h to the last bit.
        times, grads = boundary_gradient(crit25, ball_snapshot)
        h = ball_snapshot.grid[1] - ball_snapshot.grid[0]
        scales = crit25.L0 / eval_motion(crit25, ball_snapshot.times).L
        for t, grad, W, scale in zip(times.tolist(), grads.tolist(), ball_snapshot.values,
                                     scales.tolist()):
            slope = -(3.0 * W[-1] - 4.0 * W[-2] + W[-3]) / (2.0 * h)
            factor = float(np.exp(-log_radial_factor(crit25, 0.5 * crit25.L0, t, 3)))
            assert grad == slope * scale * factor


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
        # The first output time in the window [40/10^1.5, 40] is t = 1.48227,
        # where the radius is 1.19 < 2.
        with pytest.raises(ValueError, match=r"y=2.0 lies outside the domain at "
                                             r"t=1.48227, where R\(t\)=1.19161"):
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

    def test_plain_fit_recovers_linear_data_for_every_probe_at_once(self):
        # A (probes x times) array, as the numeric route passes it: each model is
        # one solve over all probes.
        times = np.geomspace(2.5, 80.0, 25)
        cases = ((-0.4, 2.0), (0.0, -1.0), (1.25, 0.5), (-3.0, 7.0))
        logs = np.array([c + p * np.log(times) for p, c in cases])
        slopes, limits, relax, rms = _fit_log_decay(times, logs)
        assert all(isinstance(v, float) for v in slopes + limits + relax)
        for (p, _), slope, limit, coeff in zip(cases, slopes, limits, relax):
            assert slope == pytest.approx(p, abs=1e-12)
            assert limit == pytest.approx(p, abs=1e-10)
            assert coeff == pytest.approx(0.0, abs=1e-10)
        assert rms < 1e-12

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

    def test_series_probe_at_the_moving_end_is_refused(self, physics):
        # y = L(100) sits on the right end at the window's first time, where u = 0.
        cstar = physics.c_star
        balanced = SeparableMotion.linear_length(physics, 1.0, 2.0 * cstar, c=-cstar)
        end = eval_motion(balanced, 100.0).L
        with pytest.raises(RuntimeError, match=f"^probe value nonpositive for offset y={end}$"):
            fit_exponent(balanced, probes=(0.5, end), window=(1e2, 1e4), t_final=1e4)

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
        # The run's grid size and steps live in its own record, not in the fit report.
        assert not {"grid_size", "steps"} & fit_report_document(report).keys()

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

    @pytest.mark.parametrize("probes", [(), (0.0, 1.0), (-0.5,), (math.nan,), (math.inf,)],
                             ids=["empty", "zero", "negative", "nan", "inf"])
    def test_probes_are_checked_before_the_solve(self, crit15, probes, monkeypatch):
        monkeypatch.setattr(critical, "solve_critical", _no_solve)
        with pytest.raises(ValueError, match="probe offsets must be one or more "
                                             "finite positive numbers"):
            fit_exponent(crit15, probes=probes, t_final=80.0)

    @pytest.mark.parametrize("t_final,window", [(1e3, (2.5, 80.0)), (40.0, (1.0, 40.0)),
                                                (math.nextafter(80.0, math.inf), (2.5, 80.0))],
                             ids=["past-the-run", "inside-the-run", "one-ulp-past-the-run"])
    def test_numeric_route_needs_the_runs_own_t_final(self, crit15, interval_run,
                                                      t_final, window, monkeypatch):
        # The report would otherwise carry a t_final the fit never reached.
        def no_probe(*args):
            raise AssertionError("a probe was read")
        monkeypatch.setattr(critical, "_probe_log_psi", no_probe)
        with pytest.raises(ValueError, match=rf"t_final={t_final} is not the run's "
                                             r"last stored time 80\.0"):
            fit_exponent(crit15, t_final=t_final, window=window, solution=interval_run)

    def test_series_route_refuses_a_run(self, physics, w_snapshot, monkeypatch):
        # The series route marches nothing; a run handed to it would go unread.
        monkeypatch.setattr(critical, "solve_sl", _no_solve)
        cstar = physics.c_star
        balanced = SeparableMotion.linear_length(physics, 1.0, 2.0 * cstar, c=-cstar)
        with pytest.raises(ValueError, match="reads a run only for a critical motion"):
            fit_exponent(balanced, t_final=40.0, solution=w_snapshot)

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


def _no_solve(*args, **kwargs):
    raise AssertionError("solve_critical was called")


def _computed(*args, **kwargs):
    raise AssertionError("a refused call computed something")


def _assert_fields_equal(one, two):
    for field in dataclasses.fields(one):
        a, b = getattr(one, field.name), getattr(two, field.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


class TestRunCritical:
    ARGS = dict(t_final=20.0, grid_size=64, dt=1e-2, num_outputs=21)

    def test_products_equal_the_separate_calls(self, crit15):
        run = run_critical(crit15, slack_tol=1e-6, tol=10.0, **self.ARGS)
        sol = solve_critical(crit15, 1, 20.0, 64, 1e-2, 21)
        _assert_fields_equal(run.solution, sol)
        _assert_fields_equal(run.envelope, verify_envelope(crit15, sol, slack_tol=1e-6))
        _assert_fields_equal(run.report, fit_exponent(crit15, t_final=20.0, solution=sol))
        # The run record first, then the fit report; the keys both hold agree.
        manifest, fit = grid_manifest(sol), fit_report_document(run.report)
        assert list(run.document) == list(dict.fromkeys([*manifest, *fit])) + [
            "motion", "tol", "envelope"]
        shared = manifest.keys() & fit.keys()
        assert shared == {"schema_version", "n_dim", "t_final"}
        assert all(manifest[key] == fit[key] for key in shared)
        assert {key: run.document[key] for key in manifest} == manifest
        assert run.document["tol"] == 10.0
        assert run.document["envelope"]["slack_tol"] == 1e-6
        assert run.document["envelope"]["C2"] == run.envelope.C2

    @pytest.mark.parametrize("bad", [
        dict(window=(2.0, 20.0)), dict(window=(0.0, 20.0)), dict(window=(0.5, 25.0)),
        dict(window=(5.0,)), dict(probes=()), dict(probes=(0.0, 1.0)),
        dict(probes=(math.nan,)), dict(num_outputs=5), dict(num_outputs=0),
        dict(num_outputs=-3), dict(dt=200.0),
    ], ids=["short-window", "window-at-zero", "window-past-t-final", "one-number-window",
            "no-probes", "zero-probe", "nan-probe", "few-outputs", "no-outputs",
            "negative-outputs", "outputs-past-t-final"])
    def test_bad_fit_inputs_cost_no_solve(self, crit15, bad, monkeypatch):
        monkeypatch.setattr(critical, "solve_critical", _no_solve)
        with pytest.raises(ParameterError, match="fit window|probe offsets"):
            run_critical(crit15, **{**self.ARGS, **bad})

    @pytest.mark.parametrize("name", ["slack_tol", "tol"])
    def test_nan_tolerance_costs_no_solve(self, crit15, name, monkeypatch):
        # A NaN tolerance turns its gate off, and the report would not be valid JSON.
        monkeypatch.setattr(critical, "solve_critical", _no_solve)
        with pytest.raises(ParameterError, match=f"^{name} must be a number, got nan$"):
            run_critical(crit15, **{**self.ARGS, name: math.nan})

    def test_infinite_tolerances_are_accepted(self, crit15):
        run = run_critical(crit15, slack_tol=math.inf, tol=math.inf, **self.ARGS)
        assert run.document["tol"] == run.document["envelope"]["slack_tol"] == math.inf

    def test_few_outputs_cost_fit_exponent_no_solve(self, crit15, monkeypatch):
        monkeypatch.setattr(critical, "solve_critical", _no_solve)
        with pytest.raises(ParameterError, match="only 7 output times fall in the fit "
                                                 "window .* raise num_outputs or lower dt"):
            fit_exponent(crit15, t_final=20.0, grid_size=64, dt=1e-2, num_outputs=11)


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
            # Same coefficients, same route: the brackets are the series.
            generic = eval_series(sol, xi, t, route="generic")
            assert np.array_equal(eval_bound(lo, xi, t), generic)
            assert np.array_equal(eval_bound(hi, xi, t), generic)
        assert lo.eigen.sigmas[0] == hi.eigen.sigmas[0]

    def test_tabulated_motion_is_bracketed(self, wobble):
        u0 = lambda xi: np.sin(0.5 * np.pi * xi)
        lo, hi = envelope_bounds_general(wobble, u0, -6.5255, 0.3,
                                         -0.3, 3.4127, 2.0,
                                         grid_size=512, num_modes=32)
        assert lo.eigen.sigmas[0] < hi.eigen.sigmas[0]
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

    def test_reading_is_confined_to_the_reference_interval(self, wobble):
        lo, _ = envelope_bounds_general(wobble, lambda xi: np.sin(0.5 * np.pi * xi),
                                        -6.5255, 0.3, -0.3, 3.4127, 2.0,
                                        grid_size=128, num_modes=8, n_check=100)
        for xi in ([-0.5, 1.0], [1.0, 2.7]):
            with pytest.raises(ValueError, match=r"xi must lie in \[0, 2\.0\]"):
                eval_bound(lo, xi, 1.0)

    def test_initial_data_must_vanish_at_the_ends(self, wobble):
        with pytest.raises(ValueError, match="must vanish at both interval endpoints"):
            envelope_bounds_general(wobble, lambda xi: np.cos(np.pi * xi),
                                    -6.5255, 0.3, -0.3, 3.4127, 2.0,
                                    grid_size=128, num_modes=8, n_check=100)

    def test_initial_data_must_be_finite(self, wobble):
        with pytest.raises(ParameterError, match="initial data must be finite, got nan"):
            envelope_bounds_general(wobble, lambda xi: np.where(xi == 1.0, np.nan,
                                                                 np.sin(0.5 * np.pi * xi)),
                                    -6.5255, 0.3, -0.3, 3.4127, 2.0,
                                    grid_size=128, num_modes=8, n_check=100)

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
