import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from growthdiff.exact import build_radial_series
from growthdiff.motion import (CriticalMotion, EtaSpec, ParameterError, PhysicsParams,
                               SeparableMotion, TabulatedMotion, eval_motion,
                               require_centered)
from growthdiff.numeric import solve_radial, solve_u
from growthdiff.transforms import (drift_integral, initial_W_from_psi,
                                   initial_w_from_u, log_radial_factor,
                                   log_shape_factor, log_time_factor,
                                   psi_from_W, u_from_w,
                                   w_from_u, x_from_xi, xi_from_x)


def _moving(physics):
    return SeparableMotion(physics, 1.0, 2.0, 1.0, gamma1=0.3, c=-0.5, d=0.1)


def test_initial_data_of_the_wrong_shape_is_refused(physics):
    motion = SeparableMotion.fixed_length(physics, 1.0)
    with pytest.raises(ParameterError,
                       match=r"^initial data has shape \(64,\), grid has shape \(65,\)$"):
        solve_u(motion, np.zeros(64), grid_size=64, dt=1e-3, T=0.01)


class TestCoordinateMaps:
    def test_endpoints_map_to_reference_interval(self, physics):
        motion = _moving(physics)
        for t in (0.0, 0.7, 2.3):
            st = eval_motion(motion, t)
            assert xi_from_x(motion, st.A, t) == pytest.approx(0.0, abs=1e-12)
            assert xi_from_x(motion, st.A + st.L, t) == pytest.approx(motion.L0, abs=1e-12)

    def test_round_trip(self, physics, rng):
        motion = _moving(physics)
        xi = rng.uniform(0.0, motion.L0, size=40)
        for t in (0.0, 1.1, 3.0):
            back = xi_from_x(motion, x_from_xi(motion, xi, t), t)
            np.testing.assert_allclose(back, xi, rtol=0.0, atol=1e-12)


class TestDriftIntegral:
    def test_zero_for_stationary_endpoint(self, physics):
        motion = SeparableMotion.fixed_length(physics, 2.0)
        assert drift_integral(motion, 3.0) == 0.0

    def test_uniform_translation_closed_form(self):
        ph = PhysicsParams(D=0.7, f0=1.0)
        motion = SeparableMotion.fixed_length(ph, 1.0, c=1.3)
        t = 2.5
        assert drift_integral(motion, t) == pytest.approx(
            1.3 ** 2 * t / (4.0 * ph.D), rel=1e-12)

    @pytest.mark.parametrize("builder", [
        lambda ph: SeparableMotion(ph, 1.0, 2.0, 1.0, gamma1=0.3, c=-0.5, d=0.1),
        lambda ph: SeparableMotion.sqrt_length(ph, 1.0, 0.8, gamma1=0.4, c=0.2),
        lambda ph: SeparableMotion.linear_length(ph, 2.0, 0.5, gamma1=-0.3, c=0.1),
        lambda ph: CriticalMotion(ph, alpha=1.5),
    ])
    def test_matches_quadrature(self, physics, builder):
        motion = builder(physics)

        def integrand(s):
            return eval_motion(motion, s).Adot ** 2 / (4.0 * physics.D)

        for t in (0.5, 1.0, 2.0):
            expected, _ = quad(integrand, 0.0, t, epsabs=1e-12, epsrel=1e-12)
            assert drift_integral(motion, t) == pytest.approx(expected, abs=1e-9)


class TestTimeFactor:
    def test_translating_fixed_length(self):
        ph = PhysicsParams(D=1.0, f0=0.5)
        motion = SeparableMotion.fixed_length(ph, 1.0, c=1.0)
        t = 2.0
        assert log_time_factor(motion, t) == pytest.approx(
            ph.f0 * t - t / 4.0, rel=1e-12)

    def test_critical_fast_path_matches_quadrature(self, physics):
        motion = CriticalMotion(physics, alpha=2.0, L0_offset=1.0)

        def integrand(s):
            return eval_motion(motion, s).Adot ** 2 / (4.0 * physics.D)

        for t in (0.3, 5.0, 40.0):
            expected, _ = quad(integrand, 0.0, t, epsabs=1e-11, epsrel=1e-11,
                               limit=200)
            got = log_time_factor(motion, t)
            assert got == pytest.approx(physics.f0 * t - expected, abs=1e-8)

    @pytest.mark.parametrize("k, p", [(0.5, -0.5), (-0.3, -1.5)])
    def test_critical_eta_terms_match_the_drift_integral(self, k, p):
        # The closed form's eta terms against f0 t minus the checked quadrature.
        for ph in (PhysicsParams(1.0, 1.0), PhysicsParams(0.5, 2.0)):
            motion = CriticalMotion(ph, alpha=1.5, eta=EtaSpec(k, p))
            for t in (0.5, 7.0, 300.0):
                assert log_time_factor(motion, t) == pytest.approx(
                    ph.f0 * t - drift_integral(motion, t), rel=1e-13)


class TestShapeFactor:
    def test_fixed_length_vanishes_at_left_endpoint(self, physics):
        motion = SeparableMotion.fixed_length(physics, 2.0, c=0.7)
        assert log_shape_factor(motion, 0.0, 1.5) == pytest.approx(0.0, abs=1e-15)

    def test_left_endpoint_tracks_length_ratio(self, physics):
        motion = SeparableMotion.sqrt_length(physics, 1.0, 1.0)
        t = 4.0
        L = eval_motion(motion, t).L
        assert log_shape_factor(motion, 0.0, t) == pytest.approx(
            0.5 * math.log(motion.L0 / L), rel=1e-12)

    def test_round_trip_u_w(self, physics, rng):
        motion = _moving(physics)
        xi = rng.uniform(0.0, motion.L0, size=50)
        u = rng.standard_normal(50)
        for t in (0.0, 0.8, 2.0):
            back = u_from_w(motion, xi, t, w_from_u(motion, xi, t, u))
            np.testing.assert_allclose(back, u, rtol=1e-13, atol=1e-13)

    def test_stationary_case_reduces_to_growth_factor(self):
        ph = PhysicsParams(D=1.0, f0=0.7)
        motion = SeparableMotion.fixed_length(ph, 1.0)
        xi = np.linspace(0.0, 1.0, 11)
        w = np.sin(math.pi * xi)
        t = 1.3
        np.testing.assert_allclose(u_from_w(motion, xi, t, w),
                                   w * math.exp(ph.f0 * t), rtol=1e-14)


class TestInitialTransform:
    def test_identity_when_endpoints_start_at_rest(self, physics):
        motion = SeparableMotion.fixed_length(physics, 2.0)
        xi = np.linspace(0.0, 2.0, 9)
        u0 = xi * (2.0 - xi)
        np.testing.assert_allclose(initial_w_from_u(motion, xi, u0), u0, rtol=0.0)

    def test_translation_tilts_by_half_velocity(self):
        ph = PhysicsParams(D=1.0, f0=1.0)
        motion = SeparableMotion.fixed_length(ph, 1.0, c=1.0)
        xi = np.linspace(0.0, 1.0, 11)
        u0 = np.sin(math.pi * xi)
        np.testing.assert_allclose(initial_w_from_u(motion, xi, u0),
                                   u0 * np.exp(0.5 * xi), rtol=1e-14)

    def test_sqrt_growth_tilts_quadratically(self):
        ph = PhysicsParams(D=1.0, f0=1.0)
        motion = SeparableMotion.sqrt_length(ph, 1.0, 1.0)
        xi = np.linspace(0.0, 1.0, 11)
        u0 = np.sin(math.pi * xi)
        np.testing.assert_allclose(initial_w_from_u(motion, xi, u0),
                                   u0 * np.exp(0.25 * xi * xi), rtol=1e-14)

    def test_agrees_with_general_transform_at_start(self, physics, rng):
        motion = _moving(physics)
        xi = rng.uniform(0.0, motion.L0, size=30)
        u0 = rng.standard_normal(30)
        np.testing.assert_allclose(initial_w_from_u(motion, xi, u0),
                                   w_from_u(motion, xi, 0.0, u0),
                                   rtol=1e-13, atol=1e-15)


class TestCentering:
    """``motion.require_centered``, the one rule of the ball substitution."""

    @pytest.mark.parametrize("builder", [
        lambda ph: SeparableMotion.symmetric(ph, 2.0),
        lambda ph: SeparableMotion.symmetric(ph, 2.0, a=1.0),
        lambda ph: SeparableMotion.symmetric(ph, 1.0, b=0.5),
        lambda ph: CriticalMotion(ph, alpha=1.0),
    ])
    def test_symmetric_motions_pass(self, physics, builder):
        require_centered(builder(physics))

    def test_off_centre_motion_rejected(self, physics):
        motion = SeparableMotion.fixed_length(physics, 1.0)
        with pytest.raises(ValueError, match="centred"):
            require_centered(motion)

    def test_symmetric_linear_law_with_rounded_gamma0(self, physics):
        # a L0^2 - b^2 rounds to -6.9e-18, not to 0, for this linear law.
        motion = SeparableMotion.symmetric(physics, 1.7, a=0.01, b=0.17)
        assert motion.gamma0 != 0.0
        st = eval_motion(motion, np.linspace(0.0, 10.0, 101))
        assert np.all(np.abs(st.A + 0.5 * st.L) <= 1e-12 * st.L)
        require_centered(motion)

    @pytest.mark.parametrize("offset, name", [
        ("d", "A + L/2 at t=0"), ("c", "Adot + Ldot/2 at t=0"),
        ("gamma1", "gamma1 + gamma0/2")])
    def test_each_offset_is_refused(self, physics, offset, name):
        motion = SeparableMotion.symmetric(physics, 2.0, a=1.0, b=0.5)
        bumped = dataclasses.replace(motion, **{offset: getattr(motion, offset) + 1e-6})
        with pytest.raises(ValueError, match=re.escape(f"not centred: {name} = ")):
            require_centered(bumped)

    def test_tabulated_motion_off_centre_at_one_sample(self, physics):
        # The spline's bump around t = 7.37 stays below 1e-9 L at the 64
        # evenly spaced times of [0, 10] that a sampled check would read.
        ts = np.linspace(0.0, 10.0, 1001)
        L = 2.0 + 0.1 * ts
        A = -0.5 * L
        A[737] += 1e-6
        motion = TabulatedMotion(physics, tuple(ts), tuple(A), tuple(L))
        off = eval_motion(motion, np.linspace(0.0, 10.0, 64))
        assert np.all(np.abs(off.A + 0.5 * off.L) <= 1e-9 * off.L)
        with pytest.raises(ValueError, match=r"A \+ L/2 at the sample t=7\.37 = 1\.000e-06"):
            require_centered(motion)

    @pytest.mark.parametrize("law", [(2.0, 0.0, 0.0), (1.7, 0.01, 0.17), (1.0, 0.0, 0.5),
                                     (2.0, 1.0, 0.5), (1.0, 1.0, 2.0)])
    @pytest.mark.parametrize("offset", [None, "d", "c", "gamma1"])
    def test_series_and_march_agree(self, physics, law, offset):
        # Fixed, linear, square-root and both quadratic length laws.
        L0, a, b = law
        motion = SeparableMotion.symmetric(physics, L0, a=a, b=b)
        if offset is not None:
            motion = dataclasses.replace(motion, **{offset: getattr(motion, offset) + 1e-6})
        dome = lambda r: 1.0 - (2.0 * r / L0) ** 2
        refused = []
        for build in (lambda: build_radial_series(motion, dome, 3, grid_size=64, num_modes=2),
                      lambda: solve_radial(motion, dome, 3, grid_size=8, dt=1e-2, T=1e-2)):
            try:
                build()
                refused.append(False)
            except ValueError as exc:
                assert "not centred" in str(exc)
                refused.append(True)
        assert refused == [offset is not None] * 2


class TestRadialFactor:
    def test_fixed_ball_reduces_to_growth_factor(self):
        ph = PhysicsParams(D=1.0, f0=0.9)
        motion = SeparableMotion.symmetric(ph, 2.0)
        r = np.linspace(0.0, 1.0, 7)
        t = 1.7
        np.testing.assert_allclose(log_radial_factor(motion, r, t, 3),
                                   np.full_like(r, -ph.f0 * t), rtol=1e-14)

    def test_dimension_enters_through_volume_ratio(self, physics):
        motion = SeparableMotion.symmetric(physics, 2.0, a=1.0)
        t = 1.2
        R0 = 0.5 * motion.L0
        R = 0.5 * eval_motion(motion, t).L
        r = np.array([0.3, 0.6])
        diff = log_radial_factor(motion, r, t, 3) - log_radial_factor(motion, r, t, 1)
        np.testing.assert_allclose(diff, math.log(R / R0), rtol=1e-13)

    def test_round_trip(self, physics, rng):
        motion = SeparableMotion.symmetric(physics, 2.0, a=1.0)
        r = rng.uniform(0.0, 1.0, size=25)
        psi = rng.standard_normal(25)
        for t in (0.0, 0.9):
            W = psi * np.exp(log_radial_factor(motion, r, t, 3))
            np.testing.assert_allclose(psi_from_W(motion, r, t, W, 3), psi,
                                       rtol=1e-13, atol=1e-14)

    def test_initial_transform_matches_general_factor(self, physics, rng):
        motion = SeparableMotion.symmetric(physics, 2.0, b=0.6)
        r = rng.uniform(0.0, 1.0, size=20)
        psi0 = rng.standard_normal(20)
        expected = psi0 * np.exp(log_radial_factor(motion, r, 0.0, 2))
        np.testing.assert_allclose(initial_W_from_psi(motion, r, psi0, 2),
                                   expected, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_drift_integral_refuses_a_non_finite_time(physics, t):
    with pytest.raises(ParameterError, match=f"finite t >= 0, got t={t}$"):
        drift_integral(_moving(physics), t)
