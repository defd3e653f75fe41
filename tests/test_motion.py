import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from growthdiff.motion import (CaseKind, CriticalMotion, DomainCollapsedError,
                               EtaSpec, PhysicsParams, SeparableMotion,
                               TabulatedMotion, classify, eval_motion,
                               motion_content_hash, motion_from_document,
                               motion_to_document, time_integral,
                               time_rescale, validity_horizon)


def _tabulated_from(physics, A_fn, L_fn, t_max=6.0, samples=241):
    ts = np.linspace(0.0, t_max, samples)
    return TabulatedMotion(physics, tuple(ts), tuple(A_fn(ts)), tuple(L_fn(ts)))


class TestPhysicsParams:
    def test_c_star_consistent_with_fields(self):
        ph = PhysicsParams(D=1.7, f0=0.3)
        assert ph.c_star == pytest.approx(2.0 * math.sqrt(1.7 * 0.3), rel=1e-15)
        assert ph.c_star ** 2 == pytest.approx(4.0 * ph.D * ph.f0, rel=1e-15)

    @pytest.mark.parametrize("D,f0", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_rejects_nonpositive_rates(self, D, f0):
        with pytest.raises(ValueError):
            PhysicsParams(D=D, f0=f0)


class TestClassify:
    def test_fixed(self, physics):
        tag = classify(SeparableMotion(physics, 0.0, 0.0, 2.0))
        assert tag.kind is CaseKind.FIXED_LENGTH
        assert tag.gamma0 == 0.0

    def test_sqrt(self, physics):
        tag = classify(SeparableMotion(physics, 0.0, 1.5, 2.0))
        assert tag.kind is CaseKind.SQRT_LENGTH
        assert tag.gamma0 == pytest.approx(-1.5 ** 2, rel=1e-15)

    def test_quad_pos(self, physics):
        tag = classify(SeparableMotion(physics, 1.0, 0.0, 1.0))
        assert tag.kind is CaseKind.QUAD_POS
        assert tag.gamma0 == 1.0

    def test_quad_neg(self, physics):
        tag = classify(SeparableMotion(physics, 1.0, 2.0, 1.0))
        assert tag.kind is CaseKind.QUAD_NEG
        assert tag.gamma0 == -3.0

    def test_linear_degenerate(self, physics):
        # a = slope^2, b = slope*L0 makes a L0^2 - b^2 vanish identically.
        motion = SeparableMotion.linear_length(physics, 2.0, 0.7)
        tag = classify(motion)
        assert tag.kind is CaseKind.LINEAR_LENGTH
        assert abs(tag.gamma0) < 1e-12

    def test_critical_and_tabulated(self, physics):
        assert classify(CriticalMotion(physics, alpha=1.0)).kind is CaseKind.CRITICAL_CASE
        tab = _tabulated_from(physics, lambda t: -1.0 - 0.1 * t, lambda t: 2.0 + 0.2 * t)
        assert classify(tab).kind is CaseKind.GENERAL


class TestEvalMotion:
    def test_fixed_translation(self, physics):
        motion = SeparableMotion.fixed_length(physics, 3.0, gamma1=0.0, c=1.0, d=0.0)
        st = eval_motion(motion, 2.0)
        assert st.A == pytest.approx(2.0, abs=1e-15)
        assert st.L == 3.0
        assert st.Adot == pytest.approx(1.0, abs=1e-15)
        assert st.Addot == pytest.approx(0.0, abs=1e-15)

    def test_sqrt_kinematics(self, physics):
        # L = sqrt(1 + 2t): L(4) = 3, Ldot = 1/L, Lddot = -1/L^3.
        motion = SeparableMotion.sqrt_length(physics, 1.0, 1.0)
        st = eval_motion(motion, 4.0)
        assert st.L == pytest.approx(3.0, rel=1e-14)
        assert st.Ldot == pytest.approx(1.0 / 3.0, rel=1e-13)
        assert st.Lddot == pytest.approx(-1.0 / 27.0, rel=1e-13)

    def test_critical_start(self, physics):
        motion = CriticalMotion(physics, alpha=1.0, L0_offset=1.0)
        st = eval_motion(motion, 0.0)
        assert st.L == pytest.approx(1.0, rel=1e-13)
        assert st.A == pytest.approx(-0.5, rel=1e-13)
        # Ldot(0) = 2 (c* - alpha/(0+1)) with c* = 2.
        assert st.Ldot == pytest.approx(2.0, rel=1e-12)

    def test_past_horizon_raises_with_time(self, physics):
        motion = SeparableMotion.sqrt_length(physics, 2.0, -1.0)
        with pytest.raises(DomainCollapsedError, match="2"):
            eval_motion(motion, 2.5)

    def test_reads_kinematics_without_quadrature(self, physics, monkeypatch):
        # s(t) belongs to time_rescale; reading the kinematics integrates nothing.
        def refuse(*args, **kwargs):
            raise AssertionError("quadrature called")

        monkeypatch.setattr("growthdiff.motion.quad", refuse)
        tab = _tabulated_from(physics, lambda t: -1.0 - 0.1 * t, lambda t: 2.0 + 0.2 * t)
        for motion in (CriticalMotion(physics, alpha=1.5), tab):
            st = eval_motion(motion, 3.0)
            assert st._fields == ("t", "L", "Ldot", "Lddot", "A", "Adot", "Addot")
            assert st.t == 3.0 and st.L > 0.0
        with pytest.raises(AssertionError, match="quadrature called"):
            time_rescale(tab, 3.0)


class TestTimeRescale:
    def test_fixed_identity(self, physics):
        motion = SeparableMotion.fixed_length(physics, 2.0)
        assert time_rescale(motion, 3.0) == pytest.approx(3.0, rel=1e-15)

    def test_linear_closed_form(self, physics):
        motion = SeparableMotion.linear_length(physics, 1.0, 1.0)
        assert time_rescale(motion, 1.0) == pytest.approx(0.5, rel=1e-13)

    def test_sqrt_closed_form(self, physics):
        motion = SeparableMotion.sqrt_length(physics, 1.0, 1.0)
        t = (math.e ** 2 - 1.0) / 2.0
        assert time_rescale(motion, t) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("builder", [
        lambda ph: SeparableMotion.fixed_length(ph, 1.7, gamma1=0.4, c=0.2),
        lambda ph: SeparableMotion.linear_length(ph, 1.3, 0.8, gamma1=-0.5),
        lambda ph: SeparableMotion.sqrt_length(ph, 1.1, 2.0),
        lambda ph: SeparableMotion.sqrt_length(ph, 2.0, -0.3),
        lambda ph: SeparableMotion(ph, 1.0, 2.0, 1.0),
        lambda ph: SeparableMotion(ph, 2.0, 0.5, 1.5),
        lambda ph: CriticalMotion(ph, alpha=1.5),
    ])
    def test_matches_quadrature(self, physics, rng, builder):
        motion = builder(physics)
        horizon = validity_horizon(motion)
        t_hi = min(4.0, 0.9 * horizon)
        L0 = motion.L0
        for t in rng.uniform(0.0, t_hi, size=100):
            ref, _ = quad(lambda z: L0 ** 2 / eval_motion(motion, z).L ** 2,
                          0.0, t, epsabs=1e-12, epsrel=1e-12, limit=200)
            assert time_rescale(motion, float(t)) == pytest.approx(ref, abs=1e-9)

    def test_strictly_increasing_with_correct_rate(self, physics):
        motion = SeparableMotion(physics, 1.0, 2.0, 1.0, gamma1=0.3)
        ts = np.linspace(0.1, 3.0, 40)
        s = np.array([time_rescale(motion, float(t)) for t in ts])
        assert np.all(np.diff(s) > 0.0)
        h = 1e-5
        for t in ts[::4]:
            rate = (time_rescale(motion, t + h) - time_rescale(motion, t - h)) / (2 * h)
            expect = motion.L0 ** 2 / eval_motion(motion, float(t)).L ** 2
            assert rate == pytest.approx(expect, rel=1e-6)

    @pytest.mark.parametrize("t", [1e4, 1e5])
    def test_critical_long_horizon_matches_split_reference(self, physics, t):
        # One quad call over [0, 1e5] loses the 1/t^2 tail (relative error
        # 2.8e-4); the reference splits at 81 geometric breakpoints.
        motion = CriticalMotion(physics, alpha=1.5)
        L0sq = motion.L0 ** 2
        cuts = np.concatenate(([0.0], np.geomspace(1e-3, t, 80)))
        ref = sum(quad(lambda z: L0sq / eval_motion(motion, z).L ** 2, lo, hi,
                       epsabs=1e-14, epsrel=1e-14, limit=400)[0]
                  for lo, hi in zip(cuts[:-1], cuts[1:]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = time_rescale(motion, t)
        assert s == pytest.approx(ref, rel=1e-12)


class TestTimeIntegral:
    def _record(self, monkeypatch):
        calls = []

        def recording(f, a, b, **kwargs):
            calls.append((a, b))
            return quad(f, a, b, **kwargs)

        monkeypatch.setattr("growthdiff.motion.quad", recording)
        return calls

    def test_short_range_is_one_call(self, monkeypatch):
        calls = self._record(monkeypatch)
        assert time_integral(math.exp, 0.0, 10.0) == pytest.approx(math.expm1(10.0),
                                                                   rel=1e-13)
        assert calls == [(0.0, 10.0)]

    def test_long_range_is_cut_at_powers_of_ten(self, monkeypatch):
        calls = self._record(monkeypatch)
        val = time_integral(lambda z: 1.0 / (1.0 + z) ** 2, 3.0, 5000.0)
        assert val == pytest.approx(1.0 / 4.0 - 1.0 / 5001.0, rel=1e-13)
        assert calls == [(3.0, 10.0), (10.0, 100.0), (100.0, 1000.0), (1000.0, 5000.0)]

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_unconverged_estimate_raises_naming_the_interval(self):
        with pytest.raises(RuntimeError, match=r"quadrature on \[0, 5\]"):
            time_integral(lambda z: math.sin(1e4 * z), 0.0, 5.0)


class TestValidityHorizon:
    def test_sqrt_collapse(self, physics):
        assert validity_horizon(SeparableMotion.sqrt_length(physics, 2.0, -1.0)) == \
            pytest.approx(2.0, rel=1e-13)

    def test_fixed_infinite(self, physics):
        assert validity_horizon(SeparableMotion.fixed_length(physics, 1.0)) == math.inf

    def test_quadratic_first_root(self, physics):
        # L^2 = t^2 - 4t + 1 first vanishes at the smaller root 2 - sqrt(3).
        motion = SeparableMotion(physics, 1.0, -2.0, 1.0)
        assert validity_horizon(motion) == pytest.approx(2.0 - math.sqrt(3.0), rel=1e-12)

    def test_critical_infinite(self, physics):
        assert validity_horizon(CriticalMotion(physics, alpha=1.5)) == math.inf


class TestSeparabilityInvariants:
    @pytest.mark.parametrize("a,b,L0,gamma1", [
        (0.0, 0.0, 2.0, 0.5),
        (0.0, 1.0, 1.0, -0.4),
        (1.0, 2.0, 1.0, 0.2),
        (2.0, 0.3, 1.5, 0.0),
    ])
    def test_products_are_constant(self, physics, rng, a, b, L0, gamma1):
        motion = SeparableMotion(physics, a, b, L0, gamma1, c=0.1)
        gamma0 = a * L0 ** 2 - b ** 2
        horizon = validity_horizon(motion)
        ts = rng.uniform(0.0, min(5.0, 0.9 * horizon), size=1000)
        for t in ts:
            st = eval_motion(motion, float(t))
            assert st.Lddot * st.L ** 3 == pytest.approx(gamma0, rel=1e-9, abs=1e-9)
            assert st.Addot * st.L ** 3 == pytest.approx(gamma1, rel=1e-9, abs=1e-9)


class TestTabulated:
    def test_derivatives_consistent_with_samples(self, physics):
        motion = _tabulated_from(physics, lambda t: -0.5 * (2.0 + t + 0.1 * np.sin(t)),
                                 lambda t: 2.0 + t + 0.1 * np.sin(t))
        for t in (0.3, 1.1, 2.7, 4.9):
            st = eval_motion(motion, t)
            assert st.L == pytest.approx(2.0 + t + 0.1 * math.sin(t), rel=1e-9)
            assert st.Ldot == pytest.approx(1.0 + 0.1 * math.cos(t), rel=1e-6)
            assert st.Adot == pytest.approx(-0.5 * (1.0 + 0.1 * math.cos(t)), rel=1e-6)

    def test_one_spline_reads_the_per_column_values(self, physics, rng):
        motion = _tabulated_from(physics,
                                 lambda t: 0.2 * np.sin(2.0 * t) - 0.5 * (2.0 + t),
                                 lambda t: 2.0 + t + 0.1 * np.sin(t))
        sA = CubicSpline(motion.times, motion.A_values)
        sL = CubicSpline(motion.times, motion.L_values)
        for t in rng.uniform(0.0, motion.times[-1], 200):
            t = float(t)
            expect = (t, sL(t), sL(t, 1), sL(t, 2), sA(t), sA(t, 1), sA(t, 2))
            assert tuple(eval_motion(motion, t)) == tuple(float(v) for v in expect)

    def test_initial_length_and_horizon_are_unchanged(self, physics):
        # The values read through separate A and L splines.
        ts = np.linspace(0.0, 2.0, 41)
        L = 1.2 - ts + 0.1 * np.sin(3.0 * ts)
        motion = TabulatedMotion(physics, tuple(ts), tuple(-0.5 * L), tuple(L))
        assert motion.L0 == float(CubicSpline(ts, L)(0.0)) == 1.2
        assert validity_horizon(motion) == 1.165304648771603

    def test_collapsing_samples_bound_the_horizon(self, physics):
        ts = np.linspace(0.0, 2.0, 41)
        motion = TabulatedMotion(physics, tuple(ts), tuple(-ts), tuple(1.0 - ts))
        assert validity_horizon(motion) == pytest.approx(1.0, rel=1e-6)
        with pytest.raises(DomainCollapsedError):
            eval_motion(motion, 1.5)


class TestSerialization:
    @pytest.mark.parametrize("builder", [
        lambda ph: SeparableMotion(ph, 1.0, 2.0, 1.0, gamma1=0.25, c=-0.5, d=0.125),
        lambda ph: CriticalMotion(ph, alpha=1.5, L0_offset=2.0,
                                  eta=EtaSpec(eta0=0.1, k=0.2, p=-1.0)),
        lambda ph: _tabulated_from(ph, lambda t: -1.0 - 0.3 * t, lambda t: 2.0 + 0.6 * t),
    ])
    def test_round_trip_is_bit_stable(self, physics, builder):
        motion = builder(physics)
        doc = motion_to_document(motion)
        back = motion_from_document(doc)
        assert motion_to_document(back) == doc
        assert motion_content_hash(back) == motion_content_hash(motion)

    def test_hash_distinguishes_parameters(self, physics):
        m1 = SeparableMotion.fixed_length(physics, 1.0, c=0.5)
        m2 = SeparableMotion.fixed_length(physics, 1.0, c=0.5 + 1e-12)
        assert motion_content_hash(m1) != motion_content_hash(m2)
