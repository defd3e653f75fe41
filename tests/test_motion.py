import json
import math
import re
import types
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from growthdiff.eigen import solve_radial, solve_sl
from growthdiff.motion import (_KINEMATICS, CaseKind, CriticalMotion, DomainCollapsedError,
                               EtaSpec, ParameterError, PhysicsParams, SeparableMotion,
                               TabulatedMotion, classify, eval_motion,
                               length_jerk, motion_content_hash, motion_from_document,
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


_TABLE = (0.0, 1.0, 2.0, 3.0)

# One constructor per field that must be finite, with the value put in that field.
_FINITE_FIELDS = {
    "PhysicsParams.D": (lambda x: PhysicsParams(x, 1.0), "D"),
    "PhysicsParams.f0": (lambda x: PhysicsParams(1.0, x), "f0"),
    "SeparableMotion.a": (lambda x: SeparableMotion(PhysicsParams(1, 1), x, 0.0, 1.0), "a"),
    "SeparableMotion.b": (lambda x: SeparableMotion(PhysicsParams(1, 1), 0.0, x, 1.0), "b"),
    "SeparableMotion.L0": (lambda x: SeparableMotion(PhysicsParams(1, 1), 0.0, 0.0, x), "L0"),
    "SeparableMotion.gamma1": (lambda x: SeparableMotion.fixed_length(PhysicsParams(1, 1), 1.0,
                                                                      gamma1=x), "gamma1"),
    "SeparableMotion.c": (lambda x: SeparableMotion.fixed_length(PhysicsParams(1, 1), 1.0,
                                                                 c=x), "c"),
    "SeparableMotion.d": (lambda x: SeparableMotion.fixed_length(PhysicsParams(1, 1), 1.0,
                                                                 d=x), "d"),
    "linear_length.slope": (lambda x: SeparableMotion.linear_length(PhysicsParams(1, 1), 1.0,
                                                                    x), "slope"),
    "CriticalMotion.alpha": (lambda x: CriticalMotion(PhysicsParams(1, 1), x), "alpha"),
    "CriticalMotion.L0_offset": (lambda x: CriticalMotion(PhysicsParams(1, 1), 1.5, x),
                                 "L0_offset"),
    "EtaSpec.k": (lambda x: EtaSpec(x, -0.5), "k"),
    "EtaSpec.p": (lambda x: EtaSpec(0.5, x), "p"),
    "EtaSpec.p-unperturbed": (lambda x: EtaSpec(0.0, x), "p"),
    "TabulatedMotion.times": (lambda x: TabulatedMotion(PhysicsParams(1, 1), (0.0, 1.0, x, 3.0),
                                                        (0.0,) * 4, (1.0,) * 4),
                              "tabulated times"),
    "TabulatedMotion.A_values": (lambda x: TabulatedMotion(PhysicsParams(1, 1), _TABLE,
                                                           (0.0, 0.0, x, 0.0), (1.0,) * 4),
                                 "tabulated A_values"),
    "TabulatedMotion.L_values": (lambda x: TabulatedMotion(PhysicsParams(1, 1), _TABLE,
                                                           (0.0,) * 4, (1.0, 1.0, x, 1.0)),
                                 "tabulated L_values"),
    "solve_sl.D": (lambda x: solve_sl(x, 1.0, 0.0, 0.0, grid_size=64, num_modes=1), "D"),
    "solve_sl.L0": (lambda x: solve_sl(1.0, x, 0.0, 0.0, grid_size=64, num_modes=1), "L0"),
    "solve_sl.gamma0": (lambda x: solve_sl(1.0, 1.0, x, 0.0, grid_size=64, num_modes=1),
                        "gamma0"),
    "solve_sl.gamma1": (lambda x: solve_sl(1.0, 1.0, 0.0, x, grid_size=64, num_modes=1),
                        "gamma1"),
    "solve_radial.D": (lambda x: solve_radial(x, 1.0, 0.0, 3, grid_size=64, num_modes=1), "D"),
    "solve_radial.R0": (lambda x: solve_radial(1.0, x, 0.0, 3, grid_size=64, num_modes=1),
                        "R0"),
    "solve_radial.gamma0": (lambda x: solve_radial(1.0, 1.0, x, 3, grid_size=64, num_modes=1),
                            "gamma0"),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("build, name", list(_FINITE_FIELDS.values()), ids=list(_FINITE_FIELDS))
def test_non_finite_parameter_is_refused(build, name, value):
    # nan passes no sign check and inf passes some: each ran on into nan
    # fields, an overflow or a LAPACK refusal.
    with pytest.raises(ParameterError, match=f"^{name} must be finite, got {value}"):
        build(value)


class TestClassify:
    def test_fixed(self, physics):
        motion = SeparableMotion(physics, 0.0, 0.0, 2.0)
        assert classify(motion) is CaseKind.FIXED_LENGTH
        assert motion.gamma0 == 0.0

    def test_sqrt(self, physics):
        motion = SeparableMotion(physics, 0.0, 1.5, 2.0)
        assert classify(motion) is CaseKind.SQRT_LENGTH
        assert motion.gamma0 == pytest.approx(-1.5 ** 2, rel=1e-15)

    def test_quad_pos(self, physics):
        motion = SeparableMotion(physics, 1.0, 0.0, 1.0)
        assert classify(motion) is CaseKind.QUAD_POS
        assert motion.gamma0 == 1.0

    def test_quad_neg(self, physics):
        motion = SeparableMotion(physics, 1.0, 2.0, 1.0)
        assert classify(motion) is CaseKind.QUAD_NEG
        assert motion.gamma0 == -3.0

    def test_linear_degenerate(self, physics):
        # a = slope^2, b = slope*L0 makes a L0^2 - b^2 vanish identically.
        motion = SeparableMotion.linear_length(physics, 2.0, 0.7)
        assert classify(motion) is CaseKind.LINEAR_LENGTH
        assert abs(motion.gamma0) < 1e-12

    def test_critical_and_tabulated(self, physics):
        assert classify(CriticalMotion(physics, alpha=1.0)) is CaseKind.CRITICAL_CASE
        tab = _tabulated_from(physics, lambda t: -1.0 - 0.1 * t, lambda t: 2.0 + 0.2 * t)
        assert classify(tab) is CaseKind.GENERAL


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

    def test_critical_constants_are_computed_once(self, physics):
        motion = CriticalMotion(physics, alpha=1.5, eta=EtaSpec(1.0, -0.5))
        st = eval_motion(motion, 2.0)
        assert vars(physics)["c_star"] == 2.0 * math.sqrt(physics.D * physics.f0)
        t0 = (0.5 * motion.L0_offset + motion.eta.derivative(0.0)) / physics.c_star
        assert vars(motion)["t0"] == t0
        fresh = CriticalMotion(physics, alpha=1.5, eta=EtaSpec(1.0, -0.5))
        assert fresh == motion and hash(fresh) == hash(motion)
        assert eval_motion(fresh, 2.0) == st

    def test_eta_third_derivative_differentiates_the_second(self):
        eta = EtaSpec(1.0, -0.5)
        h = 1e-4
        for t in (0.0, 0.8, 12.0):
            diff = (eta.derivative(t + h, 2) - eta.derivative(t - h, 2)) / (2.0 * h)
            assert eta.derivative(t, 3) == pytest.approx(diff, rel=1e-6)

    @pytest.mark.parametrize("eta", [EtaSpec(), EtaSpec(-0.0, -0.5),
                                     EtaSpec(1.0, -0.5), EtaSpec(-0.4, -1.5)])
    def test_critical_states_match_the_power_formulas(self, physics, rng, eta):
        # With k = 0, eta and its derivatives skip the power; the states and
        # jerks are the ones the always-power formulas give, bit for bit.
        motion = CriticalMotion(physics, alpha=1.5, eta=eta)
        cs, alpha, k, p = physics.c_star, motion.alpha, eta.k, eta.p
        t0 = (0.5 * motion.L0_offset + k * (1.0 + 0.0) ** p) / cs
        for t in rng.uniform(0.0, 300.0, 500):
            t = float(t)
            value = k * (1.0 + t) ** p
            d1 = k * p * (1.0 + t) ** (p - 1.0)
            d2 = k * p * (p - 1.0) * (1.0 + t) ** (p - 2.0)
            d3 = k * p * (p - 1.0) * (p - 2.0) * (1.0 + t) ** (p - 3.0)
            L = 2.0 * (cs * (t + t0) - alpha * math.log1p(t) - value)
            Ldot = 2.0 * (cs - alpha / (1.0 + t) - d1)
            Lddot = 2.0 * (alpha / (1.0 + t) ** 2 - d2)
            st = eval_motion(motion, t)
            assert tuple(st) == (t, L, Ldot, Lddot, -0.5 * L, -0.5 * Ldot, -0.5 * Lddot)
            assert length_jerk(motion, st) == 2.0 * (-2.0 * alpha / (1.0 + t) ** 3 - d3)

    @pytest.mark.parametrize("builder", [
        lambda ph: CriticalMotion(ph, alpha=1.5, eta=EtaSpec(1.0, -0.5)),
        lambda ph: SeparableMotion(ph, 1.0, 2.0, 1.0, gamma1=0.2),
        lambda ph: _tabulated_from(ph, lambda t: -0.5 * (2.0 + t + 0.1 * np.sin(t)),
                                   lambda t: 2.0 + t + 0.1 * np.sin(t)),
    ])
    def test_length_jerk_differentiates_the_acceleration(self, physics, builder):
        motion = builder(physics)
        # Tabulated points sit mid-piece: the spline's Lddot is linear there.
        h = 1e-3
        for t in (0.0125 * 61, 0.0125 * 203):
            acc = [eval_motion(motion, t + k * h).Lddot for k in (-1, 1)]
            diff = (acc[1] - acc[0]) / (2.0 * h)
            assert length_jerk(motion, eval_motion(motion, t)) == pytest.approx(
                diff, rel=1e-5, abs=1e-9)


class TestArrayRead:
    """A read at an array of times is the scalar reads, field by field.

    Tabulated reads, and a separable read's L, Ldot, A and Adot, are the same
    to the bit.  A separable read's Lddot and Addot and every critical field
    may differ by 2 ulp: numpy's log1p and power are not ``math``'s.
    """

    MOTIONS = {
        "fixed": lambda ph: SeparableMotion.fixed_length(ph, 2.0, gamma1=0.3, c=0.1, d=-1.0),
        "linear": lambda ph: SeparableMotion.linear_length(ph, 2.0, 0.7, gamma1=0.3, c=0.1),
        "sqrt": lambda ph: SeparableMotion.sqrt_length(ph, 2.0, -0.5, gamma1=0.2, c=0.1),
        "quad_neg": lambda ph: SeparableMotion(ph, 1.0, 2.0, 1.0, gamma1=0.2),
        "quad_pos": lambda ph: SeparableMotion(ph, 1.0, 0.0, 1.0, gamma1=-0.4, c=0.3),
        "critical": lambda ph: CriticalMotion(ph, alpha=1.5),
        "critical_eta": lambda ph: CriticalMotion(ph, alpha=1.5, eta=EtaSpec(1.0, -0.5)),
        "tabulated": lambda ph: _tabulated_from(ph,
                                                lambda t: 0.2 * np.sin(2.0 * t) - 0.5 * (2.0 + t),
                                                lambda t: 2.0 + t + 0.1 * np.sin(t)),
    }

    @staticmethod
    def _within_ulps(a, b, ulps):
        return np.all(np.abs(a - b) <= ulps * np.spacing(np.maximum(np.abs(a), np.abs(b))))

    @pytest.mark.parametrize("name", list(MOTIONS))
    def test_array_read_is_the_scalar_reads(self, physics, rng, name):
        motion = self.MOTIONS[name](physics)
        if isinstance(motion, TabulatedMotion):     # every knot, t = 0 and t = times[-1]
            ts = np.concatenate((rng.uniform(0.0, motion.times[-1], 2000), motion.times))
        else:
            ts = rng.uniform(0.0, min(300.0, 0.999 * validity_horizon(motion)), 2000)
        kind = classify(motion)
        if name != "tabulated":
            assert kind.value.startswith(name.removesuffix("_eta"))
        array = eval_motion(motion, ts)
        scalars = [eval_motion(motion, t) for t in ts.tolist()]
        bitwise = {CaseKind.GENERAL: array._fields, CaseKind.CRITICAL_CASE: ("t",)}.get(
            kind, ("t", "L", "Ldot", "A", "Adot"))
        for field, values in zip(array._fields, array):
            assert isinstance(values, np.ndarray) and values.shape == ts.shape
            expect = np.array([getattr(st, field) for st in scalars])
            if field in bitwise:
                assert np.array_equal(values, expect), field
            else:
                assert self._within_ulps(values, expect, 2), field
        jerks = np.array([length_jerk(motion, st) for st in scalars])
        if kind is CaseKind.GENERAL:
            assert np.array_equal(length_jerk(motion, array), jerks)
        else:           # two numpy powers may enter one difference
            assert self._within_ulps(length_jerk(motion, array), jerks, 4)

    @pytest.mark.parametrize("name", ["fixed", "critical", "critical_eta", "tabulated"])
    def test_empty_read_is_a_state_of_empty_arrays(self, physics, name):
        motion = self.MOTIONS[name](physics)
        state = eval_motion(motion, np.array([]))
        for field, values in zip(state._fields, state):
            assert isinstance(values, np.ndarray) and values.shape == (0,), field
        jerk = length_jerk(motion, state)
        assert isinstance(jerk, np.ndarray) and jerk.shape == (0,)

    @pytest.mark.parametrize("builder,bad,later,error", [
        (lambda ph: SeparableMotion.sqrt_length(ph, 2.0, -1.0), 2.5, (10.0, 7.5),
         DomainCollapsedError),
        (lambda ph: CriticalMotion(ph, alpha=5.0), 0.3, (3.0, 1.2), DomainCollapsedError),
        (lambda ph: TabulatedMotion(ph, tuple(np.linspace(0.0, 2.0, 41)),
                                    tuple(-np.linspace(0.0, 2.0, 41)),
                                    tuple(1.0 - np.linspace(0.0, 2.0, 41))),
         1.5, (2.0, 1.8), DomainCollapsedError),
        (lambda ph: _tabulated_from(ph, lambda t: -0.5 * (2.0 + t), lambda t: 2.0 + t),
         6.5, (26.0, 19.5), ValueError),
        (lambda ph: CriticalMotion(ph, alpha=1.5), -0.5, (-2.0, -1.5), ValueError),
    ])
    def test_errors_name_the_first_offending_time(self, physics, builder, bad, later, error):
        motion = builder(physics)
        with pytest.raises(error) as one:
            eval_motion(motion, bad)
        # Later offending times, some worse, follow the first one.
        with pytest.raises(error) as many:
            eval_motion(motion, np.array((0.0, 0.1, bad, 0.05) + later))
        assert type(many.value) is type(one.value)
        assert str(many.value) == str(one.value)


_NON_FINITE = pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf],
                                      ids=["nan", "inf", "-inf"])


@_NON_FINITE
class TestNonFiniteTimesAreRefused:
    # t < 0 is False for nan, which read on to an all-nan state; +inf read a
    # motion that never collapses as collapsed.
    MOTIONS = {
        "fixed": lambda ph: SeparableMotion.fixed_length(ph, 1.0),
        "critical": lambda ph: CriticalMotion(ph, alpha=1.0),
        "tabulated": lambda ph: _tabulated_from(ph, lambda t: -0.5 * (1.0 + t),
                                                lambda t: 1.0 + t),
    }

    @pytest.mark.parametrize("family", sorted(MOTIONS))
    def test_scalar_read(self, physics, family, t):
        with pytest.raises(ParameterError, match=f"finite t >= 0, got t={t}$"):
            eval_motion(self.MOTIONS[family](physics), t)

    @pytest.mark.parametrize("family", sorted(MOTIONS))
    def test_array_read_names_the_first_bad_time(self, physics, family, t):
        with pytest.raises(ParameterError, match=f"finite t >= 0, got t={t}$"):
            eval_motion(self.MOTIONS[family](physics), np.array([0.0, 0.5, t, 1.0]))

    @pytest.mark.parametrize("family", ["fixed", "critical"])
    def test_time_rescale(self, physics, family, t):
        with pytest.raises(ParameterError, match=f"finite t >= 0, got t={t}$"):
            time_rescale(self.MOTIONS[family](physics), t)


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


def test_zero_slope_is_the_fixed_length(physics):
    assert (SeparableMotion.linear_length(physics, 1.5, 0.0, gamma1=0.25, c=0.5, d=1.0)
            == SeparableMotion.fixed_length(physics, 1.5, 0.25, 0.5, 1.0))


@pytest.mark.parametrize("build, t", [
    (lambda ph: SeparableMotion.linear_length(ph, 1.0, -0.5), 3.0),
    (lambda ph: CriticalMotion(ph, alpha=3.0, L0_offset=0.2), 4.0),
    (lambda ph: TabulatedMotion(ph, (0.0, 1.0, 2.0, 3.0, 4.0), (0.0,) * 5,
                                (1.0, -0.5, 1.0, 2.0, 3.0)), 2.5),
], ids=["linear-bounce", "critical-revival", "tabulated-recovery"])
def test_every_family_refuses_past_the_horizon_in_one_message(physics, build, t):
    # Each length is positive again at t; the one refusal names the horizon and the
    # latest time read, for a scalar and for an array read alike.
    motion = build(physics)
    horizon = validity_horizon(motion)
    assert _KINEMATICS[type(motion)](motion, t).L > 0.0
    for read in (t, np.array([0.5 * horizon, t, 0.25 * horizon])):
        with pytest.raises(DomainCollapsedError, match=f"^motion collapsed: its length "
                                                       f"vanished at t={horizon}, before t={t}$"):
            eval_motion(motion, read)


def _wobbling_length(t):
    return 1.0 - 0.5 * t + 0.2 * np.sin(3.0 * t)


@pytest.mark.parametrize("build, t", [
    (lambda ph: SeparableMotion(ph, 1.0, -2.0, 1.0), 0.26794919243112275),
    (lambda ph: CriticalMotion(ph, alpha=3.0, L0_offset=0.1), 0.05426319651546128),
    (lambda ph: TabulatedMotion.from_callables(ph, lambda t: -0.5 * _wobbling_length(t),
                                               _wobbling_length, 5.0, 201), 1.6017200679269465),
], ids=["quad-neg", "critical", "tabulated"])
def test_kinematics_guard_refuses_the_float_below_the_horizon(physics, build, t):
    # The time rule accepts the float next below the horizon, but the length
    # there still rounds to <= 0: each kinematics body's own guard refuses it in
    # one message naming the time read and the horizon, scalar and array alike.
    motion = build(physics)
    horizon = validity_horizon(motion)
    assert t == math.nextafter(horizon, 0.0)
    message = re.escape(f"motion collapsed: its length reads nonpositive at t={t}, "
                        f"below its horizon t={horizon}")
    for read in (t, np.array([0.5 * t, t])):
        with pytest.raises(DomainCollapsedError, match=f"^{message}$"):
            eval_motion(motion, read)
    assert eval_motion(motion, 0.5 * t).L > 0.0


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

    def test_collapsing_critical_motion_ends_at_the_root(self, physics):
        # c* t + 0.1 - 3 log(1 + t) turns negative early: the scan finds a sign
        # change and brentq refines it to xtol 1e-13, rtol 1e-14.
        motion = CriticalMotion(physics, alpha=3.0, L0_offset=0.2)
        horizon = validity_horizon(motion)
        assert horizon == 0.12002054991322864
        half = lambda t: physics.c_star * (t + motion.t0) - 3.0 * math.log1p(t)
        assert abs(half(horizon)) < 1e-13
        assert half(0.5 * horizon) > 0.0
        assert eval_motion(motion, 0.99 * horizon).L > 0.0
        for t in (horizon, 1.5 * horizon, 4.0):
            with pytest.raises(DomainCollapsedError, match="collapsed"):
                eval_motion(motion, t)
        with pytest.raises(DomainCollapsedError, match=f"t={horizon}"):
            eval_motion(motion, np.array([0.5 * horizon, horizon, 4.0]))

    def test_tabulated_length_vanishing_at_the_first_sample(self, physics):
        motion = TabulatedMotion(physics, (0.0, 1.0, 2.0, 3.0), (0.0,) * 4, (0.0, 1.0, 2.0, 1.0))
        assert validity_horizon(motion) == 0.0

    def test_shrinking_linear_law_with_positive_roundoff_collapses(self, physics):
        # gamma0 = a L0^2 - b^2 rounds to +8.9e-16 here; L = L0 + slope t still
        # ends at L0/|slope| and must not bounce back past it.
        slope = -0.950959059362676
        motion = SeparableMotion.linear_length(physics, 2.6079259610312584, slope)
        assert motion.gamma0 > 0.0 and motion.case_kind is CaseKind.LINEAR_LENGTH
        horizon = validity_horizon(motion)
        assert horizon == pytest.approx(motion.L0 / -slope, rel=1e-15)
        for t in (horizon, 1.5 * horizon, 2.0 * horizon):
            with pytest.raises(DomainCollapsedError, match="vanished"):
                eval_motion(motion, t)
        with pytest.raises(DomainCollapsedError, match=f"t={2.0 * horizon}"):
            eval_motion(motion, np.array([0.5 * horizon, 2.0 * horizon]))
        assert eval_motion(motion, 0.5 * horizon).L == pytest.approx(0.5 * motion.L0,
                                                                      rel=1e-12)

    def test_linear_law_sweep_collapses_at_l0_over_slope(self, physics):
        rng = np.random.default_rng(29)
        L0s = rng.uniform(0.5, 5.0, 10_000)
        slopes = -rng.uniform(0.01, 3.0, 10_000)
        past = rng.uniform(1e-9, 2.0, 10_000)
        rounded_positive = 0
        for L0, slope, u in zip(L0s.tolist(), slopes.tolist(), past.tolist()):
            motion = SeparableMotion.linear_length(physics, L0, slope)
            assert motion.case_kind is CaseKind.LINEAR_LENGTH
            rounded_positive += motion.gamma0 > 0.0
            horizon = validity_horizon(motion)
            assert abs(horizon - L0 / -slope) <= 1e-15 * horizon
            with pytest.raises(DomainCollapsedError):
                eval_motion(motion, horizon * (1.0 + u))
            with pytest.raises(DomainCollapsedError):
                eval_motion(motion, np.array([0.0, horizon * (1.0 + u)]))
        assert rounded_positive > 1000       # the draws the discriminant missed


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
        with pytest.raises(DomainCollapsedError,
                           match=f"^motion collapsed: its length vanished at "
                                 f"t={validity_horizon(motion)}, before t=1.5$"):
            eval_motion(motion, 1.5)

    @pytest.mark.parametrize("times, A, L, message", [
        ((0.0, 1.0, 2.0), (0.0,) * 3, (1.0,) * 3, "at least 4 samples"),
        ((0.0, 1.0, 1.0, 2.0), (0.0,) * 4, (1.0,) * 4, "strictly increasing"),
        ((0.0, 1.0, 2.0, 3.0), (0.0,) * 3, (1.0,) * 4, "must match times in length"),
        ((0.5, 1.0, 2.0, 3.0), (0.0,) * 4, (1.0,) * 4, "cover t = 0"),
    ], ids=["few", "unsorted", "lengths", "late start"])
    def test_constructor_refusals(self, physics, times, A, L, message):
        with pytest.raises(ParameterError, match=message):
            TabulatedMotion(physics, times, A, L)

    def test_length_turning_positive_again_stays_collapsed(self, physics):
        # The samples dip below zero and recover; the domain ends at the first zero.
        motion = TabulatedMotion(physics, (0.0, 1.0, 2.0, 3.0, 4.0), (0.0,) * 5,
                                 (1.0, -0.5, 1.0, 2.0, 3.0))
        horizon = validity_horizon(motion)
        assert 0.0 < horizon < 1.0
        assert eval_motion(motion, 0.5 * horizon).L > 0.0
        for t in (2.5, np.array([0.5 * horizon, 2.5])):
            with pytest.raises(DomainCollapsedError,
                               match=f"^motion collapsed: its length vanished at t={horizon}, "
                                     "before t=2.5$"):
                eval_motion(motion, t)

    def test_out_of_range_names_the_table(self, physics):
        motion = _tabulated_from(physics, lambda t: -0.5 * (2.0 + t), lambda t: 2.0 + t)
        with pytest.raises(ValueError,
                           match=r"^t=6\.5 beyond tabulated range \[0, 6\.0\]$"):
            eval_motion(motion, 6.5)

    @pytest.mark.parametrize("start", [0.0, -0.75])
    def test_piece_read_is_the_spline_read(self, physics, rng, start):
        # Every breakpoint, both ends, t = 0 and random points: the one-piece
        # read returns each CubicSpline derivative to the last bit.
        ts = np.concatenate(([start], np.sort(rng.uniform(0.0, 4.0, 37)), [4.0]))
        L = 2.0 + ts + 0.1 * np.sin(3.0 * ts)
        A = np.sin(3.0 * ts)             # crosses zero, so no term dominates
        motion = TabulatedMotion(physics, tuple(ts), tuple(A), tuple(L))
        spline = motion._spline
        points = [float(t) for t in ts if t >= 0.0] + [0.0, motion.times[-1]]
        points += [float(t) for t in rng.uniform(0.0, motion.times[-1], 200)]
        for t in points:
            st = eval_motion(motion, t)
            for nu, (a, l) in enumerate(((st.A, st.L), (st.Adot, st.Ldot),
                                         (st.Addot, st.Lddot))):
                assert (a, l) == tuple(float(v) for v in spline(t, nu)), (t, nu)
            assert length_jerk(motion, st) == float(spline(t, 3)[1]), t


class TestCachedCaseFacts:
    @pytest.mark.parametrize("motion,kind", [
        (lambda ph: SeparableMotion.fixed_length(ph, 2.0, 0.3, 0.1), CaseKind.FIXED_LENGTH),
        (lambda ph: SeparableMotion.linear_length(ph, 2.0, 0.7, 0.2), CaseKind.LINEAR_LENGTH),
        (lambda ph: SeparableMotion.sqrt_length(ph, 2.0, 0.5, 0.2), CaseKind.SQRT_LENGTH),
        (lambda ph: SeparableMotion(ph, 1.0, 2.0, 1.0, 0.25), CaseKind.QUAD_NEG),
        (lambda ph: SeparableMotion(ph, 1.0, 0.5, 1.0, 0.25), CaseKind.QUAD_POS),
    ])
    def test_cached_kind_is_a_fresh_classify(self, physics, motion, kind):
        motion = motion(physics)
        eval_motion(motion, 0.3)
        assert motion.case_kind is kind is classify(motion)
        assert vars(motion)["case_kind"] is kind
        assert vars(motion)["gamma0"] == motion.a * motion.L0 ** 2 - motion.b ** 2

    @pytest.mark.parametrize("builder", [
        lambda ph: SeparableMotion(ph, 1.0, 2.0, 1.0, gamma1=0.25, c=-0.5, d=0.125),
        lambda ph: _tabulated_from(ph, lambda t: -0.5 * (2.0 + t), lambda t: 2.0 + t),
    ])
    def test_warm_reads_leave_identity_unchanged(self, physics, builder):
        motion, cold = builder(physics), builder(physics)
        doc, digest, key = motion_to_document(motion), motion_content_hash(motion), hash(motion)
        for t in (0.0, 0.4, 1.7):
            length_jerk(motion, eval_motion(motion, t))
        time_rescale(motion, 1.7)
        validity_horizon(motion)
        assert motion.L0 > 0.0
        assert len(vars(motion)) > len(vars(cold))       # the caches are filled
        assert motion_to_document(motion) == doc
        assert motion_content_hash(motion) == digest
        assert motion == cold and hash(motion) == key == hash(cold)


class TestSerialization:
    @pytest.mark.parametrize("builder", [
        lambda ph: SeparableMotion(ph, 1.0, 2.0, 1.0, gamma1=0.25, c=-0.5, d=0.125),
        lambda ph: CriticalMotion(ph, alpha=1.5, L0_offset=2.0,
                                  eta=EtaSpec(k=0.2, p=-1.0)),
        lambda ph: _tabulated_from(ph, lambda t: -1.0 - 0.3 * t, lambda t: 2.0 + 0.6 * t),
    ])
    def test_round_trip_is_bit_stable(self, physics, builder):
        motion = builder(physics)
        doc = motion_to_document(motion)
        back = motion_from_document(doc)
        assert motion_to_document(back) == doc
        assert motion_content_hash(back) == motion_content_hash(motion)

    def test_unperturbed_eta_is_stored_one_way(self, physics):
        # With k = 0 the exponent plays no part, so it does not split a motion
        # into two documents.
        assert EtaSpec(k=0.0, p=-0.5) == EtaSpec() == EtaSpec(k=0.0, p=2.0)
        assert math.copysign(1.0, EtaSpec(k=-0.0).k) == 1.0    # JSON keeps a -0.0
        default = CriticalMotion(physics, alpha=1.5)
        for eta in (EtaSpec(k=-0.0), EtaSpec(k=0.0, p=-0.5)):
            motion = CriticalMotion(physics, alpha=1.5, eta=eta)
            assert motion_content_hash(motion) == motion_content_hash(default)

    def test_eta_has_no_constant_part(self, physics):
        # A constant shift of eta is absorbed by t0; an older document's eta0
        # is not read.
        with pytest.raises(TypeError):
            EtaSpec(eta0=0.5)
        doc = motion_to_document(CriticalMotion(physics, alpha=1.5))
        assert doc["params"]["eta"] == {"k": 0.0, "p": -1.0}
        doc["params"]["eta"] = {"eta0": 0.5, "k": 0.0, "p": -0.5}
        assert motion_from_document(doc) == CriticalMotion(physics, alpha=1.5)

    @pytest.mark.parametrize("edit, cause", [
        (lambda d: d["params"].pop("a"), "'a'"),
        (lambda d: d["params"].update(a="x"), "could not convert string to float: 'x'"),
        (lambda d: d["physics"].update(D="x"), "could not convert string to float: 'x'"),
        (lambda d: d.update(params=[1.0, 2.0]), "list indices must be integers"),
        (lambda d: d.update(family="critical", params={"alpha": 1.5, "L0_offset": 1.0,
                                                       "eta": 0.5}), "has no attribute 'get'"),
        (lambda d: d.update(family="tabulated", params={"times": [0, 1, 2, 3],
                                                        "A": [0] * 4}), "'L'"),
        (lambda d: d.update(family="spiral"), "unknown motion family 'spiral'"),
    ], ids=["no a", "bad a", "bad D", "list params", "number eta", "no L", "family"])
    def test_malformed_documents_are_refused(self, physics, edit, cause):
        doc = motion_to_document(SeparableMotion.fixed_length(physics, 1.0))
        edit(doc)
        with pytest.raises(ParameterError, match="^malformed motion document: .*" + cause):
            motion_from_document(doc)

    @pytest.mark.parametrize("text, name", [
        ('{"family": "separable", "physics": {"D": 1, "f0": 1}, '
         '"params": {"a": 0, "b": 0, "L0": 1, "c": NaN}}', "c"),
        ('{"family": "critical", "physics": {"D": NaN, "f0": 1}, '
         '"params": {"alpha": 1.5, "L0_offset": 1}}', "D"),
        ('{"family": "critical", "physics": {"D": 1, "f0": 1}, '
         '"params": {"alpha": 1.5, "L0_offset": 1, "eta": {"k": Infinity}}}', "k"),
        ('{"family": "tabulated", "physics": {"D": 1, "f0": 1}, '
         '"params": {"times": [0, 1, 2, 3], "A": [0, 0, 0, 0], "L": [1, NaN, 1, 1]}}',
         "tabulated L_values"),
    ], ids=["separable-c", "physics-D", "eta-k", "tabulated-L"])
    def test_json_nan_literal_is_refused(self, text, name):
        # Python's json module reads NaN and Infinity, which are not JSON.
        with pytest.raises(ParameterError,
                           match=f"^malformed motion document: {name} must be finite, got "):
            motion_from_document(json.loads(text))

    def test_unknown_motion_type_has_no_document(self, physics):
        with pytest.raises(TypeError, match="unknown motion type .*SimpleNamespace"):
            motion_to_document(types.SimpleNamespace(physics=physics))

    def test_hash_distinguishes_parameters(self, physics):
        m1 = SeparableMotion.fixed_length(physics, 1.0, c=0.5)
        m2 = SeparableMotion.fixed_length(physics, 1.0, c=0.5 + 1e-12)
        assert motion_content_hash(m1) != motion_content_hash(m2)
