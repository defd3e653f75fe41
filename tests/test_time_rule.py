"""The time rule: every function of a motion's time refuses a time outside
[0, min(table end, horizon)) the same way, before it reads the kinematics."""

import math
import re
from functools import cache

import numpy as np
import pytest

import growthdiff.numeric as numeric
from growthdiff.critical import (envelope_bounds_general, subsolution, subsolution_onset,
                                 subsolution_residual, supersolution, verify_nested)
from growthdiff.eigen import solve_radial, solve_sl
from growthdiff.exact import (SeriesSolution, eval_physical, eval_radial_physical,
                              eval_radial_series, eval_series, eval_w)
from growthdiff.motion import (CriticalMotion, DomainCollapsedError, EtaSpec, ParameterError,
                               PhysicsParams, SeparableMotion, TabulatedMotion, eval_motion,
                               time_rescale, validity_horizon)
from growthdiff.numeric import solve_u, solve_w
from growthdiff.transforms import drift_integral, log_time_factor

PH = PhysicsParams(1.0, 1.0)
_TS = np.linspace(0.0, 2.0, 41)

# Every motion is centred, so the ball functions and the radial march read it too.
MOTIONS = {
    "linear": SeparableMotion.symmetric(PH, 1.0, 0.25, -0.5),      # L = 1 - t/2
    "sqrt": SeparableMotion.symmetric(PH, 1.0, 0.0, -0.25),        # L^2 = 1 - t/2
    "quad_neg": SeparableMotion.symmetric(PH, 1.0, -0.5, 0.1),
    "critical": CriticalMotion(PH, alpha=3.0, L0_offset=0.2),
    "tabulated": TabulatedMotion(PH, tuple(_TS), tuple(0.5 * _TS - 0.5), tuple(1.0 - _TS)),
    # These two never collapse.
    "spreading": CriticalMotion(PH, alpha=1.0),
    "wobble": TabulatedMotion.from_callables(PH, lambda t: -0.5 * (2.0 + t + 0.1 * np.sin(t)),
                                             lambda t: 2.0 + t + 0.1 * np.sin(t), 2.5, 1001),
}


def _finite(t):
    return ParameterError, f"motions are defined for finite t >= 0, got t={t}"


def _collapsed(name, t):
    return DomainCollapsedError, (f"motion collapsed: its length vanished at "
                                  f"t={validity_horizon(MOTIONS[name])}, before t={t}")


CASES = {
    **{f"{name}-{t}": (name, t, *_finite(t)) for name in ("spreading", "wobble")
       for t in (math.nan, math.inf, -math.inf, -0.5)},
    "wobble-past-table": ("wobble", 3.0, ParameterError,
                          "t=3.0 beyond tabulated range [0, 2.5]"),
    # Past the table and past the horizon: the table is checked first.
    "tabulated-past-table": ("tabulated", 2.5, ParameterError,
                             "t=2.5 beyond tabulated range [0, 2.0]"),
    **{f"{name}-{where}": (name, factor * validity_horizon(MOTIONS[name]),
                           *_collapsed(name, factor * validity_horizon(MOTIONS[name])))
       for name in ("linear", "sqrt", "quad_neg", "critical", "tabulated")
       for where, factor in (("at-horizon", 1.0), ("past-horizon", 1.5))},
}


@cache
def _series(name):
    motion = MOTIONS[name]
    return SeriesSolution(motion, solve_sl(1.0, motion.L0, 0.0, 0.0, grid_size=64, num_modes=4),
                          np.ones(4))


@cache
def _ball(name):
    motion = MOTIONS[name]
    return SeriesSolution(motion, solve_radial(1.0, 0.5 * motion.L0, 0.0, 3, grid_size=64,
                                               num_modes=4), np.ones(4))


def _sine(motion):
    return lambda xi: np.sin(np.pi * xi / motion.L0)


CALLS = {
    "eval_motion": lambda name, t: eval_motion(MOTIONS[name], t),
    "eval_motion-array": lambda name, t: eval_motion(MOTIONS[name], np.array([0.0, t, 0.0])),
    "time_rescale": lambda name, t: time_rescale(MOTIONS[name], t),
    "drift_integral": lambda name, t: drift_integral(MOTIONS[name], t),
    "log_time_factor": lambda name, t: log_time_factor(MOTIONS[name], t),
    "eval_w-fast": lambda name, t: eval_w(_series(name), [0.0], t),
    "eval_w-generic": lambda name, t: eval_w(_series(name), [0.0], t, "generic"),
    "eval_series-fast": lambda name, t: eval_series(_series(name), [0.0], t),
    "eval_series-generic": lambda name, t: eval_series(_series(name), [0.0], t, "generic"),
    "eval_physical": lambda name, t: eval_physical(_series(name), [0.0], t),
    "eval_radial_series": lambda name, t: eval_radial_series(_ball(name), [0.0], t),
    "eval_radial_physical": lambda name, t: eval_radial_physical(_ball(name), [0.0], t),
    "supersolution": lambda name, t: supersolution(MOTIONS[name], [0.0], t),
    "subsolution-t_ref": lambda name, t: subsolution(MOTIONS[name], [0.0], 0.0, t),
    "subsolution_residual-t_ref": lambda name, t: subsolution_residual(MOTIONS[name], [0.0],
                                                                       0.0, t),
    "subsolution_onset-t_max": lambda name, t: subsolution_onset(MOTIONS[name], t),
    "verify_nested-t_max": lambda name, t: verify_nested(MOTIONS[name], MOTIONS[name], t),
    "envelope_bounds_general-t_max": lambda name, t: envelope_bounds_general(
        MOTIONS[name], _sine(MOTIONS[name]), 0.0, 0.0, 0.0, 0.0, t),
    "solve_u-T": lambda name, t: solve_u(MOTIONS[name], _sine(MOTIONS[name]), grid_size=16,
                                         dt=1e-2, T=t),
    "solve_w-T": lambda name, t: solve_w(MOTIONS[name], _sine(MOTIONS[name]), grid_size=16,
                                         dt=1e-2, T=t),
    "solve_radial-T": lambda name, t: numeric.solve_radial(
        MOTIONS[name], lambda r: np.cos(np.pi * r / MOTIONS[name].L0), 3, grid_size=16,
        dt=1e-2, T=t),
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("call", CALLS)
def test_every_function_of_time_refuses_by_the_rule(call, case):
    name, t, error, message = CASES[case]
    if call.endswith("-T") and error is ParameterError and message.startswith("motions"):
        # A march's T is first a run length, refused with dt.
        message = f"dt and T must be finite and positive, got dt=0.01, T={t}"
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        CALLS[call](name, t)
    assert type(caught.value) is error


@pytest.mark.parametrize("solve", ["solve_u", "solve_w", "solve_radial"])
def test_a_final_time_past_the_table_is_refused_before_the_march(monkeypatch, solve):
    def no_march(*args, **kwargs):
        raise AssertionError("the march ran")
    monkeypatch.setattr(numeric, "_march", no_march)
    motion = MOTIONS["wobble"]
    with pytest.raises(ParameterError, match=r"^t=5\.0 beyond tabulated range \[0, 2\.5\]$"):
        if solve == "solve_radial":
            numeric.solve_radial(motion, lambda r: np.cos(np.pi * r / motion.L0), 1,
                                 grid_size=64, dt=1e-4, T=5.0)
        else:
            getattr(numeric, solve)(motion, _sine(motion), grid_size=64, dt=1e-4, T=5.0)


_L = 2.0 + np.linspace(0.0, 2.5, 1001) + 0.1 * np.sin(np.linspace(0.0, 2.5, 1001))
_VALUED = {
    "fixed": SeparableMotion.fixed_length(PH, 2.0, gamma1=0.3, c=0.1, d=-1.0),
    "linear": SeparableMotion.linear_length(PH, 1.0, -0.5, gamma1=0.3, c=0.1),
    "sqrt": SeparableMotion.sqrt_length(PH, 1.0, -0.25, gamma1=0.2, c=0.1),
    "quad_neg": SeparableMotion(PH, -0.5, 0.1, 1.0, gamma1=0.2),
    "quad_pos": SeparableMotion(PH, 1.0, 0.0, 1.0, gamma1=-0.4, c=0.3),
    "critical": CriticalMotion(PH, alpha=1.5),
    "critical_eta": CriticalMotion(PH, alpha=1.5, eta=EtaSpec(1.0, -0.5)),
    "tabulated": TabulatedMotion(PH, tuple(np.linspace(0.0, 2.5, 1001)), tuple(-0.5 * _L),
                                 tuple(_L)),
}

# (t, s(t), log_time_factor) as the package computed them before the rule
# had one home; a time the rule accepts reads the same bits.
_VALUES = {
    "fixed": [(0.5, 0.5, 0.4985009765625), (3.0, 3.0, 2.9808984375)],
    "linear": [(0.5, 0.6666666666666666, 0.46819444444444447),
               (1.9, 37.999999999999964, -118.65974999999958)],
    "sqrt": [(0.5, 0.5753641449035618, 0.3852558014209403),
             (1.9, 5.99146454710798, 0.8123927601027194)],
    "quad_neg": [(0.5, 0.4959364164711722, 0.4998874443521608),
                 (1.6, 3.4215693043331794, 1.5636678067970042)],
    "quad_pos": [(0.5, 0.4636476090008061, 0.4943779436850259),
                 (3.0, 1.2490457723982544, 2.992198490506033)],
    "critical": [(0.5, 0.29851096609354044, 0.4206976621622466),
                 (300.0, 0.5090353893092128, 8.000034167887431)],
    "critical_eta": [(0.5, 0.23966898953523247, 0.33375036849090717),
                     (300.0, 0.39401242984949597, 7.276375681618504)],
    "tabulated": [(0.5, 0.39230048002346407, 0.4624694509260957),
                  (2.5, 1.0692930975805264, 2.335637680116644)],
}


@pytest.mark.parametrize("name", _VALUES)
def test_accepted_times_read_the_same_bits(name):
    motion = _VALUED[name]
    for t, s, log_factor in _VALUES[name]:
        assert time_rescale(motion, t) == s
        assert log_time_factor(motion, t) == log_factor
