"""End-to-end acceptance checks.

Each test prints one ``criterion N: PASS/FAIL (...)`` line so a complete run
reads as a checklist.  The long critical-speed solves are module fixtures
shared between the exponent, envelope and gradient checks; everything else
is cheap enough to build in place.
"""

import math
import time
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import j0

from growthdiff.airy import airy_ai, airy_first_zero
from growthdiff.critical import (EnvelopeViolationError, boundary_gradient,
                                 envelope_bounds_general, eval_bound,
                                 fit_exponent, solve_critical,
                                 subsolution_residual, supersolution_residual,
                                 verify_envelope, verify_nested)
from growthdiff.eigen import principal_eigen_bound, solve_sl
from growthdiff.eigen import solve_radial as radial_modes
from growthdiff.exact import (TruncationWarning, build_series, eval_physical,
                              eval_series)
from growthdiff.motion import (CriticalMotion, PhysicsParams, SeparableMotion,
                               TabulatedMotion, validity_horizon)
from growthdiff.numeric import solve_u


def _report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")


def _family_cases(ph):
    """One representative configuration per closed-form length law."""
    return [
        ("fixed", SeparableMotion.fixed_length(ph, math.pi, gamma1=0.5, c=0.5)),
        ("linear+", SeparableMotion.linear_length(ph, 1.0, 1.0, gamma1=0.3, c=0.2)),
        ("linear-", SeparableMotion.linear_length(ph, math.pi, -0.4, c=0.3)),
        ("sqrt+", SeparableMotion.sqrt_length(ph, 1.0, 1.0, gamma1=0.2, c=0.4)),
        ("sqrt-", SeparableMotion.sqrt_length(ph, 2.0, -0.5, gamma1=0.2, c=0.1)),
        ("quadneg", SeparableMotion(ph, 1.0, 2.0, 1.0, gamma1=0.2, c=0.3)),
        ("quadpos", SeparableMotion(ph, 1.0, 0.0, 1.0, gamma1=0.2, c=0.3)),
    ]


@pytest.fixture(scope="module")
def physics1():
    return PhysicsParams(D=1.0, f0=1.0)


@pytest.fixture(scope="module")
def spread15(physics1):
    return CriticalMotion(physics1, alpha=1.5)


@pytest.fixture(scope="module")
def long_run(spread15):
    # Potential-form run to t = 10^3; about a minute.  Reused by the
    # exponent fit, the envelope check and the gradient band.
    return solve_critical(spread15, 1, 1e3, 1024, 2e-3, 81)


@pytest.fixture(scope="module")
def interval_fits(physics1, spread15, long_run):
    # With D = f0 = 1 the lag strength alpha equals alpha c* / 2D.
    reports = {}
    for alpha in (0.5, 1.0, 2.0):
        reports[alpha] = fit_exponent(CriticalMotion(physics1, alpha=alpha),
                                      t_final=1e3, grid_size=1024, dt=2e-3)
    reports[1.5] = fit_exponent(spread15, t_final=1e3, solution=long_run)
    return reports


@pytest.fixture(scope="module")
def ball_fit(physics1):
    return fit_exponent(CriticalMotion(physics1, alpha=2.5), n_dim=3,
                        t_final=1e3, grid_size=1024, dt=2e-3)


def test_criterion_1_eigen_baseline(capsys):
    start = time.time()
    eig = solve_sl(1.0, math.pi, 0.0, 0.0, grid_size=2048, num_modes=4,
                   extrapolate=True)
    elapsed = time.time() - start
    worst = max(abs(s + float(n ** 2)) for n, s in enumerate(eig.sigmas, 1))
    ok = worst < 1e-6 and elapsed < 5.0
    _report(capsys, 1, ok,
            f"max |sigma_n + n^2| = {worst:.2e} (tol 1e-6), {elapsed:.2f} s")
    assert ok


def test_criterion_2_principal_bound_sweep(capsys):
    start = time.time()
    rng = np.random.default_rng(20250814)
    margins = []
    for _ in range(50):
        rho = rng.uniform(0.1, 5.0)
        gamma1 = rng.uniform(-5.0, 5.0)
        eig = solve_sl(1.0, 1.0, -rho ** 2, gamma1, grid_size=512, num_modes=1)
        margins.append(principal_eigen_bound(rho, gamma1, 1.0, 1.0)
                       - eig.sigmas[0])
    elapsed = time.time() - start
    ok = all(m > 0.0 for m in margins) and elapsed < 60.0
    _report(capsys, 2, ok,
            f"50/50 strict, smallest margin {min(margins):.3e}, {elapsed:.2f} s")
    assert ok


def test_criterion_3_exact_vs_numeric_all_families(physics1, capsys):
    # The 64-mode reference leaves the t = 0 reconstruction tail of the sine
    # data around 3e-5, well under the criterion tolerance; the tail estimate
    # still warns there, so the warning is silenced for this sweep.
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for name, motion in _family_cases(physics1):
            T = min(5.0, 0.8 * validity_horizon(motion))
            u0 = lambda xi: np.sin(np.pi * xi / motion.L0)
            ref = build_series(motion, u0, grid_size=1024, num_modes=64,
                               extrapolate=True)
            times = [0.0, 0.25 * T, 0.5 * T, 0.75 * T, T]
            sol = solve_u(motion, u0, grid_size=512, dt=1e-4, T=T,
                          output_times=times)
            worst = 0.0
            for t in times:
                exact = eval_series(ref, sol.grid, t)
                worst = max(worst, float(
                    np.max(np.abs(sol.slice_at(t) - exact))
                    / np.max(np.abs(exact))))
            results.append((name, worst))
    ok = all(w < 1e-4 for _, w in results)
    detail = ", ".join(f"{n} {w:.1e}" for n, w in results) + " (tol 1e-4)"
    _report(capsys, 3, ok, detail)
    assert ok


def test_criterion_4_closed_forms_match_generic_route(physics1, capsys):
    rng = np.random.default_rng(20250814)
    worst_by_case = []
    for name, motion in _family_cases(physics1):
        sol = build_series(motion, lambda xi: np.sin(np.pi * xi / motion.L0),
                           grid_size=512, num_modes=32)
        t_hi = min(2.0, 0.8 * validity_horizon(motion))
        worst = 0.0
        for t in rng.uniform(0.05, t_hi, 100):
            xi = rng.uniform(0.0, motion.L0, 10)
            fast = eval_series(sol, xi, float(t), route="fast")
            generic = eval_series(sol, xi, float(t), route="generic")
            scale = max(float(np.max(np.abs(fast))), 1e-30)
            worst = max(worst, float(np.max(np.abs(fast - generic))) / scale)
        worst_by_case.append((name, worst))
    ok = all(w < 1e-9 for _, w in worst_by_case)
    detail = ("10^3 points/case, worst "
              + ", ".join(f"{n} {w:.1e}" for n, w in worst_by_case)
              + " (tol 1e-9)")
    _report(capsys, 4, ok, detail)
    assert ok


def test_criterion_5_balanced_spreading_decay(physics1, capsys):
    cstar = physics1.c_star
    motion = SeparableMotion.linear_length(physics1, 1.0, 2.0 * cstar,
                                           c=-cstar)
    report = fit_exponent(motion, probes=(1.0,), window=(1e2, 1e4),
                          t_final=1e4)
    ok = report.route == "series" and abs(report.fitted_exponent + 1.5) <= 0.02
    _report(capsys, 5, ok,
            f"slope of log psi(A+1) vs log t = {report.fitted_exponent:.4f} "
            "(target -1.500 +- 0.02)")
    assert ok


def test_criterion_6_critical_exponent_law(spread15, long_run, interval_fits,
                                           capsys):
    # The gate is the relaxation-corrected exponent: at t = 1e3 the plain
    # log-log slope still lags the limit by the front's t^(-1/2) relaxation,
    # so it is printed alongside but not gated.
    fits = [interval_fits[q] for q in sorted(interval_fits)]
    fits_ok = all(abs(f.limit_error) <= 0.05 for f in fits)
    times, grads = boundary_gradient(spread15, long_run)
    sel = grads[(times >= 100.0) & (times <= 1000.0)]
    ratio = float(np.max(sel) / np.min(sel))
    band_ok = bool(np.all(sel > 0.0)) and ratio <= 2.0
    ok = fits_ok and band_ok
    detail = ("fit errors "
              + ", ".join(f"q={f.alpha:g}: OLS {f.error:+.4f}, corrected "
                          f"{f.limit_error:+.4f}, b {f.relaxation_coeff:.3f}"
                          for f in fits)
              + f" (tol 0.05 on corrected); last-decade gradient ratio {ratio:.3f}"
              " (positive, tol 2)")
    _report(capsys, 6, ok, detail)
    assert ok, detail


def test_criterion_7_envelope_ordering(spread15, long_run, capsys):
    try:
        pair = verify_envelope(spread15, long_run)
        worst = pair.worst_slack
        env_ok = worst >= -1e-8
        onset = pair.onset
    except EnvelopeViolationError as exc:
        worst, env_ok, onset = math.nan, False, None
    rng = np.random.default_rng(20250814)
    sub_worst = -math.inf
    if onset is not None:
        for t in rng.uniform(onset, 1e3, 1000):
            xi = rng.uniform(0.0, spread15.L0)
            sub_worst = max(sub_worst, float(
                subsolution_residual(spread15, [xi], float(t), onset)[0]))
    sup_worst = math.inf
    for t in rng.uniform(0.0, 1e3, 1000):
        xi = rng.uniform(0.0, spread15.L0)
        sup_worst = min(sup_worst, float(
            supersolution_residual(spread15, [xi], float(t))[0]))
    signs_ok = sub_worst <= 1e-6 and sup_worst >= -1e-6
    ok = env_ok and signs_ok
    _report(capsys, 7, ok,
            f"worst envelope slack {worst:.2e} (tol -1e-8); residual signs: "
            f"sub max {sub_worst:.2e}, sup min {sup_worst:.2e} (tol 1e-6)")
    assert ok


def test_criterion_8_ball_exponent_and_bessel_mode(ball_fit, capsys):
    # Gated on the relaxation-corrected exponent, as in criterion 6.
    fit_ok = abs(ball_fit.limit_error) <= 0.08
    eig = radial_modes(1.0, 1.0, 0.0, 2, grid_size=2048, num_modes=2,
                       extrapolate=True)
    root = brentq(j0, 2.0, 3.0)
    bessel_rel = abs(eig.sigmas[0] + root ** 2) / root ** 2
    bessel_ok = bessel_rel <= 1e-5
    ok = fit_ok and bessel_ok
    _report(capsys, 8, ok,
            f"n=3 fit error OLS {ball_fit.error:+.4f}, corrected "
            f"{ball_fit.limit_error:+.4f}, b {ball_fit.relaxation_coeff:.3f} "
            f"(tol 0.08 on corrected); n=2 Bessel "
            f"eigenvalue rel err {bessel_rel:.1e} (tol 1e-5)")
    assert ok, f"ball fit error {ball_fit.limit_error:+.4f}"


def test_criterion_9_comparison_bounds(physics1, capsys):
    # Nested ordering: a fixed interval inside a linearly growing one, same
    # data.  At t = 0 the two fields coincide by construction, so the check
    # starts once the mode tails have decayed.
    inner = SeparableMotion.fixed_length(physics1, 1.0)
    outer = SeparableMotion.linear_length(physics1, 1.0, 1.0)
    verify_nested(inner, outer, 2.0)
    u0 = lambda xi: np.sin(np.pi * xi)
    inner_sol = build_series(inner, u0, grid_size=1024, num_modes=48)
    outer_sol = build_series(outer, u0, grid_size=1024, num_modes=48)
    x = np.linspace(0.0, 1.0, 101)
    nested_worst = math.inf
    for t in (0.25, 0.5, 1.0, 2.0):
        vi = eval_physical(inner_sol, x, t)
        vo = eval_physical(outer_sol, x, t)
        nested_worst = min(nested_worst, float(
            np.min(vo - vi) / np.max(np.abs(vi))))

    # Pinched-coefficient envelope on the perturbed tabulated example.
    length = lambda t: 2.0 + t + 0.1 * np.sin(t)
    wobble = TabulatedMotion.from_callables(physics1,
                                            lambda t: -0.5 * length(t),
                                            length, 2.5, 1001)
    w0 = lambda xi: np.sin(0.5 * np.pi * xi)
    lo, hi = envelope_bounds_general(wobble, w0, -6.5255, 0.3, -0.3, 3.4127,
                                     2.0, grid_size=512, num_modes=32)
    truth = solve_u(wobble, w0, grid_size=1024, dt=2e-4, T=2.0,
                    output_times=[0.5, 1.5, 2.0])
    pinch_worst = math.inf
    for t in (0.5, 1.5, 2.0):
        vals = truth.slice_at(t)
        scale = float(np.max(np.abs(vals)))
        pinch_worst = min(
            pinch_worst,
            float(np.min(eval_bound(hi, truth.grid, t) - vals)) / scale,
            float(np.min(vals - eval_bound(lo, truth.grid, t))) / scale)

    ok = nested_worst >= -1e-8 and pinch_worst >= -1e-8
    _report(capsys, 9, ok,
            f"nested slack {nested_worst:.2e}, pinched-envelope slack "
            f"{pinch_worst:.2e} (tol -1e-8)")
    assert ok


def test_criterion_10_airy_kernel(capsys):
    mp.mp.dps = 30
    ai0_err = abs(airy_ai(0.0)[0] - float(mp.airyai(0)))
    aip0_err = abs(airy_ai(0.0)[1] - float(mp.diff(mp.airyai, 0)))
    c1 = airy_first_zero()
    c1_err = abs(c1 - float(mp.findroot(mp.airyai, -2.338)))
    # Five-point second derivative; the step shrinks on the oscillatory side
    # where the curvature is largest.
    resid = 0.0
    xs = np.concatenate([np.arange(c1 - 1.0, 2.0, 0.01),
                         np.arange(2.0, 5.0001, 0.05)])
    for x in xs:
        h = 0.004 if x <= 2.0 else 0.02
        v = [airy_ai(float(x + k * h))[0] for k in (-2, -1, 0, 1, 2)]
        d2 = (-v[0] + 16 * v[1] - 30 * v[2] + 16 * v[3] - v[4]) / (12 * h * h)
        resid = max(resid, abs(d2 - x * v[2]))
    ok = (ai0_err < 1e-12 and aip0_err < 1e-12 and c1_err < 1e-10
          and resid < 1e-9)
    _report(capsys, 10, ok,
            f"Ai(0) err {ai0_err:.1e}, Ai'(0) err {aip0_err:.1e}, c1 err "
            f"{c1_err:.1e}, ODE residual {resid:.1e}")
    assert ok
