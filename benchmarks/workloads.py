"""The benchmark's workloads, job by job, and the traced-run layer probes.

A job is the sequence of public growthdiff calls that one CLI subcommand
makes, output writers included, followed by its correctness gates.  Every
library call goes through ``ctx.call`` so the traced run sees it as a span.
Inputs are drawn from the run's seed; sizes (grids, step counts, mode
counts, numbers of evaluations) are fixed per workload, so the work a pass
does is the same on every seed.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.special import airy as scipy_airy, jn_zeros

from growthdiff.airy import airy_ai, airy_first_zero
from growthdiff.critical import (envelope_bounds_general, envelope_to_csv,
                                 eval_bound, fit_exponent, fit_report_document,
                                 verify_envelope, verify_nested)
from growthdiff.eigen import eigen_header, eigen_to_csv, solve_radial as radial_modes, solve_sl
from growthdiff.exact import (build_radial_series, build_series, eval_physical,
                              eval_radial_series, eval_series, series_manifest,
                              series_to_csv)
from growthdiff.motion import (CriticalMotion, PhysicsParams, SeparableMotion,
                               TabulatedMotion, eval_motion, motion_content_hash,
                               motion_to_document, validity_horizon)
from growthdiff.numeric import solve_radial, solve_u, solve_w
from growthdiff.transforms import drift_integral

PH = PhysicsParams(D=1.0, f0=1.0)
SLACK_TOL = 1e-8                 # envelope, nested and pinched slack gates
FIT_TOL = {1: 0.05, 3: 0.08}     # criteria 6 and 8
SERIES_ROUTE_TOL = 1e-9          # criterion 4
COMPARE_TOL = 1e-4               # criterion 3
EIGEN_RTOL = 1e-6                # eigenvalues against closed-form roots
AIRY_ATOL = 1e-13                # airy_ai against scipy.special.airy

# critical-march: the `critical` subcommand at a horizon one CLI call affords.
# At dt = 0.01 the n = 3 ball's field has negative interior nodes until
# t ~ 10; the default fit window of a t_final = 300 run starts at 9.5.
CRIT_GRID, CRIT_DT, CRIT_T, CRIT_OUTPUTS = 512, 0.01, 300.0, 41
CRIT_ALPHAS = (0.6, 1.25, 1.9)   # jittered by the seed, inside [0.5, 2]
BALL_ALPHA = 2.5

SERIES_GRID, SERIES_MODES = 512, 32
SERIES_EVALS = 100               # (t, xi) draws per family and route
SERIES_XI = 10                   # points per evaluation
COMPARE_GRID, COMPARE_DT = 256, 1e-3
COMPARE_RUNS = (0.4, 0.6, 0.8)   # horizons of the short solve_u runs


def family_cases(ph):
    """One configuration per closed-form length law, as in the acceptance suite."""
    return [
        ("fixed", SeparableMotion.fixed_length(ph, math.pi, gamma1=0.5, c=0.5)),
        ("linear+", SeparableMotion.linear_length(ph, 1.0, 1.0, gamma1=0.3, c=0.2)),
        ("linear-", SeparableMotion.linear_length(ph, math.pi, -0.4, c=0.3)),
        ("sqrt+", SeparableMotion.sqrt_length(ph, 1.0, 1.0, gamma1=0.2, c=0.4)),
        ("sqrt-", SeparableMotion.sqrt_length(ph, 2.0, -0.5, gamma1=0.2, c=0.1)),
        ("quadneg", SeparableMotion(ph, 1.0, 2.0, 1.0, gamma1=0.2, c=0.3)),
        ("quadpos", SeparableMotion(ph, 1.0, 0.0, 1.0, gamma1=0.2, c=0.3)),
    ]


def sine(L0):
    return lambda xi: np.sin(np.pi * np.asarray(xi) / L0)


def wobble_motion():
    """Tabulated, non-separable motion of criterion 9."""
    length = lambda t: 2.0 + t + 0.1 * np.sin(t)
    return TabulatedMotion.from_callables(PH, lambda t: -0.5 * length(t),
                                          length, 2.5, 1001)


# ---------------------------------------------------------------------------
# job plumbing


@dataclass
class Outcome:
    error_ratio: float | None = None
    gates: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)


class JobContext:
    """What a job needs: the tracer, a file prefix for its artifacts."""

    def __init__(self, tracer, workdir, job_name):
        self.tracer = tracer
        self.prefix = os.path.join(workdir, job_name)
        self.outcome = Outcome()

    def call(self, name, fn, *args, **kwargs):
        return self.tracer.call(name, fn, *args, **kwargs)

    def count(self, name, value):
        self.tracer.count(name, value)

    def gate(self, name, ok):
        self.outcome.gates[name] = bool(ok)

    def write(self, name, suffix, writer):
        """Run writer(path) as one output-layer call and keep the artifact."""
        path = self.prefix + suffix
        self.call("output." + name, writer, path)
        self.outcome.artifacts.append(path)
        self.count("output.bytes", os.path.getsize(path))

    def write_json(self, suffix, document):
        self.write("write_json", suffix, partial(_write_json, document=document))

    def write_rows(self, suffix, header, rows):
        self.write("write_csv", suffix, partial(_write_csv, header=header, rows=rows))


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def _write_json(path, document):
    """Same layout as the CLI manifests: indented, floats at full precision."""
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2, default=_jsonable)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(float(v), ".17g") for v in row])


def _solve_counts(ctx, kind, grid_size, dt, T):
    steps = max(1, int(round(T / dt)))
    ctx.count("numeric.steps", steps)
    ctx.count("numeric.steps." + kind, steps)
    ctx.count("numeric.cell_steps", steps * (grid_size + 1))


def envelope_slack(pair):
    """Worst relative slack of the stored field between the stored barriers."""
    worst = math.inf
    for lo, mid, hi in zip(pair.lower, pair.field, pair.upper):
        scale = float(np.max(np.abs(mid)))
        if scale > 0.0:
            worst = min(worst, float(np.min(hi - mid)) / scale,
                        float(np.min(mid - lo)) / scale)
    return worst


def airy_gate(ctx, points):
    """airy_ai against scipy.special.airy on the barrier's z range."""
    ref_ai, ref_aip, _, _ = scipy_airy(points)
    worst = 0.0
    for z, ai_ref, aip_ref in zip(points, ref_ai, ref_aip):
        ai, aip = airy_ai(float(z))
        worst = max(worst, abs(ai - ai_ref), abs(aip - aip_ref))
    ctx.gate("airy_vs_scipy", worst <= AIRY_ATOL)


# ---------------------------------------------------------------------------
# critical-march


def critical_outputs(dt, T, num_outputs):
    return np.unique(np.concatenate(
        [[0.0], np.geomspace(max(10.0 * dt, 1e-2), T, num_outputs)]))


def critical_job(ctx, alpha, n_dim, airy_points):
    motion = CriticalMotion(PH, alpha=alpha)
    outputs = critical_outputs(CRIT_DT, CRIT_T, CRIT_OUTPUTS)
    if n_dim == 1:
        w0 = sine(motion.L0)
        sol = ctx.call("numeric.solve_w", solve_w, motion, w0, grid_size=CRIT_GRID,
                       dt=CRIT_DT, T=CRIT_T, output_times=outputs)
        _solve_counts(ctx, "w", CRIT_GRID, CRIT_DT, CRIT_T)
    else:
        R0 = 0.5 * motion.L0
        W0 = lambda r: np.cos(0.5 * np.pi * r / R0)
        sol = ctx.call("numeric.solve_radial", solve_radial, motion, W0, n_dim,
                       grid_size=CRIT_GRID, dt=CRIT_DT, T=CRIT_T, output_times=outputs)
        _solve_counts(ctx, "radial", CRIT_GRID, CRIT_DT, CRIT_T)
    interior = sol.values[:, 1:-1] if n_dim == 1 else sol.values[:, :-1]
    ctx.count("numeric.negative_nodes", int(np.sum(interior < 0.0)))

    pair = ctx.call("critical.verify_envelope", verify_envelope, motion, sol,
                    slack_tol=SLACK_TOL)
    ctx.count("critical.envelope_points", pair.lower.size)
    report = ctx.call("critical.fit_exponent", fit_exponent, motion, n_dim=n_dim,
                      t_final=CRIT_T, grid_size=CRIT_GRID, dt=CRIT_DT,
                      num_outputs=CRIT_OUTPUTS, solution=sol)
    ctx.write("envelope_to_csv", "_envelope.csv", partial(envelope_to_csv, pair))
    document = fit_report_document(report)
    document["motion"] = motion_to_document(motion)
    document["motion_hash"] = motion_content_hash(motion)
    document["envelope"] = {"C1": pair.C1, "C2": pair.C2, "t_cal": pair.t_cal,
                            "onset": pair.onset, "worst_slack": pair.worst_slack,
                            "worst_time": pair.worst_time, "worst_xi": pair.worst_xi,
                            "slack_tol": SLACK_TOL}
    ctx.write_json("_report.json", document)

    predicted = -1.0 - 0.5 * n_dim + alpha * PH.c_star / (2.0 * PH.D)
    ctx.gate("envelope_slack", envelope_slack(pair) >= -SLACK_TOL)
    ctx.gate("predicted_exponent", abs(report.predicted_exponent - predicted) <= 1e-12)
    airy_gate(ctx, airy_points)
    ctx.outcome.error_ratio = abs(report.fitted_exponent - predicted) / FIT_TOL[n_dim]


def critical_march(rng):
    c1 = airy_first_zero()
    jobs = []
    for base in CRIT_ALPHAS:
        alpha = base + float(rng.uniform(-0.1, 0.1))
        jobs.append((f"critical-interval-{base:g}",
                     partial(critical_job, alpha=alpha, n_dim=1,
                             airy_points=rng.uniform(c1, 0.0, 64))))
    jobs.append(("critical-ball-n3", partial(critical_job, alpha=BALL_ALPHA, n_dim=3,
                                             airy_points=rng.uniform(c1, 0.0, 64))))
    return jobs


# ---------------------------------------------------------------------------
# series-eval


def exact_job(ctx, motion, evals, csv_times):
    """`exact` subcommand plus the criterion-4 fast/generic comparison."""
    sol = ctx.call("exact.build_series", build_series, motion, sine(motion.L0),
                   grid_size=SERIES_GRID, num_modes=SERIES_MODES)
    worst = 0.0
    for t, xi in evals:
        fast = ctx.call("exact.eval_series:fast", eval_series, sol, xi, t, route="fast")
        generic = ctx.call("exact.eval_series:generic", eval_series, sol, xi, t,
                           route="generic")
        scale = max(float(np.max(np.abs(fast))), 1e-30)
        worst = max(worst, float(np.max(np.abs(fast - generic))) / scale)
    ctx.count("exact.eval_calls", 2 * len(evals))
    xi = np.linspace(0.0, motion.L0, 101)
    ctx.write("series_to_csv", ".csv",
              lambda path: series_to_csv(sol, path, xi, csv_times, route="fast"))
    manifest = series_manifest(sol)
    manifest.update(times=list(csv_times), xi_samples=xi.size, route="fast")
    ctx.write_json(".json", manifest)
    ctx.gate("finite", math.isfinite(worst))
    ctx.outcome.error_ratio = worst / SERIES_ROUTE_TOL


def nested_job(ctx, times):
    """Criterion-9 nested ordering: fixed interval inside a growing one."""
    inner = SeparableMotion.fixed_length(PH, 1.0)
    outer = SeparableMotion.linear_length(PH, 1.0, 1.0)
    ctx.call("critical.verify_nested", verify_nested, inner, outer, max(times))
    u0 = sine(1.0)
    inner_sol = ctx.call("exact.build_series", build_series, inner, u0,
                         grid_size=SERIES_GRID, num_modes=SERIES_MODES)
    outer_sol = ctx.call("exact.build_series", build_series, outer, u0,
                         grid_size=SERIES_GRID, num_modes=SERIES_MODES)
    x = np.linspace(0.0, 1.0, 101)
    worst = math.inf
    rows = []
    for t in times:
        vi = ctx.call("exact.eval_physical", eval_physical, inner_sol, x, t)
        vo = ctx.call("exact.eval_physical", eval_physical, outer_sol, x, t)
        slack = float(np.min(vo - vi) / np.max(np.abs(vi)))
        rows.append((t, slack))
        worst = min(worst, slack)
    ctx.count("exact.eval_calls", 2 * len(times))
    ctx.write_rows(".csv", ["t", "nested_slack"], rows)
    ctx.gate("nested_slack", worst >= -SLACK_TOL)


def eigen_job(ctx, L0):
    """`eigen` on an interval with no potential: sigma_n = -D (n pi / L0)^2."""
    eig = ctx.call("eigen.solve_sl", solve_sl, PH.D, L0, 0.0, 0.0,
                   grid_size=SERIES_GRID, num_modes=8, extrapolate=True)
    ctx.count("eigen.calls", 1)
    ctx.write("eigen_to_csv", ".csv", partial(eigen_to_csv, eig))
    ctx.write_json(".json", eigen_header(eig))
    exact = -PH.D * (np.arange(1, 9) * np.pi / L0) ** 2
    ctx.gate("eigenvalues", np.max(np.abs(eig.sigmas - exact) / np.abs(exact)) <= EIGEN_RTOL)


def _ball_roots(n_dim, k):
    """First k zeros of J_{n/2-1}: the Dirichlet spectrum of the unit n-ball."""
    idx = np.arange(1, k + 1)
    if n_dim == 1:
        return (idx - 0.5) * np.pi
    if n_dim == 2:
        return jn_zeros(0, k)
    return idx * np.pi


def radial_job(ctx, n_dim, R0, evals):
    """`eigen --n-dim` plus a radial series on a centred sqrt-law ball."""
    eig = ctx.call("eigen.solve_radial", radial_modes, PH.D, R0, 0.0, n_dim,
                   grid_size=SERIES_GRID, num_modes=4, extrapolate=True)
    ctx.count("eigen.calls", 1)
    ctx.write("eigen_to_csv", ".csv", partial(eigen_to_csv, eig))
    ctx.write_json(".json", eigen_header(eig))
    exact = -PH.D * (_ball_roots(n_dim, 4) / R0) ** 2
    ctx.gate("eigenvalues", np.max(np.abs(eig.sigmas - exact) / np.abs(exact)) <= EIGEN_RTOL)

    motion = SeparableMotion.symmetric(PH, 2.0, a=0.0, b=0.5)
    dome = lambda r: np.cos(0.5 * np.pi * np.asarray(r))
    sol = ctx.call("exact.build_radial_series", build_radial_series, motion, dome,
                   n_dim, grid_size=SERIES_GRID, num_modes=SERIES_MODES)
    r = np.linspace(0.0, 1.0, 41)
    start = ctx.call("exact.eval_radial_series", eval_radial_series, sol, r, 0.0)
    ctx.gate("radial_t0", float(np.max(np.abs(start - dome(r)))) <= 1e-3)
    for t, rr in evals:
        ctx.call("exact.eval_radial_series", eval_radial_series, sol, rr, t)
    ctx.count("exact.eval_calls", 1 + len(evals))
    if n_dim == 1:
        # A 1-ball is the interval: the interval series on the same motion
        # with the same even data is an independent route to the same field.
        line = ctx.call("exact.build_series", build_series, motion,
                        lambda xi: np.cos(0.5 * np.pi * (np.asarray(xi) - 1.0)),
                        grid_size=SERIES_GRID, num_modes=SERIES_MODES)
        worst = 0.0
        for t, rr in evals[:8]:
            radius = rr * 0.5 * eval_motion(motion, t).L
            a = ctx.call("exact.eval_radial_series", eval_radial_series, sol, rr, t)
            b = ctx.call("exact.eval_physical", eval_physical, line, radius, t)
            worst = max(worst, float(np.max(np.abs(a - b)) / np.max(np.abs(b))))
        ctx.count("exact.eval_calls", 16)
        ctx.gate("ball_vs_interval", worst <= 1e-4)


def series_eval(rng):
    jobs = []
    for name, motion in family_cases(PH):
        t_hi = min(2.0, 0.8 * validity_horizon(motion))
        evals = [(float(t), rng.uniform(0.0, motion.L0, SERIES_XI))
                 for t in rng.uniform(0.05, t_hi, SERIES_EVALS)]
        csv_times = sorted(float(t) for t in rng.uniform(0.0, t_hi, 5))
        jobs.append((f"exact-{name}", partial(exact_job, motion=motion, evals=evals,
                                              csv_times=csv_times)))
    jobs.append(("nested", partial(nested_job, times=sorted(
        float(t) for t in rng.uniform(0.25, 2.0, 8)))))
    jobs.append(("eigen-interval", partial(eigen_job, L0=math.pi * float(rng.uniform(0.8, 1.2)))))
    for n_dim in (1, 2, 3):
        evals = [(float(t), rng.uniform(0.0, 1.0, SERIES_XI))
                 for t in rng.uniform(0.05, 2.0, SERIES_EVALS)]
        jobs.append((f"eigen-ball-n{n_dim}",
                     partial(radial_job, n_dim=n_dim, R0=float(rng.uniform(0.8, 1.2)),
                             evals=evals)))
    return jobs


# ---------------------------------------------------------------------------
# compare-u


def compare_job(ctx, motion, runs):
    """`compare` subcommand: series reference against short solve_u runs."""
    u0 = sine(motion.L0)
    ref = ctx.call("exact.build_series", build_series, motion, u0,
                   grid_size=SERIES_GRID, num_modes=SERIES_MODES)
    worst = 0.0
    rows = []
    for T, times in runs:
        run = ctx.call("numeric.solve_u", solve_u, motion, u0, grid_size=COMPARE_GRID,
                       dt=COMPARE_DT, T=T, output_times=times)
        _solve_counts(ctx, "u", COMPARE_GRID, COMPARE_DT, T)
        for t in run.times:
            u_ref = ctx.call("exact.eval_series:fast", eval_series, ref, run.grid,
                             float(t))[1:-1]
            diff = np.abs(run.slice_at(float(t))[1:-1] - u_ref)
            k = int(np.argmax(diff))
            rel = float(diff[k]) / float(np.max(np.abs(u_ref)))
            rows.append((T, float(t), float(diff[k]), rel, float(run.grid[1 + k])))
            worst = max(worst, rel)
        ctx.count("exact.eval_calls", run.times.size)
    ctx.write_rows(".csv", ["t_final", "t", "abs_linf", "rel_linf", "worst_xi"], rows)
    ctx.write_json(".json", {"motion": motion_to_document(motion),
                             "motion_hash": motion_content_hash(motion),
                             "grid_size": COMPARE_GRID, "series_grid": SERIES_GRID,
                             "num_modes": SERIES_MODES, "dt": COMPARE_DT,
                             "tol": COMPARE_TOL, "worst_rel_linf": worst})
    ctx.gate("finite", math.isfinite(worst))
    ctx.outcome.error_ratio = worst / COMPARE_TOL


def wobble_job(ctx, times):
    """Criterion-9 pinched envelope around a solve_u truth on a tabulated motion."""
    motion = wobble_motion()
    w0 = lambda xi: np.sin(0.5 * np.pi * np.asarray(xi))
    lo, hi = ctx.call("critical.envelope_bounds_general", envelope_bounds_general,
                      motion, w0, -6.5255, 0.3, -0.3, 3.4127, 2.0,
                      grid_size=SERIES_GRID, num_modes=SERIES_MODES)
    truth = ctx.call("numeric.solve_u", solve_u, motion, w0, grid_size=COMPARE_GRID,
                     dt=COMPARE_DT, T=2.0, output_times=times)
    _solve_counts(ctx, "u", COMPARE_GRID, COMPARE_DT, 2.0)
    worst = math.inf
    rows = []
    for t in truth.times:
        vals = truth.slice_at(float(t))
        scale = float(np.max(np.abs(vals)))
        upper = ctx.call("critical.eval_bound", eval_bound, hi, truth.grid, float(t))
        lower = ctx.call("critical.eval_bound", eval_bound, lo, truth.grid, float(t))
        slack = min(float(np.min(upper - vals)), float(np.min(vals - lower))) / scale
        rows.append((float(t), slack))
        worst = min(worst, slack)
    ctx.write_rows(".csv", ["t", "pinched_slack"], rows)
    ctx.gate("pinched_slack", worst >= -SLACK_TOL)


def compare_u(rng):
    jobs = []
    for name, motion in family_cases(PH):
        cap = 0.8 * validity_horizon(motion)
        runs = []
        for T in COMPARE_RUNS:
            T = min(T, cap)
            times = sorted(float(t) for t in rng.uniform(0.05 * T, T, 3)) + [T]
            runs.append((T, times))
        jobs.append((f"compare-{name}", partial(compare_job, motion=motion, runs=runs)))
    jobs.append(("pinched-wobble", partial(wobble_job, times=sorted(
        float(t) for t in rng.uniform(0.2, 2.0, 3)) + [2.0])))
    return jobs


WORKLOADS = {
    "critical-march": critical_march,
    "series-eval": series_eval,
    "compare-u": compare_u,
}


# ---------------------------------------------------------------------------
# layer probes: fixed, seed-drawn inputs, run once in every traced pass


def probe_job(ctx, rng):
    """Touch every layer once so each per-layer metric has samples on every workload.

    Per-call costs of the layers the benchmark never calls directly (motion
    kinematics, validity horizon, Airy, drift quadrature) come only from here;
    each is one span around a fixed batch of calls.
    """
    crit = CriticalMotion(PH, alpha=1.0 + float(rng.uniform(-0.1, 0.1)))
    sep = family_cases(PH)[3][1]                       # sqrt+, with drift
    c1 = airy_first_zero()
    batches = [
        ("probe.motion.eval_critical", eval_motion, crit, rng.uniform(0.0, CRIT_T, 32)),
        ("probe.motion.eval_separable", eval_motion, sep, rng.uniform(0.0, 2.0, 256)),
        ("probe.airy.airy_ai", airy_ai, None, rng.uniform(c1, 0.0, 512)),
        ("probe.transforms.drift_integral", drift_integral, sep, rng.uniform(0.0, 2.0, 32)),
    ]
    for name, fn, motion, points in batches:
        args = [(float(p),) if motion is None else (motion, float(p)) for p in points]
        ctx.call(name, lambda: [fn(*a) for a in args])
        ctx.count(name + ".calls", len(args))
    horizon_motions = [CriticalMotion(PH, alpha=float(a)) for a in rng.uniform(0.5, 2.5, 8)]
    ctx.call("probe.motion.validity_horizon",
             lambda: [validity_horizon(m) for m in horizon_motions])
    ctx.count("probe.motion.validity_horizon.calls", len(horizon_motions))

    # numeric at the workloads' node counts: 513 for w and radial, 257 for u
    outputs = critical_outputs(0.02, 8.0, 13)
    sol = ctx.call("numeric.solve_w", solve_w, crit, sine(crit.L0), grid_size=CRIT_GRID,
                   dt=0.02, T=8.0, output_times=outputs)
    _solve_counts(ctx, "w", CRIT_GRID, 0.02, 8.0)
    ball = CriticalMotion(PH, alpha=BALL_ALPHA)
    R0 = 0.5 * ball.L0
    ctx.call("numeric.solve_radial", solve_radial, ball,
             lambda r: np.cos(0.5 * np.pi * r / R0), 3, grid_size=CRIT_GRID, dt=0.02,
             T=4.0, output_times=[4.0])
    _solve_counts(ctx, "radial", CRIT_GRID, 0.02, 4.0)
    ctx.call("numeric.solve_u", solve_u, sep, sine(sep.L0), grid_size=COMPARE_GRID,
             dt=1e-3, T=0.4, output_times=[0.4])
    _solve_counts(ctx, "u", COMPARE_GRID, 1e-3, 0.4)

    pair = ctx.call("critical.verify_envelope", verify_envelope, crit, sol,
                    slack_tol=SLACK_TOL)
    ctx.count("critical.envelope_points", pair.lower.size)
    ctx.call("critical.fit_exponent", fit_exponent, crit, t_final=8.0, probes=(0.5,),
             solution=sol)
    ctx.write("envelope_to_csv", "_envelope.csv", partial(envelope_to_csv, pair))
    wob = wobble_motion()
    w0 = lambda xi: np.sin(0.5 * np.pi * np.asarray(xi))
    lo, _ = ctx.call("critical.envelope_bounds_general", envelope_bounds_general, wob, w0,
                     -6.5255, 0.3, -0.3, 3.4127, 2.0, grid_size=128, num_modes=8,
                     n_check=100)
    ctx.call("critical.eval_bound", eval_bound, lo, np.linspace(0.0, 2.0, 33), 1.0)

    ctx.call("eigen.solve_sl", solve_sl, PH.D, math.pi, 0.0, 0.0, grid_size=SERIES_GRID,
             num_modes=8, extrapolate=True)
    ctx.count("eigen.calls", 1)
    series = ctx.call("exact.build_series", build_series, sep, sine(sep.L0),
                      grid_size=SERIES_GRID, num_modes=SERIES_MODES)
    for t in rng.uniform(0.05, 2.0, 16):
        xi = rng.uniform(0.0, sep.L0, SERIES_XI)
        ctx.call("exact.eval_series:fast", eval_series, series, xi, float(t), route="fast")
        ctx.call("exact.eval_series:generic", eval_series, series, xi, float(t),
                 route="generic")
    ctx.count("exact.eval_calls", 32)
    ctx.write_json(".json", series_manifest(series))
