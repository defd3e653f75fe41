"""One benchmark process: import growthdiff, then run one workload's jobs.

Started by run.py in a fresh interpreter with BLAS threads pinned to 1.  The
first stdout line is printed as soon as the imports finish, so the parent
can time set-up from outside; ``--setup-only`` then prints the machine-speed
calibration and stops.  Otherwise the worker runs the workload's job list
back to back (one pass) until ``--seconds`` have passed and at least
MIN_PASSES passes were made, and prints one JSON line with the
measurements.  With ``--trace 1`` passes alternate between untraced and
traced; every traced pass also runs the layer probes.
"""

import json
import os
import sys
import time

_t0 = time.perf_counter()
import numpy  # noqa: E402
import scipy  # noqa: E402
_t1 = time.perf_counter()
import growthdiff  # noqa: E402
import growthdiff.cli  # noqa: E402,F401
_t2 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402

from scipy.linalg import solve_banded  # noqa: E402

MIN_PASSES = 3          # per-job medians of three; the byte-identical gate needs two
MIN_TRACE_PASSES = 2    # of each kind when traced and untraced passes alternate

# Machine speed on a shared host drifts by tens of percent over seconds to
# minutes and slows every job alike.  While a job runs, a timer signal times
# a fixed kernel shaped like one march step (vector updates and a
# tridiagonal solve on 513 nodes, numpy and scipy only) every
# SAMPLE_INTERVAL_S; the job's wall time is scaled to a machine on which
# that kernel takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 5e-4
SAMPLE_INTERVAL_S = 0.02
_CAL_AB = numpy.ones((3, 513))
_CAL_AB[1] = 4.0
_CAL_B = numpy.linspace(0.0, 1.0, 513)


def calibrate():
    """Seconds the fixed calibration kernel takes right now."""
    start = time.perf_counter()
    for _ in range(10):
        x = 0.5 * _CAL_B + _CAL_B
        x[1:] += _CAL_B[:-1]
        solve_banded((1, 1), _CAL_AB, x)
    return time.perf_counter() - start


class SpeedSampler:
    """Kernel timings taken from a timer signal while the block runs."""

    def __enter__(self):
        self.samples = [calibrate()]
        signal.signal(signal.SIGALRM, lambda signum, frame: self.samples.append(calibrate()))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def scale(self):
        """Factor from this block's wall time to reference-speed seconds."""
        return CALIBRATION_REF_S / statistics.fmean(self.samples)


def _run_job(tracer, workdir, name, fn, digests):
    from workloads import JobContext

    tracer.job = name
    ctx = JobContext(tracer, workdir, name)
    error = None
    start = time.perf_counter()
    with tracer.span("job"):
        try:
            fn(ctx)
        except Exception as exc:   # a failing job is counted, never dropped
            error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    outcome = ctx.outcome
    if error is None:
        digest = hashlib.sha256()
        for path in outcome.artifacts:
            with open(path, "rb") as fh:
                digest.update(fh.read())
        if name in digests:
            outcome.gates["byte_identical"] = digests[name] == digest.hexdigest()
        else:
            digests[name] = digest.hexdigest()
    ok = error is None and all(outcome.gates.values())
    return {"job": name, "ok": ok, "wall_s": wall, "error": error,
            "error_ratio": outcome.error_ratio,
            "failed_gates": sorted(g for g, v in outcome.gates.items() if not v)}


def _pass_time(records, traced):
    """Sum over jobs of each job's median reference-speed time across passes."""
    times = defaultdict(list)
    for r in records:
        if r["traced"] == traced and "ref_s" in r:
            times[r["job"]].append(r["ref_s"])
    return sum(statistics.median(v) for v in times.values())


def _layer_metrics(tracer, records):
    from tracing import self_times

    n = len({r["pass_index"] for r in records if r["traced"]})
    spans = tracer.spans
    by_name = defaultdict(float)
    calls = Counter()
    for span, own in zip(spans, self_times(spans)):
        by_name[span[0]] += own
        calls[span[0]] += 1
    counters = tracer.counters

    def total(*prefixes):
        return sum(v for k, v in by_name.items() if k.startswith(prefixes)) / n

    def per_step(kind):
        return 1e6 * by_name["numeric.solve_" + kind] / counters["numeric.steps." + kind]

    def per_probe_call(name):
        return 1e6 * by_name["probe." + name] / counters["probe." + name + ".calls"]

    def per_span(name):
        return 1e6 * by_name[name] / calls[name]

    return {
        "numeric.solve_s": (total("numeric.solve_"), "s"),
        "numeric.steps": (counters["numeric.steps"] / n, "count"),
        "numeric.cell_steps": (counters["numeric.cell_steps"] / n, "count"),
        "numeric.step_us.w": (per_step("w"), "us"),
        "numeric.step_us.radial": (per_step("radial"), "us"),
        "numeric.step_us.u": (per_step("u"), "us"),
        "numeric.negative_nodes": (counters["numeric.negative_nodes"] / n, "count"),
        "motion.eval_critical_us": (per_probe_call("motion.eval_critical"), "us"),
        "motion.eval_separable_us": (per_probe_call("motion.eval_separable"), "us"),
        "motion.horizon_us": (per_probe_call("motion.validity_horizon"), "us"),
        "motion.integration_warnings": (counters["warning.IntegrationWarning"] / n, "count"),
        "airy.ai_us": (per_probe_call("airy.airy_ai"), "us"),
        "critical.envelope_s": (total("critical.verify_envelope"), "s"),
        "critical.envelope_points": (counters["critical.envelope_points"] / n, "count"),
        "critical.fit_s": (total("critical.fit_exponent"), "s"),
        "critical.bounds_s": (total("critical.envelope_bounds_general", "critical.eval_bound",
                                    "critical.verify_nested"), "s"),
        "eigen.solve_s": (total("eigen."), "s"),
        "eigen.calls": (counters["eigen.calls"] / n, "count"),
        "exact.build_s": (total("exact.build_"), "s"),
        "exact.eval_fast_us": (per_span("exact.eval_series:fast"), "us"),
        "exact.eval_generic_us": (per_span("exact.eval_series:generic"), "us"),
        "exact.eval_calls": (counters["exact.eval_calls"] / n, "count"),
        "exact.truncation_warnings": (counters["warning.TruncationWarning"] / n, "count"),
        "transforms.drift_us": (per_probe_call("transforms.drift_integral"), "us"),
        "output.write_s": (total("output."), "s"),
        "output.bytes": (counters["output.bytes"] / n, "count"),
        "trace.spans": (len(spans) / n, "count"),
        "trace.overhead_frac": (_pass_time(records, True) / _pass_time(records, False) - 1.0,
                                "fraction"),
    }


def _environment():
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "growthdiff": growthdiff.__version__,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)
    print(json.dumps({"import.deps_s": _t1 - _t0, "import.growthdiff_s": _t2 - _t1}),
          flush=True)
    if args.setup_only:
        calibration = statistics.fmean(calibrate() for _ in range(20))
        print(json.dumps({"calibration_s": calibration,
                          "scale": CALIBRATION_REF_S / calibration}))
        return 0

    from tracing import Tracer
    import workloads

    jobs = workloads.WORKLOADS[args.workload](numpy.random.default_rng(args.seed))
    tracer = Tracer()
    digests = {}
    passes, records = [], []
    calibrate()   # the first solve_banded call pays one-off set-up
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer.spans_on = traced
        tracer.pass_index = len(passes)
        t_pass = time.perf_counter()
        results = []
        for name, fn in jobs:
            with SpeedSampler() as speed:
                result = _run_job(tracer, args.workdir, name, fn, digests)
            result["ref_s"] = result["wall_s"] * speed.scale()
            results.append(result)
        wall = time.perf_counter() - t_pass
        if traced:
            probe_rng = numpy.random.default_rng([args.seed, 1])
            results.append(_run_job(tracer, args.workdir, "probe",
                                    lambda ctx: workloads.probe_job(ctx, probe_rng), {}))
        passes.append({"traced": traced, "wall_s": wall})
        records.extend(dict(r, pass_index=tracer.pass_index, traced=traced) for r in results)
        n_traced = sum(p["traced"] for p in passes)
        if args.trace:
            enough = min(n_traced, len(passes) - n_traced) >= MIN_TRACE_PASSES
        else:
            enough = len(passes) >= MIN_PASSES
        if enough and time.perf_counter() - start >= args.seconds:
            break
    tracer.spans_on = False

    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    ratios = [r["error_ratio"] for r in records if r["error_ratio"] is not None]
    metrics = {
        "wall_s": (_pass_time(records, False), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        # No ratio means every job failed; report a value no change can beat.
        "max_err_ratio": (max(ratios) if ratios else 1e12, "ratio"),
        # One pseudo-job and one pseudo-failure per pass keep the share above
        # zero; with no failures it reads 1 / (jobs per pass + 1).
        "fail_frac": ((failed + len(passes)) / (attempted + len(passes)), "fraction"),
    }
    if args.trace:
        metrics.update(_layer_metrics(tracer, records))
        with open(args.spans_out, "w") as fh:
            for name, s, e, parent, job, index in tracer.spans:
                fh.write(json.dumps({"name": name, "start": s, "end": e, "parent": parent,
                                     "job": job, "pass": index}) + "\n")
    events = Counter((e["job"], e["call"], e["kind"], e["category"]) for e in tracer.events)
    first_message = {}
    for e in tracer.events:
        first_message.setdefault((e["job"], e["call"], e["kind"], e["category"]), e["message"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": {"wall_s": sum(not p["traced"] for p in passes)},
        "passes": passes,
        "jobs": records,
        "events": [{"job": k[0], "call": k[1], "kind": k[2], "category": k[3],
                    "count": c, "message": first_message[k]} for k, c in events.items()],
        "environment": _environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
