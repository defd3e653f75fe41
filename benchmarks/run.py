"""growthdiff benchmark: one workload, one seed, one JSON result line.

    python3 benchmarks/run.py --workload critical-march --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout; growthdiff is imported from
``src/``, nothing is installed.  Set-up (``setup_s``) is timed from outside
as the time a fresh interpreter needs to import numpy, scipy and growthdiff,
over several fresh processes.  The workload then runs in one more fresh,
single-threaded process (see worker.py).  The last stdout line is the
result; a run record with versions, passes, failed jobs and captured
warnings goes to ``.bench_out/``, and with ``--trace 1`` the spans too.
See README.md beside this file for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("critical-march", "series-eval", "compare-u")
SETUP_SAMPLES = 5      # fresh interpreters timed for setup_s
DEADLINE_S = 170.0     # the whole run must end within 180 s
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env():
    env = dict(os.environ, **{name: "1" for name in THREAD_PINS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _start(args, env, procs):
    """Start a worker; return it with its set-up time and import split."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    procs.append(proc)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if not line:
        raise RuntimeError("worker exited before its imports finished")
    return proc, ready, json.loads(line)


def _source_identity():
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "growthdiff" / "__init__.py").is_file():
        print(f"no growthdiff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = _child_env()
    began = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=tag + "-", dir=OUT)
    spans_path = OUT / f"spans-{tag}.jsonl"
    procs = []
    try:
        setups = []
        for _ in range(SETUP_SAMPLES):
            child, ready, split = _start(["--setup-only"], env, procs)
            out, _ = child.communicate(timeout=60)
            setups.append(dict(split, ready_s=ready, **json.loads(out)))
        proc, _, _ = _start(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir, "--spans-out", str(spans_path)], env, procs)
        out, _ = proc.communicate(timeout=max(1.0, DEADLINE_S - (time.perf_counter() - began)))
        if proc.returncode != 0:
            print(f"worker failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(out.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, RuntimeError, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        for child in procs:
            if child.poll() is None:
                child.kill()
            child.wait()
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result["metrics"]
    samples = dict(result.pop("samples"), setup_s=len(setups))
    if args.trace:
        for key in ("import.deps_s", "import.growthdiff_s"):
            metrics[key] = {"value": statistics.median(s[key] for s in setups), "unit": "s"}
        keep = lambda name: name not in ("wall_s", "peak_rss_mb", "max_err_ratio", "fail_frac")
    else:
        # Scaled to the reference machine speed, as wall_s is (see worker.py).
        metrics["setup_s"] = {"value": statistics.median(s["ready_s"] * s["scale"] for s in setups),
                              "unit": "s"}
        keep = lambda name: name in ("setup_s", "wall_s", "peak_rss_mb", "max_err_ratio",
                                     "fail_frac")
    shown = {k: v for k, v in sorted(metrics.items()) if keep(k)}

    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples=setups, all_metrics=metrics,
                  source=_source_identity())
    record["environment"]["nproc_affinity"] = len(os.sched_getaffinity(0))
    with open(OUT / f"run-{tag}.json", "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    for name, m in shown.items():
        n = samples.get(name)
        print(f"{name:30s} {m['value']:.6g} {m['unit']}" + (f"  ({n} samples)" if n else ""))
    failed_jobs = [j for j in result["jobs"] if not j["ok"]]
    for job in failed_jobs:
        print(f"FAILED {job['job']} pass {job['pass_index']}: "
              f"{job['error'] or 'gates ' + ', '.join(job['failed_gates'])}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
