"""Command line front end.

One binary with five subcommands:

  eigen      quadratic-potential modes on an interval (or a ball with --n-dim)
  exact      eigenfunction-series solution of a separable run, written as CSV
  numeric    theta-scheme finite-difference run in u, w or radial form
  compare    series vs. finite differences on one configuration, with a
             per-time relative sup-norm table
  critical   decay-exponent fit and barrier-envelope check for a spreading
             front at the critical speed

Options come from flags, or from a JSON file via --config whose keys are the
flags' argparse names (``t_final`` for --t-final); flags take precedence and
other keys are rejected.  Exit codes: 0 success, 2 bad configuration, 3
numerical failure, 4 tolerance breach.  ``growthdiff.output`` writes every
artifact at 17 significant digits, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .critical import (EnvelopeViolationError, envelope_to_csv, fit_exponent,
                       fit_report_document, solve_critical, verify_envelope)
from .eigen import eigen_header, eigen_to_csv, solve_radial as radial_modes, solve_sl
from .exact import build_series, eval_series, series_manifest, series_to_csv
from .motion import (CriticalMotion, DomainCollapsedError, EtaSpec,
                     PhysicsParams, SeparableMotion, motion_content_hash,
                     motion_to_document)
from .numeric import grid_manifest, grid_to_csv, solve_radial, solve_u, solve_w
from .output import write_csv, write_json

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_TOLERANCE = 4


class ConfigError(ValueError):
    """Bad or missing configuration; maps to exit code 2."""


def _g(x) -> str:
    return format(float(x), ".17g")


def _float_list(value, name):
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
    elif isinstance(value, (list, tuple)):
        parts = value
    else:
        raise ConfigError(f"{name} must be a comma-separated list or array")
    try:
        out = [float(p) for p in parts]
    except (TypeError, ValueError):
        raise ConfigError(f"{name} contains a non-numeric entry: {value!r}")
    if not out:
        raise ConfigError(f"{name} must not be empty")
    return out


def _merged(args) -> dict:
    """Overlay: handler defaults < JSON config file < flags, keyed by dest."""
    keys = set(vars(args)) - {"command", "handler", "config"}
    cfg = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(data) - keys)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        cfg.update(data)
    for key in keys:
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
    return cfg


def _require(cfg, *names):
    for name in names:
        if cfg.get(name) is None:
            raise ConfigError(f"missing required field: {name}")


def _number(cfg, name, default=None):
    value = cfg.get(name, default)
    if value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}")


def _integer(cfg, name, default=None):
    value = cfg.get(name, default)
    if value is None:
        return None
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


# -- motion assembly shared by exact / numeric / compare --------------------

_FAMILY_REQUIRES = {
    "fixed": ("L0",),
    "linear": ("L0", "slope"),
    "sqrt": ("L0", "rho"),
    "quad": ("L0", "a", "b"),
    "symmetric": ("L0", "a", "b"),
}


def _build_motion(cfg) -> SeparableMotion:
    _require(cfg, "family", "D", "f0")
    family = cfg["family"]
    if family not in _FAMILY_REQUIRES:
        raise ConfigError(
            f"unknown family {family!r}; expected one of "
            f"{', '.join(sorted(_FAMILY_REQUIRES))}")
    _require(cfg, *_FAMILY_REQUIRES[family])
    try:
        physics = PhysicsParams(D=_number(cfg, "D"), f0=_number(cfg, "f0"))
    except ValueError as exc:
        raise ConfigError(str(exc))
    L0 = _number(cfg, "L0")
    gamma1 = _number(cfg, "gamma1", 0.0)
    c = _number(cfg, "c", 0.0)
    d = _number(cfg, "d", 0.0)
    try:
        if family == "fixed":
            return SeparableMotion.fixed_length(physics, L0, gamma1, c, d)
        if family == "linear":
            return SeparableMotion.linear_length(
                physics, L0, _number(cfg, "slope"), gamma1, c, d)
        if family == "sqrt":
            return SeparableMotion.sqrt_length(
                physics, L0, _number(cfg, "rho"), gamma1, c, d)
        if family == "quad":
            return SeparableMotion(physics, _number(cfg, "a"),
                                   _number(cfg, "b"), L0, gamma1, c, d)
        return SeparableMotion.symmetric(physics, L0, _number(cfg, "a"),
                                         _number(cfg, "b"))
    except ValueError as exc:
        raise ConfigError(str(exc))


def _initial_condition(name, motion, radial=False):
    L0 = motion.L0
    if radial:
        R0 = 0.5 * L0
        if name == "dome":
            return lambda r: np.cos(0.5 * np.pi * np.asarray(r) / R0)
        if name == "parabola":
            return lambda r: 1.0 - (np.asarray(r) / R0) ** 2
        raise ConfigError(f"unknown radial initial condition {name!r}; "
                          "expected dome or parabola")
    if name == "sine":
        return lambda xi: np.sin(np.pi * np.asarray(xi) / L0)
    if name == "parabola":
        return lambda xi: np.asarray(xi) * (L0 - np.asarray(xi))
    raise ConfigError(f"unknown initial condition {name!r}; "
                      "expected sine or parabola")


def _output_times(cfg, t_final):
    if cfg.get("times") is not None:
        times = sorted(_float_list(cfg["times"], "times"))
        if times[0] < 0.0:
            raise ConfigError("times must be nonnegative")
        return times
    return [0.25 * k * t_final for k in range(5)]


# -- subcommand bodies -------------------------------------------------------

def cmd_eigen(args) -> int:
    cfg = _merged(args)
    _require(cfg, "D", "L0", "gamma0", "gamma1")
    D = _number(cfg, "D")
    L0 = _number(cfg, "L0")
    gamma0 = _number(cfg, "gamma0")
    gamma1 = _number(cfg, "gamma1")
    modes = _integer(cfg, "modes", 8)
    grid = _integer(cfg, "grid", 512)
    n_dim = _integer(cfg, "n_dim", 0)
    extrapolate = bool(cfg.get("extrapolate", True))
    out = cfg.get("out", "eigen")

    if n_dim not in (0, 1, 2, 3):
        raise ConfigError(f"n_dim must be 0 (interval) or 1..3, got {n_dim}")
    if n_dim > 0 and gamma1 != 0.0:
        raise ConfigError("gamma1 does not apply to radial modes; set it to 0")

    if n_dim == 0:
        eig = solve_sl(D, L0, gamma0, gamma1, grid_size=grid, num_modes=modes,
                       extrapolate=extrapolate)
    else:
        eig = radial_modes(D, 0.5 * L0, gamma0, n_dim, grid_size=grid,
                           num_modes=modes, extrapolate=extrapolate)
    eigen_to_csv(eig, out + ".csv")
    write_json(out + ".json", eigen_header(eig))
    print(f"wrote {out}.csv and {out}.json; "
          f"sigma_1 = {_g(eig.sigmas[0])}")
    return EXIT_OK


def cmd_exact(args) -> int:
    cfg = _merged(args)
    motion = _build_motion(cfg)
    u0 = _initial_condition(cfg.get("ic", "sine"), motion)
    modes = _integer(cfg, "modes", 32)
    grid = _integer(cfg, "grid", 512)
    samples = _integer(cfg, "xi_samples", 101)
    route = cfg.get("route", "fast")
    if route not in ("fast", "generic"):
        raise ConfigError(f"route must be fast or generic, got {route!r}")
    t_final = _number(cfg, "t_final", 1.0)
    times = _output_times(cfg, t_final)
    out = cfg.get("out", "exact")

    sol = build_series(motion, u0, grid_size=grid, num_modes=modes)
    xi = np.linspace(0.0, motion.L0, samples)
    series_to_csv(sol, out + ".csv", xi, times, route=route)
    manifest = series_manifest(sol)
    manifest["times"] = list(times)
    manifest["xi_samples"] = samples
    manifest["route"] = route
    write_json(out + ".json", manifest)
    print(f"wrote {out}.csv and {out}.json; {len(times)} output times")
    return EXIT_OK


def cmd_numeric(args) -> int:
    cfg = _merged(args)
    motion = _build_motion(cfg)
    form = cfg.get("form", "u")
    if form not in ("u", "w", "radial"):
        raise ConfigError(f"form must be u, w or radial, got {form!r}")
    grid = _integer(cfg, "grid", 512)
    dt = _number(cfg, "dt", 1e-3)
    theta = _number(cfg, "theta", 0.5)
    t_final = _number(cfg, "t_final", 1.0)
    times = _output_times(cfg, t_final)
    out = cfg.get("out", "numeric")

    if form == "radial":
        n_dim = _integer(cfg, "n_dim", 3)
        W0 = _initial_condition(cfg.get("ic", "dome"), motion, radial=True)
        sol = solve_radial(motion, W0, n_dim, grid_size=grid, dt=dt,
                           T=t_final, output_times=times, theta=theta)
    else:
        ic = _initial_condition(cfg.get("ic", "sine"), motion)
        solver = solve_u if form == "u" else solve_w
        sol = solver(motion, ic, grid_size=grid, dt=dt, T=t_final,
                     output_times=times, theta=theta)
    grid_to_csv(sol, out + ".csv")
    manifest = grid_manifest(sol)
    manifest["motion"] = motion_to_document(motion)
    write_json(out + ".json", manifest)
    print(f"wrote {out}.csv and {out}.json; {sol.times.size} output times")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = _merged(args)
    motion = _build_motion(cfg)
    u0 = _initial_condition(cfg.get("ic", "sine"), motion)
    modes = _integer(cfg, "modes", 32)
    series_grid = _integer(cfg, "series_grid", 512)
    grid = _integer(cfg, "grid", 512)
    dt = _number(cfg, "dt", 1e-3)
    theta = _number(cfg, "theta", 0.5)
    tol = _number(cfg, "tol", 1e-4)
    t_final = _number(cfg, "t_final", 1.0)
    times = [t for t in _output_times(cfg, t_final) if t > 0.0]
    if not times:
        raise ConfigError("compare needs at least one positive output time")
    out = cfg.get("out", "compare")

    sol = build_series(motion, u0, grid_size=series_grid, num_modes=modes)
    run = solve_u(motion, u0, grid_size=grid, dt=dt, T=max(times),
                  output_times=times, theta=theta)

    rows = []
    worst = (-math.inf, math.nan, math.nan)  # (relative error, xi, t)
    interior = slice(1, -1)
    for t in run.times:
        u_num = run.slice_at(float(t))[interior]
        u_ref = eval_series(sol, run.grid, float(t))[interior]
        diff = np.abs(u_num - u_ref)
        scale = float(np.max(np.abs(u_ref)))
        if scale == 0.0:
            raise ConfigError(f"reference field vanishes at t={t}; "
                              "relative comparison undefined")
        k = int(np.argmax(diff))
        rel = float(diff[k]) / scale
        rows.append((float(t), float(diff[k]), rel, float(run.grid[interior][k])))
        if rel > worst[0]:
            worst = (rel, float(run.grid[interior][k]), float(t))

    write_csv(out + ".csv", ["t", "abs_linf", "rel_linf", "worst_xi"], [rows])
    write_json(out + ".json", {
        "schema_version": 1,
        "motion": motion_to_document(motion),
        "motion_hash": motion_content_hash(motion),
        "grid_size": grid,
        "series_grid": series_grid,
        "num_modes": modes,
        "dt": run.dt,
        "theta": theta,
        "tol": tol,
        "worst_rel_linf": worst[0],
        "worst_xi": worst[1],
        "worst_t": worst[2],
    })
    for t, abs_err, rel, xi in rows:
        print(f"t={_g(t)}  abs_linf={_g(abs_err)}  rel_linf={_g(rel)}")
    if worst[0] > tol:
        print(f"tolerance breach: rel_linf {_g(worst[0])} > {_g(tol)} "
              f"at xi={_g(worst[1])}, t={_g(worst[2])}", file=sys.stderr)
        return EXIT_TOLERANCE
    print(f"max rel_linf {_g(worst[0])} within tol {_g(tol)}")
    return EXIT_OK


def cmd_critical(args) -> int:
    cfg = _merged(args)
    _require(cfg, "D", "f0", "alpha")
    try:
        physics = PhysicsParams(D=_number(cfg, "D"), f0=_number(cfg, "f0"))
        eta = EtaSpec(eta0=_number(cfg, "eta0", 0.0),
                      k=_number(cfg, "eta_k", 0.0),
                      p=_number(cfg, "eta_p", -0.5))
        motion = CriticalMotion(physics, alpha=_number(cfg, "alpha"),
                                L0_offset=_number(cfg, "L0_offset", 1.0),
                                eta=eta)
    except ValueError as exc:
        raise ConfigError(str(exc))
    n_dim = _integer(cfg, "n_dim", 1)
    if n_dim not in (1, 2, 3):
        raise ConfigError(f"n_dim must be 1, 2 or 3, got {n_dim}")
    probes = tuple(_float_list(cfg.get("probes", [0.5, 1.0, 2.0]), "probes"))
    t_final = _number(cfg, "t_final", 1e3)
    grid = _integer(cfg, "grid", 1024)
    dt = _number(cfg, "dt", 2e-3)
    num_outputs = _integer(cfg, "num_outputs", 81)
    theta = _number(cfg, "theta", 0.5)
    tol = _number(cfg, "tol", 0.05)
    slack_tol = _number(cfg, "slack_tol", 1e-8)
    window = None
    if cfg.get("window") is not None:
        bounds = _float_list(cfg["window"], "window")
        if len(bounds) != 2:
            raise ConfigError(f"window must be two numbers lo,hi, got {cfg['window']!r}")
        lo, hi = bounds
        if not (0.0 < lo < hi <= t_final):
            raise ConfigError(f"window ({lo}, {hi}) must sit inside (0, t_final]")
        if math.log10(hi / lo) < 1.5 - 1e-9:
            raise ConfigError("window must span at least 1.5 decades")
        window = (lo, hi)
    out = cfg.get("out", "critical")

    sol = solve_critical(motion, n_dim, t_final, grid, dt, num_outputs, theta)

    try:
        envelope = verify_envelope(motion, sol, slack_tol=slack_tol)
    except EnvelopeViolationError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NUMERIC

    envelope_to_csv(envelope, out + "_envelope.csv")

    report = fit_exponent(motion, n_dim=n_dim, probes=probes, t_final=t_final,
                          window=window, grid_size=grid, dt=dt,
                          num_outputs=num_outputs, theta=theta, solution=sol)
    document = fit_report_document(report)
    document["motion"] = motion_to_document(motion)
    document["motion_hash"] = motion_content_hash(motion)
    document["tol"] = tol
    document["envelope"] = {
        "C1": envelope.C1,
        "C2": envelope.C2,
        "t_cal": envelope.t_cal,
        "onset": envelope.onset,
        "worst_slack": envelope.worst_slack,
        "worst_time": envelope.worst_time,
        "worst_xi": envelope.worst_xi,
        "slack_tol": slack_tol,
    }
    write_json(out + "_report.json", document)
    print(f"wrote {out}_report.json and {out}_envelope.csv")
    print(f"fitted exponent {_g(report.fitted_exponent)}, "
          f"predicted {_g(report.predicted_exponent)}")
    print(f"error: least-squares {_g(report.error)}, "
          f"relaxation-corrected {_g(report.limit_error)}")
    if abs(report.limit_error) > tol:
        print(f"fit breach: |corrected - predicted| = {_g(abs(report.limit_error))} "
              f"> tol {_g(tol)}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


# -- argument parsing --------------------------------------------------------

def _add_motion_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=sorted(_FAMILY_REQUIRES),
                   help="length law family")
    p.add_argument("--D", type=float, help="diffusivity")
    p.add_argument("--f0", type=float, help="linear growth rate")
    p.add_argument("--L0", type=float, help="initial length")
    p.add_argument("--slope", type=float, help="dL/dt for the linear family")
    p.add_argument("--rho", type=float, help="L^2 growth rate for the sqrt family")
    p.add_argument("--a", type=float, help="t^2 coefficient of L^2")
    p.add_argument("--b", type=float, help="t coefficient of L^2 / 2")
    p.add_argument("--gamma1", type=float, help="endpoint acceleration scale")
    p.add_argument("--c", type=float, help="endpoint velocity constant")
    p.add_argument("--d", type=float, help="endpoint offset constant")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growthdiff",
        description="Growth-diffusion solutions on moving intervals and balls.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with option keys")
        p.add_argument("--out", help="output path prefix")

    p = sub.add_parser("eigen", help="interval or radial mode solve")
    common(p)
    p.add_argument("--D", type=float)
    p.add_argument("--L0", type=float)
    p.add_argument("--gamma0", type=float)
    p.add_argument("--gamma1", type=float)
    p.add_argument("--modes", type=int)
    p.add_argument("--grid", type=int)
    p.add_argument("--n-dim", dest="n_dim", type=int,
                   help="0 for the interval problem, 1..3 for a ball of diameter L0")
    p.add_argument("--no-extrapolate", dest="extrapolate",
                   action="store_false", default=None)
    p.set_defaults(handler=cmd_eigen)

    p = sub.add_parser("exact", help="eigenfunction-series field")
    common(p)
    _add_motion_flags(p)
    p.add_argument("--ic", choices=("sine", "parabola"))
    p.add_argument("--modes", type=int)
    p.add_argument("--grid", type=int)
    p.add_argument("--times", help="comma-separated output times")
    p.add_argument("--t-final", dest="t_final", type=float)
    p.add_argument("--xi-samples", dest="xi_samples", type=int)
    p.add_argument("--route", choices=("fast", "generic"))
    p.set_defaults(handler=cmd_exact)

    p = sub.add_parser("numeric", help="finite-difference run")
    common(p)
    _add_motion_flags(p)
    p.add_argument("--form", choices=("u", "w", "radial"))
    p.add_argument("--n-dim", dest="n_dim", type=int)
    p.add_argument("--ic", choices=("sine", "parabola", "dome"))
    p.add_argument("--grid", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--t-final", dest="t_final", type=float)
    p.add_argument("--times", help="comma-separated output times")
    p.add_argument("--theta", type=float, help="implicitness in [0.5, 1]")
    p.set_defaults(handler=cmd_numeric)

    p = sub.add_parser("compare", help="series vs. finite differences")
    common(p)
    _add_motion_flags(p)
    p.add_argument("--ic", choices=("sine", "parabola"))
    p.add_argument("--modes", type=int)
    p.add_argument("--series-grid", dest="series_grid", type=int)
    p.add_argument("--grid", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--t-final", dest="t_final", type=float)
    p.add_argument("--times", help="comma-separated output times")
    p.add_argument("--theta", type=float, help="implicitness in [0.5, 1]")
    p.add_argument("--tol", type=float)
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("critical", help="critical-speed exponent fit and envelope")
    common(p)
    p.add_argument("--D", type=float)
    p.add_argument("--f0", type=float)
    p.add_argument("--alpha", type=float, help="logarithmic lag coefficient")
    p.add_argument("--L0-offset", dest="L0_offset", type=float)
    p.add_argument("--eta0", type=float)
    p.add_argument("--eta-k", dest="eta_k", type=float)
    p.add_argument("--eta-p", dest="eta_p", type=float)
    p.add_argument("--n-dim", dest="n_dim", type=int)
    p.add_argument("--probes", help="comma-separated boundary offsets")
    p.add_argument("--t-final", dest="t_final", type=float)
    p.add_argument("--window", help="fit window as lo,hi")
    p.add_argument("--grid", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--num-outputs", dest="num_outputs", type=int)
    p.add_argument("--theta", type=float, help="implicitness in [0.5, 1]")
    p.add_argument("--tol", type=float)
    p.add_argument("--slack-tol", dest="slack_tol", type=float)
    p.set_defaults(handler=cmd_critical)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DomainCollapsedError, ValueError, FloatingPointError, RuntimeError,
            np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
