"""Command line front end.

One binary with five subcommands:

  eigen      quadratic-potential modes on an interval (or a ball with --n-dim)
  exact      eigenfunction-series solution of a separable run, written as CSV
  numeric    Crank-Nicolson finite-difference run in u, w or radial form
  compare    series vs. finite differences on one configuration, with a
             per-time relative sup-norm table
  critical   ``critical.run_critical``, the one critical pipeline: exponent
             fit and barrier envelope for a front at the critical speed

Each subcommand declares its options once, in ``_COMMANDS``: config key,
kind, default and help.  The parser is built from that table, and the flag
is the key with "-" for "_" (--t-final for ``t_final``; a switch is
--no-<key>).  Values come from flags, or from a JSON file via --config whose
keys are the options' keys; flags take precedence and other keys are
rejected.  A flag's string and a config value go through the same converter
of the option's kind: a number is a JSON number or a numeric string, an
integer one with no fractional part, a number list a comma-separated string
or a JSON array, a switch a JSON boolean.  Any other value, null included,
is ``config error: <key> must be ...`` by either route.  Exit codes: 0
success, 2 a bad argument (``ParameterError``, raised here or, before any
computation, by the library), 3 a failure found while computing, 4 a
tolerance breach.
``growthdiff.output`` writes every artifact at 17 significant digits, so
reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from .critical import envelope_to_csv, run_critical
from .eigen import eigen_header, eigen_to_csv, solve_radial as radial_modes, solve_sl
from .exact import build_series, compare_to_series, series_manifest, series_to_csv
from .motion import (CriticalMotion, EtaSpec, ParameterError, PhysicsParams,
                     SeparableMotion, motion_to_document)
from .numeric import grid_manifest, grid_to_csv, solve_radial, solve_u, solve_w
from .output import write_csv, write_json

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_TOLERANCE = 4


def _g(x) -> str:
    return format(float(x), ".17g")


# -- option kinds: one converter for a flag's string and a config value ------

class Kind(NamedTuple):
    name: str               # what a valid value is, for the error message
    convert: Callable       # raises ValueError or TypeError on a bad value
    metavar: str | None = None


def _float(value) -> float:
    # NaN is refused: it compares False with everything, so it turns gates off.
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(value)
    number = float(value)
    if math.isnan(number):
        raise ValueError(value)
    return number


def _integer(value) -> int:
    number = _float(value)
    if not number.is_integer():
        raise ValueError(value)
    return int(number)


def _floats(value) -> tuple:
    parts = [p for p in value.split(",") if p.strip()] if isinstance(value, str) else value
    if not isinstance(parts, list) or not parts:
        raise TypeError(value)
    return tuple(_float(p) for p in parts)


def _instance(cls):
    def convert(value):
        if not isinstance(value, cls):
            raise TypeError(value)
        return value
    return convert


def _choice(*choices) -> Kind:
    def convert(value):
        if value not in choices:
            raise ValueError(value)
        return value
    return Kind(f"one of {', '.join(choices)}", convert, "{" + ",".join(choices) + "}")


NUMBER = Kind("a number", _float)
INTEGER = Kind("an integer", _integer)
NUMBERS = Kind("one or more numbers, comma-separated or a JSON array", _floats)
TEXT = Kind("a string", _instance(str))
SWITCH = Kind("true or false", _instance(bool))    # the flag is --no-<key>


class Option(NamedTuple):
    key: str                # the config key; the flag is --key with "-" for "_"
    kind: Kind
    default: object = None  # None: unset, for a required or optional value
    help: str | None = None


def _shown(value) -> str:
    # A flag's string and the same config value read alike in a message.
    return value if isinstance(value, str) else json.dumps(value)


def _merged(args) -> argparse.Namespace:
    """Each option's value, converted by its kind: the flag's, else the JSON
    config file's, else the default."""
    given = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                given = json.load(fh)
        except OSError as exc:
            raise ParameterError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config file is not valid JSON: {exc}")
        if not isinstance(given, dict):
            raise ParameterError("config file must hold a JSON object")
        unknown = sorted(set(given) - {o.key for o in args.options})
        if unknown:
            raise ParameterError(f"unknown config keys: {', '.join(unknown)}")
    given.update((o.key, getattr(args, o.key)) for o in args.options
                 if getattr(args, o.key) is not None)
    cfg = argparse.Namespace()
    for o in args.options:
        try:
            value = o.kind.convert(given[o.key]) if o.key in given else o.default
        except (TypeError, ValueError, OverflowError):
            raise ParameterError(
                f"{o.key} must be {o.kind.name}, got {_shown(given[o.key])}") from None
        setattr(cfg, o.key, value)
    return cfg


def _require(cfg, *names):
    for name in names:
        if getattr(cfg, name) is None:
            raise ParameterError(f"missing required field: {name}")


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
    _require(cfg, *_FAMILY_REQUIRES[cfg.family])
    physics = PhysicsParams(D=cfg.D, f0=cfg.f0)
    tilt = (cfg.gamma1, cfg.c, cfg.d)
    if cfg.family == "fixed":
        return SeparableMotion.fixed_length(physics, cfg.L0, *tilt)
    if cfg.family == "linear":
        return SeparableMotion.linear_length(physics, cfg.L0, cfg.slope, *tilt)
    if cfg.family == "sqrt":
        return SeparableMotion.sqrt_length(physics, cfg.L0, cfg.rho, *tilt)
    if cfg.family == "quad":
        return SeparableMotion(physics, cfg.a, cfg.b, cfg.L0, *tilt)
    return SeparableMotion.symmetric(physics, cfg.L0, cfg.a, cfg.b)


def _initial_condition(name, motion, radial=False):
    """The named initial data: sine by default on the interval, dome on the ball."""
    L0 = motion.L0
    if radial:
        R0 = 0.5 * L0
        if name in (None, "dome"):
            return lambda r: np.cos(0.5 * np.pi * np.asarray(r) / R0)
        if name == "parabola":
            return lambda r: 1.0 - (np.asarray(r) / R0) ** 2
        raise ParameterError(f"unknown radial initial condition {name!r}; "
                             "expected dome or parabola")
    if name in (None, "sine"):
        return lambda xi: np.sin(np.pi * np.asarray(xi) / L0)
    if name == "parabola":
        return lambda xi: np.asarray(xi) * (L0 - np.asarray(xi))
    raise ParameterError(f"unknown initial condition {name!r}; "
                         "expected sine or parabola")


def _output_times(cfg):
    if cfg.times is None:
        return [0.25 * k * cfg.t_final for k in range(5)]
    times = sorted(cfg.times)
    if times[0] < 0.0:
        raise ParameterError("times must be nonnegative")
    return times


# -- subcommand bodies -------------------------------------------------------

def cmd_eigen(cfg) -> int:
    _require(cfg, "D", "L0", "gamma0", "gamma1")
    if cfg.n_dim != 0 and cfg.gamma1 != 0.0:
        raise ParameterError("gamma1 does not apply to radial modes; set it to 0")

    if cfg.n_dim == 0:
        eig = solve_sl(cfg.D, cfg.L0, cfg.gamma0, cfg.gamma1, grid_size=cfg.grid,
                       num_modes=cfg.modes, extrapolate=cfg.extrapolate)
    else:
        eig = radial_modes(cfg.D, 0.5 * cfg.L0, cfg.gamma0, cfg.n_dim, grid_size=cfg.grid,
                           num_modes=cfg.modes, extrapolate=cfg.extrapolate)
    eigen_to_csv(eig, cfg.out + ".csv")
    write_json(cfg.out + ".json", eigen_header(eig))
    print(f"wrote {cfg.out}.csv and {cfg.out}.json; "
          f"sigma_1 = {_g(eig.sigmas[0])}")
    return EXIT_OK


def cmd_exact(cfg) -> int:
    motion = _build_motion(cfg)
    u0 = _initial_condition(cfg.ic, motion)
    times = _output_times(cfg)
    if cfg.xi_samples < 2:
        raise ParameterError(f"xi_samples must be at least 2, got {cfg.xi_samples}")

    sol = build_series(motion, u0, grid_size=cfg.grid, num_modes=cfg.modes)
    xi = np.linspace(0.0, motion.L0, cfg.xi_samples)
    series_to_csv(sol, cfg.out + ".csv", xi, times, route=cfg.route)
    manifest = series_manifest(sol)
    manifest["times"] = list(times)
    manifest["xi_samples"] = cfg.xi_samples
    manifest["route"] = cfg.route
    write_json(cfg.out + ".json", manifest)
    print(f"wrote {cfg.out}.csv and {cfg.out}.json; {len(times)} output times")
    return EXIT_OK


def cmd_numeric(cfg) -> int:
    motion = _build_motion(cfg)
    times = _output_times(cfg)
    run = dict(grid_size=cfg.grid, dt=cfg.dt, T=cfg.t_final, output_times=times)

    if cfg.form == "radial":
        W0 = _initial_condition(cfg.ic, motion, radial=True)
        sol = solve_radial(motion, W0, cfg.n_dim, **run)
    else:
        ic = _initial_condition(cfg.ic, motion)
        sol = (solve_u if cfg.form == "u" else solve_w)(motion, ic, **run)
    grid_to_csv(sol, cfg.out + ".csv")
    manifest = grid_manifest(sol)
    manifest["motion"] = motion_to_document(motion)
    write_json(cfg.out + ".json", manifest)
    print(f"wrote {cfg.out}.csv and {cfg.out}.json; {sol.times.size} output times")
    return EXIT_OK


def cmd_compare(cfg) -> int:
    motion = _build_motion(cfg)
    u0 = _initial_condition(cfg.ic, motion)
    times = [t for t in _output_times(cfg) if t > 0.0]
    if not times:
        raise ParameterError("compare needs at least one positive output time")

    sol = build_series(motion, u0, grid_size=cfg.series_grid, num_modes=cfg.modes)
    run = solve_u(motion, u0, grid_size=cfg.grid, dt=cfg.dt, T=max(times),
                  output_times=times)

    rows = compare_to_series(sol, run)
    worst_t, _, worst_rel, worst_xi = rows[np.argmax(rows[:, 2])].tolist()
    write_csv(cfg.out + ".csv", ["t", "abs_linf", "rel_linf", "worst_xi"], [rows])
    write_json(cfg.out + ".json", {
        **grid_manifest(run),
        "motion": motion_to_document(motion),
        "series_grid": cfg.series_grid,
        "num_modes": cfg.modes,
        "tol": cfg.tol,
        "worst_rel_linf": worst_rel,
        "worst_xi": worst_xi,
        "worst_t": worst_t,
    })
    for t, abs_err, rel, xi in rows:
        print(f"t={_g(t)}  abs_linf={_g(abs_err)}  rel_linf={_g(rel)}")
    if worst_rel > cfg.tol:
        print(f"tolerance breach: rel_linf {_g(worst_rel)} > {_g(cfg.tol)} "
              f"at xi={_g(worst_xi)}, t={_g(worst_t)}", file=sys.stderr)
        return EXIT_TOLERANCE
    print(f"max rel_linf {_g(worst_rel)} within tol {_g(cfg.tol)}")
    return EXIT_OK


def cmd_critical(cfg) -> int:
    _require(cfg, "D", "f0", "alpha")
    motion = CriticalMotion(PhysicsParams(D=cfg.D, f0=cfg.f0), alpha=cfg.alpha,
                            L0_offset=cfg.L0_offset, eta=EtaSpec(k=cfg.eta_k, p=cfg.eta_p))
    _, envelope, report, document = run_critical(
        motion, cfg.n_dim, cfg.probes, cfg.t_final, cfg.window, cfg.grid, cfg.dt,
        cfg.num_outputs, cfg.slack_tol, cfg.tol)
    envelope_to_csv(envelope, cfg.out + "_envelope.csv")
    write_json(cfg.out + "_report.json", document)
    print(f"wrote {cfg.out}_report.json and {cfg.out}_envelope.csv")
    print(f"fitted exponent {_g(report.fitted_exponent)}, "
          f"predicted {_g(report.predicted_exponent)}")
    print(f"error: least-squares {_g(report.error)}, "
          f"relaxation-corrected {_g(report.limit_error)}")
    if abs(report.limit_error) > cfg.tol:
        print(f"fit breach: |corrected - predicted| = {_g(abs(report.limit_error))} "
              f"> tol {_g(cfg.tol)}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


# -- the options of each subcommand, declared once ---------------------------

_MOTION = (
    Option("family", _choice(*sorted(_FAMILY_REQUIRES)), help="length law family"),
    Option("D", NUMBER, help="diffusivity"),
    Option("f0", NUMBER, help="linear growth rate"),
    Option("L0", NUMBER, help="initial length"),
    Option("slope", NUMBER, help="dL/dt for the linear family"),
    Option("rho", NUMBER, help="L^2 growth rate for the sqrt family"),
    Option("a", NUMBER, help="t^2 coefficient of L^2"),
    Option("b", NUMBER, help="t coefficient of L^2 / 2"),
    Option("gamma1", NUMBER, 0.0, "endpoint acceleration scale"),
    Option("c", NUMBER, 0.0, "endpoint velocity constant"),
    Option("d", NUMBER, 0.0, "endpoint offset constant"),
)
_TIMES = (
    Option("times", NUMBERS, help="comma-separated output times "
           "(default: five, evenly spaced from 0 to t_final)"),
    Option("t_final", NUMBER, 1.0),
)
_IC = Option("ic", TEXT, help="initial data: sine or parabola (default sine)")

_COMMANDS = {
    "eigen": (cmd_eigen, "interval or radial mode solve", (
        Option("D", NUMBER),
        Option("L0", NUMBER),
        Option("gamma0", NUMBER),
        Option("gamma1", NUMBER),
        Option("modes", INTEGER, 8),
        Option("grid", INTEGER, 512),
        Option("n_dim", INTEGER, 0,
               "0 for the interval problem, 1..3 for a ball of diameter L0"),
        Option("extrapolate", SWITCH, True),
    )),
    "exact": (cmd_exact, "eigenfunction-series field", _MOTION + (
        _IC,
        Option("modes", INTEGER, 32),
        Option("grid", INTEGER, 512),
        *_TIMES,
        Option("xi_samples", INTEGER, 101),
        Option("route", _choice("fast", "generic"), "fast"),
    )),
    "numeric": (cmd_numeric, "finite-difference run", _MOTION + (
        Option("form", _choice("u", "w", "radial"), "u"),
        Option("n_dim", INTEGER, 3, "ball dimension of the radial form"),
        Option("ic", TEXT, help="initial data: sine or parabola (default sine), "
               "or dome or parabola for the radial form (default dome)"),
        Option("grid", INTEGER, 512),
        Option("dt", NUMBER, 1e-3),
        *_TIMES,
    )),
    "compare": (cmd_compare, "series vs. finite differences", _MOTION + (
        _IC,
        Option("modes", INTEGER, 32),
        Option("series_grid", INTEGER, 512),
        Option("grid", INTEGER, 512),
        Option("dt", NUMBER, 1e-3),
        *_TIMES,
        Option("tol", NUMBER, 1e-4),
    )),
    "critical": (cmd_critical, "critical-speed exponent fit and envelope", (
        Option("D", NUMBER),
        Option("f0", NUMBER),
        Option("alpha", NUMBER, help="logarithmic lag coefficient"),
        Option("L0_offset", NUMBER, 1.0),
        # EtaSpec stores k = 0 with p = -1.0; the -0.5 default applies only when k != 0.
        Option("eta_k", NUMBER, 0.0),
        Option("eta_p", NUMBER, -0.5),
        Option("n_dim", INTEGER, 1),
        Option("probes", NUMBERS, (0.5, 1.0, 2.0), "comma-separated boundary offsets"),
        Option("t_final", NUMBER, 1e3),
        Option("window", NUMBERS, help="fit window as lo,hi"),
        Option("grid", INTEGER, 1024),
        Option("dt", NUMBER, 2e-3),
        Option("num_outputs", INTEGER, 81),
        Option("tol", NUMBER, 0.05),
        Option("slack_tol", NUMBER, 1e-8),
    )),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growthdiff",
        description="Growth-diffusion solutions on moving intervals and balls.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, summary, options) in _COMMANDS.items():
        options = (Option("out", TEXT, name, "output path prefix"),) + options
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON file with option keys")
        for o in options:
            flag = o.key.replace("_", "-")
            if o.kind is SWITCH:
                p.add_argument("--no-" + flag, dest=o.key, action="store_false",
                               default=None, help=o.help)
            else:
                p.add_argument("--" + flag, dest=o.key, metavar=o.kind.metavar, help=o.help)
        p.set_defaults(handler=handler, options=options)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(_merged(args))
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # A ValueError here, DomainCollapsedError and LinAlgError among them,
    # was found while computing.
    except (ValueError, FloatingPointError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
