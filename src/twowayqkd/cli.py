"""Command-line front end.

Commands: keyrate | threshold | scan | oneway | appendix.  Exit codes:
0 on success with a positive rate, 2 when the queried rate is nonpositive
(insecure but valid), 1 on any error.
"""

import argparse
import json
import math
import sys

import numpy as np

from ._serialize import Table, csv_table, json_text
from .attacks import (ATTACK_CLASSES, AttackParams, _class_correlations, attack_from_class,
                      normalize_class)
from .errors import UnphysicalStateError
from .gaussian import MAX_VARIANCE
from .protocol import _information_arrays, keyrate_report
from .security import (ONEWAY_MU_A, _grid_minimizer, oneway_report, oneway_threshold_curve,
                       optimal_attack_scan, relative_variations, scan_grid, threshold_curve)

_APPENDIX_CLASSES = ("collective", "epr+", "sep-sym+", "sep-anti+", "sep-sym-")

#: most points an evenly spaced T or omega grid may hold
MAX_GRID_POINTS = 10 ** 5


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(prog="twowayqkd",
                     description="Key rates and security thresholds for two-way "
                                 "Gaussian coherent-state QKD in direct reconciliation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_default):
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help=f"output format (default {fmt_default})")
        p.add_argument("--output", default=None, metavar="PATH",
                       help="write to PATH instead of standard output")
        p.add_argument("--config", default=None, metavar="PATH",
                       help="JSON file with the same keys as the flags; flags override it")
        p.set_defaults(fmt_default=fmt_default)

    p = sub.add_parser("keyrate", help="key-rate report at one parameter point")
    p.add_argument("--T", type=float, default=None, help="channel transmissivity per pass")
    p.add_argument("--omega", type=float, default=None, help="Eve's thermal variance (SNU)")
    p.add_argument("--attack", default=None,
                   help="attack class: " + ", ".join(ATTACK_CLASSES) + ", custom")
    p.add_argument("--g", type=float, default=None, help="q-quadrature correlation (custom attack)")
    p.add_argument("--g-prime", type=float, default=None, help="p-quadrature correlation (custom attack)")
    p.add_argument("--mu", type=float, default=None, help="modulation variance (default 1e6)")
    common(p, "json")

    p = sub.add_parser("threshold", help="security-threshold curves over a T grid")
    p.add_argument("--attack", action="append", default=None,
                   help="attack class, repeatable: " + ", ".join(ATTACK_CLASSES))
    p.add_argument("--t-min", type=float, default=None)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--t-step", type=float, default=None)
    p.add_argument("--with-oneway", action="store_true", default=False,
                   help="append the one-way baseline curve")
    common(p, "csv")

    p = sub.add_parser("scan", help="grid scan for the rate-minimizing attack")
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--step", type=float, default=None, help="grid resolution in (g, g')")
    p.add_argument("--full-grid", action="store_true", default=False,
                   help="emit the rate at every physical grid point")
    common(p, "csv")

    p = sub.add_parser("oneway", help="one-way baseline key rate")
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--mu", type=float, default=None,
                   help="modulation variance of the baseline (default 1e7)")
    common(p, "json")

    p = sub.add_parser("appendix", help="I_AB, chi_EA and sep-sym- corner-class variations vs omega")
    p.add_argument("--T", action="append", type=float, default=None,
                   help="transmissivity, repeatable")
    p.add_argument("--mu", type=float, default=None, help="modulation variance (default 1e6)")
    p.add_argument("--omega-min", type=float, default=None)
    p.add_argument("--omega-max", type=float, default=None)
    p.add_argument("--omega-step", type=float, default=None)
    common(p, "csv")

    return parser


def _config_value(parser, key, action, value):
    """A config value checked against its flag: the value the flag would have set.

    store_true flags take a bool, repeatable flags a JSON list or one item,
    and each item must be a number (not a bool) for a float flag and a string
    otherwise, one of the flag's choices if it has any.
    """
    if isinstance(action, argparse._StoreTrueAction):
        if not isinstance(value, bool):
            parser.error(f"config key {key!r} must be true or false, got {value!r}")
        return value
    repeatable = isinstance(action, argparse._AppendAction)
    items = value if repeatable and isinstance(value, list) else [value]
    if action.type is float:
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in items):
            parser.error(f"config key {key!r} must be a number"
                         f"{' or a list of numbers' if repeatable else ''}, got {value!r}")
        try:
            items = [float(x) for x in items]
        except OverflowError:
            parser.error(f"config key {key!r} must be a number a float can hold, got {value!r}")
    elif not all(isinstance(x, str) and (action.choices is None or x in action.choices)
                 for x in items):
        allowed = "one of " + ", ".join(action.choices) if action.choices else "a string"
        parser.error(f"config key {key!r} must be {allowed}"
                     f"{' or a list of them' if repeatable else ''}, got {value!r}")
    return items if repeatable else items[0]


def _merge_config(parser, args):
    if args.config is None:
        return args
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        parser.error(f"config {args.config} must hold a JSON object")
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a for a in subparsers.choices[args.command]._actions}
    for key, value in cfg.items():
        dest = str(key).replace("-", "_")
        if dest == "config":
            parser.error(f"config key {key!r} is not allowed: a config cannot name another config")
        if dest not in flags or dest == "help":
            parser.error(f"config key {key!r} does not match any flag of {args.command!r}")
        current = getattr(args, dest)
        if current is None or current is False:
            setattr(args, dest, _config_value(parser, key, flags[dest], value))
    return args


def _require(parser, args, names):
    for name in names:
        if getattr(args, name) is None:
            parser.error(f"--{name.replace('_', '-')} is required (flag or config)")


def _write(args, payload, tables):
    """Write a command's result: `payload` as JSON, or `tables` as CSV."""
    if (args.format or args.fmt_default) == "json":
        text = json_text(payload)
    else:
        text = csv_table(*tables)
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _resolve_attack(parser, args):
    if args.attack is not None and str(args.attack).strip().lower() != "custom":
        label = normalize_class(args.attack)
        if args.g is not None or args.g_prime is not None:
            parser.error("--g/--g-prime conflict with a named --attack; use --attack custom")
        return attack_from_class(label, args.omega)
    if args.g is None or args.g_prime is None:
        parser.error("custom attacks need both --g and --g-prime")
    return AttackParams(args.omega, args.g, args.g_prime)


def _even_grid(parser, name, lo, hi, step):
    """lo, lo + step, ... up to hi (lo <= hi); the size is checked before anything is built."""
    for suffix, value in (("min", lo), ("max", hi), ("step", step)):
        if not math.isfinite(value):
            parser.error(f"{name}-{suffix} must be finite, got {value}")
    if not step > 0.0:
        parser.error(f"{name}-step must be positive, got {step}")
    span = (hi - lo) / step + 1e-9
    count = math.floor(span) + 1 if math.isfinite(span) else span
    if count > MAX_GRID_POINTS:
        parser.error(f"{name}-step {step} gives {count:.6g} grid points; "
                     f"a grid must hold at most {MAX_GRID_POINTS}")
    return [lo + k * step for k in range(count)]


def _t_grid(parser, args):
    if not 0.0 < args.t_min < args.t_max < 1.0:
        parser.error(f"need 0 < t-min < t-max < 1, got {args.t_min}, {args.t_max}")
    return _even_grid(parser, "t", args.t_min, args.t_max, args.t_step)


def _cmd_keyrate(parser, args):
    _require(parser, args, ("T", "omega"))
    attack = _resolve_attack(parser, args)
    mu = 1e6 if args.mu is None else args.mu
    report = keyrate_report(args.T, attack, mu=mu)
    payload = report.to_dict()
    _write(args, payload, [Table.record(payload)])
    return 0 if report.R > 0.0 else 2


def _cmd_threshold(parser, args):
    if not args.attack:
        parser.error("at least one --attack class is required")
    _require(parser, args, ("t_min", "t_max", "t_step"))
    classes = [normalize_class(c) for c in args.attack]
    grid = _t_grid(parser, args)
    curves = [threshold_curve(c, grid) for c in classes]
    if args.with_oneway:
        curves.append(oneway_threshold_curve(grid))
    header = ("T", "omega_star", "N_star", "secure")
    payload = [{"attack_class": c.attack_class, "points": Table(header, tuple(zip(*c.to_rows())))}
               for c in curves]
    rows = [(c.attack_class, *row) for c in curves for row in c.to_rows()]
    _write(args, payload, [Table(("attack", *header), tuple(zip(*rows)))])
    return 0


def _cmd_scan(parser, args):
    _require(parser, args, ("T", "omega", "step"))
    if args.full_grid:
        rows = scan_grid(args.T, args.omega, args.step)
        result = _grid_minimizer(args.T, args.omega, args.step, rows)
    else:
        result = optimal_attack_scan(args.T, args.omega, args.step)
    payload = result.to_dict()
    tables = [Table.record(payload)]
    if args.full_grid:
        grid = Table(("g", "g_prime", "R"), tuple(rows.T))
        payload = {**payload, "grid": grid}
        tables.append(grid)
    _write(args, payload, tables)
    return 0 if result.R_min > 0.0 else 2


def _cmd_oneway(parser, args):
    _require(parser, args, ("T", "omega"))
    if args.mu is not None and not 0.0 <= args.mu <= MAX_VARIANCE - 1.0:
        parser.error(f"modulation variance --mu must be in [0, {MAX_VARIANCE:g} - 1], got {args.mu}")
    mu_a = ONEWAY_MU_A if args.mu is None else args.mu + 1.0
    report = oneway_report(args.T, args.omega, mu_a=mu_a)
    _write(args, report, [Table.record(report)])
    return 0 if report["R"] > 0.0 else 2


def _cmd_appendix(parser, args):
    if not args.T:
        parser.error("at least one --T is required")
    mu = 1e6 if args.mu is None else args.mu
    if mu < 1e3:
        parser.error(f"appendix tables need the asymptotic regime mu >= 1e3, got {mu}")
    w_min = 1.0 if args.omega_min is None else args.omega_min
    w_max = 5.0 if args.omega_max is None else args.omega_max
    w_step = 0.25 if args.omega_step is None else args.omega_step
    if not (w_min >= 1.0 and w_max >= w_min):
        parser.error(f"bad omega grid: [{w_min}, {w_max}] step {w_step}")
    omegas = np.array(_even_grid(parser, "omega", w_min, w_max, w_step))

    header = ["T", "omega"]
    header += [f"I_AB_{c}" for c in _APPENDIX_CLASSES]
    header += [f"chi_EA_{c}" for c in _APPENDIX_CLASSES]
    header += ["dI_AB", "dchi_EA"]
    blocks = []
    for T in args.T:
        # relative_variations checks T, mu and the grid before any class is evaluated
        _, d_i, d_chi = zip(*relative_variations(T, mu, omegas))
        g, g_prime = np.stack([_class_correlations(c, omegas) for c in _APPENDIX_CLASSES], 1)
        i_ab, chi = _information_arrays(T, omegas, g, g_prime, mu)
        blocks.append((np.full(omegas.size, T), omegas, *i_ab, *chi, d_i, d_chi))
    table = Table(header, tuple(np.concatenate(c) for c in zip(*blocks)))
    _write(args, table, [table])
    return 0


_COMMANDS = {
    "keyrate": _cmd_keyrate,
    "threshold": _cmd_threshold,
    "scan": _cmd_scan,
    "oneway": _cmd_oneway,
    "appendix": _cmd_appendix,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args = _merge_config(parser, args)
        return _COMMANDS[args.command](parser, args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except UnphysicalStateError as exc:
        print(f"twowayqkd: unphysical parameters: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, OSError) as exc:
        print(f"twowayqkd: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
