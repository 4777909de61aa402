"""Command-line front end.

Commands: keyrate | threshold | scan | oneway | appendix.  Exit codes:
0 on success with a positive rate, 2 when the queried rate is nonpositive
(insecure but valid), 1 on any error.  Output that cannot be written (a full
disk, a closed standard output, a reader that quits early) is an error too,
exit code 1, whether standard output is buffered or not.

`main(argv)` returns the exit code and suits calls from Python.  `run()` is
the command's entry point: it calls `main`, flushes the output and ends the
process with `os._exit`, which skips interpreter teardown.
"""

import argparse
import math
import os
import sys

# No command makes a BLAS call, so OpenBLAS gets one thread instead of a pool
# that would idle and burn CPU at start-up.  The variable is read once, when
# numpy loads: set it only before that, and never over the user's value.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from ._serialize import Table, csv_table, json_text
from .attacks import ATTACK_CLASSES, AttackParams
from .errors import UnphysicalStateError
from .gaussian import MAX_VARIANCE
from .protocol import DEFAULT_MU, _class_report, keyrate_report
from .security import (ONEWAY_MU_A, class_variations, oneway_report, optimal_attack_scan,
                       scan_grid, threshold_curves)

_APPENDIX_CLASSES = ("collective", "epr+", "sep-sym+", "sep-anti+", "sep-sym-")

#: most points an evenly spaced T or omega grid may hold
MAX_GRID_POINTS = 10 ** 5


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")

    def _print_message(self, message, file=None):
        # argparse's own drops every OSError, so --help into a full disk exited 0.  Only
        # standard error's is dropped here: the usage error it carries still exits 1.
        file = file or sys.stderr
        try:
            if message and file is not None:
                file.write(message)
        except OSError:
            if file is not sys.stderr:
                raise


def _keyrate_flags(p):
    p.add_argument("--T", type=float, default=None, help="channel transmissivity per pass")
    p.add_argument("--omega", type=float, default=None, help="Eve's thermal variance (SNU)")
    p.add_argument("--attack", default=None,
                   help="attack class: " + ", ".join(ATTACK_CLASSES) + ", custom")
    p.add_argument("--g", type=float, default=None, help="q-quadrature correlation (custom attack)")
    p.add_argument("--g-prime", type=float, default=None, help="p-quadrature correlation (custom attack)")
    p.add_argument("--mu", type=float, default=None,
                   help=f"modulation variance (default {DEFAULT_MU:g})")


def _threshold_flags(p):
    p.add_argument("--attack", action="append", default=None,
                   help="attack class, repeatable: " + ", ".join(ATTACK_CLASSES))
    p.add_argument("--t-min", type=float, default=None)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--t-step", type=float, default=None)
    p.add_argument("--with-oneway", action="store_true", default=False,
                   help="append the one-way baseline curve")


def _scan_flags(p):
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--step", type=float, default=None, help="grid resolution in (g, g')")
    p.add_argument("--full-grid", action="store_true", default=False,
                   help="emit the rate at every physical grid point")


def _oneway_flags(p):
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--mu", type=float, default=None,
                   help=f"modulation variance of the baseline (default {ONEWAY_MU_A - 1.0:g})")


def _appendix_flags(p):
    p.add_argument("--T", action="append", type=float, default=None,
                   help="transmissivity, repeatable")
    p.add_argument("--mu", type=float, default=None,
                   help=f"modulation variance (default {DEFAULT_MU:g})")
    p.add_argument("--omega-min", type=float, default=None)
    p.add_argument("--omega-max", type=float, default=None)
    p.add_argument("--omega-step", type=float, default=None)


def _build_parser():
    """The command-line parser, with one subparser per entry of _SUBCOMMANDS."""
    parser = _Parser(prog="twowayqkd",
                     description="Key rates and security thresholds for two-way "
                                 "Gaussian coherent-state QKD in direct reconciliation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, fmt_default, add_flags, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_flags(p)
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help=f"output format (default {fmt_default})")
        p.add_argument("--output", default=None, metavar="PATH",
                       help="write to PATH instead of standard output")
        p.add_argument("--config", default=None, metavar="PATH",
                       help="JSON file with the same keys as the flags; flags override it")
        p.set_defaults(fmt_default=fmt_default)
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
    import json  # imported here, so that a run without a config need not load it
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
        out = sys.stdout
        if out is None:
            raise OSError("standard output is closed")
        if getattr(out, "buffer", None) is None:
            out.write(text)
        else:
            # unbuffered (python -u), the text layer ignores a short write and drops the
            # rest: write the bytes until all are taken
            out.flush()
            data = memoryview(text.encode(out.encoding, out.errors))
            while data:
                data = data[out.buffer.write(data):]
        out.flush()  # a failed write is reported here, not lost at exit
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _even_grid(parser, name, lo, hi, step):
    """lo, lo + step, ... up to hi as a float64 array.  The CLI's one grid check: finite ends
    and step, step > 0, lo <= hi, the size, then strictly increasing values (a step below
    the spacing of doubles repeats them); the values' own bounds are the library's."""
    for suffix, value in (("min", lo), ("max", hi), ("step", step)):
        if not math.isfinite(value):
            parser.error(f"{name}-{suffix} must be finite, got {value}")
    if not step > 0.0:
        parser.error(f"{name}-step must be positive, got {step}")
    if not lo <= hi:
        parser.error(f"{name}-min must be at most {name}-max, got {lo} and {hi}")
    span = (hi - lo) / step + 1e-9
    count = math.floor(span) + 1 if math.isfinite(span) else span
    if count > MAX_GRID_POINTS:
        parser.error(f"{name}-step {step} gives {count:.6g} grid points; "
                     f"a grid must hold at most {MAX_GRID_POINTS}")
    grid = lo + np.arange(count) * step
    if not (np.diff(grid) > 0.0).all():
        parser.error(f"{name}-step {step} must exceed the spacing of doubles on [{lo}, {hi}], "
                     "or the grid repeats values")
    return grid


def _cmd_keyrate(parser, args):
    _require(parser, args, ("T", "omega"))
    mu = DEFAULT_MU if args.mu is None else args.mu
    if args.attack is not None and str(args.attack).strip().lower() != "custom":
        if args.g is not None or args.g_prime is not None:
            parser.error("--g/--g-prime conflict with a named --attack; use --attack custom")
        report = _class_report(args.T, args.attack, args.omega, mu)  # through its exact gaps
    else:
        if args.g is None or args.g_prime is None:
            parser.error("custom attacks need both --g and --g-prime")
        report = keyrate_report(args.T, AttackParams(args.omega, args.g, args.g_prime), mu=mu)
    payload = report._asdict()
    _write(args, payload, [Table.record(payload)])
    return 0 if report.R > 0.0 else 2


def _cmd_threshold(parser, args):
    if not args.attack:
        parser.error("at least one --attack class is required")
    _require(parser, args, ("t_min", "t_max", "t_step"))
    grid = _even_grid(parser, "t", args.t_min, args.t_max, args.t_step)
    curves = threshold_curves(args.attack, grid, with_oneway=args.with_oneway)
    header = ("T", "omega_star", "N_star", "secure")
    columns = [(c.T, c.omega_star, c.N_star, c.secure) for c in curves]
    payload = [{"attack_class": c.attack_class, "points": Table(header, cols)}
               for c, cols in zip(curves, columns)]
    labels = np.repeat([c.attack_class for c in curves], len(grid))
    table = Table(("attack", *header), (labels, *map(np.concatenate, zip(*columns))))
    _write(args, payload, [table])
    return 0


def _cmd_scan(parser, args):
    _require(parser, args, ("T", "omega", "step"))
    result = optimal_attack_scan(args.T, args.omega, args.step)
    payload = result._asdict()
    tables = [Table.record(payload)]
    if args.full_grid:
        grid = Table(("g", "g_prime", "R"), tuple(scan_grid(args.T, args.omega, args.step).T))
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
    """Write security.class_variations' table of the appendix classes: every --T by every omega."""
    if not args.T:
        parser.error("at least one --T is required")
    mu = DEFAULT_MU if args.mu is None else args.mu
    w_min = 1.0 if args.omega_min is None else args.omega_min
    w_max = 5.0 if args.omega_max is None else args.omega_max
    w_step = 0.25 if args.omega_step is None else args.omega_step
    omegas = _even_grid(parser, "omega", w_min, w_max, w_step)

    header = ["T", "omega"]
    header += [f"I_AB_{c}" for c in _APPENDIX_CLASSES]
    header += [f"chi_EA_{c}" for c in _APPENDIX_CLASSES]
    header += ["dI_AB", "dchi_EA"]
    t, omega, i_ab, chi, d_i, d_chi = class_variations(args.T, mu, omegas, _APPENDIX_CLASSES)
    table = Table(header, (t, omega, *i_ab, *chi, d_i, d_chi))
    _write(args, table, [table])
    return 0


#: the subcommands in the order --help lists them: (help, default format, own flags, handler)
_SUBCOMMANDS = {
    "keyrate": ("key-rate report at one parameter point", "json", _keyrate_flags, _cmd_keyrate),
    "threshold": ("security-threshold curves over a T grid", "csv", _threshold_flags,
                  _cmd_threshold),
    "scan": ("grid scan for the rate-minimizing attack", "csv", _scan_flags, _cmd_scan),
    "oneway": ("one-way baseline key rate", "json", _oneway_flags, _cmd_oneway),
    "appendix": ("I_AB, chi_EA and sep-sym- corner-class variations vs omega", "csv",
                 _appendix_flags, _cmd_appendix),
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args = _merge_config(parser, args)
        return _SUBCOMMANDS[args.command][3](parser, args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except UnphysicalStateError as exc:
        print(f"twowayqkd: unphysical parameters: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, OSError) as exc:
        print(f"twowayqkd: error: {exc}", file=sys.stderr)
        return 1


def run():
    """Run `main` as the `twowayqkd` command, then end the process at once.

    Interpreter teardown (the last garbage collection and the clearing of
    numpy's modules) costs about 20 ms and comes after the output is
    complete, so the process skips it: once both streams are flushed it ends
    with `os._exit`.  A flush that fails is an error, exit code 1, unless the
    run has already failed and said so: a failed write leaves its bytes in the
    buffer, and the flush here fails on them again.
    """
    try:
        code = main()
    except OSError:
        code = 1  # main's error message could not be written to standard error
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except OSError as exc:
            if code != 1:
                code = 1
                try:
                    if sys.stderr is not None:
                        print(f"twowayqkd: error: {exc}", file=sys.stderr, flush=True)
                except OSError:
                    pass  # standard error cannot take the message either
    os._exit(code)


if __name__ == "__main__":
    run()
