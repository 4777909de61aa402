"""Benchmark of the `twowayqkd` calculator: three CLI workloads, end to end and by module.

    python3 bench/run.py --workload threshold-curves --seed 0 --seconds 35 --trace 0

Run from any directory; the package is taken from `src/` next to `bench/`.

With `--trace 0` each CLI invocation is a fresh `python -m twowayqkd.cli`
process, run one after another (a closed loop with one client).  A round is
one pass over the workload's invocations; rounds repeat while another one fits
in `--seconds` (at least one round).  After each invocation a fresh process
runs `reference.py`, a fixed piece of work of the same kind.  `wall_s` and
`cpu_s` are the mean round's times divided by the mean reference time of the
run and multiplied by the reference's own time as once measured (REF_WALL_S,
REF_CPU_S): seconds at the speed of that measurement.  On a shared virtual
machine the speed moves by a quarter over minutes, and the CLI and the
reference move together.  Every output is checked by `checker.py`, which
does not import the package.  The last line of standard output is one JSON
object: correct, attempted, failed and the end-to-end metrics (setup_s,
wall_s, cpu_s, peak_rss_mb).

With `--trace 1` the same invocations run inside this process through
`twowayqkd.cli.main`, each once untraced and once with every public function
of the package's modules wrapped (see `tracer.py`).  The result line then
holds the per-layer metrics.

Exit code 2 from the CLI (a valid rate <= 0) is a success.  The full record
of each run goes to `bench/results/`.
"""

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import checker
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CLI_FILE = SRC / "twowayqkd" / "cli.py"
RESULTS = BENCH / "results"
REFERENCE = BENCH / "reference.py"

#: wall and CPU seconds of one reference.py run, measured on the host of the
#: reference figures in README.md (2-vCPU Xeon VM); wall_s and cpu_s are in
#: seconds at that speed
REF_WALL_S = 0.95
REF_CPU_S = 1.20

#: fresh-interpreter imports per run; setup_s and the import.* metrics are their medians
SETUP_REPEATS = 5


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Invocation:
    """One CLI call: its arguments and a check of (stdout text, exit code)."""

    def __init__(self, args, check):
        self.args = args
        self.check = check
        self._verdicts = {}

    def verdict(self, out, code):
        """Failure messages for one output; identical outputs are checked once."""
        key = (out, code)
        if key not in self._verdicts:
            self._verdicts[key] = self.check(out, code)
        return self._verdicts[key]


def _jitter(rng, seed, value):
    """The paper's value for seed 0, else value +- 0.01, as the CLI string."""
    if seed != 0:
        value += rng.uniform(-0.01, 0.01)
    return f"{value:.4f}"


def threshold_curves(seed, small):
    """All seven classes plus the one-way curve over T = 0.30..0.99 (step 0.01).

    The seed permutes the class order; the T grid is fixed, so every count
    of the traced run is the same for every seed.
    """
    rng = random.Random(seed)
    classes = list(checker.TWO_WAY_CLASSES)
    if seed != 0:
        rng.shuffle(classes)
    t_min, t_max, t_step = ("0.60", "0.99", "0.13") if small else ("0.30", "0.99", "0.01")
    grid = checker.t_grid(float(t_min), float(t_max), float(t_step))
    args = ["threshold", *[x for c in classes for x in ("--attack", c)],
            "--t-min", t_min, "--t-max", t_max, "--t-step", t_step, "--with-oneway"]

    def check(out, code):
        errors = [] if code == 0 else [f"threshold exit code {code}"]
        return errors + checker.check_threshold(out, classes, grid, with_oneway=True)

    return [Invocation(args, check)]


def _scan_invocation(T, omega, step, fmt=None):
    args = ["scan", "--T", T, "--omega", omega, "--step", step]
    if fmt is not None:
        args += ["--full-grid", "--format", fmt]
    ref = []

    def check(out, code):
        if not ref:
            ref.append(checker.ScanReference(float(T), float(omega), float(step)))
        return checker.check_scan(out, fmt or "csv", code, ref[0], full_grid=fmt is not None)

    return Invocation(args, check)


def optimal_scan(seed, small):
    """`scan` summaries at the twelve (T, omega) points of acceptance criterion 5, step 0.01.

    The seed moves each T by up to 0.01 and shuffles the order; omega and the
    step fix the grid, so node counts are the same for every seed.
    """
    rng = random.Random(seed)
    if small:
        points, step = [(0.8, "1.5"), (0.95, "2")], "0.05"
    else:
        points, step = [(T, w) for T in (0.5, 0.65, 0.8, 0.95) for w in ("1.5", "2", "3")], "0.01"
    invocations = [_scan_invocation(_jitter(rng, seed, T), w, step) for T, w in points]
    if seed != 0:
        rng.shuffle(invocations)
    return invocations


def grid_export(seed, small):
    """`scan --full-grid` at step 0.02: JSON at (0.8, 3) and CSV at (0.8, 2).

    The seed moves each T by up to 0.01 and picks the order.
    """
    rng = random.Random(seed)
    step = "0.1" if small else "0.02"
    invocations = [_scan_invocation(_jitter(rng, seed, 0.8), "3", step, "json"),
                   _scan_invocation(_jitter(rng, seed, 0.8), "2", step, "csv")]
    if seed != 0:
        rng.shuffle(invocations)
    return invocations


WORKLOADS = {
    "threshold-curves": threshold_curves,
    "optimal-scan": optimal_scan,
    "grid-export": grid_export,
}


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Child:
    __slots__ = ("code", "out", "err", "wall_s", "cpu_s", "rss_mb")


def spawn(argv, env):
    """Run `python argv` to completion; exit code, output, wall, CPU and peak RSS."""
    child = Child()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    child.wall_s = time.perf_counter() - start
    proc.returncode = child.code = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    child.out = out.decode()
    child.err = err[0].decode() if err else ""
    child.cpu_s = usage.ru_utime + usage.ru_stime
    child.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
    return child


def repeat_rounds(seconds, one_round):
    """Whole rounds while the next one is expected to end within `seconds`; at least one."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(one_round())
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)\s*$")


def import_self_times(stderr):
    """Seconds of import self time per top-level package, from `-X importtime`."""
    totals = {}
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            top = m.group(2).split(".")[0]
            totals[top] = totals.get(top, 0.0) + int(m.group(1)) * 1e-6
    return totals


# ---------------------------------------------------------------------------
# untraced runs: end-to-end metrics
# ---------------------------------------------------------------------------

def _report_failures(where, failures):
    for msg in failures[:5]:
        print(f"bench: {where}: {msg}", file=sys.stderr)


def measure_setup(env):
    """Median wall time of a fresh interpreter importing twowayqkd.cli."""
    walls = []
    for _ in range(SETUP_REPEATS):
        child = spawn(["-c", "import sys, twowayqkd.cli as c; sys.stdout.write(c.__file__)"], env)
        if child.code != 0 or Path(child.out).resolve() != CLI_FILE.resolve():
            raise SystemExit(f"bench: twowayqkd.cli does not import from {SRC}: "
                             f"{child.out or child.err.strip()}")
        walls.append(child.wall_s)
    return statistics.median(walls), walls


def run_reference(env):
    """One run of reference.py; a failure of the yardstick ends the benchmark."""
    child = spawn([str(REFERENCE)], env)
    try:
        ok = child.code == 0 and math.isfinite(float(child.out))
    except ValueError:
        ok = False
    if not ok:
        raise SystemExit(f"bench: {REFERENCE.name} failed: {child.out or child.err.strip()}")
    return child


def run_untraced(invocations, seconds):
    env = _child_env()
    setup_s, setup_walls = measure_setup(env)
    tally = {"attempted": 0, "failed": 0}

    def one_round():
        children, refs = [], []
        for inv in invocations:
            children.append(spawn(["-m", "twowayqkd.cli", *inv.args], env))
            refs.append(run_reference(env))
        for inv, child in zip(invocations, children):
            tally["attempted"] += 1
            failures = inv.verdict(child.out, child.code)
            if failures:
                tally["failed"] += 1
                _report_failures(" ".join(inv.args), failures + [child.err.strip()])
        return {"wall_s": sum(c.wall_s for c in children),
                "cpu_s": sum(c.cpu_s for c in children),
                "peak_rss_mb": max(c.rss_mb for c in children),
                "ref_wall_s": statistics.fmean(r.wall_s for r in refs),
                "ref_cpu_s": statistics.fmean(r.cpu_s for r in refs)}

    rounds = repeat_rounds(seconds, one_round)
    mean = {key: statistics.fmean(r[key] for r in rounds)
            for key in ("wall_s", "cpu_s", "ref_wall_s", "ref_cpu_s")}
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (mean["wall_s"] * REF_WALL_S / mean["ref_wall_s"], "s"),
        "cpu_s": (mean["cpu_s"] * REF_CPU_S / mean["ref_cpu_s"], "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    detail = {"setup_walls_s": setup_walls, "means": mean, "rounds": rounds}
    return tally, metrics, detail


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics
# ---------------------------------------------------------------------------

def _grid_nodes(omega, resolution):
    # same node set as attacks.physical_region_grid
    kmax = math.floor(omega / resolution + 1e-9)
    return (2 * kmax + 1) ** 2


class RoundCounts:
    """Counts a round gathers from the arguments and results of traced calls."""

    def __init__(self):
        self.grid_calls = []       # (omega, resolution, nodes, physical)
        self.curve_points = 0
        self.serialized_bytes = 0

    def observers(self):
        def grid(args, kwargs, result):
            omega, resolution = args
            self.grid_calls.append((omega, resolution, _grid_nodes(omega, resolution), len(result)))

        def curve(args, kwargs, result):
            self.curve_points += len(result.points)

        def text(args, kwargs, result):
            self.serialized_bytes += len(result)

        return {"attacks.physical_region_grid": grid,
                "security.threshold_curve": curve, "security.oneway_threshold_curve": curve,
                "serialize.csv_table": text, "serialize.json_text": text}


def _in_process_call(cli, inv, tally):
    """Run one invocation through cli.main, check it, and return its wall time."""
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(inv.args))
    wall = time.perf_counter() - start
    tally["attempted"] += 1
    failures = inv.verdict(buf.getvalue(), code)
    if failures:
        tally["failed"] += 1
        _report_failures(" ".join(inv.args), failures)
    return wall


def _bytes_per_node(attacks, grid_calls):
    """tracemalloc peak of the largest physical_region_grid call, per grid node."""
    if not grid_calls:
        return 0.0
    omega, resolution, nodes, _ = max(grid_calls, key=lambda c: c[2])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        grid = attacks.physical_region_grid(omega, resolution)
        peak = tracemalloc.get_traced_memory()[1]
        del grid
    finally:
        tracemalloc.stop()
    return (peak - base) / nodes


def _layer_metrics(tr, counts, n_invocations):
    def calls(key):
        return tr.stat(key).calls

    def total(key):
        return tr.stat(key).total_s

    def us_per_call(key):
        s = tr.stat(key)
        return s.total_s / s.calls * 1e6 if s.calls else 0.0

    def self_sum(prefix):
        return sum(s.self_s for k, s in tr.stats.items() if k.startswith(prefix))

    nodes = sum(c[2] for c in counts.grid_calls)
    serialize_s = self_sum("serialize.")
    rate_calls = calls("protocol.keyrate_asymptotic") + calls("security.oneway_keyrate")
    return {
        "gaussian.entropic_h.calls": (calls("gaussian.entropic_h"), "count"),
        "gaussian.entropic_h.us_per_call": (us_per_call("gaussian.entropic_h"), "us"),
        "gaussian.symplectic_spectrum.calls": (calls("gaussian.symplectic_spectrum"), "count"),
        "gaussian.symplectic_spectrum.us_per_call":
            (us_per_call("gaussian.symplectic_spectrum"), "us"),
        "gaussian.heterodyne_condition.us_per_call":
            (us_per_call("gaussian.heterodyne_condition"), "us"),
        "attacks.attack_from_class.calls": (calls("attacks.attack_from_class"), "count"),
        "attacks.physical_region_grid.s": (total("attacks.physical_region_grid"), "s"),
        "attacks.physical_region_grid.nodes": (nodes, "count"),
        "attacks.physical_region_grid.physical": (sum(c[3] for c in counts.grid_calls), "count"),
        "attacks.physical_region_grid.ns_per_node":
            (total("attacks.physical_region_grid") / nodes * 1e9 if nodes else 0.0, "ns"),
        "protocol.keyrate_asymptotic.calls": (calls("protocol.keyrate_asymptotic"), "count"),
        "protocol.keyrate_asymptotic.us_per_call":
            (us_per_call("protocol.keyrate_asymptotic"), "us"),
        "security.threshold_curve.s": (total("security.threshold_curve"), "s"),
        "security.oneway_threshold_curve.s": (total("security.oneway_threshold_curve"), "s"),
        "security.oneway_keyrate.us_per_call": (us_per_call("security.oneway_keyrate"), "us"),
        "security.rate_evals_per_root":
            (rate_calls / counts.curve_points if counts.curve_points else 0.0, "count"),
        "security.optimal_attack_scan.s": (total("security.optimal_attack_scan"), "s"),
        "security.scan_grid.calls": (calls("security.scan_grid") / n_invocations, "count"),
        "serialize.s": (serialize_s, "s"),
        "serialize.mb_per_s":
            (counts.serialized_bytes / 1e6 / serialize_s if serialize_s else 0.0, "MB/s"),
        "cli.self_s": (self_sum("cli."), "s"),
    }


def run_traced(invocations, seconds):
    env = _child_env()
    imports = []
    for _ in range(SETUP_REPEATS):
        child = spawn(["-X", "importtime", "-c", "import twowayqkd.cli"], env)
        if child.code != 0:
            raise SystemExit(f"bench: twowayqkd.cli does not import: {child.err.strip()}")
        imports.append(import_self_times(child.err))

    sys.path.insert(0, str(SRC))
    import twowayqkd.attacks as attacks
    import twowayqkd.cli as cli
    if Path(cli.__file__).resolve() != CLI_FILE.resolve():
        raise SystemExit(f"bench: imported {cli.__file__}, not {CLI_FILE}")

    tally = {"attempted": 0, "failed": 0}

    pairs = itertools.count()

    def one_round():
        # each invocation runs untraced and traced back to back, in alternating
        # order, so that drift and first-call effects fall on both sides alike
        counts = RoundCounts()
        tr = tracer.Tracer(counts.observers())
        walls = {False: 0.0, True: 0.0}
        for inv in invocations:
            for traced in ((False, True) if next(pairs) % 2 == 0 else (True, False)):
                with tr if traced else contextlib.nullcontext():
                    walls[traced] += _in_process_call(cli, inv, tally)
        return {"untraced_s": walls[False], "traced_s": walls[True], "tracer": tr,
                "counts": counts, "layers": _layer_metrics(tr, counts, len(invocations))}

    rounds = repeat_rounds(seconds, one_round)
    names = list(rounds[0]["layers"])
    metrics = {}
    for name in names:
        values = [r["layers"][name][0] for r in rounds]
        unit = rounds[0]["layers"][name][1]
        if unit == "count":
            if len(set(values)) != 1:
                tally["counts_differ"] = True
                print(f"bench: {name} differs between rounds: {values}", file=sys.stderr)
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    grid_calls = rounds[0]["counts"].grid_calls
    metrics["attacks.physical_region_grid.bytes_per_node"] = \
        (_bytes_per_node(attacks, grid_calls), "B")
    for pkg in ("numpy", "scipy", "twowayqkd"):
        metrics[f"import.{pkg}_s"] = (statistics.median(t.get(pkg, 0.0) for t in imports), "s")
    metrics["trace.overhead_s"] = \
        (statistics.median(r["traced_s"] - r["untraced_s"] for r in rounds), "s")
    detail = {
        "rounds": [{"untraced_s": r["untraced_s"], "traced_s": r["traced_s"]} for r in rounds],
        "functions": {k: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
                      for k, s in sorted(rounds[0]["tracer"].stats.items()) if s.calls},
        "grid_calls": grid_calls,
    }
    return tally, metrics, detail


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 gives the paper's points exactly")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measuring time; whole rounds only, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: in-process traced run reporting per-layer metrics")
    parser.add_argument("--small", action="store_true",
                        help="reduced inputs, for the benchmark's own smoke tests")
    args = parser.parse_args(argv)

    if not CLI_FILE.is_file():
        print(f"bench: {CLI_FILE} not found; run from a checkout with src/", file=sys.stderr)
        return 1
    invocations = WORKLOADS[args.workload](args.seed, args.small)
    run = run_traced if args.trace else run_untraced
    tally, metrics, detail = run(invocations, args.seconds)

    result = {
        "correct": tally["failed"] == 0 and not tally.get("counts_differ", False),
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, small=args.small, detail=detail,
                  machine={"python": platform.python_version(), "platform": platform.platform(),
                           "cpus": os.cpu_count()})
    RESULTS.mkdir(exist_ok=True)
    suffix = "-small" if args.small else ""
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
