"""Compare the command line of two source trees: exit code, stdout and stderr, byte for byte.

    python tools/compare_cli.py PARENT_SRC [CHANGE_SRC]

Each SRC is a directory that holds the `twowayqkd` package, such as the
`src/` of a clean checkout of the parent commit; CHANGE_SRC defaults to the
`src/` next to `tools/`.  Every command line of LINES runs as a fresh
`python -m twowayqkd.cli` process on each side, with that side first on
PYTHONPATH, COLUMNS=80 and an empty scratch directory as working directory.
One line is printed per command line that differs, naming what differs, then
a count.  Exit code 1 on any difference, 0 when every line matches.

LINES holds the three benchmark workloads' command lines at seeds 0 and 1,
built by `bench/run.py`'s WORKLOADS, then two `scan --full-grid` runs at the T
extremes, a `threshold` run that reaches every solver outcome, `keyrate`,
`oneway` and `appendix` in CSV and JSON, every `--help`, a few rejected inputs,
and a few accuracy probes at large omega and near T = 1.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from run import WORKLOADS  # noqa: E402  (bench/run.py, which needs bench/ on sys.path)

# the command lines of every benchmark workload at full size, seed 0 then seed 1
_WORKLOAD_LINES = [inv.args for seed in (0, 1) for workload in WORKLOADS.values()
                   for inv in workload(seed, small=False)]

# full-grid scans at the T extremes, where the rate rises least off the diagonal
_FULL_GRID = [["scan", "--T", "1e-300", "--omega", "1.5", "--step", "0.015", "--full-grid",
               "--format", "json"],
              ["scan", "--T", "0.9999999999999998", "--omega", "20", "--step", "0.2",
               "--full-grid"]]

# a threshold run that reaches every solver outcome, no_crossing included, which none of
# the workload lines does
_OUTCOMES = [["threshold", "--attack", "sep-sym+", "--attack", "epr+", "--with-oneway",
              "--t-min", "0.5", "--t-max", "0.9995", "--t-step", "0.0005"]]

_FORMATS = [[*argv, "--format", fmt] for fmt in ("csv", "json") for argv in [
    ["keyrate", "--T", "0.9", "--omega", "1", "--attack", "collective"],
    ["keyrate", "--T", "0.8", "--omega", "1.6", "--attack", "custom",
     "--g", "0.2", "--g-prime", "-0.3"],
    ["oneway", "--T", "0.9", "--omega", "1.2"],
    ["appendix", "--T", "0.65", "--T", "0.95", "--mu", "1e6", "--omega-max", "5",
     "--omega-step", "0.5"]]]

_HELP = [["--help"]] + [[command, "--help"]
                        for command in ("keyrate", "threshold", "scan", "oneway", "appendix")]

_REJECTED = [
    ["threshold", "--attack", "collective", "--t-min", "0.9", "--t-max", "0.7", "--t-step", "0.05"],
    ["threshold", "--attack", "collective", "--t-min", "0", "--t-max", "0.5", "--t-step", "0.25"],
    ["threshold", "--attack", "collective", "--t-min", "nan", "--t-max", "0.5", "--t-step", "0.1"],
    ["appendix", "--T", "0.65", "--omega-min", "3", "--omega-max", "2"],
    ["keyrate", "--T", "1.5", "--omega", "2", "--attack", "collective"],
    ["scan", "--T", "0.8", "--omega", "2", "--step", "0"],
    ["oneway", "--T", "0.9", "--omega", "1.2", "--mu", "-0.5"],
]

# accuracy probes: the EPR classes at large omega, near T = 1 and a fine appendix grid
_PROBES = [
    ["keyrate", "--T", "0.9", "--omega", "8192", "--attack", "epr+"],
    ["keyrate", "--T", "0.8", "--omega", "3e4", "--attack", "epr-"],
    ["keyrate", "--T", "0.999999", "--omega", "1e9", "--attack", "sep-sym-"],
    ["oneway", "--T", "0.999999999999", "--omega", "1"],
    ["appendix", "--T", "0.3", "--omega-max", "50", "--omega-step", "0.7"],
]

#: every command line the comparison runs, in order
LINES = _WORKLOAD_LINES + _FULL_GRID + _OUTCOMES + _FORMATS + _HELP + _REJECTED + _PROBES


def _run(src, argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80", PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "twowayqkd.cli", *argv], env=env, cwd=cwd,
                          capture_output=True, timeout=300)
    return done.returncode, done.stdout, done.stderr


def compare(old_src, new_src, lines=LINES):
    """One message per command line whose exit code, stdout or stderr differs between trees."""
    old_src, new_src = Path(old_src).resolve(), Path(new_src).resolve()
    differences = []
    with tempfile.TemporaryDirectory() as cwd:
        for argv in lines:
            old, new = _run(old_src, argv, cwd), _run(new_src, argv, cwd)
            named = []
            if old[0] != new[0]:
                named.append(f"exit code {old[0]} -> {new[0]}")
            if old[1] != new[1]:
                named.append(f"stdout {len(old[1])} -> {len(new[1])} bytes")
            if old[2] != new[2]:
                named.append(f"stderr {old[2].decode(errors='replace')!r} -> "
                             f"{new[2].decode(errors='replace')!r}")
            if named:
                differences.append(" ".join(argv) + ": " + "; ".join(named))
    return differences


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if not 1 <= len(args) <= 2:
        print("usage: python tools/compare_cli.py PARENT_SRC [CHANGE_SRC]", file=sys.stderr)
        return 1
    old_src = Path(args[0])
    new_src = Path(args[1]) if len(args) == 2 else Path(__file__).resolve().parents[1] / "src"
    for src in (old_src, new_src):
        if not (src / "twowayqkd" / "cli.py").is_file():
            print(f"compare_cli: {src} holds no twowayqkd package", file=sys.stderr)
            return 1
    differences = compare(old_src, new_src)
    for line in differences:
        print(line)
    print(f"{len(differences)} of {len(LINES)} command lines differ")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
