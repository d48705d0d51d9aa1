"""Capture the CLI's observable outputs on fixed inputs, for byte-identity diffs.

Usage::

    PYTHONPATH=src python tools/capture_outputs.py OUTDIR

OUTDIR must not exist yet. For every run below the script writes
``OUTDIR/<case>/<command>/``: ``stdout.txt``, ``exit_code.txt`` and every file
the command wrote. ``qme`` is imported from ``PYTHONPATH`` (each run is a
``python -m qme.cli`` child that inherits it), so the same script captures
another checkout by pointing ``PYTHONPATH`` at its ``src``;
``diff -r OUT_A OUT_B`` then shows every output that differs.

Runs:

- ``example``: all five commands on ``qme.config.EXAMPLE_CONFIG``;
- ``asym`` and ``tiles``: the asymmetric and multi-tile configurations of
  ``tests/test_golden.py``, with the commands its golden cases run;
- ``<workload>/<instance>``: the seed-1 inputs of every ``perfbench``
  workload, with the command lines ``perfbench/workloads.py`` builds for them.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "tests")]

import test_golden  # noqa: E402  (golden configurations)
import workloads  # noqa: E402  (perfbench input generator)
from qme.config import EXAMPLE_CONFIG  # noqa: E402

COMMANDS = ("validate", "counts", "entropy", "compare", "power")
WORKLOAD_SEED = 1


def run_cli(argv: list, case_dir: str) -> None:
    """Run ``qme`` with argv (whose ``--out`` is case_dir) and write its stdout
    and exit code next to its output files."""
    os.makedirs(case_dir, exist_ok=True)
    proc = subprocess.run([sys.executable, "-m", "qme.cli", *argv],
                          stdout=subprocess.PIPE, check=False)
    with open(os.path.join(case_dir, "stdout.txt"), "wb") as fh:
        fh.write(proc.stdout)
    with open(os.path.join(case_dir, "exit_code.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"{proc.returncode}\n")


def capture_config(text: str, commands, dest: str, scratch: str) -> None:
    config = os.path.join(scratch, os.path.basename(dest) + ".yaml")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(text)
    for command in commands:
        case_dir = os.path.join(dest, command)
        run_cli([command, "--config", config, "--out", case_dir], case_dir)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or os.path.exists(args[0]):
        print("usage: capture_outputs.py OUTDIR (a directory that does not exist yet)",
              file=sys.stderr)
        return 2
    out_root = os.path.abspath(args[0])
    golden = {}
    for config, subdir, command, _, _ in test_golden.CASES:
        if subdir:
            golden.setdefault((subdir, config), []).append(command)
    with tempfile.TemporaryDirectory() as scratch:
        capture_config(EXAMPLE_CONFIG, COMMANDS,
                       os.path.join(out_root, "example"), scratch)
        for (subdir, config), commands in golden.items():
            capture_config(config, commands, os.path.join(out_root, subdir), scratch)
        for workload in workloads.GENERATORS:
            inputs = os.path.join(scratch, workload)
            for instance in workloads.generate(workload, WORKLOAD_SEED, inputs):
                case_dir = os.path.join(out_root, workload, instance["name"])
                run_cli(workloads.cli_argv(instance, case_dir), case_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
