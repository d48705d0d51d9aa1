"""Run one qme CLI command line in a fresh child process and report its cost.

Usage::

    PYTHONPATH=src python tools/rusage.py power --config run.yaml --out OUT -m 2

The arguments are those of ``qme`` (``python -m qme.cli``), which the child
imports from ``PYTHONPATH``, so pointing ``PYTHONPATH`` at another checkout's
``src`` measures that checkout. The script prints one JSON line: the
command's arguments and exit code, its wall time (from spawn to reaping),
user and system CPU time, minor and major page faults, and peak RSS, all
read from the child's own ``wait4`` resource usage. The child's stdout and
stderr are discarded.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def measure(args: list) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "qme.cli", *args],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "argv": args,
        "exit_code": proc.returncode,
        "wall_s": round(wall, 4),
        "user_s": round(usage.ru_utime, 4),
        "sys_s": round(usage.ru_stime, 4),
        "minor_faults": usage.ru_minflt,
        "major_faults": usage.ru_majflt,
        "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 2),  # ru_maxrss is in KiB on Linux
    }


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if not args or args[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if args else 2
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
