"""Benchmark of the qme command line: three workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload doubling_greedy --seed 1 --seconds 30 --trace 0

Each measured run is a fresh child process (child.py) that sets up qme from
./src and runs the workload's CLI commands with --threads 2. Children run one
after another, at least two; the first one's duration sets how many fill
--seconds.

--trace 0 reports the end-to-end metrics over the children: wall_s
(cli.main entry to return) and setup_s (process start until qme is imported
and the configs and clouds are loaded; extra set-up-only children add
samples) as the minimum, peak_rss_mb (the child's own ru_maxrss) as the
median. Every child does the same work, and the host's speed drifts by up to
40% in bursts of seconds, which only ever adds time; the fastest child is the
figure that repeats from run to run.

--trace 1 alternates untraced and traced children and reports the per-layer
metrics of the traced ones (see tracing.py), plus trace.overhead_s: traced
wall minus the untraced median.

Every CLI run is checked (check.py). It fails if it raises, exits with code 3
or breaks an output invariant, if its output digest differs between children
of the run, or, at the default seed, from perfbench/reference.json. The last
line of standard output is one JSON object: correct, attempted, failed,
metrics. --record-reference rewrites the reference from a default-seed run.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import check
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 1
SETUP_PROBES = 9
RUN_BUDGET_S = 165.0  # the whole run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith(("_share", "parallelism")):
        return "ratio"
    return "count"


class Run:
    """One benchmark run: its inputs, children, checks and samples."""

    def __init__(self, workload: str, seed: int, work: str):
        self.work = work
        self.instances = workloads.generate(workload, seed, os.path.join(work, "inputs"))
        self.t_begin = time.monotonic()
        self.children = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}
        self.verdicts = {}
        self.reference = None
        if seed == DEFAULT_SEED and os.path.exists(REFERENCE):
            with open(REFERENCE, encoding="utf-8") as fh:
                self.reference = json.load(fh)["digests"].get(workload)

    def spawn(self, probe: bool, trace: bool):
        """Run one child to completion; return its result dict, or None if it died."""
        self.children += 1
        tag = f"child{self.children}"
        out_root = os.path.join(self.work, tag)
        os.makedirs(out_root)
        job = {
            "src": SRC, "probe": probe, "trace": trace,
            "result": os.path.join(out_root, "result.json"),
            "spans": os.path.join(out_root, "spans.json"),
            "instances": [dict(inst, argv=workloads.cli_argv(
                inst, os.path.join(out_root, inst["name"]))) for inst in self.instances],
        }
        job_path = os.path.join(out_root, "job.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        remaining = RUN_BUDGET_S - (time.monotonic() - self.t_begin)
        with open(os.path.join(out_root, "log.txt"), "w", encoding="utf-8") as log:
            spawned = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "child.py"), job_path,
                     repr(spawned)], cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(remaining, 1.0), check=False)
            except subprocess.TimeoutExpired:
                proc = None
        result = None
        if proc is not None and proc.returncode == 0:
            with open(job["result"], encoding="utf-8") as fh:
                result = json.load(fh)
        if result is None:
            with open(os.path.join(out_root, "log.txt"), encoding="utf-8") as fh:
                tail = fh.read()[-2000:]
            self.problems.append(f"{tag} died: {tail}")
        if not probe:
            self._check(tag, out_root, result)
        if result is not None and trace and not probe:
            with open(job["spans"], encoding="utf-8") as fh:
                result["spans"] = json.load(fh)
            result["bytes_written"] = sum(
                check.bytes_written(os.path.join(out_root, inst["name"]))
                for inst in self.instances)
        shutil.rmtree(out_root)
        return result

    def _check(self, tag: str, out_root: str, result) -> None:
        runs = result["runs"] if result is not None else [None] * len(self.instances)
        for inst, run in zip(self.instances, runs):
            self.attempted += 1
            name = inst["name"]
            reference = self.reference.get(name) if self.reference is not None else None
            digest, problems, verdict = judge(inst, run, os.path.join(out_root, name),
                                              self.digests.get(name), reference)
            if digest is not None:
                self.digests.setdefault(name, digest)
            if problems:
                self._fail(f"{tag}/{name}: " + "; ".join(problems[:5]))
            if run is not None:
                self.verdicts[name] = dict(exit=run["exit"], **verdict)

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


def judge(inst: dict, run, out_dir: str, first, reference):
    """Check one CLI run; any returned problem counts it as failed.

    first is the digest of this instance in the run's first child, reference
    the recorded default-seed digest; either may be None.
    """
    if run is None or run["raised"] or run["exit"] == 3:
        why = "no result" if run is None else (run["raised"] or "exit code 3")
        return None, [why], {}
    digest, problems, verdict = check.check_outputs(inst["command"][0], out_dir,
                                                    inst["size"], run["exit"])
    if first is not None and digest != first:
        problems.append(f"digest {digest} differs from first child's {first}")
    if reference is not None and digest != reference:
        problems.append(f"digest {digest} differs from reference {reference}")
    return digest, problems, verdict


def measure(run: Run, seconds: float, trace: bool) -> dict:
    run.spawn(probe=True, trace=False)  # warm-up: byte-compile, fill file cache
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            res = run.spawn(probe=True, trace=False)
            if res is not None:
                setups.append(res["setup_s"])
    # at least two children, so every run compares their digests; the first
    # child's duration sets how many fit in the requested seconds
    plain, traced = [], []
    wanted = 2
    spawned = 0
    while spawned < wanted:
        want_trace = trace and spawned % 2 == 1
        t0 = time.monotonic()
        res = run.spawn(probe=False, trace=want_trace)
        duration = time.monotonic() - t0
        spawned += 1
        if res is not None:
            (traced if want_trace else plain).append(res)
        if spawned == 1:
            wanted = max(wanted, round(seconds / duration))
        if time.monotonic() - run.t_begin + duration > RUN_BUDGET_S:
            break

    def med(values):
        return statistics.median(values) if values else float("nan")

    for label, group in (("untraced", plain), ("traced", traced)):
        if group:
            print(f"{label} children wall_s: "
                  + " ".join(f"{r['wall_s']:.3f}" for r in group))

    if not trace:
        setups += [r["setup_s"] for r in plain]
        return {"wall_s": min([r["wall_s"] for r in plain], default=float("nan")),
                "setup_s": min(setups, default=float("nan")),
                "peak_rss_mb": med([r["peak_rss_mb"] for r in plain])}

    per_child = [tracing.layer_metrics(r["spans"], r["bytes_written"]) for r in traced]
    metrics = {}
    for name in per_child[0] if per_child else ():
        values = [m[name] for m in per_child]
        if name in tracing.COUNTERS:
            if len(set(values)) > 1:
                run.problems.append(f"counter {name} differs between children: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = med(values)
    metrics["trace.overhead_s"] = (med([r["wall_s"] for r in traced])
                                   - med([r["wall_s"] for r in plain]))
    if traced:
        print("top self time (first traced child):")
        for name, secs in tracing.top_self_layers(traced[0]["spans"]):
            print(f"  {name:32s} {secs:9.3f} s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"store this run's digests as the seed-{DEFAULT_SEED} reference")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qme", "cli.py")):
        print(f"qme sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference and args.seed != DEFAULT_SEED:
        parser.error(f"--record-reference needs --seed {DEFAULT_SEED}")

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        run = Run(args.workload, args.seed, work)
        if args.record_reference:
            run.reference = None
        metrics = measure(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.record_reference and not run.failed:
        doc = {"seed": DEFAULT_SEED, "digests": {}}
        if os.path.exists(REFERENCE):
            with open(REFERENCE, encoding="utf-8") as fh:
                doc = json.load(fh)
        doc["digests"][args.workload] = run.digests
        with open(REFERENCE, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{run.children} children, {run.attempted} CLI runs, {run.failed} failed")
    for name, verdict in sorted(run.verdicts.items()):
        print(f"  verdict {name}: {json.dumps(verdict, sort_keys=True)}")
    for problem in run.problems[:20]:
        print(f"  FAILED {problem}")
    print(f"  failed_share {run.failed / max(run.attempted, 1)!r} ratio")
    for name, value in metrics.items():
        print(f"  {name} {value!r} {unit_of(name)}")
    correct = run.failed == 0 and not run.problems and run.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
