"""One measured process: set up qme, run the workload's CLI commands, report.

Usage: python3 child.py JOB_JSON SPAWN_MONOTONIC

Set-up runs from process start (the parent's monotonic clock reading just
before spawning) until ``import qme.cli`` and every instance's
``load_config`` have returned. The CLI then reuses those parsed configs, so
``wall_s`` (``cli.main`` entry to return, summed over instances) excludes
set-up. Peak RSS is this process's own ``ru_maxrss``. With ``trace`` set, the
layers are wrapped in spans (see tracing.py) that are written out at exit.
"""
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    spawned = float(sys.argv[2])
    sys.path.insert(0, job["src"])
    import qme.cli
    import qme.config
    if not os.path.abspath(qme.__file__).startswith(job["src"] + os.sep):
        raise SystemExit(f"imported qme from {qme.__file__}, not {job['src']}")

    tracer = None
    if job["trace"]:
        from tracing import Tracer
        tracer = Tracer()
    configs = {}
    for inst in job["instances"]:
        if tracer is not None:
            configs[inst["config"]] = tracer.call(
                "config.load_config", qme.config.load_config, (inst["config"],))
        else:
            configs[inst["config"]] = qme.config.load_config(inst["config"])
    setup_s = time.monotonic() - spawned
    result = {"setup_s": setup_s}

    if not job["probe"]:
        qme.cli.load_config = configs.__getitem__
        if tracer is not None:
            tracer.install()
        runs = []
        for inst in job["instances"]:
            run = {"raised": None}
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    run["exit"] = tracer.call("cli.main", qme.cli.main, (inst["argv"],))
                else:
                    run["exit"] = qme.cli.main(inst["argv"])
            except SystemExit as exc:
                run["exit"] = exc.code if isinstance(exc.code, int) else 1
                run["raised"] = f"SystemExit({exc.code!r})"
            except Exception:  # a crash is a counted failure, not the end of the run
                run["exit"] = None
                run["raised"] = traceback.format_exc()
            run["wall_s"] = time.perf_counter() - t0
            runs.append(run)
        result["runs"] = runs
        result["wall_s"] = sum(r["wall_s"] for r in runs)
        if tracer is not None:
            tracer.dump(job["spans"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
