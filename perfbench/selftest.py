"""Self-test of the output check: corrupted outputs must count as failed.

Run from the repository root: python3 perfbench/selftest.py

Solves one small compare instance with the real CLI, confirms that its
outputs pass, then corrupts a copy of them in several ways and confirms that
``judge`` (the check every benchmark CLI run goes through) fails each one.
Exits 0 when every corruption is caught.
"""
import contextlib
import io
import json
import os
import shutil
import sys

import numpy as np

import run
import workloads


def _edit_compare(change):
    def corrupt(out_dir):
        path = os.path.join(out_dir, "compare.json")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        change(doc)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return corrupt


def _bump_count(doc):
    doc["count_checks"][0]["lhs"] = 10 ** 6


def _flip_check(doc):
    doc["count_checks"][0]["ok"] = not doc["count_checks"][0]["ok"]


def _break_exact_sandwich(doc):
    # consistent ok flag, so only the r1 <= s1 invariant on exact cells sees it
    row = next(r for r in doc["count_checks"]
               if r["name"] == "sandwich_two_sided_lower" and r["exact"])
    row["lhs"], row["ok"] = row["rhs"] + 1, False


def _nudge_estimate(doc):
    doc["estimates"]["two_sided"]["extrapolated"] += 1e-3


def _nan_estimate(doc):
    doc["estimates"]["one_sided"]["extrapolated"] = float("nan")


def _flip_verdict(doc):
    doc["overall_ok"] = not doc["overall_ok"]


def _remove(out_dir):
    os.remove(os.path.join(out_dir, "compare.json"))


# name -> (change to the output files or None, change to the run record)
CASES = {
    "count above cloud size": (_edit_compare(_bump_count), {}),
    "ok flag contradicts counts": (_edit_compare(_flip_check), {}),
    "exact cell with r1 > s1": (_edit_compare(_break_exact_sandwich), {}),
    "estimate changed": (_edit_compare(_nudge_estimate), {}),
    "non-finite estimate": (_edit_compare(_nan_estimate), {}),
    "verdict contradicts exit code": (_edit_compare(_flip_verdict), {}),
    "missing output file": (_remove, {}),
    "exit code 3": (None, {"exit": 3}),
    "raised": (None, {"raised": "RuntimeError()"}),
}


def main() -> int:
    sys.path.insert(0, run.SRC)
    import qme.cli

    work = os.path.join(run.ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    caught = 0
    try:
        inst = workloads._write_instance(os.path.join(work, "small"), ["compare"],
                                         workloads._asym_text(),
                                         np.arange(1, 25) / 32.0)
        clean = os.path.join(work, "clean")
        with contextlib.redirect_stdout(io.StringIO()):
            code = qme.cli.main(workloads.cli_argv(inst, clean))
        record = {"exit": code, "raised": None}
        digest, problems, _ = run.judge(inst, record, clean, None, None)
        if problems or digest is None:
            print(f"FAIL: clean outputs rejected: {problems}")
            return 1
        for k, (name, (corrupt, change)) in enumerate(CASES.items()):
            out = clean
            if corrupt is not None:
                out = os.path.join(work, f"bad{k}")
                shutil.copytree(clean, out)
                corrupt(out)
            _, problems, _ = run.judge(inst, dict(record, **change), out, digest, None)
            caught += bool(problems)
            print(f"{'caught' if problems else 'MISSED'}: {name}: {problems[:1]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"self-test: {caught}/{len(CASES)} corruptions counted as failed")
    return 0 if caught == len(CASES) else 1


if __name__ == "__main__":
    sys.exit(main())
