"""Output check for one CLI run: a digest of the semantic outputs plus invariants.

The digest covers counts, check rows, verdicts, estimates and the exit code,
read from the JSON outputs field by field, never file bytes, so a documented
column addition does not read as a change. Floats enter it rounded to 12
significant digits. Exit code 1 is the program's own check verdict and is
digested like any other output.
"""
from __future__ import annotations

import hashlib
import json
import math
import os

# count-check rows whose inequality holds for every exact cell by definition:
# r1 <= s1, r2 <= r1 and s2 <= s1
EXACT_INVARIANT_ROWS = ("sandwich_two_sided_lower", "variant_span", "variant_sep")


def _round(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, list):
        return [_round(v) for v in value]
    if isinstance(value, dict):
        return {k: _round(v) for k, v in value.items()}
    return value


def _estimate(est: dict) -> dict:
    def slopes(rows):
        return [[r["epsilon"], r["slope"], r["fit_points"], r["dropped_saturated"]]
                for r in rows]
    return {"counts": est["counts"], "extrapolated": est["extrapolated"],
            "slopes": slopes(est["per_epsilon_slopes"]),
            "spanning_slopes": slopes(est["spanning_slopes"]),
            "stabilized": est["stabilized"]}


def _estimate_problems(tag: str, est: dict, size: int) -> list:
    problems = []
    values = [est["extrapolated"]] + [r["slope"] for r in est["per_epsilon_slopes"]
                                      + est["spanning_slopes"]]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        problems.append(f"{tag}: non-finite estimate")
    for seq in est["counts"].values():
        for n, c in seq:
            if not 1 <= c <= size:
                problems.append(f"{tag}: count {c} at n={n} outside 1..{size}")
    return problems


def _load(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _entropy(out_dir: str, size: int):
    doc = _load(out_dir, "entropy.json")
    problems = []
    for variant, est in doc.items():
        problems += _estimate_problems(variant, est, size)
    return {v: _estimate(e) for v, e in doc.items()}, problems, None


def _compare(out_dir: str, size: int):
    doc = _load(out_dir, "compare.json")
    problems = []
    for row in doc["count_checks"]:
        lhs, rhs = row["lhs"], row["rhs"]
        tag = f"{row['name']} n={row['n']} eps={row['epsilon']}"
        if not (1 <= lhs <= size and 1 <= rhs <= size):
            problems.append(f"{tag}: count outside 1..{size}")
        holds = lhs == rhs if row["name"].startswith("max_metric_counts") else lhs <= rhs
        if row["ok"] != holds:
            problems.append(f"{tag}: ok={row['ok']} but lhs={lhs} rhs={rhs}")
        if row["exact"] and row["name"] in EXACT_INVARIANT_ROWS and lhs > rhs:
            problems.append(f"{tag}: exact cell breaks {lhs} <= {rhs}")
    for variant, est in doc["estimates"].items():
        problems += _estimate_problems(variant, est, size)
    semantic = {
        "count_checks": [[r["name"], r["n"], r["epsilon"], r["lhs"], r["rhs"],
                          r["ok"], r["exact"]] for r in doc["count_checks"]],
        "estimate_checks": [[c["name"], c["lhs"], c["rhs"], c["tol"], c["ok"]]
                            for c in doc["estimate_checks"]],
        "relations_identical": doc["relations_identical"],
        "estimates": {v: _estimate(e) for v, e in doc["estimates"].items()},
        "overall_ok": doc["overall_ok"],
    }
    return semantic, problems, doc["overall_ok"]


def _power(out_dir: str, size: int):
    doc = _load(out_dir, "power.json")
    problems = []
    for c in doc["cells"]:
        if not (1 <= c["lhs"] <= size and 1 <= c["rhs"] <= size):
            problems.append(f"power n={c['n']} eps={c['epsilon']}: count outside 1..{size}")
        if c["ok"] != (c["lhs"] <= c["rhs"]):
            problems.append(f"power n={c['n']} eps={c['epsilon']}: ok flag disagrees")
    for key in ("estimate_composed", "estimate_base"):
        problems += _estimate_problems(key, doc[key], size)
    if not (math.isfinite(doc["target"]) and math.isfinite(doc["tol"])):
        problems.append("power: non-finite target")
    semantic = {
        "cells": [[c["n"], c["epsilon"], c["lhs"], c["rhs"], c["ok"], c["exact"]]
                  for c in doc["cells"]],
        "estimate_composed": _estimate(doc["estimate_composed"]),
        "estimate_base": _estimate(doc["estimate_base"]),
        "target": doc["target"], "tol": doc["tol"],
        "estimates_ok": doc["estimates_ok"], "overall_ok": doc["overall_ok"],
    }
    return semantic, problems, doc["overall_ok"]


READERS = {"entropy": _entropy, "compare": _compare, "power": _power}


def check_outputs(command: str, out_dir: str, size: int, exit_code: int):
    """Return (digest, problems, summary) for one finished CLI run."""
    try:
        semantic, problems, overall_ok = READERS[command](out_dir, size)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return None, [f"unreadable outputs: {exc!r}"], {}
    if overall_ok is not None and exit_code != (0 if overall_ok else 1):
        problems.append(f"exit code {exit_code} disagrees with overall_ok={overall_ok}")
    blob = json.dumps({"exit": exit_code, "outputs": _round(semantic)},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16], problems, verdicts(semantic)


def verdicts(semantic: dict) -> dict:
    """The program's failing checks, recorded as data."""
    out = {}
    if "count_checks" in semantic:
        binding = {}
        for name, *_, ok, exact in semantic["count_checks"]:
            if exact and not ok:
                binding[name] = binding.get(name, 0) + 1
        out["binding_count_failures"] = binding
        out["failed_estimate_checks"] = [
            f"{name}: {lhs!r} vs {rhs!r} + {tol!r}"
            for name, lhs, rhs, tol, ok in semantic["estimate_checks"] if not ok]
        out["relations_identical"] = semantic["relations_identical"]
    if "cells" in semantic:
        out["estimate"] = (f"composed {semantic['estimate_composed']['extrapolated']!r} "
                           f"vs target {semantic['target']!r} +- {semantic['tol']!r}")
        out["estimates_ok"] = semantic["estimates_ok"]
    if "overall_ok" in semantic:
        out["overall_ok"] = semantic["overall_ok"]
    return out


def bytes_written(out_dir: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file())
