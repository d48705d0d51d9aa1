"""Seeded input generator: writes each workload's YAML configs and cloud CSVs.

The program under test receives only these files. Every value is a function
of the workload name and the seed, so the same seed gives the same inputs.
"""
from __future__ import annotations

import os

import numpy as np

THREADS = 2

# name -> one-line reason the workload is in the benchmark
WHY = {
    "doubling_greedy": "north-star acceptance run: N^2-heavy pairwise, Bowen max, "
                       "thresholding and greedy solvers on 4096 points, memory-bound, "
                       "no cell solved exactly",
    "asym_exact": "almost all time in the pure-Python exact branch-and-bound and "
                  "almost none in the N^2 layers: the opposite of doubling_greedy",
    "snap_power": "same layers used differently: nearest snapping runs an N^2 "
                  "max_of pairwise per orbit step and covering thresholds the "
                  "one-sided (OR) relation",
}

# Exact branch-and-bound cost on a random 64-point asym_exact cloud swings
# about 10x between draws (0.4 s to 7.7 s over 24 draws, one cell dominating),
# so no seeded draw of a few clouds gives a steady run. The run therefore
# solves one fixed 64-point cloud (draw 1, about 3.5 s of branch and bound)
# and, from the seed, three 40-point clouds that vary the inputs without
# setting the run's cost. One fixed cloud keeps a child short, so a run has
# several children to take the fastest of: at two threads the branch-and-bound
# thread and the greedy-seeding thread contend for the GIL, and the same inputs
# then differ by 10-30% from child to child.
ASYM_CORPUS_DRAWS = (1,)
ASYM_CORPUS_SIZE = 64
ASYM_SEEDED_SIZE = 40
ASYM_SEEDED_COUNT = 3


def _fmt_list(values) -> str:
    return "[" + ", ".join(repr(v) for v in values) + "]"


def _write_instance(dirname: str, command: list, yaml_text: str,
                    points: np.ndarray) -> dict:
    os.makedirs(dirname, exist_ok=True)
    with open(os.path.join(dirname, "cloud.csv"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{float(x)!r}\n" for x in points)
    config = os.path.join(dirname, "run.yaml")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(yaml_text)
    return {"name": os.path.basename(dirname), "config": config,
            "command": command, "size": int(len(points))}


def _lattice_draw(rng: np.random.Generator, bits: int, count: int) -> np.ndarray:
    """count distinct sorted points of the 2^-bits lattice of [0, 1]."""
    idx = rng.choice((1 << bits) + 1, size=count, replace=False)
    return np.sort(idx) / float(1 << bits)


def _doubling_greedy(seed: int, root: str) -> list:
    rng = np.random.default_rng([seed, 1])
    # circle [0, 1): 2^20 lattice points, 1.0 excluded
    idx = np.sort(rng.choice(1 << 20, size=4096, replace=False))
    eps = [2.0 ** -k for k in range(3, 8)]
    text = (
        "map: {kind: doubling}\n"
        "cloud: {kind: custom, path: cloud.csv}\n"
        "qmetric: {kind: circle_arc}\n"
        f"schedule: {{n_list: {_fmt_list(range(2, 10))}, eps_list: {_fmt_list(eps)}}}\n"
        "solver: {mode: auto}\n"
        "variants: [two_sided]\n"
        "output: {format: both}\n"
    )
    return [_write_instance(os.path.join(root, "circle4096"), ["entropy"], text,
                            idx / float(1 << 20))]


def _asym_text() -> str:
    eps = [0.5 / 2 ** k for k in range(6)]
    return (
        "map: {kind: tent}\n"
        "cloud: {kind: custom, path: cloud.csv}\n"
        "qmetric: {kind: weighted_asym, alpha: 0.5, beta: 2.0}\n"
        f"schedule: {{n_list: {_fmt_list(range(1, 9))}, eps_list: {_fmt_list(eps)}}}\n"
        "solver: {mode: auto}\n"
        "output: {format: both}\n"
    )


def _asym_exact(seed: int, root: str) -> list:
    out = []
    for draw in ASYM_CORPUS_DRAWS:
        pts = _lattice_draw(np.random.default_rng(draw), 16, ASYM_CORPUS_SIZE)
        out.append(_write_instance(os.path.join(root, f"corpus{draw}"),
                                   ["compare"], _asym_text(), pts))
    rng = np.random.default_rng([seed, 2])
    for k in range(ASYM_SEEDED_COUNT):
        pts = _lattice_draw(rng, 16, ASYM_SEEDED_SIZE)
        out.append(_write_instance(os.path.join(root, f"seeded{k}"),
                                   ["compare"], _asym_text(), pts))
    return out


def _snap_power(seed: int, root: str) -> list:
    # 2^-40 is the library's exactness quantum
    rng = np.random.default_rng([seed, 3])
    pts = _lattice_draw(rng, 40, 2048)
    eps = [2.0 ** -k for k in range(2, 5)]
    text = (
        "map: {kind: logistic, r: 4.0}\n"
        "cloud: {kind: custom, path: cloud.csv}\n"
        "qmetric: {kind: weighted_asym, alpha: 0.5, beta: 2.0}\n"
        f"schedule: {{n_list: {_fmt_list(range(2, 6))}, eps_list: {_fmt_list(eps)}}}\n"
        "orbits: {snap_mode: nearest}\n"
        "solver: {mode: auto}\n"
        "output: {format: both}\n"
    )
    return [_write_instance(os.path.join(root, "logistic2048"), ["power", "-m", "2"],
                            text, pts)]


GENERATORS = {
    "doubling_greedy": _doubling_greedy,
    "asym_exact": _asym_exact,
    "snap_power": _snap_power,
}


def generate(workload: str, seed: int, root: str) -> list:
    """Write the workload's inputs under root; return one dict per CLI run:
    name, config path, command words (subcommand and its own flags) and size."""
    return GENERATORS[workload](seed, root)


def cli_argv(instance: dict, out_dir: str) -> list:
    return (instance["command"][:1] + ["--config", instance["config"],
                                       "--out", out_dir, "--threads", str(THREADS)]
            + instance["command"][1:])
