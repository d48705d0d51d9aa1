"""Capture the CLI's observable outputs on fixed inputs, for byte-identity diffs.

Usage::

    PYTHONPATH=src python tools/capture_outputs.py OUTDIR
    PYTHONPATH=src python tools/capture_outputs.py --digests

OUTDIR must not exist yet. For every run below the script writes
``OUTDIR/<case>/<command>/``: ``stdout.txt``, ``exit_code.txt`` and every file
the command wrote. ``qme`` is imported from ``PYTHONPATH`` (each run is a
``python -m qme.cli`` child that inherits it), so the same script captures
another checkout by pointing ``PYTHONPATH`` at its ``src``;
``diff -r OUT_A OUT_B`` then shows every output that differs.

``--digests`` captures into a temporary directory and rewrites
``tests/golden/capture_digests.json``, one SHA-256 per captured file, which
``tests/test_capture_digests.py`` compares on every test run. Regenerate it
only with a change that alters outputs on purpose, and name the files whose
digests changed.

Runs:

- ``example``: all five commands on ``qme.config.EXAMPLE_CONFIG``;
- ``asym`` and ``tiles``: the asymmetric and multi-tile configurations of
  ``tests/test_golden.py``, with the commands its golden cases run;
- ``snap_ties``: ``counts`` and ``power`` on a shuffled 300-point custom
  cloud under ``asym_line`` with the tent map and nearest snapping. Every
  pair of distinct points is at max-symmetrized distance 1 there, so an
  image that is not a cloud point ties with every point and snaps to the
  lowest id, the first row of the CSV;
- ``pruning``: ``counts``, ``entropy`` (both variants) and ``compare`` on a
  600-point grid (three row tiles) under the tent map and the hinge rule,
  over the gapped n schedule 1, 4, 7 and an eps list whose largest value
  comes first (the configuration requires each eps to halve). Pairs above
  the largest eps leave the live set between scheduled n, and one_sided
  keeps pairs that two_sided drops. ``compare`` adds the max_metric counts,
  the mean_metric pairing, whose pairs stay live while their mean is within
  the largest eps, and ``relations_identical`` on the same cloud; it exits 1
  there, on its estimate checks;
- ``lone_pairings``: ``entropy`` on the 600-point grid of ``pruning``
  (tent map, hinge rule, three row tiles) with ``variants``
  ``[mean_metric]``, ``[two_sided]`` and ``[two_sided, mean_metric]``, in
  ``lone_pairings/<variants joined by _>/``. No pairing set without
  one_sided runs in another case, and each of these keeps its own set of
  eps bins per live pair;
- ``symmetric``: ``counts``, ``entropy`` (all four variants) and ``compare``
  on a 600-point circle grid (three row tiles) under the doubling map and
  ``circle_arc``, over the gapped n schedule 1, 4, 7. The rule is symmetric,
  so each live pair is evaluated once and all three pairings and the
  max_metric counts come from one direction's distances and one eps bin;
- ``late_start``: ``counts`` and ``compare`` on the 600-point grid of
  ``pruning`` (tent map, hinge rule, both pairings) over the n schedule 4, 6,
  8. Orbit steps 0..3 run before the first scheduled n, on every pair of
  every block, and evaluate the asymmetric rule in both directions.
  ``compare`` exits 1 there, on its estimate checks;
- ``repeats_asym``: ``counts``, both pairings, on 600 sorted distinct
  points of the 2^-20 lattice of [0, 1) (three row tiles) under the doubling
  map and the hinge rule, with n = 1..8 and eps = 2^-2..2^-6. Of the 80
  (cell, pairing) relations 53 are distinct: a relation repeats across n,
  and the two_sided one at eps equals the one_sided one at eps / 4, so
  results are reused across cells and across the two pairings;
- ``many_eps``: ``counts`` and ``compare`` on the 33-point grid of the
  ``asym`` case (tent map, hinge rule), both pairings, over 300 halving eps
  from 1/2 down. More than 255 eps take two-byte bins. The grid's orbits
  stay on the 1/32 lattice, so many distances equal an eps exactly, and
  below 1/64 every relation is the diagonal alone. ``compare`` exits 1
  there, on ``sandwich_one_sided_upper`` at n=2, eps=0.5, as in ``asym``;
- ``<workload>/<instance>``: the seed-1 inputs of every ``perfbench``
  workload, with the command lines ``perfbench/workloads.py`` builds for them;
- ``asym_exact_counts/<instance>``: ``counts`` on the same asym_exact inputs.
  Their ``compare`` runs write no witnesses; ``counts.json`` holds every
  exactly solved cell's witness, ``optimal`` flag and node count;
- ``doubling_counts``: ``counts`` on the seed-1 doubling_greedy cloud (4096
  points, ``circle_arc``). ``counts`` solves both pairings, which share the
  symmetric rule's relations, whatever the config's ``variants``. Its
  ``entropy`` run writes no witnesses; here every cell's greedy cover and
  separated set is byte-diffed, on fine relations where many points tie at
  the largest gain;
- ``far_blocks``: ``counts`` (both pairings) on sorted clouds of at least
  three row tiles whose far blocks start empty, their floors above the
  largest eps: the hinge rule (alpha 0.5, beta 2.0) on an 800-point grid
  under the tent map with largest eps 1/16 (``hinge``), ``asym_line`` on the
  same grid (``asym_line``), ``euclidean`` on 800 points of the plane sorted
  by their first coordinate under the identity map (``euclidean_2d``);
- ``violations``: ``validate`` on a 3-point ``indices`` cloud under an inline
  ``matrix`` rule that breaks the triangle inequality (d(0, 2) = 5 > 1 + 1),
  once with an exhaustive triple budget (``exhaustive``) and once with a
  sampled one (``sampled``). Both find violations, so the violation tuples of
  ``axiom_report.json`` and the printed violation lines are byte-diffed;
- ``axioms_offlattice``: ``validate`` under the hinge rule (alpha 0.5, beta
  2.0) at the default budget of 200,000 sampled triples, on the step-1
  logistic images ``4x(1 - x)`` of the seed-1 ``snap_power`` cloud,
  deduplicated and written as a custom CSV. The images leave the 2^-40
  lattice, so about 1% of the drawn triples break the triangle inequality
  by one ulp, and the 2,048-point cloud spans 512 distance blocks and 25
  triple slices: the violation list is long and every entry is byte-diffed;
- ``hinge_blocks``: ``counts`` (both pairings), ``power`` (m = 2) and
  ``validate`` on the 729 symbol blocks of alphabet 3 and length 6 (three row
  tiles) under the left shift and the hinge rule (alpha 0.5, beta 2.0), with
  nearest snapping, n = 1..4 and eps 8, 4, 2, 1. It is the one case whose
  hinge rule sums over more than one coordinate, in both directions at once
  (``quasimetric.paired_both``), in orbit steps, snapping and ``validate``;
- ``snap_floors``: ``counts`` (both pairings) and ``power`` (m = 2) with
  nearest snapping on a sorted 1,000-point circle grid under the doubling
  map and ``circle_arc``, with n = 1..4 and eps 1/8, 1/16, 1/32. Doubling
  sends the points just below 1/2 near 1 and those just above near 0, so
  their snap blocks straddle the wrap, and the arc floors between tiles at
  the two ends of [0, 1) are taken across it;
- ``index_widths``: ``counts`` on circle grids of 256 and 257 points under
  the tent map and the hinge rule, both pairings. Relation columns take one
  byte up to 256 points and two beyond, so the boundary is byte-diffed;
- ``formats``: ``counts``, ``entropy``, ``compare`` and ``power`` on
  ``qme.config.EXAMPLE_CONFIG`` with ``--format csv`` and with ``--format
  json``, in ``formats/<format>/<command>/``. Every other case writes both
  formats, so this one pins which files each format writes;
- ``block_rules``: ``counts`` (both pairings) on the 32 symbol blocks of
  alphabet 2 and length 5 under the left shift, with ``block_prefix``
  (``block_rules/block_prefix``) and with ``block_prefix_asym``
  (``block_rules/block_prefix_asym``);
- ``matrix_csv``: ``counts`` (both pairings) and ``validate`` (exhaustive,
  12^3 triples) on a 12-point ``indices`` cloud under the identity map and a
  random asymmetric ``matrix`` rule read from a CSV ``path``, which breaks
  the triangle inequality, and ``validate`` on 500 triples sampled with
  ``--seed 5`` (``matrix_csv/seeded``), whose violations differ from those
  of the default seed;
- ``affine_line``: ``counts`` (both pairings) on a 33-point grid of [0, 1]
  under the ``affine`` map x -> 2x - 1/2 and one-dimensional ``euclidean``;
- ``exact_wide``: ``counts`` (both pairings) on an 80-point circle grid
  under the doubling map and ``circle_arc`` with ``--exact-threshold 80``:
  every cell is solved exactly on relations wider than one 64-bit word;
- ``power_undeclared``: ``power`` (m = 2) on a 33-point grid under the tent
  map with ``declared_uniformly_continuous: false``, which exits 2;
- ``golden_mean``: ``entropy`` (two_sided) under the doubling map and
  ``circle_arc`` on 4,096 of the 24-bit words with no two adjacent 1s,
  drawn with ``default_rng(1)``, sorted and divided by 2^24, with n = 2..9
  and eps = 2^-3..2^-7, the cloud of acceptance criterion 13. Doubling
  shifts the bits, so the cloud keeps the golden-mean shift, whose entropy
  is log phi;
- ``errors``: ``qme --help``, ``power -m 0``, ``counts --exact-threshold -1``
  and ``validate --seed -1`` on the example configuration, ``validate`` on
  it with ``validate.triple_budget: 0``, ``entropy`` on it with the misspelt
  key ``fit.n_brun`` (``unknown_key``), ``compare`` on it with
  ``tolerances.estimator_tol: true`` (``boolean_number``) and ``counts`` on
  it with ``map.r: 3.0``, a key the doubling map does not read
  (``kind_key``). All but the first are configuration errors, exit code 3. These runs also keep their
  stderr, in ``stderr.txt``, so the exit-3 messages are byte-diffed.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "tests")]

import test_golden  # noqa: E402  (golden configurations)
import workloads  # noqa: E402  (perfbench input generator)
import numpy as np  # noqa: E402
import yaml  # noqa: E402
from qme.config import EXAMPLE_CONFIG  # noqa: E402

DIGESTS = os.path.join(ROOT, "tests", "golden", "capture_digests.json")
COMMANDS = ("validate", "counts", "entropy", "compare", "power")
# the commands whose files depend on --format, and its single-format values
FORMAT_COMMANDS = ("counts", "entropy", "compare", "power")
FORMATS = ("csv", "json")
WORKLOAD_SEED = 1
# workloads whose inputs also run ``counts``, to capture exact witnesses
COUNTS_WORKLOADS = ("asym_exact",)

SNAP_TIES_CONFIG = """\
map: {kind: tent}
cloud: {kind: custom, path: snap_ties.csv}
qmetric: {kind: asym_line}
schedule: {n_list: [1, 2, 3, 4], eps_list: [1.0, 0.5, 0.25, 0.125]}
orbits: {snap_mode: nearest}
output: {format: both}
"""


PRUNING_CONFIG = """\
map: {kind: tent}
cloud: {kind: grid1d, lo: 0.0, hi: 1.0, count: 600}
qmetric: {kind: weighted_asym, alpha: 0.5, beta: 2.0}
schedule: {n_list: [1, 4, 7], eps_list: [0.25, 0.125, 0.0625]}
variants: [two_sided, one_sided]
fit: {n_burn: 1}
output: {format: both}
"""


SYMMETRIC_CONFIG = """\
map: {kind: doubling}
cloud: {kind: circle_grid, count: 600}
qmetric: {kind: circle_arc}
schedule: {n_list: [1, 4, 7], eps_list: [0.25, 0.125, 0.0625]}
variants: [two_sided, one_sided, mean_metric, max_metric]
fit: {n_burn: 1}
output: {format: both}
"""


# the pairing sets without one_sided, each run as the variants of ``pruning``
LONE_PAIRINGS = (["mean_metric"], ["two_sided"], ["two_sided", "mean_metric"])


LATE_START_CONFIG = PRUNING_CONFIG.replace("n_list: [1, 4, 7]", "n_list: [4, 6, 8]")


REPEATS_ASYM_CONFIG = """\
map: {kind: doubling}
cloud: {kind: custom, path: repeats_asym.csv}
qmetric: {kind: weighted_asym, alpha: 0.5, beta: 2.0}
schedule: {n_list: [1, 2, 3, 4, 5, 6, 7, 8], eps_list: [0.25, 0.125, 0.0625, 0.03125, 0.015625]}
variants: [two_sided, one_sided]
output: {format: both}
"""


MANY_EPS_CONFIG = """\
map: {kind: tent}
cloud: {kind: grid1d, lo: 0.0, hi: 1.0, count: 33}
qmetric: {kind: weighted_asym, alpha: 0.5, beta: 2.0}
schedule: {n_list: [1, 2, 3], eps_list: %s}
variants: [two_sided, one_sided]
fit: {n_burn: 1}
output: {format: both}
""" % [2.0 ** -k for k in range(1, 301)]


FAR_BLOCKS_CONFIGS = {
    "hinge": """\
map: {kind: tent}
cloud: {kind: grid1d, lo: 0.0, hi: 1.0, count: 800}
qmetric: {kind: weighted_asym, alpha: 0.5, beta: 2.0}
schedule: {n_list: [1, 2, 3], eps_list: [0.0625, 0.03125, 0.015625]}
output: {format: both}
""",
    "asym_line": """\
map: {kind: tent}
cloud: {kind: grid1d, lo: 0.0, hi: 1.0, count: 800}
qmetric: {kind: asym_line}
schedule: {n_list: [1, 2, 3], eps_list: [0.25, 0.125, 0.0625]}
output: {format: both}
""",
    "euclidean_2d": """\
map: {kind: identity}
cloud: {kind: custom, path: far_blocks_plane.csv}
qmetric: {kind: euclidean}
schedule: {n_list: [1, 2], eps_list: [0.125, 0.0625, 0.03125]}
output: {format: both}
""",
}


HINGE_BLOCKS_CONFIG = """\
map: {kind: shift_left}
cloud: {kind: symbol_blocks, alphabet: 3, length: 6}
qmetric: {kind: weighted_asym, alpha: 0.5, beta: 2.0}
schedule: {n_list: [1, 2, 3, 4], eps_list: [8.0, 4.0, 2.0, 1.0]}
variants: [two_sided, one_sided]
orbits: {snap_mode: nearest}
power: {m: 2}
output: {format: both}
"""


VIOLATIONS_CONFIG = """\
map: {kind: identity}
cloud: {kind: indices, count: 3}
qmetric: {kind: matrix, rows: [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}
schedule: {n_list: [1, 2, 3], eps_list: [0.5, 0.25]}
validate: {triple_budget: %d}
"""
# 3^3 = 27 triples: the first budget checks all of them, the second samples
VIOLATIONS_BUDGETS = {"exhaustive": 27, "sampled": 26}

INDEX_WIDTHS_CONFIG = """\
map: {kind: tent}
cloud: {kind: circle_grid, count: %d}
qmetric: {kind: weighted_asym, alpha: 0.5, beta: 2.0}
schedule: {n_list: [1, 3, 5], eps_list: [0.25, 0.125, 0.0625]}
variants: [two_sided, one_sided]
output: {format: both}
"""
# the largest point counts whose relation columns fit one byte, and two
INDEX_WIDTHS_SIZES = (256, 257)

OFFLATTICE_CONFIG = """\
map: {kind: identity}
cloud: {kind: custom, path: offlattice.csv}
qmetric: {kind: weighted_asym, alpha: 0.5, beta: 2.0}
schedule: {n_list: [1, 2, 3], eps_list: [0.5, 0.25]}
"""

BLOCK_RULES = ("block_prefix", "block_prefix_asym")
BLOCK_RULES_CONFIG = """\
map: {kind: shift_left}
cloud: {kind: symbol_blocks, alphabet: 2, length: 5}
qmetric: {kind: %s}
schedule: {n_list: [1, 2, 3], eps_list: [1.0, 0.5, 0.25]}
variants: [two_sided, one_sided]
output: {format: both}
"""

MATRIX_CSV_CONFIG = """\
map: {kind: identity}
cloud: {kind: indices, count: 12}
qmetric: {kind: matrix, path: matrix_csv.csv}
schedule: {n_list: [1, 2, 3], eps_list: [0.5, 0.25, 0.125]}
variants: [two_sided, one_sided]
output: {format: both}
"""

AFFINE_LINE_CONFIG = """\
map: {kind: affine, a: 2.0, b: -0.5}
cloud: {kind: grid1d, lo: 0.0, hi: 1.0, count: 33}
qmetric: {kind: euclidean}
schedule: {n_list: [1, 2, 3], eps_list: [0.25, 0.125, 0.0625]}
variants: [two_sided, one_sided]
output: {format: both}
"""

EXACT_WIDE_CONFIG = """\
map: {kind: doubling}
cloud: {kind: circle_grid, count: 80}
qmetric: {kind: circle_arc}
schedule: {n_list: [1, 2, 3], eps_list: [0.125, 0.0625, 0.03125]}
variants: [two_sided, one_sided]
output: {format: both}
"""

SNAP_FLOORS_CONFIG = """\
map: {kind: doubling}
cloud: {kind: circle_grid, count: 1000}
qmetric: {kind: circle_arc}
schedule: {n_list: [1, 2, 3, 4], eps_list: [0.125, 0.0625, 0.03125]}
variants: [two_sided, one_sided]
orbits: {snap_mode: nearest}
power: {m: 2}
output: {format: both}
"""

POWER_UNDECLARED_CONFIG = """\
map: {kind: tent, declared_uniformly_continuous: false}
cloud: {kind: grid1d, lo: 0.0, hi: 1.0, count: 33}
qmetric: {kind: asym_line}
schedule: {n_list: [1, 2, 3, 4], eps_list: [0.25, 0.125]}
fit: {n_burn: 1}
power: {m: 2}
output: {format: both}
"""

GOLDEN_MEAN_CONFIG = """\
map: {kind: doubling}
cloud: {kind: custom, path: golden_mean.csv}
qmetric: {kind: circle_arc}
schedule: {n_list: [2, 3, 4, 5, 6, 7, 8, 9], eps_list: %s}
variants: [two_sided]
output: {format: both}
""" % [2.0 ** -k for k in range(3, 8)]


def run_cli(argv: list, case_dir: str, stderr: bool = False) -> None:
    """Run ``qme`` with argv (whose ``--out`` is case_dir) and write its stdout
    and exit code, and its stderr when asked, next to its output files."""
    os.makedirs(case_dir, exist_ok=True)
    proc = subprocess.run([sys.executable, "-m", "qme.cli", *argv],
                          stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE if stderr else None, check=False)
    with open(os.path.join(case_dir, "stdout.txt"), "wb") as fh:
        fh.write(proc.stdout)
    if stderr:
        with open(os.path.join(case_dir, "stderr.txt"), "wb") as fh:
            fh.write(proc.stderr)
    with open(os.path.join(case_dir, "exit_code.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"{proc.returncode}\n")


def write_config(text: str, name: str, scratch: str) -> str:
    config = os.path.join(scratch, name + ".yaml")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(text)
    return config


def capture_config(text: str, commands, dest: str, scratch: str, flags=()) -> None:
    config = write_config(text, os.path.basename(dest), scratch)
    for command in commands:
        case_dir = os.path.join(dest, command)
        run_cli([command, "--config", config, *flags, "--out", case_dir], case_dir)


def capture_snap_ties(dest: str, scratch: str) -> None:
    """Nearest snapping decided by lowest-id ties on a cloud whose ids are
    not in coordinate order."""
    rng = np.random.default_rng(7)
    pts = rng.choice(1025, size=300, replace=False) / 1024.0  # in random order
    with open(os.path.join(scratch, "snap_ties.csv"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{float(x)!r}\n" for x in pts)
    capture_config(SNAP_TIES_CONFIG, ("counts", "power"), dest, scratch)


def capture_repeats_asym(dest: str, scratch: str) -> None:
    """Relations that repeat across n and across the two pairings of an
    asymmetric rule."""
    rng = np.random.default_rng(3)
    pts = np.sort(rng.choice(1 << 20, size=600, replace=False)) / 2.0 ** 20
    with open(os.path.join(scratch, "repeats_asym.csv"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{float(x)!r}\n" for x in pts)
    capture_config(REPEATS_ASYM_CONFIG, ("counts",), dest, scratch)


def capture_doubling_counts(dest: str, scratch: str) -> None:
    """Greedy witnesses of both pairings on the doubling_greedy cloud."""
    [instance] = workloads.generate("doubling_greedy", WORKLOAD_SEED,
                                    os.path.join(scratch, "doubling_counts"))
    run_cli(workloads.cli_argv({**instance, "command": ["counts"]}, dest), dest)


def capture_far_blocks(dest: str, scratch: str) -> None:
    """Sorted clouds whose far blocks the step-0 floors skip."""
    rng = np.random.default_rng(5)
    x = np.sort(rng.choice(1 << 20, size=800, replace=False)) / 2.0 ** 20
    y = rng.choice(1 << 20, size=800) / 2.0 ** 20
    with open(os.path.join(scratch, "far_blocks_plane.csv"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, y))
    for name, text in FAR_BLOCKS_CONFIGS.items():
        capture_config(text, ("counts",), os.path.join(dest, name), scratch)


def capture_golden_mean(dest: str, scratch: str) -> None:
    """Entropy on a sample of the golden-mean shift inside the doubling circle."""
    words = np.array([0])
    for _ in range(24):  # append a 0 to every word, and a 1 to those ending in 0
        words = np.concatenate([words << 1, (words[(words & 1) == 0] << 1) | 1])
    sample = np.random.default_rng(1).choice(np.sort(words), 4096, replace=False)
    with open(os.path.join(scratch, "golden_mean.csv"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{float(x)!r}\n" for x in np.sort(sample) / 2.0 ** 24)
    capture_config(GOLDEN_MEAN_CONFIG, ("entropy",), dest, scratch)


def capture_offlattice(dest: str, scratch: str) -> None:
    """Axioms on the logistic map's first images of the snap_power cloud,
    whose distances round off the lattice."""
    [instance] = workloads.generate("snap_power", WORKLOAD_SEED,
                                    os.path.join(scratch, "offlattice"))
    x = np.loadtxt(os.path.join(os.path.dirname(instance["config"]), "cloud.csv"))
    images = np.unique(4.0 * x * (1.0 - x))
    with open(os.path.join(scratch, "offlattice.csv"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{float(v)!r}\n" for v in images)
    capture_config(OFFLATTICE_CONFIG, ("validate",), dest, scratch)


def capture_matrix_csv(dest: str, scratch: str) -> None:
    """A lookup-table rule read from a CSV file."""
    rng = np.random.default_rng(9)
    table = rng.integers(1, 9, size=(12, 12)) / 8.0
    np.fill_diagonal(table, 0.0)
    with open(os.path.join(scratch, "matrix_csv.csv"), "w", encoding="utf-8") as fh:
        fh.write("qmetric,v1,12\n")
        fh.writelines(",".join(repr(float(v)) for v in row) + "\n" for row in table)
    capture_config(MATRIX_CSV_CONFIG, ("counts", "validate"), dest, scratch)
    capture_config(MATRIX_CSV_CONFIG + "validate: {triple_budget: 500}\n", ("validate",),
                   os.path.join(dest, "seeded"), scratch, flags=("--seed", "5"))


def capture_formats(dest: str, scratch: str) -> None:
    """The files each single --format value writes."""
    config = write_config(EXAMPLE_CONFIG, "formats", scratch)
    for fmt in FORMATS:
        for command in FORMAT_COMMANDS:
            case_dir = os.path.join(dest, fmt, command)
            run_cli([command, "--config", config, "--format", fmt,
                     "--out", case_dir], case_dir)


def capture_errors(dest: str, scratch: str) -> None:
    """Help text and the exit codes of rejected inputs."""
    example = write_config(EXAMPLE_CONFIG, "errors_example", scratch)
    run_cli(["--help"], os.path.join(dest, "help"), stderr=True)
    for name, argv in (("power_m_0", ["power", "-m", "0"]),
                       ("exact_threshold_negative", ["counts", "--exact-threshold", "-1"]),
                       ("seed_negative", ["validate", "--seed", "-1"])):
        case_dir = os.path.join(dest, name)
        run_cli([*argv, "--config", example, "--out", case_dir], case_dir, stderr=True)
    # (case, command, section, key, value): the example with one key set
    for name, command, section, key, value in (
            ("triple_budget_0", "validate", "validate", "triple_budget", 0),
            ("unknown_key", "entropy", "fit", "n_brun", 5),
            ("boolean_number", "compare", "tolerances", "estimator_tol", True),
            ("kind_key", "counts", "map", "r", 3.0)):
        doc = yaml.safe_load(EXAMPLE_CONFIG)
        doc[section][key] = value
        config = write_config(yaml.safe_dump(doc), "errors_" + name, scratch)
        case_dir = os.path.join(dest, name)
        run_cli([command, "--config", config, "--out", case_dir], case_dir, stderr=True)


def capture(out_root: str) -> None:
    """Run every case into out_root."""
    golden = {}
    for config, subdir, command, _, _ in test_golden.CASES:
        if subdir:
            golden.setdefault((subdir, config), []).append(command)
    with tempfile.TemporaryDirectory() as scratch:
        capture_config(EXAMPLE_CONFIG, COMMANDS,
                       os.path.join(out_root, "example"), scratch)
        for (subdir, config), commands in golden.items():
            capture_config(config, commands, os.path.join(out_root, subdir), scratch)
        capture_snap_ties(os.path.join(out_root, "snap_ties"), scratch)
        capture_config(PRUNING_CONFIG, ("counts", "entropy", "compare"),
                       os.path.join(out_root, "pruning"), scratch)
        for variants in LONE_PAIRINGS:
            config = PRUNING_CONFIG.replace("[two_sided, one_sided]", f"[{', '.join(variants)}]")
            capture_config(config, ("entropy",),
                           os.path.join(out_root, "lone_pairings", "_".join(variants)), scratch)
        capture_config(SYMMETRIC_CONFIG, ("counts", "entropy", "compare"),
                       os.path.join(out_root, "symmetric"), scratch)
        capture_config(LATE_START_CONFIG, ("counts", "compare"),
                       os.path.join(out_root, "late_start"), scratch)
        capture_repeats_asym(os.path.join(out_root, "repeats_asym"), scratch)
        capture_config(MANY_EPS_CONFIG, ("counts", "compare"),
                       os.path.join(out_root, "many_eps"), scratch)
        for workload in workloads.GENERATORS:
            inputs = os.path.join(scratch, workload)
            for instance in workloads.generate(workload, WORKLOAD_SEED, inputs):
                case_dir = os.path.join(out_root, workload, instance["name"])
                run_cli(workloads.cli_argv(instance, case_dir), case_dir)
                if workload in COUNTS_WORKLOADS:
                    case_dir = os.path.join(out_root, workload + "_counts",
                                            instance["name"])
                    run_cli(workloads.cli_argv({**instance, "command": ["counts"]},
                                               case_dir), case_dir)
        capture_doubling_counts(os.path.join(out_root, "doubling_counts"), scratch)
        capture_far_blocks(os.path.join(out_root, "far_blocks"), scratch)
        for name, budget in VIOLATIONS_BUDGETS.items():
            capture_config(VIOLATIONS_CONFIG % budget, ("validate",),
                           os.path.join(out_root, "violations", name), scratch)
        capture_offlattice(os.path.join(out_root, "axioms_offlattice"), scratch)
        capture_config(HINGE_BLOCKS_CONFIG, ("counts", "power", "validate"),
                       os.path.join(out_root, "hinge_blocks"), scratch)
        capture_config(SNAP_FLOORS_CONFIG, ("counts", "power"),
                       os.path.join(out_root, "snap_floors"), scratch)
        for size in INDEX_WIDTHS_SIZES:
            capture_config(INDEX_WIDTHS_CONFIG % size, ("counts",),
                           os.path.join(out_root, "index_widths", str(size)), scratch)
        for kind in BLOCK_RULES:
            capture_config(BLOCK_RULES_CONFIG % kind, ("counts",),
                           os.path.join(out_root, "block_rules", kind), scratch)
        capture_matrix_csv(os.path.join(out_root, "matrix_csv"), scratch)
        capture_config(AFFINE_LINE_CONFIG, ("counts",),
                       os.path.join(out_root, "affine_line"), scratch)
        capture_config(EXACT_WIDE_CONFIG, ("counts",), os.path.join(out_root, "exact_wide"),
                       scratch, flags=("--exact-threshold", "80"))
        capture_config(POWER_UNDECLARED_CONFIG, ("power",),
                       os.path.join(out_root, "power_undeclared"), scratch)
        capture_golden_mean(os.path.join(out_root, "golden_mean"), scratch)
        capture_formats(os.path.join(out_root, "formats"), scratch)
        capture_errors(os.path.join(out_root, "errors"), scratch)


def digests(root: str) -> dict:
    """{path relative to root, with / separators: SHA-256 hex digest} of
    every file under root, sorted by path."""
    out = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            out[os.path.relpath(path, root).replace(os.sep, "/")] = digest
    return dict(sorted(out.items()))


def write_digests() -> None:
    """Capture into a temporary directory and rewrite DIGESTS from it."""
    with tempfile.TemporaryDirectory() as tmp:
        out_root = os.path.join(tmp, "capture")
        capture(out_root)
        found = digests(out_root)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(found, indent=1) + "\n")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args == ["--digests"]:
        write_digests()
        return 0
    if len(args) != 1 or os.path.exists(args[0]):
        print("usage: capture_outputs.py OUTDIR (a directory that does not exist yet)\n"
              "       capture_outputs.py --digests", file=sys.stderr)
        return 2
    capture(os.path.abspath(args[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
