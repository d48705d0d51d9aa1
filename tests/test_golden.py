"""CLI outputs on fixed configurations match committed golden files.

The golden files hold only integers, dyadic eps values, witnesses, node counts
and booleans, so they are platform independent and compared byte for byte.
Outputs that carry least-squares floats (entropy.json, slopes.csv,
compare.json) are left out. The example configuration uses a symmetric
distance, on which one_sided and two_sided relations coincide, so a small
asymmetric configuration covers the one_sided relation. Regenerate a file
only for a deliberate format or result change, with
``qme <command> --config <configuration> --out DIR``.
"""
from pathlib import Path

import pytest

from qme.cli import main
from qme.config import EXAMPLE_CONFIG

GOLDEN = Path(__file__).parent / "golden"

ASYM_CONFIG = """\
map: {kind: tent}
cloud: {kind: grid1d, lo: 0.0, hi: 1.0, count: 33}
qmetric: {kind: weighted_asym, alpha: 0.5, beta: 2.0}
schedule: {n_list: [1, 2, 3, 4, 5], eps_list: [0.5, 0.25, 0.125, 0.0625]}
output: {format: both}
"""

# 300 points exceed both tile sizes of the N x N passes (256-row pairwise
# tiles and 256 x 256 live-pair blocks, 64-wide transpose blocks) and are a
# multiple of neither, so these files cross tile boundaries in the live-pair
# Bowen distances, their relations and nearest snapping.
TILE_CONFIG = """\
map: {kind: logistic, r: 4.0}
cloud: {kind: grid1d, lo: 0.0, hi: 1.0, count: 300}
qmetric: {kind: weighted_asym, alpha: 0.5, beta: 2.0}
schedule: {n_list: [1, 2, 3, 4], eps_list: [0.25, 0.125, 0.0625, 0.03125]}
orbits: {snap_mode: nearest}
solver: {mode: greedy}
output: {format: both}
"""

# (configuration, golden subdirectory, command, expected exit code, files)
CASES = [
    (EXAMPLE_CONFIG, "", "counts", 0, ("counts.csv", "counts.json")),
    (EXAMPLE_CONFIG, "", "compare", 0, ("compare_checks.csv",)),
    (EXAMPLE_CONFIG, "", "power", 1, ("power_cells.csv",)),
    (ASYM_CONFIG, "asym", "counts", 0, ("counts.csv",)),
    # exit 1: sandwich_one_sided_upper fails at n=2, eps=0.5 and the
    # one_sided estimate exceeds the two_sided one beyond estimator_tol
    (ASYM_CONFIG, "asym", "compare", 1, ("compare_checks.csv",)),
    (TILE_CONFIG, "tiles", "counts", 0, ("counts.csv", "counts.json")),
    # exit 1: the composed estimate 0.708 misses the target 1.106 +- 0.221
    (TILE_CONFIG, "tiles", "power", 1, ("power_cells.csv",)),
]


@pytest.mark.parametrize("config,subdir,command,exit_code,names", CASES,
                         ids=[f"{c[1] or 'example'}-{c[2]}" for c in CASES])
def test_outputs_match_golden(tmp_path, capsys, config, subdir, command,
                              exit_code, names):
    path = tmp_path / "run.yaml"
    path.write_text(config)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == exit_code
    capsys.readouterr()
    for name in names:
        assert (out / name).read_bytes() == (GOLDEN / subdir / name).read_bytes(), name
