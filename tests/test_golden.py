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

# (configuration, golden subdirectory, command, expected exit code, files)
CASES = [
    (EXAMPLE_CONFIG, "", "counts", 0, ("counts.csv", "counts.json")),
    (EXAMPLE_CONFIG, "", "compare", 0, ("compare_checks.csv",)),
    (EXAMPLE_CONFIG, "", "power", 1, ("power_cells.csv",)),
    (ASYM_CONFIG, "asym", "counts", 0, ("counts.csv",)),
    # exit 1: sandwich_one_sided_upper fails at n=2, eps=0.5 and the
    # one_sided estimate exceeds the two_sided one beyond estimator_tol
    (ASYM_CONFIG, "asym", "compare", 1, ("compare_checks.csv",)),
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
