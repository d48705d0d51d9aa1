"""Command-line behavior: config parsing, outputs, exit codes, determinism."""
import json

import pytest

from qme.cli import main
from qme.config import ConfigError, load_config

DOUBLING_CONFIG = """\
map:
  kind: doubling
cloud:
  kind: circle_grid
  count: 48
qmetric:
  kind: circle_arc
schedule:
  n_list: [1, 2, 3, 4]
  eps_list: [0.5, 0.25, 0.125, 0.0625]
output:
  dir: {out}
"""

VIOLATOR_CONFIG = """\
map:
  kind: identity
cloud:
  kind: indices
  count: 3
qmetric:
  kind: matrix
  rows: [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
schedule:
  n_list: [1, 2, 3]
  eps_list: [0.5, 0.25]
output:
  dir: {out}
"""


def _write(tmp_path, text, name="run.yaml", **fmt):
    path = tmp_path / name
    path.write_text(text.format(**fmt))
    return str(path)


def test_validate_ok(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path, DOUBLING_CONFIG, out=out)
    assert main(["validate", "--config", cfg]) == 0
    report = json.loads((out / "axiom_report.json").read_text())
    assert report["triangle_ok"] and report["symmetric"]
    assert "axioms" in capsys.readouterr().out


def test_validate_detects_violation(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path, VIOLATOR_CONFIG, out=out)
    assert main(["validate", "--config", cfg]) == 1
    report = json.loads((out / "axiom_report.json").read_text())
    assert not report["triangle_ok"]
    assert [0, 1, 2, 5.0, 2.0] in report["violations"]


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "broken.yaml"
    bad.write_text("map: [unclosed\n")
    assert main(["validate", "--config", str(bad)]) == 3
    missing = tmp_path / "nothing.yaml"
    assert main(["validate", "--config", str(missing)]) == 3


def test_empty_cloud_is_parse_error(tmp_path):
    cfg = _write(tmp_path, DOUBLING_CONFIG.replace("count: 48", "count: 0"),
                 out=tmp_path / "out")
    assert main(["counts", "--config", cfg]) == 3


def test_nonhalving_eps_rejected(tmp_path):
    cfg = _write(tmp_path, DOUBLING_CONFIG.replace("0.25", "0.3"),
                 out=tmp_path / "out")
    assert main(["counts", "--config", cfg]) == 3


def test_config_loader_validates_pairings(tmp_path):
    text = VIOLATOR_CONFIG.replace("kind: indices", "kind: circle_grid")
    cfg = _write(tmp_path, text, out=tmp_path / "out")
    with pytest.raises(ConfigError, match="indices"):
        load_config(cfg)


def test_counts_outputs_and_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg = _write(tmp_path, DOUBLING_CONFIG, name="a.yaml", out=out_a)
    assert main(["counts", "--config", cfg]) == 0
    assert main(["counts", "--config", cfg, "--out", str(out_b)]) == 0
    for name in ("counts.csv", "counts.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    header = (out_a / "counts.csv").read_text().splitlines()[0]
    assert header == "n,epsilon,variant,quantity,cardinality,method,optimal"


def test_entropy_outputs(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path, DOUBLING_CONFIG, out=out)
    assert main(["entropy", "--config", cfg]) == 0
    payload = json.loads((out / "entropy.json").read_text())
    assert set(payload) == {"two_sided", "one_sided", "mean_metric", "max_metric"}
    assert payload["max_metric"]["extrapolated"] == payload["two_sided"]["extrapolated"]
    slopes = (out / "slopes.csv").read_text().splitlines()
    assert slopes[0] == "epsilon,slope,residual,variant"
    assert len(slopes) == 1 + 4 * 4


def test_entropy_format_json_only(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path, DOUBLING_CONFIG, out=out)
    assert main(["entropy", "--config", cfg, "--format", "json"]) == 0
    assert (out / "entropy.json").exists()
    assert not (out / "slopes.csv").exists()


def test_compare_ok_and_report(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path, DOUBLING_CONFIG, out=out)
    assert main(["compare", "--config", cfg]) == 0
    report = json.loads((out / "compare.json").read_text())
    assert report["overall_ok"] and report["relations_identical"]
    assert (out / "compare_checks.csv").exists()


POWER_CONFIG = """\
map:
  kind: doubling
cloud:
  kind: circle_grid
  count: 256
qmetric:
  kind: circle_arc
schedule:
  n_list: [2, 3, 4]
  eps_list: [0.25, 0.125]
power:
  m: 2
output:
  dir: {out}
"""


def test_power_ok(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path, POWER_CONFIG, out=out)
    assert main(["power", "--config", cfg]) == 0
    report = json.loads((out / "power.json").read_text())
    assert report["overall_ok"] and report["m"] == 2


def test_power_uc_gate_exit_two(tmp_path):
    out = tmp_path / "out"
    text = DOUBLING_CONFIG.replace(
        "  kind: doubling", "  kind: doubling\n  declared_uniformly_continuous: false")
    cfg = _write(tmp_path, text, out=out)
    assert main(["power", "--config", cfg, "-m", "2"]) == 2
    report = json.loads((out / "power.json").read_text())
    assert not report["uc_declared"]


def test_entropy_rerun_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "ea", tmp_path / "eb"
    cfg = _write(tmp_path, DOUBLING_CONFIG, name="e.yaml", out=out_a)
    assert main(["entropy", "--config", cfg]) == 0
    assert main(["entropy", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_a / "entropy.json").read_bytes() == (out_b / "entropy.json").read_bytes()
    assert (out_a / "slopes.csv").read_bytes() == (out_b / "slopes.csv").read_bytes()


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["entropy"])  # missing --config
    assert exc.value.code == 2


def test_threads_flag_does_not_change_output(tmp_path):
    # --threads is still parsed but ignored: cells are solved serially
    out_a, out_b = tmp_path / "plain", tmp_path / "t2"
    cfg = _write(tmp_path, DOUBLING_CONFIG, name="t.yaml", out=out_a)
    assert main(["counts", "--config", cfg]) == 0
    assert main(["counts", "--config", cfg, "--threads", "2",
                 "--out", str(out_b)]) == 0
    for name in ("counts.csv", "counts.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


# legacy solver.mode spellings, each next to the exact_threshold it stands for
# on the 48-point cloud
MODE_FOLDS = [
    ("solver:\n  mode: greedy\n", "solver:\n  exact_threshold: 0\n"),
    ("solver:\n  mode: exact\n  exact_threshold: 8\n",
     "solver:\n  exact_threshold: 48\n"),
    ("solver:\n  mode: auto\n  exact_threshold: 8\n",
     "solver:\n  exact_threshold: 8\n"),
]


@pytest.mark.parametrize("legacy,threshold", MODE_FOLDS,
                         ids=["greedy", "exact", "auto"])
def test_solver_mode_reads_as_exact_threshold(tmp_path, legacy, threshold):
    outs = []
    for name, solver in (("legacy", legacy), ("threshold", threshold)):
        outs.append(tmp_path / name)
        cfg = _write(tmp_path, DOUBLING_CONFIG + solver, name=f"{name}.yaml",
                     out=outs[-1])
        assert main(["counts", "--config", cfg]) == 0
    for name in ("counts.csv", "counts.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_exact_threshold_flag_overrides_solver_mode(tmp_path):
    out_flag, out_plain = tmp_path / "flag", tmp_path / "plain"
    greedy = _write(tmp_path, DOUBLING_CONFIG + "solver:\n  mode: greedy\n",
                    name="greedy.yaml", out=out_flag)
    plain = _write(tmp_path, DOUBLING_CONFIG, name="plain.yaml", out=out_plain)
    assert main(["counts", "--config", greedy, "--exact-threshold", "64"]) == 0
    assert main(["counts", "--config", plain]) == 0
    rows = (out_flag / "counts.csv").read_text().splitlines()[1:]
    assert {r.split(",")[5] for r in rows} == {"exact_bnb"}
    for name in ("counts.csv", "counts.json"):
        assert (out_flag / name).read_bytes() == (out_plain / name).read_bytes(), name


@pytest.mark.parametrize("command,section,flag", [
    ("counts", "solver:\n  exact_threshold: -3\n", []),
    ("counts", "", ["--exact-threshold", "-3"]),
    ("power", "power:\n  m: 0\n", []),
    ("power", "", ["-m", "0"]),
    ("validate", "validate:\n  triple_budget: 0\n", []),
], ids=["config", "flag", "power_m_config", "power_m_flag", "triple_budget_config"])
def test_negative_exact_threshold_is_config_error(tmp_path, command, section, flag):
    cfg = _write(tmp_path, DOUBLING_CONFIG + section, out=tmp_path / "out")
    assert main([command, "--config", cfg, *flag]) == 3


def test_unknown_solver_mode_is_config_error(tmp_path):
    cfg = _write(tmp_path, DOUBLING_CONFIG + "solver:\n  mode: solve-harder\n",
                 out=tmp_path / "out")
    with pytest.raises(ConfigError, match="solver mode"):
        load_config(cfg)


def test_example_config_parses(tmp_path):
    from qme.config import EXAMPLE_CONFIG, parse_config
    import yaml
    cfg = parse_config(yaml.safe_load(EXAMPLE_CONFIG), base_dir=str(tmp_path))
    assert cfg.map_spec.kind == "doubling"
    assert cfg.eps_list == [0.5, 0.25, 0.125, 0.0625]


MATRIX_FILE_CONFIG = """\
map:
  kind: identity
cloud:
  kind: indices
  count: 2
qmetric:
  kind: matrix
  path: qmetric.csv
schedule:
  n_list: [1, 2, 3]
  eps_list: [1.5, 0.75]
output:
  dir: {out}
"""

CUSTOM_CLOUD_CONFIG = """\
map:
  kind: identity
cloud:
  kind: custom
  path: points.csv
qmetric:
  kind: euclidean
schedule:
  n_list: [1, 2, 3, 4]
  eps_list: [0.5, 0.25]
output:
  dir: {out}
"""


def test_matrix_qmetric_from_csv_file(tmp_path):
    (tmp_path / "qmetric.csv").write_text("qmetric,v1,2\n0.0,1.0\n2.0,0.0\n")
    cfg = _write(tmp_path, MATRIX_FILE_CONFIG, out=tmp_path / "out")
    assert main(["validate", "--config", cfg]) == 0
    assert main(["counts", "--config", cfg]) == 0
    rows = (tmp_path / "out" / "counts.csv").read_text().splitlines()[1:]
    gap = [r for r in rows if r.startswith("1,1.5,")]
    assert any(r.split(",")[3] == "r1" and r.split(",")[4] == "2" for r in gap)
    assert any(r.split(",")[3] == "r2" and r.split(",")[4] == "1" for r in gap)


def test_custom_cloud_from_csv_file(tmp_path):
    (tmp_path / "points.csv").write_text("0.0\n0.25\n0.5\n0.75\n1.0\n")
    cfg = _write(tmp_path, CUSTOM_CLOUD_CONFIG, out=tmp_path / "out")
    assert main(["counts", "--config", cfg]) == 0
    assert main(["compare", "--config", cfg]) == 0


def test_validate_identity_axiom_failure(tmp_path):
    # zero off-diagonal entries break identity of indiscernibles
    text = VIOLATOR_CONFIG.replace(
        "rows: [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]",
        "rows: [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]")
    cfg = _write(tmp_path, text, out=tmp_path / "out")
    assert main(["validate", "--config", cfg]) == 1
    report = json.loads((tmp_path / "out" / "axiom_report.json").read_text())
    assert not report["identity_ok"] and report["triangle_ok"]


def test_short_fit_window_is_config_error(tmp_path):
    text = DOUBLING_CONFIG.replace("n_list: [1, 2, 3, 4]", "n_list: [1, 2, 3]")
    cfg = _write(tmp_path, text, out=tmp_path / "out")
    assert main(["counts", "--config", cfg]) == 0   # counting alone is fine
    assert main(["entropy", "--config", cfg]) == 3  # fitting needs 3 points
    assert main(["compare", "--config", cfg]) == 3
    assert main(["power", "--config", cfg, "-m", "2"]) == 3
