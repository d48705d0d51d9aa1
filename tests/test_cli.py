"""Command-line behavior: config parsing, outputs, exit codes, determinism."""
import dataclasses
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import qme.covering
import qme.entropy
from qme import MapSpec, QuasiMetricSpec, build_orbits, circle_grid, count_grid
from qme.cli import main
from qme.config import (EXAMPLE_CONFIG, TABLES, ConfigError, RunConfig, load_config,
                        parse_config)
from qme.entropy import FitSettings, estimate_from_grid

from oracles import plain

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


def test_plain_on_a_one_variant_grid():
    n_list, eps_list = [1, 2, 3, 4], [0.5, 0.25]
    orbits = build_orbits(MapSpec(kind="doubling"), circle_grid(16), max(n_list))
    grid = count_grid(QuasiMetricSpec(kind="circle_arc"), orbits, n_list, eps_list,
                      variants=("two_sided",))
    d = plain(grid)
    assert d["variants"] == ["two_sided"]
    # cells come out n-major; the one_sided quantities r2/s2 are None and left out
    assert [(c["n"], c["epsilon"]) for c in d["cells"]] == [
        (n, eps) for n in n_list for eps in eps_list]
    assert all(set(c) == {"n", "epsilon", "r1", "s1"} for c in d["cells"])
    assert all(isinstance(c[q]["witness"], list)
               for c in d["cells"] for q in ("r1", "s1"))
    est = plain(estimate_from_grid(grid, "two_sided", FitSettings(n_burn=1)))
    assert list(est["counts"]) == [repr(eps) for eps in eps_list]
    assert all(isinstance(pair, list) for seq in est["counts"].values() for pair in seq)


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
    ("validate", "validate:\n  triple_budget: 100\nseeds:\n  base: -1\n", []),
    ("validate", "validate:\n  triple_budget: 100\n", ["--seed", "-1"]),
    ("entropy", "fit:\n  window_size: -2\n", []),
    ("entropy", "variants: []\n", []),
], ids=["config", "flag", "power_m_config", "power_m_flag", "triple_budget_config",
        "seed_config", "seed_flag", "window_size_config", "empty_variants"])
def test_negative_exact_threshold_is_config_error(tmp_path, command, section, flag):
    cfg = _write(tmp_path, DOUBLING_CONFIG + section, out=tmp_path / "out")
    assert main([command, "--config", cfg, *flag]) == 3


# (field, old text, new text): a non-integral value is refused, not truncated
NON_INTEGRAL = [
    ("schedule.n_list", "n_list: [1, 2, 3, 4]", "n_list: [1, 2.5, 3, 4.7]"),
    ("power.m", "output:", "power:\n  m: 2.9\noutput:"),
    ("solver.exact_threshold", "output:", "solver:\n  exact_threshold: 3.5\noutput:"),
    ("fit.n_burn", "output:", "fit:\n  n_burn: 1.5\noutput:"),
    ("fit.window_size", "output:", "fit:\n  window_size: 3.5\noutput:"),
    ("validate.triple_budget", "output:", "validate:\n  triple_budget: 1000.5\noutput:"),
    ("seeds.base", "output:", "seeds:\n  base: 7.25\noutput:"),
    ("map.power", "kind: doubling", "kind: doubling\n  power: 1.5"),
    ("cloud.count", "count: 48", "count: 48.5"),
]


@pytest.mark.parametrize("field,old,new", NON_INTEGRAL, ids=[f for f, _, _ in NON_INTEGRAL])
def test_non_integral_integer_field_is_config_error(tmp_path, field, old, new):
    cfg = _write(tmp_path, DOUBLING_CONFIG.replace(old, new), out=tmp_path / "out")
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        load_config(cfg)
    assert main(["counts", "--config", cfg]) == 3


def test_integral_floats_read_as_integers(tmp_path):
    text = (DOUBLING_CONFIG.replace("n_list: [1, 2, 3, 4]", "n_list: [1.0, 2, 3.0, 4]")
            .replace("count: 48", "count: 48.0")
            + "power:\n  m: 2.0\nsolver:\n  exact_threshold: 3.0\nseeds:\n  base: 7.0\n")
    cfg = load_config(_write(tmp_path, text, out=tmp_path / "out"))
    assert cfg.n_list == [1, 2, 3, 4] and all(type(n) is int for n in cfg.n_list)
    assert len(cfg.cloud) == 48
    assert (cfg.power_m, cfg.exact_threshold, cfg.seed) == (2, 3, 7)
    assert all(type(v) is int for v in (cfg.power_m, cfg.exact_threshold, cfg.seed))


@pytest.mark.parametrize("field,old,new", [
    ("schedule.n_list", "n_list: [1, 2, 3, 4]", "n_list: [true, 2, 3, 4]"),
    ("validate.triple_budget", "output:", "validate:\n  triple_budget: true\noutput:"),
], ids=["n_list", "triple_budget"])
def test_boolean_integer_field_is_config_error(tmp_path, field, old, new):
    # YAML's true is a Python bool, which int() would read as 1
    cfg = _write(tmp_path, DOUBLING_CONFIG.replace(old, new), out=tmp_path / "out")
    with pytest.raises(ConfigError, match=f"{field} must be an integer, got True"):
        load_config(cfg)
    assert main(["counts", "--config", cfg]) == 3


@pytest.mark.parametrize("out,flag", [("null", []), ('""', []), ("out", ["--out", ""])],
                         ids=["config_null", "config_empty", "flag_empty"])
def test_missing_output_dir_is_config_error(tmp_path, monkeypatch, out, flag):
    # null would be written to a directory named None, and "" fails in os.makedirs
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, DOUBLING_CONFIG, out=out)
    assert main(["counts", "--config", cfg, *flag]) == 3
    assert sorted(os.listdir(tmp_path)) == ["run.yaml"]


def test_unknown_solver_mode_is_config_error(tmp_path):
    cfg = _write(tmp_path, DOUBLING_CONFIG + "solver:\n  mode: solve-harder\n",
                 out=tmp_path / "out")
    with pytest.raises(ConfigError, match="solver mode"):
        load_config(cfg)


def test_example_config_parses(tmp_path):
    cfg = parse_config(yaml.safe_load(EXAMPLE_CONFIG), base_dir=str(tmp_path))
    assert cfg.map_spec.kind == "doubling"
    assert cfg.eps_list == [0.5, 0.25, 0.125, 0.0625]


def test_example_config_shows_the_parsed_defaults(tmp_path):
    # EXAMPLE_CONFIG documents every default: leaving out all the sections
    # past the system and the schedule must not change the configuration
    doc = yaml.safe_load(EXAMPLE_CONFIG)
    bare = {name: doc[name] for name in ("map", "cloud", "qmetric", "schedule")}
    system = {"map_spec", "cloud", "qspec", "n_list", "eps_list"}
    rest = [f.name for f in dataclasses.fields(RunConfig) if f.name not in system]
    full, parsed = (parse_config(d, base_dir=str(tmp_path)) for d in (doc, bare))
    assert {f: getattr(parsed, f) for f in rest} == {f: getattr(full, f) for f in rest}


def test_example_config_names_exactly_the_table_keys():
    # every key EXAMPLE_CONFIG shows, commented out or not, is one the key
    # tables hold, and the other way round, so the two cannot drift apart
    shown, section = set(), None
    for line in EXAMPLE_CONFIG.splitlines():
        top, key = re.match(r"(\w+):(.*)", line), re.match(r"  (?:# )?(\w+):", line)
        if top:
            section = top.group(1)
            if top.group(2).strip():  # a top-level key with its value, not a section
                shown.add(section)
        elif key:
            shown.add(f"{section}.{key.group(1)}")
    tables = {f"{name}.{key}" for name, table in TABLES.items() for key in table}
    assert shown == tables | {"variants"}
    assert len(shown) == 37


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


@pytest.mark.parametrize("command", ["entropy", "compare", "power"])
@pytest.mark.parametrize("fit,n_burn", [("n_burn: 3", 3), ("window_size: 2", 2)],
                         ids=["n_burn", "window_size"])
def test_fit_window_of_two_points_writes_nothing(tmp_path, capsys, command, fit, n_burn):
    # n = 1..4 leaves n = 3, 4 at or past n_burn 3, and the last 2 of n = 2..4
    out = tmp_path / "out"
    cfg = _write(tmp_path, DOUBLING_CONFIG + f"fit:\n  {fit}\n", out=out)
    assert main([command, "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert f"slope fitting needs at least 3 points with n >= n_burn ({n_burn})" in err
    assert err.rstrip().endswith("got 2")
    assert not any(out.iterdir())


# (case, old text, new text, message): malformed values are configuration
# errors (exit 3), not crashes (exit 1, the check-failure code)
MALFORMED = [
    ("eps_not_a_number", "eps_list: [0.5, 0.25, 0.125, 0.0625]", "eps_list: [0.5, abc]",
     "schedule.eps_list must be a number"),
    ("eps_infinite", "eps_list: [0.5, 0.25, 0.125, 0.0625]", "eps_list: [.inf, .inf]",
     "finite"),
    ("eps_not_a_list", "eps_list: [0.5, 0.25, 0.125, 0.0625]", "eps_list: 0.5",
     "schedule.eps_list must be a list"),
    ("map_parameter_not_a_number", "kind: doubling", "kind: logistic\n  r: abc",
     "map.r must be a number"),
    ("variants_not_a_list", "output:", "variants: 5\noutput:", "variants must be a list"),
    ("variant_unhashable", "output:", "variants: [[two_sided]]\noutput:",
     r"unknown entropy variant \['two_sided'\]"),
    # entropy would print each estimate, and write its slopes.csv rows, twice
    ("variants_repeated", "output:", "variants: [two_sided, one_sided, two_sided]\noutput:",
     "variant 'two_sided' is listed more than once"),
    # bool() reads the quoted "false" as true, and power would skip its warning
    ("uc_quoted", "kind: doubling", 'kind: doubling\n  declared_uniformly_continuous: "false"',
     "map.declared_uniformly_continuous must be true or false"),
    ("uc_zero", "kind: doubling", "kind: doubling\n  declared_uniformly_continuous: 0",
     "map.declared_uniformly_continuous must be true or false"),
    ("map_kind_unknown", "kind: doubling", "kind: sideways", "unknown map kind 'sideways'"),
    ("map_kind_missing", "  kind: doubling", "  power: 1", "unknown map kind None"),
    ("map_kind_unhashable", "kind: doubling", "kind: [doubling]", "bad map"),
    # an infinite weight gives e(x, x) = inf * 0 = NaN, so counts would come
    # from NaN distances
    ("weight_infinite", "kind: circle_arc", "kind: weighted_asym\n  alpha: .inf",
     "finite alpha > 0 and beta > 0"),
    ("weight_nan", "kind: circle_arc", "kind: weighted_asym\n  beta: .nan",
     "finite alpha > 0 and beta > 0"),
    # a key or section that no table holds would be dropped, and its default used
    ("fit_key_misspelt", "output:", "fit:\n  n_brun: 5\noutput:",
     "unknown key 'n_brun' in section 'fit'; known keys: n_burn, window_size"),
    ("solver_key_misspelt", "output:", "solver:\n  exact_treshold: 0\noutput:",
     "unknown key 'exact_treshold' in section 'solver'; known keys: exact_threshold, mode"),
    ("orbits_key_misspelt", "output:", "orbits:\n  snapmode: nearest\noutput:",
     "unknown key 'snapmode' in section 'orbits'; known keys: snap_mode"),
    ("tolerances_key_misspelt", "output:", "tolerances:\n  estimator_tl: 0.5\noutput:",
     "unknown key 'estimator_tl' in section 'tolerances'; known keys: estimator_tol, "),
    ("section_misspelt", "output:", "schedul:\n  n_list: [1, 2]\noutput:",
     "unknown top-level key 'schedul'; known keys: map, cloud, qmetric, schedule, "),
    ("output_key_misspelt", "  dir: {out}", "  dir: {out}\n  fromat: csv",
     "unknown key 'fromat' in section 'output'; known keys: dir, format"),
    ("seeds_key_misspelt", "output:", "seeds:\n  bse: 7\noutput:",
     "unknown key 'bse' in section 'seeds'; known keys: base"),
    ("cloud_key_misspelt", "count: 48", "count: 48\n  cout: 32",
     "unknown key 'cout' in section 'cloud'; known keys: kind, count, lo, hi, "),
    # a key that the section's kind does not read would be dropped without a word
    ("map_key_kind_ignores", "kind: doubling", "kind: doubling\n  r: 3.0",
     "map kind 'doubling' does not read 'r'; it reads: kind, power, "
     "declared_uniformly_continuous"),
    ("cloud_key_kind_ignores", "count: 48", "count: 48\n  lo: 5.0",
     "cloud kind 'circle_grid' does not read 'lo'; it reads: kind, count"),
    ("qmetric_key_kind_ignores", "kind: circle_arc", "kind: circle_arc\n  alpha: 2.0",
     "qmetric kind 'circle_arc' does not read 'alpha'; it reads: kind"),
    # a YAML boolean is not a number: true would read as 1.0 and false as 0.0
    ("boolean_tolerance", "output:", "tolerances:\n  estimator_tol: true\noutput:",
     "tolerances.estimator_tol must be a number, got True"),
    ("boolean_eps", "eps_list: [0.5, 0.25, 0.125, 0.0625]", "eps_list: [true, 0.5]",
     "schedule.eps_list must be a number, got True"),
    ("boolean_map_parameter", "kind: doubling", "kind: tent\n  slope: true",
     "map.slope must be a number, got True"),
    ("boolean_cloud_bound", "kind: circle_grid", "kind: grid1d\n  lo: false\n  hi: 1.0",
     "cloud.lo must be a number, got False"),
    ("boolean_weight", "kind: circle_arc", "kind: weighted_asym\n  alpha: true",
     "qmetric.alpha must be a number, got True"),
    # these raised an uncaught TypeError
    ("weight_a_list", "kind: circle_arc", "kind: weighted_asym\n  alpha: [1]",
     r"qmetric.alpha must be a number, got \[1\]"),
    ("cloud_bound_a_list", "kind: circle_grid", "kind: grid1d\n  lo: [0]\n  hi: 1.0",
     r"cloud.lo must be a number, got \[0\]"),
    ("boolean_matrix_entry", "kind: circle_arc", "kind: matrix\n  rows: [[0, true], [true, 0]]",
     "qmetric.rows must be a number, got True"),
    ("cloud_path_a_number", "kind: circle_grid\n  count: 48", "kind: custom\n  path: 5",
     "bad cloud: .*5 not found"),
    ("cloud_path_null", "kind: circle_grid\n  count: 48", "kind: custom\n  path: null",
     "cloud.path must be a nonempty path, got None"),
    ("qmetric_path_null", "kind: circle_arc", "kind: matrix\n  path: null",
     "qmetric.path must be a nonempty path, got None"),
]


@pytest.mark.parametrize("old,new,message", [m[1:] for m in MALFORMED],
                         ids=[m[0] for m in MALFORMED])
def test_malformed_value_is_config_error(tmp_path, old, new, message):
    cfg = _write(tmp_path, DOUBLING_CONFIG.replace(old, new), out=tmp_path / "out")
    with pytest.raises(ConfigError, match=message):
        load_config(cfg)
    assert main(["counts", "--config", cfg]) == 3


TOLERANCES = ("estimator_tol", "power_tol_rel", "power_tol_abs", "stability_tol",
              "saturation_fraction")


@pytest.mark.parametrize("value", [".nan", "-0.01", "-.inf"], ids=["nan", "negative", "minus_inf"])
@pytest.mark.parametrize("field", TOLERANCES)
def test_nan_or_negative_tolerance_is_config_error(tmp_path, field, value):
    # a NaN tolerance fails every comparison it enters: compare would exit 1,
    # the check-failure code, and a NaN saturation_fraction drops no cell
    cfg = _write(tmp_path, DOUBLING_CONFIG + f"tolerances:\n  {field}: {value}\n",
                 out=tmp_path / "out")
    with pytest.raises(ConfigError, match=f"tolerances.{field} must be >= 0"):
        load_config(cfg)
    assert main(["compare", "--config", cfg]) == 3


@pytest.mark.parametrize("field", TOLERANCES)
def test_zero_and_positive_tolerances_parse(tmp_path, field):
    for value in (0, 0.3, 2):
        cfg = _write(tmp_path, DOUBLING_CONFIG + f"tolerances:\n  {field}: {value}\n",
                     out=tmp_path / "out")
        parsed = load_config(cfg)
        assert {**vars(parsed), **vars(parsed.fit)}[field] == value


@pytest.mark.parametrize("rule", ["circle_arc", "weighted_asym"])
@pytest.mark.parametrize("command", ["entropy", "compare"])
def test_one_count_grid_and_one_live_pair_stream_per_command(tmp_path, monkeypatch,
                                                             command, rule):
    # all four variants (the default) come from one grid, and so from one
    # Bowen stream, on a symmetric and an asymmetric rule, whichever module
    # calls count_grid
    calls = {"count_grid": 0, "_live_pairs": 0}
    for module, name in ((qme.entropy, "count_grid"), (qme.cli, "count_grid"),
                         (qme.covering, "_live_pairs")):
        def counted(*args, name=name, func=getattr(module, name), **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    text = DOUBLING_CONFIG.replace("kind: circle_arc", f"kind: {rule}")
    out = tmp_path / "out"
    cfg = _write(tmp_path, text, out=out)
    assert main([command, "--config", cfg]) in (0, 1)
    assert (out / f"{command}.json").exists()
    assert calls == {"count_grid": 1, "_live_pairs": 1}
    assert not hasattr(qme.entropy, "symmetrize_mean")


TRACED = """\
import json, sys
from tracing import Tracer
import qme.cli
tracer = Tracer()
tracer.install()
for command in ("compare", "power"):
    qme.cli.main([command, "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps(sorted({span["name"] for span in tracer.spans})))
"""


def test_perfbench_tracer_fits_this_checkout(tmp_path):
    # perfbench/tracing.py wraps qme's names by getattr: a name moved or
    # renamed breaks its install or leaves a layer without spans
    root = Path(__file__).resolve().parents[1]
    config = tmp_path / "run.yaml"
    config.write_text(EXAMPLE_CONFIG)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", TRACED, str(config), str(tmp_path / "out")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    names = set(json.loads(proc.stdout.splitlines()[-1]))
    assert {"entropy.compare_theorems", "entropy.power_rule_check",
            "entropy.estimate_from_grid", "covering.count_grid"} <= names
    # the example's 48 points are solved exactly, through the traced names
    assert {"covering.exact_cover", "covering.exact_separated"} <= names


def test_every_exported_name_resolves():
    # each qme module's __all__ names only what it defines, and a star
    # import of the package and of each module succeeds
    names = ["qme"] + [f"qme.{info.name}" for info in pkgutil.iter_modules(qme.__path__)]
    assert "qme.quasimetric" in names
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (name, missing)
        exec(f"from {name} import *", {})
