"""The CLI's one-pass writer against the two-pass reference serializers.

``qme.cli._json`` must write, byte for byte, what ``json.dumps`` writes for
``oracles.plain`` of the same result with ``indent=2, sort_keys=True``, and
``qme.cli._csv`` what ``oracles.write_csv`` writes for the same rows, except
that a numpy float64 cell is written as its float repr.
"""
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qme.cli as cli
from qme import MapSpec, QuasiMetricSpec, build_orbits, circle_grid, count_grid
from qme.covering import QUANTITIES, QUANTITY_PAIRS
from qme.entropy import FitSettings, estimate_from_grid

from oracles import plain, write_csv
from test_golden import ASYM_CONFIG


@dataclass
class Leaf:
    eps: float
    label: Optional[str] = None
    value: object = None


@dataclass(frozen=True)
class Node:
    n: int
    items: object
    child: object = None


def reference_json(result) -> str:
    return json.dumps(plain(result), indent=2, sort_keys=True) + "\n"


def reference_csv(tmp_path, header: list, rows: list) -> str:
    path = tmp_path / "reference.csv"
    write_csv(str(path), header, rows)
    return path.read_bytes().decode("utf-8")


FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324, 1.1e-308,
                     float("inf"), float("-inf"), float("nan"), 0.1, 2.0 ** -40]),
    st.floats().map(np.float64))
TEXT = st.one_of(st.text(max_size=6),
                 st.sampled_from(["epsilon", "é", "Ω ≤ ∞", "😀", " ", '"\\\n\t\x00']))
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, TEXT,
                   st.lists(st.integers(), max_size=6),
                   st.lists(st.booleans(), max_size=4),
                   st.lists(st.one_of(st.integers(), st.booleans(), FLOATS), max_size=4))


def _trees(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
        st.dictionaries(st.one_of(TEXT, FLOATS), children, max_size=4),
        st.dictionaries(st.tuples(st.integers(1, 9), FLOATS), children, max_size=4),
        st.builds(Leaf, eps=FLOATS, label=st.none() | TEXT, value=st.none() | children),
        st.builds(Node, n=st.integers(), items=children, child=st.none() | children))


TREES = st.recursive(LEAVES, _trees, max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(TREES)
def test_json_matches_the_reference_on_generated_trees(tree):
    assert cli._json(tree) + "\n" == reference_json(tree)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(), st.booleans(), st.floats(), TEXT), max_size=5))
def test_csv_matches_the_reference_on_generated_rows(tmp_path_factory, rows):
    header = ["n", "ok", "epsilon", "name"]
    expected = reference_csv(tmp_path_factory.mktemp("csv"), header,
                             [dict(zip(header, row)) for row in rows])
    assert cli._csv(header, rows) + "\n" == expected


def test_csv_writes_a_numpy_float_as_its_float_repr():
    # repr() of a numpy float64 is "np.float64(0.5)" under numpy 2
    rows = [(np.float64(0.5), np.float64(float("inf")), np.float64(-0.0), True)]
    assert cli._csv(["epsilon", "slope", "residual", "ok"], rows) == (
        "epsilon,slope,residual,ok\n0.5,inf,-0.0,true")
    assert cli._json(np.float64(0.5)) == "0.5"


# one-variant grids; the CLI cases below write two- and four-variant results
@pytest.mark.parametrize("variants", [("two_sided",), ("mean_metric",)])
def test_json_matches_the_reference_on_one_variant_grids(variants):
    n_list, eps_list = [1, 2, 3, 4], [0.5, 0.25]
    orbits = build_orbits(MapSpec(kind="tent"), circle_grid(16), max(n_list))
    grid = count_grid(QuasiMetricSpec(kind="weighted_asym", alpha=0.5, beta=2.0),
                      orbits, n_list, eps_list, variants=variants)
    assert cli._json(grid) + "\n" == reference_json(grid)
    estimates = {v: estimate_from_grid(grid, v, FitSettings(n_burn=1)) for v in variants}
    assert cli._json(estimates) + "\n" == reference_json(estimates)


def _kept(monkeypatch, name: str) -> list:
    """Wrap qme.cli's name so that each result it returns is kept."""
    kept, fn = [], getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a, **k: kept.append(fn(*a, **k)) or kept[-1])
    return kept


def _variant_of(q: str) -> str:
    return next(v for v, pair in QUANTITY_PAIRS.items() if q in pair)


# command: (qme.cli function whose results it writes, the reference files
# built from those results as the two-pass CLI built them)
CASES = {
    "validate": ("check_axioms", lambda kept: {
        "axiom_report.json": reference_json(kept[0])}),
    "counts": ("count_grid", lambda kept: {
        "counts.json": reference_json(kept[0]),
        "counts.csv": (["n", "epsilon", "variant", "quantity", "cardinality", "method",
                        "optimal"],
                       [{**cell, **cell[q], "variant": _variant_of(q), "quantity": q}
                        for cell in plain(kept[0].cells) for q in QUANTITIES if q in cell])}),
    "entropy": ("estimate_from_grid", lambda kept: {
        "entropy.json": reference_json({est.variant: est for est in kept}),
        "slopes.csv": (["epsilon", "slope", "residual", "variant"],
                       [{**p, "variant": est.variant}
                        for est in kept for p in plain(est.per_epsilon_slopes)])}),
    "compare": ("compare_theorems", lambda kept: {
        "compare.json": reference_json(kept[0]),
        "compare_checks.csv": (["name", "n", "epsilon", "lhs", "rhs", "ok", "exact"],
                               plain(kept[0].count_checks))}),
    "power": ("power_rule_check", lambda kept: {
        "power.json": reference_json(kept[0]),
        "power_cells.csv": (["n", "epsilon", "lhs", "rhs", "ok", "exact"],
                            plain(kept[0].cells))}),
}


@pytest.mark.parametrize("command", sorted(CASES))
def test_cli_files_match_the_reference(tmp_path, monkeypatch, capsys, command):
    config = tmp_path / "run.yaml"
    config.write_text(ASYM_CONFIG.replace(
        "output:", "variants: [two_sided, one_sided, mean_metric, max_metric]\noutput:"))
    name, reference = CASES[command]
    kept = _kept(monkeypatch, name)
    out = tmp_path / "out"
    cli.main([command, "--config", str(config), "--out", str(out)])
    capsys.readouterr()
    expected = reference(kept)
    assert sorted(p.name for p in out.iterdir()) == sorted(expected)
    for file, text in expected.items():
        if file.endswith(".csv"):
            text = reference_csv(tmp_path, *text)
        assert (out / file).read_bytes() == text.encode("utf-8"), file
