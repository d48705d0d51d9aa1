"""Run configuration: one YAML document describing the system, schedules,
solver policy and tolerances for a reproducible experiment.

``TABLES`` holds every key the document may set, one key table per section,
and ``parse_config`` refuses any other, and any key of the ``map``, ``cloud``
or ``qmetric`` section that the section's kind does not read (``KIND_KEYS``)."""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np
import yaml

from . import dynamics, quasimetric
from .covering import DEFAULT_EXACT_THRESHOLD
from .dynamics import MapSpec, PointCloud
from .entropy import (
    DEFAULT_ESTIMATOR_TOL,
    DEFAULT_POWER_TOL_ABS,
    DEFAULT_POWER_TOL_REL,
    ENTROPY_VARIANTS,
    FitSettings,
)
from .quasimetric import DEFAULT_SEED, QuasiMetricSpec

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config", "EXAMPLE_CONFIG",
           "TABLES", "KIND_KEYS"]

DEFAULT_TRIPLE_BUDGET = 200_000

EXAMPLE_CONFIG = """\
# Example run configuration (YAML). All sections and defaults shown.
map:
  kind: doubling            # identity | doubling | tent | logistic | shift_left | affine
  # slope: 2.0              # tent parameter, in (0, 2]
  # r: 4.0                  # logistic parameter, in (0, 4]
  # a: 1.0                  # affine scale
  # b: 0.0                  # affine offset
  # power: 1                # apply the map this many times per step
  # declared_uniformly_continuous: true   # override the catalog flag

cloud:
  kind: circle_grid         # grid1d | circle_grid | symbol_blocks | custom | indices
  count: 48                 # circle_grid / indices size
  # lo: 0.0                 # grid1d bounds
  # hi: 1.0
  # alphabet: 2             # symbol_blocks
  # length: 10
  # path: points.csv        # custom cloud coordinates

qmetric:
  kind: circle_arc          # asym_line | euclidean | circle_arc | weighted_asym
                            # | matrix | block_prefix | block_prefix_asym
  # alpha: 1.0              # weighted_asym forward weight
  # beta: 2.0               # weighted_asym backward weight
  # path: qmetric.csv       # matrix CSV ('qmetric,v1,<n>' header)
  # rows: [[0.0, 1.0], [2.0, 0.0]]   # inline matrix alternative

schedule:
  n_list: [1, 2, 3, 4]
  eps_list: [0.5, 0.25, 0.125, 0.0625]   # strictly halving

solver:
  exact_threshold: 64       # solve exactly up to this cloud size; 0 = always greedy
  # mode: auto              # legacy spelling: greedy = threshold 0, exact = cloud size

orbits:
  snap_mode: exact          # exact | nearest

fit:
  n_burn: 2                 # drop n below this before fitting
  window_size: 0            # 0 = use every point from n_burn on

tolerances:
  estimator_tol: 0.05       # slack for estimate-level comparisons (natural log)
  power_tol_rel: 0.2        # composition-rule relative slack
  power_tol_abs: 0.05       # composition-rule absolute slack
  stability_tol: 0.05       # per-scale slope stabilization flag
  saturation_fraction: 0.5  # drop counts >= fraction * cloud size from fits

seeds:
  base: 1234                # drives triple sampling in axiom checks

validate:
  triple_budget: 200000     # exhaustive when cloud_size^3 fits, else sampled

power:
  m: 2                      # composition exponent for the power command

variants: [two_sided, one_sided, mean_metric, max_metric]

output:
  dir: out
  format: both              # csv | json | both
"""


class ConfigError(Exception):
    """Configuration could not be parsed or validated."""


@dataclass
class RunConfig:
    """A validated configuration; ``parse_config`` sets every field."""

    map_spec: MapSpec
    cloud: PointCloud
    qspec: QuasiMetricSpec
    n_list: list
    eps_list: list
    variants: list
    exact_threshold: int
    snap_mode: str
    fit: FitSettings
    estimator_tol: float
    power_tol_rel: float
    power_tol_abs: float
    seed: int
    triple_budget: int
    power_m: int
    out_dir: str
    out_format: str


# Parsers: each takes a value and its field name, and returns the value read
# or raises a ConfigError that names the field.
def _number(value, name: str, least: float | None = None, kind: type = float):
    """value as a ``kind``, float or int, of at least ``least``. An int field
    reads 2.0 as 2 and refuses 2.5, not truncates it. A YAML boolean is
    refused, not read as 0 or 1, and a NaN fails any bound: as a tolerance it
    would fail every comparison, or drop the saturation filter, without a word."""
    number = None
    try:
        if not isinstance(value, bool) and (kind is float or float(value).is_integer()):
            number = kind(value)
    except (TypeError, ValueError, OverflowError):
        pass
    if number is None:
        article = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {article}, got {value!r}")
    if least is not None and not number >= least:
        raise ConfigError(f"{name} must be >= {least}")
    return number


_integer = partial(_number, kind=int)


def _boolean(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _path(value, name: str) -> str:
    """value as a path; YAML's null and the empty string name none."""
    if value is None or value == "":
        raise ConfigError(f"{name} must be a nonempty path, got {value!r}")
    return str(value)


def _as_given(value, name: str):
    return value  # a kind, checked by its section's builder


def _rows(value, name: str) -> list:  # the matrix spec checks the shape
    return [[_number(x, name) for x in _list(row, name)] for row in _list(value, name)]


def _one_of(what: str, *choices: str):
    def parse(value, name):
        if value not in choices:
            raise ConfigError(f"unknown {what} {value!r}")
        return value
    return parse


def _list(value, name: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    if not value:
        raise ConfigError(f"{name} must be nonempty")
    return list(value)


def _n_list(value, name: str) -> list:
    ns = [_integer(n, name, 1) for n in _list(value, name)]
    if sorted(set(ns)) != ns:
        raise ConfigError("n_list must be strictly increasing")
    return ns


def _eps_list(value, name: str) -> list:
    eps = [_number(e, name) for e in _list(value, name)]
    if not all(0.0 < e < float("inf") for e in eps):
        raise ConfigError("eps values must be finite and > 0")
    for hi, lo in zip(eps, eps[1:]):
        if lo * 2.0 != hi:
            raise ConfigError(f"eps_list must halve at each step; "
                              f"{lo} is not half of {hi}")
    return eps


def _variants(value, name: str) -> list:
    variants = _list([value] if isinstance(value, str) else value, name)
    for i, v in enumerate(variants):
        if not isinstance(v, str) or v not in ENTROPY_VARIANTS:
            raise ConfigError(f"unknown entropy variant {v!r}")
        if v in variants[:i]:
            raise ConfigError(f"variant {v!r} is listed more than once")
    return variants


_ABSENT = object()  # no default: the kind that needs the field says it is missing
_NONNEGATIVE = partial(_number, least=0)

# Every key of every section, as key -> (parser, default); a default goes
# through its parser too, so an absent schedule is refused as empty. The one
# top-level key that is not a section, variants, is read by _variants.
TABLES = {
    "map": {
        "kind": (_as_given, None),
        "slope": (_number, MapSpec.slope),
        "r": (_number, MapSpec.r),
        "a": (_number, MapSpec.a),
        "b": (_number, MapSpec.b),
        "power": (_integer, MapSpec.power),
        "declared_uniformly_continuous": (_boolean, MapSpec.declared_uniformly_continuous),
    },
    "cloud": {
        "kind": (_as_given, None),
        "count": (_integer, _ABSENT),
        "lo": (_number, _ABSENT),
        "hi": (_number, _ABSENT),
        "alphabet": (_integer, _ABSENT),
        "length": (_integer, _ABSENT),
        "path": (_path, _ABSENT),
    },
    "qmetric": {
        "kind": (_as_given, None),
        "alpha": (_number, QuasiMetricSpec.alpha),
        "beta": (_number, QuasiMetricSpec.beta),
        "path": (_path, _ABSENT),
        "rows": (_rows, _ABSENT),
    },
    "schedule": {"n_list": (_n_list, []), "eps_list": (_eps_list, [])},
    "solver": {
        "exact_threshold": (partial(_integer, least=0), DEFAULT_EXACT_THRESHOLD),
        "mode": (_one_of("solver mode", "auto", "exact", "greedy"), "auto"),
    },
    "orbits": {"snap_mode": (_one_of("snap mode", "exact", "nearest"), "exact")},
    "fit": {
        "n_burn": (_integer, FitSettings.n_burn),
        "window_size": (partial(_integer, least=0), FitSettings.window_size),
    },
    "tolerances": {
        "estimator_tol": (_NONNEGATIVE, DEFAULT_ESTIMATOR_TOL),
        "power_tol_rel": (_NONNEGATIVE, DEFAULT_POWER_TOL_REL),
        "power_tol_abs": (_NONNEGATIVE, DEFAULT_POWER_TOL_ABS),
        "stability_tol": (_NONNEGATIVE, FitSettings.stability_tol),
        "saturation_fraction": (_NONNEGATIVE, FitSettings.saturation_fraction),
    },
    "seeds": {"base": (partial(_integer, least=0), DEFAULT_SEED)},
    "validate": {"triple_budget": (partial(_integer, least=1), DEFAULT_TRIPLE_BUDGET)},
    "power": {"m": (partial(_integer, least=1), 2)},
    "output": {
        "dir": (_path, "out"),
        "format": (_one_of("output format", "csv", "json", "both"), "both"),
    },
}


_MAP_SHARED = ("kind", "power", "declared_uniformly_continuous")
# section -> kind -> the keys of the section's table that the kind reads. A
# kind that is not listed here is refused by its section's builder.
KIND_KEYS = {
    "map": {"identity": _MAP_SHARED, "doubling": _MAP_SHARED, "shift_left": _MAP_SHARED,
            "tent": _MAP_SHARED + ("slope",), "logistic": _MAP_SHARED + ("r",),
            "affine": _MAP_SHARED + ("a", "b")},
    "cloud": {"grid1d": ("kind", "count", "lo", "hi"), "circle_grid": ("kind", "count"),
              "indices": ("kind", "count"), "symbol_blocks": ("kind", "alphabet", "length"),
              "custom": ("kind", "path")},
    "qmetric": {"weighted_asym": ("kind", "alpha", "beta"), "matrix": ("kind", "path", "rows"),
                **dict.fromkeys(("asym_line", "euclidean", "circle_arc", "block_prefix",
                                 "block_prefix_asym"), ("kind",))},
}


def _read(sec, section: str) -> dict:
    """{key: value read} for every key of the section that sec sets or that
    has a default; a ConfigError for a key that the section does not have,
    or that the section's kind does not read (``KIND_KEYS``)."""
    table = TABLES[section]
    if sec is None:
        sec = {}
    if not isinstance(sec, dict):
        raise ConfigError(f"section {section!r} must be a mapping")
    for key in sec:
        if key not in table:
            raise ConfigError(f"unknown key {key!r} in section {section!r}; "
                              f"known keys: {', '.join(table)}")
    kind = sec.get("kind")
    reads = KIND_KEYS.get(section, {}).get(kind, table) if isinstance(kind, str) else table
    ignored = [key for key in sec if key not in reads]
    if ignored:
        raise ConfigError(f"{section} kind {kind!r} does not read "
                          f"{', '.join(map(repr, ignored))}; it reads: "
                          f"{', '.join(key for key in table if key in reads)}")
    return {key: parse(sec.get(key, default), f"{section}.{key}")
            for key, (parse, default) in table.items() if key in sec or default is not _ABSENT}


def _build_cloud(sec: dict, base_dir: str) -> PointCloud:
    kind = sec["kind"]
    try:
        if kind == "grid1d":
            return dynamics.grid1d(sec["lo"], sec["hi"], sec["count"])
        if kind == "circle_grid":
            return dynamics.circle_grid(sec["count"])
        if kind == "symbol_blocks":
            return dynamics.symbol_blocks(sec["alphabet"], sec["length"])
        if kind == "indices":
            return dynamics.index_cloud(sec["count"])
        if kind == "custom":
            return dynamics.cloud_from_csv(os.path.join(base_dir, sec["path"]))
    except KeyError as exc:
        raise ConfigError(f"cloud kind {kind!r} is missing field {exc}") from exc
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad cloud: {exc}") from exc
    raise ConfigError(f"unknown cloud kind {kind!r}")


def _build_qmetric(sec: dict, base_dir: str) -> QuasiMetricSpec:
    kind = sec["kind"]
    try:
        if kind != "matrix":
            return QuasiMetricSpec(kind=kind, alpha=sec["alpha"], beta=sec["beta"])
        if "rows" in sec:
            return QuasiMetricSpec(kind=kind, matrix=np.asarray(sec["rows"], dtype=float))
        return quasimetric.load_matrix_csv(os.path.join(base_dir, sec["path"]))
    except KeyError as exc:
        raise ConfigError(f"qmetric kind {kind!r} is missing field {exc}") from exc
    except (TypeError, ValueError, OSError) as exc:  # TypeError: an unhashable kind
        raise ConfigError(f"bad qmetric: {exc}") from exc


def parse_config(doc: dict, base_dir: str = ".") -> RunConfig:
    """Build a validated run configuration from a parsed YAML mapping."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be a mapping")
    for key in doc:
        if key not in TABLES and key != "variants":
            raise ConfigError(f"unknown top-level key {key!r}; known keys: "
                              f"{', '.join(TABLES)}, variants")
    s = {section: _read(doc.get(section), section) for section in TABLES}
    cloud = _build_cloud(s["cloud"], base_dir)
    qspec = _build_qmetric(s["qmetric"], base_dir)
    try:
        map_spec = MapSpec(**s["map"])
    except (TypeError, ValueError) as exc:  # TypeError: an unhashable kind
        raise ConfigError(f"bad map: {exc}") from exc

    if qspec.kind == "matrix" and cloud.kind != "indices":
        raise ConfigError("matrix qmetric needs an 'indices' cloud")
    if qspec.kind == "matrix" and len(cloud) != qspec.matrix.shape[0]:
        raise ConfigError(f"matrix size {qspec.matrix.shape[0]} does not match "
                          f"cloud size {len(cloud)}")
    if qspec.kind.startswith("block") and cloud.kind != "symbol_blocks":
        raise ConfigError("block qmetrics need a symbol_blocks cloud")
    if map_spec.kind == "shift_left" and cloud.kind != "symbol_blocks":
        raise ConfigError("shift_left map needs a symbol_blocks cloud")

    solver, tol = s["solver"], s["tolerances"]
    return RunConfig(
        map_spec=map_spec,
        cloud=cloud,
        qspec=qspec,
        n_list=s["schedule"]["n_list"],
        eps_list=s["schedule"]["eps_list"],
        variants=_variants(doc.get("variants", list(ENTROPY_VARIANTS)), "variants"),
        # mode is the legacy spelling of the threshold
        exact_threshold={"auto": solver["exact_threshold"], "greedy": 0,
                         "exact": len(cloud)}[solver["mode"]],
        snap_mode=s["orbits"]["snap_mode"],
        fit=FitSettings(**s["fit"], saturation_fraction=tol["saturation_fraction"],
                        stability_tol=tol["stability_tol"]),
        estimator_tol=tol["estimator_tol"],
        power_tol_rel=tol["power_tol_rel"],
        power_tol_abs=tol["power_tol_abs"],
        seed=s["seeds"]["base"],
        triple_budget=s["validate"]["triple_budget"],
        power_m=s["power"]["m"],
        out_dir=s["output"]["dir"],
        out_format=s["output"]["format"],
    )


def load_config(path: str) -> RunConfig:
    """Parse and validate a YAML configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    return parse_config(doc, base_dir=os.path.dirname(os.path.abspath(path)))
