"""Run configuration: one YAML document describing the system, schedules,
solver policy and tolerances for a reproducible experiment."""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import yaml

from . import dynamics, quasimetric
from .covering import DEFAULT_EXACT_THRESHOLD
from .dynamics import MapSpec, PointCloud
from .entropy import (
    DEFAULT_ESTIMATOR_TOL,
    DEFAULT_N_BURN,
    DEFAULT_POWER_TOL_ABS,
    DEFAULT_POWER_TOL_REL,
    DEFAULT_SATURATION_FRACTION,
    DEFAULT_STABILITY_TOL,
    ENTROPY_VARIANTS,
)
from .quasimetric import DEFAULT_SEED, QuasiMetricSpec

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config", "EXAMPLE_CONFIG"]

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
    map_spec: MapSpec
    cloud: PointCloud
    qspec: QuasiMetricSpec
    n_list: list
    eps_list: list
    variants: list
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD
    snap_mode: str = "exact"
    n_burn: int = DEFAULT_N_BURN
    window_size: int = 0
    estimator_tol: float = DEFAULT_ESTIMATOR_TOL
    power_tol_rel: float = DEFAULT_POWER_TOL_REL
    power_tol_abs: float = DEFAULT_POWER_TOL_ABS
    stability_tol: float = DEFAULT_STABILITY_TOL
    saturation_fraction: float = DEFAULT_SATURATION_FRACTION
    seed: int = DEFAULT_SEED
    triple_budget: int = DEFAULT_TRIPLE_BUDGET
    power_m: int = 2
    out_dir: str = "out"
    out_format: str = "both"


def _section(doc: dict, name: str) -> dict:
    sec = doc.get(name, {})
    if sec is None:
        sec = {}
    if not isinstance(sec, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    return sec


def _build_cloud(sec: dict, base_dir: str) -> PointCloud:
    kind = sec.get("kind")
    try:
        if kind == "grid1d":
            return dynamics.grid1d(float(sec["lo"]), float(sec["hi"]), int(sec["count"]))
        if kind == "circle_grid":
            return dynamics.circle_grid(int(sec["count"]))
        if kind == "symbol_blocks":
            return dynamics.symbol_blocks(int(sec["alphabet"]), int(sec["length"]))
        if kind == "indices":
            return dynamics.index_cloud(int(sec["count"]))
        if kind == "custom":
            return dynamics.cloud_from_csv(os.path.join(base_dir, sec["path"]))
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"cloud kind {kind!r} is missing field {exc}") from exc
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad cloud: {exc}") from exc
    raise ConfigError(f"unknown cloud kind {kind!r}")


def _build_qmetric(sec: dict, base_dir: str) -> QuasiMetricSpec:
    kind = sec.get("kind")
    try:
        if kind in ("asym_line", "euclidean", "circle_arc", "block_prefix",
                    "block_prefix_asym"):
            return QuasiMetricSpec(kind=kind)
        if kind == "weighted_asym":
            return QuasiMetricSpec(kind="weighted_asym",
                                   alpha=float(sec.get("alpha", 1.0)),
                                   beta=float(sec.get("beta", 1.0)))
        if kind == "matrix":
            if "rows" in sec:
                return QuasiMetricSpec(kind="matrix",
                                       matrix=np.asarray(sec["rows"], dtype=float))
            return quasimetric.load_matrix_csv(os.path.join(base_dir, sec["path"]))
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"qmetric kind {kind!r} is missing field {exc}") from exc
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad qmetric: {exc}") from exc
    raise ConfigError(f"unknown qmetric kind {kind!r}")


def _build_map(sec: dict) -> MapSpec:
    kind = sec.get("kind")
    if kind not in ("identity", "doubling", "tent", "logistic", "shift_left", "affine"):
        raise ConfigError(f"unknown map kind {kind!r}")
    kwargs = {}
    for name in ("slope", "r", "a", "b"):
        if name in sec:
            kwargs[name] = float(sec[name])
    if "power" in sec:
        kwargs["power"] = int(sec["power"])
    if "declared_uniformly_continuous" in sec:
        kwargs["declared_uniformly_continuous"] = bool(sec["declared_uniformly_continuous"])
    try:
        return MapSpec(kind=kind, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad map: {exc}") from exc


def _validate_schedule(n_list, eps_list):
    if not n_list:
        raise ConfigError("schedule.n_list must be nonempty")
    if not eps_list:
        raise ConfigError("schedule.eps_list must be nonempty")
    ns = [int(n) for n in n_list]
    if any(n < 1 for n in ns):
        raise ConfigError("n values must be >= 1")
    if sorted(set(ns)) != ns:
        raise ConfigError("n_list must be strictly increasing")
    eps = [float(e) for e in eps_list]
    if any(not e > 0.0 for e in eps):
        raise ConfigError("eps values must be > 0")
    for hi, lo in zip(eps, eps[1:]):
        if lo * 2.0 != hi:
            raise ConfigError(f"eps_list must halve at each step; "
                              f"{lo} is not half of {hi}")
    return ns, eps


def parse_config(doc: dict, base_dir: str = ".") -> RunConfig:
    """Build a validated run configuration from a parsed YAML mapping."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be a mapping")
    cloud = _build_cloud(_section(doc, "cloud"), base_dir)
    qspec = _build_qmetric(_section(doc, "qmetric"), base_dir)
    map_spec = _build_map(_section(doc, "map"))
    sched = _section(doc, "schedule")
    n_list, eps_list = _validate_schedule(sched.get("n_list", []),
                                          sched.get("eps_list", []))

    if qspec.kind == "matrix" and cloud.kind != "indices":
        raise ConfigError("matrix qmetric needs an 'indices' cloud")
    if qspec.kind == "matrix" and len(cloud) != qspec.matrix.shape[0]:
        raise ConfigError(f"matrix size {qspec.matrix.shape[0]} does not match "
                          f"cloud size {len(cloud)}")
    if qspec.kind.startswith("block") and cloud.kind != "symbol_blocks":
        raise ConfigError("block qmetrics need a symbol_blocks cloud")
    if map_spec.kind == "shift_left" and cloud.kind != "symbol_blocks":
        raise ConfigError("shift_left map needs a symbol_blocks cloud")

    solver = _section(doc, "solver")
    mode = solver.get("mode", "auto")
    if mode not in ("auto", "exact", "greedy"):
        raise ConfigError(f"unknown solver mode {mode!r}")
    orbits = _section(doc, "orbits")
    snap = orbits.get("snap_mode", "exact")
    if snap not in ("exact", "nearest"):
        raise ConfigError(f"unknown snap mode {snap!r}")

    variants = doc.get("variants", list(ENTROPY_VARIANTS))
    if isinstance(variants, str):
        variants = [variants]
    for v in variants:
        if v not in ENTROPY_VARIANTS:
            raise ConfigError(f"unknown entropy variant {v!r}")

    fit = _section(doc, "fit")
    tol = _section(doc, "tolerances")
    seeds = _section(doc, "seeds")
    validate = _section(doc, "validate")
    power = _section(doc, "power")
    output = _section(doc, "output")
    fmt = output.get("format", "both")
    if fmt not in ("csv", "json", "both"):
        raise ConfigError(f"unknown output format {fmt!r}")

    try:
        cfg = RunConfig(
            map_spec=map_spec,
            cloud=cloud,
            qspec=qspec,
            n_list=n_list,
            eps_list=eps_list,
            variants=list(variants),
            exact_threshold=int(solver.get("exact_threshold", DEFAULT_EXACT_THRESHOLD)),
            snap_mode=snap,
            n_burn=int(fit.get("n_burn", DEFAULT_N_BURN)),
            window_size=int(fit.get("window_size", 0)),
            estimator_tol=float(tol.get("estimator_tol", DEFAULT_ESTIMATOR_TOL)),
            power_tol_rel=float(tol.get("power_tol_rel", DEFAULT_POWER_TOL_REL)),
            power_tol_abs=float(tol.get("power_tol_abs", DEFAULT_POWER_TOL_ABS)),
            stability_tol=float(tol.get("stability_tol", DEFAULT_STABILITY_TOL)),
            saturation_fraction=float(tol.get("saturation_fraction",
                                              DEFAULT_SATURATION_FRACTION)),
            seed=int(seeds.get("base", DEFAULT_SEED)),
            triple_budget=int(validate.get("triple_budget", DEFAULT_TRIPLE_BUDGET)),
            power_m=int(power.get("m", 2)),
            out_dir=str(output.get("dir", "out")),
            out_format=fmt,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad configuration value: {exc}") from exc
    if cfg.exact_threshold < 0:
        raise ConfigError("solver.exact_threshold must be >= 0")
    if cfg.triple_budget < 1:
        raise ConfigError("validate.triple_budget must be >= 1")
    if cfg.power_m < 1:
        raise ConfigError("power.m must be >= 1")
    if mode != "auto":  # legacy spelling of the threshold
        cfg.exact_threshold = 0 if mode == "greedy" else len(cloud)
    return cfg


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
