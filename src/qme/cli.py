"""Command-line front end.

Subcommands: ``validate`` (axiom report), ``counts`` (spanning/separated count
grid), ``entropy`` (growth-rate estimates), ``compare`` (inequality and
identity checks between the estimate variants), ``power`` (composition rule).

Outputs are plain CSV/JSON files written deterministically: two runs with the
same configuration produce byte-identical files. Every JSON file holds a
result's fields by name, with ``epsilon`` for ``eps``, and the CSV columns use
the same names; one function, ``plain``, serializes them all. Exit codes:
0 success, 1 check failure, 2 precondition or usage warning, 3 configuration
error.
Set QME_LOG=debug|info|warning to control verbosity.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

from .config import EXAMPLE_CONFIG, ConfigError, RunConfig, load_config
from .covering import QUANTITIES, QUANTITY_PAIRS, count_grid
from .dynamics import build_orbits
from .entropy import (
    compare_theorems,
    estimate_from_grid,
    power_rule_check,
    variant_grids,
)
from .quasimetric import check_axioms

log = logging.getLogger("qme")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_WARNING = 2
EXIT_PARSE_ERROR = 3


def _setup_logging() -> None:
    level = os.environ.get("QME_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def plain(result):
    """The JSON form of a result. A dataclass becomes the dict of its fields
    that are not None, with ``eps`` named ``"epsilon"``; a dict keyed by
    (n, eps) tuples becomes the list of its values in insertion order, and a
    float key becomes its repr; tuples and lists become lists. Every other
    value passes through unchanged."""
    if dataclasses.is_dataclass(result):
        return {("epsilon" if f.name == "eps" else f.name): plain(v)
                for f in dataclasses.fields(result)
                if (v := getattr(result, f.name)) is not None}
    if isinstance(result, dict):
        if result and isinstance(next(iter(result)), tuple):
            return [plain(v) for v in result.values()]
        return {(repr(k) if isinstance(k, float) else k): plain(v)
                for k, v in result.items()}
    if isinstance(result, (tuple, list)):
        if all(type(v) is int for v in result):  # a witness: no recursion per id
            return list(result)
        return [plain(v) for v in result]
    return result


def _write_json(path: str, result) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(plain(result), indent=2, sort_keys=True))
        fh.write("\n")
    log.info("wrote %s", path)


def _write_csv(path: str, header: list, rows: list) -> None:
    def fmt(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return repr(v)
        return str(v)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(row[col]) for col in header) + "\n")
    log.info("wrote %s", path)


def _prepare(args) -> RunConfig:
    cfg = load_config(args.config)
    if args.out is not None:
        cfg.out_dir = args.out
    if args.exact_threshold is not None:
        if args.exact_threshold < 0:
            raise ConfigError("--exact-threshold must be >= 0")
        cfg.exact_threshold = args.exact_threshold
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be >= 0")
        cfg.seed = args.seed
    if getattr(args, "format", None) is not None:
        cfg.out_format = args.format
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg


def cmd_validate(args) -> int:
    cfg = _prepare(args)
    report = check_axioms(cfg.qspec, cfg.cloud, cfg.triple_budget, seed=cfg.seed)
    _write_json(os.path.join(cfg.out_dir, "axiom_report.json"), report)
    sampling = "exhaustive" if report.exhaustive else "sampled"
    print(f"axioms on {len(cfg.cloud)} points ({sampling}, "
          f"{report.triples_checked} triples):")
    print(f"  nonnegativity: {'ok' if report.nonnegativity_ok else 'FAILED'}")
    print(f"  identity:      {'ok' if report.identity_ok else 'FAILED'}")
    print(f"  triangle:      {'ok' if report.triangle_ok else 'FAILED'} "
          f"({len(report.violations)} violations)")
    print(f"  symmetric: {report.symmetric}  max asymmetry: {report.max_asymmetry!r}")
    for v in report.violations[:10]:
        print(f"    violation x={v[0]} y={v[1]} z={v[2]}: {v[3]!r} > {v[4]!r}")
    return EXIT_OK if report.all_ok else EXIT_CHECK_FAILED


def _require_fit_window(cfg: RunConfig) -> None:
    usable = [n for n in cfg.n_list if n >= cfg.n_burn]
    if cfg.window_size > 0:
        usable = usable[-cfg.window_size:]
    if len(usable) < 3:
        raise ConfigError(
            f"slope fitting needs at least 3 points with n >= n_burn "
            f"({cfg.n_burn}); schedule provides {len(usable)}")


def cmd_counts(args) -> int:
    cfg = _prepare(args)
    orbits = build_orbits(cfg.map_spec, cfg.cloud, max(cfg.n_list),
                          snap_mode=cfg.snap_mode, qspec=cfg.qspec)
    grid = count_grid(cfg.qspec, orbits, cfg.n_list, cfg.eps_list,
                      exact_threshold=cfg.exact_threshold)
    if cfg.out_format in ("csv", "both"):
        variant_of = {q: v for v, pair in QUANTITY_PAIRS.items() for q in pair}
        _write_csv(os.path.join(cfg.out_dir, "counts.csv"),
                   ["n", "epsilon", "variant", "quantity", "cardinality",
                    "method", "optimal"],
                   [{**cell, **cell[q], "variant": variant_of[q], "quantity": q}
                    for cell in plain(grid.cells) for q in QUANTITIES if q in cell])
    if cfg.out_format in ("json", "both"):
        _write_json(os.path.join(cfg.out_dir, "counts.json"), grid)
    print(f"count grid: {len(grid.cells)} cells over n={cfg.n_list} "
          f"eps={cfg.eps_list}")
    for note in grid.diagnostics:
        print(f"  note: {note}")
    return EXIT_OK


def cmd_entropy(args) -> int:
    cfg = _prepare(args)
    _require_fit_window(cfg)
    orbits = build_orbits(cfg.map_spec, cfg.cloud, max(cfg.n_list),
                          snap_mode=cfg.snap_mode, qspec=cfg.qspec)
    grid = variant_grids(cfg.qspec, orbits, cfg.variants, cfg.n_list,
                         cfg.eps_list, exact_threshold=cfg.exact_threshold)
    estimates = {}
    slope_rows = []
    for variant in cfg.variants:
        est = estimate_from_grid(grid, variant, n_burn=cfg.n_burn,
                                 window_size=cfg.window_size,
                                 saturation_fraction=cfg.saturation_fraction,
                                 stability_tol=cfg.stability_tol)
        estimates[variant] = est
        slope_rows += [{**p, "variant": variant}
                       for p in plain(est.per_epsilon_slopes)]
        print(f"{variant}: extrapolated={est.extrapolated!r} "
              f"stabilized={est.stabilized}")
        for note in est.diagnostics:
            print(f"  note: {note}")

    if cfg.out_format in ("json", "both"):
        _write_json(os.path.join(cfg.out_dir, "entropy.json"), estimates)
    if cfg.out_format in ("csv", "both"):
        _write_csv(os.path.join(cfg.out_dir, "slopes.csv"),
                   ["epsilon", "slope", "residual", "variant"], slope_rows)
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = _prepare(args)
    _require_fit_window(cfg)
    report = compare_theorems(cfg.map_spec, cfg.cloud, cfg.qspec, cfg.n_list,
                              cfg.eps_list, exact_threshold=cfg.exact_threshold,
                              snap_mode=cfg.snap_mode,
                              estimator_tol=cfg.estimator_tol,
                              n_burn=cfg.n_burn, window_size=cfg.window_size,
                              saturation_fraction=cfg.saturation_fraction,
                              stability_tol=cfg.stability_tol)
    _write_json(os.path.join(cfg.out_dir, "compare.json"), report)
    if cfg.out_format in ("csv", "both"):
        _write_csv(os.path.join(cfg.out_dir, "compare_checks.csv"),
                   ["name", "n", "epsilon", "lhs", "rhs", "ok", "exact"],
                   plain(report.count_checks))
    failed = [c for c in report.count_checks if c.exact and not c.ok]
    print(f"count checks: {len(report.count_checks)} "
          f"({len(failed)} binding failures)")
    print(f"relations identical (max symmetrization): {report.relations_identical}")
    for c in report.estimate_checks:
        print(f"estimate check {c.name}: lhs={c.lhs!r} rhs={c.rhs!r} "
              f"tol={c.tol!r} -> {'ok' if c.ok else 'FAILED'}")
    print(f"overall: {'ok' if report.overall_ok else 'FAILED'}")
    return EXIT_OK if report.overall_ok else EXIT_CHECK_FAILED


def cmd_power(args) -> int:
    cfg = _prepare(args)
    m = args.m if args.m is not None else cfg.power_m
    if m < 1:
        raise ConfigError("-m must be >= 1")
    _require_fit_window(cfg)
    report = power_rule_check(cfg.map_spec, m, cfg.cloud, cfg.qspec, cfg.n_list,
                              cfg.eps_list, exact_threshold=cfg.exact_threshold,
                              snap_mode=cfg.snap_mode,
                              power_tol_rel=cfg.power_tol_rel,
                              power_tol_abs=cfg.power_tol_abs,
                              n_burn=cfg.n_burn, window_size=cfg.window_size,
                              saturation_fraction=cfg.saturation_fraction,
                              stability_tol=cfg.stability_tol)
    _write_json(os.path.join(cfg.out_dir, "power.json"), report)
    if cfg.out_format in ("csv", "both"):
        _write_csv(os.path.join(cfg.out_dir, "power_cells.csv"),
                   ["n", "epsilon", "lhs", "rhs", "ok", "exact"],
                   plain(report.cells))
    print(f"composition rule m={m}: uc_declared={report.uc_declared}")
    print(f"cells ok: {sum(c.ok for c in report.cells)}/{len(report.cells)}")
    print(f"estimate: composed={report.estimate_composed.extrapolated!r} "
          f"target={report.target!r} tol={report.tol!r} -> "
          f"{'ok' if report.estimates_ok else 'FAILED'}")
    if not report.uc_declared:
        print("warning: map is not declared uniformly continuous")
        return EXIT_WARNING
    return EXIT_OK if report.overall_ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qme",
        description=__doc__,
        epilog="Example configuration:\n\n" + EXAMPLE_CONFIG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, extra in (
        ("validate", cmd_validate, "check the distance rule axioms on the cloud"),
        ("counts", cmd_counts, "compute the spanning/separated count grid"),
        ("entropy", cmd_entropy, "estimate entropy for the requested variants"),
        ("compare", cmd_compare, "run the count and estimate comparison checks"),
        ("power", cmd_power, "check the composition rule for T^m"),
    ):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", default=None, help="output directory")
        # still parsed because perfbench/workloads.py passes it
        p.add_argument("--threads", type=int, default=None,
                       help="accepted and ignored: cells are solved serially")
        p.add_argument("--exact-threshold", type=int, default=None,
                       dest="exact_threshold",
                       help="largest cloud solved exactly (0: always greedy)")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for sampled axiom triples")
        p.add_argument("--format", choices=("csv", "json", "both"), default=None,
                       help="output file formats")
        if name == "power":
            p.add_argument("-m", type=int, default=None,
                           help="composition exponent (default from config)")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
