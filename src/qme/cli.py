"""Command-line front end: the ``qme`` subcommands and their JSON/CSV writer."""
from __future__ import annotations

import argparse
import logging
import os
import sys
from json.encoder import encode_basestring_ascii as _string
from operator import attrgetter

from .config import EXAMPLE_CONFIG, ConfigError, RunConfig, _integer, _path, load_config
from .covering import QUANTITY_PAIRS, count_grid
from .dynamics import build_orbits
from .entropy import (
    FitSettings,
    binding_failures,
    compare_theorems,
    estimate_from_grid,
    growth_rate,
    power_rule_check,
)
from .quasimetric import check_axioms

DESCRIPTION = """Command-line front end.

Subcommands: ``validate`` (axiom report), ``counts`` (spanning/separated count
grid), ``entropy`` (growth-rate estimates), ``compare`` (inequality and
identity checks between the estimate variants), ``power`` (composition rule).

Outputs are plain CSV/JSON files written deterministically: two runs with the
same configuration produce byte-identical files. Every JSON file holds a
result's fields by name, with ``epsilon`` for ``eps``, in sorted keys indented
by 2, and the CSV columns use the same names. Exit codes:
0 success, 1 check failure, 2 precondition or usage warning, 3 configuration
error.
Set QME_LOG=debug|info|warning to control verbosity.
"""

log = logging.getLogger("qme")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_WARNING = 2
EXIT_PARSE_ERROR = 3


def _setup_logging() -> None:
    level = os.environ.get("QME_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# exact type -> its JSON text; numpy's float64 is matched by isinstance
_SCALARS = {str: _string, int: int.__repr__,
            float: lambda x: _NONFINITE.get(r := float.__repr__(x), r),
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): {None: "null"}.__getitem__}
_KEYS = {}  # result class -> its ('"key": ', attribute) pairs in key order


def _json(x, pad: str = "\n") -> str:
    """The JSON text of a result on a line that starts with pad, a newline and
    the indent (README, Outputs per command). A dataclass is the object of its
    fields that are not None; a dict keyed by (n, eps) is its values' array."""
    scalar = _SCALARS.get(type(x))
    if scalar is not None:
        return scalar(x)
    if isinstance(x, float):
        return _SCALARS[float](x)
    inner = pad + "  "
    if isinstance(x, (list, tuple)):
        items = (map(int.__repr__, x) if all(type(v) is int for v in x)  # witnesses
                 else [s(v) if (s := _SCALARS.get(type(v))) else _json(v, inner) for v in x])
        return "[" + inner + ("," + inner).join(items) + pad + "]" if x else "[]"
    if isinstance(x, dict):
        if x and isinstance(next(iter(x)), tuple):
            return _json(list(x.values()), pad)
        named = {(repr(k) if isinstance(k, float) else k): v for k, v in x.items()}
        members = [_string(k) + ": " + _json(named[k], inner) for k in sorted(named)]
    else:
        if type(x) not in _KEYS:
            _KEYS[type(x)] = tuple((_string(k) + ": ", f) for k, f in sorted(
                ("epsilon" if f == "eps" else f, f) for f in type(x).__dataclass_fields__))
        members = [key + (s(v) if (s := _SCALARS.get(type(v))) else _json(v, inner))
                   for key, name in _KEYS[type(x)] if (v := getattr(x, name)) is not None]
    return "{" + inner + ("," + inner).join(members) + pad + "}" if members else "{}"


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return float.__repr__(v) if isinstance(v, float) else str(v)


def _csv(header: list, rows) -> str:
    """A header line, then one line per row of values in header order."""
    return "\n".join([",".join(header)] + [",".join(map(_cell, row)) for row in rows])


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines((text, "\n"))
    log.info("wrote %s", path)


def _prepare(args) -> RunConfig:
    cfg = load_config(args.config)
    if args.out is not None:
        cfg.out_dir = _path(args.out, "--out")
    if args.exact_threshold is not None:
        cfg.exact_threshold = _integer(args.exact_threshold, "--exact-threshold", 0)
    if args.seed is not None:
        cfg.seed = _integer(args.seed, "--seed", 0)
    if getattr(args, "format", None) is not None:
        cfg.out_format = args.format
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg


def cmd_validate(args) -> int:
    cfg = _prepare(args)
    report = check_axioms(cfg.qspec, cfg.cloud, cfg.triple_budget, seed=cfg.seed)
    _write(os.path.join(cfg.out_dir, "axiom_report.json"), _json(report))
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


def _fit(cfg: RunConfig) -> FitSettings:
    """cfg's fit settings; a ConfigError when they leave fewer than 3 n to fit."""
    try:
        growth_rate([(n, 1) for n in cfg.n_list], n_burn=cfg.fit.n_burn,
                    window_size=cfg.fit.window_size)
    except ValueError as exc:
        raise ConfigError(f"slope fitting {exc}") from exc
    return cfg.fit


def cmd_counts(args) -> int:
    cfg = _prepare(args)
    orbits = build_orbits(cfg.map_spec, cfg.cloud, max(cfg.n_list),
                          snap_mode=cfg.snap_mode, qspec=cfg.qspec)
    grid = count_grid(cfg.qspec, orbits, cfg.n_list, cfg.eps_list,
                      exact_threshold=cfg.exact_threshold)
    if cfg.out_format in ("csv", "both"):
        _write(os.path.join(cfg.out_dir, "counts.csv"), _csv(
            ["n", "epsilon", "variant", "quantity", "cardinality", "method", "optimal"],
            [(cell.n, cell.eps, v, q, r.cardinality, r.method, r.optimal)
             for cell in grid.cells.values() for v, pair in QUANTITY_PAIRS.items()
             for q in pair if (r := getattr(cell, q)) is not None]))
    if cfg.out_format in ("json", "both"):
        _write(os.path.join(cfg.out_dir, "counts.json"), _json(grid))
    print(f"count grid: {len(grid.cells)} cells over n={cfg.n_list} "
          f"eps={cfg.eps_list}")
    for note in grid.diagnostics:
        print(f"  note: {note}")
    return EXIT_OK


def cmd_entropy(args) -> int:
    cfg = _prepare(args)
    fit = _fit(cfg)
    orbits = build_orbits(cfg.map_spec, cfg.cloud, max(cfg.n_list),
                          snap_mode=cfg.snap_mode, qspec=cfg.qspec)
    grid = count_grid(cfg.qspec, orbits, cfg.n_list, cfg.eps_list,
                      exact_threshold=cfg.exact_threshold, variants=cfg.variants)
    estimates = {}
    slope_rows = []
    for variant in cfg.variants:
        est = estimate_from_grid(grid, variant, fit)
        estimates[variant] = est
        slope_rows += [(p.eps, p.slope, p.residual, variant)
                       for p in est.per_epsilon_slopes]
        print(f"{variant}: extrapolated={est.extrapolated!r} "
              f"stabilized={est.stabilized}")
        for note in est.diagnostics:
            print(f"  note: {note}")

    if cfg.out_format in ("json", "both"):
        _write(os.path.join(cfg.out_dir, "entropy.json"), _json(estimates))
    if cfg.out_format in ("csv", "both"):
        _write(os.path.join(cfg.out_dir, "slopes.csv"),
               _csv(["epsilon", "slope", "residual", "variant"], slope_rows))
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = _prepare(args)
    report = compare_theorems(cfg.map_spec, cfg.cloud, cfg.qspec, cfg.n_list,
                              cfg.eps_list, exact_threshold=cfg.exact_threshold,
                              snap_mode=cfg.snap_mode,
                              estimator_tol=cfg.estimator_tol, fit=_fit(cfg))
    _write(os.path.join(cfg.out_dir, "compare.json"), _json(report))
    if cfg.out_format in ("csv", "both"):
        _write(os.path.join(cfg.out_dir, "compare_checks.csv"), _csv(
            ["name", "n", "epsilon", "lhs", "rhs", "ok", "exact"], map(attrgetter(
                "name", "n", "eps", "lhs", "rhs", "ok", "exact"), report.count_checks)))
    failed = binding_failures(report.count_checks)
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
    m = cfg.power_m if args.m is None else _integer(args.m, "-m", 1)
    report = power_rule_check(cfg.map_spec, m, cfg.cloud, cfg.qspec, cfg.n_list,
                              cfg.eps_list, exact_threshold=cfg.exact_threshold,
                              snap_mode=cfg.snap_mode,
                              power_tol_rel=cfg.power_tol_rel,
                              power_tol_abs=cfg.power_tol_abs, fit=_fit(cfg))
    _write(os.path.join(cfg.out_dir, "power.json"), _json(report))
    if cfg.out_format in ("csv", "both"):
        _write(os.path.join(cfg.out_dir, "power_cells.csv"), _csv(
            ["n", "epsilon", "lhs", "rhs", "ok", "exact"],
            map(attrgetter("n", "eps", "lhs", "rhs", "ok", "exact"), report.cells)))
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
        description=DESCRIPTION,
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
                       help="output file formats (compare and power always "
                            "write their JSON report)")
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
