"""Entropy of maps on quasi-metric spaces, estimated from finite samples via
minimal spanning and maximal separated set counts."""

from .quasimetric import (
    AxiomReport,
    QuasiMetricSpec,
    check_axioms,
    pairwise,
    symmetrize_max,
    symmetrize_mean,
)
from .dynamics import (
    MapSpec,
    OrbitTable,
    PointCloud,
    build_orbits,
    circle_grid,
    cloud_from_csv,
    custom_cloud,
    grid1d,
    index_cloud,
    iterate_map,
    symbol_blocks,
)
from .covering import (
    CellCounts,
    CountGrid,
    CountResult,
    count_grid,
)
from .entropy import (
    EntropyEstimate,
    FitSettings,
    PowerRuleReport,
    TheoremComparison,
    compare_theorems,
    growth_rate,
    power_rule_check,
)

__version__ = "0.1.0"
