"""Coordinated shared-seed sampling and unbiased nonnegative estimation of
multi-instance aggregates."""

from .analysis import (
    AnalysisError,
    AnalysisReport,
    CheckResult,
    RATIO_BOUND,
    check_bounded,
    check_estimable,
    check_finite_variance,
    clamped_variance,
    competitiveness_ratio,
    competitiveness_reports,
    curve_table,
    implication_chain_ok,
)
from .estimators import (
    QueryResult,
    bottomk_estimate,
    estimate_query,
    exact_query,
    ht_estimate,
    j_estimate,
    mc_query_estimates,
    sum_estimate,
    v_optimal_estimates,
)
from .functions import (
    ItemFunction,
    LowerBoundFn,
    evaluate,
    lb_function,
    lb_functions,
    lower_bound,
    lower_bound_from_vector,
    max_fn,
    min_fn,
    one_sided_rg_fn,
    or_fn,
    parse_function,
    rg_fn,
)
from .hull import LowerHull, integrate_square, lower_hull
from .model import (
    Domain,
    InstanceSet,
    Known,
    Outcome,
    PiecewiseLinearMap,
    TauScheme,
    Unknown,
    hash_seed,
)
from .samplers import (
    BottomKSample,
    EXP_RANK,
    PPS_RANK,
    RankFunction,
    bottomk_sample,
    inclusion_probability,
    read_samples,
    sample_instances,
    write_samples,
)

__version__ = "0.1.0"
