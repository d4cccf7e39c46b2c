"""Pointwise maximal leakage for the additive Gaussian noise channel.

Priors, the noise mechanism with cached marginal quadrature, event and
partition leakage, the deterministic-leakage envelope with brute-force
witness search, and a numerical verification suite.
"""

from .envelope import (
    ConditionReport,
    EnvelopePoint,
    condition_report,
    delta0_estimate,
    envelope_bruteforce_lower_bound,
    envelope_curve,
    envelope_point,
)
from .errors import (
    DomainError,
    GaussPmlError,
    ModelError,
    NumericalError,
    PreconditionError,
)
from .leakage import (
    FinitePartition,
    Interval,
    LeakageNats,
    event_mass,
    interval_leakage,
    partition_delta_quantile,
    partition_from_json,
    partition_to_json,
    set_leakage_oracle,
    tail_thresholds,
    validate_partition,
    worst_interval_search,
)
from .mechanism import Mechanism
from .numerics import DEFAULT_CONFIG, QuadratureConfig
from .priors import (
    GaussianMixturePrior,
    GaussianPrior,
    GridPrior,
    LogConcavityReport,
    StronglyLogConcavePrior,
    check_strong_log_concavity,
    normalization_constant,
    prior_from_json,
)
from .verify import (
    CheckResult,
    check_bathtub_optimality,
    check_brascamp_lieb_bound,
    check_concavity_identity,
    check_interval_monotonicity,
    check_tail_worst_bound,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "ConditionReport",
    "DEFAULT_CONFIG",
    "DomainError",
    "EnvelopePoint",
    "FinitePartition",
    "GaussPmlError",
    "GaussianMixturePrior",
    "GaussianPrior",
    "GridPrior",
    "Interval",
    "LeakageNats",
    "LogConcavityReport",
    "Mechanism",
    "ModelError",
    "NumericalError",
    "PreconditionError",
    "QuadratureConfig",
    "StronglyLogConcavePrior",
    "check_bathtub_optimality",
    "check_brascamp_lieb_bound",
    "check_concavity_identity",
    "check_interval_monotonicity",
    "check_strong_log_concavity",
    "check_tail_worst_bound",
    "condition_report",
    "delta0_estimate",
    "envelope_bruteforce_lower_bound",
    "envelope_curve",
    "envelope_point",
    "event_mass",
    "interval_leakage",
    "normalization_constant",
    "partition_delta_quantile",
    "partition_from_json",
    "partition_to_json",
    "prior_from_json",
    "run_suite",
    "set_leakage_oracle",
    "tail_thresholds",
    "validate_partition",
    "worst_interval_search",
]
