"""Library entry points check their arguments with the checks in errors.py."""

import math

import numpy as np
import pytest

import gausspml as gp
from gausspml import DomainError, Interval

BAD_CALLS = {
    "bruteforce max_cells bool": lambda m: gp.envelope_bruteforce_lower_bound(m, 0.1, True),
    "bruteforce max_cells 7": lambda m: gp.envelope_bruteforce_lower_bound(m, 0.1, 7),
    "bruteforce delta string": lambda m: gp.envelope_bruteforce_lower_bound(m, "0.1", 2),
    "envelope_point delta 1": lambda m: gp.envelope_point(m, 1.0),
    "envelope_curve delta string": lambda m: gp.envelope_curve(m, ["0.1"]),
    "quantile bool": lambda m: m.marginal_quantile(True),
    "quantile nan": lambda m: m.marginal_quantile(float("nan")),
    "partition_delta_quantile delta string": lambda m: gp.partition_delta_quantile(m, None, "0.1"),
    "tail_thresholds delta string": lambda m: gp.tail_thresholds(m, "0.1", 0.1),
    "worst_interval_search delta string": lambda m: gp.worst_interval_search(
        m, Interval(-1.0, 1.0), "0.1"
    ),
    "concavity n_samples bool": lambda m: gp.check_concavity_identity(m, True),
    "monotonicity n_grid float": lambda m: gp.check_interval_monotonicity(m, 0.5, 4.0, 100.0),
    "monotonicity a string": lambda m: gp.check_interval_monotonicity(m, "0.5", 4.0, 100),
    "tail n_random_sets float": lambda m: gp.check_tail_worst_bound(m, 0.1, 2.5),
    "tail n_random_sets negative": lambda m: gp.check_tail_worst_bound(m, 0.1, -5),
    "bathtub n_random zero": lambda m: gp.check_bathtub_optimality(m, 0, (-1, 1), 0.2, 0),
    "bathtub delta string": lambda m: gp.check_bathtub_optimality(m, 0, (-1, 1), "0.2", 5),
    "interval string": lambda m: Interval("a", 1),
    "interval None": lambda m: Interval(0.0, None),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_argument_raises_domain_error(canonical, call):
    with pytest.raises(DomainError):
        call(canonical)


def test_probability_range_message_kept(canonical):
    with pytest.raises(DomainError, match="delta: must lie strictly between 0 and 1"):
        gp.envelope_point(canonical, 1.5)


def test_numpy_reals_accepted(canonical):
    assert canonical.marginal_quantile(np.float32(0.5)) == pytest.approx(0.0, abs=1e-9)
    point = gp.envelope_point(canonical, np.float32(0.1))
    assert float(point.epsilon_d) == pytest.approx(math.log(20.0), rel=1e-7)
    value, _ = gp.envelope_bruteforce_lower_bound(canonical, np.float64(0.1), np.int64(2))
    assert float(value) >= math.log(10.0) - 1e-6
    assert gp.check_tail_worst_bound(canonical, np.float64(0.1), np.int64(3)).passed
