"""Event leakage: closed forms vs the formula-free oracle, partitions."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausspml import (
    DomainError,
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
from gausspml.leakage import _mass_end
from gausspml.mechanism import _kernel_prob, _phi_diff
from oracles import trapz_interval_mass

INF = math.inf


class TestLeakageNats:
    def test_roundoff_clamped(self):
        assert float(LeakageNats(-5e-10)) == 0.0

    def test_genuine_negative_rejected(self):
        with pytest.raises(DomainError):
            LeakageNats(-1e-6)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            LeakageNats(float("nan"))

    def test_behaves_as_float(self):
        v = LeakageNats(0.25)
        assert v + 1.0 == 1.25
        assert v.value == 0.25


class TestInterval:
    def test_classification(self):
        assert Interval(-INF, INF).is_full_line
        assert Interval(0.0, 1.0).is_bounded
        assert Interval(-INF, 0.0).has_tail
        assert not Interval(0.0, 1.0).has_tail

    def test_reversed_rejected(self):
        with pytest.raises(DomainError):
            Interval(1.0, 0.0)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            Interval(float("nan"), 1.0)


def _mp_normal_mass(lo, hi, sd):
    """P(lo < Z sd < hi) at 50 digits, taken on the side where it does not cancel."""
    with mpmath.workdps(50):
        if lo + hi > 0.0:
            lo, hi = -hi, -lo
        cdf = lambda t: mpmath.ncdf(mpmath.mpf(t) / sd) if math.isfinite(t) else float(t > 0)
        return float(cdf(hi) - cdf(lo))


class TestPhiDifference:
    @pytest.mark.parametrize(
        "lo, hi",
        [(9.0, 9.01), (-9.01, -9.0), (30.0, 30.5), (-30.5, -30.0), (0.2, 0.3), (-3.0, 5.0),
         (8.0, INF), (-INF, -8.0)],
    )
    def test_conditional_probability_vs_mpmath(self, lo, hi):
        got = float(_kernel_prob(Interval(lo, hi), 0.0, 1.0))
        assert got == pytest.approx(_mp_normal_mass(lo, hi, 1.0), rel=1e-12)

    def test_deep_tail_does_not_cancel(self):
        # the plain form ndtr(9.01) - ndtr(9) rounds to exactly 0 here
        got = float(_phi_diff(9.0, 9.01))
        assert got > 0.0
        assert got == pytest.approx(_mp_normal_mass(9.0, 9.01, 1.0), rel=1e-12)

    def test_elementwise_over_arrays(self):
        za = np.array([-9.01, -0.5, 9.0])
        zb = np.array([-9.0, 0.25, 9.01])
        got = _phi_diff(za, zb)
        for g, a, b in zip(got, za, zb):
            assert g == pytest.approx(_mp_normal_mass(a, b, 1.0), rel=1e-12)


class TestEventMass:
    @pytest.mark.parametrize(
        "lo, hi",
        [(10.0, 11.0), (-11.0, -10.0), (-INF, -10.0), (10.0, INF), (9.0, 9.01),
         (7.0, 7.5), (0.5, 0.6), (-1.0, 2.0), (-INF, 0.3), (3.0, 12.0)],
    )
    def test_gaussian_closed_form(self, canonical, lo, hi):
        # Gaussian(1) through noise 1: the marginal is N(0, 2); masses reach ~1e-12
        got = event_mass(canonical, [Interval(lo, hi)])
        assert got == pytest.approx(_mp_normal_mass(lo, hi, math.sqrt(2.0)), rel=1e-10)

    def test_matches_quadrature_oracle(self, slc):
        for lo, hi in ((-1.0, 0.5), (0.2, 2.0), (-4.0, -2.5)):
            got = event_mass(slc, [Interval(lo, hi)])
            x_lo, x_hi = slc.x_window
            want = trapz_interval_mass(
                lambda x: slc.prior.density(x), 1.0, lo, hi, x_lo, x_hi
            )
            assert got == pytest.approx(want, abs=1e-8)

    def test_tail_pair_complements(self, canonical):
        t = 0.8
        lo_mass = event_mass(canonical, [Interval(-INF, t)])
        hi_mass = event_mass(canonical, [Interval(t, INF)])
        assert lo_mass + hi_mass == pytest.approx(1.0, abs=1e-12)


class TestIntervalLeakage:
    def test_full_line_zero(self, canonical):
        assert float(interval_leakage(canonical, Interval(-INF, INF))) == 0.0

    def test_tail_is_log_inverse_mass(self, canonical):
        iv = Interval(1.3, INF)
        mass = event_mass(canonical, [iv])
        assert float(interval_leakage(canonical, iv)) == pytest.approx(
            -math.log(mass), rel=1e-12
        )

    def test_bounded_matches_oracle_gaussian(self, canonical):
        rng = np.random.default_rng(11)
        for _ in range(40):
            a, b = np.sort(rng.uniform(-4.0, 4.0, 2))
            if b - a < 1e-3:
                continue
            iv = Interval(float(a), float(b))
            closed = float(interval_leakage(canonical, iv))
            oracle = float(set_leakage_oracle(canonical, [iv]))
            assert closed == pytest.approx(oracle, abs=1e-6)

    def test_bounded_matches_oracle_mixture(self, mixture):
        rng = np.random.default_rng(12)
        for _ in range(15):
            a, b = np.sort(rng.uniform(-5.0, 5.0, 2))
            if b - a < 1e-2:
                continue
            iv = Interval(float(a), float(b))
            closed = float(interval_leakage(mixture, iv))
            oracle = float(set_leakage_oracle(mixture, [iv]))
            assert closed == pytest.approx(oracle, abs=1e-5)

    def test_degenerate_rejected(self, canonical):
        with pytest.raises(DomainError):
            interval_leakage(canonical, Interval(0.5, 0.5))

    def test_zero_mass_rejected(self, canonical):
        with pytest.raises(DomainError):
            interval_leakage(canonical, Interval(200.0, 201.0))

    @given(st.floats(min_value=0.01, max_value=0.49))
    @settings(max_examples=30, deadline=None)
    def test_tail_of_mass_delta_leaks_log_inv_delta(self, canonical, delta):
        t = canonical.marginal_quantile(1.0 - delta)
        leak = float(interval_leakage(canonical, Interval(t, INF)))
        assert leak == pytest.approx(math.log(1.0 / delta), abs=1e-9)

    def test_leakage_positive_for_proper_events(self, canonical):
        for iv in (Interval(-0.5, 0.5), Interval(-INF, 0.0), Interval(2.0, 5.0)):
            assert float(interval_leakage(canonical, iv)) > 0.0


class TestSetLeakageOracle:
    def test_union_with_tail_is_symbolic(self, canonical):
        cells = [Interval(-INF, -1.0), Interval(2.0, 3.0)]
        mass = event_mass(canonical, cells)
        assert float(set_leakage_oracle(canonical, cells)) == pytest.approx(
            -math.log(mass), rel=1e-12
        )

    def test_union_leakage_at_least_best_piece(self, canonical):
        cells = [Interval(-2.0, -1.5), Interval(0.5, 0.8)]
        union_leak = float(set_leakage_oracle(canonical, cells))
        # sup over the union is the max of per-cell sups, with more mass
        # in the denominator, so pieces bound the union from above
        for c in cells:
            assert union_leak <= float(interval_leakage(canonical, c)) + 1e-12

    def test_overlapping_cells_rejected(self, canonical):
        with pytest.raises(DomainError):
            set_leakage_oracle(canonical, [Interval(0.0, 1.0), Interval(0.5, 2.0)])


class TestFinitePartition:
    def _three_cell(self):
        cells = (Interval(-INF, -1.0), Interval(-1.0, 1.0), Interval(1.0, INF))
        return FinitePartition(cells, ("lo", "mid", "hi"))

    def test_outcome_unions_group_by_label(self):
        cells = (
            Interval(-INF, -1.0),
            Interval(-1.0, 1.0),
            Interval(1.0, INF),
        )
        part = FinitePartition(cells, ("tail", "core", "tail"))
        unions = dict(part.outcome_unions())
        assert len(unions["tail"]) == 2
        assert len(unions["core"]) == 1

    def test_overlap_rejected(self):
        with pytest.raises(DomainError):
            FinitePartition(
                (Interval(0.0, 2.0), Interval(1.0, 3.0)), ("a", "b")
            )

    def test_validate_accepts_window_tiling(self, canonical):
        validate_partition(canonical, self._three_cell())

    def test_validate_rejects_gap(self, canonical):
        part = FinitePartition(
            (Interval(-INF, -1.0), Interval(0.0, INF)), ("a", "b")
        )
        with pytest.raises(DomainError):
            validate_partition(canonical, part)

    def test_validate_rejects_bounded_coverage(self, canonical):
        part = FinitePartition((Interval(-3.0, 3.0),), ("a",))
        with pytest.raises(DomainError):
            validate_partition(canonical, part)


class TestPartitionDeltaQuantile:
    def test_two_tails_hit_envelope_value(self, canonical):
        for delta in (0.05, 0.1, 0.2, 0.4):
            t_l, t_r = tail_thresholds(canonical, delta / 2, delta / 2)
            part = FinitePartition(
                (Interval(-INF, t_l), Interval(t_l, t_r), Interval(t_r, INF)),
                ("left", "core", "right"),
            )
            got = float(partition_delta_quantile(canonical, part, delta))
            assert got == pytest.approx(math.log(2.0 / delta), abs=1e-9)

    def test_quantile_monotone_in_delta(self, canonical):
        t_l, t_r = tail_thresholds(canonical, 0.1, 0.1)
        part = FinitePartition(
            (Interval(-INF, t_l), Interval(t_l, t_r), Interval(t_r, INF)),
            ("left", "core", "right"),
        )
        small = float(partition_delta_quantile(canonical, part, 0.05))
        large = float(partition_delta_quantile(canonical, part, 0.5))
        assert small >= large

    def test_shared_label_pools_mass(self, canonical):
        # both tails carry one label, so their masses accumulate as one
        # outcome and a delta of twice the single-tail mass still
        # returns the tail leakage
        t_l, t_r = tail_thresholds(canonical, 0.1, 0.1)
        part = FinitePartition(
            (Interval(-INF, t_l), Interval(t_l, t_r), Interval(t_r, INF)),
            ("tails", "core", "tails"),
        )
        got = float(partition_delta_quantile(canonical, part, 0.2))
        assert got == pytest.approx(math.log(1.0 / 0.2), abs=1e-9)

    def test_delta_domain(self, canonical):
        part = FinitePartition((Interval(-INF, INF),), ("all",))
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(DomainError):
                partition_delta_quantile(canonical, part, bad)


class TestTailThresholds:
    def test_inverse_of_masses(self, slc):
        t_l, t_r = tail_thresholds(slc, 0.07, 0.12)
        assert slc.marginal_cdf(t_l) == pytest.approx(0.07, abs=1e-11)
        assert 1.0 - slc.marginal_cdf(t_r) == pytest.approx(0.12, abs=1e-11)

    def test_infeasible_rejected(self, slc):
        with pytest.raises(DomainError):
            tail_thresholds(slc, 0.6, 0.5)


class TestWorstIntervalSearch:
    def test_mass_end_against_closed_form(self, canonical):
        # Y ~ N(0, 2): the end v of a mass-delta interval from u is exact
        # in the quantile route and close in the table route
        us = np.linspace(-3.0, 1.0, 9)
        table = canonical._table_quantile(canonical._table_cdf(us) + 0.1)
        for u, v_table in zip(us, table):
            p = mpmath.ncdf(mpmath.mpf(u) / mpmath.sqrt(2)) + mpmath.mpf("0.1")
            v = float(2 * mpmath.erfinv(2 * p - 1))  # sqrt(2) * Phi^-1(p)
            assert _mass_end(canonical, u, 0.1) == pytest.approx(v, abs=1e-11)
            assert v_table == pytest.approx(v, abs=1e-5)

    def test_right_tail_window_flush_right(self, canonical):
        rng_iv = Interval(1.0, 8.0)
        delta = 0.05
        iv, leak = worst_interval_search(canonical, rng_iv, delta)
        # marginal decreasing there, so the longest mass-delta interval
        # hugs the right edge
        assert iv.hi == pytest.approx(rng_iv.hi, abs=1e-3)
        flush_lo = canonical.marginal_quantile(canonical.marginal_cdf(rng_iv.hi) - delta)
        flush = Interval(flush_lo, rng_iv.hi)
        assert float(leak) == pytest.approx(
            float(interval_leakage(canonical, flush)), abs=1e-7
        )

    def test_beats_random_equal_mass_intervals(self, canonical):
        rng_iv = Interval(-2.0, 2.0)
        delta = 0.1
        _, leak = worst_interval_search(canonical, rng_iv, delta)
        gen = np.random.default_rng(5)
        f_lo = canonical.marginal_cdf(rng_iv.lo)
        f_hi = canonical.marginal_cdf(rng_iv.hi)
        for _ in range(50):
            u = gen.uniform(rng_iv.lo, canonical.marginal_quantile(f_hi - delta))
            v = canonical.marginal_quantile(canonical.marginal_cdf(u) + delta)
            rand_leak = float(interval_leakage(canonical, Interval(u, min(v, rng_iv.hi))))
            assert rand_leak <= float(leak) + 1e-8

    def test_range_validation(self, canonical):
        with pytest.raises(DomainError):
            worst_interval_search(canonical, Interval(0.0, INF), 0.1)
        with pytest.raises(DomainError):
            worst_interval_search(canonical, Interval(-1.0, 1.0), 0.9)  # > range mass


class TestPartitionJson:
    def test_roundtrip(self):
        part = FinitePartition(
            (Interval(-INF, 0.0), Interval(0.0, 1.5), Interval(1.5, INF)),
            ("a", "b", "a"),
        )
        back = partition_from_json(partition_to_json(part))
        assert back == part

    def test_infinite_endpoints_as_strings(self):
        part = FinitePartition((Interval(-INF, 0.0), Interval(0.0, INF)), ("a", "b"))
        obj = partition_to_json(part)
        assert obj["cells"][0]["lo"] == "-inf"
        assert obj["cells"][-1]["hi"] == "inf"

    @pytest.mark.parametrize(
        "lo, hi", [("-inf", "inf"), ("-Infinity", "+inf"), (-INF, "Infinity")]
    )
    def test_infinity_spellings(self, lo, hi):
        obj = {"cells": [{"lo": lo, "hi": hi, "label": "a"}]}
        assert partition_from_json(obj) == FinitePartition((Interval(-INF, INF),), ("a",))

    @pytest.mark.parametrize(
        "obj, fragment",
        [
            ({}, "/cells"),
            ({"cells": []}, "/cells"),
            ({"cells": [{"lo": 0.0, "hi": 1.0}]}, "label"),
            ({"cells": [{"lo": "oops", "hi": 1.0, "label": "a"}]}, "/cells/0"),
            ({"cells": [{"lo": 0.0, "hi": 1.0, "label": "a", "color": 1}]}, "color"),
        ],
    )
    def test_pointer_in_errors(self, obj, fragment):
        with pytest.raises(DomainError) as err:
            partition_from_json(obj)
        assert fragment in str(err.value)
