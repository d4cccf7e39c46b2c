"""Envelope values, regime gating, and brute-force witness search."""

import math

import numpy as np
import pytest

from gausspml import (
    DomainError,
    GaussianPrior,
    GridPrior,
    Mechanism,
    interval_leakage,
    partition_delta_quantile,
    tail_thresholds,
    validate_partition,
)
from gausspml import envelope as envelope_module
from gausspml.envelope import (
    _cut_levels,
    condition_report,
    delta0_estimate,
    envelope_bruteforce_lower_bound,
    envelope_curve,
    envelope_point,
)


class TestConditionReport:
    def test_canonical(self, canonical):
        r = condition_report(canonical)
        assert r.variance_ok
        assert r.sup_posterior_variance == pytest.approx(0.5, abs=1e-9)
        assert r.variance_threshold == pytest.approx(0.75)
        assert r.gaussian_ratio_ok is True
        assert r.slc_ok
        assert r.beta_effective == pytest.approx(1.0, rel=1e-9)
        assert r.tail_unimodal_M is not None

    def test_wide_gaussian_fails_ratio(self, wide_gaussian):
        r = condition_report(wide_gaussian)
        assert r.gaussian_ratio_ok is False
        assert not r.variance_ok
        assert r.sup_posterior_variance == pytest.approx(0.8, abs=1e-6)

    def test_slc(self, slc):
        r = condition_report(slc)
        assert r.variance_ok
        assert r.slc_ok
        assert r.gaussian_ratio_ok is None  # only defined for Gaussian priors
        assert r.sup_posterior_variance == pytest.approx(0.345129, abs=1e-4)

    def test_mixture_not_log_concave(self, mixture):
        r = condition_report(mixture)
        assert not r.slc_ok
        assert not r.variance_ok
        assert r.sup_posterior_variance == pytest.approx(1.5, abs=1e-3)
        assert r.tail_unimodal_M == pytest.approx(1.907, abs=0.05)


class TestDelta0Estimate:
    def test_canonical_near_half(self, canonical):
        assert delta0_estimate(canonical) == pytest.approx(31.0 / 64.0)

    def test_mixture_small(self, mixture):
        d0 = delta0_estimate(mixture)
        assert d0 is not None
        assert d0 == pytest.approx(0.09375, abs=1e-12)
        # sanity: the certified range stops before the mass parked
        # beyond the inner mode boundary
        assert d0 < 0.5

    def test_oscillating_unknown(self, oscillating):
        assert delta0_estimate(oscillating) is None


class TestEnvelopePoint:
    def test_closed_form_gaussian(self, canonical):
        for delta in (0.05, 0.2, 0.49):
            p = envelope_point(canonical, delta)
            assert p.regime == "ClosedForm"
            assert float(p.epsilon_d) == pytest.approx(math.log(2.0 / delta), rel=1e-12)

    def test_witness_replays_to_value(self, canonical):
        p = envelope_point(canonical, 0.1)
        validate_partition(canonical, p.witness)
        replay = float(partition_delta_quantile(canonical, p.witness, 0.1))
        assert replay == pytest.approx(float(p.epsilon_d), abs=1e-9)

    def test_closed_form_witness_uses_the_search_labels(self, canonical):
        # both regimes name the mass-delta/2 tails the same way
        p = envelope_point(canonical, 0.1)
        _, searched = envelope_bruteforce_lower_bound(canonical, 0.1, 2)
        assert p.regime == "ClosedForm"
        assert p.witness.labels == searched.labels == ("left_tail", "core", "right_tail")
        t_l, t_r = tail_thresholds(canonical, 0.05, 0.05)
        assert [(c.lo, c.hi) for c in p.witness.cells] == [
            (-math.inf, t_l), (t_l, t_r), (t_r, math.inf)
        ]

    def test_delta_above_half_leaves_closed_form(self, canonical):
        p = envelope_point(canonical, 0.6)
        assert p.regime == "LowerBoundOnly"
        # two equal tails stay optimal there in practice
        assert float(p.epsilon_d) == pytest.approx(math.log(2.0 / 0.6), abs=1e-6)

    def test_wide_gaussian_lower_bound_only(self, wide_gaussian):
        p = envelope_point(wide_gaussian, 0.1)
        assert p.regime == "LowerBoundOnly"
        assert float(p.epsilon_d) >= math.log(20.0) - 1e-4

    def test_slc_closed_form_inside_delta0(self, slc):
        p = envelope_point(slc, 0.05)
        assert p.regime == "ClosedForm"
        assert float(p.epsilon_d) == pytest.approx(math.log(40.0), rel=1e-12)

    def test_slc_above_delta0_falls_back(self, slc):
        d0 = delta0_estimate(slc)
        p = envelope_point(slc, min(d0 + 0.05, 0.49))
        assert p.regime == "LowerBoundOnly"

    def test_oscillating_never_closed_form(self, oscillating):
        p = envelope_point(oscillating, 0.1, max_cells=2)
        assert p.regime == "LowerBoundOnly"
        assert float(p.epsilon_d) > 0.0

    def test_mixture_gated_out(self, mixture):
        # variance condition fails, so even tiny deltas take the search
        p = envelope_point(mixture, 0.05)
        assert p.regime == "LowerBoundOnly"

    def test_delta_domain(self, canonical):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                envelope_point(canonical, bad)


class TestBruteforceLowerBound:
    def test_single_cell_is_one_tail(self, canonical):
        value, witness = envelope_bruteforce_lower_bound(canonical, 0.2, 1)
        assert float(value) == pytest.approx(math.log(1.0 / 0.2), abs=1e-6)
        validate_partition(canonical, witness)

    def test_two_cells_reach_envelope(self, canonical):
        for delta in (0.1, 0.4):
            value, _ = envelope_bruteforce_lower_bound(canonical, delta, 2)
            assert float(value) == pytest.approx(math.log(2.0 / delta), abs=1e-4)

    def test_never_exceeds_envelope_in_regime(self, canonical):
        for cells in (1, 2, 3, 4):
            value, _ = envelope_bruteforce_lower_bound(canonical, 0.1, cells)
            assert float(value) <= math.log(20.0) + 1e-4

    def test_witness_replay_invariant(self, slc):
        value, witness = envelope_bruteforce_lower_bound(slc, 0.1, 3)
        validate_partition(slc, witness)
        replay = float(partition_delta_quantile(slc, witness, 0.1))
        assert replay == pytest.approx(float(value), abs=1e-9)

    def test_monotone_in_cell_budget(self, canonical):
        values = [
            float(envelope_bruteforce_lower_bound(canonical, 0.1, k)[0])
            for k in (1, 2, 3)
        ]
        assert values[0] <= values[1] + 1e-12
        assert values[1] <= values[2] + 1e-12

    def test_out_of_regime_can_exceed_closed_form(self, oscillating):
        # interior density valleys leak more than any tail pair here
        value, witness = envelope_bruteforce_lower_bound(oscillating, 0.1, 4)
        assert float(value) > math.log(2.0 / 0.1) + 0.1
        validate_partition(oscillating, witness)
        replay = float(partition_delta_quantile(oscillating, witness, 0.1))
        assert replay == pytest.approx(float(value), abs=1e-9)

    @pytest.mark.parametrize("delta", [0.02, 0.05, 0.08, 0.11, 0.15])
    @pytest.mark.parametrize("max_cells", [1, 2, 4, 6])
    def test_cuts_stay_inside_window(self, oscillating, max_cells, delta):
        # F_Y is 0.0072 at the left window edge and 1 - 0.0133 at the right
        # one, so unit cuts of small mass near either edge are infeasible
        value, witness = envelope_bruteforce_lower_bound(oscillating, delta, max_cells)
        value = float(value)
        assert math.log(1.0 / delta) - 1e-9 <= value <= math.log(max_cells / delta) + 1e-9
        bad = [c for c, lab in zip(witness.cells, witness.labels) if lab != "core"]
        assert 1 <= len(bad) <= max_cells
        assert value == min(float(interval_leakage(oscillating, c)) for c in bad)

    @pytest.mark.parametrize("shift", [-1e-12, 1e-12])
    def test_tied_tails_ignore_quantile_roundoff(self, slc, monkeypatch, shift):
        # a left tail and a right tail of mass delta both leak log(1/delta);
        # quantile roundoff must not decide which one is the witness
        def witnesses():
            return [envelope_bruteforce_lower_bound(slc, d, 1)[1].labels
                    for d in (0.001, 0.02, 0.1, 0.3)]

        before = witnesses()
        quantile = type(slc).marginal_quantile
        monkeypatch.setattr(type(slc), "marginal_quantile",
                            lambda m, p: quantile(m, p) + shift)
        assert witnesses() == before

    def test_no_tail_cut_inside_the_window_raises(self, oscillating):
        # F_Y is 0.0072 at the left window edge: a left tail of mass 0.005
        # does not fit, and the right edge rules out every right tail too
        with pytest.raises(DomainError, match="leaves no tail cut inside the working window"):
            envelope_bruteforce_lower_bound(oscillating, 0.005, 1)

    @pytest.mark.parametrize("kl", [0, 1, 2, 3])
    def test_cut_levels_lay_out_the_cells(self, kl):
        # cell kl is the core; every other cell holds its mass of w in order
        w = [0.01, 0.02, 0.03]
        levels = _cut_levels(kl, w)
        masses = np.diff(np.concatenate(([0.0], levels, [1.0])))
        assert np.all(np.diff(levels) > 0.0)
        assert masses[kl] == pytest.approx(1.0 - sum(w), abs=1e-15)
        assert np.delete(masses, kl) == pytest.approx(w, abs=1e-15)

    def test_max_cells_domain(self, canonical):
        for bad in (0, 7, -1):
            with pytest.raises(DomainError):
                envelope_bruteforce_lower_bound(canonical, 0.1, bad)


class TestEnvelopeCurve:
    def test_matches_pointwise(self, canonical):
        deltas = (0.05, 0.1, 0.3)
        curve = envelope_curve(canonical, deltas)
        assert [p.delta for p in curve] == list(deltas)
        for p in curve:
            q = envelope_point(canonical, p.delta)
            assert float(p.epsilon_d) == pytest.approx(float(q.epsilon_d), rel=1e-12)
            assert p.regime == q.regime

    def test_decreasing_in_delta(self, canonical):
        curve = envelope_curve(canonical, (0.05, 0.1, 0.2, 0.4))
        eps = [float(p.epsilon_d) for p in curve]
        assert all(a > b for a, b in zip(eps, eps[1:]))

    def test_bad_delta_rejected(self, canonical):
        with pytest.raises(DomainError):
            envelope_curve(canonical, (0.1, 1.2))

    def test_mixture_skips_delta0_estimate(self, mixture, monkeypatch):
        # variance_ok fails on the mixture, so delta0 can never be read
        deltas = (0.05, 0.2)
        expected = envelope_curve(mixture, deltas, max_cells=2)

        def unreachable(m):
            raise AssertionError("delta0_estimate ran although the closed form is ruled out")

        monkeypatch.setattr(envelope_module, "delta0_estimate", unreachable)
        assert envelope_curve(mixture, deltas, max_cells=2) == expected

    @pytest.mark.parametrize("fixture", ["canonical", "wide_gaussian", "slc"])
    def test_only_non_gaussian_priors_run_condition_report(self, fixture, request, monkeypatch):
        # a Gaussian prior decides the regime by its variance ratio alone
        m = request.getfixturevalue(fixture)
        calls = []
        original = envelope_module.condition_report

        def counting(mech):
            calls.append(mech)
            return original(mech)

        monkeypatch.setattr(envelope_module, "condition_report", counting)
        curve = envelope_curve(m, (0.05, 0.3), max_cells=2)
        envelope_point(m, 0.1, max_cells=2)
        assert len(calls) == (0 if fixture != "slc" else 2)
        expected = "LowerBoundOnly" if fixture == "wide_gaussian" else "ClosedForm"
        assert [p.regime for p in curve] == [expected, expected]

    @pytest.mark.parametrize("xs, logd", [
        ((-3.0, 3.0), (0.0, -1.0)),
        ((-3.0, 0.0, 3.0), (-2.0, 0.0, -2.0)),
        ((-3.0, -1.0, 1.0, 3.0), (-2.0, 0.0, 0.0, -2.0)),
    ])
    def test_small_grid_prior_falls_back_without_condition_report(self, xs, logd, monkeypatch):
        # a grid prior lacks full support, which rules out the closed form
        # before any curvature check could reject its few points
        m = Mechanism(GridPrior(xs, logd), 1.0)

        def unreachable(mech):
            raise AssertionError("condition_report ran although the closed form is ruled out")

        monkeypatch.setattr(envelope_module, "condition_report", unreachable)
        (point,) = envelope_curve(m, (0.1,), max_cells=2)
        assert point.regime == "LowerBoundOnly"
        assert (point.epsilon_d, point.witness) == envelope_bruteforce_lower_bound(m, 0.1, 2)

    def test_slc_estimates_delta0_once_per_curve(self, slc, monkeypatch):
        calls = []
        original = envelope_module.delta0_estimate

        def counting(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(envelope_module, "delta0_estimate", counting)
        curve = envelope_curve(slc, (0.05, 0.1, 0.3, 0.45), max_cells=2)
        assert len(calls) == 1
        assert curve[0].regime == "ClosedForm"
