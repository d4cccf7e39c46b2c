"""Verification checks and the suite runner."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from gausspml import (
    DomainError,
    Interval,
    NumericalError,
    check_bathtub_optimality,
    check_brascamp_lieb_bound,
    check_concavity_identity,
    check_interval_monotonicity,
    check_tail_worst_bound,
    event_mass,
    run_suite,
)
from gausspml import leakage as leakage_mod
from gausspml import mechanism as mechanism_mod
from gausspml import verify as verify_mod
from gausspml.verify import _SUITE, _suite_names, _union_sampler


class TestCheckResultInvariant:
    def test_passed_iff_within_tolerance(self, canonical):
        for r in run_suite(canonical, seed=2):
            assert r.passed == (r.worst_violation <= r.tolerance)


class TestConcavityIdentity:
    @pytest.mark.parametrize("fixture", ["canonical", "slc", "mixture"])
    def test_passes(self, fixture, request):
        m = request.getfixturevalue(fixture)
        r = check_concavity_identity(m, 100, seed=1)
        assert r.passed
        assert r.worst_violation < 1e-5  # comfortable margin under the 1e-4 gate

    def test_reproducible(self, canonical):
        a = check_concavity_identity(canonical, 50, seed=9)
        b = check_concavity_identity(canonical, 50, seed=9)
        assert a == b

    def test_bad_sample_count(self, canonical):
        with pytest.raises(DomainError):
            check_concavity_identity(canonical, 0)


class TestIntervalMonotonicity:
    def test_gaussian_in_regime(self, canonical):
        r = check_interval_monotonicity(canonical, 0.5, 0.5 + 8.5 * canonical.sigma_y, 500)
        assert r.passed

    def test_gaussian_needs_positive_a(self, canonical):
        with pytest.raises(DomainError):
            check_interval_monotonicity(canonical, -0.5, 4.0, 100)

    def test_mixture_needs_a_beyond_threshold(self, mixture):
        with pytest.raises(DomainError):
            check_interval_monotonicity(mixture, 1.0, 6.0, 100)  # M ~ 1.9

    def test_mixture_beyond_threshold_passes(self, mixture):
        r = check_interval_monotonicity(mixture, 2.5, 2.5 + 8.0 * mixture.sigma_y, 400)
        assert r.passed

    def test_gaussian_outside_the_ratio_not_applicable(self, wide_gaussian):
        # sigma_x^2 = 4 > 3 sigma_n^2: no monotonicity is claimed, and the
        # check would fail (min u(b) = -0.00281) if it ran
        with pytest.raises(DomainError, match="sigma_x\\^2 <= 3 sigma_n\\^2"):
            check_interval_monotonicity(wide_gaussian, 5.0, 40.0, 100)
        (r,) = run_suite(wide_gaussian, "interval_monotonicity")
        assert r.passed and r.details.startswith("not applicable")
        assert "sigma_x^2 <= 3 sigma_n^2" in r.details

    def test_short_grid_skips_limit_condition(self, canonical):
        # b_max below a + 8 sigma_y: only positivity and monotonicity apply
        r = check_interval_monotonicity(canonical, 0.5, 3.0, 200)
        assert r.passed
        assert "terminal" not in r.details

    def test_bad_grid(self, canonical):
        with pytest.raises(DomainError):
            check_interval_monotonicity(canonical, 0.5, 4.0, 1)
        with pytest.raises(DomainError):
            check_interval_monotonicity(canonical, 2.0, 1.0, 100)


class TestTailWorstBound:
    def test_canonical(self, canonical):
        r = check_tail_worst_bound(canonical, 0.1, 50, seed=3)
        assert r.passed
        assert r.worst_violation <= 1e-5

    def test_mixture(self, mixture):
        r = check_tail_worst_bound(mixture, 0.2, 30, seed=3)
        assert r.passed

    def test_delta_domain(self, canonical):
        for bad in (0.0, 1.0, 2.0):
            with pytest.raises(DomainError):
                check_tail_worst_bound(canonical, bad, 5)

    @pytest.mark.parametrize("shift", [-1e-12, 1e-12])
    @pytest.mark.parametrize("fixture", ["canonical", "wide_gaussian"])
    def test_tied_tails_ignore_quantile_roundoff(self, fixture, request, monkeypatch, shift):
        # mirror tails miss log(1/delta) by roundoff alone; the last bits of
        # the quantiles must not decide which one is reported
        m = request.getfixturevalue(fixture)
        quantile = type(m).marginal_quantile
        monkeypatch.setattr(type(m), "marginal_quantile", lambda m, p: quantile(m, p) + shift)
        r = check_tail_worst_bound(m, 0.1, 10, seed=3)
        assert r.location == ("left_tail", m.marginal_quantile(0.1))

    def test_union_above_the_bound_is_reported(self, canonical, monkeypatch):
        bound = math.log(1.0 / 0.1)
        monkeypatch.setattr(verify_mod, "_union_leakages",
                            lambda m, unions: [bound + 1e-3] * len(unions))
        r = check_tail_worst_bound(canonical, 0.1, 3, seed=0)
        assert r.location == ("union", 0)
        assert not r.passed
        assert r.worst_violation == pytest.approx(1e-3, rel=1e-9)

    def test_unions_are_polished_in_one_batch(self, canonical, monkeypatch):
        # kernel-probability calls of the canonical check: 8,398 when every
        # union ran its own golden-section polish on scalars, 1,122 with one
        # lockstep polish of all 100 unions
        calls = []
        original = mechanism_mod._phi_diff
        for mod in (mechanism_mod, leakage_mod, verify_mod):
            if getattr(mod, "_phi_diff", None) is original:
                monkeypatch.setattr(mod, "_phi_diff",
                                    lambda za, zb: calls.append(1) or original(za, zb))
        check_tail_worst_bound(canonical, 0.1, 100, seed=3)
        assert len(calls) <= 1200


class TestRandomUnion:
    def test_mass_within_tolerance(self, canonical):
        rng = np.random.default_rng(0)
        draw = _union_sampler(canonical)
        for _ in range(50):
            cells = draw(rng, 0.15)
            assert 1 <= len(cells) <= 4
            assert abs(event_mass(canonical, cells) - 0.15) <= 1e-6
            for left, right in zip(cells, cells[1:]):
                assert left.hi <= right.lo + 1e-12

    def test_respects_window(self, canonical):
        rng = np.random.default_rng(1)
        draw = _union_sampler(canonical, window=(-1.0, 1.0))
        for _ in range(20):
            cells = draw(rng, 0.05)
            assert cells[0].lo >= -1.0
            assert cells[-1].hi <= 1.0

    def test_infeasible_target(self, canonical):
        rng = np.random.default_rng(2)
        with pytest.raises(DomainError):
            _union_sampler(canonical)(rng, 1.5)

    def test_unreachable_target_gives_up(self, canonical):
        # feasible, but no draw leaves 1e-12 of level room for the last end
        lo, hi = canonical.level_window
        with pytest.raises(NumericalError, match="in 200 attempts"):
            _union_sampler(canonical)(np.random.default_rng(0), (hi - lo) * (1.0 - 1e-14))


class TestBathtubOptimality:
    def test_centered(self, canonical):
        r = check_bathtub_optimality(
            canonical, 0.0, Interval(-2.0, 2.0), 0.2, 100, seed=4
        )
        assert r.passed

    def test_off_center_source(self, canonical):
        r = check_bathtub_optimality(
            canonical, 1.5, Interval(-1.0, 3.0), 0.15, 100, seed=5
        )
        assert r.passed

    def test_unbounded_range_rejected(self, canonical):
        with pytest.raises(DomainError):
            check_bathtub_optimality(
                canonical, 0.0, Interval(0.0, math.inf), 0.1, 10
            )

    def test_excessive_delta_rejected(self, canonical):
        with pytest.raises(DomainError):
            check_bathtub_optimality(canonical, 0.0, Interval(-1.0, 1.0), 0.9, 10)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_batch_matches_the_per_union_sum(self, canonical, seed):
        # the same unions, each scored by summing its cells' probabilities
        # in order: the first maximum and its excess, bit for bit
        rng_iv = (canonical.marginal_quantile(0.05), canonical.marginal_quantile(0.95))
        r = check_bathtub_optimality(canonical, 0.0, rng_iv, 0.2, 100, seed=seed)
        # x = 0 and sigma_n = 1: the check's standardized ends are the ends
        star = leakage_mod._mass_window(canonical, Interval(*rng_iv), 0.2, mechanism_mod._phi_diff)
        p_star = float(mechanism_mod._kernel_prob(star, 0.0, 1.0))
        draw = _union_sampler(canonical, window=rng_iv)
        rng = np.random.default_rng(seed)
        unions = [draw(rng, 0.2) for _ in range(100)]
        excess = [sum(float(mechanism_mod._kernel_prob(c, 0.0, 1.0)) for c in u) - p_star
                  for u in unions]
        i = excess.index(max(excess))
        assert r.location == (unions[i][0].lo, unions[i][-1].hi)
        assert r.worst_violation == excess[i]

    def test_unions_are_scored_in_one_batch(self, canonical, monkeypatch):
        # kernel-probability calls: 655 when each union summed its cells
        # one at a time, 485 with one table of all 100 unions
        calls = []
        original = mechanism_mod._phi_diff
        for mod in (mechanism_mod, leakage_mod, verify_mod):
            if getattr(mod, "_phi_diff", None) is original:
                monkeypatch.setattr(mod, "_phi_diff",
                                    lambda za, zb: calls.append(1) or original(za, zb))
        rng_iv = (canonical.marginal_quantile(0.05), canonical.marginal_quantile(0.95))
        check_bathtub_optimality(canonical, 0.0, rng_iv, 0.2, 100, seed=4)
        assert len(calls) <= 560


class TestBrascampLieb:
    def test_gaussian_equality(self, canonical):
        r = check_brascamp_lieb_bound(canonical)
        assert r.passed
        assert "variance" in r.details
        # conjugate case: the bound is met with equality
        assert abs(r.worst_violation) < 1e-8

    def test_slc_strict_slack(self, slc):
        r = check_brascamp_lieb_bound(slc)
        assert r.passed
        assert r.worst_violation < -0.1  # quartic tilt shrinks the posterior

    @pytest.mark.parametrize("tilt", [False, True])
    @pytest.mark.parametrize("shift", [-1e-13, 1e-13])
    def test_tied_variances_ignore_roundoff(self, canonical, monkeypatch, shift, tilt):
        # a Gaussian meets the bound at every scan point up to ~5e-14; the
        # last bits of the variances must not decide the location
        ref = check_brascamp_lieb_bound(canonical).location
        variance = type(canonical).posterior_variance

        def shifted(m, ys):
            var = variance(m, ys)
            return var + shift * (np.linspace(-1.0, 1.0, var.size) if tilt else 1.0)

        monkeypatch.setattr(type(canonical), "posterior_variance", shifted)
        r = check_brascamp_lieb_bound(canonical)
        assert r.location == ref
        assert abs(r.worst_violation) < 1e-8

    def test_mixture_not_applicable(self, mixture):
        with pytest.raises(DomainError, match="prior is not declared log-concave"):
            check_brascamp_lieb_bound(mixture)
        (r,) = run_suite(mixture, "brascamp_lieb_bound")
        assert r.passed
        assert "not applicable" in r.details
        assert r.worst_violation == 0.0

    @pytest.mark.parametrize("fixture", ["mixture", "oscillating"])
    def test_suite_declares_not_applicable_like_monotonicity(self, fixture, request, wide_gaussian):
        # one shape for "does not apply", whichever check declares it
        (r,) = run_suite(request.getfixturevalue(fixture), "brascamp_lieb_bound")
        (ref,) = run_suite(wide_gaussian, "interval_monotonicity")
        for res in (r, ref):
            assert res.details.startswith("not applicable: ")
            assert (res.passed, res.worst_violation, res.tolerance, res.location) == (
                True, 0.0, 0.0, None)
        assert r.details == "not applicable: prior is not declared log-concave"


class TestRunSuite:
    def test_all_pass_on_canonical(self, canonical):
        results = run_suite(canonical, seed=7)
        assert [r.name for r in results] == list(_SUITE)
        assert all(r.passed for r in results)

    def test_all_pass_on_slc(self, slc):
        assert all(r.passed for r in run_suite(slc, seed=7))

    def test_subset_selection(self, canonical):
        results = run_suite(canonical, suite="concavity_identity,brascamp_lieb_bound")
        assert [r.name for r in results] == [
            "concavity_identity",
            "brascamp_lieb_bound",
        ]

    def test_negative_seed_rejected(self, canonical):
        checks = (
            lambda: run_suite(canonical, seed=-5),
            lambda: run_suite(canonical, "tail_worst_bound", seed=-3),
            lambda: check_concavity_identity(canonical, 10, seed=-1),
            lambda: check_tail_worst_bound(canonical, 0.1, 1, seed=-1),
            lambda: check_bathtub_optimality(canonical, 0.0, Interval(-1.0, 1.0), 0.1, 1, seed=-1),
        )
        for call in checks:
            with pytest.raises(DomainError, match="seed: must be an integer >= 0"):
                call()

    def test_unknown_name_rejected(self, canonical):
        with pytest.raises(DomainError):
            run_suite(canonical, suite="nonexistent_check")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_oscillating_concavity_identity_runs(self, oscillating, seed):
        # the window holds less than 1 - 2e-3 of the mass, so the samples
        # are placed 1e-3 of the window's mass in from its ends
        lo, hi = oscillating.level_window
        assert lo > 1e-3 and hi < 1.0 - 1e-3
        (r,) = run_suite(oscillating, "concavity_identity", seed)
        assert r.passed, r.details
        assert r.details.startswith("max relative identity error")
        assert 0.0 < r.worst_violation <= r.tolerance == 1e-4

    def test_domain_error_inside_a_check_is_a_failure(self, canonical, monkeypatch):
        def broken(*args, **kwargs):
            raise DomainError("planted domain error")

        monkeypatch.setattr(verify_mod, "check_tail_worst_bound", broken)
        r_first, r_tail = run_suite(canonical, "concavity_identity,tail_worst_bound")
        assert r_first.passed
        assert r_tail.name == "tail_worst_bound"
        assert not r_tail.passed
        assert r_tail.worst_violation == math.inf
        assert r_tail.details == "error: planted domain error"

    def test_suite_names(self):
        assert _suite_names("all") == tuple(_SUITE)
        assert _suite_names(" bathtub_optimality , concavity_identity,") == (
            "bathtub_optimality",
            "concavity_identity",
        )
        with pytest.raises(DomainError, match="suite selects no checks"):
            _suite_names(",")
        with pytest.raises(DomainError, match="unknown check 'nope'"):
            _suite_names("concavity_identity,nope")

    def test_inapplicable_check_reported_not_failed(self, oscillating):
        results = run_suite(oscillating, suite="interval_monotonicity")
        assert len(results) == 1
        assert results[0].passed
        assert "not applicable" in results[0].details

    @pytest.mark.parametrize("blas_threads", ["1", None])
    def test_mixture_monotonicity_passes_under_any_blas_pool(self, blas_threads):
        # F_Y is an exact prefix sum at the window edge, where the mass has
        # saturated, so no summation order can make interval leakage decrease
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        env.pop("OPENBLAS_NUM_THREADS", None)  # None: OpenBLAS's default pool
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        code = ("from gausspml import GaussianMixturePrior, Mechanism, run_suite\n"
                "m = Mechanism(GaussianMixturePrior((0.5, 0.5), (-2.0, 2.0), (1.0, 1.0)), 1.0)\n"
                "for seed in (0, 1, 2):\n"
                "    (r,) = run_suite(m, 'interval_monotonicity', seed)\n"
                "    print(r.passed, r.worst_violation)\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 3, proc.stdout
        for line in lines:
            passed, worst = line.split()
            assert passed == "True" and float(worst) <= 0.0, line
