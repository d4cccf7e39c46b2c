"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with -v to get the one pass/fail line per criterion. Criteria 1
and 2 carry wall-clock budgets, asserted here; everything else is a
pure tolerance check against closed forms or the independent oracles
in oracles.py.
"""

import json
import math
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import special as _sp

from gausspml import (
    GaussianPrior,
    Interval,
    Mechanism,
    StronglyLogConcavePrior,
    check_bathtub_optimality,
    check_brascamp_lieb_bound,
    check_concavity_identity,
    interval_leakage,
    set_leakage_oracle,
    worst_interval_search,
)
from gausspml.envelope import condition_report, envelope_bruteforce_lower_bound
from gausspml.verify import _union_sampler
from oracles import trapz_posterior_moments

SQRT2 = math.sqrt(2.0)


def test_criterion_01_bruteforce_attains_two_tail_envelope(canonical):
    """Gaussian(1)/1: search hits log(2/delta) at >=2 cells, never exceeds."""
    start = time.perf_counter()
    for delta in (0.05, 0.1, 0.2, 0.4):
        target = math.log(2.0 / delta)
        for max_cells in (1, 2, 3, 4, 5, 6):
            value, _ = envelope_bruteforce_lower_bound(canonical, delta, max_cells)
            assert float(value) <= target + 1e-4, (delta, max_cells)
            if max_cells >= 2:
                assert abs(float(value) - target) <= 1e-4, (delta, max_cells)
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0, f"criterion 1 budget exceeded: {elapsed:.1f}s"


def test_criterion_02_bruteforce_strongly_log_concave(slc):
    """SLC(1,1,4)/1 passes the hypotheses and the search stays exact."""
    start = time.perf_counter()
    report = condition_report(slc)
    assert report.variance_ok and report.slc_ok
    assert report.tail_unimodal_M is not None
    for delta in (0.05, 0.1):
        target = math.log(2.0 / delta)
        for max_cells in (1, 2, 3, 4, 5, 6):
            value, _ = envelope_bruteforce_lower_bound(slc, delta, max_cells)
            assert float(value) <= target + 1e-4, (delta, max_cells)
            if max_cells >= 2:
                assert abs(float(value) - target) <= 1e-4, (delta, max_cells)
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0, f"criterion 2 budget exceeded: {elapsed:.1f}s"


def test_criterion_03_tails_are_worst_events(canonical):
    """Mass-delta tails leak log(1/delta); 500 random unions never beat them."""
    for delta, seed in ((0.05, 101), (0.2, 102)):
        bound = math.log(1.0 / delta)
        t_l = canonical.marginal_quantile(delta)
        t_r = canonical.marginal_quantile(1.0 - delta)
        leak_l = float(interval_leakage(canonical, Interval(-math.inf, t_l)))
        leak_r = float(interval_leakage(canonical, Interval(t_r, math.inf)))
        assert abs(leak_l - bound) <= 1e-5
        assert abs(leak_r - bound) <= 1e-5
        rng = np.random.default_rng(seed)
        draw = _union_sampler(canonical)
        for _ in range(500):
            target = float(rng.uniform(delta, min(2.0 * delta, 0.8)))
            union = draw(rng, target)
            assert float(set_leakage_oracle(canonical, union)) <= bound + 1e-5


def test_criterion_04_interval_closed_form_vs_oracle(canonical, slc, mixture):
    """Closed-form interval leakage agrees with the formula-free oracle."""
    rng = np.random.default_rng(40)
    checked = 0
    while checked < 200:
        a, b = np.sort(rng.uniform(-5.0, 5.0, 2))
        if b - a < 1e-3:
            continue
        iv = Interval(float(a), float(b))
        closed = float(interval_leakage(canonical, iv))
        oracle = float(set_leakage_oracle(canonical, [iv]))
        assert abs(closed - oracle) <= 1e-5, iv
        checked += 1
    for m in (slc, mixture):
        checked = 0
        while checked < 50:
            a, b = np.sort(rng.uniform(-5.0, 5.0, 2))
            if b - a < 1e-2:
                continue
            iv = Interval(float(a), float(b))
            closed = float(interval_leakage(m, iv))
            oracle = float(set_leakage_oracle(m, [iv]))
            assert abs(closed - oracle) <= 1e-4, iv
            checked += 1


def test_criterion_05_interval_leakage_monotone_in_b(canonical):
    """For each in-regime a: u(b) > -1e-8, strictly increasing, tail limit."""
    sy = canonical.sigma_y
    for a in np.linspace(0.1, 3.0, 10):
        b_max = a + 8.0 * sy + 0.01
        bs = np.linspace(a + (b_max - a) / 500.0, b_max, 500)
        u = (bs - a) / 2.0  # sigma_n = 1
        numer = _sp.erf(u / SQRT2)
        f_a = canonical.marginal_cdf(a)
        mass = canonical.marginal_cdf(bs) - f_a
        r = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi) / numer
        s = canonical.marginal_density(bs) / mass
        assert np.min(r - s) > -1e-8, a
        leak = np.log(numer) - np.log(mass)
        assert np.all(np.diff(leak) > 0.0), a
        tail = -math.log(1.0 - f_a)
        assert abs(float(leak[-1]) - tail) <= 0.01, a


def test_criterion_06_second_difference_matches_posterior_variance(
    canonical, slc, mixture
):
    """FD^2 of i(x; .) equals -Var[X|Y]/sigma_n^4 to 1e-4 relative."""
    for m, seed in ((canonical, 61), (slc, 62), (mixture, 63)):
        result = check_concavity_identity(m, 100, seed=seed)
        assert result.passed, result.details


def test_criterion_07_posterior_mean_consistency(canonical, slc, mixture):
    """Mean vs independent Bayes quadrature; Gaussian vs conjugate form."""
    for m in (canonical, slc, mixture):
        x_lo, x_hi = m.x_window
        prior = m.prior
        for y in np.linspace(-3.5, 3.5, 15):
            _, mean_o, _ = trapz_posterior_moments(
                lambda x: prior.density(x), 1.0, float(y), x_lo, x_hi
            )
            assert abs(float(m.posterior_mean(float(y))) - mean_o) <= 1e-6
    sy2 = 2.0  # sigma_x^2 + sigma_n^2
    ys = np.linspace(-5.0 * math.sqrt(sy2), 5.0 * math.sqrt(sy2), 101)
    got = canonical.posterior_mean(ys)
    np.testing.assert_allclose(got, ys / sy2, rtol=0, atol=1e-8)


def test_criterion_08_log_concave_variance_bound(canonical):
    """Posterior variance bound for three curvature-floored priors."""
    for beta, c, p in ((1.0, 1.0, 4.0), (0.8, 0.5, 3.0), (1.5, 2.0, 2.5)):
        m = Mechanism(StronglyLogConcavePrior(beta, c, p), 1.0)
        result = check_brascamp_lieb_bound(m)
        assert result.passed, (beta, c, p, result.details)
    # conjugate case meets the bound with equality
    ys = np.linspace(-6.0 * canonical.sigma_y, 6.0 * canonical.sigma_y, 2048)
    var = canonical.posterior_variance(ys)
    np.testing.assert_allclose(var, 0.5, rtol=0, atol=1e-8)


def test_criterion_09_level_set_windows_are_optimal(canonical):
    """Bathtub: level sets beat 200 competitors; tail windows flush out."""
    rng = np.random.default_rng(90)
    for trial in range(10):
        x = float(rng.uniform(-2.0, 2.0))
        lo = canonical.marginal_quantile(float(rng.uniform(0.02, 0.3)))
        hi = canonical.marginal_quantile(float(rng.uniform(0.7, 0.98)))
        window_mass = canonical.marginal_cdf(hi) - canonical.marginal_cdf(lo)
        delta = float(rng.uniform(0.1, 0.5)) * window_mass
        result = check_bathtub_optimality(
            canonical, x, Interval(lo, hi), delta, 200, seed=900 + trial
        )
        assert result.passed, (trial, result.details)

    # in a one-sided tail window the longest mass-delta interval, and so
    # the worst one, hugs the outer edge
    delta = 0.02
    right = Interval(canonical.marginal_quantile(0.85), canonical.marginal_quantile(0.999))
    iv, leak = worst_interval_search(canonical, right, delta)
    assert abs(iv.hi - right.hi) <= 1e-3
    flush_lo = canonical.marginal_quantile(canonical.marginal_cdf(right.hi) - delta)
    flush_leak = float(interval_leakage(canonical, Interval(flush_lo, right.hi)))
    assert abs(float(leak) - flush_leak) <= 1e-7

    left = Interval(canonical.marginal_quantile(0.001), canonical.marginal_quantile(0.15))
    iv, leak = worst_interval_search(canonical, left, delta)
    assert abs(iv.lo - left.lo) <= 1e-3
    flush_hi = canonical.marginal_quantile(canonical.marginal_cdf(left.lo) + delta)
    flush_leak = float(interval_leakage(canonical, Interval(left.lo, flush_hi)))
    assert abs(float(leak) - flush_leak) <= 1e-7


def _cli(*args):
    exe = shutil.which("pml")
    cmd = [exe] if exe else [sys.executable, "-m", "gausspml.cli"]
    return subprocess.run(
        [*cmd, *args], capture_output=True, text=False, timeout=300
    )


def test_criterion_10_cli_byte_identical_reruns():
    """Fixed-seed CLI invocations reproduce byte-for-byte."""
    invocations = (
        ("verify", "--suite", "all", "--seed", "7"),
        ("envelope", "--deltas", "0.05,0.1,0.2,0.4"),
        ("search", "--deltas", "0.1", "--max-cells", "3", "--format", "json"),
    )
    for args in invocations:
        first = _cli(*args)
        second = _cli(*args)
        assert first.returncode == second.returncode == 0, (args, first.stderr)
        assert first.stdout == second.stdout, args
        assert first.stdout  # non-empty output actually compared
