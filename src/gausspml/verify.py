"""Numerical verification harness.

Each check exercises one structural fact the rest of the package leans
on (concavity of the information density, monotone interval leakage,
the tail bound, level-set optimality, the log-concave variance bound)
against an independent evaluation route. Failures are results, not
exceptions; a check raises DomainError on unusable inputs, a mechanism
outside its hypothesis included, which run_suite reports as not applicable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envelope import _TIE_REL
from .errors import DomainError, NumericalError, check_count, check_number, check_probability
from .leakage import Interval, _cell_ends, _mass_window, _union_leakages, _union_prob, interval_leakage
from .mechanism import _bounded_numerator, _kernel_prob, _phi_diff

_MAX_UNION_INTERVALS = 4  # random unions have 1 to this many intervals
_NOT_LOG_CONCAVE = "prior is not declared log-concave"


@dataclass(frozen=True)
class CheckResult:
    """One verification outcome; passed iff worst_violation <= tolerance."""

    name: str
    passed: bool
    worst_violation: float
    location: object
    details: str
    tolerance: float


def _result(name, worst, tol, location, details):
    return CheckResult(
        name=name,
        passed=bool(worst <= tol),
        worst_violation=float(worst),
        location=location,
        details=details,
        tolerance=float(tol),
    )


# -- random event generation ----------------------------------------------


def _union_sampler(m, window=None):
    """draw(rng, target): disjoint intervals with total output mass target.

    Endpoints are uniform in the window; the rightmost interval's upper
    endpoint is then re-solved so the total mass lands on target (within
    1e-6). Rejection-samples draws that leave no room for the adjustment
    in the window. F_Y at the window ends is evaluated once, here.
    """
    win_lo, win_hi = window if window is not None else m.window
    f_lo, f_hi = m.level_window if window is None else map(m.marginal_cdf, window)

    def draw(rng, target):
        if not 0.0 < target < f_hi - f_lo:
            raise DomainError(f"target mass {target!r} infeasible in the window")
        for _ in range(200):
            k = int(rng.integers(1, _MAX_UNION_INTERVALS + 1))
            pts = np.sort(rng.uniform(win_lo, win_hi, size=2 * k))
            cells = [Interval(float(pts[2 * i]), float(pts[2 * i + 1])) for i in range(k)]
            base = sum(m._mass(c) for c in cells[:-1])
            need = target - base
            if need <= 1e-12:
                continue
            p_target = m.marginal_cdf(cells[-1].lo) + need
            if p_target >= f_hi - 1e-12:
                continue
            new_hi = m.marginal_quantile(p_target)
            if new_hi <= cells[-1].lo or new_hi > win_hi:
                continue
            cells[-1] = Interval(cells[-1].lo, float(new_hi))
            got = base + m._mass(cells[-1])
            if abs(got - target) <= 1e-6:
                return cells
        raise NumericalError(
            f"could not draw a random union of mass {target!r} in 200 attempts",
            operation="_union_sampler",
        )

    return draw


# -- checks ----------------------------------------------------------------


def _monotone_from(m):
    """(a0, message): interval leakage is claimed increasing for a > a0.

    a0 is 0 for a Gaussian prior with sigma_x^2 <= 3 sigma_n^2, else the
    unimodal tail threshold M. a0 is None, and the message says why, for
    a Gaussian prior outside that ratio, where no monotonicity is
    claimed, and when M is unknown.
    """
    ratio_ok = m.prior.gaussian_ratio_ok(m.sigma_n)
    if ratio_ok is False:
        return None, "monotone only for a Gaussian prior with sigma_x^2 <= 3 sigma_n^2"
    if ratio_ok:
        return 0.0, "a must be positive for the Gaussian in-regime check"
    M = m.unimodal_tail_threshold()
    if M is None:
        return None, "unimodal tail threshold unknown; check not applicable"
    return M, f"a must exceed the unimodal tail threshold {M!r}"


def check_concavity_identity(m, n_samples, seed=0):
    """Second y-derivative of i(x; y) vs -Var[X|Y=y]/sigma_n^4.

    A centered second difference of the information density must match
    the posterior-variance identity to 1e-4 relative and stay negative
    (concavity) at every sampled point. y lies between the 1e-3 and
    1 - 1e-3 quantiles, or 1e-3 of the window's mass in from its ends.
    """
    n_samples = check_count(n_samples, "n_samples")
    rng = np.random.default_rng(check_count(seed, "seed", lo=0))
    x_lo, x_hi = m.x_window
    span = x_hi - x_lo
    xs = rng.uniform(x_lo + 0.2 * span, x_hi - 0.2 * span, n_samples)
    p_lo, p_hi = 1e-3, 1.0 - 1e-3
    f_lo, f_hi = m.level_window
    if not (f_lo < p_lo and p_hi <= f_hi):
        p_lo, p_hi = f_lo + 1e-3 * (f_hi - f_lo), f_hi - 1e-3 * (f_hi - f_lo)
    ys = rng.uniform(m.marginal_quantile(p_lo), m.marginal_quantile(p_hi), n_samples)

    h = 1e-3 * m.sigma_n
    fd2 = (
        m.info_density(xs, ys + h)
        - 2.0 * m.info_density(xs, ys)
        + m.info_density(xs, ys - h)
    ) / (h * h)
    target = -m.posterior_variance(ys) / m.sigma_n**4
    rel = np.abs(fd2 - target) / (1.0 + np.abs(target))
    worst_idx = int(np.argmax(rel))
    worst = float(rel[worst_idx])
    worst = max(worst, float(max(0.0, fd2.max())))  # concavity: all fd2 < 0
    return _result(
        "concavity_identity",
        worst,
        1e-4,
        (float(xs[worst_idx]), float(ys[worst_idx])),
        f"max relative identity error {rel[worst_idx]:.3g}; "
        f"max second difference {fd2.max():.3g} (must be < 0); "
        f"{n_samples} samples, seed {seed}",
    )


def check_interval_monotonicity(m, a, b_max, n_grid):
    """Leakage of (a, b) must grow in b and approach the tail value.

    Verifies the derivative surrogate u(b) = r(b) - s(b) stays above
    -1e-8, the leakage sequence increases along the grid, and (when
    b_max reaches a + 8 sigma_y) the terminal value is within 0.01 nats
    of the right-tail leakage log(1/P_Y(a, inf)).
    """
    n_grid = check_count(n_grid, "n_grid", lo=2)
    a, b_max = check_number(a, "a"), check_number(b_max, "b_max")
    if not b_max > a:
        raise DomainError("requires b_max > a")
    a0, message = _monotone_from(m)
    if a0 is None or a <= a0:
        raise DomainError(message)

    sn = m.sigma_n
    bs = np.linspace(a + (b_max - a) / n_grid, b_max, n_grid)
    u = (bs - a) / (2.0 * sn)
    numer = _bounded_numerator(bs - a, sn)
    f_a = m.marginal_cdf(a)
    mass = m.marginal_cdf(bs) - f_a
    fy = m.marginal_density(bs)
    r = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi) / (sn * numer)
    s = fy / mass
    uvals = r - s
    leak = np.log(numer) - np.log(mass)

    excess_u = float(np.max(-uvals - 1e-8))
    diffs = np.diff(leak)
    excess_inc = float(np.max(-diffs)) if diffs.size else 0.0
    excess_limit = -math.inf
    tail_value = None
    if b_max >= a + 8.0 * m.sigma_y:
        tail_value = -math.log(1.0 - f_a)
        excess_limit = abs(float(leak[-1]) - tail_value) - 0.01
    worst = max(excess_u, excess_inc, excess_limit)
    where = float(bs[int(np.argmin(uvals))])
    detail = (
        f"min u(b) = {uvals.min():.3g}; min leakage increment = "
        f"{diffs.min() if diffs.size else float('nan'):.3g}"
    )
    if tail_value is not None:
        detail += f"; terminal leakage {leak[-1]:.6f} vs tail value {tail_value:.6f}"
    return _result("interval_monotonicity", worst, 0.0, where, detail)


def check_tail_worst_bound(m, delta, n_random_sets, seed=0):
    """Tails of mass delta sit at log(1/delta); nothing beats them.

    The two tail events must have leakage log(1/delta) within 1e-5 and
    every random union of mass delta must stay below log(1/delta) + 1e-5.
    """
    delta = check_probability(delta, "delta")
    n_random_sets = check_count(n_random_sets, "n_random_sets")
    rng = np.random.default_rng(check_count(seed, "seed", lo=0))
    bound = math.log(1.0 / delta)
    t_l = m.marginal_quantile(delta)
    t_r = m.marginal_quantile(1.0 - delta)
    leak_l = float(interval_leakage(m, Interval(-math.inf, t_l)))
    leak_r = float(interval_leakage(m, Interval(t_r, math.inf)))
    err_l, err_r = abs(leak_l - bound), abs(leak_r - bound)
    worst = max(err_l, err_r)
    # errors within roundoff tie (mirror tails of a symmetric marginal): keep the left
    worst_loc = ("right_tail", t_r) if err_r > err_l + _TIE_REL * bound else ("left_tail", t_l)
    draw = _union_sampler(m)
    unions = [draw(rng, delta) for _ in range(n_random_sets)]
    for i, leak in enumerate(_union_leakages(m, unions)):
        excess = float(leak) - bound
        if excess > worst:
            worst = excess
            worst_loc = ("union", i)
    return _result(
        "tail_worst_bound",
        worst,
        1e-5,
        worst_loc,
        f"tail leakages {leak_l:.8f}/{leak_r:.8f} vs log(1/delta)={bound:.8f}; "
        f"{n_random_sets} random unions, seed {seed}",
    )


def check_bathtub_optimality(m, x, rng_iv, delta, n_random, seed=0):
    """The level-set window beats every random equal-mass competitor.

    Builds the mass-delta super-level interval of i(x; .) inside the
    range and requires its conditional probability given X=x to exceed
    that of n_random random equal-mass unions, up to 1e-6. By concavity
    of i(x; .) the super-level set at the right threshold is an
    interval: the equal-mass window of largest conditional probability.
    """
    if not isinstance(rng_iv, Interval):
        rng_iv = Interval(*rng_iv)
    x = check_number(x, "x")
    n_random = check_count(n_random, "n_random")
    sn = m.sigma_n
    star = _mass_window(m, rng_iv, delta, lambda u, v: _phi_diff((u - x) / sn, (v - x) / sn))
    p_star = float(_kernel_prob(star, x, sn))
    rng = np.random.default_rng(check_count(seed, "seed", lo=0))
    draw = _union_sampler(m, window=(rng_iv.lo, rng_iv.hi))
    unions = [draw(rng, float(delta)) for _ in range(n_random)]
    excess = _union_prob(*_cell_ends(unions), x, sn) - p_star
    i = int(np.argmax(excess))  # the first maximum
    worst = float(excess[i])
    worst_loc = (float(unions[i][0].lo), float(unions[i][-1].hi))
    return _result(
        "bathtub_optimality",
        worst,
        1e-6,
        worst_loc,
        f"level-set interval ({star.lo:.6f}, {star.hi:.6f}) with conditional "
        f"probability {p_star:.8f}; {n_random} competitors, seed {seed}",
    )


def check_brascamp_lieb_bound(m):
    """Posterior variance against the log-concave curvature bound.

    For a prior with curvature floor 1/beta^2 the posterior variance is
    at most (1/sigma_n^2 + 1/beta^2)^{-1}; Gaussian priors meet it with
    equality. A prior that declares no curvature floor raises DomainError.
    """
    floor = m.prior.curvature_floor()
    if floor is None:
        raise DomainError(_NOT_LOG_CONCAVE)
    bound = 1.0 / (1.0 / m.sigma_n**2 + floor)
    win_lo, win_hi = m.window
    half = 6.0 * m.sigma_y  # stay clear of truncation bias at the window edge
    ys = np.linspace(max(win_lo, -half), min(win_hi, half), 2048)
    var = m.posterior_variance(ys)
    worst_idx = int(np.argmax(var))
    worst = float(var[worst_idx]) - bound
    # variances within roundoff of the maximum tie (a Gaussian meets the
    # bound everywhere): report the first of them
    first = int(np.argmax(var >= var[worst_idx] - _TIE_REL * abs(bound)))
    detail = f"max posterior variance {var[worst_idx]:.10f} vs bound {bound:.10f}"
    if m.prior.gaussian_ratio_ok(m.sigma_n) is not None:  # equality case
        detail += f"; max |variance - bound| = {float(np.max(np.abs(var - bound))):.3g}"
    return _result("brascamp_lieb_bound", worst, 1e-6, float(ys[first]), detail)


# -- suite ------------------------------------------------------------------


def _always(m):
    return None


def _monotone_hypothesis(m):
    a0, reason = _monotone_from(m)
    return reason if a0 is None else None


def _suite_monotonicity(m, seed):
    a = _monotone_from(m)[0] + 0.25 * m.sigma_y
    b_max = min(a + 8.0 * m.sigma_y + 0.01, m.window[1])
    return check_interval_monotonicity(m, a, b_max, 500)


def _suite_bathtub(m, seed):
    rng_iv = Interval(m.marginal_quantile(0.05), m.marginal_quantile(0.95))
    x = 0.5 * (m.x_window[0] + m.x_window[1])
    return check_bathtub_optimality(m, x, rng_iv, 0.2, 100, seed=seed + 4)


# name -> (hypothesis, suite call), in report order. hypothesis(m) is the
# reason m does not meet it, or None. Each call looks its check up by name
# when it runs.
_SUITE = {
    "concavity_identity": (_always, lambda m, seed: check_concavity_identity(m, 100, seed=seed + 1)),
    "interval_monotonicity": (_monotone_hypothesis, _suite_monotonicity),
    "tail_worst_bound": (_always, lambda m, seed: check_tail_worst_bound(m, 0.1, 100, seed=seed + 3)),
    "bathtub_optimality": (_always, _suite_bathtub),
    "brascamp_lieb_bound": (
        lambda m: _NOT_LOG_CONCAVE if m.prior.curvature_floor() is None else None,
        lambda m, seed: check_brascamp_lieb_bound(m),
    ),
}


def _suite_names(suite):
    """The checks "all" or a comma list selects; blank entries are dropped."""
    if suite == "all":
        return tuple(_SUITE)
    names = tuple(s.strip() for s in str(suite).split(",") if s.strip())
    unknown = [n for n in names if n not in _SUITE]
    if unknown:
        raise DomainError(f"unknown check {unknown[0]!r}; choose from {', '.join(_SUITE)}")
    if not names:
        raise DomainError("suite selects no checks")
    return names


def run_suite(m, suite="all", seed=0):
    """Run the named checks (comma list or "all") in registry order.

    Checks run one after another, each with its own seeded randomness,
    so the report depends only on the mechanism, the suite and the seed.
    A check whose hypothesis m does not meet is declared not applicable
    without running: passed, violation 0, tolerance 0, details "not
    applicable: <reason>". One that runs and raises DomainError is a
    failure with an infinite violation and details "error: <message>".
    """
    names = _suite_names(suite)
    seed = check_count(seed, "seed", lo=0)

    def run_one(name):
        hypothesis, call = _SUITE[name]
        reason = hypothesis(m)
        if reason is not None:
            return _result(name, 0.0, 0.0, None, f"not applicable: {reason}")
        try:
            return call(m, seed)
        except DomainError as exc:  # the check ran and verified nothing
            return _result(name, math.inf, 0.0, None, f"error: {exc}")

    return [run_one(n) for n in names]
