"""Deterministic leakage envelope over finite post-processings.

In the closed-form regime the envelope is log(2/delta), achieved by a
two-tail construction; outside it the search below still produces a
certified lower bound together with the partition witnessing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import DomainError, check_count, check_probability
from .leakage import FinitePartition, Interval, LeakageNats, interval_leakage
from .mechanism import _bounded_numerator
from .numerics import golden_section_max, refine_max
from .priors import check_strong_log_concavity

_UNITS = 32  # simplex resolution: bad mass is allocated in units of delta/32
_MASS_FLOOR = 1e-12
_TIE_REL = 1e-10  # exact candidate values closer than this are ties
_REGIME_CLOSED = "ClosedForm"
_REGIME_LOWER = "LowerBoundOnly"


@dataclass(frozen=True)
class ConditionReport:
    """Diagnostics for the closed-form envelope hypotheses.

    None stands for "not applicable" (gaussian_ratio_ok on non-Gaussian
    priors, beta_effective without positive curvature) or "not found"
    (tail_unimodal_M).
    """

    sup_posterior_variance: float
    variance_threshold: float
    variance_ok: bool
    slc_ok: bool
    beta_effective: float | None
    tail_unimodal_M: float | None
    gaussian_ratio_ok: bool | None


@dataclass(frozen=True)
class EnvelopePoint:
    delta: float
    epsilon_d: LeakageNats
    regime: str
    witness: FinitePartition


def condition_report(m):
    """Evaluate every closed-form hypothesis on the mechanism.

    The posterior-variance supremum is a 2048-point window scan plus a
    golden-section polish around the scan maximum, both through
    m.posterior_variance and its check that the two routes agree.
    """
    ys = np.linspace(*m.window, 2048)
    _, sup_var = refine_max(m.posterior_variance, ys, m.posterior_variance(ys), 1e-10)

    threshold = 0.75 * m.sigma_n**2
    x_lo, x_hi = m.x_window
    x_scan = np.linspace(x_lo, x_hi, 2049)  # odd count puts a node at any center
    slc = check_strong_log_concavity(m.prior, math.sqrt(3.0) * m.sigma_n, x_scan)
    beta_eff = (
        1.0 / math.sqrt(slc.min_theta_second) if slc.min_theta_second > 0.0 else None
    )
    return ConditionReport(
        sup_posterior_variance=sup_var,
        variance_threshold=threshold,
        variance_ok=bool(sup_var <= threshold + 1e-6),
        slc_ok=bool(slc.holds),
        beta_effective=beta_eff,
        tail_unimodal_M=m.unimodal_tail_threshold(),
        gaussian_ratio_ok=m.prior.gaussian_ratio_ok(m.sigma_n),
    )


# -- brute-force lower bound ---------------------------------------------


def _interior_leak_matrix(cuts, unit, sigma_n):
    """leak[i, j] of the slice between cumulative cuts i+1 and j+1 units.

    cuts[k] is the output cut after k+1 units of tail mass; the slice
    holds (j - i) units. Valid for either side since only |cut
    difference| enters.
    """
    q = np.asarray(cuts, dtype=float)
    lens = np.abs(q[None, :] - q[:, None])
    counts = np.abs(np.arange(q.size)[None, :] - np.arange(q.size)[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        num = np.log(_bounded_numerator(lens, sigma_n))
        leak = num - np.log(counts * unit)  # diagonal is NaN and never read
    return leak


def _side_best(tail_leak, interior, max_k):
    """Max-min DP over contiguous tail-first slice compositions.

    best[k][j] = the best achievable minimum slice leakage when a side
    holds j units split across k slices (outermost slice is the tail).
    Returns the table plus backtracking choices.
    """
    n = _UNITS
    best = np.full((max_k + 1, n + 1), -np.inf)
    best[0, 0] = np.inf  # an empty side bounds nothing
    best[1, 1:] = tail_leak
    choice = np.full((max_k + 1, n + 1), -1, dtype=int)
    for k in range(2, max_k + 1):
        for j in range(k, n + 1):
            prev = best[k - 1, k - 1:j]
            step = interior[k - 2:j - 1, j - 1]  # cut index is units-1
            vals = np.minimum(prev, step)
            a = int(np.argmax(vals))
            best[k, j] = vals[a]
            choice[k, j] = a + (k - 1)
    return best, choice


def _backtrack(choice, k, j):
    """Recover the per-slice unit counts behind best[k][j]."""
    counts = []
    while k > 1:
        i = int(choice[k, j])
        counts.append(j - i)
        j, k = i, k - 1
    counts.append(j)
    return counts[::-1]  # outermost (tail) first


def _cut_levels(kl, w):
    """Ascending F_Y levels of the cuts of allocation w.

    w lists the left slices outermost to innermost, then the right
    slices innermost to outermost. The cuts split the output line into
    len(w) + 1 cells: cell kl is the core, and w[i] is the mass of cell
    i, or of cell i + 1 once i >= kl.
    """
    w = [float(v) for v in w]
    right = [1.0 - c for c in accumulate(reversed(w[kl:]))]  # outermost first
    return [*accumulate(w[:kl]), *right[::-1]]


def _alloc_value(m, kl, w):
    """Objective: min leakage over the bad cells of allocation w.

    The bad cells are every cell but the core, in the order of w. Cuts
    are table quantiles; _exact_partition redoes the winner exactly.
    """
    edges = [-math.inf, *m._table_quantile(_cut_levels(kl, w)).tolist(), math.inf]
    value = math.inf
    for i, mass in enumerate(w.tolist()):
        cell = i + (i >= kl)  # cell kl is the core
        length = edges[cell + 1] - edges[cell]
        numer = 1.0 if length == math.inf else _bounded_numerator(abs(length), m.sigma_n)
        if numer <= 0.0:
            return -math.inf
        value = min(value, math.log(numer) - math.log(max(mass, _MASS_FLOOR)))
    return value


def _refine_allocation(m, kl, w, delta):
    """Coordinate ascent on cumulative cut masses, golden step per cut.

    w is laid out as in _cut_levels, so every internal boundary of its
    cumulative sum is a cut, the left/right split included.
    """
    w = np.asarray(w, dtype=float)
    n = w.size
    f_lo, f_hi = m.level_window
    for _ in range(3):
        for b in range(1, n):
            cum = np.cumsum(w)
            base = cum[b - 2] if b >= 2 else 0.0  # mass left of slice b - 1
            lo = base + _MASS_FLOOR
            hi = (cum[b] if b < n - 1 else delta) - _MASS_FLOOR
            # keep the quantile level of each cut that moves with s inside
            # the level window (f_lo, f_hi]
            if b <= kl:  # left cut at level s
                lo, hi = max(lo, f_lo), min(hi, f_hi)
            if b >= kl:  # right cut at level 1 - (delta - s)
                lo, hi = max(lo, delta - (1.0 - f_lo)), min(hi, delta - (1.0 - f_hi))
            if hi <= lo:
                continue

            def split(s, b=b, base=base, pair=cum[b] - base):
                ww = w.copy()  # slices b - 1 and b, cut at cumulative mass s
                ww[b - 1] = s - base
                ww[b] = pair - ww[b - 1]
                return ww

            s_star, _ = golden_section_max(
                lambda s: _alloc_value(m, kl, split(s)), lo, hi, tol=1e-10 * max(1.0, delta)
            )
            w = split(s_star)
    return w


def _exact_partition(m, kl, w):
    """Witness of allocation w, cut at exact quantiles, and its min bad leakage.

    Cells are named from the tails inward: left_tail, left_1, ..., core
    (cell kl), ..., right_1, right_tail.
    """
    cuts = [-math.inf, *(m.marginal_quantile(p) for p in _cut_levels(kl, w)), math.inf]
    cells, labels, bad_leaks = [], [], []
    for i, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        cells.append(Interval(lo, hi))
        if i == kl:
            labels.append("core")
            continue
        side, j = ("left", i) if i < kl else ("right", len(w) - i)  # j counts from the tail
        labels.append(f"{side}_{j}" if j else f"{side}_tail")
        bad_leaks.append(float(interval_leakage(m, cells[-1])))
    part = FinitePartition(tuple(cells), tuple(labels))
    return LeakageNats(min(bad_leaks)), part


def envelope_bruteforce_lower_bound(m, delta, max_cells):
    """Best delta-quantile over simple post-processings, with witness.

    Bad outcomes searched: a left-tail slice stack and a right-tail
    slice stack (tail plus interior slices hugging the tail cut), at
    most max_cells bad outcomes total, masses allocated in units of
    delta/32 and then refined continuously. Cuts are kept inside the
    working window; returns at least the single-tail construction
    whenever that fits, and raises DomainError when no tail cut does.
    """
    delta = check_probability(delta, "delta")
    max_cells = check_count(max_cells, "max_cells", lo=1, hi=6)

    unit = delta / _UNITS
    f_lo, f_hi = m.level_window
    iu = np.arange(1, _UNITS + 1) * unit
    sides = []
    for p in (iu, 1.0 - iu):
        # a cut whose quantile level lies outside the level window falls
        # outside the working window: every slice ending there is infeasible
        ok = (p > f_lo) & (p <= f_hi)
        interior = _interior_leak_matrix(m._table_quantile(p), unit, m.sigma_n)
        interior[:, ~ok] = -np.inf
        sides.append(_side_best(np.where(ok, -np.log(iu), -np.inf), interior, max_cells))
    (best_l, choice_l), (best_r, choice_r) = sides

    candidates = []  # (value, kl, kr, jl) lexicographic-deterministic
    for kl in range(max_cells + 1):
        for kr in range(max_cells + 1 - kl):
            # jl units in kl left slices, the other _UNITS - jl in kr right ones;
            # best[k, j] is -inf where j units cannot fill k slices
            v = np.minimum(best_l[kl], best_r[kr, ::-1])
            candidates += [(float(v[j]), kl, kr, j) for j in np.flatnonzero(np.isfinite(v)).tolist()]
    if not candidates:
        raise DomainError(
            f"delta={delta!r} leaves no tail cut inside the working window"
        )
    candidates.sort(key=lambda t: (-t[0], t[1], t[2], t[3]))

    best = None
    for v, kl, kr, jl in candidates[:3]:
        left = _backtrack(choice_l, kl, jl) if kl else []
        right = _backtrack(choice_r, kr, _UNITS - jl) if kr else []
        w0 = np.array([u * unit for u in left + right[::-1]], dtype=float)
        w = _refine_allocation(m, kl, w0, delta)
        value, part = _exact_partition(m, kl, w)
        # exact values within quantile roundoff tie (a left tail and its
        # mirror right tail on a symmetric marginal): keep the first in DP order
        if best is None or float(value) > float(best[0]) * (1.0 + _TIE_REL):
            best = (value, part)
    return best


# -- regime classification ------------------------------------------------


def delta0_estimate(m):
    """Conservative largest delta at which the two-tail argument applies.

    Checks, on a descending dyadic grid k/64, that both tail cuts for
    total mass delta land beyond the unimodality threshold M and that
    the marginal's super-level sets at the cut densities are single runs
    of the grid (so no interior valley can absorb bad mass), skipping a
    delta whose tail levels leave the level window. Returns None when M
    itself is unknown.
    """
    M = m.unimodal_tail_threshold()
    if M is None:
        return None
    f_lo, f_hi = m.level_window
    for k in range(31, 0, -1):
        delta = k / 64.0
        if delta <= f_lo or 1.0 - delta > f_hi:  # delta < 1/2 < 1 - delta
            continue
        b_cut = m.marginal_quantile(delta)
        a_cut = m.marginal_quantile(1.0 - delta)
        if not (b_cut < -M and a_cut > M):
            continue
        tau_l = m.marginal_density(b_cut)
        tau_r = m.marginal_density(a_cut)
        if m._superlevel_is_run(tau_l) and m._superlevel_is_run(tau_r):
            return delta
    return None


def _closed_form_test(m):
    """Predicate on delta: does the closed form log(2/delta) apply on m?

    A Gaussian prior decides by its variance ratio alone. Any other prior
    must have full support and zero mean before condition_report runs,
    and delta0_estimate runs only once every other hypothesis holds.
    """
    ratio_ok = m.prior.gaussian_ratio_ok(m.sigma_n)
    if ratio_ok is not None:
        return lambda delta: ratio_ok and delta < 0.5
    if not (m.prior.is_full_support and abs(m._x_mean) <= 1e-8):
        return lambda delta: False
    report = condition_report(m)
    if not (report.variance_ok and report.tail_unimodal_M is not None):
        return lambda delta: False
    delta0 = delta0_estimate(m)
    return lambda delta: delta0 is not None and delta <= delta0


def envelope_point(m, delta, max_cells=4):
    """Envelope value at one delta, with regime label and witness."""
    return envelope_curve(m, [delta], max_cells=max_cells)[0]


def envelope_curve(m, deltas, max_cells=4):
    """Envelope values over a delta grid, sharing one regime test."""
    deltas = [check_probability(d, "delta") for d in deltas]
    closed = _closed_form_test(m)

    def point(delta):
        if closed(delta):
            value = LeakageNats(math.log(2.0 / delta))
            _, witness = _exact_partition(m, 1, [delta / 2.0, delta / 2.0])
            return EnvelopePoint(delta, value, _REGIME_CLOSED, witness)
        value, witness = envelope_bruteforce_lower_bound(m, delta, max_cells)
        return EnvelopePoint(delta, value, _REGIME_LOWER, witness)

    return [point(d) for d in deltas]
