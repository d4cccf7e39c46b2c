"""Event leakage and quantiles of finite post-processings, in nats.

The leakage of an output event E is log sup_x P(Y in E | X=x) / P(Y in E).
Closed interval forms live next to a deliberately formula-free grid
oracle so each can cross-check the other.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    check_fields,
    check_number,
    check_probability,
    decode_endpoint,
    encode_endpoint,
)
from .mechanism import _bounded_numerator, _phi_diff
from .numerics import refine_max

_ORACLE_MIN_POINTS = 4096
_ORACLE_SPACING = 1 / 400  # in units of sigma_n


class LeakageNats(float):
    """Nonnegative leakage value in nats.

    Behaves as a float; construction clamps sub-1e-9 negative roundoff
    to zero and rejects anything more negative.
    """

    def __new__(cls, value):
        v = float(value)
        if math.isnan(v):
            raise DomainError("leakage value must not be NaN")
        if v < 0.0:
            if v < -1e-9:
                raise DomainError(f"leakage must be nonnegative, got {v!r}")
            v = 0.0
        return super().__new__(cls, v)

    @property
    def value(self):
        return float(self)

    def __repr__(self):
        return f"LeakageNats({float(self)!r})"


@dataclass(frozen=True)
class Interval:
    """Output interval with extended-real endpoints."""

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = (
            v if isinstance(v, float) and math.isinf(v) else check_number(v, name)
            for name, v in (("lo", self.lo), ("hi", self.hi))
        )
        if lo > hi:
            raise DomainError(f"requires lo <= hi, got ({lo!r}, {hi!r})")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def is_full_line(self):
        return math.isinf(self.lo) and math.isinf(self.hi)

    @property
    def is_bounded(self):
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    @property
    def has_tail(self):
        return math.isinf(self.lo) or math.isinf(self.hi)


@dataclass(frozen=True)
class FinitePartition:
    """Ordered disjoint intervals tiling the working window.

    Cells sharing a label form one outcome of the deterministic
    post-processing h(Y); h takes finitely many values.
    """

    cells: tuple
    labels: tuple

    def __post_init__(self):
        cells = tuple(self.cells)
        labels = tuple(str(s) for s in self.labels)
        if not cells:
            raise DomainError("partition must have at least one cell")
        if len(cells) != len(labels):
            raise DomainError("cells and labels must have equal length")
        for c in cells:
            if not isinstance(c, Interval):
                raise DomainError("cells must be Interval instances")
        scale = max(
            (abs(c.lo) for c in cells if math.isfinite(c.lo)), default=1.0
        )
        scale = max(scale, max((abs(c.hi) for c in cells if math.isfinite(c.hi)), default=1.0), 1.0)
        for left, right in zip(cells, cells[1:]):
            if right.lo < left.hi - 1e-9 * scale:
                raise DomainError(
                    f"cells overlap near {right.lo!r}; they must be disjoint and ordered"
                )
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "labels", labels)

    def outcome_unions(self):
        """Label -> list of member cells, in first-appearance order."""
        groups = {}
        for cell, lab in zip(self.cells, self.labels):
            groups.setdefault(lab, []).append(cell)
        return list(groups.items())


# -- event masses -------------------------------------------------------


def event_mass(m, intervals):
    """Total output mass of a disjoint interval union."""
    return sum(m._mass(iv) for iv in intervals)


def _union_prob(lo, hi, x, sigma_n):
    """P(Y in union | X=x) for bounded cells (lo[j], hi[j]), with x broadcast.

    The cells' probabilities are summed left to right; a cell with
    lo == hi adds exactly 0.
    """
    total = 0.0
    for a, b in zip(lo, hi):
        total = total + np.maximum(_phi_diff((a - x) / sigma_n, (b - x) / sigma_n), 0.0)
    return total


# -- leakage of events --------------------------------------------------


def interval_leakage(m, iv):
    """Leakage of a single output interval, closed form.

    Bounded (a,b): the conditional probability is maximized by the
    secret at the midpoint, giving numerator 2 Phi((b-a)/(2 sigma_n)) - 1.
    Tail intervals: the supremum of the conditional probability is 1,
    approached as the secret runs into the tail, so the value is
    log(1/P_Y(iv)). Full line: 0.
    """
    if not isinstance(iv, Interval):
        iv = Interval(*iv)
    if iv.is_full_line:
        return LeakageNats(0.0)
    if iv.lo == iv.hi:
        raise DomainError("degenerate interval has no leakage value")
    mass = m._mass(iv)
    if mass <= 0.0:
        raise DomainError(f"interval ({iv.lo!r}, {iv.hi!r}) carries no output mass")
    if iv.has_tail:
        return LeakageNats(-math.log(mass))
    numer = _bounded_numerator(iv.hi - iv.lo, m.sigma_n)
    return LeakageNats(math.log(numer) - math.log(mass))


def set_leakage_oracle(m, union):
    """Formula-free leakage of a disjoint interval union.

    Brute force: log of the supremum over a dense secret grid of the
    conditional probability, over the union's output mass. Used as the
    independent cross-check for every closed-form path. Unions touching
    a tail have supremum 1 exactly (the secret can run away), handled
    symbolically.
    """
    return _union_leakages(m, [union])[0]


def _union_leakages(m, unions):
    """set_leakage_oracle of each union in a list, the same doubles.

    Each bounded union is scanned on its own grid over its hull (the
    conditional probability rises left of its supremum and falls right
    of it); then one lockstep refine_max polishes every scan maximum,
    scoring all unions' cells from one table of ends, zero-padded to
    the widest union.
    """
    unions = [_disjoint_union(union) for union in unions]
    masses = [event_mass(m, union) for union in unions]
    if not all(mass > 0.0 for mass in masses):
        raise DomainError("union carries no output mass")
    # a union touching a tail has supremum 1: the secret can run away
    leaks = [
        LeakageNats(-math.log(mass)) if any(iv.has_tail for iv in union) else None
        for union, mass in zip(unions, masses)
    ]
    bounded = [i for i, leak in enumerate(leaks) if leak is None]
    if not bounded:
        return leaks
    ends = _cell_ends([unions[i] for i in bounded])
    grids, scans = [], []
    for col, i in enumerate(bounded):
        lo, hi = ends[:, : len(unions[i]), col]
        span = max(hi[-1] - lo[0], m.sigma_n)
        n = max(_ORACLE_MIN_POINTS, int(math.ceil(span / (m.sigma_n * _ORACLE_SPACING))) + 1)
        grid = np.linspace(lo[0], hi[-1], n)
        scan = _union_prob(lo, hi, grid, m.sigma_n)
        # refine_max reads only the scan argmax and its neighbours; copies
        # of those let each grid go before the next union's is made
        k = int(np.argmax(scan))
        near = slice(max(k - 1, 0), k + 2)
        grids.append(grid[near].copy())
        scans.append(scan[near].copy())
    polished = refine_max(
        lambda x, rows: _union_prob(ends[0][:, rows], ends[1][:, rows], x, m.sigma_n),
        grids, scans, 1e-12,
    )
    for i, (_, q_max) in zip(bounded, polished):
        leaks[i] = LeakageNats(math.log(q_max) - math.log(masses[i]))
    return leaks


def _cell_ends(unions):
    """(lo, hi) table of bounded unions' cells, shaped (2, widest union, unions).

    Column u lists union u's cells in order, zero-padded: a padding
    cell has lo == hi, so _union_prob adds exactly 0 for it.
    """
    ends = np.zeros((2, max(map(len, unions)), len(unions)))
    for col, union in enumerate(unions):
        ends[:, : len(union), col] = np.array([(iv.lo, iv.hi) for iv in union]).T
    return ends


def _disjoint_union(union):
    """The union's intervals, sorted; DomainError when empty or overlapping."""
    union = [iv if isinstance(iv, Interval) else Interval(*iv) for iv in union]
    if not union:
        raise DomainError("union must contain at least one interval")
    ordered = sorted(union, key=lambda iv: (iv.lo, iv.hi))
    for left, right in zip(ordered, ordered[1:]):
        if right.lo < left.hi:
            raise DomainError("union intervals must be disjoint")
    return ordered


# -- finite post-processings --------------------------------------------


def validate_partition(m, part):
    """Check a partition tiles the working window; returns cell masses."""
    if not isinstance(part, FinitePartition):
        raise DomainError("expected a FinitePartition")
    win_lo, win_hi = m.window
    scale = max(1.0, abs(win_lo), abs(win_hi))
    tol = 1e-9 * scale
    cells = part.cells
    first_lo = cells[0].lo
    last_hi = cells[-1].hi
    if first_lo > win_lo + tol or last_hi < win_hi - tol:
        raise DomainError(
            f"cells span [{first_lo!r}, {last_hi!r}] but must cover the working "
            f"window [{win_lo!r}, {win_hi!r}]"
        )
    for left, right in zip(cells, cells[1:]):
        if abs(right.lo - left.hi) > tol:
            raise DomainError(f"gap between cells at {left.hi!r}")
    masses = np.array([m._mass(c) for c in cells])
    total = float(masses.sum())
    if abs(total - 1.0) > 1e-9 + 2e-9 * scale:
        raise DomainError(f"cell masses sum to {total!r}, expected 1")
    return masses


def partition_delta_quantile(m, part, delta):
    """Largest leakage exceeded with probability >= delta by h(Y).

    For a finite outcome set the quantile is exact: sort outcomes by
    leakage descending, accumulate their masses until at least delta,
    and return the leakage of the last outcome taken. Accumulation uses
    a 1e-7 slack so a quadrature shortfall in masses that sum to delta
    on paper cannot skip past the intended outcome.
    """
    delta = check_probability(delta, "delta")
    validate_partition(m, part)
    unions = part.outcome_unions()
    leaks = _union_leakages(m, [cells for _, cells in unions])
    outcomes = [
        (float(leak), event_mass(m, cells), label) for leak, (label, cells) in zip(leaks, unions)
    ]
    outcomes.sort(key=lambda t: (-t[0], t[2]))
    acc = 0.0
    for leak, mass, _ in outcomes:
        acc += mass
        if acc >= delta - 1e-7:
            return LeakageNats(leak)
    return LeakageNats(outcomes[-1][0])  # delta exceeds total mass only by roundoff


def tail_thresholds(m, delta_left, delta_right):
    """Cut points with P_Y(-inf, t_L) = delta_left, P_Y(t_R, inf) = delta_right."""
    delta_left = check_probability(delta_left, "delta_left")
    delta_right = check_probability(delta_right, "delta_right")
    if delta_left + delta_right >= 1.0:
        raise DomainError("tail masses are infeasible: delta_left + delta_right >= 1")
    return (m.marginal_quantile(delta_left), m.marginal_quantile(1.0 - delta_right))


def _mass_end(m, u, delta):
    """F_Y^{-1}(F_Y(u) + delta) by exact quantile, the level capped below 1."""
    return m.marginal_quantile(min(m.marginal_cdf(u) + delta, 1.0 - 1e-15))


def _mass_window(m, rng, delta, score, n=512):
    """Interval (u, v(u)) inside the range rng maximizing score(u, v).

    v(u) = F_Y^{-1}(F_Y(u) + delta), so every candidate has mass delta;
    rng must be bounded and inside the working window. score maps arrays
    or scalars (u, v) to values. n lower ends are scored on the cached
    CDF table, refine_max polishes the best of them on exact quantiles,
    and the result is the best of the polish and the two range ends,
    each scored exactly. The range ends stay candidates because near the
    right tail the exact quantile solves at levels close to 1, where it
    cancels, and the polish can miss a window flush with rng.hi.
    """
    win_lo, win_hi = m.window
    if not (rng.is_bounded and win_lo <= rng.lo and rng.hi <= win_hi):
        raise DomainError("search range must be a bounded interval inside the working window")
    f_hi = m.marginal_cdf(rng.hi)
    p_range = f_hi - m.marginal_cdf(rng.lo)
    delta = check_number(delta, "delta")
    if not 0.0 < delta < p_range:
        raise DomainError(f"delta must lie strictly between 0 and P_Y(range)={p_range!r}")
    u_max = min(max(m.marginal_quantile(f_hi - delta), rng.lo), rng.hi)
    us = np.linspace(rng.lo, u_max, n)
    end = functools.cache(lambda u: _mass_end(m, u, delta))  # the polish ends on u_star
    u_star, _ = refine_max(
        lambda u: score(u, end(u)),
        us, score(us, m._table_quantile(m._table_cdf(us) + delta)), 1e-10,
    )
    ends = {u: end(u) for u in (u_star, rng.lo, u_max)}
    best = max(ends, key=lambda u: score(u, ends[u]))  # ties keep the polish
    return Interval(best, min(ends[best], rng.hi))


def worst_interval_search(m, rng, delta):
    """Longest (equivalently, leakiest) interval of mass delta inside rng.

    Length and leakage rank equal-mass intervals identically because
    the leakage numerator grows with length, so this is the mass-delta
    window of largest v - u (see _mass_window). When the marginal's
    unimodal tail threshold is unknown the coarse scan takes 10,000
    lower ends instead of relying on unimodality.
    """
    if not isinstance(rng, Interval):
        rng = Interval(*rng)
    n = 10_000 if m.unimodal_tail_threshold() is None else 512
    iv = _mass_window(m, rng, delta, lambda u, v: v - u, n)
    return iv, interval_leakage(m, iv)


# -- JSON forms ----------------------------------------------------------


def partition_from_json(obj, pointer=""):
    """Parse {"cells": [{"lo": ..., "hi": ..., "label": ...}, ...]}."""
    raw = check_fields(obj, pointer, ("cells",))["cells"]
    if not isinstance(raw, list) or not raw:
        raise DomainError(f"{pointer}/cells: must be a non-empty array")
    cells, labels = [], []
    for i, item in enumerate(raw):
        here = f"{pointer}/cells/{i}"
        check_fields(item, here, ("lo", "hi", "label"))
        lo = decode_endpoint(item["lo"], f"{here}/lo")
        hi = decode_endpoint(item["hi"], f"{here}/hi")
        if not isinstance(item["label"], str):
            raise DomainError(f"{here}/label: must be a string")
        try:
            cells.append(Interval(lo, hi))
        except DomainError as exc:
            raise DomainError(f"{here}: {exc}") from exc
        labels.append(item["label"])
    try:
        return FinitePartition(tuple(cells), tuple(labels))
    except DomainError as exc:
        raise DomainError(f"{pointer}/cells: {exc}") from exc


def partition_to_json(part):
    """Inverse of partition_from_json."""
    return {
        "cells": [
            {"lo": encode_endpoint(c.lo), "hi": encode_endpoint(c.hi), "label": lab}
            for c, lab in zip(part.cells, part.labels)
        ]
    }
