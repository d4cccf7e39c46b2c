"""Special functions, quadrature, root finding and maximization.

Everything downstream is built on the operations here: the standard
normal density, the package's one quadrature rule (composite Simpson
nodes and weights, which integrate() and Mechanism both sum against),
its one root finder (safeguarded Newton with a bisection fallback,
written here so that no scipy.optimize import is paid), and its one
maximizer: refine_max scans a grid, brackets the scan argmax by its two
neighbours and polishes it by golden section, keeping the scan value
when the polish lands lower. All logarithms in this package are natural
logs; leakage values are nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, PreconditionError, check_count, check_number

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Doublings tried by integrate() before giving up; 2048 panels * 2^8 is
# already ~half a million nodes, far past any integrand used here.
_MAX_DOUBLINGS = 8
# Golden-section steps before tol stops them; 200 shrink a bracket ~1e42-fold.
_GOLDEN_MAX_ITER = 200


@dataclass(frozen=True)
class QuadratureConfig:
    """Truncation window, panel budget, and target accuracy for quadrature.

    truncation_halfwidth is in standardized units: priors and mechanisms
    scale it by their own spread to get a finite window. With the
    default 10, the discarded Gaussian mass is ~1.5e-23, far below every
    tolerance in the package.
    """

    truncation_halfwidth: float = 10.0
    panel_count: int = 2048
    abs_tol: float = 1e-10

    def __post_init__(self):
        if check_number(self.truncation_halfwidth, "truncation_halfwidth") < 8.0:
            raise DomainError("truncation_halfwidth must be >= 8")
        check_count(self.panel_count, "panel_count", lo=256)
        check_number(self.abs_tol, "abs_tol", positive=True)


DEFAULT_CONFIG = QuadratureConfig()


def std_normal_pdf(x):
    """Standard normal density phi(x) = exp(-x^2/2)/sqrt(2*pi), elementwise."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("x must be finite")
    return np.exp(-0.5 * arr * arr - _LOG_SQRT_2PI)


def _simpson_nodes(lo, hi, panels):
    """Composite Simpson nodes and weights on [lo, hi], panels rounded up to even."""
    n = panels + (panels % 2)
    x = np.linspace(lo, hi, n + 1)
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return x, w * ((hi - lo) / n / 3.0)


def integrate(f, a, b, cfg=DEFAULT_CONFIG):
    """Composite Simpson integral of a vectorized integrand on finite [a, b].

    The panel count starts at cfg.panel_count and doubles until two
    successive estimates differ by less than cfg.abs_tol; failure to
    converge raises NumericalError carrying the last estimate.
    """
    a, b = check_number(a, "a"), check_number(b, "b")
    if a > b:
        raise DomainError("integration requires a <= b")
    start = cfg.panel_count + (cfg.panel_count % 2)
    prev = None
    for n in (start << k for k in range(_MAX_DOUBLINGS + 1)):
        x, w = _simpson_nodes(a, b, n)
        fx = np.asarray(f(x), dtype=float)
        if fx.shape != x.shape:
            raise DomainError("integrand must map an ndarray to an ndarray of the same shape")
        if not np.all(np.isfinite(fx)):
            raise DomainError("integrand returned non-finite values")
        cur = float(w @ fx)
        if prev is not None and abs(cur - prev) < cfg.abs_tol:
            return cur
        prev = cur
    raise NumericalError(
        f"quadrature did not converge to abs_tol={cfg.abs_tol} "
        f"between {start} and {n} panels",
        operation="integrate",
        last_estimate=prev,
    )


def find_root_increasing(g, lo, hi, tol, x0):
    """Safeguarded Newton root of a nondecreasing g with g(lo) <= 0 <= g(hi).

    g(t) returns the pair (g(t), g'(t)). Iterates start at x0 (clamped
    into [lo, hi]) and follow rtsafe (Numerical Recipes, section 9.4):
    take the Newton step while it stays inside the bracket and is at most
    half the step before last, otherwise bisect. Once a Newton step is
    below tol/2, the next iterate probes tol/2 past the current one, on
    the root's side, so one evaluation can close the bracket; a probe
    that fails to close it is followed by a bisection.

    Returns the midpoint of a bracket no wider than tol (or at
    floating-point resolution) with both signs of g evaluated on it. An
    end never evaluated by the iteration is evaluated last, and the
    wrong sign there raises PreconditionError.
    """
    lo = check_number(lo, "lo")
    hi = check_number(hi, "hi")
    tol = float(tol)
    if not (tol > 0.0):
        raise DomainError("tol must be positive")
    if lo > hi:
        raise PreconditionError("requires lo <= hi")
    t = min(max(check_number(x0, "x0"), lo), hi)
    seen_lo = seen_hi = probed = False
    step = step_old = hi - lo
    while True:
        v, slope = map(float, g(t))
        if v < 0.0:
            lo, seen_lo = t, True
        else:
            hi, seen_hi = t, True
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or not lo < mid < hi:  # closed, or at resolution
            break
        dx = v / slope if slope > 0.0 else math.inf
        nxt = t - dx
        if not probed and abs(dx) < 0.5 * tol:
            nxt, probed = (t + 0.5 * tol if v < 0.0 else t - 0.5 * tol), True
        elif probed or not lo < nxt < hi or abs(dx) > 0.5 * abs(step_old):
            nxt, probed = mid, False
        step_old, step = step, nxt - t
        t = nxt
    for name, end, seen, sign in (("lo", lo, seen_lo, 1.0), ("hi", hi, seen_hi, -1.0)):
        v = 0.0 if seen else float(g(end)[0])
        if sign * v > 0.0:
            raise PreconditionError(
                f"bracket violation: g({name})={v!r} breaks g(lo) <= 0 <= g(hi)"
            )
    return mid


def golden_section_max(f, lo, hi, tol=1e-10):
    """Maximize a unimodal scalar f on [lo, hi]; returns (argmax, max)."""
    lo = check_number(lo, "lo")
    hi = check_number(hi, "hi")
    if lo > hi:
        raise PreconditionError("requires lo <= hi")
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = float(f(c)), float(f(d))
    for _ in range(_GOLDEN_MAX_ITER):
        if b - a <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = float(f(c))
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = float(f(d))
    xs = 0.5 * (a + b)
    return xs, float(f(xs))


def refine_max(f, grid, values, rel_tol):
    """Maximum of f near the best point of a scan; returns (argmax, max).

    values scores grid by f or by a cheaper approximation of it. Golden
    section polishes f on [grid[k-1], grid[k+1]] around the scan argmax
    k, to rel_tol * max(1, |bracket ends|); the scan point (grid[k],
    values[k]) is returned instead when its value is larger.
    """
    k = int(np.argmax(values))
    a = float(grid[max(k - 1, 0)])
    b = float(grid[min(k + 1, len(grid) - 1)])
    x, fx = golden_section_max(f, a, b, tol=rel_tol * max(1.0, abs(a), abs(b)))
    if float(values[k]) > fx:
        return float(grid[k]), float(values[k])
    return x, fx
