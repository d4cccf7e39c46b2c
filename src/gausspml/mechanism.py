"""Additive Gaussian noise channel Y = X + N with cached marginal tables.

Everything downstream (leakage, envelopes, verification) queries this
object. Every marginal and posterior quantity is a sum of the Gaussian
noise kernel against the prior's quadrature nodes, computed by the one
banded reduction `_kernel_reduce`; event masses are kernel probabilities
summed by `Mechanism._mass`. This module alone holds the nodes and the
kernel's special functions. Construction tabulates f_Y' and F_Y on the
y grid, and other modules read that table only through Mechanism's
methods; the instance is immutable afterwards and all queries are safe
to run concurrently.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .errors import DomainError, NumericalError, check_number, check_probability
from .numerics import _MAX_PANELS, DEFAULT_CONFIG, QuadratureConfig, _simpson_nodes, find_root_increasing
from .priors import check_prior

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)
_CHUNK = 128  # rows per kernel block; a block spans a few sigma_n on the default grid
_TILE = 64  # nodes per pairwise partial sum of F_Y (see _kernel_reduce)
# largest |raw node sum - 1| of the prior (see _node_weights); a kinked
# strongly log-concave prior such as SLC(1, 1, 1.1) misses by 5e-7
_MASS_TOL = 1e-6
# probe gap of a rule from its doubled rule that is roundoff (see Mechanism):
# smooth priors stay below 1.5e-15, kinked ones exceed 6.5e-15 at 2048 panels
_ROUNDOFF = 16 * np.finfo(float).eps

# Past these standardized distances z = (y - x)/sigma_n a kernel entry is an
# exact double constant, so _kernel_reduce never evaluates it: ndtr(z) == 1.0
# for z >= _Z_ONE, ndtr(z) == 0.0 for z <= _Z_ZERO and exp(-z^2/2) == 0.0 for
# |z| >= _Z_EXP. In double the constants start at 8.293, -37.68 and 38.604;
# the margins absorb the rounding of z and of the band edges.
_Z_ONE, _Z_ZERO, _Z_EXP = 8.5, -38.0, 38.75

# exp and ndtr entries evaluated by _kernel_reduce since import: a cost
# measure that does not depend on the machine
_EVALS = {"exp": 0, "ndtr": 0}
_EVALS_LOCK = threading.Lock()

# Row sums of one kernel block over the density band: z = (y - x)/sigma_n
# over the band's nodes x with weights w, k = exp(-z^2/2); _kernel_reduce
# scales each sum by 1/(sigma_n sqrt(2 pi)).
_DENSITY_TERMS = {
    "f": lambda z, k, xs, w, sn: k @ w,  # f_Y
    "df": lambda z, k, xs, w, sn: (k * z) @ w * (-1.0 / sn),  # f_Y'
    "d2f": lambda z, k, xs, w, sn: (k * (z * z - 1.0)) @ w / (sn * sn),  # f_Y''
    "m1": lambda z, k, xs, w, sn: k @ (w * xs),  # f_Y E[X | Y=y]
    "m2": lambda z, k, xs, w, sn: k @ (w * xs * xs),  # f_Y E[X^2 | Y=y]
}


def _tiled(xs, w):
    """Nodes for _kernel_reduce: xs and w padded to whole _TILE-node tiles.

    The padding puts zero-weight nodes at +inf, which no band reaches.
    Also returns the prefix sums of the tile weight sums,
    [0, W_0, W_0 + W_1, ...], added left to right.
    """
    pad = -xs.size % _TILE
    xs = np.concatenate((xs, np.full(pad, np.inf)))
    w = np.concatenate((w, np.zeros(pad)))
    return xs, w, np.concatenate(([0.0], np.cumsum(w.reshape(-1, _TILE).sum(axis=1))))


def _kernel_reduce(ys, xs, wfx, tile_cdf, sigma_n, terms):
    """Kernel sums over the prior nodes (xs, wfx) at every y, by name.

    Returns one array per name in terms (see _DENSITY_TERMS, plus "cdf"
    for F_Y), shaped like ys; (xs, wfx, tile_cdf) come from _tiled. Rows
    are taken 128 at a time, and one searchsorted on a block's min and
    max y finds the nodes whose kernel entries are not exact constants
    (see _Z_ONE): exp is evaluated only where |z| < _Z_EXP, and only when
    a density term is asked for; ndtr only where _Z_ZERO < z < _Z_ONE.
    Every skipped entry is exactly 0, or exactly 1 left of the ndtr
    band, so the density sums differ from the full node sum only in the
    order of summation.

    F_Y is summed over whole _TILE-node tiles: the ndtr band is filled
    out to tile edges with its exact ones and zeros, and the tiles left
    of it enter through the prefix tile_cdf. Each tile is summed pairwise
    and the tiles left to right, the order of the full tiled sum, so F_Y
    at a given y is the same double whatever the shape of the call (a
    lone y, an array, the cached table) and whatever block it falls in,
    and it does not decrease along any grid coarser than the roundoff of
    ndtr itself.
    """
    arr = np.asarray(ys, dtype=float)
    flat = arr.reshape(-1)
    out = np.empty((len(terms), flat.size))
    knorm = 1.0 / (sigma_n * math.sqrt(2.0 * math.pi))
    dense = [(i, _DENSITY_TERMS[t]) for i, t in enumerate(terms) if t != "cdf"]
    cdf = terms.index("cdf") if "cdf" in terms else None
    d_exp, d_one, d_zero = _Z_EXP * sigma_n, _Z_ONE * sigma_n, _Z_ZERO * sigma_n
    n_exp = n_ndtr = 0
    for s in range(0, flat.size, _CHUNK):
        y = flat[s:s + _CHUNK]
        rows = y.tolist()  # python floats: a one-row block pays no numpy reduction
        if not all(map(math.isfinite, rows)):
            raise DomainError("y must be finite")
        lo, hi = min(rows), max(rows)
        edges = np.array((lo - d_exp, lo - d_one, hi - d_zero, hi + d_exp))
        e0, c0, c1, e1 = xs.searchsorted(edges).tolist()
        b0, b1 = (e0, e1) if dense else (c0, c1)  # [c0, c1) lies inside [e0, e1)
        z = np.subtract.outer(y, xs[b0:b1])
        z /= sigma_n
        if dense:
            k = -0.5 * z
            k *= z
            np.exp(k, out=k)
            n_exp += k.size
            for i, fn in dense:
                out[i, s:s + y.size] = fn(z, k, xs[e0:e1], wfx[e0:e1], sigma_n) * knorm
        if cdf is not None:
            # whole tiles [a0, a1): exact ones before c0, exact zeros from c1
            a0, a1 = c0 - c0 % _TILE, c1 + (-c1 % _TILE)
            phi = np.empty((y.size, a1 - a0))
            phi[:, :c0 - a0] = 1.0
            _sp.ndtr(z[:, c0 - b0:c1 - b0], out=phi[:, c0 - a0:c1 - a0])
            phi[:, c1 - a0:] = 0.0
            n_ndtr += y.size * (c1 - c0)
            n_tiles = (a1 - a0) // _TILE
            phi *= wfx[a0:a1]
            acc = np.empty((y.size, 1 + n_tiles))
            acc[:, 0] = tile_cdf[a0 // _TILE]
            phi.reshape(y.size, n_tiles, _TILE).sum(axis=2, out=acc[:, 1:])
            out[cdf, s:s + y.size] = np.add.accumulate(acc, axis=1, out=acc)[:, -1]
    with _EVALS_LOCK:
        _EVALS["exp"] += n_exp
        _EVALS["ndtr"] += n_ndtr
    return tuple(out.reshape((len(terms),) + arr.shape))


def _phi_diff(za, zb):
    """Phi(zb) - Phi(za) for za <= zb, elementwise and cancellation-free.

    The difference is taken on whichever side of zero keeps both terms
    small (Phi(zb) - Phi(za) = Phi(-za) - Phi(-zb)), so it stays
    relatively accurate deep in either tail.
    """
    flip = za + zb > 0.0
    return _sp.ndtr(np.where(flip, -za, zb)) - _sp.ndtr(np.where(flip, -zb, za))


def _kernel_prob(iv, x, sigma_n):
    """P(Y in iv | X=x) under the noise kernel, for an interval iv and array x."""
    if math.isinf(iv.lo):
        return _sp.ndtr((iv.hi - x) / sigma_n)
    if math.isinf(iv.hi):
        return _sp.ndtr((x - iv.lo) / sigma_n)
    return np.maximum(_phi_diff((iv.lo - x) / sigma_n, (iv.hi - x) / sigma_n), 0.0)


def _bounded_numerator(length, sigma_n):
    """sup_x P(Y in (a, a+length) | X=x) = 2 Phi(length/(2 sigma_n)) - 1.

    The supremum is attained by the secret at the interval's midpoint.
    """
    return _sp.erf(length / (2.0 * sigma_n * _SQRT2))


def _node_weights(w, fx, panels):
    """Prior weights w * fx on the nodes, normalized to sum to 1.

    The prior's density is normalized by integrate on the same window,
    so the raw sum misses 1 only by quadrature error. A sum farther than
    _MASS_TOL from 1, or not finite, raises NumericalError: the nodes
    miss prior mass, e.g. a component narrower than their spacing.
    """
    wfx = w * np.asarray(fx, dtype=float)
    mass = float(wfx.sum())
    if not abs(mass - 1.0) <= _MASS_TOL:  # NaN fails too
        raise NumericalError(
            f"prior mass on the quadrature nodes is {mass!r} at panel_count={panels}, "
            "expected 1",
            operation="mechanism construction",
            last_estimate=mass,
        )
    return wfx / mass


@dataclass(frozen=True, eq=False)
class Mechanism:
    """A prior on the secret, a noise scale, and the derived marginal.

    y_grid defaults to 4096 evenly spaced points covering the prior's
    truncation window widened by truncation_halfwidth * sigma_n on each
    side; pass an increasing array to override. The grid's endpoints
    define the working window for quantiles and window-wide scans.

    The prior must be one of the four families in priors.py (anything
    else raises DomainError). top = max(cfg.panel_count, the panels that
    put nodes sigma_n / 4 apart); past 2**16, NumericalError is raised.
    The Simpson rule is the coarsest of top / 2^k panels, nodes no farther
    apart than sigma_n / 4, whose doubled rule gives the same f_Y and F_Y
    at 9 probe points up to roundoff; else top, whose doubled rule must
    move f_Y by at most 10 cfg.abs_tol. The prior's weights on the nodes
    are normalized to sum to 1; a raw sum farther than 1e-6 from 1 passes
    a rule below top over, and raises NumericalError at top or above.
    """

    prior: object
    sigma_n: float
    cfg: QuadratureConfig = DEFAULT_CONFIG
    y_grid: np.ndarray | None = None

    def __post_init__(self):
        sn = check_number(self.sigma_n, "sigma_n", positive=True)
        object.__setattr__(self, "sigma_n", sn)
        check_prior(self.prior)

        x_lo, x_hi = self.prior.support(self.cfg)
        # nodes no farther apart than sigma_n / 4 resolve the kernel
        ratio = 2.0 * (x_hi - x_lo) / sn
        floor = 2.0 * math.ceil(ratio) if math.isfinite(ratio) else math.inf
        if floor > _MAX_PANELS:
            raise NumericalError(
                f"sigma_n={sn!r} needs {floor:.6g} quadrature panels over the prior window, "
                f"more than the {_MAX_PANELS} allowed",
                operation="mechanism construction",
            )
        floor = int(floor)

        if self.y_grid is None:
            pad = self.cfg.truncation_halfwidth * sn
            grid = np.linspace(x_lo - pad, x_hi + pad, 4096)
        else:
            grid = np.asarray(self.y_grid, dtype=float)
            if grid.ndim != 1 or grid.size < 16:
                raise DomainError("y_grid must be a 1-d array with at least 16 points")
            if not np.all(np.isfinite(grid)) or not np.all(np.diff(grid) > 0.0):
                raise DomainError("y_grid must be finite and strictly increasing")
        object.__setattr__(self, "y_grid", grid)

        # rules at top / 2^k panels, smallest first and none below the floor
        top = max(self.cfg.panel_count, floor)
        probe = np.linspace(grid[0], grid[-1], 9)

        def probed(p):  # nodes and weights, and (f_Y, F_Y) at the probe points
            xs, wts = _simpson_nodes(x_lo, x_hi, p)
            try:
                wfx = _node_weights(wts, self.prior.density(xs), p)
            except NumericalError:
                if p >= top:
                    raise
                return None  # below top, a rule failing the node-mass guard
            return xs, wfx, np.array(_kernel_reduce(probe, *_tiled(xs, wfx), sn, ("f", "cdf")))

        panels = top
        while panels % 4 == 0 and panels // 2 >= floor:
            panels //= 2
        rule = probed(panels)
        while panels < top:
            double = probed(2 * panels)
            if rule and double:  # f_Y relative to its peak and F_Y agree to roundoff
                gap = np.abs(rule[2] - double[2]).max(axis=1)
                if gap[0] <= _ROUNDOFF * double[2][0].max() and gap[1] <= _ROUNDOFF:
                    break
            rule, panels = double, 2 * panels
        else:  # the finest rule: its doubled rule must agree to 10 abs_tol
            err = float(np.abs(rule[2][0] - probed(2 * top)[2][0]).max())
            if not err <= 10.0 * self.cfg.abs_tol:  # NaN fails too
                raise NumericalError(
                    f"marginal density unconverged at panel_count={top} "
                    f"(refinement moves it by {err:.3g})",
                    operation="mechanism construction",
                    last_estimate=err,
                )
        xs, wfx, _ = rule
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_wfx", wfx)
        object.__setattr__(self, "_nodes", _tiled(xs, wfx))

        mean_x = float(wfx @ xs)
        var_x = float(wfx @ (xs - mean_x) ** 2)
        object.__setattr__(self, "_x_mean", mean_x)
        object.__setattr__(self, "_sigma_y", math.sqrt(var_x + sn * sn))

        dfy, Fy = self._reduce(grid, ("df", "cdf"))
        object.__setattr__(self, "_dfy_grid", dfy)
        Fy = np.maximum.accumulate(np.clip(Fy, 0.0, 1.0))
        object.__setattr__(self, "_Fy_grid", Fy)

    # -- window geometry -------------------------------------------------

    @property
    def window(self):
        """Working (y_lo, y_hi) covered by the cache grid."""
        return (float(self.y_grid[0]), float(self.y_grid[-1]))

    @property
    def level_window(self):
        """(lo, hi) = marginal_cdf at the grid ends: marginal_quantile takes lo < p <= hi."""
        return (float(self._Fy_grid[0]), float(self._Fy_grid[-1]))

    @property
    def x_window(self):
        return tuple(map(float, self.prior.support(self.cfg)))

    @property
    def sigma_y(self):
        """Standard deviation of the output marginal."""
        return self._sigma_y

    # -- marginal --------------------------------------------------------

    def _reduce(self, ys, terms):
        """_kernel_reduce over this mechanism's quadrature nodes."""
        return _kernel_reduce(ys, *self._nodes, self.sigma_n, terms)

    def _density_terms(self, ys, terms):
        """Kernel sums at ys, terms[0] == "f"; raises where f_Y underflows.

        Derivatives differentiate the Gaussian kernel under the integral
        sign; finite differences are never used here.
        """
        out = self._reduce(ys, terms)
        f = out[0].ravel()
        if np.any(f <= 0.0):
            bad = float(np.asarray(ys, dtype=float).ravel()[np.argmax(f <= 0.0)])
            raise DomainError(
                f"marginal density underflows at y={bad!r}; outside the working window"
            )
        return out

    def _mass(self, iv):
        """P_Y(iv) for an interval iv (with lo, hi), cancellation-free."""
        if iv.is_full_line:
            return 1.0
        return float(_kernel_prob(iv, self._xs, self.sigma_n) @ self._wfx)

    def marginal_density(self, y):
        """f_Y(y); scalar in, scalar out."""
        (f,) = self._density_terms(y, ("f",))
        return float(f) if np.ndim(y) == 0 else f

    def marginal_cdf(self, y):
        """F_Y(y) by direct quadrature; at a grid node it equals the cached table."""
        (out,) = self._reduce(y, ("cdf",))
        out = out.clip(0.0, 1.0)
        return float(out) if np.ndim(y) == 0 else out

    def marginal_quantile(self, p):
        """F_Y^{-1}(p) by safeguarded Newton on the direct-quadrature CDF.

        The cached table, whose entries are the F_Y doubles an iterate
        computes at its nodes, gives the bracket [grid[k-1], grid[k]] and
        the start, by linear interpolation. Each iterate is one kernel pass
        returning F_Y and its slope f_Y; the result is the midpoint of a
        bracket no wider than 1e-12 max(1, |bracket end|) on which
        F_Y - p takes both signs (see find_root_increasing).
        """
        p = check_probability(p, "p")
        grid, Fg = self.y_grid, self._Fy_grid
        k = int(np.searchsorted(Fg, p))
        if k == 0 or k == grid.size:
            raise DomainError(f"quantile p={p!r} falls outside the working window")
        lo, hi = float(grid[k - 1]), float(grid[k])
        tol = 1e-12 * max(1.0, abs(lo), abs(hi))
        x0 = lo + (p - Fg[k - 1]) / (Fg[k] - Fg[k - 1]) * (hi - lo)

        def g(t):
            F, f = self._reduce(t, ("cdf", "f"))
            return float(F) - p, float(f)

        return find_root_increasing(g, lo, hi, tol, x0)

    def _table_quantile(self, ps):
        """F_Y^{-1} at an array of levels, interpolated in the cached table."""
        return np.interp(ps, self._Fy_grid, self.y_grid)

    def _table_cdf(self, ys):
        """F_Y at an array of points, interpolated in the cached table."""
        return np.interp(ys, self.y_grid, self._Fy_grid)

    # -- posterior statistics ---------------------------------------------

    def posterior_mean(self, y):
        """E[X | Y=y] = sigma_n^2 f_Y'(y)/f_Y(y) + y."""
        f, f1 = self._density_terms(y, ("f", "df"))
        out = self.sigma_n**2 * f1 / f + np.asarray(y, dtype=float)
        return float(out) if np.ndim(y) == 0 else out

    def posterior_variance(self, y):
        """Var[X | Y=y]; two routes must agree to 1e-5 max(1, sigma_n^2).

        Route one integrates posterior moments directly; route two, which
        is returned, uses the curvature identity var = sigma_n^4 (log
        f_Y)'' + sigma_n^2. They share kernel evaluations but reduce them
        independently; a gap past the tolerance raises NumericalError.
        """
        sn = self.sigma_n
        f, f1, f2, m1, m2 = self._density_terms(y, ("f", "df", "d2f", "m1", "m2"))
        var_direct = m2 / f - (m1 / f) ** 2
        r1 = f1 / f
        var_curv = sn**4 * (f2 / f - r1 * r1) + sn * sn
        gap = float(np.max(np.abs(var_direct - var_curv)))
        if gap > 1e-5 * max(1.0, sn**2):
            raise NumericalError(
                f"posterior variance routes disagree by {gap:.3g}; "
                "grid resolution is insufficient",
                operation="posterior_variance",
                last_estimate=gap,
            )
        out = np.clip(var_curv, 0.0, None)
        return float(out) if np.ndim(y) == 0 else out

    # -- information density ----------------------------------------------

    def info_density(self, x, y):
        """i(x; y) = log f_{Y|X=x}(y) - log f_Y(y), in nats.

        Broadcasts over x and y. x need not carry prior mass; the value
        is a property of the noise kernel and the output marginal.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DomainError("x and y must be finite")
        (f,) = self._density_terms(y, ("f",))
        z = (y - x) / self.sigma_n
        out = (-0.5 * z * z - math.log(self.sigma_n) - _LOG_SQRT_2PI) - np.log(f)
        return float(out) if out.ndim == 0 else out

    # -- marginal shape ---------------------------------------------------

    def unimodal_tail_threshold(self):
        """Smallest cached-grid value M with f_Y' of constant sign beyond it.

        Certifies f_Y' < 0 on (M, window edge) and f_Y' > 0 on
        (-window edge, -M) using the cached analytic derivative. Returns
        None when either sign condition keeps failing within two grid
        spacings of a window edge.
        """
        y, d = self.y_grid, self._dfy_grid
        edge = 2.0 * float(y[1] - y[0])

        def right_tail(t, slope):  # the left tail is the mirrored grid's right tail
            pos = t > 0.0
            if not pos.any():
                return None
            bad = np.nonzero(pos & (slope >= 0.0))[0]
            if bad.size == 0:
                return float(t[pos][0])
            m = float(t[bad[-1]])
            return None if m > float(t[-1]) - edge else m

        m_right, m_left = right_tail(y, d), right_tail(-y[::-1], -d[::-1])
        return None if m_right is None or m_left is None else max(m_right, m_left)

    def _is_unimodal(self):
        """Whether the cached f_Y' goes from + to - exactly once, ignoring exact zeros."""
        s = np.sign(self._dfy_grid)
        s = s[s != 0.0]
        return bool(s.size and s[0] > 0.0 and s[-1] < 0.0 and np.count_nonzero(np.diff(s)) == 1)
