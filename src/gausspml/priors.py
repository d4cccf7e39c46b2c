"""Parametric secret distributions f_X = exp(-theta).

Four families: Gaussian, a strongly log-concave composite
theta(x) = x^2/(2 beta^2) + c|x|^p/p, Gaussian mixtures (deliberately
allowed to violate log-concavity), and tabulated grid densities with a
declared, bounded support window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ModelError, check_fields, check_number
from .numerics import DEFAULT_CONFIG, integrate, std_normal_pdf

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _as_float_tuple(values, name):
    try:
        out = tuple(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a sequence of numbers") from exc
    if not out:
        raise DomainError(f"{name} must be non-empty")
    if not all(math.isfinite(v) for v in out):
        raise DomainError(f"{name} must contain only finite values")
    return out


@dataclass(frozen=True)
class GaussianPrior:
    """Zero-mean Gaussian secret with standard deviation sigma_x."""

    sigma_x: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma_x) and self.sigma_x > 0.0):
            raise DomainError("sigma_x must be finite and positive")

    is_full_support = True

    def support(self, cfg=DEFAULT_CONFIG):
        w = cfg.truncation_halfwidth * self.sigma_x
        return (-w, w)

    def log_z(self, cfg=DEFAULT_CONFIG):
        return math.log(self.sigma_x) + _LOG_SQRT_2PI

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        return -0.5 * (x / self.sigma_x) ** 2 - self.log_z()

    def density(self, x):
        return np.exp(self.log_pdf(x))

    def theta_second(self, x):
        return np.full_like(np.asarray(x, dtype=float), 1.0 / self.sigma_x**2)

    def mean(self, cfg=DEFAULT_CONFIG):
        return 0.0


@dataclass(frozen=True)
class StronglyLogConcavePrior:
    """Density exp(-theta)/Z with theta(x) = x^2/(2 beta^2) + c|x|^p/p.

    beta-strongly log-concave by construction: theta''(x) = 1/beta^2 +
    c(p-1)|x|^(p-2) >= 1/beta^2 wherever theta is twice differentiable.
    For 1 <= p < 2 the perturbation is convex but not C^2 at 0;
    curvature checks skip a symmetric 1e-6 neighborhood of the origin.
    """

    beta: float
    c: float
    p: float
    _z_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise DomainError("beta must be finite and positive")
        if not (math.isfinite(self.c) and self.c >= 0.0):
            raise DomainError("c must be finite and nonnegative")
        if not (math.isfinite(self.p) and self.p >= 1.0):
            raise DomainError("p must be finite and >= 1")

    is_full_support = True

    def support(self, cfg=DEFAULT_CONFIG):
        # the Gaussian factor alone already confines the mass to +-w*beta
        w = cfg.truncation_halfwidth * self.beta
        return (-w, w)

    def _theta_unnorm(self, x):
        x = np.asarray(x, dtype=float)
        out = 0.5 * (x / self.beta) ** 2
        if self.c > 0.0:
            out = out + self.c * np.abs(x) ** self.p / self.p
        return out

    def log_z(self, cfg=DEFAULT_CONFIG):
        if cfg not in self._z_cache:
            self._z_cache[cfg] = math.log(normalization_constant(self, cfg))
        return self._z_cache[cfg]

    def log_pdf(self, x):
        return -self._theta_unnorm(x) - self.log_z()

    def density(self, x):
        return np.exp(self.log_pdf(x))

    def theta_second(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, 1.0 / self.beta**2)
        if self.c > 0.0 and self.p != 1.0:
            with np.errstate(divide="ignore"):
                out = out + self.c * (self.p - 1.0) * np.abs(x) ** (self.p - 2.0)
        return out

    def mean(self, cfg=DEFAULT_CONFIG):
        return 0.0  # theta is even


@dataclass(frozen=True)
class GaussianMixturePrior:
    """Finite Gaussian mixture; included to exercise non-log-concave paths."""

    weights: tuple
    means: tuple
    sigmas: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", _as_float_tuple(self.weights, "weights"))
        object.__setattr__(self, "means", _as_float_tuple(self.means, "means"))
        object.__setattr__(self, "sigmas", _as_float_tuple(self.sigmas, "sigmas"))
        k = len(self.weights)
        if len(self.means) != k or len(self.sigmas) != k:
            raise DomainError("weights, means, sigmas must have equal length")
        if any(w <= 0.0 for w in self.weights):
            raise DomainError("weights must be positive")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise DomainError(f"weights must sum to 1, got {sum(self.weights)!r}")
        if any(s <= 0.0 for s in self.sigmas):
            raise DomainError("sigmas must be positive")

    is_full_support = True

    def support(self, cfg=DEFAULT_CONFIG):
        w = cfg.truncation_halfwidth
        lo = min(m - w * s for m, s in zip(self.means, self.sigmas))
        hi = max(m + w * s for m, s in zip(self.means, self.sigmas))
        return (lo, hi)

    def log_z(self, cfg=DEFAULT_CONFIG):
        return 0.0  # components are individually normalized

    def _components(self, x):
        x = np.asarray(x, dtype=float)
        comps = [
            w / s * std_normal_pdf((x - m) / s)
            for w, m, s in zip(self.weights, self.means, self.sigmas)
        ]
        return x, comps

    def density(self, x):
        _, comps = self._components(x)
        return sum(comps)

    def log_pdf(self, x):
        with np.errstate(divide="ignore"):
            return np.log(self.density(x))

    def theta_second(self, x):
        # theta = -log f; theta'' = (f'^2 - f'' f) / f^2, all terms analytic
        x, comps = self._components(x)
        f = sum(comps)
        f1 = sum(-(x - m) / s**2 * c for c, m, s in zip(comps, self.means, self.sigmas))
        f2 = sum(
            ((x - m) ** 2 / s**4 - 1.0 / s**2) * c
            for c, m, s in zip(comps, self.means, self.sigmas)
        )
        return (f1 * f1 - f2 * f) / (f * f)

    def mean(self, cfg=DEFAULT_CONFIG):
        return sum(w * m for w, m in zip(self.weights, self.means))


@dataclass(frozen=True)
class GridPrior:
    """Log-density tabulated on an increasing grid; bounded support.

    The density is exp of the linear interpolant of log_density inside
    [xs[0], xs[-1]] and undefined outside: this variant approximates a
    distribution only on its declared window and is flagged accordingly.
    """

    xs: tuple
    log_density: tuple
    _z_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "xs", _as_float_tuple(self.xs, "xs"))
        object.__setattr__(self, "log_density", _as_float_tuple(self.log_density, "log_density"))
        if len(self.xs) != len(self.log_density):
            raise DomainError("xs and log_density must have equal length")
        if len(self.xs) < 2:
            raise DomainError("xs must contain at least 2 points")
        if not np.all(np.diff(self.xs) > 0.0):
            raise DomainError("xs must be strictly increasing")

    is_full_support = False
    is_approximate = True

    def support(self, cfg=DEFAULT_CONFIG):
        return (self.xs[0], self.xs[-1])

    def _check_window(self, x):
        arr = np.asarray(x, dtype=float)
        if np.any(arr < self.xs[0]) or np.any(arr > self.xs[-1]):
            raise DomainError(
                f"query outside declared support window [{self.xs[0]}, {self.xs[-1]}]"
            )
        return arr

    def log_z(self, cfg=DEFAULT_CONFIG):
        if cfg not in self._z_cache:
            self._z_cache[cfg] = math.log(normalization_constant(self, cfg))
        return self._z_cache[cfg]

    def _log_pdf_unnorm(self, x):
        arr = self._check_window(x)
        return np.interp(arr, self.xs, self.log_density)

    def log_pdf(self, x):
        return self._log_pdf_unnorm(x) - self.log_z()

    def density(self, x):
        return np.exp(self.log_pdf(x))

    def theta_second(self, x):
        # central finite differences on -log f; step balances truncation vs
        # cancellation at the grid's ~1e-8 density accuracy
        arr = self._check_window(x)
        spacing = float(np.mean(np.diff(self.xs)))
        h = max(1e-4, 2.0 * spacing)
        lo, hi = self.xs[0], self.xs[-1]
        xc = np.clip(arr, lo + h, hi - h)
        t = lambda v: -self._log_pdf_unnorm(v)
        return (t(xc + h) - 2.0 * t(xc) + t(xc - h)) / (h * h)

    def mean(self, cfg=DEFAULT_CONFIG):
        z = math.exp(self.log_z(cfg))
        val = integrate(
            lambda x: x * np.exp(self._log_pdf_unnorm(x)), self.xs[0], self.xs[-1], cfg
        )
        return val / z


def density_at(prior, x):
    """Normalized density of the prior at x (scalar in, scalar out)."""
    val = prior.density(x)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(val)
    return val


def normalization_constant(prior, cfg=DEFAULT_CONFIG):
    """Z = integral of the unnormalized density over the support window.

    Closed forms are used where they exist; quadrature variants are
    checked for decay at the truncation boundary, and a fat boundary
    raises ModelError (the declared window cannot hold the mass).
    """
    if isinstance(prior, GaussianPrior):
        return prior.sigma_x * math.sqrt(2.0 * math.pi)
    if isinstance(prior, GaussianMixturePrior):
        return 1.0
    if isinstance(prior, StronglyLogConcavePrior):
        lo, hi = prior.support(cfg)
        unnorm = lambda x: np.exp(-prior._theta_unnorm(x))
        edge = max(float(unnorm(lo)), float(unnorm(hi)))
        peak = float(unnorm(0.0))
        if edge > 1e-10 * peak:
            raise ModelError("density does not decay at the truncation boundary")
        return integrate(unnorm, lo, hi, cfg)
    if isinstance(prior, GridPrior):
        lo, hi = prior.support(cfg)
        return integrate(lambda x: np.exp(prior._log_pdf_unnorm(x)), lo, hi, cfg)
    raise DomainError(f"unsupported prior type {type(prior).__name__}")


@dataclass(frozen=True)
class LogConcavityReport:
    holds: bool
    min_theta_second: float
    argmin: float


def check_strong_log_concavity(prior, beta_claim, grid):
    """Grid check of theta'' >= 1/beta_claim^2 (within 1e-6 slack)."""
    if not (math.isfinite(beta_claim) and beta_claim > 0.0):
        raise DomainError("beta_claim must be finite and positive")
    if isinstance(prior, GridPrior) and len(prior.xs) < 3:
        raise DomainError("grid prior needs at least 3 points for curvature checks")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError("grid must be a non-empty 1-d array")
    if isinstance(prior, StronglyLogConcavePrior) and prior.c > 0.0 and prior.p < 2.0:
        grid = grid[np.abs(grid) > 1e-6]  # theta not C^2 at 0 for p < 2
        if grid.size == 0:
            raise DomainError("grid contains no points outside the excluded origin neighborhood")
    theta2 = np.asarray(prior.theta_second(grid), dtype=float)
    k = int(np.argmin(theta2))
    min_val = float(theta2[k])
    return LogConcavityReport(
        holds=bool(min_val >= 1.0 / beta_claim**2 - 1e-6),
        min_theta_second=min_val,
        argmin=float(grid[k]),
    )


# JSON type -> (class, number fields, array-of-number fields)
_PRIOR_TYPES = {
    "gaussian": (GaussianPrior, ("sigma_x",), ()),
    "slc": (StronglyLogConcavePrior, ("beta", "c", "p"), ()),
    "mixture": (GaussianMixturePrior, (), ("weights", "means", "sigmas")),
    "grid": (GridPrior, (), ("xs", "log_density")),
}


def prior_from_json(obj, pointer=""):
    """Build a prior from its JSON object form.

    Schema: {"type": "gaussian"|"slc"|"mixture"|"grid", ...parameters}.
    Raises DomainError with a JSON-pointer path on any violation.
    """
    if not isinstance(obj, dict):
        raise DomainError(f"{pointer or '/'}: prior must be an object")
    kind = obj.get("type")
    if not isinstance(kind, str) or kind not in _PRIOR_TYPES:
        raise DomainError(
            f"{pointer}/type: must be one of {'|'.join(_PRIOR_TYPES)}, got {kind!r}"
        )
    cls, scalars, arrays = _PRIOR_TYPES[kind]
    check_fields(obj, pointer, ("type",) + scalars + arrays)
    params = {f: check_number(obj[f], f"{pointer}/{f}") for f in scalars}
    for f in arrays:
        if not isinstance(obj[f], (list, tuple)):
            raise DomainError(f"{pointer}/{f}: expected an array of numbers")
        params[f] = [check_number(v, f"{pointer}/{f}/{i}") for i, v in enumerate(obj[f])]
    try:
        return cls(**params)
    except DomainError as exc:
        raise DomainError(f"{pointer}: {exc}" if pointer else str(exc)) from exc
