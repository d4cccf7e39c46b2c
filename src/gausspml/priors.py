"""Parametric secret distributions f_X = exp(-theta).

Four families: Gaussian, a strongly log-concave composite
theta(x) = x^2/(2 beta^2) + c|x|^p/p, Gaussian mixtures (deliberately
allowed to violate log-concavity), and tabulated grid densities with a
declared, bounded support window. Each family declares which hypotheses
of the envelope theorems it meets; callers ask the prior, not its type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, check_fields, check_number
from .numerics import DEFAULT_CONFIG, integrate, std_normal_pdf

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _as_float_tuple(values, name):
    """A non-empty array of finite reals as floats; string or bool entries fail."""
    if not np.iterable(values):
        raise DomainError(f"{name}: expected an array of numbers")
    out = tuple(check_number(v, f"{name}/{i}") for i, v in enumerate(values))
    if not out:
        raise DomainError(f"{name}: must be non-empty")
    return out


@dataclass(frozen=True)
class _Prior:
    """What the families share, and the hypotheses each one declares.

    is_full_support: the density is positive on the whole line, as the
    general envelope theorem needs. curvature_floor(): a declared lower
    bound on theta'' (beta-strong log-concavity gives 1/beta^2), or None.
    gaussian_ratio_ok(sigma_n): whether the Gaussian theorem's
    sigma_x^2 <= 3 sigma_n^2 holds, or None off the Gaussian family.
    Each family defines _log_z(cfg), log Z over its support window; log_z
    caches it and normalization_constant is its exp. Constructor errors
    read "field: problem", relative to the prior.
    """

    _z_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    is_full_support = True

    def _coerce(self, check, *names):
        for name in names:
            object.__setattr__(self, name, check(getattr(self, name), name))

    def log_z(self, cfg=DEFAULT_CONFIG):
        if cfg not in self._z_cache:
            self._z_cache[cfg] = self._log_z(cfg)
        return self._z_cache[cfg]

    def normalization_constant(self, cfg=DEFAULT_CONFIG):
        with np.errstate(over="ignore"):  # inf past the double range
            return float(np.exp(self.log_z(cfg)))

    def density(self, x):
        return np.exp(self.log_pdf(x))

    def curvature_floor(self):
        return None

    def gaussian_ratio_ok(self, sigma_n):
        return None


@dataclass(frozen=True)
class GaussianPrior(_Prior):
    """Zero-mean Gaussian secret with standard deviation sigma_x."""

    sigma_x: float

    def __post_init__(self):
        self._coerce(check_number, "sigma_x")
        if self.sigma_x <= 0.0:
            raise DomainError("sigma_x: must be positive")

    def support(self, cfg=DEFAULT_CONFIG):
        w = cfg.truncation_halfwidth * self.sigma_x
        return (-w, w)

    def _log_z(self, cfg):
        return math.log(self.sigma_x) + _LOG_SQRT_2PI

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        return -0.5 * (x / self.sigma_x) ** 2 - self.log_z()

    def theta_second(self, x):
        return np.full_like(np.asarray(x, dtype=float), 1.0 / self.sigma_x**2)

    def curvature_floor(self):
        return 1.0 / self.sigma_x**2

    def gaussian_ratio_ok(self, sigma_n):
        return self.sigma_x**2 <= 3.0 * sigma_n**2


@dataclass(frozen=True)
class StronglyLogConcavePrior(_Prior):
    """Density exp(-theta)/Z with theta(x) = x^2/(2 beta^2) + c|x|^p/p.

    beta-strongly log-concave by construction: theta''(x) = 1/beta^2 +
    c(p-1)|x|^(p-2) >= 1/beta^2 wherever theta is twice differentiable.
    For 1 <= p < 2 the perturbation is convex but not C^2 at 0, where
    theta_second returns +inf (p > 1) or the floor (p = 1), so the origin
    never lowers a curvature minimum.
    """

    beta: float
    c: float
    p: float

    def __post_init__(self):
        self._coerce(check_number, "beta", "c", "p")
        if self.beta <= 0.0:
            raise DomainError("beta: must be positive")
        if self.c < 0.0:
            raise DomainError("c: must be nonnegative")
        if self.p < 1.0:
            raise DomainError("p: must be >= 1")

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

    def _log_z(self, cfg):
        # at the window edge x = +-h beta, h = truncation_halfwidth >= 8,
        # theta >= h^2/2 >= 32: the density has decayed below e^-32 of its peak
        lo, hi = self.support(cfg)
        return math.log(integrate(lambda x: np.exp(-self._theta_unnorm(x)), lo, hi, cfg))

    def log_pdf(self, x):
        return -self._theta_unnorm(x) - self.log_z()

    def theta_second(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, 1.0 / self.beta**2)
        if self.c > 0.0 and self.p != 1.0:
            with np.errstate(divide="ignore"):
                out = out + self.c * (self.p - 1.0) * np.abs(x) ** (self.p - 2.0)
        return out

    def curvature_floor(self):
        return 1.0 / self.beta**2


@dataclass(frozen=True)
class GaussianMixturePrior(_Prior):
    """Finite Gaussian mixture; included to exercise non-log-concave paths."""

    weights: tuple
    means: tuple
    sigmas: tuple

    def __post_init__(self):
        self._coerce(_as_float_tuple, "weights", "means", "sigmas")
        k = len(self.weights)
        if len(self.means) != k or len(self.sigmas) != k:
            raise DomainError("weights: means and sigmas must have the same length")
        if any(w <= 0.0 for w in self.weights):
            raise DomainError("weights: must be positive")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise DomainError(f"weights: must sum to 1, got {sum(self.weights)!r}")
        if any(s <= 0.0 for s in self.sigmas):
            raise DomainError("sigmas: must be positive")

    def support(self, cfg=DEFAULT_CONFIG):
        w = cfg.truncation_halfwidth
        lo = min(m - w * s for m, s in zip(self.means, self.sigmas))
        hi = max(m + w * s for m, s in zip(self.means, self.sigmas))
        return (lo, hi)

    def _log_z(self, cfg):
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


@dataclass(frozen=True)
class GridPrior(_Prior):
    """Log-density tabulated on an increasing grid; bounded support.

    The density is exp of the linear interpolant of log_density inside
    [xs[0], xs[-1]] and undefined outside: this variant approximates a
    distribution only on its declared window, so it is not full-support.
    """

    xs: tuple
    log_density: tuple

    def __post_init__(self):
        self._coerce(_as_float_tuple, "xs", "log_density")
        if len(self.xs) != len(self.log_density):
            raise DomainError("log_density: must have the length of xs")
        if len(self.xs) < 2:
            raise DomainError("xs: must contain at least 2 points")
        if not np.all(np.diff(self.xs) > 0.0):
            raise DomainError("xs: must be strictly increasing")

    is_full_support = False

    def support(self, cfg=DEFAULT_CONFIG):
        return (self.xs[0], self.xs[-1])

    def _check_window(self, x):
        arr = np.asarray(x, dtype=float)
        if np.any(arr < self.xs[0]) or np.any(arr > self.xs[-1]):
            raise DomainError(
                f"query outside declared support window [{self.xs[0]}, {self.xs[-1]}]"
            )
        return arr

    def _log_z(self, cfg):
        # relative to the table's peak, so no offset of log_density under- or overflows
        peak = max(self.log_density)
        lo, hi = self.support(cfg)
        z = integrate(lambda x: np.exp(self._log_pdf_unnorm(x) - peak), lo, hi, cfg)
        return peak + math.log(z)

    def _log_pdf_unnorm(self, x):
        arr = self._check_window(x)
        return np.interp(arr, self.xs, self.log_density)

    def log_pdf(self, x):
        return self._log_pdf_unnorm(x) - self.log_z()

    def theta_second(self, x):
        if len(self.xs) < 3:
            raise DomainError("grid prior needs at least 3 points for curvature checks")
        # central finite differences on -log f; step balances truncation vs
        # cancellation at the grid's ~1e-8 density accuracy
        arr = self._check_window(x)
        spacing = float(np.mean(np.diff(self.xs)))
        lo, hi = self.xs[0], self.xs[-1]
        h = min(max(1e-4, 2.0 * spacing), 0.5 * (hi - lo))  # x -+ h stays in the window
        xc = np.clip(arr, lo + h, hi - h)
        t = lambda v: -self._log_pdf_unnorm(v)
        return (t(xc + h) - 2.0 * t(xc) + t(xc - h)) / (h * h)


def normalization_constant(prior, cfg=DEFAULT_CONFIG):
    """Z, the prior's unnormalized mass over its support window."""
    return prior.normalization_constant(cfg)


@dataclass(frozen=True)
class LogConcavityReport:
    holds: bool
    min_theta_second: float
    argmin: float


def check_strong_log_concavity(prior, beta_claim, grid):
    """Grid check of theta'' >= 1/beta_claim^2 (within 1e-6 slack)."""
    beta_claim = check_number(beta_claim, "beta_claim", positive=True)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError("grid must be a non-empty 1-d array")
    theta2 = np.asarray(prior.theta_second(grid), dtype=float)
    k = int(np.argmin(theta2))
    min_val = float(theta2[k])
    return LogConcavityReport(
        holds=bool(min_val >= 1.0 / beta_claim**2 - 1e-6),
        min_theta_second=min_val,
        argmin=float(grid[k]),
    )


# JSON type -> (class, parameter fields)
_PRIOR_TYPES = {
    "gaussian": (GaussianPrior, ("sigma_x",)),
    "slc": (StronglyLogConcavePrior, ("beta", "c", "p")),
    "mixture": (GaussianMixturePrior, ("weights", "means", "sigmas")),
    "grid": (GridPrior, ("xs", "log_density")),
}


def check_prior(prior):
    """prior, after checking it is one of the four families."""
    if not isinstance(prior, _Prior):
        names = ", ".join(cls.__name__ for cls, _ in _PRIOR_TYPES.values())
        raise DomainError(f"prior must be one of {names}; got {type(prior).__name__}")
    return prior


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
    cls, fields = _PRIOR_TYPES[kind]
    check_fields(obj, pointer, ("type",) + fields)
    try:
        return cls(**{f: obj[f] for f in fields})
    except DomainError as exc:
        raise DomainError(f"{pointer}/{exc}") from exc
