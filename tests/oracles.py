"""Independent numerical oracles for the test suite.

Everything here is deliberately written against plain math/numpy, never
against the package under test, so that agreement between the two is
evidence rather than tautology.  The oracles are slow and simple on
purpose: a cancellation-free power series for erf and dense-grid
trapezoid quadrature for posterior moments.
"""

import math

import numpy as np

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def erf_series(x, n_terms=200):
    """erf via the confluent power series with all-positive terms.

    erf(x) = (2/sqrt(pi)) * exp(-x^2) * sum_n x^(2n+1) * 2^n / (1*3*...*(2n+1))

    No cancellation occurs for any real x; accuracy is limited only by the
    number of terms.  200 terms cover |x| <= 6 to full double precision.
    """
    if x < 0.0:
        return -erf_series(-x, n_terms)
    if x == 0.0:
        return 0.0
    # term_0 = x; term_{n} = term_{n-1} * 2 x^2 / (2n+1)
    term = x
    total = term
    for n in range(1, n_terms):
        term *= 2.0 * x * x / (2.0 * n + 1.0)
        total += term
        if term < 1e-18 * total:
            break
    return (2.0 / math.sqrt(math.pi)) * math.exp(-x * x) * total


def normal_cdf_oracle(x):
    """Standard normal CDF built on erf_series only."""
    if x > 9.0:
        return 1.0
    if x < -9.0:
        return 0.5 * math.erfc(-x / SQRT2)  # beyond series range; tail only
    return 0.5 * (1.0 + erf_series(x / SQRT2))


def normal_pdf(x):
    return INV_SQRT_2PI * np.exp(-0.5 * np.asarray(x, dtype=float) ** 2)


def trapezoid(y, x):
    """Trapezoid rule for samples y on the nodes x, written out in plain numpy."""
    return float(np.sum(np.diff(x) * (y[1:] + y[:-1])) / 2.0)


def trapz_posterior_moments(prior_density, sigma_n, y, x_lo, x_hi, n=40001):
    """Posterior moments of X given Y=y by dense trapezoid quadrature.

    Returns (marginal, mean, variance) computed from Bayes' rule with a
    40001-point grid; independent of the package quadrature and caches.
    """
    xs = np.linspace(x_lo, x_hi, n)
    fx = np.asarray(prior_density(xs), dtype=float)
    kern = normal_pdf((y - xs) / sigma_n) / sigma_n
    w = fx * kern
    m0 = trapezoid(w, xs)
    m1 = trapezoid(xs * w, xs)
    m2 = trapezoid(xs * xs * w, xs)
    mean = m1 / m0
    var = m2 / m0 - mean * mean
    return m0, mean, var


def trapz_interval_mass(prior_density, sigma_n, lo, hi, x_lo, x_hi, n=40001):
    """P(Y in (lo,hi)) by trapezoid quadrature of the kernel-CDF difference."""
    xs = np.linspace(x_lo, x_hi, n)
    fx = np.asarray(prior_density(xs), dtype=float)
    phi_hi = np.array([normal_cdf_oracle(v) for v in (hi - xs) / sigma_n])
    phi_lo = np.array([normal_cdf_oracle(v) for v in (lo - xs) / sigma_n])
    return trapezoid(fx * (phi_hi - phi_lo), xs)


def conjugate_posterior_mean(sigma_x, sigma_n, y):
    return y * sigma_x**2 / (sigma_x**2 + sigma_n**2)


def conjugate_posterior_variance(sigma_x, sigma_n):
    return sigma_x**2 * sigma_n**2 / (sigma_x**2 + sigma_n**2)


def gaussian_marginal_density(sigma_x, sigma_n, y):
    s2 = sigma_x**2 + sigma_n**2
    return INV_SQRT_2PI / math.sqrt(s2) * math.exp(-0.5 * y * y / s2)
