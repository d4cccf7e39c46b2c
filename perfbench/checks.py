"""Output checks made apart from the program.

Gaussian and Gaussian-mixture mechanisms are checked against closed
forms: the marginal is a mixture of N(m_i, s_i^2 + sigma_n^2) components
and each component's posterior is conjugate. The strongly log-concave
and grid priors are checked against a dense trapezoid rule over the
secret written here, on a finer grid than the package's Simpson rule.
Envelope and search results are also checked against properties the
method must have: the search value lies in [log(1/delta),
log(max_cells/delta)], and it is recomputed from its witness cells.

Every check appends a message to `Checker.errors` instead of raising,
so one run reports all the disagreements it saw.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

# Relative tolerances on masses and nats on leakage values. The package
# agrees with the references far more closely on the fixture mechanisms;
# a 1e-5 relative error in a tail mass is caught.
LEAK_TOL = 1e-6
MASS_RTOL = 1e-6
POSTERIOR_TOL = 1e-6
CDF_TOL = 1e-9


def _phi_upper(z):
    """P(N(0,1) > z) without cancellation in either tail."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


class MixtureOracle:
    """Closed forms for a Gaussian or Gaussian-mixture prior plus noise."""

    def __init__(self, weights, means, sigmas, sigma_n):
        self.comps = [
            (w, m, s, math.sqrt(s * s + sigma_n * sigma_n))
            for w, m, s in zip(weights, means, sigmas)
        ]
        self.sigma_n = sigma_n

    def mass(self, lo, hi):
        total = 0.0
        for w, m, _, sy in self.comps:
            a, b = (lo - m) / sy, (hi - m) / sy
            if a + b > 0.0:  # both ends right of the median: upper tails
                total += w * (_phi_upper(a) - _phi_upper(b))
            else:
                total += w * (_phi_upper(-b) - _phi_upper(-a))
        return total

    def cdf(self, y):
        return self.mass(-math.inf, y)

    def posterior(self, y):
        """(mean, variance) of X given Y=y."""
        logs, mus, vs = [], [], []
        for w, m, s, sy in self.comps:
            logs.append(math.log(w) - math.log(sy) - 0.5 * ((y - m) / sy) ** 2)
            mus.append(m + (s * s) / (sy * sy) * (y - m))
            vs.append((s * s) * self.sigma_n ** 2 / (sy * sy))
        top = max(logs)
        pis = [math.exp(v - top) for v in logs]
        z = sum(pis)
        pis = [p / z for p in pis]
        mean = sum(p * mu for p, mu in zip(pis, mus))
        second = sum(p * (v + mu * mu) for p, v, mu in zip(pis, vs, mus))
        return mean, second - mean * mean


class QuadratureOracle:
    """Dense trapezoid rule over the secret for any tabulated prior."""

    def __init__(self, xs, density, sigma_n):
        self.xs = np.asarray(xs, dtype=float)
        w = np.full(self.xs.size, self.xs[1] - self.xs[0])
        w[0] = w[-1] = 0.5 * w[0]
        wf = w * np.asarray(density, dtype=float)
        self.wf = wf / wf.sum()
        self.sigma_n = sigma_n

    def mass(self, lo, hi):
        xs, sn = self.xs, self.sigma_n
        if math.isinf(lo) and math.isinf(hi):
            return 1.0
        if math.isinf(lo):
            return float(special.ndtr((hi - xs) / sn) @ self.wf)
        if math.isinf(hi):
            return float(special.ndtr((xs - lo) / sn) @ self.wf)
        za, zb = (lo - xs) / sn, (hi - xs) / sn
        d = np.where(za + zb > 0.0, special.ndtr(-za) - special.ndtr(-zb),
                     special.ndtr(zb) - special.ndtr(za))
        return float(d @ self.wf)

    def cdf(self, y):
        return self.mass(-math.inf, y)

    def posterior(self, y):
        k = np.exp(-0.5 * ((y - self.xs) / self.sigma_n) ** 2) * self.wf
        z = k.sum()
        mean = float(k @ self.xs / z)
        return mean, float(k @ (self.xs - mean) ** 2 / z)


def slc_oracle(beta, c, p, sigma_n):
    xs = np.linspace(-12.0 * beta, 12.0 * beta, 96001)
    return QuadratureOracle(xs, np.exp(-0.5 * (xs / beta) ** 2 - c * np.abs(xs) ** p / p), sigma_n)


def grid_oracle(grid_xs, log_density, sigma_n):
    xs = np.linspace(grid_xs[0], grid_xs[-1], 96001)
    return QuadratureOracle(xs, np.exp(np.interp(xs, grid_xs, log_density)), sigma_n)


def cell_leakage(oracle, lo, hi):
    """Event leakage of one interval: log sup_x P(cell|x) - log P(cell)."""
    mass = oracle.mass(lo, hi)
    if math.isinf(lo) or math.isinf(hi):
        return -math.log(mass)
    u = (hi - lo) / (2.0 * oracle.sigma_n)
    return math.log(math.erf(u / math.sqrt(2.0))) - math.log(mass)


class Checker:
    def __init__(self):
        self.errors = []
        self.count = 0

    def expect(self, cond, message):
        self.count += 1
        if not cond:
            self.errors.append(message)

    def _tiles(self, cells, where):
        self.expect(cells[0][0] == -math.inf and cells[-1][1] == math.inf,
                    f"{where}: witness does not cover the line")
        for (_, hi, _), (lo, _, _) in zip(cells, cells[1:]):
            self.expect(lo == hi, f"{where}: witness cells are not contiguous at {hi!r}")

    def closed_form(self, oracle, delta, value, cells, where):
        """A ClosedForm point is log(2/delta) with two tails of mass delta/2."""
        self.expect(abs(value - math.log(2.0 / delta)) <= 1e-12 * max(1.0, value),
                    f"{where}: ClosedForm value {value!r} != log(2/delta)")
        self._tiles(cells, where)
        self.expect(len(cells) == 3, f"{where}: ClosedForm witness has {len(cells)} cells")
        for lo, hi, label in (cells[0], cells[-1]):
            mass = oracle.mass(lo, hi)
            self.expect(abs(mass - delta / 2.0) <= MASS_RTOL * delta / 2.0,
                        f"{where}: tail {label} carries mass {mass!r}, not delta/2")

    def search(self, oracle, delta, max_cells, value, cells, where, two_tail_exact):
        """Bounds of the search, and its value recomputed from the witness."""
        lo_b, hi_b = math.log(1.0 / delta), math.log(max_cells / delta)
        self.expect(lo_b - LEAK_TOL <= value <= hi_b + LEAK_TOL,
                    f"{where}: value {value!r} outside [log(1/d), log(max_cells/d)]")
        self._tiles(cells, where)
        bad = [(lo, hi) for lo, hi, label in cells if label != "core"]
        self.expect(1 <= len(bad) <= max_cells,
                    f"{where}: {len(bad)} bad cells for max_cells={max_cells}")
        if not bad:
            return
        bad_mass = sum(oracle.mass(lo, hi) for lo, hi in bad)
        self.expect(abs(bad_mass - delta) <= MASS_RTOL * delta,
                    f"{where}: bad cells carry mass {bad_mass!r}, not delta={delta!r}")
        recomputed = min(cell_leakage(oracle, lo, hi) for lo, hi in bad)
        self.expect(abs(recomputed - value) <= LEAK_TOL * max(1.0, value),
                    f"{where}: value {value!r} but witness gives {recomputed!r}")
        if two_tail_exact:
            target = math.log((2.0 if max_cells >= 2 else 1.0) / delta)
            self.expect(abs(value - target) <= LEAK_TOL * max(1.0, target),
                        f"{where}: value {value!r} but the two-tail envelope is {target!r}")

    def interval(self, oracle, lo, hi, mass, leak, where):
        ref_mass = oracle.mass(lo, hi)
        self.expect(abs(mass - ref_mass) <= MASS_RTOL * ref_mass,
                    f"{where}: mass {mass!r} vs {ref_mass!r}")
        ref = cell_leakage(oracle, lo, hi)
        self.expect(abs(leak - ref) <= LEAK_TOL * max(1.0, ref),
                    f"{where}: leakage {leak!r} vs {ref!r}")

    def posterior(self, oracle, y, mean, var, where):
        ref_mean, ref_var = oracle.posterior(y)
        self.expect(abs(mean - ref_mean) <= POSTERIOR_TOL * (1.0 + abs(ref_mean)),
                    f"{where}: posterior mean at y={y!r} is {mean!r}, not {ref_mean!r}")
        self.expect(abs(var - ref_var) <= POSTERIOR_TOL * (1.0 + ref_var),
                    f"{where}: posterior variance at y={y!r} is {var!r}, not {ref_var!r}")

    def cdf(self, oracle, y, value, where):
        ref = oracle.cdf(y)
        self.expect(abs(value - ref) <= CDF_TOL,
                    f"{where}: F_Y({y!r}) = {value!r}, not {ref!r}")
