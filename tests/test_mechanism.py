"""Mechanism caches, posterior statistics, and information density."""

import copy
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from gausspml import mechanism
from gausspml import (
    DomainError,
    GaussianMixturePrior,
    GaussianPrior,
    GridPrior,
    Interval,
    Mechanism,
    NumericalError,
    PreconditionError,
    QuadratureConfig,
    StronglyLogConcavePrior,
    check_brascamp_lieb_bound,
)
from oracles import (
    conjugate_posterior_mean,
    conjugate_posterior_variance,
    gaussian_marginal_density,
    normal_pdf,
    trapz_posterior_moments,
)

FIXTURES = ["canonical", "wide_gaussian", "slc", "mixture", "oscillating"]


def _mixture_marginal(weights, means, sigmas, sigma_n, y):
    # noise adds in variance componentwise, so the marginal is again a
    # mixture: an exact closed form independent of the package quadrature
    total = np.zeros_like(np.asarray(y, dtype=float))
    for w, mu, s in zip(weights, means, sigmas):
        sy = math.sqrt(s * s + sigma_n * sigma_n)
        total = total + w * normal_pdf((np.asarray(y) - mu) / sy) / sy
    return total


class TestConstruction:
    def test_sigma_n_domain(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                Mechanism(GaussianPrior(1.0), bad)

    def test_explicit_y_grid_validation(self):
        prior = GaussianPrior(1.0)
        with pytest.raises(DomainError):
            Mechanism(prior, 1.0, y_grid=np.linspace(0.0, 1.0, 8))  # too few
        with pytest.raises(DomainError):
            Mechanism(prior, 1.0, y_grid=np.zeros(32))  # not increasing
        with pytest.raises(DomainError):
            Mechanism(prior, 1.0, y_grid=np.linspace(0, 1, 32).reshape(4, 8))

    def test_unconverged_marginal_raises(self):
        # rapidly oscillating log-density at default resolution
        xs = np.linspace(-6.0, 6.0, 2001)
        prior = GridPrior(tuple(xs), tuple(-0.1 * xs**2 + 2.0 * np.sin(4.0 * xs)))
        with pytest.raises(NumericalError) as err:
            Mechanism(prior, 0.05)
        assert "marginal" in str(err.value)

    def test_high_snr_gaussian(self):
        # sigma_n = 0.01 needs more than the default 2048 panels; the node
        # spacing floor of sigma_n / 4 gives 8000. Y ~ N(0, 1.0001).
        m = Mechanism(GaussianPrior(1.0), 0.01)
        assert m._xs.size == 8001
        ys = np.array([-6.0, -4.5, -2.0, -0.3, 0.0, 0.7, 3.0, 5.5])
        with mpmath.workdps(30):
            sy = mpmath.sqrt(mpmath.mpf("1.0001"))
            wants = [float(mpmath.ncdf(mpmath.mpf(float(y)) / sy)) for y in ys]
        for y, got, want in zip(ys, m.marginal_cdf(ys), wants):
            assert got == pytest.approx(want, rel=1e-12, abs=0)
            assert m.marginal_cdf(float(y)) == pytest.approx(want, rel=1e-12, abs=0)
        np.testing.assert_allclose(m.posterior_variance(ys),
                                   conjugate_posterior_variance(1.0, 0.01), rtol=1e-10)
        np.testing.assert_allclose(m.posterior_mean(ys),
                                   conjugate_posterior_mean(1.0, 0.01, ys), rtol=0, atol=1e-12)

    def test_panel_floor_above_cap_raises_before_evaluating_the_prior(self):
        class WidePrior(GaussianPrior):
            def density(self, x):
                raise AssertionError("prior evaluated before the panel cap was checked")

        # support +-1e4 at sigma_n = 0.1: 800000 panels, past the 2**16 cap
        with pytest.raises(NumericalError, match="800000"):
            Mechanism(WidePrior(1.0e3), 0.1)

    @pytest.mark.parametrize("value", [0.0, math.nan, math.inf])
    def test_node_mass_must_be_finite_and_positive(self, value):
        class Broken(GaussianPrior):
            def density(self, x):
                return np.full(np.shape(x), value)

        with pytest.raises(NumericalError, match="prior mass on the quadrature nodes"):
            Mechanism(Broken(1.0), 1.0)

    def test_component_between_the_nodes_is_not_normalized_away(self):
        # the narrow component sits midway between two nodes of both the
        # rule and the probe's doubled rule, some 24 of its sigmas from each:
        # the nodes see half the prior's mass
        prior = GaussianMixturePrior((0.5, 0.5), (0.0, 0.00244140625), (1.0, 1e-4))
        with pytest.raises(NumericalError,
                           match=r"is 0\.5 at panel_count=2048, expected 1"):
            Mechanism(prior, 1.0)

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_prior_normalized_on_the_nodes(self, fixture, request):
        m = request.getfixturevalue(fixture)
        assert math.fsum(m._wfx) == pytest.approx(1.0, rel=0, abs=1e-15)

    def test_slc_with_a_kink_at_the_default_config(self):
        # theta = x^2/4.5 + 2|x|^2.5/2.5 has a singular third derivative at 0;
        # the default rule resolves it, checked against a rule 16 times finer
        prior = StronglyLogConcavePrior(1.5, 2.0, 2.5)
        m = Mechanism(prior, 1.0)
        ref = Mechanism(prior, 1.0, QuadratureConfig(panel_count=32768),
                        y_grid=np.linspace(-30.0, 30.0, 64))
        ys = np.linspace(-10.0, 10.0, 41)
        np.testing.assert_allclose(m.marginal_density(ys), ref.marginal_density(ys),
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(m.marginal_cdf(ys), ref.marginal_cdf(ys), rtol=0, atol=1e-9)
        ys = np.linspace(-5.0, 5.0, 21)
        np.testing.assert_allclose(m.posterior_mean(ys), ref.posterior_mean(ys),
                                   rtol=0, atol=1e-8)
        np.testing.assert_allclose(m.posterior_variance(ys), ref.posterior_variance(ys),
                                   rtol=0, atol=1e-8)

    def test_slc_with_a_sharper_kink_names_the_panel_count(self):
        prior = StronglyLogConcavePrior(1.0, 1.0, 1.5)
        with pytest.raises(NumericalError, match="unconverged at panel_count=2048"):
            Mechanism(prior, 1.0)
        m = Mechanism(prior, 1.0, QuadratureConfig(panel_count=8192))
        assert check_brascamp_lieb_bound(m).passed

    def test_prior_outside_the_four_families_rejected(self):
        class Wrapped:  # duck-typed: support and density, no declared hypotheses
            inner = GaussianPrior(1.0)

            def support(self, cfg):
                return self.inner.support(cfg)

            def density(self, x):
                return self.inner.density(x)

        for bad in (None, "gauss", Wrapped()):
            with pytest.raises(DomainError, match="GaussianMixturePrior"):
                Mechanism(bad, 1.0)

    def test_windows(self, canonical):
        x_lo, x_hi = canonical.x_window
        lo, hi = canonical.window
        assert (x_lo, x_hi) == (-10.0, 10.0)
        assert lo == pytest.approx(x_lo - 10.0)  # pad = halfwidth * sigma_n
        assert hi == pytest.approx(x_hi + 10.0)
        assert canonical.sigma_y == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_mixture_sigma_y(self, mixture):
        # prior variance 1 + 4, noise 1
        assert mixture.sigma_y == pytest.approx(math.sqrt(6.0), rel=1e-9)


class TestMarginal:
    def test_gaussian_density_closed_form(self, canonical):
        ys = np.linspace(-7.0, 7.0, 57)
        expected = np.array([gaussian_marginal_density(1.0, 1.0, y) for y in ys])
        np.testing.assert_allclose(canonical.marginal_density(ys), expected, rtol=1e-12)

    def test_mixture_density_closed_form(self, mixture):
        ys = np.linspace(-8.0, 8.0, 65)
        expected = _mixture_marginal((0.5, 0.5), (-2.0, 2.0), (1.0, 1.0), 1.0, ys)
        np.testing.assert_allclose(mixture.marginal_density(ys), expected, rtol=1e-9)

    def test_gaussian_cdf_closed_form(self, canonical):
        sy = math.sqrt(2.0)
        for y in (-4.0, -1.0, 0.0, 0.5, 3.0):
            assert canonical.marginal_cdf(y) == pytest.approx(
                ndtr(y / sy), rel=1e-10, abs=1e-12
            )

    def test_quantile_inverts_cdf(self, canonical, slc, mixture):
        ps = (1e-4, 0.01, 0.3, 0.5, 0.77, 0.99, 1 - 1e-4)
        for m in (canonical, slc, mixture):
            for p in ps:
                y = m.marginal_quantile(p)
                assert m.marginal_cdf(y) == pytest.approx(p, abs=1e-11)

    def test_quantile_matches_closed_form(self, canonical):
        # Y ~ N(0, 2) on the canonical mechanism
        for p in np.geomspace(1e-12, 0.5, 23):
            q = math.sqrt(2.0) * float(ndtri(p))
            assert canonical.marginal_quantile(float(p)) == pytest.approx(
                q, rel=0, abs=1e-11 * max(1.0, abs(q))
            )

    def test_quantile_domain(self, canonical):
        for p in (0.0, 1.0, -0.2, 2.0, 1e-300):
            with pytest.raises(DomainError):
                canonical.marginal_quantile(p)

    @pytest.mark.parametrize("method", ["marginal_density", "posterior_mean",
                                        "posterior_variance"])
    def test_underflow_names_the_plain_y(self, canonical, method):
        with pytest.raises(DomainError, match=r"underflows at y=1000\.0; outside"):
            getattr(canonical, method)(1e3)
        with pytest.raises(DomainError, match=r"underflows at y=-1000\.0; outside"):
            getattr(canonical, method)(np.array([0.0, -1e3]))

    def test_density_positive_on_window(self, slc):
        lo, hi = slc.window
        ys = np.linspace(lo + 1e-6, hi - 1e-6, 101)
        assert np.all(slc.marginal_density(ys) > 0.0)


class TestQuantileSolver:
    """Kernel passes per quantile: each Newton iterate is one _kernel_reduce."""

    PS = (1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.3, 0.5, 0.7, 0.95, 1 - 1e-3, 1 - 1e-4)

    @pytest.fixture
    def passes(self, monkeypatch):
        """passes(m, p): kernel passes made by one m.marginal_quantile(p)."""
        calls = []
        reduce = mechanism._kernel_reduce

        def counted(*args):
            calls.append(args[0])
            return reduce(*args)

        monkeypatch.setattr(mechanism, "_kernel_reduce", counted)

        def count(m, p):
            calls.clear()
            m.marginal_quantile(p)
            return len(calls)

        return count

    @pytest.mark.parametrize("fixture", ["canonical", "slc", "mixture", "oscillating"])
    def test_at_most_six_passes(self, fixture, request, passes):
        m = request.getfixturevalue(fixture)
        solved = 0
        for p in self.PS:
            if m._Fy_grid[0] < p <= m._Fy_grid[-1]:
                assert passes(m, p) <= 6, p
                solved += 1
            else:  # outside the working window
                with pytest.raises(DomainError):
                    passes(m, p)
        assert solved >= 5

    @pytest.mark.parametrize("fixture", ["canonical", "slc", "mixture"])
    def test_upper_tail_terminates(self, fixture, request, passes):
        # 1 - p cancels in F_Y - p, so roundoff exceeds tol and the solve
        # falls back to bisection; it must still close its bracket
        m = request.getfixturevalue(fixture)
        for p in (1 - 1e-6, 1 - 1e-9):
            assert passes(m, p) <= 40, p

    def test_corrupted_table_bracket_raises(self, canonical):
        grid = canonical.y_grid
        for shift in (-8, 8):  # the table bracket misses the root on either side
            m = copy.copy(canonical)
            object.__setattr__(m, "y_grid", grid + shift * (grid[1] - grid[0]))
            with pytest.raises(PreconditionError):
                m.marginal_quantile(0.3)


def _dense_terms(ys, xs, w, sn):
    """Each kernel term summed exactly over every node, and the sum of magnitudes."""
    z = (np.asarray(ys, dtype=float).reshape(-1)[:, None] - xs[None, :]) / sn
    k = np.exp(-0.5 * z * z) / (sn * math.sqrt(2.0 * math.pi))
    parts = {
        "f": k * w,
        "df": k * z * w * (-1.0 / sn),
        "d2f": k * (z * z - 1.0) * w / (sn * sn),
        "m1": k * w * xs,
        "m2": k * w * xs * xs,
        "cdf": ndtr(z) * w,
    }
    return {t: (np.array([math.fsum(row) for row in p]), np.abs(p).sum(axis=1))
            for t, p in parts.items()}


class TestKernelBand:
    """_kernel_reduce skips only kernel entries that are exact constants."""

    TERMS = ("f", "df", "d2f", "m1", "m2", "cdf")

    def test_thresholds_give_exact_constants(self):
        assert np.all(ndtr(np.linspace(mechanism._Z_ONE, 40.0, 400001)) == 1.0)
        assert np.all(ndtr(np.linspace(-60.0, mechanism._Z_ZERO, 400001)) == 0.0)
        z = np.linspace(mechanism._Z_EXP, 60.0, 400001)  # exp(-z^2/2) is even in z
        assert np.all(np.exp(-0.5 * z * z) == 0.0)
        # ndtr underflows to a normal number first, not straight to zero
        assert 0.0 < ndtr(-37.5) < 1e-307

    def _assert_matches_dense(self, ys, nodes, xs, w, sn):
        got = mechanism._kernel_reduce(ys, *nodes, sn, self.TERMS)
        ref = _dense_terms(ys, xs, w, sn)
        for term, g in zip(self.TERMS, got):
            assert np.shape(g) == np.shape(ys), term
            total, scale = ref[term]
            err = np.abs(np.ravel(g) - total)
            # 8 ulps of the magnitude sum; subnormal sums carry no relative precision
            tol = 8.0 * np.finfo(float).eps * scale + np.finfo(float).tiny
            assert np.all(err <= tol), (term, err.max())

    @pytest.mark.parametrize("fixture", ["canonical", "mixture", "oscillating"])
    def test_matches_dense_sum(self, fixture, request):
        m = request.getfixturevalue(fixture)
        xs, w, sn = m._xs, m._wfx, m.sigma_n
        lo, hi = xs[0] - 50.0 * sn, xs[-1] + 50.0 * sn  # past both node ends
        grid = np.linspace(lo, hi, 41)
        shuffled = np.random.default_rng(3).permutation(grid)
        for ys in (grid, shuffled, shuffled[:7].reshape(7, 1), 0.37, float(xs[5]), lo, hi):
            self._assert_matches_dense(ys, m._nodes, xs, w, sn)

    def test_single_node(self):
        xs, w = np.array([0.25]), np.array([1.0])
        nodes = mechanism._tiled(xs, w)
        for ys in (np.linspace(-40.0, 40.0, 321), -0.3, 0.25, 39.0):
            self._assert_matches_dense(ys, nodes, xs, w, 0.5)

    def test_cdf_same_in_any_block(self, oscillating):
        # a y's F_Y does not depend on which other ys share its block, or
        # on whether any do
        ys = np.random.default_rng(5).uniform(-5.5, 5.5, 300)
        (whole,) = oscillating._reduce(ys, ("cdf",))
        for i in range(0, 300, 37):
            (pair,) = oscillating._reduce(ys[[i, -1 - i]], ("cdf",))
            assert pair[0] == whole[i] and pair[1] == whole[-1 - i]
            (one,) = oscillating._reduce(ys[[i]], ("cdf",))
            (lone,) = oscillating._reduce(float(ys[i]), ("cdf",))
            assert one[0] == lone == whole[i]

    @staticmethod
    def _construction_share(build):
        """Kernel entries evaluated by one construction, as shares of the full
        rows x nodes count: exp over the table and the resolution probe, ndtr
        over the table."""
        before = dict(mechanism._EVALS)
        m = build()
        n, rows = m._xs.size, m.y_grid.size
        exp_full = (rows + 9) * n + 9 * (2 * n - 1)
        return ((mechanism._EVALS["exp"] - before["exp"]) / exp_full,
                (mechanism._EVALS["ndtr"] - before["ndtr"]) / (rows * n))

    def test_band_share_oscillating(self):
        xs = np.linspace(-6.0, 6.0, 2001)
        prior = GridPrior(tuple(xs), tuple(-0.1 * xs**2 + 2.0 * np.sin(4.0 * xs)))
        cfg = QuadratureConfig(truncation_halfwidth=10.0, panel_count=16384, abs_tol=1e-8)
        exp_share, ndtr_share = self._construction_share(
            lambda: Mechanism(prior, 0.05, cfg, y_grid=np.linspace(-5.0, 5.0, 4096)))
        assert exp_share <= 0.40
        assert ndtr_share <= 0.25

    def test_band_share_canonical(self):
        _, ndtr_share = self._construction_share(lambda: Mechanism(GaussianPrior(1.0), 1.0))
        assert ndtr_share <= 0.75

    def test_band_share_high_snr(self):
        exp_share, _ = self._construction_share(lambda: Mechanism(GaussianPrior(1.0), 0.01))
        assert exp_share <= 0.10


class TestMonotoneCdf:
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_nondecreasing_on_fine_grid(self, fixture, request):
        m = request.getfixturevalue(fixture)
        F = m.marginal_cdf(np.linspace(*m.window, 20000))
        assert np.all(np.diff(F) >= 0.0)

    @pytest.mark.parametrize("fixture", ["canonical", "mixture", "oscillating"])
    def test_constant_past_the_nodes(self, fixture, request):
        m = request.getfixturevalue(fixture)
        start = m.x_window[1] + mechanism._Z_ONE * m.sigma_n
        F = m.marginal_cdf(np.linspace(start, start + 30.0 * m.sigma_n, 1000))
        assert np.all(F == F[0])
        assert F[0] == min(m._nodes[2][-1], 1.0)


class TestPosterior:
    def test_conjugate_mean(self, canonical):
        ys = np.linspace(-7.0, 7.0, 29)
        np.testing.assert_allclose(
            canonical.posterior_mean(ys),
            conjugate_posterior_mean(1.0, 1.0, ys),
            rtol=0,
            atol=1e-10,
        )

    def test_conjugate_variance(self, canonical):
        ys = np.linspace(-7.0, 7.0, 29)
        np.testing.assert_allclose(
            canonical.posterior_variance(ys),
            conjugate_posterior_variance(1.0, 1.0),
            rtol=1e-8,
        )

    @pytest.mark.parametrize("fixture", ["slc", "mixture"])
    def test_moments_match_quadrature_oracle(self, fixture, request):
        m = request.getfixturevalue(fixture)
        prior = m.prior
        x_lo, x_hi = m.x_window
        for y in (-2.5, -0.7, 0.0, 1.1, 3.0):
            _, mean_o, var_o = trapz_posterior_moments(
                lambda x: prior.density(x), 1.0, y, x_lo, x_hi
            )
            assert float(m.posterior_mean(y)) == pytest.approx(mean_o, abs=1e-6)
            assert float(m.posterior_variance(y)) == pytest.approx(var_o, abs=1e-6)

    def test_variance_positive(self, slc, mixture):
        ys = np.linspace(-5.0, 5.0, 41)
        assert np.all(slc.posterior_variance(ys) > 0.0)
        assert np.all(mixture.posterior_variance(ys) > 0.0)

    def test_route_gap_raises(self, canonical, monkeypatch):
        # a 0.1% error in the second posterior moment opens a gap of about
        # 7.5e-4 at y = 1, far past the 1e-5 agreement the routes must keep
        terms = type(canonical)._density_terms

        def perturbed(self, ys, names):
            out = list(terms(self, ys, names))
            if "m2" in names:
                out[names.index("m2")] = out[names.index("m2")] * 1.001
            return out

        monkeypatch.setattr(type(canonical), "_density_terms", perturbed)
        with pytest.raises(NumericalError, match="routes disagree") as exc:
            canonical.posterior_variance(1.0)
        assert exc.value.operation == "posterior_variance"

    def test_mixture_variance_exceeds_components_near_valley(self, mixture):
        # at y=0 the posterior splits mass between both modes
        assert float(mixture.posterior_variance(0.0)) > 1.0


class TestInfoDensity:
    def test_definition_consistency(self, canonical):
        xs = np.array([-1.0, 0.0, 2.0])
        ys = np.array([0.5, -0.3, 1.7])
        got = canonical.info_density(xs, ys)
        kernel = normal_pdf(ys - xs)  # sigma_n = 1
        expected = np.log(kernel) - np.log(canonical.marginal_density(ys))
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_broadcasting(self, canonical):
        xs = np.linspace(-1.0, 1.0, 5)[:, None]
        ys = np.linspace(-2.0, 2.0, 7)[None, :]
        out = canonical.info_density(xs, ys)
        assert out.shape == (5, 7)

    def test_nonfinite_inputs_rejected(self, canonical):
        with pytest.raises(DomainError, match="x and y must be finite"):
            canonical.info_density(0.0, math.inf)
        with pytest.raises(DomainError, match="y must be finite"):
            canonical.marginal_cdf(math.nan)

    def test_peak_value_nonnegative(self, canonical, mixture):
        # at x = y the kernel attains its mode, which dominates any
        # marginal with more spread than the noise
        ys = np.linspace(-4.0, 4.0, 33)
        for m in (canonical, mixture):
            assert np.all(m.info_density(ys, ys) >= 0.0)


class TestUnimodalTailThreshold:
    def test_gaussian_tiny(self, canonical):
        M = canonical.unimodal_tail_threshold()
        assert M is not None
        assert abs(M) < 0.05  # strictly unimodal marginal

    def test_mixture_between_modes(self, mixture):
        M = mixture.unimodal_tail_threshold()
        assert M is not None
        assert 1.5 < M < 2.5

    def test_oscillating_not_certifiable(self, oscillating):
        assert oscillating.unimodal_tail_threshold() is None

    @staticmethod
    def _threshold(y, dfy):
        # the method reads only the cached grid and slope
        grid = SimpleNamespace(y_grid=np.asarray(y, float), _dfy_grid=np.asarray(dfy, float))
        return Mechanism.unimodal_tail_threshold(grid)

    def test_hand_built_grids(self):
        y = np.linspace(-5.0, 5.0, 11)  # spacing 1, so the edge band is 2
        assert self._threshold(y, -y) == 1.0  # no violation: the first grid point past 0
        d = -y
        d[7] = 0.5  # right violation at y = 2, clear of the edge
        assert self._threshold(y, d) == 2.0
        d[2] = -0.5  # left violation at y = -3 dominates
        assert self._threshold(y, d) == 3.0
        d[2], d[7] = -y[2], 0.0  # a zero slope counts as a violation
        assert self._threshold(y, d) == 2.0
        d = -y
        d[5 + 4] = 0.5  # right violation at y = 4, within the edge band
        assert self._threshold(y, d) is None
        d = -y
        d[1] = -0.5  # left violation at y = -4, within the edge band
        assert self._threshold(y, d) is None
        d = -y
        d[2] = -0.5  # y = -3 sits exactly two spacings from the edge: kept
        assert self._threshold(y, d) == 3.0

    def test_hand_built_grids_without_two_tails(self):
        y = np.linspace(0.0, 5.0, 11)  # no negative point
        assert self._threshold(y, -y) is None
        assert self._threshold(-y[::-1], y[::-1]) is None  # no positive point

    def test_asymmetric_grid_uses_the_first_spacing(self):
        # the edge band is two spacings of the grid's first cell at both ends
        y = np.array([-6.0, -5.0, -4.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0])
        d = -y
        d[6] = 0.5  # y = 3: 7 - 2 = 5 > 3, clear of the band
        assert self._threshold(y, d) == 3.0
        d[7] = 0.5  # y = 5: not beyond 7 - 2, still certified
        assert self._threshold(y, d) == 5.0
        d = -y
        d[1] = -0.5  # y = -5: past -6 + 2, inside the band
        assert self._threshold(y, d) is None


class TestOneCdf:
    """F_Y at a point is one double, whatever the shape of the call."""

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_lone_y_equals_the_array_call(self, fixture, request):
        m = request.getfixturevalue(fixture)
        ys = np.linspace(*m.window, 20001)[::13]
        F = m.marginal_cdf(ys)
        differ = [y for y, f in zip(ys.tolist(), F.tolist()) if m.marginal_cdf(y) != f]
        assert differ == []

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_table_is_the_marginal_cdf_at_every_node(self, fixture, request):
        m = request.getfixturevalue(fixture)
        assert np.array_equal(m._Fy_grid, m.marginal_cdf(m.y_grid))
        nodes = range(0, m.y_grid.size, 7)
        assert [m.marginal_cdf(float(m.y_grid[k])) for k in nodes] == m._Fy_grid[nodes].tolist()

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_level_window_is_the_marginal_cdf_at_the_window_ends(self, fixture, request):
        m = request.getfixturevalue(fixture)
        assert m.level_window == tuple(map(m.marginal_cdf, m.window))


class TestLevelWindow:
    @pytest.mark.parametrize("fixture", ["canonical", "wide_gaussian", "mixture", "oscillating"])
    def test_quantile_accepts_exactly_the_window(self, fixture, request):
        m = request.getfixturevalue(fixture)
        lo, hi = m.level_window
        assert (lo, hi) == (m._Fy_grid[0], m._Fy_grid[-1])
        y_lo, y_hi = m.window
        inside = [np.nextafter(lo, 1.0), np.nextafter(hi, 0.0), hi]
        for p in (q for q in inside if 0.0 < q < 1.0):
            assert y_lo <= m.marginal_quantile(p) <= y_hi, p
        for p in (lo, np.nextafter(hi, 1.0)):
            if 0.0 < p < 1.0:
                with pytest.raises(DomainError, match="outside the working window"):
                    m.marginal_quantile(p)

    @pytest.mark.parametrize("fixture", ["canonical", "wide_gaussian", "oscillating"])
    def test_quantile_at_table_levels(self, fixture, request):
        # within a few ulps of a table level the bracket end's sign is
        # decided by the last bit of F_Y, which the table and the solver share
        m = request.getfixturevalue(fixture)
        F, grid = m._Fy_grid, m.y_grid
        for k in range(1, F.size, 97):
            for p in (F[k], np.nextafter(F[k], 0.0), np.nextafter(F[k], 1.0)):
                if F[0] < p < 1.0:
                    j = int(np.searchsorted(F, p))  # the table's bracket
                    assert grid[j - 1] <= m.marginal_quantile(float(p)) <= grid[j], (k, p)


def test_only_mechanism_holds_the_nodes_and_scipy():
    # every kernel sum, special function and cached-table read goes
    # through mechanism.py
    import re

    pkg = os.path.dirname(mechanism.__file__)
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py") or name == "mechanism.py":
            continue
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            text = fh.read()
        assert not re.search(r"\._(xs|wfx)\b", text), name
        assert not re.search(r"\._(fy_grid|dfy_grid|Fy_grid)\b", text), name
        assert not re.search(r"^\s*(from|import)\s+scipy\b", text, re.M), name


def test_import_leaves_scipy_interpolate_unloaded():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    # scipy.optimize alone would add ~0.3 s to every cold `pml` process
    code = ("import sys, gausspml; "
            "print([m in sys.modules for m in ('scipy.interpolate', 'scipy.optimize')])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False]"
