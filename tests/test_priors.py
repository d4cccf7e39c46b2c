"""Prior families: construction domains, densities, curvature, JSON."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausspml import (
    DomainError,
    GaussianMixturePrior,
    GaussianPrior,
    GridPrior,
    ModelError,
    QuadratureConfig,
    StronglyLogConcavePrior,
    check_strong_log_concavity,
    normalization_constant,
    prior_from_json,
)
from gausspml.numerics import integrate
from oracles import normal_pdf


class TestGaussianPrior:
    def test_density_closed_form(self):
        prior = GaussianPrior(1.7)
        xs = np.linspace(-5.0, 5.0, 41)
        expected = normal_pdf(xs / 1.7) / 1.7
        np.testing.assert_allclose(prior.density(xs), expected, rtol=1e-14)

    def test_normalization_closed_form(self):
        assert normalization_constant(GaussianPrior(2.5)) == pytest.approx(
            2.5 * math.sqrt(2 * math.pi), rel=1e-15
        )

    def test_theta_second_constant(self):
        prior = GaussianPrior(0.5)
        np.testing.assert_allclose(prior.theta_second(np.array([-1.0, 0.0, 3.0])), 4.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan"), True, "2", None])
    def test_bad_sigma_rejected(self, bad):
        with pytest.raises(DomainError):
            GaussianPrior(bad)


class TestStronglyLogConcavePrior:
    def test_density_integrates_to_one(self):
        prior = StronglyLogConcavePrior(1.0, 1.0, 4.0)
        lo, hi = prior.support()
        mass = integrate(lambda x: prior.density(x), lo, hi)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_reduces_to_gaussian_when_c_zero(self):
        prior = StronglyLogConcavePrior(1.3, 0.0, 2.0)
        ref = GaussianPrior(1.3)
        xs = np.linspace(-4.0, 4.0, 17)
        np.testing.assert_allclose(prior.density(xs), ref.density(xs), rtol=1e-9)

    def test_theta_second_formula(self):
        prior = StronglyLogConcavePrior(1.0, 2.0, 4.0)
        xs = np.array([-2.0, -0.5, 1.0, 3.0])
        expected = 1.0 + 2.0 * 3.0 * np.abs(xs) ** 2
        np.testing.assert_allclose(prior.theta_second(xs), expected, rtol=1e-14)

    def test_log_concavity_report_holds(self):
        prior = StronglyLogConcavePrior(1.0, 1.0, 4.0)
        report = check_strong_log_concavity(prior, 1.0, np.linspace(-8.0, 8.0, 2001))
        assert report.holds
        assert report.min_theta_second >= 1.0 - 1e-6

    def test_nonsmooth_origin_skipped_for_small_p(self):
        prior = StronglyLogConcavePrior(1.0, 1.0, 1.5)
        report = check_strong_log_concavity(prior, 1.0, np.linspace(-2.0, 2.0, 401))
        assert report.holds  # extra |x|^{p-2} term only adds curvature

    def test_origin_is_never_the_curvature_minimum(self):
        # theta'' is +inf at 0 for 1 < p < 2 and finite elsewhere
        for p in (1.2, 1.5, 1.9):
            prior = StronglyLogConcavePrior(1.0, 1.0, p)
            report = check_strong_log_concavity(prior, 1.0, np.linspace(-2.0, 2.0, 401))
            assert report.argmin in (-2.0, 2.0)
            assert report.min_theta_second == pytest.approx(1.0 + (p - 1.0) * 2.0 ** (p - 2.0))
        only_origin = check_strong_log_concavity(
            StronglyLogConcavePrior(1.0, 1.0, 1.5), 1.0, np.array([0.0]))
        assert only_origin.min_theta_second == math.inf

    def test_normalization_decay_guard(self):
        # the narrowest window a config allows, halfwidth 8, already holds
        # the mass of a pure Gaussian, so no strongly log-concave prior
        # can fail to decay at its window edge
        prior = StronglyLogConcavePrior(1.0, 0.0, 2.0)
        ok = normalization_constant(prior, QuadratureConfig(truncation_halfwidth=8.0))
        assert ok == pytest.approx(math.sqrt(2 * math.pi), rel=1e-10)

    @pytest.mark.parametrize(
        "beta, c, p",
        [
            (0.0, 1.0, 2.0),
            (-1.0, 1.0, 2.0),
            (1.0, -0.5, 2.0),
            (1.0, 1.0, 0.5),
            ("1", 1.0, 4.0),
            (1.0, True, 4.0),
            (1.0, 1.0, [4.0]),
        ],
    )
    def test_bad_parameters_rejected(self, beta, c, p):
        with pytest.raises(DomainError):
            StronglyLogConcavePrior(beta, c, p)


class TestGaussianMixturePrior:
    def test_density_matches_manual_sum(self):
        prior = GaussianMixturePrior((0.3, 0.7), (-1.0, 2.0), (0.5, 1.5))
        xs = np.linspace(-4.0, 6.0, 21)
        expected = 0.3 * normal_pdf((xs + 1.0) / 0.5) / 0.5 + 0.7 * normal_pdf(
            (xs - 2.0) / 1.5
        ) / 1.5
        np.testing.assert_allclose(prior.density(xs), expected, rtol=1e-13)

    def test_normalization_is_one(self):
        prior = GaussianMixturePrior((0.5, 0.5), (-2.0, 2.0), (1.0, 1.0))
        assert normalization_constant(prior) == 1.0

    def test_not_strongly_log_concave(self):
        prior = GaussianMixturePrior((0.5, 0.5), (-2.0, 2.0), (1.0, 1.0))
        report = check_strong_log_concavity(prior, 10.0, np.linspace(-4.0, 4.0, 801))
        assert not report.holds
        assert abs(report.argmin) < 2.0  # the valley between the modes

    @pytest.mark.parametrize(
        "weights, means, sigmas",
        [
            ((0.5, 0.4), (-1.0, 1.0), (1.0, 1.0)),  # weights sum 0.9
            ((0.5, 0.5), (-1.0,), (1.0, 1.0)),  # length mismatch
            ((0.5, 0.5), (-1.0, 1.0), (1.0, 0.0)),  # zero sigma
            ((-0.5, 1.5), (-1.0, 1.0), (1.0, 1.0)),  # negative weight
            ((), (), ()),  # empty
            ("1", (0.0,), (1.0,)),  # a string is not an array
            ((True,), (0.0,), (1.0,)),  # bool entry
            ((1.0,), ("0",), (1.0,)),  # string entry
            (1.0, (0.0,), (1.0,)),  # scalar for an array
        ],
    )
    def test_bad_parameters_rejected(self, weights, means, sigmas):
        with pytest.raises(DomainError):
            GaussianMixturePrior(weights, means, sigmas)


class TestGridPrior:
    def _simple(self):
        xs = np.linspace(-3.0, 3.0, 301)
        return GridPrior(tuple(xs), tuple(-0.5 * xs**2))

    def test_matches_tabulated_gaussian(self):
        prior = self._simple()
        xs = np.linspace(-2.5, 2.5, 17)
        np.testing.assert_allclose(
            prior.density(xs), normal_pdf(xs) / 0.9973002039367398, rtol=1e-4
        )  # renormalized to the [-3,3] window

    def test_not_full_support(self):
        prior = self._simple()
        assert prior.is_full_support is False

    def test_outside_window_rejected(self):
        prior = self._simple()
        with pytest.raises(DomainError):
            prior.density(3.5)
        with pytest.raises(DomainError):
            prior.density(np.array([0.0, -3.01]))

    def test_log_interpolation_is_loglinear(self):
        xs = (0.0, 1.0, 2.0)
        prior = GridPrior(xs, (0.0, -2.0, -4.0))
        # between nodes the log-density is linear
        left = float(prior.log_pdf(0.5)) - float(prior.log_pdf(0.0))
        right = float(prior.log_pdf(1.5)) - float(prior.log_pdf(1.0))
        assert left == pytest.approx(-1.0, abs=1e-12)
        assert right == pytest.approx(-1.0, abs=1e-12)

    def test_log_density_offset_cancels(self):
        # log Z is taken relative to the table's peak, so a huge offset
        # neither underflows Z to 0 nor overflows it
        xs = np.linspace(-3.0, 3.0, 301)
        base = GridPrior(tuple(xs), tuple(-0.5 * xs**2))
        probe = np.linspace(-2.5, 2.5, 11)
        for offset in (-800.0, 800.0):
            shifted = GridPrior(tuple(xs), tuple(-0.5 * xs**2 + offset))
            assert shifted.log_z() == pytest.approx(base.log_z() + offset, rel=1e-15)
            np.testing.assert_allclose(shifted.density(probe), base.density(probe), rtol=1e-12)

    def test_overflowing_z_is_inf_without_warning(self):
        prior = GridPrior((0.0, 1.0, 2.0), (800.0, 800.0, 799.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert normalization_constant(prior) == math.inf

    def test_curvature_needs_three_points(self):
        prior = GridPrior((0.0, 1.0), (0.0, -1.0))
        with pytest.raises(DomainError, match="at least 3 points"):
            prior.theta_second(0.5)
        with pytest.raises(DomainError, match="at least 3 points"):
            check_strong_log_concavity(prior, 1.0, np.array([0.5]))

    @pytest.mark.parametrize(
        "xs, logd, expected",
        [
            # h = 2 mean spacing is capped at half the window: the second
            # difference spans the window about its midpoint, at every x
            ((-3.0, 0.0, 3.0), (-2.0, 0.0, -2.0), [4.0 / 9.0] * 5),
            # (t(4) - 2 t(2) + t(0)) / 2^2 with t = 0, 2.5, 3
            ((0.0, 1.0, 2.0, 4.0), (0.0, -0.5, -2.5, -3.0), [-0.5] * 5),
            # five points: h = 2 mean spacing = half the window, uncapped
            ((-2.0, -1.0, 0.0, 1.0, 2.0), (-2.0, -0.5, 0.0, -0.5, -2.0), [1.0] * 5),
            # seven points: h = 2 and the centre x clips to [-1, 1]
            (tuple(np.linspace(-3.0, 3.0, 7)), tuple(-0.5 * np.linspace(-3.0, 3.0, 7) ** 2),
             [1.0] * 5),
        ],
    )
    def test_curvature_on_small_grids(self, xs, logd, expected):
        prior = GridPrior(xs, logd)
        qs = np.linspace(xs[0], xs[-1], 5)
        np.testing.assert_allclose(prior.theta_second(qs), expected, rtol=1e-14)
        report = check_strong_log_concavity(prior, 1.0, qs)
        assert report.min_theta_second == pytest.approx(min(expected), rel=1e-14)

    @pytest.mark.parametrize(
        "xs, logd",
        [
            ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0)),  # not strictly increasing
            ((0.0, 1.0), (0.0, 0.0, 0.0)),  # length mismatch
            ((0.0,), (0.0,)),  # too short
            ((0.0, 1.0, 2.0), (0.0, float("nan"), 0.0)),  # non-finite
            ("012", (0.0, 0.0, 0.0)),  # a string is not an array
            ((0.0, 1.0, 2.0), (0.0, False, 0.0)),  # bool entry
        ],
    )
    def test_bad_grids_rejected(self, xs, logd):
        with pytest.raises(DomainError):
            GridPrior(xs, logd)


class TestDensityAt:
    def test_scalar_in_scalar_out(self):
        val = GaussianPrior(1.0).density(0.0)
        assert isinstance(val, float)
        assert val == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-14)

    @given(st.floats(min_value=-6.0, max_value=6.0))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_everywhere(self, x):
        assert GaussianPrior(1.0).density(x) >= 0.0
        assert StronglyLogConcavePrior(1.0, 1.0, 4.0).density(x) >= 0.0


_SQRT3 = math.sqrt(3.0)
_MIXTURE = GaussianMixturePrior((0.5, 0.5), (-2.0, 2.0), (1.0, 1.0))
_GRID = GridPrior((-3.0, 0.0, 3.0), (-4.5, 0.0, -4.5))


class TestDeclaredHypotheses:
    """What each family declares, read by condition_report and the suite."""

    @pytest.mark.parametrize(
        "prior, floor, full",
        [
            (GaussianPrior(2.0), 0.25, True),
            (StronglyLogConcavePrior(0.5, 1.0, 4.0), 4.0, True),
            (_MIXTURE, None, True),
            (_GRID, None, False),
        ],
    )
    def test_curvature_floor_and_support(self, prior, floor, full):
        assert prior.curvature_floor() == floor
        assert prior.is_full_support is full

    @pytest.mark.parametrize(
        "sigma_x, sigma_n, ok",
        [
            (1.0, 1.0, True),
            (_SQRT3, 1.0, True),  # the boundary fixture: sigma_x^2 rounds below 3
            (math.sqrt(6.75), 1.5, True),  # sigma_x^2 == 3 sigma_n^2 exactly in floats
            (_SQRT3 * (1.0 + 1e-12), 1.0, False),
            (2.0, 1.0, False),
            (2.0, 1.2, True),
            (1.0, 0.5, False),
        ],
    )
    def test_gaussian_ratio(self, sigma_x, sigma_n, ok):
        assert GaussianPrior(sigma_x).gaussian_ratio_ok(sigma_n) is ok

    @pytest.mark.parametrize(
        "prior", [StronglyLogConcavePrior(1.0, 0.0, 2.0), _MIXTURE, _GRID]
    )
    def test_ratio_only_on_gaussian(self, prior):
        assert prior.gaussian_ratio_ok(1.0) is None

    @pytest.mark.parametrize(
        "prior, z",
        [
            (GaussianPrior(2.0), 2.0 * math.sqrt(2.0 * math.pi)),
            (StronglyLogConcavePrior(1.3, 0.0, 2.0), 1.3 * math.sqrt(2.0 * math.pi)),
            (_MIXTURE, 1.0),
            (_GRID, 2.0 * (1.0 - math.exp(-4.5)) / 1.5),  # two ramps of log-slope 1.5
        ],
    )
    def test_normalization_constant(self, prior, z):
        assert prior.normalization_constant() == pytest.approx(z, rel=1e-10)
        assert normalization_constant(prior) == prior.normalization_constant()
        assert prior.log_z() == pytest.approx(math.log(z), abs=1e-10)

    @pytest.mark.parametrize("module", ["gausspml.envelope", "gausspml.verify"])
    def test_callers_bind_no_prior_class(self, module):
        import importlib

        from gausspml.priors import _Prior

        assert issubclass(GridPrior, _Prior)
        bound = [
            name
            for name, v in vars(importlib.import_module(module)).items()
            if isinstance(v, type) and issubclass(v, _Prior)
        ]
        assert bound == []


class TestPriorFromJson:
    def test_gaussian_roundtrip(self):
        prior = prior_from_json({"type": "gaussian", "sigma_x": 1.5})
        assert isinstance(prior, GaussianPrior)
        assert prior.sigma_x == 1.5

    def test_slc_roundtrip(self):
        prior = prior_from_json({"type": "slc", "beta": 1.0, "c": 2.0, "p": 3.0})
        assert isinstance(prior, StronglyLogConcavePrior)
        assert (prior.beta, prior.c, prior.p) == (1.0, 2.0, 3.0)

    def test_mixture_roundtrip(self):
        prior = prior_from_json(
            {"type": "mixture", "weights": [0.5, 0.5], "means": [-2, 2], "sigmas": [1, 1]}
        )
        assert isinstance(prior, GaussianMixturePrior)

    def test_grid_roundtrip(self):
        prior = prior_from_json(
            {"type": "grid", "xs": [0.0, 1.0, 2.0], "log_density": [0.0, -1.0, -2.0]}
        )
        assert isinstance(prior, GridPrior)

    @pytest.mark.parametrize(
        "obj, fragment",
        [
            ({"type": "spline"}, "/type"),
            ({"type": "gaussian"}, "/sigma_x"),
            ({"type": "gaussian", "sigma_x": 1.0, "mu": 0.0}, "/mu"),
            ({"type": "mixture", "weights": [1.0], "means": [0.0]}, "/sigmas"),
            ([1, 2], "prior must be an object"),
            ({"type": "gaussian", "sigma_x": "abc"}, "/prior/sigma_x"),
            ({"type": "gaussian", "sigma_x": None}, "/prior/sigma_x"),
            ({"type": "gaussian", "sigma_x": "2"}, "/prior/sigma_x"),
            ({"type": "gaussian", "sigma_x": 10**400}, "/prior/sigma_x"),
            ({"type": "slc", "beta": 1.0, "c": [1], "p": 2.0}, "/prior/c"),
            ({"type": "mixture", "weights": ["1"], "means": [0], "sigmas": [1]}, "/prior/weights"),
            ({"type": "grid", "xs": "01", "log_density": [0, 0]}, "/prior/xs"),
        ],
    )
    def test_pointer_in_errors(self, obj, fragment):
        with pytest.raises(DomainError) as err:
            prior_from_json(obj, pointer="/prior")
        assert fragment in str(err.value)

    def test_invalid_parameter_carries_pointer(self):
        with pytest.raises(DomainError) as err:
            prior_from_json({"type": "gaussian", "sigma_x": -1.0}, pointer="/prior")
        assert "/prior" in str(err.value)
