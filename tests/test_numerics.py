"""Scalar primitives against the independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausspml import DomainError, NumericalError, QuadratureConfig
from gausspml.mechanism import _bounded_numerator
from gausspml.numerics import (
    find_root_increasing,
    golden_section_max,
    integrate,
    refine_max,
    std_normal_pdf,
)
from oracles import erf_series, normal_cdf_oracle


class TestStdNormal:
    def test_pdf_normalization_and_peak(self):
        val = integrate(std_normal_pdf, -10.0, 10.0)
        assert val == pytest.approx(1.0, abs=1e-12)
        assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-15)

    def test_erf_scaling_against_cdf(self):
        # the package's only erf: 2 Phi(L/(2 sigma_n)) - 1 = erf(L/(2 sqrt2 sigma_n)),
        # checked through the series oracle
        for x in (0.1, 0.5, 1.0, 2.0, 3.0):
            assert _bounded_numerator(2.0 * math.sqrt(2.0) * x, 1.0) == pytest.approx(
                erf_series(x), rel=1e-14
            )


class TestIntegrate:
    def test_polynomial_exact(self):
        # Simpson integrates cubics exactly
        val = integrate(lambda x: x**3 - 2 * x + 1, -1.0, 3.0, QuadratureConfig())
        exact = (3.0**4 / 4 - 3.0**2 + 3.0) - (1.0 / 4 - 1.0 - 1.0)
        assert val == pytest.approx(exact, rel=1e-13)

    def test_gaussian_mass(self):
        val = integrate(std_normal_pdf, -8.0, 8.0)
        assert val == pytest.approx(1.0 - 2 * (1 - normal_cdf_oracle(8.0)), rel=1e-12)

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(DomainError):
            integrate(std_normal_pdf, 1.0, -1.0)

    @pytest.mark.parametrize("a, b", [(-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_endpoints_must_be_finite(self, a, b):
        with pytest.raises(DomainError, match="must be finite"):
            integrate(std_normal_pdf, a, b)

    def test_unresolvable_integrand_raises(self):
        cfg = QuadratureConfig(panel_count=256, abs_tol=1e-14)
        with pytest.raises(NumericalError) as err:
            integrate(lambda x: np.sin(1000.0 * x) ** 2, 0.0, 50.0, cfg)
        assert err.value.last_estimate is not None


class TestRootAndSearch:
    @staticmethod
    def _counted(g):
        calls = []

        def wrapped(t):
            calls.append(t)
            if len(calls) > 200:  # fail fast instead of looping on
                raise RuntimeError("root finder does not converge")
            return g(t)

        return wrapped, calls

    def test_find_root_increasing_exact(self):
        g, calls = self._counted(lambda x: (x**3 - 2.0, 3.0 * x * x))
        root = find_root_increasing(g, 0.0, 2.0, tol=1e-14, x0=1.0)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-14)
        assert len(calls) <= 8  # bisection alone needs 48

    def test_find_root_zero_slope_bisects(self):
        # a zero slope gives no Newton step: every iterate is a midpoint
        g, calls = self._counted(lambda x: (x - 0.7, 0.0))
        root = find_root_increasing(g, 0.0, 2.0, tol=1e-12, x0=1.5)
        assert root == pytest.approx(0.7, abs=1e-12)
        assert calls[:3] == [1.5, 0.75, 0.375]

    def test_find_root_terminates_under_noise(self):
        # deterministic noise of 1e-9 swamps tol = 1e-12: the sign of g is
        # erratic near the root, yet the bracket still closes
        def g(x):
            noise = math.sin(x * 12.9898e6) * 43758.5453 % 1.0 - 0.5
            return x - 0.3 + 1e-9 * noise, 1.0

        g, calls = self._counted(g)
        root = find_root_increasing(g, 0.0, 1.0, tol=1e-12, x0=0.5)
        assert abs(root - 0.3) <= 1e-9
        assert len(calls) <= 60

    @pytest.mark.parametrize("slope", [0.52, 1e6])
    def test_find_root_misleading_slope_terminates(self, slope):
        # an understated slope overshoots back and forth, an overstated one
        # crawls; the step-halving rule and the bisection after a failed
        # probe keep both within a few times the 40 bisection steps
        g, calls = self._counted(lambda x: (x - 0.3, slope))
        root = find_root_increasing(g, 0.0, 1.0, tol=1e-12, x0=0.9)
        assert root == pytest.approx(0.3, abs=1e-12)
        assert len(calls) <= 100

    def test_find_root_needs_bracket(self):
        from gausspml import PreconditionError

        with pytest.raises(PreconditionError):
            find_root_increasing(lambda x: (x + 10.0, 1.0), 0.0, 1.0, tol=1e-12, x0=0.5)

    def test_golden_section_max_quadratic(self):
        # argmax resolution near a quadratic peak is sqrt(eps)-limited
        arg, val = golden_section_max(lambda x: -((x - 0.7) ** 2) + 3.0, -1.0, 2.0)
        assert arg == pytest.approx(0.7, abs=1e-6)
        assert val == pytest.approx(3.0, abs=1e-12)

    @given(st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=50, deadline=None)
    def test_golden_section_finds_planted_peak(self, c):
        arg, _ = golden_section_max(lambda x: -abs(x - c) ** 1.5, -3.0, 3.0)
        assert arg == pytest.approx(c, abs=1e-7)

    @given(
        st.lists(
            st.tuples(
                st.floats(-5.0, 5.0),  # lo
                st.floats(0.0, 10.0),  # width
                st.floats(0.0, 1.0),  # peak position, as a share of the width
                st.booleans(),  # kinked or smooth peak
            ),
            min_size=1,
            max_size=50,
        ),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_lockstep_matches_one_bracket_calls(self, brackets, scalar_tol):
        lo = np.array([b[0] for b in brackets])
        hi = lo + np.array([b[1] for b in brackets])
        peak = lo + np.array([b[1] * b[2] for b in brackets])
        kinked = np.array([b[3] for b in brackets])
        tol = 1e-9 if scalar_tol else 1e-10 * np.maximum(1.0, np.maximum(abs(lo), abs(hi)))

        def shape(x, c, k):  # + - * and abs only, so floats and arrays agree
            return np.where(k, -abs(x - c), -(x - c) * (x - c))

        solo, solo_points = [], []
        for i in range(len(brackets)):
            points = []
            f = lambda x, i=i: points.append(x) or shape(x, peak[i], kinked[i])
            t = tol if scalar_tol else tol[i]
            solo.append(golden_section_max(f, lo[i], hi[i], t))
            solo_points.append(points)

        calls = []

        def f(x, rows):
            calls.append((x.tolist(), rows.tolist()))
            return shape(x, peak[rows], kinked[rows])

        assert golden_section_max(f, lo, hi, tol) == solo
        # one call per step, with the next point of every unfinished bracket
        assert len(calls) == max(len(p) for p in solo_points)
        for step, (xs, rows) in enumerate(calls):
            assert rows == [i for i, p in enumerate(solo_points) if len(p) > step]
            assert xs == [solo_points[i][step] for i in rows]

    def test_refine_max_batch_matches_one_scan_at_a_time(self):
        f = lambda x: -abs(x - 0.5)
        grids = [np.linspace(-1.0, 2.0, 7), np.linspace(0.0, 1.0, 11), np.linspace(0.0, 1.0, 5)]
        values = [3.0 - (grids[0] - 0.7) ** 2, -grids[1], f(grids[2])]
        values[2][2] = 1.0  # overstates f at node 2: that node and its value win
        fs = [lambda x: 3.0 - (x - 0.7) * (x - 0.7), lambda x: -x, f]
        solo = [refine_max(fi, g, v, 1e-12) for fi, g, v in zip(fs, grids, values)]
        batch_f = lambda x, rows: np.array([fs[r](v) for v, r in zip(x, rows)])
        assert refine_max(batch_f, grids, values, 1e-12) == solo
        assert solo[2] == (0.5, 1.0)

    def test_refine_max_polishes_between_grid_points(self):
        f = lambda x: 3.0 - (x - 0.7) ** 2
        grid = np.linspace(-1.0, 2.0, 7)  # 0.7 is no node; 0.5 is the best
        arg, val = refine_max(f, grid, f(grid), 1e-12)
        assert arg == pytest.approx(0.7, abs=1e-6)
        assert val == f(arg) and val > f(0.5)

    def test_refine_max_at_the_grid_end(self):
        grid = np.linspace(0.0, 1.0, 11)
        arg, val = refine_max(lambda x: -x, grid, -grid, 1e-12)
        assert (arg, val) == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_refine_max_keeps_a_scan_value_above_the_polish(self):
        # the scan's values overstate f at node 2: that node and its value win
        f = lambda x: -abs(x - 0.5)
        grid = np.linspace(0.0, 1.0, 5)
        values = f(grid)
        values[2] = 1.0
        assert refine_max(f, grid, values, 1e-12) == (0.5, 1.0)


class TestQuadratureConfig:
    def test_defaults(self):
        cfg = QuadratureConfig()
        assert cfg.truncation_halfwidth == 10.0
        assert cfg.panel_count == 2048

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"truncation_halfwidth": 7.9},
            {"truncation_halfwidth": float("inf")},
            {"panel_count": 128},
            {"abs_tol": 0.0},
            {"abs_tol": -1e-9},
            {"panel_count": 3000.0},
            {"panel_count": True},
            {"abs_tol": "1e-10"},
            {"panel_count": 2**16 + 2},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(DomainError):
            QuadratureConfig(**kwargs)

    def test_panel_count_cap_is_accepted(self):
        assert QuadratureConfig(panel_count=2**16).panel_count == 2**16
