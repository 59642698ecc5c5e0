import re

import numpy as np
import pytest

from sigmaevo.analysis import (compare_to_theory, default_fit_window, fit_decay, fit_line)
from sigmaevo.errors import DataSeriesError, ParameterError


def power_series(exponent, amplitude=5.0, t_max=100.0, count=50, perturb=None):
    t = np.linspace(0.5, t_max, count)
    v = amplitude * (1 + t) ** exponent
    if perturb is not None:
        v = v * (1 + perturb / (1 + t))
    return np.column_stack([t, v])


class TestFitDecay:
    @pytest.mark.parametrize("exponent", [-5.0, -2.0, -0.25, 0.0, 0.75, 5.0])
    def test_exact_power_laws(self, exponent):
        fit = fit_decay(power_series(exponent), (1, 100))
        assert abs(fit.exponent - exponent) < 1e-6
        assert fit.residual_rms < 1e-10

    def test_constant_series(self):
        t = np.linspace(1, 50, 30)
        fit = fit_decay(np.column_stack([t, np.full(30, 3.0)]), (1, 50))
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)

    def test_amplitude_invariance(self):
        a = fit_decay(power_series(-0.7, amplitude=1.0), (1, 100))
        b = fit_decay(power_series(-0.7, amplitude=123.0), (1, 100))
        assert a.exponent == pytest.approx(b.exponent, abs=1e-12)
        assert b.log_amplitude > a.log_amplitude

    def test_window_restricts_points(self):
        fit = fit_decay(power_series(-1.0), (10, 50))
        assert fit.window == (10.0, 50.0)
        assert fit.point_count < 50

    def test_shrinking_window_approaches_tail_exponent(self):
        # C (1+t)^-a (1 + o(1)): later windows move the fit monotonically
        # toward -a
        series = power_series(-0.5, perturb=2.0, t_max=2000.0, count=400)
        fits = [fit_decay(series, (lo, 2000)).exponent for lo in (1, 20, 200)]
        errors = [abs(f + 0.5) for f in fits]
        assert errors[0] > errors[1] > errors[2]

    def test_nonpositive_values_rejected(self):
        t = np.linspace(1, 10, 10)
        v = np.ones(10)
        v[4] = 0.0
        with pytest.raises(DataSeriesError):
            fit_decay(np.column_stack([t, v]), (1, 10))

    def test_too_few_points(self):
        with pytest.raises(DataSeriesError):
            fit_decay(power_series(-1.0, count=50), (99.0, 100.0))

    @pytest.mark.parametrize("series", [np.ones(10), np.ones((10, 3)), np.ones((2, 5, 2)),
                                        [(1.0, 2.0, 3.0)]])
    def test_series_not_pairs_rejected(self, series):
        with pytest.raises(DataSeriesError, match=re.escape("sequence of (t, value) pairs")):
            fit_decay(series, (1, 10))

    @pytest.mark.parametrize("window", [(10.0, 10.0), (50.0, 10.0), (float("nan"), 10.0)])
    def test_empty_window_rejected(self, window):
        with pytest.raises(DataSeriesError, match="t_min < t_max"):
            fit_decay(power_series(-1.0), window)


def polyfit_line(x, y):
    """The oracle: numpy's least-squares polynomial of degree 1 (LAPACK)."""
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


class TestFitLine:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_polyfit(self, seed):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(-3.0, 40.0, 7 + 50 * seed))
        slope, intercept = rng.uniform(-2.0, 2.0), rng.uniform(-5.0, 5.0)
        y = slope * x + intercept + 0.1 * rng.standard_normal(len(x))
        np.testing.assert_allclose(fit_line(x, y), polyfit_line(x, y), rtol=1e-12)

    @pytest.mark.parametrize("exponent", [-2.0, -0.25, 0.75])
    def test_decay_fit_matches_polyfit(self, exponent):
        series = power_series(exponent, perturb=2.0, t_max=300.0, count=301)
        fit = fit_decay(series, (10.0, 300.0))
        t, v = series[(series[:, 0] >= 10.0)].T
        np.testing.assert_allclose((fit.exponent, fit.log_amplitude),
                                   polyfit_line(np.log1p(t), np.log(v)), rtol=1e-12)

    def test_integer_abscissae(self):
        ks = np.arange(11, 21)
        y = np.log(0.7) * ks + 0.3 + 1e-3 * np.cos(ks)
        np.testing.assert_allclose(fit_line(ks, y), polyfit_line(ks, y), rtol=1e-12)

    @pytest.mark.parametrize("x", [[2.0, 2.0, 2.0], [1.0, np.inf, 3.0], [1.0, np.nan, 3.0]])
    def test_no_line_through_one_abscissa_or_a_non_finite_one(self, x):
        with pytest.raises(DataSeriesError, match="abscissae"):
            fit_line(np.array(x), np.array([1.0, 2.0, 3.0]))


class TestCompare:
    def test_pass_with_margin(self):
        fit = fit_decay(power_series(-0.26), (1, 100))
        verdict = compare_to_theory(fit, -0.25, 0.05)
        assert verdict.passed
        assert verdict.margin == pytest.approx(0.04, abs=1e-6)

    def test_fail(self):
        fit = fit_decay(power_series(-0.10), (1, 100))
        verdict = compare_to_theory(fit, -0.25, 0.05)
        assert not verdict.passed
        assert verdict.margin < 0

    def test_growth_case(self):
        fit = fit_decay(power_series(0.74), (1, 100))
        verdict = compare_to_theory(fit, 0.75, 0.05)
        assert verdict.passed

    def test_tolerance_positive(self):
        fit = fit_decay(power_series(-1.0), (1, 100))
        with pytest.raises(ParameterError):
            compare_to_theory(fit, -1.0, 0.0)


class TestWindow:
    def test_wrap_time_caps(self):
        assert default_fit_window(100.0, wrap_time=60.0) == (10.0, 60.0)

    def test_no_window_left(self):
        # the message names what ended the window
        with pytest.raises(DataSeriesError, match=r"t_max=5\.0 \(the torus wrap time\)$"):
            default_fit_window(100.0, wrap_time=5.0)
        with pytest.raises(DataSeriesError, match=r"t_max=8\.0 \(t_end\)$"):
            default_fit_window(8.0, wrap_time=9.0)
        with pytest.raises(DataSeriesError, match=r"t_max=8\.0 \(t_end\)$"):
            default_fit_window(8.0)
