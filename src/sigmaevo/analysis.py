"""Power-law fits of norm time series against (1+t) and theory comparison."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DataSeriesError, ParameterError


@dataclass(frozen=True)
class DecayFit:
    exponent: float
    log_amplitude: float
    window: Tuple[float, float]
    residual_rms: float
    point_count: int


@dataclass(frozen=True)
class ComparisonVerdict:
    passed: bool
    margin: float          # tolerance - |fit - predicted|; negative when failing


def fit_decay(series: Sequence, window: Tuple[float, float]) -> DecayFit:
    """Least-squares slope of log(value) against log(1+t) inside the window.

    The regressor is log(1+t), not log(t), matching the (1+t)-power
    convention of the predicted rates and removing small-t bias.
    """
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DataSeriesError("series must be a sequence of (t, value) pairs")
    t_min, t_max = window
    if not t_min < t_max:
        raise DataSeriesError("window must satisfy t_min < t_max")
    t, v = arr[:, 0], arr[:, 1]
    sel = (t >= t_min) & (t <= t_max)
    if int(np.sum(sel)) < 3:
        raise DataSeriesError(f"need at least 3 points in window [{t_min}, {t_max}], "
                              f"got {int(np.sum(sel))}")
    t, v = t[sel], v[sel]
    if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
        raise DataSeriesError("series values inside the window must be finite and positive")
    x = np.log1p(t)
    y = np.log(v)
    slope, intercept = fit_line(x, y)
    resid = y - (slope * x + intercept)
    return DecayFit(exponent=float(slope), log_amplitude=float(intercept),
                    window=(float(t_min), float(t_max)),
                    residual_rms=float(np.sqrt(np.mean(resid ** 2))),
                    point_count=int(len(t)))


def fit_line(x: np.ndarray, y: np.ndarray) -> Tuple[float, float]:
    """Least-squares (slope, intercept) of y ~ slope * x + intercept.

    The closed form about the means (two passes, so no large sums cancel),
    reduced by numpy's fixed-order kernels: no LAPACK call, and bits that do
    not depend on the BLAS thread count.
    """
    if not np.isfinite(x).all():
        raise DataSeriesError("a line fit needs finite abscissae")
    x_mean, y_mean = np.mean(x), np.mean(y)
    dx = x - x_mean
    sxx = np.einsum("i,i->", dx, dx)
    if not sxx > 0:
        raise DataSeriesError("a line fit needs at least 2 distinct abscissae")
    slope = np.einsum("i,i->", dx, y - y_mean) / sxx
    return float(slope), float(y_mean - slope * x_mean)


def compare_to_theory(fit: DecayFit, predicted: float, tolerance: float) -> ComparisonVerdict:
    """Pass iff |fitted - predicted| <= tolerance; margin is the slack left."""
    if not 0 < tolerance < np.inf:   # written so that NaN fails it
        raise ParameterError("tolerance must be positive and finite")
    diff = abs(fit.exponent - float(predicted))
    return ComparisonVerdict(passed=bool(diff <= tolerance), margin=float(tolerance - diff))


def default_fit_window(t_end: float, wrap_time: Optional[float] = None) -> Tuple[float, float]:
    """Tail window: drop t < 10 and anything past the torus wrap time."""
    t_min = 10.0
    t_max = t_end if wrap_time is None else min(t_end, wrap_time)
    if t_max <= t_min:
        raise DataSeriesError(f"no usable fit window: t_min={t_min}, t_max={t_max}")
    return (t_min, t_max)
