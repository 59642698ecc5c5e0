"""Lebesgue / fractional Sobolev norms on grid fields and empirical
functional-inequality checks (Gagliardo-Nirenberg, fractional powers,
L-infinity embedding) on the Hilbert scale."""
from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .spectral import GridSpec, spectral_l2, sup_abs


def lebesgue_norm(u: np.ndarray, p: float, grid: GridSpec) -> float:
    """(sum |u|^p * cellvol)^(1/p); p = inf gives max |u|."""
    grid.check_field(u)
    if p == np.inf:
        return sup_abs(u)
    if p < 1:
        raise ParameterError("p must be >= 1")
    return float((np.sum(np.abs(u) ** p) * grid.cell_volume) ** (1.0 / p))


def sobolev_norm(u: np.ndarray, s: float, grid: GridSpec) -> float:
    """Homogeneous Sobolev norm || |D|^s u ||_L2 (Plancherel at s = 0)."""
    if s < 0:
        raise ParameterError("s must be nonnegative")
    grid.check_field(u)
    return spectral_l2(grid.fft(u), grid, weight_power=s)


def data_norm(u0: np.ndarray, u1: np.ndarray, m: float, r: float, grid: GridSpec) -> float:
    """Norm of the data pair in (L^m cap H^r) x (L^m cap L^2).

    Intersection norms are sums of the component norms, and H^r is realized
    as L^2 cap Hdot^r.
    """
    if not 1 <= m < 2:
        raise ParameterError("m must lie in [1, 2)")
    if r < 0:
        raise ParameterError("r must be nonnegative")
    return (lebesgue_norm(u0, m, grid) + lebesgue_norm(u0, 2, grid)
            + sobolev_norm(u0, r, grid)
            + lebesgue_norm(u1, m, grid) + lebesgue_norm(u1, 2, grid))


def gn_theta(p: float, p0: float, p1: float, s: float, sigma_gn: float, n: int) -> float:
    """Interpolation weight theta of the Gagliardo-Nirenberg inequality."""
    num = 1.0 / p0 - 1.0 / p + s / n
    den = 1.0 / p0 - 1.0 / p1 + sigma_gn / n
    return num / den


def check_gagliardo_nirenberg(u: np.ndarray, p: float, p0: float, p1: float,
                              s: float, sigma_gn: float, grid: GridSpec) -> float:
    """Ratio ||u||_{Hdot^s} / (||u||_{L^p0}^(1-theta) ||u||_{Hdot^sigma}^theta).

    Only the Hilbert-scale case p = p1 = 2 is supported (general L^p Sobolev
    norms are out of scope); p0 may vary in (1, inf).  A bounded, refinement-
    stable ratio over families of fields is the empirical inequality check.
    """
    for name, val in (("p", p), ("p0", p0), ("p1", p1)):
        if not 1.0 < val < np.inf:
            raise ParameterError(f"{name} must lie in (1, inf), got {val}")
    if p != 2.0 or p1 != 2.0:
        raise ParameterError("only the Hilbert case p = p1 = 2 is supported")
    if not 0.0 <= s < sigma_gn:
        raise ParameterError(f"s must lie in [0, sigma_gn), got s={s}, sigma_gn={sigma_gn}")
    theta = gn_theta(p, p0, p1, s, sigma_gn, grid.n)
    if not (s / sigma_gn - 1e-12 <= theta <= 1.0 + 1e-12):
        raise ParameterError(f"theta = {theta} outside [s/sigma_gn, 1] = "
                             f"[{s / sigma_gn}, 1]")
    num = sobolev_norm(u, s, grid)
    den = lebesgue_norm(u, p0, grid) ** (1.0 - theta) * sobolev_norm(u, sigma_gn, grid) ** theta
    if den == 0.0:
        return 0.0
    return num / den


def check_embedding(u: np.ndarray, s1: float, s2: float, grid: GridSpec) -> float:
    """Ratio ||u||_Linf / (||u||_{Hdot^s1} + ||u||_{Hdot^s2}), 0 < s1 < n/2 < s2."""
    if not 0.0 < s1 < grid.n / 2.0 < s2:
        raise ParameterError(f"need 0 < s1 < n/2 < s2, got s1={s1}, n/2={grid.n / 2}, s2={s2}")
    den = sobolev_norm(u, s1, grid) + sobolev_norm(u, s2, grid)
    if den == 0.0:
        return 0.0
    return lebesgue_norm(u, np.inf, grid) / den


def check_fractional_powers(u: np.ndarray, p: float, s: float, grid: GridSpec) -> float:
    """Ratio ||F(u)||_{Hdot^s} / (||u||_{Hdot^s} ||u||_Linf^(p-1)), F(u) = |u|^p.

    Requires s in (n/2, p); the pointwise power is spectrally truncated like
    the solver's nonlinearity (the default 2/3 band) so both routes see the
    same product rule.
    """
    if p <= 1.0:
        raise ParameterError("p must exceed 1")
    if not grid.n / 2.0 < s < p:
        raise ParameterError(f"need s in (n/2, p), got s={s}, n/2={grid.n / 2}, p={p}")
    grid.check_field(u)
    fu = grid.ifft(grid.fft(np.power(np.abs(u), p)) * grid.dealias_mask())
    den = sobolev_norm(u, s, grid) * lebesgue_norm(u, np.inf, grid) ** (p - 1.0)
    if den == 0.0:
        return 0.0
    return sobolev_norm(fu, s, grid) / den
