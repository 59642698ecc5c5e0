"""Equation parameters, admissibility windows, and predicted decay exponents.

The model equations couple a fractional elastic power sigma >= 1 with a
damping power delta in [0, sigma/2]:

    u_tt + (-Lap)^sigma u + (-Lap)^delta u_t = |w|^p * mu(|w|),

with w = u ("on_u") or w = u_t ("on_ut"), and data in L^m and L^2 for one
m in [1, 2).  Each prediction has one formula: ``critical_exponent`` the
critical power, ``predict_linear_rate`` the decay of the linear flow, and
``predict_theorem_rates`` the decay bounded by the existence theorem that
``theorem_window`` selects; ``check_admissibility`` states the windows of
all three theorems.  All exponents of (1+t) predicted here are exact
rationals whenever the inputs are; growth is a positive exponent, decay a
negative one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .errors import AdmissibilityError, ParameterError


class Target(str, Enum):
    ON_U = "on_u"
    ON_UT = "on_ut"


class RateSource(str, Enum):
    THM_1_1 = "thm_1_1"
    THM_1_2 = "thm_1_2"
    THM_1_3 = "thm_1_3"


@dataclass(frozen=True)
class EquationParams:
    """Parameters (sigma, delta, m, n, p, target, r) with derived quantities."""

    sigma: float
    delta: float
    m: float = 1.0
    n: int = 1
    p: float = 2.0
    target: Target = Target.ON_U
    r: Optional[float] = None

    def __post_init__(self):
        # every check is written so that NaN fails it
        if not 1 <= self.sigma < math.inf:
            raise ParameterError("sigma must be finite and >= 1")
        if not 0 <= self.delta <= self.sigma / 2:
            raise ParameterError("delta must lie in [0, sigma/2]")
        if not 1 <= self.m < 2:
            raise ParameterError("m must lie in [1, 2)")
        if not (self.n >= 1 and float(self.n).is_integer()):
            raise ParameterError("n must be a positive integer")
        if self.n > 3:
            raise ParameterError("only dimensions 1-3 are supported numerically")
        if not 1 < self.p < math.inf:
            raise ParameterError("p must be finite and exceed 1")
        object.__setattr__(self, "target", Target(self.target))
        if self.r is None:
            object.__setattr__(self, "r", float(self.sigma))
        if not 0 <= self.r < math.inf:
            raise ParameterError("r must be finite and nonnegative")

    @property
    def m0(self) -> Fraction:
        """Dual-gap exponent: 1/m0 = 1/m - 1/2."""
        return 1 / self.mixing_gain

    @property
    def mixing_gain(self) -> Fraction:
        """The extra-integrability factor 1/m - 1/2, in (0, 1/2] for m in [1, 2)."""
        return 1 / Fraction(self.m) - Fraction(1, 2)

    @property
    def borderline(self) -> bool:
        """Whether delta = sigma/2, the structural borderline."""
        return Fraction(self.delta) == Fraction(self.sigma) / 2


def critical_exponent(params: EquationParams) -> Fraction:
    """Critical power of the nonlinearity for the configured target.

    on_u:  1 + 2*m*sigma / (n - 2*m*delta)   (requires n > 2*m*delta)
    on_ut: 1 + m*sigma / n
    """
    sigma, delta = Fraction(params.sigma), Fraction(params.delta)
    m, n = Fraction(params.m), Fraction(params.n)
    if params.target == Target.ON_U:
        if n <= 2 * m * delta:
            raise AdmissibilityError(
                f"critical exponent needs n > 2*m*delta, got n={params.n}, "
                f"2*m*delta={float(2 * m * delta)}")
        return 1 + 2 * m * sigma / (n - 2 * m * delta)
    return 1 + m * sigma / n


# -- admissibility ----------------------------------------------------------

@dataclass(frozen=True)
class ConditionCheck:
    name: str
    satisfied: bool
    detail: str


@dataclass(frozen=True)
class AdmissibilityReport:
    """Per-theorem dimension/regularity window checks.

    Keys: "thm_1_1" (Sobolev solutions, any delta in [0, sigma/2]),
    "thm_1_2" (energy solutions, delta = sigma/2), "thm_1_3" (the on_ut
    equation, delta = sigma/2, high regularity).  thm_1_3's window
    sigma + n/2 < r <= 2*sigma - n/m0 can be empty; that is flagged rather
    than treated as an error.
    """
    checks: dict
    window_empty_thm_1_3: bool

    def admissible(self, key: str) -> bool:
        return all(c.satisfied for c in self.checks[key])

    def first_violation(self, key: str) -> Optional[ConditionCheck]:
        for c in self.checks[key]:
            if not c.satisfied:
                return c
        return None


def check_admissibility(params: EquationParams) -> AdmissibilityReport:
    sigma, delta = Fraction(params.sigma), Fraction(params.delta)
    m, n, r = Fraction(params.m), Fraction(params.n), Fraction(params.r)
    m0 = params.m0

    half = ConditionCheck("delta == sigma/2", params.borderline,
                          f"delta = {float(delta)}, sigma/2 = {float(sigma / 2)}")
    m_sigma = ConditionCheck("m*sigma < n", m * sigma < n,
                             f"m*sigma = {float(m * sigma)}, n = {params.n}")
    n_2r = ConditionCheck("n < 2r", n < 2 * r, f"n = {params.n}, 2r = {float(2 * r)}")

    thm11 = [ConditionCheck("r > 0", r > 0, f"r = {float(r)}"),
             ConditionCheck("r <= sigma", r <= sigma, f"r = {float(r)}, sigma = {float(sigma)}"),
             m_sigma if half.satisfied else
             ConditionCheck("2*m0*delta < n", 2 * m0 * delta < n,
                            f"2*m0*delta = {float(2 * m0 * delta)}, n = {params.n}"),
             n_2r]
    thm12 = [half, m_sigma,
             ConditionCheck("n < 2*sigma", n < 2 * sigma,
                            f"n = {params.n}, 2*sigma = {float(2 * sigma)}")]

    upper = 2 * sigma - n / m0
    lower = sigma + n / 2
    thm13 = [half,
             ConditionCheck("r > sigma + n/2", r > lower,
                            f"r = {float(r)}, sigma + n/2 = {float(lower)}"),
             ConditionCheck("r <= 2*sigma - n/m0", r <= upper,
                            f"r = {float(r)}, 2*sigma - n/m0 = {float(upper)}")]

    return AdmissibilityReport(
        {"thm_1_1": thm11, "thm_1_2": thm12, "thm_1_3": thm13}, not lower < upper)


def theorem_window(params: EquationParams) -> tuple:
    """(theorem, first violated condition of its window, or None inside it).

    The theorem is thm_1_3 for the on_ut equation, thm_1_2 for the on_u
    equation at delta = sigma/2 and thm_1_1 otherwise.
    """
    if params.target == Target.ON_UT:
        source = RateSource.THM_1_3
    elif params.borderline:
        source = RateSource.THM_1_2
    else:
        source = RateSource.THM_1_1
    return source, check_admissibility(params).first_violation(source.value)


# -- linear (proposition) rates ---------------------------------------------

def predict_linear_rate(params: EquationParams, a, j) -> tuple:
    """(1+t)-exponents (u0 term, u1 term) of d/dt^j |D|^a u for linear data.

    Branch selection by delta: delta = sigma/2 uses the structural borderline
    form (the u1 term carries the +1), delta in [0, sigma/2) uses the sharp
    structural/frictional form with (a - 2*delta) replacing a in the u1 term,
    valid for n > 2*m0*delta.  When that dimension restriction fails the
    non-sharp fallback (exponent offsets (a + 2*j*delta), +1 on the u1 term)
    is returned.
    """
    if a < 0:
        raise ParameterError("a must be nonnegative")
    if j not in (0, 1):
        raise ParameterError("j must be 0 or 1")
    sigma, delta, n, a, j = (Fraction(v) for v in (params.sigma, params.delta, params.n, a, j))
    gain = params.mixing_gain
    if params.borderline:
        e0 = -(n / sigma) * gain - a / sigma - j
        return e0, e0 + 1
    two_sd = 2 * (sigma - delta)
    base = -(n / two_sd) * gain
    if n > 2 * params.m0 * delta:
        return base - a / two_sd - j, base - (a - 2 * delta) / two_sd - j
    e0 = base - (a + 2 * j * delta) / two_sd
    return e0, e0 + 1


# -- theorem rates -----------------------------------------------------------

@dataclass(frozen=True)
class RatePrediction:
    """(1+t)-exponents of the norms bounded by one existence theorem."""
    exponent_u_L2: Fraction
    exponent_Dr_u_L2: Fraction
    exponent_ut_L2: Optional[Fraction]
    exponent_Dr_minus_sigma_ut_L2: Optional[Fraction]
    source: RateSource


def predict_theorem_rates(params: EquationParams,
                          source: Optional[RateSource] = None) -> RatePrediction:
    """Fill a RatePrediction from one theorem's estimates.

    With no ``source`` the theorem is the one ``theorem_window`` selects, and
    parameters outside its window raise AdmissibilityError naming the first
    violated inequality.  A given ``source`` returns that theorem's formula
    values regardless of its window, which is useful for exploring windows.
    """
    if source is None:
        source, bad = theorem_window(params)
        if bad is not None:
            raise AdmissibilityError(f"{source.value} violated: {bad.name} ({bad.detail})")
    sigma, delta = Fraction(params.sigma), Fraction(params.delta)
    n, r = Fraction(params.n), Fraction(params.r)
    gain = params.mixing_gain

    if source == RateSource.THM_1_1:
        two_sd = 2 * (sigma - delta)
        u = -(n / two_sd) * gain + delta / (sigma - delta)
        dr = -(n / two_sd) * gain - (r - 2 * delta) / two_sd
        return RatePrediction(u, dr, None, None, source)
    base = -(n / sigma) * gain
    if source == RateSource.THM_1_2:
        return RatePrediction(base + 1, base, base, None, source)
    if source == RateSource.THM_1_3:
        dr = base - (r - sigma) / sigma
        return RatePrediction(base + 1, dr, base, dr, source)
    raise ParameterError(f"predict_theorem_rates needs a theorem source, got {source}")
