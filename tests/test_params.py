import re
from fractions import Fraction

import pytest

from sigmaevo.errors import AdmissibilityError, ParameterError
from sigmaevo.params import (EquationParams, RateSource, Target, check_admissibility,
                             critical_exponent, predict_linear_rate,
                             predict_theorem_rates, theorem_window)


class TestValidation:
    def test_delta_window(self):
        with pytest.raises(ParameterError):
            EquationParams(sigma=1, delta=0.6)

    def test_m_window(self):
        with pytest.raises(ParameterError):
            EquationParams(sigma=1, delta=0, m=2.0)

    def test_p_above_one(self):
        with pytest.raises(ParameterError):
            EquationParams(sigma=1, delta=0, p=1.0)

    @pytest.mark.parametrize("n", [4, 7])
    def test_dimension_at_most_three(self, n):
        with pytest.raises(ParameterError, match="dimensions 1-3"):
            EquationParams(sigma=1, delta=0, n=n)

    def test_r_defaults_to_sigma(self):
        assert EquationParams(sigma=2, delta=1).r == 2.0

    def test_m0(self):
        assert EquationParams(sigma=1, delta=0, m=1).m0 == 2
        assert EquationParams(sigma=1, delta=0, m=1.5).m0 == 6


class TestCriticalExponent:
    def test_frictional_wave(self):
        p = EquationParams(sigma=1, delta=0, m=1, n=1, p=3, target=Target.ON_U)
        assert critical_exponent(p) == 3

    def test_structural(self):
        p = EquationParams(sigma=2, delta=1, m=1, n=3, p=5, target=Target.ON_U)
        assert critical_exponent(p) == 5

    def test_on_ut(self):
        p = EquationParams(sigma=1, delta=0.5, m=1, n=1, p=2, target=Target.ON_UT)
        assert critical_exponent(p) == 2

    def test_dimension_restriction(self):
        p = EquationParams(sigma=2, delta=1, m=1.5, n=3, p=2, target=Target.ON_U)
        # 2*m*delta = 3 = n: denominator vanishes
        with pytest.raises(AdmissibilityError):
            critical_exponent(p)

    def test_decreasing_in_n_to_one(self):
        # strictly decreasing in n, approaching 1 from above
        prev = None
        for n in range(1, 4):
            p = EquationParams(sigma=2, delta=0.25, m=1, n=n, p=2)
            val = critical_exponent(p)
            assert val > 1
            if prev is not None:
                assert val < prev
            prev = val
        wide = 1 + Fraction(2 * 1 * 2, 10_000 - 2)
        assert abs(wide - 1) < Fraction(1, 1000)


class TestAdmissibility:
    def test_thm_1_1_example(self):
        p = EquationParams(sigma=1, delta=0, m=1, n=1, p=3, r=1)
        assert check_admissibility(p).admissible("thm_1_1")

    def test_thm_1_2_example(self):
        p = EquationParams(sigma=2, delta=1, m=1, n=3, p=5, r=2)
        assert check_admissibility(p).admissible("thm_1_2")

    def test_thm_1_3_example(self):
        p = EquationParams(sigma=2, delta=1, m=1, n=1, p=2, target=Target.ON_UT, r=2.6)
        report = check_admissibility(p)
        assert report.admissible("thm_1_3")
        assert not report.window_empty_thm_1_3

    def test_violation_named(self):
        p = EquationParams(sigma=1, delta=0.5, m=1, n=1, p=2, r=1)
        report = check_admissibility(p)
        assert not report.admissible("thm_1_2")
        assert report.first_violation("thm_1_2").name == "m*sigma < n"

    def test_empty_window_flagged(self):
        # sigma + n/2 >= 2*sigma - n/m0 leaves no admissible r
        p = EquationParams(sigma=1, delta=0.5, m=1, n=2, p=2, target=Target.ON_UT, r=2)
        assert check_admissibility(p).window_empty_thm_1_3


class TestLinearRates:
    def test_frictional(self):
        p = EquationParams(sigma=1, delta=0, m=1, n=1, p=3, r=1)
        assert predict_linear_rate(p, 0, 0) == (Fraction(-1, 4), Fraction(-1, 4))

    def test_structural_borderline(self):
        p = EquationParams(sigma=2, delta=1, m=1, n=1, p=2, r=2)
        assert predict_linear_rate(p, 0, 0) == (Fraction(-1, 4), Fraction(3, 4))

    def test_negative_order_rejected(self):
        p = EquationParams(sigma=1, delta=0, m=1, n=1, p=3, r=1)
        with pytest.raises(ParameterError, match="a must be nonnegative"):
            predict_linear_rate(p, -0.5, 0)

    def test_sharp_form_requires_dimension(self):
        # n <= 2*m0*delta: the non-sharp fallback carries the +1 on the u1 term
        p = EquationParams(sigma=2, delta=0.9, m=1, n=3, p=2, r=2)
        e0, e1 = predict_linear_rate(p, 0, 0)
        assert e1 - e0 == 1

    def test_equals_replaced_formula(self):
        # exact rational equality with the two-function form it replaced,
        # over every branch: borderline, sharp and fallback
        branches = set()
        for sigma in (1, 1.5, 2, 3):
            for frac in (0, 0.1, 0.25, 0.45, 0.9, 1):
                delta = frac * sigma / 2
                for m in (1, 1.25, 1.5, 1.75):
                    for n in (1, 2, 3):
                        for r in (0.5 * sigma, sigma, 1.3):
                            p = EquationParams(sigma=sigma, delta=delta, m=m, n=n, p=2, r=r)
                            for a in (0, 0.5, p.r):
                                for j in (0, 1):
                                    got = predict_linear_rate(p, a, j)
                                    assert got == replaced_proposition_exponents(
                                        sigma, delta, m, n, a, j)
                                    assert all(type(e) is Fraction for e in got)
                            branches.add("borderline" if p.borderline else
                                         "sharp" if n > 2 * p.m0 * Fraction(delta) else
                                         "fallback")
        assert branches == {"borderline", "sharp", "fallback"}

    def test_invalid_j(self):
        p = EquationParams(sigma=1, delta=0, m=1, n=1, p=3)
        with pytest.raises(ParameterError):
            predict_linear_rate(p, 0, 2)


class TestTheoremRates:
    def test_frictional_sobolev(self):
        p = EquationParams(sigma=1, delta=0, m=1, n=1, p=3, r=1)
        pred = predict_theorem_rates(p)
        assert pred.source == RateSource.THM_1_1
        assert pred.exponent_u_L2 == Fraction(-1, 4)
        assert pred.exponent_Dr_u_L2 == Fraction(-3, 4)

    def test_energy_case(self):
        p = EquationParams(sigma=2, delta=1, m=1, n=3, p=5, r=2)
        pred = predict_theorem_rates(p)
        assert pred.source == RateSource.THM_1_2
        assert pred.exponent_u_L2 == Fraction(1, 4)
        assert pred.exponent_Dr_u_L2 == Fraction(-3, 4)
        assert pred.exponent_ut_L2 == Fraction(-3, 4)

    def test_formula_outside_window(self):
        # the window m*sigma < n fails at n = 1, but the formula value is
        # still well-defined and must match the display
        p = EquationParams(sigma=1, delta=0.5, m=1, n=1, p=2, r=1)
        with pytest.raises(AdmissibilityError):
            predict_theorem_rates(p)
        pred = predict_theorem_rates(p, RateSource.THM_1_2)
        assert pred.exponent_u_L2 == Fraction(1, 2)

    def test_source_naming_no_theorem_rejected(self):
        p = EquationParams(sigma=1, delta=0, m=1, n=1, p=3, r=1)
        with pytest.raises(ParameterError, match="needs a theorem source, got thm_9"):
            predict_theorem_rates(p, "thm_9")

    def test_on_ut_rates(self):
        p = EquationParams(sigma=2, delta=1, m=1, n=1, p=2, target=Target.ON_UT, r=2.6)
        pred = predict_theorem_rates(p)
        assert pred.source == RateSource.THM_1_3
        assert pred.exponent_u_L2 == Fraction(3, 4)
        assert pred.exponent_ut_L2 == Fraction(-1, 4)
        assert pred.exponent_Dr_u_L2 == pred.exponent_Dr_minus_sigma_ut_L2

    def test_borderline_matches_energy_exponent(self):
        # at delta = sigma/2 the Sobolev-solution L2 exponent degenerates to
        # the energy-solution one; exact rational identity over a sweep
        cases = [(1, 1, 1), (2, 1, 1), (2, 1.5, 3), (3, 1, 2), (1.5, 1.25, 2),
                 (2.5, 1, 1), (4, 1.5, 3), (1, 1.5, 1), (3, 1.75, 2), (2, 1.9, 1)]
        for sigma, m, n in cases:
            for r_mult in (0.5, 1.0):
                p = EquationParams(sigma=sigma, delta=sigma / 2, m=m, n=n, p=2,
                                   r=sigma * r_mult)
                lhs = predict_theorem_rates(p, RateSource.THM_1_1)
                rhs = predict_theorem_rates(p, RateSource.THM_1_2)
                assert lhs.exponent_u_L2 == rhs.exponent_u_L2

    def test_derivative_norm_decays_no_slower(self):
        # |D|^r exponent <= L2 exponent whenever r >= 2*delta
        cases = [(1, 0, 1, 1, 1), (2, 1, 1, 1, 2), (2, 0.5, 1.5, 2, 1.5),
                 (3, 1, 1, 2, 2.5), (1.5, 0.5, 1.2, 1, 1.4)]
        for sigma, delta, m, n, r in cases:
            p = EquationParams(sigma=sigma, delta=delta, m=m, n=n, p=2, r=r)
            pred = predict_theorem_rates(p, RateSource.THM_1_1)
            if r >= 2 * delta:
                assert pred.exponent_Dr_u_L2 <= pred.exponent_u_L2


class TestTheoremWindow:
    @pytest.mark.parametrize("kwargs,source", [
        (dict(sigma=1, delta=0, r=1), RateSource.THM_1_1),
        (dict(sigma=2, delta=1, n=3, r=2), RateSource.THM_1_2),
        (dict(sigma=2, delta=1, r=2.6, target="on_ut"), RateSource.THM_1_3),
    ])
    def test_selects_theorem_inside_its_window(self, kwargs, source):
        p = EquationParams(**dict(dict(m=1, n=1, p=3), **kwargs))
        assert theorem_window(p) == (source, None)
        assert predict_theorem_rates(p).source == source

    def test_rates_raise_on_the_first_violation(self):
        p = EquationParams(sigma=1, delta=0.5, m=1, n=1, p=2, r=1)
        source, bad = theorem_window(p)
        assert (source, bad.name) == (RateSource.THM_1_2, "m*sigma < n")
        with pytest.raises(AdmissibilityError,
                           match=re.escape(f"thm_1_2 violated: {bad.name} ({bad.detail})")):
            predict_theorem_rates(p)


# -- the linear-rate formula before it was folded, kept as the oracle ----------
#
# proposition_exponents as it was with its defaults (data in L^m and L^2, the
# fallback instead of an error), working from the raw floats rather than from
# params.mixing_gain and params.m0; predict_linear_rate must equal it exactly.

def replaced_proposition_exponents(sigma, delta, m, n, a, j):
    sigma, delta, m, n = Fraction(sigma), Fraction(delta), Fraction(m), Fraction(n)
    a, j = Fraction(a), Fraction(j)
    gain = 1 / m - Fraction(1, 2)

    if delta == sigma / 2:
        base = -(n / sigma) * gain
        e0 = base - a / sigma - j
        e1 = 1 + base - a / sigma - j
        return e0, e1

    m0 = 1 / (1 / m - Fraction(1, 2)) if m < 2 else None
    sharp_ok = delta == 0 or (m0 is not None and n > 2 * m0 * delta) or gain == 0
    two_sd = 2 * (sigma - delta)
    base = -(n / two_sd) * gain
    if sharp_ok:
        e0 = base - a / two_sd - j
        e1 = base - (a - 2 * delta) / two_sd - j
        return e0, e1
    e0 = base - (a + 2 * j * delta) / two_sd
    e1 = 1 + base - (a + 2 * j * delta) / two_sd
    return e0, e1
