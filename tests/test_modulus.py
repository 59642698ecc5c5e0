import math
import re

import numpy as np
import pytest

from sigmaevo import analysis
from sigmaevo.errors import DomainError, ParameterError
from sigmaevo.modulus import (AxiomReport, ModulusSpec, check_derivative_bound,
                              check_modulus_axioms, classify_integral_criterion, psi)

ALL_NAMED = [
    ModulusSpec.lipschitz(),
    ModulusSpec.log_lip(),
    ModulusSpec.log_log_lip(1),
    ModulusSpec.log_log_lip(2),
    ModulusSpec.hoelder(0.5),
    ModulusSpec.log_power(0.5),
    ModulusSpec.log_power(1.0),
    ModulusSpec.log_power(2.0),
]

# caps on which each family genuinely satisfies the axioms (the log-based
# families lose monotonicity/concavity approaching s = 1, as expected from
# the requirement of a sufficiently small domain)
AXIOM_CAPS = {
    "lipschitz": 1.0,
    "log-lip": 1.0,
    "log-log-lip": math.exp(-1),
    "hoelder": 1.0,
    "log-power": None,    # e^-alpha
}


LOG_NAMED = [mu for mu in ALL_NAMED if mu.family in ("log-lip", "log-log-lip", "log-power")] \
    + [ModulusSpec.log_log_lip(3)]


def reciprocal_log_formula(mu: ModulusSpec, s: np.ndarray) -> np.ndarray:
    """The log families through 1/s, as the module docstring writes them."""
    ell = np.log(1.0 / s) + 1.0
    if mu.family == "log-lip":
        return s * ell
    if mu.family == "log-power":
        return ell ** (-mu.alpha)
    logm = ell
    for _ in range(mu.order - 1):
        logm = np.log(logm) + 1.0
    return s * ell * logm


# -- the per-family paths the one closed form replaced, kept as its oracle --

def _replaced_relog(v, order):
    for _ in range(order - 1):
        v = np.log(v) + 1.0
    return v


def _replaced_logm(x, order):
    return _replaced_relog(np.log(x) + 1.0, order)


def _replaced_logm_prefix_product(x, order):
    prod = np.ones_like(np.asarray(x, dtype=float))
    v = None
    for j in range(1, order):
        v = np.log(x) + 1.0 if v is None else np.log(v) + 1.0
        prod = prod * v
    return prod


def _replaced_limit(mu):
    if mu.family in ("log-lip", "log-log-lip", "log-power"):
        return 1.0
    if mu.family == "tabulated":
        return float(mu.table[-1][0])
    return math.inf


def _replaced_core(mu, s):
    if mu.family == "lipschitz":
        return s.copy()
    if mu.family == "hoelder":
        return s ** mu.alpha
    if mu.family == "tabulated":
        xs = np.array([p[0] for p in mu.table])
        ys = np.array([p[1] for p in mu.table])
        return np.interp(s, xs, ys)
    ell = 1.0 - np.log(np.where(s > 0.0, s, 1.0))
    if mu.family == "log-lip":
        out = s * ell
    elif mu.family == "log-log-lip":
        out = s * ell * _replaced_relog(ell, mu.order)
    else:
        out = ell ** (-mu.alpha)
    return np.where(s > 0.0, out, 0.0)


def replaced_evaluate(mu, s):
    return _replaced_core(mu, np.minimum(s, _replaced_limit(mu)))


def replaced_evaluate_neglog(mu, tt):
    with np.errstate(over="ignore", under="ignore"):
        if mu.family == "lipschitz":
            return np.exp(-tt)
        if mu.family == "hoelder":
            return np.exp(-mu.alpha * tt)
        if mu.family == "log-lip":
            return np.exp(-tt) * (tt + 1.0)
        if mu.family == "log-log-lip":
            return np.exp(-tt) * (tt + 1.0) * _replaced_relog(tt + 1.0, mu.order)
        if mu.family == "log-power":
            return (tt + 1.0) ** (-mu.alpha)
        return _replaced_core(mu, np.exp(-tt))


def replaced_derivative(mu, arr):
    """The old derivative, with its 1e-300 clamp (so exact only from 1e-300 up)."""
    cap = _replaced_limit(mu)
    out = np.empty_like(arr)
    beyond = arr > cap
    inner = ~beyond
    x = np.where(inner, np.maximum(arr, 1e-300), 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if mu.family == "lipschitz":
            d = np.ones_like(x)
        elif mu.family == "hoelder":
            d = mu.alpha * x ** (mu.alpha - 1.0)
        elif mu.family == "log-lip":
            d = np.log(1.0 / x)
        elif mu.family == "log-log-lip":
            inv = 1.0 / x
            a = np.log(inv) + 1.0
            b = _replaced_logm(inv, mu.order)
            prod = _replaced_logm_prefix_product(inv, mu.order)
            d = b * (a - 1.0) - a / prod
        elif mu.family == "log-power":
            ell = np.log(1.0 / x) + 1.0
            d = mu.alpha * ell ** (-mu.alpha - 1.0) / x
        else:
            span = mu.table[-1][0]
            h = 1e-6 * span
            lo = np.maximum(x - h, 0.0)
            hi = np.minimum(x + h, span)
            d = (_replaced_core(mu, hi) - _replaced_core(mu, lo)) / np.maximum(hi - lo, 1e-300)
    zero = inner & (arr == 0.0)
    if mu.family == "lipschitz":
        d = np.where(zero, 1.0, d)
    elif mu.family != "tabulated":
        d = np.where(zero, math.inf, d)
    out[inner] = d[inner]
    out[beyond] = 0.0
    return out


ORACLE_CASES = ALL_NAMED + [ModulusSpec.log_log_lip(3),
                            ModulusSpec.tabulated([(0.0, 0.0), (0.25, 0.4), (0.5, 0.6),
                                                   (0.75, 0.7)])]


class TestOneClosedForm:
    """evaluate, evaluate_neglog and derivative against the paths they replaced."""

    @pytest.mark.parametrize("mu", ORACLE_CASES, ids=lambda m: m.key())
    def test_evaluate_bit_identical(self, mu):
        s = np.concatenate([[0.0, 5e-324, 1e-310], np.geomspace(1e-300, 10.0, 3011)])
        assert np.array_equal(mu.evaluate(s), replaced_evaluate(mu, s))
        assert all(mu.evaluate(float(x)) == replaced_evaluate(mu, x) for x in s[::50])

    @pytest.mark.parametrize("mu", ORACLE_CASES, ids=lambda m: m.key())
    def test_evaluate_neglog_bit_identical(self, mu):
        t = np.concatenate([[0.0], np.geomspace(1e-6, 1e7, 3001)])
        assert np.array_equal(mu.evaluate_neglog(t), replaced_evaluate_neglog(mu, t))
        assert all(mu.evaluate_neglog(float(x)) == replaced_evaluate_neglog(mu, x)
                   for x in t[::50])

    @pytest.mark.parametrize("mu", ORACLE_CASES, ids=lambda m: m.key())
    def test_derivative_matches(self, mu):
        s = np.geomspace(1e-300, min(_replaced_limit(mu), 10.0), 3011)[:-1]
        np.testing.assert_allclose(mu.derivative(s), replaced_derivative(mu, s),
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("mu", ORACLE_CASES, ids=lambda m: m.key())
    def test_derivative_sentinels(self, mu):
        # s = 0 and s beyond the closed form's range
        s = np.array([0.0, 1.0, 2.0, 10.0])
        assert np.array_equal(mu.derivative(s), replaced_derivative(mu, s))


# zeros of both signs, subnormals, 1e-300 up to each closed form's range,
# and beyond it (1.0 is the log families' range, 0.75 the table's)
PSI_POINTS = np.concatenate([[0.0, -0.0, 5e-324, 1e-320, 1e-310, 2.2e-308],
                             np.geomspace(1e-300, 1.0, 1201),
                             [0.75, np.nextafter(1.0, 2.0), 2.0, 10.0, 1e50, math.inf]])


def replaced_psi(mu, s, p):
    """Psi as the path with two temporaries per call computed it."""
    return np.power(s, p) * replaced_evaluate(mu, s)


def assert_same_bits(got, want):
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


class TestPsiInBuffers:
    """evaluate and psi, fresh or into caller buffers, against the old path."""

    @pytest.mark.parametrize("mu", ORACLE_CASES, ids=lambda m: m.key())
    def test_evaluate_matches_old_path(self, mu):
        s = PSI_POINTS.copy()
        want = replaced_evaluate(mu, s)
        assert_same_bits(mu.evaluate(s), want)
        out, work = np.full_like(s, np.nan), np.full_like(s, np.nan)
        assert mu.evaluate(s, out, work) is out
        assert_same_bits(out, want)
        assert_same_bits(s, PSI_POINTS)
        # work may be s itself, which is then overwritten (work is scratch)
        assert_same_bits(mu.evaluate(s, np.empty_like(s), s), want)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("mu", ORACLE_CASES, ids=lambda m: m.key())
    def test_psi_matches_old_path(self, mu, p):
        s = PSI_POINTS.reshape(1, -1).repeat(2, axis=0)
        want = replaced_psi(mu, s, p)
        assert_same_bits(psi(s, p, mu), want)
        out, work = np.full_like(s, np.nan), np.full_like(s, np.nan)
        assert psi(s, p, mu, out, work) is out
        assert_same_bits(out, want)
        assert_same_bits(s[0], PSI_POINTS) and assert_same_bits(s[1], PSI_POINTS)

    @pytest.mark.parametrize("mu", ORACLE_CASES, ids=lambda m: m.key())
    def test_nan_gives_nan(self, mu):
        # the log families gave 0 at NaN before their zero mask went
        s = np.array([0.5, np.nan, 0.0])
        for got in (mu.evaluate(s), mu.evaluate(s, np.empty(3), np.empty(3)),
                    psi(s, 3.0, mu), psi(s, 3.0, mu, np.empty(3), np.empty(3))):
            assert np.isnan(got[1]) and not np.isnan(got[[0, 2]]).any()
        assert math.isnan(mu.evaluate(math.nan)) and math.isnan(psi(math.nan, 3.0, mu))


def _with_axiom_cap(mu: ModulusSpec) -> ModulusSpec:
    cap = AXIOM_CAPS[mu.family]
    if cap is None:
        cap = math.exp(-mu.alpha)
    return ModulusSpec(mu.family, alpha=mu.alpha, order=mu.order,
                       table=mu.table, domain_cap=cap)


class TestEvaluate:
    def test_hoelder_quarter(self):
        assert ModulusSpec.hoelder(0.5).evaluate(0.25) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("mu", ALL_NAMED, ids=lambda m: m.key())
    def test_zero_at_zero(self, mu):
        assert mu.evaluate(0.0) == 0.0

    def test_log_lip_at_one(self):
        assert ModulusSpec.log_lip().evaluate(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            ModulusSpec.lipschitz().evaluate(-0.1)

    def test_tabulated_interpolation(self):
        mu = ModulusSpec.tabulated([(0.0, 0.0), (0.5, 1.0), (1.0, 1.5)])
        assert mu.evaluate(0.25) == pytest.approx(0.5)
        assert mu.evaluate(0.75) == pytest.approx(1.25)

    def test_formula_extension_clamps_log_families_at_one(self):
        mu = ModulusSpec.log_power(1.0)
        assert mu.evaluate(5.0) == pytest.approx(mu.evaluate(1.0))

    @pytest.mark.parametrize("mu", ALL_NAMED, ids=lambda m: m.key())
    def test_nondecreasing_on_axiom_domain(self, mu):
        spec = _with_axiom_cap(mu)
        for count in (50, 500):
            s = np.linspace(0.0, spec.domain_cap, count)
            v = spec.evaluate(s)
            assert np.all(np.diff(v) >= -1e-14)

    @pytest.mark.parametrize("mu", LOG_NAMED, ids=lambda m: m.key())
    def test_log_families_match_reciprocal_formula(self, mu):
        s = np.geomspace(1e-300, 1.0, 3001)
        np.testing.assert_allclose(mu.evaluate(s), reciprocal_log_formula(mu, s),
                                   rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("mu", LOG_NAMED, ids=lambda m: m.key())
    def test_log_families_finite_at_subnormal_arguments(self, mu):
        # 1/s overflows below about 5.6e-309
        s = np.array([5e-324, 1e-310, 1e-300])
        v = mu.evaluate(s)
        assert np.all(np.isfinite(v))
        assert np.all(v > 0.0)
        assert np.all(np.diff(v) >= 0.0)
        assert np.all(np.isfinite(psi(s, 2.0, mu)))

    def test_vectorized_matches_scalar(self):
        mu = ModulusSpec.log_log_lip(2)
        s = np.logspace(-6, -0.5, 20)
        vec = mu.evaluate(s)
        assert vec == pytest.approx([mu.evaluate(float(x)) for x in s], rel=1e-14)


class TestDerivative:
    def test_lipschitz(self):
        assert ModulusSpec.lipschitz().derivative(0.5) == 1.0

    def test_hoelder(self):
        assert ModulusSpec.hoelder(0.5).derivative(0.25) == pytest.approx(1.0, rel=1e-14)

    def test_log_lip_at_inv_e(self):
        assert ModulusSpec.log_lip().derivative(math.exp(-1)) == pytest.approx(1.0, rel=1e-14)

    def test_unbounded_slope_sentinel(self):
        assert math.isinf(ModulusSpec.hoelder(0.5).derivative(0.0))
        assert math.isinf(ModulusSpec.log_power(1.0).derivative(0.0))

    @pytest.mark.parametrize("s", [1e-310, 5e-320])
    def test_subnormal_arguments(self, s):
        # the closed forms written with math.log, which is exact in range
        # at subnormal s where 1/s overflows
        lg = -math.log(s)
        ell = lg + 1.0
        cases = [
            (ModulusSpec.hoelder(0.5), 0.5 * s ** -0.5),
            (ModulusSpec.log_lip(), lg),
            (ModulusSpec.log_log_lip(1), ell * lg - ell),
            (ModulusSpec.log_log_lip(2), (math.log(ell) + 1.0) * lg - 1.0),
            (ModulusSpec.log_power(2.0), 2.0 * ell ** -3.0 / s),
        ]
        for mu, want in cases:
            assert mu.derivative(s) == pytest.approx(want, rel=1e-13), mu.key()
            assert mu.derivative(np.array([s]))[0] == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("mu", ALL_NAMED, ids=lambda m: m.key())
    def test_matches_central_difference(self, mu):
        # relative agreement with a finite difference of evaluate at 100
        # log-spaced interior points
        s = np.logspace(-6, np.log10(0.8 * mu.domain_cap), 100)
        h = 1e-7 * s
        fd = (mu.evaluate(s + h) - mu.evaluate(s - h)) / (2 * h)
        an = mu.derivative(s)
        assert np.max(np.abs(an - fd) / np.maximum(np.abs(fd), 1e-12)) < 1e-6


def assert_axioms_hold(report):
    assert (report.zero_at_zero, report.nondecreasing, report.midpoint_concave,
            report.finite_nonnegative) == (True, True, True, True)


class TestAxioms:
    def test_hoelder_passes(self):
        assert_axioms_hold(check_modulus_axioms(ModulusSpec.hoelder(0.5)))

    def test_lipschitz_passes(self):
        assert_axioms_hold(check_modulus_axioms(ModulusSpec.lipschitz()))

    def test_log_lip_passes(self):
        assert_axioms_hold(check_modulus_axioms(ModulusSpec.log_lip()))

    @pytest.mark.parametrize("mu", ALL_NAMED, ids=lambda m: m.key())
    def test_all_pass_on_axiom_domain(self, mu):
        assert_axioms_hold(check_modulus_axioms(_with_axiom_cap(mu)))

    def test_nonmonotone_table_fails(self):
        mu = ModulusSpec.tabulated([(0.0, 0.0), (0.5, 1.0), (1.0, 0.5)])
        report = check_modulus_axioms(mu)
        assert not report.nondecreasing
        lo, hi = report.worst_monotone_pair
        assert 0.5 <= hi <= 1.0

    def test_report_always_produced(self):
        report = check_modulus_axioms(ModulusSpec.log_power(1.0))
        assert isinstance(report, AxiomReport)


class TestDerivativeBound:
    def test_lipschitz_is_one(self):
        assert check_derivative_bound(ModulusSpec.lipschitz()) == pytest.approx(1.0)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9])
    def test_hoelder_is_alpha(self, alpha):
        assert check_derivative_bound(ModulusSpec.hoelder(alpha)) == pytest.approx(alpha)

    def test_log_power_below_one_near_zero(self):
        # dense-grid numeric maximization oracle built on finite differences,
        # independent of the closed-form derivative path
        mu = ModulusSpec.log_power(1.0, domain_cap=0.1)
        sup = check_derivative_bound(mu)
        s = np.logspace(-8, -1, 100_000)
        h = 1e-7 * s
        fd = (mu.evaluate(s + h) - mu.evaluate(s - h)) / (2 * h)
        oracle = np.max(s * fd / mu.evaluate(s))
        assert sup <= 1.0
        assert sup == pytest.approx(oracle, rel=1e-3)

    def test_zero_value_points_excluded_with_warning(self):
        # a flat-at-zero table makes mu(s) = 0 on an initial stretch
        mu = ModulusSpec.tabulated([(0.0, 0.0), (0.5, 0.0), (1.0, 1.0)])
        with pytest.warns(UserWarning, match="excluded"):
            sup = check_derivative_bound(mu)
        assert np.isfinite(sup)

    def test_zero_at_every_sample_named(self):
        mu = ModulusSpec.tabulated([(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)])
        with pytest.raises(ParameterError, match="0 at every sample point"):
            check_derivative_bound(mu)


class TestIntegralCriterion:
    CONVERGENT = ["lipschitz", "log-lip", "log-log-lip:1", "log-log-lip:2",
                  "hoelder:0.5", "log-power:2"]
    DIVERGENT = ["log-power:0.5", "log-power:1"]

    @pytest.mark.parametrize("key", CONVERGENT)
    def test_convergent_families(self, key):
        mu = ModulusSpec.from_key(key)
        assert classify_integral_criterion(mu, mode="analytic").verdict == "convergent"
        assert classify_integral_criterion(mu, mode="numeric").verdict == "convergent"

    @pytest.mark.parametrize("key", DIVERGENT)
    def test_divergent_families(self, key):
        mu = ModulusSpec.from_key(key)
        assert classify_integral_criterion(mu, mode="analytic").verdict == "divergent"
        assert classify_integral_criterion(mu, mode="numeric").verdict == "divergent"

    @pytest.mark.parametrize("c0", [math.e, 10.0, 100.0])
    @pytest.mark.parametrize("key", CONVERGENT + DIVERGENT)
    def test_verdict_independent_of_c0(self, key, c0):
        mu = ModulusSpec.from_key(key)
        analytic = classify_integral_criterion(mu, c0, "analytic").verdict
        numeric = classify_integral_criterion(mu, c0, "numeric").verdict
        assert numeric == analytic

    @pytest.mark.parametrize("key", ["log-power:1.05", "log-power:1.1", "log-power:1.5",
                                     "log-power:2", "log-power:3"])
    def test_numeric_verdict_matches_a_polyfit_line(self, monkeypatch, key):
        # the geometric fit of the doubling test once called np.polyfit
        # (LAPACK); these five keys all reach it
        mu = ModulusSpec.from_key(key)
        got = classify_integral_criterion(mu, mode="numeric")
        monkeypatch.setattr(analysis, "fit_line",
                            lambda x, y: tuple(map(float, np.polyfit(x, y, 1))))
        want = classify_integral_criterion(mu, mode="numeric")
        assert got.verdict == want.verdict
        assert 0 < got.evidence["fitted_rho"] == pytest.approx(want.evidence["fitted_rho"],
                                                               rel=1e-12)

    def test_tabulated_analytic_inconclusive(self):
        mu = ModulusSpec.tabulated([(0.0, 0.0), (1.0, 1.0)])
        assert classify_integral_criterion(mu, mode="analytic").verdict == "inconclusive"

    def test_c0_below_e_rejected(self):
        with pytest.raises(ParameterError):
            classify_integral_criterion(ModulusSpec.lipschitz(), c0=1.0)

    def test_both_mode_agrees_with_analytic(self):
        verdict = classify_integral_criterion(ModulusSpec.hoelder(0.5), mode="both")
        assert verdict.verdict == "convergent"
        assert "increments" in verdict.evidence


class TestOrdering:
    def test_log_log_lip_dominates_log_lip_near_zero(self):
        # regularity ordering: the extra iterated-log factor exceeds 1
        lll = ModulusSpec.log_log_lip(1)
        ll = ModulusSpec.log_lip()
        s = np.logspace(-8, -2, 50)
        assert np.all(lll.evaluate(s) >= ll.evaluate(s))


class TestKeys:
    @pytest.mark.parametrize("key", ["lipschitz", "log-lip", "log-log-lip:3",
                                     "hoelder:0.25", "log-power:1.5"])
    def test_roundtrip(self, key):
        assert ModulusSpec.from_key(key).key() == key

    @pytest.mark.parametrize("key", ["hoelder:abc", "log-log-lip:x", "log-log-lip:2.5",
                                     "log-power:", "hoelder:2", "log-log-lip:0",
                                     "log-power:nan", "log-power:inf", "log-power:-inf",
                                     "hoelder:nan", "hoelder:inf", "lipschitz:junk",
                                     "log-lip:3"])
    def test_bad_key_named(self, key):
        with pytest.raises(ParameterError, match=re.escape(repr(key))):
            ModulusSpec.from_key(key)

    @pytest.mark.parametrize("cap", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_domain_cap_rejected(self, cap):
        with pytest.raises(ParameterError, match="domain_cap"):
            ModulusSpec.from_key("lipschitz", domain_cap=cap)

    def test_non_finite_table_rejected(self):
        with pytest.raises(ParameterError, match="finite"):
            ModulusSpec.tabulated([(0.0, 0.0), (0.5, math.nan), (1.0, 1.0)])

    def test_tabulated_from_csv(self, tmp_path):
        path = tmp_path / "mu.csv"
        path.write_text("0.0,0.0\n0.5,0.4\n1.0,0.6\n")
        mu = ModulusSpec.from_key(f"tabulated:{path}")
        assert mu.evaluate(0.25) == pytest.approx(0.2)

    def test_tabulated_csv_needs_two_columns(self, tmp_path):
        path = tmp_path / "mu.csv"
        path.write_text("0,0,1\n1,1,1\n")
        with pytest.raises(ParameterError, match=re.escape(repr(str(path))) + ".*3 columns"):
            ModulusSpec.from_key(f"tabulated:{path}")
