import math

import numpy as np
import pytest

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

    def test_clamp_extension(self):
        mu = ModulusSpec.hoelder(0.5, domain_cap=0.25, extension_rule="clamp")
        assert mu.evaluate(4.0) == pytest.approx(0.5)

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

    @pytest.mark.parametrize("mu", ALL_NAMED, ids=lambda m: m.key())
    def test_matches_central_difference(self, mu):
        # relative agreement with a finite difference of evaluate at 100
        # log-spaced interior points
        s = np.logspace(-6, np.log10(0.8 * mu.domain_cap), 100)
        h = 1e-7 * s
        fd = (mu.evaluate(s + h) - mu.evaluate(s - h)) / (2 * h)
        an = mu.derivative(s)
        assert np.max(np.abs(an - fd) / np.maximum(np.abs(fd), 1e-12)) < 1e-6


class TestAxioms:
    def test_hoelder_passes(self):
        assert check_modulus_axioms(ModulusSpec.hoelder(0.5)).all_pass

    def test_lipschitz_passes(self):
        assert check_modulus_axioms(ModulusSpec.lipschitz()).all_pass

    def test_log_lip_passes(self):
        assert check_modulus_axioms(ModulusSpec.log_lip()).all_pass

    @pytest.mark.parametrize("mu", ALL_NAMED, ids=lambda m: m.key())
    def test_all_pass_on_axiom_domain(self, mu):
        assert check_modulus_axioms(_with_axiom_cap(mu)).all_pass

    def test_nonmonotone_table_fails(self):
        mu = ModulusSpec.tabulated([(0.0, 0.0), (0.5, 1.0), (1.0, 0.5)])
        report = check_modulus_axioms(mu)
        assert not report.nondecreasing
        lo, hi = report.worst_monotone_pair
        assert 0.5 <= hi <= 1.0

    def test_report_always_produced(self):
        report = check_modulus_axioms(ModulusSpec.log_power(1.0))
        assert isinstance(report, AxiomReport)

    def test_sample_count_validated(self):
        with pytest.raises(ParameterError):
            check_modulus_axioms(ModulusSpec.lipschitz(), sample_count=2)


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

    def test_tabulated_from_csv(self, tmp_path):
        path = tmp_path / "mu.csv"
        path.write_text("0.0,0.0\n0.5,0.4\n1.0,0.6\n")
        mu = ModulusSpec.from_key(f"tabulated:{path}")
        assert mu.evaluate(0.25) == pytest.approx(0.2)
