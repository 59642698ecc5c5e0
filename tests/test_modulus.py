import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from sigmaevo import analysis, modulus
from sigmaevo.errors import DomainError, ParameterError
from sigmaevo.cli import main
from sigmaevo.modulus import (SAMPLE_COUNT, AxiomReport, ModulusSpec, check_derivative_bound,
                              check_modulus_axioms, classify_integral_criterion,
                              gauss_legendre, psi)

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


ORACLE_CASES = ALL_NAMED + [ModulusSpec.log_log_lip(3),
                            ModulusSpec.tabulated([(0.0, 0.0), (0.25, 0.4), (0.5, 0.6),
                                                   (0.75, 0.7)])]


EVALUATE_POINTS = np.concatenate([[0.0, 5e-324, 1e-310], np.geomspace(1e-300, 10.0, 3011)])
NEGLOG_POINTS = np.concatenate([[0.0], np.geomspace(1e-6, 1e7, 3001)])


def scalar_mismatches(f, points, array_result):
    """The points x at which f(x), x a Python float, is not a 0-d result
    with the bits of the matching element of f's array result."""
    return [x for x, want in zip(points.tolist(), array_result)
            if np.ndim(got := f(x)) != 0 or np.asarray(got).tobytes() != want.tobytes()]


class TestOneClosedForm:
    """evaluate and evaluate_neglog against the paths they replaced; a
    scalar goes through the array path, so it gets its element's bits."""

    @pytest.mark.parametrize("mu", ORACLE_CASES, ids=lambda m: m.key())
    def test_evaluate_bit_identical(self, mu):
        s = EVALUATE_POINTS
        got = mu.evaluate(s)
        assert np.array_equal(got, replaced_evaluate(mu, s))
        assert scalar_mismatches(mu.evaluate, s, got) == []

    @pytest.mark.parametrize("mu", ORACLE_CASES, ids=lambda m: m.key())
    def test_evaluate_neglog_bit_identical(self, mu):
        t = NEGLOG_POINTS
        got = mu.evaluate_neglog(t)
        assert np.array_equal(got, replaced_evaluate_neglog(mu, t))
        assert scalar_mismatches(mu.evaluate_neglog, t, got) == []

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("mu", ORACLE_CASES, ids=lambda m: m.key())
    def test_psi_scalar_is_its_array_element(self, mu, p):
        s = EVALUATE_POINTS
        assert scalar_mismatches(lambda x: psi(x, p, mu), s, psi(s, p, mu)) == []


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

    @pytest.mark.parametrize("mu", ORACLE_CASES, ids=lambda m: m.key())
    def test_negative_neglog_argument_rejected(self, mu):
        with pytest.raises(DomainError, match="t >= 0"):
            mu.evaluate_neglog(np.array([1.0, -1e-300]))

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


def sample_points(mu: ModulusSpec) -> np.ndarray:
    """The log-spaced sample of (0, domain_cap] that the slope bound reads."""
    cap = mu.domain_cap
    return np.logspace(np.log10(cap) - 8, np.log10(cap), SAMPLE_COUNT)


def closed_form_derivative(mu: ModulusSpec, s: np.ndarray) -> np.ndarray:
    """mu'(s) for 0 < s <= 1 by each named family's own formula: the
    per-family path that the slope bound's difference of evaluate replaced."""
    if mu.family == "lipschitz":
        return np.ones_like(s)
    if mu.family == "hoelder":
        return mu.alpha * s ** (mu.alpha - 1.0)
    lg = -np.log(s)
    ell = lg + 1.0
    if mu.family == "log-lip":
        return lg
    if mu.family == "log-log-lip":
        # d/ds [s ell L_m] = L_m lg - ell / (L_1 ... L_{m-1}), L_1 = ell
        level, prefix = ell, 1.0
        for _ in range(mu.order - 1):
            prefix = prefix * level
            level = np.log(level) + 1.0
        return level * lg - ell / prefix
    return mu.alpha * ell ** (-mu.alpha - 1.0) / s   # log-power


def segment_slope_bound(mu: ModulusSpec) -> float:
    """The slope bound of a table, exactly: at each sample s, mu' is the slope
    of the segment that ends at or above s (0 past the last knot)."""
    xs, ys = np.array(mu.table).T
    s = sample_points(mu)
    right = np.searchsorted(xs, s)   # xs[right - 1] < s <= xs[right]
    slopes = np.append(np.diff(ys) / np.diff(xs), 0.0)
    vals = np.interp(s, xs, ys)
    ok = vals > 0.0
    return float(np.max(s[ok] * slopes[right - 1][ok] / vals[ok]))


# mu-classify's stdout for each named key, as the per-family derivative gave it
MU_CLASSIFY_STDOUT = {
    "lipschitz": (
        "modulus lipschitz\n"
        "  axioms: zero_at_zero=True nondecreasing=True midpoint_concave=True finite=True\n"
        "  slope-bound supremum s*mu'/mu: 1\n"
        "  criterion (c0=2.71828, mode=both): convergent\n"
        "  criterion (c0=10, mode=both): convergent\n"
        "  criterion (c0=100, mode=both): convergent\n"
        "verdict: convergent\n"),
    "log-lip": (
        "modulus log-lip\n"
        "  axioms: zero_at_zero=True nondecreasing=True midpoint_concave=True finite=True\n"
        "  slope-bound supremum s*mu'/mu: 0.948508\n"
        "  criterion (c0=2.71828, mode=both): convergent\n"
        "  criterion (c0=10, mode=both): convergent\n"
        "  criterion (c0=100, mode=both): convergent\n"
        "verdict: convergent\n"),
    "log-log-lip:1": (
        "modulus log-log-lip:1\n"
        "  axioms: zero_at_zero=True nondecreasing=False midpoint_concave=True finite=True\n"
        "  slope-bound supremum s*mu'/mu: 0.897017\n"
        "  criterion (c0=2.71828, mode=both): convergent\n"
        "  criterion (c0=10, mode=both): convergent\n"
        "  criterion (c0=100, mode=both): convergent\n"
        "verdict: convergent\n"),
    "log-log-lip:2": (
        "modulus log-log-lip:2\n"
        "  axioms: zero_at_zero=True nondecreasing=False midpoint_concave=True finite=True\n"
        "  slope-bound supremum s*mu'/mu: 0.935526\n"
        "  criterion (c0=2.71828, mode=both): convergent\n"
        "  criterion (c0=10, mode=both): convergent\n"
        "  criterion (c0=100, mode=both): convergent\n"
        "verdict: convergent\n"),
    "log-log-lip:3": (
        "modulus log-log-lip:3\n"
        "  axioms: zero_at_zero=True nondecreasing=False midpoint_concave=True finite=True\n"
        "  slope-bound supremum s*mu'/mu: 0.943049\n"
        "  criterion (c0=2.71828, mode=both): convergent\n"
        "  criterion (c0=10, mode=both): convergent\n"
        "  criterion (c0=100, mode=both): convergent\n"
        "verdict: convergent\n"),
    "hoelder:0.25": (
        "modulus hoelder:0.25\n"
        "  axioms: zero_at_zero=True nondecreasing=True midpoint_concave=True finite=True\n"
        "  slope-bound supremum s*mu'/mu: 0.25\n"
        "  criterion (c0=2.71828, mode=both): convergent\n"
        "  criterion (c0=10, mode=both): convergent\n"
        "  criterion (c0=100, mode=both): convergent\n"
        "verdict: convergent\n"),
    "hoelder:0.5": (
        "modulus hoelder:0.5\n"
        "  axioms: zero_at_zero=True nondecreasing=True midpoint_concave=True finite=True\n"
        "  slope-bound supremum s*mu'/mu: 0.5\n"
        "  criterion (c0=2.71828, mode=both): convergent\n"
        "  criterion (c0=10, mode=both): convergent\n"
        "  criterion (c0=100, mode=both): convergent\n"
        "verdict: convergent\n"),
    "hoelder:0.9": (
        "modulus hoelder:0.9\n"
        "  axioms: zero_at_zero=True nondecreasing=True midpoint_concave=True finite=True\n"
        "  slope-bound supremum s*mu'/mu: 0.9\n"
        "  criterion (c0=2.71828, mode=both): convergent\n"
        "  criterion (c0=10, mode=both): convergent\n"
        "  criterion (c0=100, mode=both): convergent\n"
        "verdict: convergent\n"),
    "log-power:0.5": (
        "modulus log-power:0.5\n"
        "  axioms: zero_at_zero=True nondecreasing=True midpoint_concave=False finite=True\n"
        "  slope-bound supremum s*mu'/mu: 0.5\n"
        "  criterion (c0=2.71828, mode=both): divergent\n"
        "  criterion (c0=10, mode=both): divergent\n"
        "  criterion (c0=100, mode=both): divergent\n"
        "verdict: divergent\n"),
    "log-power:1": (
        "modulus log-power:1\n"
        "  axioms: zero_at_zero=True nondecreasing=True midpoint_concave=False finite=True\n"
        "  slope-bound supremum s*mu'/mu: 1\n"
        "  criterion (c0=2.71828, mode=both): divergent\n"
        "  criterion (c0=10, mode=both): divergent\n"
        "  criterion (c0=100, mode=both): divergent\n"
        "verdict: divergent\n"),
    "log-power:2": (
        "modulus log-power:2\n"
        "  axioms: zero_at_zero=True nondecreasing=True midpoint_concave=False finite=True\n"
        "  slope-bound supremum s*mu'/mu: 2\n"
        "  criterion (c0=2.71828, mode=both): convergent\n"
        "  criterion (c0=10, mode=both): convergent\n"
        "  criterion (c0=100, mode=both): convergent\n"
        "verdict: convergent\n"),
}


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

    @pytest.mark.parametrize("mu", [mu for mu in ORACLE_CASES if mu.family != "tabulated"],
                             ids=lambda m: m.key())
    def test_matches_closed_form_derivative(self, mu):
        s = sample_points(mu)
        want = np.max(s * closed_form_derivative(mu, s) / mu.evaluate(s))
        assert check_derivative_bound(mu) == pytest.approx(want, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("mu", ORACLE_CASES, ids=lambda m: m.key())
    def test_reads_no_point_above_the_cap(self, mu, monkeypatch):
        # the backward stencil stays in (0, domain_cap], where every closed
        # form and every table is defined, and below each of its samples
        seen = []
        evaluate = ModulusSpec.evaluate
        monkeypatch.setattr(ModulusSpec, "evaluate",
                            lambda self, s: seen.append(np.array(s)) or evaluate(self, s))
        check_derivative_bound(mu)
        (args,) = seen
        assert np.all(args > 0.0) and np.all(args <= mu.domain_cap)
        assert np.all(args[1:] < args[:-1])

    def test_table_with_close_knots_is_exact(self):
        # a central difference 1e-6 wide once read 0.96563 here: its steps
        # reached across the knots at 1e-7 and 1e-3
        mu = ModulusSpec.tabulated([(0.0, 0.0), (1e-7, 0.01), (1e-3, 0.3), (1.0, 1.0)])
        assert segment_slope_bound(mu) == 1.0
        assert check_derivative_bound(mu) == pytest.approx(1.0, rel=1e-8, abs=0.0)

    def test_random_tables_are_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            knots = np.sort(10.0 ** rng.uniform(-8.0, math.log10(2.0), rng.integers(1, 7)))
            values = np.cumsum(rng.uniform(0.01, 1.0, knots.size))
            mu = ModulusSpec.tabulated([(0.0, 0.0), *zip(knots, values)])
            assert check_derivative_bound(mu) == pytest.approx(segment_slope_bound(mu),
                                                               rel=1e-8, abs=0.0), mu.table

    @pytest.mark.parametrize("key", list(MU_CLASSIFY_STDOUT))
    def test_mu_classify_stdout_unchanged(self, key, capsys):
        assert main(["mu-classify", key]) == 0
        assert capsys.readouterr().out == MU_CLASSIFY_STDOUT[key]


def quad_increments(mu: ModulusSpec, c0: float) -> np.ndarray:
    """The doubling increments of the tail criterion by scipy's adaptive quad:
    the oracle of the fixed Gauss-Legendre rule the criterion sums."""
    edges = math.log(c0) * 2.0 ** np.arange(21)
    return np.array([max(quad(mu.evaluate_neglog, a, b, limit=200, epsabs=1e-14,
                              epsrel=1e-10)[0], 0.0)
                     for a, b in zip(edges[:-1], edges[1:])])


class Steps:
    """A stand-in modulus whose integrand in t is constant on each doubling
    interval [a, 2a], at increment / a: the criterion, run on it, gives the
    verdict it reaches from the given increments."""

    def __init__(self, increments: np.ndarray, c0: float):
        self.increments, self.t0 = increments, math.log(c0)

    def evaluate_neglog(self, t):
        k = np.floor(np.log2(t / self.t0)).astype(int)
        return self.increments[k] / (self.t0 * 2.0 ** k)


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [1, 2, 5, 20, 40])
    def test_matches_numpy_leggauss(self, n):
        # numpy's rule takes its nodes from a LAPACK eigensolve
        nodes, weights = gauss_legendre(n)
        want_nodes, want_weights = np.polynomial.legendre.leggauss(n)
        np.testing.assert_allclose(nodes, want_nodes, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(weights, want_weights, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_exact_to_degree_2n_minus_1(self, n):
        nodes, weights = gauss_legendre(n)
        moments = [float(np.sum(weights * nodes ** k)) for k in range(2 * n + 1)]
        exact = [2.0 / (k + 1) if k % 2 == 0 else 0.0 for k in range(2 * n + 1)]
        np.testing.assert_allclose(moments[:-1], exact[:-1], rtol=0.0, atol=1e-14)
        # x^(2n) is off by the rule's error constant 2^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^2)
        error = 2.0 ** (2 * n + 1) * math.factorial(n) ** 4 / (
            (2 * n + 1) * math.factorial(2 * n) ** 2)
        assert exact[-1] - moments[-1] == pytest.approx(error, rel=1e-3)


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

    @pytest.mark.parametrize("c0", [math.e, 10.0, 100.0])
    @pytest.mark.parametrize("key", CONVERGENT + DIVERGENT + [
        "log-log-lip:3", "log-power:1.05", "log-power:1.1", "log-power:1.5", "log-power:3"])
    def test_increments_match_adaptive_quadrature(self, key, c0):
        # the doubling increments were once scipy's adaptive quad
        mu = ModulusSpec.from_key(key)
        got = classify_integral_criterion(mu, c0, "numeric")
        want = quad_increments(mu, c0)
        live = want > 1e-14 * max(np.sum(want), 1.0)
        assert np.sum(live) >= 3
        np.testing.assert_allclose(np.array(got.evidence["increments"])[live], want[live],
                                   rtol=1e-10, atol=0.0)
        oracle = classify_integral_criterion(Steps(want, c0), c0, "numeric")
        np.testing.assert_allclose(oracle.evidence["increments"], want, rtol=1e-14, atol=0.0)
        assert got.verdict == oracle.verdict

    @pytest.mark.parametrize("table", [
        [(0.0, 0.0), (0.01, 0.05), (0.1, 0.2), (0.5, 0.4), (1.0, 0.5)],
        [(0.0, 0.0), (0.001, 0.01), (0.02, 0.05), (0.3, 0.3), (0.6, 0.45), (1.0, 0.5)],
    ])
    @pytest.mark.parametrize("c0", [math.e, 10.0, 100.0])
    def test_tabulated_verdict_matches_adaptive_quadrature(self, table, c0):
        # the interpolant's kinks cost the fixed rule digits, not the verdict
        mu = ModulusSpec.tabulated(table)
        got = classify_integral_criterion(mu, c0, "numeric")
        want = quad_increments(mu, c0)
        np.testing.assert_allclose(got.evidence["increments"], want, rtol=1e-4, atol=1e-14)
        assert got.verdict == classify_integral_criterion(Steps(want, c0), c0, "numeric").verdict

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

    def test_both_mode_conflict_is_inconclusive(self, monkeypatch):
        # no named family's two verdicts disagree, so the numeric one is replaced
        monkeypatch.setattr(modulus, "_classify_numeric",
                            lambda mu, c0: modulus.CriterionVerdict("divergent", {"c0": c0}))
        verdict = classify_integral_criterion(ModulusSpec.hoelder(0.5), mode="both")
        assert verdict.verdict == "inconclusive"
        assert verdict.evidence == {"c0": math.e, "analytic": "convergent",
                                    "conflict": ("convergent", "divergent")}

    @pytest.mark.parametrize("mode", ["exact", "", "Both"])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(ParameterError, match="mode must be"):
            classify_integral_criterion(ModulusSpec.lipschitz(), mode=mode)


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
                                     "log-lip:3", "foo:1"])
    def test_bad_key_named(self, key):
        with pytest.raises(ParameterError, match=re.escape(repr(key))):
            ModulusSpec.from_key(key)

    @pytest.mark.parametrize("cap", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_domain_cap_rejected(self, cap):
        with pytest.raises(ParameterError, match="domain_cap"):
            ModulusSpec.from_key("lipschitz", domain_cap=cap)

    def test_unknown_family_rejected(self):
        with pytest.raises(ParameterError, match="unknown modulus family 'foo'"):
            ModulusSpec("foo")

    @pytest.mark.parametrize("table,match", [
        ([(0.0, 0.0)], "at least two sample points"),
        ([(0.0, 0.0), (0.5, 0.4), (0.25, 0.3)], "start at 0 and be sorted"),
        ([(0.1, 0.0), (0.5, 0.4)], "start at 0 and be sorted"),
        ([(0.0, 0.1), (0.5, 0.4)], re.escape("mu(0) = 0")),
    ])
    def test_bad_table_rejected(self, table, match):
        with pytest.raises(ParameterError, match=match):
            ModulusSpec.tabulated(table)

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
