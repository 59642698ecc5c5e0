"""Moduli of continuity and the tail-integral dichotomy.

A modulus of continuity is a continuous, concave, increasing function mu on
[0, c] with mu(0) = 0 (c a small positive constant).  The built-in families,
ordered from most to least regular, are::

    lipschitz          mu(s) = s
    log-lip            mu(s) = s * (log(1/s) + 1)
    log-log-lip:m      mu(s) = s * (log(1/s) + 1) * logm(1/s, m),  m >= 1
    hoelder:a          mu(s) = s**a,                               a in (0, 1)
    log-power:a        mu(s) = (log(1/s) + 1)**(-a),               a > 0

where logm(x, 1) = log(x) + 1 and logm(x, m) = log(logm(x, m-1)) + 1.
A sixth family, ``tabulated``, interpolates user-supplied sample points.

The axioms only constrain behaviour near 0; log-based families lose
monotonicity or concavity when pushed close to s = 1, which is expected and
reported honestly by :func:`check_modulus_axioms`.

What separates bounded ("tame") moduli from the rest is the tail integral

    integral_{C0}^{inf}  mu(1/s) / s  ds,

which either converges or diverges; :func:`classify_integral_criterion`
decides which, analytically for the named families and numerically by
doubling partial integrals in t = log(s), each by the fixed-order
:func:`gauss_legendre` rule.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, ParameterError

FAMILIES = ("lipschitz", "log-lip", "log-log-lip", "hoelder", "log-power", "tabulated")

# Log-based closed forms are only meaningful up to s = 1 (log(1/s) >= 0);
# evaluation holds their s = 1 value beyond it.
_LOG_FAMILIES = ("log-lip", "log-log-lip", "log-power")

_INF = float("inf")


def _power(x: np.ndarray, e: float, out: np.ndarray) -> np.ndarray:
    """x ** e written into ``out``.  A 0-d x takes numpy's scalar power, as a
    scalar call always has: its last bit can differ from the array loop's."""
    if x.ndim == 0:
        out[()] = x[()] ** e
        return out
    return np.power(x, e, out=out)


def _relog(v: np.ndarray, order: int) -> np.ndarray:
    """logm continued from its first level v = log(x) + 1 >= 1, in place."""
    for _ in range(order - 1):
        np.add(np.log(v, out=v), 1.0, out=v)
    return v


@dataclass(frozen=True)
class ModulusSpec:
    """One modulus of continuity: family tag, parameters, axiom interval.

    ``domain_cap`` is the right end of the interval (0, domain_cap] that
    :func:`check_modulus_axioms` and :func:`check_derivative_bound` sample;
    it does not change evaluation.  The closed forms hold on their own range
    and evaluation holds the end value beyond it: mu(1) for the log families,
    the last sample for ``tabulated``.
    """

    family: str
    alpha: Optional[float] = None
    order: Optional[int] = None
    table: Optional[tuple] = None
    domain_cap: float = 1.0

    def __post_init__(self):
        # every check is written so that NaN fails it
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown modulus family {self.family!r}")
        if self.family == "hoelder":
            if self.alpha is None or not 0.0 < self.alpha < 1.0:
                raise ParameterError("hoelder requires alpha in (0, 1)")
        if self.family == "log-power":
            if self.alpha is None or not 0.0 < self.alpha < _INF:
                raise ParameterError("log-power requires a finite alpha > 0")
        if self.family == "log-log-lip":
            if self.order is None or self.order < 1:
                raise ParameterError("log-log-lip requires integer order >= 1")
        if self.family == "tabulated":
            if not self.table or len(self.table) < 2:
                raise ParameterError("tabulated requires at least two sample points")
            if not np.all(np.isfinite(self.table)):
                raise ParameterError("tabulated sample points must be finite")
            xs = [p[0] for p in self.table]
            if xs != sorted(xs) or xs[0] != 0.0:
                raise ParameterError("tabulated sample points must start at 0 and be sorted")
            if abs(self.table[0][1]) > 0.0:
                raise ParameterError("tabulated modulus must have mu(0) = 0")
        if not 0.0 < self.domain_cap < _INF:
            raise ParameterError("domain_cap must be positive and finite")

    # -- constructors -----------------------------------------------------

    @classmethod
    def lipschitz(cls, **kw) -> "ModulusSpec":
        return cls("lipschitz", **kw)

    @classmethod
    def log_lip(cls, **kw) -> "ModulusSpec":
        return cls("log-lip", **kw)

    @classmethod
    def log_log_lip(cls, order: int = 1, **kw) -> "ModulusSpec":
        return cls("log-log-lip", order=order, **kw)

    @classmethod
    def hoelder(cls, alpha: float, **kw) -> "ModulusSpec":
        return cls("hoelder", alpha=alpha, **kw)

    @classmethod
    def log_power(cls, alpha: float, **kw) -> "ModulusSpec":
        return cls("log-power", alpha=alpha, **kw)

    @classmethod
    def tabulated(cls, points, **kw) -> "ModulusSpec":
        return cls("tabulated", table=tuple(tuple(p) for p in points), **kw)

    @classmethod
    def from_key(cls, key: str, **kw) -> "ModulusSpec":
        """Build from a config-file string key.

        Accepted: ``lipschitz``, ``log-lip``, ``log-log-lip:m``,
        ``hoelder:alpha``, ``log-power:alpha``, ``tabulated:<csv path>``.
        A malformed or out-of-range key raises ParameterError naming it.
        """
        name, _, arg = key.partition(":")
        name = name.strip().lower()
        if name == "tabulated":
            try:
                pts = np.loadtxt(arg, delimiter=",", ndmin=2)
            except (OSError, ValueError) as exc:
                raise ParameterError(f"cannot read tabulated modulus file {arg!r}: {exc}") from exc
            if pts.shape[1] != 2:
                raise ParameterError(f"tabulated modulus file {arg!r} has {pts.shape[1]} "
                                     "columns; it needs two (s, mu(s))")
            return cls.tabulated([(float(a), float(b)) for a, b in pts], **kw)
        if name in ("hoelder", "log-power") and not arg:
            raise ParameterError(f"modulus key {key!r} needs an exponent, e.g. '{name}:0.5'")
        if name in ("lipschitz", "log-lip") and arg:
            raise ParameterError(f"modulus key {key!r}: {name} takes no argument")
        try:
            if name == "lipschitz":
                return cls.lipschitz(**kw)
            if name == "log-lip":
                return cls.log_lip(**kw)
            if name == "log-log-lip":
                return cls.log_log_lip(order=int(arg) if arg else 1, **kw)
            if name == "hoelder":
                return cls.hoelder(float(arg), **kw)
            if name == "log-power":
                return cls.log_power(float(arg), **kw)
        except ValueError as exc:   # a bad number, or a ParameterError
            raise ParameterError(f"bad modulus key {key!r}: {exc}") from exc
        raise ParameterError(f"unknown modulus key {key!r}")

    def key(self) -> str:
        if self.family == "hoelder":
            return f"hoelder:{self.alpha}"
        if self.family == "log-power":
            return f"log-power:{self.alpha}"
        if self.family == "log-log-lip":
            return f"log-log-lip:{self.order}"
        return self.family

    # -- evaluation --------------------------------------------------------

    @property
    def _formula_limit(self) -> float:
        if self.family in _LOG_FAMILIES:
            return 1.0
        if self.family == "tabulated":
            return float(self.table[-1][0])
        return _INF

    def _core(self, s: np.ndarray, out: np.ndarray,
              lg: Optional[np.ndarray] = None) -> np.ndarray:
        """The family's closed form on [0, _formula_limit], written into
        ``out`` (an array of s's shape, not s itself); the log families
        overwrite s, which they use as scratch.

        The log families read lg = log(1/s) when given.  Without it they form
        log(1/s) + 1 as 1 - log(max(s, 5e-324)), never through 1/s (which
        overflows for subnormal s): the floor touches s = 0 alone, where
        mu(0) = 0 x finite = 0.  log-power forms 1 - log(s) instead, so that
        mu(0) = (1 - log 0) ** -alpha = inf ** -alpha = 0.  NaN gives NaN.
        """
        if self.family == "lipschitz":
            np.copyto(out, s)
            return out
        if self.family == "hoelder":
            return _power(s, self.alpha, out)
        if self.family == "tabulated":
            xs = np.array([p[0] for p in self.table])
            ys = np.array([p[1] for p in self.table])
            np.copyto(out, np.interp(s, xs, ys))
            return out
        ell = out
        if lg is not None:
            np.add(lg, 1.0, out=ell)
        elif self.family == "log-power":
            with np.errstate(divide="ignore"):
                np.subtract(1.0, np.log(s, out=ell), out=ell)
        else:
            np.subtract(1.0, np.log(np.maximum(s, 5e-324, out=ell), out=ell), out=ell)
        if self.family == "log-power":
            return _power(ell, -self.alpha, out)
        np.add(s, 0.0, out=s)   # -0.0 + 0.0 = +0.0, the sign mu(0) has
        if self.family == "log-lip":
            return np.multiply(s, ell, out=out)
        # s ell L_m, in that order: s ell goes into s, then L_m over ell
        np.multiply(s, ell, out=s)
        return np.multiply(s, _relog(ell, self.order), out=out)

    def evaluate(self, s, out: Optional[np.ndarray] = None,
                 work: Optional[np.ndarray] = None):
        """mu(s) for scalar or array s >= 0; NaN gives NaN.

        For an array s the result is written into ``out``, with ``work`` as
        scratch, when given: two distinct arrays of s's shape, of which only
        ``work`` may be s itself.  s is capped at the closed form's range into
        ``work``, whose contents are undefined afterwards (s's too, when it is
        passed as ``work``).
        """
        arr = np.asarray(s, dtype=float)
        if np.min(arr, initial=0.0) < 0.0:   # no mask; NaN and -0.0 pass
            raise DomainError("modulus argument must be nonnegative")
        capped = np.minimum(arr, self._formula_limit,
                            out=np.empty_like(arr) if work is None else work)
        out = self._core(capped, np.empty_like(arr) if out is None else out)
        if np.isscalar(s) or arr.ndim == 0:
            return float(out)
        return out

    def derivative(self, s):
        """mu'(s) for scalar or array s >= 0.

        An unbounded slope at s = 0 comes back as the float('inf') sentinel
        (every family but lipschitz, whose slope is 1, and tabulated, which
        reports its one-sided difference quotient).  Beyond the closed
        form's range, where evaluation is constant, the slope is 0.
        """
        arr = np.asarray(s, dtype=float)
        if np.any(arr < 0.0):
            raise DomainError("modulus argument must be nonnegative")
        limit = self._formula_limit
        x = np.minimum(arr, limit)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if self.family == "lipschitz":
                d = np.ones_like(x)
            elif self.family == "hoelder":
                d = self.alpha * x ** (self.alpha - 1.0)
            elif self.family == "tabulated":  # central difference of the interpolant
                h = 1e-6 * limit
                lo = np.maximum(x - h, 0.0)
                hi = np.minimum(x + h, limit)
                d = ((self._core(hi, np.empty_like(hi)) - self._core(lo, np.empty_like(lo)))
                     / np.maximum(hi - lo, 1e-300))
            else:
                lg = -np.log(x)
                ell = lg + 1.0
                if self.family == "log-lip":
                    d = lg
                elif self.family == "log-log-lip":
                    # d/ds [s ell L_m] = L_m lg - ell / (L_1 ... L_{m-1}), L_1 = ell
                    level, prefix = ell, 1.0
                    for _ in range(self.order - 1):
                        prefix = prefix * level
                        level = np.log(level) + 1.0
                    d = level * lg - ell / prefix
                else:  # log-power
                    d = self.alpha * ell ** (-self.alpha - 1.0) / x
                d = np.where(x > 0.0, d, _INF)
        out = np.where(arr > limit, 0.0, d)
        if np.isscalar(s) or arr.ndim == 0:
            return float(out)
        return out

    def evaluate_neglog(self, t):
        """mu(exp(-t)) for t >= 0, evaluated without underflow in s.

        This is the integrand of the tail criterion after the substitution
        t = log(s), which the criterion evaluates once, on an array of all
        its quadrature nodes.  The log families read t itself as
        log(1/s), so log-power keeps its tail where exp(-t) flushes to zero
        (t beyond ~745); hoelder forms exp(-alpha t), not exp(-t)**alpha.
        """
        tt = np.asarray(t, dtype=float)
        if np.any(tt < 0.0):
            raise DomainError("evaluate_neglog requires t >= 0")
        if self.family == "hoelder":
            out = np.exp(-self.alpha * tt)
        else:
            out = self._core(np.exp(-tt, out=np.empty_like(tt)), np.empty_like(tt), tt)
        if np.isscalar(t) or tt.ndim == 0:
            return float(out)
        return out


def psi(s, p: float, mu: ModulusSpec, out: Optional[np.ndarray] = None,
        work: Optional[np.ndarray] = None):
    """Psi(s) = s^p mu(s) for scalar or array s >= 0.

    This is the nonlinearity |w|^p mu(|w|) at s = |w| and the weight of the
    blow-up functionals.  For an array s it is written into ``out``, with
    ``work`` as scratch, when given: two distinct arrays of s's shape, neither
    s itself.  mu(s) goes into ``out`` first (mu.evaluate's scratch is
    ``work``), then s^p into ``work``.  np.power is exact at s = 0 for p > 0.
    """
    arr = np.asarray(s, dtype=float)
    if np.isscalar(s) or arr.ndim == 0:
        return float(np.power(arr, p) * mu.evaluate(arr))
    out = mu.evaluate(arr, out, work)
    return np.multiply(np.power(arr, p, out=work), out, out=out)


# -- axiom checking -------------------------------------------------------

# log-spaced sample points of (0, domain_cap] that the axiom and slope checks read
SAMPLE_COUNT = 200


@dataclass(frozen=True)
class AxiomReport:
    zero_at_zero: bool
    nondecreasing: bool
    midpoint_concave: bool
    finite_nonnegative: bool
    worst_monotone_pair: Optional[tuple] = None
    worst_concavity_pair: Optional[tuple] = None


def check_modulus_axioms(mu: ModulusSpec) -> AxiomReport:
    """Sampled check of mu(0)=0, monotonicity and midpoint concavity.

    Evaluates on a log-spaced grid in (0, domain_cap].  Midpoint concavity
    uses mu((a+b)/2) >= (mu(a)+mu(b))/2 - 1e-10 on all sampled pairs, which
    also works for tabulated data where no second derivative exists.
    """
    cap = mu.domain_cap
    grid = np.concatenate([[0.0], np.logspace(np.log10(cap) - 8, np.log10(cap), SAMPLE_COUNT)])
    vals = mu.evaluate(grid)

    zero_ok = vals[0] == 0.0
    finite_ok = bool(np.all(np.isfinite(vals)) and np.all(vals >= 0.0))

    diffs = np.diff(vals)
    mono_ok = bool(np.all(diffs >= -1e-14))
    worst_mono = None
    if not mono_ok:
        i = int(np.argmin(diffs))
        worst_mono = (float(grid[i]), float(grid[i + 1]))

    # all pairs (i < j): compare mu at the exact midpoint
    a = grid[:, None]
    b = grid[None, :]
    mid_vals = mu.evaluate((a + b) / 2.0)
    gap = mid_vals - (vals[:, None] + vals[None, :]) / 2.0
    iu = np.triu_indices(len(grid), k=1)
    gaps = gap[iu]
    conc_ok = bool(np.all(gaps >= -1e-10))
    worst_conc = None
    if not conc_ok:
        k = int(np.argmin(gaps))
        worst_conc = (float(a[iu[0][k], 0]), float(b[0, iu[1][k]]))

    return AxiomReport(zero_ok, mono_ok, conc_ok, finite_ok, worst_mono, worst_conc)


def check_derivative_bound(mu: ModulusSpec) -> float:
    """Supremum of s*mu'(s)/mu(s) over a log-spaced sample of (0, domain_cap].

    The slope condition asks for this ratio to stay bounded; no universal
    threshold exists, so the supremum is returned for the caller to judge.
    Sample points where mu(s) = 0 with s > 0 are excluded (with a warning);
    if every one is, ParameterError.
    """
    cap = mu.domain_cap
    grid = np.logspace(np.log10(cap) - 8, np.log10(cap), SAMPLE_COUNT)
    vals = np.asarray(mu.evaluate(grid))
    dvals = np.asarray(mu.derivative(grid))
    ok = vals > 0.0
    if not np.any(ok):
        raise ParameterError(f"modulus {mu.key()} is 0 at every sample point of "
                             f"(0, {cap:g}]; the slope bound s*mu'/mu is undefined")
    if not np.all(ok):
        warnings.warn(f"{int(np.sum(~ok))} sample points with mu(s)=0 excluded "
                      "from the derivative-bound supremum")
    ratio = grid[ok] * dvals[ok] / vals[ok]
    return float(np.max(ratio))


# -- integral criterion ----------------------------------------------------

@dataclass(frozen=True)
class CriterionVerdict:
    verdict: str                      # "convergent" | "divergent" | "inconclusive"
    method: str                       # "analytic" | "numeric"
    evidence: dict = field(default_factory=dict)


_CONVERGENT = "convergent"
_DIVERGENT = "divergent"
_INCONCLUSIVE = "inconclusive"
_DOUBLINGS = 20
_NODES = 20     # Gauss-Legendre nodes per panel
_PANELS = 8     # equal panels per doubling interval


def gauss_legendre(n: int) -> tuple:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on [-1, 1].

    The rule integrates x^k exactly for every k <= 2n - 1.  The nodes are
    the roots of P_n, found by Newton's iteration from cos(pi (i - 1/4) /
    (n + 1/2)), i = 1..n, with P_n and P_n' from the three-term recurrence, so no
    eigensolve (LAPACK) runs; the weights are 2 / ((1 - x^2) P_n'(x)^2).
    """
    def legendre(x):   # P_n(x) and P_n'(x)
        prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            prev, p = p, ((2 * j - 1) * x * p - (j - 1) * prev) / j
        return p, n * (x * p - prev) / (x * x - 1.0)

    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = legendre(x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:   # convergence is quadratic: x is now at rounding
            break
    x = 0.5 * (x - x[::-1])   # the rule is symmetric about 0
    w = 2.0 / ((1.0 - x * x) * legendre(x)[1] ** 2)
    return x[::-1], (0.5 * (w + w[::-1]))[::-1]


def _classify_analytic(mu: ModulusSpec) -> str:
    if mu.family in ("lipschitz", "log-lip", "log-log-lip", "hoelder"):
        return _CONVERGENT
    if mu.family == "log-power":
        return _CONVERGENT if mu.alpha > 1.0 else _DIVERGENT
    return _INCONCLUSIVE  # tabulated: no closed form to match


def _classify_numeric(mu: ModulusSpec, c0: float) -> CriterionVerdict:
    """Doubling test on partial integrals of mu(1/s)/s.

    In t = log(s) the tail integral is integral of mu(exp(-t)) dt.  Partial
    integrals run to t = 2**k * log(c0), k = 0..20: under this doubling a logarithmically
    divergent tail (log-power alpha=1) yields constant increments, faster
    divergence yields growing ones, and any convergent tail yields increments
    collapsing at a geometric-or-better rate.  Each increment, over [a, 2a],
    sums the 20-point Gauss-Legendre rule on 8 equal panels; the nodes of
    all 20 intervals go through one ``evaluate_neglog`` call.
    """
    a = math.log(c0) * 2.0 ** np.arange(_DOUBLINGS)
    half = a / (2 * _PANELS)   # the half-width of each panel of [a, 2a]
    mids = a[:, None] + (2 * np.arange(_PANELS) + 1) * half[:, None]
    nodes, weights = gauss_legendre(_NODES)
    vals = mu.evaluate_neglog(mids[:, :, None] + half[:, None, None] * nodes)
    inc = np.maximum(half * np.sum(vals * weights, axis=(1, 2)), 0.0)
    total = float(np.sum(inc))
    evidence = {"c0": c0, "doublings": _DOUBLINGS,
                "increments": inc.tolist(), "total": total}

    floor = max(1e-14 * max(total, 1.0), 1e-290)
    live = inc > floor
    if not np.any(live[-3:]):
        # tail increments have vanished: the integral is exhausted
        evidence["fitted_rho"] = 0.0
        return CriterionVerdict(_CONVERGENT, "numeric", evidence)

    tail = inc[-5:]
    if np.all(np.diff(tail) >= -1e-9 * tail[:-1]) and tail[-1] > floor:
        evidence["tail"] = tail.tolist()
        return CriterionVerdict(_DIVERGENT, "numeric", evidence)

    # geometric fit d_k ~ rho**k over the live tail
    ks = np.nonzero(live)[0]
    ks = ks[-10:] if len(ks) > 10 else ks
    if len(ks) >= 3:
        from .analysis import fit_line   # deferred: only this mode fits a line
        slope = fit_line(ks, np.log(inc[ks]))[0]
        rho = float(np.exp(slope))
        evidence["fitted_rho"] = rho
        if rho < 0.95:
            return CriterionVerdict(_CONVERGENT, "numeric", evidence)
    return CriterionVerdict(_INCONCLUSIVE, "numeric", evidence)


def classify_integral_criterion(mu: ModulusSpec, c0: float = math.e,
                                mode: str = "both") -> CriterionVerdict:
    """Decide whether the tail integral of mu(1/s)/s converges.

    ``mode`` is "analytic" (pattern-match the named family), "numeric"
    (doubling partial integrals), or "both" (cross-check; disagreement of two
    definite verdicts downgrades to inconclusive).  Requires a finite c0 >= e
    so that 1/s stays within every family's core domain.
    """
    if not math.e <= c0 < math.inf:   # written so that NaN fails it
        raise ParameterError(f"c0 must be finite and at least e, got {c0}")
    if mode not in ("analytic", "numeric", "both"):
        raise ParameterError("mode must be 'analytic', 'numeric' or 'both'")

    if mode == "analytic":
        return CriterionVerdict(_classify_analytic(mu), "analytic", {"c0": c0})
    if mode == "numeric":
        return _classify_numeric(mu, c0)

    analytic = _classify_analytic(mu)
    numeric = _classify_numeric(mu, c0)
    evidence = dict(numeric.evidence)
    evidence["analytic"] = analytic
    if analytic == _INCONCLUSIVE:
        return CriterionVerdict(numeric.verdict, "numeric", evidence)
    if numeric.verdict == _INCONCLUSIVE or numeric.verdict == analytic:
        return CriterionVerdict(analytic, "analytic", evidence)
    evidence["conflict"] = (analytic, numeric.verdict)
    return CriterionVerdict(_INCONCLUSIVE, "numeric", evidence)
