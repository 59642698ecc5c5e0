import math
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from sigmaevo.errors import GridMismatchError, ParameterError
from sigmaevo.params import EquationParams
from sigmaevo.solver import simulate_linear
from sigmaevo.spectral import (MAX_CELLS, GridSpec, MultiplierCache, Propagator,
                               characteristic_roots, fractional_symbol,
                               mode_coefficients, plancherel_sum, propagator_multipliers,
                               read_field, spectral_l2, sup_abs, sup_bound, synthesize,
                               wrap_time, write_field)


def coords(grid):
    """The grid's coordinate arrays, one per axis (meshgrid, ij indexing)."""
    return np.meshgrid(*[grid.axis()] * grid.n, indexing="ij")


def energy(uh, uth, grid, sigma):
    """E = ||u_t||_L2^2 + || |D|^sigma u ||_L2^2, squared back from two
    spectral_l2 roots: the column-by-column form the norm row's energy
    (a sum of squared Plancherel sums) is checked against."""
    return spectral_l2(uth, grid) ** 2 + spectral_l2(uh, grid, sigma) ** 2


def oracle_multipliers(t, xi, sigma, delta, rtol=1e-12):
    """Independent route: adaptive integration of the per-mode ODE."""
    b = 1.0 if delta == 0 else (xi ** (2 * delta) if xi > 0 else 0.0)
    c = xi ** (2 * sigma) if xi > 0 else 0.0

    def rhs(_, y):
        return [y[1], -b * y[1] - c * y[0]]

    if t == 0:
        return 1.0, 0.0
    s0 = solve_ivp(rhs, [0, t], [1, 0], rtol=rtol, atol=1e-15, method="DOP853")
    s1 = solve_ivp(rhs, [0, t], [0, 1], rtol=rtol, atol=1e-15, method="DOP853")
    return s0.y[0][-1], s1.y[0][-1]


def linear_evolve(u0, u1, t, params, grid):
    """(u, u_t) of the exact linear flow at time t, from one-sample runs."""
    traj = simulate_linear(u0, u1, params, [t], grid, store_fields=True)
    return traj.snapshots_u[0], traj.snapshots_ut[0]


def complex_root_multipliers(t, lam_p, lam_m):
    """The complex-root multiplier kernel the real closed forms replaced.

    K1 = t exp(lam_m t) E(x), K0 = exp(lam_m t) (1 - lam_m t E(x)) with
    E(x) = (exp(x) - 1)/x and x = (lam_p - lam_m) t; E by series for
    |x| < 1e-4, through separate exponentials otherwise.
    """
    lam_p = np.asarray(lam_p, dtype=complex)
    lam_m = np.asarray(lam_m, dtype=complex)
    x = (lam_p - lam_m) * t
    small = np.abs(x) < 1e-4

    K0 = np.empty(lam_p.shape, dtype=complex)
    K1 = np.empty(lam_p.shape, dtype=complex)
    if np.any(small):
        xs = x[small]
        E = 1.0 + xs / 2.0 + xs * xs / 6.0 + xs * xs * xs / 24.0
        eLm = np.exp(lam_m[small] * t)
        K1[small] = t * eLm * E
        K0[small] = eLm * (1.0 - lam_m[small] * t * E)
    big = ~small
    if np.any(big):
        ep = np.exp(lam_p[big] * t)
        em = np.exp(lam_m[big] * t)
        dl = lam_p[big] - lam_m[big]
        K1[big] = (ep - em) / dl
        K0[big] = (lam_p[big] * em - lam_m[big] * ep) / dl
    return K0, K1


def replaced_characteristic_roots(xi_mag, sigma, delta):
    """The complex construction of the roots that the real form per shell
    replaced: lam_plus from c / lam_minus on real roots, (-b +- i sqrt(-disc)) / 2
    otherwise."""
    xisq = np.asarray(xi_mag, dtype=float) ** 2
    b = fractional_symbol(xisq, 2.0 * delta)
    c = fractional_symbol(xisq, 2.0 * sigma)
    disc = b * b - 4.0 * c
    lam_p = np.empty(np.shape(disc), dtype=complex)
    lam_m = np.empty(np.shape(disc), dtype=complex)
    real = disc >= 0.0
    if np.any(real):
        sq = np.sqrt(np.where(real, disc, 0.0))
        lm = -0.5 * (b + sq)
        with np.errstate(divide="ignore", invalid="ignore"):
            lp = np.where(lm != 0.0, c / np.where(lm != 0.0, lm, 1.0), 0.0)
        lam_m[real] = lm[real]
        lam_p[real] = lp[real]
    osc = ~real
    if np.any(osc):
        sq = np.sqrt(np.where(osc, -disc, 0.0))
        lam_p[osc] = (-b[osc] + 1j * sq[osc]) / 2.0
        lam_m[osc] = (-b[osc] - 1j * sq[osc]) / 2.0
    if np.isscalar(xi_mag) or np.ndim(xi_mag) == 0:
        return complex(lam_p), complex(lam_m)
    return lam_p, lam_m


def replaced_propagator_multipliers(t, xi_mag, sigma, delta):
    """The replaced multiplier path: complex roots on every mode, read back
    into alpha, omega, lam_plus and the root gap, then the real kernel."""
    xi = np.asarray(xi_mag, dtype=float)
    lam_p, lam_m = replaced_characteristic_roots(xi.ravel(), sigma, delta)
    alpha, omega = lam_p.real, lam_p.imag
    with np.errstate(divide="ignore"):
        inv_omega = np.where(omega > 0.0, 1.0 / omega, 0.0)
    od = np.flatnonzero(omega <= 0.0)
    e = np.exp(alpha * t)
    K1 = e * np.sin(omega * t) * inv_omega
    K0 = e * np.cos(omega * t) - alpha * K1
    lam, x = alpha[od], (lam_p - lam_m).real[od] * t
    quot = np.where(x > 0.0, -np.expm1(-x) / np.where(x > 0.0, x, 1.0), 1.0)
    ep = np.exp(lam * t)
    K1[od] = t * ep * quot
    K0[od] = ep - lam * K1[od]
    if xi.ndim == 0:
        return float(K0[0]), float(K1[0])
    return K0.reshape(xi.shape), K1.reshape(xi.shape)


def per_mode(cache):
    """The same real form with one entry per mode: each shell's roots copied
    onto its modes, so the kernel runs on every mode instead of once per shell."""
    s = cache.shell.ravel()
    od_of = np.full(cache.c.size, -1)
    od_of[cache.od] = np.arange(cache.od.size)
    od = np.flatnonzero(od_of[s] >= 0)
    j = od_of[s[od]]
    return MultiplierCache(np.arange(s.size).reshape(cache.shell.shape), cache.c[s],
                           cache.alpha[s], cache.omega[s], cache.inv_omega[s], od,
                           cache.od_lam[j], cache.od_low[j])


class TestGrid:
    def test_power_of_two_required(self):
        with pytest.raises(ParameterError):
            GridSpec(1, 100, 1.0)

    def test_cell_count_bounded(self):
        # N = 2**40 once ended in numpy's MemoryError at the first field;
        # the check reads N and n only, and allocates nothing
        assert GridSpec(2, 2 ** 12, 1.0).shape == (2 ** 12,) * 2    # MAX_CELLS
        assert GridSpec(3, 2 ** 8, 1.0).N ** 3 == MAX_CELLS
        with pytest.raises(ParameterError, match=re.escape(
                "grid.N = 8192 in 2D gives 67108864 cells, 536870912 bytes per field; "
                "a field may have at most 16777216 cells (134217728 bytes)")):
            GridSpec(2, 2 ** 13, 1.0)
        with pytest.raises(ParameterError, match=re.escape(
                f"grid.N = {2 ** 40} in 1D gives {2 ** 40} cells, {8 * 2 ** 40} bytes")):
            GridSpec(1, np.int64(2 ** 40), 1.0)

    def test_cell_volume(self):
        g = GridSpec(2, 8, 2.0)
        assert g.cell_volume == pytest.approx((4.0 / 8) ** 2)

    def test_frequencies(self):
        # half spectrum: k = 0..N/2, xi_k = (pi / L) k, Nyquist last
        g = GridSpec(1, 8, 2.0)
        xi = np.sqrt(g.xi_squared())
        assert xi[0] == 0.0
        assert xi[1] == pytest.approx(math.pi / 2.0)
        assert xi[-1] == pytest.approx(math.pi / 2.0 * 4)

    def test_roundtrip_identity(self):
        g = GridSpec(2, 32, 3.0)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(g.shape)
        v = g.ifft(g.fft(u))
        assert np.max(np.abs(u - v)) < 1e-12 * np.max(np.abs(u))

    @pytest.mark.parametrize("center", [0.0, 0.7, -1.3])
    @pytest.mark.parametrize("L", [1.0, 3.7, 200.0])
    @pytest.mark.parametrize("n,N", [(1, 4), (1, 256), (2, 4), (2, 64), (3, 4), (3, 16)])
    def test_radius_equals_the_meshgrid_radius(self, n, N, L, center):
        # radius broadcasts each axis's term; the bits are those of the sum
        # over meshgrid coordinates, axis by axis
        g = GridSpec(n, N, L)
        assert g.radius(center).tobytes() == \
            np.sqrt(sum((c - center) ** 2 for c in coords(g))).tobytes()

    @pytest.mark.parametrize("values", [[-3.5, 1.0, 2.0], [-0.0, -0.0], [0.5, np.nan, -1.0],
                                        [1.0, -np.inf], [1e-310, -2e-310]])
    def test_sup_abs_is_max_abs(self, values):
        u = np.array(values)
        want = float(np.max(np.abs(u)))
        got = sup_abs(u)
        assert type(got) is float and (got == want or math.isnan(got) and math.isnan(want))
        assert math.copysign(1.0, got) == 1.0

    def test_field_shape_checked(self):
        g = GridSpec(1, 16, 1.0)
        with pytest.raises(GridMismatchError):
            g.fft(np.zeros(8))


class TestRoots:
    def test_zero_mode_double_root(self):
        assert characteristic_roots(0.0, 2, 1) == (0.0, 0.0)

    def test_unit_mode_frictional(self):
        lp, lm = characteristic_roots(1.0, 1, 0)
        assert lp == pytest.approx((-1 + 1j * math.sqrt(3)) / 2)
        assert lm == pytest.approx((-1 - 1j * math.sqrt(3)) / 2)

    def test_quadratic_formula_case(self):
        lp, lm = characteristic_roots(2.0, 1, 0.5)
        assert lp == pytest.approx(-1 + 1j * math.sqrt(3))
        assert lm == pytest.approx(-1 - 1j * math.sqrt(3))

    def test_exact_double_root(self):
        # frictional case coalesces at |xi| = 1/2
        lp, lm = characteristic_roots(0.5, 1, 0)
        assert lp == pytest.approx(-0.5)
        assert lm == pytest.approx(-0.5)

    def test_vieta_residuals(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            sigma = rng.uniform(1, 3)
            delta = rng.uniform(0, sigma / 2)
            xisq = GridSpec(1, 128, rng.uniform(1, 50)).xi_squared()
            lam_plus, lam_minus = characteristic_roots(np.sqrt(xisq), sigma, delta)
            b = fractional_symbol(xisq, 2.0 * delta)
            c = fractional_symbol(xisq, 2.0 * sigma)
            sum_resid = np.abs(lam_plus + lam_minus + b)
            prod_resid = np.abs(lam_plus * lam_minus - c)
            scale = np.maximum(1.0, np.abs(b) + np.abs(c))
            assert np.max(sum_resid / scale) < 1e-12
            assert np.max(prod_resid / scale) < 1e-12
            assert np.all(lam_plus.real <= 1e-15)
            assert np.all(lam_minus.real <= 1e-15)

    @pytest.mark.parametrize("sigma,delta", [(1, 0), (2, 1), (1.5, 0.3), (1.3, 0.4),
                                             (3, 1.5), (1, 0.5), (2, 0.2), (1.7, 0.6)])
    def test_real_form_matches_replaced_complex_path(self, sigma, delta):
        # the roots per shell in real arithmetic give the replaced complex
        # construction's roots and multipliers bit for bit
        rng = np.random.default_rng(3)
        xis = [np.sqrt(GridSpec(n, N, 20.0).xi_squared()) for n, N in ((1, 256), (2, 64), (3, 32))]
        xis += [rng.uniform(0.0, 10.0, 1000), np.geomspace(1e-8, 1e3, 1000)]
        if 2 * delta != sigma:    # coalescence: |xi|^(4 delta - 2 sigma) = 4
            star = 4.0 ** (1.0 / (4 * delta - 2 * sigma))
            points = [star, np.nextafter(star, 0.0), np.nextafter(star, 10.0),
                      star * (1 - 1e-8), star * (1 + 1e-8)]
            xis.append(np.array(points))
            for x in points:
                assert characteristic_roots(x, sigma, delta) == \
                    replaced_characteristic_roots(x, sigma, delta)
                assert propagator_multipliers(0.7, x, sigma, delta) == \
                    replaced_propagator_multipliers(0.7, x, sigma, delta)
        for xi in xis:
            for got, ref in zip(characteristic_roots(xi, sigma, delta),
                                replaced_characteristic_roots(xi, sigma, delta)):
                assert got.shape == xi.shape and np.array_equal(got, ref)
            for t in (0.0, 1e-6, 0.7, 60.0, 1e3):
                for got, ref in zip(propagator_multipliers(t, xi, sigma, delta),
                                    replaced_propagator_multipliers(t, xi, sigma, delta)):
                    assert np.array_equal(got, ref), f"t={t}"


class TestPropagators:
    def test_initial_conditions_exact(self):
        for xi in (0.0, 0.3, 5.0):
            K0, K1 = propagator_multipliers(0.0, xi, 1.5, 0.5)
            assert K0 == 1.0
            assert K1 == 0.0

    def test_zero_mode_linear_growth(self):
        # with delta > 0 nothing damps the zero mode: K1(t, 0) = t exactly
        for t in (0.1, 1.0, 10.0):
            K0, K1 = propagator_multipliers(t, 0.0, 2, 1)
            assert K0 == pytest.approx(1.0, abs=1e-12)
            assert K1 == pytest.approx(t, abs=1e-12)

    def test_zero_mode_frictional(self):
        # delta = 0 damping acts at xi = 0 too: K1(t, 0) = 1 - exp(-t)
        K0, K1 = propagator_multipliers(2.0, 0.0, 1, 0)
        assert K0 == pytest.approx(1.0, abs=1e-12)
        assert K1 == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12)

    def test_against_ode_oracle(self):
        K0, K1 = propagator_multipliers(1.0, 1.0, 1, 0)
        o0, o1 = oracle_multipliers(1.0, 1.0, 1, 0)
        assert K0.real == pytest.approx(o0, abs=1e-10)
        assert K1.real == pytest.approx(o1, abs=1e-10)

    def test_near_degenerate_series_branch(self):
        # just off the coalescence shell the difference quotient would lose
        # digits; compare against the oracle there
        for xi in (0.5, 0.5 + 1e-7, 0.5 - 1e-7):
            K0, K1 = propagator_multipliers(0.7, xi, 1, 0)
            o0, o1 = oracle_multipliers(0.7, xi, 1, 0, rtol=1e-13)
            assert abs(K0.real - o0) < 1e-10
            assert abs(K1.real - o1) < 1e-10

    def test_derivative_multipliers(self):
        g = GridSpec(1, 64, 5.0)
        cache = MultiplierCache.build(g, 1.3, 0.4)
        dt = 1e-6
        p0 = Propagator.build(cache, 0.5 - dt)
        p1 = Propagator.build(cache, 0.5 + dt)
        pm = Propagator.build(cache, 0.5)
        fd0 = (p1.K0 - p0.K0) / (2 * dt)
        fd1 = (p1.K1 - p0.K1) / (2 * dt)
        assert np.max(np.abs(fd0 - pm.D0)) < 1e-5
        assert np.max(np.abs(fd1 - pm.D1)) < 1e-5

    @pytest.mark.parametrize("sigma,delta", [(1, 0), (2, 1), (1.5, 0.3), (1.3, 0.4),
                                             (3, 1.5), (1, 0.5)])
    def test_real_kernel_matches_complex_roots(self, sigma, delta):
        # the grid resolves |xi| down to pi/20, so (1, 0), (1.5, 0.3) and
        # (1.3, 0.4) have overdamped modes besides the zero mode
        g = GridSpec(2, 64, 20.0)
        xisq = g.xi_squared()
        cache = MultiplierCache.build(g, sigma, delta)
        lam_plus, lam_minus = characteristic_roots(np.sqrt(xisq), sigma, delta)
        b = fractional_symbol(xisq, 2.0 * delta)
        c = fractional_symbol(xisq, 2.0 * sigma)
        for t in (0.0, 1e-6, 0.05, 7.3, 60.0, 1e3):
            prop = Propagator.build(cache, t)
            K0, K1 = complex_root_multipliers(t, lam_plus, lam_minus)
            oracle = {"K0": K0, "K1": K1, "D0": -c * K1, "D1": K0 - b * K1}
            for name, ref in oracle.items():
                got = getattr(prop, name)
                scale = np.max(np.abs(ref))
                assert got.dtype == np.float64
                assert np.all(np.isfinite(got))
                assert np.max(np.abs(ref.imag)) <= 1e-12 * scale
                # relative per mode; the absolute floor of a few roundoffs at
                # the array's scale only matters where K0 or D1 crosses zero
                np.testing.assert_allclose(got, ref.real, rtol=1e-12, atol=1e-15 * scale,
                                           err_msg=f"{name} at t={t}")

    @pytest.mark.parametrize("sigma,delta", [(1, 0), (2, 1), (1.5, 0.3), (1.3, 0.4),
                                             (3, 1.5), (1, 0.5)])
    @pytest.mark.parametrize("n,N", [(1, 256), (2, 64), (3, 32)])
    def test_shells_match_per_mode_kernel(self, n, N, sigma, delta):
        # the multipliers are evaluated once per distinct |xi|^2 and gathered;
        # the oracle evaluates the same kernel on every stored mode
        g = GridSpec(n, N, 20.0)
        xisq = g.xi_squared()
        cache = MultiplierCache.build(g, sigma, delta)
        assert cache.shell.shape == xisq.shape
        assert cache.c.size == len(np.unique(xisq))
        assert cache.c.size < xisq.size if n >= 2 else cache.c.size == xisq.size
        modes = per_mode(cache)
        for t in (0.0, 1e-6, 0.05, 0.2, 7.3, 60.0, 1e3):
            prop = Propagator.build(cache, t)
            ref = Propagator.build(modes, t)
            for name in ("K0", "K1", "D0", "D1"):
                assert np.array_equal(getattr(prop, name), getattr(ref, name)), f"{name} at t={t}"

    @pytest.mark.parametrize("n,N", [(1, 256), (2, 32)])
    def test_d1_on_frictional_zero_mode(self, n, N):
        # delta = 0 damps the zero mode as v'' + v' = 0, so D1 = e^(-t);
        # K0 - b K1 = 1 - (1 - e^(-t)) would leave ~1e-16 once e^(-t) is smaller
        cache = MultiplierCache.build(GridSpec(n, N, 15.0), 1.0, 0.0)
        zero = (0,) * n
        for t in (0.5, 30.0, 300.0, 700.0, 998.0):
            d1 = Propagator.build(cache, t).D1[zero]
            assert d1 == pytest.approx(np.exp(-t), rel=1e-12, abs=0.0), f"t={t}"
        # K0 - b K1 agrees with the closed form away from cancellation
        prop = Propagator.build(cache, 0.5)
        b = fractional_symbol(GridSpec(n, N, 15.0).xi_squared(), 0.0)
        np.testing.assert_allclose(prop.D1, prop.K0 - b * prop.K1,
                                   rtol=1e-13, atol=1e-15)

    def test_multipliers_bounded_in_time(self):
        # damping keeps |K0| and the scaled |K1| bounded uniformly in t
        g = GridSpec(1, 256, 10.0)
        for sigma, delta in ((1.0, 0.0), (2.0, 1.0), (1.5, 0.5)):
            cache = MultiplierCache.build(g, sigma, delta)
            c = cache.c[cache.shell]
            scale = np.sqrt(np.maximum(1.0, c))
            for t in (0.01, 0.1, 1.0, 10.0, 100.0):
                prop = Propagator.build(cache, t)
                nonzero = c > 0   # the xi = 0 mode may grow linearly
                assert np.max(np.abs(prop.K0[nonzero])) < 10.0
                assert np.max((np.abs(prop.K1) * scale)[nonzero]) < 10.0


class TestIntegerShells:
    # A grid's shells are the distinct integer |k|^2 = sum of k_a^2, found by
    # counting.  Grouping the float |xi|^2 with np.unique let rounding split
    # true shells: (5, 0) and (3, 4) fell apart, giving 7,400 shells at 256^2
    # and 4,541 at 64^3 for 5,924 and 1,914 distinct |k|^2.
    CASES = [(1, 64, 5.0, 33), (2, 8, 1e3, None), (2, 64, 3.0, None), (2, 256, 40.0, 5924),
             (3, 16, 0.7, None), (3, 32, 20.0, None), (3, 64, 20.0, 1914)]

    @staticmethod
    def integer_k_squared(n, N):
        """|k|^2 on the half spectrum from a meshgrid of fftfreq's integers."""
        k = np.rint(np.fft.fftfreq(N, 1.0 / N)).astype(int)
        axes = [k] * (n - 1) + [np.abs(k[:N // 2 + 1])]
        return sum(m * m for m in np.meshgrid(*axes, indexing="ij"))

    @pytest.mark.parametrize("n,N,L,count", CASES)
    def test_shells_group_equal_integer_wavenumbers(self, n, N, L, count):
        ksq = self.integer_k_squared(n, N)
        distinct, inverse = np.unique(ksq, return_inverse=True)
        cache = MultiplierCache.build(GridSpec(n, N, L), 1.5, 0.5)
        # both list the shells in ascending |k|^2, so the indices agree
        assert np.array_equal(cache.shell, inverse.reshape(ksq.shape))
        assert cache.c.size == distinct.size
        if count is not None:
            assert distinct.size == count

    @pytest.mark.parametrize("n,N,L,count", CASES)
    def test_xi_squared_matches_the_frequency_sum(self, n, N, L, count):
        # the replaced formula, the sum of squares of 2 pi fftfreq per axis,
        # rounds up to n + 2 times; it and (pi / L)^2 |k|^2 read up to 3.0
        # eps apart (relative), the latter the nearer to the exact value
        g = GridSpec(n, N, L)
        freqs = [np.fft.fftfreq(N, d=g.dx)] * (n - 1) + [np.fft.rfftfreq(N, d=g.dx)]
        ref = sum(m * m for m in np.meshgrid(*[2.0 * np.pi * f for f in freqs], indexing="ij"))
        got = g.xi_squared()
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 4.0 * np.finfo(float).eps * ref)


class TestLinearEvolve:
    def setup_method(self):
        self.grid = GridSpec(1, 256, 20.0)
        self.params = EquationParams(sigma=1, delta=0, m=1, n=1, p=3, r=1)
        x = self.grid.axis()
        self.u0 = np.exp(-x ** 2)

    def test_time_zero_identity(self):
        u, ut = linear_evolve(self.u0, np.zeros_like(self.u0), 0.0, self.params, self.grid)
        assert np.array_equal(u, self.u0) or np.max(np.abs(u - self.u0)) < 1e-14
        assert np.max(np.abs(ut)) < 1e-14

    def test_single_mode_amplitude(self):
        g = GridSpec(1, 128, np.pi)
        u0 = np.cos(g.axis())
        p = self.params
        u, _ = linear_evolve(u0, np.zeros_like(u0), 1.0, p, g)
        K0, _ = propagator_multipliers(1.0, 1.0, p.sigma, p.delta)
        # the evolved field is Re(K0) cos(x) for real data on a single mode
        expected = K0.real * u0
        assert np.max(np.abs(u - expected)) < 1e-12

    def test_mean_growth_with_structural_damping(self):
        p = EquationParams(sigma=2, delta=1, m=1, n=1, p=2, r=2)
        u1 = np.exp(-self.grid.axis() ** 2)
        u, _ = linear_evolve(np.zeros_like(u1), u1, 4.0, p, self.grid)
        assert np.mean(u) == pytest.approx(4.0 * np.mean(u1), rel=1e-12)

    def test_semigroup_property(self):
        u1 = 0.3 * np.exp(-(self.grid.axis() - 2) ** 2)
        a = linear_evolve(self.u0, u1, 0.8, self.params, self.grid)
        b = linear_evolve(*a, 0.7, self.params, self.grid)
        direct = linear_evolve(self.u0, u1, 1.5, self.params, self.grid)
        scale = np.max(np.abs(direct[0]))
        assert np.max(np.abs(b[0] - direct[0])) < 1e-10 * scale
        assert np.max(np.abs(b[1] - direct[1])) < 1e-10 * max(scale, np.max(np.abs(direct[1])))

    def test_energy_dissipation_monotone(self):
        times = np.linspace(0, 5, 41)
        uh0 = self.grid.fft(self.u0)
        uth0 = self.grid.fft(np.zeros_like(self.u0))
        cache = MultiplierCache.build(self.grid, self.params.sigma, self.params.delta)
        es = []
        for t in times:
            uh, uth = Propagator.build(cache, float(t)).apply(uh0, uth0)
            es.append(energy(uh, uth, self.grid, self.params.sigma))
        assert np.all(np.diff(es) <= 1e-12 * es[0])

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            linear_evolve(self.u0[:128], np.zeros(128), 1.0, self.params, self.grid)


class TestFractionalSymbol:
    def test_symbol_zero_mode(self):
        xisq = np.array([0.0, 1.0, 4.0])
        assert fractional_symbol(xisq, 0.0).tolist() == [1.0, 1.0, 1.0]
        assert fractional_symbol(xisq, 3.0)[0] == 0.0


class TestBandLimited:
    def test_real_and_reproducible_across_grids(self):
        rng = np.random.default_rng(3)
        coeffs = mode_coefficients(8, 1, rng)
        g1 = GridSpec(1, 64, 2.0)
        g2 = GridSpec(1, 256, 2.0)
        u1 = synthesize(coeffs, g1)
        u2 = synthesize(coeffs, g2)
        # same continuum field: samples of u2 at u1's points coincide
        assert np.max(np.abs(u2[::4] - u1)) < 1e-10 * max(1.0, np.max(np.abs(u1)))
        assert abs(np.mean(u1)) < 1e-13

    @pytest.mark.parametrize("mean_zero", [True, False])
    @pytest.mark.parametrize("n,N,kmax", [(1, 64, 31), (2, 32, 8), (3, 16, 5)])
    def test_half_spectrum_matches_full_complex_inverse(self, n, N, kmax, mean_zero):
        # the path synthesize replaced: the whole spectrum through ifftn,
        # keeping the real part
        g = GridSpec(n, N, 3.0)
        coeffs = mode_coefficients(kmax, n, np.random.default_rng(n), mean_zero=mean_zero)
        full = np.zeros(g.shape, dtype=complex)
        full[np.ix_(*[np.arange(-kmax, kmax + 1) % N] * n)] = coeffs
        want = np.fft.ifftn(full * N ** n).real
        got = synthesize(coeffs, g)
        assert got.shape == g.shape and got.dtype == float
        assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))


class TestHalfSpectrum:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("column", ["odd", "even", "zero", "nyquist"])
    def test_plancherel_matches_full_spectrum(self, n, column):
        # one real mode whose last-axis index sits in the given half-spectrum
        # column; the other axes carry index 1 (in 1D the zero column is the
        # zero mode, which the negative power drops)
        g = GridSpec(n, 8, 3.0)
        last = {"odd": 3, "even": 2, "zero": 0, "nyquist": g.N // 2}[column]
        k = [1] * (n - 1) + [last]
        phase = sum((math.pi / g.L) * kj * c for kj, c in zip(k, coords(g)))
        u = np.cos(phase + 0.3)
        full = np.fft.fftn(u)
        xi = 2.0 * np.pi * np.fft.fftfreq(g.N, d=g.dx)
        xisq = sum(m * m for m in np.meshgrid(*([xi] * n), indexing="ij"))
        for power in (0.0, 1.0, -0.5):
            w = fractional_symbol(xisq, 2.0 * power)
            expected = math.sqrt(np.sum(w * np.abs(full) ** 2) * g.cell_volume / g.N ** n)
            assert spectral_l2(g.fft(u), g, power) == pytest.approx(expected, rel=1e-13)

    def test_transform_shapes(self):
        g = GridSpec(3, 8, 1.0)
        uh = g.fft(np.zeros(g.shape))
        assert uh.shape == (8, 8, 5)
        assert g.xi_squared().shape == uh.shape
        assert g.dealias_mask().shape == uh.shape

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stack_matches_per_slice(self, n):
        # a (T, *grid.shape) stack goes through the same pair, slice by slice
        g = GridSpec(n, 8, 2.0)
        stack = np.random.default_rng(n).standard_normal((4,) + g.shape)
        spec = g.fft(stack)
        back = g.ifft(spec)
        for k in range(len(stack)):
            one = g.fft(stack[k])
            assert np.allclose(spec[k], one, rtol=0, atol=1e-13)
            assert np.allclose(back[k], g.ifft(one), rtol=0, atol=1e-14)
        assert np.allclose(back, stack, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("shape", [(4, 9), (4, 8, 5), (8, 4), ()])
    def test_wrong_trailing_shape_raises(self, shape):
        g = GridSpec(2, 8, 2.0) if len(shape) == 3 else GridSpec(1, 8, 2.0)
        with pytest.raises(GridMismatchError):
            g.fft(np.zeros(shape))


class TestOutArguments:
    """The transform pair and the multiplier apply with and without ``out``."""

    @staticmethod
    def half_spectrum(g, rng):
        # imaginary parts everywhere, the zero and Nyquist columns included,
        # which irfft does not read
        shape = g.xi_squared().shape
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16), (3, 8)])
    def test_pair_is_numpys_nd_pair_bit_for_bit(self, n, N):
        g = GridSpec(n, N, 3.0)
        rng = np.random.default_rng(n)
        axes = tuple(range(-n, 0))
        u = rng.standard_normal((2,) + g.shape)
        assert g.fft(u).tobytes() == np.fft.rfftn(u, axes=axes).tobytes()
        uh = self.half_spectrum(g, rng)
        kept = uh.copy()
        want = np.fft.irfftn(uh, s=g.shape, axes=axes)
        assert g.ifft(uh).tobytes() == want.tobytes()
        buf = np.empty(g.shape)
        assert g.ifft(uh, out=buf) is buf
        assert buf.tobytes() == want.tobytes()
        assert uh.tobytes() == kept.tobytes()
        spec = np.empty(uh.shape, dtype=complex)
        assert g.fft(u[0], out=spec) is spec
        assert spec.tobytes() == np.fft.rfftn(u[0], axes=axes).tobytes()

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16), (3, 8)])
    def test_sup_bound_holds(self, n, N):
        g = GridSpec(n, N, 3.0)
        rng = np.random.default_rng(10 + n)
        axes = tuple(range(-n, 0))
        scratch = np.empty(g.xi_squared().shape)
        for scale in (1.0, 1e-200, 1e200):
            for _ in range(20):
                uh = scale * self.half_spectrum(g, rng)
                sup = np.max(np.abs(np.fft.irfftn(uh, s=g.shape, axes=axes)))
                bound = sup_bound(uh, g, scratch)
                assert sup <= bound and bound == sup_bound(uh, g)
        # a single mode attains it: the bound is the sup of a plane wave
        uh = np.zeros(g.xi_squared().shape, dtype=complex)
        uh[(1,) * n] = 2.0
        sup = np.max(np.abs(g.ifft(uh)))
        assert sup_bound(uh, g) == pytest.approx(sup, rel=1e-12)
        uh[(0,) * n] = np.nan
        assert math.isnan(sup_bound(uh, g))
        uh[(0,) * n] = np.inf
        assert sup_bound(uh, g) == math.inf

    @staticmethod
    def dot_weight(g, power):
        """|xi|^(2 power) times the Hermitian multiplicity, built here."""
        w = fractional_symbol(g.xi_squared(), 2.0 * power)
        w[..., 1:g.N // 2] *= 2.0
        return w.ravel()

    @pytest.mark.parametrize("n,N", [(1, 4096), (2, 256), (3, 32)])
    def test_sums_match_a_blas_dot(self, n, N):
        # the oracle is the BLAS dot product both sums were once taken with
        g = GridSpec(n, N, 40.0)
        rng = np.random.default_rng(20 + n)
        uh = self.half_spectrum(g, rng)
        abs_sq = uh.real ** 2 + uh.imag ** 2
        scale = g.cell_volume / g.N ** g.n
        for power in (0.0, 0.75, 1.5, 2.0, -0.5):
            want = scale * float(np.dot(self.dot_weight(g, power), abs_sq.ravel()))
            assert plancherel_sum(abs_sq, g, power) == pytest.approx(want, rel=1e-14)
        want = float(np.dot(self.dot_weight(g, 0.0), np.abs(uh).ravel())) / g.N ** g.n
        assert sup_bound(uh, g) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
    def test_fresh_results_are_not_overwritten(self, n, N):
        g = GridSpec(n, N, 3.0)
        rng = np.random.default_rng(20 + n)
        a, b = self.half_spectrum(g, rng), self.half_spectrum(g, rng)
        first = g.ifft(a)
        kept = first.copy()
        g.ifft(b)
        g.ifft(b, out=np.empty(g.shape))
        assert first.tobytes() == kept.tobytes()
        prop = Propagator.build(MultiplierCache.build(g, 1.5, 0.5), 0.3)
        first = prop.apply(a, b)
        kept = [x.copy() for x in first]
        prop.apply(b, a)
        prop.apply(b, a, out=(np.empty_like(a), np.empty_like(a)))
        assert all(x.tobytes() == y.tobytes() for x, y in zip(first, kept))

    def test_apply_out_matches_fresh(self):
        g = GridSpec(2, 16, 3.0)
        rng = np.random.default_rng(3)
        a, b = self.half_spectrum(g, rng), self.half_spectrum(g, rng)
        prop = Propagator.build(MultiplierCache.build(g, 2.0, 0.5), 0.7)
        out = (np.empty_like(a), np.empty_like(a))
        got = prop.apply(a, b, out=out)
        assert got[0] is out[0] and got[1] is out[1]
        for x, y in zip(got, prop.apply(a, b)):
            assert x.tobytes() == y.tobytes()


class TestTwoDimensional:
    def test_gaussian_l1_closed_form(self):
        from sigmaevo.norms import lebesgue_norm
        g = GridSpec(2, 128, 12.0)
        r2 = sum(c * c for c in coords(g))
        u = np.exp(-r2)
        assert lebesgue_norm(u, 1, g) == pytest.approx(np.pi, rel=1e-10)

    def test_plancherel(self):
        from sigmaevo.norms import lebesgue_norm, sobolev_norm
        g = GridSpec(2, 64, 2.0)
        u = synthesize(mode_coefficients(8, 2, np.random.default_rng(1)), g)
        assert sobolev_norm(u, 0, g) == pytest.approx(lebesgue_norm(u, 2, g), rel=1e-10)

    def test_linear_energy_decay(self):
        g = GridSpec(2, 64, 15.0)
        p = EquationParams(sigma=1, delta=0.5, m=1, n=2, p=2, r=1)
        r2 = sum(c * c for c in coords(g))
        u0 = np.exp(-r2)
        uh0 = g.fft(u0)
        uth0 = g.fft(np.zeros_like(u0))
        cache = MultiplierCache.build(g, p.sigma, p.delta)
        es = []
        for t in np.linspace(0, 4, 17):
            uh, uth = Propagator.build(cache, float(t)).apply(uh0, uth0)
            es.append(energy(uh, uth, g, p.sigma))
        assert np.all(np.diff(es) <= 1e-12 * es[0])

    def test_semigroup(self):
        g = GridSpec(2, 32, 8.0)
        p = EquationParams(sigma=2, delta=1, m=1, n=2, p=2, r=2)
        r2 = sum(c * c for c in coords(g))
        u0 = np.exp(-r2)
        u1 = 0.5 * np.exp(-2 * r2)
        a = linear_evolve(u0, u1, 0.6, p, g)
        b = linear_evolve(*a, 0.9, p, g)
        direct = linear_evolve(u0, u1, 1.5, p, g)
        scale = np.max(np.abs(direct[0]))
        assert np.max(np.abs(b[0] - direct[0])) < 1e-10 * scale


class TestFieldIO:
    def test_binary_roundtrip(self, tmp_path):
        g = GridSpec(1, 64, 3.0)
        u = np.exp(-g.axis() ** 2)
        path = tmp_path / "field.bin"
        write_field(path, u, g, time=2.5)
        v, g2, t = read_field(path)
        assert np.array_equal(u, v)
        assert g2 == g
        assert t == 2.5

    @pytest.mark.parametrize("damage", ["truncated", "extended", "foreign-header",
                                        "undecodable-header", "header-missing-key",
                                        "empty"])
    def test_damaged_file_named(self, tmp_path, damage):
        g = GridSpec(1, 64, 3.0)
        path = tmp_path / "field.bin"
        write_field(path, np.exp(-g.axis() ** 2), g, time=2.5)
        data = path.read_bytes()
        header, payload = data.split(b"\n", 1)
        data = {"truncated": data[:-8],
                "extended": data + bytes(8),
                "foreign-header": b"not-a-field n=1 N=64 L=3.0 time=0.0\n" + payload,
                "undecodable-header": b"\xff\xfe" + data,
                "header-missing-key": header.rsplit(b" ", 1)[0] + b"\n" + payload,
                "empty": b""}[damage]
        path.write_bytes(data)
        with pytest.raises(ParameterError, match=re.escape(str(path))):
            read_field(path)


class TestWrapTime:
    def test_far_boundary_is_safe(self):
        g = GridSpec(1, 1024, 200.0)
        u0 = np.exp(-g.axis() ** 2)
        tw = wrap_time(g, 1.0, 0.0, g.fft(u0), support_radius=5.0)
        assert tw > 80.0

    def test_small_torus_wraps_early(self):
        g = GridSpec(1, 256, 5.0)
        u0 = np.exp(-g.axis() ** 2)
        tw = wrap_time(g, 1.0, 0.0, g.fft(u0), support_radius=2.0)
        assert tw < 80.0
