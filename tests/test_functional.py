import csv
import json
import math

import numpy as np
import pytest

from sigmaevo.cli import load_run, main
from sigmaevo.errors import CoverageError, ParameterError
from sigmaevo.functional import (_BLOCK_BYTES, QuinticProfile, TestFunctionSpec, _Kernel,
                                 compute_G, compute_I_R, compute_J_R, compute_g,
                                 fd_weights, phi_R, phi_star_R, psi, scan,
                                 support_measure, time_derivative)
from sigmaevo.modulus import ModulusSpec
from sigmaevo.params import EquationParams, Target, critical_exponent
from sigmaevo.solver import Trajectory
from sigmaevo.spectral import GridSpec, fractional_symbol


@pytest.fixture
def params():
    return EquationParams(sigma=1, delta=0, m=1, n=1, p=3, r=1)


@pytest.fixture
def spec(params):
    return TestFunctionSpec.for_params(params, [1.0, 2.0, 3.0])


def frozen_trajectory(grid, value=1.0, t_end=4.0, dt=0.02, params=None):
    """Constant-in-time snapshots for quadrature oracles."""
    times = np.arange(0.0, t_end + 0.5 * dt, dt)
    fields = np.full((len(times),) + grid.shape, value)
    return Trajectory(times=times, norms=np.zeros((len(times), 6)),
                      grid=grid, params=params,
                      snapshots_u=fields,
                      snapshots_ut=fields.copy())


def fine_grid_integral(func, R, x_extent=6.0, nx=4001, nt=3001, chunk=256):
    """Independent space-time quadrature on a dense trapezoid lattice."""
    xs = np.linspace(-x_extent, x_extent, nx)
    ts = np.linspace(0.0, R, nt)
    wt = np.full(nt, ts[1] - ts[0])
    wt[0] *= 0.5
    wt[-1] *= 0.5
    acc = np.zeros(nx)
    for i in range(0, nt, chunk):
        tt = ts[i:i + chunk]
        acc += func(xs[:, None], tt[None, :]) @ wt[i:i + chunk]
    return np.trapezoid(acc, xs)


class TestProfile:
    def test_plateaus_and_junctions(self):
        prof = QuinticProfile()
        assert prof.value(0.0) == 1.0
        assert prof.value(0.5) == 1.0
        assert prof.value(1.0) == 0.0
        assert prof.value(2.0) == 0.0
        assert prof.value(0.75) == pytest.approx(0.5)

    def test_decreasing(self):
        prof = QuinticProfile()
        r = np.linspace(0, 1.2, 500)
        assert np.all(np.diff(prof.value(r)) <= 1e-15)

    def test_c2_junctions(self):
        prof = QuinticProfile()
        for r0 in (0.5, 1.0):
            for side in (-1e-9, 1e-9):
                assert prof.d1(r0 + side) == pytest.approx(0.0, abs=1e-7)
                assert prof.d2(r0 + side) == pytest.approx(0.0, abs=1e-4)

    def test_derivatives_match_finite_differences(self):
        prof = QuinticProfile()
        r = np.linspace(0.55, 0.95, 41)
        h = 1e-4   # second difference is round-off limited below this
        fd1 = (prof.value(r + h) - prof.value(r - h)) / (2 * h)
        fd2 = (prof.value(r + h) - 2 * prof.value(r) + prof.value(r - h)) / h ** 2
        assert np.max(np.abs(prof.d1(r) - fd1)) < 1e-6
        assert np.max(np.abs(prof.d2(r) - fd2)) < 1e-4


class TestPhi:
    def test_spec_powers(self, params):
        spec = TestFunctionSpec.for_params(params, [1.0])
        assert spec.power(1) == 3.0
        assert spec.scale_power == 2.0
        put = EquationParams(sigma=2, delta=1, m=1, n=1, p=2, target=Target.ON_UT, r=2)
        sput = TestFunctionSpec.for_params(put, [1.0])
        assert sput.power(1) == 6.0
        assert sput.scale_power == 2.0

    def test_center_value_one(self, spec):
        assert phi_R(0.0, 0.0, 5.0, spec) == 1.0

    def test_boundary_value_zero(self, spec):
        # |x|^2 + t = R sits on the outer junction
        assert phi_R(5.0, 0.0, 5.0, spec) == 0.0
        assert phi_R(1.0, 2.0, 5.0, spec) == 0.0

    def test_quarticle_profile_closed_form(self, spec):
        # scaled argument 0.75 -> profile 1/2 -> phi = (1/2)^power
        assert phi_R(0.75, 0.0, 1.0, spec) == pytest.approx(0.5 ** 3)

    def test_support_exact_zeros(self, spec):
        rng = np.random.default_rng(0)
        t = rng.uniform(0, 10, 200)
        x = rng.uniform(0, 4, 200)
        vals = phi_R(t, x, 3.0, spec)
        outside = (x ** 2 + t) / 3.0 >= 1.0
        assert np.all(vals[outside] == 0.0)
        star = phi_star_R(t, x, 3.0, spec)
        band = ((x ** 2 + t) / 3.0 >= 0.5) & ((x ** 2 + t) / 3.0 < 1.0)
        assert np.all(star[~band & outside] == 0.0)
        assert np.all(star[(x ** 2 + t) / 3.0 < 0.5] == 0.0)
        assert np.all(star[band] > 0.0)

    def test_r_positive(self, spec):
        with pytest.raises(ParameterError):
            phi_R(0.0, 0.0, 0.0, spec)


class TestTimeDerivative:
    def test_exact_on_quartics(self):
        t = np.arange(12) * 0.1
        arr = (t ** 4)[:, None] * np.ones((1, 2))
        d1 = time_derivative(arr, 0.1, 1)
        d2 = time_derivative(arr, 0.1, 2)
        assert np.max(np.abs(d1[:, 0] - 4 * t ** 3)) < 1e-12
        assert np.max(np.abs(d2[:, 0] - 12 * t ** 2)) < 1e-11

    def test_fourth_order_convergence(self):
        errs = []
        for n in (20, 40):
            t = np.linspace(0, 1, n + 1)
            arr = np.sin(3 * t)[:, None]
            d2 = time_derivative(arr, t[1] - t[0], 2)
            errs.append(np.max(np.abs(d2[:, 0] + 9 * np.sin(3 * t))))
        assert errs[0] / errs[1] > 12   # 4th order halving: ~16

    def test_fornberg_weights_central(self):
        w = fd_weights(np.arange(5.0), 2.0, 2)
        assert w == pytest.approx([-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12])

    def test_needs_six_snapshots(self):
        with pytest.raises(CoverageError):
            time_derivative(np.zeros((5, 3)), 0.1, 1)


class TestIR:
    def test_zero_trajectory(self, params, spec):
        grid = GridSpec(1, 256, 6.0)
        traj = frozen_trajectory(grid, value=0.0, params=params)
        assert compute_I_R(traj, ModulusSpec.lipschitz(), 3.0, 2.0, spec) == 0.0

    def test_frozen_unit_field_against_quadrature_oracle(self, params, spec):
        # u = 1 frozen makes the integrand exactly phi_R; an independent
        # fine-lattice quadrature is the oracle
        grid = GridSpec(1, 512, 6.0)
        traj = frozen_trajectory(grid, value=1.0, params=params)
        prof = QuinticProfile()
        R = 3.0
        I = compute_I_R(traj, ModulusSpec.lipschitz(), 3.0, R, spec)
        oracle = fine_grid_integral(lambda x, t: prof.value((x * x + t) / R) ** 3, R)
        assert I == pytest.approx(oracle, rel=1e-4)

    def test_nondecreasing_in_R(self, params, spec):
        grid = GridSpec(1, 256, 6.0)
        traj = frozen_trajectory(grid, value=0.7, params=params)
        mu = ModulusSpec.hoelder(0.5)
        vals = [compute_I_R(traj, mu, 3.0, R, spec) for R in (1.0, 2.0, 3.0)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_coverage_error_names_extent(self, params, spec):
        grid = GridSpec(1, 256, 6.0)
        traj = frozen_trajectory(grid, t_end=1.0, params=params)
        with pytest.raises(CoverageError, match="coverage"):
            compute_I_R(traj, ModulusSpec.lipschitz(), 3.0, 2.5, spec)


class TestJR:
    def test_zero_trajectory(self, params, spec):
        grid = GridSpec(1, 256, 6.0)
        traj = frozen_trajectory(grid, value=0.0, params=params)
        assert compute_J_R(traj, 2.0, spec, params) == 0.0

    def test_frozen_unit_field_against_symbolic_oracle(self, params, spec):
        # n=1, sigma=1, delta=0: all three operator pieces have closed forms
        # through the chain rule on the quintic profile
        grid = GridSpec(1, 1024, 6.0)
        traj = frozen_trajectory(grid, value=1.0, dt=0.01, params=params)
        R = 3.0
        J = compute_J_R(traj, R, spec, params)

        prof = QuinticProfile()
        P = spec.power(1)

        def op(x, t):
            a = (x * x + t) / R
            v, d1, d2 = prof.value(a), prof.d1(a), prof.d2(a)
            safe = np.where(v > 0, v, 1.0)
            phi_tt = (P * (P - 1) * safe ** (P - 2) * d1 ** 2
                      + P * safe ** (P - 1) * d2) / R ** 2
            phi_xx = (P * (P - 1) * safe ** (P - 2) * (d1 * 2 * x / R) ** 2
                      + P * safe ** (P - 1) * (d2 * (2 * x / R) ** 2 + d1 * 2 / R))
            phi_t = P * safe ** (P - 1) * d1 / R
            return np.where(v > 0, phi_tt - phi_xx - phi_t, 0.0)

        oracle = fine_grid_integral(op, R)
        assert J == pytest.approx(oracle, rel=1e-4)

    def test_frozen_field_telescoping_identity(self, params, spec):
        # for u = 1 the t-integrals telescope and the spatial Laplacian term
        # integrates to zero, leaving J_R = int(phi(0,x) - phi_t(0,x)) dx
        grid = GridSpec(1, 1024, 8.0)
        traj = frozen_trajectory(grid, value=1.0, t_end=8.0, dt=0.02, params=params)
        prof = QuinticProfile()
        P = spec.power(1)
        xs = np.linspace(-8, 8, 400_001)
        for R in (1.0, 2.0, 4.0, 8.0):
            a = xs ** 2 / R
            phi0 = prof.value(a) ** P
            safe = np.where(prof.value(a) > 0, prof.value(a), 1.0)
            phit0 = np.where(prof.value(a) > 0,
                             P * safe ** (P - 1) * prof.d1(a) / R, 0.0)
            oracle = np.trapezoid(phi0 - phit0, xs)
            J = compute_J_R(traj, R, spec, params)
            assert J == pytest.approx(oracle, rel=2e-4)

    def test_growth_consistent_with_bound(self, params, spec):
        # the adjoint-operator bound scales like R^(-sigma/(sigma-delta))
        # times the band mass ~ R^(1 + n/(2(sigma-delta))); |J_R| must not
        # outgrow that rate (log-slope within +0.2 of the bound's slope)
        grid = GridSpec(1, 1024, 8.0)
        traj = frozen_trajectory(grid, value=1.0, t_end=8.0, dt=0.02, params=params)
        Rs = np.array([1.0, 2.0, 4.0, 8.0])
        js = [abs(compute_J_R(traj, R, spec, params)) for R in Rs]
        slope = np.polyfit(np.log(Rs), np.log(js), 1)[0]
        bound_slope = spec.measure_exponent(1) - 1.0   # = 1/2 here
        assert slope <= bound_slope + 0.2

    def test_spatial_margin_enforced(self, params, spec):
        grid = GridSpec(1, 256, 3.0)
        traj = frozen_trajectory(grid, t_end=4.0, params=params)
        with pytest.raises(CoverageError, match="radius"):
            compute_J_R(traj, 4.0, spec, params)


def guarded_exp_log_power(v, p):
    """The |v|^p the package used before np.power: exp(p log|v|), 0 below 1e-300."""
    av = np.abs(v)
    with np.errstate(divide="ignore"):
        return np.where(av > 1e-300, np.exp(p * np.log(np.where(av > 1e-300, av, 1.0))), 0.0)


class TestPsi:
    def test_matches_guarded_exp_log_oracle(self):
        s = np.concatenate([[0.0], np.geomspace(1e-12, 1e3, 3001)])
        for key in ("lipschitz", "log-lip", "log-log-lip:2", "hoelder:0.5", "log-power:1"):
            mu = ModulusSpec.from_key(key)
            for p in (1.5, 2.0, 3.0, 11.0 / 3.0):
                got = psi(s, p, mu)
                assert got[0] == 0.0
                np.testing.assert_allclose(got, guarded_exp_log_power(s, p) * mu.evaluate(s),
                                           rtol=1e-12, atol=0, err_msg=f"{key}, p={p}")

    def test_zero(self):
        mu = ModulusSpec.lipschitz()
        assert psi(0.0, 3.0, mu) == 0.0

    def test_lipschitz_quartic(self):
        mu = ModulusSpec.lipschitz()
        assert psi(2.0, 3.0, mu) == pytest.approx(16.0, rel=1e-12)


class TestG:
    def test_zero_trajectory(self, params, spec):
        grid = GridSpec(1, 256, 6.0)
        traj = frozen_trajectory(grid, value=0.0, params=params)
        rows = compute_G(traj, ModulusSpec.lipschitz(), 3.0, spec, [1.0, 2.0, 3.0])
        assert all(g == 0.0 and G == 0.0 for _, g, G in rows)

    def test_G_nondecreasing(self, params, spec):
        grid = GridSpec(1, 256, 6.0)
        traj = frozen_trajectory(grid, value=0.9, params=params)
        rows = compute_G(traj, ModulusSpec.hoelder(0.5), 3.0, spec,
                         np.geomspace(0.5, 3.5, 8))
        Gs = [G for _, _, G in rows]
        assert all(b >= a for a, b in zip(Gs, Gs[1:]))

    def test_G_bounded_by_log_constant_times_I(self, params, spec):
        grid = GridSpec(1, 512, 6.0)
        traj = frozen_trajectory(grid, value=1.3, params=params)
        mu = ModulusSpec.log_power(1.0)
        rows = compute_G(traj, mu, 3.0, spec, np.geomspace(0.5, 3.5, 8))
        bound = math.log(1 + math.e)
        for R, _, G in rows:
            I = compute_I_R(traj, mu, 3.0, R, spec)
            assert G <= bound * I * (1 + 1e-6)

    def test_g_matches_direct_band_quadrature(self, params, spec):
        grid = GridSpec(1, 512, 6.0)
        traj = frozen_trajectory(grid, value=1.0, params=params)
        prof = QuinticProfile()
        R = 2.0
        g = compute_g(traj, ModulusSpec.lipschitz(), 3.0, R, spec)
        oracle = fine_grid_integral(
            lambda x, t: np.where((x * x + t) / R >= 0.5,
                                  prof.value((x * x + t) / R) ** 3, 0.0), R)
        assert g == pytest.approx(oracle, rel=2e-3)


class TestSupportMeasure:
    def test_scaling_exponent(self, params, spec):
        grid = GridSpec(1, 2048, 8.0)
        times = np.arange(0.0, 8.0001, 0.01)
        Rs = np.geomspace(0.8, 8.0, 10)
        ms = [support_measure(R, spec, grid, times) for R in Rs]
        slope = np.polyfit(np.log(Rs), np.log(ms), 1)[0]
        assert slope == pytest.approx(spec.measure_exponent(1), abs=0.05)


class TestTwoDimensionalFunctionals:
    def test_support_measure_scaling(self):
        # n = 2, sigma = 1, delta = 0: |Q*_R| ~ R^(1 + 2/2) = R^2
        p = EquationParams(sigma=1, delta=0, m=1, n=2, p=2, r=1)
        spec = TestFunctionSpec.for_params(p, [1.0])
        grid = GridSpec(2, 256, 4.0)
        times = np.arange(0.0, 4.0001, 0.02)
        Rs = np.geomspace(0.4, 4.0, 8)
        ms = [support_measure(R, spec, grid, times) for R in Rs]
        slope = np.polyfit(np.log(Rs), np.log(ms), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.05)

    def test_I_R_frozen_disc_oracle(self):
        p = EquationParams(sigma=1, delta=0, m=1, n=2, p=2, r=1)
        spec = TestFunctionSpec.for_params(p, [1.0])
        grid = GridSpec(2, 256, 4.0)
        traj = frozen_trajectory(grid, value=1.0, t_end=3.0, params=p)
        R = 2.0
        I = compute_I_R(traj, ModulusSpec.lipschitz(), 3.0, R, spec)
        # radially symmetric oracle: 2 pi int r phi(...) dr dt on a fine grid
        prof = QuinticProfile()
        P = spec.power(2)
        rr = np.linspace(0, 2.5, 4001)
        tt = np.linspace(0, R, 3001)
        vals = prof.value((rr[:, None] ** 2 + tt[None, :]) / R) ** P * rr[:, None]
        oracle = 2 * np.pi * np.trapezoid(np.trapezoid(vals, tt, axis=1), rr)
        assert I == pytest.approx(oracle, rel=1e-3)


class TestVelocityTargetVariant:
    def setup_method(self):
        self.params = EquationParams(sigma=2, delta=1, m=1, n=1, p=2,
                                     target=Target.ON_UT, r=2)
        self.spec = TestFunctionSpec.for_params(self.params, [1.0, 2.0, 4.0])
        self.grid = GridSpec(1, 1024, 8.0)

    def test_scaled_radius_and_power(self):
        assert self.spec.scale_power == 2.0          # |x|^sigma
        assert self.spec.power(1) == 6.0             # 2 (n + sigma)
        assert self.spec.measure_exponent(1) == pytest.approx(1.5)

    def test_frozen_velocity_telescoping_identity(self):
        # with u_t = 1 frozen, the time term telescopes to int(phi(0, x)) dx
        # and both spatial fractional powers integrate to zero
        traj = frozen_trajectory(self.grid, value=1.0, t_end=8.0, dt=0.02,
                                 params=self.params)
        prof = QuinticProfile()
        P = self.spec.power(1)
        xs = np.linspace(-8, 8, 200_001)
        for R in (2.0, 4.0):
            oracle = np.trapezoid(prof.value(xs ** 2 / R) ** P, xs)
            J = compute_J_R(traj, R, self.spec, self.params)
            assert J == pytest.approx(oracle, rel=2e-4)

    def test_I_uses_velocity_snapshots(self):
        traj = frozen_trajectory(self.grid, value=1.0, t_end=4.0, params=self.params)
        traj.snapshots_u = 0.0 * traj.snapshots_u    # displacement zeroed
        I = compute_I_R(traj, ModulusSpec.lipschitz(), 2.0, 2.0, self.spec)
        assert I > 0.0


# -- the per-R path that scan replaced, kept as its oracle --------------------
#
# Each functional builds phi_R on the full space-time grid, recomputes
# Psi(|w|) and applies the spatial multipliers to phi_R (not to the solution).

def _per_R_quadrature(values, dt, grid):
    spatial = values.reshape(values.shape[0], -1).sum(axis=1) * grid.cell_volume
    return float(np.trapezoid(spatial, dx=dt))


def _per_R_laplacian_power(stack, power, grid):
    sym = fractional_symbol(grid.xi_squared(), power)
    axes = tuple(range(1, stack.ndim))
    return np.fft.irfftn(sym[None, ...] * np.fft.rfftn(stack, axes=axes),
                         s=stack.shape[1:], axes=axes)


def _per_R_weighted(traj, mu, p0, R, spec, cutoff):
    grid, times = traj.grid, traj.snapshot_times
    w = traj.snapshots_u if spec.target == Target.ON_U else traj.snapshots_ut
    phi = cutoff(times[:, None], grid.radius().ravel()[None, :], R, spec, grid.n)
    integrand = psi(np.abs(np.asarray(w).reshape(len(times), -1)), p0, mu) * phi
    return _per_R_quadrature(integrand, times[1] - times[0], grid)


def per_R_I(traj, mu, p0, R, spec):
    return _per_R_weighted(traj, mu, p0, R, spec, phi_R)


def per_R_g(traj, mu, p0, R, spec):
    return _per_R_weighted(traj, mu, p0, R, spec, phi_star_R)


def per_R_J(traj, R, spec, params):
    grid, times = traj.grid, traj.snapshot_times
    dt = times[1] - times[0]
    phi = phi_R(times[:, None], grid.radius().ravel()[None, :], R, spec, grid.n)
    phi = phi.reshape((len(times),) + grid.shape)
    lap = _per_R_laplacian_power
    if spec.target == Target.ON_U:
        op = (time_derivative(phi, dt, 2)
              + lap(phi, 2.0 * params.sigma, grid)
              - lap(time_derivative(phi, dt, 1), 2.0 * params.delta, grid))
        w = traj.snapshots_u
    else:
        rev = np.flip(np.cumsum(np.flip(
            0.5 * dt * (phi[1:] + phi[:-1]), axis=0), axis=0), axis=0)
        Phi = np.concatenate([rev, np.zeros((1,) + grid.shape)], axis=0)
        op = (-time_derivative(phi, dt, 1)
              + lap(Phi, 2.0 * params.sigma, grid)
              + lap(phi, params.sigma, grid))
        w = traj.snapshots_ut
    return _per_R_quadrature(w * op, dt, grid)


def per_R_rows(traj, mu, p0, spec, R_values, params):
    """(R, I, J, g, G) rows as the per-R functionals computed them."""
    rs = [float(r) for r in R_values]
    gs = [per_R_g(traj, mu, p0, r, spec) for r in rs]
    G = gs[0] / spec.measure_exponent(traj.grid.n)
    Gs = [G]
    for i in range(1, len(rs)):
        G += 0.5 * (gs[i] + gs[i - 1]) * math.log(rs[i] / rs[i - 1])
        Gs.append(G)
    return [(R, per_R_I(traj, mu, p0, R, spec), per_R_J(traj, R, spec, params), g, G)
            for R, g, G in zip(rs, gs, Gs)]


def assert_columns_close(got, want):
    """Each column to rtol 1e-12, with a floor of 1e-14 x the column max."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    for j in range(want.shape[1]):
        col = want[:, j]
        np.testing.assert_allclose(got[:, j], col, rtol=1e-12,
                                   atol=1e-14 * np.max(np.abs(col)))


def moving_trajectory(grid, params, t_end, dt, seed):
    """Smooth, time-varying, independent u and u_t snapshot stacks."""
    rng = np.random.default_rng(seed)
    times = np.arange(0.0, t_end + 0.5 * dt, dt)
    coords = grid.coords()

    def stack():
        out = np.zeros((len(times),) + grid.shape)
        for _ in range(4):
            centre = rng.uniform(-0.3, 0.3, grid.n) * grid.L
            width = rng.uniform(0.5, 1.5)
            bump = np.exp(-sum((c - c0) ** 2 for c, c0 in zip(coords, centre)) / width ** 2)
            amp = rng.uniform(0.2, 1.0) * np.cos(rng.uniform(0.2, 2.0) * times
                                                 + rng.uniform(0, 2 * np.pi))
            out += amp.reshape((-1,) + (1,) * grid.n) * bump
        return out + rng.uniform(0.1, 0.3)

    return Trajectory(times=times, norms=np.zeros((len(times), 6)), grid=grid,
                      params=params,
                      snapshots_u=stack(), snapshots_ut=stack())


SCAN_CASES = [
    # (sigma, delta, target, n, N, L): on_u and on_ut, n = 1 and n = 2, and
    # non-integer sigma, whose |xi|^sigma symbols exercise the half-spectrum
    # adjoint away from polynomial multipliers
    (1.0, 0.0, "on_u", 1, 256, 8.0),
    (1.5, 0.5, "on_u", 1, 256, 8.0),
    (1.3, 0.2, "on_u", 2, 64, 6.0),
    (1.5, 0.3, "on_ut", 1, 256, 8.0),
    (2.0, 1.0, "on_ut", 2, 64, 6.0),
]


class TestScan:
    @pytest.mark.parametrize("sigma,delta,target,n,N,L", SCAN_CASES)
    def test_matches_per_R_path(self, sigma, delta, target, n, N, L):
        params = EquationParams(sigma=sigma, delta=delta, n=n, p=3, target=target)
        spec = TestFunctionSpec.for_params(params, [1.0])
        grid = GridSpec(n, N, L)
        # the last R puts the support radius just inside L/2
        R_edge = (0.5 * L) ** spec.scale_power * (1.0 - 1e-6)
        R_values = list(np.geomspace(0.1 * R_edge, R_edge, 5))
        assert spec.support_radius(R_values[-1]) == pytest.approx(0.5 * L, rel=1e-5)
        dt = 0.1
        traj = moving_trajectory(grid, params, math.ceil(R_edge / dt) * dt, dt, seed=n)
        mu, p0 = ModulusSpec.log_power(1.0), 3.0

        want = per_R_rows(traj, mu, p0, spec, R_values, params)
        assert_columns_close(scan(traj, mu, p0, TestFunctionSpec.for_params(params, R_values)),
                             want)
        views = [(R, compute_I_R(traj, mu, p0, R, spec), compute_J_R(traj, R, spec, params),
                  g, G) for R, g, G in compute_G(traj, mu, p0, spec, R_values)]
        assert_columns_close(views, want)
        assert_columns_close([[compute_g(traj, mu, p0, R, spec)] for R in R_values],
                             [[row[3]] for row in want])

    def test_enforces_half_torus_rule_for_every_R(self, params):
        spec = TestFunctionSpec.for_params(params, [1.0])
        grid = GridSpec(1, 256, 3.0)
        traj = frozen_trajectory(grid, t_end=4.0, params=params)
        mu = ModulusSpec.lipschitz()
        # R = 3 fits I_R and g (radius 1.73 <= L) but not J_R (> L/2)
        assert compute_I_R(traj, mu, 3.0, 3.0, spec) > 0.0
        with pytest.raises(CoverageError, match="radius"):
            scan(traj, mu, 3.0, TestFunctionSpec.for_params(params, [1.0, 3.0]))
        with pytest.raises(ParameterError):
            scan(traj, mu, 3.0, TestFunctionSpec.for_params(params, [2.0, 1.0]))

    def test_cli_functional_csv_matches_per_R_path(self, tmp_path):
        doc = {
            "params": {"sigma": 2, "delta": 1, "m": 1, "n": 1, "p": 3,
                       "target": "on_ut", "r": 3},
            "mu": "log-power:1",
            "grid": {"n": 1, "N": 256, "L": 20.0},
            "solver": {"dt": 0.02, "t_end": 12.0, "dealias_fraction": 2 / 3,
                       "blowup_threshold": None, "snapshot_stride": 10,
                       "store_fields": True},
            "data": {"u0": {"family": "gaussian", "amplitude": 0.05,
                            "width": 1.0, "center": 0.0},
                     "u1": {"family": "gaussian", "amplitude": 0.05,
                            "width": 1.0, "center": 0.5}},
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        rundir = tmp_path / "run"
        assert main(["semilinear", "--config", str(cfg), "--out", str(rundir)]) == 0
        assert main(["blowup-scan", str(rundir)]) == 0
        with open(rundir / "functional.csv", newline="") as fh:
            header, *body = list(csv.reader(fh))
        assert header == ["R", "I_R", "J_R", "g", "G", "verdict"]

        config, traj = load_run(str(rundir))
        params = config.params
        p0 = float(critical_exponent(EquationParams(params.sigma, params.delta, 1.0, params.n,
                                                    params.p, params.target, params.r)))
        R_values = [float(row[0]) for row in body]
        assert len(R_values) == 10
        spec = TestFunctionSpec.for_params(params, R_values)
        want = per_R_rows(traj, config.mu(), p0, spec, R_values, params)
        assert_columns_close([[float(v) for v in row[:5]] for row in body], want)
        bound = math.log(1.0 + math.e)
        verdicts = ["ok" if (0.0 <= I < J) and (G <= bound * I * (1.0 + 1e-6) + 1e-12)
                    else "violated" for _, I, J, _, G in want]
        assert [row[5] for row in body] == verdicts


# -- the whole-stack adjoint that the row blocks replaced, kept as their oracle --

def whole_stack_adjoint(kernel, params):
    """One forward transform of the whole monitored stack, then one inverse
    per power on the whole stack."""
    low = 2.0 * params.delta if kernel.spec.target == Target.ON_U else params.sigma
    wh = kernel.grid.fft(kernel.w)
    xisq = kernel.grid.xi_squared()
    return (kernel._restrict(kernel.w),) + tuple(
        kernel._restrict(kernel.grid.ifft(fractional_symbol(xisq, p) * wh) if p else kernel.w)
        for p in (2.0 * params.sigma, low))


# (sigma, delta, target, n, N, L): 7 rows per block on the 1D N = 4096 and the
# 2D N = 64 grids; delta = 0 on on_u makes the low power the identity
ADJOINT_GRIDS = [
    (1.5, 0.5, "on_u", 1, 4096, 64.0),
    (1.0, 0.0, "on_u", 2, 64, 6.0),
    (1.5, 0.3, "on_ut", 1, 4096, 64.0),
    (2.0, 1.0, "on_ut", 2, 64, 6.0),
]


class TestBlockedAdjoint:
    # T = 6 is below one block, 10 is no multiple of it, 24 spans four blocks
    @pytest.mark.parametrize("T", [6, 10, 24])
    @pytest.mark.parametrize("sigma,delta,target,n,N,L", ADJOINT_GRIDS)
    def test_matches_whole_stack_bit_for_bit(self, sigma, delta, target, n, N, L, T):
        params = EquationParams(sigma=sigma, delta=delta, n=n, p=3, target=target)
        grid = GridSpec(n, N, L)
        assert _BLOCK_BYTES // (16 * grid.xi_squared().size) == 7
        self._check(params, grid, T)

    def test_rows_larger_than_a_block_go_one_at_a_time(self):
        params = EquationParams(sigma=2.0, delta=1.0, n=2, p=3, target="on_ut")
        grid = GridSpec(2, 256, 40.0)
        assert 16 * grid.xi_squared().size > _BLOCK_BYTES
        self._check(params, grid, 6)

    @staticmethod
    def _check(params, grid, T):
        dt = 0.1
        traj = moving_trajectory(grid, params, (T - 1) * dt, dt, seed=T)
        assert len(traj.times) == T
        spec = TestFunctionSpec.for_params(params, [traj.times[-1]])
        kernel = _Kernel(traj, spec, spec.R_values, spatial_fraction=0.5)
        got, want = kernel.adjoint(params), whole_stack_adjoint(kernel, params)
        assert len(got) == len(want) == 3
        for a, b in zip(got, want):
            assert a.shape == b.shape == (T, len(kernel.columns))
            assert np.array_equal(a, b)


# (sigma, delta, target): the powers (2 sigma, low) are (2, 1), (2, 0) and
# (2.5, 1.25); low = 2 delta = 0 on on_u makes the low stack the rows themselves
EIGEN_PARAMS = [(1.0, 0.5, "on_u"), (1.0, 0.0, "on_u"), (1.25, 0.5, "on_ut")]


class TestAdjointEigenfunctions:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("sigma,delta,target", EIGEN_PARAMS)
    def test_cosine_rows_scale_by_the_symbol(self, sigma, delta, target, n, k):
        # cos(k x_1) on a torus of length 2 pi is an eigenfunction of
        # (-Lap)^(s/2) with eigenvalue k^s; each row has its own amplitude
        params = EquationParams(sigma=sigma, delta=delta, n=n, p=3, target=target)
        grid = GridSpec(n, 32 if n == 1 else 16, np.pi)
        times = 0.1 * np.arange(6)
        rows = (1.0 + times)[:, None] * np.cos(k * grid.coords()[0]).reshape(1, -1)
        stack = rows.reshape((len(times),) + grid.shape)
        traj = Trajectory(times=times, norms=np.zeros((len(times), 6)), grid=grid,
                          params=params, snapshots_u=stack, snapshots_ut=stack.copy())
        spec = TestFunctionSpec.for_params(params, [times[-1]])
        kernel = _Kernel(traj, spec, spec.R_values, spatial_fraction=0.5)
        w, s_sigma, s_low = kernel.adjoint(params)
        want = rows[:, kernel.columns]
        low = 2.0 * delta if target == "on_u" else sigma
        assert len(kernel.columns) > 0 and np.array_equal(w, want)
        for got, power in ((s_sigma, 2.0 * sigma), (s_low, low)):
            assert np.max(np.abs(got - k ** power * want)) < 1e-12
        if low == 0.0:
            assert s_low is w
