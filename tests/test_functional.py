import csv
import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from sigmaevo.cli import load_run, main
from sigmaevo.errors import CoverageError, ParameterError
from sigmaevo.functional import (_TIME_STENCILS, TestFunctionSpec, _read, compute_G,
                                 compute_I_R, compute_J_R, compute_g, phi_R, phi_star_R, psi,
                                 quintic_profile, scan, support_measure, time_derivative)
from sigmaevo.modulus import ModulusSpec
from sigmaevo.params import EquationParams, Target, critical_exponent
from sigmaevo.solver import Trajectory, simulate_linear
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


def quintic_d1(r):
    """d/dr of the quintic profile: -2 S'(y) with y = 2 (1 - r) inside (1/2, 1)."""
    r = np.asarray(r, dtype=float)
    y = np.clip(2.0 * (1.0 - r), 0.0, 1.0)
    return np.where((r > 0.5) & (r < 1.0), -2.0 * (30.0 * y * y * (1.0 - y) ** 2), 0.0)


def quintic_d2(r):
    """d^2/dr^2 of the quintic profile: 4 S''(y) with y = 2 (1 - r) inside (1/2, 1)."""
    r = np.asarray(r, dtype=float)
    y = np.clip(2.0 * (1.0 - r), 0.0, 1.0)
    return np.where((r > 0.5) & (r < 1.0), 4.0 * (60.0 * y * (1.0 - y) * (1.0 - 2.0 * y)), 0.0)


def stack_rows(stack):
    """Every row of a snapshot stack (an array, or a loaded run's
    cli.FieldStack, which reads one integer row at a time) as one array."""
    return np.array([stack[i] for i in range(len(stack))])


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
        assert quintic_profile(0.0) == 1.0
        assert quintic_profile(0.5) == 1.0
        assert quintic_profile(1.0) == 0.0
        assert quintic_profile(2.0) == 0.0
        assert quintic_profile(0.75) == pytest.approx(0.5)

    def test_decreasing(self):
        r = np.linspace(0, 1.2, 500)
        assert np.all(np.diff(quintic_profile(r)) <= 1e-15)

    def test_c2_junctions(self):
        for r0 in (0.5, 1.0):
            for side in (-1e-9, 1e-9):
                assert quintic_d1(r0 + side) == pytest.approx(0.0, abs=1e-7)
                assert quintic_d2(r0 + side) == pytest.approx(0.0, abs=1e-4)

    def test_derivatives_match_finite_differences(self):
        r = np.linspace(0.55, 0.95, 41)
        h = 1e-4   # second difference is round-off limited below this
        fd1 = (quintic_profile(r + h) - quintic_profile(r - h)) / (2 * h)
        fd2 = (quintic_profile(r + h) - 2 * quintic_profile(r) + quintic_profile(r - h)) / h ** 2
        assert np.max(np.abs(quintic_d1(r) - fd1)) < 1e-6
        assert np.max(np.abs(quintic_d2(r) - fd2)) < 1e-4


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


def fd_weights(x, x0, m):
    """Weights of the m-th derivative at x0 from nodes x (Fornberg 1988), in
    the arithmetic of the nodes: exact for Fractions."""
    c = [[0] * (m + 1) for _ in x]
    c[0][0] = 1
    c1, c4 = 1, x[0] - x0
    for i in range(1, len(x)):
        mn = min(i, m)
        c2, c5 = 1, c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i][k] = c1 * (k * c[i - 1][k - 1] - c5 * c[i - 1][k]) / c2
                c[i][0] = -c1 * c5 * c[i - 1][0] / c2
            for k in range(mn, 0, -1):
                c[j][k] = (c4 * c[j][k] - k * c[j][k - 1]) / c3
            c[j][0] = c4 * c[j][0] / c3
        c1 = c2
    return [row[m] for row in c]


def stencil_matrix(dt, order):
    """Fornberg's weights of the 4th-order stencils on a 6-row stack at
    spacing dt: row r holds row r's weight of every node."""
    nodes = [i * dt for i in range(6)]
    central = fd_weights(nodes[:5], 2 * dt, order)
    return [fd_weights(nodes, r * dt, order) if r in (0, 1, 4, 5)
            else [0] * (r - 2) + central + [0] * (3 - r) for r in range(6)]


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
        # time_derivative of the unit rows of a 6-row stack is its weight
        # matrix: rows 2 and 3 the central stencil, the others the closures.
        # At unit spacing it holds the exact weights, rounded once; at other
        # spacings it is within 1e-15 of them (the recursion in floats, the
        # weights' old source, is off by up to 3e-15)
        for order in (1, 2):
            got = time_derivative(np.eye(6), 1.0, order)
            assert got.tolist() == [[float(w) for w in row]
                                    for row in stencil_matrix(Fraction(1), order)]
            for dt in (0.5, 0.1, 0.05, 0.01):
                got = time_derivative(np.eye(6), dt, order)
                want = np.array(stencil_matrix(Fraction(dt), order), dtype=float)
                assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    def test_needs_six_snapshots(self):
        with pytest.raises(CoverageError):
            time_derivative(np.zeros((5, 3)), 0.1, 1)

    @pytest.mark.parametrize("order", [0, 3])
    def test_only_first_and_second_orders(self, order):
        with pytest.raises(ParameterError, match="only first and second"):
            time_derivative(np.zeros((6, 3)), 0.1, order)


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
        R = 3.0
        I = compute_I_R(traj, ModulusSpec.lipschitz(), 3.0, R, spec)
        oracle = fine_grid_integral(lambda x, t: quintic_profile((x * x + t) / R) ** 3, R)
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

    def test_trajectory_without_snapshots_rejected(self, params, spec):
        traj = dataclasses.replace(frozen_trajectory(GridSpec(1, 64, 6.0), params=params),
                                   snapshots_u=None, snapshots_ut=None)
        with pytest.raises(CoverageError, match="no field snapshots"):
            compute_I_R(traj, ModulusSpec.lipschitz(), 3.0, 1.0, spec)

    def test_fewer_than_six_rows_rejected(self, params, spec):
        # t_end = 0.08 at dt = 0.02: five rows
        traj = frozen_trajectory(GridSpec(1, 64, 6.0), t_end=0.08, params=params)
        assert len(traj.times) == 5
        with pytest.raises(CoverageError, match="at least 6 field snapshots"):
            compute_I_R(traj, ModulusSpec.lipschitz(), 3.0, 0.05, spec)

    def test_non_uniform_times_rejected(self, params, spec):
        traj = frozen_trajectory(GridSpec(1, 64, 6.0), params=params)
        times = traj.times.copy()
        times[3] += 0.005
        with pytest.raises(CoverageError, match="uniformly spaced"):
            compute_I_R(dataclasses.replace(traj, times=times), ModulusSpec.lipschitz(), 3.0,
                        1.0, spec)


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

        P = spec.power(1)

        def op(x, t):
            a = (x * x + t) / R
            v, d1, d2 = quintic_profile(a), quintic_d1(a), quintic_d2(a)
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
        P = spec.power(1)
        xs = np.linspace(-8, 8, 400_001)
        for R in (1.0, 2.0, 4.0, 8.0):
            a = xs ** 2 / R
            phi0 = quintic_profile(a) ** P
            safe = np.where(quintic_profile(a) > 0, quintic_profile(a), 1.0)
            phit0 = np.where(quintic_profile(a) > 0,
                             P * safe ** (P - 1) * quintic_d1(a) / R, 0.0)
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
        R = 2.0
        g = compute_g(traj, ModulusSpec.lipschitz(), 3.0, R, spec)
        oracle = fine_grid_integral(
            lambda x, t: np.where((x * x + t) / R >= 0.5,
                                  quintic_profile((x * x + t) / R) ** 3, 0.0), R)
        assert g == pytest.approx(oracle, rel=2e-3)


class TestSupportMeasure:
    def test_scaling_exponent(self, params, spec):
        grid = GridSpec(1, 2048, 8.0)
        times = np.arange(0.0, 8.0001, 0.01)
        Rs = np.geomspace(0.8, 8.0, 10)
        ms = [support_measure(R, spec, grid, times) for R in Rs]
        slope = np.polyfit(np.log(Rs), np.log(ms), 1)[0]
        assert slope == pytest.approx(spec.measure_exponent(1), abs=0.05)


    @pytest.mark.parametrize("R", [-1.0, 0.0, math.nan, math.inf])
    def test_R_checked(self, spec, R):
        with pytest.raises(ParameterError, match="R must be positive, finite"):
            support_measure(R, spec, GridSpec(1, 64, 4.0), np.arange(0.0, 2.0, 0.1))

    @pytest.mark.parametrize("times", [[], [0.0]])
    def test_needs_two_times(self, spec, times):
        with pytest.raises(CoverageError, match="at least 2"):
            support_measure(1.0, spec, GridSpec(1, 64, 4.0), times)


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
        P = spec.power(2)
        rr = np.linspace(0, 2.5, 4001)
        tt = np.linspace(0, R, 3001)
        vals = quintic_profile((rr[:, None] ** 2 + tt[None, :]) / R) ** P * rr[:, None]
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
        P = self.spec.power(1)
        xs = np.linspace(-8, 8, 200_001)
        for R in (2.0, 4.0):
            oracle = np.trapezoid(quintic_profile(xs ** 2 / R) ** P, xs)
            J = compute_J_R(traj, R, self.spec, self.params)
            assert J == pytest.approx(oracle, rel=2e-4)

    def test_I_uses_velocity_snapshots(self):
        traj = frozen_trajectory(self.grid, value=1.0, t_end=4.0, params=self.params)
        traj.snapshots_u = 0.0 * traj.snapshots_u    # displacement zeroed
        I = compute_I_R(traj, ModulusSpec.lipschitz(), 2.0, 2.0, self.spec)
        assert I > 0.0


class TestWeakFormIdentity:
    # Testing the equation against phi_R and integrating by parts gives
    # J_R = I_R + D_R.  A linear run has I_R = 0, and with u0 = 0 the data
    # term is D_R = integral of u1 phi_R(0, |x|) on both targets, so J_R
    # must equal D_R up to the quadrature error of the snapshot spacing.
    # With (-Lap)^(sigma/2) in place of the damping (-Lap)^delta, on_ut read
    # 0.17-0.69 at delta = 0 and 0.5, at either spacing.
    @pytest.mark.parametrize("delta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("target", ["on_u", "on_ut"])
    def test_linear_run_pairs_to_its_data_term(self, target, delta):
        grid = GridSpec(1, 512, 40.0)
        params = EquationParams(sigma=2, delta=delta, n=1, p=3, target=target)
        spec = TestFunctionSpec.for_params(params, [4.0, 10.0])
        u1 = np.exp(-grid.axis() ** 2)
        residuals = []
        for spacing in (0.05, 0.025):
            times = spacing * np.arange(round(12.0 / spacing) + 1)
            traj = simulate_linear(np.zeros_like(u1), u1, params, times, grid, store_fields=True)
            row = []
            for R in spec.R_values:
                D = np.sum(u1 * phi_R(0.0, grid.radius(), R, spec)) * grid.dx
                row.append(abs(compute_J_R(traj, R, spec, params) - D) / abs(D))
            residuals.append(row)
        coarse, fine = np.array(residuals)
        assert np.all(coarse < 1e-3), coarse
        assert np.all(fine <= coarse / 3.0), (coarse, fine)


class TestRValues:
    @pytest.mark.parametrize("R", [-1.0, 0.0, math.nan])
    def test_bad_R_raises_parameter_error_naming_R(self, params, spec, R):
        # R = -1 once raised TypeError (a complex support radius met '>'),
        # and R = nan returned 0.0
        traj = frozen_trajectory(GridSpec(1, 256, 6.0), params=params)
        mu = ModulusSpec.lipschitz()
        calls = [lambda: compute_I_R(traj, mu, 3.0, R, spec),
                 lambda: compute_J_R(traj, R, spec, params),
                 lambda: compute_g(traj, mu, 3.0, R, spec),
                 lambda: phi_R(0.0, 0.0, R, spec),
                 lambda: phi_star_R(0.0, 0.0, R, spec)]
        for call in calls:
            with pytest.raises(ParameterError, match="^R must be positive"):
                call()


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
    integrand = psi(np.abs(stack_rows(w).reshape(len(times), -1)), p0, mu) * phi
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
        w = stack_rows(traj.snapshots_u)
    else:
        rev = np.flip(np.cumsum(np.flip(
            0.5 * dt * (phi[1:] + phi[:-1]), axis=0), axis=0), axis=0)
        Phi = np.concatenate([rev, np.zeros((1,) + grid.shape)], axis=0)
        op = (-time_derivative(phi, dt, 1)
              + lap(Phi, 2.0 * params.sigma, grid)
              + lap(phi, 2.0 * params.delta, grid))
        w = stack_rows(traj.snapshots_ut)
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
    coords = np.meshgrid(*[grid.axis()] * grid.n, indexing="ij")

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


# -- numpy's whole-stack transform, kept as the oracle of the pass's one-row reads --

def pass_columns(traj, spec):
    """The grid points the pass keeps: |x|^sp + t_0 below the largest R."""
    near = traj.grid.radius().ravel() ** spec.scale_power + traj.times[0]
    return np.flatnonzero(near < spec.R_values[-1])


def operator_powers(params):
    """The powers s of (-Lap)^(s/2) that J_R pairs the solution with, on both targets."""
    return (2.0 * params.sigma, 2.0 * params.delta)


def whole_stack_read(stack, grid, columns, powers):
    """numpy's n-D pair on the last n axes: one rfftn of the whole stack,
    then one irfftn per power of the whole stack."""
    def restrict(a):
        return a.reshape(len(a), -1)[:, columns]

    axes = tuple(range(-grid.n, 0))
    wh = np.fft.rfftn(stack, axes=axes)
    xisq = grid.xi_squared()
    return [restrict(stack)] + [
        restrict(np.fft.irfftn(fractional_symbol(xisq, p) * wh, s=grid.shape, axes=axes)
                 if p else stack) for p in powers]


# (sigma, delta, target, n, N, L): 1D and 2D grids on both targets;
# delta = 0 on on_u makes the damping power the identity
ADJOINT_GRIDS = [
    (1.5, 0.5, "on_u", 1, 4096, 64.0),
    (1.0, 0.0, "on_u", 2, 64, 6.0),
    (1.5, 0.3, "on_ut", 1, 4096, 64.0),
    (2.0, 1.0, "on_ut", 2, 64, 6.0),
]


class TestOneRowRead:
    """The pass's one-row reads and transforms against numpy's whole stack."""

    # T = 6 rows, the fewest a scan takes, then 10 and 24
    @pytest.mark.parametrize("T", [6, 10, 24])
    @pytest.mark.parametrize("sigma,delta,target,n,N,L", ADJOINT_GRIDS)
    def test_matches_whole_stack_bit_for_bit(self, sigma, delta, target, n, N, L, T):
        params = EquationParams(sigma=sigma, delta=delta, n=n, p=3, target=target)
        grid = GridSpec(n, N, L)
        self._check(params, grid, T)

    def test_matches_whole_stack_on_a_large_grid(self):
        params = EquationParams(sigma=2.0, delta=1.0, n=2, p=3, target="on_ut")
        grid = GridSpec(2, 256, 40.0)
        self._check(params, grid, 6)

    @staticmethod
    def _check(params, grid, T):
        dt = 0.1
        traj = moving_trajectory(grid, params, (T - 1) * dt, dt, seed=T)
        assert len(traj.times) == T
        spec = TestFunctionSpec.for_params(params, [traj.times[-1]])
        stack = traj.snapshots_u if spec.target == Target.ON_U else traj.snapshots_ut
        columns, powers = pass_columns(traj, spec), operator_powers(params)
        got = _read(stack, T, grid, columns, powers)
        want = whole_stack_read(stack, grid, columns, powers)
        assert len(got) == len(want) == 3
        for a, b in zip(got, want):
            assert a.shape == b.shape == (T, len(columns))
            assert np.array_equal(a, b)


# (sigma, delta, target): the powers (2 sigma, 2 delta) are (2, 1), (2, 0) and
# (2.5, 1); 2 delta = 0 makes the damping stack the rows themselves
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
        rows = (1.0 + times)[:, None] * np.cos(k * np.meshgrid(*[grid.axis()] * n, indexing="ij")[0]).reshape(1, -1)
        stack = rows.reshape((len(times),) + grid.shape)
        traj = Trajectory(times=times, norms=np.zeros((len(times), 6)), grid=grid,
                          params=params, snapshots_u=stack, snapshots_ut=stack.copy())
        spec = TestFunctionSpec.for_params(params, [times[-1]])
        columns = pass_columns(traj, spec)
        w, s_sigma, s_delta = _read(stack, len(times), grid, columns, operator_powers(params))
        want = rows[:, columns]
        assert len(columns) > 0 and np.array_equal(w, want)
        for got, power in ((s_sigma, 2.0 * sigma), (s_delta, 2.0 * delta)):
            assert np.max(np.abs(got - k ** power * want)) < 1e-12
        if delta == 0.0:
            assert s_delta is w


# -- each R's arrays made afresh, kept as the oracle of the pass's buffers ----

def fresh_profile(r):
    """The quintic profile by its allocating expression, plateaus by np.where."""
    y = np.clip(2.0 * (1.0 - r), 0.0, 1.0)
    s = y ** 3 * (10.0 - 15.0 * y + 6.0 * y * y)
    return np.where(r <= 0.5, 1.0, np.where(r >= 1.0, 0.0, s))


def fresh_time_derivative(arr, dt, order):
    """The 4th-order stencils, each row a sum() of fresh weighted rows, with
    time_derivative's weights: its table's over dt^order."""
    T = arr.shape[0]
    out = np.empty_like(arr)
    central, row0, row1 = ([w / dt ** order for w in ws] for ws in _TIME_STENCILS[order])
    out[2:T - 2] = sum(central[i] * arr[i:T - 4 + i] for i in range(5))
    for row, w in ((0, row0), (1, row1)):
        out[row] = sum(w[i] * arr[i] for i in range(6))
    for row, w in ((T - 2, row1), (T - 1, row0)):
        w = [(-1) ** order * x for x in reversed(w)]
        out[row] = sum(w[i] * arr[T - 6 + i] for i in range(6))
    return out


def fresh_rows(traj, mu, p0, spec):
    """(R, I_R, J_R, g(R)) with every array of every R made afresh: the
    argument and phi_R by fresh_profile, the stencils by
    fresh_time_derivative, PhiR by flip-cumsum-flip and the stacks' columns
    by np.take copies, combined in the order of the formulas."""
    grid, params, times = traj.grid, traj.params, traj.times
    T, dt = len(times), float(times[1] - times[0])
    stack = traj.snapshots_u if spec.target == Target.ON_U else traj.snapshots_ut
    radius = grid.radius().reshape(-1)
    near = radius ** spec.scale_power + times[0]
    columns = np.flatnonzero(near < spec.R_values[-1])
    radius, near = radius[columns], near[columns]
    w, s_sigma, s_delta = whole_stack_read(stack, grid, columns, operator_powers(params))
    weight = psi(np.abs(w), p0, mu)

    def integral(values):
        return float(np.trapezoid(values.reshape(T, -1).sum(axis=1) * grid.cell_volume, dx=dt))

    rows = []
    for R in spec.R_values:
        cols = np.flatnonzero(near < R)
        arg = (radius[cols] ** spec.scale_power + times[:, None]) / R
        phi = fresh_profile(arg) ** spec.power(grid.n)
        weight_R, w_R, sigma_R, delta_R = (np.take(a, cols, axis=1)
                                           for a in (weight, w, s_sigma, s_delta))
        I = integral(weight_R * phi)
        g = integral(np.where(arg < 0.5, weight_R * 0.0, weight_R * phi))
        d1 = fresh_time_derivative(phi, dt, 1)
        if spec.target == Target.ON_U:
            J = integral(w_R * fresh_time_derivative(phi, dt, 2) + sigma_R * phi - delta_R * d1)
        else:
            tail = np.zeros_like(phi)
            tail[:-1] = np.flip(np.cumsum(np.flip(
                0.5 * dt * (phi[1:] + phi[:-1]), axis=0), axis=0), axis=0)
            J = integral(sigma_R * tail + delta_R * phi - w_R * d1)
        rows.append((R, I, J, g))
    return rows


# (sigma, delta, target, n, N, L): on_u and on_ut in 1D and 2D, and on_u in 1D
# at sigma - delta = 1/2, where phi_R's outer power is 2.0
FRESH_CASES = [
    (1.5, 0.3, "on_u", 1, 256, 8.0),
    (1.3, 0.2, "on_u", 2, 64, 6.0),
    (1.5, 0.3, "on_ut", 1, 256, 8.0),
    (2.0, 1.0, "on_ut", 2, 64, 6.0),
    (1.0, 0.5, "on_u", 1, 256, 8.0),
]


class TestScanBuffers:
    @pytest.mark.parametrize("sigma,delta,target,n,N,L", FRESH_CASES)
    def test_rows_equal_fresh_arrays_bit_for_bit(self, sigma, delta, target, n, N, L):
        params = EquationParams(sigma=sigma, delta=delta, n=n, p=3, target=target)
        R_edge = (0.5 * L) ** TestFunctionSpec.for_params(params, [1.0]).scale_power * (1 - 1e-6)
        spec = TestFunctionSpec.for_params(params, np.geomspace(0.05 * R_edge, R_edge, 6))
        if (sigma, delta) == (1.0, 0.5):
            assert spec.power(n) == 2.0
        traj = moving_trajectory(GridSpec(n, N, L), params, math.ceil(R_edge / 0.1) * 0.1, 0.1,
                                 seed=n)
        mu = ModulusSpec.from_key("log-log-lip:2")
        got = scan(traj, mu, 3.0, spec)
        want = fresh_rows(traj, mu, 3.0, spec)
        assert len(got) == len(want) == 6
        for row, fresh in zip(got, want):
            assert np.array_equal(row[:4], fresh) and np.isfinite(row).all()

    def test_profile_into_buffers_equals_fresh(self):
        r = np.concatenate([np.linspace(-1.0, 2.0, 3001), [0.5, 1.0, np.inf, -np.inf]])
        out, work = np.empty_like(r), (np.empty_like(r), np.empty_like(r))
        assert quintic_profile(r, out=out, work=work) is out
        assert np.array_equal(out, fresh_profile(r))
        assert np.array_equal(quintic_profile(r), fresh_profile(r))

    @pytest.mark.parametrize("order", [1, 2])
    def test_time_derivative_into_buffers_equals_fresh(self, order):
        rng = np.random.default_rng(order)
        arr = rng.standard_normal((9, 5))
        out, work = np.empty_like(arr), np.empty_like(arr)
        assert time_derivative(arr, 0.1, order, out=out, work=work) is out
        assert np.array_equal(out, fresh_time_derivative(arr, 0.1, order))
        with pytest.raises(CoverageError):
            time_derivative(arr[:5], 0.1, order, out=out[:5], work=work[:5])
