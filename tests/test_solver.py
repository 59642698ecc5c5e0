import numpy as np
import pytest

from sigmaevo.errors import ParameterError, SigmaevoError
from sigmaevo.modulus import ModulusSpec
from sigmaevo.norms import lebesgue_norm
from sigmaevo.params import EquationParams, Target
from sigmaevo.solver import (BlowUp, SolverConfig, Trajectory, _norm_row,
                             _Stepper, blow_up_detect, default_blowup_threshold,
                             energy_identity_residuals, simulate,
                             simulate_linear)
from sigmaevo.spectral import GridSpec, energy, linear_evolve, spectral_l2


@pytest.fixture
def grid():
    return GridSpec(1, 512, 40.0)


@pytest.fixture
def params():
    return EquationParams(sigma=1, delta=0, m=1, n=1, p=3, r=1)


@pytest.fixture
def mu():
    return ModulusSpec.hoelder(0.5)


def gaussian(grid, amplitude=1.0, width=1.0, center=0.0):
    return amplitude * np.exp(-(((grid.axis() - center) / width) ** 2))


def forcing(v, p, mu, grid, dealias_fraction=2.0 / 3.0):
    """The stepper's dealiased forcing |v|^p mu(|v|), back in physical space."""
    params = EquationParams(sigma=1, delta=0, m=1, n=1, p=p, r=1)
    cfg = SolverConfig(dt=0.1, t_end=1.0, dealias_fraction=dealias_fraction)
    return grid.ifft(_Stepper(params, mu, cfg, grid)._f_hat(v))


class TestNonlinearity:
    def test_zero_field(self, grid, mu):
        out = forcing(np.zeros(grid.shape), 3, mu, grid)
        assert np.all(out == 0)

    def test_constant_survives_dealiasing(self, grid, mu):
        out = forcing(np.full(grid.shape, 0.25), 3, mu, grid)
        assert out == pytest.approx(np.full(grid.shape, 0.25 ** 3 * 0.5), abs=1e-15)

    def test_matches_fine_grid_oracle(self, params):
        # pointwise truth computed on a 4x finer grid, then band-compared
        mu = ModulusSpec.lipschitz()
        coarse = GridSpec(1, 256, np.pi)
        fine = GridSpec(1, 1024, np.pi)
        u_c = 0.1 * np.cos(coarse.axis())
        u_f = 0.1 * np.cos(fine.axis())
        out_c = forcing(u_c, 2, mu, coarse, dealias_fraction=2 / 3)
        truth_f = np.abs(u_f) ** 2 * mu.evaluate(np.abs(u_f))
        spec_f = np.fft.fft(truth_f) / fine.N
        spec_c = np.fft.fft(out_c) / coarse.N
        # residual tail aliasing differs between the grids at ~1e-11
        kcut = int(2 / 3 * coarse.N / 2)
        for k in range(-kcut, kcut + 1):
            assert spec_c[k] == pytest.approx(spec_f[k], abs=1e-10)

    def test_p_must_exceed_one(self, grid, mu):
        with pytest.raises(ParameterError):
            forcing(np.zeros(grid.shape), 1.0, mu, grid)

    def test_modulus_failure_names_location(self, grid, params):
        class Failing(ModulusSpec):
            def evaluate(self, s):
                raise ArithmeticError("no value")

        cfg = SolverConfig(dt=0.1, t_end=1.0)
        stepper = _Stepper(params, Failing("lipschitz"), cfg, grid)
        w = np.zeros(grid.shape)
        w[17] = -3.0
        with pytest.raises(SigmaevoError, match=r"max \|w\| = 3\.0 at index \(17,\)\): no value"):
            stepper._f_hat(w)


class TestDuhamelStep:
    def test_zero_data_stays_zero(self, grid, params, mu):
        cfg = SolverConfig(dt=0.1, t_end=1.0, snapshot_stride=1)
        zero = np.zeros(grid.shape)
        stepper = _Stepper(params, mu, cfg, grid)
        uh, uth = stepper.step(grid.fft(zero), grid.fft(zero), zero)
        assert np.all(grid.ifft(uh) == 0) and np.all(grid.ifft(uth) == 0)
        traj = simulate(zero, zero, params, mu, cfg, grid)
        assert traj.times[1] == pytest.approx(0.1)

    def test_linear_limit_single_step(self, grid, params, mu):
        # data small enough that |u|^3 mu(|u|) ~ 1e-31 is below round-off of
        # the linear part: the step must coincide with the exact propagator
        cfg = SolverConfig(dt=0.25, t_end=1.0)
        u0 = gaussian(grid, amplitude=1e-9)
        stepper = _Stepper(params, mu, cfg, grid)
        uh, uth = stepper.step(grid.fft(u0), grid.fft(np.zeros_like(u0)), u0)
        exact = linear_evolve(u0, np.zeros_like(u0), 0.25, params, grid)
        scale = np.max(np.abs(exact.u))
        assert np.max(np.abs(grid.ifft(uh) - exact.u)) < 1e-12 * scale
        assert np.max(np.abs(grid.ifft(uth) - exact.ut)) < 1e-12 * scale

    def test_temporal_order_at_least_1_9(self, grid, params, mu):
        # Richardson order measurement on a visible-nonlinearity run
        u0 = gaussian(grid, amplitude=0.3)

        def final(dt):
            cfg = SolverConfig(dt=dt, t_end=1.0)
            stepper = _Stepper(params, mu, cfg, grid)
            uh, uth = grid.fft(u0), grid.fft(np.zeros_like(u0))
            for _ in range(int(round(1.0 / dt))):
                uh, uth = stepper.step(uh, uth, grid.ifft(uh))
            return grid.ifft(uh)

        f1, f2, f3 = final(0.1), final(0.05), final(0.025)
        e1 = np.max(np.abs(f1 - f2))
        e2 = np.max(np.abs(f2 - f3))
        assert np.log2(e1 / e2) >= 1.9


class TestBlowUpDetect:
    def test_zero_state(self):
        assert blow_up_detect(np.zeros(8), None, 10.0) is None
        assert blow_up_detect(np.zeros(8), (0.0,) * 6, 10.0) is None

    def test_nan_reason(self):
        u = np.zeros(8)
        u[3] = np.inf
        assert blow_up_detect(u, None, 10.0) == "nan"
        u[3] = np.nan
        assert blow_up_detect(u, None, 10.0) == "nan"
        # w finite, but the row (u_t, squared norms) is not
        assert blow_up_detect(np.zeros(8), (1.0, np.inf, 0.0, 0.0, 0.0, 0.0), 10.0) == "nan"
        assert blow_up_detect(np.zeros(8), (1.0, 1.0, np.nan, 0.0, 0.0, 0.0), 10.0) == "nan"

    @pytest.mark.filterwarnings("ignore:parameters outside")
    def test_escape_reason_follows_target(self):
        # a constant u stays put and u_t stays 0: only on_u sees sup |w| = 2
        assert blow_up_detect(np.full(8, 2.0), None, 1.0) == "escape"
        grid = GridSpec(1, 8, 1.0)
        mu = ModulusSpec.lipschitz()
        cfg = SolverConfig(dt=0.1, t_end=1.0, blowup_threshold=1.0)
        pu = EquationParams(sigma=1, delta=0, m=1, n=1, p=3, r=1, target=Target.ON_U)
        put = EquationParams(sigma=2, delta=1, m=1, n=1, p=3, r=2, target=Target.ON_UT)
        u0, u1 = np.full(8, 2.0), np.zeros(8)
        assert simulate(u0, u1, pu, mu, cfg, grid).blowup == BlowUp(0.0, "escape")
        assert simulate(u0, u1, put, mu, cfg, grid).blowup is None

    def test_nonfinite_row_ends_run_before_it_is_written(self):
        # |u0| ~ 1e75 keeps u finite after one step, but u_t overflows and
        # the squared norms of the t = 0.1 row do too
        grid = GridSpec(1, 64, 20.0)
        p = EquationParams(sigma=1, delta=0, m=1, n=1, p=3, r=1)
        u0 = 1e75 * np.exp(-grid.axis() ** 2)
        cfg = SolverConfig(dt=0.1, t_end=1.0, blowup_threshold=1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = simulate(u0, np.zeros_like(u0), p, ModulusSpec.hoelder(0.5), cfg, grid)
        assert traj.blowup == BlowUp(0.1, "nan")
        assert traj.times.tolist() == [0.0]
        assert np.all(np.isfinite(traj.norms))

    def test_default_threshold_guards_zero_u0(self):
        u1 = np.full(8, 3.0)
        assert default_blowup_threshold(np.zeros(8), u1) == pytest.approx(3e6)


class TestSimulate:
    def test_zero_data_trajectory(self, grid, params, mu):
        cfg = SolverConfig(dt=0.1, t_end=1.0, snapshot_stride=2)
        traj = simulate(np.zeros(grid.shape), np.zeros(grid.shape), params, mu, cfg, grid)
        assert traj.blowup is None
        assert np.all(traj.norms == 0)

    def test_linear_consistency_along_trajectory(self, grid, params, mu):
        # negligible-amplitude run vs the exact linear trajectory at every
        # snapshot
        u0 = gaussian(grid, amplitude=1e-9)
        cfg = SolverConfig(dt=0.05, t_end=2.0, snapshot_stride=8)
        traj = simulate(u0, np.zeros_like(u0), params, mu, cfg, grid)
        lin = simulate_linear(u0, np.zeros_like(u0), params, traj.times, grid)
        rel = np.abs(traj.column("L2_u") - lin.column("L2_u")) / lin.column("L2_u")
        assert np.max(rel) < 1e-10

    def test_amplitude_ramp_escapes_sooner(self, grid):
        p = EquationParams(sigma=1, delta=0, m=1, n=1, p=3, r=1)
        mu = ModulusSpec.log_power(1.0)
        escapes = []
        for amp in (3.0, 4.0, 5.0):
            u1 = gaussian(grid, amplitude=amp, width=0.5)
            cfg = SolverConfig(dt=0.01, t_end=30.0, blowup_threshold=100.0,
                               snapshot_stride=10)
            traj = simulate(np.zeros_like(u1), u1, p, mu, cfg, grid)
            assert traj.blowup is not None and traj.blowup.reason == "escape"
            escapes.append(traj.blowup.time)
        assert escapes[0] > escapes[1] > escapes[2]

    def test_escape_time_robust_to_dt_and_threshold(self, grid):
        p = EquationParams(sigma=1, delta=0, m=1, n=1, p=3, r=1)
        mu = ModulusSpec.log_power(1.0)
        u1 = gaussian(grid, amplitude=4.0, width=0.5)

        def escape(dt, threshold):
            cfg = SolverConfig(dt=dt, t_end=30.0, blowup_threshold=threshold)
            return simulate(np.zeros_like(u1), u1, p, mu, cfg, grid).blowup.time

        base = escape(0.01, 100.0)
        assert abs(escape(0.005, 100.0) - base) / base < 0.1
        assert abs(escape(0.01, 200.0) - base) / base < 0.1

    def test_no_rows_after_blowup(self, grid):
        p = EquationParams(sigma=1, delta=0, m=1, n=1, p=3, r=1)
        mu = ModulusSpec.log_power(1.0)
        u1 = gaussian(grid, amplitude=5.0, width=0.5)
        cfg = SolverConfig(dt=0.01, t_end=30.0, blowup_threshold=50.0)
        traj = simulate(np.zeros_like(u1), u1, p, mu, cfg, grid)
        assert traj.blowup is not None
        assert traj.times[-1] < traj.blowup.time
        assert np.all(np.diff(traj.times) > 0)
        assert np.all(np.isfinite(traj.norms))

    @pytest.mark.filterwarnings("ignore:parameters outside")
    def test_mean_velocity_nondecreasing_with_structural_damping(self, grid):
        # at xi = 0 the damping symbol vanishes for delta > 0, so the mean of
        # u_t integrates the (nonnegative) forcing
        p = EquationParams(sigma=2, delta=1, m=1, n=1, p=2, r=2)
        mu = ModulusSpec.lipschitz()
        u0 = gaussian(grid, amplitude=0.5)
        cfg = SolverConfig(dt=0.02, t_end=2.0, snapshot_stride=5, store_fields=True)
        traj = simulate(u0, np.zeros_like(u0), p, mu, cfg, grid)
        means = [np.mean(ut) for ut in traj.snapshots_ut]
        assert np.all(np.diff(means) >= -1e-14)

    def test_deterministic_rows(self, grid, params, mu):
        u0 = gaussian(grid, amplitude=0.2)
        cfg = SolverConfig(dt=0.05, t_end=1.0, snapshot_stride=4)
        a = simulate(u0, np.zeros_like(u0), params, mu, cfg, grid)
        b = simulate(u0, np.zeros_like(u0), params, mu, cfg, grid)
        assert np.array_equal(a.norms, b.norms)
        assert np.array_equal(a.times, b.times)

    def test_velocity_target_runs_and_decays(self, grid):
        # |u_t|^p nonlinearity: small data stay bounded and u_t's L2 decays
        # at the linear rate -(n/sigma)(1/m - 1/2) = -1/4 for these values
        p = EquationParams(sigma=2, delta=1, m=1, n=1, p=2,
                           target=Target.ON_UT, r=2.6)
        mu = ModulusSpec.hoelder(0.5)
        u1 = gaussian(grid, amplitude=1e-3, width=2.0)
        cfg = SolverConfig(dt=0.05, t_end=40.0, snapshot_stride=10)
        traj = simulate(np.zeros_like(u1), u1, p, mu, cfg, grid)
        assert traj.blowup is None
        from sigmaevo.analysis import fit_decay
        fit = fit_decay(traj.series("L2_ut"), (10.0, 40.0))
        assert abs(fit.exponent - (-0.25)) < 0.1

    def test_velocity_target_linear_limit(self, grid):
        p = EquationParams(sigma=2, delta=1, m=1, n=1, p=2,
                           target=Target.ON_UT, r=2.6)
        mu = ModulusSpec.hoelder(0.5)
        u1 = gaussian(grid, amplitude=1e-9, width=2.0)
        cfg = SolverConfig(dt=0.05, t_end=2.0, snapshot_stride=8)
        traj = simulate(np.zeros_like(u1), u1, p, mu, cfg, grid)
        lin = simulate_linear(np.zeros_like(u1), u1, p, traj.times, grid)
        rel = np.abs(traj.column("L2_ut") - lin.column("L2_ut")) / lin.column("L2_ut")
        assert np.max(rel) < 1e-10

    @pytest.mark.filterwarnings("ignore:parameters outside")
    def test_norm_row_positive_part_convention(self, grid, mu):
        # r < sigma: the u_t derivative norm falls back to plain L2
        p = EquationParams(sigma=2, delta=1, m=1, n=1, p=2, r=1)
        u0 = gaussian(grid)
        cfg = SolverConfig(dt=0.1, t_end=0.5, snapshot_stride=1)
        traj = simulate(u0, np.zeros_like(u0), p, mu, cfg, grid)
        assert traj.column("Hrs_ut") == pytest.approx(traj.column("L2_ut"), rel=1e-12)

    def test_outside_window_warns_but_runs(self, grid, mu):
        p = EquationParams(sigma=2, delta=1, m=1, n=1, p=2, r=1)
        u0 = gaussian(grid, amplitude=0.01)
        cfg = SolverConfig(dt=0.1, t_end=0.5)
        with pytest.warns(UserWarning, match="outside the thm_1_2 window"):
            traj = simulate(u0, np.zeros_like(u0), p, mu, cfg, grid)
        assert traj.blowup is None

    @pytest.mark.filterwarnings("ignore:parameters outside")
    @pytest.mark.parametrize("target", [Target.ON_U, Target.ON_UT])
    def test_snapshots_match_norm_rows(self, grid, mu, target):
        # the loop transforms back only what a step or a row reads; the
        # stored fields must still be the state each row describes
        p = EquationParams(sigma=2, delta=1, m=1, n=1, p=2, target=target, r=2.6)
        u0 = gaussian(grid, amplitude=0.1)
        u1 = gaussian(grid, amplitude=0.05, width=2.0)
        cfg = SolverConfig(dt=0.05, t_end=1.0, snapshot_stride=3, store_fields=True)
        traj = simulate(u0, u1, p, mu, cfg, grid)
        assert np.array_equal(traj.snapshot_times, traj.times)
        for snaps, column in ((traj.snapshots_u, "L2_u"), (traj.snapshots_ut, "L2_ut")):
            l2 = [lebesgue_norm(f, 2, grid) for f in snaps]
            assert l2 == pytest.approx(traj.column(column), rel=1e-12)
        assert np.array_equal(np.max(np.abs(traj.snapshots_u), axis=1), traj.column("Linf_u"))

    def test_resolved_threshold_recorded(self, grid, params, mu):
        u0 = gaussian(grid, amplitude=0.2)
        u1 = np.zeros_like(u0)
        traj = simulate(u0, u1, params, mu, SolverConfig(dt=0.1, t_end=0.5), grid)
        assert traj.blowup_threshold == default_blowup_threshold(u0, u1)
        cfg = SolverConfig(dt=0.1, t_end=0.5, blowup_threshold=7.0)
        assert simulate(u0, u1, params, mu, cfg, grid).blowup_threshold == 7.0

    def test_nonfinite_data_rejected(self, grid, params, mu):
        bad = np.zeros(grid.shape)
        bad[0] = np.nan
        cfg = SolverConfig(dt=0.1, t_end=0.5)
        with pytest.raises(ParameterError, match="finite"):
            simulate(bad, np.zeros_like(bad), params, mu, cfg, grid)


class TestEnergyIdentity:
    def test_linear_dissipation_identity(self, grid, params):
        u0 = gaussian(grid)
        times = np.arange(0.0, 3.01, 0.25)
        resid = energy_identity_residuals(u0, np.zeros_like(u0), params, times, grid)
        assert np.max(resid) < 1e-3

    def test_structural_case(self, grid):
        p = EquationParams(sigma=2, delta=1, m=1, n=1, p=2, r=2)
        u1 = gaussian(grid, width=2.0)
        times = np.arange(0.0, 3.01, 0.25)
        resid = energy_identity_residuals(np.zeros_like(u1), u1, p, times, grid)
        assert np.max(resid) < 1e-3


class TestTrajectory:
    def test_series_shape(self, grid, params):
        traj = Trajectory(times=np.array([0.0, 1.0]), norms=np.ones((2, 6)),
                          grid=grid, params=params)
        s = traj.series("L2_u")
        assert s.shape == (2, 2)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SolverConfig(dt=0.0, t_end=1.0)
        with pytest.raises(ParameterError):
            SolverConfig(dt=1.0, t_end=0.5)
        with pytest.raises(ParameterError):
            SolverConfig(dt=0.1, t_end=1.0, dealias_fraction=1.5)


class TestNormRow:
    @pytest.mark.parametrize("target", ["on_u", "on_ut"])
    @pytest.mark.parametrize("n,N", [(1, 512), (2, 64), (3, 16)])
    @pytest.mark.parametrize("r", [0.5, 2.5])   # r < sigma (r - sigma clipped to 0), r > sigma
    def test_one_pass_matches_column_by_column(self, target, n, N, r):
        g = GridSpec(n, N, 10.0)
        p = EquationParams(sigma=1.5, delta=0.5, m=1, n=n, p=3, target=target, r=r)
        rng = np.random.default_rng(n)
        uh = g.fft(rng.standard_normal(g.shape))
        uth = g.fft(rng.standard_normal(g.shape))
        u = g.ifft(uh)
        row = _norm_row(uh, uth, u, g, p)
        ref = (spectral_l2(uh, g), spectral_l2(uh, g, r), spectral_l2(uth, g),
               spectral_l2(uth, g, max(r - p.sigma, 0.0)), float(np.max(np.abs(u))),
               energy(uh, uth, g, p.sigma))
        assert all(type(v) is float for v in row)
        np.testing.assert_allclose(row, ref, rtol=1e-13, atol=0.0)
