import math
import re
import warnings

import numpy as np
import pytest

from sigmaevo import solver as solver_module
from sigmaevo import spectral
from sigmaevo.errors import ParameterError, SigmaevoError
from sigmaevo.modulus import ModulusSpec, psi
from sigmaevo.norms import lebesgue_norm
from sigmaevo.params import EquationParams, Target
from sigmaevo.solver import (MAX_ROWS, MAX_STEPS, BlowUp, SolverConfig, Trajectory, _norm_row,
                             _Stepper, _warn_if_outside_window, blow_up_detect,
                             default_blowup_threshold, energy_identity_residuals,
                             simulate, simulate_linear)
from sigmaevo.spectral import (GridSpec, MultiplierCache, Propagator, plancherel_sum,
                               spectral_l2, sup_bound)


def coords(grid):
    """The grid's coordinate arrays, one per axis (meshgrid, ij indexing)."""
    return np.meshgrid(*[grid.axis()] * grid.n, indexing="ij")


def energy(uh, uth, grid, sigma):
    """E = ||u_t||_L2^2 + || |D|^sigma u ||_L2^2, squared back from two
    spectral_l2 roots: the column-by-column form the norm row's energy
    (a sum of squared Plancherel sums) is checked against."""
    return spectral_l2(uth, grid) ** 2 + spectral_l2(uh, grid, sigma) ** 2


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
            def evaluate(self, s, out=None, work=None):
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
        exact = simulate_linear(u0, np.zeros_like(u0), params, [0.25], grid, store_fields=True)
        u, ut = exact.snapshots_u[0], exact.snapshots_ut[0]
        scale = np.max(np.abs(u))
        assert np.max(np.abs(grid.ifft(uh) - u)) < 1e-12 * scale
        assert np.max(np.abs(grid.ifft(uth) - ut)) < 1e-12 * scale

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


def fresh_f0_step(stepper, uh, uth, w_phys, out=None):
    """The step PEC mode replaced: f(w) evaluated afresh at every step start.
    A None ``w_phys`` is transformed back from the state; the result is always
    fresh, whatever ``out`` says."""
    dt, prop = stepper.config.dt, stepper.prop
    if w_phys is None:
        w_phys = stepper.grid.ifft(uh if stepper.params.target == Target.ON_U else uth)
    f0 = stepper._f_hat(w_phys)
    lin_u, lin_ut = prop.apply(uh, uth)
    if stepper.params.target == Target.ON_U:
        w_pred = stepper.grid.ifft(lin_u + dt * prop.K1 * f0)
    else:
        w_pred = stepper.grid.ifft(lin_ut + dt * prop.D1 * f0)
    f1 = stepper._f_hat(w_pred)
    return lin_u + 0.5 * dt * prop.K1 * f0, lin_ut + 0.5 * dt * (prop.D1 * f0 + f1)


ON_UT = EquationParams(sigma=2, delta=1, m=1, n=1, p=3, r=3, target=Target.ON_UT)


class TestPECStep:
    """on_ut steps reuse the previous corrector forcing f(w_pred) as f0."""

    @staticmethod
    def final(step, grid, mu, u0, u1, dt, t_end=1.0):
        stepper = _Stepper(ON_UT, mu, SolverConfig(dt=dt, t_end=t_end), grid)
        uh, uth = grid.fft(u0), grid.fft(u1)
        for _ in range(int(round(t_end / dt))):
            uh, uth = step(stepper, uh, uth, grid.ifft(uth))
        return np.concatenate([grid.ifft(uh), grid.ifft(uth)])

    def errors(self, grid, mu, u0, u1):
        """Max error of (u, u_t) at t = 1 against a dt = 0.1/64 fresh-f0 oracle,
        per scheme and dt."""
        oracle = self.final(fresh_f0_step, grid, mu, u0, u1, 0.1 / 64)
        return {(name, dt): np.max(np.abs(self.final(step, grid, mu, u0, u1, dt) - oracle))
                for name, step in (("fresh", fresh_f0_step), ("pec", _Stepper.step))
                for dt in (0.1, 0.05, 0.025)}

    @pytest.mark.parametrize("mu", [ModulusSpec.hoelder(0.5), ModulusSpec.log_log_lip(2)],
                             ids=["hoelder:0.5", "log-log-lip:2"])
    def test_error_and_order_against_fresh_f0(self, grid, mu):
        u0 = u1 = gaussian(grid, amplitude=0.5)
        err = self.errors(grid, mu, u0, u1)
        for dt in (0.1, 0.05, 0.025):
            assert err["pec", dt] <= 1.25 * err["fresh", dt], f"dt={dt}"
        assert np.log2(err["pec", 0.05] / err["pec", 0.025]) >= 1.85

    @pytest.mark.parametrize("mu", [ModulusSpec.hoelder(0.5), ModulusSpec.log_log_lip(2)],
                             ids=["hoelder:0.5", "log-log-lip:2"])
    def test_order_holds_where_pec_constant_is_larger(self, grid, mu):
        # u_t grows from zero, so f(w_pred) lags f(w) the most: PEC's error is
        # 1.9-2.6x the fresh-f0 scheme's here, but still second order
        u0 = gaussian(grid)
        err = self.errors(grid, mu, u0, np.zeros_like(u0))
        assert np.log2(err["pec", 0.05] / err["pec", 0.025]) >= 1.85
        assert err["pec", 0.025] <= 3.0 * err["fresh", 0.025]

    def test_foreign_uth_takes_fresh_f0(self, grid):
        mu = ModulusSpec.hoelder(0.5)
        stepper = _Stepper(ON_UT, mu, SolverConfig(dt=0.05, t_end=1.0), grid)
        uh, uth = grid.fft(gaussian(grid, 0.5)), grid.fft(gaussian(grid, 0.5))
        first = stepper.step(uh, uth, grid.ifft(uth))
        assert all(np.array_equal(a, b) for a, b in
                   zip(first, fresh_f0_step(stepper, uh, uth, grid.ifft(uth))))
        uh1, uth1 = first
        pec = stepper.step(uh1, uth1, grid.ifft(uth1))
        fresh = fresh_f0_step(stepper, uh1, uth1, grid.ifft(uth1))
        assert not np.array_equal(pec[1], fresh[1])
        # an equal copy is not the array the stepper returned
        for got, want in zip(stepper.step(uh1, uth1.copy(), grid.ifft(uth1)), fresh):
            assert np.array_equal(got, want)

    def test_one_modulus_evaluation_per_step(self, grid, monkeypatch):
        from sigmaevo import solver
        calls = []
        real_psi = solver.psi
        monkeypatch.setattr(solver, "psi", lambda *a: calls.append(1) or real_psi(*a))
        u1 = gaussian(grid, 0.5)
        cfg = SolverConfig(dt=0.05, t_end=1.0, snapshot_stride=4)
        simulate(np.zeros_like(u1), u1, ON_UT, ModulusSpec.hoelder(0.5), cfg, grid)
        assert len(calls) == 20 + 1

    @pytest.mark.filterwarnings("ignore:parameters outside")
    @pytest.mark.parametrize("target", [Target.ON_U, Target.ON_UT])
    def test_direct_steps_return_fresh_arrays(self, grid, mu, target):
        # the stepper's own buffers never leak into what a direct call returns
        p = EquationParams(sigma=2, delta=1, m=1, n=1, p=3, r=3, target=target)
        stepper = _Stepper(p, mu, SolverConfig(dt=0.05, t_end=1.0), grid)
        uh, uth = grid.fft(gaussian(grid, 0.5)), grid.fft(gaussian(grid, 0.3))
        first = stepper.step(uh, uth, None)
        kept = [a.copy() for a in first]
        second = stepper.step(*first, None)
        stepper.step(*second, None)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, kept))
        assert not any(np.shares_memory(a, b) for a in first for b in second)

    @pytest.mark.filterwarnings("ignore:parameters outside")
    @pytest.mark.parametrize("target", [Target.ON_U, Target.ON_UT])
    def test_none_w_is_transformed_from_the_state(self, grid, mu, target):
        p = EquationParams(sigma=2, delta=1, m=1, n=1, p=3, r=3, target=target)
        uh, uth = grid.fft(gaussian(grid, 0.5)), grid.fft(gaussian(grid, 0.3))
        w = grid.ifft(uh if target == Target.ON_U else uth)
        given = _Stepper(p, mu, SolverConfig(dt=0.05, t_end=1.0), grid).step(uh, uth, w)
        derived = _Stepper(p, mu, SolverConfig(dt=0.05, t_end=1.0), grid).step(uh, uth, None)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(given, derived))

    @pytest.mark.filterwarnings("ignore:parameters outside")
    def test_on_u_step_is_the_fresh_f0_step(self, grid, params, mu):
        stepper = _Stepper(params, mu, SolverConfig(dt=0.05, t_end=1.0), grid)
        uh, uth = grid.fft(gaussian(grid, 0.5)), grid.fft(np.zeros(grid.shape))
        for _ in range(3):
            want = fresh_f0_step(stepper, uh, uth, grid.ifft(uh))
            uh, uth = stepper.step(uh, uth, grid.ifft(uh))
            assert np.array_equal(uh, want[0]) and np.array_equal(uth, want[1])

    @pytest.mark.parametrize("mu", [ModulusSpec.log_power(1.0), ModulusSpec.hoelder(0.5)],
                             ids=["log-power:1", "hoelder:0.5"])
    @pytest.mark.parametrize("amplitude", [1.5, 3.0])
    @pytest.mark.parametrize("dt", [0.01, 0.002])
    def test_escape_time_within_one_dt(self, grid, mu, amplitude, dt, monkeypatch):
        u1 = gaussian(grid, amplitude)
        cfg = SolverConfig(dt=dt, t_end=30.0, blowup_threshold=100.0, snapshot_stride=10)
        pec = simulate(np.zeros_like(u1), u1, ON_UT, mu, cfg, grid).blowup
        monkeypatch.setattr(_Stepper, "step", fresh_f0_step)
        fresh = simulate(np.zeros_like(u1), u1, ON_UT, mu, cfg, grid).blowup
        assert pec.reason == fresh.reason == "escape"
        assert abs(pec.time - fresh.time) <= dt * (1 + 1e-9)


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


def per_sample_linear(u0, u1, params, times, grid):
    """The per-sample path chained sampling replaced: one Propagator from
    the data for every sample time.  Returns (rows, snapshots_u, snapshots_ut)."""
    cache = MultiplierCache.build(grid, params.sigma, params.delta)
    uh0 = grid.fft(np.asarray(u0, dtype=float))
    uth0 = grid.fft(np.asarray(u1, dtype=float))
    rows, snaps_u, snaps_ut = [], [], []
    for t in times:
        uh, uth = Propagator.build(cache, float(t)).apply(uh0, uth0)
        u_phys = grid.ifft(uh)
        rows.append(_norm_row(uh, uth, u_phys, grid, params))
        snaps_u.append(u_phys)
        snaps_ut.append(grid.ifft(uth))
    return np.asarray(rows), np.asarray(snaps_u), np.asarray(snaps_ut)


def per_increment_linear(u0, u1, params, times, grid):
    """Chained sampling with a Propagator rebuilt whenever the increment is not
    bit-equal to the last one.  Returns the norm rows."""
    cache = MultiplierCache.build(grid, params.sigma, params.delta)
    uh = grid.fft(np.asarray(u0, dtype=float))
    uth = grid.fft(np.asarray(u1, dtype=float))
    rows, prop, t_state = [], None, 0.0
    for t in times:
        if t != t_state:
            if prop is None or prop.t != t - t_state:
                prop = Propagator.build(cache, t - t_state)
            uh, uth = prop.apply(uh, uth)
            t_state = t
        rows.append(_norm_row(uh, uth, grid.ifft(uh), grid, params))
    return np.asarray(rows)


class TestSimulateLinear:
    @pytest.mark.filterwarnings("ignore:parameters outside")
    @pytest.mark.parametrize("n,N,L", [(1, 256, 40.0), (2, 32, 15.0)])
    # oscillatory on every shell but xi = 0; overdamped on the shells |xi| <= 1/2
    @pytest.mark.parametrize("sigma,delta", [(2, 1), (1, 0), (2, 0.5)])
    @pytest.mark.parametrize("sampling", ["uniform-1000", "nonuniform-offset"])
    def test_chained_matches_per_sample_builds(self, n, N, L, sigma, delta, sampling):
        g = GridSpec(n, N, L)
        p = EquationParams(sigma=sigma, delta=delta, m=1, n=n, p=3, r=1)
        r2 = sum(c * c for c in coords(g))
        u0 = np.exp(-r2)
        u1 = 0.5 * np.exp(-2.0 * sum((c - 1.0) ** 2 for c in coords(g)))
        if sampling == "uniform-1000":
            times = np.linspace(0.0, 1e3, 1000)
        else:
            gaps = np.random.default_rng(n).uniform(0.01, 2.0, 300)
            times = 0.3 + np.concatenate([[0.0], np.cumsum(gaps)])
        traj = simulate_linear(u0, u1, p, times, g, store_fields=True)
        rows, snaps_u, snaps_ut = per_sample_linear(u0, u1, p, times, g)
        assert traj.blowup is None
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.snapshot_times, times)
        # Within 1e-12 of the largest value each column has taken so far, the
        # bound chaining keeps on a damped flow.  Per value it can fail: near a
        # zero crossing of the dominant mode (1D (2, 1), Hr_u) the chained
        # rounding shows.
        scale = np.maximum.accumulate(np.abs(rows), axis=0)
        assert np.all(np.abs(traj.norms - rows) <= 1e-12 * scale)
        for got, want in ((traj.snapshots_u, snaps_u), (traj.snapshots_ut, snaps_ut)):
            sup = np.max(np.abs(want), axis=tuple(range(1, n + 1)))
            scale = np.maximum.accumulate(sup).reshape((-1,) + (1,) * n)
            assert np.all(np.abs(got - want) <= 1e-12 * scale)

    @pytest.fixture
    def built(self, monkeypatch):
        """Records the increment of every Propagator.build call."""
        built = []
        real_build = Propagator.build.__func__

        def counting(cls, cache, t):
            built.append(t)
            return real_build(cls, cache, t)

        monkeypatch.setattr(Propagator, "build", classmethod(counting))
        return built

    def test_reuses_only_the_last_propagator(self, grid, params, built):
        u0 = gaussian(grid)
        simulate_linear(u0, u0, params, np.arange(11) * 0.5, grid)
        assert built == [0.5]
        built.clear()
        # increments 1, 2, 1: the first propagator is not kept for the third
        simulate_linear(u0, u0, params, [0.0, 1.0, 3.0, 4.0], grid)
        assert built == [1.0, 2.0, 1.0]

    def test_one_build_per_uniform_spacing(self, built):
        # the increments of np.arange(0, 60.1, 0.2) take 9 float values that
        # differ by rounding; one propagator serves them all
        g = GridSpec(2, 32, 15.0)
        p = EquationParams(sigma=1, delta=0, m=1, n=2, p=2, r=1)
        u0 = np.exp(-sum(c * c for c in coords(g)))
        times = np.arange(0.0, 60.1, 0.2)
        assert len(set(np.diff(times).tolist())) > 1
        want = per_increment_linear(u0, 0.5 * u0, p, times, g)
        built.clear()
        traj = simulate_linear(u0, 0.5 * u0, p, times, g)
        assert len(built) == 1
        assert np.array_equal(traj.times, times)
        np.testing.assert_allclose(traj.norms, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("times", [[-0.5, 0.0, 1.0], [-1.0]])
    def test_negative_time_rejected(self, grid, params, times):
        u0 = gaussian(grid)
        with pytest.raises(ParameterError, match="nonnegative and strictly increasing"):
            simulate_linear(u0, u0, params, times, grid)

    @pytest.mark.parametrize("times", [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [0.0, np.nan]])
    def test_times_not_increasing_rejected(self, grid, params, times):
        u0 = gaussian(grid)
        with pytest.raises(ParameterError, match="nonnegative and strictly increasing"):
            simulate_linear(u0, u0, params, times, grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_data_rejected(self, grid, params, bad):
        u1 = np.zeros(grid.shape)
        u1[3] = bad
        with pytest.raises(ParameterError, match="finite"):
            simulate_linear(gaussian(grid), u1, params, [0.0, 1.0], grid)

    def test_only_nan_ends_the_run(self, grid, params):
        # no escape threshold: huge finite data run to the end, while data
        # whose squared norms overflow end the run at its first row
        times = np.arange(5) * 0.5
        traj = simulate_linear(gaussian(grid, 1e100), np.zeros(grid.shape), params, times, grid)
        assert traj.blowup is None and traj.blowup_threshold is None
        assert np.array_equal(traj.times, times)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = simulate_linear(gaussian(grid, 1e300), np.zeros(grid.shape),
                                   params, times, grid)
        assert traj.blowup == BlowUp(0.0, "nan")
        assert traj.times.shape == (0,) and traj.norms.shape == (0, 6)


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

    def test_residuals_match_numpy_leggauss_nodes(self, grid, params, monkeypatch):
        # the nodes once came from numpy's leggauss (a LAPACK eigensolve)
        u0, u1 = gaussian(grid), gaussian(grid, 0.5, 2.0)
        times = np.arange(0.0, 3.01, 0.25)
        got = energy_identity_residuals(u0, u1, params, times, grid)
        monkeypatch.setattr(solver_module, "gauss_legendre", np.polynomial.legendre.leggauss)
        want = energy_identity_residuals(u0, u1, params, times, grid)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


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

    def test_step_count_bounded(self):
        # np.arange of 5e300 levels once ended the run in a ValueError; the
        # stride keeps the run's rows under MAX_ROWS
        assert SolverConfig(dt=1.0, t_end=float(MAX_STEPS),
                            snapshot_stride=10 ** 4).n_steps == MAX_STEPS
        with pytest.raises(ParameterError, match=r"t_end / dt = 1e\+09 steps exceeds the "
                                                  r"maximum of 1000000000; raise dt or shorten"):
            SolverConfig(dt=1.0, t_end=MAX_STEPS + 1.0)

    def test_row_count_bounded(self):
        # linear-decay's sample times and every run's norm rows grow with it
        assert SolverConfig(dt=1.0, t_end=MAX_ROWS - 1.0).n_steps == MAX_ROWS - 1
        assert SolverConfig(dt=1.0, t_end=2.0 * (MAX_ROWS - 1), snapshot_stride=2).n_steps
        with pytest.raises(ParameterError, match=r"t_end / dt = 1e\+06 steps at snapshot_stride 1 "
                                                  r"record 1000001 rows, over the maximum of "
                                                  r"1000000; raise snapshot_stride or dt, or "
                                                  r"shorten t_end"):
            SolverConfig(dt=1.0, t_end=float(MAX_ROWS))
        with pytest.raises(ParameterError, match="snapshot_stride 3 record 3333334 rows"):
            SolverConfig(dt=1e-7, t_end=1.0, snapshot_stride=3)

    def test_row_times_are_the_arange_times(self, grid, params, mu):
        # level k is formed as k * dt, bit for bit the np.arange(n + 1) * dt
        # array the loop once built
        u0 = gaussian(grid, amplitude=0.01)
        cfg = SolverConfig(dt=0.07, t_end=3.0, snapshot_stride=3)
        traj = simulate(u0, np.zeros_like(u0), params, mu, cfg, grid)
        assert traj.times.tobytes() == (np.arange(cfg.n_steps + 1) * cfg.dt)[::3].tobytes()

    @pytest.mark.filterwarnings("ignore:parameters outside")
    @pytest.mark.parametrize("target,threshold", [("on_u", 5.0), ("on_ut", 1e3)])
    def test_sink_takes_exactly_the_rows(self, grid, mu, target, threshold):
        # the run escapes (on_ut at a row level); the sink is handed each row
        # once it passed its check
        params = EquationParams(sigma=1, delta=0, m=1, n=1, p=3, r=1, target=target)
        u0 = np.zeros(grid.shape)
        u1 = gaussian(grid, amplitude=2.0)
        cfg = SolverConfig(dt=0.05, t_end=5.0, snapshot_stride=2, store_fields=True,
                           blowup_threshold=threshold)

        class Sink:
            def __init__(self):
                self.kept, self.pair = [], (np.empty(grid.shape), np.empty(grid.shape))

            def buffers(self, i):
                return self.pair

            def keep(self, i, t):
                self.kept.append((i, t, self.pair[0].copy(), self.pair[1].copy()))

            def stacks(self, n):
                return None, None

        sink = Sink()
        streamed = simulate(u0, u1, params, mu, cfg, grid, fields=sink)
        held = simulate(u0, u1, params, mu, cfg, grid)
        assert streamed.blowup == held.blowup and streamed.blowup.reason == "escape"
        assert streamed.snapshots_u is None and 2 <= len(sink.kept) == len(held.times)
        for i, (j, t, u, ut) in enumerate(sink.kept):
            assert (j, t) == (i, held.times[i])
            assert np.array_equal(u, held.snapshots_u[i])
            assert np.array_equal(ut, held.snapshots_ut[i])

    @pytest.mark.parametrize("threshold", [math.inf, 0.0])
    def test_threshold_positive_and_finite(self, threshold):
        # an infinite threshold once ran and wrote Infinity into manifest.json
        with pytest.raises(ParameterError, match="blowup_threshold must be positive and finite"):
            SolverConfig(dt=0.1, t_end=1.0, blowup_threshold=threshold)

    def test_default_threshold_overflow_named(self, grid):
        u0 = gaussian(grid, amplitude=1e303)
        with pytest.raises(ParameterError, match="blowup_threshold"):
            default_blowup_threshold(u0, np.zeros_like(u0))

    @pytest.mark.parametrize("store_fields", [False, True])
    def test_snapshot_times_are_the_rows(self, grid, params, mu, store_fields):
        u0 = gaussian(grid, amplitude=0.01)
        cfg = SolverConfig(dt=0.1, t_end=1.0, snapshot_stride=3, store_fields=store_fields)
        traj = simulate(u0, np.zeros_like(u0), params, mu, cfg, grid)
        if store_fields:
            assert traj.snapshot_times is traj.times
            assert len(traj.snapshots_u) == len(traj.snapshots_ut) == len(traj.times)
        else:
            assert traj.snapshot_times is None


class TestTheoremWindowWarning:
    """simulate warns about the window of the theorem params.theorem_window picks."""

    @pytest.mark.parametrize("kwargs,key,violated", [
        (dict(sigma=1, delta=0, r=0.25), "thm_1_1", "n < 2r"),          # on_u, delta < sigma/2
        (dict(sigma=2, delta=1, r=1), "thm_1_2", "m*sigma < n"),        # on_u, delta = sigma/2
        (dict(sigma=2, delta=1, r=2, target="on_ut"), "thm_1_3", "r > sigma + n/2"),
    ])
    def test_outside_window_names_theorem(self, kwargs, key, violated):
        p = EquationParams(m=1, n=1, p=3, **kwargs)
        with pytest.warns(UserWarning, match=re.escape(f"outside the {key} window ({violated}:")):
            _warn_if_outside_window(p)

    @pytest.mark.parametrize("kwargs", [
        dict(sigma=1, delta=0, r=1),                         # thm_1_1
        dict(sigma=2, delta=1, r=3, target="on_ut"),         # thm_1_3
    ])
    def test_inside_window_is_silent(self, kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _warn_if_outside_window(EquationParams(m=1, n=1, p=3, **kwargs))


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

    @pytest.mark.parametrize("r,sums", [(None, 3), (0.5, 4), (2.5, 5)])
    def test_one_sum_per_distinct_power_bit_equal_to_one_per_column(self, monkeypatch, r,
                                                                    sums):
        # r defaults to sigma, and r - sigma clips to 0 for r < sigma: the
        # row sums each (field, power) pair once, with the per-column bits
        g = GridSpec(2, 64, 10.0)
        p = EquationParams(sigma=1.5, delta=0.5, m=1, n=2, p=3, r=r)
        rng = np.random.default_rng(7)
        uh = g.fft(rng.standard_normal(g.shape))
        uth = g.fft(rng.standard_normal(g.shape))
        u = g.ifft(uh)
        want = oracle_norm_row(uh, uth, u, g, p)
        calls = []
        monkeypatch.setattr(solver_module, "plancherel_sum",
                            lambda *a: calls.append(a[2]) or plancherel_sum(*a))
        row = _norm_row(uh, uth, u, g, p)
        assert np.asarray(row).tobytes() == np.asarray(want).tobytes()
        assert len(calls) == sums


# -- the loop before its workspace, kept as the oracle ---------------------------
#
# The time loop, the step and the norm row as they were before the loop wrote
# into a per-run workspace: every array fresh, transforms by numpy's n-D
# rfftn/irfftn, sup |w| as np.max(np.abs(w)), and u_t transformed back at
# every on_ut level for the blow-up check.  The workspace loop must reproduce
# their rows, snapshots and blow-up byte for byte.

def _rfftn(grid, u):
    return np.fft.rfftn(u, axes=tuple(range(-grid.n, 0)))


def _irfftn(grid, uh):
    return np.fft.irfftn(uh, s=grid.shape, axes=tuple(range(-grid.n, 0)))


def _apply(prop, uh, uth):
    return prop.K0 * uh + prop.K1 * uth, prop.D0 * uh + prop.D1 * uth


class OracleStepper:
    def __init__(self, params, mu, config, grid):
        self.params, self.mu, self.config, self.grid = params, mu, config, grid
        self.prop = Propagator.build(MultiplierCache.build(grid, params.sigma, params.delta),
                                     config.dt)
        self.mask = grid.dealias_mask(config.dealias_fraction)
        self._last = (None, None)

    def _f_hat(self, w_phys):
        return _rfftn(self.grid, psi(np.abs(w_phys), self.params.p, self.mu)) * self.mask

    def step(self, uh, uth, w_phys):
        dt = self.config.dt
        prop = self.prop
        on_u = self.params.target == Target.ON_U
        last_uth, last_f1 = self._last
        f0 = last_f1 if not on_u and uth is last_uth else self._f_hat(w_phys)
        lin_u, lin_ut = _apply(prop, uh, uth)
        if on_u:
            w_pred = _irfftn(self.grid, lin_u + dt * prop.K1 * f0)
        else:
            w_pred = _irfftn(self.grid, lin_ut + dt * prop.D1 * f0)
        f1 = self._f_hat(w_pred)
        uh_new = lin_u + 0.5 * dt * prop.K1 * f0
        uth_new = lin_ut + 0.5 * dt * (prop.D1 * f0 + f1)
        if not on_u:
            self._last = (uth_new, f1)
        return uh_new, uth_new


def oracle_norm_row(uh, uth, u_phys, grid, params):
    abs_u = uh.real ** 2 + uh.imag ** 2
    abs_ut = uth.real ** 2 + uth.imag ** 2
    rs = max(params.r - params.sigma, 0.0)
    ut_sq = plancherel_sum(abs_ut, grid)
    return (math.sqrt(plancherel_sum(abs_u, grid)),
            math.sqrt(plancherel_sum(abs_u, grid, params.r)),
            math.sqrt(ut_sq),
            math.sqrt(plancherel_sum(abs_ut, grid, rs)),
            float(np.max(np.abs(u_phys))),
            ut_sq + plancherel_sum(abs_u, grid, params.sigma))


def oracle_march(u0, u1, grid, params, levels, advance, on_u, threshold, stride=1,
                 store_fields=False):
    uh, uth = _rfftn(grid, np.asarray(u0, dtype=float)), _rfftn(grid, np.asarray(u1, dtype=float))
    times, rows, snaps_u, snaps_ut = [], [], [], []
    blowup, t_state, w = None, 0.0, None
    for k, t in enumerate(levels.tolist()):
        if t != t_state:
            uh, uth = advance(uh, uth, w, t - t_state)
            t_state = t
        row = k % stride == 0
        u_phys = _irfftn(grid, uh) if on_u or row else None
        ut_phys = _irfftn(grid, uth) if not on_u or (row and store_fields) else None
        w = u_phys if on_u else ut_phys
        norms = oracle_norm_row(uh, uth, u_phys, grid, params) if row else None
        sup = float(np.max(np.abs(w)))
        if not math.isfinite(sup) or (norms is not None and not all(map(math.isfinite, norms))):
            blowup = BlowUp(t, "nan")
        elif threshold is not None and sup > threshold:
            blowup = BlowUp(t, "escape")
        if blowup is not None:
            break
        if row:
            times.append(t)
            rows.append(norms)
            if store_fields:
                snaps_u.append(u_phys)
                snaps_ut.append(ut_phys)
    return (np.asarray(times, dtype=float), np.asarray(rows, dtype=float).reshape(-1, 6),
            blowup, np.asarray(snaps_u), np.asarray(snaps_ut))


def oracle_simulate(u0, u1, params, mu, config, grid):
    threshold = config.blowup_threshold
    if threshold is None:
        threshold = default_blowup_threshold(u0, u1)
    stepper = OracleStepper(params, mu, config, grid)
    n_steps = int(round(config.t_end / config.dt))
    return oracle_march(u0, u1, grid, params, np.arange(n_steps + 1) * config.dt,
                        lambda uh, uth, w, dt: stepper.step(uh, uth, w),
                        params.target == Target.ON_U, threshold,
                        config.snapshot_stride, config.store_fields)


def oracle_simulate_linear(u0, u1, params, times, grid):
    cache = MultiplierCache.build(grid, params.sigma, params.delta)
    prop = None

    def advance(uh, uth, w, dt):
        nonlocal prop
        if prop is None or abs(dt - prop.t) > 1e-12 * prop.t:
            prop = Propagator.build(cache, dt)
        return _apply(prop, uh, uth)

    return oracle_march(u0, u1, grid, params, np.asarray(times, dtype=float), advance, True,
                        None, store_fields=True)


def assert_byte_equal(traj, oracle, store_fields):
    times, rows, blowup, snaps_u, snaps_ut = oracle
    assert traj.times.tobytes() == times.tobytes()
    assert traj.norms.tobytes() == rows.tobytes()
    assert traj.blowup == blowup
    if store_fields:
        assert traj.snapshots_u.tobytes() == snaps_u.tobytes()
        assert traj.snapshots_ut.tobytes() == snaps_ut.tobytes()
    else:
        assert traj.snapshots_u is None and traj.snapshots_ut is None


def field(grid, amplitude, width=1.0, shift=0.0):
    return amplitude * np.exp(-sum(((c - shift) / width) ** 2 for c in coords(grid)))


class TestWorkspaceLoopOracle:
    """simulate and simulate_linear against the loop before its workspace."""

    @pytest.mark.filterwarnings("ignore:parameters outside")
    @pytest.mark.parametrize("target", [Target.ON_U, Target.ON_UT])
    @pytest.mark.parametrize("store_fields", [False, True])
    @pytest.mark.parametrize("stride", [1, 10])
    @pytest.mark.parametrize("n,N,L", [(1, 256, 20.0), (2, 32, 10.0)])
    def test_semilinear_rows_snapshots_blowup(self, target, store_fields, stride, n, N, L):
        g = GridSpec(n, N, L)
        p = EquationParams(sigma=2, delta=1, m=1, n=n, p=3, target=target, r=3)
        mu = ModulusSpec.log_log_lip(2)
        u0, u1 = field(g, 0.5), field(g, 0.4, 1.5, 0.5)
        cfg = SolverConfig(dt=0.05, t_end=3.0, snapshot_stride=stride, store_fields=store_fields)
        traj = simulate(u0, u1, p, mu, cfg, g)
        assert traj.blowup is None and len(traj.times) == 60 // stride + 1
        assert_byte_equal(traj, oracle_simulate(u0, u1, p, mu, cfg, g), store_fields)

    @pytest.mark.filterwarnings("ignore:parameters outside")
    @pytest.mark.parametrize("n,N,L", [(1, 256, 20.0), (2, 32, 10.0), (3, 16, 8.0)])
    def test_exact_linear_path(self, n, N, L):
        g = GridSpec(n, N, L)
        p = EquationParams(sigma=1.5, delta=0.5, m=1, n=n, p=3, r=1)
        u0, u1 = field(g, 1.0), field(g, 0.5, 1.5, 0.5)
        times = np.arange(0.0, 20.1, 0.2)
        traj = simulate_linear(u0, u1, p, times, g, store_fields=True)
        assert_byte_equal(traj, oracle_simulate_linear(u0, u1, p, times, g), True)

    def test_escape_on_u(self):
        # the fixture of acceptance test 07
        g = GridSpec(1, 2048, 20.0)
        p = EquationParams(sigma=1, delta=0, m=1, n=1, p=3, r=1)
        mu = ModulusSpec.log_power(1.0)
        u1 = 3.0 * np.exp(-((g.axis() / 0.5) ** 2))
        cfg = SolverConfig(dt=0.002, t_end=20.0, blowup_threshold=1e4,
                           snapshot_stride=25, store_fields=True)
        traj = simulate(np.zeros_like(u1), u1, p, mu, cfg, g)
        assert traj.blowup.reason == "escape"
        assert_byte_equal(traj, oracle_simulate(np.zeros_like(u1), u1, p, mu, cfg, g), True)

    @pytest.mark.parametrize("store_fields", [False, True])
    def test_escape_on_ut(self, store_fields):
        g = GridSpec(1, 512, 40.0)
        u1 = gaussian(g, 1.5)
        cfg = SolverConfig(dt=0.01, t_end=30.0, blowup_threshold=100.0, snapshot_stride=10,
                           store_fields=store_fields)
        mu = ModulusSpec.log_power(1.0)
        traj = simulate(np.zeros_like(u1), u1, ON_UT, mu, cfg, g)
        assert traj.blowup.reason == "escape"
        assert_byte_equal(traj, oracle_simulate(np.zeros_like(u1), u1, ON_UT, mu, cfg, g),
                          store_fields)

    @pytest.mark.parametrize("store_fields", [False, True])
    def test_bound_over_threshold_falls_back_to_the_transform(self, store_fields):
        # two bumps of opposite sign: the spectral bound on sup |u_t| exceeds
        # the threshold at t = 0 while sup |u_t| itself does not
        g = GridSpec(1, 512, 40.0)
        u1 = 0.15 * np.exp(-g.axis() ** 2) - 0.14 * np.exp(-(g.axis() - 8.0) ** 2)
        threshold = 0.17
        assert np.max(np.abs(u1)) < threshold < sup_bound(g.fft(u1), g)
        cfg = SolverConfig(dt=0.05, t_end=2.0, blowup_threshold=threshold, snapshot_stride=4,
                           store_fields=store_fields)
        mu = ModulusSpec.hoelder(0.5)
        traj = simulate(np.zeros_like(u1), u1, ON_UT, mu, cfg, g)
        assert traj.blowup is None
        assert_byte_equal(traj, oracle_simulate(np.zeros_like(u1), u1, ON_UT, mu, cfg, g),
                          store_fields)

    @pytest.mark.filterwarnings("ignore:parameters outside")
    @pytest.mark.parametrize("target", [Target.ON_U, Target.ON_UT])
    def test_nan_ending(self, target):
        # u (on_u) or u_t (on_ut) of size 1e75 overflows within one step
        g = GridSpec(1, 64, 20.0)
        p = EquationParams(sigma=2, delta=1, m=1, n=1, p=3, r=3, target=target)
        mu = ModulusSpec.hoelder(0.5)
        big = 1e75 * np.exp(-g.axis() ** 2)
        u0, u1 = (big, np.zeros_like(big)) if target == Target.ON_U else (np.zeros_like(big), big)
        cfg = SolverConfig(dt=0.1, t_end=1.0, blowup_threshold=1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = simulate(u0, u1, p, mu, cfg, g)
            want = oracle_simulate(u0, u1, p, mu, cfg, g)
        assert traj.blowup == BlowUp(0.1, "nan")
        assert_byte_equal(traj, want, False)


class TestInPlaceState:
    """The loop advances one state pair in place: Propagator.apply and
    _Stepper.step with out=(uh, uth) against their fresh results."""

    @staticmethod
    def state(grid, seed):
        half = grid.xi_squared().shape
        rng = np.random.default_rng(seed)
        return [rng.standard_normal(half) + 1j * rng.standard_normal(half) for _ in range(2)]

    # rows per block of apply: None is the default size, which at 256^2 is
    # 63 rows; every size here leaves a short last block
    @pytest.mark.parametrize("n,N,rows", [(1, 64, 5), (2, 16, 3), (3, 8, 3), (2, 256, None)])
    def test_apply_in_place_matches_fresh_and_oracle(self, n, N, rows, monkeypatch):
        g = GridSpec(n, N, 3.0)
        half = g.xi_squared().shape
        if rows is not None:
            monkeypatch.setattr(spectral, "_APPLY_BLOCK_BYTES", rows * 16 * math.prod(half[1:]))
        prop = Propagator.build(MultiplierCache.build(g, 1.5, 0.5), 0.3)
        assert half[0] % len(prop._blocks[0]) != 0 and len(prop._blocks[0]) < half[0]
        uh, uth = self.state(g, n)
        for _ in range(3):
            fresh, oracle = prop.apply(uh, uth), _apply(prop, uh, uth)
            got = prop.apply(uh, uth, out=(uh, uth))
            assert got[0] is uh and got[1] is uth
            for x, y, z in zip(got, fresh, oracle):
                assert x.tobytes() == y.tobytes() == z.tobytes()

    @pytest.mark.filterwarnings("ignore:parameters outside")
    @pytest.mark.parametrize("target", [Target.ON_U, Target.ON_UT])
    @pytest.mark.parametrize("n,N,L", [(1, 128, 20.0), (2, 32, 10.0)])
    def test_step_in_place_matches_fresh(self, target, n, N, L, mu):
        # on_ut runs in PEC mode either way: the in-place step sees the very
        # uth it returned, the fresh one the array it returned last
        g = GridSpec(n, N, L)
        p = EquationParams(sigma=2, delta=1, m=1, n=n, p=3, r=3, target=target)
        cfg = SolverConfig(dt=0.05, t_end=1.0)
        fresh_stepper, stepper = _Stepper(p, mu, cfg, g), _Stepper(p, mu, cfg, g)
        fresh = [0.1 * z for z in self.state(g, 7)]
        uh, uth = (z.copy() for z in fresh)
        for _ in range(10):
            fresh = fresh_stepper.step(*fresh, None)
            got = stepper.step(uh, uth, None, out=(uh, uth))
            assert got[0] is uh and got[1] is uth
            assert uh.tobytes() == fresh[0].tobytes() and uth.tobytes() == fresh[1].tobytes()


class TestLiftedOneDimensionalOracle:
    """A field of one coordinate evolves as the 1D run of the same N and L:
    every operator is a tensor-product multiplier and the nonlinearity is
    pointwise.  Its norm columns are the 1D ones times (2L)^((n-1)/2) (the
    L2-type four), 1 (Linf_u) and (2L)^(n-1) (energy).  Lifting along each
    axis covers both the full-transform axes and the half-spectrum last one."""

    N, L = 16, 10.0
    CASES = [(n, axis) for n in (2, 3) for axis in range(n)]

    def lift(self, n, axis, target):
        """The grid, parameters and a profile -> field map of the lifted run."""
        g = GridSpec(n, self.N, self.L)
        p = EquationParams(sigma=2, delta=0.5, m=1, n=n, p=3, r=2, target=target)
        return g, p, lambda profile: profile(coords(g)[axis])

    def assert_lifted_rows(self, traj, one_d, n):
        s = (2 * self.L) ** ((n - 1) / 2)
        assert traj.blowup == one_d.blowup
        assert np.array_equal(traj.times, one_d.times)
        np.testing.assert_allclose(traj.norms / np.array([s, s, s, s, 1.0, s * s]),
                                   one_d.norms, rtol=1e-13, atol=0.0)

    @pytest.mark.filterwarnings("ignore:parameters outside")
    @pytest.mark.parametrize("amplitude,threshold", [(0.5, None), (3.0, 5.0)])
    @pytest.mark.parametrize("target", [Target.ON_U, Target.ON_UT])
    @pytest.mark.parametrize("n,axis", CASES)
    def test_simulate(self, n, axis, target, amplitude, threshold):
        mu = ModulusSpec.log_log_lip(2)
        cfg = SolverConfig(dt=0.01, t_end=2.0, blowup_threshold=threshold)
        data = (lambda x: 0.2 * amplitude * np.exp(-(x / 1.5) ** 2),
                lambda x: amplitude * np.exp(-((x - 0.5) / 1.5) ** 2))
        one_d, traj = (simulate(*map(lift, data), p, mu, cfg, g)
                       for g, p, lift in (self.lift(1, 0, target), self.lift(n, axis, target)))
        assert (one_d.blowup is None) == (threshold is None)   # the escape case escapes
        self.assert_lifted_rows(traj, one_d, n)

    @pytest.mark.filterwarnings("ignore:parameters outside")
    @pytest.mark.parametrize("n,axis", CASES)
    def test_simulate_linear(self, n, axis):
        data = (lambda x: np.exp(-(x / 1.5) ** 2), lambda x: 0.5 * np.exp(-(x - 0.5) ** 2))
        times = np.arange(0.0, 20.1, 0.2)
        one_d, traj = (simulate_linear(*map(lift, data), p, times, g)
                       for g, p, lift in (self.lift(1, 0, Target.ON_U),
                                          self.lift(n, axis, Target.ON_U)))
        self.assert_lifted_rows(traj, one_d, n)


class TestLifespanScaling:
    """The escape time against a result this code did not produce: for
    u_tt - u_xx + u_t = |u|^q with 1 < q < 3 and data (0, eps u1), u1 of
    positive integral, the lifespan scales as T_eps ~ eps^(-(q-1)/(1-(q-1)/2))
    (Li & Zhou, Discrete Contin. Dyn. Syst. 1 (1995); Lee & Ni, Trans. AMS
    333 (1992), for the heat equation the damped wave shares it with).  With
    mu = hoelder:alpha the forcing is |u|^(p+alpha), so q = p + alpha.  The
    crossing time of sup |u| = 1e4 stands in for T_eps; its error is at most
    dt, under 0.4% of every sigma = 1 T_eps here and under 1.4% of the
    sigma = 2 ones."""

    GRID = GridSpec(1, 2048, 400.0)

    def local_slopes(self, p, alpha, amplitudes, sigma=1, grid=GRID):
        params = EquationParams(sigma=sigma, delta=0, n=1, p=p)
        mu = ModulusSpec.hoelder(alpha)
        cfg = SolverConfig(dt=0.2, t_end=1e4, blowup_threshold=1e4, snapshot_stride=10 ** 4)
        bump = np.exp(-grid.axis() ** 2)
        times = []
        for eps in amplitudes:
            traj = simulate(np.zeros_like(bump), eps * bump, params, mu, cfg, grid)
            assert traj.blowup is not None and traj.blowup.reason == "escape"
            times.append(traj.blowup.time)
        return np.diff(np.log(times)) / np.diff(np.log(amplitudes))

    @staticmethod
    def aitken(slopes):
        """Aitken's delta-squared limit of the last three slopes."""
        s0, s1, s2 = slopes[-3:]
        return s2 - (s2 - s1) ** 2 / ((s2 - s1) - (s1 - s0))

    def test_forcing_power_2_approaches_slope_minus_2(self):
        # measured: -1.683, -1.863, -1.946 (T = 55.0, 176.6, 642.6, 2475.8)
        slopes = self.local_slopes(1.5, 0.5, [0.2, 0.1, 0.05, 0.025])
        assert np.all(np.diff(slopes) < 0.0)
        assert self.aitken(slopes) == pytest.approx(-2.0, rel=0.03)   # measured -2.015

    def test_sigma_2_forcing_power_3_approaches_slope_minus_4(self):
        # at sigma = 2 the low frequencies follow u_t + u_xxxx = |u|^q, whose
        # Fujita exponent is 1 + 2 sigma / n = 5 (Galaktionov & Pohozaev,
        # Indiana Univ. Math. J. 51 (2002)); scaling then gives the slope
        # -(q-1)/(1 - n(q-1)/(2 sigma)) = -4 at q = 3, a scaling argument
        # rather than a theorem for the damped equation.  The spread at
        # T = 1136 is t^(1/4) ~ 6, well inside L = 100.
        # measured: -2.353, -2.990, -3.476, -3.744 (T = 14.6, 33.0, 93.0,
        # 310.2, 1135.6)
        amplitudes = 0.8 / np.sqrt(2.0) ** np.arange(5)
        slopes = self.local_slopes(2.5, 0.5, amplitudes, sigma=2, grid=GridSpec(1, 512, 100.0))
        assert np.all(np.diff(slopes) < 0.0)
        assert self.aitken(slopes) == pytest.approx(-4.0, rel=0.03)   # measured -4.076

    def test_forcing_power_1_5_approaches_slope_minus_2_3(self):
        # measured: -0.521, -0.608
        slopes = self.local_slopes(1.25, 0.25, [1e-1, 1e-2, 1e-3])
        assert np.all(np.diff(slopes) < 0.0)
        assert slopes[-1] == pytest.approx(-2.0 / 3.0, rel=0.10)
