"""Time integration of the semilinear problems by exponential stepping.

Each step advances the spectral state (u_hat, ut_hat) with the exact linear
propagator and a second-order exponential trapezoid rule for the Duhamel
convolution with the nonlinearity f = |w|^p mu(|w|) (w = u or u_t): the
predictor freezes f at the step start, the corrector re-evaluates at the
predicted endpoint.  Since K1_hat(0) = 0, the endpoint only enters the
velocity update (through dK1/dt(0) = 1); the scheme still carries the
trapezoid rule's O(dt^3) local error.

Blow-up is a normal terminal outcome, not an error: the trajectory records
the escape (or NaN) time and stops emitting rows; a row that is not finite
is never emitted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ParameterError, SigmaevoError
from .modulus import ModulusSpec, psi
from .params import EquationParams, Target
from .spectral import (GridSpec, MultiplierCache, Propagator, _l2_weight_cached, energy,
                       spectral_l2)

NORM_COLUMNS = ("L2_u", "Hr_u", "L2_ut", "Hrs_ut", "Linf_u", "energy")


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    dealias_fraction: float = 2.0 / 3.0
    blowup_threshold: Optional[float] = None   # None: 1e6 x initial sup-norm scale
    snapshot_stride: int = 1
    store_fields: bool = False

    def __post_init__(self):
        if self.dt <= 0:
            raise ParameterError("dt must be positive")
        if self.t_end <= self.dt:
            raise ParameterError("t_end must exceed dt")
        if not 0.0 < self.dealias_fraction <= 1.0:
            raise ParameterError("dealias_fraction must lie in (0, 1]")
        if self.blowup_threshold is not None and self.blowup_threshold <= 0:
            raise ParameterError("blowup_threshold must be positive")
        if self.snapshot_stride < 1:
            raise ParameterError("snapshot_stride must be a positive integer")


@dataclass(frozen=True)
class BlowUp:
    time: float
    reason: str          # "escape" | "nan"


@dataclass
class Trajectory:
    """Norm time series (and optional field snapshots) from one simulation."""

    times: np.ndarray                      # snapshot times, strictly increasing
    norms: np.ndarray                      # shape (len(times), 6), NORM_COLUMNS order
    grid: GridSpec
    params: EquationParams
    blowup: Optional[BlowUp] = None
    blowup_threshold: Optional[float] = None      # the threshold simulate resolved
    snapshot_times: Optional[np.ndarray] = None
    snapshots_u: Optional[np.ndarray] = None      # shape (k, *grid.shape)
    snapshots_ut: Optional[np.ndarray] = None

    def column(self, name: str) -> np.ndarray:
        return self.norms[:, NORM_COLUMNS.index(name)]

    def series(self, name: str) -> np.ndarray:
        """(t, value) pairs for one norm column."""
        return np.column_stack([self.times, self.column(name)])


def blow_up_detect(w: np.ndarray, row: Optional[tuple],
                   threshold: float) -> Optional[str]:
    """"nan" once the monitored field w or the norm row (if one is due) holds
    a non-finite value, "escape" once sup |w| passes the threshold, None
    otherwise.  The row carries u_t and the squared norms, which w may not."""
    sup = float(np.max(np.abs(w)))    # NaN and inf propagate through the max
    if not math.isfinite(sup) or (row is not None and not all(map(math.isfinite, row))):
        return "nan"
    if sup > threshold:
        return "escape"
    return None


class _Stepper:
    """Precomputed multipliers for repeated steps of size dt."""

    def __init__(self, params: EquationParams, mu: ModulusSpec,
                 config: SolverConfig, grid: GridSpec):
        self.params = params
        self.mu = mu
        self.config = config
        self.grid = grid
        self.cache = MultiplierCache.build(grid, params.sigma, params.delta)
        self.prop = Propagator.build(self.cache, config.dt)
        self.mask = grid.dealias_mask(config.dealias_fraction)

    def _f_hat(self, w_phys: np.ndarray) -> np.ndarray:
        """Half spectrum of the forcing |w|^p mu(|w|), cut to the dealias band.

        A modulus evaluation failure is re-raised with its location.
        """
        aw = np.abs(w_phys)
        try:
            f = psi(aw, self.params.p, self.mu)
        except Exception as exc:
            worst = tuple(int(i) for i in np.unravel_index(int(np.argmax(aw)), aw.shape))
            raise SigmaevoError(
                f"modulus evaluation failed on field (max |w| = {float(np.max(aw))} "
                f"at index {worst}): {exc}") from exc
        return self.grid.fft(f) * self.mask

    def step(self, uh: np.ndarray, uth: np.ndarray, w_phys: np.ndarray):
        """One exponential-trapezoid step from the current spectral state.

        ``w_phys`` is the physical nonlinearity argument already available
        from the caller (u for on_u, u_t for on_ut).
        """
        dt = self.config.dt
        prop = self.prop
        f0 = self._f_hat(w_phys)
        lin_u, lin_ut = prop.apply(uh, uth)
        if self.params.target == Target.ON_U:
            w_pred = self.grid.ifft(lin_u + dt * prop.K1 * f0)
        else:
            w_pred = self.grid.ifft(lin_ut + dt * prop.D1 * f0)
        f1 = self._f_hat(w_pred)
        uh_new = lin_u + 0.5 * dt * prop.K1 * f0
        uth_new = lin_ut + 0.5 * dt * (prop.D1 * f0 + f1)
        return uh_new, uth_new


def _norm_row(uh, uth, u_phys, grid: GridSpec, params: EquationParams) -> tuple:
    """One row in NORM_COLUMNS order, in one pass over the half spectra.

    |uh|^2 and |uth|^2 are formed once; each squared norm is one dot product
    with the cached Plancherel weight of its power (the values spectral_l2
    and energy give, summed in another order), and the energy adds squared
    sums, with no square root squared back.
    """
    scale = grid.cell_volume / grid.N ** grid.n
    abs_u = (uh.real ** 2 + uh.imag ** 2).ravel()
    abs_ut = (uth.real ** 2 + uth.imag ** 2).ravel()

    def squared(a, power):
        return scale * float(np.dot(_l2_weight_cached(grid.n, grid.N, grid.L, power).ravel(), a))

    rs = max(params.r - params.sigma, 0.0)   # positive-part convention for the u_t norm
    ut_sq = squared(abs_ut, 0.0)
    return (math.sqrt(squared(abs_u, 0.0)),
            math.sqrt(squared(abs_u, params.r)),
            math.sqrt(ut_sq),
            math.sqrt(squared(abs_ut, rs)),
            float(np.max(np.abs(u_phys))),
            ut_sq + squared(abs_u, params.sigma))


def default_blowup_threshold(u0: np.ndarray, u1: np.ndarray) -> float:
    """1e6 x the initial sup-norm scale (guarded for u0 = 0 data)."""
    scale = max(float(np.max(np.abs(u0))), float(np.max(np.abs(u1))), 1e-12)
    return 1e6 * scale


def _warn_if_outside_window(params: EquationParams):
    from warnings import warn

    from .params import check_admissibility
    key = "thm_1_3" if params.target == Target.ON_UT else \
          ("thm_1_2" if params.delta == params.sigma / 2 else "thm_1_1")
    report = check_admissibility(params)
    if not report.admissible(key):
        bad = report.first_violation(key)
        warn(f"parameters outside the {key} window ({bad.name}: {bad.detail}); "
             "running anyway")


def simulate(u0: np.ndarray, u1: np.ndarray, params: EquationParams,
             mu: ModulusSpec, config: SolverConfig, grid: GridSpec) -> Trajectory:
    """Run the semilinear problem to t_end or blow-up.

    Records one norm row every ``snapshot_stride`` steps (always including
    t = 0), plus field snapshots when ``store_fields``.  The nonlinearity
    argument follows ``params.target``; t_end is rounded to the nearest whole
    step.  Parameters outside the relevant existence window only warn:
    experiments deliberately probe both sides.  Identical inputs produce
    bit-identical rows: the loop is sequential and purely deterministic.
    """
    grid.check_field(u0)
    grid.check_field(u1)
    if not (np.all(np.isfinite(u0)) and np.all(np.isfinite(u1))):
        raise ParameterError("initial data must be finite")
    _warn_if_outside_window(params)
    if config.blowup_threshold is None:
        config = replace(config, blowup_threshold=default_blowup_threshold(u0, u1))
    stepper = _Stepper(params, mu, config, grid)
    uh = grid.fft(np.asarray(u0, dtype=float))
    uth = grid.fft(np.asarray(u1, dtype=float))
    n_steps = int(round(config.t_end / config.dt))
    on_u = params.target == Target.ON_U

    times, rows = [], []
    snap_t, snaps_u, snaps_ut = [], [], []
    blowup = None

    for k in range(n_steps + 1):
        t = k * config.dt
        row = k % config.snapshot_stride == 0
        # transform back only what this step reads: w, and the fields of a row
        u_phys = grid.ifft(uh) if on_u or row else None
        ut_phys = grid.ifft(uth) if not on_u or (row and config.store_fields) else None
        w = u_phys if on_u else ut_phys

        norms = _norm_row(uh, uth, u_phys, grid, params) if row else None
        reason = blow_up_detect(w, norms, config.blowup_threshold)
        if reason is not None:
            blowup = BlowUp(time=t, reason=reason)
            break

        if row:
            times.append(t)
            rows.append(norms)
            if config.store_fields:
                snap_t.append(t)
                snaps_u.append(u_phys)
                snaps_ut.append(ut_phys)
        if k == n_steps:
            break
        uh, uth = stepper.step(uh, uth, w)

    traj = Trajectory(times=np.asarray(times), norms=np.asarray(rows),
                      grid=grid, params=params, blowup=blowup,
                      blowup_threshold=config.blowup_threshold)
    if config.store_fields:
        traj.snapshot_times = np.asarray(snap_t)
        traj.snapshots_u = np.asarray(snaps_u)
        traj.snapshots_ut = np.asarray(snaps_ut)
    return traj


def simulate_linear(u0: np.ndarray, u1: np.ndarray, params: EquationParams,
                    times: np.ndarray, grid: GridSpec,
                    store_fields: bool = False) -> Trajectory:
    """Exact linear trajectory sampled at the given times (no stepping error).

    The propagator multipliers are exact per mode, so the linear problem
    needs no time marching; this is the reference path for decay-rate runs
    and for consistency checks of the semilinear stepper.
    """
    grid.check_field(u0)
    grid.check_field(u1)
    cache = MultiplierCache.build(grid, params.sigma, params.delta)
    uh0 = grid.fft(np.asarray(u0, dtype=float))
    uth0 = grid.fft(np.asarray(u1, dtype=float))
    rows, snaps_u, snaps_ut = [], [], []
    for t in times:
        prop = Propagator.build(cache, float(t))
        uh, uth = prop.apply(uh0, uth0)
        u_phys = grid.ifft(uh)
        rows.append(_norm_row(uh, uth, u_phys, grid, params))
        if store_fields:
            snaps_u.append(u_phys)
            snaps_ut.append(grid.ifft(uth))
    traj = Trajectory(times=np.asarray(times, dtype=float), norms=np.asarray(rows),
                      grid=grid, params=params, blowup=None)
    if store_fields:
        traj.snapshot_times = np.asarray(times, dtype=float)
        traj.snapshots_u = np.asarray(snaps_u)
        traj.snapshots_ut = np.asarray(snaps_ut)
    return traj


def energy_identity_residuals(u0: np.ndarray, u1: np.ndarray, params: EquationParams,
                              times: np.ndarray, grid: GridSpec,
                              gauss_panels: int = 4) -> np.ndarray:
    """Relative residual of dE/dt = -2 || |D|^delta u_t ||^2 per interval.

    E and the dissipation integrand are evaluated exactly (linear propagator)
    at composite Gauss-Legendre nodes; the only error is quadrature, so the
    residual isolates genuine violations of the dissipation identity.
    """
    cache = MultiplierCache.build(grid, params.sigma, params.delta)
    uh0 = grid.fft(np.asarray(u0, dtype=float))
    uth0 = grid.fft(np.asarray(u1, dtype=float))

    def E_at(t):
        uh, uth = Propagator.build(cache, float(t)).apply(uh0, uth0)
        return energy(uh, uth, grid, params.sigma)

    def dissipation(t):
        _, uth = Propagator.build(cache, float(t)).apply(uh0, uth0)
        return 2.0 * spectral_l2(uth, grid, params.delta) ** 2

    nodes, weights = np.polynomial.legendre.leggauss(5)
    E_vals = np.array([E_at(t) for t in times])
    resid = np.empty(len(times) - 1)
    for i in range(len(times) - 1):
        a, b = times[i], times[i + 1]
        total = 0.0
        edges = np.linspace(a, b, gauss_panels + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            total += half * np.sum(weights * np.array([dissipation(mid + half * x) for x in nodes]))
        dE = E_vals[i + 1] - E_vals[i]
        scale = max(abs(dE), 1e-12 * max(E_vals[0], 1e-300))
        resid[i] = abs(dE + total) / scale
    return resid
