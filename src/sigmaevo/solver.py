"""Time integration of the semilinear problems by exponential stepping.

Each step advances the spectral state (u_hat, ut_hat) with the exact linear
propagator and a second-order exponential trapezoid rule for the Duhamel
convolution with the nonlinearity f = |w|^p mu(|w|) (w = u or u_t): the
predictor freezes f at the step start, the corrector re-evaluates at the
predicted endpoint.  Since K1_hat(0) = 0, the endpoint only enters the
velocity update (through dK1/dt(0) = 1); the scheme still carries the
trapezoid rule's O(dt^3) local error.

With w = u_t the stepper runs in PEC (predict-evaluate-correct) mode: a step
that continues from the state the previous step returned takes that step's
corrector forcing f(w_pred) as its f0, which is within O(dt^2) of f(w).  Each
step then makes one modulus evaluation and two transforms (the forcing's
forward transform and the predictor's inverse); the blow-up check reads a
bound on sup |u_t| from the spectrum, and transforms u_t back only where the
bound does not clear the threshold.  With w = u every step evaluates f(u)
afresh.

A run allocates its arrays once: the loop holds one state pair, which the
stepper (or the exact propagator) advances in place, and every step writes
into a workspace (the physical fields, |w| and Psi, the squared moduli of a
norm row, the last of which borrows the grid's transform scratch).
The data are let go once transformed.  The snapshots a run keeps go to a
sink: the loop transforms a kept row's u and u_t into the buffers the sink
names, and hands the row over only once it has passed its blow-up check, so
the sink keeps exactly the rows of the trajectory.  ``SnapshotStacks``, the
default, is two in-memory stacks allocated up front, whose unreached rows
are never written and so take no resident memory; the command line streams
the rows to files instead, as they are kept (``cli.FieldFiles``), and holds
no stack.

Blow-up is a normal terminal outcome, not an error: the trajectory records
the escape (or NaN) time and stops emitting rows; a row that is not finite
is never emitted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional
from warnings import warn

import numpy as np

from .errors import ParameterError, SigmaevoError
from .modulus import ModulusSpec, gauss_legendre, psi
from .params import EquationParams, Target, theorem_window
from .spectral import (GridSpec, MultiplierCache, Propagator, plancherel_sum, spectral_l2,
                       sup_abs, sup_bound)

NORM_COLUMNS = ("L2_u", "Hr_u", "L2_ut", "Hrs_ut", "Linf_u", "energy")

# the most steps a run may take: t_end / dt beyond it is rejected up front
MAX_STEPS = 10 ** 9
# the most rows (n_steps // snapshot_stride + 1) a run may record
MAX_ROWS = 10 ** 6


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    dealias_fraction: float = 2.0 / 3.0
    blowup_threshold: Optional[float] = None   # None: 1e6 x initial sup-norm scale
    snapshot_stride: int = 1
    store_fields: bool = False

    def __post_init__(self):
        # every check is written so that NaN fails it
        for key in ("dt", "t_end"):
            if not math.isfinite(getattr(self, key)):
                raise ParameterError(f"{key} must be finite")
        if self.dt <= 0:
            raise ParameterError("dt must be positive")
        if self.t_end <= self.dt:
            raise ParameterError("t_end must exceed dt")
        if not math.isfinite(self.t_end / self.dt):
            raise ParameterError("t_end / dt must be finite")
        if self.n_steps > MAX_STEPS:
            raise ParameterError(f"t_end / dt = {self.t_end / self.dt:.3g} steps exceeds the "
                                 f"maximum of {MAX_STEPS}; raise dt or shorten t_end")
        if not 0.0 < self.dealias_fraction <= 1.0:
            raise ParameterError("dealias_fraction must lie in (0, 1]")
        if self.blowup_threshold is not None and not 0 < self.blowup_threshold < math.inf:
            raise ParameterError("blowup_threshold must be positive and finite")
        if not (self.snapshot_stride >= 1 and float(self.snapshot_stride).is_integer()):
            raise ParameterError("snapshot_stride must be a positive integer")
        if self.n_rows > MAX_ROWS:
            raise ParameterError(f"t_end / dt = {self.t_end / self.dt:.3g} steps at "
                                 f"snapshot_stride {self.snapshot_stride} record {self.n_rows} "
                                 f"rows, over the maximum of {MAX_ROWS}; raise "
                                 "snapshot_stride or dt, or shorten t_end")

    @property
    def n_steps(self) -> int:
        """Steps from t = 0 to t_end, rounded to the nearest whole step."""
        return int(round(self.t_end / self.dt))

    @property
    def n_rows(self) -> int:
        """Norm rows of a run that reaches t_end: every snapshot_stride-th
        step, from t = 0."""
        return self.n_steps // int(self.snapshot_stride) + 1


@dataclass(frozen=True)
class BlowUp:
    time: float
    reason: str          # "escape" | "nan"


@dataclass
class Trajectory:
    """Norm time series (and optional field snapshots) from one simulation."""

    times: np.ndarray                      # row times, strictly increasing
    norms: np.ndarray                      # shape (len(times), 6), NORM_COLUMNS order
    grid: GridSpec
    params: EquationParams
    blowup: Optional[BlowUp] = None
    blowup_threshold: Optional[float] = None      # the threshold simulate resolved
    # one per row, (len(times), *grid.shape): arrays, or the lazy stacks of a
    # loaded run directory (cli.FieldStack), whose rows are arrays
    snapshots_u: Optional[np.ndarray] = None
    snapshots_ut: Optional[np.ndarray] = None

    @property
    def snapshot_times(self) -> Optional[np.ndarray]:
        """The row times when the trajectory keeps snapshots (one per row)."""
        return None if self.snapshots_u is None else self.times

    def column(self, name: str) -> np.ndarray:
        return self.norms[:, NORM_COLUMNS.index(name)]

    def series(self, name: str) -> np.ndarray:
        """(t, value) pairs for one norm column."""
        return np.column_stack([self.times, self.column(name)])


def blow_up_detect(w: Optional[np.ndarray], row: Optional[tuple],
                   threshold: Optional[float], sup: Optional[float] = None) -> Optional[str]:
    """"nan" once the monitored field w or the norm row (if one is due) holds
    a non-finite value, "escape" once sup |w| passes a threshold that is not
    None, else None.  The row carries u_t and the squared norms, which w may not.
    ``sup`` is sup |w|, or a finite bound on it that does not pass the
    threshold, when the caller already has one; w is then not read."""
    if sup is None:
        sup = sup_abs(w)
    if not math.isfinite(sup) or (row is not None and not all(map(math.isfinite, row))):
        return "nan"
    if threshold is not None and sup > threshold:
        return "escape"
    return None


class _Stepper:
    """Precomputed multipliers and a workspace for repeated steps of size dt."""

    def __init__(self, params: EquationParams, mu: ModulusSpec,
                 config: SolverConfig, grid: GridSpec):
        self.params = params
        self.mu = mu
        self.config = config
        self.grid = grid
        self.cache = MultiplierCache.build(grid, params.sigma, params.delta)
        self.prop = prop = Propagator.build(self.cache, config.dt)
        self.mask = grid.dealias_mask(config.dealias_fraction)
        self.on_u = params.target == Target.ON_U
        # f0 enters the predicted w through dt K1 (on_u) or dt D1 (on_ut), and
        # u through (dt/2) K1: the products dt * K1 * f0 and 0.5 * dt * K1 * f0
        # evaluate left to right, so these are their first factors, bit for bit
        self.dt_pred = config.dt * (prop.K1 if self.on_u else prop.D1)
        self.half_dt_K1 = 0.5 * config.dt * prop.K1
        half = prop.K0.shape
        self._f = (np.empty(half, dtype=complex), np.empty(half, dtype=complex))
        self._tmp = np.empty(half, dtype=complex)
        self._w = np.empty(grid.shape)
        self._aw = np.empty(grid.shape)
        self._psi = np.empty(grid.shape)
        self._last = (None, None)    # on_ut: (uth returned, its corrector forcing)

    def _f_hat(self, w_phys: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Half spectrum of the forcing |w|^p mu(|w|), cut to the dealias band,
        fresh or written into ``out``.

        A modulus evaluation failure is re-raised with its location.
        """
        aw = np.abs(w_phys, out=self._aw)
        try:
            # w_phys is read, and _w (which may hold it) is free: Psi's scratch
            f = psi(aw, self.params.p, self.mu, self._psi, self._w)
        except Exception as exc:
            worst = tuple(int(i) for i in np.unravel_index(int(np.argmax(aw)), aw.shape))
            raise SigmaevoError(
                f"modulus evaluation failed on field (max |w| = {float(np.max(aw))} "
                f"at index {worst}): {exc}") from exc
        fh = self.grid.fft(f, out=out)
        return np.multiply(fh, self.mask, out=fh)

    def step(self, uh: np.ndarray, uth: np.ndarray, w_phys: Optional[np.ndarray],
             out: Optional[tuple] = None):
        """One exponential-trapezoid step from the current spectral state.

        ``w_phys`` is the physical nonlinearity argument already available
        from the caller (u for on_u, u_t for on_ut), or None, and the step
        then transforms it back itself if it needs it.  On on_ut the step runs
        in PEC mode: when ``uth`` is the very array the previous step returned,
        that step's corrector forcing f(w_pred) stands in for f(w_phys), so a
        step evaluates the modulus and transforms forward once.  The new state
        is fresh, or written into the pair ``out``: (uh, uth) itself, advanced
        in place (w_phys and f0 are formed before the state is overwritten),
        or two arrays that alias neither input.
        """
        if out is None:
            out = (np.empty_like(self._tmp), np.empty_like(self._tmp))
        last_uth, last_f1 = self._last
        if not self.on_u and uth is last_uth:
            f0 = last_f1
        else:
            if w_phys is None:
                w_phys = self.grid.ifft(uh if self.on_u else uth, out=self._w)
            f0 = self._f_hat(w_phys, out=self._f[0])
        uh_new, uth_new = self.prop.apply(uh, uth, out=out)     # the linear part
        tmp = self._tmp
        np.multiply(self.dt_pred, f0, out=tmp)
        np.add(uh_new if self.on_u else uth_new, tmp, out=tmp)
        w_pred = self.grid.ifft(tmp, out=self._w)
        f1 = self._f_hat(w_pred, out=self._f[1] if f0 is self._f[0] else self._f[0])
        np.add(uh_new, np.multiply(self.half_dt_K1, f0, out=tmp), out=uh_new)
        # lin_ut + 0.5 * dt * (D1 * f0 + f1), in that order
        np.add(np.multiply(self.prop.D1, f0, out=tmp), f1, out=tmp)
        np.add(uth_new, np.multiply(0.5 * self.config.dt, tmp, out=tmp), out=uth_new)
        if not self.on_u:
            self._last = (uth_new, f1)
        return uh_new, uth_new


def _norm_row(uh, uth, u_phys, grid: GridSpec, params: EquationParams,
              work: Optional[np.ndarray] = None) -> tuple:
    """One row in NORM_COLUMNS order, in one pass over each half spectrum.

    |uh|^2, then |uth|^2, is formed once, in ``work`` (real, shape
    (2,) + uh.shape) when given, and each distinct weight power of a field is
    one plancherel_sum: r defaults to sigma, and r - sigma then clips to 0,
    so the five squared norms take three sums.  The energy adds squared sums,
    with no square root squared back.
    """
    abs_sq, tmp = np.empty((2,) + uh.shape) if work is None else work
    rs = max(params.r - params.sigma, 0.0)   # positive-part convention for the u_t norm
    sq = []
    for z, powers in ((uh, (0.0, params.r, params.sigma)), (uth, (0.0, rs))):
        np.add(np.square(z.real, out=abs_sq), np.square(z.imag, out=tmp), out=abs_sq)
        sums = {power: plancherel_sum(abs_sq, grid, power) for power in set(powers)}
        sq += [sums[power] for power in powers]
    u_sq, ur_sq, u_sigma_sq, ut_sq, utrs_sq = sq
    return (math.sqrt(u_sq), math.sqrt(ur_sq), math.sqrt(ut_sq), math.sqrt(utrs_sq),
            sup_abs(u_phys), ut_sq + u_sigma_sq)


def default_blowup_threshold(u0: np.ndarray, u1: np.ndarray) -> float:
    """1e6 x the initial sup-norm scale (guarded for u0 = 0 data)."""
    threshold = 1e6 * max(sup_abs(u0), sup_abs(u1), 1e-12)
    if threshold == math.inf:
        raise ParameterError("blowup_threshold: 1e6 x the initial sup norm overflows")
    return threshold


def _warn_if_outside_window(params: EquationParams):
    source, bad = theorem_window(params)
    if bad is not None:
        warn(f"parameters outside the {source.value} window ({bad.name}: {bad.detail}); "
             "running anyway")


class SnapshotStacks:
    """The in-memory snapshot sink: two stacks of ``n_rows`` rows allocated
    up front, row i's u and u_t transformed straight into row i of each.

    A snapshot sink names, by ``buffers(i)``, the pair of arrays that row i's
    u and u_t are transformed into; ``keep(i, t)`` takes row i, at time t,
    once it has passed its blow-up check; ``stacks(n)`` is the trajectory's
    (snapshots_u, snapshots_ut) after n kept rows.
    """

    def __init__(self, n_rows: int, grid: GridSpec):
        try:
            self.u, self.ut = (np.empty((n_rows,) + grid.shape) for _ in range(2))
        except MemoryError as exc:
            raise ParameterError(f"store_fields: the two snapshot stacks of {n_rows} rows "
                                 f"({8 * n_rows * grid.N ** grid.n} bytes each) cannot be "
                                 "allocated; raise snapshot_stride or shorten t_end") from exc

    def buffers(self, i: int) -> tuple:
        return self.u[i], self.ut[i]

    def keep(self, i: int, t: float):
        pass

    def stacks(self, n: int) -> tuple:
        return self.u[:n], self.ut[:n]


def _initial_state(u0: np.ndarray, u1: np.ndarray, grid: GridSpec) -> tuple:
    """The spectral state (uh, uth) of the data at t = 0, in a fresh pair,
    once the data are checked (grid shape, finite values)."""
    grid.check_field(u0)
    grid.check_field(u1)
    if not (np.all(np.isfinite(u0)) and np.all(np.isfinite(u1))):
        raise ParameterError("initial data must be finite")
    half = grid.xi_squared().shape
    return tuple(grid.fft(np.asarray(u, dtype=float), out=np.empty(half, dtype=complex))
                 for u in (u0, u1))


def _march(uh: np.ndarray, uth: np.ndarray, grid: GridSpec, params: EquationParams,
           levels, advance, monitor: Target, threshold: Optional[float],
           stride: int = 1, fields=None) -> Trajectory:
    """The time loop of both runs: from the spectral state (uh, uth) at t = 0
    through the times ``levels`` (an iterable of floats), ``advance(uh, uth,
    w, dt)`` returning the state moved on by dt, the pair it is given
    advanced in place (w is the monitored field, u or u_t, of the level it
    leaves, or None where that level did not transform it back).  Every
    ``stride``-th level is a row; a None ``threshold`` (u monitored) leaves
    only "nan".  A snapshot sink ``fields`` (see SnapshotStacks) keeps the
    fields of every row.

    The fields a level transforms back land in preallocated arrays: the
    snapshots a row keeps in the buffers its sink names, the others in a
    buffer of their own, which only a field that is transformed back outside
    a kept row has (u always, u_t only where it is monitored).  A norm row's
    squared moduli and sup_bound's |uth| go into the grid's transform scratch
    (GridSpec.half_spectrum_work), each filled and read between two
    transforms.
    """
    on_u = monitor == Target.ON_U
    scratch = (np.empty(grid.shape), None if on_u else np.empty(grid.shape))
    work = grid.half_spectrum_work()

    row_times, rows = [], []
    blowup, t_state, w = None, 0.0, None
    for k, t in enumerate(levels):
        if t != t_state:
            uh, uth = advance(uh, uth, w, t - t_state)
            t_state = t
        row = k % stride == 0
        keep = row and fields is not None
        u_buf, ut_buf = fields.buffers(len(rows)) if keep else scratch
        # transform back only what this level reads: w, and the fields of a row
        u_phys = grid.ifft(uh, out=u_buf) if on_u or row else None
        norms = _norm_row(uh, uth, u_phys, grid, params, work) if row else None
        if on_u:
            # a row's Linf_u is sup |u|: the check reads it rather than retaking it
            sup = norms[NORM_COLUMNS.index("Linf_u")] if row else None
        elif keep:
            sup = None
        else:
            # u_t is transformed back for the check only where its bound from
            # the spectrum does not clear the threshold by a margin far above
            # rounding (1e-9); a NaN or inf bound never does
            bound = sup_bound(uth, grid, work[1])
            sup = bound if math.isfinite(bound) and bound * (1 + 1e-9) <= threshold else None
        ut_phys = grid.ifft(uth, out=ut_buf) if keep or (not on_u and sup is None) else None
        w = u_phys if on_u else ut_phys

        reason = blow_up_detect(w, norms, threshold, sup)
        if reason is not None:
            blowup = BlowUp(time=t, reason=reason)
            break
        if row:
            row_times.append(t)
            rows.append(norms)
            if keep:
                fields.keep(len(rows) - 1, t)

    snaps = (None, None) if fields is None else fields.stacks(len(rows))
    return Trajectory(np.asarray(row_times, dtype=float),
                      np.asarray(rows).reshape(len(rows), len(NORM_COLUMNS)), grid, params,
                      blowup, threshold, *snaps)


def simulate(u0: np.ndarray, u1: np.ndarray, params: EquationParams,
             mu: ModulusSpec, config: SolverConfig, grid: GridSpec,
             fields=None) -> Trajectory:
    """Run the semilinear problem to t_end or blow-up.

    Records one norm row every ``snapshot_stride`` steps (always including
    t = 0), plus field snapshots when ``store_fields``: into the snapshot
    sink ``fields`` when given, else into SnapshotStacks.  The nonlinearity
    argument follows ``params.target``; t_end is rounded to the nearest whole
    step.  Parameters outside the relevant existence window only warn:
    experiments deliberately probe both sides.  Identical inputs produce
    bit-identical rows: the loop is sequential and purely deterministic.
    """
    _warn_if_outside_window(params)
    threshold = config.blowup_threshold
    if threshold is None:
        threshold = default_blowup_threshold(u0, u1)
    uh, uth = _initial_state(u0, u1, grid)
    del u0, u1    # the data go once transformed, unless the caller keeps them
    stepper = _Stepper(params, mu, config, grid)
    if config.store_fields and fields is None:
        fields = SnapshotStacks(config.n_rows, grid)
    # level k is at k * dt, formed per level: no array of every level's time
    return _march(uh, uth, grid, params, (k * config.dt for k in range(config.n_steps + 1)),
                  lambda uh, uth, w, dt: stepper.step(uh, uth, w, out=(uh, uth)),
                  params.target, threshold, config.snapshot_stride,
                  fields if config.store_fields else None)


def simulate_linear(u0: np.ndarray, u1: np.ndarray, params: EquationParams,
                    times: np.ndarray, grid: GridSpec,
                    store_fields: bool = False, fields=None) -> Trajectory:
    """Exact linear trajectory at nonnegative, strictly increasing times,
    with the snapshots of every sample when ``store_fields`` (into the sink
    ``fields`` when given, else into SnapshotStacks).

    The flow is a semigroup, S(t + d) = S(d) S(t): each sample is the previous
    one moved on by the exact propagator of the increment, rebuilt only when
    the increment differs from the last one by more than a relative 1e-12
    (uniform float samples, whose increments differ by rounding, take one
    build).  With no escape threshold, only "nan" ends a run.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not (np.all(times >= 0) and np.all(np.diff(times) > 0)):
        raise ParameterError("sample times must be nonnegative and strictly increasing")
    uh, uth = _initial_state(u0, u1, grid)
    del u0, u1    # the data go once transformed, unless the caller keeps them
    cache = MultiplierCache.build(grid, params.sigma, params.delta)
    prop = None

    def advance(uh, uth, w, dt):
        nonlocal prop
        if prop is None or abs(dt - prop.t) > 1e-12 * prop.t:
            prop = Propagator.build(cache, dt)
        return prop.apply(uh, uth, out=(uh, uth))

    if store_fields and fields is None:
        fields = SnapshotStacks(len(times), grid)
    return _march(uh, uth, grid, params, times.tolist(), advance, Target.ON_U, None,
                  fields=fields if store_fields else None)


def energy_identity_residuals(u0: np.ndarray, u1: np.ndarray, params: EquationParams,
                              times: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Relative residual of dE/dt = -2 || |D|^delta u_t ||^2 per interval.

    E is the energy column of the exact linear trajectory at ``times``; the
    dissipation integrand is evaluated exactly (linear propagator) at
    Gauss-Legendre nodes, 5 on each of 4 panels.  The only error is
    quadrature, so the residual isolates genuine violations of the identity.
    """
    E_vals = simulate_linear(u0, u1, params, times, grid).column("energy")
    cache = MultiplierCache.build(grid, params.sigma, params.delta)
    uh0 = grid.fft(np.asarray(u0, dtype=float))
    uth0 = grid.fft(np.asarray(u1, dtype=float))

    def dissipation(t):
        _, uth = Propagator.build(cache, float(t)).apply(uh0, uth0)
        return 2.0 * spectral_l2(uth, grid, params.delta) ** 2

    nodes, weights = gauss_legendre(5)
    resid = np.empty(len(times) - 1)
    for i in range(len(times) - 1):
        a, b = times[i], times[i + 1]
        total = 0.0
        edges = np.linspace(a, b, 5)
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            total += half * np.sum(weights * np.array([dissipation(mid + half * x) for x in nodes]))
        dE = E_vals[i + 1] - E_vals[i]
        scale = max(abs(dE), 1e-12 * max(E_vals[0], 1e-300))
        resid[i] = abs(dE + total) / scale
    return resid
