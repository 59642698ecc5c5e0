"""Space-time test-function functionals used as blow-up diagnostics.

The scaled cutoff

    phi_R(t, x) = profile( (|x|^sp + t) / R ) ** power

concentrates on the parabolic region Q_R = { |x|^sp + t <= R }, with
sp = 2 (sigma - delta) and power = n + 2 (sigma - delta) for the on_u
equation, sp = sigma and power = 2 (n + sigma) for on_ut.  The starred
variant phi*_R vanishes where the scaled argument is below 1/2, so its
support is the transition band Q*_R = { 1/2 <= (|x|^sp + t)/R <= 1 } whose
quadrature measure scales like R^(1 + n/sp).

The profile is a quintic smoothstep: exactly 1 below 1/2, exactly 0 above 1,
twice continuously differentiable at the junctions, and a quintic in
between, so every composite derivative used here has a closed form a test
oracle can evaluate independently.

On a trajectory with field snapshots the functionals

    I_R = integral of Psi(|w|) phi_R,      Psi(s) = s^p0 mu(s),
    J_R = integral of w * (adjoint operator applied to phi_R),

are computed by trapezoid (time) x Riemann (space) quadrature, with time
derivatives of phi_R taken by 4th-order finite differences on the snapshot
grid and spatial fractional Laplacians by spectral multiplier per slice.
For the on_ut variant the adjoint combination is
-d/dt phi_R + (-Lap)^sigma PhiR + (-Lap)^delta phi_R with
PhiR(t, x) = integral of phi_R from t onward, and w = u_t.

Every public functional is a view of one pass (_functionals), and three
exact facts keep it cheap.  Psi(|w|) does not depend on R, so it is
computed once.  The spatial multipliers have real, even symbols, so they
move from phi_R onto the solution by adjointness,
sum_x w * S phi = sum_x (S w) * phi, and the operator-applied stacks are
also computed once.  The pass holds one snapshot row at a time: it reads
the row into one buffer (a lazy stack, the files of a loaded run directory,
reads it straight in), transforms it once, writes each power's inverse back
into that buffer, and keeps only the columns the quadrature reads: the row
itself (Psi's argument) and the two operator-applied rows.  So no
stack-sized array is made.
And phi_R, phi*_R, their time derivatives and PhiR vanish identically on
every column where |x|^sp + t_0 >= R, so each R evaluates the profile, the
time stencils and the quadrature on its remaining columns only, with no
transform.  Each R's arrays are formed in place in buffers allocated once
per pass, in the order of operations of the formulas, so a pass holds a
fixed set of arrays: three T x cols stacks and Psi's weight, four T x cols
buffers and g's mask (cols = the columns under the largest R), and while
it reads, one row, its spectrum and a product (the symbols are the grid's).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import CoverageError, ParameterError
from .modulus import ModulusSpec, psi
from .params import EquationParams, Target
from .spectral import GridSpec
from .solver import Trajectory


def quintic_profile(r, out: Optional[np.ndarray] = None, work: Optional[tuple] = None):
    """Decreasing C^2 cutoff: 1 on [0, 1/2], 0 on [1, inf), quintic between.

    With y = 2 (1 - r) clipped to [0, 1] the profile is the smoothstep
    S(y) = y^3 (10 - 15 y + 6 y^2); S' and S'' vanish at both junctions, and
    the clip makes the plateaus exact (S(1) = 1, S(0) = 0).  With ``out``
    and ``work`` (two arrays of r's shape besides it) nothing is allocated.
    """
    r = np.asarray(r, dtype=float)
    if out is None:
        out = np.empty_like(r)
    y, term = (np.empty_like(r) for _ in range(2)) if work is None else work
    np.clip(np.multiply(np.subtract(1.0, r, out=y), 2.0, out=y), 0.0, 1.0, out=y)
    np.subtract(10.0, np.multiply(y, 15.0, out=out), out=out)
    out += np.multiply(np.multiply(y, 6.0, out=term), y, out=term)
    return np.multiply(np.power(y, 3, out=y), out, out=out)


@dataclass(frozen=True)
class TestFunctionSpec:
    """The target-dependent scaling exponents of the quintic cutoff."""

    __test__ = False   # not a pytest collectible despite the name

    target: Target
    sigma: float
    delta: float
    R_values: tuple

    @classmethod
    def for_params(cls, params: EquationParams, R_values: Sequence[float]) -> "TestFunctionSpec":
        """The spec of ``params`` scanned over R_values (positive, finite, increasing)."""
        return cls(params.target, params.sigma, params.delta,
                   tuple(_increasing(R_values, "R_values")))

    @property
    def scale_power(self) -> float:
        """Exponent sp in the scaled radius |x|^sp."""
        if self.target == Target.ON_U:
            return 2.0 * (self.sigma - self.delta)
        return self.sigma

    def power(self, n: int) -> float:
        """Outer power applied to the profile in dimension n."""
        if self.target == Target.ON_U:
            return n + 2.0 * (self.sigma - self.delta)
        return 2.0 * (n + self.sigma)

    def support_radius(self, R: float) -> float:
        """Spatial extent of Q_R."""
        return R ** (1.0 / self.scale_power)

    def measure_exponent(self, n: int) -> float:
        """Predicted scaling exponent of |Q*_R|: 1 + n / sp."""
        return 1.0 + n / self.scale_power


def phi_R(t, radius, R: float, spec: TestFunctionSpec, n: int = 1):
    """The cutoff phi_R at time(s) t and |x| = radius; exact 0/1 plateaus."""
    return quintic_profile(_scaled(t, radius, R, spec)) ** spec.power(n)


def phi_star_R(t, radius, R: float, spec: TestFunctionSpec, n: int = 1):
    """The band cutoff phi*_R: equal to phi_R on arg >= 1/2, zero below."""
    arg = _scaled(t, radius, R, spec)
    return np.where(arg >= 0.5, quintic_profile(arg) ** spec.power(n), 0.0)


def _scaled(t, radius, R: float, spec: TestFunctionSpec):
    """The scaled argument (|x|^sp + t) / R, R positive and finite."""
    (R,) = _increasing([R], "R")
    return (np.asarray(radius, dtype=float) ** spec.scale_power + np.asarray(t, dtype=float)) / R


# -- finite differences in time ---------------------------------------------

# 4th-order weights at unit spacing, as exact fractions (Fornberg, Math.
# Comp. 51, 1988): per derivative order, the central 5-point row, then the
# one-sided 6-node closures of rows 0 and 1.  Rows T-2 and T-1 are the
# closures of rows 1 and 0 reversed, times (-1)^order.
_TIME_STENCILS = {
    1: ((1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12),
        (-137 / 60, 5.0, -5.0, 10 / 3, -5 / 4, 1 / 5),
        (-1 / 5, -13 / 12, 2.0, -1.0, 1 / 3, -1 / 20)),
    2: ((-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12),
        (15 / 4, -77 / 6, 107 / 6, -13.0, 61 / 12, -5 / 6),
        (5 / 6, -5 / 4, -1 / 3, 7 / 6, -1 / 2, 1 / 12)),
}


def time_derivative(arr: np.ndarray, dt: float, order: int, out: Optional[np.ndarray] = None,
                    work: Optional[np.ndarray] = None) -> np.ndarray:
    """4th-order d^order/dt^order along axis 0 of a uniform snapshot stack.

    Central 5-point stencils in the interior; one-sided 6-node closures on
    the two rows at each end (still 4th order for order <= 2), each weight
    the table's divided by dt^order.  Each row is a sum of weighted rows,
    added in node order starting from 0; with ``out`` and ``work`` (arrays
    of arr's shape) nothing is allocated.
    """
    if order not in (1, 2):
        raise ParameterError("only first and second time derivatives are used")
    T = arr.shape[0]
    if T < 6:
        raise CoverageError("need at least 6 snapshots for 4th-order time stencils")
    if out is None:
        out = np.empty_like(arr, dtype=float)
    if work is None:
        work = np.empty_like(out)

    def weighted_sum(target, weights, first):
        target[...] = 0.0
        for i, w in enumerate(weights):
            target += np.multiply(arr[first + i:first + i + len(target)], w / dt ** order,
                                  out=work[:len(target)])

    central, row0, row1 = _TIME_STENCILS[order]
    weighted_sum(out[2:T - 2], central, 0)
    for row, weights in ((0, row0), (1, row1)):
        weighted_sum(out[row:row + 1], weights, 0)
    for row, weights in ((T - 2, row1), (T - 1, row0)):
        weighted_sum(out[row:row + 1], [(-1) ** order * w for w in reversed(weights)], T - 6)
    return out


# -- quadrature over trajectories ---------------------------------------------

def _functionals(traj: Trajectory, spec: TestFunctionSpec, R_values: Sequence[float],
                 name: str, mu: Optional[ModulusSpec] = None, p0: Optional[float] = None,
                 params: Optional[EquationParams] = None) -> list:
    """Rows (R, I_R, J_R, g(R)), one per R, from one pass over the monitored stack.

    The stack w is the trajectory's u snapshots on on_u and its u_t
    snapshots on on_ut: an array, or a lazy stack whose rows are arrays.
    I_R and g(R) need ``mu`` and ``p0``, J_R needs ``params``; a functional
    whose inputs are not given comes back as None.  The R values (called
    ``name`` in the error) must be positive, finite and increasing.  Then
    coverage is checked for every R before any work: at least 6 uniformly
    spaced snapshots that reach t = R, and a support radius R^(1/sp) within
    L, or within L/2 when J_R is asked for (its multipliers see phi_R as a
    periodic function, so its support must sit well inside the torus).
    Psi(|w|) and the operator-applied stacks are kept on the grid points
    whose |x|^sp + t_0 lies below the largest R.
    """
    rs = _increasing(R_values, name)
    grid = traj.grid
    stack = traj.snapshots_u if spec.target == Target.ON_U else traj.snapshots_ut
    if stack is None:
        raise CoverageError("trajectory carries no field snapshots")
    times = np.asarray(traj.times, dtype=float)
    if len(times) < 6:
        raise CoverageError("need at least 6 field snapshots")
    dt = float(times[1] - times[0])
    if np.max(np.abs(np.diff(times) - dt)) > 1e-9 * max(dt, 1e-30):
        raise CoverageError("field snapshots must be uniformly spaced")
    fraction = 1.0 if params is None else 0.5
    for R in rs:
        if times[-1] < R - 1e-12:
            raise CoverageError(
                f"snapshots end at t = {times[-1]}, need coverage to R = {R}")
        rad = spec.support_radius(R)
        if rad > fraction * grid.L:
            raise CoverageError(
                f"Q_R spatial radius {rad:.3g} exceeds {fraction:.3g} * L = "
                f"{fraction * grid.L:.3g}; enlarge the torus or shrink R")
    # |x|^sp, formed once: each R takes its columns
    powered = grid.radius().reshape(-1) ** spec.scale_power
    near = powered + times[0]
    columns = np.flatnonzero(near < rs[-1])
    powered, near = powered[columns], near[columns]
    powers = () if params is None else (2.0 * params.sigma, 2.0 * params.delta)
    w, *applied = _read(stack, len(times), grid, columns, powers)
    # each R's scaled argument, phi_R, stencils, PhiR tail and integrands
    # are formed in place in four buffers (their leading T x len(cols)
    # entries) allocated once per pass, combined in the order of the
    # formulas, so the bits are those of per-R arrays
    T, K = w.shape
    pool = np.empty((4, T * K))
    weight = None
    if mu is not None:
        weight = psi(np.abs(w, out=pool[0].reshape(T, K)), p0, mu,
                     out=np.empty_like(w), work=pool[1].reshape(T, K))
        mask = np.empty(T * K, dtype=bool)
    scaled = np.empty(K)
    rows = []
    for R in rs:
        cols = np.flatnonzero(near < R)
        shape = (T, len(cols))
        arg, phi, a, b = (buf[:T * len(cols)].reshape(shape) for buf in pool)
        take = functools.partial(_take, cols)
        # (|x|^sp + t) / R.  A ufunc over broadcast operands takes buffers
        # of up to 64 KiB per call, a broadcast copyto none
        np.copyto(arg, take(powered, scaled[:len(cols)]))
        np.copyto(a, times[:, None])
        np.divide(np.add(arg, a, out=arg), R, out=arg)
        quintic_profile(arg, out=phi, work=(a, b))
        phi **= spec.power(grid.n)
        I = J = g = None
        if weight is not None:
            I = _integral(np.multiply(take(weight, a), phi, out=b), dt, grid)
            # Psi phi*_R: phi*_R is phi_R where arg >= 1/2 and 0 below
            below = np.less(arg, 0.5, out=mask[:arg.size].reshape(shape))
            g = _integral(np.multiply(a, 0.0, out=b, where=below), dt, grid)
        if params is not None:
            # arg is spent: it takes the stencils (and PhiR's tail)
            s_sigma, s_delta = applied
            if spec.target == Target.ON_U:
                # w d2/dt2 phi_R + s_sigma phi_R - s_delta d/dt phi_R
                np.multiply(take(w, a), time_derivative(phi, dt, 2, out=arg, work=b), out=a)
                a += np.multiply(take(s_sigma, b), phi, out=b)
                d1 = time_derivative(phi, dt, 1, out=arg, work=b)
                a -= np.multiply(take(s_delta, b), d1, out=b)
            else:
                # PhiR(t) = integral of phi_R from t to the last covered time,
                # a cumsum over the rows in reverse
                step = np.multiply(np.add(phi[1:], phi[:-1], out=b[:-1]), 0.5 * dt, out=b[:-1])
                tail = arg
                np.cumsum(step[::-1], axis=0, out=tail[-2::-1])
                tail[-1] = 0.0
                # s_sigma PhiR + s_delta phi_R - w d/dt phi_R
                np.multiply(take(s_sigma, a), tail, out=a)
                a += np.multiply(take(s_delta, b), phi, out=b)
                d1 = time_derivative(phi, dt, 1, out=arg, work=b)
                a -= np.multiply(take(w, b), d1, out=b)
            J = _integral(a, dt, grid)
        rows.append((R, I, J, g))
    return rows


def _read(stack, T: int, grid: GridSpec, columns: np.ndarray, powers: tuple) -> list:
    """The first T rows of ``stack``, then (-Lap)^(s/2) of them for each
    power s, on ``columns`` of the flattened grid, from one pass that holds
    one row at a time.  The row is read into a buffer (a lazy stack's
    read_into reads its file straight into it) and transformed once; each
    power's inverse goes back into the row buffer, which keeps only those
    columns; power 0 is the rows themselves.  The row, its spectrum and the
    product with a symbol are buffers allocated once per pass; the symbols
    are the grid's own."""
    w = np.empty((T, len(columns)))
    stacks = [np.empty_like(w) if p else w for p in powers]
    applied = [(grid.symbol(p), out) for p, out in zip(powers, stacks) if p]
    row = np.empty(grid.shape)
    flat = row.reshape(-1)
    read_into = getattr(stack, "read_into", None)
    if applied:
        spectrum, product = (np.empty(grid.xi_squared().shape, dtype=complex) for _ in range(2))
    for i in range(T):
        if read_into is None:
            row[...] = stack[i]
        else:
            read_into(i, row)
        _take(columns, flat, w[i])
        if applied:
            wh = grid.fft(row, out=spectrum)
            for sym, out in applied:
                grid.ifft(np.multiply(sym, wh, out=product), out=row)
                _take(columns, flat, out[i])
    return [w, *stacks]


def _take(cols: np.ndarray, source: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The columns ``cols`` (last axis) of ``source``, written into ``out``.
    They are valid indices, so mode "clip" changes nothing but that numpy
    writes into ``out`` directly; its default "raise" buffers the output."""
    return np.take(source, cols, axis=-1, out=out, mode="clip")


def _integral(values: np.ndarray, dt: float, grid: GridSpec) -> float:
    """Trapezoid in t (axis 0) x Riemann cells in x."""
    spatial = values.reshape(values.shape[0], -1).sum(axis=1) * grid.cell_volume
    return float(np.trapezoid(spatial, dx=dt))


def compute_I_R(traj: Trajectory, mu: ModulusSpec, p0: float, R: float,
                spec: TestFunctionSpec) -> float:
    """Weighted nonlinearity mass: integral of Psi(|w|) phi_R over Q_R."""
    return _functionals(traj, spec, [R], "R", mu, p0)[0][1]


def compute_J_R(traj: Trajectory, R: float, spec: TestFunctionSpec,
                params: EquationParams) -> float:
    """Adjoint-operator functional paired with the solution.

    on_u:  integral of u * (d2/dt2 phi_R + (-Lap)^sigma phi_R
                            - (-Lap)^delta d/dt phi_R)
    on_ut: integral of u_t * (-d/dt phi_R + (-Lap)^sigma PhiR
                              + (-Lap)^delta phi_R)

    Both pair the solution with the equation's own operators, (-Lap)^sigma
    and the damping (-Lap)^delta.  Time derivatives: 4th-order stencils on
    the snapshot grid.  Spatial fractional powers: spectral multipliers,
    applied to the solution by adjointness (phi_R must sit well inside the
    torus: support radius below L/2).
    """
    return _functionals(traj, spec, [R], "R", params=params)[0][2]


# -- averaged functionals -------------------------------------------------------

def compute_g(traj: Trajectory, mu: ModulusSpec, p0: float, r: float,
              spec: TestFunctionSpec) -> float:
    """g(r) = integral of Psi(|w|) phi*_r over the snapshot coverage."""
    return _functionals(traj, spec, [r], "R", mu, p0)[0][3]


def compute_G(traj: Trajectory, mu: ModulusSpec, p0: float,
              spec: TestFunctionSpec, R_grid: Sequence[float]) -> list:
    """Rows (R, g(R), G(R)) with G(R) = integral of g(r)/r dr from 0 to R.

    G accumulates by trapezoid in log r, with the leading piece below the
    first grid point extrapolated from the measure scaling g(r) ~ r^(1+n/sp).
    G is nondecreasing because g >= 0.
    """
    rows = _functionals(traj, spec, R_grid, "R_grid", mu, p0)
    rs, gs = [R for R, _, _, _ in rows], [g for _, _, _, g in rows]
    return list(zip(rs, gs, _accumulate_G(rs, gs, spec.measure_exponent(traj.grid.n))))


def scan(traj: Trajectory, mu: ModulusSpec, p0: float, spec: TestFunctionSpec) -> list:
    """Rows (R, I_R, J_R, g(R), G(R)) over spec.R_values in one pass.

    The rows equal compute_I_R, compute_J_R and compute_G, which are views
    of the same pass, up to rounding.  Every R must meet the J_R coverage
    rule (support radius <= L/2), checked before any work.
    """
    rows = _functionals(traj, spec, spec.R_values, "R_values", mu, p0, traj.params)
    rs = [R for R, _, _, _ in rows]
    Gs = _accumulate_G(rs, [g for _, _, _, g in rows], spec.measure_exponent(traj.grid.n))
    return [(R, I, J, g, G) for (R, I, J, g), G in zip(rows, Gs)]


def _increasing(values: Sequence[float], name: str) -> list:
    rs = [float(r) for r in values]
    # written so that NaN and inf fail it
    if not (rs and all(0 < r < math.inf for r in rs) and rs == sorted(rs)):
        raise ParameterError(f"{name} must be positive, finite and increasing")
    return rs


def _accumulate_G(rs: list, gs: list, beta: float) -> list:
    """G at each r: trapezoid in log r after the leading r^beta piece."""
    G = gs[0] / beta   # integral of c r^beta / r from 0 to R0
    out = [G]
    for i in range(1, len(rs)):
        G += 0.5 * (gs[i] + gs[i - 1]) * math.log(rs[i] / rs[i - 1])
        out.append(G)
    return out


def support_measure(R: float, spec: TestFunctionSpec, grid: GridSpec,
                    times: np.ndarray) -> float:
    """Quadrature measure of the band Q*_R on the snapshot x grid lattice."""
    times = np.asarray(times, dtype=float)
    if len(times) < 2:
        raise CoverageError("need at least 2 snapshot times")
    dt = times[1] - times[0]
    arg = _scaled(times[:, None], grid.radius().ravel()[None, :], R, spec)
    inside = (arg >= 0.5) & (arg <= 1.0)
    per_slice = inside.sum(axis=1) * grid.cell_volume
    return float(np.trapezoid(per_slice, dx=dt))
