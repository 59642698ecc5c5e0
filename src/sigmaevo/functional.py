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
also computed once.  The pass reads the monitored stack in blocks of rows
(at most 256 KiB of half spectrum each) and keeps only the columns the
quadrature reads: of each block, the rows themselves (Psi's argument) and
the two operator-applied rows.  So the stack may be a lazy one that reads
its rows from files (a loaded run directory), and no stack-sized array is
made; every row is transformed on its own either way, so the bits do not
depend on the block size.
And phi_R, phi*_R, their time derivatives and PhiR vanish identically on
every column where |x|^sp + t_0 >= R, so each R evaluates the profile, the
time stencils and the quadrature on its remaining columns only, with no
transform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import CoverageError, ParameterError
from .modulus import ModulusSpec, psi
from .params import EquationParams, Target
from .spectral import GridSpec, fractional_symbol
from .solver import Trajectory


def quintic_profile(r):
    """Decreasing C^2 cutoff: 1 on [0, 1/2], 0 on [1, inf), quintic between.

    With y = 2 (1 - r) the middle section is the smoothstep
    S(y) = y^3 (10 - 15 y + 6 y^2); S' and S'' vanish at both junctions.
    """
    r = np.asarray(r, dtype=float)
    y = np.clip(2.0 * (1.0 - r), 0.0, 1.0)
    s = y ** 3 * (10.0 - 15.0 * y + 6.0 * y * y)
    return np.where(r <= 0.5, 1.0, np.where(r >= 1.0, 0.0, s))


# complex half spectrum that one block of rows in _read may hold
_BLOCK_BYTES = 256 * 1024


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
    return _cutoff(t, radius, R, spec, n)[1]


def phi_star_R(t, radius, R: float, spec: TestFunctionSpec, n: int = 1):
    """The band cutoff phi*_R: equal to phi_R on arg >= 1/2, zero below."""
    arg, phi = _cutoff(t, radius, R, spec, n)
    return np.where(arg >= 0.5, phi, 0.0)


def _cutoff(t, radius, R: float, spec: TestFunctionSpec, n: int):
    """The scaled argument (|x|^sp + t) / R and phi_R there."""
    (R,) = _increasing([R], "R")
    arg = (np.asarray(radius, dtype=float) ** spec.scale_power + np.asarray(t, dtype=float)) / R
    return arg, quintic_profile(arg) ** spec.power(n)


# -- finite differences in time (Fornberg weights) ---------------------------

def fd_weights(x: np.ndarray, x0: float, m: int) -> np.ndarray:
    """Weights of the m-th derivative at x0 from nodes x (Fornberg 1988)."""
    x = np.asarray(x, dtype=float)
    nnodes = len(x)
    c = np.zeros((nnodes, m + 1))
    c[0, 0] = 1.0
    c1, c4 = 1.0, x[0] - x0
    for i in range(1, nnodes):
        mn = min(i, m)
        c2, c5 = 1.0, c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def time_derivative(arr: np.ndarray, dt: float, order: int) -> np.ndarray:
    """4th-order d^order/dt^order along axis 0 of a uniform snapshot stack.

    Central 5-point stencils in the interior; one-sided 6-node closures on
    the two rows at each end (still 4th order for order <= 2).
    """
    if order not in (1, 2):
        raise ParameterError("only first and second time derivatives are used")
    T = arr.shape[0]
    if T < 6:
        raise CoverageError("need at least 6 snapshots for 4th-order time stencils")
    out = np.empty_like(arr, dtype=float)
    nodes = np.arange(5) * dt
    w_c = fd_weights(nodes, 2 * dt, order)
    interior = sum(w_c[i] * arr[i:T - 4 + i] for i in range(5))
    out[2:T - 2] = interior
    edge_nodes = np.arange(6) * dt
    for row in (0, 1):
        w = fd_weights(edge_nodes, row * dt, order)
        out[row] = sum(w[i] * arr[i] for i in range(6))
    for row in (T - 2, T - 1):
        w = fd_weights(edge_nodes, (row - (T - 6)) * dt, order)
        out[row] = sum(w[i] * arr[T - 6 + i] for i in range(6))
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
    radius = grid.radius().reshape(-1)
    near = radius ** spec.scale_power + times[0]
    columns = np.flatnonzero(near < rs[-1])
    radius, near = radius[columns], near[columns]
    powers = () if params is None else (2.0 * params.sigma, 2.0 * params.delta)
    w, *applied = _read(stack, len(times), grid, columns, powers)
    weight = None if mu is None else psi(np.abs(w), p0, mu)
    rows = []
    for R in rs:
        cols = np.flatnonzero(near < R)
        arg, phi = _cutoff(times[:, None], radius[cols], R, spec, grid.n)
        I = J = g = None
        if weight is not None:
            psi_R = weight[:, cols]
            I = _integral(psi_R * phi, dt, grid)
            g = _integral(psi_R * np.where(arg >= 0.5, phi, 0.0), dt, grid)
        if params is not None:
            w_R, s_sigma, s_delta = (a[:, cols] for a in (w, *applied))
            if spec.target == Target.ON_U:
                J = _integral(w_R * time_derivative(phi, dt, 2) + s_sigma * phi
                              - s_delta * time_derivative(phi, dt, 1), dt, grid)
            else:
                # PhiR(t) = integral of phi_R from t to the last covered time
                tail = np.zeros_like(phi)
                tail[:-1] = np.flip(np.cumsum(np.flip(
                    0.5 * dt * (phi[1:] + phi[:-1]), axis=0), axis=0), axis=0)
                J = _integral(s_sigma * tail + s_delta * phi
                              - w_R * time_derivative(phi, dt, 1), dt, grid)
        rows.append((R, I, J, g))
    return rows


def _read(stack, T: int, grid: GridSpec, columns: np.ndarray, powers: tuple) -> list:
    """The first T rows of ``stack``, then (-Lap)^(s/2) of them for each
    power s, on ``columns`` of the flattened grid, from one pass over the
    rows in blocks.  One forward transform of a block serves every power,
    whose inverses keep only those columns; power 0 is the rows themselves.
    A block's rows, spectrum and inverse go through buffers allocated once
    per pass: a block-sized array made per block is mapped and unmapped by
    the allocator each time, and page-faulted afresh (about 2,900 minor
    faults per scan-1d scan)."""
    xisq = grid.xi_squared()
    w = np.empty((T, len(columns)))
    stacks = [np.empty_like(w) if p else w for p in powers]
    applied = [(fractional_symbol(xisq, p), out) for p, out in zip(powers, stacks) if p]
    size = min(T, max(1, _BLOCK_BYTES // (16 * xisq.size)))
    rows = np.empty((size,) + grid.shape)
    if applied:
        spectrum, product = (np.empty((size,) + xisq.shape, dtype=complex) for _ in range(2))
        back = np.empty_like(rows)
    for lo in range(0, T, size):
        m = min(size, T - lo)
        for j in range(m):
            rows[j] = stack[lo + j]
        w[lo:lo + m] = rows[:m].reshape(m, -1)[:, columns]
        if applied:
            wh = grid.fft(rows[:m], out=spectrum[:m])
            for sym, out in applied:
                np.multiply(sym, wh, out=product[:m])
                out[lo:lo + m] = grid.ifft(product[:m], out=back[:m]).reshape(m, -1)[:, columns]
    return [w, *stacks]


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
    dt = times[1] - times[0]
    rad = grid.radius().ravel()
    arg = (rad[None, :] ** spec.scale_power + times[:, None]) / R
    inside = (arg >= 0.5) & (arg <= 1.0)
    per_slice = inside.sum(axis=1) * grid.cell_volume
    return float(np.trapezoid(per_slice, dx=dt))
