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
twice continuously differentiable at the junctions, and polynomial in
between, so every composite derivative used here has a closed form a test
oracle can evaluate independently.

On a trajectory with field snapshots the functionals

    I_R = integral of Psi(|w|) phi_R,      Psi(s) = s^p0 mu(s),
    J_R = integral of w * (adjoint operator applied to phi_R),

are computed by trapezoid (time) x Riemann (space) quadrature, with time
derivatives of phi_R taken by 4th-order finite differences on the snapshot
grid and spatial fractional Laplacians by spectral multiplier per slice.
For the on_ut variant the adjoint combination is
-d/dt phi_R + (-Lap)^sigma PhiR + (-Lap)^(sigma/2) phi_R with
PhiR(t, x) = integral of phi_R from t onward, and w = u_t.

Three exact facts keep the quadrature cheap.  Psi(|w|) does not depend on
R, so it is computed once.  The spatial multipliers have real, even
symbols, so they move from phi_R onto the solution by adjointness,
sum_x w * S phi = sum_x (S w) * phi, and the operator-applied stacks are
also computed once.  And phi_R, phi*_R, their time derivatives and PhiR
vanish identically on every column where |x|^sp + t_0 >= R, so each R
evaluates the profile, the time stencils and the quadrature on its
remaining columns only, with no transform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import CoverageError, ParameterError
from .modulus import ModulusSpec, psi
from .params import EquationParams, Target
from .spectral import GridSpec, fractional_derivative
from .solver import Trajectory


class QuinticProfile:
    """Decreasing C^2 cutoff: 1 on [0, 1/2], 0 on [1, inf), quintic between.

    With y = 2 (1 - r) the middle section is the smoothstep
    S(y) = y^3 (10 - 15 y + 6 y^2); S' and S'' vanish at both junctions.
    """

    @staticmethod
    def _s(y):
        return y ** 3 * (10.0 - 15.0 * y + 6.0 * y * y)

    @staticmethod
    def _s1(y):
        return 30.0 * y * y * (1.0 - y) ** 2

    @staticmethod
    def _s2(y):
        return 60.0 * y * (1.0 - y) * (1.0 - 2.0 * y)

    def value(self, r):
        r = np.asarray(r, dtype=float)
        y = np.clip(2.0 * (1.0 - r), 0.0, 1.0)
        out = self._s(y)
        return np.where(r <= 0.5, 1.0, np.where(r >= 1.0, 0.0, out))

    def d1(self, r):
        r = np.asarray(r, dtype=float)
        inside = (r > 0.5) & (r < 1.0)
        y = np.clip(2.0 * (1.0 - r), 0.0, 1.0)
        return np.where(inside, -2.0 * self._s1(y), 0.0)

    def d2(self, r):
        r = np.asarray(r, dtype=float)
        inside = (r > 0.5) & (r < 1.0)
        y = np.clip(2.0 * (1.0 - r), 0.0, 1.0)
        return np.where(inside, 4.0 * self._s2(y), 0.0)


@dataclass(frozen=True)
class TestFunctionSpec:
    """Cutoff profile plus the target-dependent scaling exponents."""

    __test__ = False   # not a pytest collectible despite the name

    profile: QuinticProfile
    target: Target
    sigma: float
    delta: float
    R_values: tuple

    def __post_init__(self):
        rs = self.R_values
        if len(rs) == 0 or any(r <= 0 for r in rs) or list(rs) != sorted(rs):
            raise ParameterError("R_values must be positive and increasing")

    @classmethod
    def for_params(cls, params: EquationParams, R_values: Sequence[float],
                   profile: Optional[QuinticProfile] = None) -> "TestFunctionSpec":
        return cls(profile or QuinticProfile(), params.target,
                   params.sigma, params.delta, tuple(float(r) for r in R_values))

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
    if R <= 0:
        raise ParameterError("R must be positive")
    arg = (np.asarray(radius, dtype=float) ** spec.scale_power + np.asarray(t, dtype=float)) / R
    return arg, spec.profile.value(arg) ** spec.power(n)


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

def _snapshot_stack(traj: Trajectory):
    if traj.snapshot_times is None or traj.snapshots_u is None:
        raise CoverageError("trajectory carries no field snapshots")
    times = np.asarray(traj.snapshot_times, dtype=float)
    if len(times) < 6:
        raise CoverageError("need at least 6 field snapshots")
    dt = times[1] - times[0]
    if np.max(np.abs(np.diff(times) - dt)) > 1e-9 * max(dt, 1e-30):
        raise CoverageError("field snapshots must be uniformly spaced")
    return times, float(dt)


def _field_for_target(traj: Trajectory, spec: TestFunctionSpec) -> np.ndarray:
    return traj.snapshots_u if spec.target == Target.ON_U else traj.snapshots_ut


def _spacetime_quadrature(values: np.ndarray, dt: float, grid: GridSpec) -> float:
    """Trapezoid in t (axis 0) x Riemann cells in x."""
    spatial = values.reshape(values.shape[0], -1).sum(axis=1) * grid.cell_volume
    return float(np.trapezoid(spatial, dx=dt))


class _Kernel:
    """The per-R quadrature shared by I_R, J_R and g(R) on a trajectory.

    Construction checks coverage for every R first: the snapshots must reach
    t = R and the support radius R^(1/sp) must stay within
    ``spatial_fraction * L``.  Stacks handed to a call are (T, k) arrays on
    ``columns``, the grid points whose |x|^sp + t_0 lies below the largest R.
    """

    def __init__(self, traj: Trajectory, spec: TestFunctionSpec, grid: GridSpec,
                 R_values: Sequence[float], spatial_fraction: float):
        times, dt = _snapshot_stack(traj)
        for R in R_values:
            if times[-1] < R - 1e-12:
                raise CoverageError(
                    f"snapshots end at t = {times[-1]}, need coverage to R = {R}")
            rad = spec.support_radius(R)
            if rad > spatial_fraction * grid.L:
                raise CoverageError(
                    f"Q_R spatial radius {rad:.3g} exceeds {spatial_fraction:.3g} * L = "
                    f"{spatial_fraction * grid.L:.3g}; enlarge the torus or shrink R")
        radius = grid.radius().reshape(-1)
        near = radius ** spec.scale_power + times[0]
        self.columns = np.flatnonzero(near < max(R_values))
        self.radius, self.near = radius[self.columns], near[self.columns]
        self.traj, self.spec, self.grid = traj, spec, grid
        self.times, self.dt = times, dt

    def _restrict(self, stack: np.ndarray) -> np.ndarray:
        return stack.reshape(len(stack), -1)[:, self.columns]

    def weight(self, mu: ModulusSpec, p0: float) -> np.ndarray:
        """Psi(|w|) on the kernel's columns."""
        return psi(np.abs(self._restrict(_field_for_target(self.traj, self.spec))), p0, mu)

    def adjoint(self, params: EquationParams) -> tuple:
        """The solution and the two operator-applied stacks J_R pairs with phi_R.

        on_u: (u, (-Lap)^sigma u, (-Lap)^delta u);
        on_ut: (u_t, (-Lap)^sigma u_t, (-Lap)^(sigma/2) u_t).
        """
        if self.spec.target == Target.ON_U:
            w, powers = self.traj.snapshots_u, (2.0 * params.sigma, 2.0 * params.delta)
        else:
            w, powers = self.traj.snapshots_ut, (2.0 * params.sigma, params.sigma)
        return (self._restrict(w),) + tuple(
            self._restrict(fractional_derivative(w, p, self.grid)) for p in powers)

    def __call__(self, R: float, weight: Optional[np.ndarray] = None,
                 adjoint: Optional[tuple] = None) -> tuple:
        """(I_R, J_R, g(R)) from one evaluation of phi_R on its support.

        I_R and g(R) need ``weight``, J_R needs ``adjoint``; a functional
        whose stacks are not given comes back as None.
        """
        cols = np.flatnonzero(self.near < R)
        arg, phi = _cutoff(self.times[:, None], self.radius[cols], R, self.spec, self.grid.n)
        I = J = g = None
        if weight is not None:
            psi_R = weight[:, cols]
            I = self._integral(psi_R * phi)
            g = self._integral(psi_R * np.where(arg >= 0.5, phi, 0.0))
        if adjoint is not None:
            w, s_sigma, s_low = (a[:, cols] for a in adjoint)
            dt = self.dt
            if self.spec.target == Target.ON_U:
                J = self._integral(w * time_derivative(phi, dt, 2) + s_sigma * phi
                                   - s_low * time_derivative(phi, dt, 1))
            else:
                # PhiR(t) = integral of phi_R from t to the last covered time
                tail = np.zeros_like(phi)
                tail[:-1] = np.flip(np.cumsum(np.flip(
                    0.5 * dt * (phi[1:] + phi[:-1]), axis=0), axis=0), axis=0)
                J = self._integral(s_sigma * tail + s_low * phi
                                   - w * time_derivative(phi, dt, 1))
        return I, J, g

    def _integral(self, values: np.ndarray) -> float:
        return _spacetime_quadrature(values, self.dt, self.grid)


def compute_I_R(traj: Trajectory, mu: ModulusSpec, p0: float, R: float,
                spec: TestFunctionSpec, grid: Optional[GridSpec] = None) -> float:
    """Weighted nonlinearity mass: integral of Psi(|w|) phi_R over Q_R."""
    kernel = _Kernel(traj, spec, grid or traj.grid, [R], spatial_fraction=1.0)
    return kernel(R, weight=kernel.weight(mu, p0))[0]


def compute_J_R(traj: Trajectory, R: float, spec: TestFunctionSpec,
                params: EquationParams, grid: Optional[GridSpec] = None) -> float:
    """Adjoint-operator functional paired with the solution.

    on_u:  integral of u * (d2/dt2 phi_R + (-Lap)^sigma phi_R
                            - (-Lap)^delta d/dt phi_R)
    on_ut: integral of u_t * (-d/dt phi_R + (-Lap)^sigma PhiR
                              + (-Lap)^(sigma/2) phi_R)

    Time derivatives: 4th-order stencils on the snapshot grid.  Spatial
    fractional powers: spectral multipliers, applied to the solution by
    adjointness (phi_R must sit well inside the torus: support radius below
    L/2).
    """
    kernel = _Kernel(traj, spec, grid or traj.grid, [R], spatial_fraction=0.5)
    return kernel(R, adjoint=kernel.adjoint(params))[1]


# -- averaged functionals -------------------------------------------------------

def compute_g(traj: Trajectory, mu: ModulusSpec, p0: float, r: float,
              spec: TestFunctionSpec, grid: Optional[GridSpec] = None) -> float:
    """g(r) = integral of Psi(|w|) phi*_r over the snapshot coverage."""
    kernel = _Kernel(traj, spec, grid or traj.grid, [r], spatial_fraction=1.0)
    return kernel(r, weight=kernel.weight(mu, p0))[2]


def compute_G(traj: Trajectory, mu: ModulusSpec, p0: float,
              spec: TestFunctionSpec, R_grid: Sequence[float],
              grid: Optional[GridSpec] = None) -> list:
    """Rows (R, g(R), G(R)) with G(R) = integral of g(r)/r dr from 0 to R.

    G accumulates by trapezoid in log r, with the leading piece below the
    first grid point extrapolated from the measure scaling g(r) ~ r^(1+n/sp).
    G is nondecreasing because g >= 0.
    """
    grid = grid or traj.grid
    rs = _increasing(R_grid, "R_grid")
    kernel = _Kernel(traj, spec, grid, rs, spatial_fraction=1.0)
    weight = kernel.weight(mu, p0)
    gs = [kernel(r, weight=weight)[2] for r in rs]
    return list(zip(rs, gs, _accumulate_G(rs, gs, spec.measure_exponent(grid.n))))


def scan(traj: Trajectory, mu: ModulusSpec, p0: float, spec: TestFunctionSpec,
         R_values: Sequence[float], params: EquationParams) -> list:
    """Rows (R, I_R, J_R, g(R), G(R)) over increasing R_values in one pass.

    The rows equal compute_I_R, compute_J_R and compute_G up to rounding.
    Psi(|w|) and the operator-applied stacks are built once; every R must
    meet the J_R coverage rule (support radius <= L/2), checked before any
    work.
    """
    rs = _increasing(R_values, "R_values")
    kernel = _Kernel(traj, spec, traj.grid, rs, spatial_fraction=0.5)
    weight, adjoint = kernel.weight(mu, p0), kernel.adjoint(params)
    rows = [kernel(R, weight, adjoint) for R in rs]
    Gs = _accumulate_G(rs, [g for _, _, g in rows], spec.measure_exponent(traj.grid.n))
    return [(R, I, J, g, G) for R, (I, J, g), G in zip(rs, rows, Gs)]


def _increasing(values: Sequence[float], name: str) -> list:
    rs = [float(r) for r in values]
    if rs != sorted(rs) or any(r <= 0 for r in rs):
        raise ParameterError(f"{name} must be positive and increasing")
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
