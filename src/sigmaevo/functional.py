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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import CoverageError, ParameterError, RangeError
from .modulus import ModulusSpec
from .params import EquationParams, Target
from .spectral import GridSpec, fractional_symbol
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
    if R <= 0:
        raise ParameterError("R must be positive")
    arg = (np.asarray(radius, dtype=float) ** spec.scale_power + np.asarray(t, dtype=float)) / R
    return spec.profile.value(arg) ** _power(spec, n)


def phi_star_R(t, radius, R: float, spec: TestFunctionSpec, n: int = 1):
    """The band cutoff phi*_R: equal to phi_R on arg >= 1/2, zero below."""
    if R <= 0:
        raise ParameterError("R must be positive")
    arg = (np.asarray(radius, dtype=float) ** spec.scale_power + np.asarray(t, dtype=float)) / R
    return np.where(arg >= 0.5, spec.profile.value(arg) ** _power(spec, n), 0.0)


def _power(spec: TestFunctionSpec, n: int) -> float:
    return spec.power(n)


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


def _check_coverage(traj: Trajectory, R: float, spec: TestFunctionSpec,
                    grid: GridSpec, spatial_fraction: float = 1.0):
    times, dt = _snapshot_stack(traj)
    if times[-1] < R - 1e-12:
        raise CoverageError(f"snapshots end at t = {times[-1]}, need coverage to R = {R}")
    rad = spec.support_radius(R)
    if rad > spatial_fraction * grid.L:
        raise CoverageError(
            f"Q_R spatial radius {rad:.3g} exceeds {spatial_fraction:.3g} * L = "
            f"{spatial_fraction * grid.L:.3g}; enlarge the torus or shrink R")
    return times, dt


def _field_for_target(traj: Trajectory, spec: TestFunctionSpec) -> np.ndarray:
    return traj.snapshots_u if spec.target == Target.ON_U else traj.snapshots_ut


def _spacetime_quadrature(values: np.ndarray, dt: float, grid: GridSpec) -> float:
    """Trapezoid in t (axis 0) x Riemann cells in x."""
    spatial = values.reshape(values.shape[0], -1).sum(axis=1) * grid.cell_volume
    return float(np.trapezoid(spatial, dx=dt))


def compute_I_R(traj: Trajectory, mu: ModulusSpec, p0: float, R: float,
                spec: TestFunctionSpec, grid: Optional[GridSpec] = None) -> float:
    """Weighted nonlinearity mass: integral of Psi(|w|) phi_R over Q_R."""
    grid = grid or traj.grid
    times, dt = _check_coverage(traj, R, spec, grid, spatial_fraction=1.0)
    w = _field_for_target(traj, spec)
    rad = grid.radius()
    phi = phi_R(times[:, None], rad.ravel()[None, :], R, spec, grid.n)
    integrand = psi(np.abs(w.reshape(len(times), -1)), p0, mu) * phi
    return _spacetime_quadrature(integrand.reshape((len(times),) + grid.shape), dt, grid)


def _laplacian_power(stack: np.ndarray, power: float, grid: GridSpec) -> np.ndarray:
    """(-Lap)^(power/2) per time slice: spectral multiplier |xi|^power."""
    sym = fractional_symbol(grid.xi_squared(), power)
    axes = tuple(range(1, stack.ndim))
    return np.fft.irfftn(sym[None, ...] * np.fft.rfftn(stack, axes=axes),
                         s=stack.shape[1:], axes=axes)


def compute_J_R(traj: Trajectory, R: float, spec: TestFunctionSpec,
                params: EquationParams, grid: Optional[GridSpec] = None) -> float:
    """Adjoint-operator functional paired with the solution.

    on_u:  integral of u * (d2/dt2 phi_R + (-Lap)^sigma phi_R
                            - (-Lap)^delta d/dt phi_R)
    on_ut: integral of u_t * (-d/dt phi_R + (-Lap)^sigma PhiR
                              + (-Lap)^(sigma/2) phi_R)

    Time derivatives: 4th-order stencils on the snapshot grid.  Spatial
    fractional powers: spectral multipliers (phi_R must sit well inside the
    torus: support radius below L/2).
    """
    grid = grid or traj.grid
    times, dt = _check_coverage(traj, R, spec, grid, spatial_fraction=0.5)
    rad = grid.radius()
    phi = phi_R(times[:, None], rad.ravel()[None, :], R, spec, grid.n)
    phi = phi.reshape((len(times),) + grid.shape)

    if spec.target == Target.ON_U:
        op = (time_derivative(phi, dt, 2)
              + _laplacian_power(phi, 2.0 * params.sigma, grid)
              - _laplacian_power(time_derivative(phi, dt, 1), 2.0 * params.delta, grid))
        w = traj.snapshots_u
    else:
        # PhiR(t) = integral of phi_R from t to the last covered time
        rev = np.flip(np.cumsum(np.flip(
            0.5 * dt * (phi[1:] + phi[:-1]), axis=0), axis=0), axis=0)
        Phi = np.concatenate([rev, np.zeros((1,) + grid.shape)], axis=0)
        op = (-time_derivative(phi, dt, 1)
              + _laplacian_power(Phi, 2.0 * params.sigma, grid)
              + _laplacian_power(phi, params.sigma, grid))
        w = traj.snapshots_ut
    return _spacetime_quadrature(w * op, dt, grid)


# -- Psi and its inverse -------------------------------------------------------

def psi(s, p0: float, mu: ModulusSpec):
    """Psi(s) = s^p0 mu(s) for scalar or array s >= 0."""
    arr = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore"):
        powed = np.where(arr > 1e-300, np.exp(p0 * np.log(np.where(arr > 1e-300, arr, 1.0))), 0.0)
    out = powed * mu.evaluate(arr)
    if np.isscalar(s) or arr.ndim == 0:
        return float(out)
    return out


def psi_inverse(y: float, p0: float, mu: ModulusSpec,
                s_max: Optional[float] = None, rel_tol: float = 1e-12) -> float:
    """Solve Psi(s) = y by bisection; Psi is strictly increasing for s > 0."""
    if y < 0:
        raise RangeError("psi_inverse requires y >= 0")
    if y == 0.0:
        return 0.0
    hi = 1.0 if s_max is None else float(s_max)
    if s_max is None:
        for _ in range(2100):
            if psi(hi, p0, mu) >= y:
                break
            hi *= 2.0
        else:
            raise RangeError(f"Psi never reaches {y}")
    if psi(hi, p0, mu) < y:
        raise RangeError(f"y = {y} exceeds Psi({hi}) = {psi(hi, p0, mu)}")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if psi(mid, p0, mu) < y:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_tol * max(hi, 1.0):
            break
    return 0.5 * (lo + hi)


# -- averaged functionals -------------------------------------------------------

def compute_g(traj: Trajectory, mu: ModulusSpec, p0: float, r: float,
              spec: TestFunctionSpec, grid: Optional[GridSpec] = None) -> float:
    """g(r) = integral of Psi(|w|) phi*_r over the snapshot coverage."""
    grid = grid or traj.grid
    times, dt = _check_coverage(traj, r, spec, grid, spatial_fraction=1.0)
    w = _field_for_target(traj, spec)
    rad = grid.radius()
    phis = phi_star_R(times[:, None], rad.ravel()[None, :], r, spec, grid.n)
    integrand = psi(np.abs(w.reshape(len(times), -1)), p0, mu) * phis
    return _spacetime_quadrature(integrand.reshape((len(times),) + grid.shape), dt, grid)


def compute_G(traj: Trajectory, mu: ModulusSpec, p0: float,
              spec: TestFunctionSpec, R_grid: Sequence[float],
              grid: Optional[GridSpec] = None) -> list:
    """Rows (R, g(R), G(R)) with G(R) = integral of g(r)/r dr from 0 to R.

    G accumulates by trapezoid in log r, with the leading piece below the
    first grid point extrapolated from the measure scaling g(r) ~ r^(1+n/sp).
    G is nondecreasing because g >= 0.
    """
    grid = grid or traj.grid
    rs = [float(r) for r in R_grid]
    if rs != sorted(rs) or any(r <= 0 for r in rs):
        raise ParameterError("R_grid must be positive and increasing")
    gs = [compute_g(traj, mu, p0, r, spec, grid) for r in rs]
    beta = spec.measure_exponent(grid.n)
    out = []
    G = gs[0] / beta   # integral of c r^beta / r from 0 to R0
    out.append((rs[0], gs[0], G))
    for i in range(1, len(rs)):
        dlog = math.log(rs[i] / rs[i - 1])
        G += 0.5 * (gs[i] + gs[i - 1]) * dlog
        out.append((rs[i], gs[i], G))
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
