"""Fourier-side machinery on a periodic torus.

The linear flow

    u_tt + (-Lap)^sigma u + (-Lap)^delta u_t = 0

diagonalizes over the torus [-L, L)^n: each mode xi obeys the scalar ODE
v'' + |xi|^(2*delta) v' + |xi|^(2*sigma) v = 0 with characteristic roots

    lam_pm = ( -|xi|^(2*delta) +- sqrt(|xi|^(4*delta) - 4 |xi|^(2*sigma)) ) / 2.

The propagator multipliers K0 (for the displacement datum) and K1 (for the
velocity datum) are real, even functions of |xi|, evaluated in real
arithmetic from closed forms with no series branch:

  oscillatory modes, lam = alpha +- i omega:
      K1 = exp(alpha t) sin(omega t) / omega,  K0 = exp(alpha t) cos(omega t) - alpha K1
  overdamped modes, real lam_m <= lam_p <= 0 and x = (lam_p - lam_m) t >= 0:
      K1 = t exp(lam_p t) (-expm1(-x) / x),    K0 = exp(lam_p t) - lam_p K1

and D1 = dK1/dt (the velocity datum's multiplier for u_t) has its own closed
form, exp(alpha t) cos(omega t) + alpha K1 or exp(lam_p t) exp(-x) + lam_p K1,
rather than the identity D1 = K0 - b K1, which cancels wherever D1 << K0
(on the delta = 0 zero mode it leaves ~1e-16 in place of exp(-t)).

The overdamped form stays cancellation-safe as the roots coalesce (it tends
to the double-root limits t exp(lam t) and (1 - lam t) exp(lam t)) and never
multiplies a vanishing exp(alpha t) by a growing sinh at large t.

Conventions: N points per axis on [-L, L), frequencies xi_k = (pi / L) k for
k in {-N/2, ..., N/2 - 1} stored in FFT layout, |xi| the Euclidean magnitude.
Fields are real, so spectra are stored as the rfftn half spectrum: the last
axis keeps only k = 0..N/2, and every array on the spectral side has shape
(N,)*(n-1) + (N//2+1,).  The fractional symbol |xi|^p is
(|xi|^2)^(p/2) with |xi| = 0 mapped to 0 for p != 0 and to 1 for p = 0 (the
identity operator).
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GridMismatchError, ParameterError

# the most cells (N ** n) a grid may have: one real field of it is 128 MiB
MAX_CELLS = 2 ** 24
# the complex half-spectrum rows that one block of Propagator.apply holds
_APPLY_BLOCK_BYTES = 128 * 1024


@dataclass(frozen=True)
class GridSpec:
    """Periodic grid: n dimensions, N points per axis, half-length L."""

    n: int
    N: int
    L: float

    def __post_init__(self):
        if self.n not in (1, 2, 3) or not isinstance(self.n, (int, np.integer)):
            raise ParameterError("grid dimension must be 1, 2 or 3")
        if not isinstance(self.N, (int, np.integer)) or self.N < 4 or self.N & (self.N - 1):
            raise ParameterError("N must be a power of two, at least 4")
        if not 0 < self.L < np.inf:   # written so that NaN fails it
            raise ParameterError("L must be positive and finite")
        cells = int(self.N) ** int(self.n)
        if cells > MAX_CELLS:
            raise ParameterError(f"grid.N = {self.N} in {self.n}D gives {cells} cells, "
                                 f"{8 * cells} bytes per field; a field may have at most "
                                 f"{MAX_CELLS} cells ({8 * MAX_CELLS} bytes)")

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.n

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def cell_volume(self) -> float:
        return self.dx ** self.n

    def axis(self) -> np.ndarray:
        """Physical coordinates along one axis: -L + i * dx."""
        return -self.L + self.dx * np.arange(self.N)

    def radius(self, center: float = 0.0) -> np.ndarray:
        """Euclidean |x - c| on the grid, c = (center, ..., center), in a fresh
        array: each axis's squared term is broadcast along its axis and added
        in axis order, so no coordinate mesh is built."""
        sq = (self.axis() - center) ** 2
        r = np.empty(self.shape)
        r[...] = sq.reshape((-1,) + (1,) * (self.n - 1))
        for axis in range(1, self.n):
            r += sq.reshape((-1,) + (1,) * (self.n - 1 - axis))
        return np.sqrt(r, out=r)

    def xi_squared(self) -> np.ndarray:
        """|xi|^2 on the half spectrum."""
        return _xi_squared_cached(self.n, self.N, self.L)

    def fft(self, u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Half spectrum of a real field or a stack of fields, written into
        ``out`` when given.

        rfftn's passes, bit for bit, without its per-call argument handling:
        rfft on the last axis, then fft in place on the others, last first.
        """
        self.check_stack(u)
        uh = np.fft.rfft(u, axis=-1, out=out)
        for axis in range(-2, -self.n - 1, -1):
            np.fft.fft(uh, axis=axis, out=uh)
        return uh

    def ifft(self, uh: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Real field (or stack of fields) from its half spectrum, written
        into ``out`` when given; ``uh`` is not modified.

        irfftn's passes, bit for bit: ifft on the leading axes, first first,
        then irfft on the last.  With ``out`` and a single field the complex
        passes run in a scratch array the grid keeps, so nothing is allocated;
        between such calls the grid lends that scratch out (half_spectrum_work).
        """
        single = out is not None and self.n > 1 and uh.ndim == self.n
        work = self._spectral_scratch if single else None
        for axis in range(-self.n, -1):
            uh = work = np.fft.ifft(uh, axis=axis, out=work)
        return np.fft.irfft(uh, n=self.N, axis=-1, out=out)

    def half_spectrum_work(self) -> np.ndarray:
        """Two real arrays of the half spectrum's shape, as one (2, *half)
        array in the bytes of the scratch that ifft(out=) runs its complex
        passes in.  Their contents last only until the next such call: a
        caller fills and reads them between two transforms."""
        scratch = self._spectral_scratch
        return scratch.view(float).reshape((2,) + scratch.shape)

    @functools.cached_property
    def _spectral_scratch(self) -> np.ndarray:
        return np.empty(self.xi_squared().shape, dtype=complex)

    def check_field(self, u: np.ndarray):
        if np.shape(u) != self.shape:
            raise GridMismatchError(f"field shape {np.shape(u)} does not match grid {self.shape}")

    def check_stack(self, u: np.ndarray):
        """Like check_field, but allows leading (stack) axes."""
        if np.shape(u)[-self.n:] != self.shape:
            raise GridMismatchError(f"field shape {np.shape(u)} does not end in grid {self.shape}")

    def dealias_mask(self, fraction: float = 2.0 / 3.0) -> np.ndarray:
        """Half-spectrum keep-mask for modes with |k| <= fraction * N/2 per axis."""
        if not 0.0 < fraction <= 1.0:
            raise ParameterError("dealias fraction must lie in (0, 1]")
        return _dealias_mask_cached(self.n, self.N, round(fraction * 1e9))


def _wavenumbers(n: int, N: int) -> list:
    """The integer wavenumbers k of the half spectrum, one int64 array per
    axis, shaped to broadcast along it: FFT order (0..N/2-1, then -N/2..-1)
    on the leading axes, 0..N/2 on the last."""
    k = np.arange(N, dtype=np.int64)
    k[N // 2:] -= N
    axes = [k] * (n - 1) + [k[:N // 2 + 1]]
    return [a.reshape((-1,) + (1,) * (n - 1 - i)) for i, a in enumerate(axes)]


def _k_squared(n: int, N: int) -> np.ndarray:
    """|k|^2 = sum of k_a^2 on the half spectrum, exact in int64."""
    return sum(k * k for k in _wavenumbers(n, N))


def _xi_squared_of(ksq, L: float) -> np.ndarray:
    """|xi|^2 = (pi / L)^2 |k|^2 on the torus [-L, L)^n: the one expression,
    so modes with equal |k|^2 share their |xi|^2 bit for bit."""
    return (math.pi / L) ** 2 * ksq


def _shells(n: int, N: int) -> tuple:
    """Each half-spectrum mode's shell index and each shell's |k|^2, the
    shells being the distinct |k|^2 in ascending order.  They are found by
    counting, with no sort; in 1D k^2 strictly increases along the half
    spectrum, so every mode is its own shell and nothing is counted (a count
    over k^2 <= (N/2)^2 would outweigh the modes)."""
    ksq = _k_squared(n, N)
    if n == 1:
        return np.arange(ksq.size), ksq
    counts = np.bincount(ksq.ravel())
    keys = np.flatnonzero(counts)
    rank = np.cumsum(counts > 0, out=counts)
    rank -= 1
    return rank[ksq], keys


@functools.lru_cache(maxsize=32)
def _xi_squared_cached(n: int, N: int, L: float) -> np.ndarray:
    out = _xi_squared_of(_k_squared(n, N), L)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=32)
def _dealias_mask_cached(n: int, N: int, frac_key: int) -> np.ndarray:
    bound = frac_key / 1e9 * (N // 2) + 1e-9
    out = functools.reduce(np.logical_and, [np.abs(k) <= bound for k in _wavenumbers(n, N)])
    out.setflags(write=False)
    return out


def fractional_symbol(xi_squared: np.ndarray, power: float) -> np.ndarray:
    """|xi|^power from |xi|^2, with the zero mode handled exactly.

    power = 0 is the identity symbol (all ones, including the zero mode,
    so that delta = 0 damping acts as plain u_t everywhere).
    """
    xisq = np.asarray(xi_squared, dtype=float)
    if power == 0:
        return np.ones_like(xisq)
    with np.errstate(divide="ignore"):
        return np.where(xisq > 0.0, np.power(xisq, 0.5 * power), 0.0)


def characteristic_roots(xi_mag, sigma: float, delta: float):
    """Roots of lam^2 + |xi|^(2 delta) lam + |xi|^(2 sigma) = 0, as complex
    numbers: the complex view of :class:`MultiplierCache`'s real form.

    Returns (lam_plus, lam_minus) ordered by real part (ties by imaginary
    part): alpha +- i omega, with lam_minus on the overdamped modes.
    """
    xi = np.asarray(xi_mag, dtype=float)
    cache = MultiplierCache.of(xi ** 2, sigma, delta)
    lam_p = cache.alpha + 1j * cache.omega
    lam_m = np.conj(lam_p)
    lam_m[cache.od] = cache.od_low
    lam_p, lam_m = lam_p.reshape(xi.shape), lam_m.reshape(xi.shape)
    if xi.ndim == 0:
        return complex(lam_p), complex(lam_m)
    return lam_p, lam_m


@dataclass(frozen=True)
class MultiplierCache:
    """The characteristic roots in real form, one entry per shell.

    Every multiplier depends on xi only through |xi|^2, so on a grid the
    cache holds one entry per distinct integer |k|^2 (a "shell", ascending)
    and ``shell`` maps each mode to its shell.  alpha = Re lam_plus and
    omega = Im lam_plus, which is > 0 exactly on the oscillatory shells; the
    overdamped shells (real roots lam_minus <= lam_plus <= 0) are listed in
    ``od`` with both roots.
    """

    shell: np.ndarray        # shell index of each mode, shape of the modes
    c: np.ndarray            # |xi|^(2 sigma)
    alpha: np.ndarray
    omega: np.ndarray
    inv_omega: np.ndarray    # 1 / omega, 0 on overdamped shells
    od: np.ndarray           # indices of the overdamped shells
    od_lam: np.ndarray       # lam_plus on those shells
    od_low: np.ndarray       # lam_minus on those shells

    @classmethod
    def of(cls, modes, sigma: float, delta: float) -> "MultiplierCache":
        """Roots of every entry of ``modes``, an array of |xi|^2 of any shape,
        each entry its own shell."""
        modes = np.asarray(modes, dtype=float)
        return cls._roots(np.arange(modes.size).reshape(modes.shape), modes.ravel(),
                          sigma, delta)

    @classmethod
    def build(cls, grid: GridSpec, sigma: float, delta: float) -> "MultiplierCache":
        """The cache on the half spectrum of ``grid``, one shell per distinct
        |k|^2, whose |xi|^2 has the bits of its modes' GridSpec.xi_squared."""
        shell, keys = _shells(grid.n, grid.N)
        return cls._roots(shell, _xi_squared_of(keys, grid.L), sigma, delta)

    @classmethod
    def _roots(cls, shell: np.ndarray, xisq: np.ndarray, sigma: float,
               delta: float) -> "MultiplierCache":
        """The cache of the shells with |xi|^2 ``xisq``.  On real roots
        lam_plus = c / lam_minus avoids subtractive cancellation."""
        b = fractional_symbol(xisq, 2.0 * delta)
        c = fractional_symbol(xisq, 2.0 * sigma)
        disc = b * b - 4.0 * c
        od = np.flatnonzero(disc >= 0.0)
        low = -0.5 * (b[od] + np.sqrt(disc[od]))
        lam = np.divide(c[od], low, out=np.zeros_like(low), where=low != 0.0)
        alpha = -b / 2.0
        alpha[od] = lam
        omega = np.sqrt(np.maximum(-disc, 0.0)) / 2.0
        inv_omega = np.divide(1.0, omega, out=np.zeros_like(omega), where=omega > 0.0)
        return cls(shell, c, alpha, omega, inv_omega, od, lam, low)

    def k0k1(self, t: float):
        """Float64 K0(t), K1(t) and D1(t) = dK1/dt on every shell (see the
        module docstring)."""
        e = np.exp(self.alpha * t)
        K1 = e * np.sin(self.omega * t) * self.inv_omega
        ec = e * np.cos(self.omega * t)
        aK1 = self.alpha * K1
        K0 = ec - aK1
        D1 = ec + aK1
        if self.od.size:
            lam = self.od_lam
            x = (lam - self.od_low) * t
            quot = np.where(x > 0.0, -np.expm1(-x) / np.where(x > 0.0, x, 1.0), 1.0)
            ep = np.exp(lam * t)
            k1 = t * ep * quot
            K1[self.od] = k1
            K0[self.od] = ep - lam * k1
            D1[self.od] = ep * np.exp(-x) + lam * k1
        return K0, K1, D1


def propagator_multipliers(t: float, xi_mag, sigma: float, delta: float):
    """K0_hat(t, xi), K1_hat(t, xi) for scalar or array |xi|, as float64.

    K0_hat(0, xi) = 1 and K1_hat(0, xi) = 0 exactly; both solve the per-mode
    ODE v'' + |xi|^(2 delta) v' + |xi|^(2 sigma) v = 0.
    """
    if t < 0:
        raise ParameterError("t must be nonnegative")
    xi = np.asarray(xi_mag, dtype=float)
    prop = Propagator.build(MultiplierCache.of(xi ** 2, sigma, delta), t)
    if xi.ndim == 0:
        return float(prop.K0), float(prop.K1)
    return prop.K0, prop.K1


@dataclass(frozen=True)
class Propagator:
    """Float64 multipliers of the linear flow at a fixed time increment.

    K0, K1 advance u_hat; D0 = dK0/dt = -c K1 and D1 = dK1/dt advance ut_hat
    (closed forms from the kernel, no cancelling difference).
    """

    t: float
    K0: np.ndarray
    K1: np.ndarray
    D0: np.ndarray
    D1: np.ndarray

    @classmethod
    def build(cls, cache: MultiplierCache, t: float) -> "Propagator":
        """Evaluated once per shell, then gathered onto the modes: elementwise
        ufuncs give equal outputs for equal |xi|^2, so the result is
        bit-identical to evaluating every mode."""
        K0, K1, D1 = cache.k0k1(t)
        D0 = -cache.c * K1
        s = cache.shell
        return cls(t, K0[s], K1[s], D0[s], D1[s])

    def apply(self, uh: np.ndarray, uth: np.ndarray, out: Optional[tuple] = None):
        """(K0 uh + K1 uth, D0 uh + D1 uth), fresh, or written into the pair
        ``out``: either (uh, uth) itself, advanced in place, or two arrays of
        the multipliers' shape that alias neither input.

        The pair is formed in blocks of rows.  A block's D0 uh and K1 uth go
        first into two block-sized arrays the propagator keeps, so its inputs
        may then be overwritten; the sums are K0 uh + K1 uth and
        D1 uth + D0 uh, and IEEE addition commutes, so the bits are those of
        D0 uh + D1 uth."""
        if out is None:
            out = (np.empty_like(uh), np.empty_like(uh))
        u_new, ut_new = out
        d0u, k1ut = self._blocks
        size = len(d0u)
        for lo in range(0, len(uh), size):
            rows, m = slice(lo, lo + size), min(size, len(uh) - lo)
            np.multiply(self.D0[rows], uh[rows], out=d0u[:m])
            np.multiply(self.K1[rows], uth[rows], out=k1ut[:m])
            u, ut = u_new[rows], ut_new[rows]
            np.add(np.multiply(self.K0[rows], uh[rows], out=u), k1ut[:m], out=u)
            np.add(np.multiply(self.D1[rows], uth[rows], out=ut), d0u[:m], out=ut)
        return out

    @functools.cached_property
    def _blocks(self) -> tuple:
        shape = self.K0.shape
        size = min(shape[0], max(1, _APPLY_BLOCK_BYTES // (16 * math.prod(shape[1:]))))
        return tuple(np.empty((size,) + shape[1:], dtype=complex) for _ in range(2))


# -- norm helpers on the spectral side ---------------------------------------

def plancherel_sum(abs_sq: np.ndarray, grid: GridSpec, weight_power: float = 0.0) -> float:
    """|| |D|^weight_power u ||_L2^2 from abs_sq = |uh|^2 on the half spectrum
    of u: one weighted sum with the cached weight, scaled by Plancherel.

    Negative powers use the homogeneous convention (zero mode dropped).
    The sum is numpy's own single-threaded einsum, not a BLAS dot, so its
    bits do not depend on the BLAS thread count.
    """
    w = _l2_weight_cached(grid.n, grid.N, grid.L, weight_power)
    total = np.einsum("i,i->", w.ravel(), np.ravel(abs_sq))
    return grid.cell_volume / grid.N ** grid.n * float(total)


def sup_bound(uh: np.ndarray, grid: GridSpec, scratch: Optional[np.ndarray] = None) -> float:
    """A bound on sup |ifft(uh)| that takes no transform: sum m_k |uh_k| / N^n
    over the half spectrum, m_k the Hermitian multiplicity of plancherel_sum.

    It is the triangle inequality on the inverse sum, and holds for any half
    spectrum: irfft reads only the real part of the zero and Nyquist columns.
    NaN or inf when uh is not finite.  ``scratch`` (real, uh's shape) takes
    |uh|.  The sum is plancherel_sum's einsum.
    """
    m = _l2_weight_cached(grid.n, grid.N, grid.L, 0.0)
    total = np.einsum("i,i->", m.ravel(), np.abs(uh, out=scratch).ravel())
    return float(total) / grid.N ** grid.n


def spectral_l2(uh: np.ndarray, grid: GridSpec, weight_power: float = 0.0) -> float:
    """|| |D|^weight_power u ||_L2 computed from the half spectrum uh of u."""
    return float(np.sqrt(plancherel_sum(uh.real ** 2 + uh.imag ** 2, grid, weight_power)))


@functools.lru_cache(maxsize=64)
def _l2_weight_cached(n: int, N: int, L: float, power: float) -> np.ndarray:
    """|xi|^(2 power) times the Hermitian multiplicity of each stored mode.

    An interior last-axis column stands for itself and its conjugate, so it
    counts twice; the zero and Nyquist columns are their own conjugates.
    """
    out = fractional_symbol(_xi_squared_cached(n, N, L), 2.0 * power)
    out[..., 1:N // 2] *= 2.0
    out.setflags(write=False)
    return out


def sup_abs(u: np.ndarray) -> float:
    """max |u| with no |u| temporary.  NaN propagates (max and min both return
    it); abs() turns the -0.0 of an all -0.0 field into 0.0."""
    return abs(float(max(u.max(), -u.min())))


# -- band-limited random fields (verification inputs) -------------------------

def mode_coefficients(kmax: int, n: int, rng: np.random.Generator,
                      mean_zero: bool = True) -> np.ndarray:
    """Random complex coefficients for integer modes in [-kmax, kmax]^n.

    The array is indexed so entry [i1, ..., in] is mode (i1 - kmax, ...).
    Hermitian symmetry is enforced so synthesis gives a real field; the same
    coefficients reproduce the same continuum field on any fine enough grid.
    """
    size = 2 * kmax + 1
    c = rng.standard_normal((size,) * n) + 1j * rng.standard_normal((size,) * n)
    herm = np.conj(c[(slice(None, None, -1),) * n])
    c = (c + herm) / 2.0
    if mean_zero:
        c[(kmax,) * n] = 0.0
    else:
        c[(kmax,) * n] = c[(kmax,) * n].real
    return c


def synthesize(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Evaluate the band-limited field with the given (Hermitian) mode
    coefficients, by GridSpec.ifft of their half spectrum: the last axis
    keeps the modes 0..kmax, whose conjugates the inverse supplies."""
    kmax = (coeffs.shape[0] - 1) // 2
    if 2 * kmax >= grid.N:
        raise ParameterError("grid too coarse for the requested band")
    half = np.zeros(grid.xi_squared().shape, dtype=complex)
    idx = np.arange(-kmax, kmax + 1) % grid.N
    half[np.ix_(*[idx] * (grid.n - 1), idx[kmax:])] = coeffs[..., kmax:] * grid.N ** grid.n
    return grid.ifft(half)


# -- torus wrap-time heuristic -------------------------------------------------

def wrap_time(grid: GridSpec, sigma: float, delta: float,
              data_spectrum: np.ndarray, support_radius: float) -> float:
    """Estimated time before periodic images contaminate a centred solution.

    A mode contaminates once its oscillatory group velocity carries it to the
    boundary while its damped amplitude still exceeds 1e-4 relative to the
    data spectrum's peak (wraps fainter than that cannot move a rate fit).
    ``data_spectrum`` is a half spectrum, as returned by ``GridSpec.fft``.
    Overdamped modes do not propagate and are ignored.  Returns inf when no
    resolved mode can contaminate.  Heuristic: group velocities are sampled
    by finite differences, which smooths the integrable singularity at the
    underdamped edge.
    """
    ximax = float(np.sqrt(np.max(grid.xi_squared())))
    xi = np.linspace(0.0, ximax, 2049)[1:]
    cache = MultiplierCache.of(xi ** 2, sigma, delta)
    omega, decay = cache.omega, -cache.alpha
    vg = np.gradient(omega, xi)

    mags = np.sqrt(grid.xi_squared()).ravel()
    amps = np.abs(np.asarray(data_spectrum)).ravel()
    peak = float(np.max(amps)) or 1.0
    idx = np.clip(np.searchsorted(xi, mags), 0, len(xi) - 1)
    profile = np.zeros(len(xi))
    np.maximum.at(profile, idx, amps / peak)

    distance = max(grid.L - support_radius, 1e-12)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_reach = np.where(vg > 1e-12, distance / np.maximum(vg, 1e-12), np.inf)
    surviving = profile * np.exp(-decay * np.minimum(t_reach, 1e18))
    contaminating = (omega > 0.0) & (surviving > 1e-4) & np.isfinite(t_reach)
    if not np.any(contaminating):
        return float("inf")
    return float(np.min(t_reach[contaminating]))


# -- flat binary field format ---------------------------------------------------

_MAGIC = "sigmaevo-field-v1"


def write_field(path, u: np.ndarray, grid: GridSpec, time: float = 0.0):
    """Little-endian float64 dump with a one-line plain-text header."""
    grid.check_field(u)
    header = f"{_MAGIC} n={grid.n} N={grid.N} L={grid.L!r} time={time!r}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(u, dtype="<f8").tobytes())


def _read_header(fh, path) -> tuple:
    """(grid, time, payload bytes) of the open field file ``fh``, positioned
    at its payload; a damaged header, or a payload that does not match the
    header's grid, raises ParameterError naming the path."""
    header = fh.readline()
    try:
        magic, *fields = header.decode("ascii").split()
        kv = dict(f.split("=", 1) for f in fields)
        if magic != _MAGIC:
            raise ValueError(magic)
        grid = GridSpec(n=int(kv["n"]), N=int(kv["N"]), L=float(kv["L"]))
        time = float(kv["time"])
    except (ValueError, KeyError) as exc:    # UnicodeDecodeError is a ValueError
        raise ParameterError(f"{path}: not a sigmaevo field file") from exc
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    if size != 8 * grid.N ** grid.n:
        raise ParameterError(f"{path}: payload of {size} bytes does not match "
                             f"the {grid.shape} grid of its header")
    return grid, time, size


def field_header(path) -> tuple:
    """(grid, time) of a field file, its payload size checked but not read."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)[:2]


def read_field(path):
    """Inverse of :func:`write_field`: returns (array, grid, time).  A damaged
    header or payload raises ParameterError naming the path."""
    with open(path, "rb") as fh:
        grid, time, size = _read_header(fh, path)
        field = np.empty(grid.shape, dtype="<f8")
        if fh.readinto(field) != size:
            raise ParameterError(f"{path}: payload ends before {size} bytes")
    return field.astype(float, copy=False), grid, time
