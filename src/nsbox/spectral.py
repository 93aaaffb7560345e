"""Fourier representation of periodic fields on [0, L]^d and spectral calculus.

Conventions: a real field u is stored through normalized coefficients
u_hat(m) with u(x) = sum_m u_hat(m) exp(i k_m . x), where k_m = (2 pi / L) m
and m runs over the usual FFT integer modes.  The forward transform carries
the 1/N^d factor, so u_hat(0) is the arithmetic mean of the samples and
Parseval reads ||u||_L2^2 = L^d sum_m |u_hat(m)|^2.

This module is the only one that knows the layout: the half (rfftn) spectrum
of a real field, (C, N, ..., N/2 + 1) coefficients.  It stores the modes with
last index 0 <= m_last <= N/2; the rest is their conjugate mirror
u_hat(-m) = conj(u_hat(m)), which is never formed.  The Nyquist index is
stored as m_a = -N/2 on every axis.  In a Parseval sum the planes
0 < m_last < N/2 stand for themselves and their mirror, so they weigh 2
(`PeriodicGrid.herm`); the planes m_last = 0 and m_last = N/2 hold both
modes of their mirror pairs.

`PeriodicGrid` describes the layout: the sample `shape`, the coefficient
`coeff_shape`, wavevectors `k`, `ksq`, integer `modes`, the first-derivative
wavevectors `kd` (Nyquist planes zeroed) and multipliers `ik`, the dealias
mask, per-axis `k1d`, the Parseval weight `herm` and the Sobolev multipliers.
Its `band` is a `PeriodicGrid` of the same samples over the 2/3-dealiased box
alone, the modes with |m_a| < N/3 on every axis: the only modes a dealiased
computation ever fills (28% of the half spectrum at N = 32).  The kernel
functions below `SpectralField` take either grid and act on raw
(C, coeff_shape) arrays: transforms, first-derivative coefficients (whose
samples are the physical gradients), the divergence of a symmetric tensor,
Parseval norms and inner products, derivative multipliers, integrating
factors, mode-0 zeroing, Leray projection (and the norm of what it removes),
and L^p norms of pointwise magnitudes.  On a band the transforms run the
passes of the half-spectrum `irfftn`/`rfftn` themselves, in pocketfft's
order, over only the lines that hold a box mode and one component at a time,
so they never allocate more than one component and give the same bits as
the half-spectrum transform of the box scattered by `extend` (`restrict`
gathers it back; each moves 2^(dim - 1) contiguous slice blocks).
`add_lifted` puts a 2D band array on the k3 = 0 plane of a 3D one.  The
transforms, derivative coefficients, Parseval norms and L^p norms also take
stacks with leading batch axes.  The field methods, the solver and the
constants calibration are built on them.
"""

from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np
import scipy.fft as _fft

__all__ = [
    "PeriodicGrid",
    "SpectralField",
    "to_coeffs",
    "to_samples",
    "restrict",
    "extend",
    "derivative_coeffs",
    "divergence_coeffs",
    "add_lifted",
    "weighted_norm_sq",
    "inner_product",
    "derivative_multiplier",
    "integrating_factor",
    "zero_mode0",
    "gradient_magsq",
    "lp_norms",
    "grad_l3_norm",
    "lift_2d_to_3d",
    "random_field",
    "leray_project_coeffs",
]


class PeriodicGrid:
    """Uniform N^dim grid on the periodic cube [0, L]^dim, and the descriptor
    of its coefficient layout (module docstring).

    N must be even and >= 4 so the 2/3-dealiased band is non-empty.
    """

    def __init__(self, L: float, dim: int, N: int):
        if L <= 0:
            raise ValueError(f"box size must be positive, got L={L}")
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        if N < 4 or N % 2 != 0:
            raise ValueError(f"N must be even and >= 4, got {N}")
        self.L = float(L)
        self.dim = int(dim)
        self.N = int(N)
        self.shape = (N,) * dim  # the samples
        m1 = np.fft.fftfreq(N, 1.0 / N).astype(np.int64)
        # last axis: 0, ..., N/2 - 1, -N/2
        self._set_modes((m1,) * (dim - 1) + (m1[: N // 2 + 1],))
        self._blocks = None  # a band's slice blocks into the half spectrum

    def _set_modes(self, m_axes):
        """The coefficient layout over the integer modes `m_axes` of each axis."""
        N = self.N
        self.coeff_shape = tuple(len(m) for m in m_axes)
        self.k1d = tuple((2.0 * np.pi / self.L) * m.astype(np.float64) for m in m_axes)
        self.modes = np.stack(np.meshgrid(*m_axes, indexing="ij"))  # (dim, coeff_shape)
        self.k = (2.0 * np.pi / self.L) * self.modes.astype(np.float64)
        self.ksq = np.sum(self.k * self.k, axis=0)
        # 2/3 rule: |m_a| < N/3 on every axis, so a product's modes beyond the
        # band (|m_a| < 2N/3) alias onto |m_a| > N/3, outside it
        self.dealias_mask = np.all(np.abs(self.modes) < N / 3.0, axis=0)
        # the planes m_last = 0 and m_last = -N/2 hold both modes of their mirror pairs
        m_last = m_axes[-1]
        self.herm = np.where((m_last == 0) | (m_last == -(N // 2)), 1.0, 2.0)
        self.cell_volume = (self.L / N) ** self.dim
        self.volume = self.L**self.dim
        self.axes = tuple(range(-self.dim, 0))  # the grid axes of a (..., grid) array
        self._sob_mult: dict[int, np.ndarray] = {}

    @cached_property
    def band(self) -> "PeriodicGrid":
        """The grid of the 2/3-dealiased box: the modes with |m_a| < N/3 on
        every axis, (2K + 1, ..., K + 1) coefficients for the largest such K,
        each axis in FFT order (0, ..., K, -K, ..., -1).  It has no Nyquist
        plane, so its `kd` is `k`, its dealias mask is all true and its `herm`
        is 1 at m_last = 0 and 2 elsewhere.  Every kernel function takes it;
        `to_samples` and `to_coeffs` run the passes of a half-spectrum
        transform over only the lines that hold a box mode."""
        N, K = self.N, (self.N - 1) // 3
        band = object.__new__(PeriodicGrid)
        band.L, band.dim, band.N, band.shape = self.L, self.dim, N, self.shape
        m = np.arange(K + 1)
        band._set_modes((np.concatenate([m, -m[:0:-1]]),) * (self.dim - 1) + (m,))
        # each of the first dim - 1 axes is two contiguous runs, m >= 0 and m < 0
        half = (slice(0, K + 1), slice(N - K, N))
        box = (slice(0, K + 1), slice(K + 1, 2 * K + 1))
        last = (slice(0, K + 1),)
        band._runs = tuple(zip(half, box))  # (half-spectrum slice, box slice) of each run
        band._blocks = tuple(((..., *h) + last, (..., *b) + last)
                             for h, b in zip(itertools.product(half, repeat=self.dim - 1),
                                             itertools.product(box, repeat=self.dim - 1)))
        band._half_shape = self.coeff_shape
        return band

    @cached_property
    def kd(self) -> np.ndarray:
        """(dim, coeff_shape) wavevectors of the first derivative: k with the
        Nyquist plane of each axis a zeroed in component a (its sign is not
        representable), so kd(-m) = -kd(m) on every mode."""
        kd = self.k.copy()
        for a in range(self.dim):
            kd[a][self.modes[a] == -(self.N // 2)] = 0.0
        return kd

    @cached_property
    def ik(self) -> np.ndarray:
        """(dim, coeff_shape) first-derivative multipliers i kd_a."""
        return 1j * self.kd

    @cached_property
    def inv_kdsq(self) -> np.ndarray:
        """1/|kd|^2 per mode, 0 where kd = 0: the Leray projection's weight."""
        kdsq = np.sum(self.kd * self.kd, axis=0)
        inv = np.zeros_like(kdsq)
        nz = kdsq > 0
        inv[nz] = 1.0 / kdsq[nz]
        return inv

    def sobolev_multiplier(self, s: int) -> np.ndarray:
        """sum_{|alpha| <= s} prod_a k_a^(2 alpha_a), the H^s Parseval weight."""
        if s not in (0, 1, 2, 3):
            raise ValueError(f"Sobolev order must be in 0..3, got {s}")
        if s not in self._sob_mult:
            mult = np.zeros(self.coeff_shape)
            for total in range(s + 1):
                for alpha in _multi_indices(self.dim, total):
                    term = np.ones(self.coeff_shape)
                    for a, p in enumerate(alpha):
                        if p:
                            term = term * self.k[a] ** (2 * p)
                    mult += term
            mult.setflags(write=False)
            self._sob_mult[s] = mult
        return self._sob_mult[s]

    def coords(self):
        """Sparse meshgrid of physical coordinates (x1, x2[, x3])."""
        x = self.L * np.arange(self.N) / self.N
        return np.meshgrid(*([x] * self.dim), indexing="ij", sparse=True)

    def __eq__(self, other):
        return (
            isinstance(other, PeriodicGrid)
            and self.L == other.L
            and self.dim == other.dim
            and self.N == other.N
            and self.coeff_shape == other.coeff_shape
        )

    def __hash__(self):
        return hash((self.L, self.dim, self.N, self.coeff_shape))

    def __repr__(self):
        return f"PeriodicGrid(L={self.L}, dim={self.dim}, N={self.N})"


def _multi_indices(dim, total):
    """All multi-indices of the given dimension summing to `total`."""
    if dim == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _multi_indices(dim - 1, total - first):
            yield (first,) + rest


class SpectralField:
    """Real scalar/vector field stored as its normalized half-spectrum
    coefficients, a (C, grid.coeff_shape) array.

    Fields are immutable values: every operation returns a new instance and
    the coefficient array is marked read-only.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: PeriodicGrid, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.ndim != grid.dim + 1 or coeffs.shape[1:] != grid.coeff_shape:
            raise ValueError(
                f"coefficient shape {coeffs.shape} does not match grid {grid.coeff_shape}"
            )
        if coeffs.shape[0] not in (1, 2, 3):
            raise ValueError(f"components must be 1..3, got {coeffs.shape[0]}")
        coeffs.setflags(write=False)
        self.grid = grid
        self.coeffs = coeffs

    # -- construction -------------------------------------------------------

    @classmethod
    def from_physical(cls, grid: PeriodicGrid, samples) -> "SpectralField":
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim == grid.dim:
            samples = samples[None]
        if samples.shape[1:] != grid.shape:
            raise ValueError(
                f"sample shape {samples.shape} does not match grid {grid.shape}"
            )
        return cls(grid, to_coeffs(grid, samples))

    @classmethod
    def zeros(cls, grid: PeriodicGrid, components: int) -> "SpectralField":
        c = np.zeros((components,) + grid.coeff_shape, dtype=np.complex128)
        return cls(grid, c)

    # -- basic queries -------------------------------------------------------

    @property
    def components(self) -> int:
        return self.coeffs.shape[0]

    def physical(self) -> np.ndarray:
        """Grid samples (the inverse transform)."""
        return to_samples(self.grid, self.coeffs)

    def mean(self) -> np.ndarray:
        """Integral mean over the box, one entry per component."""
        return self.coeffs[_mode0(self.coeffs)].real.copy()

    # -- calculus ------------------------------------------------------------

    def derivative(self, alpha) -> "SpectralField":
        """Mixed partial D^alpha via the (i k)^alpha `derivative_multiplier`."""
        return SpectralField(self.grid, self.coeffs * derivative_multiplier(self.grid, alpha))

    def leray_project(self) -> "SpectralField":
        """Remove the gradient part per mode: u_hat -= kd (kd.u_hat)/|kd|^2."""
        if self.components != self.grid.dim:
            raise ValueError("projection requires a vector field with components == dim")
        return SpectralField(self.grid, leray_project_coeffs(self.grid, self.coeffs)[0])

    def subtract_mean(self) -> "SpectralField":
        return SpectralField(self.grid, zero_mode0(self.coeffs.copy()))

    def dealias(self) -> "SpectralField":
        """Zero every mode with any |m_a| >= N/3 (2/3 rule); idempotent."""
        return SpectralField(self.grid, self.coeffs * self.grid.dealias_mask)

    # -- norms ---------------------------------------------------------------

    def sobolev_norm(self, s: int) -> float:
        """(sum_{|alpha|<=s} ||D^alpha u||_L2^2)^(1/2), exact by Parseval."""
        return float(np.sqrt(self.sobolev_norm_sq(s)))

    def sobolev_norm_sq(self, s: int) -> float:
        return float(weighted_norm_sq(self.grid, self.coeffs, self.grid.sobolev_multiplier(s)))

    def grad_norm_sq(self) -> float:
        """||grad u||_L2^2 = sum over first derivatives of all components."""
        return float(weighted_norm_sq(self.grid, self.coeffs, self.grid.ksq))

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other):
        if self.grid != other.grid or self.components != other.components:
            raise ValueError("field mismatch: grids/components differ")

    def __add__(self, other) -> "SpectralField":
        self._check_compatible(other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other) -> "SpectralField":
        self._check_compatible(other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"SpectralField(components={self.components}, grid={self.grid!r})"


# -- kernel: operations on raw (C, coeff_shape) arrays ------------------------


def to_coeffs(grid: PeriodicGrid, samples, out=None) -> np.ndarray:
    """Normalized coefficients of a raw (..., C, shape) sample array.

    On a band grid, the box of them, written into `out` when given: the box of
    `rfftn(samples, norm="forward")` bit for bit, by its own passes, r2c on the
    last axis and then c2c on axes 0, ..., dim - 2 in place, each over only the
    lines that hold a box mode, one component at a time.  As in `rfftn`,
    1/N^dim scales the real pass's output once, through its real view: scaling
    each pass rounds differently when 3 divides N."""
    if grid._blocks is None:
        return _fft.rfftn(samples, axes=grid.axes, norm="forward")
    dim = grid.dim
    if out is None:
        out = np.empty(samples.shape[:-dim] + grid.coeff_shape, dtype=np.complex128)
    scale = 1.0 / grid.N**dim
    for idx in np.ndindex(samples.shape[:-dim]):
        c = _fft.rfft(samples[idx], axis=-1)
        real = c.view(np.float64)
        real *= scale
        c = c[..., : grid.coeff_shape[-1]]
        for a in range(dim - 1):
            _fft.fft(c, axis=a, overwrite_x=True)  # in place, as in `to_samples`
            # gather the box's lines of axis a, which the next pass transforms
            lines = out[idx] if a == dim - 2 else np.empty(
                c.shape[:a] + (grid.coeff_shape[a],) + c.shape[a + 1 :], dtype=np.complex128)
            at = (slice(None),) * a
            for half, box in grid._runs:
                lines[at + (box,)] = c[at + (half,)]
            c = lines
    return out


def to_samples(grid: PeriodicGrid, coeffs, out=None) -> np.ndarray:
    """Grid samples of a raw (..., C, coeff_shape) coefficient array.

    On a band grid, written into `out` when given: `irfftn` of the box
    scattered into the half spectrum bit for bit, by its own passes, inverse
    c2c on axes 0, ..., dim - 2 and then c2r on the last axis, each over only
    the lines that hold a box mode, one component at a time.  Each c2c pass
    scatters its axis into a zeroed buffer of at most one component and
    transforms it in place (scipy writes the transform of a complex input over
    it under overwrite_x); no pass scales (norm="forward")."""
    if grid._blocks is None:
        return _fft.irfftn(coeffs, s=grid.shape, axes=grid.axes, norm="forward")
    N, dim = grid.N, grid.dim
    if out is None:
        out = np.empty(coeffs.shape[:-dim] + grid.shape)
    last = slice(0, grid.coeff_shape[-1])
    for idx in np.ndindex(coeffs.shape[:-dim]):
        c = coeffs[idx]
        for a in range(dim - 1):
            # the last c2c pass writes the half-spectrum planes the c2r pass reads
            width = N // 2 + 1 if a == dim - 2 else c.shape[-1]
            line = np.zeros(c.shape[:a] + (N,) + c.shape[a + 1 : -1] + (width,),
                            dtype=np.complex128)
            at = (slice(None),) * a
            for half, box in grid._runs:
                line[at + (half, ..., last)] = c[at + (box,)]
            _fft.ifft(line[..., last], axis=a, norm="forward", overwrite_x=True)
            c = line
        out[idx] = _fft.irfft(c, n=N, axis=-1, norm="forward")
    return out


def restrict(band: PeriodicGrid, coeffs) -> np.ndarray:
    """The box of `band` gathered from a raw (..., half-spectrum) array, as a
    new (..., band.coeff_shape) array."""
    out = np.empty(coeffs.shape[: -band.dim] + band.coeff_shape, dtype=coeffs.dtype)
    for half, box in band._blocks:
        out[box] = coeffs[half]
    return out


def extend(band: PeriodicGrid, coeffs) -> np.ndarray:
    """A raw (..., band.coeff_shape) array scattered into a new half-spectrum
    array, zero outside the box."""
    out = np.zeros(coeffs.shape[: -band.dim] + band._half_shape, dtype=np.complex128)
    for half, box in band._blocks:
        out[half] = coeffs[box]
    return out


def derivative_coeffs(grid: PeriodicGrid, coeffs, out=None) -> np.ndarray:
    """(dim, ...) first-derivative coefficients i kd_a c of a raw
    (..., coeff_shape) array, through `ik` as `SpectralField.derivative`
    takes them.  Written into `out` when given."""
    ik = grid.ik.reshape((grid.dim,) + (1,) * (coeffs.ndim - grid.dim) + grid.coeff_shape)
    return np.multiply(ik, coeffs, out=out)


def divergence_coeffs(grid: PeriodicGrid, coeffs) -> np.ndarray:
    """(dim, coeff_shape) coefficients of the divergence sum_j d_j T_ij,
    i kd_j T_ij, of a symmetric tensor T from the raw (dim (dim + 1) / 2,
    coeff_shape) coefficients of its upper triangle, row by row (T_00, T_01,
    ..., T_11, ...)."""
    dim = grid.dim
    upper = {}
    for n, (i, j) in enumerate((i, j) for i in range(dim) for j in range(i, dim)):
        upper[i, j] = upper[j, i] = n
    out = np.empty((dim,) + grid.coeff_shape, dtype=np.complex128)
    for i in range(dim):
        np.multiply(grid.ik[0], coeffs[upper[i, 0]], out=out[i])
        for j in range(1, dim):
            out[i] += grid.ik[j] * coeffs[upper[i, j]]
    return out


def add_lifted(out, coeffs2) -> np.ndarray:
    """Add the x3-independent field of a raw (..., 2D band) array onto its k3 = 0
    plane in a raw (..., 3D band) array `out` of the same N, in place: the
    stored modes m2 >= 0, then their conjugate mirror
    c(m1, -m2) = conj(c(-m1, m2)) at m2 < 0."""
    n = coeffs2.shape[-1]
    out[..., :n, 0] += coeffs2
    mirror = np.roll(np.flip(coeffs2[..., n - 1 : 0 : -1], axis=-2), 1, axis=-2)
    out[..., n:, 0] += np.conj(mirror)
    return out


def weighted_norm_sq(grid: PeriodicGrid, coeffs, weight):
    """|box| sum_m weight(m) |c(m)|^2 over the components of a raw
    (..., C, coeff_shape) array and over the modes it stands for (`herm`): a
    squared norm by Parseval, one per leading index of the array and of a
    stacked (..., coeff_shape) weight."""
    power = grid.herm * np.sum(np.abs(coeffs) ** 2, axis=-grid.dim - 1)
    return grid.volume * np.sum(weight * power, axis=grid.axes)


def inner_product(grid: PeriodicGrid, a, b) -> float:
    """|box| Re sum_m conj(a(m)) b(m) over all components of two raw
    (C, coeff_shape) arrays and the modes they stand for: the L2 inner product
    by Parseval."""
    return float(grid.volume * np.sum(np.conj(a) * b * grid.herm).real)


def derivative_multiplier(grid: PeriodicGrid, alpha) -> np.ndarray:
    """The (i k)^alpha multiplier of the mixed partial D^alpha, with the Nyquist
    plane of every odd power zeroed (its sign is not representable)."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != grid.dim or any(a < 0 for a in alpha):
        raise ValueError(f"bad multi-index {alpha} for dim {grid.dim}")
    if sum(alpha) > 3:
        raise ValueError(f"derivative order {sum(alpha)} exceeds 3")
    mult = np.ones(grid.coeff_shape, dtype=np.complex128)
    for a, p in enumerate(alpha):
        if p:
            # odd powers through `grid.ik`, whose Nyquist plane is zero
            mult = mult * (grid.ik[a] if p % 2 == 1 else 1j * grid.k[a]) ** p
    return mult


def integrating_factor(grid: PeriodicGrid, visc, I_sub):
    """Per-mode exp(-nu |k|^2 h - i k . I) from its viscous part visc.

    The mean-advection phase factorizes over axes, so it costs one 1D
    exponential per axis plus broadcast multiplies.
    """
    if not np.any(I_sub != 0.0):
        return visc
    lam = visc.astype(np.complex128)
    for a in range(grid.dim):
        if I_sub[a] != 0.0:
            ph = np.exp(-1j * grid.k1d[a] * I_sub[a])
            shape = [1] * grid.dim
            shape[a] = len(ph)
            lam = lam * ph.reshape(shape)
    return lam


def _mode0(coeffs):
    """Index of mode 0 of every component of a (C, coeff_shape) array."""
    return (slice(None),) + (0,) * (coeffs.ndim - 1)


def zero_mode0(coeffs) -> np.ndarray:
    """Zero mode 0 of every component in place; returns the array."""
    coeffs[_mode0(coeffs)] = 0.0
    return coeffs


def gradient_magsq(grid: PeriodicGrid, grads) -> np.ndarray:
    """(..., grid) samples of |grad u|^2, the squared Frobenius norm, from the
    (dim, ..., C, grid) physical gradients, the samples of `derivative_coeffs`."""
    magsq = np.zeros(grads.shape[1:-grid.dim - 1] + grid.shape)
    for g in grads:
        magsq += np.sum(g**2, axis=-grid.dim - 1)
    return magsq


def lp_norms(grid: PeriodicGrid, magsq, p, cell=None) -> list:
    """||u||_Lp per field of a (B, grid) stack of |u|^2 samples, as a list, by
    equal-weight quadrature with weight `cell` per point (default the cell
    volume).  Roots are taken one Python float at a time: numpy's vectorized
    power can round differently from scalar pow."""
    if p == np.inf:
        return np.max(np.sqrt(magsq), axis=grid.axes).tolist()
    cell = grid.cell_volume if cell is None else cell
    sums = cell * np.sum(magsq ** (p / 2.0), axis=grid.axes)
    return [v ** (1.0 / p) for v in sums.tolist()]


def grad_l3_norm(grid: PeriodicGrid, grads) -> float:
    """L3 norm of the pointwise Frobenius norm of (dim, C, grid) physical gradients."""
    return lp_norms(grid, gradient_magsq(grid, grads[:, None]), 3)[0]


def _k_dot(grid: PeriodicGrid, coeffs) -> np.ndarray:
    """kd . c per mode for a (dim, coeff_shape) array: the divergence over i.
    kd is odd in m, so it maps a real field's coefficients to a real field's."""
    kdotu = np.zeros(grid.coeff_shape, dtype=np.complex128)
    for a in range(grid.dim):
        kdotu += grid.kd[a] * coeffs[a]
    return kdotu


def leray_project_coeffs(grid: PeriodicGrid, coeffs) -> tuple[np.ndarray, float]:
    """Leray projection P c = c - kd (kd.c)/|kd|^2 of a raw (dim, coeff_shape) array, and
    what it removes, ||c - P c||_L2^2 = |box| sum |kd.c|^2/|kd|^2, both from one kd.c."""
    kdotc = _k_dot(grid, coeffs)
    corr = kdotc * grid.inv_kdsq
    out = np.array(coeffs, dtype=np.complex128)
    for a in range(grid.dim):
        out[a] -= grid.kd[a] * corr
    return out, float(grid.volume * np.sum(np.abs(kdotc) ** 2 * grid.inv_kdsq * grid.herm))


def lift_2d_to_3d(field2d: SpectralField, grid3d: PeriodicGrid) -> SpectralField:
    """Embed a 2D velocity into 3D: coefficients on the k3=0 plane, w=0.

    All x3-derivatives of the result vanish identically.
    """
    g2 = field2d.grid
    if g2.dim != 2 or grid3d.dim != 3:
        raise ValueError("lift maps a 2D field onto a 3D grid")
    if g2.L != grid3d.L or g2.N != grid3d.N:
        raise ValueError("2D and 3D grids must share L and N")
    if field2d.components != 2:
        raise ValueError("lift expects a 2-component velocity")
    # the k3 = 0 plane holds every (m1, m2): the stored 2D planes, then their
    # exact conjugate mirror c(m1, -m2) = conj(c(-m1, m2)) for 0 < m2 < N/2
    c, n = field2d.coeffs, g2.coeff_shape[-1]
    mirror = np.roll(np.flip(c[:, :, n - 2 : 0 : -1], axis=1), 1, axis=1)
    out = np.zeros((3,) + grid3d.coeff_shape, dtype=np.complex128)
    out[0:2, :, :n, 0] = c
    out[0:2, :, n:, 0] = np.conj(mirror)
    return SpectralField(grid3d, out)


def random_field(
    grid: PeriodicGrid,
    components: int,
    rng: np.random.Generator,
    *,
    band=None,
    k0=None,
    mean_free=True,
    solenoidal=False,
) -> SpectralField:
    """Random real field with an optional Gaussian spectral envelope.

    `band` restricts integer mode magnitudes |m| to [lo, hi]; `k0` applies the
    envelope exp(-|k|^2 / k0^2).  Built from white physical noise, so the
    field is real.
    """
    samples = rng.standard_normal((components,) + grid.shape)
    f = SpectralField.from_physical(grid, samples)
    env = np.ones(grid.coeff_shape)
    if k0 is not None:
        env = env * np.exp(-grid.ksq / float(k0) ** 2)
    if band is not None:
        lo, hi = band
        mmag = np.sqrt(np.sum(grid.modes.astype(np.float64) ** 2, axis=0))
        env = env * ((mmag >= lo) & (mmag <= hi))
    out = SpectralField(grid, f.coeffs * env)
    if mean_free:
        out = out.subtract_mean()
    if solenoidal:
        out = out.leray_project()
    return out
