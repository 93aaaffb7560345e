"""Explicit inequality constants for the certificate chains.

Two sources for the interpolation/embedding primitives:

* ``analytic_conservative`` -- closed-form torus constants, derived in
  docs/constants.md from periodic slicing (Gagliardo-type), weighted-l^p
  Cauchy-Schwarz on the Fourier side, and Hausdorff-Young interpolation.
  They depend only on the box size L (and the dimension).
* ``empirical_calibrated`` -- each primitive replaced by 1.1x the largest
  Rayleigh ratio observed over a seeded calibration set of random
  band-limited mean-free fields (1000 in 2D and 333 in 3D by default) plus
  deliberate lowest-mode extremizers, which maximize gradient-normalized
  ratios (docs/constants.md section 6).

The chain constants c_s2, c_s3, c_2, c_3, c_4 are assembled from the
primitives by the documented formulas below; the assembly includes the
max(1, 1/c_s1) factors needed so that the window-bound formulas certify
the quantities they claim with the computed Poincare rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice

import numpy as np

from nsbox.spectral import (
    PeriodicGrid,
    SpectralField,
    derivative_coeffs,
    derivative_multiplier,
    gradient_magsq,
    lp_norms,
    random_field,
    to_samples,
    weighted_norm_sq,
)

__all__ = [
    "PoincareConstants",
    "InterpolationConstants",
    "poincare_constants",
    "analytic_primitives",
    "calibrated_primitives",
    "interpolation_constants",
    "lattice_sum",
]


@dataclass(frozen=True)
class PoincareConstants:
    """Decay rates from the lowest active wavenumber on the box."""

    nu: float
    L: float
    kappa: float  # (2 pi / L)^2, smallest nonzero |k|^2
    c_s1: float  # rate for the 2D base flow
    c_1: float  # rate for the 3D perturbation (same convention)


def poincare_constants(nu: float, L: float) -> PoincareConstants:
    """c_s1 = c_1 = nu*kappa/(1+kappa): the sharp constant in
    c ||u||_H1^2 <= nu ||grad u||_L2^2 for mean-free u, attained on the
    lowest mode."""
    if nu <= 0 or L <= 0:
        raise ValueError("nu and L must be positive")
    kappa = (2.0 * np.pi / L) ** 2
    c = nu * kappa / (1.0 + kappa)
    return PoincareConstants(nu=nu, L=L, kappa=kappa, c_s1=c, c_1=c)


@lru_cache(maxsize=None)
def lattice_sum(power: int, dim: int, box_modes: int = 100) -> float:
    """Upper bound on sum over integer m != 0 of |m|^(-power).

    Exact partial sum over |m_a| <= box_modes plus a conservative tail bound
    (counting shells by their sup-norm radius), so the value is always an
    upper bound and the derived constants stay valid bounds.
    """
    if power <= dim:
        raise ValueError("lattice sum diverges for power <= dim")
    M = box_modes
    sq = np.arange(-M, M + 1, dtype=np.float64) ** 2
    # |m|^2 on the (2M+1)^dim box, one float array built by broadcasting
    msq = sum(sq.reshape((-1,) + (1,) * (dim - 1 - a)) for a in range(dim))
    msq[(M,) * dim] = np.inf  # exclude origin
    partial = float(np.sum(np.power(msq, -power / 2.0, out=msq)))
    tail = 2 * dim * 3 ** (dim - 1) * M ** (dim - power) / (power - dim)
    return partial + tail


def analytic_primitives(L: float) -> dict:
    """Closed-form embedding constants for mean-free fields on [0, L]^d.

    Derivations in docs/constants.md.  Keys:

    - c_l3_grad_{2d,3d}:   ||u||_L3  <= C ||grad u||_L2
    - c_l4_grad_{2d,3d}:   ||u||_L4  <= C ||grad u||_L2
    - c_l6_grad_3d:        ||u||_L6  <= C ||grad u||_L2
    - c_linf_lap_2d:       ||u||_Loo <= C ||lap u||_L2
    - c_l3_interp_2d:      ||u||_L3  <= C ||grad u||^(1/3) ||u||^(2/3)
    - c_l3_interp_3d:      ||u||_L3  <= C ||grad u||^(1/2) ||u||^(1/2)
    - c_l3_lift:           ||grad w||_L3(box^3) <= C ||w||_H2(box^3) for
                           x3-independent w (2D gradients measured in 3D)
    """
    two_pi = 2.0 * np.pi
    slice_c = 1.0 + 1.0 / two_pi  # periodic slicing constant, L-free
    out = {
        "c_l3_grad_2d": lattice_sum(6, 2) ** (1 / 6) * (L / two_pi) * L ** (-2 / 6),
        "c_l3_grad_3d": lattice_sum(6, 3) ** (1 / 6) * (L / two_pi) * L ** (-3 / 6),
        "c_l4_grad_2d": lattice_sum(4, 2) ** (1 / 4) * (L / two_pi) * L ** (-2 / 4),
        "c_l4_grad_3d": lattice_sum(4, 3) ** (1 / 4) * (L / two_pi) * L ** (-3 / 4),
        "c_l6_grad_3d": 2.0 + 1.0 / two_pi,
        "c_linf_lap_2d": lattice_sum(4, 2) ** 0.5 * (L / two_pi) ** 2 * L ** (-1.0),
        "c_l3_interp_2d": slice_c ** (1 / 3),
        "c_l3_interp_3d": slice_c ** 0.5,
    }
    out["c_l3_lift"] = out["c_l3_grad_2d"] * L ** (-1 / 6)
    return out


_BATCH = 16  # fields per stacked transform: less time and memory than 64 or 256


def _ratio_fields(grid, rng, n_fields):
    """Calibration set, drawn lazily in order: random band-limited mean-free
    fields of varied spectral concentration, then pure lowest-mode extremizers."""
    k0_cycle = (1.5, 2.5, 4.0, grid.N / 4.0)
    hi = max(2, grid.N // 3)
    for i in range(n_fields):
        yield random_field(grid, grid.dim, rng, band=(1, hi), k0=k0_cycle[i % len(k0_cycle)])
    x = grid.coords()
    for low in (np.sin(2 * np.pi * x[0] / grid.L), np.cos(2 * np.pi * (x[0] + x[1]) / grid.L)):
        low = low * np.ones(grid.shape)
        yield SpectralField.from_physical(grid, np.stack([low] * grid.dim))


def _batches(fields):
    """The fields' coefficients as (B, C, grid) stacks of at most _BATCH fields."""
    fields = iter(fields)
    while batch := [u.coeffs for u in islice(fields, _BATCH)]:
        yield np.stack(batch)


def _scores(grid, coeffs, ps):
    """Per field of a (B, C, grid) stack, as lists: ||u||_L2, ||grad u||_L2 and
    ||u||_Lp for each p in ps: the Parseval norms of `SpectralField` and the
    `lp_norms` of the grid samples."""
    l2 = np.sqrt(weighted_norm_sq(grid, coeffs, grid.sobolev_multiplier(0)))
    gr = np.sqrt(weighted_norm_sq(grid, coeffs, grid.ksq))
    magsq = np.sum(to_samples(grid, coeffs) ** 2, axis=1)
    return (l2.tolist(), gr.tolist(), *(lp_norms(grid, magsq, p) for p in ps))


def _scores_2d(grid, coeffs):
    """Per field of a (B, 2, grid) stack, as lists: ||u||_L2, ||grad u||_L2,
    ||lap u||_L2, ||u||_L3, ||u||_L4, ||u||_Loo, and ||grad w||_L3 and
    ||w||_H2 of the lift w(x1, x2, x3) = u(x1, x2) to the 3D box."""
    l2, gr, l3, l4, linf = _scores(grid, coeffs, (3, 4, np.inf))
    # ||D20 u||^2 + ||D02 u||^2 + 2 ||D11 u||^2, each through its own multiplier
    # as `SpectralField.derivative` takes it: one k1^4 + k2^4 + 2 k1^2 k2^2
    # weight rounds differently
    mult0 = grid.sobolev_multiplier(0)
    d20, d02, d11 = (weighted_norm_sq(grid, coeffs * derivative_multiplier(grid, a), mult0)
                     for a in ((2, 0), (0, 2), (1, 1)))
    lap = np.sqrt(d20 + d02 + 2 * d11).tolist()
    # w does not depend on x3: ||grad w||_L3^3 = L int |grad u|^3, ||w||_H2^2 = L ||u||_H2^2
    gradsq = gradient_magsq(grid, to_samples(grid, derivative_coeffs(grid, coeffs)))
    lift_l3 = lp_norms(grid, gradsq, 3, cell=grid.L * grid.cell_volume)
    lift_h2 = np.sqrt(grid.L * weighted_norm_sq(grid, coeffs, grid.sobolev_multiplier(2)))
    return l2, gr, lap, l3, l4, linf, lift_l3, lift_h2.tolist()


_HEADROOM = 1.1  # calibrated primitive = _HEADROOM x the largest observed ratio
_N2D, _N3D = 24, 12  # calibration grid sizes in 2D and 3D


def calibrated_primitives(L: float, *, n_fields: int = 1000, seed: int = 0) -> dict:
    """Empirical primitives: _HEADROOM x max Rayleigh ratio over the
    calibration set, scored _BATCH fields at a time.  Deterministic for a
    fixed seed."""
    if n_fields < 1:
        raise ValueError(f"n_fields must be at least 1, got {n_fields}")
    rng = np.random.default_rng(seed)
    g2 = PeriodicGrid(L=L, dim=2, N=_N2D)
    g3 = PeriodicGrid(L=L, dim=3, N=_N3D)

    r = {k: 0.0 for k in (
        "c_l3_grad_2d", "c_l3_grad_3d", "c_l4_grad_2d", "c_l4_grad_3d",
        "c_l6_grad_3d", "c_linf_lap_2d", "c_l3_interp_2d", "c_l3_interp_3d",
        "c_l3_lift",
    )}
    for c in _batches(_ratio_fields(g2, rng, n_fields)):
        for l2, gr, lap, l3, l4, linf, gl3, h2 in zip(*_scores_2d(g2, c)):
            r["c_l3_grad_2d"] = max(r["c_l3_grad_2d"], l3 / gr)
            r["c_l4_grad_2d"] = max(r["c_l4_grad_2d"], l4 / gr)
            r["c_linf_lap_2d"] = max(r["c_linf_lap_2d"], linf / lap)
            r["c_l3_interp_2d"] = max(r["c_l3_interp_2d"], l3 / (gr ** (1 / 3) * l2 ** (2 / 3)))
            r["c_l3_lift"] = max(r["c_l3_lift"], gl3 / h2)
    n3 = max(200, n_fields // 3)
    for c in _batches(_ratio_fields(g3, rng, n3)):
        for l2, gr, l3, l4, l6 in zip(*_scores(g3, c, (3, 4, 6))):
            r["c_l3_grad_3d"] = max(r["c_l3_grad_3d"], l3 / gr)
            r["c_l4_grad_3d"] = max(r["c_l4_grad_3d"], l4 / gr)
            r["c_l6_grad_3d"] = max(r["c_l6_grad_3d"], l6 / gr)
            r["c_l3_interp_3d"] = max(r["c_l3_interp_3d"], l3 / (gr ** 0.5 * l2 ** 0.5))
    return {k: _HEADROOM * v for k, v in r.items()}


@dataclass(frozen=True)
class InterpolationConstants:
    """Assembled chain constants with the primitives they came from.

    Assembly formulas (corr = max(1, 1/c_s1), kappa = (2 pi/L)^2):

    - c_s2 = (2/nu) * max(c_l3_interp_2d^6, 1) * corr
    - c_s3 = (2/nu) * (c_linf_lap_2d^2 + c_l4_grad_2d^4 + 1) * corr
    - c_s4 = c_s3 / c_s1
    - c_2  = (1/nu) * (c_l6_grad_3d^2 + 1 + 1/kappa) * max(1, c_l3_lift^2) * corr
    - c_3  = max(54 * c_l3_interp_3d^4 / c_1^3,
                 (2/c_1) * (c_l6_grad_3d^2 + 1 + 1/kappa), c_2)
    - c_4  = c_3
    """

    mode: str
    c_s2: float
    c_s3: float
    c_s4: float
    c_2: float
    c_3: float
    c_4: float
    primitives: dict = field(default_factory=dict)


def interpolation_constants(
    nu: float,
    L: float,
    mode: str = "analytic_conservative",
    *,
    seed: int = 0,
    n_fields: int = 1000,
) -> InterpolationConstants:
    """Build the chain constants in either mode; see class docstring for
    the assembly formulas."""
    if mode == "analytic_conservative":
        prim = analytic_primitives(L)
    elif mode == "empirical_calibrated":
        prim = _cached_calibration(L, seed, n_fields)
    else:
        raise ValueError(f"unknown constants mode {mode!r}")
    pc = poincare_constants(nu, L)
    corr = max(1.0, 1.0 / pc.c_s1)
    kappa = pc.kappa
    c_s2 = (2.0 / nu) * max(prim["c_l3_interp_2d"] ** 6, 1.0) * corr
    c_s3 = (2.0 / nu) * (prim["c_linf_lap_2d"] ** 2 + prim["c_l4_grad_2d"] ** 4 + 1.0) * corr
    c_s4 = c_s3 / pc.c_s1
    c_2 = (
        (1.0 / nu)
        * (prim["c_l6_grad_3d"] ** 2 + 1.0 + 1.0 / kappa)
        * max(1.0, prim["c_l3_lift"] ** 2)
        * corr
    )
    c_3 = max(
        54.0 * prim["c_l3_interp_3d"] ** 4 / pc.c_1**3,
        (2.0 / pc.c_1) * (prim["c_l6_grad_3d"] ** 2 + 1.0 + 1.0 / kappa),
        c_2,
    )
    return InterpolationConstants(
        mode=mode, c_s2=c_s2, c_s3=c_s3, c_s4=c_s4, c_2=c_2, c_3=c_3, c_4=c_3,
        primitives=prim,
    )


@lru_cache(maxsize=8)
def _cached_calibration(L, seed, n_fields):
    return calibrated_primitives(L, n_fields=n_fields, seed=seed)
