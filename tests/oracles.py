"""Test oracles: an independent nonlinear term, the energy balance of a
trajectory, the structural invariants of a stored state, the divergence and
L^p norms of a field, a 2D forcing lifted to the 3D grid, 4-point
Gauss-Legendre quadrature, the reference for the forcings' closed-form mean
integrals, and adaptive quadrature of a forcing's window integrals, the
reference for its closed-form schedules.

They are built on `SpectralField` and the forcing interface alone and share
no code with the solver's band stepper.
"""

import math

import numpy as np
from scipy.integrate import quad

from nsbox.forcing import Forcing, PeriodicExtensionForcing
from nsbox.spectral import SpectralField, lift_2d_to_3d, lp_norms

_GL4_NODES = np.array(
    [-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526]
)
_GL4_WEIGHTS = np.array(
    [0.3478548451374538, 0.6521451548625461, 0.6521451548625461, 0.3478548451374538]
)


def nonlinear_term(state, advecting, advecting_mean=None):
    """Leray-projected, dealiased -(w . grad) u for the unsplit advecting
    velocity w (mean-free part `advecting` plus optional constant mean), in
    the convective form, with mode 0 zeroed: the oracle for the solver's
    right-hand sides."""
    u = state.field
    grid = u.grid
    if advecting.grid != grid:
        raise ValueError("advecting field lives on a different grid")
    wmean = np.zeros(advecting.components) if advecting_mean is None else np.asarray(advecting_mean, float)
    w = advecting.physical()
    conv = np.zeros((u.components,) + grid.shape)
    for a in range(grid.dim):
        grad_a = u.derivative(tuple(int(j == a) for j in range(grid.dim))).physical()
        conv += (w[a] + wmean[a]) * grad_a
    return (SpectralField.from_physical(grid, conv) * -1.0).dealias().leray_project().subtract_mean()


def energy_balance_residual(traj) -> dict:
    """Residual of d/dt (1/2)||ubar||^2 + nu ||grad ubar||^2 - <fbar, ubar>
    along the stored series, centered differences in time."""
    s = traj.series
    t = s["t"]
    if len(t) < 3:
        raise ValueError("need at least 3 samples for the centered residual")
    dt = t[1] - t[0]
    e = s["l2_sq"]
    dedt_half = (e[2:] - e[:-2]) / (4.0 * dt)  # d/dt of E/2
    r = dedt_half + traj.cfg.nu * s["grad_sq"][1:-1] - s["forcing_inner"][1:-1]
    return {"max_abs": float(np.max(np.abs(r))), "series": r, "t": t[1:-1]}


def validate_state(state, div_tol=1e-11, mean_tol=1e-14):
    """Raise AssertionError unless the state's field is solenoidal (relative
    to its H1 norm) and mean-free."""
    h1 = state.field.sobolev_norm(1)
    div = div_norm(state.field)
    if h1 > 0 and div > div_tol * h1:
        raise AssertionError(f"divergence {div:.3e} exceeds {div_tol:.1e} * H1")
    if np.max(np.abs(state.field.mean())) > mean_tol:
        raise AssertionError("mean-free part carries a nonzero mode 0")
    return True


def div_norm(u):
    """||div u||_L2 of a full vector field, through `SpectralField.derivative`."""
    grid = u.grid
    if u.components != grid.dim:
        raise ValueError("divergence requires a full vector field")
    e = np.eye(grid.dim, dtype=int)
    div = sum(u.derivative(e[a]).coeffs[a] for a in range(grid.dim))
    return SpectralField(grid, div[None]).sobolev_norm(0)


def lp_norm(u, p):
    """L_p norm of the pointwise magnitude of u via equal-weight quadrature."""
    if p not in (2, 3, 4, 6, np.inf, "inf"):
        raise ValueError(f"unsupported p={p}; use 2, 3, 4, 6 or inf")
    return lp_norms(u.grid, np.sum(u.physical() ** 2, axis=0)[None], float(p))[0]


def gl4(f, a, b):
    """4-point Gauss-Legendre quadrature of f on [a, b]; exact through degree 7."""
    if b <= a:
        return 0.0 * np.asarray(f(a))
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    acc = 0.0
    for x, w in zip(_GL4_NODES, _GL4_WEIGHTS):
        acc = acc + w * np.asarray(f(mid + half * x))
    return half * acc


def window_integral(fn, a, b, period=None):
    """int_a^b fn(t) dt by scipy quad, split at every multiple of `period`
    inside (a, b), where a window-periodic forcing jumps."""
    cuts = [a, b]
    if period is not None:
        cuts += [j * period for j in range(math.floor(a / period) + 1, math.ceil(b / period))]
    cuts = sorted(c for c in set(cuts) if a <= c <= b)
    return sum(quad(fn, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
               for lo, hi in zip(cuts, cuts[1:]))


def window_bar_sq(f, k, T, norm="l2"):
    """int_{kT}^{(k+1)T} ||fbar||^2 dt of the forcing f, by quadrature."""
    period = f.T if isinstance(f, PeriodicExtensionForcing) else None
    return window_integral(lambda t: f.bar_norm_sq(t, norm), k * T, (k + 1) * T, period)


class LiftedForcing(Forcing):
    """A 2D base forcing viewed on the 3D grid, for full-flow cross checks:
    the lifted profile, the same amplitude, and a zero third mean component."""

    def __init__(self, inner, grid3d):
        super().__init__(grid3d, 3)
        self.inner = inner
        if inner.profile is not None:
            self.profile = lift_2d_to_3d(inner.profile, grid3d)

    def bar_amplitude(self, t):
        return self.inner.bar_amplitude(t)

    def mean_integral(self, t0, t1):
        return np.concatenate([self.inner.mean_integral(t0, t1), [0.0]])

    def mean_double_integral(self, t0, t1):
        return np.concatenate([self.inner.mean_double_integral(t0, t1), [0.0]])
