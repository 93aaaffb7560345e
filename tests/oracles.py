"""Test oracles for the solver: an independent nonlinear term, the energy
balance of a trajectory, and the structural invariants of a stored state.

They are built on `SpectralField` alone and share no code with the solver's
band stepper.
"""

import numpy as np

from nsbox.spectral import SpectralField


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
    div = state.field.div_norm()
    if h1 > 0 and div > div_tol * h1:
        raise AssertionError(f"divergence {div:.3e} exceeds {div_tol:.1e} * H1")
    if np.max(np.abs(state.field.mean())) > mean_tol:
        raise AssertionError("mean-free part carries a nonzero mode 0")
    return True
