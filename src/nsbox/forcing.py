"""Forcing families: evaluation, mean tracking, and windowed norm schedules.

A `Forcing` supplies three things to the solver and the certificate:

* the mean-free part fbar(t) = bar_amplitude(t) * profile used in the
  momentum equation,
* the time integrals of the integral mean (1/|box|) int f dx, which drive
  the (exact) mean ODE, and
* closed-form sups over the window index k of int_{kT}^{(k+1)T} ||fbar||^2_X
  dt for X in {l2, h1, grad}, of the mean-drift path, and of its windowed
  square integral (docs/constants.md derives each), and over t of
  ||fbar(t)||^2_X.

A family states its closed forms through two declarations, from which the
base class derives the schedules:

* `mean_rate`: the vector a with mean(t) = a for all t, or None.  It gives
  both mean integrals and the drift sup (a nonzero rate makes it infinite).
  A family with no declared rate gives both mean integrals and the drift sup
  in closed form itself.
* `profile`: the fixed mean-free field whose multiple bar_amplitude(t) is
  fbar(t), or None when there is no mean-free part.  The bar schedule is
  then 0.0; a family with a profile gives it in closed form.

Every family the CLI builds is one class; example 1 is a decaying mode over
a constant mean force, example 2 its window-periodic extension, which repeats
its inner family's declarations.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from nsbox.spectral import PeriodicGrid, SpectralField

__all__ = [
    "Forcing",
    "ZeroForcing",
    "ConstantMeanForcing",
    "OscillatingMeanForcing",
    "DecayingModeForcing",
    "PeriodicExtensionForcing",
]


def _per_component(v, components: int, what: str) -> np.ndarray:
    """`v` as a float vector with one entry per velocity component."""
    v = np.asarray(v, dtype=float)
    if v.shape != (components,):
        raise ValueError(f"{what} needs {components} components, got {v.size}")
    return v


class Forcing:
    """Base class.  Two declarations give the schedules: `mean_rate` (the mean
    equals this vector for all t, or None when the family gives both mean
    integrals and the drift sup itself) and `profile` (fbar(t) is
    bar_amplitude(t) times this field, or None when fbar is zero)."""

    mean_rate = None
    profile = None

    def __init__(self, grid: PeriodicGrid, components: int):
        self.grid = grid
        self.components = components

    # -- momentum-equation side ---------------------------------------------

    def bar_amplitude(self, t: float) -> float:
        """The factor a(t) of fbar(t) = a(t) * profile; a family with a profile
        defines it."""
        raise NotImplementedError

    def mean_integral(self, t0: float, t1: float) -> np.ndarray:
        """int_{t0}^{t1} mean(t) dt, from the declared rate."""
        return self.mean_rate * (t1 - t0)

    def mean_double_integral(self, t0: float, t1: float) -> np.ndarray:
        """int_{t0}^{t1} int_{t0}^{tau} mean(s) ds dtau = int (t1-s) mean(s) ds,
        from the declared rate."""
        return self.mean_rate * (t1 - t0) ** 2 / 2.0

    def infinite_bar_sq_integral(self, norm="l2"):
        """int_0^inf ||fbar||^2 dt in closed form, or None when not known."""
        return None

    # -- schedule side -------------------------------------------------------

    @cached_property
    def profile_norm_sq(self) -> dict:
        """The profile's squared norms by name: l2, h1 and grad."""
        p = self.profile
        return {"l2": p.sobolev_norm_sq(0), "h1": p.sobolev_norm_sq(1), "grad": p.grad_norm_sq()}

    def bar_norm_sq(self, t: float, norm: str = "l2") -> float:
        if self.profile is None:
            return 0.0
        return self.bar_amplitude(t) ** 2 * self.profile_norm_sq[norm]

    def sup_bar_norm_sq(self, norm: str = "l2") -> float:
        """sup over t >= 0 of ||fbar(t)||^2: its value at t = 0, since every
        family has a(t)^2 non-increasing within a period that restarts at
        phase 0."""
        return self.bar_norm_sq(0.0, norm)

    def sup_window_bar_sq(self, T: float, norm: str = "l2") -> float:
        """sup over k of int_{kT}^{(k+1)T} ||fbar||^2 dt: 0.0 without a profile;
        a family with a profile overrides it."""
        if self.profile is not None:
            raise NotImplementedError
        return 0.0

    def drift(self, t: float, initial_mean) -> np.ndarray:
        """Mean path: initial velocity mean plus the accumulated mean force."""
        return np.asarray(initial_mean, dtype=float) + self.mean_integral(0.0, t)

    def drift_sup_abs(self, initial_mean) -> float:
        """sup over t >= 0 of |drift(t)|: |m0| under a zero rate, else inf."""
        if np.any(self.mean_rate != 0.0):
            return math.inf
        return float(np.linalg.norm(initial_mean))

    def sup_window_drift_sq(self, T: float, initial_mean) -> float:
        """Bound on sup over k of int_{kT}^{(k+1)T} |drift|^2 dt: T times the
        squared drift sup, exact when the drift is constant."""
        return T * self.drift_sup_abs(initial_mean) ** 2


class ZeroForcing(Forcing):
    def __init__(self, grid, components):
        super().__init__(grid, components)
        self.mean_rate = np.zeros(components)


class ConstantMeanForcing(Forcing):
    """Spatially constant force a: pure mean, no fluctuating part."""

    def __init__(self, grid, a):
        super().__init__(grid, grid.dim)
        self.mean_rate = _per_component(a, grid.dim, "constant force")


class OscillatingMeanForcing(Forcing):
    """mean(t) = amp * sin(omega t); closed-form integrals and drift sup."""

    def __init__(self, grid, amp, omega=1.0):
        super().__init__(grid, grid.dim)
        self.amp = _per_component(amp, grid.dim, "oscillating mean force")
        self.omega = float(omega)

    def mean_integral(self, t0, t1):
        w = self.omega
        return self.amp * (math.cos(w * t0) - math.cos(w * t1)) / w

    def mean_double_integral(self, t0, t1):
        w = self.omega
        # int_{t0}^{t1} (t1 - s) amp sin(w s) ds
        val = (t1 - t0) * math.cos(w * t0) / w - (math.sin(w * t1) - math.sin(w * t0)) / w**2
        return self.amp * val

    def drift_sup_abs(self, initial_mean):
        """drift(t) = m0 + amp s / omega with s = 1 - cos(omega t) in [0, 2]; its
        norm is convex in s, so the sup is at s = 0 or s = 2 (t = pi / omega)."""
        m0 = np.asarray(initial_mean, dtype=float)
        return max(float(np.linalg.norm(m0)),
                   float(np.linalg.norm(m0 + 2.0 * self.amp / self.omega)))


class DecayingModeForcing(Forcing):
    """A decaying fluctuation over a constant mean force:
    f(x, t) = constant + amplitude * exp(-rate * t) * profile(x).

    The profile must be mean-free and the constant (zero by default) has one
    entry per component; it is the declared mean rate.  All window integrals
    are closed-form and, a(t)^2 decreasing, the sup over windows is at k = 0.
    """

    def __init__(self, profile: SpectralField, rate: float, amplitude: float = 1.0,
                 constant=None):
        if rate <= 0:
            raise ValueError(f"decay rate must be positive, got {rate}")
        if np.max(np.abs(profile.mean())) > 1e-13:
            raise ValueError("profile must be mean-free")
        super().__init__(profile.grid, profile.components)
        self.profile = profile
        self.rate = float(rate)
        self.amplitude = float(amplitude)
        self.mean_rate = (np.zeros(self.components) if constant is None
                          else _per_component(constant, self.components, "constant force"))

    def bar_amplitude(self, t):
        return self.amplitude * math.exp(-self.rate * t)

    def window_bar_sq_integral(self, k, T, norm="l2"):
        lam = self.rate
        w = (math.exp(-2 * lam * k * T) - math.exp(-2 * lam * (k + 1) * T)) / (2 * lam)
        return self.amplitude**2 * self.profile_norm_sq[norm] * w

    def sup_window_bar_sq(self, T, norm="l2"):
        return self.window_bar_sq_integral(0, T, norm)

    def infinite_bar_sq_integral(self, norm="l2") -> float:
        """int_0^inf ||fbar||^2 dt = amplitude^2 ||profile||^2 / (2 rate)."""
        return self.amplitude**2 * self.profile_norm_sq[norm] / (2 * self.rate)


class PeriodicExtensionForcing(Forcing):
    """f(x, t) = h(x, t - kP) for t in [kP, (k+1)P), with period P.
    The inner family h must declare its mean rate: a repeated constant mean is
    that constant mean, and a repeat of a + b(t) * profile is a + b(t - kP) *
    profile, so both declarations carry over.  Every family with a declared
    rate has b(t)^2 non-increasing, which the bar schedules rely on."""

    def __init__(self, inner: Forcing, T: float):
        if T <= 0:
            raise ValueError("window length must be positive")
        if inner.mean_rate is None:
            raise ValueError("the window-periodic extension needs an inner family with a "
                             "declared mean rate")
        super().__init__(inner.grid, inner.components)
        self.inner = inner
        self.T = float(T)
        self.mean_rate, self.profile = inner.mean_rate, inner.profile

    def bar_amplitude(self, t):
        k = math.floor(t / self.T)
        return self.inner.bar_amplitude(t - k * self.T)

    def sup_window_bar_sq(self, T, norm="l2"):
        """With T = n P + r (0 <= r < P), a window holds n whole periods and an
        arc of length r; b(t)^2 decreasing within a period, the arc starting at
        phase 0 is the largest, so the sup is the k = 0 window: n I(P) + I(r)
        with I(x) the inner window integral over [0, x]."""
        n, r = divmod(T, self.T)
        inner = self.inner.sup_window_bar_sq
        return n * inner(self.T, norm) + inner(r, norm)
