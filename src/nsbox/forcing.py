"""Forcing families: evaluation, mean tracking, and windowed norm schedules.

A `Forcing` supplies three things to the solver and the certificate:

* the mean-free part fbar(t) = bar_amplitude(t) * profile used in the
  momentum equation,
* the time integrals of the integral mean (1/|box|) int f dx, which drive
  the (exact) mean ODE, and
* per-window schedules: int_{kT}^{(k+1)T} ||fbar||^2_X dt for X in
  {l2, h1, grad}, the mean-drift path, and their sups over the window
  index.  Closed-form families certify their sups; the generic fallback
  evaluates adaptive-Simpson quadrature (rtol 1e-10) and reports the sup
  as truncated.

A family states its closed forms through two declarations, from which the
base class derives the schedules:

* `mean_rate`: the vector a with mean(t) = a for all t, or None.  It gives
  both mean integrals and the four drift schedules (a nonzero rate makes the
  drift sups infinite, certified).  A family with no declared rate gives
  both mean integrals in closed form itself.
* `profile`: the fixed mean-free field whose multiple bar_amplitude(t) is
  fbar(t), or None when there is no mean-free part.  The bar schedules are
  then (0.0, certified).

Every family the CLI builds is one class; example 1 is a decaying mode over
a constant mean force, example 2 its window-periodic extension, which repeats
its inner family's declarations.  Families with other closed forms (the
decaying mode's bar schedules, the window-periodic extension, the oscillating
mean's integrals) override the methods concerned.
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
    "adaptive_simpson",
]


def adaptive_simpson(f, a, b, rtol=1e-10, max_depth=30):
    """Adaptive Simpson quadrature of a scalar function on [a, b].

    The error budget is rtol times the size of the whole integral (the first
    split's |left| + |right|), halved at each split, so a piece where f is
    small is not refined to its own relative accuracy."""

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, tol, depth):
        xm = 0.5 * (x0 + x2)
        xl, xr = 0.5 * (x0 + xm), 0.5 * (xm + x2)
        fl, fr = f(xl), f(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        if depth == 0:
            tol = rtol * (abs(left) + abs(right))
        if depth >= max_depth or abs(left + right - whole) <= 15 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(x0, xm, f0, fl, f1, left, tol / 2, depth + 1) + recurse(
            xm, x2, f1, fr, f2, right, tol / 2, depth + 1
        )

    if b <= a:
        return 0.0
    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    return recurse(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), None, 0)


class Forcing:
    """Base class.  Two declarations turn the generic quadrature schedules into
    closed forms: `mean_rate` (the mean equals this vector for all t, or None
    when the family gives both mean integrals itself) and `profile` (fbar(t)
    is bar_amplitude(t) times this field, or None when fbar is zero)."""

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

    def window_bar_sq_integral(self, k: int, T: float, norm: str = "l2") -> float:
        if self.profile is None:
            return 0.0
        return adaptive_simpson(lambda t: self.bar_norm_sq(t, norm), k * T, (k + 1) * T)

    def sup_window_bar_sq(self, T: float, k_max: int = 64, norm: str = "l2"):
        """(sup over k of the window integral, certified?).  Generic path
        truncates at k_max."""
        if self.profile is None:
            return 0.0, True
        vals = [self.window_bar_sq_integral(k, T, norm) for k in range(k_max + 1)]
        return max(vals), False

    def drift(self, t: float, initial_mean) -> np.ndarray:
        """Mean path: initial velocity mean plus the accumulated mean force."""
        return np.asarray(initial_mean, dtype=float) + self.mean_integral(0.0, t)

    def drift_sup_abs(self, T: float, k_max: int, initial_mean):
        """(sup_t |drift(t)| over [0,(k_max+1)T], certified?)."""
        if self.mean_rate is not None:
            if np.any(self.mean_rate != 0.0):
                return math.inf, True
            return float(np.linalg.norm(initial_mean)), True
        ts = np.linspace(0.0, (k_max + 1) * T, 16 * (k_max + 1) + 1)
        val = max(float(np.linalg.norm(self.drift(t, initial_mean))) for t in ts)
        return val, False

    def window_drift_sq_integral(self, k: int, T: float, initial_mean) -> float:
        a = self.mean_rate
        if a is not None:
            # int_{kT}^{(k+1)T} sum_c (m_c + a_c t)^2 dt, componentwise closed form
            m = np.asarray(initial_mean, dtype=float)
            t0, t1 = k * T, (k + 1) * T
            return float(sum(
                m * m * (t1 - t0) + m * a * (t1 * t1 - t0 * t0) + a * a * (t1**3 - t0**3) / 3.0
            ))
        return adaptive_simpson(
            lambda t: float(np.sum(self.drift(t, initial_mean) ** 2)), k * T, (k + 1) * T
        )

    def sup_window_drift_sq(self, T: float, k_max: int, initial_mean):
        if self.mean_rate is not None:
            if np.any(self.mean_rate != 0.0):
                return math.inf, True
            return float(np.sum(np.asarray(initial_mean, dtype=float) ** 2)) * T, True
        vals = [self.window_drift_sq_integral(k, T, initial_mean) for k in range(k_max + 1)]
        return max(vals), False


class ZeroForcing(Forcing):
    def __init__(self, grid, components):
        super().__init__(grid, components)
        self.mean_rate = np.zeros(components)


class ConstantMeanForcing(Forcing):
    """Spatially constant force a: pure mean, no fluctuating part."""

    def __init__(self, grid, a):
        a = np.asarray(a, dtype=float)
        super().__init__(grid, len(a))
        self.mean_rate = a


class OscillatingMeanForcing(Forcing):
    """mean(t) = amp * sin(omega t); closed-form integrals."""

    def __init__(self, grid, amp, omega=1.0):
        amp = np.asarray(amp, dtype=float)
        super().__init__(grid, len(amp))
        self.amp = amp
        self.omega = float(omega)

    def mean_integral(self, t0, t1):
        w = self.omega
        return self.amp * (math.cos(w * t0) - math.cos(w * t1)) / w

    def mean_double_integral(self, t0, t1):
        w = self.omega
        # int_{t0}^{t1} (t1 - s) amp sin(w s) ds
        val = (t1 - t0) * math.cos(w * t0) / w - (math.sin(w * t1) - math.sin(w * t0)) / w**2
        return self.amp * val


class DecayingModeForcing(Forcing):
    """A decaying fluctuation over a constant mean force:
    f(x, t) = constant + amplitude * exp(-rate * t) * profile(x).

    The profile must be mean-free and the constant (zero by default) has one
    entry per component; it is the declared mean rate.  All window integrals
    are closed-form and the sup over windows is attained at k = 0 (certified).
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
        self.mean_rate = np.zeros(self.components) if constant is None else np.asarray(constant, dtype=float)
        if self.mean_rate.shape != (self.components,):
            raise ValueError(f"constant force needs {self.components} components, got {self.mean_rate.size}")

    def bar_amplitude(self, t):
        return self.amplitude * math.exp(-self.rate * t)

    def window_bar_sq_integral(self, k, T, norm="l2"):
        lam = self.rate
        w = (math.exp(-2 * lam * k * T) - math.exp(-2 * lam * (k + 1) * T)) / (2 * lam)
        return self.amplitude**2 * self.profile_norm_sq[norm] * w

    def sup_window_bar_sq(self, T, k_max=64, norm="l2"):
        return self.window_bar_sq_integral(0, T, norm), True

    def infinite_bar_sq_integral(self, norm="l2") -> float:
        """int_0^inf ||fbar||^2 dt = amplitude^2 ||profile||^2 / (2 rate)."""
        return self.amplitude**2 * self.profile_norm_sq[norm] / (2 * self.rate)


class PeriodicExtensionForcing(Forcing):
    """f(x, t) = h(x, t - kT) for t in [kT, (k+1)T): exact window reduction.
    The inner family h must declare its mean rate: a repeated constant mean is
    that constant mean, and a repeat of a + b(t) * profile is a + b(t - kT) *
    profile, so both declarations carry over."""

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

    def window_bar_sq_integral(self, k, T, norm="l2"):
        if abs(T - self.T) < 1e-12:
            return self.inner.window_bar_sq_integral(0, T, norm)
        return super().window_bar_sq_integral(k, T, norm)

    def sup_window_bar_sq(self, T, k_max=64, norm="l2"):
        if abs(T - self.T) < 1e-12:
            return self.inner.window_bar_sq_integral(0, T, norm), True
        return super().sup_window_bar_sq(T, k_max, norm)
