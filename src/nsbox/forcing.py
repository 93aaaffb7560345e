"""Forcing families: evaluation, mean tracking, and windowed norm schedules.

A `Forcing` supplies three things to the solver and the certificate:

* the mean-free spectral field fbar(t) used in the momentum equation,
* the integral mean (1/|box|) int f dx and its time integrals, which drive
  the (exact) mean ODE, and
* per-window schedules: int_{kT}^{(k+1)T} ||fbar||^2_X dt for X in
  {l2, h1, grad}, the mean-drift path, and their sups over the window
  index.  Closed-form families certify their sups; the generic fallback
  evaluates adaptive-Simpson quadrature (rtol 1e-10) and reports the sup
  as truncated.

A family states its closed forms through two declarations, from which the
base class derives the schedules:

* `mean_rate`: the vector a with mean(t) = a for all t, or None.  It gives
  the mean, both mean integrals and the four drift schedules (a nonzero rate
  makes the drift sups infinite, certified).
* `has_bar = False`: bar_field(t) is always None.  The bar schedules are
  then (0.0, certified).

Every family the CLI builds is one class; example 1 is a decaying mode over
a constant mean force, example 2 its window-periodic extension, which repeats
its inner family's declarations.  Families with other closed forms (the
decaying mode's bar schedules, the window-periodic extension, the oscillating
mean's integrals) override the methods concerned.
"""

from __future__ import annotations

import math

import numpy as np

from nsbox.spectral import PeriodicGrid, SpectralField, lift_2d_to_3d

__all__ = [
    "Forcing",
    "ZeroForcing",
    "ConstantMeanForcing",
    "OscillatingMeanForcing",
    "DecayingModeForcing",
    "PeriodicExtensionForcing",
    "LiftedForcing",
    "adaptive_simpson",
]

_GL4_NODES = np.array(
    [-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526]
)
_GL4_WEIGHTS = np.array(
    [0.3478548451374538, 0.6521451548625461, 0.6521451548625461, 0.3478548451374538]
)


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


def _gl4(f, a, b):
    """4-point Gauss-Legendre; exact through degree 7."""
    if b <= a:
        return 0.0 * np.asarray(f(a))
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    acc = 0.0
    for x, w in zip(_GL4_NODES, _GL4_WEIGHTS):
        acc = acc + w * np.asarray(f(mid + half * x))
    return half * acc


class Forcing:
    """Base class.  Two declarations turn the generic quadrature schedules into
    closed forms: `mean_rate` (mean(t) equals this vector for all t, or None
    when undeclared) and `has_bar` (False: bar_field(t) is always None)."""

    mean_rate = None
    has_bar = True

    def __init__(self, grid: PeriodicGrid, components: int):
        self.grid = grid
        self.components = components

    # -- momentum-equation side ---------------------------------------------

    def bar_field(self, t: float):
        """Mean-free part at time t as a SpectralField, or None if zero."""
        return None

    def mean(self, t: float) -> np.ndarray:
        if self.mean_rate is not None:
            return self.mean_rate.copy()
        return np.zeros(self.components)

    def mean_integral(self, t0: float, t1: float) -> np.ndarray:
        """int_{t0}^{t1} mean(t) dt (Gauss-Legendre 4 unless the rate is declared)."""
        if self.mean_rate is not None:
            return self.mean_rate * (t1 - t0)
        return _gl4(self.mean, t0, t1)

    def mean_double_integral(self, t0: float, t1: float) -> np.ndarray:
        """int_{t0}^{t1} int_{t0}^{tau} mean(s) ds dtau = int (t1-s) mean(s) ds."""
        if self.mean_rate is not None:
            return self.mean_rate * (t1 - t0) ** 2 / 2.0
        return _gl4(lambda s: (t1 - s) * np.asarray(self.mean(s)), t0, t1)

    def infinite_bar_sq_integral(self, norm="l2"):
        """int_0^inf ||fbar||^2 dt in closed form, or None when not known."""
        return None

    # -- schedule side -------------------------------------------------------

    def bar_norm_sq(self, t: float, norm: str = "l2") -> float:
        f = self.bar_field(t)
        if f is None:
            return 0.0
        if norm == "l2":
            return f.sobolev_norm_sq(0)
        if norm == "h1":
            return f.sobolev_norm_sq(1)
        if norm == "grad":
            return f.grad_norm_sq()
        raise ValueError(f"unknown norm {norm!r}")

    def window_bar_sq_integral(self, k: int, T: float, norm: str = "l2") -> float:
        if not self.has_bar:
            return 0.0
        return adaptive_simpson(lambda t: self.bar_norm_sq(t, norm), k * T, (k + 1) * T)

    def sup_window_bar_sq(self, T: float, k_max: int = 64, norm: str = "l2"):
        """(sup over k of the window integral, certified?).  Generic path
        truncates at k_max."""
        if not self.has_bar:
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
    has_bar = False

    def __init__(self, grid, components):
        super().__init__(grid, components)
        self.mean_rate = np.zeros(components)


class ConstantMeanForcing(Forcing):
    """Spatially constant force a: pure mean, no fluctuating part."""

    has_bar = False

    def __init__(self, grid, a):
        a = np.asarray(a, dtype=float)
        super().__init__(grid, len(a))
        self.mean_rate = a


class OscillatingMeanForcing(Forcing):
    """mean(t) = amp * sin(omega t); closed-form integrals."""

    has_bar = False

    def __init__(self, grid, amp, omega=1.0):
        amp = np.asarray(amp, dtype=float)
        super().__init__(grid, len(amp))
        self.amp = amp
        self.omega = float(omega)

    def mean(self, t):
        return self.amp * math.sin(self.omega * t)

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
        self._norm_sq = {
            "l2": profile.sobolev_norm_sq(0),
            "h1": profile.sobolev_norm_sq(1),
            "grad": profile.grad_norm_sq(),
        }

    def bar_field(self, t):
        return self.profile * (self.amplitude * math.exp(-self.rate * t))

    def bar_norm_sq(self, t, norm="l2"):
        return self.amplitude**2 * math.exp(-2 * self.rate * t) * self._norm_sq[norm]

    def window_bar_sq_integral(self, k, T, norm="l2"):
        lam = self.rate
        w = (math.exp(-2 * lam * k * T) - math.exp(-2 * lam * (k + 1) * T)) / (2 * lam)
        return self.amplitude**2 * self._norm_sq[norm] * w

    def sup_window_bar_sq(self, T, k_max=64, norm="l2"):
        return self.window_bar_sq_integral(0, T, norm), True

    def infinite_bar_sq_integral(self, norm="l2") -> float:
        """int_0^inf ||fbar||^2 dt = amplitude^2 ||profile||^2 / (2 rate)."""
        return self.amplitude**2 * self._norm_sq[norm] / (2 * self.rate)


class PeriodicExtensionForcing(Forcing):
    """f(x, t) = h(x, t - kT) for t in [kT, (k+1)T): exact window reduction.
    A repeated constant mean is that constant mean, and a repeat of a forcing
    with no bar part has none either, so both declarations carry over."""

    def __init__(self, inner: Forcing, T: float):
        if T <= 0:
            raise ValueError("window length must be positive")
        super().__init__(inner.grid, inner.components)
        self.inner = inner
        self.T = float(T)
        self.mean_rate, self.has_bar = inner.mean_rate, inner.has_bar

    def _reduce(self, t):
        k = math.floor(t / self.T)
        return t - k * self.T

    def bar_field(self, t):
        return self.inner.bar_field(self._reduce(t))

    def bar_norm_sq(self, t, norm="l2"):
        return self.inner.bar_norm_sq(self._reduce(t), norm)

    def mean(self, t):
        return self.inner.mean(self._reduce(t))

    def mean_integral(self, t0, t1):
        # accumulate over whole windows plus the two fringes
        T = self.T
        k0, k1 = math.floor(t0 / T), math.floor(t1 / T)
        if k0 == k1:
            return self.inner.mean_integral(t0 - k0 * T, t1 - k0 * T)
        per = self.inner.mean_integral(0.0, T)
        acc = self.inner.mean_integral(t0 - k0 * T, T) + (k1 - k0 - 1) * per
        return acc + self.inner.mean_integral(0.0, t1 - k1 * T)

    def window_bar_sq_integral(self, k, T, norm="l2"):
        if abs(T - self.T) < 1e-12:
            return self.inner.window_bar_sq_integral(0, T, norm)
        return super().window_bar_sq_integral(k, T, norm)

    def sup_window_bar_sq(self, T, k_max=64, norm="l2"):
        if abs(T - self.T) < 1e-12:
            return self.inner.window_bar_sq_integral(0, T, norm), True
        return super().sup_window_bar_sq(T, k_max, norm)

    def drift_sup_abs(self, T, k_max, initial_mean):
        per = self.inner.mean_integral(0.0, self.T)
        if np.max(np.abs(per)) > 1e-14:
            return math.inf, True  # mean accumulates every window
        return super().drift_sup_abs(T, min(k_max, 4), initial_mean)


class LiftedForcing(Forcing):
    """2D base forcing viewed on the 3D grid (for full-flow cross checks)."""

    def __init__(self, inner: Forcing, grid3d: PeriodicGrid):
        super().__init__(grid3d, 3)
        self.inner = inner
        self._grid3d = grid3d

    def bar_field(self, t):
        f = self.inner.bar_field(t)
        if f is None:
            return None
        return lift_2d_to_3d(f, self._grid3d)

    def mean(self, t):
        m = self.inner.mean(t)
        return np.concatenate([m, [0.0]])

    def mean_integral(self, t0, t1):
        m = self.inner.mean_integral(t0, t1)
        return np.concatenate([m, [0.0]])

    def mean_double_integral(self, t0, t1):
        m = self.inner.mean_double_integral(t0, t1)
        return np.concatenate([m, [0.0]])
