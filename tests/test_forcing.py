"""Forcing families: evaluation, mean integrals, windowed schedules."""

import math

import numpy as np
import pytest

from nsbox.experiments import build_forcing
from nsbox.forcing import (
    ConstantMeanForcing,
    DecayingModeForcing,
    OscillatingMeanForcing,
    PeriodicExtensionForcing,
    ZeroForcing,
)
from nsbox.spectral import PeriodicGrid, SpectralField
from oracles import gl4, window_bar_sq, window_integral

TWO_PI = 2.0 * np.pi


def unit_h1_profile(grid):
    """Single solenoidal mode scaled to unit H1 norm."""
    x1, x2 = grid.coords()
    a = TWO_PI / grid.L
    samples = np.stack(
        [np.cos(a * (x1 + x2)) * np.ones(grid.shape), -np.cos(a * (x1 + x2)) * np.ones(grid.shape)]
    )
    f = SpectralField.from_physical(grid, samples)
    return f * (1.0 / f.sobolev_norm(1))


@pytest.fixture
def grid():
    return PeriodicGrid(L=TWO_PI, dim=2, N=16)


class TestDecayingMode:
    def test_rate_validation(self, grid):
        with pytest.raises(ValueError):
            DecayingModeForcing(unit_h1_profile(grid), rate=-1.0)
        with pytest.raises(ValueError):
            DecayingModeForcing(unit_h1_profile(grid), rate=0.0)

    def test_constant_length_validation(self, grid):
        with pytest.raises(ValueError, match="components"):
            DecayingModeForcing(unit_h1_profile(grid), rate=1.0, constant=[1.0, 0.0, 0.0])

    def test_infinite_h1_integral_closed_form(self, grid):
        # unit H1 profile with rate lam: integral over all time = 1/(2 lam)
        f = DecayingModeForcing(unit_h1_profile(grid), rate=1.0)
        assert f.infinite_bar_sq_integral("h1") == pytest.approx(0.5, rel=1e-12)

    def test_window_integral_matches_quadrature(self, grid):
        f = DecayingModeForcing(unit_h1_profile(grid), rate=0.7, amplitude=0.3)
        for k, norm in ((0, "l2"), (2, "h1"), (1, "grad")):
            closed = f.window_bar_sq_integral(k, 1.3, norm)
            assert closed == pytest.approx(window_bar_sq(f, k, 1.3, norm), rel=1e-12)

    def test_sup_is_first_window(self, grid):
        f = DecayingModeForcing(unit_h1_profile(grid), rate=1.0)
        assert f.sup_window_bar_sq(2.0, "l2") == f.window_bar_sq_integral(0, 2.0, "l2")


class TestConstantMean:
    def test_bar_vanishes(self, grid):
        f = ConstantMeanForcing(grid, [1.0, 0.0])
        assert f.profile is None and f.bar_norm_sq(0.5) == 0.0
        assert f.sup_window_bar_sq(1.0, "h1") == 0.0

    def test_drift_linear_and_unbounded(self, grid):
        f = ConstantMeanForcing(grid, [2.0, 0.0])
        assert np.allclose(f.drift(3.0, [0.5, 0.0]), [6.5, 0.0])
        assert math.isinf(f.drift_sup_abs([0.0, 0.0]))

    def test_window_drift_integral_closed_form(self, grid):
        # a zero force keeps the drift at m0: every window integral is T |m0|^2
        f = ConstantMeanForcing(grid, [0.0, 0.0])
        m0 = np.array([1.0, -0.5])
        T = 0.7
        for k in (0, 2):
            quad = window_integral(lambda t: float(np.sum(f.drift(t, m0) ** 2)), k * T, (k + 1) * T)
            assert f.sup_window_drift_sq(T, m0) == pytest.approx(quad, rel=1e-13)

    def test_divergent_window_drift_sup(self, grid):
        f = ConstantMeanForcing(grid, [1.0, 0.0])
        assert math.isinf(f.sup_window_drift_sq(1.0, [0.0, 0.0]))


class TestOscillatingMean:
    def test_integrals_closed_form(self, grid):
        f = OscillatingMeanForcing(grid, [2.0, 0.0], omega=3.0)
        got = f.mean_integral(0.2, 1.1)
        ref = 2.0 * (math.cos(3 * 0.2) - math.cos(3 * 1.1)) / 3.0
        assert got[0] == pytest.approx(ref, rel=1e-13)
        dbl = f.mean_double_integral(0.2, 1.1)
        num = window_integral(lambda s: (1.1 - s) * 2.0 * math.sin(3 * s), 0.2, 1.1)
        assert dbl[0] == pytest.approx(num, rel=1e-12)

    @pytest.mark.parametrize("m0", [[0.0, 0.0], [0.3, -0.4], [0.5, -0.2]])
    def test_drift_sup_attained_at_half_period(self, grid, m0):
        # drift(t) = m0 + amp (1 - cos(omega t)) / omega; with |m0 + 2 amp / omega|
        # >= |m0| the sup is |drift(pi / omega)|
        f = OscillatingMeanForcing(grid, [0.7, 0.2], omega=2.5)
        sup = f.drift_sup_abs(m0)
        assert sup == pytest.approx(float(np.linalg.norm(f.drift(math.pi / 2.5, m0))), rel=1e-15)
        ts = np.linspace(0.0, 4 * math.pi / 2.5, 4001)
        sampled = max(float(np.linalg.norm(f.drift(t, m0))) for t in ts)
        assert sampled <= sup * (1 + 1e-15)
        assert f.sup_window_drift_sq(3.0, m0) == 3.0 * sup**2

    def test_drift_sup_at_start(self, grid):
        # m0 = -1.6 amp / omega: the drift runs from |m0| back towards zero
        f = OscillatingMeanForcing(grid, [1.0, 0.0], omega=2.0)
        m0 = [-0.8, 0.0]
        assert f.drift_sup_abs(m0) == 0.8
        ts = np.linspace(0.0, 2 * math.pi, 2001)
        assert max(float(np.linalg.norm(f.drift(t, m0))) for t in ts) <= 0.8


class TestComposite:
    """Example 1 composes a constant force and a decaying fluctuation in one family."""

    def test_example_one_shape(self, grid):
        # bar norms are the decaying mode's alone, the drift grows linearly
        h = DecayingModeForcing(unit_h1_profile(grid), rate=1.0, amplitude=0.1)
        f = DecayingModeForcing(h.profile, rate=1.0, amplitude=0.1, constant=[1.0, 0.0])
        assert f.window_bar_sq_integral(0, 2.0, "h1") == pytest.approx(
            h.window_bar_sq_integral(0, 2.0, "h1")
        )
        assert math.isinf(f.drift_sup_abs([0.0, 0.0]))
        assert np.allclose(f.mean_integral(0.0, 0.3), [0.3, 0.0])


class TestPeriodicExtension:
    def test_exact_window_reduction(self, grid):
        T = 1.5
        h = DecayingModeForcing(unit_h1_profile(grid), rate=1.0)
        f = PeriodicExtensionForcing(h, T)
        k = 7
        t = k * T + 0.37
        assert f.profile is h.profile
        assert f.bar_amplitude(t) == pytest.approx(h.bar_amplitude(0.37), rel=1e-14)

    def test_window_integrals_equal_across_k(self, grid):
        T = 2.0
        h = DecayingModeForcing(unit_h1_profile(grid), rate=1.0)
        f = PeriodicExtensionForcing(h, T)
        w0 = window_bar_sq(f, 0, T, "h1")
        assert window_bar_sq(f, 7, T, "h1") == pytest.approx(w0, rel=1e-12)
        # a window as long as the period: the inner family's first window, bit for bit
        assert f.sup_window_bar_sq(T, "h1") == h.window_bar_sq_integral(0, T, "h1")
        assert f.sup_window_bar_sq(T, "h1") == pytest.approx(w0, rel=1e-12)

    def test_validation(self, grid):
        with pytest.raises(ValueError):
            PeriodicExtensionForcing(ZeroForcing(grid, 2), T=0.0)
        with pytest.raises(ValueError, match="declared mean rate"):
            PeriodicExtensionForcing(OscillatingMeanForcing(grid, [1.0, 0.0]), T=1.0)


CLI_FAMILIES = ("zero", "constant_mean", "oscillating_mean", "decaying_mode", "example1", "example2")


def declaration_case(grid, name):
    if name == "periodic":
        return PeriodicExtensionForcing(ConstantMeanForcing(grid, [1.0, 0.0]), 1.5)
    return build_forcing(grid, {"family": name, "constant": [0.5, -0.25]}, 2.0)


class TestDeclarations:
    @pytest.mark.parametrize("name", CLI_FAMILIES + ("periodic",))
    def test_declarations_hold(self, grid, name):
        f = declaration_case(grid, name)
        for t in (0.0, 0.3, 1.7, 4.2):
            want = 0.0 if f.profile is None else (f.profile * f.bar_amplitude(t)).sobolev_norm_sq(0)
            assert f.bar_norm_sq(t) == pytest.approx(want, rel=1e-14)
        if f.mean_rate is None:
            return
        for t0, t1 in ((0.0, 1.3), (0.4, 2.9)):
            assert np.allclose(f.mean_integral(t0, t1), gl4(lambda s: f.mean_rate, t0, t1),
                               rtol=1e-13, atol=1e-15)
            assert np.allclose(f.mean_double_integral(t0, t1),
                               gl4(lambda s: (t1 - s) * f.mean_rate, t0, t1), rtol=1e-13, atol=1e-15)

    # a window-periodic extension repeats its inner family's declarations:
    # example 2 repeats a decaying mode with a zero constant, "periodic" a
    # constant mean, which has no profile
    @pytest.mark.parametrize("name, has_profile, declared_rate", [
        ("zero", False, True), ("constant_mean", False, True),
        ("oscillating_mean", False, False), ("decaying_mode", True, True),
        ("example1", True, True), ("example2", True, True), ("periodic", False, True),
    ])
    def test_families_declare(self, grid, name, has_profile, declared_rate):
        f = declaration_case(grid, name)
        assert (f.profile is not None) is has_profile
        assert (f.mean_rate is not None) is declared_rate

    def test_example_one_with_zero_constant_certifies_drift(self, grid):
        f = build_forcing(grid, {"family": "example1", "constant": [0.0, 0.0]})
        m0 = np.array([0.3, 0.4])
        assert f.drift_sup_abs(m0) == pytest.approx(0.5, rel=1e-15)
        assert f.sup_window_drift_sq(2.0, m0) == pytest.approx(0.5, rel=1e-15)


# example 2's period P against the window T: equal, T = 3P, T = 2.5P (a partial
# period in each window), and P just above T / 8, where a window starts at a
# phase that drifts by 8e-4 T per window
EXAMPLE2_PERIODS = (1.0, 1 / 3, 1 / 2.5, 1.0001 / 8)


class TestBarScheduleSup:
    """The closed-form bar sup bounds the windows k <= 64, computed by
    quadrature split at the period jumps, and is the k = 0 window; the
    pointwise bar sup bounds ||fbar(t)||^2 on a dense sample of [0, 16 T] and
    is its value at t = 0."""

    def check(self, f, T):
        times = np.linspace(0.0, 16 * T, 4097)
        for norm in ("l2", "h1", "grad"):
            sup = f.sup_window_bar_sq(T, norm)
            windows = [window_bar_sq(f, k, T, norm) for k in range(65)]
            assert sup == pytest.approx(windows[0], rel=1e-11, abs=1e-300)
            assert max(windows) <= sup * (1 + 1e-11)
            sup = f.sup_bar_norm_sq(norm)
            sampled = [f.bar_norm_sq(t, norm) for t in times]
            assert sup == sampled[0]
            assert max(sampled) <= sup * (1 + 1e-12)

    @pytest.mark.parametrize("name", CLI_FAMILIES)
    @pytest.mark.parametrize("T", (2.0, 5.5))
    def test_cli_families(self, grid, name, T):
        self.check(build_forcing(grid, {"family": name, "amplitude": 0.3, "rate": 0.4}, T), T)

    @pytest.mark.parametrize("ratio", EXAMPLE2_PERIODS)
    @pytest.mark.parametrize("T", (4.0, 8.0))
    def test_example2_period(self, grid, T, ratio):
        fcfg = {"family": "example2", "amplitude": 0.2, "mode": [5, 0], "window": ratio * T}
        self.check(build_forcing(grid, fcfg, T), T)
