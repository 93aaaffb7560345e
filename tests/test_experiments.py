"""Experiment machinery: perturbations, window stats, barrier monitor."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from nsbox.certificate import t_star
from nsbox.constants import interpolation_constants, poincare_constants
from nsbox.experiments import (
    PerturbationSpec,
    Scenario,
    WindowedSeries,
    barrier_monitor,
    build_forcing,
    make_perturbation,
    run_stability_experiment,
    single_mode_profile,
    window_statistics,
)
from nsbox.forcing import DecayingModeForcing, ZeroForcing
from nsbox.solver import FlowState, SolverConfig, evolve_base_2d, evolve_pair, taylor_green_state
from nsbox.spectral import PeriodicGrid, SpectralField
from oracles import div_norm, window_bar_sq
from test_acceptance import example_one_threshold

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def consts():
    pc = poincare_constants(1.0, TWO_PI)
    ic = interpolation_constants(1.0, TWO_PI, "empirical_calibrated", n_fields=80, seed=0)
    return pc, ic


class TestProfileAndPerturbation:
    def test_single_mode_profile_structure(self):
        g = PeriodicGrid(L=TWO_PI, dim=2, N=16)
        f = single_mode_profile(g, (2, 1), normalize="l2")
        assert div_norm(f) < 1e-13
        assert np.max(np.abs(f.mean())) < 1e-15
        assert f.sobolev_norm(0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("mode", [(0, 0, 1), (1, 2, 0), (2, -1, 3), (3, 0, 0)])
    def test_single_mode_profile_3d_structure(self, mode):
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=8)
        f = single_mode_profile(g3, mode, normalize="l2")
        assert f.components == 3
        assert div_norm(f) < 1e-13
        assert np.max(np.abs(f.mean())) < 1e-15
        assert f.sobolev_norm(0) == pytest.approx(1.0, rel=1e-12)

    def test_single_mode_profile_rejects_zero_mode(self):
        for dim, mode in ((2, (0, 0)), (3, (0, 0, 0)), (3, (1, 0))):
            with pytest.raises(ValueError, match=f"nonzero {dim}D integer mode"):
                single_mode_profile(PeriodicGrid(L=TWO_PI, dim=dim, N=8), mode)

    def test_perturbation_scaled_exactly(self):
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=16)
        spec = PerturbationSpec(gamma=1e-4, seed=3)
        u0 = make_perturbation(g3, spec)
        target = 1e-4 * (1 - 1e-9)
        assert u0.field.sobolev_norm_sq(1) == pytest.approx(target, rel=1e-12)
        assert div_norm(u0.field) < 1e-12
        # seeded determinism
        again = make_perturbation(g3, spec)
        assert np.array_equal(u0.field.coeffs, again.field.coeffs)

    def test_perturbation_with_mean(self):
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=16)
        spec = PerturbationSpec(gamma=1e-2, seed=3, mean=(1e-4, 0.0, 0.0))
        u0 = make_perturbation(g3, spec)
        total = u0.field.sobolev_norm_sq(1) + np.sum(np.asarray(u0.mean) ** 2) * g3.volume
        assert total == pytest.approx(1e-2 * (1 - 1e-9), rel=1e-12)


class TestForcingFamilies:
    def test_example1_and_threshold(self, consts):
        pc, ic = consts
        f, _ = Scenario(N=16).forcings()
        assert isinstance(f, DecayingModeForcing)
        assert np.array_equal(f.mean_rate, [1.0, 0.0])
        thr = example_one_threshold(f, 0.01, pc, ic)
        assert thr >= t_star(pc)

    def test_example2_periodic(self):
        scn = Scenario(N=16, force_family="example2")
        f, _ = scn.forcings()
        w0 = window_bar_sq(f, 0, scn.T, "h1")
        assert window_bar_sq(f, 7, scn.T, "h1") == pytest.approx(w0, rel=1e-12)
        assert f.sup_window_bar_sq(scn.T, "h1") == pytest.approx(w0, rel=1e-12)

    def test_g_forcing_zero_unless_amplitude(self):
        _, g = Scenario(N=8).forcings()
        assert isinstance(g, ZeroForcing) and g.components == 3
        _, g = Scenario(N=8, g_amplitude=0.1, g_mode=(0, 1, 1)).forcings()
        assert isinstance(g, DecayingModeForcing) and g.grid.dim == 3
        assert g.bar_norm_sq(0.0) == pytest.approx(0.01, rel=1e-12)

    def test_unknown_family_rejected(self):
        g2 = PeriodicGrid(L=TWO_PI, dim=2, N=16)
        with pytest.raises(ValueError, match="unsupported forcing family"):
            build_forcing(g2, {"family": "bogus"})


class TestBarrierMonitor:
    def test_zero_series(self, consts):
        pc, ic = consts
        t = np.linspace(0, 1, 101)
        out = barrier_monitor(t, np.zeros(101), np.zeros(101), pc, ic, 1e-4)
        assert out["residual_reduced_max"] == 0.0
        assert out["violations_reduced"] == 0
        assert out["never_exceeded"]

    def test_exponential_synthetic(self, consts):
        # X2 = X2(0) exp(-c1 t / 2), G2 = 0 saturates the reduced inequality;
        # X2(0) sits just below gamma, as a drawn perturbation does
        pc, ic = consts
        gamma = 1e-4
        t = np.linspace(0, 5, 2001)
        x2 = gamma * (1.0 - 1e-9) * np.exp(-pc.c_1 * t / 2.0)
        out = barrier_monitor(t, x2, np.zeros_like(t), pc, ic, gamma)
        assert out["violations_reduced"] == 0
        assert out["residual_reduced_max"] <= out["tol_slack"]
        assert out["never_exceeded"]

    def test_reaching_gamma_is_an_exceedance(self, consts):
        # the barrier holds while X2 < gamma: a sample equal to gamma exceeds it
        pc, ic = consts
        t = np.linspace(0, 1, 11)
        x2 = np.full(11, 0.5e-4)
        x2[4] = 1e-4
        out = barrier_monitor(t, x2, np.zeros_like(t), pc, ic, 1e-4)
        assert not out["never_exceeded"]
        assert out["first_exceedance_time"] == t[4]

    def test_exceedance_detection(self, consts):
        pc, ic = consts
        t = np.linspace(0, 1, 11)
        x2 = np.linspace(0.5e-4, 2e-4, 11)
        out = barrier_monitor(t, x2, np.zeros_like(t), pc, ic, 1e-4)
        assert not out["never_exceeded"]
        assert out["first_exceedance_time"] is not None

    def test_timestamp_mismatch_rejected(self, consts):
        pc, ic = consts
        with pytest.raises(ValueError):
            barrier_monitor(np.linspace(0, 1, 5), np.zeros(5), np.zeros(4), pc, ic, 1e-4)


class TestWindowStatistics:
    def _tg_pair(self, T, windows, nu=1.0, dt=1e-3, N=16):
        g2 = PeriodicGrid(L=TWO_PI, dim=2, N=N)
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=N)
        base0 = taylor_green_state(g2, amplitude=0.1)
        u0 = FlowState(0.0, SpectralField.zeros(g3, 3), np.zeros(3))
        cfg = SolverConfig(nu=nu, dt=dt, t_end=windows * T)
        return evolve_pair(base0, ZeroForcing(g2, 2), u0, ZeroForcing(g3, 3), cfg)

    def test_zero_data_all_zero(self):
        g2 = PeriodicGrid(L=TWO_PI, dim=2, N=8)
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=8)
        base0 = FlowState(0.0, SpectralField.zeros(g2, 2), np.zeros(2))
        u0 = FlowState(0.0, SpectralField.zeros(g3, 3), np.zeros(3))
        cfg = SolverConfig(nu=1.0, dt=0.05, t_end=1.0)
        traj = evolve_pair(base0, ZeroForcing(g2, 2), u0, ZeroForcing(g3, 3), cfg)
        stats, uniformity = window_statistics(traj, 0.5)
        assert len(stats) == 2
        for w in stats:
            assert all(v == 0.0 for k, v in asdict(w).items() if k != "k")
        assert uniformity["no_upward_trend"]

    def test_taylor_green_window_sups_decay_geometrically(self):
        T, nu = 0.25, 1.0
        traj = self._tg_pair(T, 3, nu=nu)
        stats, uniformity = window_statistics(traj, T)
        want = math.exp(-2 * nu * T)
        for k in (1, 2):
            ratio = stats[k].sup_vs_h1 / stats[k - 1].sup_vs_h1
            assert ratio == pytest.approx(want, rel=1e-6)
        assert uniformity["no_upward_trend"]

    def test_incomplete_tail_excluded(self):
        traj = self._tg_pair(0.3, 2, dt=2e-3)
        # ask for windows of 0.4: only one complete window in 0.6
        stats, uniformity = window_statistics(traj, 0.4)
        assert len(stats) == 1
        assert uniformity["excluded_tail"]


class TestH21Norms:
    def test_taylor_green_time_derivative_closed_form(self):
        # d/dt of the decaying vortex: integral of ||v_t||^2 over [0, T]
        # equals nu * E0 * (1 - exp(-4 nu T))
        g2 = PeriodicGrid(L=TWO_PI, dim=2, N=16)
        nu, T, amp = 1.0, 0.5, 0.05
        base0 = taylor_green_state(g2, amplitude=amp)
        e0 = base0.field.sobolev_norm_sq(0)
        cfg = SolverConfig(nu=nu, dt=1e-3, t_end=T)
        traj = evolve_base_2d(base0, ZeroForcing(g2, 2), cfg)
        int_ut_sq = WindowedSeries(traj.series["t"], T).step_sum(traj.series["dudt_sq"], 0)
        want = nu * e0 * (1 - math.exp(-4 * nu * T))
        assert int_ut_sq == pytest.approx(want, abs=1e-6)


class TestRunExperiment:
    def test_zero_base_scenario(self):
        scn = Scenario(
            N=8, windows=1, T=4.0, dt=0.01, base_amplitude=0.0, force_family="zero",
            calibration_fields=40,
        )
        res = run_stability_experiment(scn)
        assert res.barrier["never_exceeded"]
        assert np.max(res.g2) == 0.0
        # with a zero base flow the literal window bound cannot carry the
        # initial perturbation energy (b5_sq = 0); the carry-corrected
        # variant does
        pe = res.checks["pert_energy"]
        assert not pe["ok"] and pe["ok_carry"]
        for name in ("window_start_energy", "window_energy", "window_gradient",
                     "grad2_sup", "barrier_sup"):
            assert res.checks[name]["ok"]

    def test_small_scenario_passes_all_checks(self):
        scn = Scenario(N=16, windows=2, dt=5e-3, calibration_fields=150)
        res = run_stability_experiment(scn)
        assert not res.aborted
        assert res.barrier["never_exceeded"]
        assert res.barrier["violations_reduced"] == 0
        assert res.checks["all_ok"]
        assert res.certificate["barrier_hypotheses_ok"]
        # perturbation decays under the exponential envelope
        t = res.pert.series["t"]
        pc = poincare_constants(scn.nu, scn.L)
        envelope = scn.perturbation.gamma * np.exp(-pc.c_1 * t / 2.0)
        assert np.all(res.pert.series["h1_sq"] <= envelope)

    def test_infinite_bounds_are_not_evaluated(self):
        # a strong force makes the second-derivative and perturbation chains
        # infinite: those checks decide nothing, so they are null (not
        # evaluated), which all_ok passes
        scn = Scenario(N=8, T=0.1, dt=0.05, windows=1, calibration_fields=8,
                       force_amplitude=0.5)
        res = run_stability_experiment(scn)
        records = {k: c for k, c in res.checks.items() if isinstance(c, dict) and "ok" in c}
        infinite = {k for k, c in records.items() if c["bound"] == math.inf}
        assert infinite == {"grad2_sup", "grad2_window", "pert_energy", "pert_h21"}
        assert all(records[k]["ok"] is None for k in infinite)
        assert res.checks["pert_energy"]["ok_carry"] is None
        assert all(c["ok"] is True for k, c in records.items() if k not in infinite)
        assert res.checks["all_ok"] is True

    def test_large_gamma_flagged_not_raised(self):
        scn = Scenario(
            N=8, windows=1, T=4.0, dt=0.01, calibration_fields=40,
            perturbation=PerturbationSpec(gamma=0.9, seed=1),
        )
        res = run_stability_experiment(scn)
        assert res.certificate["gamma_hypothesis"] == "violated"
        assert not res.certificate["barrier_hypotheses_ok"]

    def test_seeded_reports_identical(self):
        from nsbox.io import content_hash

        scn = Scenario(N=8, windows=1, T=4.0, dt=0.02, calibration_fields=40)
        r1 = run_stability_experiment(scn)
        r2 = run_stability_experiment(scn)
        assert content_hash(r1.certificate) == content_hash(r2.certificate)
        assert np.array_equal(r1.pert.series["h1_sq"], r2.pert.series["h1_sq"])

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            Scenario(T=1.0, dt=0.3)  # dt does not divide T
        with pytest.raises(ValueError):
            Scenario(windows=0)
