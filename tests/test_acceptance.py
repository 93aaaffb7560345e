"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy stability scenario (criteria 6, 7, 8, 9) runs once per session and
is shared across the tests that consume it.
"""

import math
import time

import numpy as np
import pytest

from nsbox.certificate import (
    a_chain,
    abar_chain,
    b_chain,
    gamma_star,
    t_star,
)
from nsbox.constants import interpolation_constants, poincare_constants
from nsbox.experiments import (
    PerturbationSpec,
    Scenario,
    barrier_monitor,
    run_stability_experiment,
    single_mode_profile,
)
from nsbox.forcing import (
    ConstantMeanForcing,
    DecayingModeForcing,
    OscillatingMeanForcing,
    PeriodicExtensionForcing,
    ZeroForcing,
)
from nsbox.solver import (
    FlowState,
    SolverConfig,
    evolve_base_2d,
    taylor_green_state,
)
from nsbox.spectral import PeriodicGrid, SpectralField, random_field, to_coeffs, to_samples
from oracles import div_norm, energy_balance_residual

TWO_PI = 2.0 * np.pi


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {criterion}: {status} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _embed_2d(field, gbig):
    """The same coefficients on a finer grid; the field's Nyquist planes are empty."""
    out = np.zeros((field.components,) + gbig.coeff_shape, dtype=complex)
    g = field.grid
    for (c, i, j), v in np.ndenumerate(field.coeffs):
        m1, m2 = g.modes[:, i, j]
        if -g.N // 2 in (m1, m2):
            assert v == 0
        else:
            out[c, m1, m2] = v
    return SpectralField(gbig, out)


@pytest.fixture(scope="module")
def stability_run():
    """Criterion-6 scenario at full scale: 5 windows (criterion 9 needs 5;
    criteria 6-7 read the same run)."""
    scn = Scenario()
    t0 = time.monotonic()
    res = run_stability_experiment(scn)
    elapsed = time.monotonic() - t0
    return scn, res, elapsed


@pytest.fixture(scope="module")
def stability_run_gamma4(stability_run):
    """Same scenario at 4x the smallness level, one window (criterion 8)."""
    scn, _, _ = stability_run
    scn4 = Scenario(
        windows=1,
        perturbation=PerturbationSpec(
            gamma=4e-4, k0=scn.perturbation.k0, band=scn.perturbation.band,
            seed=scn.perturbation.seed, mean=scn.perturbation.mean,
        ),
    )
    return scn4, run_stability_experiment(scn4)


class TestCriterion1SolverValidation:
    def test_taylor_green_and_spectral_convergence(self):
        t0 = time.monotonic()
        # closed-form benchmark at N=32 and N=16
        errs_exact = {}
        for N in (32, 16):
            g = PeriodicGrid(L=TWO_PI, dim=2, N=N)
            cfg = SolverConfig(nu=1.0, dt=1e-3, t_end=1.0)
            traj = evolve_base_2d(taylor_green_state(g), ZeroForcing(g, 2), cfg)
            exact = taylor_green_state(g).field * math.exp(-2.0)
            errs_exact[N] = (traj.states[-1].field - exact).sobolev_norm(0) / exact.sobolev_norm(0)
        ok_err = errs_exact[32] < 1e-6

        # the single-mode vortex is spatially exact at any resolution (its
        # projected nonlinearity vanishes), so the closed-form errors are
        # roundoff-level at both N and their ratio is uninformative; the
        # super-algebraic convergence claim is exercised on a vortex seeded
        # with band-limited noise, against an N=64 reference
        degenerate_ratio = errs_exact[16] / max(errs_exact[32], 1e-300)

        nu, t_end, amp = 0.1, 0.5, 0.5
        g64 = PeriodicGrid(L=TWO_PI, dim=2, N=64)

        def cascade(N):
            g = PeriodicGrid(L=TWO_PI, dim=2, N=N)
            g16 = PeriodicGrid(L=TWO_PI, dim=2, N=16)
            rng = np.random.default_rng(11)
            noise16 = random_field(g16, 2, rng, band=(1, 4), solenoidal=True)
            noise = _embed_2d(noise16, g) if N != 16 else noise16
            u0 = taylor_green_state(g).field + noise * amp
            u0 = u0.leray_project().subtract_mean()
            cfg = SolverConfig(nu=nu, dt=1e-3, t_end=t_end)
            return evolve_base_2d(FlowState(0.0, u0, np.zeros(2)), ZeroForcing(g, 2), cfg).states[-1].field

        ref = cascade(64)
        err = {N: (_embed_2d(cascade(N), g64) - ref).sobolev_norm(0) / ref.sobolev_norm(0)
               for N in (16, 32)}
        ratio = err[16] / err[32]
        elapsed = time.monotonic() - t0
        report(
            1,
            ok_err and ratio > 100 and elapsed < 30,
            f"TG rel error {errs_exact[32]:.2e} (<1e-6); convergence ratio "
            f"err(16)/err(32) = {ratio:.0f} (>100; closed-form TG ratio is "
            f"roundoff-degenerate at {degenerate_ratio:.2f}); runtime {elapsed:.1f}s (<30s)",
        )


class TestCriterion2StructuralInvariants:
    def test_property_suite(self):
        t0 = time.monotonic()
        g2 = PeriodicGrid(L=TWO_PI, dim=2, N=12)
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=8)
        worst = {"idem": 0.0, "real": 0.0, "divr": 0.0, "split": 0.0}
        for seed in range(100):
            rng = np.random.default_rng(seed)
            grid = g3 if seed % 3 == 0 else g2
            u = random_field(grid, grid.dim, rng, mean_free=False)
            p1 = u.leray_project()
            p2 = p1.leray_project()
            worst["idem"] = max(worst["idem"], float(np.max(np.abs(p2.coeffs - p1.coeffs))))
            # realness: the coefficients survive the round trip through the samples
            for c in (u.coeffs, p1.coeffs):
                trip = to_coeffs(grid, to_samples(grid, c))
                worst["real"] = max(worst["real"], float(np.max(np.abs(trip - c))))
            worst["divr"] = max(worst["divr"], div_norm(p1) / max(p1.sobolev_norm(1), 1e-300))
            split = u.subtract_mean().coeffs.copy()
            split[(slice(None),) + (0,) * grid.dim] += u.mean()
            worst["split"] = max(worst["split"], float(np.max(np.abs(split - u.coeffs))))
        ok_props = (
            worst["idem"] < 1e-14 and worst["real"] < 1e-14
            and worst["divr"] < 1e-11 and worst["split"] < 1e-14
        )

        # solenoidality and mean decoupling along a forced trajectory
        g = PeriodicGrid(L=TWO_PI, dim=2, N=32)
        forcing = DecayingModeForcing(single_mode_profile(g, (1, 1), normalize="l2"), rate=0.5,
                                      amplitude=0.1, constant=[0.5, 0.0])
        rng = np.random.default_rng(1234)
        u0 = random_field(g, 2, rng, band=(1, 6), solenoidal=True) * 0.1
        traj = evolve_base_2d(FlowState(0.0, u0, np.zeros(2)), forcing,
                              SolverConfig(nu=1.0, dt=1e-3, t_end=0.2),
                              sample_times=[0.1, 0.2])
        ok_traj = True
        for st in traj.states:
            ok_traj &= div_norm(st.field) < 1e-11 * max(st.field.sobolev_norm(1), 1e-300)
            ok_traj &= float(np.max(np.abs(st.field.mean()))) < 1e-14

        # energy balance on forced single-mode runs
        res_max = 0.0
        for amp, rate in ((0.1, 0.5), (0.05, 1.0)):
            f = DecayingModeForcing(single_mode_profile(g, (1, 1), normalize="l2"),
                                    rate=rate, amplitude=amp)
            u0 = single_mode_profile(g, (1, -1), normalize="l2") * 0.05
            traj = evolve_base_2d(FlowState(0.0, u0, np.zeros(2)), f,
                                  SolverConfig(nu=1.0, dt=1e-3, t_end=0.2))
            res_max = max(res_max, energy_balance_residual(traj)["max_abs"])
        elapsed = time.monotonic() - t0
        report(
            2,
            ok_props and ok_traj and res_max < 1e-6 and elapsed < 120,
            f"100-seed property suite (idem {worst['idem']:.1e}, real {worst['real']:.1e}, "
            f"div {worst['divr']:.1e}, split {worst['split']:.1e}); forced energy residual "
            f"{res_max:.2e} (<1e-6); runtime {elapsed:.1f}s (<120s)",
        )


class TestCriterion3PoincareSharpness:
    def test_sharp_and_never_violated(self):
        nu = 1.3
        pc = poincare_constants(nu, TWO_PI)
        g2 = PeriodicGrid(L=TWO_PI, dim=2, N=12)
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=8)
        min_ratio = np.inf
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            grid = g3 if seed % 4 == 0 else g2
            u = random_field(grid, grid.dim, rng, mean_free=True)
            min_ratio = min(min_ratio, nu * u.grad_norm_sq() / u.sobolev_norm_sq(1))
        x1 = g2.coords()[0]
        low = SpectralField.from_physical(g2, np.sin(x1) * np.ones(g2.shape))
        at_low = nu * low.grad_norm_sq() / low.sobolev_norm_sq(1)
        sharp = abs(at_low / pc.c_s1 - 1.0) < 1e-10
        report(
            3,
            sharp and min_ratio >= pc.c_s1 * (1 - 1e-12),
            f"c_s1 = nu*kappa/(1+kappa) attained to {abs(at_low/pc.c_s1-1):.1e} on the lowest "
            f"mode; min ratio over 1000 random mean-free fields = {min_ratio/pc.c_s1:.6f} c_s1",
        )


class TestCriterion4MeanEvolution:
    def test_constant_and_oscillatory_means(self):
        g = PeriodicGrid(L=TWO_PI, dim=2, N=8)
        cfg = SolverConfig(nu=1.0, dt=1e-2, t_end=10.0)
        a = np.array([0.3, -0.2])
        traj = evolve_base_2d(
            FlowState(0.0, SpectralField.zeros(g, 2), np.zeros(2)),
            ConstantMeanForcing(g, a), cfg,
        )
        t = traj.series["t"]
        means = np.array(traj.series["mean"])
        err_c = float(np.max(np.abs(means - np.outer(t, a))))

        amp = np.array([1.0, 0.5])
        traj2 = evolve_base_2d(
            FlowState(0.0, SpectralField.zeros(g, 2), np.zeros(2)),
            OscillatingMeanForcing(g, amp, omega=1.0), cfg,
        )
        means2 = np.array(traj2.series["mean"])
        want = np.outer(1.0 - np.cos(t), amp)
        err_o = float(np.max(np.abs(means2 - want)))
        report(
            4,
            err_c < 1e-8 and err_o < 1e-8,
            f"mean path error over t in [0,10]: constant {err_c:.2e}, "
            f"oscillatory {err_o:.2e} (<1e-8)",
        )


def geometric_envelope(increment, ratio, x0, k):
    """Envelope of x_{j+1} <= increment + ratio * x_j:
    x_k <= increment/(1-ratio) + ratio^k * x0, for ratio in [0, 1)."""
    return increment / (1.0 - ratio) + ratio**k * x0


def example_one_threshold(h, vbar0_h1_sq, pc, ic):
    """Window length above which the constant-plus-decaying family is
    admissible: plug the all-time fluctuation integral into the
    admissibility polynomial (an upper bound for every window length)."""
    i_inf = h.infinite_bar_sq_integral("h1")
    a0 = pc.c_1 * (i_inf + vbar0_h1_sq) * vbar0_h1_sq + (i_inf + 1.0) * math.exp(
        ic.c_2 * (i_inf + vbar0_h1_sq)
    )
    return max(t_star(pc), a0)


class TestCriterion5CertificateArithmetic:
    def test_chains_and_membership(self):
        pc = poincare_constants(1.0, TWO_PI)
        ic = interpolation_constants(1.0, TWO_PI, "empirical_calibrated", n_fields=200, seed=0)
        g2 = PeriodicGrid(L=TWO_PI, dim=2, N=16)
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=8)

        # zero-data collapse
        zero2 = ZeroForcing(g2, 2)
        ab0 = abar_chain(zero2, 0.0, 5.0, pc, ic)
        ach0 = a_chain(zero2, {"l2_sq": 0, "grad_sq": 0, "grad2_sq": 0}, 5.0, pc, ic)
        bch0 = b_chain(ZeroForcing(g3, 3), {"l2_sq": 0.0}, ach0, pc, ic, 5.0)
        collapse = (
            ab0.abar3_sq == 1.0
            and all(getattr(ach0, f"a{i}_sq") == 0.0 for i in (1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14))
            and ach0.a9 == 0.0
            and all(getattr(bch0, f"b{i}_sq") == 0.0 for i in (1, 2, 3, 4, 5))
        )

        # chain identities, exact
        f = DecayingModeForcing(single_mode_profile(g2, (1, 1), normalize="l2"),
                                rate=1.0, amplitude=0.3)
        ch = a_chain(f, {"l2_sq": 0.1, "grad_sq": 0.2, "grad2_sq": 0.3}, 5.0, pc, ic)
        identities = (
            ch.a3_sq == ch.a1_sq + ch.a2_sq
            and ch.a6_sq == ch.a4_sq + ch.a5_sq
            and ch.a8_sq == ch.a3_sq + ch.a7_sq
        )

        # geometric iteration primitive against direct recursion
        worst = 0.0
        for a in (0.0, 0.3, 2.0):
            for r in (0.0, 0.37, 0.9, 0.99):
                for x0 in (0.0, 1.0, 7.5):
                    x = x0
                    for k in range(51):
                        env = geometric_envelope(a, r, x0, k)
                        direct = a * (1 - r**k) / (1 - r) + r**k * x0 if r > 0 else (a if k else x0) + (0 if k else 0)
                        if k == 0:
                            direct = x0
                        worst = max(worst, max(0.0, x - env), abs(env - (a / (1 - r) + r**k * x0)))
                        x = a + r * x
        primitive_ok = worst < 1e-12

        # admissibility of the two forcing families above the threshold
        h = DecayingModeForcing(single_mode_profile(g2, (1, 1), normalize="h1"),
                                rate=1.0, amplitude=0.5)
        vbar0_h1_sq = 0.02
        thr = example_one_threshold(h, vbar0_h1_sq, pc, ic)
        ex1 = DecayingModeForcing(h.profile, rate=1.0, amplitude=0.5, constant=[1.0, 0.0])
        member1 = all(
            abar_chain(ex1, vbar0_h1_sq, float(T), pc, ic).member
            for T in np.linspace(thr + 1e-9, thr + 8.0, 6)
        )
        member2 = all(
            abar_chain(PeriodicExtensionForcing(h, float(T)), vbar0_h1_sq, float(T), pc, ic).member
            for T in np.linspace(thr + 1e-9, thr + 8.0, 6)
        )
        below = not abar_chain(ex1, vbar0_h1_sq, 0.5 * t_star(pc), pc, ic).member
        report(
            5,
            collapse and identities and primitive_ok and member1 and member2 and below,
            f"zero-data collapse (abar3_sq = 1), chain identities exact, geometric primitive "
            f"max dev {worst:.1e} (<1e-12), membership holds for both forcing families for "
            f"all T > max(t_star, A0) = {thr:.3f}",
        )


class TestCriterion6StabilityReproduction:
    def test_barrier_verdict(self, stability_run):
        scn, res, elapsed = stability_run
        ok = (
            not res.aborted
            and res.barrier["never_exceeded"]
            and res.barrier["violations_reduced"] == 0
            and res.certificate["barrier_hypotheses_ok"]
            and elapsed < 600.0
        )
        # the three-window portion of the published scenario
        t = res.pert.series["t"]
        mask = t <= 3 * scn.T + 1e-9
        mon3 = barrier_monitor(t[mask], res.pert.series["h1_sq"][mask], res.g2[mask],
                               poincare_constants(scn.nu, scn.L),
                               interpolation_constants(scn.nu, scn.L, scn.constants_mode,
                                                       seed=scn.calibration_seed,
                                                       n_fields=scn.calibration_fields),
                               scn.perturbation.gamma)
        ok = ok and mon3["never_exceeded"] and mon3["violations_reduced"] == 0
        report(
            6,
            ok,
            f"never_exceeded={res.barrier['never_exceeded']}, reduced-inequality violations "
            f"beyond slack = {res.barrier['violations_reduced']} "
            f"(slack {res.barrier['tol_slack']:.2e}), "
            f"all barrier hypothesis flags pass, runtime {elapsed:.0f}s (<600s, 5 windows)",
        )


class TestCriterion7OneSidedBounds:
    def test_window_bounds(self, stability_run):
        scn, res, _ = stability_run
        c31 = res.checks["window_start_energy"]
        c41 = res.checks["pert_energy"]
        c415 = res.checks["barrier_sup"]
        ok = c31["ok"] and c41["ok"] and c415["ok"] and len(c31["values"]) >= 5
        report(
            7,
            ok,
            f"window-start energy <= a2_sq for k=0..{len(c31['values'])-1} "
            f"(max {max(c31['values']):.2e} vs {c31['bound']:.2e}); perturbation energy "
            f"<= b5_sq (max {max(c41['values']):.2e} vs {c41['bound']:.2e}); "
            f"sup X^2 = {max(c415['values']):.3e} < gamma = {c415['bound']:.1e}",
        )


class TestCriterion8GammaScaling:
    def test_h21_linear_in_gamma(self, stability_run, stability_run_gamma4):
        scn, res, _ = stability_run
        scn4, res4 = stability_run_gamma4
        # window 0's int ||u_t||^2 + int ||u||_H2^2
        h21_small = res.windows[0].int_ut_sq + res.windows[0].int_u_h2_sq
        h21_big = res4.windows[0].int_ut_sq + res4.windows[0].int_u_h2_sq
        ratio = h21_big / h21_small
        report(
            8,
            2.8 <= ratio <= 5.2,
            f"windowed H2,1 norm ratio at gamma 4e-4 vs 1e-4 = {ratio:.3f} (in [2.8, 5.2])",
        )


class TestCriterion9KUniformity:
    def test_window_sup_ratios(self, stability_run):
        scn, res, _ = stability_run
        u = res.checks["uniformity"]
        ratios = {k: v for k, v in u.items() if k.startswith("max_ratio_")}
        ok = u["complete_windows"] >= 5 and all(v <= 1.05 for v in ratios.values())
        report(
            9,
            ok,
            f"{u['complete_windows']} windows; consecutive-window sup ratios "
            + ", ".join(f"{k.removeprefix('max_ratio_')}={v:.4f}" for k, v in ratios.items())
            + " (all <= 1.05)",
        )
