"""Flow integration: closed-form benchmarks, structure preservation, coupling."""

import resource
from collections import Counter

import numpy as np
import pytest

import nsbox.solver
import nsbox.spectral
from nsbox.experiments import single_mode_profile
from nsbox.forcing import (
    ConstantMeanForcing,
    DecayingModeForcing,
    OscillatingMeanForcing,
    ZeroForcing,
)
from nsbox.solver import (
    CFLViolation,
    FlowState,
    SolverAbort,
    SolverConfig,
    evolve_base_2d,
    evolve_full_3d,
    evolve_pair,
    mean_ode_step,
    taylor_green_state,
)
from nsbox.spectral import (
    PeriodicGrid,
    SpectralField,
    grad_l3_norm,
    inner_product,
    lift_2d_to_3d,
    random_field,
    restrict,
    weighted_norm_sq,
)
from oracles import LiftedForcing, energy_balance_residual, nonlinear_term, validate_state

TWO_PI = 2.0 * np.pi


def zero_state(grid, components):
    return FlowState(0.0, SpectralField.zeros(grid, components), np.zeros(components))


def solenoidal_mode_2d(grid, amplitude=1.0):
    """cos(x1 + x2) * (1, -1)/sqrt(2): single-mode solenoidal, mean-free."""
    x1, x2 = grid.coords()
    a = TWO_PI / grid.L
    c = amplitude / np.sqrt(2.0)
    samples = np.stack(
        [c * np.cos(a * (x1 + x2)) * np.ones(grid.shape), -c * np.cos(a * (x1 + x2)) * np.ones(grid.shape)]
    )
    return SpectralField.from_physical(grid, samples)


class TestNonlinearTerm:
    def test_zero_velocity(self):
        g = PeriodicGrid(L=TWO_PI, dim=2, N=16)
        state = zero_state(g, 2)
        w = SpectralField.zeros(g, 2)
        out = nonlinear_term(state, w)
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_single_mode_hand_convolution(self):
        # w = (sin x2, 0), u = (0, cos x1): -(w.grad)u = (0, sin x1 sin x2),
        # i.e. two product modes (cos(x1-x2) - cos(x1+x2))/2
        g = PeriodicGrid(L=TWO_PI, dim=2, N=16)
        x1, x2 = g.coords()
        w = SpectralField.from_physical(
            g, np.stack([np.sin(x2) * np.ones(g.shape), np.zeros(g.shape)]))
        u = SpectralField.from_physical(
            g, np.stack([np.zeros(g.shape), np.cos(x1) * np.ones(g.shape)]))
        state = FlowState(0.0, u, np.zeros(2))
        out = nonlinear_term(state, w)
        hand = SpectralField.from_physical(
            g, np.stack([np.zeros(g.shape), np.sin(x1) * np.sin(x2) * np.ones(g.shape)])
        ).leray_project()
        assert np.max(np.abs(out.coeffs - hand.coeffs)) < 1e-13

    def test_energy_neutrality(self):
        # <(w.grad)u, u> = 0 for solenoidal w (periodic integration by parts)
        rng = np.random.default_rng(30)
        g = PeriodicGrid(L=TWO_PI, dim=3, N=12)
        w = random_field(g, 3, rng, band=(1, 4), solenoidal=True).dealias()
        u = random_field(g, 3, rng, band=(1, 4), solenoidal=True).dealias()
        conv = np.zeros((3,) + g.shape)
        w_phys = w.physical()
        for a in range(3):
            e = tuple(1 if j == a else 0 for j in range(3))
            gu = u.derivative(e).physical()
            for c in range(3):
                conv[c] += w_phys[a] * gu[c]
        ip = g.cell_volume * np.sum(conv * u.physical())
        scale = u.sobolev_norm_sq(1)
        assert abs(ip) < 1e-11 * max(scale, 1.0)

    @pytest.mark.parametrize("dim,N", [(2, 8), (2, 12), (2, 24), (2, 32), (3, 8), (3, 12),
                                       (3, 16), (3, 24)])
    def test_energy_neutral_on_the_grid(self, dim, N):
        # <P D (u . grad) u, u> = 0 exactly on dealiased solenoidal u: the
        # 2/3 rule leaves no aliased product mode in the band, also when 3 divides N
        rng = np.random.default_rng(31)
        g = PeriodicGrid(L=TWO_PI, dim=dim, N=N)
        u = random_field(g, dim, rng, solenoidal=True).dealias()
        nl = nonlinear_term(FlowState(0.0, u, np.zeros(dim)), u)
        cosine = inner_product(g, nl.coeffs, u.coeffs) / (nl.sobolev_norm(0) * u.sobolev_norm(0))
        assert abs(cosine) < 1e-13

    def test_grid_mismatch_rejected(self):
        g1 = PeriodicGrid(L=TWO_PI, dim=2, N=16)
        g2 = PeriodicGrid(L=TWO_PI, dim=2, N=8)
        state = zero_state(g1, 2)
        with pytest.raises(ValueError):
            nonlinear_term(state, SpectralField.zeros(g2, 2))


class TestStepBasics:
    def test_zero_stays_zero(self):
        g = PeriodicGrid(L=TWO_PI, dim=2, N=8)
        cfg = SolverConfig(nu=1.0, dt=1e-2, t_end=0.1)
        traj = evolve_base_2d(zero_state(g, 2), ZeroForcing(g, 2), cfg)
        assert np.max(np.abs(traj.states[-1].field.coeffs)) == 0.0
        assert np.max(np.abs(traj.states[-1].mean)) == 0.0

    def test_taylor_green_closed_form(self):
        g = PeriodicGrid(L=TWO_PI, dim=2, N=16)
        cfg = SolverConfig(nu=1.0, dt=2e-3, t_end=0.3)
        traj = evolve_base_2d(taylor_green_state(g), ZeroForcing(g, 2), cfg)
        final = traj.states[-1].field
        exact = taylor_green_state(g).field * np.exp(-2.0 * 0.3)
        err = (final - exact).sobolev_norm(0) / exact.sobolev_norm(0)
        assert err < 1e-6

    def test_single_mode_linear_decay(self):
        g = PeriodicGrid(L=TWO_PI, dim=2, N=16)
        u0 = solenoidal_mode_2d(g, amplitude=1e-6)  # |k|^2 = 2
        cfg = SolverConfig(nu=0.7, dt=1e-3, t_end=0.5)
        traj = evolve_base_2d(FlowState(0.0, u0, np.zeros(2)), ZeroForcing(g, 2), cfg)
        got = traj.states[-1].field.sobolev_norm(0)
        want = u0.sobolev_norm(0) * np.exp(-0.7 * 2.0 * 0.5)
        assert abs(got / want - 1.0) < 1e-8

    def test_schemes_agree(self):
        rng = np.random.default_rng(31)
        g = PeriodicGrid(L=TWO_PI, dim=2, N=16)
        u0 = random_field(g, 2, rng, band=(1, 4), solenoidal=True) * 0.1
        s0 = FlowState(0.0, u0, np.zeros(2))
        out = {}
        for scheme in ("imex-cnab2", "rk3-imex"):
            cfg = SolverConfig(nu=0.5, dt=1e-3, t_end=0.1, scheme=scheme)
            out[scheme] = evolve_base_2d(s0, ZeroForcing(g, 2), cfg).states[-1].field
        diff = (out["imex-cnab2"] - out["rk3-imex"]).sobolev_norm(0)
        assert diff < 1e-7 * max(out["rk3-imex"].sobolev_norm(0), 1e-30)

    def test_invariants_along_trajectory(self):
        rng = np.random.default_rng(32)
        g = PeriodicGrid(L=TWO_PI, dim=2, N=16)
        u0 = random_field(g, 2, rng, band=(1, 5), solenoidal=True)
        prof = solenoidal_mode_2d(g, 0.3)
        forcing = DecayingModeForcing(prof, rate=1.0)
        cfg = SolverConfig(nu=0.5, dt=2e-3, t_end=0.2)
        traj = evolve_base_2d(FlowState(0.0, u0, np.zeros(2)), forcing, cfg,
                              sample_times=[0.1, 0.2])
        for st in traj.states:
            validate_state(st)

    def test_energy_monotone_unforced(self):
        rng = np.random.default_rng(33)
        g = PeriodicGrid(L=TWO_PI, dim=2, N=32)
        u0 = random_field(g, 2, rng, band=(1, 8), solenoidal=True)
        cfg = SolverConfig(nu=1.0, dt=1e-3, t_end=0.1)
        traj = evolve_base_2d(FlowState(0.0, u0, np.zeros(2)), ZeroForcing(g, 2), cfg)
        e = traj.series["l2_sq"]
        assert np.all(np.diff(e) <= 1e-12)

    def test_cfl_rejection_with_advisory(self):
        g = PeriodicGrid(L=TWO_PI, dim=2, N=16)
        cfg = SolverConfig(nu=1.0, dt=0.1, t_end=0.2, cfl_max=0.01)
        with pytest.raises(CFLViolation) as exc:
            evolve_base_2d(taylor_green_state(g), ZeroForcing(g, 2), cfg)
        assert exc.value.advisory_dt < 0.1
        assert isinstance(exc.value, SolverAbort)

    def test_nan_abort(self):
        rng = np.random.default_rng(99)
        g = PeriodicGrid(L=TWO_PI, dim=2, N=16)
        u0 = random_field(g, 2, rng, band=(1, 5), solenoidal=True) * 50.0
        cfg = SolverConfig(nu=1e-8, dt=0.9, t_end=90.0, cfl_max=float("inf"))
        with np.errstate(all="ignore"), pytest.raises(SolverAbort):
            evolve_base_2d(FlowState(0.0, u0, np.zeros(2)), ZeroForcing(g, 2), cfg)

    def test_determinism(self):
        rng = np.random.default_rng(34)
        g = PeriodicGrid(L=TWO_PI, dim=2, N=16)
        u0 = random_field(g, 2, rng, band=(1, 4), solenoidal=True)
        s0 = FlowState(0.0, u0, np.zeros(2))
        cfg = SolverConfig(nu=0.5, dt=2e-3, t_end=0.1)
        a = evolve_base_2d(s0, ZeroForcing(g, 2), cfg).states[-1].field.coeffs
        b = evolve_base_2d(s0, ZeroForcing(g, 2), cfg).states[-1].field.coeffs
        assert np.array_equal(a, b)


class TestMeanTracking:
    def test_zero_mean_forcing_constant_mean(self):
        g = PeriodicGrid(L=TWO_PI, dim=2, N=8)
        s0 = FlowState(0.0, SpectralField.zeros(g, 2), np.array([0.3, -0.2]))
        cfg = SolverConfig(nu=1.0, dt=1e-2, t_end=0.5)
        traj = evolve_base_2d(s0, ZeroForcing(g, 2), cfg)
        assert np.max(np.abs(traj.states[-1].mean - [0.3, -0.2])) < 1e-15

    def test_constant_mean_forcing_linear_growth(self):
        g = PeriodicGrid(L=TWO_PI, dim=2, N=8)
        f = ConstantMeanForcing(g, [1.0, 0.5])
        s0 = zero_state(g, 2)
        cfg = SolverConfig(nu=1.0, dt=1e-2, t_end=1.0)
        traj = evolve_base_2d(s0, f, cfg)
        assert np.max(np.abs(traj.states[-1].mean - [1.0, 0.5])) < 1e-13

    def test_oscillatory_mean_closed_form(self):
        g = PeriodicGrid(L=TWO_PI, dim=2, N=8)
        f = OscillatingMeanForcing(g, [1.0, 0.0], omega=1.0)
        cfg = SolverConfig(nu=1.0, dt=1e-3, t_end=1.0)
        traj = evolve_base_2d(zero_state(g, 2), f, cfg)
        want = 1.0 - np.cos(1.0)
        assert abs(traj.states[-1].mean[0] - want) < 1e-10

    def test_mean_ode_step_op(self):
        g = PeriodicGrid(L=TWO_PI, dim=2, N=8)
        f = ConstantMeanForcing(g, [2.0, 0.0])
        m = mean_ode_step(np.array([1.0, 1.0]), f, 0.0, 0.25)
        assert m == pytest.approx([1.5, 1.0])

    def test_speed_excludes_mean(self):
        # the recorded speed, the one the CFL check reads, is max |u| of the
        # mean-free velocity: the integrating factor advances mean advection
        g = PeriodicGrid(L=TWO_PI, dim=2, N=16)
        m = np.array([0.3, -0.2])
        s0 = FlowState(0.0, taylor_green_state(g).field, m)
        traj = evolve_base_2d(s0, ZeroForcing(g, 2), SolverConfig(nu=1.0, dt=1e-2, t_end=0.02))
        u = s0.field.physical()
        assert traj.series["speed"][0] == pytest.approx(np.sqrt(np.max(u[0] ** 2 + u[1] ** 2)),
                                                        rel=1e-14)

    def test_mean_decoupling(self):
        # mode 0 of the mean-free part stays < 1e-14 under mean forcing
        rng = np.random.default_rng(35)
        g = PeriodicGrid(L=TWO_PI, dim=2, N=16)
        u0 = random_field(g, 2, rng, band=(1, 4), solenoidal=True) * 0.1
        f = ConstantMeanForcing(g, [1.0, 0.0])
        cfg = SolverConfig(nu=0.5, dt=2e-3, t_end=0.4)
        traj = evolve_base_2d(FlowState(0.0, u0, np.zeros(2)), f, cfg)
        assert np.max(np.abs(traj.states[-1].field.mean())) < 1e-14


class TestEnergyBalance:
    def test_zero_flow(self):
        g = PeriodicGrid(L=TWO_PI, dim=2, N=8)
        cfg = SolverConfig(nu=1.0, dt=1e-2, t_end=0.1)
        traj = evolve_base_2d(zero_state(g, 2), ZeroForcing(g, 2), cfg)
        assert energy_balance_residual(traj)["max_abs"] == 0.0

    def test_taylor_green_residual(self):
        g = PeriodicGrid(L=TWO_PI, dim=2, N=32)
        cfg = SolverConfig(nu=1.0, dt=1e-3, t_end=0.2)
        traj = evolve_base_2d(taylor_green_state(g, amplitude=0.05), ZeroForcing(g, 2), cfg)
        assert energy_balance_residual(traj)["max_abs"] < 1e-6

    def test_forced_single_mode_residual(self):
        g = PeriodicGrid(L=TWO_PI, dim=2, N=32)
        forcing = DecayingModeForcing(solenoidal_mode_2d(g, 0.1), rate=0.5)
        u0 = solenoidal_mode_2d(g, 0.05)
        cfg = SolverConfig(nu=1.0, dt=1e-3, t_end=0.2)
        traj = evolve_base_2d(FlowState(0.0, u0, np.zeros(2)), forcing, cfg)
        assert energy_balance_residual(traj)["max_abs"] < 1e-6

    def test_too_few_samples_rejected(self):
        g = PeriodicGrid(L=TWO_PI, dim=2, N=8)
        cfg = SolverConfig(nu=1.0, dt=0.1, t_end=0.1)
        traj = evolve_base_2d(zero_state(g, 2), ZeroForcing(g, 2), cfg)
        with pytest.raises(ValueError):
            energy_balance_residual(traj)


class TestLiftedExactness:
    def test_2d_trajectory_reproduced_by_3d_stepper(self):
        rng = np.random.default_rng(36)
        g2 = PeriodicGrid(L=TWO_PI, dim=2, N=16)
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=16)
        u0 = random_field(g2, 2, rng, band=(1, 4), solenoidal=True) * 0.2
        prof = solenoidal_mode_2d(g2, 0.1)
        f2 = DecayingModeForcing(prof, rate=1.0)
        cfg = SolverConfig(nu=0.5, dt=2e-3, t_end=0.1)
        t2 = evolve_base_2d(FlowState(0.0, u0, np.zeros(2)), f2, cfg)
        t3 = evolve_full_3d(
            FlowState(0.0, lift_2d_to_3d(u0, g3), np.zeros(3)),
            LiftedForcing(f2, g3),
            cfg,
        )
        lifted_final = lift_2d_to_3d(t2.states[-1].field, g3)
        diff = np.max(np.abs(t3.states[-1].field.coeffs - lifted_final.coeffs))
        assert diff < 1e-12


def pair_vs_full_gap(base_forcing, cfg):
    """Relative L2 gap at t_end between the pair's perturbation and the full
    3D flow minus the lifted base flow, from the same initial data."""
    rng = np.random.default_rng(37)
    g2 = base_forcing.grid
    g3 = PeriodicGrid(L=g2.L, dim=3, N=g2.N)
    base0 = taylor_green_state(g2, amplitude=0.2)
    u0f = random_field(g3, 3, rng, band=(1, 4), solenoidal=True) * 1e-3
    pert = evolve_pair(base0, base_forcing, FlowState(0.0, u0f, np.zeros(3)),
                       ZeroForcing(g3, 3), cfg)
    v0 = FlowState(0.0, lift_2d_to_3d(base0.field, g3) + u0f, np.zeros(3))
    full = evolve_full_3d(v0, LiftedForcing(base_forcing, g3), cfg)
    u_from_full = full.states[-1].field - lift_2d_to_3d(pert.base.states[-1].field, g3)
    u_pair = pert.states[-1].field
    return (u_from_full - u_pair).sobolev_norm(0) / u_pair.sobolev_norm(0)


class TestPair:
    def test_zero_perturbation_stays_zero(self):
        g2 = PeriodicGrid(L=TWO_PI, dim=2, N=16)
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=16)
        cfg = SolverConfig(nu=0.5, dt=2e-3, t_end=0.1)
        base0 = taylor_green_state(g2, amplitude=0.3)
        u0 = FlowState(0.0, SpectralField.zeros(g3, 3), np.zeros(3))
        traj = evolve_pair(base0, ZeroForcing(g2, 2), u0, ZeroForcing(g3, 3), cfg)
        assert np.max(np.abs(traj.states[-1].field.coeffs)) == 0.0

    @pytest.mark.parametrize("scheme", ["imex-cnab2", "rk3-imex"])
    def test_consistency_with_full_flow(self, scheme):
        # evolving the full 3D flow and subtracting the lifted base flow
        # reproduces the perturbation trajectory: the lockstep coupling adds
        # no error of its own at any stage of either scheme
        g2 = PeriodicGrid(L=TWO_PI, dim=2, N=16)
        fs = DecayingModeForcing(solenoidal_mode_2d(g2, 0.1), rate=1.0)
        cfg = SolverConfig(nu=0.1, dt=1e-3, t_end=0.5, scheme=scheme)
        assert pair_vs_full_gap(fs, cfg) < 1e-10

    @pytest.mark.xfail(strict=True, reason=(
        "the perturbation's integrating factor reads the base mean at t + dt instead of "
        "at t: a first-order drift under a constant mean force"))
    def test_consistency_under_constant_mean_force(self):
        g2 = PeriodicGrid(L=TWO_PI, dim=2, N=16)
        fs = DecayingModeForcing(solenoidal_mode_2d(g2, 0.1), rate=1.0, constant=[1.0, 0.0])
        assert pair_vs_full_gap(fs, SolverConfig(nu=0.1, dt=2e-3, t_end=0.2)) < 1e-10

    def test_tiny_perturbation_decays(self):
        rng = np.random.default_rng(38)
        g2 = PeriodicGrid(L=TWO_PI, dim=2, N=16)
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=16)
        base0 = taylor_green_state(g2, amplitude=0.05)
        u0f = random_field(g3, 3, rng, band=(1, 4), solenoidal=True) * 1e-4
        u0 = FlowState(0.0, u0f, np.zeros(3))
        cfg = SolverConfig(nu=1.0, dt=2e-3, t_end=0.3)
        pert = evolve_pair(base0, ZeroForcing(g2, 2), u0, ZeroForcing(g3, 3), cfg)
        x2 = pert.series["h1_sq"]
        assert x2[-1] < x2[0]
        assert np.all(np.diff(x2) <= 1e-14)

    def test_grid_mismatch_rejected(self):
        g2 = PeriodicGrid(L=TWO_PI, dim=2, N=16)
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=8)
        base0 = taylor_green_state(g2)
        u0 = FlowState(0.0, SpectralField.zeros(g3, 3), np.zeros(3))
        cfg = SolverConfig(nu=1.0, dt=1e-2, t_end=0.1)
        with pytest.raises(ValueError):
            evolve_pair(base0, ZeroForcing(g2, 2), u0, ZeroForcing(g3, 3), cfg)


class TestRecorder:
    """The recorded norm series are the kernel's stacked Parseval sums of the
    stored states' band coefficients bit for bit, and their `SpectralField`
    norms to roundoff; `fbar_l2_sq` is the forcing's `bar_norm_sq` bit for
    bit, and the norm of the field a(t) * profile to roundoff."""

    @staticmethod
    def assert_series_match(traj, forcing):
        s = traj.series
        for st in traj.states:
            n = round(st.t / traj.cfg.dt)
            u = st.field
            b = u.grid.band
            fbar = forcing.profile * forcing.bar_amplitude(st.t)
            c, f = restrict(b, u.coeffs), restrict(b, fbar.coeffs)
            weights = np.stack([b.sobolev_multiplier(o) for o in range(4)] + [b.ksq])
            keys = ("l2_sq", "h1_sq", "h2_sq", "h3_sq", "grad_sq")
            assert [s[k][n] for k in keys] == weighted_norm_sq(b, c, weights).tolist()
            assert s["forcing_inner"][n] == inner_product(b, f, c)
            assert s["fbar_l2_sq"][n] == forcing.bar_norm_sq(st.t)
            assert s["fbar_l2_sq"][n] == pytest.approx(fbar.sobolev_norm_sq(0), rel=1e-15)
            full = [u.sobolev_norm_sq(order) for order in range(4)] + [u.grad_norm_sq()]
            assert np.allclose([s[k][n] for k in keys], full, rtol=1e-14, atol=0)
            scale = fbar.sobolev_norm(0) * u.sobolev_norm(0)
            assert abs(s["forcing_inner"][n] - inner_product(u.grid, fbar.coeffs, u.coeffs)) <= 1e-14 * scale

    def test_base_2d(self):
        rng = np.random.default_rng(40)
        g = PeriodicGrid(L=TWO_PI, dim=2, N=16)
        u0 = random_field(g, 2, rng, band=(1, 5), solenoidal=True)
        forcing = DecayingModeForcing(solenoidal_mode_2d(g, 0.3), rate=1.0)
        cfg = SolverConfig(nu=0.5, dt=2e-3, t_end=0.1)
        traj = evolve_base_2d(FlowState(0.0, u0, np.zeros(2)), forcing, cfg,
                              sample_times=[0.02, 0.05, 0.08])
        assert len(traj.states) == 5
        self.assert_series_match(traj, forcing)

    def test_pair(self):
        rng = np.random.default_rng(41)
        g2 = PeriodicGrid(L=TWO_PI, dim=2, N=12)
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=12)
        base0 = FlowState(0.0, random_field(g2, 2, rng, band=(1, 4), solenoidal=True), np.zeros(2))
        u0f = random_field(g3, 3, rng, band=(1, 3), solenoidal=True) * 1e-2
        fs = DecayingModeForcing(solenoidal_mode_2d(g2, 0.2), rate=1.0)
        g = DecayingModeForcing(random_field(g3, 3, rng, band=(1, 2), solenoidal=True) * 1e-3,
                                rate=0.5)
        cfg = SolverConfig(nu=0.5, dt=5e-3, t_end=0.1)
        pert = evolve_pair(base0, fs, FlowState(0.0, u0f, np.zeros(3)), g, cfg,
                           sample_times=[0.03, 0.06])
        self.assert_series_match(pert, g)
        self.assert_series_match(pert.base, fs)

    @pytest.mark.parametrize("scheme", ["imex-cnab2", "rk3-imex"])
    def test_gradv_l3_is_the_stored_states(self, scheme):
        # the recorder's own transform of the base flow's gradients gives the
        # L3 norm of the stored state's gradient samples bit for bit, alone and
        # in a pair
        rng = np.random.default_rng(47)
        g2 = PeriodicGrid(L=TWO_PI, dim=2, N=12)
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=12)
        base0 = random_state(g2, rng, [0.1, -0.2])
        fs = DecayingModeForcing(solenoidal_mode_2d(g2, 0.3), rate=1.0)
        cfg = SolverConfig(nu=0.5, dt=1e-2, t_end=0.1, scheme=scheme)
        alone = evolve_base_2d(base0, fs, cfg, sample_times=[0.05])
        pair = evolve_pair(base0, fs, random_state(g3, rng, [0.0, 0.1, 0.2], 0.1),
                           ZeroForcing(g3, 3), cfg, sample_times=[0.05])
        for traj in (alone, pair.base):
            assert len(traj.states) == 3
            for st in traj.states:
                grads = np.stack([st.field.derivative(e).physical() for e in ((1, 0), (0, 1))])
                assert traj.series["gradv_l3"][round(st.t / cfg.dt)] == grad_l3_norm(g2, grads)

    def test_fbar_norm_counts_modes_outside_the_band(self):
        # a forcing mode outside the band never reaches the state, but it is
        # part of ||fbar||^2: the series records the full forcing's norm
        g = PeriodicGrid(L=TWO_PI, dim=2, N=32)
        mode = single_mode_profile(g, (12, 0), amplitude=0.5)
        # without the transform's roundoff inside the band
        profile = SpectralField(g, mode.coeffs * ~g.dealias_mask)
        assert profile.sobolev_norm_sq(0) == pytest.approx(mode.sobolev_norm_sq(0), rel=1e-14)
        forcing = DecayingModeForcing(profile, rate=1.0)
        cfg = SolverConfig(nu=0.5, dt=1e-2, t_end=0.05)
        traj = evolve_base_2d(zero_state(g, 2), forcing, cfg)
        want = [profile.sobolev_norm_sq(0) * np.exp(-2.0 * t) for t in traj.series["t"]]
        assert traj.series["fbar_l2_sq"] == pytest.approx(want, rel=1e-14)
        assert np.all(traj.series["forcing_inner"] == 0.0)
        assert np.all(traj.series["l2_sq"] == 0.0)


def random_state(grid, rng, mean, scale=1.0):
    """A dealiased solenoidal random state with the given mean."""
    f = random_field(grid, grid.dim, rng, solenoidal=True).dealias() * scale
    return FlowState(0.0, f, np.asarray(mean, float))


def convective_raw(u, w, wmean=None):
    """-(w + wmean) . grad u, dealiased and not projected, from physical products."""
    g = u.grid
    wp = w.physical()
    if wmean is not None:
        wp = wp + np.reshape(wmean, (-1,) + (1,) * g.dim)
    conv = sum(wp[a] * u.derivative(tuple(int(j == a) for j in range(g.dim))).physical()
               for a in range(g.dim))
    return -SpectralField.from_physical(g, conv).dealias().coeffs


def gradient_part_sq(grid, raw):
    """|box| sum |kd . raw|^2 / |kd|^2 over the modes of a half-spectrum raw
    term: the squared norm of the gradient part the Leray projection removes."""
    kdotr = np.sum(grid.kd * raw, axis=0)
    return grid.volume * np.sum(grid.herm * np.abs(kdotr) ** 2 * grid.inv_kdsq)


class TestHalfSpectrumStepping:
    """The flows on the 2/3-dealiased band: their right-hand sides against the
    convective `nonlinear_term`, their stored states, transforms and projections."""

    @staticmethod
    def evaluate(state, forcing, base_forcing=None, base=None):
        """The RHS evaluation at t = 0 of a flow started from `state`."""
        cfg = SolverConfig(nu=0.5, dt=1e-2, t_end=1e-2)
        return nsbox.solver._Flow(state, forcing, cfg, base_forcing).evaluate(0.0, base)

    @pytest.mark.parametrize("N", [8, 12, 16])
    def test_divergence_rhs_matches_convective_oracle(self, N):
        rng = np.random.default_rng(N)
        g2 = PeriodicGrid(L=TWO_PI, dim=2, N=N)
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=N)
        vs = random_state(g2, rng, [0.4, -0.3])
        u = random_state(g3, rng, [0.2, -0.5, 0.7], scale=0.3)
        zero2, zero3 = ZeroForcing(g2, 2), ZeroForcing(g3, 3)

        def close(ev, oracle, raw):
            # the projected term, and the gradient part of the raw term: the
            # divergence form is the convective product of solenoidal fields, so
            # the two have the same gradient part.  Both oracles are dealiased,
            # so they are zero outside the band.
            band = oracle.grid.band
            assert np.max(np.abs(ev.rhs - restrict(band, oracle.coeffs))) <= (
                1e-13 * np.max(np.abs(oracle.coeffs)))
            assert ev.gradp_sq == pytest.approx(gradient_part_sq(oracle.grid, raw), rel=1e-12)

        # the 2D base flow and the full 3D flow
        base = self.evaluate(vs, zero2)
        close(base, nonlinear_term(vs, vs.field), convective_raw(vs.field, vs.field))
        close(self.evaluate(u, zero3),
              nonlinear_term(u, u.field), convective_raw(u.field, u.field))
        # the perturbation: -(u + v_s) . grad u - (u + m) . grad v_s, the means
        # of u and v_s in the integrating factor
        lifted = FlowState(0.0, lift_2d_to_3d(vs.field, g3), np.zeros(3))
        pert = self.evaluate(u, zero3, zero2, base=base)
        oracle = (nonlinear_term(u, u.field + lifted.field)
                  + nonlinear_term(lifted, u.field, advecting_mean=u.mean))
        raw = (convective_raw(u.field, u.field + lifted.field)
               + convective_raw(lifted.field, u.field, u.mean))
        close(pert, oracle, raw)

    def test_stored_states_are_the_stepper_state(self, monkeypatch):
        # a stored state is the stepper's band scattered into the half
        # spectrum: zero outside the dealias mask, and a copy that later steps
        # do not write
        recorded = {}
        record = nsbox.solver._Recorder.record

        def spy(self, t, coeffs, ev, dt):
            recorded[(self.grid.dim, round(t, 9))] = coeffs.copy()
            return record(self, t, coeffs, ev, dt)

        monkeypatch.setattr(nsbox.solver._Recorder, "record", spy)
        rng = np.random.default_rng(42)
        g2 = PeriodicGrid(L=TWO_PI, dim=2, N=8)
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=8)
        fs = DecayingModeForcing(solenoidal_mode_2d(g2, 0.2), rate=1.0)
        pert = evolve_pair(random_state(g2, rng, [0.3, 0.1]), fs,
                           random_state(g3, rng, [0.1, 0.0, -0.2], 0.1),
                           ZeroForcing(g3, 3), SolverConfig(nu=0.5, dt=1e-2, t_end=0.1),
                           sample_times=[0.05])
        for traj in (pert, pert.base):
            assert len(traj.states) == 3
            for st in traj.states:
                g = st.field.grid
                box = recorded[(g.dim, round(st.t, 9))]
                assert np.array_equal(restrict(g.band, st.field.coeffs), box)
                assert np.all(st.field.coeffs[:, ~g.dealias_mask] == 0)

    def test_pair_step_reuses_its_memory(self, monkeypatch):
        # at N = 32 every temporary of a step is at most one component, which
        # the allocator reuses without returning it to the OS; the 1.7 MB
        # temporary of a stacked 6-component 32^3 `irfftn` is faulted in again
        # at every step, about 400 minor page faults
        marks = []
        record = nsbox.solver._Recorder.record

        def spy(self, t, coeffs, ev, dt):
            if self.grid.dim == 3:
                marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
            return record(self, t, coeffs, ev, dt)

        monkeypatch.setattr(nsbox.solver._Recorder, "record", spy)
        rng = np.random.default_rng(46)
        g2 = PeriodicGrid(L=TWO_PI, dim=2, N=32)
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=32)
        evolve_pair(random_state(g2, rng, [0.1, 0.0]), ZeroForcing(g2, 2),
                    random_state(g3, rng, [0.0, 0.2, 0.0], 0.1), ZeroForcing(g3, 3),
                    SolverConfig(nu=0.5, dt=1e-3, t_end=0.05))
        assert (marks[-1] - marks[20]) / (len(marks) - 21) < 50

    def test_one_projection_per_evaluation(self, monkeypatch):
        # each RHS evaluation forms kd . c once, in the Leray projection, which
        # also gives the recorded gradp_sq: one per flow and step under AB2
        calls = []
        k_dot = nsbox.spectral._k_dot

        def spy(grid, coeffs):
            calls.append(grid.dim)
            return k_dot(grid, coeffs)

        monkeypatch.setattr(nsbox.spectral, "_k_dot", spy)
        rng = np.random.default_rng(45)
        g2 = PeriodicGrid(L=TWO_PI, dim=2, N=8)
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=8)
        vs = random_state(g2, rng, [0.1, 0.0])
        u = random_state(g3, rng, [0.0, 0.2, 0.0], 0.1)
        zero2, zero3 = ZeroForcing(g2, 2), ZeroForcing(g3, 3)
        counts = []
        for steps in (5, 10):
            calls.clear()
            pert = evolve_pair(vs, zero2, u, zero3,
                               SolverConfig(nu=0.5, dt=1e-2, t_end=steps * 1e-2))
            counts.append(len(calls))
        assert counts[1] - counts[0] == 5 * 2
        # the recorded gradient part, against the raw terms of the initial states
        lifted = lift_2d_to_3d(vs.field, g3)
        raw2 = convective_raw(vs.field, vs.field)
        raw3 = (convective_raw(u.field, u.field + lifted)
                + convective_raw(lifted, u.field, u.mean))
        assert pert.base.series["gradp_sq"][0] == pytest.approx(gradient_part_sq(g2, raw2),
                                                                rel=1e-12)
        assert pert.series["gradp_sq"][0] == pytest.approx(gradient_part_sq(g3, raw3), rel=1e-12)

    @staticmethod
    def count_transforms(monkeypatch, run):
        """The transforms the solver makes during run(), as (name, dim,
        components) -> calls."""
        calls = Counter()

        def counting(name, fn):
            def counted(grid, x, out=None):
                calls[name, grid.dim, int(np.prod(x.shape[: -grid.dim]))] += 1
                return fn(grid, x, out)
            return counted

        with monkeypatch.context() as m:
            for name in ("to_samples", "to_coeffs"):
                m.setattr(nsbox.solver, name, counting(name, getattr(nsbox.solver, name)))
            run()
        return calls

    @pytest.mark.parametrize("system,scheme,per_step", [
        ("pair", "imex-cnab2", 4), ("pair", "rk3-imex", 12), ("base2d", "rk3-imex", 6)])
    def test_transforms_per_step(self, monkeypatch, system, scheme, per_step):
        # one inverse and one forward transform per system and stage, `per_step`
        # in all: dim components in (u) and dim (dim + 1) / 2 out (the upper
        # triangle of the flux); and once per step the recorder's transform of
        # the 2D gradients (4 components in)
        rng = np.random.default_rng(43)
        g2 = PeriodicGrid(L=TWO_PI, dim=2, N=8)
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=8)
        base0 = random_state(g2, rng, [0.1, 0.0])
        u0 = random_state(g3, rng, [0.0, 0.2, 0.0], 0.1)
        forcing = DecayingModeForcing(solenoidal_mode_2d(g2, 0.3), rate=1.0)

        def run(steps):
            cfg = SolverConfig(nu=0.5, dt=1e-2, t_end=steps * 1e-2, scheme=scheme)
            if system == "pair":
                evolve_pair(base0, forcing, u0, ZeroForcing(g3, 3), cfg)
            else:
                evolve_base_2d(base0, forcing, cfg)

        counts = [self.count_transforms(monkeypatch, lambda: run(steps)) for steps in (5, 10)]
        stage_kinds = {("to_samples", 2, 2), ("to_coeffs", 2, 3)}
        if system == "pair":
            stage_kinds |= {("to_samples", 3, 3), ("to_coeffs", 3, 6)}
        want = {kind: 5 * per_step // len(stage_kinds) for kind in stage_kinds}
        want["to_samples", 2, 4] = 5
        assert set(counts[1]) == set(want)
        assert counts[1] - counts[0] == want
