"""Certificate arithmetic: constants, chains, identities, smallness."""

import math

import numpy as np
import pytest

from nsbox.certificate import (
    a_chain,
    abar_chain,
    b_chain,
    certificate_report,
    gamma_star,
    smallness_check,
    t_star,
)
from nsbox.constants import (
    _BATCH,
    InterpolationConstants,
    PoincareConstants,
    _batches,
    _ratio_fields,
    _scores,
    _scores_2d,
    analytic_primitives,
    calibrated_primitives,
    interpolation_constants,
    lattice_sum,
    poincare_constants,
)
from nsbox.forcing import ConstantMeanForcing, DecayingModeForcing, ZeroForcing
from nsbox.spectral import (
    PeriodicGrid,
    SpectralField,
    derivative_coeffs,
    grad_l3_norm,
    lift_2d_to_3d,
    random_field,
    to_samples,
)
from oracles import lp_norm, window_bar_sq

TWO_PI = 2.0 * np.pi


def unit_h1_profile(grid):
    x1, x2 = grid.coords()
    a = TWO_PI / grid.L
    samples = np.stack(
        [np.cos(a * (x1 + x2)) * np.ones(grid.shape), -np.cos(a * (x1 + x2)) * np.ones(grid.shape)]
    )
    f = SpectralField.from_physical(grid, samples)
    return f * (1.0 / f.sobolev_norm(1))


class ConstantBarForcing(DecayingModeForcing):
    """Constant-in-time mean-free forcing for closed-form chain checks."""

    def __init__(self, profile):
        super().__init__(profile, rate=1.0)  # rate unused below

    def bar_amplitude(self, t):
        return 1.0

    def sup_window_bar_sq(self, T, norm="l2"):
        return self.profile_norm_sq[norm] * T


class TestPoincare:
    def test_reference_value(self):
        pc = poincare_constants(nu=1.0, L=TWO_PI)
        assert pc.kappa == pytest.approx(1.0)
        assert pc.c_s1 == pytest.approx(0.5)
        assert pc.c_1 == pc.c_s1

    def test_single_mode_rayleigh_oracle(self):
        g = PeriodicGrid(L=TWO_PI, dim=2, N=16)
        pc = poincare_constants(1.0, TWO_PI)
        x1 = g.coords()[0]
        low = SpectralField.from_physical(g, np.sin(x1) * np.ones(g.shape))
        ratio = pc.nu * low.grad_norm_sq() / low.sobolev_norm_sq(1)
        assert ratio == pytest.approx(pc.c_s1, rel=1e-12)

    def test_decreases_with_box_size(self):
        vals = [poincare_constants(1.0, L).c_s1 for L in (TWO_PI, 2 * TWO_PI, 4 * TWO_PI)]
        assert vals[0] > vals[1] > vals[2] > 0

    def test_linear_in_viscosity(self):
        a = poincare_constants(1.0, 3.0).c_s1
        b = poincare_constants(2.0, 3.0).c_s1
        assert b == pytest.approx(2 * a, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            poincare_constants(-1.0, 1.0)


class TestTStar:
    def test_values(self):
        pc = PoincareConstants(nu=1.0, L=TWO_PI, kappa=1.0, c_s1=0.5, c_1=0.5)
        assert t_star(pc) == pytest.approx(4 * math.log(2))
        pc2 = PoincareConstants(nu=1.0, L=1.0, kappa=1.0, c_s1=math.log(2), c_1=math.log(2))
        assert t_star(pc2) == pytest.approx(2.0)

    def test_reciprocal_scaling(self):
        pc = PoincareConstants(nu=1.0, L=1.0, kappa=1.0, c_s1=0.3, c_1=0.3)
        pc2 = PoincareConstants(nu=1.0, L=1.0, kappa=1.0, c_s1=0.6, c_1=0.6)
        assert t_star(pc2) == pytest.approx(t_star(pc) / 2)


class TestGammaStar:
    def _consts(self, c3):
        return InterpolationConstants(
            mode="analytic_conservative", c_s2=1, c_s3=1, c_s4=1, c_2=1, c_3=c3, c_4=c3
        )

    def test_reference_value(self):
        pc = PoincareConstants(nu=1.0, L=1.0, kappa=1.0, c_s1=0.5, c_1=0.5)
        gs = gamma_star(self._consts(8.0), pc)
        assert gs == pytest.approx((1 / 32) ** 0.25, rel=1e-12)

    def test_quartic_scaling(self):
        pc = PoincareConstants(nu=1.0, L=1.0, kappa=1.0, c_s1=0.5, c_1=0.5)
        assert gamma_star(self._consts(4 * 3.0), pc) == pytest.approx(
            gamma_star(self._consts(3.0), pc) / math.sqrt(2), rel=1e-12
        )


class TestConstants:
    def test_lattice_sum_bounds(self):
        # against coarse partial sums: value must dominate (it is an upper bound)
        m = np.arange(-30, 31)
        g1, g2 = np.meshgrid(m, m, indexing="ij")
        msq = g1**2 + g2**2
        msq = np.where(msq == 0, np.inf, msq).astype(float)
        partial = np.sum(msq ** (-2.0))
        assert lattice_sum(4, 2) >= partial
        assert lattice_sum(4, 2) < partial * 1.05

    @pytest.mark.parametrize("power, dim", [(4, 2), (6, 2), (4, 3), (6, 3)])
    def test_lattice_sum_equals_meshgrid_formula(self, power, dim):
        M = 20
        grids = np.meshgrid(*([np.arange(-M, M + 1)] * dim), indexing="ij")
        msq = sum(g.astype(np.float64) ** 2 for g in grids)
        msq[(M,) * dim] = np.inf
        partial = float(np.sum(msq ** (-power / 2.0)))
        tail = 2 * dim * 3 ** (dim - 1) * M ** (dim - power) / (power - dim)
        assert lattice_sum(power, dim, M) == partial + tail

    def test_analytic_primitives_positive(self):
        prim = analytic_primitives(TWO_PI)
        assert all(v > 0 for v in prim.values())

    def test_modes(self):
        ic_a = interpolation_constants(1.0, TWO_PI, "analytic_conservative")
        ic_e = interpolation_constants(
            1.0, TWO_PI, "empirical_calibrated", n_fields=60, seed=0
        )
        assert ic_a.mode == "analytic_conservative"
        assert ic_e.mode == "empirical_calibrated"
        assert ic_a.c_s4 * poincare_constants(1.0, TWO_PI).c_s1 == pytest.approx(ic_a.c_s3)
        for name in ("c_s2", "c_s3", "c_2", "c_3", "c_4"):
            assert getattr(ic_e, name) > 0
            # analytic mode is the conservative one
            assert getattr(ic_a, name) >= 0.5 * getattr(ic_e, name)
        with pytest.raises(ValueError):
            interpolation_constants(1.0, TWO_PI, "bogus")

    def test_empirical_primitives_dominate_single_modes(self):
        # headroom means the lowest-mode ratio sits strictly below the constant
        ic = interpolation_constants(1.0, TWO_PI, "empirical_calibrated", n_fields=60, seed=0)
        g = PeriodicGrid(L=TWO_PI, dim=2, N=16)
        x1 = g.coords()[0]
        u = SpectralField.from_physical(g, np.sin(x1) * np.ones(g.shape)).subtract_mean()
        ratio = lp_norm(u, 3) / (np.sqrt(u.grad_norm_sq()) ** (1 / 3) * u.sobolev_norm(0) ** (2 / 3))
        assert ratio <= ic.primitives["c_l3_interp_2d"]


def calibration_set(grid, rng, n):
    """The calibration fields as a list, drawn one by one."""
    k0_cycle = (1.5, 2.5, 4.0, grid.N / 4.0)
    hi = max(2, grid.N // 3)
    out = [random_field(grid, grid.dim, rng, band=(1, hi), k0=k0_cycle[i % 4]) for i in range(n)]
    x = grid.coords()
    for low in (np.sin(2 * np.pi * x[0] / grid.L), np.cos(2 * np.pi * (x[0] + x[1]) / grid.L)):
        out.append(SpectralField.from_physical(grid, np.stack([low * np.ones(grid.shape)] * grid.dim)))
    return out


def per_field_calibration(L, n_fields, seed, headroom=1.1, N2d=24, N3d=12):
    """The calibration scored one field at a time through the field methods,
    with each 2D field lifted onto a 3D grid: the reference that the batched
    `calibrated_primitives` must equal, bit for bit but for the lift ratio.
    The batch takes that ratio on the 2D grid, whose Parseval sums and
    transforms run over half of the (m1, m2) spectrum, where the lift's
    k3 = 0 plane holds all of it; the two agree to roundoff."""
    rng = np.random.default_rng(seed)
    g2 = PeriodicGrid(L=L, dim=2, N=N2d)
    g3 = PeriodicGrid(L=L, dim=3, N=N3d)
    g3_lift = PeriodicGrid(L=L, dim=3, N=N2d)
    r = dict.fromkeys(("c_l3_grad_2d", "c_l3_grad_3d", "c_l4_grad_2d", "c_l4_grad_3d", "c_l6_grad_3d",
                       "c_linf_lap_2d", "c_l3_interp_2d", "c_l3_interp_3d", "c_l3_lift"), 0.0)
    for u in calibration_set(g2, rng, n_fields):
        l2 = u.sobolev_norm(0)
        gr = np.sqrt(u.grad_norm_sq())
        lap = np.sqrt(u.derivative((2, 0)).sobolev_norm_sq(0) + u.derivative((0, 2)).sobolev_norm_sq(0)
                      + 2 * u.derivative((1, 1)).sobolev_norm_sq(0))
        l3, l4, linf = lp_norm(u, 3), lp_norm(u, 4), lp_norm(u, np.inf)
        r["c_l3_grad_2d"] = max(r["c_l3_grad_2d"], l3 / gr)
        r["c_l4_grad_2d"] = max(r["c_l4_grad_2d"], l4 / gr)
        r["c_linf_lap_2d"] = max(r["c_linf_lap_2d"], linf / lap)
        r["c_l3_interp_2d"] = max(r["c_l3_interp_2d"], l3 / (gr ** (1 / 3) * l2 ** (2 / 3)))
        lifted = lift_2d_to_3d(u, g3_lift)
        grads = to_samples(g3_lift, derivative_coeffs(g3_lift, lifted.coeffs))
        gl3 = grad_l3_norm(g3_lift, grads)
        r["c_l3_lift"] = max(r["c_l3_lift"], gl3 / lifted.sobolev_norm(2))
    for u in calibration_set(g3, rng, max(200, n_fields // 3)):
        l2 = u.sobolev_norm(0)
        gr = np.sqrt(u.grad_norm_sq())
        l3, l4, l6 = lp_norm(u, 3), lp_norm(u, 4), lp_norm(u, 6)
        r["c_l3_grad_3d"] = max(r["c_l3_grad_3d"], l3 / gr)
        r["c_l4_grad_3d"] = max(r["c_l4_grad_3d"], l4 / gr)
        r["c_l6_grad_3d"] = max(r["c_l6_grad_3d"], l6 / gr)
        r["c_l3_interp_3d"] = max(r["c_l3_interp_3d"], l3 / (gr ** 0.5 * l2 ** 0.5))
    return {k: headroom * v for k, v in r.items()}


class TestCalibration:
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("n_fields", [1, _BATCH + 1, 40])
    def test_batches_equal_per_field_scoring(self, n_fields, seed):
        # the batch boundaries and the lowest-mode tail change no bit
        got = calibrated_primitives(TWO_PI, n_fields=n_fields, seed=seed)
        want = per_field_calibration(TWO_PI, n_fields, seed)
        assert got.pop("c_l3_lift") == pytest.approx(want.pop("c_l3_lift"), rel=1e-15, abs=0)
        assert got == want

    @pytest.mark.parametrize("dim", [2, 3])
    def test_batches_hold_the_fields_in_draw_order(self, dim):
        g = PeriodicGrid(L=TWO_PI, dim=dim, N=8)
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        n = 2 * _BATCH + 3
        stacks = list(_batches(_ratio_fields(g, rng_a, n)))
        assert [len(c) for c in stacks] == [_BATCH, _BATCH, 5]
        want = calibration_set(g, rng_b, n)
        assert np.array_equal(np.concatenate(stacks), np.stack([u.coeffs for u in want]))
        assert rng_a.standard_normal() == rng_b.standard_normal()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_scores_equal_field_norms(self, dim):
        # per field, not only at the maxima: every norm but the lift's is the field method's
        g = PeriodicGrid(L=TWO_PI, dim=dim, N=12)
        rng = np.random.default_rng(dim)
        us = [random_field(g, dim, rng, band=(1, 4), k0=k0) for k0 in (1.5, 2.5, 4.0, 3.0, 1.5)]
        c = np.stack([u.coeffs for u in us])
        if dim == 2:
            names, ps = ("l2", "gr", "lap", "l3", "l4", "linf"), (3, 4, np.inf)
            scores = _scores_2d(g, c)[:6]
        else:
            names, ps = ("l2", "gr", "l3", "l4", "l6"), (3, 4, 6)
            scores = _scores(g, c, (3, 4, 6))
        for i, u in enumerate(us):
            want = {"l2": u.sobolev_norm(0), "gr": np.sqrt(u.grad_norm_sq())}
            want.update(zip(names[-3:], (lp_norm(u, p) for p in ps)))
            if dim == 2:
                want["lap"] = np.sqrt(sum(w * u.derivative(a).sobolev_norm_sq(0)
                                          for a, w in (((2, 0), 1), ((0, 2), 1), ((1, 1), 2))))
            assert {n: s[i] for n, s in zip(names, scores)} == want

    def test_no_fields_rejected(self):
        for n in (0, -5):
            with pytest.raises(ValueError, match="n_fields"):
                calibrated_primitives(TWO_PI, n_fields=n)

    def test_lift_identity_matches_3d_grid(self):
        # w(x1, x2, x3) = u(x1, x2): ||grad w||_L3(box^3) and ||w||_H2(box^3) from the 2D grid
        L = 3.0
        g2, g3 = PeriodicGrid(L=L, dim=2, N=12), PeriodicGrid(L=L, dim=3, N=12)
        rng = np.random.default_rng(11)
        us = [random_field(g2, 2, rng, k0=k0) for k0 in (1.5, 3.0, 6.0)]
        scores = _scores_2d(g2, np.stack([u.coeffs for u in us]))
        for u, gl3, h2 in zip(us, scores[6], scores[7]):
            w = lift_2d_to_3d(u, g3)
            grads = to_samples(g3, derivative_coeffs(g3, w.coeffs))
            assert gl3 == pytest.approx(grad_l3_norm(g3, grads), rel=1e-13)
            assert h2 == pytest.approx(w.sobolev_norm(2), rel=1e-13)


@pytest.fixture(scope="module")
def setup_2pi():
    pc = poincare_constants(1.0, TWO_PI)
    ic = interpolation_constants(1.0, TWO_PI, "empirical_calibrated", n_fields=80, seed=0)
    grid = PeriodicGrid(L=TWO_PI, dim=2, N=16)
    return pc, ic, grid


class TestAbarChain:
    def test_zero_data_collapse(self, setup_2pi):
        pc, ic, grid = setup_2pi
        z = ZeroForcing(grid, 2)
        for T in (1.0, 5.0):
            ch = abar_chain(z, 0.0, T, pc, ic)
            assert ch.abar1_sq == 0.0
            assert ch.abar2_sq == 0.0
            assert ch.abar3_sq == pytest.approx(1.0)
            assert ch.abar4_sq == 0.0
            assert ch.member == (T >= ch.t_star and T > 1.0)

    def test_example_one_membership(self, setup_2pi):
        # constant force plus square-integrable fluctuation: admissible for
        # every window length above max(t_star, threshold)
        pc, ic, grid = setup_2pi
        h = DecayingModeForcing(unit_h1_profile(grid), rate=1.0, amplitude=0.5)
        f = DecayingModeForcing(h.profile, rate=1.0, amplitude=0.5, constant=[1.0, 0.0])
        vbar0_h1_sq = 0.04
        i_inf = h.infinite_bar_sq_integral("h1")
        a0 = pc.c_1 * (i_inf + vbar0_h1_sq) * vbar0_h1_sq + (i_inf + 1.0) * math.exp(
            ic.c_2 * (i_inf + vbar0_h1_sq)
        )
        ts = t_star(pc)
        for T in np.linspace(max(ts, a0) + 1e-6, max(ts, a0) + 10.0, 7):
            ch = abar_chain(f, vbar0_h1_sq, float(T), pc, ic)
            assert ch.member
            assert ch.abar1_sq <= i_inf + 1e-12
        assert math.isinf(abar_chain(f, vbar0_h1_sq, 5.0, pc, ic).abar4_sq)

    def test_non_integrable_schedule_rejected(self, setup_2pi):
        pc, ic, grid = setup_2pi

        class DivergentSchedule(ZeroForcing):
            def sup_window_bar_sq(self, T, norm="l2"):
                return math.inf

        with pytest.raises(ValueError, match="integrable"):
            abar_chain(DivergentSchedule(grid, 2), 0.0, 4.0, pc, ic)

    def test_example_two_periodic_extension(self, setup_2pi):
        pc, ic, grid = setup_2pi
        from nsbox.forcing import PeriodicExtensionForcing

        T = 4.0
        f = PeriodicExtensionForcing(DecayingModeForcing(unit_h1_profile(grid), rate=1.0), T)
        w0 = window_bar_sq(f, 0, T, "h1")
        assert window_bar_sq(f, 7, T, "h1") == pytest.approx(w0, rel=1e-12)
        ch = abar_chain(f, 0.01, T, pc, ic)
        assert ch.abar1_sq == pytest.approx(w0, rel=1e-12)

    def test_example_two_drift_is_certified(self, setup_2pi):
        # the repeated decaying mode declares its zero mean rate, so the drift
        # sup is the closed form |m0|, not a sampled value
        pc, ic, grid = setup_2pi
        from nsbox.forcing import PeriodicExtensionForcing

        h = DecayingModeForcing(unit_h1_profile(grid), rate=1.0)
        m0 = np.array([0.3, -0.4])
        ch = abar_chain(PeriodicExtensionForcing(h, 4.0), 0.01, 4.0, pc, ic, initial_mean=m0)
        assert ch.abar4_sq == float(np.linalg.norm(m0)) ** 2


class TestAChain:
    def test_zero_collapse(self, setup_2pi):
        pc, ic, grid = setup_2pi
        ch = a_chain(ZeroForcing(grid, 2), {"l2_sq": 0, "grad_sq": 0, "grad2_sq": 0}, 3.0, pc, ic)
        for name in ("a1_sq", "a2_sq", "a3_sq", "a4_sq", "a5_sq", "a6_sq", "a7_sq",
                     "a8_sq", "a10_sq", "a11_sq", "a12_sq", "a13_sq", "a14_sq"):
            assert getattr(ch, name) == 0.0
        assert ch.a9 == 0.0

    def test_constant_forcing_closed_form(self, setup_2pi):
        # constant ||fbar||^2 = phi: a1_sq = phi T / c_s1 and the window-start
        # bound follows the geometric formula
        pc, ic, grid = setup_2pi
        prof = unit_h1_profile(grid) * 0.2
        f = ConstantBarForcing(prof)
        phi = prof.sobolev_norm_sq(0)
        T = 2.0
        v0 = {"l2_sq": 0.3, "grad_sq": 0.4, "grad2_sq": 0.5}
        ch = a_chain(f, v0, T, pc, ic)
        assert ch.a1_sq == pytest.approx(phi * T / pc.c_s1, rel=1e-12)
        assert ch.a2_sq == pytest.approx(ch.a1_sq / (1 - math.exp(-pc.c_s1 * T)) + 0.3, rel=1e-12)

    def test_chain_identities(self, setup_2pi):
        pc, ic, grid = setup_2pi
        f = DecayingModeForcing(unit_h1_profile(grid), rate=1.0, amplitude=0.3)
        ch = a_chain(f, {"l2_sq": 0.1, "grad_sq": 0.2, "grad2_sq": 0.3}, 3.0, pc, ic)
        assert ch.a3_sq == ch.a1_sq + ch.a2_sq
        assert ch.a6_sq == ch.a4_sq + ch.a5_sq
        assert ch.a8_sq == ch.a3_sq + ch.a7_sq
        assert ch.a13_sq == ch.a11_sq + ch.a12_sq * math.exp(ic.c_s4 * ch.a8_sq)
        assert ch.a14_sq == ic.c_s3 * (ch.a13_sq * ch.a8_sq + ch.a10_sq) + ch.a12_sq

    def test_monotone_in_inputs(self, setup_2pi):
        pc, ic, grid = setup_2pi
        f = DecayingModeForcing(unit_h1_profile(grid), rate=1.0, amplitude=0.3)
        base = {"l2_sq": 0.1, "grad_sq": 0.2, "grad2_sq": 0.3}
        ch0 = a_chain(f, base, 3.0, pc, ic)
        for key in base:
            bumped = dict(base)
            bumped[key] = base[key] * 1.3 + 0.01
            ch1 = a_chain(f, bumped, 3.0, pc, ic)
            for name in ("a2_sq", "a3_sq", "a5_sq", "a8_sq", "a12_sq", "a14_sq"):
                assert getattr(ch1, name) >= getattr(ch0, name) - 1e-15
        f_big = DecayingModeForcing(unit_h1_profile(grid), rate=1.0, amplitude=0.4)
        ch2 = a_chain(f_big, base, 3.0, pc, ic)
        assert ch2.a8_sq > ch0.a8_sq

    def test_negative_inputs_rejected(self, setup_2pi):
        pc, ic, grid = setup_2pi
        with pytest.raises(ValueError):
            a_chain(ZeroForcing(grid, 2), {"l2_sq": -1, "grad_sq": 0, "grad2_sq": 0}, 3.0, pc, ic)

    @pytest.mark.parametrize("T", [0.0, -1.0])
    def test_window_length_must_be_positive(self, setup_2pi, T):
        # T = 0 would divide by 1 - exp(0) in a2_sq; every chain rejects it
        pc, ic, grid = setup_2pi
        z2, z3 = ZeroForcing(grid, 2), ZeroForcing(PeriodicGrid(L=TWO_PI, dim=3, N=8), 3)
        norms = {"l2_sq": 0.0, "grad_sq": 0.0, "grad2_sq": 0.0}
        with pytest.raises(ValueError, match="window length T must be positive"):
            a_chain(z2, norms, T, pc, ic)
        with pytest.raises(ValueError, match="window length T must be positive"):
            abar_chain(z2, 0.0, T, pc, ic)
        ach = a_chain(z2, norms, 4.0, pc, ic)
        with pytest.raises(ValueError, match="window length T must be positive"):
            b_chain(z3, {"l2_sq": 0.0}, ach, pc, ic, T)

    def test_unbounded_drift_reported(self, setup_2pi):
        pc, ic, grid = setup_2pi
        f = DecayingModeForcing(unit_h1_profile(grid), rate=1.0, amplitude=0.1, constant=[1.0, 0.0])
        ch = a_chain(f, {"l2_sq": 0.0, "grad_sq": 0.0, "grad2_sq": 0.0}, 3.0, pc, ic)
        assert math.isinf(ch.a9)
        assert not ch.hypotheses["drift_finite"]
        assert math.isinf(ch.h21_reference())


class TestBChain:
    def _achain(self, setup, amplitude=0.1):
        pc, ic, grid = setup
        f = DecayingModeForcing(unit_h1_profile(grid), rate=1.0, amplitude=amplitude)
        return a_chain(f, {"l2_sq": 0.01, "grad_sq": 0.01, "grad2_sq": 0.01}, 4.0, pc, ic)

    def test_zero_perturbation_data(self, setup_2pi):
        pc, ic, grid = setup_2pi
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=8)
        ach = self._achain(setup_2pi)
        ch = b_chain(ZeroForcing(g3, 3), {"l2_sq": 0.0}, ach, pc, ic, 4.0)
        assert ch.b1_sq == 0.0 and ch.b2_sq == 0.0 and ch.b3_sq == 0.0
        assert ch.b4_sq == 0.0 and ch.b5_sq == 0.0

    def test_b4_carries_initial_energy(self, setup_2pi):
        pc, ic, grid = setup_2pi
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=8)
        ach = self._achain(setup_2pi)
        u0 = 1e-4
        ch = b_chain(ZeroForcing(g3, 3), {"l2_sq": u0}, ach, pc, ic, 4.0)
        assert ch.b4_sq == pytest.approx(math.exp(ic.c_2 * ach.a8_sq) * u0, rel=1e-12)
        assert ch.b5_sq == pytest.approx(ic.c_2 * ach.a8_sq * ch.b4_sq, rel=1e-12)
        assert ch.b5_sq_carry >= u0

    def test_divergent_mean_drift(self, setup_2pi):
        # constant mean force on the difference system: windowed drift
        # integral grows without bound; reported as inf, not raised
        pc, ic, grid = setup_2pi
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=8)
        ach = self._achain(setup_2pi)
        gforce = ConstantMeanForcing(g3, [0.5, 0.0, 0.0])
        ch = b_chain(gforce, {"l2_sq": 0.0}, ach, pc, ic, 4.0)
        assert math.isinf(ch.b2_sq)
        assert math.isinf(ch.b5_sq)
        assert math.isinf(ch.b7_sq)
        assert not ch.hypotheses["drift_finite"]

    def test_missing_achain_rejected(self, setup_2pi):
        pc, ic, grid = setup_2pi
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=8)
        with pytest.raises(ValueError):
            b_chain(ZeroForcing(g3, 3), {"l2_sq": 0.0}, None, pc, ic, 4.0)


class TestSmallness:
    def test_zero_everything(self, setup_2pi):
        pc, ic, grid = setup_2pi
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=8)
        ach = a_chain(ZeroForcing(grid, 2), {"l2_sq": 0, "grad_sq": 0, "grad2_sq": 0}, 4.0, pc, ic)
        bch = b_chain(ZeroForcing(g3, 3), {"l2_sq": 0.0}, ach, pc, ic, 4.0, gamma=1e-4)
        times = np.linspace(0, 4, 9)
        out = smallness_check(pc, ic, bch, ZeroForcing(g3, 3), {"l2_sq": 0.0},
                              u0_mean=np.zeros(3), gradv_l3_series=np.zeros(9), times=times)
        assert bch.hypotheses["gamma_le_gamma_star"]
        assert out["g2"] == {"values": [0.0], "bound": pc.c_1 * 1e-4 / 4.0, "ok": True}
        assert out["gbar"] == {"values": [0.0], "bound": 0.5 * 1e-4, "ok": True}

    def test_gamma_violation_is_verdict(self, setup_2pi):
        # gamma is decided once, by the b-chain: above gamma_star and at zero
        # it is violated, and the budgets scale with the b-chain's gamma
        pc, ic, grid = setup_2pi
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=8)
        ach = a_chain(ZeroForcing(grid, 2), {"l2_sq": 0, "grad_sq": 0, "grad2_sq": 0}, 4.0, pc, ic)
        for gamma in (10.0, 0.0):
            bch = b_chain(ZeroForcing(g3, 3), {"l2_sq": 0.0}, ach, pc, ic, 4.0, gamma=gamma,
                          epsilon=0.25)
            assert bch.hypotheses["gamma_le_gamma_star"] is False
            out = smallness_check(pc, ic, bch, ZeroForcing(g3, 3), {"l2_sq": 0.0},
                                  u0_mean=np.zeros(3))
            assert out["g2"] == {"values": [], "bound": pc.c_1 * gamma / 4.0, "ok": None}
            assert out["gbar"]["bound"] == 0.25 * gamma


class TestReport:
    def test_document_shape(self, setup_2pi):
        pc, ic, grid = setup_2pi
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=8)
        f = DecayingModeForcing(unit_h1_profile(grid), rate=1.0, amplitude=0.1)
        ab = abar_chain(f, 0.02, 4.0, pc, ic)
        ach = a_chain(f, {"l2_sq": 0.01, "grad_sq": 0.01, "grad2_sq": 0.01}, 4.0, pc, ic)
        bch = b_chain(ZeroForcing(g3, 3), {"l2_sq": 1e-5}, ach, pc, ic, 4.0, gamma=1e-4)
        sm = smallness_check(pc, ic, bch, ZeroForcing(g3, 3), {"l2_sq": 1e-5},
                             u0_mean=np.zeros(3))
        doc = certificate_report(pc, ic, ab, ach, bch, sm)
        assert doc["schema"] == "nsbox-certificate/1"
        for key in ("poincare", "constants", "t_star", "gamma_star", "abar_chain",
                    "a_chain", "b_chain", "hypotheses"):
            assert key in doc
        assert doc["poincare"]["nu"] == pc.nu and doc["poincare"]["L"] == pc.L
        assert doc["T"] == 4.0 and doc["t_star"] == ab.t_star
        # each value is written once: gamma, gamma_star and epsilon only in the b-chain
        assert "inputs" not in doc
        assert not {"gamma", "gamma_star", "epsilon", "gamma_hypothesis"} & set(doc["smallness"])
        assert doc["gamma_hypothesis"] == "ok"
        assert isinstance(doc["barrier_hypotheses_ok"], bool)
        # no simulated series: g2_budget is null, so not every hypothesis was evaluated
        assert doc["hypotheses"]["g2_budget"] is None
        assert doc["barrier_hypotheses_evaluated"] is False

    def test_barrier_hypotheses_evaluated(self, setup_2pi):
        # true only when every barrier hypothesis has a verdict; a missing chain
        # or a null budget passes barrier_hypotheses_ok but leaves this false
        pc, ic, grid = setup_2pi
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=8)
        z2, z3 = ZeroForcing(grid, 2), ZeroForcing(g3, 3)
        ab = abar_chain(z2, 0.0, 4.0, pc, ic)
        ach = a_chain(z2, {"l2_sq": 0.0, "grad_sq": 0.0, "grad2_sq": 0.0}, 4.0, pc, ic)
        bch = b_chain(z3, {"l2_sq": 0.0}, ach, pc, ic, 4.0, gamma=1e-4)
        sm = smallness_check(pc, ic, bch, z3, {"l2_sq": 0.0}, u0_mean=np.zeros(3),
                             gradv_l3_series=np.zeros(5), times=np.linspace(0.0, 1.0, 5))
        full = certificate_report(pc, ic, ab, ach, bch, sm)
        assert full["barrier_hypotheses_evaluated"] is True
        base_only = certificate_report(pc, ic, ab, ach)
        assert base_only["barrier_hypotheses_ok"] is True
        assert base_only["barrier_hypotheses_evaluated"] is False
