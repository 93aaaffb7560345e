"""Spectral field operators: transforms, calculus, projections, norms."""

import importlib
import itertools
import pathlib
import pkgutil
import re

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nsbox.spectral
from nsbox.spectral import (
    PeriodicGrid,
    SpectralField,
    add_lifted,
    derivative_coeffs,
    divergence_coeffs,
    extend,
    grad_l3_norm,
    inner_product,
    integrating_factor,
    leray_project_coeffs,
    lift_2d_to_3d,
    random_field,
    restrict,
    to_coeffs,
    to_samples,
    weighted_norm_sq,
    zero_mode0,
)
from oracles import div_norm, lp_norm

TWO_PI = 2.0 * np.pi


def naive_dft(samples, grid):
    """O(N^2) reference DFT with the same normalization and layout as the
    package: the modes with 0 <= m_last <= N/2."""
    N, dim = grid.N, grid.dim
    m1 = np.fft.fftfreq(N, 1.0 / N).astype(int)
    x1 = np.arange(N) / N
    out = np.zeros((samples.shape[0],) + grid.coeff_shape, dtype=complex)
    for c in range(samples.shape[0]):
        for midx in itertools.product(*map(range, grid.coeff_shape)):
            m = [m1[i] for i in midx]
            phase = np.zeros(grid.shape)
            for a, xg in enumerate(np.meshgrid(*([x1] * dim), indexing="ij")):
                phase = phase + m[a] * xg
            out[(c,) + midx] = np.sum(samples[c] * np.exp(-2j * np.pi * phase)) / N**dim
    return out


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicGrid(L=-1.0, dim=2, N=8)
        with pytest.raises(ValueError):
            PeriodicGrid(L=1.0, dim=4, N=8)
        with pytest.raises(ValueError):
            PeriodicGrid(L=1.0, dim=2, N=7)
        with pytest.raises(ValueError):
            PeriodicGrid(L=1.0, dim=2, N=2)

    def test_wavevectors(self):
        g = PeriodicGrid(L=TWO_PI, dim=2, N=8)
        assert g.k[0][1, 0] == pytest.approx(1.0)
        assert g.k[0][-1, 0] == pytest.approx(-1.0)
        assert g.modes[0].max() == 3  # fftfreq convention: Nyquist stored as -N/2
        assert g.modes[0].min() == -4
        # the last axis keeps 0 <= m_last <= N/2, its Nyquist plane also as -N/2
        assert g.coeff_shape == (8, 5) and g.shape == (8, 8)
        assert g.modes[1][0].tolist() == [0, 1, 2, 3, -4]

    def test_dealias_mask(self):
        g = PeriodicGrid(L=1.0, dim=2, N=8)
        # N/3 = 2.67: |m| <= 2 retained
        assert g.dealias_mask[2, 0]
        assert not g.dealias_mask[3, 0]
        assert not g.dealias_mask[4, 0]


class TestTransforms:
    def test_constant_field(self):
        g = PeriodicGrid(L=1.5, dim=3, N=8)
        f = SpectralField.from_physical(g, 2.5 * np.ones(g.shape))
        zero = (0,) + (0,) * 3
        assert f.coeffs[zero] == pytest.approx(2.5)
        other = f.coeffs.copy()
        other[zero] = 0.0
        assert np.max(np.abs(other)) < 1e-14

    def test_single_sine_mode(self):
        L = 3.0
        g = PeriodicGrid(L=L, dim=3, N=8)
        x1 = g.coords()[0]
        f = SpectralField.from_physical(g, np.sin(TWO_PI * x1 / L) * np.ones(g.shape))
        assert f.coeffs[0, 1, 0, 0] == pytest.approx(-0.5j, abs=1e-14)
        assert f.coeffs[0, -1, 0, 0] == pytest.approx(0.5j, abs=1e-14)
        c = f.coeffs.copy()
        c[0, 1, 0, 0] = 0
        c[0, -1, 0, 0] = 0
        assert np.max(np.abs(c)) < 1e-14

    def test_roundtrip_matches_naive_dft(self):
        rng = np.random.default_rng(1)
        g = PeriodicGrid(L=2.0, dim=2, N=8)
        samples = rng.standard_normal((2,) + g.shape)
        f = SpectralField.from_physical(g, samples)
        assert np.max(np.abs(f.coeffs - naive_dft(samples, g))) < 1e-12
        assert np.max(np.abs(f.physical() - samples)) < 1e-12

    def test_shape_mismatch_rejected(self):
        g = PeriodicGrid(L=1.0, dim=2, N=8)
        with pytest.raises(ValueError):
            SpectralField.from_physical(g, np.zeros((7, 8)))
        with pytest.raises(ValueError):  # a full-spectrum (C, N, N) array
            SpectralField(g, np.zeros((2, 8, 8), dtype=complex))


class TestDerivative:
    def test_constant_derivative_zero(self):
        g = PeriodicGrid(L=1.0, dim=2, N=8)
        f = SpectralField.from_physical(g, np.ones(g.shape))
        d = f.derivative((1, 0))
        assert np.max(np.abs(d.coeffs)) < 1e-14

    def test_sine_derivative_closed_form(self):
        L = 5.0
        g = PeriodicGrid(L=L, dim=2, N=16)
        x1 = g.coords()[0]
        f = SpectralField.from_physical(g, np.sin(TWO_PI * x1 / L) * np.ones(g.shape))
        d = f.derivative((1, 0)).physical()[0]
        expected = (TWO_PI / L) * np.cos(TWO_PI * np.broadcast_to(x1, g.shape) / L)
        assert np.max(np.abs(d - expected)) < 1e-12

    def test_mixed_derivative_vs_finite_differences(self):
        # band-limited random field sampled on N=16 and N=32; centered FD
        # converges at O(h^2) to the spectral value
        rng = np.random.default_rng(3)
        L = TWO_PI
        errs = []
        gc = PeriodicGrid(L=L, dim=2, N=16)
        base = random_field(gc, 1, rng, band=(0, 3), mean_free=False)
        for N in (16, 32):
            g = PeriodicGrid(L=L, dim=2, N=N)
            c = np.zeros((1,) + g.coeff_shape, dtype=complex)
            # re-embed the same coefficients on the finer grid; the band leaves
            # the coarse Nyquist planes empty
            for (i, j), val in np.ndenumerate(base.coeffs[0]):
                mm1, mm2 = gc.modes[:, i, j]
                if -gc.N // 2 in (mm1, mm2):
                    assert val == 0
                else:
                    c[0, mm1, mm2] = val
            f = SpectralField(g, c)
            spec = f.derivative((1, 1)).physical()[0]
            u = f.physical()[0]
            h = L / N
            fd = (
                np.roll(np.roll(u, -1, 0), -1, 1)
                - np.roll(np.roll(u, -1, 0), 1, 1)
                - np.roll(np.roll(u, 1, 0), -1, 1)
                + np.roll(np.roll(u, 1, 0), 1, 1)
            ) / (4 * h * h)
            errs.append(np.max(np.abs(fd - spec)))
        assert errs[1] < errs[0] / 3.2  # ~ factor 4 for O(h^2)

    def test_order_limit(self):
        g = PeriodicGrid(L=1.0, dim=2, N=8)
        f = SpectralField.zeros(g, 1)
        with pytest.raises(ValueError):
            f.derivative((2, 2))


class TestKernel:
    """The raw-array kernel gives the field methods' results bit for bit."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_gradients_equal_field_derivatives(self, dim):
        # white noise has Nyquist content on every axis; both zero that plane
        g = PeriodicGrid(L=TWO_PI, dim=dim, N=8)
        noise = random_field(g, dim, np.random.default_rng(dim))
        for a in range(dim):
            assert np.all(np.take(noise.coeffs, g.N // 2, axis=a + 1) != 0)
        for u in (noise.dealias(), noise):
            grads = to_samples(g, derivative_coeffs(g, u.coeffs))
            assert grads.shape == (dim, dim) + g.shape
            for a in range(dim):
                e_a = tuple(int(j == a) for j in range(dim))
                assert np.array_equal(grads[a], u.derivative(e_a).physical())

    @pytest.mark.parametrize("dim", [2, 3])
    def test_transforms_equal_field_methods(self, dim):
        g = PeriodicGrid(L=TWO_PI, dim=dim, N=8)
        samples = np.random.default_rng(dim).standard_normal((dim,) + g.shape)
        f = SpectralField.from_physical(g, samples)
        assert np.array_equal(to_coeffs(g, samples), f.coeffs)
        assert np.array_equal(to_samples(g, f.coeffs), f.physical())

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stacked_transforms_equal_per_field_calls(self, dim):
        # leading batch axes: a (B, C, grid) stack gives each field's arrays exactly
        g = PeriodicGrid(L=TWO_PI, dim=dim, N=8)
        samples = np.random.default_rng(dim).standard_normal((5, dim) + g.shape)
        coeffs = to_coeffs(g, samples)
        phys, grads = to_samples(g, coeffs), to_samples(g, derivative_coeffs(g, coeffs))
        assert grads.shape == (dim, 5, dim) + g.shape
        for b in range(5):
            assert np.array_equal(coeffs[b], to_coeffs(g, samples[b]))
            assert np.array_equal(phys[b], to_samples(g, coeffs[b]))
            assert np.array_equal(grads[:, b], to_samples(g, derivative_coeffs(g, coeffs[b])))

    def test_zero_mode0_in_place(self):
        g = PeriodicGrid(L=TWO_PI, dim=2, N=8)
        c = np.ones((2,) + g.coeff_shape, dtype=complex)
        assert zero_mode0(c) is c
        assert np.all(c[:, 0, 0] == 0.0)
        assert np.sum(c == 0.0) == 2

    @pytest.mark.parametrize("dim", [2, 3])
    def test_half_layout_matches_full(self, dim):
        # the one (rfftn) layout against an independent oracle: numpy's full
        # fftn spectrum, its first N/2 + 1 last-axis planes, and Parseval sums
        # over the whole array.  White noise fills the Nyquist planes.
        g = PeriodicGrid(L=2.5, dim=dim, N=8)
        n = g.N // 2 + 1
        rng = np.random.default_rng(dim + 20)
        su, sv = rng.standard_normal((2, dim) + g.shape)
        fu, fv = (np.fft.fftn(x, axes=g.axes, norm="forward") for x in (su, sv))
        cu, cv = to_coeffs(g, su), to_coeffs(g, sv)
        assert cu.shape == (dim,) + g.coeff_shape == (dim,) + g.shape[:-1] + (n,)
        assert np.allclose(cu, fu[..., :n], rtol=0, atol=1e-15)
        assert np.allclose(to_samples(g, cu), su, rtol=0, atol=1e-14)
        m = np.stack(np.meshgrid(*([np.fft.fftfreq(g.N, 1.0 / g.N)] * dim), indexing="ij"))
        k = (TWO_PI / g.L) * m
        ksq = np.sum(k**2, axis=0)
        weights = [sum(np.prod([k[a] ** (2 * p) for a, p in enumerate(alpha)], axis=0)
                       for alpha in itertools.product(range(s + 1), repeat=dim)
                       if sum(alpha) <= s) for s in range(4)] + [ksq]
        power = np.sum(np.abs(fu) ** 2, axis=0)
        want = [g.volume * np.sum(w * power) for w in weights]
        stacked = np.stack([g.sobolev_multiplier(s) for s in range(4)] + [g.ksq])
        assert np.allclose(weighted_norm_sq(g, cu, stacked), want, rtol=1e-14, atol=0)
        assert inner_product(g, cu, cv) == pytest.approx(
            g.volume * np.sum(np.conj(fu) * fv).real, rel=1e-13)
        # the projection's wavevector: k with the Nyquist plane of each axis
        # zeroed, odd in m, so the projection of a real field stays real
        kd = np.where(m == -(g.N // 2), 0.0, k)
        kdsq = np.sum(kd**2, axis=0)
        inv = np.divide(1.0, kdsq, out=np.zeros_like(kdsq), where=kdsq > 0)
        kdotu = np.sum(kd * fu, axis=0)
        projected, gradp_sq = leray_project_coeffs(g, cu)
        assert gradp_sq == pytest.approx(
            g.volume * np.sum(np.abs(kdotu) ** 2 * inv), rel=1e-13)
        assert np.allclose(projected, (fu - kd * kdotu * inv)[..., :n], rtol=0, atol=1e-15)
        shift = np.array([0.2, -0.7, 1.1][:dim])
        lam = np.exp(-0.3 * ksq - 1j * np.sum(k * shift.reshape((dim,) + (1,) * dim), axis=0))
        assert np.allclose(integrating_factor(g, np.exp(-0.3 * g.ksq), shift), lam[..., :n],
                           rtol=0, atol=1e-15)

    def test_grad_l3_norm_of_unit_gradient(self):
        # u = (sin x1, cos x1) has |grad u| = 1 pointwise, so ||grad u||_L3 = L^(2/3)
        g = PeriodicGrid(L=TWO_PI, dim=2, N=16)
        x1, _ = g.coords()
        u = SpectralField.from_physical(g, np.stack([np.sin(x1), np.cos(x1)]) * np.ones(g.shape))
        assert grad_l3_norm(g, to_samples(g, derivative_coeffs(g, u.coeffs))) == pytest.approx(
            TWO_PI ** (2 / 3), rel=1e-12)


class TestBandLayout:
    """The band grid (the 2/3-dealiased box) against the half spectrum times the
    dealias mask: the same per-mode arithmetic, the same samples, and the same
    Parseval sums to summation order.  N = 12 is where 3 divides N and the
    strict |m_a| < N/3 drops the modes m_a = +-N/3."""

    @staticmethod
    def setup(dim, N):
        g = PeriodicGrid(L=2.5, dim=dim, N=N)
        rng = np.random.default_rng(10 * N + dim)
        su, sv = rng.standard_normal((2, dim) + g.shape)
        return g, g.band, to_coeffs(g, su), to_coeffs(g, sv)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("N", [8, 12, 16, 32])
    def test_box_is_the_dealias_mask(self, dim, N):
        g, b, c, _ = self.setup(dim, N)
        K = max(m for m in range(N) if m < N / 3.0)
        assert b.coeff_shape == (2 * K + 1,) * (dim - 1) + (K + 1,)
        assert np.all(b.dealias_mask) and b.shape == g.shape and b != g
        assert np.array_equal(restrict(b, g.modes), b.modes)
        assert np.sum(g.dealias_mask) == b.modes[0].size
        assert np.array_equal(b.kd, b.k)
        assert b.herm.tolist() == [1.0] + [2.0] * K
        # the round trip, and the box of a half-spectrum transform
        assert np.array_equal(extend(b, restrict(b, c)), c * g.dealias_mask)
        box = restrict(b, c)
        assert np.array_equal(restrict(b, extend(b, box)), box)
        samples = to_samples(g, c)
        assert np.array_equal(to_coeffs(b, samples), restrict(b, to_coeffs(g, samples)))
        # the inverse: bit for bit
        assert np.array_equal(to_samples(b, box), to_samples(g, c * g.dealias_mask))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("N", [8, 12, 16, 32])
    def test_per_mode_operators_equal(self, dim, N):
        g, b, c, _ = self.setup(dim, N)
        box = restrict(b, c)
        assert np.array_equal(derivative_coeffs(b, box), restrict(b, derivative_coeffs(g, c)))
        flux = np.concatenate([c, c[: dim * (dim + 1) // 2 - dim]])  # an upper triangle
        assert np.array_equal(divergence_coeffs(b, restrict(b, flux)),
                              restrict(b, divergence_coeffs(g, flux)))
        assert np.array_equal(leray_project_coeffs(b, box)[0],
                              restrict(b, leray_project_coeffs(g, c)[0]))
        shift = np.array([0.2, -0.7, 1.1][:dim])
        assert np.array_equal(integrating_factor(b, np.exp(-0.3 * b.ksq), shift),
                              restrict(b, integrating_factor(g, np.exp(-0.3 * g.ksq), shift)))
        for s in range(4):
            assert np.array_equal(b.sobolev_multiplier(s), restrict(b, g.sobolev_multiplier(s)))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("N", [8, 12, 16, 32])
    def test_parseval_sums_equal(self, dim, N):
        g, b, c, d = self.setup(dim, N)
        cm, dm = c * g.dealias_mask, d * g.dealias_mask
        cb, db = restrict(b, c), restrict(b, d)
        wg = np.stack([g.sobolev_multiplier(s) for s in range(4)] + [g.ksq])
        wb = np.stack([b.sobolev_multiplier(s) for s in range(4)] + [b.ksq])
        assert np.allclose(weighted_norm_sq(b, cb, wb), weighted_norm_sq(g, cm, wg),
                           rtol=1e-15, atol=0)
        assert inner_product(b, cb, db) == pytest.approx(inner_product(g, cm, dm), rel=1e-15)
        assert leray_project_coeffs(b, cb)[1] == pytest.approx(leray_project_coeffs(g, cm)[1],
                                                               rel=1e-15)


class TestLerayProjection:
    def test_fixed_point_on_solenoidal(self):
        rng = np.random.default_rng(5)
        g = PeriodicGrid(L=TWO_PI, dim=3, N=8)
        u = random_field(g, 3, rng, solenoidal=True)
        again = u.leray_project()
        assert np.max(np.abs(again.coeffs - u.coeffs)) < 1e-14

    def test_gradient_killed(self):
        L = TWO_PI
        g = PeriodicGrid(L=L, dim=3, N=8)
        x1 = g.coords()[0]
        phi = SpectralField.from_physical(g, np.sin(TWO_PI * x1 / L) * np.ones(g.shape))
        gradphi = np.concatenate([phi.derivative(e).coeffs for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))])
        p = SpectralField(g, gradphi).leray_project()
        assert np.max(np.abs(p.coeffs)) < 1e-14

    def test_divergence_removed(self):
        rng = np.random.default_rng(6)
        g = PeriodicGrid(L=TWO_PI, dim=3, N=16)
        u = random_field(g, 3, rng)
        pu = u.leray_project()
        assert div_norm(pu) < 1e-12 * u.sobolev_norm(1)

    def test_scalar_rejected(self):
        g = PeriodicGrid(L=1.0, dim=3, N=8)
        with pytest.raises(ValueError):
            SpectralField.zeros(g, 1).leray_project()

    def test_idempotence_property(self):
        rng = np.random.default_rng(7)
        g = PeriodicGrid(L=4.0, dim=2, N=12)
        for _ in range(100):
            u = random_field(g, 2, rng, mean_free=False)
            p1 = u.leray_project()
            p2 = p1.leray_project()
            assert np.max(np.abs(p2.coeffs - p1.coeffs)) < 1e-14

    def test_commutes_with_derivative_on_solenoidal(self):
        rng = np.random.default_rng(8)
        g = PeriodicGrid(L=TWO_PI, dim=3, N=8)
        u = random_field(g, 3, rng, solenoidal=True)
        a = u.derivative((1, 0, 0)).leray_project()
        b = u.leray_project().derivative((1, 0, 0))
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-13


class TestMean:
    def test_constant(self):
        g = PeriodicGrid(L=2.0, dim=2, N=8)
        f = SpectralField.from_physical(
            g, np.stack([3.0 * np.ones(g.shape), -1.0 * np.ones(g.shape)]))
        assert f.mean() == pytest.approx([3.0, -1.0])
        assert f.subtract_mean().sobolev_norm(0) == 0.0

    def test_sine_mode_mean_free(self):
        L = 2.0
        g = PeriodicGrid(L=L, dim=2, N=8)
        x1 = g.coords()[0]
        f = SpectralField.from_physical(g, np.sin(TWO_PI * x1 / L) * np.ones(g.shape))
        assert abs(f.mean()[0]) < 1e-15
        assert np.max(np.abs(f.subtract_mean().coeffs - f.coeffs)) < 1e-15

    def test_mean_matches_sample_average(self):
        rng = np.random.default_rng(9)
        g = PeriodicGrid(L=3.0, dim=3, N=8)
        samples = rng.standard_normal((3,) + g.shape)
        f = SpectralField.from_physical(g, samples)
        assert np.max(np.abs(f.mean() - samples.mean(axis=(1, 2, 3)))) < 1e-13

    def test_exact_split(self):
        rng = np.random.default_rng(10)
        g = PeriodicGrid(L=1.0, dim=2, N=16)
        f = random_field(g, 2, rng, mean_free=False)
        recomposed = f.subtract_mean().coeffs.copy()
        recomposed[:, 0, 0] += f.mean()
        assert np.max(np.abs(recomposed - f.coeffs)) < 1e-15


class TestSobolevNorm:
    def test_zero_field(self):
        g = PeriodicGrid(L=1.0, dim=3, N=8)
        z = SpectralField.zeros(g, 3)
        for s in range(4):
            assert z.sobolev_norm(s) == 0.0

    def test_sine_closed_form(self):
        L = TWO_PI
        g = PeriodicGrid(L=L, dim=3, N=16)
        x1 = g.coords()[0]
        u = SpectralField.from_physical(g, np.sin(x1) * np.ones(g.shape))
        vol = L**3
        assert u.sobolev_norm_sq(0) == pytest.approx(vol / 2, rel=1e-12)
        assert u.sobolev_norm_sq(1) == pytest.approx(2 * vol / 2, rel=1e-12)

    def test_sine_quadrature_oracle_n64(self):
        # brute-force midpoint quadrature of |u|^2 on a dense 1D grid
        L = TWO_PI
        n = 64
        x = L * np.arange(n) / n
        val = np.sum(np.sin(x) ** 2) * (L / n) * L**2
        g = PeriodicGrid(L=L, dim=3, N=8)
        u = SpectralField.from_physical(g, np.sin(g.coords()[0]) * np.ones(g.shape))
        assert u.sobolev_norm_sq(0) == pytest.approx(val, rel=1e-12)

    def test_h1_matches_physical_quadrature(self):
        rng = np.random.default_rng(11)
        g = PeriodicGrid(L=TWO_PI, dim=2, N=16)
        u = random_field(g, 2, rng, band=(0, 5), mean_free=False)
        phys = np.sum(u.physical() ** 2)
        for a in range(2):
            phys += np.sum(u.derivative(tuple(1 if j == a else 0 for j in range(2))).physical() ** 2)
        phys *= g.cell_volume
        assert u.sobolev_norm_sq(1) == pytest.approx(phys, rel=1e-10)

    def test_order_validation(self):
        g = PeriodicGrid(L=1.0, dim=2, N=8)
        with pytest.raises(ValueError):
            SpectralField.zeros(g, 1).sobolev_norm(4)


class TestLpNorm:
    def test_constant(self):
        g = PeriodicGrid(L=2.0, dim=3, N=8)
        f = SpectralField.from_physical(g, -1.5 * np.ones(g.shape))
        vol = 2.0**3
        for p in (2, 3, 4, 6):
            assert lp_norm(f, p) == pytest.approx(1.5 * vol ** (1 / p), rel=1e-13)
        assert lp_norm(f, np.inf) == pytest.approx(1.5)

    def test_sine_l4_closed_form(self):
        L = TWO_PI
        g = PeriodicGrid(L=L, dim=3, N=16)
        u = SpectralField.from_physical(g, np.sin(g.coords()[0]) * np.ones(g.shape))
        # integral of sin^4 over the box: (3/8) * (2 pi)^3
        assert lp_norm(u, 4) ** 4 == pytest.approx(0.375 * (2 * np.pi) ** 3, rel=1e-12)

    def test_l2_agrees_with_sobolev0(self):
        rng = np.random.default_rng(12)
        g = PeriodicGrid(L=1.0, dim=2, N=16)
        for _ in range(5):
            u = random_field(g, 2, rng, band=(0, 5), mean_free=False)
            assert lp_norm(u, 2) == pytest.approx(u.sobolev_norm(0), rel=1e-12)

    def test_unsupported_p(self):
        g = PeriodicGrid(L=1.0, dim=2, N=8)
        with pytest.raises(ValueError):
            lp_norm(SpectralField.zeros(g, 1), 5)


class TestDealias:
    def test_retained_band_unchanged(self):
        rng = np.random.default_rng(13)
        g = PeriodicGrid(L=1.0, dim=2, N=12)
        u = random_field(g, 1, rng, band=(0, 3), mean_free=False)  # |m_a| < N/3 = 4
        assert np.max(np.abs(u.dealias().coeffs - u.coeffs)) < 1e-16

    def test_nyquist_mode_removed(self):
        g = PeriodicGrid(L=1.0, dim=2, N=8)
        c = np.zeros((1,) + g.coeff_shape, dtype=complex)
        c[0, 4, 0] = 1.0  # m = (-N/2, 0) plane
        assert np.max(np.abs(SpectralField(g, c).dealias().coeffs)) == 0.0

    def test_idempotent(self):
        rng = np.random.default_rng(14)
        g = PeriodicGrid(L=1.0, dim=2, N=12)
        u = random_field(g, 1, rng, mean_free=False)
        d1 = u.dealias()
        assert np.max(np.abs(d1.dealias().coeffs - d1.coeffs)) == 0.0

    def test_product_matches_truncated_convolution(self):
        # the product of two fields that fill the retained band, dealiased, is
        # their exact convolution restricted to the band: no product mode
        # aliases into it, also when 3 divides N
        rng = np.random.default_rng(15)
        for N in (8, 12, 24):
            g = PeriodicGrid(L=1.0, dim=2, N=N)
            u = random_field(g, 1, rng, mean_free=False).dealias()
            v = random_field(g, 1, rng, mean_free=False).dealias()
            prod = SpectralField.from_physical(g, u.physical() * v.physical()).dealias()
            # the convolution runs over the full spectrum, mirror modes included
            m_axis = np.fft.fftfreq(N, 1.0 / N).astype(int)
            full_modes = np.stack(np.meshgrid(m_axis, m_axis, indexing="ij"))
            band = np.all(np.abs(full_modes) < N / 3, axis=0)
            modes = full_modes[:, band].T
            a, b = (np.fft.fft2(f.physical()[0], norm="forward")[band] for f in (u, v))
            conv = np.zeros(g.shape, dtype=complex)
            for m1, x in zip(modes, a):
                for m2, y in zip(modes, b):
                    m = m1 + m2  # the product's mode before any wrap-around
                    if np.all(np.abs(m) < N / 2) and band[tuple(m % N)]:
                        conv[tuple(m % N)] += x * y
            n = N // 2 + 1
            assert np.max(np.abs(prod.coeffs[0] - conv[:, :n])) < 1e-13, N


class TestBandTransforms:
    """On a band grid, `to_samples` and `to_coeffs` run the passes of the
    half-spectrum `irfftn` and `rfftn` themselves, over only the lines that hold
    a box mode: the same samples and coefficients bit for bit, from one-axis
    scipy.fft calls, with their input left as it was."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(dim=st.sampled_from([2, 3]), N=st.integers(2, 32).map(lambda n: 2 * n),
           lead=st.sampled_from([(1,), (4,), (6,), (3, 2)]), seed=st.integers(0, 2**32 - 1))
    @example(dim=3, N=12, lead=(6,), seed=0)  # 3 divides N: the scaling must match
    @example(dim=2, N=24, lead=(3, 2), seed=1)
    @example(dim=3, N=4, lead=(1,), seed=2)
    def test_bit_identical_to_the_half_spectrum(self, dim, N, lead, seed):
        g = PeriodicGrid(L=TWO_PI, dim=dim, N=N)
        b = g.band
        rng = np.random.default_rng(seed)
        box = rng.standard_normal(lead + b.coeff_shape) + 1j * rng.standard_normal(
            lead + b.coeff_shape)
        samples = rng.standard_normal(lead + g.shape)
        box0, samples0 = box.copy(), samples.copy()
        calls = set()

        class Recording:
            def __getattr__(self, name):
                calls.add(name)
                return getattr(scipy.fft, name)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(nsbox.spectral, "_fft", Recording())
            got_samples = to_samples(b, box)
            got_box = to_coeffs(b, samples, out=np.empty(lead + b.coeff_shape, dtype=complex))
        assert calls == {"fft", "ifft", "rfft", "irfft"}
        assert np.array_equal(got_samples, scipy.fft.irfftn(extend(b, box), s=g.shape,
                                                            axes=g.axes, norm="forward"))
        assert np.array_equal(got_box, restrict(b, scipy.fft.rfftn(samples, axes=g.axes,
                                                                   norm="forward")))
        assert np.array_equal(box, box0) and np.array_equal(samples, samples0)


class TestLift:
    def test_zero(self):
        g2 = PeriodicGrid(L=1.0, dim=2, N=8)
        g3 = PeriodicGrid(L=1.0, dim=3, N=8)
        out = lift_2d_to_3d(SpectralField.zeros(g2, 2), g3)
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_x3_independence(self):
        g2 = PeriodicGrid(L=TWO_PI, dim=2, N=8)
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=8)
        x1, x2 = g2.coords()
        tg = np.stack([np.sin(x1) * np.cos(x2), -np.cos(x1) * np.sin(x2)])
        u2 = SpectralField.from_physical(g2, tg)
        u3 = lift_2d_to_3d(u2, g3)
        assert np.max(np.abs(u3.coeffs[:, :, :, 1:])) == 0.0
        assert np.max(np.abs(u3.derivative((0, 0, 1)).coeffs)) == 0.0
        assert np.max(np.abs(u3.coeffs[2])) == 0.0
        # white noise fills every plane of the 2D half spectrum, the Nyquist
        # planes included: the lift's conjugate mirror on the k3 = 0 plane
        # reproduces its samples at every x3
        for u2 in (u2, random_field(g2, 2, np.random.default_rng(22), mean_free=False)):
            u3 = lift_2d_to_3d(u2, g3)
            assert np.all(u3.coeffs[:, :, :, 1:] == 0.0)
            samples = u3.physical()
            assert np.max(np.abs(samples[:2] - u2.physical()[..., None])) < 1e-15
            assert np.all(samples[2] == 0.0)

    def test_norm_bookkeeping(self):
        rng = np.random.default_rng(16)
        g2 = PeriodicGrid(L=3.0, dim=2, N=8)
        g3 = PeriodicGrid(L=3.0, dim=3, N=8)
        u2 = random_field(g2, 2, rng)
        u3 = lift_2d_to_3d(u2, g3)
        assert u3.sobolev_norm_sq(0) == pytest.approx(3.0 * u2.sobolev_norm_sq(0), rel=1e-12)

    def test_grid_mismatch_rejected(self):
        g2 = PeriodicGrid(L=1.0, dim=2, N=8)
        g3 = PeriodicGrid(L=2.0, dim=3, N=8)
        with pytest.raises(ValueError):
            lift_2d_to_3d(SpectralField.zeros(g2, 2), g3)

    @pytest.mark.parametrize("N", [8, 12, 16])
    def test_band_lift_is_the_lift(self, N):
        # on the bands, `add_lifted` puts a 2D field on the k3 = 0 plane exactly
        # as `lift_2d_to_3d` does on the half spectra, and adds to what is there
        g2 = PeriodicGrid(L=TWO_PI, dim=2, N=N)
        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=N)
        u2 = random_field(g2, 2, np.random.default_rng(N), mean_free=False)
        lifted = restrict(g3.band, lift_2d_to_3d(u2, g3).coeffs[:2])
        box = np.zeros((2,) + g3.band.coeff_shape, dtype=complex)
        assert np.array_equal(add_lifted(box, restrict(g2.band, u2.coeffs)), lifted)
        assert np.array_equal(add_lifted(box, restrict(g2.band, u2.coeffs)), 2.0 * lifted)


class TestStructuralProperties:
    def test_hermitian_symmetry_random(self):
        # a real field's coefficients survive the round trip through its
        # samples: the planes m_last = 0 and m_last = N/2 hold both modes of
        # their mirror pairs, and the samples keep only their Hermitian part.
        # The projected fields carry Nyquist content.
        rng = np.random.default_rng(17)
        g = PeriodicGrid(L=1.0, dim=2, N=12)
        for i in range(100):
            u = random_field(g, 2, rng, mean_free=False, solenoidal=i % 2 == 1)
            c = u.coeffs
            assert np.max(np.abs(to_coeffs(g, to_samples(g, c)) - c)) < 1e-14

    def test_parseval_random(self):
        rng = np.random.default_rng(18)
        g = PeriodicGrid(L=2.5, dim=2, N=16)
        for _ in range(20):
            u = random_field(g, 2, rng, mean_free=False)
            phys = g.cell_volume * np.sum(u.physical() ** 2)
            assert u.sobolev_norm_sq(0) == pytest.approx(phys, rel=1e-10)

    def test_poincare_inequality_and_sharpness(self):
        rng = np.random.default_rng(19)
        L = 3.0
        g = PeriodicGrid(L=L, dim=2, N=16)
        kappa = (2 * np.pi / L) ** 2
        for _ in range(100):
            u = random_field(g, 2, rng, mean_free=True)
            assert u.grad_norm_sq() >= kappa * u.sobolev_norm_sq(0) * (1 - 1e-12)
        # equality on a lowest mode
        x1 = g.coords()[0]
        low = SpectralField.from_physical(g, np.sin(2 * np.pi * x1 / L) * np.ones(g.shape))
        ratio = low.grad_norm_sq() / low.sobolev_norm_sq(0)
        assert ratio == pytest.approx(kappa, rel=1e-12)

    def test_interpolation_ratio_bounded(self):
        # ratio ||u||_L3 / (||grad u||^(1/3) ||u||^(2/3)) stays below the
        # configured 2D interpolation constant
        from nsbox.constants import analytic_primitives

        rng = np.random.default_rng(20)
        L = TWO_PI
        g = PeriodicGrid(L=L, dim=2, N=16)
        c32 = analytic_primitives(L)["c_l3_interp_2d"]
        worst = 0.0
        for _ in range(100):
            u = random_field(g, 2, rng, mean_free=True)
            r = lp_norm(u, 3) / (np.sqrt(u.grad_norm_sq()) ** (1 / 3) * u.sobolev_norm(0) ** (2 / 3))
            worst = max(worst, r)
        assert np.isfinite(worst) and worst <= c32

    def test_inner_product(self):
        rng = np.random.default_rng(21)
        g = PeriodicGrid(L=2.0, dim=2, N=16)
        u = random_field(g, 2, rng, mean_free=False)
        v = random_field(g, 2, rng, mean_free=False)
        direct = g.cell_volume * np.sum(u.physical() * v.physical())
        assert inner_product(g, u.coeffs, v.coeffs) == pytest.approx(direct, rel=1e-10, abs=1e-12)

    def test_immutability(self):
        g = PeriodicGrid(L=1.0, dim=2, N=8)
        u = SpectralField.zeros(g, 2)
        with pytest.raises(ValueError):
            u.coeffs[0, 0, 0] = 1.0


def test_exports_resolve():
    """Every name in `nsbox.__all__` and in each nsbox module's `__all__` exists."""
    import nsbox

    modules = [nsbox] + [importlib.import_module(f"nsbox.{m.name}")
                         for m in pkgutil.iter_modules(nsbox.__path__)]
    stale = [f"{mod.__name__}.{name}" for mod in modules
             for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not stale


def test_layout_stays_in_spectral():
    """No nsbox module but `nsbox.spectral` transforms or reads wavevectors and
    mode indices: every use of the coefficient layout goes through its kernel."""
    import nsbox

    layout = re.compile(r"scipy\.fft|from scipy import fft|(?:np|numpy)\.fft|\.k1d\b|\.k\[|"
                        r"\.modes\b|\.i?kd?\b|\._blocks\b|\._runs\b|\._half_shape\b")
    leaks = [f"{path.name}: {m.group()}"
             for path in sorted(pathlib.Path(nsbox.__file__).parent.glob("*.py"))
             if path.name != "spectral.py"
             for m in layout.finditer(path.read_text())]
    assert not leaks
