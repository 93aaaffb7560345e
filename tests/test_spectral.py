"""Spectral field operators: transforms, calculus, projections, norms."""

import importlib
import itertools
import pathlib
import pkgutil
import re

import numpy as np
import pytest

from nsbox.spectral import (
    PeriodicGrid,
    SpectralField,
    grad_l3_norm,
    grad_samples,
    gradient_part_normsq,
    inner_l2,
    inner_product,
    integrating_factor,
    leray_project_coeffs,
    lift_2d_to_3d,
    random_field,
    to_coeffs,
    to_samples,
    weighted_norm_sq,
    zero_mode0,
)

TWO_PI = 2.0 * np.pi


def naive_dft(samples, grid):
    """O(N^2) reference DFT with the same normalization as the package."""
    N, dim = grid.N, grid.dim
    m1 = np.fft.fftfreq(N, 1.0 / N).astype(int)
    x1 = np.arange(N) / N
    out = np.zeros((samples.shape[0],) + grid.shape, dtype=complex)
    for c in range(samples.shape[0]):
        for midx in itertools.product(range(N), repeat=dim):
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
            c = np.zeros((1,) + g.shape, dtype=complex)
            # re-embed the same coefficients on the finer grid
            for (m1, m2), val in np.ndenumerate(base.coeffs[0]):
                mm1 = gc.modes[0][m1, m2]
                mm2 = gc.modes[1][m1, m2]
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
            grads = grad_samples(g, u.coeffs)
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
        phys, grads = to_samples(g, coeffs), grad_samples(g, coeffs)
        assert grads.shape == (dim, 5, dim) + g.shape
        for b in range(5):
            assert np.array_equal(coeffs[b], to_coeffs(g, samples[b]))
            assert np.array_equal(phys[b], to_samples(g, coeffs[b]))
            assert np.array_equal(grads[:, b], grad_samples(g, coeffs[b]))

    def test_zero_mode0_in_place(self):
        g = PeriodicGrid(L=TWO_PI, dim=2, N=8)
        c = np.ones((2,) + g.shape, dtype=complex)
        assert zero_mode0(c) is c
        assert np.all(c[:, 0, 0] == 0.0)
        assert np.sum(c == 0.0) == 2

    @pytest.mark.parametrize("dim", [2, 3])
    def test_half_layout_matches_full(self, dim):
        # every kernel operation on the half (rfftn) layout gives the full
        # layout's result on its first N/2 + 1 last-axis planes, to roundoff
        g = PeriodicGrid(L=2.5, dim=dim, N=8)
        half, n = g.half, g.N // 2 + 1
        rng = np.random.default_rng(dim + 20)
        u, v = (random_field(g, dim, rng, mean_free=False) for _ in range(2))
        cu, cv = u.coeffs[..., :n], v.coeffs[..., :n]
        assert half.shape == g.shape[:-1] + (n,)
        assert np.allclose(to_coeffs(half, u.physical()), cu, rtol=0, atol=1e-15)
        assert np.allclose(to_samples(half, cu), u.physical(), rtol=0, atol=1e-14)
        weights = np.stack([g.sobolev_multiplier(s) for s in range(4)] + [g.ksq])
        full = weighted_norm_sq(g, u.coeffs, weights)
        assert np.allclose(weighted_norm_sq(half, cu, weights[..., :n]), full, rtol=1e-14, atol=0)
        assert inner_product(half, cu, cv) == pytest.approx(inner_product(g, u.coeffs, v.coeffs),
                                                            rel=1e-13)
        # k . c is odd in m only off the Nyquist planes (see `leray_project_coeffs`)
        dealiased = u.dealias().coeffs
        assert gradient_part_normsq(half, dealiased[..., :n]) == pytest.approx(
            gradient_part_normsq(g, dealiased), rel=1e-13)
        assert np.array_equal(leray_project_coeffs(half, dealiased[..., :n]),
                              leray_project_coeffs(g, dealiased)[..., :n])
        visc, shift = np.exp(-0.3 * g.ksq), np.array([0.2, -0.7, 1.1][:dim])
        assert np.array_equal(integrating_factor(half, visc[..., :n], shift),
                              integrating_factor(g, visc, shift)[..., :n])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_half_layout_extends_to_conjugate_mirror(self, dim):
        g = PeriodicGrid(L=TWO_PI, dim=dim, N=8)
        n = g.N // 2 + 1
        c = to_coeffs(g.half, np.random.default_rng(dim).standard_normal((dim,) + g.shape))
        full = g.half.extend(c)
        assert full.shape == (dim,) + g.shape
        assert np.array_equal(full[..., :n], c)
        mirrored = full  # c(-m) at index m
        for ax in range(1, dim + 1):
            mirrored = np.roll(np.flip(mirrored, axis=ax), 1, axis=ax)
        assert np.array_equal(full[..., n:], np.conj(mirrored[..., n:]))
        assert SpectralField(g, full).hermitian_defect() < 1e-15

    def test_grad_l3_norm_of_unit_gradient(self):
        # u = (sin x1, cos x1) has |grad u| = 1 pointwise, so ||grad u||_L3 = L^(2/3)
        g = PeriodicGrid(L=TWO_PI, dim=2, N=16)
        x1, _ = g.coords()
        u = SpectralField.from_physical(g, np.stack([np.sin(x1), np.cos(x1)]) * np.ones(g.shape))
        assert grad_l3_norm(g, grad_samples(g, u.coeffs)) == pytest.approx(
            TWO_PI ** (2 / 3), rel=1e-12)


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
        assert pu.div_norm() < 1e-12 * u.sobolev_norm(1)

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
        recomposed = f.subtract_mean().add_constant(f.mean())
        assert np.max(np.abs(recomposed.coeffs - f.coeffs)) < 1e-15


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
            assert f.lp_norm(p) == pytest.approx(1.5 * vol ** (1 / p), rel=1e-13)
        assert f.lp_norm(np.inf) == pytest.approx(1.5)

    def test_sine_l4_closed_form(self):
        L = TWO_PI
        g = PeriodicGrid(L=L, dim=3, N=16)
        u = SpectralField.from_physical(g, np.sin(g.coords()[0]) * np.ones(g.shape))
        # integral of sin^4 over the box: (3/8) * (2 pi)^3
        assert u.lp_norm(4) ** 4 == pytest.approx(0.375 * (2 * np.pi) ** 3, rel=1e-12)

    def test_l2_agrees_with_sobolev0(self):
        rng = np.random.default_rng(12)
        g = PeriodicGrid(L=1.0, dim=2, N=16)
        for _ in range(5):
            u = random_field(g, 2, rng, band=(0, 5), mean_free=False)
            assert u.lp_norm(2) == pytest.approx(u.sobolev_norm(0), rel=1e-12)

    def test_unsupported_p(self):
        g = PeriodicGrid(L=1.0, dim=2, N=8)
        with pytest.raises(ValueError):
            SpectralField.zeros(g, 1).lp_norm(5)


class TestDealias:
    def test_retained_band_unchanged(self):
        rng = np.random.default_rng(13)
        g = PeriodicGrid(L=1.0, dim=2, N=12)
        u = random_field(g, 1, rng, band=(0, 3), mean_free=False)  # |m_a| < N/3 = 4
        assert np.max(np.abs(u.dealias().coeffs - u.coeffs)) < 1e-16

    def test_nyquist_mode_removed(self):
        g = PeriodicGrid(L=1.0, dim=2, N=8)
        c = np.zeros((1,) + g.shape, dtype=complex)
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
            modes = g.modes.reshape(2, -1).T
            a, b = u.coeffs[0].ravel(), v.coeffs[0].ravel()
            conv = np.zeros(g.shape, dtype=complex)
            for m1, x in zip(modes[a != 0], a[a != 0]):
                for m2, y in zip(modes[b != 0], b[b != 0]):
                    m = m1 + m2  # the product's mode before any wrap-around
                    if np.all(np.abs(m) < N / 2) and g.dealias_mask[tuple(m % N)]:
                        conv[tuple(m % N)] += x * y
            assert np.max(np.abs(prod.coeffs[0] - conv)) < 1e-13, N


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
        u3 = lift_2d_to_3d(SpectralField.from_physical(g2, tg), g3)
        assert np.max(np.abs(u3.coeffs[:, :, :, 1:])) == 0.0
        assert np.max(np.abs(u3.derivative((0, 0, 1)).coeffs)) == 0.0
        assert np.max(np.abs(u3.coeffs[2])) == 0.0

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


class TestStructuralProperties:
    def test_hermitian_symmetry_random(self):
        rng = np.random.default_rng(17)
        g = PeriodicGrid(L=1.0, dim=2, N=12)
        for _ in range(100):
            u = random_field(g, 2, rng, mean_free=False)
            assert u.hermitian_defect() < 1e-13

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
            r = u.lp_norm(3) / (np.sqrt(u.grad_norm_sq()) ** (1 / 3) * u.sobolev_norm(0) ** (2 / 3))
            worst = max(worst, r)
        assert np.isfinite(worst) and worst <= c32

    def test_inner_product(self):
        rng = np.random.default_rng(21)
        g = PeriodicGrid(L=2.0, dim=2, N=16)
        u = random_field(g, 2, rng, mean_free=False)
        v = random_field(g, 2, rng, mean_free=False)
        direct = g.cell_volume * np.sum(u.physical() * v.physical())
        assert inner_l2(u, v) == pytest.approx(direct, rel=1e-10, abs=1e-12)

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

    layout = re.compile(r"scipy\.fft|from scipy import fft|\.k1d\b|\.k\[|\.modes\b")
    leaks = [f"{path.name}: {m.group()}"
             for path in sorted(pathlib.Path(nsbox.__file__).parent.glob("*.py"))
             if path.name != "spectral.py"
             for m in layout.finditer(path.read_text())]
    assert not leaks
