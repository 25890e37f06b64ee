import numpy as np
import pytest

from fracsys import (DomainError, GridSpec, SampledField, SmoothedSign,
                     constant_field, counterexample_residual,
                     field_from_function, make_anisotropic_kernel,
                     make_custom_kernel, make_fractional_kernel, periodic_rule,
                     s_limit_anisotropic, s_limit_isotropic, sign_algebra_check,
                     square_identity_check, zero_rule)


class TestSmoothedSign:
    def test_profile_shape(self):
        phi = SmoothedSign(8)
        x = np.linspace(-2, 2, 401)
        p = phi.profile(x)
        assert np.allclose(p, -phi.profile(-x))          # odd
        assert np.max(np.abs(p)) <= 1.0 + 1e-15          # bounded by 1
        outside = np.abs(x) >= 1 / 8
        assert np.array_equal(p[outside], np.sign(x[outside]))
        inner = phi.profile(np.linspace(-1 / 8, 1 / 8, 101))
        assert np.all(np.diff(inner) >= 0)               # monotone

    def test_seam_smoothness(self):
        # value and two derivatives match at the seam: numerically C^2
        phi = SmoothedSign(4)
        eps = 1e-6
        x0 = 1 / 4
        for order in range(3):
            h = 1e-4
            stencil = np.array([-2, -1, 0, 1, 2]) * h
            coeffs = {0: [0, 0, 1, 0, 0], 1: [1, -8, 0, 8, -1], 2: [-1, 16, -30, 16, -1]}
            scale = {0: 1.0, 1: 12 * h, 2: 12 * h * h}
            left = sum(c * phi.profile(x0 - eps + t) for c, t in zip(coeffs[order], stencil)) / scale[order]
            right = sum(c * phi.profile(x0 + eps + t) for c, t in zip(coeffs[order], stencil)) / scale[order]
            assert left == pytest.approx(right, abs=1e-2 * 4**order + 1e-9)

    def test_field_requires_resolution(self):
        with pytest.raises(DomainError):
            SmoothedSign(64).as_field(GridSpec(dim=1, h=1 / 16, radius=2.0))


class TestSquareIdentity:
    def test_constant_field_vanishes(self):
        grid = GridSpec(dim=1, h=1 / 16, radius=1.0)
        v = constant_field(grid, [3.0])
        assert square_identity_check(v, make_fractional_kernel(1, 0.5)) == 0.0

    @pytest.mark.parametrize("kernel_builder", [
        lambda: make_fractional_kernel(1, 0.3),
        lambda: make_fractional_kernel(1, 0.9),
        lambda: make_custom_kernel(
            lambda r: make_fractional_kernel(1, 0.5)(r) * (1 + 0.25 * np.tanh(r)),
            0.5, 1, make_fractional_kernel(1, 0.5).lam * 0.9,
            make_fractional_kernel(1, 0.5).Lam * 1.3),
    ])
    def test_random_fields(self, kernel_builder):
        grid = GridSpec(dim=1, h=1 / 32, radius=1.0)
        rng = np.random.default_rng(0)
        v = SampledField(grid, rng.normal(size=(*grid.shape, 1)), zero_rule())
        assert square_identity_check(v, kernel_builder()) <= 1e-12

    def test_periodic_cosine(self):
        grid = GridSpec(dim=1, h=2 * np.pi / 256, radius=np.pi, periodic=True)
        v = field_from_function(grid, lambda p: np.cos(p[:, 0]), periodic_rule(), m=1)
        assert square_identity_check(v, make_fractional_kernel(1, 0.5)) <= 1e-12

    def test_anisotropic_2d(self):
        grid = GridSpec(dim=2, h=1 / 8, radius=1.0)
        rng = np.random.default_rng(1)
        v = SampledField(grid, rng.normal(size=(*grid.shape, 1)), zero_rule())
        k = make_anisotropic_kernel(np.array([[2.0, 0.5], [0.0, 1.0]]), 0.6)
        assert square_identity_check(v, k) <= 1e-12


class TestSignAlgebra:
    def test_all_four_patterns(self):
        for x in (1.0, -3.0):
            for y in (2.0, -5.0):
                assert sign_algebra_check(x, y)

    def test_misread_variant_fails_at_mixed_signs(self):
        # the single-sided form sgn(x)(sgn x - sgn y)^2 == 2 sgn(x)(sgn x - sgn y)
        # mixes the two valid identities; (-,+) distinguishes them
        px, py = -1, 1
        d = px - py
        assert px * d * d != 2 * px * d
        assert sign_algebra_check(-1.0, 1.0)   # the valid forms still hold

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            sign_algebra_check(0.0, 1.0)


class TestCounterexample:
    def test_decreases_with_smoothing(self):
        vals = [counterexample_residual(n, 0.5, (0.2, 1.0)) for n in (8, 16, 32)]
        assert vals[2] < vals[1] < vals[0]

    def test_matches_zone_integral(self):
        # independent oracle: the residual in the band equals the kernel
        # integral of (1 - phi^2) over the smoothing zone
        from scipy.integrate import quad
        from fracsys import normalization_constant

        n, s = 16, 0.8
        got = counterexample_residual(n, s, (0.25, 0.5))
        c = normalization_constant(1, s)
        prof = SmoothedSign(n).profile
        ref, _ = quad(lambda y: (1 - prof(y) ** 2) * np.abs(0.25 - y) ** (-1 - 2 * s),
                      -1 / n, 1 / n, limit=200)
        assert got == pytest.approx(0.5 * c * ref, rel=5e-3)

    def test_band_must_clear_zone(self):
        with pytest.raises(DomainError):
            counterexample_residual(8, 0.5, (0.05, 1.0))
        with pytest.raises(DomainError):
            counterexample_residual(8, 0.5, (0.3, 2.5))

    def test_insensitive_to_order(self):
        # the step identity is order independent: for each order the residual
        # is the zone defect of that order, attained at the smallest band node
        from scipy.integrate import quad
        from fracsys import normalization_constant

        n, x0 = 32, 0.30078125   # 77 h with h = 1/(8n), the first node >= 0.3
        prof = SmoothedSign(n).profile
        for s in (0.5, 0.8):
            got = counterexample_residual(n, s, (0.3, 1.0))
            ref, _ = quad(lambda y: (1 - prof(y) ** 2) * np.abs(x0 - y) ** (-1 - 2 * s),
                          -1 / n, 1 / n, limit=200)
            assert got == pytest.approx(0.5 * normalization_constant(1, s) * ref, rel=1e-3)


class TestSLimits:
    def _cos_field(self, wave, n=2048):
        grid = GridSpec(dim=1, h=2 * np.pi / n, radius=np.pi, periodic=True)
        return field_from_function(grid, lambda p: np.cos(wave * p[:, 0]),
                                   periodic_rule(), m=1)

    def test_unit_mode_error_is_pure_quadrature(self):
        rep = s_limit_isotropic(self._cos_field(1), (0.9, 0.95, 0.99))
        assert max(rep.errors) <= 1e-2

    def test_second_mode_rate_near_one(self):
        rep = s_limit_isotropic(self._cos_field(2, n=4096), (0.9, 0.95, 0.99))
        assert 0.8 <= rep.fitted_rate <= 1.2
        # symbol gap 4 - 4^s dominates the measured error
        for s, err in zip(rep.s_values, rep.errors):
            assert err == pytest.approx(4.0 - 4.0**s, rel=0.15)

    def test_linearity_of_errors(self):
        grid = GridSpec(dim=1, h=2 * np.pi / 2048, radius=np.pi, periodic=True)
        f1 = field_from_function(grid, lambda p: np.cos(2 * p[:, 0]), periodic_rule(), m=1)
        f2 = field_from_function(grid, lambda p: np.sin(3 * p[:, 0]), periodic_rule(), m=1)
        fsum = f1.with_values(np.asarray(f1.values) + np.asarray(f2.values))
        e1 = s_limit_isotropic(f1, (0.95,)).errors[0]
        e2 = s_limit_isotropic(f2, (0.95,)).errors[0]
        esum = s_limit_isotropic(fsum, (0.95,)).errors[0]
        assert esum <= e1 + e2 + 1e-12

    def test_anisotropic_identity_matrix_reduces_to_isotropic(self):
        grid = GridSpec(dim=2, h=2 * np.pi / 64, radius=np.pi, periodic=True)
        v = field_from_function(grid, lambda p: np.cos(p[:, 0]), periodic_rule(), m=1)
        iso = s_limit_isotropic(v, (0.95,))
        ani = s_limit_anisotropic(v, np.eye(2), (0.95,))
        assert ani.errors[0] == pytest.approx(iso.errors[0], rel=1e-10)

    def test_anisotropic_diag_limit(self):
        grid = GridSpec(dim=2, h=2 * np.pi / 128, radius=np.pi, periodic=True)
        v = field_from_function(grid, lambda p: np.cos(p[:, 0]), periodic_rule(), m=1)
        rep = s_limit_anisotropic(v, np.diag([2.0, 1.0]), (0.99,))
        assert rep.errors[0] / 4.0 < 0.03

    def test_rotation_matches_isotropic_field(self):
        grid = GridSpec(dim=2, h=2 * np.pi / 64, radius=np.pi, periodic=True)
        v = field_from_function(
            grid, lambda p: np.cos(p[:, 0]) * np.cos(p[:, 1]), periodic_rule(), m=1)
        th = np.pi / 4
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        iso = s_limit_anisotropic(v, np.eye(2), (0.9,))
        rot = s_limit_anisotropic(v, R, (0.9,))
        assert rot.errors[0] == pytest.approx(iso.errors[0], rel=1e-9)
