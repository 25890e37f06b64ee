import numpy as np
import pytest

from fracsys import (DomainError, GridSpec, apply_LK_field, callback_rule,
                     constant_rule, field_from_function, kernel_bounds_check,
                     make_anisotropic_kernel, make_custom_kernel,
                     make_fractional_kernel, normalization_constant,
                     normalization_limit, periodic_rule, spectral_apply,
                     apply_fractional_laplacian_field, zero_rule)


class TestNormalization:
    def test_half_order_line_value(self):
        # the order-1 operator on the line carries the classical 1/pi
        assert normalization_constant(1, 0.5) == pytest.approx(1.0 / np.pi, rel=1e-14)

    def test_positive_and_continuous_on_s_grid(self):
        # monotone sampling: refining the s grid shrinks the largest jump
        jumps = []
        for npts in (200, 400, 800):
            s_grid = np.linspace(0.05, 0.99, npts)
            vals = np.array([normalization_constant(2, s) for s in s_grid])
            assert np.all(vals > 0)
            jumps.append(np.max(np.abs(np.diff(vals))))
        assert jumps[2] < jumps[1] < jumps[0]
        assert jumps[2] < 0.75 * jumps[0]

    def test_limit_matches_constant_over_one_minus_s(self):
        for n in (1, 2, 3):
            near_one = normalization_constant(n, 0.999) / (1.0 - 0.999)
            assert near_one == pytest.approx(normalization_limit(n), rel=5e-3)

    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            normalization_constant(1, 1.5)
        with pytest.raises(DomainError):
            normalization_constant(0, 0.5)

    def test_spectral_oracle_cross_validation_2d(self):
        # derived check: the gamma closed form for (n=2, s=0.75) must make the
        # discretized operator act as the |k|^(2s) multiplier on cos(k . x)
        s = 0.75
        grid = GridSpec(dim=2, h=2 * np.pi / 128, radius=np.pi, periodic=True)
        v = field_from_function(grid, lambda p: np.cos(p[:, 0] + 2 * p[:, 1]),
                                periodic_rule(), m=1)
        lap, _ = apply_fractional_laplacian_field(v, s)
        target = np.asarray(spectral_apply(v, s).values)
        num = float(np.max(np.abs(lap - target)))
        assert num / 5.0**s < 0.01


class TestFractionalKernel:
    def test_profile_power(self):
        k = make_fractional_kernel(1, 0.5)
        y = np.array([0.25, 0.5, 1.0, 2.0])
        # |y|^(-2) profile at n=1, s=1/2
        assert np.allclose(k(y) * y**2, k(np.array([1.0])), rtol=1e-14)

    def test_even_bit_exact(self):
        k = make_fractional_kernel(1, 0.37)
        y = np.linspace(0.01, 3.0, 57)
        assert np.array_equal(k(y), k(-y))

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            make_fractional_kernel(1, 0.0)
        with pytest.raises(DomainError):
            make_fractional_kernel(0, 0.5)

    def test_bounds_hold_with_equality(self):
        k = make_fractional_kernel(2, 0.6)
        pts = np.random.default_rng(0).normal(size=(40, 2))
        rep = kernel_bounds_check(k, pts)
        assert rep["symmetric"] and rep["within_bounds"]
        assert rep["worst_ratio"] == pytest.approx(1.0, abs=1e-12)


class TestAnisotropicKernel:
    def test_identity_matrix_reduces_to_fractional(self):
        ka = make_anisotropic_kernel(np.eye(2), 0.8)
        kf = make_fractional_kernel(2, 0.8)
        pts = np.random.default_rng(1).normal(size=(30, 2))
        assert np.allclose(ka(pts), kf(pts), rtol=1e-13)
        assert ka.lam == pytest.approx(kf.lam, rel=1e-13)

    def test_rotation_is_isotropic(self):
        th = 0.7
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        ka = make_anisotropic_kernel(R, 0.5)
        kf = make_fractional_kernel(2, 0.5)
        pts = np.random.default_rng(2).normal(size=(30, 2))
        assert np.allclose(ka(pts), kf(pts), rtol=1e-12)

    def test_ellipticity_from_singular_values_matches_sphere_search(self):
        A = np.array([[2.0, 0.3], [0.0, 1.0]])
        s = 0.9
        ka = make_anisotropic_kernel(A, s)
        # independent extremization of K(e) |e|^{n+2s} / (1-s) over directions
        th = np.linspace(0, 2 * np.pi, 20001)
        e = np.stack([np.cos(th), np.sin(th)], axis=-1)
        scaled = ka(e) / (1.0 - s)
        assert ka.lam == pytest.approx(float(np.min(scaled)), rel=1e-6)
        assert ka.Lam == pytest.approx(float(np.max(scaled)), rel=1e-6)
        rep = kernel_bounds_check(ka, np.random.default_rng(3).normal(size=(50, 2)))
        assert rep["within_bounds"]

    def test_singular_matrix_rejected(self):
        with pytest.raises(DomainError):
            make_anisotropic_kernel(np.array([[1.0, 2.0], [2.0, 4.0]]), 0.5)

    @pytest.mark.parametrize("a", [1.7, -0.6])
    def test_one_dimensional_matrix_scales_the_fractional_kernel(self, a):
        # K(y) = c / (|a| |y/a|^(1+2s)) = |a|^(2s) times the fractional kernel
        s = 0.6
        ka = make_anisotropic_kernel([[a]], s)
        kf = make_fractional_kernel(1, s)
        y = np.array([-2.5, -0.1, 0.3, 1.0, 4.0])
        assert np.allclose(ka(y), abs(a) ** (2 * s) * kf(y), rtol=1e-13, atol=0.0)
        assert np.array_equal(ka(y), ka(-y))
        assert ka(0.5) == pytest.approx(abs(a) ** (2 * s) * kf(0.5), rel=1e-13)

    @pytest.mark.parametrize("rule", [zero_rule(), constant_rule([0.4]),
                                      callback_rule(lambda p: np.cos(2.0 * p))],
                             ids=["zero", "constant", "callback"])
    @pytest.mark.parametrize("s", [0.3, 0.8])
    def test_one_dimensional_anisotropic_apply(self, rule, s):
        a = 1.7
        grid = GridSpec(dim=1, h=1 / 64, radius=1.0)
        u = field_from_function(grid, lambda p: np.exp(-p[:, :1] ** 2), rule, m=1)
        va, ea = apply_LK_field(u, make_anisotropic_kernel([[a]], s))
        vf, ef = apply_LK_field(u, make_fractional_kernel(1, s))
        scale = abs(a) ** (2 * s)
        assert np.max(np.abs(va - scale * vf)) <= 1e-12 * np.max(np.abs(scale * vf))
        assert ea == pytest.approx(scale * ef, rel=1e-12)


class TestNormEvaluation:
    """K is evaluated from the squared A^-1-norm; it must match the closed
    forms c |y|^-(n+2s), c / (det A |A^-1 y|^(n+2s)) and profile(|y|)."""

    ROT = [[2.0 * np.cos(0.5), -np.sin(0.5)], [2.0 * np.sin(0.5), np.cos(0.5)]]

    @pytest.mark.parametrize("dim,matrix", [(1, None), (1, [[-0.6]]), (2, None),
                                            (2, ROT)], ids=["1d", "1d-A", "2d", "2d-A"])
    @pytest.mark.parametrize("s", [0.2, 0.9])
    def test_matches_closed_form(self, dim, matrix, s):
        rng = np.random.default_rng(4)
        y = rng.normal(size=(50, dim)) * np.exp(rng.uniform(-3, 3, size=(50, 1)))
        if dim == 1:
            y = y[:, 0]
        if matrix is None:
            k = make_fractional_kernel(dim, s)
            z, det = y, 1.0
        else:
            k = make_anisotropic_kernel(matrix, s)
            A = np.asarray(matrix)
            z = y / A[0, 0] if dim == 1 else y @ np.linalg.inv(A).T
            det = abs(np.linalg.det(A))
        r = np.abs(z) if dim == 1 else np.linalg.norm(z, axis=-1)
        ref = k.c_ns / (det * r ** (dim + 2 * s))
        assert np.allclose(k(y), ref, rtol=4e-15, atol=0.0)
        custom = make_custom_kernel(lambda rr: np.cos(rr) + 2.0, s, dim, 1.0, 3.0)
        rr = np.abs(y) if dim == 1 else np.linalg.norm(y, axis=-1)
        assert np.allclose(custom(y), np.cos(rr) + 2.0, rtol=1e-15, atol=0.0)


class TestBoundsCheck:
    def test_below_lower_bound_detected(self):
        base = make_fractional_kernel(1, 0.5)
        c_n = base.lam
        half = make_custom_kernel(lambda r: 0.5 * base(r), 0.5, 1, c_n, c_n)
        rep = kernel_bounds_check(half, np.array([0.3, 0.9, 2.1]))
        assert not rep["within_bounds"]
        assert rep["worst_ratio"] == pytest.approx(2.0, rel=1e-12)

    def test_empty_samples_rejected(self):
        with pytest.raises(DomainError):
            kernel_bounds_check(make_fractional_kernel(1, 0.5), np.array([]))

    def test_origin_rejected(self):
        with pytest.raises(DomainError):
            kernel_bounds_check(make_fractional_kernel(1, 0.5), np.array([0.0, 1.0]))
