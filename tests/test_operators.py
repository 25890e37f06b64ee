import numpy as np
import pytest

from fracsys import (DomainError, GridSpec, SampledField, SmoothedSign,
                     apply_LK, apply_LK_field, apply_fractional_laplacian,
                     apply_fractional_laplacian_field, bilinear_form,
                     bilinear_form_field, callback_rule, constant_field,
                     constant_rule, field_from_function, make_anisotropic_kernel,
                     make_custom_kernel, make_fractional_kernel, periodic_rule,
                     s_energy, sign_rule, spectral_apply, square_identity_check,
                     zero_rule)
from fracsys.quadrature import scheme_for


def periodic_grid(n=512, dim=1):
    return GridSpec(dim=dim, h=2 * np.pi / n, radius=np.pi, periodic=True)


def free_grid(h=1 / 64, radius=1.0, dim=1):
    return GridSpec(dim=dim, h=h, radius=radius)


class TestWeights:
    @pytest.mark.parametrize("s", [0.1, 0.3, 0.5, 0.7, 0.9, 0.97])
    def test_line_weights_positive(self, s):
        sch = scheme_for(make_fractional_kernel(1, s), free_grid())
        assert np.all(sch.weights[sch.weights.size // 2 + 1 :] > 0)
        assert sch.tail_mass > 0

    def test_innermost_moment_within_one_percent(self):
        for s in (0.2, 0.5, 0.9):
            sch = scheme_for(make_fractional_kernel(1, s), free_grid())
            assert sch.innermost_moment_ratio() == pytest.approx(1.0, rel=0.01)
        base = make_fractional_kernel(1, 0.6)
        cus = make_custom_kernel(lambda r: base(r) * (1.0 + 0.2 / (1.0 + r * r)),
                                 0.6, 1, base.lam * 0.99, base.Lam * 1.21)
        sch = scheme_for(cus, free_grid())
        assert sch.innermost_moment_ratio() == pytest.approx(1.0, rel=0.01)

    def test_plane_weights_positive_and_moment(self):
        sch = scheme_for(make_fractional_kernel(2, 0.5), free_grid(h=1 / 16, dim=2))
        assert np.all(sch.weights >= 0)
        assert sch.innermost_moment_ratio() == pytest.approx(1.0, rel=0.01)

    def test_torus_weights_symmetric(self):
        sch = scheme_for(make_fractional_kernel(1, 0.4), periodic_grid(64))
        W = sch.weights
        assert np.allclose(W[1:], W[1:][::-1], rtol=1e-13)


class TestApply:
    def test_constant_is_annihilated_everywhere(self):
        for grid in (free_grid(h=1 / 16), periodic_grid(64)):
            rule = periodic_rule() if grid.periodic else constant_rule([2.5])
            f = constant_field(grid, [2.5], exterior=rule)
            vals, _ = apply_LK_field(f, make_fractional_kernel(1, 0.5))
            assert np.max(np.abs(vals)) < 1e-12

    def test_linear_field_cancels_by_symmetry(self):
        grid = free_grid(h=1 / 32)
        f = field_from_function(grid, lambda p: 3.0 * p[:, 0],
                                callback_rule(lambda p: 3.0 * p[:, :1]), m=1)
        val = apply_fractional_laplacian(f, 0.5, [0.25])
        assert val == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7, 0.9])
    def test_cosine_matches_symbol(self, s):
        grid = periodic_grid(512)
        f = field_from_function(grid, lambda p: np.cos(3.0 * p[:, 0]),
                                periodic_rule(), m=1)
        lap, _ = apply_fractional_laplacian_field(f, s)
        target = 3.0 ** (2 * s) * np.cos(3.0 * grid.axis())
        assert np.max(np.abs(lap[:, 0] - target)) / 3.0 ** (2 * s) < 0.01

    def test_pointwise_matches_field(self):
        grid = free_grid(h=1 / 32)
        f = field_from_function(grid, lambda p: np.exp(-p[:, 0] ** 2), zero_rule(), m=1)
        k = make_fractional_kernel(1, 0.5)
        vals, _ = apply_LK_field(f, k)
        idx = grid.index_of([0.5])
        assert apply_LK(f, k, [0.5]) == pytest.approx(float(vals[idx][0]), rel=1e-14)

    def test_pointwise_requires_interior_node(self):
        grid = free_grid(h=1 / 8)
        f = constant_field(grid, [1.0], exterior=zero_rule())
        with pytest.raises(DomainError):
            apply_LK(f, make_fractional_kernel(1, 0.5), [1.5])

    def test_interior_profile_is_flat(self):
        # (1 - x^2)_+^s has a constant image under the order-2s operator;
        # constancy (not the value) is asserted, and the constant is
        # cross-checked at 8x resolution
        s = 0.5
        consts = []
        for h in (1 / 256, 1 / 2048):
            grid = free_grid(h=h, radius=1.0)
            f = field_from_function(
                grid, lambda p: np.maximum(1 - p[:, 0] ** 2, 0.0) ** s, zero_rule(), m=1)
            lap, _ = apply_fractional_laplacian_field(f, s)
            sel = np.abs(grid.axis()) <= 0.8
            vals = lap[sel, 0]
            assert np.std(vals) / np.mean(vals) < 0.02
            consts.append(np.mean(vals))
        assert consts[0] == pytest.approx(consts[1], rel=0.02)

    def test_smoothed_sign_identity_matches_zone_integral(self):
        # in the band the residual of the step identity reduces exactly to
        # (c/2) * integral of (1 - phi^2) against the kernel over the zone
        from scipy.integrate import quad
        from fracsys import normalization_constant

        n, s = 16, 0.5
        grid = free_grid(h=1 / (8 * n), radius=1.5)
        u = SmoothedSign(n).as_field(grid)
        lap, _ = apply_fractional_laplacian_field(u, s)
        b, _ = bilinear_form_field(u, u, make_fractional_kernel(1, s))
        x = 0.5
        idx = grid.index_of([x])
        resid = float(lap[idx][0] - u.values[idx][0] * b[idx])
        prof = SmoothedSign(n).profile
        c = normalization_constant(1, s)
        ref, _ = quad(lambda y: (1 - prof(y) ** 2) * abs(x - y) ** (-1 - 2 * s),
                      -1 / n, 1 / n, limit=200)
        assert abs(resid) == pytest.approx(0.5 * c * ref, rel=1e-3)

    def test_truncation_estimate_reporting(self):
        grid = free_grid(h=1 / 16)
        f_zero = constant_field(grid, [1.0], exterior=zero_rule())
        _, est0 = apply_LK_field(f_zero, make_fractional_kernel(1, 0.5))
        assert est0 == 0.0
        f_cb = field_from_function(grid, lambda p: np.cos(p[:, 0]),
                                   callback_rule(lambda p: np.cos(p[:, :1])), m=1)
        _, est1 = apply_LK_field(f_cb, make_fractional_kernel(1, 0.5))
        assert est1 > 0.0

    def test_truncation_estimate_sees_off_axis_data(self):
        # exterior data that vanishes on both axes but not between them
        grid = free_grid(h=1 / 8, dim=2)
        rule = callback_rule(lambda p: np.tanh(np.abs(p[:, :1] * p[:, 1:2]) / 4.0))
        u = SampledField(grid, np.zeros((*grid.shape, 1)), rule)
        k = make_fractional_kernel(2, 0.5)
        _, est_apply = apply_LK_field(u, k)
        _, est_bilinear = bilinear_form_field(u, u, k)
        assert est_apply > 0.0
        assert est_bilinear > 0.0

    def test_comparison_monotone(self):
        # u <= w with u(x0) = w(x0) forces L u(x0) <= L w(x0)
        grid = free_grid(h=1 / 64)
        x = grid.axis()
        bump = np.maximum(0.0, 0.3 - np.abs(x - 0.4)) ** 2
        u = SampledField(grid, np.cos(x)[:, None], zero_rule())
        w = SampledField(grid, (np.cos(x) + bump)[:, None], zero_rule())
        k = make_fractional_kernel(1, 0.6)
        assert apply_LK(u, k, [0.0]) <= apply_LK(w, k, [0.0]) + 1e-14


class TestBilinear:
    def test_constant_second_argument_vanishes(self):
        grid = free_grid(h=1 / 32)
        rng = np.random.default_rng(0)
        u = SampledField(grid, rng.normal(size=(*grid.shape, 1)),
                         constant_rule([0.7]))
        w = constant_field(grid, [0.7])
        b, _ = bilinear_form_field(u, w, make_fractional_kernel(1, 0.5))
        assert np.max(np.abs(b)) < 1e-13

    def test_symmetry_exact(self):
        grid = free_grid(h=1 / 32)
        rng = np.random.default_rng(1)
        u = SampledField(grid, rng.normal(size=(*grid.shape, 2)), zero_rule())
        w = SampledField(grid, rng.normal(size=(*grid.shape, 2)), zero_rule())
        k = make_fractional_kernel(1, 0.5)
        buw, _ = bilinear_form_field(u, w, k)
        bwu, _ = bilinear_form_field(w, u, k)
        assert np.array_equal(buw, bwu)

    def test_positive_for_equal_arguments(self):
        for grid, kern in (
            (free_grid(h=1 / 32), make_fractional_kernel(1, 0.3)),
            (free_grid(h=1 / 8, dim=2), make_anisotropic_kernel(np.diag([2.0, 1.0]), 0.7)),
            (periodic_grid(64), make_fractional_kernel(1, 0.8)),
        ):
            rng = np.random.default_rng(2)
            rule = periodic_rule() if grid.periodic else zero_rule()
            u = SampledField(grid, rng.normal(size=(*grid.shape, 2)), rule)
            b, _ = bilinear_form_field(u, u, kern)
            assert np.min(b) >= -1e-13 * np.max(np.abs(b))

    def test_gradient_limit_on_linear_field(self):
        # B(u, u) -> |grad u|^2 = 1 as s -> 1 for u(x) = x (truncated tail)
        grid = free_grid(h=1 / 128, radius=1.0)
        u = field_from_function(grid, lambda p: p[:, 0],
                                callback_rule(lambda p: p[:, :1]), m=1)
        b, _ = bilinear_form_field(u, u, make_fractional_kernel(1, 0.99))
        assert b[grid.index_of([0.0])] == pytest.approx(1.0, rel=0.05)

    def test_mismatched_grids_rejected(self):
        u = constant_field(free_grid(h=1 / 16), [1.0])
        w = constant_field(free_grid(h=1 / 8), [1.0])
        with pytest.raises(DomainError):
            bilinear_form_field(u, w, make_fractional_kernel(1, 0.5))

    def test_smoothed_sign_relation(self):
        # at points outside the smoothing zone, u B(u,u) equals (-Delta)^s u
        # up to the zone defect, which shrinks as the smoothing refines
        gaps = []
        for n in (8, 32):
            grid = free_grid(h=1 / (8 * n), radius=1.5)
            u = SmoothedSign(n).as_field(grid)
            k = make_fractional_kernel(1, 0.5)
            x = [0.5]
            lap = apply_fractional_laplacian(u, 0.5, x)
            b = bilinear_form(u, u, k, x)
            ux = float(u.values[grid.index_of(x)][0])
            gaps.append(abs(lap - ux * b))
        assert gaps[1] < 0.3 * gaps[0]


class TestSquareIdentity:
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7, 0.9])
    def test_exact_for_random_fields(self, s):
        from fracsys import square_identity_check

        grid = free_grid(h=1 / 32)
        rng = np.random.default_rng(int(s * 100))
        v = SampledField(grid, rng.normal(size=(*grid.shape, 1)), zero_rule())
        assert square_identity_check(v, make_fractional_kernel(1, s)) <= 1e-12

    def test_exact_on_periodic_cosine(self):
        from fracsys import square_identity_check

        grid = periodic_grid(256)
        v = field_from_function(grid, lambda p: np.cos(p[:, 0]), periodic_rule(), m=1)
        assert square_identity_check(v, make_fractional_kernel(1, 0.5)) <= 1e-12


class TestEnergy:
    def test_constant_field_has_zero_energy(self):
        f = constant_field(free_grid(h=1 / 32), [1.5])
        e = s_energy(f, 0.5)
        assert e.total == pytest.approx(0.0, abs=1e-13)

    def test_even_in_the_field(self):
        grid = free_grid(h=1 / 32)
        rng = np.random.default_rng(4)
        vals = rng.normal(size=(*grid.shape, 1))
        e1 = s_energy(SampledField(grid, vals, zero_rule()), 0.4)
        e2 = s_energy(SampledField(grid, -vals, zero_rule()), 0.4)
        assert e1.total == pytest.approx(e2.total, rel=1e-14)

    def test_componentwise_additivity(self):
        grid = free_grid(h=1 / 32)
        rng = np.random.default_rng(5)
        a = rng.normal(size=(*grid.shape, 1))
        b = rng.normal(size=(*grid.shape, 1))
        both = np.concatenate([a, b], axis=-1)
        e_pair = s_energy(SampledField(grid, both, zero_rule()), 0.5)
        e_a = s_energy(SampledField(grid, a, zero_rule()), 0.5)
        e_b = s_energy(SampledField(grid, b, zero_rule()), 0.5)
        assert e_pair.total == pytest.approx(e_a.total + e_b.total, rel=1e-12)

    def test_parts_nonnegative_and_sum(self):
        grid = free_grid(h=1 / 32)
        rng = np.random.default_rng(6)
        e = s_energy(SampledField(grid, rng.normal(size=(*grid.shape, 1)),
                                  zero_rule()), 0.5)
        assert e.interior_part >= 0 and e.tail_part >= 0
        assert e.total == e.interior_part + e.tail_part

    def test_periodic_energy(self):
        grid = periodic_grid(128)
        f = field_from_function(grid, lambda p: np.cos(p[:, 0]), periodic_rule(), m=1)
        e = s_energy(f, 0.5)
        assert e.total > 0
        e2 = s_energy(f.with_values(-np.asarray(f.values)), 0.5)
        assert e.total == pytest.approx(e2.total, rel=1e-13)

    @pytest.mark.parametrize("s", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("grid", [
        free_grid(h=1 / 32), free_grid(h=1 / 8, dim=2),
        GridSpec(dim=1, h=2 / 45, radius=1.0, periodic=True), periodic_grid(64),
        periodic_grid(32, dim=2), GridSpec(dim=2, h=2 / 33, radius=1.0, periodic=True)],
        ids=["free-1d", "free-2d", "torus-1d-45", "torus-1d-64", "torus-2d-32",
             "torus-2d-33"])
    def test_energy_is_half_the_quadratic_form(self, grid, s):
        # zero exterior data (free space) or no complement (torus): the energy
        # is (1/2) h^n sum over the domain of u (-Delta)^s u
        rng = np.random.default_rng(int(100 * s))
        inside = grid.interior_mask()
        vals = rng.normal(size=(*grid.shape, 1)) * inside[..., None]
        u = SampledField(grid, vals, periodic_rule() if grid.periodic else zero_rule())
        lap, _ = apply_fractional_laplacian_field(u, s)
        quad = 0.5 * grid.h**grid.dim * float(np.sum((vals * lap)[inside]))
        e = s_energy(u, s)
        assert e.total == pytest.approx(quad, rel=1e-12)
        if grid.periodic:
            assert e.tail_part == 0.0

    def test_truncation_estimate_for_rules_without_far_limit(self):
        grid = free_grid(h=1 / 32)
        k = make_fractional_kernel(1, 0.5)
        f_cb = field_from_function(grid, lambda p: np.cos(p[:, 0]),
                                   callback_rule(lambda p: np.cos(p[:, :1])), m=1)
        e = s_energy(f_cb, 0.5)
        _, est_b = bilinear_form_field(f_cb, f_cb, k)
        n_int = int(np.count_nonzero(grid.interior_mask()))
        assert e.truncation_estimate > 0.0
        assert e.truncation_estimate == pytest.approx(grid.h * n_int * est_b, rel=1e-14)
        f_zero = SampledField(grid, f_cb.values, zero_rule())
        assert s_energy(f_zero, 0.5).truncation_estimate == 0.0


class TestSpectral:
    def test_cosine_eigenfunction(self):
        grid = periodic_grid(128)
        f = field_from_function(grid, lambda p: np.cos(4 * p[:, 0]), periodic_rule(), m=1)
        out = spectral_apply(f, 0.5)
        assert np.allclose(np.asarray(out.values)[:, 0],
                           4.0 * np.cos(4 * grid.axis()), atol=1e-11)

    def test_constant_maps_to_zero(self):
        grid = periodic_grid(64)
        f = constant_field(grid, [2.0], exterior=periodic_rule())
        out = spectral_apply(f, 0.7)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_requires_periodic(self):
        f = constant_field(free_grid(h=1 / 16), [1.0])
        with pytest.raises(DomainError):
            spectral_apply(f, 0.5)

    def test_cross_validates_quadrature_on_random_band_limited(self):
        grid = periodic_grid(512)
        rng = np.random.default_rng(7)
        x = grid.axis()
        u = np.zeros_like(x)
        for k in range(1, 9):
            u += rng.normal() * np.cos(k * x) + rng.normal() * np.sin(k * x)
        f = SampledField(grid, u[:, None] / np.max(np.abs(u)), periodic_rule())
        lap, _ = apply_fractional_laplacian_field(f, 0.5)
        ref = np.asarray(spectral_apply(f, 0.5).values)
        assert np.max(np.abs(lap - ref)) / np.max(np.abs(ref)) < 0.01


class TestWeightSymmetry:
    def test_plane_weights_even(self):
        sch = scheme_for(make_anisotropic_kernel(np.array([[2.0, 0.5], [0.1, 1.0]]), 0.6),
                         free_grid(h=1 / 8, dim=2))
        W = sch.weights
        assert np.array_equal(W, W[::-1, ::-1])
        assert np.all(W >= 0)

    def test_line_scheme_pairs_offsets(self):
        # every weight is attached to the +/- offset pair by construction;
        # the assembled interior matrix must therefore be exactly symmetric
        from fracsys import assemble_dirichlet, zero_rule

        op = assemble_dirichlet(make_fractional_kernel(1, 0.5),
                                free_grid(h=1 / 32), zero_rule())
        assert np.array_equal(op.A, op.A.T)

    @pytest.mark.parametrize("kernel", [
        make_fractional_kernel(2, 0.5),
        make_anisotropic_kernel(np.array([[2.0, 0.5], [0.1, 1.0]]), 0.6),
    ], ids=["isotropic", "anisotropic"])
    def test_plane_assembly_exactly_symmetric(self, kernel):
        # even plane weights make the gathered interior matrix symmetric to
        # the bit, so a solver reading one triangle sees the whole of A
        from fracsys import assemble_dirichlet

        op = assemble_dirichlet(kernel, free_grid(h=1 / 8, dim=2), zero_rule())
        assert np.array_equal(op.A, op.A.T)

    def test_plane_assembly_matches_offset_gather(self):
        # reference: every entry indexed by its full (di, dj) offset pair;
        # 193 unknowns, so the blockwise gather spans several row blocks
        from fracsys import assemble_dirichlet

        kernel = make_anisotropic_kernel(np.array([[2.0, 0.5], [0.1, 1.0]]), 0.6)
        grid = free_grid(h=1 / 8, dim=2)
        op = assemble_dirichlet(kernel, grid, zero_rule())
        W = scheme_for(kernel, grid).weights
        M = W.shape[0] // 2
        ij = np.argwhere(grid.interior_mask())
        A = -W[ij[None, :, 0] - ij[:, None, 0] + M, ij[None, :, 1] - ij[:, None, 1] + M]
        off = ~np.eye(len(ij), dtype=bool)
        assert len(ij) > 128
        assert np.array_equal(op.A[off], A[off])


def custom_line_kernel():
    base = make_fractional_kernel(1, 0.5)
    return make_custom_kernel(lambda r: base(r) * (1 + 0.25 * np.tanh(r)),
                              0.5, 1, base.lam * 0.9, base.Lam * 1.3)


ONE_ARRAY_KERNELS = {
    "fractional-1d": lambda: make_fractional_kernel(1, 0.5),
    "custom-1d": custom_line_kernel,
    "fractional-2d": lambda: make_fractional_kernel(2, 0.5),
    "anisotropic-2d": lambda: make_anisotropic_kernel(np.array([[2.0, 0.5], [0.1, 1.0]]), 0.6),
}


class TestOneWeightArray:
    """L_K, B, the energy and the assembly read one offset array per scheme."""

    @staticmethod
    def _scheme(name, periodic):
        kernel = ONE_ARRAY_KERNELS[name]()
        if periodic:
            return scheme_for(kernel, periodic_grid(32, dim=kernel.dim))
        return scheme_for(kernel, free_grid(h=1 / (64 if kernel.dim == 1 else 8), dim=kernel.dim))

    @pytest.mark.parametrize("periodic", [False, True], ids=["free", "torus"])
    @pytest.mark.parametrize("name", list(ONE_ARRAY_KERNELS))
    def test_nonnegative_and_zero_at_zero_offset(self, name, periodic):
        W = self._scheme(name, periodic).weights
        assert np.all(W >= 0)
        zero = (0 if periodic else W.shape[0] // 2,) * W.ndim
        assert W[zero] == 0.0

    @pytest.mark.parametrize("name", list(ONE_ARRAY_KERNELS))
    def test_free_space_weights_exactly_even(self, name):
        W = self._scheme(name, False).weights
        assert np.array_equal(W, np.flip(W))

    @pytest.mark.parametrize("name", list(ONE_ARRAY_KERNELS))
    def test_diagonal_is_assembled_diagonal(self, name):
        from fracsys import assemble_dirichlet

        sch = self._scheme(name, False)
        op = assemble_dirichlet(sch.kernel, sch.grid, zero_rule())
        assert np.all(np.diag(op.A) == sch.diagonal())


class TestCustomPlaneKernel:
    """A custom 2-d kernel with the fractional profile c r^(-2-2s) runs the
    custom branches of the box moments, the square tail and the moment
    ratio; it must reproduce the fractional scheme."""

    @pytest.mark.parametrize("s", [0.3, 0.6])
    def test_matches_fractional_scheme(self, s):
        frac = make_fractional_kernel(2, s)
        c, p = frac.c_ns, 2.0 + 2.0 * s
        custom = make_custom_kernel(lambda r: c * r ** (-p), s, 2, frac.lam, frac.Lam)
        assert not custom.is_power_law()
        grid = free_grid(h=1 / 8, dim=2)
        a, b = scheme_for(frac, grid), scheme_for(custom, grid)
        assert np.max(np.abs(b.weights - a.weights)) <= 1e-13 * np.max(a.weights)
        assert abs(b.innermost_moment_ratio() - a.innermost_moment_ratio()) <= 1e-12
        # the custom tail samples 512 of the 8192 directions
        assert b.tail_mass == pytest.approx(a.tail_mass, rel=1e-4)
        rng = np.random.default_rng(5)
        v = SampledField(grid, rng.normal(size=(*grid.shape, 1)), zero_rule())
        assert square_identity_check(v, custom) <= 1e-12


class TestCustomLineKernel:
    """A custom 1-d kernel with the fractional profile c r^(-1-2s) runs the
    sampled-psi ray integrals of the shells, the tail and the periodic
    images; it must reproduce the fractional line scheme."""

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.6])
    @pytest.mark.parametrize("grid", [free_grid(h=1 / 32), periodic_grid(64),
                                      periodic_grid(45)], ids=["free", "N64", "N45"])
    def test_matches_fractional_scheme(self, s, grid):
        frac = make_fractional_kernel(1, s)
        c, p = frac.c_ns, 1.0 + 2.0 * s
        custom = make_custom_kernel(lambda r: c * r ** (-p), s, 1, frac.lam, frac.Lam)
        assert not custom.is_power_law()
        a, b = scheme_for(frac, grid), scheme_for(custom, grid)
        assert np.max(np.abs(b.weights - a.weights)) <= 1e-14 * np.max(a.weights)
        assert b.tail_mass == pytest.approx(a.tail_mass, rel=1e-14, abs=0.0)
        assert abs(b.innermost_moment_ratio() - a.innermost_moment_ratio()) <= 1e-14


class TestOrderExtremes:
    @pytest.mark.parametrize("s", [0.05, 0.97])
    def test_spectral_cross_check_at_order_edges(self, s):
        grid = periodic_grid(1024)
        f = field_from_function(grid, lambda p: np.cos(2 * p[:, 0]),
                                periodic_rule(), m=1)
        lap, _ = apply_fractional_laplacian_field(f, s)
        ref = np.asarray(spectral_apply(f, s).values)
        assert np.max(np.abs(lap - ref)) / np.max(np.abs(ref)) < 0.01


class TestRotatedAnisotropic:
    def _kernel(self, s=0.6):
        th = 0.5
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        return make_anisotropic_kernel(R @ np.diag([2.0, 1.0]), s)

    def test_weights_stay_nonnegative(self):
        # the mixed inner moment cannot fit signed diagonal weights here;
        # it is dropped and recorded, positivity is preserved
        sch = scheme_for(self._kernel(), free_grid(h=1 / 8, dim=2))
        assert np.all(sch.weights >= 0)
        assert sch.dropped_cross_moment >= 0

    def test_identity_and_positivity_survive(self):
        from fracsys import square_identity_check

        grid = free_grid(h=1 / 8, dim=2)
        rng = np.random.default_rng(12)
        u = SampledField(grid, rng.normal(size=(*grid.shape, 1)), zero_rule())
        k = self._kernel()
        assert square_identity_check(u, k) <= 1e-12
        b, _ = bilinear_form_field(u, u, k)
        assert np.min(b) >= -1e-13 * np.max(np.abs(b))

    def test_symbol_accuracy(self):
        # near s = 1 the operator acts as -|A^t xi|^(2s) on plane waves
        k = self._kernel(s=0.95)
        grid = GridSpec(dim=2, h=2 * np.pi / 64, radius=np.pi, periodic=True)
        v = field_from_function(grid, lambda p: np.cos(p[:, 0]), periodic_rule(), m=1)
        out, _ = apply_LK_field(v, k)
        a11 = (k.A @ k.A.T)[0, 0]
        target = -(a11 ** 0.95) * np.cos(grid.axis())[:, None] * np.ones((1, 64))
        assert np.max(np.abs(out[..., 0] - target)) / a11 ** 0.95 < 0.01


class TestCrossPathConsistency:
    def test_free_vs_periodized_on_compact_bump(self):
        # the two weight constructions evaluate the same integral up to the
        # image interactions of the periodization, which scale like P^(-1-2s)
        def bump(x):
            out = np.zeros_like(x)
            m = np.abs(x) < 1
            out[m] = np.exp(-1.0 / (1.0 - x[m] ** 2))
            return out

        h, s = 1 / 128, 0.3
        free = GridSpec(dim=1, h=h, radius=4.0, truncation_radius=64.0)
        uf = field_from_function(free, lambda p: bump(p[:, 0]), zero_rule(), m=1)
        vf, _ = apply_fractional_laplacian_field(uf, s)
        ref = float(vf[free.index_of([0.0])][0])
        gaps = []
        for R in (16.0, 32.0):
            per = GridSpec(dim=1, h=h, radius=R, periodic=True)
            up = field_from_function(per, lambda p: bump(p[:, 0]), periodic_rule(), m=1)
            vp, _ = apply_fractional_laplacian_field(up, s)
            gaps.append(abs(float(vp[per.index_of([0.0])][0]) - ref))
        assert gaps[0] < 5e-3
        assert gaps[1] < 0.45 * gaps[0]  # halving-period rate ~ 2^(-1-2s)
