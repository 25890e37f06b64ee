import json
from dataclasses import dataclass

import numpy as np
import pytest

from fracsys import (DomainError, GridSpec, SampledField, apply_LK_field,
                     callback_rule, constant_field, constant_rule,
                     field_average, field_from_function, make_fractional_kernel,
                     parse_rule, periodic_rule, radial_projection_rule,
                     restrict_rescale, sign_rule, smallest_enclosing_ball, zero_rule)
from fracsys.reports import canonical_json
from fracsys.fields import _ball_node_values


def _grid(h=1 / 64, radius=1.0, dim=1):
    return GridSpec(dim=dim, h=h, radius=radius)


# Test-local oracle: the full per-ball image statistics, mean, oscillation and
# smallest enclosing ball of the node values; probe.dyadic_ledger reports the
# enclosing balls and the finest mean without the diameter.
@dataclass(frozen=True)
class BallStat:
    """Image statistics of a field over a ball: mean, oscillation (diameter
    of the image set) and the smallest ball enclosing the sampled values."""

    center: np.ndarray
    radius: float
    mean: np.ndarray
    osc: float
    enclosing_center: np.ndarray
    enclosing_radius: float


def _diameter(vals):
    # exact max pairwise distance, chunked to bound memory
    best = 0.0
    step = 512
    for i in range(0, len(vals), step):
        chunk = vals[i : i + step]
        d2 = np.sum((chunk[:, None, :] - vals[None, :, :]) ** 2, axis=-1)
        best = max(best, float(np.max(d2)))
    return float(np.sqrt(best))


def ball_image_stats(u: SampledField, ball) -> BallStat:
    """Mean, oscillation and smallest enclosing ball of u over ball nodes."""
    center, radius = ball
    vals = _ball_node_values(u, center, radius)
    ec, er = smallest_enclosing_ball(vals)
    return BallStat(
        center=np.atleast_1d(np.asarray(center, dtype=float)),
        radius=float(radius),
        mean=vals.mean(axis=0),
        osc=_diameter(vals),
        enclosing_center=ec,
        enclosing_radius=er,
    )


class TestGridSpec:
    def test_defaults_and_invariants(self):
        g = _grid()
        assert g.truncation_radius == pytest.approx(4.0)
        assert g.extent == pytest.approx(2.0)
        with pytest.raises(DomainError):
            GridSpec(dim=1, h=-0.1, radius=1.0)
        with pytest.raises(DomainError):
            GridSpec(dim=1, h=0.1, radius=1.0, truncation_radius=2.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["h", "radius", "truncation_radius"])
    def test_refuses_non_finite_sizes(self, name, value):
        sizes = {"h": 0.1, "radius": 1.0, "truncation_radius": 4.0, name: value}
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            GridSpec(dim=1, **sizes)

    @pytest.mark.parametrize("x", [[0.0], [0.0, 0.0, 0.0]], ids=["short", "long"])
    def test_index_of_needs_one_coordinate_per_dimension(self, x):
        g = _grid(h=1 / 8, dim=2)
        assert g.index_of([0.0, 0.0]) == (16, 16)
        with pytest.raises(DomainError, match="dimension 2"):
            g.index_of(x)

    def test_nodes_cover_ball_and_collar(self):
        g = _grid(h=1 / 8)
        ax = g.axis()
        assert ax.min() <= -2.0 + 1e-12 and ax.max() >= 2.0 - 1e-12
        assert 0.0 in ax

    def test_periodic_layout(self):
        g = GridSpec(dim=1, h=2 * np.pi / 16, radius=np.pi, periodic=True)
        ax = g.axis()
        assert ax.size == 16
        assert ax[0] == pytest.approx(-np.pi)
        with pytest.raises(DomainError):
            GridSpec(dim=1, h=1.0, radius=np.pi, periodic=True)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_periodic_grid_refuses_truncation_radius(self, dim):
        with pytest.raises(DomainError, match="truncation_radius"):
            GridSpec(dim=dim, h=2 * np.pi / 16, radius=np.pi, truncation_radius=8 * np.pi,
                     periodic=True)
        # the default 4R, given explicitly, is still accepted
        g = GridSpec(dim=dim, h=2 * np.pi / 16, radius=np.pi, truncation_radius=4 * np.pi,
                     periodic=True)
        assert g == GridSpec(dim=dim, h=2 * np.pi / 16, radius=np.pi, periodic=True)

    @pytest.mark.parametrize("dim,h,radius", [
        (dim, h, radius) for dim, fine in ((1, 1 / 4096), (2, 1 / 256))
        for h, radius in ((1 / 8, 0.625), (0.2, 1.0), (1 / 3, 1.0), (fine, 1.0))])
    def test_interior_mask_matches_points(self, monkeypatch, dim, h, radius):
        g = _grid(h=h, radius=radius, dim=dim)
        pts = g.points()
        r = np.sqrt(np.sum(pts * pts, axis=-1))
        ref = r < g.radius - 1e-12
        # nodes on the sphere (3-4-5 triples, the axis ends) are in the case
        assert np.min(np.abs(r - g.radius)) <= 1e-12
        monkeypatch.setattr(GridSpec, "points", None)  # the mask needs no points
        assert np.array_equal(g.interior_mask(), ref)

    def test_index_of(self):
        g = _grid(h=0.25)
        assert g.points()[g.index_of([0.5])][0] == pytest.approx(0.5)
        with pytest.raises(DomainError):
            g.index_of([0.3])


class TestSampledField:
    def test_rejects_nonfinite(self):
        g = _grid(h=0.25)
        vals = np.zeros((*g.shape, 1))
        vals[0] = np.nan
        with pytest.raises(DomainError):
            SampledField(g, vals, zero_rule())

    def test_bound_enforced(self):
        g = _grid(h=0.25)
        vals = np.full((*g.shape, 1), 2.0)
        with pytest.raises(DomainError):
            SampledField(g, vals, zero_rule(), bound=1.0)
        SampledField(g, vals, zero_rule(), bound=2.0)

    @pytest.mark.parametrize("extra", [(2, 3), (1, 1)], ids=["2x3", "1x1"])
    def test_rejects_more_than_one_trailing_axis(self, extra):
        # a (33, 2, 3) array would read as m = 3 and fail later in numpy
        g = _grid(h=1 / 16)
        with pytest.raises(DomainError, match="does not match grid"):
            SampledField(g, np.zeros((*g.shape, *extra)), zero_rule())
        assert SampledField(g, np.zeros((*g.shape, 3)), zero_rule()).m == 3

    def test_values_immutable(self):
        f = constant_field(_grid(h=0.25), [1.0, 0.0])
        with pytest.raises(ValueError):
            np.asarray(f.values)[0, 0] = 3.0

    def test_value_at_interpolates_and_uses_rule(self):
        g = _grid(h=0.25)
        f = field_from_function(g, lambda p: p[:, 0], callback_rule(lambda p: p[:, :1]), m=1)
        assert f.value_at([[0.13]])[0, 0] == pytest.approx(0.13, abs=1e-12)
        assert f.value_at([[7.5]])[0, 0] == pytest.approx(7.5)

    def test_periodic_wrap(self):
        g = GridSpec(dim=1, h=2 * np.pi / 64, radius=np.pi, periodic=True)
        f = field_from_function(g, lambda p: np.cos(p[:, 0]), periodic_rule(), m=1)
        assert f.value_at([[2 * np.pi]])[0, 0] == pytest.approx(1.0, abs=1e-3)

    def test_rule_names(self):
        assert parse_rule("zero").kind == "zero"
        rule = parse_rule("constant:[1.0,2.0]")
        assert rule.kind == "constant"
        assert np.array_equal(rule.limit(None, 2), [1.0, 2.0])
        assert parse_rule("sign").kind == "sign"
        assert parse_rule("radial_projection").kind == "radial_projection"
        with pytest.raises(DomainError):
            parse_rule("nope")

    def test_sign_rule_is_one_dimensional(self):
        with pytest.raises(DomainError):
            sign_rule().values(np.zeros((3, 2)), 1)


class TestRadialProjectionRule:
    def test_values_are_unit_directions(self):
        pts = np.array([[3.0, 4.0], [-2.0, 0.0], [0.5, -0.5]])
        got = radial_projection_rule().values(pts, 2)
        assert np.array_equal(got, pts / np.linalg.norm(pts, axis=1, keepdims=True))
        assert radial_projection_rule().far_limits(2) is None

    def test_origin_rejected(self):
        with pytest.raises(DomainError, match="origin"):
            radial_projection_rule().values(np.array([[1.0, 0.0], [0.0, 0.0]]), 2)

    def test_component_count_must_equal_dimension(self):
        with pytest.raises(DomainError):
            radial_projection_rule().values(np.array([[3.0, 4.0]]), 1)
        with pytest.raises(DomainError):
            radial_projection_rule().values(np.array([[2.0]]), 2)
        # through an operator: a scalar 2-d field with radial data
        grid = _grid(h=1 / 4, dim=2)
        u = SampledField(grid, np.zeros((*grid.shape, 1)), radial_projection_rule())
        with pytest.raises(DomainError):
            apply_LK_field(u, make_fractional_kernel(2, 0.5))


class TestMappedRule:
    def test_constant_far_field_is_mapped_along(self):
        rule = constant_rule([0.5, -2.0]).mapped(lambda v: v[:, 1:2], 2)
        assert np.array_equal(rule.values(np.ones((3, 1)), 1), np.full((3, 1), -2.0))
        assert np.array_equal(rule.far_limits(1)(np.array([1.0])), [-2.0])
        assert rule.kind == "constant"
        assert np.array_equal(rule.limit(None, 1), [-2.0])

    def test_sign_squared_has_unit_limits(self):
        rule = sign_rule().mapped(lambda v: v**2, 1)
        assert np.array_equal(rule.values(np.array([[-3.0], [5.0]]), 1), [[1.0], [1.0]])
        for d in (-1.0, 1.0):
            assert np.array_equal(rule.far_limits(1)(np.array([d])), [1.0])

    def test_callback_stays_without_limit(self):
        rule = callback_rule(lambda p: np.stack([p[:, 0], 2 * p[:, 0]], axis=-1))
        comp = rule.mapped(lambda v: v[:, 1:2], 2)
        assert np.array_equal(comp.values(np.array([[1.5]]), 1), [[3.0]])
        assert comp.far_limits(1) is None

    def test_component_keeps_the_periodic_rule(self):
        grid = GridSpec(dim=1, h=2 * np.pi / 16, radius=np.pi, periodic=True)
        u = SampledField(grid, np.ones((16, 2)), periodic_rule())
        assert u.component(1).exterior.kind == "periodic"

    def test_map_of_zero_to_nonzero_is_constant(self):
        # the map takes the value 2 everywhere, so the rule is no longer "zero"
        rule = zero_rule().mapped(lambda v: v + 2.0, 1)
        assert rule.kind == "constant"
        assert np.array_equal(rule.limit(None, 1), [2.0])
        assert np.array_equal(rule.values(np.array([[3.0], [-7.0]]), 1), [[2.0], [2.0]])
        assert np.array_equal(rule.far_limits(1)(np.array([1.0])), [2.0])
        g = _grid(h=1 / 8)
        field = SampledField(g, np.full((*g.shape, 1), 2.0), rule)
        assert json.loads(canonical_json(field))["exterior"] == "constant"

    def test_maps_to_zero_keep_their_kind(self):
        assert zero_rule().mapped(lambda v: v**2, 1).kind == "zero"
        tripled = zero_rule().mapped(lambda v: 3.0 * v, 2)
        assert tripled.kind == "zero"
        assert np.array_equal(tripled.limit(None, 2), [0.0, 0.0])
        g = _grid(h=1 / 8)
        u = SampledField(g, np.zeros((*g.shape, 2)), zero_rule())
        assert u.component(1).exterior.kind == "zero"

    def test_map_of_constant_stays_constant(self):
        assert constant_rule([1.0]).mapped(lambda v: v - 1.0, 1).kind == "constant"
        assert constant_field(_grid(h=1 / 8), [1.0, 0.0]).component(1).exterior.kind == "constant"
        assert np.array_equal(constant_rule([-3.0]).mapped(lambda v: v**2, 1).limit(None, 1),
                              [9.0])


class TestFieldAverage:
    def test_constant(self):
        f = constant_field(_grid(), [3.0, -1.0])
        assert np.allclose(field_average(f, (np.zeros(1), 0.5)), [3.0, -1.0])

    def test_odd_function_cancels(self):
        g = _grid()
        f = field_from_function(g, lambda p: p[:, 0], zero_rule(), m=1)
        assert field_average(f, (np.zeros(1), 0.75))[0] == pytest.approx(0.0, abs=1e-14)

    def test_square_profile_matches_integral(self):
        # independent closed form: mean of x^2 over [-1, 1] is 1/3
        g = _grid(h=1 / 512)
        f = field_from_function(g, lambda p: p[:, 0] ** 2, zero_rule(), m=1)
        assert field_average(f, (np.zeros(1), 1.0))[0] == pytest.approx(1 / 3, abs=2e-3)

    def test_empty_ball_rejected(self):
        g = _grid(h=0.5)
        f = constant_field(g, [1.0])
        with pytest.raises(DomainError):
            field_average(f, (np.array([0.2]), 0.01))

    def test_linear_in_field(self):
        g = _grid(h=1 / 32)
        rng = np.random.default_rng(0)
        a = rng.normal(size=(*g.shape, 2))
        b = rng.normal(size=(*g.shape, 2))
        fa = SampledField(g, a, zero_rule())
        fb = SampledField(g, b, zero_rule())
        fab = SampledField(g, a + 2.0 * b, zero_rule())
        ball = (np.zeros(1), 0.6)
        assert np.allclose(field_average(fab, ball),
                           field_average(fa, ball) + 2.0 * field_average(fb, ball),
                           rtol=1e-12)


class TestBallImageStats:
    def test_constant_field(self):
        f = constant_field(_grid(), [0.5, 0.5])
        st = ball_image_stats(f, (np.zeros(1), 0.5))
        assert st.enclosing_radius == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(st.enclosing_center, [0.5, 0.5])
        assert st.osc == pytest.approx(0.0, abs=1e-14)

    def test_sign_straddling_origin(self):
        g = _grid(h=1 / 64)
        f = field_from_function(g, lambda p: np.sign(p[:, 0]), sign_rule(), m=1)
        st = ball_image_stats(f, (np.zeros(1), 0.5))
        assert st.enclosing_radius == pytest.approx(1.0, rel=1e-12)
        assert st.enclosing_center[0] == pytest.approx(0.0, abs=1e-12)
        assert st.osc == pytest.approx(2.0, rel=1e-12)

    def test_enclosure_contains_all_values(self):
        g = _grid(h=1 / 32)
        rng = np.random.default_rng(3)
        f = SampledField(g, rng.normal(size=(*g.shape, 2)), zero_rule())
        st = ball_image_stats(f, (np.zeros(1), 0.9))
        pts = g.points().reshape(-1, 1)
        sel = np.abs(pts[:, 0]) <= 0.9 + 1e-12
        vals = np.asarray(f.values).reshape(-1, 2)[sel]
        d = np.linalg.norm(vals - st.enclosing_center, axis=1)
        assert np.max(d) <= st.enclosing_radius * (1 + 1e-12)
        assert st.osc <= 2 * st.enclosing_radius * (1 + 1e-12)
        assert vals[:, 0].min() - 1e-12 <= st.mean[0] <= vals[:, 0].max() + 1e-12


class TestRestrictRescale:
    def test_identity(self):
        g = _grid(h=1 / 32)
        f = field_from_function(g, lambda p: np.sin(p[:, 0]),
                                callback_rule(lambda p: np.sin(p[:, :1])), m=1)
        r = restrict_rescale(f, 1.0, 1.0)
        assert np.allclose(np.asarray(r.values), np.asarray(f.values), atol=1e-13)

    def test_bound_scales(self):
        f = constant_field(_grid(h=1 / 16), [0.5])
        assert f.bound == 0.5
        r = restrict_rescale(f, 2.0, 1.0)
        assert r.bound == pytest.approx(1.0)

    def test_linear_closed_form(self):
        g = _grid(h=1 / 64)
        f = field_from_function(g, lambda p: p[:, 0],
                                callback_rule(lambda p: p[:, :1]), m=1)
        r = restrict_rescale(f, 3.0, 2.0)
        ax = g.axis()
        assert np.allclose(np.asarray(r.values)[:, 0], 6.0 * ax, atol=1e-10)

    def test_composition(self):
        g = _grid(h=1 / 64)
        f = field_from_function(g, lambda p: np.sin(p[:, 0]),
                                callback_rule(lambda p: np.sin(p[:, :1])), m=1)
        a = restrict_rescale(restrict_rescale(f, 2.0, 0.5), 3.0, 1.5)
        b = restrict_rescale(f, 6.0, 0.75)
        assert np.allclose(np.asarray(a.values), np.asarray(b.values), atol=1e-4)

    def test_rejects_bad_scale_and_periodic(self):
        f = constant_field(_grid(h=1 / 16), [1.0])
        with pytest.raises(DomainError):
            restrict_rescale(f, 1.0, -2.0)
        gp = GridSpec(dim=1, h=2 * np.pi / 16, radius=np.pi, periodic=True)
        fp = field_from_function(gp, lambda p: np.cos(p[:, 0]), periodic_rule(), m=1)
        with pytest.raises(DomainError):
            restrict_rescale(fp, 1.0, 0.5)


class TestTwoDimensionalFields:
    def test_restrict_rescale_bilinear(self):
        g = GridSpec(dim=2, h=1 / 16, radius=1.0)
        f = field_from_function(
            g, lambda p: p[:, 0] + 2 * p[:, 1],
            callback_rule(lambda p: (p[:, 0] + 2 * p[:, 1])[:, None]), m=1)
        r = restrict_rescale(f, 2.0, 0.5)
        pts = g.points().reshape(-1, 2)
        assert np.allclose(np.asarray(r.values).reshape(-1),
                           pts[:, 0] + 2 * pts[:, 1], atol=1e-10)

    def test_ball_stats_2d(self):
        g = GridSpec(dim=2, h=1 / 16, radius=1.0)
        f = field_from_function(g, lambda p: p[:, 0], zero_rule(), m=1)
        st = ball_image_stats(f, (np.zeros(2), 0.5))
        assert st.enclosing_radius == pytest.approx(0.5, rel=1e-10)
