"""Sampled vector fields on uniform grids with analytic exterior data.

A field u: R^n -> R^m is represented by node values on a uniform Cartesian
grid covering the interior ball B_R(0) plus a collar of equal width, and by
an exterior rule that evaluates u analytically everywhere beyond the stored
nodes.  The rule is a rule, not stored samples: tail quadrature queries it at
exact points arbitrarily far out.  A rule is a value function plus, when the
field tends to a constant far out, that far limit; ExteriorRule.mapped carries
both through a pointwise map (a component, a square), so no caller branches
on the kind of rule.

Grids are centered at the origin.  Non-periodic grids keep every node x with
|x|_inf <= 2R (interior ball plus collar); periodic grids keep one period
[-R, R) per axis and wrap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError

__all__ = [
    "GridSpec",
    "ExteriorRule",
    "SampledField",
    "zero_rule",
    "constant_rule",
    "sign_rule",
    "radial_projection_rule",
    "callback_rule",
    "periodic_rule",
    "parse_rule",
    "field_from_function",
    "constant_field",
    "field_average",
    "restrict_rescale",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid over the interior ball B_R(0).

    h is the spacing, radius the interior-ball radius R, truncation_radius
    the outer cutoff for tail quadrature (at least 4R).  Periodic grids hold
    one period of length 2R per axis; their images are summed exactly, so
    they accept only the default truncation_radius 4R.
    """

    dim: int
    h: float
    radius: float
    truncation_radius: float = 0.0
    periodic: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError(f"dimension must be >= 1, got {self.dim}")
        for name in ("h", "radius", "truncation_radius"):
            if not np.isfinite(getattr(self, name)):
                raise DomainError(f"grid {name} must be finite, got {getattr(self, name)}")
        if self.h <= 0:
            raise DomainError("grid spacing must be positive")
        if self.radius <= 0:
            raise DomainError("interior radius must be positive")
        if self.truncation_radius == 0.0:
            object.__setattr__(self, "truncation_radius", 4.0 * self.radius)
        if self.truncation_radius < 4.0 * self.radius - 1e-12:
            raise DomainError("truncation_radius must be at least 4 * radius")
        if self.periodic:
            if self.truncation_radius > 4.0 * self.radius + 1e-12:
                raise DomainError("periodic grids sum their images exactly and "
                                  "take no truncation_radius")
            n = self.period / self.h
            if abs(n - round(n)) > 1e-9 or round(n) < 4:
                raise DomainError("periodic grid needs h dividing the period 2R")

    @property
    def period(self) -> float:
        return 2.0 * self.radius

    @property
    def extent(self) -> float:
        """Outermost stored-node coordinate magnitude."""
        if self.periodic:
            return self.radius
        return 2.0 * self.radius

    def axis(self) -> np.ndarray:
        if self.periodic:
            n = int(round(self.period / self.h))
            return -self.radius + self.h * np.arange(n)
        k = int(np.floor(self.extent / self.h + 1e-9))
        return self.h * np.arange(-k, k + 1)

    @property
    def shape(self) -> tuple:
        return (self.axis().size,) * self.dim

    def points(self) -> np.ndarray:
        """All node coordinates, shape (*shape, dim)."""
        return np.stack(np.meshgrid(*([self.axis()] * self.dim), indexing="ij"), axis=-1)

    def interior_mask(self) -> np.ndarray:
        """Nodes strictly inside the interior ball (Euclidean); all on the torus."""
        if self.periodic:
            return np.ones(self.shape, dtype=bool)
        # x*x + y*y as in np.sum over points(), without building the points
        r2 = sum(x * x for x in np.meshgrid(*([self.axis()] * self.dim), indexing="ij",
                                            sparse=True))
        return np.sqrt(r2) < self.radius - 1e-12

    def index_of(self, x) -> tuple:
        """Grid index of the node at coordinate x; DomainError off-node or
        when x does not have one coordinate per grid dimension."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.dim,):
            raise DomainError(f"{x} has {x.size} coordinates; the grid has "
                              f"dimension {self.dim}")
        ax = self.axis()
        idx = []
        for c in x:
            i = (c - ax[0]) / self.h
            if abs(i - round(i)) > 1e-6 or not (0 <= round(i) < ax.size):
                raise DomainError(f"{x} is not a grid node")
            idx.append(int(round(i)))
        return tuple(idx)


@dataclass(frozen=True)
class ExteriorRule:
    """Analytic values of a field outside the stored nodes.

    fn(points (k, dim), m) -> (k, m) gives the values.  limit(direction, m),
    when set, is the constant the field tends to along the ray `direction`
    beyond any finite radius; tail quadrature pairs it with the closed-form
    kernel mass.  kind names the factory: "zero", "constant" (value vector),
    "sign" (the one-dimensional +/-1 step), "radial_projection" (x/|x|,
    m = dim), "callback" (fn(points) -> (k, m)) or "periodic" (no free-space
    values).
    """

    kind: str
    fn: Callable
    limit: Optional[Callable] = None

    def values(self, points: np.ndarray, m: int) -> np.ndarray:
        """Evaluate at points (k, dim) -> (k, m)."""
        return self.fn(np.atleast_2d(np.asarray(points, dtype=float)), m)

    def far_limits(self, m: int):
        """The far limit as a callable direction -> limit vector, or None
        when the rule has no closed-form far field."""
        if self.limit is None:
            return None
        return lambda direction: self.limit(direction, m)

    def mapped(self, f: Callable, m: int) -> "ExteriorRule":
        """The rule with values f(v), v the (k, m) values of this rule, of the
        same kind; a far limit is mapped along, so a constant far field stays
        closed form.  A map of the zero or a constant rule is the constant
        rule of the mapped value, and keeps the kind "zero" only when that
        value is zero."""
        lim, kind = self.limit, self.kind
        # the limit of the zero rule ignores the direction
        if kind == "zero" and np.any(f(lim(None, m)[None, :])[0] != 0.0):
            kind = "constant"
        return ExteriorRule(
            kind, lambda pts, _: f(self.fn(pts, m)),
            None if lim is None else lambda d, _: f(lim(d, m)[None, :])[0])


def zero_rule() -> ExteriorRule:
    return ExteriorRule("zero", lambda pts, m: np.zeros((pts.shape[0], m)),
                        lambda d, m: np.zeros(m))


def constant_rule(vec) -> ExteriorRule:
    g = np.atleast_1d(np.array(vec, float))
    g.setflags(write=False)
    return ExteriorRule("constant",
                        lambda pts, m: np.repeat(g.reshape(1, m), pts.shape[0], axis=0),
                        lambda d, m: g)


def _sign_values(pts, m):
    if pts.shape[1] != 1 or m != 1:
        raise DomainError("sign rule is scalar and one-dimensional")
    return np.sign(pts[:, :1])


def sign_rule() -> ExteriorRule:
    return ExteriorRule("sign", _sign_values,
                        lambda d, m: np.sign(np.atleast_1d(d)[:1]))


def _radial_values(pts, m):
    if m != pts.shape[1]:
        raise DomainError(f"radial projection needs m = dim, got m={m}, "
                          f"dim={pts.shape[1]}")
    r = np.linalg.norm(pts, axis=1, keepdims=True)
    if np.any(r == 0.0):
        raise DomainError("radial projection undefined at the origin")
    return pts / r


def radial_projection_rule() -> ExteriorRule:
    return ExteriorRule("radial_projection", _radial_values)


def callback_rule(fn) -> ExteriorRule:
    def values(pts, m):
        out = np.asarray(fn(pts), dtype=float).reshape(pts.shape[0], m)
        if not np.all(np.isfinite(out)):
            raise DomainError("exterior rule returned non-finite values")
        return out

    return ExteriorRule("callback", values)


def _no_values(pts, m):
    raise DomainError("periodic rule has no free-space values")


def periodic_rule() -> ExteriorRule:
    return ExteriorRule("periodic", _no_values)


def parse_rule(name: str) -> ExteriorRule:
    """Parse a config-style rule name: "zero", "constant:[...]", "sign",
    "radial_projection", "periodic"."""
    if name == "zero":
        return zero_rule()
    if name == "sign":
        return sign_rule()
    if name == "radial_projection":
        return radial_projection_rule()
    if name == "periodic":
        return periodic_rule()
    if name.startswith("constant:"):
        import json

        try:
            value = json.loads(name.split(":", 1)[1])
            vector = np.asarray(value, dtype=float)
            # a JSON boolean would read as 1 or 0, and JSON admits NaN and Infinity
            if (any(isinstance(e, bool) for e in np.asarray(value, dtype=object).ravel())
                    or not np.all(np.isfinite(vector))):
                raise ValueError(value)
        except (ValueError, TypeError):  # not JSON, or not finite numbers
            raise DomainError(f"constant rule needs a list of numbers: {name!r}") from None
        return constant_rule(vector)
    raise DomainError(f"unknown exterior rule name: {name!r}")


@dataclass(frozen=True, eq=False)
class SampledField:
    """Node values plus exterior rule.  values has shape (*grid.shape, m).

    Instances are immutable snapshots; solvers produce a new snapshot per
    iteration, so concurrent readers never see partial state.  An optional
    pointwise bound M asserts |u(x)| <= M at every node.
    """

    grid: GridSpec
    values: np.ndarray
    exterior: ExteriorRule
    bound: Optional[float] = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape[: self.grid.dim] != self.grid.shape or vals.ndim > self.grid.dim + 1:
            raise DomainError(
                f"values shape {vals.shape} does not match grid {self.grid.shape}"
            )
        if vals.ndim == self.grid.dim:
            vals = vals[..., None]
        if not np.all(np.isfinite(vals)):
            raise DomainError("field values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if (self.exterior.kind == "periodic") != self.grid.periodic:
            raise DomainError("periodic rule requires a periodic grid and vice versa")
        if self.bound is not None:
            mag = np.sqrt(np.sum(vals * vals, axis=-1))
            if np.max(mag) > self.bound * (1 + 1e-9) + 1e-12:
                raise DomainError("attached bound violated by node values")

    @property
    def m(self) -> int:
        return self.values.shape[-1]

    def component(self, i: int) -> "SampledField":
        rule = self.exterior.mapped(lambda v: v[:, i : i + 1], self.m)
        return SampledField(self.grid, self.values[..., i : i + 1], rule, None)

    def with_values(self, vals) -> "SampledField":
        return SampledField(self.grid, vals, self.exterior, self.bound)

    def value_at(self, points) -> np.ndarray:
        """Evaluate at arbitrary points: multilinear interpolation inside the
        stored nodes, exterior rule beyond, periodic wrap on periodic grids."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty((pts.shape[0], self.m))
        ax = self.grid.axis()
        if self.grid.periodic:
            p = self.grid.period
            wrapped = np.mod(pts - ax[0], p) + ax[0]
            out[:] = _interp_grid(ax, self.values, wrapped, periodic=True)
            return out
        inside = np.max(np.abs(pts), axis=1) <= self.grid.extent + 1e-12
        if np.any(inside):
            out[inside] = _interp_grid(ax, self.values, pts[inside], periodic=False)
        if np.any(~inside):
            out[~inside] = self.exterior.values(pts[~inside], self.m)
        return out

    def magnitude(self) -> np.ndarray:
        return np.sqrt(np.sum(np.asarray(self.values) ** 2, axis=-1))


def _interp_grid(ax, vals, pts, periodic=False):
    """Multilinear interpolation of vals (grid shape + m) at pts (k, dim),
    clamped to the stored nodes in free space, wrapped on the torus."""
    # imported here: at module level scipy.ndimage adds ~70 ms to `import fracsys`
    from scipy.ndimage import map_coordinates

    coords = ((pts - ax[0]) / (ax[1] - ax[0])).T
    mode = "grid-wrap" if periodic else "nearest"
    return np.stack([map_coordinates(vals[..., c], coords, order=1, mode=mode)
                     for c in range(vals.shape[-1])], axis=-1)


def field_from_function(grid: GridSpec, fn, exterior: ExteriorRule,
                        m: Optional[int] = None, bound=None) -> SampledField:
    """Sample fn(points (k, dim)) -> (k, m) on the grid nodes."""
    pts = grid.points().reshape(-1, grid.dim)
    vals = np.asarray(fn(pts), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if m is not None and vals.shape[-1] != m:
        raise DomainError(f"function returned m={vals.shape[-1]}, expected {m}")
    return SampledField(grid, vals.reshape(*grid.shape, vals.shape[-1]), exterior, bound)


def constant_field(grid: GridSpec, vec, exterior=None) -> SampledField:
    vec = np.atleast_1d(np.asarray(vec, dtype=float))
    vals = np.broadcast_to(vec, (*grid.shape, vec.size))
    rule = exterior if exterior is not None else constant_rule(vec)
    return SampledField(grid, vals.copy(), rule,
                        bound=float(np.linalg.norm(vec)))


# -- geometric primitives ----------------------------------------------------


def _ball_node_values(u: SampledField, center, radius):
    pts = u.grid.points().reshape(-1, u.grid.dim)
    c = np.atleast_1d(np.asarray(center, dtype=float))
    if np.linalg.norm(c) + radius > u.grid.extent + 1e-12:
        raise DomainError("ball exceeds the stored-node region")
    mask = np.linalg.norm(pts - c, axis=1) <= radius + 1e-12
    if not np.any(mask):
        raise DomainError("ball contains no grid nodes")
    return np.asarray(u.values).reshape(-1, u.m)[mask]


def field_average(u: SampledField, ball) -> np.ndarray:
    """Mean of u over the grid nodes in the ball (center, radius).

    Uniform node weights: exact for constants, O(h) accurate in general.
    """
    return _ball_node_values(u, *ball).mean(axis=0)


def restrict_rescale(u: SampledField, mu: float, t: float) -> SampledField:
    """The rescaled field x -> mu * u(t x), resampled on the same grid.

    Interior values come from multilinear interpolation (or the exterior rule
    where t x leaves the stored nodes); the exterior rule is composed
    accordingly, and an attached bound M becomes mu * M.
    """
    if t <= 0:
        raise DomainError("scaling t must be positive")
    if u.grid.periodic:
        raise DomainError("restrict_rescale needs free-space exterior data")
    pts = u.grid.points().reshape(-1, u.grid.dim)
    vals = mu * u.value_at(t * pts)
    base = u

    def outer(p):
        return mu * base.value_at(t * np.asarray(p, dtype=float))

    return SampledField(
        u.grid,
        vals.reshape(*u.grid.shape, u.m),
        callback_rule(outer),
        bound=None if u.bound is None else abs(mu) * u.bound,
    )
