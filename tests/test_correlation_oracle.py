"""Cross-check of the FFT correlation core against the per-offset loops it
replaced.

The loops below are the earlier O(N J) evaluations of the 1-d operators,
kept here as a test-local oracle: every offset j = 1..J is visited in turn,
so no cancellation between W*u and S u enters.  The 2-d assembly load gets
the same treatment, one plane offset at a time.  The fast path must agree to
1e-9 relative in the max norm; its rounding is that of one FFT correlation
against the sum of all weights, so agreement to 1e-14 is not expected.
"""

import numpy as np
import pytest

from fracsys import (DomainError, GridSpec, SampledField, apply_fractional_laplacian,
                     apply_LK, apply_LK_field, assemble_dirichlet, bilinear_form,
                     bilinear_form_field, callback_rule, constant_rule,
                     make_anisotropic_kernel, make_custom_kernel, make_fractional_kernel,
                     periodic_rule, s_energy, sign_rule, zero_rule)
from fracsys.quadrature import scheme_for

RTOL = 1e-9


def assert_close(new, old, what, scale=None):
    """Max-norm gap relative to the oracle's max norm (or to scale)."""
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    if scale is None:
        scale = float(np.max(np.abs(old)))
    err = float(np.max(np.abs(new - old))) / max(scale, 1e-300)
    assert err <= RTOL, f"{what}: relative max-norm gap {err:.3e}"


# -- the loop oracle -----------------------------------------------------------


def pair_weights(scheme):
    """Free-space weights at offsets 1..J, each shared by the pair +/-j."""
    return scheme.weights[scheme.weights.size // 2 + 1 :]


def loop_extended(u, J):
    grid = u.grid
    ax = grid.axis()
    pos = np.concatenate([ax[0] + grid.h * np.arange(-J, 0), ax,
                          ax[-1] + grid.h * np.arange(1, J + 1)])
    vals = np.zeros((pos.size, u.m))
    vals[J : J + ax.size] = np.asarray(u.values)
    out = np.abs(pos) > grid.extent + 1e-12
    vals[out] = u.exterior.values(pos[out, None], u.m)
    return pos, vals, np.abs(pos) < grid.radius - 1e-12


def far_estimate(u):
    T = u.grid.truncation_radius
    mags = [float(np.max(u.magnitude()))]
    try:
        g = u.exterior.values(np.array([[T], [-T]]), u.m)
        mags.append(float(np.max(np.linalg.norm(g, axis=-1))))
    except DomainError:
        pass
    return max(mags)


def loop_apply(u, scheme):
    w = pair_weights(scheme)
    J = w.size
    _, E, _ = loop_extended(u, J)
    n = u.grid.shape[0]
    center = E[J : J + n]
    acc = np.zeros_like(center)
    for j in range(1, J + 1):
        acc += w[j - 1] * (E[J + j : J + j + n] + E[J - j : J - j + n] - 2.0 * center)
    limits = u.exterior.far_limits(u.m)
    if limits is None:
        return acc, 4.0 * far_estimate(u) * scheme.tail_upper
    acc += scheme.tail_mass * (limits(np.array([1.0])) + limits(np.array([-1.0])) - 2.0 * center)
    return acc, 0.0


def loop_bilinear(u, w, scheme):
    pw = pair_weights(scheme)
    J = pw.size
    _, Eu, _ = loop_extended(u, J)
    _, Ew, _ = loop_extended(w, J)
    n = u.grid.shape[0]
    cu, cw = Eu[J : J + n], Ew[J : J + n]
    acc = np.zeros(n)
    for j in range(1, J + 1):
        plus = np.sum((cu - Eu[J + j : J + j + n]) * (cw - Ew[J + j : J + j + n]), axis=-1)
        minus = np.sum((cu - Eu[J - j : J - j + n]) * (cw - Ew[J - j : J - j + n]), axis=-1)
        acc += pw[j - 1] * 0.5 * (plus + minus)
    lu, lw = u.exterior.far_limits(u.m), w.exterior.far_limits(w.m)
    if lu is None or lw is None:
        return acc
    for d in (1.0, -1.0):
        gu, gw = lu(np.array([d])), lw(np.array([d]))
        acc += scheme.tail_mass * 0.5 * np.sum((cu - gu) * (cw - gw), axis=-1)
    return acc


def loop_energy(u, s):
    grid = u.grid
    scheme = scheme_for(make_fractional_kernel(1, s), grid)
    w = pair_weights(scheme)
    J = w.size
    _, E, chi = loop_extended(u, J)
    n = grid.shape[0]
    ci, center = chi[J : J + n], E[J : J + n]
    g_int, g_all = np.zeros(n), np.zeros(n)
    for j in range(1, J + 1):
        for sl in (slice(J + j, J + j + n), slice(J - j, J - j + n)):
            diff = np.sum((center - E[sl]) ** 2, axis=-1)
            g_all += w[j - 1] * diff
            g_int += w[j - 1] * diff * chi[sl]
    closed = 0.0
    limits = u.exterior.far_limits(u.m)
    if limits is not None:
        for d in (1.0, -1.0):
            g = limits(np.array([d]))
            closed += float(np.sum(scheme.tail_mass * np.sum((center - g) ** 2, axis=-1)[ci]))
    return (0.25 * grid.h * float(np.sum(g_int[ci])),
            0.5 * grid.h * (float(np.sum((g_all - g_int)[ci])) + closed))


def loop_periodic(u, scheme):
    """Apply, B(u, u) and the two energy parts on the torus, one shift at a
    time (every pair has both ends in the domain: no tail)."""
    grid = u.grid
    N = grid.shape[0]
    v = np.asarray(u.values)
    w = scheme.weights[1 : N // 2 + 1].copy()
    if N % 2 == 0:
        w[-1] /= 2.0  # the half-period shift holds both members of its pair
    lap, bil = np.zeros_like(v), np.zeros(N)
    g = np.zeros(N)
    for j in range(1, w.size + 1):
        vp, vm = np.roll(v, -j, axis=0), np.roll(v, j, axis=0)
        if 2 * j == N:  # the half-period shell is its own mirror
            lap += 2.0 * w[j - 1] * (vp - v)
        else:
            lap += w[j - 1] * (vp + vm - 2.0 * v)
        both = np.sum((v - vp) ** 2, axis=-1) + np.sum((v - vm) ** 2, axis=-1)
        bil += 0.5 * w[j - 1] * both
        g += w[j - 1] * both
    return lap, bil, (0.25 * grid.h * float(np.sum(g)), 0.0)


def loop_assemble(kernel, grid, rule, m):
    scheme = scheme_for(kernel, grid)
    w = pair_weights(scheme)
    J = w.size
    pos, _, chi = loop_extended(SampledField(grid, np.zeros((*grid.shape, m)), rule), J)
    vals = np.zeros((pos.size, m))
    vals[~chi] = rule.values(pos[~chi, None], m)
    g0 = np.flatnonzero(chi[J : J + grid.shape[0]])[0]
    n_int = int(np.sum(chi))
    limits = rule.far_limits(m)
    A = np.zeros((n_int, n_int))
    np.fill_diagonal(A, 2.0 * float(np.sum(w)) + (2.0 * scheme.tail_mass if limits else 0.0))
    for j in range(1, min(J, n_int - 1) + 1):
        ii = np.arange(n_int - j)
        A[ii, ii + j] -= w[j - 1]
        A[ii + j, ii] -= w[j - 1]
    load = np.zeros((n_int, m))
    for j in range(1, J + 1):
        load += w[j - 1] * (vals[J + g0 - j : J + g0 - j + n_int]
                            + vals[J + g0 + j : J + g0 + j + n_int])
    if limits is not None:
        load += scheme.tail_mass * (limits(np.array([1.0])) + limits(np.array([-1.0])))
    return A, load


# -- cases ---------------------------------------------------------------------


def custom_kernel():
    base = make_fractional_kernel(1, 0.5)
    return make_custom_kernel(lambda r: base(r) * (1 + 0.25 * np.tanh(r)),
                              0.5, 1, base.lam * 0.9, base.Lam * 1.3)


KERNELS = {"s=0.3": lambda: make_fractional_kernel(1, 0.3),
           "s=0.9": lambda: make_fractional_kernel(1, 0.9),
           "custom": custom_kernel}


def exterior(rule, m):
    """(exterior rule, smooth profile the stored values follow)."""
    if rule == "zero":
        return zero_rule(), lambda x: np.zeros((x.size, m))
    if rule == "constant":
        vec = [0.7, -1.3][:m]
        return constant_rule(vec), lambda x: np.tile(vec, (x.size, 1))
    if rule == "sign":
        return sign_rule(), lambda x: np.sign(x)[:, None]
    prof = lambda x: np.stack([np.cos(x), np.sin(x)][:m], axis=-1)  # noqa: E731
    return callback_rule(lambda p: prof(p[:, 0])), prof


def fields(rule, m, h, seed=0):
    grid = GridSpec(dim=1, h=h, radius=1.0)
    ext, prof = exterior(rule, m)
    x = grid.axis()
    rng = np.random.default_rng(seed)
    inside = grid.interior_mask()[:, None]
    out = []
    for _ in range(2):
        vals = prof(x) + rng.normal(size=(x.size, m)) * inside
        out.append(SampledField(grid, vals, ext))
    return out


CASES = [(rule, kern, m, h)
         for rule in ("zero", "constant", "sign", "callback")
         for kern in KERNELS
         for m in (1, 2) if not (rule == "sign" and m == 2)
         for h in (1 / 32, 1 / 256)]


@pytest.mark.parametrize("rule,kern,m,h", CASES)
def test_free_space_operators_match_loops(rule, kern, m, h):
    u, w = fields(rule, m, h)
    kernel = KERNELS[kern]()
    scheme = scheme_for(kernel, u.grid)
    lap, est = apply_LK_field(u, kernel)
    ref, ref_est = loop_apply(u, scheme)
    assert_close(lap, ref, "L_K u")
    assert est == pytest.approx(ref_est, rel=1e-12)
    assert_close(bilinear_form_field(u, w, kernel)[0], loop_bilinear(u, w, scheme), "B(u, w)")
    assert_close(bilinear_form_field(u, u, kernel)[0], loop_bilinear(u, u, scheme), "B(u, u)")
    if kern != "custom":
        e = s_energy(u, kernel.s)
        assert_close([e.interior_part, e.tail_part], loop_energy(u, kernel.s), "energy parts")
    if m == 1:
        ref_b = loop_bilinear(u, w, scheme)
        for node in (0.0, 0.5, -u.grid.radius + u.grid.h):
            i = u.grid.index_of([node])[0]
            assert_close(apply_LK(u, kernel, [node]), ref[i, 0], "pointwise L_K u",
                         scale=np.max(np.abs(ref)))
            assert_close(bilinear_form(u, w, kernel, [node]), ref_b[i], "pointwise B",
                         scale=np.max(np.abs(ref_b)))
    A, load = loop_assemble(kernel, u.grid, u.exterior, m)
    op = assemble_dirichlet(kernel, u.grid, u.exterior, m=m)
    assert_close(op.A, A, "assembled A")
    assert_close(op.load, load, "assembled load")


@pytest.mark.parametrize("s", [0.3, 0.9])
def test_pointwise_fractional_laplacian_matches_loop(s):
    u, _ = fields("callback", 1, 1 / 256)
    ref, _ = loop_apply(u, scheme_for(make_fractional_kernel(1, s), u.grid))
    for node in (0.0, 0.25, 0.75):
        i = u.grid.index_of([node])[0]
        assert_close(apply_fractional_laplacian(u, s, [node]), -ref[i, 0],
                     "pointwise (-Delta)^s u", scale=np.max(np.abs(ref)))


@pytest.mark.parametrize("s", [0.3, 0.9])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("h", [1 / 32, 1 / 256])
def test_periodic_line_matches_loops(s, m, h):
    grid = GridSpec(dim=1, h=h, radius=1.0, periodic=True)
    rng = np.random.default_rng(3)
    u = SampledField(grid, rng.normal(size=(*grid.shape, m)), periodic_rule())
    kernel = make_fractional_kernel(1, s)
    lap, bil, parts = loop_periodic(u, scheme_for(kernel, grid))
    assert_close(apply_LK_field(u, kernel)[0], lap, "periodic L_K u")
    assert_close(bilinear_form_field(u, u, kernel)[0], bil, "periodic B(u, u)")
    e = s_energy(u, s)
    assert_close([e.interior_part, e.tail_part], parts, "periodic energy parts")
    assert_close(apply_LK(u.component(0), kernel, [0.5]), lap[grid.index_of([0.5])][0],
                 "periodic pointwise L_K u", scale=np.max(np.abs(lap)))


def loop_torus_energy(u, scheme):
    """The two energy parts on the 2-d torus, one shift at a time: a quarter
    of h^2 sum over x and k of W_k |u(x) - u(x+k)|^2, and no tail."""
    v = np.asarray(u.values)
    W = scheme.weights
    total = 0.0
    for a, b in np.ndindex(W.shape):
        shifted = np.roll(v, (-a, -b), axis=(0, 1))
        total += W[a, b] * float(np.sum((v - shifted) ** 2))
    return 0.25 * u.grid.h**2 * total, 0.0


@pytest.mark.parametrize("s", [0.3, 0.9])
@pytest.mark.parametrize("n", [8, 9])
def test_plane_torus_energy_matches_loop(n, s):
    grid = GridSpec(dim=2, h=2.0 / n, radius=1.0, periodic=True)
    rng = np.random.default_rng(5)
    u = SampledField(grid, rng.normal(size=(*grid.shape, 2)), periodic_rule())
    e = s_energy(u, s)
    ref = loop_torus_energy(u, scheme_for(make_fractional_kernel(2, s), grid))
    assert_close([e.interior_part, e.tail_part], ref, "2-d torus energy parts")
    assert e.tail_part == 0.0


# -- the 2-d assembly load -------------------------------------------------------


def loop_plane_load(kernel, grid, rule, m):
    """assemble_dirichlet's 2-d load, one plane offset at a time: the sum of
    W_k times the exterior data at x + k (zero inside the ball, the rule
    everywhere else), plus the tail mass times the rule's far limits."""
    scheme = scheme_for(kernel, grid)
    W = scheme.weights
    M = W.shape[0] // 2
    h, n = grid.h, grid.shape[0]
    K = n // 2  # the stored nodes are h * (-K..K) per axis
    lattice = h * np.arange(-K - M, K + M + 1)
    P1, P2 = np.meshgrid(lattice, lattice, indexing="ij")
    pts = np.stack([P1.ravel(), P2.ravel()], axis=-1)
    data = rule.values(pts, m).reshape(*P1.shape, m)
    data[np.hypot(P1, P2) < grid.radius - 1e-12] = 0.0
    interior = np.argwhere(grid.interior_mask())
    load = np.zeros((interior.shape[0], m))
    for a in range(-M, M + 1):
        for b in range(-M, M + 1):
            if W[M + a, M + b] != 0.0:
                load += W[M + a, M + b] * data[interior[:, 0] + M + a, interior[:, 1] + M + b]
    limits = rule.far_limits(m)
    if limits is not None:
        load += scheme.tail_mass * sum(limits(d) for d in scheme.tail_directions)
    return load


PLANE_KERNELS = {"fractional": lambda: make_fractional_kernel(2, 0.6),
                 "anisotropic": lambda: make_anisotropic_kernel([[1.5, 0.3], [0.2, 0.8]], 0.6)}


@pytest.mark.parametrize("kern", sorted(PLANE_KERNELS))
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("rule", ["zero", "constant", "callback"])
def test_plane_load_matches_offset_loop(rule, m, kern):
    grid = GridSpec(dim=2, h=1 / 8, radius=1.0)
    kernel = PLANE_KERNELS[kern]()
    ext = {"zero": zero_rule(),
           "constant": constant_rule([0.7, -1.3][:m]),
           "callback": callback_rule(lambda p: np.stack(
               [np.cos(p[:, 0]) + 0.1 * p[:, 1], np.sin(p[:, 1])][:m], axis=-1))}[rule]
    op = assemble_dirichlet(kernel, grid, ext, m=m)
    ref = loop_plane_load(kernel, grid, ext, m)
    assert op.load.shape == ref.shape
    if rule == "zero":
        assert np.all(op.load == 0.0)
    else:
        assert_close(op.load, ref, "2-d assembled load")
