"""2-d torus weights: principal-window cell weights plus the exact lattice
images of power-law kernels, summed by Ewald splitting.

The oracle is the direct image sum h^2 sum K(hj + nP) over 0 < |n|_inf <= c,
completed by the continuum remainder h^2/P^2 times the kernel mass outside
the square |x|_inf > (c + 1/2) P.  That remainder is only a midpoint model of
the far images, so the gap to the Ewald sum shrinks with c like the
remainder's own error (about c^(-2-2s)), not to rounding.

Both torus builders and the free-space plane are also checked against
test-local copies of their earlier loop forms, to rounding, and two cost
guards count calls instead of timing them.
"""

import numpy as np
import pytest
from scipy.special import gamma, gammainc, gammaincc

from fracsys import (DomainError, GridSpec, KernelSpec, make_anisotropic_kernel,
                     make_custom_kernel, make_fractional_kernel, quadrature)
from fracsys.quadrature import (_EWALD_CUT, _N_IMAGES, _box_moments,
                                _build_periodic_line_scheme, _build_periodic_plane_scheme,
                                _build_plane_scheme, _line_base_weights, _near_shell_count,
                                _plane_cell_weights, _ray, _ray_psi, _square_tail_mass,
                                _torus_fold, scheme_for)

ANISO = [[1.5, 0.3], [0.2, 0.8]]
KERNELS = {
    "fractional": lambda s: make_fractional_kernel(2, s),
    "anisotropic": lambda s: make_anisotropic_kernel(ANISO, s),
}


def torus(N):
    return GridSpec(dim=2, h=2 * np.pi / N, radius=np.pi, periodic=True)


def direct_images(kernel, grid, cutoff):
    """h^2 sum over 0 < |n|_inf <= cutoff of K(hj + nP) plus the continuum
    remainder, at the centred offsets |j|_inf <= N//2."""
    N, h, P = grid.shape[0], grid.h, grid.period
    idx = np.arange(-(N // 2), N // 2 + 1) * h
    Y = np.stack(np.meshgrid(idx, idx, indexing="ij"), axis=-1)
    out = np.zeros(Y.shape[:2])
    ns = np.arange(-cutoff, cutoff + 1)
    for n1 in ns:
        shifts = P * np.array([(n1, n2) for n2 in ns if (n1, n2) != (0, 0)], dtype=float)
        out += np.sum(kernel(Y[:, :, None, :] + shifts), axis=-1)
    return h * h * (out + _square_tail_mass(kernel, (cutoff + 0.5) * P) / P**2)


def folded(window, N):
    """A centred window array folded onto the torus, halving the edge rows and
    columns of even N, which are images of each other."""
    window = window.copy()
    if N % 2 == 0:
        window[[0, -1], :] *= 0.5
        window[:, [0, -1]] *= 0.5
    out = _torus_fold(window, N)
    out[0, 0] = 0.0
    return out


@pytest.mark.parametrize("N", [32, 33], ids=["even", "odd"])
@pytest.mark.parametrize("name", list(KERNELS))
@pytest.mark.parametrize("s", [0.2, 0.5, 0.9])
def test_weights_match_direct_image_sum(s, name, N):
    kernel, grid = KERNELS[name](s), torus(N)
    W = scheme_for(kernel, grid).weights
    cells, _ = _plane_cell_weights(kernel, grid, N // 2, _near_shell_count(grid))
    nonzero = np.ones((N, N), dtype=bool)
    nonzero[0, 0] = False
    gaps = []
    for cutoff in (16, 32):
        images = direct_images(kernel, grid, cutoff)
        ref = folded(cells + images, N)
        gaps.append(np.max(np.abs(W - ref)[nonzero] / folded(images, N)[nonzero]))
    assert gaps[1] <= 1.5e-5
    assert gaps[1] <= 0.25 * gaps[0]


@pytest.mark.parametrize("N", [32, 33], ids=["even", "odd"])
@pytest.mark.parametrize("name", list(KERNELS))
@pytest.mark.parametrize("s", [0.2, 0.9])
def test_weights_do_not_depend_on_ewald_width(s, name, N):
    kernel, grid = KERNELS[name](s), torus(N)
    W = _build_periodic_plane_scheme(kernel, grid).weights
    # the default width keeps real-space terms within sigma/3 of the origin,
    # sigma = P / sigma_max(A), so only n = 0 is evaluated there; a quarter
    # of it reaches 2 sigma/3 and brings in the neighbour images
    A = np.asarray(ANISO) if name == "anisotropic" else np.eye(2)
    alpha0 = _EWALD_CUT * (3.0 * np.linalg.norm(A, 2) / grid.period) ** 2
    nonzero = W > 0
    assert np.count_nonzero(nonzero) == N * N - 1
    for f in (0.25, 2.0):
        Wa = _build_periodic_plane_scheme(kernel, grid, alpha=f * alpha0).weights
        assert np.max(np.abs(Wa - W)[nonzero] / W[nonzero]) <= 1e-10


@pytest.mark.parametrize("N", [32, 33], ids=["even", "odd"])
@pytest.mark.parametrize("name", list(KERNELS))
def test_weights_nonnegative_and_even(name, N):
    W = scheme_for(KERNELS[name](0.5), torus(N)).weights
    assert np.all(W >= 0) and W[0, 0] == 0.0
    mirror = np.roll(W[::-1, ::-1], 1, axis=(0, 1))  # W[-j mod N]
    assert np.max(np.abs(W - mirror)) <= 1e-13 * np.max(W)


def test_custom_kernel_refused_on_plane_torus():
    frac = make_fractional_kernel(2, 0.5)
    c, p = frac.c_ns, 3.0
    custom = make_custom_kernel(lambda r: c * r ** (-p), 0.5, 2, frac.lam, frac.Lam)
    with pytest.raises(DomainError, match="lattice sum"):
        scheme_for(custom, torus(16))


# -- the builders against loop oracles ----------------------------------------
#
# Test-local copies of the earlier builders: the periodic line adds each image
# cell through its own _ray call, one image period and family at a time; the
# plane evaluates kernel(Y[far]) on a stacked point array, maps the Ewald
# window through Y @ Ainv.T, takes the reciprocal sum with a complex ifft2 and
# folds with np.add.at.  The builders must give the same weights up to
# rounding.

def addat_fold(W, N):
    M = W.shape[0] // 2
    idx = np.mod(np.arange(-M, M + 1), N)
    out = np.zeros((N,) * W.ndim)
    np.add.at(out, np.ix_(*(idx,) * W.ndim), W)
    return out


def centred(w):
    return np.concatenate([w[::-1], [0.0], w])


def loop_periodic_line(kernel, grid):
    h, P = grid.h, grid.period
    N = int(round(P / h))
    J = N // 2
    psi = _ray_psi(kernel, 1.0)
    w = _line_base_weights(kernel, h, J, _near_shell_count(grid))
    y = np.arange(1, J + 1) * h
    for fam in (+1.0, -1.0):
        keep = np.ones(J, dtype=bool)
        if fam < 0 and N % 2 == 0:
            keep[J - 1] = False
        yk = y[keep]
        for k in range(1, _N_IMAGES + 1):
            mu = k * P + fam * yk
            w[keep] += _ray(kernel, psi, mu - 0.5 * h, mu + 0.5 * h, 0)
        mu_inf = (_N_IMAGES + 0.5) * P + fam * yk
        cell = _ray(kernel, psi, mu_inf - 0.5 * h, mu_inf + 0.5 * h, 1)
        w[keep] += cell / (2.0 * kernel.s * P)
    kk = np.arange(1, _N_IMAGES + 1) * P
    w[0] += float(np.sum(kernel(kk) * h**3 / 12.0)) / h**2
    return addat_fold(centred(w), N)


def loop_plane_cells(kernel, grid, M, q):
    h = grid.h
    idx = np.arange(-M, M + 1)
    Y1, Y2 = np.meshgrid(idx * h, idx * h, indexing="ij")
    Y = np.stack([Y1, Y2], axis=-1)
    W = np.zeros((idx.size, idx.size))
    sup = np.maximum(np.abs(Y1), np.abs(Y2))
    far = sup > (q + 0.5) * h
    W[far] = kernel(Y[far]) * h * h
    ring = far & (sup <= (q + 3.5) * h + 1e-12)
    t = (np.arange(6) + 0.5) / 6 - 0.5
    off = h * np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
    ri, rj = np.nonzero(ring)
    sub = Y[ri, rj][:, None, :] + off[None, :, :]
    W[ri, rj] = np.mean(kernel(sub.reshape(-1, 2)).reshape(ri.size, -1), axis=1) * h * h
    t11, t22, _ = _box_moments(kernel, (q + 0.5) * h)
    c = M
    W[c + 1, c] += t11 / (2.0 * h * h)
    W[c - 1, c] += t11 / (2.0 * h * h)
    W[c, c + 1] += t22 / (2.0 * h * h)
    W[c, c - 1] += t22 / (2.0 * h * h)
    W[c, c] = 0.0
    return 0.5 * (W + W[::-1, ::-1])


def loop_lattice_images(kernel, grid):
    h, P, s = grid.h, grid.period, kernel.s
    N = grid.shape[0]
    nu = 1.0 + s
    A = kernel.A if kernel.A is not None else np.eye(2)
    Ainv = np.linalg.inv(A)
    det = abs(np.linalg.det(A))
    sv = np.linalg.svd(A, compute_uv=False)
    alpha = _EWALD_CUT * (3.0 * sv[0] / P) ** 2  # reaches no image
    idx = np.arange(-(N // 2), N // 2 + 1)
    Y = np.stack(np.meshgrid(idx * h, idx * h, indexing="ij"), axis=-1)
    z = Y @ Ainv.T
    r2 = np.sum(z * z, axis=-1)
    r2[N // 2, N // 2] = 1.0
    out = -(r2 ** -nu)
    near = r2 < _EWALD_CUT / alpha
    out[near] *= gammainc(nu, alpha * r2[near])
    mmax = int(np.ceil(np.sqrt(_EWALD_CUT * alpha) * P / (np.pi * sv[-1])))
    m = np.stack(np.meshgrid(*(np.arange(-mmax, mmax + 1),) * 2, indexing="ij"), axis=-1)
    a = (np.pi / P) ** 2 * np.sum((m @ A) ** 2, axis=-1)
    keep = (a > 0.0) & (a < _EWALD_CUT * alpha)
    a, x = a[keep], a[keep] / alpha
    coef = a**s * (gamma(1.0 - s) * gammaincc(1.0 - s, x) - x**-s * np.exp(-x)) / -s
    C = np.zeros((N, N))
    np.add.at(C, (m[keep, 0] % N, m[keep, 1] % N), coef)
    C[0, 0] += alpha**s / s
    R = np.real(np.fft.ifft2(C)) * (N * N * np.pi * det / (P * P * gamma(nu)))
    out += R[np.ix_(idx % N, idx % N)]
    out *= h * h * kernel.c_ns / det
    return 0.5 * (out + out[::-1, ::-1])


def loop_periodic_plane(kernel, grid):
    N = grid.shape[0]
    W = loop_plane_cells(kernel, grid, N // 2, _near_shell_count(grid))
    W += loop_lattice_images(kernel, grid)
    if N % 2 == 0:
        W[[0, -1], :] *= 0.5
        W[:, [0, -1]] *= 0.5
    W = addat_fold(W, N)
    W[0, 0] = 0.0
    return W


def assert_matches_oracle(W, ref):
    assert W.shape == ref.shape and np.all(W >= 0)
    assert np.max(np.abs(W - ref)) <= 1e-14 * np.max(ref)
    nonzero = ref != 0
    assert np.array_equal(W != 0, nonzero)
    assert np.max(np.abs(W - ref)[nonzero] / ref[nonzero]) <= 1e-10


def line_kernel(name, s):
    frac = make_fractional_kernel(1, s)
    if name == "fractional":
        return frac
    c, p = frac.c_ns, 1.0 + 2.0 * s
    return make_custom_kernel(lambda r: c * r ** (-p) * (1 + 0.25 * np.tanh(r)), s, 1,
                              frac.lam, 1.25 * frac.Lam)


ROTATED = [[2.0 * np.cos(0.5), -np.sin(0.5)], [2.0 * np.sin(0.5), np.cos(0.5)]]
PLANE_KERNELS = {
    "fractional": lambda s: make_fractional_kernel(2, s),
    "diagonal": lambda s: make_anisotropic_kernel(np.diag([1.4, 0.8]), s),
    "rotated": lambda s: make_anisotropic_kernel(ROTATED, s),
}


@pytest.mark.parametrize("N", [45, 64, 4096])
@pytest.mark.parametrize("name", ["fractional", "custom"])
@pytest.mark.parametrize("s", [0.3, 0.5, 0.93])
def test_periodic_line_matches_image_loop(s, name, N):
    kernel = line_kernel(name, s)
    grid = GridSpec(dim=1, h=2 * np.pi / N, radius=np.pi, periodic=True)
    assert_matches_oracle(_build_periodic_line_scheme(kernel, grid).weights,
                          loop_periodic_line(kernel, grid))


@pytest.mark.parametrize("N", [32, 33, 256])
@pytest.mark.parametrize("name", list(PLANE_KERNELS))
@pytest.mark.parametrize("s", [0.2, 0.9])
def test_periodic_plane_matches_loop_oracle(s, name, N):
    kernel, grid = PLANE_KERNELS[name](s), torus(N)
    assert_matches_oracle(_build_periodic_plane_scheme(kernel, grid).weights,
                          loop_periodic_plane(kernel, grid))


@pytest.mark.parametrize("h", [1 / 8, 1 / 32])
@pytest.mark.parametrize("name", list(PLANE_KERNELS))
def test_free_plane_matches_loop_oracle(name, h):
    kernel, grid = PLANE_KERNELS[name](0.5), GridSpec(dim=2, h=h, radius=1.0)
    W = _build_plane_scheme(kernel, grid).weights
    M, q = W.shape[0] // 2, _near_shell_count(grid)
    assert_matches_oracle(W, loop_plane_cells(kernel, grid, M, q))
    assert np.array_equal(W, W[::-1, ::-1])


# -- cost guards: calls counted, not timed ------------------------------------

def count_calls(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        out = inner(*args, **kwargs)
        calls.append(np.shape(out))
        return out

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("kernel", [make_fractional_kernel(1, 0.4),
                                    make_anisotropic_kernel([[1.3]], 0.7)],
                         ids=["fractional", "anisotropic"])
def test_periodic_line_calls_do_not_grow_with_images(monkeypatch, kernel):
    grid = GridSpec(dim=1, h=2 * np.pi / 64, radius=np.pi, periodic=True)
    rays = count_calls(monkeypatch, quadrature, "_ray")
    evals = count_calls(monkeypatch, KernelSpec, "at_norm2")
    counts = []
    for images in (8, 64):
        monkeypatch.setattr(quadrature, "_N_IMAGES", images)
        rays.clear()
        evals.clear()
        _build_periodic_line_scheme(kernel, grid)
        counts.append((len(rays), len(evals)))
    assert counts[0] == counts[1]
    assert counts[0][0] <= 4 and counts[0][1] <= 4


@pytest.mark.parametrize("N", [32, 33])
def test_plane_torus_evaluates_the_window_once(monkeypatch, N):
    evals = count_calls(monkeypatch, KernelSpec, "at_norm2")
    _build_periodic_plane_scheme(make_anisotropic_kernel(ROTATED, 0.6), torus(N))
    window = (2 * (N // 2) + 1,) * 2
    assert evals.count(window) == 1
