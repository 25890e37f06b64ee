"""2-d torus weights: principal-window cell weights plus the exact lattice
images of power-law kernels, summed by Ewald splitting.

The oracle is the direct image sum h^2 sum K(hj + nP) over 0 < |n|_inf <= c,
completed by the continuum remainder h^2/P^2 times the kernel mass outside
the square |x|_inf > (c + 1/2) P.  That remainder is only a midpoint model of
the far images, so the gap to the Ewald sum shrinks with c like the
remainder's own error (about c^(-2-2s)), not to rounding.
"""

import numpy as np
import pytest

from fracsys import (DomainError, GridSpec, make_anisotropic_kernel, make_custom_kernel,
                     make_fractional_kernel)
from fracsys.quadrature import (_EWALD_CUT, _build_periodic_plane_scheme, _near_shell_count,
                                _plane_cell_weights, _square_tail_mass, _torus_fold,
                                scheme_for)

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
