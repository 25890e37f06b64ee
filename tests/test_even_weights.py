"""What the evenness of the weights, W[k] = W[-k], gives the code.

The periodic line is built by torus shift: the offsets y > 0 are summed by
shift, and one mirror sum adds those at -y, so its weights are exactly even.
The energy's interior part needs only W*chi and W*(chi u): it is checked
against a test-local copy of the earlier masked pair sum, which also
correlated W*(chi |u|^2) and took the interior part as a quarter of
sum_k W_k chi(x) chi(x+k) |u(x) - u(x+k)|^2 over the domain.  Two cost
guards count calls instead of timing them.
"""

import numpy as np
import pytest

from fracsys import (GridSpec, SampledField, callback_rule, constant_rule,
                     make_anisotropic_kernel, make_custom_kernel, make_fractional_kernel,
                     operators, periodic_rule, quadrature, s_energy, zero_rule)
from fracsys.operators import _bilinear, _correlator, _tables
from fracsys.quadrature import _build_periodic_line_scheme


def line_torus(N):
    return GridSpec(dim=1, h=2 * np.pi / N, radius=np.pi, periodic=True)


def custom_kernel(s):
    c = make_fractional_kernel(1, s).at_norm2(1.0)
    return make_custom_kernel(lambda r: c * (1.0 + 0.5 * np.exp(-r)) * r ** (-1.0 - 2.0 * s),
                              s, 1, 1.0, 1.5)


LINE_KERNELS = {
    "fractional": lambda s: make_fractional_kernel(1, s),
    "anisotropic": lambda s: make_anisotropic_kernel([[1.3]], s),
    "custom": custom_kernel,
}


@pytest.mark.parametrize("N", [45, 64], ids=["odd", "even"])
@pytest.mark.parametrize("name", list(LINE_KERNELS))
@pytest.mark.parametrize("s", [0.1, 0.5, 0.95])
def test_periodic_line_weights_exactly_even(s, name, N):
    W = _build_periodic_line_scheme(LINE_KERNELS[name](s), line_torus(N)).weights
    r = np.arange(N)
    assert np.array_equal(W, W[-r % N])
    assert W[0] == 0.0 and np.all(W[1:] > 0.0)


# -- the energy against the masked pair sum ------------------------------------


def masked_pair_energy(u, s):
    """(interior_part, tail_part) as the masked pair sum gave them."""
    grid = u.grid
    scheme, t, _ = _tables(u, u, make_fractional_kernel(grid.dim, s))
    corr = _correlator(scheme.weights, t.E.shape[:-1], grid.periodic)
    B, _ = _bilinear(u, u, scheme, t, t, corr)
    inside = grid.interior_mask()
    hvol = grid.h**grid.dim
    total = hvol * float(np.sum(B[inside]))
    if grid.periodic:
        return 0.5 * total, 0.0
    chi = np.pad(inside, scheme.weights.shape[0] // 2).astype(float)
    Wchi = corr(chi)
    masked = 0.0
    for c in range(u.m):
        e = t.E[..., c] * chi
        a = t.v[..., c]
        masked = masked + (Wchi * (a * a) - 2.0 * a * corr(e) + corr(e * e))
    interior = 0.25 * hvol * float(np.sum(masked[inside]))
    return interior, total - 2.0 * interior


RULES = {
    "zero": lambda m: zero_rule(),
    "constant": lambda m: constant_rule([0.3, -0.2][:m]),
    "callback": lambda m: callback_rule(lambda p: np.cos(p[:, :1] * np.arange(1, m + 1))),
}


def random_field(grid, m, rule, seed=0):
    vals = np.random.default_rng(seed).normal(size=(*grid.shape, m))
    return SampledField(grid, vals, rule)


@pytest.mark.parametrize("s", [0.3, 0.8])
@pytest.mark.parametrize("rule", list(RULES))
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("dim, h", [(1, 1 / 32), (2, 1 / 8)], ids=["1d", "2d"])
def test_free_space_parts_match_masked_pair_sum(dim, h, m, rule, s):
    u = random_field(GridSpec(dim=dim, h=h, radius=1.0), m, RULES[rule](m))
    e = s_energy(u, s)
    interior, tail = masked_pair_energy(u, s)
    assert abs(e.interior_part - interior) <= 1e-12 * abs(e.total)
    assert abs(e.tail_part - tail) <= 1e-12 * abs(e.total)


@pytest.mark.parametrize("s", [0.3, 0.8])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("dim, N", [(1, 64), (2, 32)], ids=["1d", "2d"])
def test_torus_energy_matches_masked_pair_sum(dim, N, m, s):
    grid = GridSpec(dim=dim, h=2 * np.pi / N, radius=np.pi, periodic=True)
    u = random_field(grid, m, periodic_rule())
    e = s_energy(u, s)
    interior, _ = masked_pair_energy(u, s)
    assert e.tail_part == 0.0 and e.truncation_estimate == 0.0
    assert abs(e.interior_part - interior) <= 1e-12 * abs(e.total)


# -- cost guards: calls counted, not timed ----------------------------------------


def count_calls(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("periodic", [False, True], ids=["free", "torus"])
@pytest.mark.parametrize("dim", [1, 2])
def test_energy_fft_products(monkeypatch, dim, periodic, m):
    # the torus needs W*u per component; free space adds W*chi, W*(chi u)
    # per component and the bilinear form's W*u and W*(u^2)
    if periodic:
        grid = GridSpec(dim=dim, h=2 * np.pi / 32, radius=np.pi, periodic=True)
        u = random_field(grid, m, periodic_rule())
    else:
        u = random_field(GridSpec(dim=dim, h=1 / 8, radius=1.0), m, constant_rule([0.5] * m))
    products = count_calls(monkeypatch, operators, "_fft_product")
    s_energy(u, 0.5)
    assert len(products) == (m if periodic else 3 * m + 1)


def test_periodic_line_has_no_residue_fold(monkeypatch):
    folds = count_calls(monkeypatch, quadrature, "_torus_fold")
    _build_periodic_line_scheme(make_fractional_kernel(1, 0.4), line_torus(64))
    assert folds == []
