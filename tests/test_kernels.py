"""The blocked kernels against the whole-grid formulas they replace.

``grids.diff_array`` reads its shifted operands as periodic slices into
one output array, ``geometry._christoffel`` sweeps the flattened nodes in
blocks, and ``verify._family_maxima`` takes its max-norms block by block.
Every node sees the same floating-point operations in the same order, so
these three are held to the plain formula bit for bit (sign of zero
included), whatever the shape, the strides or where the blocks end.

The oracle's three contractions of the Christoffel cube (the two Ricci
terms and Hessian's Gamma^k_{jl} D_k f) are batched matrix products over
the same node blocks.  Their sums run in another order than the einsum
formulas they stand for, so they are held to those formulas within
8 d^2 ulps of the summed magnitudes at every node, and to themselves bit
for bit wherever the blocks end.
"""

import math

import numpy as np
import pytest

from warpflow import geometry, recipes, verify
from warpflow.grids import Christoffel3Field, GridSpec, ScalarField, diff_array


def roll_diff(values, grid, axis, order):
    """The periodic central difference written with np.roll."""
    h = grid.spacing[axis]
    if order == 2:
        return (np.roll(values, -1, axis)
                - np.roll(values, 1, axis)) / (2.0 * h)
    return (-np.roll(values, -2, axis) + 8.0 * np.roll(values, -1, axis)
            - 8.0 * np.roll(values, 1, axis) + np.roll(values, 2, axis)
            ) / (12.0 * h)


def loop_christoffel(g, inv, order):
    """Gamma^k_{ij} assembled on the whole grid, one k at a time."""
    grid = g.grid
    d = grid.dim
    out = np.zeros(grid.shape + (d, d, d))
    for a in range(d):
        da = roll_diff(g.values, grid, a, order)
        half_raised = 0.5 * np.matmul(inv, da)
        out[..., :, a, :] += half_raised
        out[..., :, :, a] += half_raised
        for k in range(d):
            out[..., k, :, :] -= 0.5 * inv[..., k, a, None, None] * da
    return out


def assert_bitwise(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def grid_of(points):
    return GridSpec(points, tuple(1.0 + 0.7 * i for i in range(len(points))))


SHAPES = [(8,), (13,), (8, 11), (9, 8, 10), (8, 9, 8, 10)]


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("points", SHAPES)
def test_diff_array_matches_roll_formula(points, order):
    grid = grid_of(points)
    d = grid.dim
    rng = np.random.default_rng(len(points) + order)
    scalar = rng.standard_normal(points)
    scalar[(0,) * d] = -0.0
    metric = recipes.random_spd_metric(grid, rng, 0.3).values
    cube = rng.standard_normal(points + (d, d, d))
    for axis in range(d):
        for values in (scalar, metric,            # trailing component axes
                       cube[..., d - 1, :, :],    # strided, like gam[..., a]
                       cube[..., :, 0, :]):
            assert_bitwise(diff_array(values, grid, axis, order),
                           roll_diff(values, grid, axis, order))


def cube_bytes(nodes, d):
    """The block size, in bytes, that makes blocks of ``nodes`` nodes."""
    return nodes * 8 * d ** 3


# block sizes, in nodes, for a grid of ``nodes`` nodes
BLOCKS = {"below_one": lambda nodes: nodes + 5,
          "one_plus_one": lambda nodes: nodes - 1,
          "ragged": lambda nodes: 7}


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("points", SHAPES[:1] + SHAPES[2:])
@pytest.mark.parametrize("blocks", sorted(BLOCKS))
def test_christoffel_matches_whole_grid_loop(monkeypatch, points, order,
                                             blocks):
    nodes = math.prod(points)
    monkeypatch.setattr(geometry, "_BLOCK_BYTES",
                        cube_bytes(BLOCKS[blocks](nodes), len(points)))
    grid = grid_of(points)
    g = recipes.random_spd_metric(grid, np.random.default_rng(nodes), 0.3)
    inv = geometry.inverse_metric(g)
    assert_bitwise(geometry._christoffel(g, inv, order).values,
                   loop_christoffel(g, inv, order))


@pytest.mark.parametrize("order", [2, 4])
def test_christoffel_matches_at_the_module_block_size(order):
    # one block plus one node, and a d = 4 grid that is no multiple of it
    block_1d = geometry._BLOCK_BYTES // cube_bytes(1, 1)
    for points in ((block_1d + 1,), (8, 9, 8, 10)):
        block = geometry._BLOCK_BYTES // cube_bytes(1, len(points))
        assert math.prod(points) % block != 0
        grid = grid_of(points)
        g = recipes.random_spd_metric(grid, np.random.default_rng(order), 0.3)
        inv = geometry.inverse_metric(g)
        assert_bitwise(geometry._christoffel(g, inv, order).values,
                       loop_christoffel(g, inv, order))


def einsum_ricci(gamma, order):
    """The raw Ricci with its contractions as einsum formulas, and at
    every node the sum of the absolute values of its terms."""
    grid = gamma.grid
    d = grid.dim
    gam = gamma.values
    trace = np.einsum("...aab->...b", gam)
    deriv = np.zeros(grid.shape + (d, d))
    for a in range(d):
        deriv += roll_diff(gam[..., a, :, :], grid, a, order)
    for b in range(d):
        deriv[..., b, :] -= roll_diff(trace, grid, b, order)
    ric = (deriv + np.einsum("...pbd,...p->...bd", gam, trace)
           - np.einsum("...pad,...abp->...bd", gam, gam))
    mag = (np.abs(deriv)
           + np.einsum("...pbd,...p->...bd", np.abs(gam), np.abs(trace))
           + np.einsum("...pad,...abp->...bd", np.abs(gam), np.abs(gam)))
    return ric, mag


def einsum_hessian(df, gamma, order):
    """The symmetrized covariant Hessian with Gamma^k_{jl} D_k f as an
    einsum, and the sum of the absolute values of its terms."""
    grid = gamma.grid
    d = grid.dim
    second = np.empty(grid.shape + (d, d))
    for l in range(d):
        for j in range(d):
            second[..., j, l] = roll_diff(df[..., l], grid, j, order)
    raw = second - np.einsum("...kjl,...k->...jl", gamma.values, df)
    mag = np.abs(second) + np.einsum("...kjl,...k->...jl",
                                     np.abs(gamma.values), np.abs(df))
    return (0.5 * (raw + np.swapaxes(raw, -1, -2)),
            np.maximum(mag, np.swapaxes(mag, -1, -2)))


def assert_within_ulps(actual, expected, mag, d):
    assert actual.shape == expected.shape
    gap = np.abs(actual - expected)
    assert np.all(gap <= 8 * d * d * np.finfo(float).eps * mag)


def random_cube(grid, rng):
    """A connection with no symmetry at all, so that no swap of the lower
    indices goes unseen."""
    d = grid.dim
    return Christoffel3Field(grid, rng.standard_normal(grid.shape + (d,) * 3),
                             check_symmetry=False)


def ricci_and_hessian(grid, order, seed):
    rng = np.random.default_rng(seed)
    gamma = random_cube(grid, rng)
    f = ScalarField(grid, rng.standard_normal(grid.shape))
    df = geometry.gradient_components(f, order)
    return (gamma, df, geometry._ricci_matrix(gamma, order),
            geometry.hessian(df, gamma, order).values)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("points", SHAPES)
@pytest.mark.parametrize("blocks", sorted(BLOCKS))
def test_contractions_match_einsum_formulas(monkeypatch, points, order,
                                            blocks):
    nodes, d = math.prod(points), len(points)
    monkeypatch.setattr(geometry, "_BLOCK_BYTES",
                        cube_bytes(BLOCKS[blocks](nodes), d))
    gamma, df, ric, hess = ricci_and_hessian(grid_of(points), order, nodes)
    assert_within_ulps(ric, *einsum_ricci(gamma, order), d)
    assert_within_ulps(hess, *einsum_hessian(df, gamma, order), d)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("points", SHAPES)
def test_contractions_do_not_depend_on_the_block_size(monkeypatch, points,
                                                      order):
    nodes, d = math.prod(points), len(points)
    grid = grid_of(points)
    results = []
    for size in [1, 7, nodes - 1, nodes + 5]:
        monkeypatch.setattr(geometry, "_BLOCK_BYTES", cube_bytes(size, d))
        results.append(ricci_and_hessian(grid, order, nodes)[2:])
    for ric, hess in results[1:]:
        assert_bitwise(ric, results[0][0])
        assert_bitwise(hess, results[0][1])


@pytest.mark.parametrize("nodes", [7, 71, 100_000])
def test_family_maxima_equal_whole_grid_maxima(monkeypatch, nodes):
    # blocks of `nodes` nodes of the cube operands (and 27x as many of the
    # scalar pair)
    shape, m, d = (8, 9), 2, 3
    monkeypatch.setattr(verify, "_BLOCK_BYTES", cube_bytes(nodes, d))
    rng = np.random.default_rng(nodes)
    a, b = rng.standard_normal((2,) + shape + (d, d, d))
    s, t = rng.standard_normal((2,) + shape)
    r, p = slice(None, m), slice(m, None)
    got = verify._family_maxima(shape, {
        "diff": [(a, b, (r, p, p)), (a, b, (p, r, p))],
        "abs": [(b, None, (p, r, r))],
        "scalar": [(s, t, ())]})
    assert got == {
        "diff": max(float(np.abs(a[..., r, p, p] - b[..., r, p, p]).max()),
                    float(np.abs(a[..., p, r, p] - b[..., p, r, p]).max())),
        "abs": float(np.abs(b[..., p, r, r]).max()),
        "scalar": float(np.abs(s - t).max())}
