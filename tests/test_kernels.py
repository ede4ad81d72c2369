"""The blocked kernels against the whole-grid formulas they replace.

``grids.diff_array`` reads its shifted operands as periodic slices into
one output array, ``geometry._christoffel`` sweeps the flattened nodes in
blocks, and ``verify._family_maxima`` takes its max-norms block by block.
Every node must still see the same floating-point operations in the same
order, so each is held to the plain formula bit for bit (sign of zero
included), whatever the shape, the strides or where the blocks end.
"""

import math

import numpy as np
import pytest

from warpflow import geometry, recipes, verify
from warpflow.grids import GridSpec, diff_array


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


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("points", SHAPES[:1] + SHAPES[2:])
@pytest.mark.parametrize("blocks", ["below_one", "one_plus_one", "ragged"])
def test_christoffel_matches_whole_grid_loop(monkeypatch, points, order,
                                             blocks):
    nodes = math.prod(points)
    size = {"below_one": nodes + 5, "one_plus_one": nodes - 1,
            "ragged": 7}[blocks]
    monkeypatch.setattr(geometry, "_BLOCK_BYTES",
                        cube_bytes(size, len(points)))
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
