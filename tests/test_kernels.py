"""The blocked kernels against the whole-grid formulas they replace.

``grids.diff_array`` reads its shifted operands as periodic slices into
one output array, ``verify._family_maxima`` takes its max-norms block by
block, and ``verify.curvature_study`` fills the closed connection
(``warped.christoffel_closed_filler``) in blocks of whole M nodes and
compares it with the oracle one block at a time.  The blocks are cut by
``grids.node_blocks``, whose one block size ``grids._BLOCK_BYTES`` the
tests below vary.  Every node sees the same floating-point operations in
the same order, so these are held to the plain formula bit for bit (sign
of zero included), whatever the shape, the strides or where the blocks
end.

``geometry._christoffel`` raises the connection of the first kind with
one batched matrix product per node block, and the oracle's three
contractions of the Christoffel cube (the two Ricci terms and the
Hessian's Gamma^k_{jl} D_k f) are batched matrix products or einsums over
the same node blocks.  Their sums run in another order than the einsum
formulas they stand for, so they are held to those formulas within
8 d^2 ulps of the summed magnitudes at every node, and to themselves bit
for bit wherever the blocks end.  ``geometry._ricci_pass`` also runs its
stencils in slabs cut by the same block size, and symmetrizes, takes the
residue and contracts the scalar block by block: its scalar is held to
the whole-grid einsum bit for bit, and its Ricci, residue and scalar to
themselves wherever the slabs and blocks end.  The Christoffel cube is
also held to bitwise symmetry in its lower indices, and the oracle pass
to a traced memory budget.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from warpflow import geometry, grids, recipes, verify
from warpflow.grids import Christoffel3Field, GridSpec, ScalarField, diff_array
from warpflow.verify import FieldSpec, StudySpec
from warpflow.warped import (assemble_product_metric, christoffel_closed_filler,
                             christoffel_closed_form, solve_perelman_constants)


def roll_diff(values, grid, axis):
    """The periodic central difference of the grid's order written with
    np.roll."""
    h = grid.spacing[axis]
    if grid.order == 2:
        return (np.roll(values, -1, axis)
                - np.roll(values, 1, axis)) / (2.0 * h)
    return (-np.roll(values, -2, axis) + 8.0 * np.roll(values, -1, axis)
            - 8.0 * np.roll(values, 1, axis) + np.roll(values, 2, axis)
            ) / (12.0 * h)


def first_kind_christoffel(g, inv):
    """Gamma^k_{ij} = (1/2) g^{kl} (D_i g_{jl} + D_j g_{il} - D_l g_{ij}) as
    einsums on the whole grid, and at every entry the sum of the
    absolute values of its terms."""
    grid = g.grid
    dg = np.stack([roll_diff(g.values, grid, a) for a in range(grid.dim)],
                  axis=-3)                       # (a, i, j): D_a g_{ij}
    d_i = np.einsum("...ijl->...lij", dg)        # D_i g_{jl}
    d_j = np.einsum("...jil->...lij", dg)        # D_j g_{il}
    gamma = 0.5 * np.einsum("...kl,...lij->...kij", inv, d_i + d_j - dg)
    mag = 0.5 * np.einsum("...kl,...lij->...kij", np.abs(inv),
                          np.abs(d_i) + np.abs(d_j) + np.abs(dg))
    return gamma, mag


def assert_bitwise(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def grid_of(points, order=2):
    return GridSpec(points, tuple(1.0 + 0.7 * i for i in range(len(points))),
                    order)


SHAPES = [(8,), (13,), (8, 11), (9, 8, 10), (8, 9, 8, 10)]


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("points", SHAPES)
def test_diff_array_matches_roll_formula(points, order):
    grid = grid_of(points, order)
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
            assert_bitwise(diff_array(values, grid, axis),
                           roll_diff(values, grid, axis))


def cube_bytes(nodes, d):
    """The block size, in bytes, that makes blocks of ``nodes`` nodes."""
    return nodes * 8 * d ** 3


# block sizes, in nodes, for a grid of ``nodes`` nodes
BLOCKS = {"below_one": lambda nodes: nodes + 5,
          "one_plus_one": lambda nodes: nodes - 1,
          "ragged": lambda nodes: 7}


def christoffel_at_block_size(g, nodes):
    """``_christoffel`` of g and its inverse, swept in blocks of ``nodes``
    nodes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grids, "_BLOCK_BYTES", cube_bytes(nodes, g.grid.dim))
        return geometry._christoffel(g, geometry.inverse_metric(g)).values


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("points", SHAPES[:1] + SHAPES[2:])
@pytest.mark.parametrize("blocks", sorted(BLOCKS))
def test_christoffel_matches_first_kind_formula(points, order, blocks):
    nodes, d = math.prod(points), len(points)
    grid = grid_of(points, order)
    g = recipes.random_spd_metric(grid, np.random.default_rng(nodes), 0.3)
    gamma = christoffel_at_block_size(g, BLOCKS[blocks](nodes))
    assert_within_ulps(gamma, *first_kind_christoffel(
        g, geometry.inverse_metric(g)), d)
    assert_bitwise(gamma, christoffel_at_block_size(g, nodes))


@pytest.mark.parametrize("order", [2, 4])
def test_christoffel_matches_at_the_module_block_size(order):
    # one block plus one node, and a d = 4 grid that is no multiple of it
    block_1d = grids._BLOCK_BYTES // cube_bytes(1, 1)
    for points in ((block_1d + 1,), (8, 9, 8, 10)):
        nodes, d = math.prod(points), len(points)
        assert nodes % (grids._BLOCK_BYTES // cube_bytes(1, d)) != 0
        grid = grid_of(points, order)
        g = recipes.random_spd_metric(grid, np.random.default_rng(order), 0.3)
        inv = geometry.inverse_metric(g)
        gamma = geometry._christoffel(g, inv).values
        assert_within_ulps(gamma, *first_kind_christoffel(g, inv), d)
        assert_bitwise(gamma, christoffel_at_block_size(g, nodes))


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("points", SHAPES[1:])
def test_christoffel_is_symmetric_in_its_lower_indices(points, order):
    # the sweep symmetrizes each block; no product is trusted to return
    # the (i, j) and (j, i) columns alike
    grid = grid_of(points, order)
    g = recipes.random_spd_metric(grid, np.random.default_rng(order), 0.5)
    gamma = geometry._christoffel(g, geometry.inverse_metric(g)).values
    assert np.array_equal(gamma, np.swapaxes(gamma, -1, -2))


def einsum_ricci(gamma):
    """The raw Ricci with its contractions as einsum formulas, and at
    every node the sum of the absolute values of its terms."""
    grid = gamma.grid
    d = grid.dim
    gam = gamma.values
    trace = np.einsum("...aab->...b", gam)
    deriv = np.zeros(grid.shape + (d, d))
    for a in range(d):
        deriv += roll_diff(gam[..., a, :, :], grid, a)
    for b in range(d):
        deriv[..., b, :] -= roll_diff(trace, grid, b)
    ric = (deriv + np.einsum("...pbd,...p->...bd", gam, trace)
           - np.einsum("...pad,...abp->...bd", gam, gam))
    mag = (np.abs(deriv)
           + np.einsum("...pbd,...p->...bd", np.abs(gam), np.abs(trace))
           + np.einsum("...pad,...abp->...bd", np.abs(gam), np.abs(gam)))
    return ric, mag


def einsum_hessian(df, gamma):
    """The symmetrized covariant Hessian with Gamma^k_{jl} D_k f as an
    einsum, and the sum of the absolute values of its terms."""
    grid = gamma.grid
    d = grid.dim
    second = np.empty(grid.shape + (d, d))
    for l in range(d):
        for j in range(d):
            second[..., j, l] = roll_diff(df[..., l], grid, j)
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
    return Christoffel3Field(grid, rng.standard_normal(grid.shape + (d,) * 3))


def ricci_and_hessian(grid, seed):
    """A random connection, a random symmetric stand-in for the inverse
    metric and a random f's partials, with ``_ricci_pass`` of the first
    two (its Ricci and scalar as arrays, and its residue) and the
    Hessian."""
    rng = np.random.default_rng(seed)
    gamma = random_cube(grid, rng)
    m = rng.standard_normal(grid.shape + (grid.dim,) * 2)
    inv = m + np.swapaxes(m, -1, -2)
    f = ScalarField(grid, rng.standard_normal(grid.shape))
    df = geometry.gradient_components(f)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")    # a random cube is under-resolved
        ric, scal, asym = geometry._ricci_pass(gamma, inv)
    return (gamma, inv, df, ric.values, scal.values, asym,
            geometry._hessian(df, gamma))


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("points", SHAPES)
@pytest.mark.parametrize("blocks", sorted(BLOCKS))
def test_contractions_match_einsum_formulas(monkeypatch, points, order,
                                            blocks):
    nodes, d = math.prod(points), len(points)
    monkeypatch.setattr(grids, "_BLOCK_BYTES",
                        cube_bytes(BLOCKS[blocks](nodes), d))
    gamma, inv, df, ric, scal, asym, hess = ricci_and_hessian(
        grid_of(points, order), nodes)
    raw, mag = einsum_ricci(gamma)
    raw_t, mag_t = np.swapaxes(raw, -1, -2), np.swapaxes(mag, -1, -2)
    assert_within_ulps(ric, 0.5 * (raw + raw_t), np.maximum(mag, mag_t), d)
    assert abs(asym - float(np.abs(raw - raw_t).max())) \
        <= 8 * d * d * np.finfo(float).eps * float((mag + mag_t).max())
    assert_bitwise(scal, np.einsum("...bd,...bd->...", inv, ric))
    assert_within_ulps(hess, *einsum_hessian(df, gamma), d)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("points", SHAPES)
def test_contractions_do_not_depend_on_the_block_size(monkeypatch, points,
                                                      order):
    # the block size cuts the stencil slabs too: nodes // 10 makes ragged
    # slabs of several planes
    nodes, d = math.prod(points), len(points)
    grid = grid_of(points, order)
    results = []
    for size in [1, 7, nodes // 10, nodes - 1, nodes + 5]:
        monkeypatch.setattr(grids, "_BLOCK_BYTES", cube_bytes(size, d))
        results.append(ricci_and_hessian(grid, nodes)[3:])
    for got in results[1:]:
        for actual, expected in zip(got, results[0]):
            assert_bitwise(np.asarray(actual), np.asarray(expected))


def test_curvature_bundle_peak_memory():
    # Above the metric, the pass holds the Christoffel cube, the inverse,
    # the Ricci array and the trace Gamma^a_{ab} (a quarter of a matrix
    # field at d = 4); every stencil and contraction temporary is slab- or
    # block-sized.  Measured at 16^4: the cube plus 2.45 matrix fields.
    # Whole-grid Ricci temporaries (a stencil's result, R - R^T and its
    # absolute value) would add one field each, 4.0 fields in all.
    grid = GridSpec((16,) * 4, (1.0, 1.7, 2.4, 3.1))
    g = recipes.random_spd_metric(grid, np.random.default_rng(1), 0.3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        bundle = geometry.curvature_bundle(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= bundle.christoffel.values.nbytes + 3 * g.values.nbytes


@pytest.mark.parametrize("nodes", [7, 71, 100_000])
def test_family_maxima_equal_whole_grid_maxima(monkeypatch, nodes):
    # blocks of `nodes` nodes of the cube operands (and 27x as many of the
    # scalar pair)
    shape, m, d = (8, 9), 2, 3
    monkeypatch.setattr(grids, "_BLOCK_BYTES", cube_bytes(nodes, d))
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


def lifted_closed_christoffel(pg, c):
    """The closed connection assembled whole on the product grid: each
    family an M-grid or N-grid array broadcast along the other factor's
    axes, the zero families left at zero."""
    m, n, d = c.m, c.n, c.m + c.n
    sm, sn = pg.grid_m.shape, pg.grid_n.shape

    def lift_m(arr):
        comp = arr.shape[len(sm):]
        return np.broadcast_to(arr.reshape(sm + (1,) * len(sn) + comp),
                               sm + sn + comp)

    def lift_n(arr):
        comp = arr.shape[len(sn):]
        return np.broadcast_to(arr.reshape((1,) * len(sm) + sn + comp),
                               sm + sn + comp)

    p = pg.m_pieces
    mm = p.bundle.christoffel.values.copy()
    half_a = 0.5 * c.A
    for k in range(m):
        mm[..., k, :, k] -= half_a * p.df
        mm[..., k, k, :] -= half_a * p.df
        mm[..., k, :, :] += half_a * p.df_raised[..., k, None, None] \
            * pg.g.values
    out = np.zeros(sm + sn + (d, d, d))
    out[..., :m, :m, :m] = lift_m(mm)
    vec = 0.5 * c.B * np.exp((c.A - c.B) * pg.f.values)[..., None] \
        * p.df_raised
    out[..., :m, m:, m:] = lift_m(vec)[..., :, None, None] \
        * lift_n(pg.h.values)[..., None, :, :]
    half_b_df = -0.5 * c.B * p.df
    for gam in range(m, d):
        out[..., gam, :m, gam] = lift_m(half_b_df)
        out[..., gam, gam, :m] = lift_m(half_b_df)
    out[..., m:, m:, m:] = lift_n(pg.n_bundle.christoffel.values)
    return out


CHR_FAMILIES = {
    "chr_real_block": ["rrr"],
    "chr_zero_mixed": ["prr", "rrp", "rpr"],
    "chr_real_from_phantom": ["rpp"],
    "chr_phantom_mixed": ["prp", "ppr"],
    "chr_phantom_block": ["ppp"],
}

# (m, n) and one level's M and N points: every closed family is live
PRODUCTS = [((2, 1), ((8, 9), (8,))), ((1, 3), ((10,), (8, 8, 9))),
            ((2, 2), ((8, 9), (8, 10)))]

# block sizes, in M nodes, for ``nodes_m`` M nodes; "half" is half of one
# M node's bytes, so that a single M node exceeds a block
M_BLOCKS = {"half": lambda nodes_m: 0.5, "ragged": lambda nodes_m: 7,
            "whole": lambda nodes_m: nodes_m + 5}


@pytest.mark.parametrize("blocks", sorted(M_BLOCKS))
@pytest.mark.parametrize("dims, level", PRODUCTS)
def test_streamed_christoffel_comparison_matches_whole_cubes(
        monkeypatch, dims, level, blocks):
    m, n = dims
    d = m + n
    c = solve_perelman_constants(m, n)
    spec = StudySpec(levels=(level,), g_spec=FieldSpec("random-spd", 0.2),
                     h_spec=FieldSpec("conformal-bump", 0.1, 1),
                     f_modes=(1, 2), seed=m + 2 * n)
    nodes_m, nodes_n = math.prod(level[0]), math.prod(level[1])
    size = M_BLOCKS[blocks](nodes_m)
    monkeypatch.setattr(grids, "_BLOCK_BYTES",
                        int(size * nodes_n * 8 * d ** 3))
    assert len(grids.node_blocks(nodes_m, nodes_n * 8 * d ** 3)) == \
        math.ceil(nodes_m / max(1, size))

    pg = verify.build_product_geometry(spec)
    lifted = lifted_closed_christoffel(pg, c)
    fill = christoffel_closed_filler(pg, c)
    cube = np.full((nodes_m, nodes_n, d, d, d), np.nan)
    for rows in grids.node_blocks(nodes_m, nodes_n * 8 * d ** 3):
        fill(rows, cube[rows])
    assert_bitwise(cube.reshape(lifted.shape), lifted)
    closed = christoffel_closed_form(pg, c).values
    assert_bitwise(closed, lifted)

    rows = verify.curvature_study(c, spec)
    oracle = geometry.curvature_bundle(
        assemble_product_metric(pg, c)).christoffel.values
    gap = np.abs(closed - oracle)
    part = {"r": slice(None, m), "p": slice(m, None)}
    for family, comps in CHR_FAMILIES.items():
        whole = max(float(gap[(...,) + tuple(part[i] for i in comp)].max())
                    for comp in comps)
        # the oracle's zero family reads exact zeros; every other family
        # is compared at nonzero errors
        assert whole > 0.0 or family == "chr_zero_mixed"
        (error,) = [r.error for r in rows if r.family == family]
        assert error == whole, family
