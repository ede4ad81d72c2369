"""The blocked kernels against the whole-grid formulas they replace.

``grids.diff_array`` reads its shifted operands as periodic slices into
one output array, and ``verify.curvature_study`` takes every max-norm in
one sweep, ``verify._peak``, over blocks of whole M nodes: it fills the
closed connection (``warped.christoffel_closed_filler``) one block at a
time, and reads the closed Ricci and scalar fields block by block.  The
blocks are cut by ``grids.node_blocks``, whose one block size
``grids._BLOCK_BYTES`` the tests below vary.  Every node sees the same floating-point operations in
the same order, so these are held to the plain formula bit for bit (sign
of zero included), whatever the shape, the strides or where the blocks
end.

The Christoffel cube stores Gamma^k_{ij} once per unordered pair (i, j),
packed by ``grids.pair_table``, and is laid out by upper index, one
C-contiguous field per k; the tests unpack it through the table, node
by node, and check every (k, i, j).  ``geometry._christoffel`` raises the
connection of the first kind with one batched matrix product per node
block, and the oracle's three contractions of the Christoffel cube (the
two Ricci terms and the Hessian's Gamma^k_{jl} D_k f) are batched matrix
products or einsums over the same node blocks.  Their sums run in
another order than the einsum formulas they stand for, so they are held
to those formulas within 8 d^2 ulps of the summed magnitudes at every
node, and to themselves bit for bit wherever the blocks end.
``geometry._ricci_pass`` also runs its stencils in slabs cut by the same
block size, unpacks their sum block by block, and symmetrizes, takes
the residue and contracts the scalar block by block: its scalar is held
to the whole-grid einsum bit for bit, and its Ricci, residue and scalar
to themselves wherever the slabs and blocks end.
``geometry._christoffel`` runs its stencils in the same slabs.  The
oracle pass is held to a traced memory budget at both stencil orders,
and one level of the curvature study, which hands its product metric
over to the pass, to the pass's floor.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from warpflow import geometry, grids, recipes, verify
from warpflow.grids import (Christoffel3Field, GridSpec, ScalarField,
                            diff_array, pack_pairs, pair_table)
from warpflow.verify import FieldSpec, StudySpec
from warpflow.warped import (assemble_product_metric, christoffel_closed_filler,
                             ricci_closed_ansatz, ricci_closed_general,
                             solve_perelman_constants)


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
@pytest.mark.parametrize("points", SHAPES + [(9, 8), (8, 10, 8)])
def test_diff_array_matches_roll_formula(points, order):
    """Contiguous and strided operands are the formula to the bit.  An
    8-point last axis puts order 4's boundary runs of a scalar at a
    64-byte stride, where numpy 2.4.6's np.negative reads and writes the
    wrong nodes."""
    grid = grid_of(points, order)
    d = grid.dim
    rng = np.random.default_rng(len(points) + order)
    scalar = rng.standard_normal(points)
    scalar[(0,) * d] = -0.0
    metric = recipes.random_spd_metric(grid, rng, 0.3).values
    cube = rng.standard_normal(points + (d, d, d))
    for axis in range(d):
        for values in (scalar, metric,            # trailing component axes
                       cube[..., d - 1, :, :],    # strided
                       cube[..., :, 0, :]):
            assert_bitwise(diff_array(values, grid, axis),
                           roll_diff(values, grid, axis))


def pairs(d):
    return d * (d + 1) // 2


def unpacked(cube):
    """A packed cube (d,) + grid + (P,) as Gamma^k_{ij} with the grid
    axes first, grid + (k, i, j)."""
    return np.moveaxis(cube, 0, -2)[..., pair_table(len(cube))]


def cube_bytes(nodes, d):
    """The block size, in bytes, that makes blocks of ``nodes`` nodes of
    the packed cube."""
    return nodes * 8 * d * pairs(d)


# block sizes, in nodes, for a grid of ``nodes`` nodes
BLOCKS = {"below_one": lambda nodes: nodes + 5,
          "one_plus_one": lambda nodes: nodes - 1,
          "ragged": lambda nodes: 7}


def christoffel_at_block_size(g, nodes):
    """``_christoffel`` of g and its inverse, swept in blocks of ``nodes``
    nodes, packed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grids, "_BLOCK_BYTES", cube_bytes(nodes, g.grid.dim))
        return geometry._christoffel(pack_pairs(g.values), g.grid,
                                     geometry.inverse_metric(g)).values


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("points", SHAPES[:1] + SHAPES[2:])
@pytest.mark.parametrize("blocks", sorted(BLOCKS))
def test_christoffel_matches_first_kind_formula(points, order, blocks):
    nodes, d = math.prod(points), len(points)
    grid = grid_of(points, order)
    g = recipes.random_spd_metric(grid, np.random.default_rng(nodes), 0.3)
    gamma = christoffel_at_block_size(g, BLOCKS[blocks](nodes))
    assert gamma.shape == (d,) + grid.shape + (pairs(d),)
    assert_within_ulps(unpacked(gamma), *first_kind_christoffel(
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
        gamma = geometry._christoffel(pack_pairs(g.values), grid, inv).values
        assert_within_ulps(unpacked(gamma), *first_kind_christoffel(g, inv),
                           d)
        assert_bitwise(gamma, christoffel_at_block_size(g, nodes))


@pytest.mark.parametrize("points", SHAPES)
def test_christoffel_values_are_one_plane_per_upper_index(points):
    # values[k] is Gamma^k over the grid, its pairs packed last, as one
    # C-contiguous field, so the stencils read and write whole planes; a
    # connection given in another memory order is stored C-contiguous,
    # and the node-major (grid, d, P) layout and the full cube are refused
    nodes, d = math.prod(points), len(points)
    grid = grid_of(points)
    g = recipes.random_spd_metric(grid, np.random.default_rng(nodes), 0.3)
    gamma = geometry.curvature_bundle(g).christoffel
    for k in range(d):
        assert gamma.values[k].shape == grid.shape + (pairs(d),)
        assert gamma.values[k].flags.c_contiguous
    node_major = np.moveaxis(gamma.values, 0, -2)
    assert np.shares_memory(node_major, gamma.values)
    again = Christoffel3Field(grid, np.moveaxis(node_major.copy(), -2, 0))
    assert again.values.flags.c_contiguous
    assert_bitwise(again.values, gamma.values)
    for shape in (grid.shape + (d, pairs(d)), grid.shape + (d, d, d)):
        with pytest.raises(ValueError, match="christoffel field"):
            Christoffel3Field(grid, np.zeros(shape))


def einsum_ricci(gamma):
    """The raw Ricci with its contractions as einsum formulas on the
    unpacked cube, and at every node the sum of the absolute values of
    its terms."""
    grid = gamma.grid
    d = grid.dim
    gam = unpacked(gamma.values)
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
    gam = unpacked(gamma.values)
    second = np.empty(grid.shape + (d, d))
    for l in range(d):
        for j in range(d):
            second[..., j, l] = roll_diff(df[..., l], grid, j)
    raw = second - np.einsum("...kjl,...k->...jl", gam, df)
    mag = np.abs(second) + np.einsum("...kjl,...k->...jl", np.abs(gam),
                                     np.abs(df))
    return (0.5 * (raw + np.swapaxes(raw, -1, -2)),
            np.maximum(mag, np.swapaxes(mag, -1, -2)))


def assert_within_ulps(actual, expected, mag, d):
    assert actual.shape == expected.shape
    gap = np.abs(actual - expected)
    assert np.all(gap <= 8 * d * d * np.finfo(float).eps * mag)


def random_cube(grid, rng):
    """A connection with no symmetry beyond its packed lower indices, so
    that no swap of the upper index with a lower one goes unseen."""
    d = grid.dim
    return Christoffel3Field(
        grid, rng.standard_normal((d,) + grid.shape + (pairs(d),)))


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


def node_major_hessian(df, gamma):
    """``_hessian`` with Gamma^k_{jl} D_k f summed over each block of the
    cube copied C-contiguous and node-major, (n, d, P)."""
    grid = gamma.grid
    d = grid.dim
    out = np.empty(grid.shape + (d, d))
    for j in range(d):
        out[..., j, :] = diff_array(df, grid, j)
    flat_out, flat_df = out.reshape(-1, d * d), df.reshape(-1, d)
    node_major = np.ascontiguousarray(
        np.moveaxis(gamma.values, 0, -2)).reshape(-1, d, pairs(d))
    for blk in geometry._node_blocks(grid):
        flat_out[blk] -= np.einsum("nk,nkp->np", flat_df[blk],
                                   node_major[blk])[:, pair_table(d).ravel()]
    return grids.symmetric_part(out)


@pytest.mark.parametrize("points", SHAPES)
def test_hessian_on_the_planes_matches_the_node_major_einsum(monkeypatch,
                                                             points):
    # _hessian sums D_k f Gamma^k_p over the cube's strided planes; numpy
    # does not promise that einsum runs those sums in the order it runs
    # them over a node-major copy, so this pins it, wherever blocks end
    nodes, d = math.prod(points), len(points)
    grid = grid_of(points)
    rng = np.random.default_rng(nodes)
    gamma = random_cube(grid, rng)
    df = geometry.gradient_components(
        ScalarField(grid, rng.standard_normal(points)))
    for size in [1, 7, nodes // 10, nodes - 1, nodes + 5]:
        monkeypatch.setattr(grids, "_BLOCK_BYTES", cube_bytes(size, d))
        assert_bitwise(geometry._hessian(df, gamma),
                       node_major_hessian(df, gamma))


@pytest.mark.parametrize("order", [2, 4])
def test_curvature_bundle_peak_memory(order):
    # Above the metric, the pass holds the packed Christoffel cube (2.5
    # matrix fields at d = 4), the inverse, the Ricci array and the trace
    # Gamma^a_{ab} (a quarter of a matrix field); every stencil, unpacking
    # and contraction temporary is slab- or block-sized.  Measured at
    # 16^4: the cube plus 2.44 matrix fields at either order; the bound
    # allows 0.06 of a field (1 MB) more.  A whole-grid packed Ricci
    # accumulator beside the Ricci array would add 0.63 of a field;
    # whole-grid Ricci temporaries (a stencil's result, R - R^T and its
    # absolute value) one field each; a whole-grid D_a g with the order-4
    # stencil's 8 v beside it, 0.6.
    grid = GridSpec((16,) * 4, (1.0, 1.7, 2.4, 3.1), order)
    g = recipes.random_spd_metric(grid, np.random.default_rng(1), 0.3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        bundle = geometry.curvature_bundle(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= bundle.christoffel.values.nbytes + 2.5 * g.values.nbytes


@pytest.mark.parametrize("points_m,points_n", [((16, 16), (16, 16)),
                                               ((16, 16, 16), (16,))])
def test_curvature_study_level_peak_memory(points_m, points_n):
    # The study hands the assembled product metric over to the oracle
    # pass, which frees it once it is packed, so one level peaks at the
    # Ricci pass's floor: the packed cube (2.5 matrix fields at d = 4),
    # the inverse, the Ricci array and the trace (a quarter of a field),
    # 4.75 fields.  Measured at 16^4: the floor plus 0.195 of a field on
    # (2,2) and 0.233 on (3,1), slabs, blocks and the factor grids'
    # pieces; the bound allows 0.3 (2.4 MB).  A metric kept alive through
    # the pass adds a whole field.
    m, n = len(points_m), len(points_n)
    nodes, d = math.prod(points_m + points_n), m + n
    field = nodes * d * d * 8
    spec = StudySpec(levels=((points_m, points_n),),
                     g_spec=FieldSpec("conformal-bump", 0.1, 1),
                     h_spec=FieldSpec("conformal-bump", 0.1, 1))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        verify.curvature_study(solve_perelman_constants(m, n), spec)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= nodes * 8 * d * pairs(d) + 2.25 * field + 0.3 * field


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
    mm = unpacked(p.bundle.christoffel.values)
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
    out[..., m:, m:, m:] = lift_n(unpacked(pg.n_bundle.christoffel.values))
    return out


# each family: the whole-grid gap it is read off and that gap's
# component blocks, r the indices of M and p those of N; the
# connection's gap is taken on the unpacked cubes, at every (k, i, j)
FAMILIES = {
    "chr_real_block": ("chr", ["rrr"]),
    "chr_zero_mixed": ("chr", ["prr", "rrp", "rpr"]),
    "chr_real_from_phantom": ("chr", ["rpp"]),
    "chr_phantom_mixed": ("chr", ["prp", "ppr"]),
    "chr_phantom_block": ("chr", ["ppp"]),
    "ricci_real_general": ("ricci_general", ["rr"]),
    "ricci_phantom_general": ("ricci_general", ["pp"]),
    "ricci_mixed_zero": ("ricci_oracle", ["rp"]),
    "scalar_general": ("scalar_general", [""]),
    "ricci_real_ansatz": ("ricci_ansatz", ["rr"]),
    "ricci_phantom_ansatz": ("ricci_ansatz", ["pp"]),
    "scalar_ansatz": ("scalar_ansatz", [""]),
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
    m_node = nodes_n * 8 * d * pairs(d)
    monkeypatch.setattr(grids, "_BLOCK_BYTES", int(size * m_node))
    assert len(grids.node_blocks(nodes_m, m_node)) == \
        math.ceil(nodes_m / max(1, size))

    pg = verify.build_product_geometry(spec)
    lifted = lifted_closed_christoffel(pg, c)
    # the closed families are symmetric in their lower indices, so the
    # packed filler loses nothing: it writes every pair, each bitwise
    assert_bitwise(lifted, np.swapaxes(lifted, -1, -2))
    fill = christoffel_closed_filler(pg, c)
    cube = np.full((nodes_m, nodes_n, d, pairs(d)), np.nan)
    for rows in grids.node_blocks(nodes_m, m_node):
        fill(rows, cube[rows])
    assert_bitwise(cube, pack_pairs(lifted).reshape(cube.shape))

    # every family of the study, the Ricci and scalar ones included, is
    # the whole-grid max of its gap, to the bit and in the CSV's order
    rows = verify.curvature_study(c, spec)
    oracle = geometry.curvature_bundle(assemble_product_metric(pg, c))
    gaps = {"chr": np.abs(lifted - unpacked(oracle.christoffel.values)),
            "ricci_oracle": np.abs(oracle.ricci.values)}
    for route, closed_forms in (("general", ricci_closed_general),
                                ("ansatz", ricci_closed_ansatz)):
        ricci, scalar = closed_forms(pg, c)
        gaps[f"ricci_{route}"] = np.abs(ricci.values - oracle.ricci.values)
        gaps[f"scalar_{route}"] = np.abs(scalar.values - oracle.scalar.values)
    part = {"r": slice(None, m), "p": slice(m, None)}
    assert [r.family for r in rows] == list(FAMILIES)
    for row, (family, (gap, comps)) in zip(rows, FAMILIES.items()):
        whole = max(float(gaps[gap][(...,) + tuple(part[i] for i in comp)]
                          .max()) for comp in comps)
        # the oracle's zero Christoffel family reads exact zeros, its
        # mixed Ricci roundoff; every other family is compared at nonzero
        # errors
        assert whole > 0.0 or family in ("chr_zero_mixed", "ricci_mixed_zero")
        assert row.error == whole, family
