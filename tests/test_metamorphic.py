"""Metamorphic checks: relabelling the torus must relabel the curvature.

A periodic translation (``np.roll``) of the input fields, a permutation
of the grid axes applied together with the same permutation of the
tensor component axes, or the reflection x -> -x of one axis (node k to
node -k, and a sign flip of every tensor component along that axis) is
an isometry of the flat torus.  The oracle's Christoffel symbols, Ricci
tensor and scalar curvature, and the closed-form scalar curvature of a
warped product, must move with it to roundoff.
"""

import math

import numpy as np
import pytest

from warpflow import geometry, recipes
from warpflow.grids import GridSpec, ScalarField, SymTensorField, pair_table
from warpflow.warped import (ProductGeometry, closed_scalar_curvature,
                             solve_perelman_constants)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

TAU = 2.0 * math.pi
SETTINGS = settings(max_examples=6, deadline=None)


@st.composite
def torus_moves(draw):
    """A 2d/3d torus of 8-12 points per axis, a seed for its fields, a
    periodic shift and an axis permutation."""
    dim = draw(st.integers(2, 3))
    points = tuple(draw(st.integers(8, 12)) for _ in range(dim))
    periods = tuple(draw(st.sampled_from((TAU, 5.0, 8.0)))
                    for _ in range(dim))
    shift = tuple(draw(st.integers(0, n - 1)) for n in points)
    perm = tuple(draw(st.permutations(range(dim))))
    return GridSpec(points, periods), draw(st.integers(0, 2**32 - 1)), \
        shift, perm


def _permuted_grid(grid: GridSpec, perm) -> GridSpec:
    return GridSpec(tuple(grid.points[p] for p in perm),
                    tuple(grid.periods[p] for p in perm))


def _permute(arr: np.ndarray, perm, ncomp: int) -> np.ndarray:
    """Relabel the leading grid axes and the trailing ``ncomp`` component
    axes of ``arr`` by the same permutation."""
    dim = len(perm)
    out = np.transpose(arr, list(perm) + list(range(dim, dim + ncomp)))
    for axis in range(dim, dim + ncomp):
        out = np.take(out, perm, axis=axis)
    return out


def _permute_pairs(arr: np.ndarray, perm) -> np.ndarray:
    """Relabel the grid axes and the (k, p) component axes of a packed
    connection by one permutation, through the pair table: upper index
    k and pair (i, j) of the relabelled field are upper index perm[k]
    and pair (perm[i], perm[j]) of ``arr``."""
    dim = len(perm)
    rows, cols = np.triu_indices(dim)
    out = np.take(np.transpose(arr, list(perm) + [dim, dim + 1]), perm,
                  axis=dim)
    perm = np.asarray(perm)
    return np.take(out, pair_table(dim)[perm[rows], perm[cols]], axis=dim + 1)


def _reflect(arr: np.ndarray, axis: int, dim: int, ncomp: int) -> np.ndarray:
    """x -> -x on grid axis ``axis`` of a field on ``dim`` grid axes:
    node k moves to node -k mod N, and each of the trailing ``ncomp``
    component axes flips the sign of its ``axis`` entry."""
    out = np.roll(np.flip(arr, axis), 1, axis)
    sign = np.where(np.arange(dim) == axis, -1.0, 1.0)
    for comp in range(arr.ndim - ncomp, arr.ndim):
        shape = [1] * arr.ndim
        shape[comp] = dim
        out = out * sign.reshape(shape)
    return out


def _assert_moved(actual: np.ndarray, expected: np.ndarray):
    scale = max(1.0, float(np.abs(expected).max()))
    assert float(np.abs(actual - expected).max()) <= 1e-12 * scale


def _bundle_arrays(g: SymTensorField):
    """The oracle's connection, unpacked through the pair table to
    Gamma^k_{ij} with three component axes, its Ricci and its scalar."""
    b = geometry.curvature_bundle(g)
    return (np.moveaxis(b.christoffel.values, 0, -2)[
        ..., pair_table(g.grid.dim)],
            b.ricci.values, b.scalar.values)


@SETTINGS
@given(torus_moves())
def test_oracle_moves_with_translation(case):
    grid, seed, shift, _ = case
    g = recipes.random_spd_metric(grid, np.random.default_rng(seed), 0.3)
    axes = tuple(range(grid.dim))
    moved = SymTensorField(grid, np.roll(g.values, shift, axes),
                           is_metric=True)
    for before, after in zip(_bundle_arrays(g), _bundle_arrays(moved)):
        _assert_moved(after, np.roll(before, shift, axes))


@SETTINGS
@given(torus_moves())
def test_oracle_moves_with_axis_permutation(case):
    grid, seed, _, perm = case
    g = recipes.random_spd_metric(grid, np.random.default_rng(seed), 0.3)
    moved = SymTensorField(_permuted_grid(grid, perm),
                           _permute(g.values, perm, 2), is_metric=True)
    before, after = (geometry.curvature_bundle(g),
                     geometry.curvature_bundle(moved))
    _assert_moved(np.moveaxis(after.christoffel.values, 0, -2),
                  _permute_pairs(np.moveaxis(before.christoffel.values, 0, -2),
                                 perm))
    for ncomp, name in ((2, "ricci"), (0, "scalar")):
        _assert_moved(getattr(after, name).values,
                      _permute(getattr(before, name).values, perm, ncomp))


@SETTINGS
@given(torus_moves(), st.integers(0, 2))
def test_oracle_moves_with_reflection(case, axis):
    grid, seed, _, _ = case
    axis %= grid.dim
    g = recipes.random_spd_metric(grid, np.random.default_rng(seed), 0.3)
    moved = SymTensorField(grid, _reflect(g.values, axis, grid.dim, 2),
                           is_metric=True)
    for ncomp, before, after in zip((3, 2, 0), _bundle_arrays(g),
                                    _bundle_arrays(moved)):
        _assert_moved(after, _reflect(before, axis, grid.dim, ncomp))


def _closed_scalar(grid_m: GridSpec, g_vals: np.ndarray,
                   f_vals: np.ndarray) -> np.ndarray:
    grid_n = GridSpec((8,), (TAU,))
    pg = ProductGeometry(
        grid_m, grid_n, SymTensorField(grid_m, g_vals, is_metric=True),
        recipes.conformal_metric(grid_n, 0.1), ScalarField(grid_m, f_vals))
    return closed_scalar_curvature(
        pg, solve_perelman_constants(grid_m.dim, 1)).values


@SETTINGS
@given(torus_moves())
def test_closed_scalar_moves_with_translation_and_permutation(case):
    grid, seed, shift, perm = case
    rng = np.random.default_rng(seed)
    g = recipes.random_spd_metric(grid, rng, 0.3).values
    f = recipes.mixed_sine_scalar(grid, 0.3).values
    scal = _closed_scalar(grid, g, f)        # grid axes of M, then N's one
    axes = tuple(range(grid.dim))
    _assert_moved(_closed_scalar(grid, np.roll(g, shift, axes),
                                 np.roll(f, shift, axes)),
                  np.roll(scal, shift, axes))
    _assert_moved(_closed_scalar(_permuted_grid(grid, perm),
                                 _permute(g, perm, 2), _permute(f, perm, 0)),
                  np.transpose(scal, list(perm) + [grid.dim]))


@SETTINGS
@given(torus_moves(), st.integers(0, 2))
def test_closed_scalar_moves_with_reflection(case, axis):
    grid, seed, _, _ = case
    axis %= grid.dim
    rng = np.random.default_rng(seed)
    g = recipes.random_spd_metric(grid, rng, 0.3).values
    f = recipes.mixed_sine_scalar(grid, 0.3).values
    scal = _closed_scalar(grid, g, f)        # grid axes of M, then N's one
    _assert_moved(_closed_scalar(grid, _reflect(g, axis, grid.dim, 2),
                                 _reflect(f, axis, grid.dim, 0)),
                  _reflect(scal, axis, grid.dim, 0))
