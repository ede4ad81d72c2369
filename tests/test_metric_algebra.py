"""The nodewise metric algebra against LAPACK.

A metric field ``SymTensorField(..., is_metric=True)`` holds its
determinant, which its inverse (``geometry.inverse_metric``) and its
volume density (``geometry.volume_density``) read.  At every d the
positive-definiteness check is the sign test of the LDL^T pivots, taken
in blocks of nodes, and the determinant is their product; the inverse is
the adjugate over it at d <= 3 and L^-T D^-1 L^-1 from d = 4 on.  No
LAPACK routine is called on that path, so LAPACK is the reference here.
With eps the float64 unit roundoff and the Frobenius condition estimate
kappa = ||g|| ||g^-1|| of a node, the factorization is held to LAPACK at
every node within

* inverse: ||inv - np.linalg.inv||_F <= 2 d eps kappa ||np.linalg.inv||_F;
* determinant: |det - np.linalg.det| <= 4 d eps (kappa + |log det|) |det|.
  The log term is the reference's own roundoff: numpy forms the
  determinant as the exponential of the summed logs of the LU pivots.

A failed check reports what a LAPACK Cholesky check and inverse would
lead to: the first node whose smallest eigenvalue is not positive, or
the node of the largest condition estimate, and that node's smallest
eigenvalue.
"""

import math
import warnings

import numpy as np
import pytest

from warpflow import geometry, grids
from warpflow.errors import MetricDegeneracyError
from warpflow.grids import GridSpec, SymTensorField

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

EPS = np.finfo(float).eps


def frobenius(mats):
    return np.sqrt(np.sum(mats * mats, axis=(-2, -1)))


def rotated(spectra, seed):
    """Symmetric matrices with the given eigenvalues, (n, d) -> (n, d, d),
    in random orthonormal frames."""
    n, d = spectra.shape
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, d, d)))
    mats = (q * spectra[:, None, :]) @ np.swapaxes(q, -1, -2)
    return 0.5 * (mats + np.swapaxes(mats, -1, -2))


def metric_of(mats):
    """The metric field on a grid of 8 or more points per axis whose
    nodes, in C order, carry ``mats`` and then copies of the identity."""
    d = mats.shape[-1]
    side = max(8, math.ceil(len(mats) ** (1.0 / d)))
    grid = GridSpec((side,) * d, (1.0,) * d)
    vals = np.broadcast_to(np.eye(d), (side ** d, d, d)).copy()
    vals[:len(mats)] = mats
    return SymTensorField(grid, vals.reshape(grid.shape + (d, d)),
                          is_metric=True)


def assert_matches_lapack(g):
    d = g.grid.dim
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inv = geometry.inverse_metric(g)
        det = geometry.volume_density(g).values ** 2
    ref_inv = np.linalg.inv(g.values)
    ref_det = np.linalg.det(g.values)
    kappa = frobenius(g.values) * frobenius(ref_inv)
    assert np.all(frobenius(inv - ref_inv)
                  <= 2 * d * EPS * kappa * frobenius(ref_inv))
    # volume_density's square root and its square add 2 ulps
    assert np.all(np.abs(det - ref_det) <= 4 * d * EPS
                  * (kappa + np.abs(np.log(ref_det)) + 2) * ref_det)


@st.composite
def spd_fields(draw):
    d = draw(st.integers(1, 5))
    nodes = draw(st.integers(1, 600))
    log_cond = draw(st.floats(0.0, 11.0))
    log_scale = draw(st.floats(-3.0, 3.0))
    seed = draw(st.integers(0, 2**32 - 1))
    exps = np.random.default_rng(seed).uniform(size=(nodes, d))
    return metric_of(rotated(10.0 ** (log_scale - log_cond * exps), seed))


@settings(max_examples=60, deadline=None)
@given(spd_fields())
def test_closed_forms_match_lapack_on_random_spd_fields(g):
    assert_matches_lapack(g)


@pytest.mark.parametrize("spectrum", [(1.0, 1.5e-12), (1.0, 0.5, 2e-12),
                                      (1.0, 2e-12, 2e-12),
                                      (3.0, 8e-12, 5e-12),
                                      (1.0, 0.5, 0.3, 2e-12),
                                      (3.0, 8e-12, 5e-12, 1.0)])
def test_closed_forms_near_the_condition_limit(spectrum):
    # just inside CONDITION_LIMIT, with one or two small eigenvalues
    g = metric_of(rotated(np.array([spectrum] * 5), len(spectrum)))
    kappa = frobenius(g.values) * frobenius(np.linalg.inv(g.values))
    assert 1e11 < kappa.max() < geometry.CONDITION_LIMIT
    assert_matches_lapack(g)


@pytest.mark.parametrize("spectrum", [(1.0, 5e-13), (1.0, 0.5, 5e-13),
                                      (1.0, 5e-13, 5e-13),
                                      (1.0, 0.5, 0.3, 5e-13)])
def test_just_past_the_condition_limit_is_refused(spectrum):
    g = metric_of(rotated(np.array([spectrum]), 0))
    assert geometry.CONDITION_LIMIT < float(
        (frobenius(g.values) * frobenius(np.linalg.inv(g.values))).max())
    with pytest.raises(MetricDegeneracyError) as err:
        geometry.inverse_metric(g)
    assert err.value.node == (0,) * len(spectrum)


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("scale", [1e-110, 1e110, 1e200])
def test_determinant_out_of_float_range_is_refused(scale, d):
    # positive definite, but the determinant under- or overflows: the
    # inverse would be zeros or NaNs, so the guard refuses it, and no
    # floating-point warning escapes on the way
    grid = GridSpec((8,) * d, (1.0,) * d)
    vals = np.broadcast_to(np.eye(d), grid.shape + (d, d)).copy()
    node = (7,) * (d - 1) + (6,)
    vals[node] *= scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = SymTensorField(grid, vals, is_metric=True)
        with pytest.raises(MetricDegeneracyError) as err:
            geometry.inverse_metric(g)
    assert err.value.node == node
    assert err.value.eigenvalue == scale
    assert "condition estimate inf" in str(err.value)


# Grids of 4100, 4352 and 4608 nodes: the check runs in blocks of 4096,
# so the bad nodes past node 4096 sit in its ragged last block.
RAGGED = {1: (4100,), 3: (16, 16, 17), 4: (8, 8, 8, 9)}


def field_with(d, bad):
    """Identity metric values on RAGGED[d] with ``bad`` {node: matrix}."""
    grid = GridSpec(RAGGED[d], (1.0,) * d)
    vals = np.broadcast_to(np.eye(d), grid.shape + (d, d)).copy()
    for node, mat in bad.items():
        vals[node] = mat
    return grid, vals


def lapack_spd_report(grid, vals):
    """The node and eigenvalue LAPACK's check reported: the first node in
    C order whose smallest eigenvalue is not positive."""
    eigs = np.linalg.eigvalsh(vals.reshape(-1, grid.dim, grid.dim))[:, 0]
    flat = int(np.nonzero(eigs <= 0.0)[0][0])
    return tuple(int(c) for c in np.unravel_index(flat, grid.shape)), \
        float(eigs[flat])


def lapack_condition_report(g):
    """The node and eigenvalue LAPACK's inverse leads the guard to: the
    largest condition estimate, or the first NaN one."""
    with np.errstate(all="ignore"):
        kappa = frobenius(g.values) * frobenius(np.linalg.inv(g.values))
    flat = int(np.argmax(kappa))
    node = tuple(int(c) for c in np.unravel_index(flat, g.grid.shape))
    return node, float(np.linalg.eigvalsh(g.values[node])[0])


SPD_CASES = [
    (1, {(4098,): [[-0.5]]}),
    (1, {(4097,): [[0.0]]}),
    (1, {(4097,): [[0.0]], (4099,): [[-2.0]]}),
    (1, {(17,): [[-1e-300]], (4098,): [[-3.0]]}),
    (3, {(15, 15, 10): rotated(np.array([[1.0, -1e-3, 2.0]]), 1)[0]}),
    (3, {(15, 15, 16): np.diag([1.0, 1.0, 0.0])}),
    (3, {(15, 15, 16): np.diag([1.0, 1.0, 0.0]),
         (15, 15, 12): rotated(np.array([[2.0, 1.0, -0.25]]), 2)[0]}),
    (4, {(7, 5, 3, 8): rotated(np.array([[1.0, 2.0, -1e-3, 0.5]]), 6)[0]}),
    (4, {(7, 7, 7, 8): np.diag([1.0, 1.0, 1.0, 0.0])}),
    (4, {(7, 6, 0, 0): np.diag([1.0, 0.0, 1.0, 1.0]),
         (7, 7, 7, 1): rotated(np.array([[3.0, -2.0, 1.0, 1.0]]), 7)[0]}),
    (4, {(0, 0, 0, 5): np.diag([1.0, 1.0, -1e-300, 1.0]),
         (7, 6, 2, 2): np.diag([-3.0, 1.0, 1.0, 1.0])}),
]


@pytest.mark.parametrize("d,bad", SPD_CASES)
def test_spd_report_matches_the_lapack_path(d, bad):
    grid, vals = field_with(d, bad)
    node, lam = lapack_spd_report(grid, vals)
    with pytest.raises(MetricDegeneracyError) as err:
        SymTensorField(grid, vals, is_metric=True)
    assert (err.value.node, err.value.eigenvalue) == (node, lam)
    assert str(err.value) == (f"metric is not positive definite at node "
                              f"{node} (smallest eigenvalue {lam:.6e})")


CONDITION_CASES = [
    # at d = 1 the estimate is 1 wherever it is finite: the guard fires
    # only where an entry's square leaves the float range, which made a
    # NaN estimate that the LAPACK path let slip past
    (1, {(4098,): [[1e-200]]}),
    (3, {(15, 15, 13): rotated(np.array([[1.0, 1.0, 1e-13]]), 3)[0]}),
    (3, {(2, 3, 4): rotated(np.array([[1.0, 1e-13, 1e-13]]), 4)[0],
         (15, 15, 13): rotated(np.array([[1.0, 2.0, 1e-14]]), 5)[0]}),
    (4, {(7, 6, 5, 4): rotated(np.array([[1.0, 1.0, 0.5, 1e-13]]), 8)[0]}),
    (4, {(2, 3, 4, 5): rotated(np.array([[1.0, 1e-13, 1.0, 1e-13]]), 9)[0],
         (7, 7, 1, 8): rotated(np.array([[1.0, 2.0, 3.0, 1e-14]]), 10)[0]}),
]


@pytest.mark.parametrize("d,bad", CONDITION_CASES)
def test_condition_report_matches_the_lapack_path(d, bad):
    grid, vals = field_with(d, bad)
    g = SymTensorField(grid, vals, is_metric=True)
    node, lam = lapack_condition_report(g)
    with pytest.raises(MetricDegeneracyError) as err:
        geometry.inverse_metric(g)
    assert (err.value.node, err.value.eigenvalue) == (node, lam)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_no_lapack_on_the_metric_path(monkeypatch, d):
    calls = []

    def counted(name):
        lapack = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls.append(name)
            return lapack(*args, **kwargs)
        return call

    mats = rotated(np.ones((1, d)) + np.arange(d), d)
    for name in ("inv", "det", "cholesky"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    g = metric_of(mats)
    geometry.inverse_metric(g)
    geometry.volume_density(g)
    assert calls == []


@pytest.mark.parametrize("d", [4, 5])
def test_factorization_is_the_same_for_any_block_size(monkeypatch, d):
    # every node is factored on its own, so where a block ends changes
    # no bit of the determinant or the inverse
    grid = GridSpec((8,) * (d - 1) + (9,), (1.0,) * d)
    spectra = 10.0 ** np.random.default_rng(d).uniform(
        -4.0, 4.0, (math.prod(grid.shape), d))
    vals = rotated(spectra, d).reshape(grid.shape + (d, d))
    results = []
    for block in (4096, 1000):
        monkeypatch.setattr(grids, "_FACTOR_NODES", block)
        g = SymTensorField(grid, vals, is_metric=True)
        results.append((g.det, geometry.inverse_metric(g)))
    (det, inv), (det2, inv2) = results
    assert np.array_equal(det, det2) and np.array_equal(inv, inv2)
    assert np.array_equal(inv, np.swapaxes(inv, -1, -2))
