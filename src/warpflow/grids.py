"""Periodic structured grids and the fields that live on them.

Everything downstream (curvature, functionals, flows) is assembled from the
primitives in this module: uniform grids on flat tori, periodic central
difference stencils, trapezoid quadrature and a sharp Fourier mode filter.

Conventions, fixed once for the whole package:

* A grid covers the torus [0, L_1) x ... x [0, L_d) with N_i uniformly
  spaced nodes per axis; node coordinates are k * L_i / N_i.  On a periodic
  uniform grid the trapezoid rule is a plain node sum times the cell
  volume, and that is what ``integrate`` computes.
* Derivatives are periodic central differences of order 2 or 4.  Second
  derivatives are always compositions of two first-derivative applications,
  never a dedicated wide stencil.  The composed operator is what makes the
  discrete integration-by-parts identity exact, see ``laplace_beltrami``
  in the geometry module.
* Tensor fields store grid axes first and component axes last, so a metric
  on a d-dimensional grid with shape ``shape`` is the full symmetric
  matrix array ``shape + (d, d)``, symmetric to the bit and read-only.
* All field values are float64 and finite; metrics are checked for
  positive definiteness node by node when flagged with ``is_metric``.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import GridMismatchError, MetricDegeneracyError

__all__ = [
    "GridSpec",
    "ScalarField",
    "SymTensorField",
    "Christoffel3Field",
    "integrate",
    "diff_array",
    "filter_array",
]


@dataclass(frozen=True)
class GridSpec:
    """A uniform periodic grid on a flat torus.

    Parameters
    ----------
    points : tuple of int
        Nodes per axis, at least 8 each (wide-stencil compositions need
        five distinct neighbours and the mode filter needs headroom below
        the Nyquist frequency).
    periods : tuple of float
        Axis lengths L_i > 0.
    """

    points: tuple[int, ...]
    periods: tuple[float, ...]

    def __post_init__(self):
        pts = tuple(int(p) for p in self.points)
        pers = tuple(float(L) for L in self.periods)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "periods", pers)
        if len(pts) == 0:
            raise ValueError("grid needs at least one axis")
        if len(pts) != len(pers):
            raise ValueError(
                f"got {len(pts)} point counts but {len(pers)} periods")
        if any(p < 8 for p in pts):
            raise ValueError(f"every axis needs at least 8 points, got {pts}")
        if any(not np.isfinite(L) or L <= 0 for L in pers):
            raise ValueError(f"periods must be positive and finite, got {pers}")

    @property
    def dim(self) -> int:
        return len(self.points)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.periods, self.points))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(np.asarray(self.spacing, dtype=float)))

    def coordinates(self, axis: int) -> np.ndarray:
        """Node coordinates along one axis, shape (N_axis,)."""
        self._check_axis(axis)
        h = self.spacing[axis]
        return np.arange(self.points[axis], dtype=float) * h

    def meshes(self) -> list[np.ndarray]:
        """Sparse broadcastable coordinate arrays, one per axis."""
        coords = [self.coordinates(a) for a in range(self.dim)]
        return list(np.meshgrid(*coords, indexing="ij", sparse=True))

    def _check_axis(self, axis: int):
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range for {self.dim}d grid")


def _validated_values(grid: GridSpec, values, comp_shape: tuple[int, ...],
                      what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    want = grid.shape + comp_shape
    if arr.shape != want:
        raise ValueError(f"{what} values must have shape {want}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")
    return arr


@dataclass(eq=False)
class ScalarField:
    """A scalar sampled at every grid node."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = _validated_values(self.grid, self.values, (), "scalar field")

    @classmethod
    def constant(cls, grid: GridSpec, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid: GridSpec, fn) -> "ScalarField":
        """Sample ``fn(*coordinate_meshes)`` on the grid."""
        vals = np.broadcast_to(fn(*grid.meshes()), grid.shape).astype(float)
        return cls(grid, vals.copy())

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


@dataclass(eq=False)
class SymTensorField:
    """A symmetric rank-2 tensor field, stored as the full matrix array
    ``grid.shape + (d, d)``.

    The constructor rejects values that are not symmetric to near
    roundoff (relative 1e-10) and stores their symmetric part
    0.5 (A + A^T) in a new read-only array, so the stored matrices are
    symmetric to the bit and cannot be written through ``values`` or
    ``matrix()``.  With ``is_metric=True`` the constructor additionally
    verifies positive definiteness at every node via a batched Cholesky
    factorization and reports the first offending node and its smallest
    eigenvalue on failure.
    """

    grid: GridSpec
    values: np.ndarray
    is_metric: bool = False
    # Set only by from_matrix(..., symmetrize=True): project unchecked.
    _symmetrize: InitVar[bool] = False

    def __post_init__(self, _symmetrize: bool):
        d = self.grid.dim
        arr = _validated_values(self.grid, self.values, (d, d),
                                "symmetric tensor")
        if not _symmetrize:
            _require_symmetric(arr)
        sym = np.add(arr, np.swapaxes(arr, -1, -2), order="C")
        sym *= 0.5
        sym.flags.writeable = False
        self.values = sym
        if self.is_metric:
            _require_spd(self.grid, sym)

    @classmethod
    def from_matrix(cls, grid: GridSpec, mat, is_metric: bool = False,
                    symmetrize: bool = False) -> "SymTensorField":
        """The field of a full (..., d, d) array; with ``symmetrize`` set,
        an asymmetric input is projected onto its symmetric part instead
        of rejected."""
        return cls(grid, mat, is_metric, symmetrize)

    def matrix(self) -> np.ndarray:
        """The stored (..., d, d) array itself: read-only, not a copy."""
        return self.values


def _require_symmetric(arr: np.ndarray):
    """Raise ValueError unless the (..., d, d) array is symmetric to
    1e-10 relative, comparing one (i, j) pair at a time so no full-size
    temporary is made."""
    d = arr.shape[-1]
    asym = max((float(np.abs(arr[..., i, j] - arr[..., j, i]).max())
                for i in range(d) for j in range(i + 1, d)), default=0.0)
    scale = max(1.0, float(arr.max()), -float(arr.min()))
    if asym > 1e-10 * scale:
        raise ValueError(
            f"matrix is not symmetric (max asymmetry {asym:.3e}); "
            "pass symmetrize=True to project")


def _require_spd(grid: GridSpec, mats: np.ndarray):
    """Raise MetricDegeneracyError unless every node matrix is symmetric
    positive definite.  The factors are discarded, so they are taken
    4096 nodes at a time: no full-size copy of the field is made."""
    nodes = mats.reshape(-1, grid.dim, grid.dim)
    try:
        for start in range(0, len(nodes), 4096):
            np.linalg.cholesky(nodes[start:start + 4096])
        return
    except np.linalg.LinAlgError:
        pass
    # Slow path only on failure: locate the first bad node for the report.
    eigs = np.linalg.eigvalsh(nodes)
    bad = np.nonzero(eigs[:, 0] <= 0.0)[0]
    flat = int(bad[0]) if bad.size else int(np.argmin(eigs[:, 0]))
    node = tuple(int(c) for c in np.unravel_index(flat, grid.shape))
    lam = float(eigs[flat, 0])
    raise MetricDegeneracyError(
        f"metric is not positive definite at node {node} "
        f"(smallest eigenvalue {lam:.6e})",
        node=node, eigenvalue=lam)


@dataclass(eq=False)
class Christoffel3Field:
    """Connection coefficients Gamma^k_{ij}, stored full as
    ``shape + (d, d, d)`` with axes ordered (k, i, j).

    Symmetry in the two lower indices is an invariant and is checked on
    construction unless the caller built the array symmetric by
    construction and says so.
    """

    grid: GridSpec
    values: np.ndarray
    check_symmetry: bool = field(default=True, repr=False)

    def __post_init__(self):
        d = self.grid.dim
        self.values = _validated_values(
            self.grid, self.values, (d, d, d), "christoffel field")
        if self.check_symmetry:
            asym = float(np.abs(self.values
                                - np.swapaxes(self.values, -1, -2)).max())
            scale = max(1.0, float(np.abs(self.values).max()))
            if asym > 1e-10 * scale:
                raise ValueError(
                    f"Gamma^k_ij must be symmetric in (i, j); "
                    f"max asymmetry {asym:.3e}")


def _same_grid(a, b, what: str):
    if a.grid != b.grid:
        raise GridMismatchError(f"{what}: fields live on different grids")


def _periodic_runs(n: int, shifts: tuple[int, ...]):
    """Split the nodes 0..n-1 of a periodic axis into runs on which no
    i + s wraps around, for every shift s.  Yields each run's slice and,
    per shift, the slice that holds the values at i + s over it."""
    cuts = sorted({0, n} | {-s % n for s in shifts})
    for lo, hi in zip(cuts, cuts[1:]):
        yield slice(lo, hi), [slice((lo + s) % n, (lo + s) % n + hi - lo)
                              for s in shifts]


def diff_array(values: np.ndarray, grid: GridSpec, axis: int,
               order: int = 2) -> np.ndarray:
    """Periodic central difference along one grid axis of an array whose
    leading axes are the grid axes.  Trailing component axes pass through.

    Every node sees the operations of the textbook formulas
    (v[i+1] - v[i-1]) / (2h) and
    (-v[i+2] + 8 v[i+1] - 8 v[i-1] + v[i-2]) / (12h), in that order; the
    shifted operands are read as periodic slices and the result is
    written into one output array.
    """
    grid._check_axis(axis)
    h = grid.spacing[axis]
    if order not in (2, 4):
        raise ValueError(f"stencil order must be 2 or 4, got {order}")
    values = np.asarray(values)
    out = np.empty(values.shape, np.result_type(values, 1.0))
    lead = (slice(None),) * axis
    if order == 2:
        for run, (p1, m1) in _periodic_runs(values.shape[axis], (1, -1)):
            np.subtract(values[lead + (p1,)], values[lead + (m1,)],
                        out=out[lead + (run,)])
        out /= 2.0 * h
        return out
    eight = 8.0 * values
    for run, (p2, p1, m1, m2) in _periodic_runs(values.shape[axis],
                                                (2, 1, -1, -2)):
        o = out[lead + (run,)]
        np.negative(values[lead + (p2,)], out=o)
        o += eight[lead + (p1,)]
        o -= eight[lead + (m1,)]
        o += values[lead + (m2,)]
    out /= 12.0 * h
    return out


def integrate(f: ScalarField, weight: ScalarField | None = None) -> float:
    """Trapezoid-rule integral of ``f`` (times ``weight`` if given).

    On a periodic uniform grid the trapezoid rule has no boundary terms:
    it is the node sum times the cell volume.  numpy's pairwise summation
    makes the result deterministic for a fixed shape.
    """
    if weight is None:
        total = np.sum(f.values)
    else:
        _same_grid(f, weight, "integrate")
        total = np.sum(f.values * weight.values)
    return float(total * f.grid.cell_volume)


def filter_array(values: np.ndarray, grid: GridSpec, cutoff: float) -> np.ndarray:
    """Sharp low-pass Fourier filter over the grid axes.

    Zeroes every mode whose integer wavenumber exceeds ``cutoff`` times
    the axis Nyquist index on any axis.  ``cutoff=1.0`` is the identity
    and returns a plain copy without touching the spectrum.
    """
    if not 0.0 < cutoff <= 1.0:
        raise ValueError(f"cutoff must lie in (0, 1], got {cutoff}")
    if cutoff == 1.0:
        return values.copy()
    dim = grid.dim
    spec = np.fft.fftn(values, axes=tuple(range(dim)))
    for ax in range(dim):
        n = grid.points[ax]
        k = np.abs(np.fft.fftfreq(n) * n)
        keep = k <= cutoff * (n // 2)
        shape = [1] * spec.ndim
        shape[ax] = n
        spec = spec * keep.reshape(shape)
    out = np.fft.ifftn(spec, axes=tuple(range(dim))).real
    return np.ascontiguousarray(out)
