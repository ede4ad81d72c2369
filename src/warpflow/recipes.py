"""Named analytic initial-data families.

Every experiment starts from one of these recipes, so a run is fully
reproduced by (family name, parameters, seed).  Random families draw a
bounded number of low Fourier modes from a seeded generator; smoothness
is guaranteed by construction, positive definiteness by a Gershgorin
margin.

Phases in the deterministic families are fixed arbitrary constants,
different per axis, chosen to break accidental symmetries (a pure
sin(k x) profile has vanishing integrals against half the test
functionals, which hides bugs).
"""

from __future__ import annotations

import numpy as np

from .grids import GridSpec, ScalarField, SymTensorField

__all__ = [
    "flat_metric",
    "conformal_metric",
    "sine_scalar",
    "mixed_sine_scalar",
    "random_spd_metric",
    "random_sym_tensor",
    "high_mode_scalar",
]

_PHASE_STEP = 0.7853981633974483  # pi/4, staggers the per-axis phases


def flat_metric(grid: GridSpec) -> SymTensorField:
    """The identity metric."""
    vals = np.broadcast_to(np.eye(grid.dim), grid.shape + (grid.dim,) * 2)
    return SymTensorField(grid, vals, is_metric=True)


def _conformal_exponent(grid: GridSpec, amplitude: float, mode: int = 1,
                        axis: int | None = None) -> ScalarField:
    """The exponent u of a conformal bump e^{2u} delta.

    By default u = amplitude * sum_i sin(2 pi mode x_i / L_i + phi_i)
    with staggered fixed phases; with ``axis`` given, a single-axis
    profile u = amplitude * sin(2 pi mode x_axis / L_axis) (no phase),
    which is what the closed-form scalar cross-checks integrate by hand.
    """
    meshes = grid.meshes()
    vals = np.zeros(grid.shape)
    if axis is None:
        for i in range(grid.dim):
            w = 2.0 * np.pi * mode / grid.periods[i]
            vals += np.sin(w * meshes[i] + _PHASE_STEP * (i + 1))
    else:
        w = 2.0 * np.pi * mode / grid.periods[axis]
        vals = vals + np.sin(w * meshes[axis])
    return ScalarField(grid, amplitude * vals)


def conformal_metric(grid: GridSpec, amplitude: float, mode: int = 1,
                     axis: int | None = None) -> SymTensorField:
    """Conformally flat metric e^{2u} delta with u from
    ``_conformal_exponent``."""
    u = _conformal_exponent(grid, amplitude, mode, axis)
    vals = np.exp(2.0 * u.values)[..., None, None] * np.eye(grid.dim)
    return SymTensorField(grid, vals, is_metric=True)


def sine_scalar(grid: GridSpec, amplitude: float, mode: int = 1) -> ScalarField:
    """Smooth scalar amplitude * sum_i sin(2 pi mode x_i / L_i + psi_i),
    with a phase stagger distinct from the conformal family's."""
    meshes = grid.meshes()
    vals = np.zeros(grid.shape)
    for i in range(grid.dim):
        w = 2.0 * np.pi * mode / grid.periods[i]
        vals += np.sin(w * meshes[i] + _PHASE_STEP * (2 * i + 1) / 3.0)
    return ScalarField(grid, amplitude * vals)


def mixed_sine_scalar(grid: GridSpec, amplitude: float,
                      modes: tuple[int, ...] = (1, 2)) -> ScalarField:
    """Several sine modes per axis, weights 1/k.

    A single sinusoid per axis is too symmetric for some cross-checks:
    its discrete integration-by-parts defect sums to exactly zero over a
    full period, so residuals that should shrink at O(h^2) sit at
    roundoff instead and no convergence order can be measured.  Mixing
    two incommensurate-phase modes restores a generic profile."""
    meshes = grid.meshes()
    vals = np.zeros(grid.shape)
    for rank, mode in enumerate(modes):
        for i in range(grid.dim):
            w = 2.0 * np.pi * mode / grid.periods[i]
            # distinct phase per mode, not just per axis
            phase = _PHASE_STEP * (2 * i + 1) / 3.0 + 0.31 * (rank + 1)
            vals += np.sin(w * meshes[i] + phase) / mode
    return ScalarField(grid, amplitude * vals)


def _random_band_limited(grid: GridSpec, rng: np.random.Generator,
                         max_mode: int) -> np.ndarray:
    """One random smooth field from modes 1..max_mode per axis, values
    O(1): sum over axes and modes of a_k sin + b_k cos with N(0,1)
    coefficients scaled by 1/(axes*modes)."""
    meshes = grid.meshes()
    vals = np.zeros(grid.shape)
    scale = 1.0 / (grid.dim * max_mode)
    for i in range(grid.dim):
        for k in range(1, max_mode + 1):
            w = 2.0 * np.pi * k / grid.periods[i]
            a, b = rng.standard_normal(2)
            vals += scale * (a * np.sin(w * meshes[i]) + b * np.cos(w * meshes[i]))
    return vals


def random_sym_tensor(grid: GridSpec, rng: np.random.Generator,
                      amplitude: float = 1.0,
                      max_mode: int = 2) -> SymTensorField:
    """Random smooth symmetric tensor with components of size ~amplitude;
    used for variation directions (not necessarily definite).  The
    components are drawn in upper-triangle row-major order."""
    vals = np.empty(grid.shape + (grid.dim,) * 2)
    for i, j in zip(*np.triu_indices(grid.dim)):
        vals[..., i, j] = vals[..., j, i] = \
            amplitude * _random_band_limited(grid, rng, max_mode)
    return SymTensorField(grid, vals)


def random_spd_metric(grid: GridSpec, rng: np.random.Generator,
                      amplitude: float = 0.2,
                      max_mode: int = 2) -> SymTensorField:
    """Identity plus a random smooth symmetric perturbation rescaled so
    every node's row sums stay below ``amplitude`` < 1: Gershgorin then
    keeps all eigenvalues above 1 - amplitude, so the field is a metric.
    """
    if not 0.0 < amplitude < 1.0:
        raise ValueError(f"amplitude must lie in (0, 1), got {amplitude}")
    pert = random_sym_tensor(grid, rng, 1.0, max_mode).values
    row_sums = np.abs(pert).sum(axis=-1).max()
    mat = pert * (amplitude / max(row_sums, 1e-30))
    d = grid.dim
    mat[..., range(d), range(d)] += 1.0
    return SymTensorField(grid, mat, is_metric=True)


def high_mode_scalar(grid: GridSpec, amplitude: float,
                     modes: tuple[int, ...]) -> ScalarField:
    """Deterministic scalar concentrated on the given high wavenumbers of
    axis 0 (staggered phases); the stability tests use it to plant energy
    above a filter cutoff."""
    meshes = grid.meshes()
    vals = np.zeros(grid.shape)
    for r, k in enumerate(modes):
        w = 2.0 * np.pi * k / grid.periods[0]
        vals = vals + amplitude * np.sin(w * meshes[0] + _PHASE_STEP * r)
    return ScalarField(grid, np.broadcast_to(vals, grid.shape).copy())
