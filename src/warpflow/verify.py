"""Convergence and identity studies: the machinery behind the
verification commands and the acceptance suite.

Each study runs a comparison at a ladder of grid resolutions and reports
errors plus measured convergence orders.  Orders are computed pairwise:

    order = log(e_coarse / e_fine) / log(h_coarse / h_fine)

Resolution ladders refine every *varying* axis by the same factor per
level; axes along which all fields are constant may stay fixed (their
stencil error is exactly zero), which is what keeps the 4-dimensional
product studies inside a small container's memory budget.  The curvature
study compares every closed field with the oracle in one sweep over
blocks of whole M nodes (``_peak``), so it holds no closed Christoffel
cube on the product grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, recipes
from .errors import ConfigError, NonFiniteFieldError
from .functionals import first_variation_check, theorem_identity_residual
from .grids import (GridSpec, ScalarField, SymTensorField, integrate,
                    node_blocks, pair_table)
from .warped import (ProductGeometry, WarpedConstants,
                     assemble_product_metric, christoffel_closed_filler,
                     ricci_closed_ansatz, ricci_closed_general)

__all__ = [
    "FieldSpec",
    "StudySpec",
    "ConvergenceRow",
    "measured_order",
    "build_metric",
    "build_product_geometry",
    "curvature_study",
    "identity_study",
    "variation_study",
]


def measured_order(h_coarse: float, e_coarse: float,
                   h_fine: float, e_fine: float) -> float:
    """Pairwise convergence order; NaN when an error already sits at the
    roundoff floor (order is then meaningless, not failed)."""
    if e_fine <= 1e-14 * max(1.0, e_coarse) or e_coarse <= 0.0:
        return math.nan
    return math.log(e_coarse / e_fine) / math.log(h_coarse / h_fine)


@dataclass(frozen=True)
class FieldSpec:
    """Named analytic recipe for one factor metric."""

    name: str = "flat"            # flat | conformal-bump | random-spd
    amplitude: float = 0.2
    mode: int = 1
    axis: int | None = None       # conformal-bump: restrict u to one axis


def build_metric(grid: GridSpec, spec: FieldSpec,
                 rng: np.random.Generator | None = None):
    """The metric ``spec`` names on ``grid``; a conformal bump too tall for
    exp comes out non-finite, which is a ConfigError."""
    if spec.name == "flat":
        return recipes.flat_metric(grid)
    if spec.name == "conformal-bump":
        # the overflow, and the inf * 0 it feeds, are reported once, below
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                return recipes.conformal_metric(grid, spec.amplitude,
                                                spec.mode, spec.axis)
            except ValueError as exc:
                raise ConfigError(f"conformal-bump metric: {exc}") from exc
    if spec.name == "random-spd":
        if rng is None:
            raise ConfigError("random-spd recipe needs a seed")
        return recipes.random_spd_metric(grid, rng, spec.amplitude)
    raise ConfigError(f"unknown metric recipe {spec.name!r}")


@dataclass(frozen=True)
class StudySpec:
    """One refinement ladder and the recipes each of its levels is built
    from.  ``levels`` pairs the M and N point counts of every level;
    ``f_modes`` is one sine mode or several (see mixed_sine_scalar);
    ``order`` is the stencil order of its grids; ``seed`` drives random-spd."""

    levels: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    period_m: float = 2.0 * math.pi
    period_n: float = 2.0 * math.pi
    g_spec: FieldSpec = FieldSpec("conformal-bump", 0.2, 1)
    h_spec: FieldSpec = FieldSpec("flat")
    f_amplitude: float = 0.2
    f_modes: tuple[int, ...] = (1,)
    order: int = 2
    seed: int | None = None


def build_product_geometry(spec: StudySpec, level: int = 0,
                           normalize_n: bool = False,
                           rng: np.random.Generator | None = None
                           ) -> ProductGeometry:
    """Assemble level ``level`` of ``spec``'s ladder from its recipes.

    The random-spd recipe draws g, then h, from ``rng``; without one, from
    a fresh generator seeded with ``spec.seed``, so every level draws the
    same stream.  ``normalize_n`` rescales h by a constant so the discrete
    volume of N is exactly 1 (recomputed, never assumed)."""
    if rng is None and spec.seed is not None:
        rng = np.random.default_rng(spec.seed)
    points_m, points_n = spec.levels[level]
    grid_m = GridSpec(points_m, (spec.period_m,) * len(points_m), spec.order)
    grid_n = GridSpec(points_n, (spec.period_n,) * len(points_n), spec.order)
    g = build_metric(grid_m, spec.g_spec, rng)
    h = build_metric(grid_n, spec.h_spec, rng)
    if normalize_n:
        vol = integrate(ScalarField.constant(grid_n, 1.0),
                        geometry.volume_density(h))
        h = SymTensorField(grid_n, vol ** (-2.0 / grid_n.dim) * h.values,
                           is_metric=True)
    # a sum of modes too tall for float64 is reported once, below
    with np.errstate(over="ignore"):
        try:
            if len(spec.f_modes) > 1:
                f = recipes.mixed_sine_scalar(grid_m, spec.f_amplitude,
                                              spec.f_modes)
            else:
                f = recipes.sine_scalar(grid_m, spec.f_amplitude,
                                        spec.f_modes[0])
        except NonFiniteFieldError as exc:
            raise ConfigError(f"f: {exc}") from exc
    return ProductGeometry(grid_m, grid_n, g, h, f)


@dataclass
class ConvergenceRow:
    """Error of one comparison family at one refinement level."""

    family: str
    level: int
    h: float
    error: float
    order: float  # vs previous level; NaN on the first


# Each comparison family: the peak it is read off and that peak's
# component blocks, r the indices of M and p those of N; a connection's
# lower-index pairs rr, rp (rp and pr are one packed block) or pp.  The
# zero families' closed entries are exact zeros, and |0 - x| is |x| to
# the bit.
_FAMILIES = {
    "chr_real_block": ("chr", [("r", "rr")]),
    "chr_zero_mixed": ("chr", [("p", "rr"), ("r", "rp")]),
    "chr_real_from_phantom": ("chr", [("r", "pp")]),
    "chr_phantom_mixed": ("chr", [("p", "rp")]),
    "chr_phantom_block": ("chr", [("p", "pp")]),
    "ricci_real_general": ("ricci_general", ["rr"]),
    "ricci_phantom_general": ("ricci_general", ["pp"]),
    "ricci_mixed_zero": ("ricci_general", ["rp"]),
    "scalar_general": ("scalar_general", [""]),
    "ricci_real_ansatz": ("ricci_ansatz", ["rr"]),
    "ricci_phantom_ansatz": ("ricci_ansatz", ["pp"]),
    "scalar_ansatz": ("scalar_ansatz", [""]),
}


def _by_m_node(pg: ProductGeometry, values: np.ndarray) -> np.ndarray:
    """An array whose leading axes are the product grid's, as (M nodes,
    N nodes, components): a run of M nodes is a run of product nodes."""
    sm, sn = pg.grid_m.shape, pg.grid_n.shape
    return values.reshape((math.prod(sm), math.prod(sn))
                          + values.shape[len(sm) + len(sn):])


def _peak(fill, oracle: np.ndarray, pg: ProductGeometry) -> np.ndarray:
    """The per-component max of |closed - oracle| over the product grid.

    ``fill(rows, out)`` returns the closed field at the flattened M nodes
    ``rows`` times every N node, written into ``out`` or not.  The sweep
    runs over the grids module's ``node_blocks`` of whole M nodes in one
    reused buffer, so no temporary is larger than a block.  A max does
    not depend on how the nodes are split, so the peak is the whole-grid
    max to the bit."""
    oracle = _by_m_node(pg, oracle)
    blocks = node_blocks(len(oracle), oracle[0].nbytes)
    # C-contiguous in the fill's own layout, whatever the oracle's strides
    buf = np.empty(oracle[blocks[0]].shape)
    peak = np.zeros(oracle.shape[2:])
    for rows in blocks:
        block = buf[:len(oracle[rows])]
        np.subtract(fill(rows, block), oracle[rows], out=block)
        np.abs(block, out=block)
        np.maximum(peak, block.max(axis=(0, 1)), out=peak)
    return peak


def curvature_study(constants: WarpedConstants,
                    spec: StudySpec) -> list[ConvergenceRow]:
    """Compare every closed-form curvature family against the generic
    pipeline run on the assembled product metric, across the ladder.

    At each level the closed connection is filled block by block
    (``christoffel_closed_filler``) into ``_peak``'s sweep against the
    oracle's cube, which is then dropped before the closed Ricci routes
    are built; each of their Ricci and scalar fields is swept by
    ``_peak`` as a filler that returns its rows.  Every family is a max
    over component blocks of one peak (``_FAMILIES``)."""
    m = constants.m
    real, table = slice(None, m), pair_table(m + constants.n)
    part = {"r": real, "p": slice(m, None), "rr": table[real, real],
            "rp": table[real, m:], "pp": table[m:, m:]}
    routes = {"general": ricci_closed_general}
    if constants.on_special_locus:
        routes["ansatz"] = ricci_closed_ansatz
    per_level: list[dict[str, float]] = []
    hs: list[float] = []
    for level in range(len(spec.levels)):
        pg = build_product_geometry(spec, level)
        hs.append(max(pg.grid_m.spacing))
        # the assembled metric is passed unnamed: the bundle holds its
        # only reference and drops it once it is packed, so the oracle
        # pass peaks without it
        bundle = geometry.curvature_bundle(
            assemble_product_metric(pg, constants))
        # the compared fields only: the bundle's inverse, kept alive,
        # would raise the study's peak memory
        oracle_chr = np.moveaxis(bundle.christoffel.values, 0, -2)
        oracle = {"ricci": bundle.ricci.values, "scalar": bundle.scalar.values}
        del bundle

        peaks = {"chr": _peak(christoffel_closed_filler(pg, constants),
                              oracle_chr, pg)}
        del oracle_chr
        for route, closed_forms in routes.items():
            for kind, closed in zip(oracle, closed_forms(pg, constants)):
                peaks[f"{kind}_{route}"] = _peak(
                    lambda rows, out: _by_m_node(pg, closed.values)[rows],
                    oracle[kind], pg)
            del closed
        del oracle
        per_level.append({
            name: max(float(peaks[src][tuple(part[i] for i in comp)].max())
                      for comp in comps)
            for name, (src, comps) in _FAMILIES.items() if src in peaks})

    rows: list[ConvergenceRow] = []
    for family in per_level[0]:
        for lvl, errs in enumerate(per_level):
            order = math.nan
            if lvl > 0:
                order = measured_order(hs[lvl - 1], per_level[lvl - 1][family],
                                       hs[lvl], errs[family])
            rows.append(ConvergenceRow(family=family, level=lvl, h=hs[lvl],
                                       error=errs[family], order=order))
    return rows


@dataclass
class IdentityRow:
    """All terms of the product-action identity at one level."""

    level: int
    h: float
    lam: float
    S_tilde: float
    F_lam: float
    vol_N: float
    total_scalar_N: float
    warp_coupling: float
    residual: float
    order: float


def identity_study(couplings: list[WarpedConstants], spec: StudySpec,
                   normalize_n: bool = False) -> list[list[IdentityRow]]:
    """Evaluate the product-action identity on a refinement ladder at
    every coupling and report how fast each residual shrinks: one list
    of rows per coupling, in order.  Each level's geometry is built once
    and its factor pieces serve every coupling."""
    rows: list[list[IdentityRow]] = [[] for _ in couplings]
    for lvl in range(len(spec.levels)):
        pg = build_product_geometry(spec, lvl, normalize_n)
        h = max(pg.grid_m.spacing)
        for own, c in zip(rows, couplings):
            rep = theorem_identity_residual(pg, c)
            conv = math.nan
            if own:
                conv = measured_order(own[-1].h, abs(own[-1].residual), h,
                                      abs(rep.theorem_residual))
            own.append(IdentityRow(
                level=lvl, h=h, lam=rep.lam, S_tilde=rep.S_tilde,
                F_lam=rep.F_lam, vol_N=rep.vol_N,
                total_scalar_N=rep.total_scalar_N,
                warp_coupling=rep.warp_coupling,
                residual=rep.theorem_residual, order=conv))
    return rows


@dataclass
class VariationRow:
    """One direction of the first-variation comparison."""

    lam: float
    direction: int
    numeric: float
    closed: float
    rel_mismatch: float
    richardson_gap: float


def variation_study(couplings: list[WarpedConstants], spec: StudySpec,
                    n_directions: int, direction_amplitude: float = 0.3,
                    eps: float = 1e-4) -> list[list[VariationRow]]:
    """Numeric vs closed directional derivative of the doubled action
    over random directions, drawn after the recipes from one generator
    seeded with ``spec.seed``, at the ladder's first level: one list of
    rows per coupling, in order.  The geometry, the directions and the
    perturbed metrics are built once and serve every coupling.

    N is always rescaled to unit volume here, so a flat N's closed side
    is the M-side covector alone and a curved N adds only its
    warp-coupling term (see ``first_variation_check``)."""
    if spec.seed is None:
        raise ConfigError("variation_study draws random directions: "
                          "it needs a seed")
    rng = np.random.default_rng(spec.seed)
    pg = build_product_geometry(spec, 0, True, rng)
    rows: list[list[VariationRow]] = [[] for _ in couplings]
    for k in range(n_directions):
        dg = recipes.random_sym_tensor(pg.grid_m, rng, direction_amplitude)
        results = first_variation_check(pg, couplings, dg, eps)
        for own, c, res in zip(rows, couplings, results):
            num, closed = res.numeric_derivative, res.closed_form
            own.append(VariationRow(
                lam=c.lam, direction=k, numeric=num, closed=closed,
                rel_mismatch=abs(num - closed)
                / max(abs(num), abs(closed), 1e-300),
                richardson_gap=res.richardson_gap))
    return rows

