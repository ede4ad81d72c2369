"""Convergence and identity studies: the machinery behind the
verification commands and the acceptance suite.

Each study runs a comparison at a ladder of grid resolutions and reports
errors plus measured convergence orders.  Orders are computed pairwise:

    order = log(e_coarse / e_fine) / log(h_coarse / h_fine)

Resolution ladders refine every *varying* axis by the same factor per
level; axes along which all fields are constant may stay fixed (their
stencil error is exactly zero), which is what keeps the 4-dimensional
product studies inside a small container's memory budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, recipes
from .errors import ConfigError
from .flow import FlowConfig, FlowState, conserved_measure_check, run_coupled
from .functionals import first_variation_check, theorem_identity_residual
from .grids import GridSpec, ScalarField, SymTensorField, integrate
from .warped import (ProductGeometry, WarpedConstants,
                     assemble_product_metric, christoffel_closed_form,
                     ricci_closed_ansatz, ricci_closed_general)

__all__ = [
    "FieldSpec",
    "StudySpec",
    "ConvergenceRow",
    "measured_order",
    "loglog_slope",
    "build_metric",
    "build_product_geometry",
    "curvature_study",
    "identity_study",
    "variation_study",
    "drift_study",
]


def measured_order(h_coarse: float, e_coarse: float,
                   h_fine: float, e_fine: float) -> float:
    """Pairwise convergence order; NaN when an error already sits at the
    roundoff floor (order is then meaningless, not failed)."""
    if e_fine <= 1e-14 * max(1.0, e_coarse) or e_coarse <= 0.0:
        return math.nan
    return math.log(e_coarse / e_fine) / math.log(h_coarse / h_fine)


def loglog_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


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
    ``order`` is its geometries' stencil order; ``seed`` drives random-spd."""

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
    grid_m = GridSpec(points_m, (spec.period_m,) * len(points_m))
    grid_n = GridSpec(points_n, (spec.period_n,) * len(points_n))
    g = build_metric(grid_m, spec.g_spec, rng)
    h = build_metric(grid_n, spec.h_spec, rng)
    if normalize_n:
        vol = integrate(ScalarField.constant(grid_n, 1.0),
                        geometry.volume_density(h))
        h = SymTensorField(grid_n, vol ** (-2.0 / grid_n.dim) * h.values,
                           is_metric=True)
    if len(spec.f_modes) > 1:
        f = recipes.mixed_sine_scalar(grid_m, spec.f_amplitude, spec.f_modes)
    else:
        f = recipes.sine_scalar(grid_m, spec.f_amplitude, spec.f_modes[0])
    return ProductGeometry(grid_m, grid_n, g, h, f, spec.order)


@dataclass
class ConvergenceRow:
    """Error of one comparison family at one refinement level."""

    family: str
    level: int
    h: float
    error: float
    order: float  # vs previous level; NaN on the first


# Bytes of each operand per block of the max-norm sweeps (512 nodes of a
# d = 4 Christoffel cube): both operands and their difference stay in L2.
_BLOCK_BYTES = 256 * 1024


def _family_maxima(shape: tuple[int, ...],
                   families: dict[str, list[tuple]]) -> dict[str, float]:
    """Max-norm of each comparison family over the nodes of ``shape``.

    A family is a list of terms ``(a, b, comp)``: the max of |a - b| (of
    |a| when ``b`` is None) over the component block ``comp`` of arrays
    whose leading axes are the grid axes.  Each distinct (a, b) pair is
    swept once, in blocks of ``_BLOCK_BYTES`` of ``a``, keeping the
    running max of every component, so each temporary is block-sized.
    A max does not depend on how the nodes are split or grouped, so every
    family's value is the whole-grid max to the bit.
    """
    nodes = math.prod(shape)
    pairs = {(id(a), id(b)): (a, b)
             for family in families.values() for a, b, _ in family}
    peaks = {}
    for key, (a, b) in pairs.items():
        fa = a.reshape(nodes, -1)
        fb = None if b is None else b.reshape(nodes, -1)
        peak = np.zeros(fa.shape[1])
        block = max(1, _BLOCK_BYTES // fa[0].nbytes)
        for s in range(0, nodes, block):
            blk = slice(s, s + block)
            if fb is None:
                part = np.abs(fa[blk])
            else:
                part = np.subtract(fa[blk], fb[blk])
                np.abs(part, out=part)
            np.maximum(peak, part.max(axis=0), out=peak)
        peaks[key] = peak.reshape(a.shape[len(shape):])
    return {name: max(float(peaks[id(a), id(b)][comp].max())
                      for a, b, comp in family)
            for name, family in families.items()}


def _chr_families(closed, oracle, m: int) -> dict[str, list[tuple]]:
    """The closed-form Christoffel component families.  The two
    identically-zero families are judged by the oracle magnitude alone
    (the closed form stores exact zeros there)."""
    r, p = slice(None, m), slice(m, None)
    cv, ov = closed.values, oracle.values
    return {
        "chr_real_block": [(cv, ov, (r, r, r))],
        "chr_zero_mixed": [(ov, None, (p, r, r)), (ov, None, (r, r, p)),
                           (ov, None, (r, p, r))],
        "chr_real_from_phantom": [(cv, ov, (r, p, p))],
        "chr_phantom_mixed": [(cv, ov, (p, r, p)), (cv, ov, (p, p, r))],
        "chr_phantom_block": [(cv, ov, (p, p, p))],
    }


def _ricci_terms(closed, oracle, m: int) -> tuple[list, list, list]:
    """The real and phantom Ricci blocks and the scalar of one closed
    route against the oracle, as ``_family_maxima`` terms."""
    r, p = slice(None, m), slice(m, None)
    cr, orr = closed.ricci.values, oracle.ricci.values
    return ([(cr, orr, (r, r))], [(cr, orr, (p, p))],
            [(closed.scalar.values, oracle.scalar.values, ())])


def curvature_study(constants: WarpedConstants,
                    spec: StudySpec) -> list[ConvergenceRow]:
    """Compare every closed-form curvature family against the generic
    pipeline run on the assembled product metric, across the ladder."""
    m = constants.m
    per_level: list[dict[str, float]] = []
    hs: list[float] = []
    for level in range(len(spec.levels)):
        pg = build_product_geometry(spec, level)
        hs.append(max(pg.grid_m.spacing))
        gt = assemble_product_metric(pg, constants)
        oracle = geometry.curvature_bundle(gt, pg.order)
        # not compared; kept alive, it would raise the study's peak memory
        oracle.inverse = None
        del gt

        shape = pg.product_grid.shape
        closed_chr = christoffel_closed_form(pg, constants)
        errors = _family_maxima(
            shape, _chr_families(closed_chr, oracle.christoffel, m))
        del closed_chr

        gen = ricci_closed_general(pg, constants)
        real, phantom, scalar = _ricci_terms(gen, oracle, m)
        mixed = [(oracle.ricci.values, None, (slice(None, m), slice(m, None)))]
        errors.update(_family_maxima(shape, {
            "ricci_real_general": real, "ricci_phantom_general": phantom,
            "ricci_mixed_zero": mixed, "scalar_general": scalar}))
        del gen, real, phantom, scalar

        if constants.on_special_locus:
            ans = ricci_closed_ansatz(pg, constants)
            real, phantom, scalar = _ricci_terms(ans, oracle, m)
            errors.update(_family_maxima(shape, {
                "ricci_real_ansatz": real, "ricci_phantom_ansatz": phantom,
                "scalar_ansatz": scalar}))
            del ans, real, phantom, scalar
        del oracle
        per_level.append(errors)

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

    N is always rescaled to unit volume here: the closed covector is an
    integral over M alone, so it equals the derivative of the doubled
    product action exactly when Vol(N) = 1 and N is scalar-flat."""
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


@dataclass
class DriftRow:
    """Constraint drift of one coupled run at one time step."""

    dt: float
    n_steps: int
    max_drift: float


def drift_study(state0: FlowState, lam: float, integrator: str, t_end: float,
                dts: list[float]) -> tuple[list[DriftRow], float]:
    """Run the coupled system to the same t_end at several time steps and
    fit the drift-vs-dt slope (the integrator's order)."""
    rows = []
    for dt in dts:
        cfg = FlowConfig(dt=dt, t_end=t_end, lam=lam, integrator=integrator,
                         snapshot_stride=10 ** 9)
        traj = run_coupled(state0, cfg)
        rows.append(DriftRow(dt=dt, n_steps=cfg.n_steps,
                             max_drift=conserved_measure_check(traj)))
    slope = loglog_slope([r.dt for r in rows], [r.max_drift for r in rows])
    return rows, slope
