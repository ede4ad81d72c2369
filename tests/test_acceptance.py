"""Acceptance gates: one verdict line per criterion.

Six checks, each printing exactly one [PASS]/[FAIL] line (run with
``pytest tests/test_acceptance.py -v -s`` to see them) followed by
indented supporting numbers:

1. constants algebra — residuals, theta roots, the coupling maximum;
2. closed-form curvature vs the generic finite-difference oracle on
   refinement ladders for three dimension pairs, flat and curved second
   factor, and the oracle's scalar against the exact scalar curvature of
   a conformally flat 3d metric with unequal spacings;
3. the product-action identity on flat-N, curved-N, and coupled-family
   ladders;
4. constrained first variation: numeric directional derivatives against
   the closed covector, plus the documented failure of the uncorrected
   covector at nonzero coupling;
5. flow bookkeeping: constraint-drift integrator orders, the
   instantaneous dissipation identity, and recorded monotonicity of the
   functional along the diffeomorphism-fixed run;
6. byte-identical command-line reruns.

Every expected number here was frozen from an independent computation
(hand algebra, quadrature on the continuum formulas, or Richardson
extrapolation) before being gated; none was copied from the code under
test.
"""

import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from warpflow import geometry
from warpflow.cli import main
from warpflow.errors import ConstantsError, StabilityWarning
from warpflow.flow import (FlowConfig, FlowState, instantaneous_rate,
                           monotonicity_report, run_decoupled)
from warpflow.functionals import first_variation_check, gradient_tensor
from warpflow.geometry import StateTerms
from warpflow.grids import (GridSpec, ScalarField, SymTensorField,
                            filter_array, integrate)
from warpflow.recipes import (conformal_metric, flat_metric,
                              mixed_sine_scalar, random_sym_tensor,
                              sine_scalar)
from warpflow.verify import (FieldSpec, StudySpec, build_product_geometry,
                             curvature_study, identity_study,
                             variation_study)
from warpflow.warped import (c1_residual, c2_residual, lambda_to_constants,
                             solve_perelman_constants, solve_theta, z_value)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
TWO_PI = 2.0 * math.pi


def _gate(ok: bool, label: str, details: list[str]):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    print("\n" + line)
    for d in details:
        print("    " + d)
    assert ok, line


# ------------------------------------------------------------ criterion 1

def test_criterion_1_constants_algebra():
    ok = True
    details = []

    # Both defining conditions, both branches, five dimension pairs.
    worst = 0.0
    for m, n in [(2, 1), (2, 3), (3, 1), (3, 2), (4, 1)]:
        branches = ("plus",) if m == 2 else ("plus", "minus")
        for br in branches:
            c = solve_perelman_constants(m, n, br)
            worst = max(worst, abs(c1_residual(m, n, c.A, c.B)),
                        abs(c2_residual(m, n, c.A, c.B)))
    ok &= worst <= 1e-12
    details.append(f"defining-condition residuals, 5 pairs x branches: "
                   f"worst {worst:.3e} (gate 1e-12)")

    # theta quadratic at (3, 1): roots -1 +- sqrt(2), opposite signs.
    roots = solve_theta(3, 1)
    theta_err = max(abs(roots[0] - (-1.0 + math.sqrt(2.0))),
                    abs(roots[1] - (-1.0 - math.sqrt(2.0))))
    ok &= theta_err <= 1e-12 and roots[0] > 0.0 > roots[1]
    details.append(f"theta roots (3,1) vs -1 +- sqrt(2): err {theta_err:.3e},"
                   f" signs ({'+' if roots[0] > 0 else '-'},"
                   f"{'+' if roots[1] > 0 else '-'})")

    # Coupling maximum on the constraint line: vertex of the scanned
    # parabola must sit at 1/(m-2), where B = 0 and theta degenerates.
    for m, n in [(3, 1), (3, 2), (4, 1), (4, 2)]:
        center = 2.0 / (m - 2)
        a_grid = np.linspace(center - 1.0, center + 1.0, 2001)
        z_grid = [z_value(m, n, a, (2.0 - a * (m - 2)) / n) for a in a_grid]
        ca, cb, cc = np.polyfit(a_grid, z_grid, 2)
        vertex = cc - cb * cb / (4.0 * ca)
        gap = abs(vertex - 1.0 / (m - 2))
        ok &= gap <= 1e-10
        details.append(f"coupling max ({m},{n}): scanned vertex {vertex:.12f}"
                       f" vs 1/(m-2) = {1.0 / (m - 2):.12f}, gap {gap:.3e}")
        top = lambda_to_constants(m, n, 1.0 / (m - 2))
        degenerate = (len(top) == 1 and top[0].B == 0.0
                      and math.isnan(top[0].theta))
        ok &= degenerate
        details.append(f"    at the max: single root, B = {top[0].B},"
                       f" theta ratio degenerate: {degenerate}")
        with pytest.raises(ConstantsError):
            lambda_to_constants(m, n, 1.0 / (m - 2) + 1e-6)

    # m = 2: the constraint line pins B and the coupling is unbounded.
    c24 = lambda_to_constants(2, 4, 3.75)
    ok &= (len(c24) == 1 and abs(c24[0].A - 4.0) <= 1e-12
           and abs(c24[0].B - 0.5) <= 1e-12)
    details.append(f"m = 2 linear family: lam 3.75 -> (A, B) = "
                   f"({c24[0].A:.12f}, {c24[0].B:.12f}), every lam reached")

    _gate(ok, "criterion 1: constants algebra (residuals <= 1e-12, theta "
              "roots exact, coupling max = 1/(m-2))", details)


# ------------------------------------------------------------ criterion 2

def test_criterion_2_curvature_closed_forms():
    t0 = time.time()
    L = 4.0 * math.pi
    g_spec = FieldSpec("conformal-bump", 0.1, 1)
    h_flat = FieldSpec("flat")
    h_conf = FieldSpec("conformal-bump", 0.1, 1)

    def ladder(points):
        return tuple((tuple(pm), tuple(pn)) for pm, pn in points)

    cases = [
        ("(2,1) flat h  16/32/64", (2, 1), h_flat, "direct", ladder(
            [((16, 16), (8,)), ((32, 32), (8,)), ((64, 64), (8,))])),
        ("(2,1) conf h  16/32/64", (2, 1), h_conf, "direct", ladder(
            [((16, 16), (16,)), ((32, 32), (32,)), ((64, 64), (64,))])),
        ("(3,1) flat h  16/32/64", (3, 1), h_flat, "direct", ladder(
            [((16,) * 3, (8,)), ((32,) * 3, (8,)), ((64,) * 3, (8,))])),
        ("(2,2) flat h  16/32/64", (2, 2), h_flat, "direct", ladder(
            [((16, 16), (8, 8)), ((32, 32), (8, 8)), ((64, 64), (8, 8))])),
        # 64 points per axis on a 4-dimensional product exceeds the
        # memory budget; these two ladders keep every axis refining and
        # gate the finest (or 64-projected) error instead.
        ("(2,2) conf h  10/20/40", (2, 2), h_conf, "direct", ladder(
            [((10, 10), (10, 10)), ((20, 20), (20, 20)),
             ((40, 40), (40, 40))])),
        ("(3,1) conf h  12/24/36", (3, 1), h_conf, "project64", ladder(
            [((12,) * 3, (12,)), ((24,) * 3, (24,)), ((36,) * 3, (36,))])),
    ]

    ok = True
    details = []
    for tag, (m, n), h_spec, gate_mode, levels in cases:
        c = solve_perelman_constants(m, n)
        rows = curvature_study(c, StudySpec(
            levels=levels, period_m=L, period_n=L,
            g_spec=g_spec, h_spec=h_spec, f_amplitude=0.2, f_modes=(1,)))
        finest = [r for r in rows if r.level == len(levels) - 1]
        live = [r for r in finest if r.error > 1e-11]
        zeros = len(finest) - len(live)
        worst = max(r.error for r in live)
        min_order = min(r.order for r in live)
        if gate_mode == "project64":
            fine_pts = levels[-1][0][0]
            gated = worst * (fine_pts / 64.0) ** 2
            err_txt = (f"worst err {worst:.3e} at {fine_pts}/axis -> "
                       f"{gated:.3e} projected to 64/axis at order 2")
        else:
            gated = worst
            err_txt = f"worst err {worst:.3e} at finest level"
        case_ok = (len(finest) == 12 and gated <= 1e-3
                   and (min_order >= 1.8 or not live))
        ok &= case_ok
        details.append(f"{tag}: {err_txt}, min order {min_order:.3f}, "
                       f"{zeros} identically-zero families"
                       f"{'' if case_ok else '  <-- FAILED'}")

    # A stencil-free anchor for the oracle itself: a conformal metric
    # g = e^{2 phi} delta with trig phi has the exact scalar curvature
    # R = -e^{-2 phi} (2 (d-1) lap phi + (d-2)(d-1) |grad phi|^2), with
    # lap phi and grad phi written out by hand.  Every axis has its own
    # spacing, so a stencil that reads the wrong axis's spacing shows.
    periods = (TWO_PI, 1.5 * TWO_PI, 2.0 * TWO_PI)
    levels = ((12, 16, 20), (24, 32, 40))

    def anchor_error(points, order):
        grid = GridSpec(points, periods)
        d = grid.dim
        phi, lap, grad_sq = (np.zeros(grid.shape) for _ in range(3))
        for i, (x, L) in enumerate(zip(grid.meshes(), periods)):
            w = TWO_PI / L
            arg = w * x + 0.25 * math.pi * (i + 1)
            phi = phi + 0.1 * np.sin(arg)
            lap = lap - 0.1 * w * w * np.sin(arg)
            grad_sq = grad_sq + (0.1 * w * np.cos(arg)) ** 2
        g = SymTensorField(grid, np.exp(2.0 * phi)[..., None, None]
                           * np.eye(d), is_metric=True)
        exact = -np.exp(-2.0 * phi) * (2 * (d - 1) * lap
                                       + (d - 2) * (d - 1) * grad_sq)
        scalar = geometry.curvature_bundle(g, order).scalar.values
        return float(np.abs(scalar - exact).max())

    for order, need in ((2, 1.9), (4, 3.3)):
        coarse, fine = (anchor_error(p, order) for p in levels)
        rate = math.log2(coarse / fine)
        anchor_ok = rate >= need
        ok &= anchor_ok
        details.append(
            f"anchor e^(2 phi) delta, 3d {levels[0]} -> {levels[1]}, "
            f"stencil order {order}: oracle scalar err {coarse:.3e} -> "
            f"{fine:.3e}, order {rate:.3f} (need >= {need})"
            f"{'' if anchor_ok else '  <-- FAILED'}")

    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    details.append(f"all 12 component families per ladder; wall time "
                   f"{elapsed:.1f}s (budget 300s)")
    _gate(ok, "criterion 2: closed-form curvature matches the generic "
              "oracle (err <= 1e-3 at 64/axis, order >= 1.8), and the "
              "oracle matches an exact scalar curvature", details)


# ------------------------------------------------------------ criterion 3

def test_criterion_3_action_identity():
    ok = True
    details = []

    # Flat second factor: residual drops at 4th order (both integrands
    # are smooth and the quadrature is spectral for trig data), so the
    # halving bound err(64) <= 5 * err(32)/4 has a wide margin.
    c21 = solve_perelman_constants(2, 1)
    [rows] = identity_study(
        [c21], StudySpec(
            (((16, 16), (8,)), ((32, 32), (8,)), ((64, 64), (8,))),
            TWO_PI, TWO_PI, FieldSpec("conformal-bump", 0.2, 1),
            FieldSpec("flat"), 0.25, (1, 2)), normalize_n=True)
    res = [abs(r.residual) for r in rows]
    bound = 5.0 * (res[1] / 4.0)
    flat_ok = res[2] <= bound and all(r.order >= 1.8 for r in rows[1:])
    ok &= flat_ok
    details.append(f"flat N (2,1): |residual| {res[0]:.3e} -> {res[1]:.3e} "
                   f"-> {res[2]:.3e} (bound {bound:.3e}), orders "
                   f"{rows[1].order:.2f}/{rows[2].order:.2f}")

    # Curved second factor: the extra total-curvature term is live.
    c13 = solve_perelman_constants(1, 3)
    [rows] = identity_study(
        [c13], StudySpec(
            (((32,), (8, 8, 8)), ((64,), (16, 16, 16)),
             ((128,), (32, 32, 32))),
            TWO_PI, TWO_PI, FieldSpec("flat"),
            FieldSpec("conformal-bump", 0.15, 1), 0.25, (1, 2)),
        normalize_n=True)
    curved_ok = (rows[-1].order >= 1.8
                 and abs(rows[-1].total_scalar_N) > 1e-3
                 and abs(rows[-1].residual) < abs(rows[0].residual))
    ok &= curved_ok
    details.append(f"curved N (1,3): residual {rows[0].residual:.3e} -> "
                   f"{rows[-1].residual:.3e}, final order "
                   f"{rows[-1].order:.2f}, total N-curvature "
                   f"{rows[-1].total_scalar_N:.4f} (nonzero)")

    # Coupled family on (3, 1): below, at, and nowhere-above the
    # maximal coupling 1/(m-2) = 1.
    lams = (-0.5, 0.5, 1.0)
    runs = identity_study(
        [lambda_to_constants(3, 1, lam)[0] for lam in lams], StudySpec(
            (((16,) * 3, (8,)), ((32,) * 3, (8,)), ((48,) * 3, (8,))),
            TWO_PI, TWO_PI, FieldSpec("conformal-bump", 0.15, 1),
            FieldSpec("flat"), 0.25, (1, 2)), normalize_n=True)
    for lam, rows in zip(lams, runs):
        lam_ok = rows[-1].order >= 1.8
        ok &= lam_ok
        details.append(f"coupling {lam:+.1f} on (3,1): residual "
                       f"{rows[0].residual:.3e} -> {rows[-1].residual:.3e},"
                       f" final order {rows[-1].order:.2f}"
                       f"{'' if lam_ok else '  <-- FAILED'}")

    _gate(ok, "criterion 3: action identity residual converges at order "
              ">= 1.8 (flat N, curved N, coupled family incl. the max)",
          details)


# ------------------------------------------------------------ criterion 4

def test_criterion_4_first_variation():
    ok = True
    details = []
    g_spec = FieldSpec("conformal-bump", 0.15, 1)
    h_spec = FieldSpec("flat")
    spec = StudySpec((((128, 128), (8,)),), TWO_PI, TWO_PI, g_spec, h_spec,
                     0.2, (1,), order=4, seed=7)

    lams = (0.0, 0.5)
    runs = variation_study([lambda_to_constants(2, 1, lam)[0] for lam in lams],
                           spec, n_directions=20, direction_amplitude=0.3,
                           eps=1e-4)
    for lam, rows in zip(lams, runs):
        worst = max(r.rel_mismatch for r in rows)
        worst_gap = max(r.richardson_gap for r in rows)
        lam_ok = worst <= 1e-4 and worst_gap < 1e-6
        ok &= lam_ok
        details.append(f"coupling {lam:.1f}: 20 random directions, worst "
                       f"rel mismatch {worst:.3e} (gate 1e-4), worst "
                       f"step-halving gap {worst_gap:.1e}"
                       f"{'' if lam_ok else '  <-- FAILED'}")

    # Documented discrepancy: pairing the raw tensor Ric + hess f
    # + lam df (x) df against the direction — without the trace
    # completion lam (lap f - |grad f|^2) g that the constrained
    # variation forces — misses the numeric derivative by O(1) at
    # nonzero coupling.  The gate asserts the failure is large and
    # does not converge away, so nobody "fixes" it silently.
    c = lambda_to_constants(2, 1, 0.5)[0]
    rng = np.random.default_rng(7)
    pg = build_product_geometry(spec, normalize_n=True, rng=rng)
    dg = random_sym_tensor(pg.grid_m, rng, 0.3)
    [res] = first_variation_check(pg, [c], dg)
    inv = geometry.inverse_metric(pg.g)
    s_naive = gradient_tensor(StateTerms.at(pg.g, pg.f, 4), 0.5)
    pairing = np.einsum("...ik,...jl,...ij,...kl->...",
                        inv, inv, s_naive, dg.values)
    weight = ScalarField(pg.grid_m, np.exp(-pg.f.values)
                         * geometry.volume_density(pg.g).values)
    naive = -2.0 * integrate(ScalarField(pg.grid_m, pairing), weight)
    rel_full = (abs(res.numeric_derivative - res.closed_form)
                / abs(res.numeric_derivative))
    rel_naive = (abs(res.numeric_derivative - naive)
                 / abs(res.numeric_derivative))
    ok &= rel_full <= 1e-4 and rel_naive > 0.1
    details.append(f"uncorrected covector at coupling 0.5: rel mismatch "
                   f"{rel_naive:.3f} (O(1), documented) vs completed "
                   f"covector {rel_full:.1e}")

    _gate(ok, "criterion 4: constrained first variation matches the "
              "closed covector to 1e-4 (uncorrected form fails by O(1) "
              "at nonzero coupling, as documented)", details)


# ------------------------------------------------------------ criterion 5

def _filtered_state(g: SymTensorField, f: ScalarField,
                    cutoff: float) -> FlowState:
    grid = g.grid
    return FlowState.initial(
        SymTensorField(grid, filter_array(g.values, grid, cutoff),
                       is_metric=True),
        ScalarField(grid, filter_array(f.values, grid, cutoff)))


def test_criterion_5_flow_bookkeeping():
    from warpflow.verify import drift_study

    ok = True
    details = []

    # (a) conserved-density drift shrinks at the integrator's order.
    grid = GridSpec((32, 32), (TWO_PI, TWO_PI))
    state0 = FlowState.initial(conformal_metric(grid, 0.3, 1),
                               mixed_sine_scalar(grid, 0.6, (1, 2)))
    _, slope_e = drift_study(state0, 0.0, "euler", 1.6e-2,
                             [2e-3, 1e-3, 5e-4])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        _, slope_r = drift_study(state0, 0.0, "rk4", 1.6e-2,
                                 [4e-3, 2e-3, 1e-3])
    drift_ok = 0.85 <= slope_e <= 1.15 and 3.6 <= slope_r <= 4.4
    ok &= drift_ok
    details.append(f"constraint-drift slope: euler {slope_e:.3f} "
                   f"(expect 1), rk4 {slope_r:.3f} (expect 4)")

    # (b) instantaneous dissipation identity, band-limited initial data.
    g1 = GridSpec((128,), (TWO_PI,))
    st1 = _filtered_state(flat_metric(g1),
                          mixed_sine_scalar(g1, 0.3, (1, 2)), 0.5)
    r1 = instantaneous_rate(st1, 0.0, 1e-4)
    g2 = GridSpec((96, 96), (TWO_PI, TWO_PI))
    st2 = _filtered_state(conformal_metric(g2, 0.15, 1),
                          mixed_sine_scalar(g2, 0.3, (1, 2)), 0.5)
    r2 = instantaneous_rate(st2, 0.0, 1e-4)
    rate_ok = abs(r1.ratio - 1.0) <= 1e-3 and abs(r2.ratio - 1.0) <= 1e-3
    ok &= rate_ok
    details.append(f"|dF/dt| / dissipation at t = 0: {r1.ratio:.7f} (1d),"
                   f" {r2.ratio:.7f} (2d); gate |ratio - 1| <= 1e-3")

    # (c) diffeomorphism-fixed run: functional nondecreasing, empirical
    # sign recorded and consistent (the sign is data, not an assertion
    # about anyone's displayed formula).
    g0 = flat_metric(GridSpec((64,), (TWO_PI,)))
    f_term = sine_scalar(g0.grid, 0.2, 1)
    traj = run_decoupled(g0, f_term, FlowConfig(
        dt=1e-4, t_end=6e-3, lam=0.0, integrator="rk4", snapshot_stride=1))
    rows = monotonicity_report(traj, 0.0)
    values = [r.f_lam for r in rows]
    nondec = all(b >= a - 1e-12 * max(1.0, abs(a))
                 for a, b in zip(values, values[1:]))
    interior = [r.sign for r in rows[1:-1]]
    consistent = len(set(interior)) == 1
    mono_ok = len(rows) == 61 and nondec and consistent
    ok &= mono_ok
    details.append(f"diffeo-fixed run: {len(rows)} snapshots, functional "
                   f"nondecreasing: {nondec}, interior dF/dt sign "
                   f"{interior[0]:+d} at every snapshot (recorded)")

    _gate(ok, "criterion 5: drift orders 1/4, dissipation identity to "
              "1e-3, functional monotone with consistent recorded sign",
          details)


# ------------------------------------------------------------ criterion 6

def test_criterion_6_deterministic_reruns(tmp_path):
    ok = True
    details = []
    for tag, argv in (
            ("identity", ["verify-identity",
                          "--config", str(CONFIGS / "identity-torus.ini")]),
            ("flow", ["flow", "--config", str(CONFIGS / "flow-coupled.ini")]),
            ("variation", ["verify-variation",
                           "--config", str(CONFIGS / "variation.ini"),
                           "--seed", "11"])):
        a = tmp_path / f"{tag}-a.csv"
        b = tmp_path / f"{tag}-b.csv"
        rc_a = main(argv + ["--out", str(a)])
        rc_b = main(argv + ["--out", str(b)])
        same = a.read_bytes() == b.read_bytes()
        ok &= rc_a == 0 and rc_b == 0 and same
        details.append(f"{tag}: exit codes {rc_a}/{rc_b}, "
                       f"{a.stat().st_size} bytes, byte-identical: {same}")
    _gate(ok, "criterion 6: repeated runs with the same config and seed "
              "are byte-identical", details)
