"""Study drivers: order extraction, recipe assembly, and the comparison
ladders that the command line wraps."""

import math
from collections import Counter

import numpy as np
import pytest

from warpflow import geometry, grids, verify, warped
from warpflow.errors import ConfigError
from warpflow.grids import GridSpec, ScalarField, integrate
from warpflow.verify import (FieldSpec, StudySpec, build_metric,
                             build_product_geometry, curvature_study,
                             identity_study, measured_order, variation_study)
from warpflow.warped import lambda_to_constants, solve_perelman_constants

TAU = 2.0 * math.pi

# in the order of the CSV rows, which the reference outputs pin
ON_LOCUS_FAMILIES = [
    "chr_real_block", "chr_zero_mixed", "chr_real_from_phantom",
    "chr_phantom_mixed", "chr_phantom_block",
    "ricci_real_general", "ricci_phantom_general", "ricci_mixed_zero",
    "scalar_general",
    "ricci_real_ansatz", "ricci_phantom_ansatz", "scalar_ansatz",
]
OFF_LOCUS_FAMILIES = ON_LOCUS_FAMILIES[:-3]


def test_measured_order_exact_powers():
    assert measured_order(1.0, 0.04, 0.5, 0.01) == pytest.approx(2.0)
    assert measured_order(1.0, 0.08, 0.5, 0.01) == pytest.approx(3.0)
    assert measured_order(0.2, 0.03, 0.1, 0.015) == pytest.approx(1.0)


def test_measured_order_roundoff_floor_is_nan():
    assert math.isnan(measured_order(1.0, 1e-3, 0.5, 1e-18))
    assert math.isnan(measured_order(1.0, 0.0, 0.5, 0.0))


def test_build_metric_recipes():
    grid = GridSpec((16, 16), (TAU, TAU))
    flat = build_metric(grid, FieldSpec("flat"))
    assert np.all(flat.values[..., 0, 0] == 1.0)
    conf = build_metric(grid, FieldSpec("conformal-bump", 0.1, 1))
    assert conf.is_metric
    rng = np.random.default_rng(3)
    rnd = build_metric(grid, FieldSpec("random-spd", 0.2), rng)
    assert rnd.is_metric
    with pytest.raises(ConfigError):
        build_metric(grid, FieldSpec("random-spd", 0.2))
    with pytest.raises(ConfigError):
        build_metric(grid, FieldSpec("euclidean"))


def test_build_product_geometry_normalization_and_modes():
    pg = build_product_geometry(
        StudySpec((((12, 12), (16,)),),
                     g_spec=FieldSpec("conformal-bump", 0.2, 1),
                     h_spec=FieldSpec("conformal-bump", 0.3, 2)),
        normalize_n=True)
    vol = integrate(ScalarField.constant(pg.grid_n, 1.0),
                    geometry.volume_density(pg.h))
    assert vol == pytest.approx(1.0, abs=1e-13)
    flat = StudySpec((((12, 12), (8,)),), g_spec=FieldSpec("flat"))
    single = build_product_geometry(flat)
    multi = build_product_geometry(
        StudySpec(flat.levels, g_spec=FieldSpec("flat"), f_modes=(1, 2)))
    assert not np.array_equal(single.f.values, multi.f.values)
    assert float(np.abs(multi.f.values).max()) <= 0.2 * 2 * (1.0 + 0.5)


def test_curvature_study_family_roster_and_convergence():
    c = solve_perelman_constants(2, 1)
    rows = curvature_study(c, StudySpec(
        levels=(((12, 12), (8,)), ((24, 24), (8,))),
        period_m=2 * TAU, period_n=2 * TAU,
        g_spec=FieldSpec("conformal-bump", 0.1, 1),
        h_spec=FieldSpec("flat"), f_amplitude=0.2, f_modes=(1,)))
    assert [(r.family, r.level) for r in rows] == [
        (family, level) for family in ON_LOCUS_FAMILIES for level in (0, 1)]
    by = {}
    for r in rows:
        by.setdefault(r.family, []).append(r)
    for fam, rs in by.items():
        assert [r.level for r in rs] == [0, 1]
        assert math.isnan(rs[0].order)
        if fam in ("chr_zero_mixed", "chr_phantom_block", "ricci_mixed_zero"):
            # structurally exact at any resolution
            assert rs[1].error < 1e-14
        else:
            assert rs[1].error < rs[0].error
            assert rs[1].order > 1.5


def test_curvature_study_level_runs_each_stage_once(monkeypatch):
    # one on-locus level: no closed Christoffel cube (the closed
    # connection is filled one block of M nodes at a time, into one
    # buffer), three generic curvature stacks (the product oracle, g and
    # h) and one state record of (g, f), shared by every closed form
    calls = Counter()
    outs = []

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def seen_filler(pg, c):
        fill = warped.christoffel_closed_filler(pg, c)

        def seen(rows, out):
            outs.append(out)
            return fill(rows, out)
        return seen

    # blocks of ten M nodes of the closed cube: 8 N nodes, d = 3 and
    # six lower-index pairs
    monkeypatch.setattr(grids, "_BLOCK_BYTES", 10 * 8 * 8 * 3 * 6)
    monkeypatch.setattr(verify, "christoffel_closed_filler", seen_filler)
    monkeypatch.setattr(geometry, "curvature_bundle",
                        counted("bundle", geometry.curvature_bundle))
    monkeypatch.setattr(geometry.StateTerms, "__init__",
                        counted("record", geometry.StateTerms.__init__))
    rows = curvature_study(solve_perelman_constants(2, 1), StudySpec(
        levels=(((12, 12), (8,)),),
        g_spec=FieldSpec("conformal-bump", 0.1, 1),
        h_spec=FieldSpec("conformal-bump", 0.1, 1)))
    assert [r.family for r in rows] == ON_LOCUS_FAMILIES
    assert calls == {"bundle": 3, "record": 1}
    assert [out.shape for out in outs] == \
        [(10, 8, 3, 6)] * 14 + [(4, 8, 3, 6)]
    assert all(np.shares_memory(out, outs[0]) for out in outs)


def test_curvature_study_off_locus_drops_ansatz_rows():
    c = lambda_to_constants(2, 1, 0.5)[0]
    rows = curvature_study(c, StudySpec(
        levels=(((12, 12), (8,)),),
        g_spec=FieldSpec("conformal-bump", 0.1, 1),
        h_spec=FieldSpec("flat")))
    assert [r.family for r in rows] == OFF_LOCUS_FAMILIES


def test_identity_study_row_shape():
    couplings = [solve_perelman_constants(2, 1),
                 lambda_to_constants(2, 1, 0.5)[0]]
    runs = identity_study(
        couplings, StudySpec((((12, 12), (8,)), ((24, 24), (8,))), TAU, TAU,
                     FieldSpec("conformal-bump", 0.2, 1), FieldSpec("flat"),
                     0.25, (1, 2)),
        normalize_n=True)
    assert len(runs) == 2
    for rows, c in zip(runs, couplings):
        assert [r.level for r in rows] == [0, 1]
        assert math.isnan(rows[0].order) and not math.isnan(rows[1].order)
        assert [r.lam for r in rows] == [c.lam] * 2
        assert abs(rows[1].residual) < abs(rows[0].residual)
    # each coupling's rows are those of a study of it alone
    assert runs[1] == identity_study(couplings[1:], StudySpec(
        (((12, 12), (8,)), ((24, 24), (8,))), TAU, TAU,
        FieldSpec("conformal-bump", 0.2, 1), FieldSpec("flat"), 0.25,
        (1, 2)), normalize_n=True)[0]


def test_variation_study_smoke():
    c = lambda_to_constants(2, 1, 0.5)[0]
    [rows] = variation_study(
        [c], StudySpec((((32, 32), (8,)),), TAU, TAU,
                     FieldSpec("conformal-bump", 0.15, 1), FieldSpec("flat"),
                     0.2, (1,), seed=11),
        n_directions=3)
    assert [r.direction for r in rows] == [0, 1, 2]
    for r in rows:
        assert r.lam == 0.5
        assert r.rel_mismatch < 5e-2
        assert abs(r.richardson_gap) < 1e-6
    # distinct directions, not one sample repeated
    assert len({r.numeric for r in rows}) == 3


_PASS_CONFIGS = {
    "verify-identity": "[constants]\nm = 2\nn = 1\nroot = 0\n"
                       "[grid]\nm_points = 8 12\nn_points = 8 8\n"
                       "[identity]\nlambdas = -0.5 0.5 1.0\n"
                       "normalize_n = true\n",
    "verify-variation": "[constants]\nm = 2\nn = 1\n"
                        "[grid]\nm_points = 12\nn_points = 8\n"
                        "[fields]\ng = random-spd\n"
                        "[variation]\nlambdas = 0.0 0.5\ndirections = 2\n",
    "verify-curvature": "[constants]\nm = 2\nn = 1\n"
                        "[grid]\nm_points = 8 12\nn_points = 8 8\n"
                        "[fields]\nh = conformal-bump\n",
}


@pytest.mark.parametrize("command", sorted(_PASS_CONFIGS))
def test_oracle_passes_per_command(monkeypatch, tmp_path, command):
    # one oracle pass per distinct metric in a whole command, however
    # many couplings it runs; only a ladder's N-grid metric h (dim n = 1
    # here) may repeat, once per level
    import hashlib

    from warpflow.cli import main
    seen = Counter()
    bundle = geometry.curvature_bundle

    def hashed(g, *args, **kwargs):
        digest = hashlib.sha256(g.values.tobytes()).hexdigest()
        seen[g.grid, digest] += 1
        return bundle(g, *args, **kwargs)

    monkeypatch.setattr(geometry, "curvature_bundle", hashed)
    cfg = tmp_path / "run.ini"
    cfg.write_text(_PASS_CONFIGS[command])
    assert main([command, "--config", str(cfg), "--seed", "1",
                 "--out", str(tmp_path / "out.csv")]) in (0, 1)
    ladder = command != "verify-variation"
    repeats = {(grid.points, n) for (grid, _), n in seen.items()
               if n > 1 and not (ladder and grid.dim == 1)}
    assert seen and not repeats


@pytest.mark.parametrize("command", ["verify-identity", "verify-variation"])
def test_volume_density_once_per_m_metric(monkeypatch, tmp_path, command):
    # the M-grid density sqrt(det g) of a level's geometry is computed
    # once, for its weight and the identity's coupling term alike, however
    # many couplings and directions the command runs
    seen = _densities_of_run(monkeypatch, tmp_path, command,
                             _PASS_CONFIGS[command])
    on_m = {key: n for key, n in seen.items() if key[0].dim == 2}
    assert on_m and max(on_m.values()) == 1


def _densities_of_run(monkeypatch, tmp_path, command, config):
    """Calls of geometry.volume_density in one seeded CLI run, per
    (grid, metric digest)."""
    import hashlib

    from warpflow.cli import main
    seen = Counter()
    density = geometry.volume_density

    def hashed(g):
        digest = hashlib.sha256(g.values.tobytes()).hexdigest()
        seen[g.grid, digest] += 1
        return density(g)

    monkeypatch.setattr(geometry, "volume_density", hashed)
    cfg = tmp_path / "run.ini"
    cfg.write_text(config)
    assert main([command, "--config", str(cfg), "--seed", "1",
                 "--out", str(tmp_path / "out.csv")]) in (0, 1)
    return seen


def test_volume_density_once_per_flow_snapshot(monkeypatch, tmp_path):
    # the coupled flow of the benchmark's flow-small workload: 400 steps,
    # 41 snapshots.  Each snapshot's sqrt(det g) is taken once, for its
    # record's weight, which the constraint_dev column reads too; rho0 at
    # t = 0 takes one more
    seen = _densities_of_run(
        monkeypatch, tmp_path, "flow",
        "[grid]\npoints = 32 32\nperiod = 6.283185307179586\n"
        "[fields]\ng = random-spd\ng_amplitude = 0.1\n"
        "f_amplitude = 0.2\nf_mode = 1\n"
        "[flow]\nlambda = 0.5\ndt = 1e-4\nt_end = 4e-2\n"
        "integrator = rk4\nmode = coupled\n"
        "filter_cutoff = 0.6666666666666666\nsnapshot_stride = 10\n"
        "constraint_tol = 1e-8\n")
    assert len(seen) == 41
    assert sum(seen.values()) == 42


@pytest.mark.parametrize("command,per_run", [("verify-identity", 0),
                                             ("verify-variation", 0),
                                             ("verify-curvature", 2)])
def test_only_the_oracle_assembles_the_product_metric(monkeypatch, tmp_path,
                                                      command, per_run):
    # the action's measure comes from the warped metric's two diagonal
    # blocks: no metric field on the product grid (dim 3 here) and no
    # assembly, except the one product metric per level that the
    # curvature oracle differentiates (two levels here)
    from warpflow.cli import main
    from warpflow.grids import SymTensorField
    metrics, assembled = Counter(), []
    post_init, assemble = (SymTensorField.__post_init__,
                           warped.assemble_product_metric)

    def counted_post_init(self):
        metrics[self.grid.dim] += self.is_metric
        post_init(self)

    def counted_assemble(*args):
        assembled.append(args)
        return assemble(*args)

    monkeypatch.setattr(SymTensorField, "__post_init__", counted_post_init)
    monkeypatch.setattr(warped, "assemble_product_metric", counted_assemble)
    monkeypatch.setattr(verify, "assemble_product_metric", counted_assemble)
    cfg = tmp_path / "run.ini"
    cfg.write_text(_PASS_CONFIGS[command])
    assert main([command, "--config", str(cfg), "--seed", "1",
                 "--out", str(tmp_path / "out.csv")]) in (0, 1)
    assert metrics[2] > 0
    assert metrics[3] == len(assembled) == per_run
