"""Coupled and decoupled evolution: integrators, guards, conservation,
and the dissipation bookkeeping."""

import math
import warnings

import numpy as np
import pytest

from warpflow import recipes
from warpflow.errors import (ConfigError, FlowDivergenceError,
                             MetricDegeneracyError, StabilityWarning)
from warpflow.flow import (FlowConfig, FlowState, _explicit_step,
                           conserved_measure_check, instantaneous_rate,
                           monotonicity_report, run_coupled, run_decoupled,
                           step)
from warpflow.functionals import StateTerms
from warpflow.grids import GridSpec, ScalarField

TAU = 2.0 * math.pi


def circle(n):
    return GridSpec((n,), (TAU,))


def initial_state(n=64, amplitude=0.2):
    grid = circle(n)
    return FlowState.initial(recipes.flat_metric(grid),
                             recipes.sine_scalar(grid, amplitude))


# ------------------------------------------------------------- validation

def test_state_requires_metric_flag_and_shared_grid():
    grid = circle(16)
    g = recipes.flat_metric(grid)
    f = recipes.sine_scalar(grid, 0.1)
    bare = recipes.random_sym_tensor(grid, np.random.default_rng(0), 0.1)
    with pytest.raises(ValueError):
        FlowState.initial(bare, f)
    with pytest.raises(ValueError):
        FlowState.initial(g, recipes.sine_scalar(circle(32), 0.1))


def test_config_validation():
    good = dict(dt=1e-3, t_end=1e-2)
    assert FlowConfig(**good).n_steps == 10
    assert FlowConfig(dt=1e-3, t_end=1e-3).n_steps == 1
    for bad in (dict(good, dt=-1e-3),
                dict(good, dt=math.nan),
                dict(good, t_end=1e-4),
                dict(good, t_end=1.05e-2),   # not a whole number of steps
                dict(good, t_end=math.nan),
                dict(good, integrator="rk2"),
                dict(good, filter_cutoff=0.0),
                dict(good, filter_cutoff=1.5),
                dict(good, snapshot_stride=0)):
        with pytest.raises(ConfigError):
            FlowConfig(**bad)


def test_mode_cross_checks():
    # the decoupled runner refuses a coupling and mismatched grids
    grid = circle(16)
    with pytest.raises(ConfigError):
        run_decoupled(recipes.flat_metric(grid),
                      recipes.sine_scalar(grid, 0.1),
                      FlowConfig(dt=1e-4, t_end=1e-3, lam=0.5))
    with pytest.raises(ConfigError):
        run_decoupled(recipes.flat_metric(grid),
                      recipes.sine_scalar(circle(32), 0.1),
                      FlowConfig(dt=1e-4, t_end=1e-3))


def test_snapshot_stride_bookkeeping():
    state = initial_state(32)
    traj = run_coupled(state, FlowConfig(dt=1e-3, t_end=7e-3,
                                         snapshot_stride=3))
    assert [round(s.t / 1e-3) for s in traj] == [0, 3, 6, 7]


# ------------------------------------------------------------ fixed points

def test_flat_constant_pair_is_a_fixed_point():
    grid = circle(32)
    g = recipes.flat_metric(grid)
    f = ScalarField.constant(grid, 0.7)
    state = FlowState.initial(g, f)
    assert np.all(StateTerms.at(g, f).gradient_tensor(0.3).values == 0.0)
    traj = run_coupled(state, FlowConfig(dt=1e-3, t_end=5e-3,
                                         integrator="rk4", lam=0.3))
    final = traj[-1]
    assert np.array_equal(final.g.values, g.values)
    assert np.array_equal(final.f.values, f.values)
    assert StateTerms.at(final.g, final.f).dissipation(0.3) == 0.0


def test_constant_terminal_f_stays_constant():
    grid = circle(32)
    traj = run_decoupled(recipes.flat_metric(grid),
                         ScalarField.constant(grid, 0.4),
                         FlowConfig(dt=1e-3, t_end=5e-3, snapshot_stride=1))
    for s in traj:
        # u never changes, so f is the same array of values throughout;
        # the log(exp(.)) round trip is only ulp-exact, hence the atol
        assert np.array_equal(s.f.values, traj[0].f.values)
        assert np.array_equal(s.g.values, traj[0].g.values)
    assert np.allclose(traj[0].f.values, 0.4, rtol=0.0, atol=1e-14)


# -------------------------------------------------------------- integrators

def test_explicit_step_on_linear_ode():
    # on y' = a y one step multiplies every array of the tuple by the
    # method's polynomial in z = a dt: 1 + z for Euler, the degree-4
    # Taylor polynomial of e^z for RK4
    a, dt = -1.3, 0.1
    z = a * dt
    y = (np.array([1.0, -2.0, 0.5]), np.array([[3.0, 0.25]]))

    def slope(c, ys):
        return tuple(a * v for v in ys)

    for integrator, factor in (
            ("euler", 1.0 + z),
            ("rk4", 1.0 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24)):
        out = _explicit_step(y, slope(0.0, y), slope, dt, integrator)
        assert len(out) == len(y)
        for got, start in zip(out, y):
            assert np.allclose(got, factor * start, rtol=1e-15, atol=0.0)


def test_explicit_step_stage_fractions():
    # y' = 3 t^2 from t = 0: the slope depends on the stage fraction c
    # alone, RK4 asks at c = 0.5, 0.5, 1.0 and integrates the cubic
    # exactly (Simpson's rule), Euler asks nothing beyond k1 = 0
    dt = 0.2
    seen = []

    def slope(c, ys):
        seen.append(c)
        return (np.full(2, 3.0 * (c * dt) ** 2),)

    (y,) = _explicit_step((np.zeros(2),), (np.zeros(2),), slope, dt, "rk4")
    assert seen == [0.5, 0.5, 1.0]
    assert np.allclose(y, dt ** 3, rtol=1e-15, atol=0.0)
    seen.clear()
    (y,) = _explicit_step((np.zeros(2),), (np.zeros(2),), slope, dt, "euler")
    assert seen == [] and np.all(y == 0.0)


def test_euler_step_against_taylor_oracle():
    # flat circle with f = a sin x has an analytic right-hand side:
    # dg = 2 a sin(x) dt, df = a sin(x) dt.  A single Euler step then
    # differs from the Taylor state only through the stencil symbol,
    # so the gap must shrink like h^2 at fixed dt.
    a, dt = 0.2, 1e-3
    gaps = {}
    for n in (32, 64):
        grid = circle(n)
        f = ScalarField.from_function(grid, lambda x: a * np.sin(x))
        state = FlowState.initial(recipes.flat_metric(grid), f)
        nxt = step(state, FlowConfig(dt=dt, t_end=dt, integrator="euler"))
        x = np.arange(n) * (TAU / n)
        eg = np.abs(nxt.g.values[..., 0, 0]
                    - (1.0 + 2.0 * dt * a * np.sin(x))).max()
        ef = np.abs(nxt.f.values - (a * np.sin(x) + dt * a * np.sin(x))).max()
        gaps[n] = (float(eg), float(ef))
    assert gaps[32][0] < 1e-5 and gaps[32][1] < 1e-5
    for k in (0, 1):
        assert gaps[32][k] / gaps[64][k] == pytest.approx(4.0, abs=0.5)


def test_rk4_euler_gap_is_first_order_in_dt():
    t_end = 2e-3
    state = initial_state(64)
    gaps = []
    for dt in (2e-4, 1e-4):
        ends = [run_coupled(state, FlowConfig(dt=dt, t_end=t_end,
                                              integrator=integ))[-1]
                for integ in ("euler", "rk4")]
        gaps.append(max(
            float(np.abs(ends[0].g.values - ends[1].g.values).max()),
            float(np.abs(ends[0].f.values - ends[1].f.values).max())))
    assert gaps[0] < 1e-6
    assert gaps[0] / gaps[1] == pytest.approx(2.0, abs=0.2)


def test_single_step_measure_drift_is_second_order():
    # the right-hand side freezes e^{-f} sqrt(det g) exactly, so one
    # Euler step can only drift the density at O(dt^2)
    drifts = []
    for dt in (1e-3, 5e-4):
        state = initial_state(64)
        nxt = step(state, FlowConfig(dt=dt, t_end=dt, integrator="euler"))
        drifts.append(conserved_measure_check([state, nxt]))
    assert drifts[0] < 1e-7
    assert drifts[0] / drifts[1] == pytest.approx(4.0, abs=0.3)


def test_trajectory_measure_drift():
    state = initial_state(64)
    for integ, bound in (("euler", 5e-8), ("rk4", 1e-12)):
        traj = run_coupled(state, FlowConfig(dt=1e-4, t_end=2e-3,
                                             integrator=integ,
                                             snapshot_stride=5))
        assert conserved_measure_check(traj) < bound


@pytest.mark.parametrize("integrator, passes", [("euler", 6), ("rk4", 26)])
def test_decoupled_run_takes_one_oracle_pass_per_stored_metric(
        monkeypatch, integrator, passes):
    # 5 steps store 6 metrics, and one Ricci pass of each serves both the
    # step from it and the backward sweep; rk4 adds 3 stages per forward
    # step and one midpoint metric per backward step (5 * 5 + 1).  The
    # backward sweep reuses each pass's inverse, so every inversion is
    # an oracle pass's own.
    from warpflow import geometry
    calls = {"_symmetrized_ricci": 0, "inverse_metric": 0}

    def counting(name):
        fn = getattr(geometry, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(geometry, name, counting(name))
    grid = circle(16)
    traj = run_decoupled(recipes.conformal_metric(grid, 0.1),
                         recipes.sine_scalar(grid, 0.2),
                         FlowConfig(dt=1e-4, t_end=5e-4,
                                    integrator=integrator))
    assert len(traj) == 6
    assert calls == {"_symmetrized_ricci": passes, "inverse_metric": passes}


def test_monotonicity_report_takes_one_oracle_pass_per_snapshot(monkeypatch):
    from warpflow import geometry
    state = initial_state(32)
    traj = run_coupled(state, FlowConfig(dt=1e-4, t_end=5e-4, lam=0.5,
                                         integrator="euler",
                                         snapshot_stride=2))
    calls = []
    ricci_pass = geometry._symmetrized_ricci

    def counted(*args, **kwargs):
        calls.append(1)
        return ricci_pass(*args, **kwargs)

    monkeypatch.setattr(geometry, "_symmetrized_ricci", counted)
    rows = monotonicity_report(traj, 0.5)
    assert len(rows) == len(traj) == 4
    assert len(calls) == len(traj)
    records = [StateTerms.at(s.g, s.f) for s in traj]
    assert [r.f_lam for r in rows] == [t.F_lambda(0.5) for t in records]
    assert [r.dissipation for r in rows] \
        == [t.dissipation(0.5) for t in records]


def test_coupled_rk4_step_inverts_the_metric_four_times(monkeypatch):
    # one inversion per stage: its oracle pass also raises the trace of
    # dg, and the first stage's serves the stability estimate
    from warpflow import geometry
    calls = []
    inverse = geometry.inverse_metric

    def counted(*args, **kwargs):
        calls.append(1)
        return inverse(*args, **kwargs)

    monkeypatch.setattr(geometry, "inverse_metric", counted)
    step(initial_state(32), FlowConfig(dt=1e-4, t_end=1e-4, lam=0.5,
                                       integrator="rk4"))
    assert len(calls) <= 4


def test_coupled_rk4_step_takes_no_volume_density(monkeypatch):
    # the slopes read each stage record's bundle, df and hess f; the
    # weight e^{-f} dmu is never built
    from warpflow import geometry
    grid = GridSpec((12, 12), (TAU, TAU))
    state = FlowState.initial(
        recipes.random_spd_metric(grid, np.random.default_rng(3), 0.2),
        recipes.mixed_sine_scalar(grid, 0.2))
    calls = []
    density = geometry.volume_density

    def counted(*args, **kwargs):
        calls.append(1)
        return density(*args, **kwargs)

    monkeypatch.setattr(geometry, "volume_density", counted)
    step(state, FlowConfig(dt=1e-4, t_end=1e-4, lam=0.5, integrator="rk4"))
    assert calls == []


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_instantaneous_rate_takes_one_oracle_pass_at_the_state(
        monkeypatch, integrator):
    # one state record serves the first stage of both probe steps and the
    # dissipation
    from warpflow import geometry
    state = initial_state(32)
    expected = StateTerms.at(state.g, state.f).dissipation(0.5)
    at_state = []
    bundle = geometry.curvature_bundle

    def counted(g, *args, **kwargs):
        at_state.append(np.array_equal(g.values, state.g.values))
        return bundle(g, *args, **kwargs)

    monkeypatch.setattr(geometry, "curvature_bundle", counted)
    rc = instantaneous_rate(state, 0.5, 1e-4, integrator=integrator)
    assert rc.dissipation == expected
    assert sum(at_state) == 1


# ------------------------------------------------------------------ guards

def test_stability_warning_on_oversized_step():
    state = initial_state(16, amplitude=0.05)
    cfg = FlowConfig(dt=0.1, t_end=0.1, integrator="euler")
    with pytest.warns(StabilityWarning):
        step(state, cfg)


def test_unresolved_run_diverges_and_filter_rescues_it():
    # seed f with modes above half the spectrum; the f equation is
    # antidiffusive, so unfiltered Euler must blow up well before
    # t_end = 0.01 L^2, while a 0.5 cutoff removes exactly those modes
    # and the same run completes with bounded fields
    grid = circle(32)
    f0 = ScalarField(grid, recipes.sine_scalar(grid, 0.2).values
                     + recipes.high_mode_scalar(grid, 0.4, (9, 11, 13)).values)
    state = FlowState.initial(recipes.flat_metric(grid), f0)
    t_end = 0.395  # 79 steps, about 0.01 L^2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        with pytest.raises((FlowDivergenceError, MetricDegeneracyError)) as ei:
            run_coupled(state, FlowConfig(dt=5e-3, t_end=t_end,
                                          integrator="euler",
                                          filter_cutoff=1.0))
        assert ei.value.time is not None and ei.value.time < t_end
        traj = run_coupled(state, FlowConfig(dt=5e-3, t_end=t_end,
                                             integrator="euler",
                                             filter_cutoff=0.5,
                                             snapshot_stride=10))
    assert traj[-1].t == pytest.approx(t_end, rel=2e-2)
    assert float(np.abs(traj[-1].f.values).max()) < 1.0


def test_decoupled_positivity_guard():
    # a strong quarter-spectrum mode with dt past the composed-stencil
    # threshold flips u negative on the first backward step; that must
    # surface as a divergence report, not a log-domain crash
    grid = circle(32)
    f_term = ScalarField.from_function(
        grid, lambda x: -np.log(1.0 + 0.9 * np.cos(8.0 * x)))
    with pytest.raises(FlowDivergenceError):
        run_decoupled(recipes.flat_metric(grid), f_term,
                      FlowConfig(dt=0.15, t_end=0.3, integrator="euler"))


# ------------------------------------------------------- dissipation ledger

def test_instantaneous_rate_matches_dissipation():
    two_mode = circle(96)
    for state in (initial_state(64),
                  FlowState.initial(recipes.flat_metric(two_mode),
                                    recipes.mixed_sine_scalar(two_mode, 0.3,
                                                              (1, 2)))):
        for integ in ("rk4", "euler"):
            rc = instantaneous_rate(state, 0.0, 1e-4, integrator=integ)
            assert rc.dissipation > 0.0
            assert abs(rc.ratio - 1.0) < 1e-3


def test_rate_at_nonzero_coupling_needs_completed_covector():
    # along dg/dt = -2 S_lam the true rate of F_lam pairs the flow
    # direction with the trace-completed covector
    #     S_lam + lam (lap f - |grad f|^2) g,
    # not with S_lam itself; 2 int |S_lam|^2 is the rate only at lam = 0.
    # The naive ratio is stably O(1) wrong (not a resolution artifact),
    # while the completed one converges to 1 at second order.
    from warpflow import geometry
    from warpflow.functionals import StateTerms
    from warpflow.grids import SymTensorField, integrate

    lam = 0.5
    grid = circle(128)
    g = recipes.flat_metric(grid)
    f = recipes.mixed_sine_scalar(grid, 0.4, (1, 2))
    state = FlowState.initial(g, f)
    rc = instantaneous_rate(state, lam, 1e-4)
    assert abs(rc.ratio - 1.0) > 0.3

    terms = StateTerms.at(g, f)
    s = terms.gradient_tensor(lam)
    lap = geometry.laplace_beltrami(f, terms.bundle.inverse,
                                   geometry.volume_density(g))
    completed = SymTensorField(
        grid, s.values
        + (lam * (lap.values - terms.grad_sq))[..., None, None] * g.values)
    inv = terms.bundle.inverse
    pair = np.einsum("...ik,...jl,...ij,...kl->...",
                     inv, inv, completed.values, s.values)
    predicted = 2.0 * integrate(ScalarField(grid, pair), terms.weight)
    assert abs(rc.numeric_rate / predicted - 1.0) < 5e-4


def test_decoupled_functional_is_nondecreasing():
    grid = circle(48)
    traj = run_decoupled(recipes.flat_metric(grid),
                         recipes.sine_scalar(grid, 0.2),
                         FlowConfig(dt=2e-4, t_end=4e-3, integrator="rk4",
                                    snapshot_stride=1))
    rows = monotonicity_report(traj, 0.0)
    assert len(rows) == 21
    vals = [r.f_lam for r in rows]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert math.isnan(rows[0].df_dt) and math.isnan(rows[-1].df_dt)
    assert rows[0].sign == 0 and rows[-1].sign == 0
    for r in rows[1:-1]:
        assert r.sign == 1
        assert abs(r.ratio - 1.0) < 5e-3


def test_max_principle_for_flat_decoupled_euler():
    # on a flat background the backward sweep is a plain forward heat
    # march in s = T - t; with dt under the positivity threshold each
    # update is an average, so max u cannot grow in s (equivalently,
    # cannot shrink in t)
    grid = circle(48)
    traj = run_decoupled(recipes.flat_metric(grid),
                         recipes.sine_scalar(grid, 0.2),
                         FlowConfig(dt=2e-4, t_end=4e-3, integrator="euler",
                                    snapshot_stride=1))
    mu = [float(np.exp(-s.f.values).max()) for s in traj]
    assert all(b >= a - 1e-15 for a, b in zip(mu, mu[1:]))


def test_decoupled_and_coupled_functionals_agree():
    # the two formulations differ by a diffeomorphism the functional
    # cannot see; starting the coupled run from the decoupled f(0), the
    # F(t) curves must track each other far below the O(1) scale of F
    grid = circle(64)
    g0 = recipes.flat_metric(grid)
    # one config serves both runners: the runner called is the mode
    cfg = FlowConfig(dt=1e-4, t_end=4e-3, integrator="rk4",
                     snapshot_stride=5)
    traj_d = run_decoupled(g0, recipes.sine_scalar(grid, 0.2), cfg)
    traj_c = run_coupled(FlowState.initial(g0, traj_d[0].f), cfg)
    assert len(traj_d) == len(traj_c)
    for sd, sc in zip(traj_d, traj_c):
        assert sd.t == pytest.approx(sc.t, abs=1e-12)
        fd = StateTerms.at(sd.g, sd.f).F_lambda(0.0)
        fc = StateTerms.at(sc.g, sc.f).F_lambda(0.0)
        assert abs(fd - fc) / abs(fd) < 1e-5
