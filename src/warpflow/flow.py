"""Time evolution: the constrained coupled system and its decoupled twin.

Coupled mode integrates

    dg/dt = -2 (Ric + hess f + lam df (x) df)
    df/dt = -lap f - R - lam |grad f|^2

where the f equation is realized as df/dt = (1/2) tr_g(dg/dt), which is
the same algebra with lap meaning the Hessian trace; building it as the
trace makes the constraint delta f = tr_g(delta g)/2 hold to roundoff at
every step, so any drift of the density e^{-f} sqrt(det g) is purely the
time integrator's.  The f equation contains a backward heat operator, so
coupled runs are short-horizon verification tools: band-limited data, a
spectral filter, small t_end.  The companion guard rails (growth cap,
positive-definiteness halt) treat divergence as a detected outcome, not
a crash.

Decoupled mode is the numerically sound formulation: the metric runs
forward under dg/dt = -2 Ric alone, and f is recovered from u = e^{-f}
solving the conjugate equation du/dt = -lap u + R u, integrated backward
from terminal data, i.e. forward in s = T - t where it is an ordinary
heat equation.  The two formulations differ by a diffeomorphism, which
the action functionals cannot see, so their F(t) curves must agree; the
tests use exactly that.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import (ConfigError, FlowDivergenceError, MetricDegeneracyError,
                     StabilityWarning)
from .functionals import StateTerms, measure_density
from .grids import ScalarField, SymTensorField, filter_array

__all__ = [
    "FlowState",
    "FlowConfig",
    "MonotonicityRow",
    "RateCheck",
    "step",
    "run_coupled",
    "run_decoupled",
    "conserved_measure_check",
    "monotonicity_report",
    "instantaneous_rate",
]

F_CAP = 25.0  # |f| beyond this means e^{+-f} has left the trusted regime

INTEGRATORS = ("euler", "rk4")
MODES = ("coupled", "decoupled")


@dataclass(frozen=True, eq=False)
class FlowState:
    """One snapshot of the evolving pair, plus the conserved density
    rho0 = e^{-f} sqrt(det g) frozen at t = 0."""

    t: float
    g: SymTensorField
    f: ScalarField
    rho0: ScalarField

    def __post_init__(self):
        if not (self.g.grid == self.f.grid == self.rho0.grid):
            raise ValueError("state fields live on different grids")
        if not self.g.is_metric:
            raise ValueError("state metric must be flagged is_metric")

    @classmethod
    def initial(cls, g: SymTensorField, f: ScalarField) -> "FlowState":
        return cls(t=0.0, g=g, f=f, rho0=measure_density(g, f))

    def measure_drift(self) -> float:
        """Max relative node-wise deviation of the current e^{-f}
        sqrt(det g) from rho0."""
        dev = np.abs(measure_density(self.g, self.f).values - self.rho0.values)
        return float((dev / self.rho0.values).max())


@dataclass(frozen=True)
class FlowConfig:
    """Run parameters.  dt and t_end in flow time, t_end a whole number
    of steps (within 1e-9 relative); snapshots every ``snapshot_stride``
    steps (first and last always kept)."""

    dt: float
    t_end: float
    lam: float = 0.0
    integrator: str = "euler"
    mode: str = "coupled"
    filter_cutoff: float = 1.0
    snapshot_stride: int = 1
    order: int = 2

    def __post_init__(self):
        if self.dt <= 0 or not math.isfinite(self.dt):
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not math.isfinite(self.t_end) or self.t_end < self.dt:
            raise ConfigError("t_end must cover at least one step")
        if abs(self.t_end - self.n_steps * self.dt) > 1e-9 * self.t_end:
            raise ConfigError(f"t_end = {self.t_end!r} is not a whole "
                              f"number of steps of dt = {self.dt!r}")
        if self.integrator not in INTEGRATORS:
            raise ConfigError(f"integrator must be one of {INTEGRATORS}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if not 0.0 < self.filter_cutoff <= 1.0:
            raise ConfigError("filter_cutoff must lie in (0, 1]")
        if self.snapshot_stride < 1:
            raise ConfigError("snapshot_stride must be >= 1")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)


def _rhs_arrays(terms: StateTerms,
                lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand sides as raw arrays: dg = -2 S_lam as (..., d, d)
    matrices, and df = (1/2) tr_g dg, computed from the same tensor so the
    constraint identity is exact by construction."""
    dg = -2.0 * terms.gradient_tensor(lam).values
    df = 0.5 * np.einsum("...ij,...ij->...", terms.bundle.inverse, dg)
    return dg, df


def _stability_bound(g: SymTensorField, inv: np.ndarray) -> float:
    """Forward-Euler heat-operator estimate h_min^2 / (2 d max g^{ii}),
    ``inv`` being g's inverse."""
    d = g.grid.dim
    max_diag = float(inv[..., range(d), range(d)].max())
    h_min = min(g.grid.spacing)
    return h_min * h_min / (2.0 * d * max_diag)


def _advance(terms: StateTerms, f: ScalarField, dt: float, lam: float,
             integrator: str, order: int) -> tuple[np.ndarray, np.ndarray]:
    """One raw integrator step from the state (terms.g, f), whose record
    ``terms`` serves the first stage (dt may be negative for probe
    steps); returns unfiltered value arrays."""
    g = terms.g
    k1g, k1f = _rhs_arrays(terms, lam)
    if integrator == "euler":
        return g.values + dt * k1g, f.values + dt * k1f

    def stage(gv, fv):
        return _rhs_arrays(StateTerms.at(
            SymTensorField(g.grid, gv, is_metric=True),
            ScalarField(g.grid, fv), order), lam)

    k2g, k2f = stage(g.values + 0.5 * dt * k1g, f.values + 0.5 * dt * k1f)
    k3g, k3f = stage(g.values + 0.5 * dt * k2g, f.values + 0.5 * dt * k2f)
    k4g, k4f = stage(g.values + dt * k3g, f.values + dt * k3f)
    gv = g.values + (dt / 6.0) * (k1g + 2.0 * k2g + 2.0 * k3g + k4g)
    fv = f.values + (dt / 6.0) * (k1f + 2.0 * k2f + 2.0 * k3f + k4f)
    return gv, fv


def _guard_growth(fv: np.ndarray, gv: np.ndarray, t: float):
    if not (np.all(np.isfinite(fv)) and np.all(np.isfinite(gv))):
        raise FlowDivergenceError(
            f"non-finite values at t = {t:.6g}: the run has diverged",
            time=t, magnitude=math.inf)
    peak = float(np.abs(fv).max())
    if peak > F_CAP:
        raise FlowDivergenceError(
            f"|f| reached {peak:.3e} at t = {t:.6g} (cap {F_CAP}): "
            "unbounded growth detected", time=t, magnitude=peak)


def step(state: FlowState, config: FlowConfig) -> FlowState:
    """One time step of the coupled system, with optional low-pass
    filtering of f and the metric components afterwards.  Halts with a
    diagnostic if the metric leaves the positive cone or the run blows
    up; never repairs silently."""
    if config.mode != "coupled":
        raise ConfigError("step() integrates the coupled system; "
                          "decoupled runs are whole-trajectory, "
                          "use run_decoupled")
    terms = StateTerms.at(state.g, state.f, config.order)
    bound = _stability_bound(state.g, terms.bundle.inverse)
    if config.dt > bound:
        warnings.warn(
            "dt exceeds the explicit-step stability estimate for the "
            "parabolic part; expect drift or divergence",
            StabilityWarning, stacklevel=2)
    t_next = state.t + config.dt
    try:
        gv, fv = _advance(terms, state.f, config.dt, config.lam,
                          config.integrator, config.order)
    except MetricDegeneracyError as exc:
        raise MetricDegeneracyError(
            f"metric degenerated during a step from t = {state.t:.6g}: {exc}",
            node=exc.node, eigenvalue=exc.eigenvalue, time=state.t) from exc
    _guard_growth(fv, gv, t_next)
    if config.filter_cutoff < 1.0:
        fv = filter_array(fv, state.g.grid, config.filter_cutoff)
        gv = filter_array(gv, state.g.grid, config.filter_cutoff)
    try:
        g_new = SymTensorField(state.g.grid, gv, is_metric=True)
    except MetricDegeneracyError as exc:
        raise MetricDegeneracyError(
            f"metric lost positive definiteness at t = {t_next:.6g}: {exc}",
            node=exc.node, eigenvalue=exc.eigenvalue, time=t_next) from exc
    return FlowState(t=t_next, g=g_new, f=ScalarField(state.g.grid, fv),
                     rho0=state.rho0)


def run_coupled(state0: FlowState, config: FlowConfig) -> list[FlowState]:
    """Integrate the coupled system for n_steps, returning snapshots
    every ``snapshot_stride`` steps plus the initial and final states."""
    if config.mode != "coupled":
        raise ConfigError("run_coupled needs mode = 'coupled'")
    snapshots = [state0]
    state = state0
    for k in range(config.n_steps):
        state = step(state, config)
        if (k + 1) % config.snapshot_stride == 0 or k + 1 == config.n_steps:
            snapshots.append(state)
    return snapshots


def _sweep_terms(g: SymTensorField, bundle) -> tuple:
    """What the backward sweep reads of one metric: its scalar curvature,
    the inverse its oracle pass already made, and its density."""
    return bundle.scalar.values, bundle.inverse, geometry.volume_density(g)


def _conjugate_rhs(u: np.ndarray, terms: tuple, order: int) -> np.ndarray:
    """du/ds = lap_g u - R u (the conjugate equation forward in
    s = T - t, where it is parabolic), against one metric's sweep terms."""
    scal, inv, rho = terms
    lap = geometry.laplace_beltrami(ScalarField(rho.grid, u), inv, rho, order)
    return lap.values - scal * u


def run_decoupled(g0: SymTensorField, f_terminal: ScalarField,
                  config: FlowConfig) -> list[FlowState]:
    """The diffeomorphism-fixed formulation: metric forward, u backward.

    Phase 1 integrates dg/dt = -2 Ric(g) from g0 over [0, T], storing the
    metric at every step (memory O(n_steps) metric fields; runs here are
    short).  Phase 2 sets u = e^{-f_terminal} at t = T and integrates the
    conjugate equation backward to t = 0 against the stored metrics —
    equivalently forward in s = T - t, where each step is an ordinary
    heat step.  Snapshots pair g(t) with f(t) = -log u(t).

    Restricted to lam = 0: the decoupling diffeomorphism is only known
    for the plain system.
    """
    if config.mode != "decoupled":
        raise ConfigError("run_decoupled needs mode = 'decoupled'")
    if config.lam != 0.0:
        raise ConfigError("decoupled mode is defined for lam = 0 only; "
                          "nonzero couplings run in coupled mode")
    if f_terminal.grid != g0.grid:
        raise ConfigError("terminal f and g0 live on different grids")
    grid = g0.grid
    dt = config.dt
    n = config.n_steps
    order = config.order

    def ricci_rhs(g: SymTensorField) -> np.ndarray:
        return -2.0 * geometry.curvature_bundle(g, order).ricci.values

    # One oracle pass per stored metric feeds both phases: its Ricci is
    # the first stage of the step from it, its scalar and inverse the
    # backward sweep.
    metrics = [g0]
    terms = []
    g = g0
    for k in range(n):
        t = k * dt
        try:
            bundle = geometry.curvature_bundle(g, order)
            terms.append(_sweep_terms(g, bundle))
            k1 = -2.0 * bundle.ricci.values
            if config.integrator == "euler":
                gv = g.values + dt * k1
            else:
                k2 = ricci_rhs(SymTensorField(grid, g.values + 0.5 * dt * k1,
                                              is_metric=True))
                k3 = ricci_rhs(SymTensorField(grid, g.values + 0.5 * dt * k2,
                                              is_metric=True))
                k4 = ricci_rhs(SymTensorField(grid, g.values + dt * k3,
                                              is_metric=True))
                gv = g.values + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            _guard_growth(np.zeros(1), gv, t + dt)
            g = SymTensorField(grid, gv, is_metric=True)
        except MetricDegeneracyError as exc:
            raise MetricDegeneracyError(
                f"metric flow degenerated at t = {t + dt:.6g}: {exc}",
                node=exc.node, eigenvalue=exc.eigenvalue, time=t + dt) from exc
        metrics.append(g)
    terms.append(_sweep_terms(g, geometry.curvature_bundle(g, order)))

    u_by_index = {n: np.exp(-f_terminal.values)}
    u = u_by_index[n]
    for k in range(n, 0, -1):
        # One step backward in t = one forward heat step in s, taken
        # against the stored metric path; RK4 stages see the midpoint
        # metric by linear interpolation.
        if config.integrator == "euler":
            u = u + dt * _conjugate_rhs(u, terms[k], order)
        else:
            g_mid = SymTensorField(
                grid, 0.5 * (metrics[k].values + metrics[k - 1].values),
                is_metric=True)
            mid = _sweep_terms(g_mid, geometry.curvature_bundle(g_mid, order))
            k1 = _conjugate_rhs(u, terms[k], order)
            k2 = _conjugate_rhs(u + 0.5 * dt * k1, mid, order)
            k3 = _conjugate_rhs(u + 0.5 * dt * k2, mid, order)
            k4 = _conjugate_rhs(u + dt * k3, terms[k - 1], order)
            u = u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        low = float(u.min())
        if not np.all(np.isfinite(u)) or low <= 0.0:
            raise FlowDivergenceError(
                f"u = e^-f hit {low:.3e} integrating back to "
                f"t = {(k - 1) * dt:.6g}; f is undefined there",
                time=(k - 1) * dt, magnitude=low)
        u_by_index[k - 1] = u

    f0 = ScalarField(grid, -np.log(u_by_index[0]))
    base = FlowState.initial(metrics[0], f0)
    states = [base]
    for k in range(1, n + 1):
        if k % config.snapshot_stride == 0 or k == n:
            states.append(FlowState(
                t=k * dt, g=metrics[k],
                f=ScalarField(grid, -np.log(u_by_index[k])),
                rho0=base.rho0))
    return states


def conserved_measure_check(trajectory: list[FlowState]) -> float:
    """Max relative node-wise drift of e^{-f} sqrt(det g) from rho0
    across all snapshots."""
    return max([0.0] + [state.measure_drift() for state in trajectory])


@dataclass
class MonotonicityRow:
    """One snapshot's entry in the monotonicity table: the functional
    value, its centered-difference time derivative (NaN at endpoints),
    the dissipation integral, their ratio, and the derivative's sign."""

    t: float
    f_lam: float
    df_dt: float
    dissipation: float
    ratio: float
    sign: int


def monotonicity_report(trajectory: list[FlowState], lam: float,
                        order: int = 2) -> list[MonotonicityRow]:
    """Tabulate F_lam along a trajectory against the dissipation
    integral.  The interesting claim is |dF/dt| = D; the sign of dF/dt
    is reported as data, not asserted.  One oracle pass per snapshot
    serves both F_lam and D."""
    values, dissipations = [], []
    for state in trajectory:
        terms = StateTerms.at(state.g, state.f, order)
        values.append(terms.F_lambda(lam))
        dissipations.append(terms.dissipation(lam))
    rows = []
    for i, state in enumerate(trajectory):
        if 0 < i < len(trajectory) - 1:
            dfdt = ((values[i + 1] - values[i - 1])
                    / (trajectory[i + 1].t - trajectory[i - 1].t))
        else:
            dfdt = math.nan
        diss = dissipations[i]
        ratio = dfdt / diss if diss > 0 and math.isfinite(dfdt) else math.nan
        sign = 0 if not math.isfinite(dfdt) else int(np.sign(dfdt))
        rows.append(MonotonicityRow(t=state.t, f_lam=values[i], df_dt=dfdt,
                                    dissipation=diss, ratio=ratio, sign=sign))
    return rows


@dataclass
class RateCheck:
    """Instantaneous dF_lam/dt at one state (symmetric one-step probe)
    against the dissipation integral."""

    numeric_rate: float
    dissipation: float
    ratio: float


def instantaneous_rate(state: FlowState, lam: float, dt: float,
                       order: int = 2, integrator: str = "rk4") -> RateCheck:
    """Probe dF_lam/dt at a state by stepping the coupled system once
    forward and once backward (a single reversed step of the ODE system
    in time is legitimate regardless of parabolicity) and differencing.
    """
    grid = state.g.grid
    terms = StateTerms.at(state.g, state.f, order)
    rates = []
    for signed_dt in (dt, -dt):
        gv, fv = _advance(terms, state.f, signed_dt, lam, integrator, order)
        rates.append(StateTerms.at(SymTensorField(grid, gv, is_metric=True),
                                   ScalarField(grid, fv), order).F_lambda(lam))
    numeric = (rates[0] - rates[1]) / (2.0 * dt)
    diss = terms.dissipation(lam)
    ratio = numeric / diss if diss > 0 else math.nan
    return RateCheck(numeric_rate=numeric, dissipation=diss, ratio=ratio)
