"""Time evolution: the constrained coupled system and its decoupled twin.

The coupled system (``step``, ``run_coupled``) integrates

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

Decoupled mode (``run_decoupled``) is the numerically sound formulation:
the metric runs forward under dg/dt = -2 Ric alone, and f is recovered
from u = e^{-f} solving the conjugate equation du/dt = -lap u + R u,
integrated backward from terminal data, i.e. forward in s = T - t where
it is an ordinary heat equation.  The two formulations differ by a
diffeomorphism, which the action functionals cannot see, so their F(t)
curves must agree; the tests use exactly that.  Both take their steps
with one explicit Euler/RK4 routine, at second-order stencils.
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
    filter_cutoff: float = 1.0
    snapshot_stride: int = 1

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
        if not 0.0 < self.filter_cutoff <= 1.0:
            raise ConfigError("filter_cutoff must lie in (0, 1]")
        if self.snapshot_stride < 1:
            raise ConfigError("snapshot_stride must be >= 1")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)


def _stability_bound(g: SymTensorField, inv: np.ndarray) -> float:
    """Forward-Euler heat-operator estimate h_min^2 / (2 d max g^{ii}),
    ``inv`` being g's inverse."""
    d = g.grid.dim
    max_diag = float(inv[..., range(d), range(d)].max())
    h_min = min(g.grid.spacing)
    return h_min * h_min / (2.0 * d * max_diag)


def _explicit_step(y: tuple[np.ndarray, ...], k1: tuple[np.ndarray, ...],
                   slope, dt: float, integrator: str) -> tuple:
    """One explicit step of the system y' = slope from the arrays ``y``:
    forward Euler, or classical RK4.  ``k1`` is the slope at y itself;
    ``slope(c, y_c)`` returns it at a stage state a fraction c of the
    way through the step (RK4 asks at c = 0.5, 0.5 and 1.0)."""
    if integrator == "euler":
        return tuple(v + dt * k for v, k in zip(y, k1))
    k2 = slope(0.5, tuple(v + 0.5 * dt * k for v, k in zip(y, k1)))
    k3 = slope(0.5, tuple(v + 0.5 * dt * k for v, k in zip(y, k2)))
    k4 = slope(1.0, tuple(v + dt * k for v, k in zip(y, k3)))
    return tuple(v + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                 for v, a, b, c, d in zip(y, k1, k2, k3, k4))


def _advance(terms: StateTerms, f: ScalarField, dt: float, lam: float,
             integrator: str) -> tuple[np.ndarray, np.ndarray]:
    """One raw coupled step from the state (terms.g, f), whose record
    ``terms`` serves the first stage (dt may be negative for probe
    steps); returns unfiltered value arrays.  The slopes are
    dg = -2 S_lam as (..., d, d) matrices and df = (1/2) tr_g dg,
    computed from the same tensor so the constraint identity is exact by
    construction."""
    grid = terms.g.grid

    def rhs(at: StateTerms) -> tuple[np.ndarray, np.ndarray]:
        dg = -2.0 * at.gradient_tensor(lam).values
        return dg, 0.5 * np.einsum("...ij,...ij->...", at.bundle.inverse, dg)

    def slope(c, y):
        return rhs(StateTerms.at(SymTensorField(grid, y[0], is_metric=True),
                                 ScalarField(grid, y[1])))

    return _explicit_step((terms.g.values, f.values), rhs(terms), slope, dt,
                          integrator)


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
    terms = StateTerms.at(state.g, state.f)
    bound = _stability_bound(state.g, terms.bundle.inverse)
    if config.dt > bound:
        warnings.warn(
            "dt exceeds the explicit-step stability estimate for the "
            "parabolic part; expect drift or divergence",
            StabilityWarning, stacklevel=2)
    t_next = state.t + config.dt
    try:
        gv, fv = _advance(terms, state.f, config.dt, config.lam,
                          config.integrator)
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


def _conjugate_rhs(u: np.ndarray, terms: tuple) -> np.ndarray:
    """du/ds = lap_g u - R u (the conjugate equation forward in
    s = T - t, where it is parabolic), against one metric's sweep terms."""
    scal, inv, rho = terms
    lap = geometry.laplace_beltrami(ScalarField(rho.grid, u), inv, rho)
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
    if config.lam != 0.0:
        raise ConfigError("decoupled mode is defined for lam = 0 only; "
                          "nonzero couplings run in coupled mode")
    if f_terminal.grid != g0.grid:
        raise ConfigError("terminal f and g0 live on different grids")
    grid = g0.grid
    dt = config.dt
    n = config.n_steps

    def ricci_slope(c, y):
        g = SymTensorField(grid, y[0], is_metric=True)
        return (-2.0 * geometry.curvature_bundle(g).ricci.values,)

    # One oracle pass per stored metric feeds both phases: its Ricci is
    # the first stage of the step from it, its scalar and inverse the
    # backward sweep.
    metrics = [g0]
    terms = []
    g = g0
    for k in range(n):
        t = k * dt
        try:
            bundle = geometry.curvature_bundle(g)
            terms.append(_sweep_terms(g, bundle))
            (gv,) = _explicit_step((g.values,), (-2.0 * bundle.ricci.values,),
                                   ricci_slope, dt, config.integrator)
            _guard_growth(np.zeros(1), gv, t + dt)
            g = SymTensorField(grid, gv, is_metric=True)
        except MetricDegeneracyError as exc:
            raise MetricDegeneracyError(
                f"metric flow degenerated at t = {t + dt:.6g}: {exc}",
                node=exc.node, eigenvalue=exc.eigenvalue, time=t + dt) from exc
        metrics.append(g)
    terms.append(_sweep_terms(g, geometry.curvature_bundle(g)))

    u_by_index = {n: np.exp(-f_terminal.values)}
    u = u_by_index[n]
    for k in range(n, 0, -1):
        # One step backward in t = one forward heat step in s, taken
        # against the stored metric path: a stage at fraction c of the
        # step sees the metric at t_k - c dt, the midpoint one by linear
        # interpolation.
        path = {0.0: terms[k], 1.0: terms[k - 1]}
        if config.integrator == "rk4":
            g_mid = SymTensorField(
                grid, 0.5 * (metrics[k].values + metrics[k - 1].values),
                is_metric=True)
            path[0.5] = _sweep_terms(g_mid, geometry.curvature_bundle(g_mid))
        (u,) = _explicit_step(
            (u,), (_conjugate_rhs(u, path[0.0]),),
            lambda c, y: (_conjugate_rhs(y[0], path[c]),), dt,
            config.integrator)
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


def monotonicity_report(trajectory: list[FlowState],
                        lam: float) -> list[MonotonicityRow]:
    """Tabulate F_lam along a trajectory against the dissipation
    integral.  The interesting claim is |dF/dt| = D; the sign of dF/dt
    is reported as data, not asserted.  One oracle pass per snapshot
    serves both F_lam and D."""
    values, dissipations = [], []
    for state in trajectory:
        terms = StateTerms.at(state.g, state.f)
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
                       integrator: str = "rk4") -> RateCheck:
    """Probe dF_lam/dt at a state by stepping the coupled system once
    forward and once backward (a single reversed step of the ODE system
    in time is legitimate regardless of parabolicity) and differencing.
    """
    grid = state.g.grid
    terms = StateTerms.at(state.g, state.f)
    rates = []
    for signed_dt in (dt, -dt):
        gv, fv = _advance(terms, state.f, signed_dt, lam, integrator)
        rates.append(StateTerms.at(SymTensorField(grid, gv, is_metric=True),
                                   ScalarField(grid, fv)).F_lambda(lam))
    numeric = (rates[0] - rates[1]) / (2.0 * dt)
    diss = terms.dissipation(lam)
    ratio = numeric / diss if diss > 0 else math.nan
    return RateCheck(numeric_rate=numeric, dissipation=diss, ratio=ratio)
