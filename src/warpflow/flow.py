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
spectral filter, small t_end.  The filter policy lives here alone: with
``filter_cutoff < 1`` the run projects its start into the resolved band
and filters every step, f and the metric's d(d+1)/2 distinct entries
stacked into one array and filtered in one transform.  The companion
guard rails (growth cap, positive-definiteness halt) treat divergence as
a detected outcome, not a crash.

Decoupled mode (``run_decoupled``) is the numerically sound formulation:
the metric runs forward under dg/dt = -2 Ric alone, and f is recovered
from u = e^{-f} solving the conjugate equation du/dt = -lap u + R u,
integrated backward from terminal data, i.e. forward in s = T - t where
it is an ordinary heat equation; it filters nothing and refuses a
cutoff.  The two formulations differ by a diffeomorphism, which the
action functionals cannot see, so their F(t) curves must agree; the
tests use exactly that.  Both runners take (g, f, config), build their
own start, and take their steps with one explicit Euler/RK4 routine, at
the stencil order of their grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import (ConfigError, FlowDivergenceError, MetricDegeneracyError,
                     StabilityWarning)
from .functionals import F_lambda, dissipation_integral, gradient_tensor
from .geometry import StateTerms, measure_density
from .grids import (ScalarField, SymTensorField, filter_array, pack_pairs,
                    pair_table)

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


class _Report(NamedTuple):
    """What ``monotonicity_report`` reads of one state at one lam."""

    lam: float
    f_lam: float
    dissipation: float
    drift: float


@dataclass(frozen=True, eq=False)
class FlowState:
    """One snapshot of the evolving pair, plus the conserved density
    rho0 = e^{-f} sqrt(det g) frozen at t = 0.  ``report`` is what
    ``monotonicity_report`` reads of the state at the run's lam, as
    floats, where the run built the state's ``StateTerms`` record: every
    snapshot of a coupled run but the last.  It is None otherwise: no
    caller sets it, and ``dataclasses.replace`` drops it, so a state
    never carries the report of other fields."""

    t: float
    g: SymTensorField
    f: ScalarField
    rho0: ScalarField
    report: _Report | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not (self.g.grid == self.f.grid == self.rho0.grid):
            raise ValueError("state fields live on different grids")
        if not self.g.is_metric:
            raise ValueError("state metric must be flagged is_metric")

    @classmethod
    def initial(cls, g: SymTensorField, f: ScalarField) -> "FlowState":
        """The state at t = 0.  g and f must share one grid, and that is
        checked before rho0 is measured, where a mismatch would fail
        inside numpy's broadcast instead."""
        if g.grid != f.grid:
            raise ValueError("state fields live on different grids")
        return cls(t=0.0, g=g, f=f,
                   rho0=measure_density(f, geometry.volume_density(g)))

    def measure_drift(self, weight: ScalarField | None = None) -> float:
        """Max relative node-wise deviation of the current e^{-f}
        sqrt(det g) from rho0.  ``weight`` is that density when the
        caller already holds it: the ``weight`` of this state's
        ``StateTerms`` record."""
        if weight is None:
            weight = measure_density(self.f, geometry.volume_density(self.g))
        dev = np.abs(weight.values - self.rho0.values)
        return float((dev / self.rho0.values).max())

    def reported(self, terms: StateTerms, lam: float) -> "FlowState":
        """This state carrying the floats of its report at lam, read off
        its record ``terms``: F_lam, D and the drift, which reads the
        weight F_lam made.  The record itself is not kept."""
        lam = float(lam)
        state = replace(self)
        object.__setattr__(state, "report", _Report(
            lam, F_lambda(terms, lam), dissipation_integral(terms, lam),
            self.measure_drift(terms.weight)))
        return state


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
        if not math.isfinite(self.t_end / self.dt):
            raise ConfigError(f"t_end = {self.t_end!r} takes more steps of "
                              f"dt = {self.dt!r} than a float can count")
        if abs(self.t_end - self.n_steps * self.dt) > 1e-9 * self.t_end:
            raise ConfigError(f"t_end = {self.t_end!r} is not a whole "
                              f"number of steps of dt = {self.dt!r}")
        if not math.isfinite(self.lam):
            raise ConfigError(f"lam must be finite, got {self.lam}")
        if self.integrator not in INTEGRATORS:
            raise ConfigError(f"integrator must be one of {INTEGRATORS}")
        if not 0.0 < self.filter_cutoff <= 1.0:
            raise ConfigError("filter_cutoff must lie in (0, 1]")
        if self.snapshot_stride < 1:
            raise ConfigError("snapshot_stride must be >= 1")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)

    def is_snapshot(self, k: int) -> bool:
        """Whether the state after step k (0 .. n_steps) is kept."""
        return k % self.snapshot_stride == 0 or k == self.n_steps


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


def _advance(terms: StateTerms, dt: float, lam: float,
             integrator: str) -> tuple[np.ndarray, np.ndarray]:
    """One raw coupled step from the state (terms.g, terms.f), whose
    record ``terms`` serves the first stage (dt may be negative for probe
    steps); returns unfiltered value arrays.  The slopes are
    dg = -2 S_lam as (..., d, d) matrices and df = (1/2) tr_g dg,
    computed from the same tensor so the constraint identity is exact by
    construction."""
    grid = terms.g.grid

    def rhs(at: StateTerms) -> tuple[np.ndarray, np.ndarray]:
        dg = -2.0 * gradient_tensor(at, lam)
        return dg, 0.5 * np.einsum("...ij,...ij->...", at.bundle.inverse, dg)

    def slope(c, y):
        return rhs(StateTerms.at(SymTensorField(grid, y[0], is_metric=True),
                                 ScalarField(grid, y[1])))

    return _explicit_step((terms.g.values, terms.f.values), rhs(terms),
                          slope, dt, integrator)


def _guard_growth(gv: np.ndarray, t: float, fv: np.ndarray | None = None):
    if not (np.isfinite(gv).all()
            and (fv is None or np.isfinite(fv).all())):
        raise FlowDivergenceError(
            f"non-finite values at t = {t:.6g}: the run has diverged",
            time=t, magnitude=math.inf)
    peak = 0.0 if fv is None else float(np.abs(fv).max())
    if peak > F_CAP:
        raise FlowDivergenceError(
            f"|f| reached {peak:.3e} at t = {t:.6g} (cap {F_CAP}): "
            "unbounded growth detected", time=t, magnitude=peak)


def _band_limited(gv: np.ndarray, fv: np.ndarray, grid,
                  cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Metric and f value arrays projected into the resolved band, in
    one ``filter_array`` call: f and the metric's d(d+1)/2 distinct
    entries (``pack_pairs``) are filtered as one stacked array, and the
    metric is unpacked through ``pair_table``, so it is symmetric to the
    bit.  Each field comes out bitwise equal to ``filter_array`` of it
    alone, on numpy's FFT, whose one-axis transforms run line by line;
    the tests pin that."""
    stacked = np.concatenate((fv[..., None], pack_pairs(gv)), axis=-1)
    out = filter_array(stacked, grid, cutoff)
    return (out[..., 1:].take(pair_table(grid.dim), axis=-1, mode="wrap"),
            np.ascontiguousarray(out[..., 0]))


def step(state: FlowState, config: FlowConfig, *,
         _terms: StateTerms | None = None) -> FlowState:
    """One time step of the coupled system, with optional low-pass
    filtering of f and the metric components afterwards.  Halts with a
    diagnostic if the metric leaves the positive cone or the run blows
    up; never repairs silently.

    ``_terms`` is not for callers: it is the record of (state.g,
    state.f) that ``run_coupled`` built for the state's report, handed
    on for the first stage, and a record of other fields is refused."""
    if _terms is None:
        terms = StateTerms.at(state.g, state.f)
    elif _terms.g is state.g and _terms.f is state.f:
        terms = _terms
    else:
        raise ValueError("the record is not of this state's fields")
    bound = _stability_bound(state.g, terms.bundle.inverse)
    if config.dt > bound:
        warnings.warn(
            "dt exceeds the explicit-step stability estimate for the "
            "parabolic part; expect drift or divergence",
            StabilityWarning, stacklevel=2)
    t_next = state.t + config.dt
    try:
        gv, fv = _advance(terms, config.dt, config.lam, config.integrator)
    except MetricDegeneracyError as exc:
        raise MetricDegeneracyError(
            f"metric degenerated during a step from t = {state.t:.6g}: {exc}",
            node=exc.node, eigenvalue=exc.eigenvalue, time=state.t) from exc
    _guard_growth(gv, t_next, fv)
    if config.filter_cutoff < 1.0:
        gv, fv = _band_limited(gv, fv, state.g.grid, config.filter_cutoff)
    try:
        g_new = SymTensorField(state.g.grid, gv, is_metric=True)
    except MetricDegeneracyError as exc:
        raise MetricDegeneracyError(
            f"metric lost positive definiteness at t = {t_next:.6g}: {exc}",
            node=exc.node, eigenvalue=exc.eigenvalue, time=t_next) from exc
    return FlowState(t=t_next, g=g_new, f=ScalarField(state.g.grid, fv),
                     rho0=state.rho0)


def run_coupled(g: SymTensorField, f: ScalarField,
                config: FlowConfig) -> list[FlowState]:
    """Integrate the coupled system from (g, f) for n_steps, returning
    snapshots every ``snapshot_stride`` steps plus the initial and final
    states.  A filtered run lives in the resolved band, so with
    ``filter_cutoff < 1`` it projects (g, f) into the band before rho0
    is frozen; otherwise the first step's truncation would show up as a
    spurious O(1) transient in the conserved density.

    The record of each state serves the first stage of the step from it
    and, at a snapshot, the floats of its report at config.lam
    (``FlowState.reported``), so ``monotonicity_report`` at that lam
    takes no oracle pass but the last snapshot's; no record outlives its
    step."""
    if g.grid != f.grid:
        raise ValueError("state fields live on different grids")
    cutoff = config.filter_cutoff
    if cutoff < 1.0:
        gv, fv = _band_limited(g.values, f.values, g.grid, cutoff)
        g = SymTensorField(g.grid, gv, is_metric=True)
        f = ScalarField(f.grid, fv)
    state = FlowState.initial(g, f)
    snapshots = []
    for k in range(config.n_steps):
        terms = StateTerms.at(state.g, state.f)
        if config.is_snapshot(k):
            snapshots.append(state.reported(terms, config.lam))
        state = step(state, config, _terms=terms)
        del terms      # not alive beside the next state's record
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


def run_decoupled(g: SymTensorField, f: ScalarField,
                  config: FlowConfig) -> list[FlowState]:
    """The diffeomorphism-fixed formulation: metric forward, u backward.

    Phase 1 integrates dg/dt = -2 Ric(g) from g at t = 0 over [0, T],
    storing the metric at every step (memory O(n_steps) metric fields;
    runs here are short).  Phase 2 sets u = e^{-f} at t = T, f being
    terminal data, and integrates the conjugate equation backward to
    t = 0 against the stored metrics — equivalently forward in s = T - t,
    where each step is an ordinary heat step.  Snapshots pair g(t) with
    f(t) = -log u(t); u is kept only at the snapshot steps.

    Restricted to lam = 0, since the decoupling diffeomorphism is only
    known for the plain system, and to unfiltered runs, since the
    spectral filter is a policy of the coupled integrator.
    """
    if config.lam != 0.0:
        raise ConfigError("decoupled mode is defined for lam = 0 only; "
                          "nonzero couplings run in coupled mode")
    if config.filter_cutoff < 1.0:
        raise ConfigError("decoupled mode filters nothing; filter_cutoff "
                          "< 1 runs in coupled mode")
    if f.grid != g.grid:
        raise ConfigError("terminal f and g live on different grids")
    grid = g.grid
    dt = config.dt
    n = config.n_steps
    passed: list = []          # the last metric passed, and its bundle

    def bundle_of(g: SymTensorField):
        """The oracle pass of g, or the last pass's bundle when g equals
        the metric it passed to the bit, as every stage, step and
        midpoint metric of a flow that stands still (a flat one) does."""
        if not (passed and np.array_equal(g.values.view(np.int64),
                                          passed[0].values.view(np.int64))):
            passed[:] = g, geometry.curvature_bundle(g)
        return passed[1]

    def ricci_slope(c, y):
        g = SymTensorField(grid, y[0], is_metric=True)
        return (-2.0 * bundle_of(g).ricci.values,)

    # One oracle pass per stored metric feeds both phases: its Ricci is
    # the first stage of the step from it, its scalar and inverse the
    # backward sweep.
    metrics = [g]
    terms = []
    for k in range(n):
        t = k * dt
        try:
            bundle = bundle_of(g)
            terms.append(_sweep_terms(g, bundle))
            (gv,) = _explicit_step((g.values,), (-2.0 * bundle.ricci.values,),
                                   ricci_slope, dt, config.integrator)
            _guard_growth(gv, t + dt)
            g = SymTensorField(grid, gv, is_metric=True)
        except MetricDegeneracyError as exc:
            raise MetricDegeneracyError(
                f"metric flow degenerated at t = {t + dt:.6g}: {exc}",
                node=exc.node, eigenvalue=exc.eigenvalue, time=t + dt) from exc
        metrics.append(g)
    terms.append(_sweep_terms(g, bundle_of(g)))

    u = np.exp(-f.values)
    kept = {n: u}
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
            path[0.5] = _sweep_terms(g_mid, bundle_of(g_mid))
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
        if config.is_snapshot(k - 1):
            kept[k - 1] = u

    base = FlowState.initial(metrics[0], ScalarField(grid, -np.log(kept[0])))
    return [base] + [
        FlowState(t=k * dt, g=metrics[k],
                  f=ScalarField(grid, -np.log(kept[k])), rho0=base.rho0)
        for k in sorted(kept)[1:]]


def conserved_measure_check(trajectory: list[FlowState]) -> float:
    """Max relative node-wise drift of e^{-f} sqrt(det g) from rho0
    across all snapshots."""
    return max([0.0] + [state.measure_drift() for state in trajectory])


@dataclass
class MonotonicityRow:
    """One snapshot's entry in the monotonicity table: the functional
    value, its centered-difference time derivative (NaN at endpoints),
    the dissipation integral, their ratio, the derivative's sign, and the
    snapshot's ``FlowState.measure_drift``."""

    t: float
    f_lam: float
    df_dt: float
    dissipation: float
    ratio: float
    sign: int
    drift: float


def monotonicity_report(trajectory: list[FlowState],
                        lam: float) -> list[MonotonicityRow]:
    """Tabulate F_lam along a trajectory against the dissipation
    integral.  The interesting claim is |dF/dt| = D; the sign of dF/dt
    is reported as data, not asserted.  A snapshot's F_lam, D and drift
    are the floats it carries (``FlowState.report``) when they were
    taken at this lam, to the bit; otherwise one oracle pass serves all
    three (``FlowState.reported``)."""
    reports = []
    for state in trajectory:
        report = state.report
        # the same float, sign of zero included
        if report is None or report.lam.hex() != float(lam).hex():
            report = state.reported(StateTerms.at(state.g, state.f),
                                    lam).report
        reports.append(report)
    values = [r.f_lam for r in reports]
    rows = []
    for i, state in enumerate(trajectory):
        if 0 < i < len(trajectory) - 1:
            dfdt = ((values[i + 1] - values[i - 1])
                    / (trajectory[i + 1].t - trajectory[i - 1].t))
        else:
            dfdt = math.nan
        diss = reports[i].dissipation
        ratio = dfdt / diss if diss > 0 and math.isfinite(dfdt) else math.nan
        sign = 0 if not math.isfinite(dfdt) else int(np.sign(dfdt))
        rows.append(MonotonicityRow(t=state.t, f_lam=values[i], df_dt=dfdt,
                                    dissipation=diss, ratio=ratio, sign=sign,
                                    drift=reports[i].drift))
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
        gv, fv = _advance(terms, signed_dt, lam, integrator)
        probe = StateTerms.at(SymTensorField(grid, gv, is_metric=True),
                              ScalarField(grid, fv))
        rates.append(F_lambda(probe, lam))
    numeric = (rates[0] - rates[1]) / (2.0 * dt)
    diss = dissipation_integral(terms, lam)
    ratio = numeric / diss if diss > 0 else math.nan
    return RateCheck(numeric_rate=numeric, dissipation=diss, ratio=ratio)
