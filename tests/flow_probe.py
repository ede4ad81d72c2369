"""The symmetric one-step probe of dF_lam/dt at a coupled-flow state,
shared by the flow tests and acceptance criterion 5."""

import math
from dataclasses import dataclass

from warpflow.flow import FlowState, _advance
from warpflow.functionals import F_lambda, dissipation_integral
from warpflow.geometry import StateTerms
from warpflow.grids import ScalarField, SymTensorField


@dataclass
class RateCheck:
    """Instantaneous dF_lam/dt at one state against the dissipation
    integral."""

    numeric_rate: float
    dissipation: float
    ratio: float


def instantaneous_rate(state: FlowState, lam: float, dt: float,
                       integrator: str = "rk4") -> RateCheck:
    """Probe dF_lam/dt at a state by stepping the coupled system once
    forward and once backward (a single reversed step of the ODE system
    in time is legitimate regardless of parabolicity) and differencing.
    One oracle pass at the state serves the first stage of both steps
    and the dissipation."""
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
