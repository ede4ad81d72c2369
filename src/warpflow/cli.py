"""Command-line front end.

Subcommands
-----------
constants          solve the coupling constants for one (m, n)
verify-curvature   closed-form vs generic curvature on a resolution ladder
verify-identity    product-action identity residual on a resolution ladder
verify-variation   numeric vs closed first variation over random directions
flow               integrate the coupled or decoupled flow, tabulating
                   monotonicity data per snapshot

Experiments are described by INI config files (see README for samples).
Each command parses its whole config into one typed spec before anything
runs, and a key is accepted only where it takes effect: the parse looks a
key up only on the path where its value is used, and any section or key
it never looked up is rejected, so neither a typo nor an inert key can
silently change an experiment.  The conditional keys:

  [constants] branch          only without [constants] lambda
  [constants] root            only with a coupling: [constants] lambda,
                              or [identity] lambdas, or verify-variation
  [constants] lambda, branch  not with [identity] lambdas, and never in
                              verify-variation (it takes [variation] lambdas)
  [fields] g_amplitude        only when g is conformal-bump or random-spd
  [fields] g_mode, g_axis     only when g is conformal-bump (h_* alike)
  [fields] f_mode             only without f_modes (flow takes no f_modes)
  [fields] f_high_amplitude   only with f_high_modes
  [flow] constraint_tol       only in coupled mode

verify-variation runs at one resolution, so its m_points and n_points
take one level, and a flow's t_end must be a whole number of steps of
dt.  A value outside its domain, or a recipe field that comes out
non-finite, is invalid input.  Exit codes: 0 all checks passed, 1 a
tolerance or stability check failed, 2 invalid input.  Each distinct
warning a run raises is printed once on stderr as a ``warning:
<message>`` line, ahead of any ``error:`` or ``failure:`` line.

Output tables are CSV with '#'-prefixed comment lines echoing the
configuration and the tolerances in force; floats are written with
repr-exact precision so a rerun with the same config and seed produces a
byte-identical file.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import verify
from .errors import (ConfigError, ConstantsError, FlowDivergenceError,
                     GridMismatchError, MetricDegeneracyError)
from .flow import FlowConfig, FlowState, monotonicity_report, run_coupled, \
    run_decoupled
from .grids import GridSpec, ScalarField, SymTensorField, filter_array
from .recipes import high_mode_scalar, sine_scalar
from .verify import FieldSpec, StudySpec
from .warped import (WarpedConstants, c1_residual, c2_residual,
                     lambda_to_constants, solve_perelman_constants,
                     solve_theta)

__all__ = ["main"]

_ABS_FLOOR = 1e-11  # below this an error counts as "converged to roundoff"


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, ".17g")
    return str(value)


def _write_table(out: str | None, comments: list[str], columns: list[str],
                 rows: list[list]) -> None:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


class _Config:
    """An INI config read key by key.  Every (section, key) a command
    looks up is recorded, so that once the command has parsed its spec,
    ``reject_unread`` refuses whatever it never looked up."""

    def __init__(self, path: str):
        self._parser = configparser.ConfigParser(interpolation=None)
        if not self._parser.read(path):
            raise ConfigError(f"config file not found: {path}")
        self._looked_up: set[tuple[str, str]] = set()

    def get(self, section: str, key: str, default=None, convert=str,
            what: str = "a string"):
        """``[section] key`` through ``convert``, or ``default`` when
        absent; a value ``convert`` rejects is a ConfigError."""
        self._looked_up.add((section, key))
        if not self._parser.has_option(section, key):
            return default
        raw = self._parser.get(section, key)
        try:
            return convert(raw)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"{section}.{key} must be {what}, "
                              f"got {raw!r}") from exc

    def reject_unread(self, command: str) -> None:
        sections = {section for section, _ in self._looked_up}
        for section in self._parser.sections():
            if section not in sections:
                raise ConfigError(
                    f"unknown config section [{section}] for {command}")
            for key in self._parser[section]:
                if (section, key) not in self._looked_up:
                    raise ConfigError(
                        f"key {key!r} in section [{section}] is unknown "
                        f"or has no effect in this {command} config")

    def echo(self) -> list[str]:
        lines = []
        for section in self._parser.sections():
            pairs = " ".join(f"{k}={self._parser.get(section, k)}"
                             for k in sorted(self._parser[section]))
            lines.append(f"config [{section}] {pairs}")
        return lines


def _some(kind, raw: str) -> list:
    values = [kind(tok) for tok in raw.split()]
    if not values:
        raise ValueError("empty list")
    return values


def _one_of(*names: str):
    def convert(raw: str) -> str:
        if raw not in names:
            raise ValueError(raw)
        return raw
    return convert


def _float(cfg, section, key, default, what="a float", accept=None):
    def convert(raw: str) -> float:
        value = float(raw)
        if accept is not None and not accept(value):
            raise ValueError(raw)
        return value
    return cfg.get(section, key, default, convert, what)


def _finite(cfg, section, key, default):
    return _float(cfg, section, key, default, "a finite float", math.isfinite)


def _int(cfg, section, key, default):
    return cfg.get(section, key, default, int, "an int")


def _bool(cfg, section, key, default):
    states = configparser.ConfigParser.BOOLEAN_STATES
    return cfg.get(section, key, default, lambda raw: states[raw.lower()],
                   "a boolean")


def _ints(cfg, section, key, default):
    return cfg.get(section, key, default, lambda raw: _some(int, raw),
                   "one or more whitespace-separated ints")


def _floats(cfg, section, key, default):
    return cfg.get(section, key, default, lambda raw: _some(float, raw),
                   "one or more whitespace-separated floats")


def _dims(cfg) -> tuple[int, int]:
    m = _int(cfg, "constants", "m", None)
    n = _int(cfg, "constants", "n", None)
    if m is None or n is None:
        raise ConfigError("[constants] requires m and n")
    return m, n


def _lambda_root(m: int, n: int, lam: float, root: int) -> WarpedConstants:
    """Solution number ``root`` of the fixed-coupling family at ``lam``."""
    sols = lambda_to_constants(m, n, lam)
    if root not in range(len(sols)):
        raise ConfigError(f"constants.root {root} out of range "
                          f"(found {len(sols)} solutions)")
    return sols[root]


def _constants(cfg, m: int, n: int, lams: list[float] | None = None
               ) -> list[tuple[str, WarpedConstants]]:
    """(label, constants) of every run: one per coupling in ``lams``, the
    command's own list when it has one, else the [constants] lambda, else
    the [constants] branch.  root is read only with a coupling, branch
    only without one."""
    if lams is None:
        lam = cfg.get("constants", "lambda", None,
                      lambda raw: (raw, float(raw)), "a float")
        if lam is None:
            branch = cfg.get("constants", "branch", "plus",
                             _one_of("plus", "minus"), "plus or minus")
            return [(f"branch={branch}",
                     solve_perelman_constants(m, n, branch))]
    root = _int(cfg, "constants", "root", 0)
    if lams is None:
        raw, value = lam
        return [(f"lambda={raw} root={root}",
                 _lambda_root(m, n, value, root))]
    return [(f"lambda={_fmt(lam)}", _lambda_root(m, n, lam, root))
            for lam in lams]


def _field_spec(cfg, prefix: str, default_name: str,
                default_amplitude: float, dim: int) -> FieldSpec:
    """A metric recipe; only the parameters the recipe uses are read."""
    name = cfg.get("fields", prefix, default_name,
                   _one_of("flat", "conformal-bump", "random-spd"),
                   "flat, conformal-bump or random-spd")
    if name == "flat":
        return FieldSpec(name)
    key = f"{prefix}_amplitude"
    if name == "random-spd":  # Gershgorin keeps it a metric only below 1
        return FieldSpec(name, _float(cfg, "fields", key, default_amplitude,
                                      "a float in (0, 1)",
                                      lambda a: 0.0 < a < 1.0))
    amplitude = _finite(cfg, "fields", key, default_amplitude)
    mode = _int(cfg, "fields", f"{prefix}_mode", 1)
    axis = _int(cfg, "fields", f"{prefix}_axis", None)
    if axis is not None and axis not in range(dim):
        raise ConfigError(f"fields.{prefix}_axis must lie in 0..{dim - 1}, "
                          f"got {axis}")
    return FieldSpec(name, amplitude, mode, axis)


def _f_profile(cfg, multi_mode: bool) -> tuple[float, tuple[int, ...]]:
    """f's amplitude and sine modes: ``f_modes`` where the command takes
    several, else the single ``f_mode``."""
    amplitude = _finite(cfg, "fields", "f_amplitude", 0.2)
    modes = _ints(cfg, "fields", "f_modes", None) if multi_mode else None
    if modes is None:
        return amplitude, (_int(cfg, "fields", "f_mode", 1),)
    if any(k < 1 for k in modes):
        raise ConfigError(f"fields.f_modes must be positive ints: {modes}")
    return amplitude, tuple(modes)


def _grid(points: tuple[int, ...], period: float) -> GridSpec:
    """A grid from config values; its own validation becomes a ConfigError."""
    try:
        return GridSpec(points, (period,) * len(points))
    except ValueError as exc:
        raise ConfigError(f"[grid] {exc}") from exc


def _study_spec(cfg, m: int, n: int, g_default: str, seed: int | None,
                ladder: bool = True) -> StudySpec:
    """The study's ladder, every level's grids validated, and its recipes.
    Without ``ladder`` the study runs at one level and a second is an
    error, not a level silently dropped."""
    m_counts = _ints(cfg, "grid", "m_points", [16, 32] if ladder else [16])
    n_counts = _ints(cfg, "grid", "n_points", [8] * len(m_counts))
    if len(m_counts) != len(n_counts):
        raise ConfigError("grid.m_points and grid.n_points must list the "
                          "same number of levels")
    if not ladder and len(m_counts) > 1:
        raise ConfigError("verify-variation runs at one resolution: "
                          "grid.m_points and grid.n_points take one level")
    period_m = _float(cfg, "grid", "m_period", 2.0 * math.pi)
    period_n = _float(cfg, "grid", "n_period", 2.0 * math.pi)
    levels = tuple(((pm,) * m, (pn,) * n)
                   for pm, pn in zip(m_counts, n_counts))
    for points_m, points_n in levels:
        _grid(points_m, period_m)
        _grid(points_n, period_n)
    g_spec = _field_spec(cfg, "g", g_default, 0.2, m)
    h_spec = _field_spec(cfg, "h", "flat", 0.1, n)
    if seed is None and "random-spd" in (g_spec.name, h_spec.name):
        raise ConfigError("a random-spd recipe is in use: pass --seed")
    f_amplitude, f_modes = _f_profile(cfg, multi_mode=True)
    order = _int(cfg, "grid", "order", 2)
    if order not in (2, 4):
        raise ConfigError(f"grid.order must be 2 or 4, got {order}")
    return StudySpec(levels, period_m, period_n, g_spec, h_spec,
                     f_amplitude, f_modes, order, seed)


def _ladder_gates(cfg, max_final_key: str) -> tuple[float, float]:
    """A ladder's gates: the least order and the largest final value."""
    return (_float(cfg, "tolerances", "min_order", 1.8),
            _float(cfg, "tolerances", max_final_key, math.inf))


def _parse_curvature(cfg, seed):
    m, n = _dims(cfg)
    [(label, constants)] = _constants(cfg, m, n)
    return (label, constants,
            _study_spec(cfg, m, n, "conformal-bump", seed),
            *_ladder_gates(cfg, "max_final_error"))


def _parse_identity(cfg, seed):
    m, n = _dims(cfg)
    return (_constants(cfg, m, n, _floats(cfg, "identity", "lambdas", None)),
            _study_spec(cfg, m, n, "flat", seed),
            _bool(cfg, "identity", "normalize_n", False),
            *_ladder_gates(cfg, "max_final_residual"))


def _parse_variation(cfg, seed):
    if seed is None:
        raise ConfigError("verify-variation draws random directions: "
                          "pass --seed")
    m, n = _dims(cfg)
    directions = _int(cfg, "variation", "directions", 20)
    if directions < 1:
        raise ConfigError(f"variation.directions must be >= 1, "
                          f"got {directions}")
    return (_constants(cfg, m, n,
                       _floats(cfg, "variation", "lambdas", [0.0])),
            _study_spec(cfg, m, n, "flat", seed, ladder=False),
            directions,
            _float(cfg, "variation", "eps", 1e-4, "a finite float > 0",
                   lambda eps: 0.0 < eps < math.inf),
            _finite(cfg, "variation", "amplitude", 0.3),
            _float(cfg, "tolerances", "max_rel_mismatch", 1e-4))


def _parse_flow(cfg, seed):
    flow_cfg = FlowConfig(
        dt=_float(cfg, "flow", "dt", 1e-4),
        t_end=_float(cfg, "flow", "t_end", 1e-2),
        lam=_float(cfg, "flow", "lambda", 0.0),
        integrator=cfg.get("flow", "integrator", "euler"),
        filter_cutoff=_float(cfg, "flow", "filter_cutoff", 1.0),
        snapshot_stride=_int(cfg, "flow", "snapshot_stride", 1))
    mode = cfg.get("flow", "mode", "coupled", _one_of("coupled", "decoupled"),
                   "coupled or decoupled")
    constraint_tol = (_float(cfg, "flow", "constraint_tol", math.inf)
                      if mode == "coupled" else math.inf)
    grid = _grid(tuple(_ints(cfg, "grid", "points", [48])),
                 _float(cfg, "grid", "period", 2.0 * math.pi))
    rng = np.random.default_rng(seed) if seed is not None else None
    g = verify.build_metric(grid, _field_spec(cfg, "g", "flat", 0.1, grid.dim),
                            rng)
    f_amplitude, (f_mode,) = _f_profile(cfg, multi_mode=False)
    f = sine_scalar(grid, f_amplitude, f_mode)
    high = _ints(cfg, "fields", "f_high_modes", None)
    if high is not None:
        extra = high_mode_scalar(
            grid, _finite(cfg, "fields", "f_high_amplitude", 0.3), tuple(high))
        f = ScalarField(grid, f.values + extra.values)
    if flow_cfg.filter_cutoff < 1.0:
        # a filtered run lives in the resolved subspace; project the
        # initial data into it too, or the first step's truncation shows
        # up as a spurious O(1) transient in the conserved density
        f = ScalarField(grid, filter_array(f.values, grid,
                                           flow_cfg.filter_cutoff))
        g = SymTensorField(grid, filter_array(g.values, grid,
                                              flow_cfg.filter_cutoff),
                           is_metric=True)
    return flow_cfg, mode, FlowState.initial(g, f), constraint_tol


_PARSERS = {"verify-curvature": _parse_curvature,
            "verify-identity": _parse_identity,
            "verify-variation": _parse_variation,
            "flow": _parse_flow}


def _parse(command: str, path: str, seed: int | None):
    """The config at ``path`` and ``command``'s typed spec parsed from it.
    Every key is looked up only where its value takes effect, so any
    section or key the parse did not look up is a ConfigError."""
    cfg = _Config(path)
    spec = _PARSERS[command](cfg, seed)
    cfg.reject_unread(command)
    return cfg, spec


# ---------------------------------------------------------------- commands

def cmd_constants(args) -> int:
    m, n = args.m, args.n
    rows: list[list] = []
    if args.lam is not None:
        sols = lambda_to_constants(m, n, args.lam)
        for k, c in enumerate(sols):
            rows.append([f"lambda-root-{k}", c.A, c.B, c.theta, c.lam,
                         c1_residual(m, n, c.A, c.B),
                         c2_residual(m, n, c.A, c.B)])
    else:
        for theta in solve_theta(m, n):
            print(f"theta root: {_fmt(theta)}")
        for branch in ("plus", "minus"):
            c = solve_perelman_constants(m, n, branch)
            rows.append([branch, c.A, c.B, c.theta, c.lam,
                         c1_residual(m, n, c.A, c.B),
                         c2_residual(m, n, c.A, c.B)])
    comments = [f"constants m={m} n={n}",
                "residual tolerance 1e-12 (enforced at construction)"]
    _write_table(args.out, comments,
                 ["branch", "A", "B", "theta", "lambda",
                  "c1_residual", "c2_residual"],
                 rows)
    return 0


def cmd_verify_curvature(args) -> int:
    cfg, (label, constants, spec, min_order, max_final) = _parse(
        "verify-curvature", args.config, args.seed)

    rows = verify.curvature_study(constants, spec)

    n_levels = len(spec.levels)
    ok = True
    finest: dict[str, verify.ConvergenceRow] = {}
    for row in rows:
        if row.level == n_levels - 1:
            finest[row.family] = row
    for family, row in finest.items():
        if row.error <= _ABS_FLOOR:
            continue  # at the roundoff floor: converged, order meaningless
        if row.error > max_final or math.isnan(row.order) \
                or row.order < min_order:
            ok = False
            print(f"[FAIL] {family}: final error {_fmt(row.error)}, "
                  f"order {_fmt(row.order)} (need >= {_fmt(min_order)})")
        else:
            print(f"[PASS] {family}: final error {_fmt(row.error)}, "
                  f"order {_fmt(row.order)}")
    comments = [f"verify-curvature {label} m={constants.m} n={constants.n}",
                *cfg.echo(),
                f"seed {spec.seed}",
                f"tolerances: min_order={_fmt(min_order)} "
                f"max_final_error={_fmt(max_final)} "
                f"abs_floor={_fmt(_ABS_FLOOR)}"]
    _write_table(args.out, comments,
                 ["family", "level", "h", "error", "order"],
                 [[r.family, r.level, r.h, r.error, r.order] for r in rows])
    return 0 if ok else 1


def cmd_verify_identity(args) -> int:
    cfg, (runs, spec, normalize_n, min_order, max_final) = _parse(
        "verify-identity", args.config, args.seed)
    rows_by_run = verify.identity_study([c for _, c in runs], spec,
                                        normalize_n)

    all_rows: list[list] = []
    ok = True
    for (label, constants), rows in zip(runs, rows_by_run):
        final = rows[-1]
        converged = abs(final.residual) <= _ABS_FLOOR
        order_ok = not math.isnan(final.order) and final.order >= min_order
        bounded = abs(final.residual) <= max_final
        if (converged or order_ok) and bounded:
            print(f"[PASS] identity {label}: final residual "
                  f"{_fmt(final.residual)}, order {_fmt(final.order)}")
        else:
            ok = False
            print(f"[FAIL] identity {label}: final residual "
                  f"{_fmt(final.residual)}, order {_fmt(final.order)} "
                  f"(need >= {_fmt(min_order)} or |residual| <= "
                  f"{_fmt(min(max_final, _ABS_FLOOR))})")
        for r in rows:
            all_rows.append([label, r.level, r.h, r.lam, r.S_tilde, r.F_lam,
                             r.vol_N, r.total_scalar_N, r.warp_coupling,
                             r.residual, r.order])
    comments = [f"verify-identity m={constants.m} n={constants.n}",
                *cfg.echo(),
                f"seed {spec.seed}",
                f"tolerances: min_order={_fmt(min_order)} "
                f"max_final_residual={_fmt(max_final)} "
                f"abs_floor={_fmt(_ABS_FLOOR)}"]
    _write_table(args.out, comments,
                 ["run", "level", "h", "lambda", "S_tilde", "F_lambda",
                  "vol_N", "total_scalar_N", "warp_coupling", "residual",
                  "order"],
                 all_rows)
    return 0 if ok else 1


def cmd_verify_variation(args) -> int:
    cfg, (runs, spec, directions, eps, amplitude, max_rel) = _parse(
        "verify-variation", args.config, args.seed)
    rows_by_run = verify.variation_study([c for _, c in runs], spec,
                                         directions, amplitude, eps)

    all_rows: list[list] = []
    ok = True
    for (label, constants), rows in zip(runs, rows_by_run):
        worst = max(r.rel_mismatch for r in rows)
        if worst <= max_rel:
            print(f"[PASS] variation {label}: worst relative "
                  f"mismatch {_fmt(worst)} over {directions} directions")
        else:
            ok = False
            print(f"[FAIL] variation {label}: worst relative "
                  f"mismatch {_fmt(worst)} exceeds {_fmt(max_rel)}")
        for r in rows:
            all_rows.append([r.lam, r.direction, r.numeric, r.closed,
                             r.rel_mismatch, r.richardson_gap])
    comments = [f"verify-variation m={constants.m} n={constants.n}",
                *cfg.echo(),
                f"seed {spec.seed}",
                f"tolerances: max_rel_mismatch={_fmt(max_rel)} "
                f"eps={_fmt(eps)}"]
    _write_table(args.out, comments,
                 ["lambda", "direction", "numeric", "closed",
                  "rel_mismatch", "richardson_gap"],
                 all_rows)
    return 0 if ok else 1


def cmd_flow(args) -> int:
    cfg, (flow_cfg, mode, state0, constraint_tol) = _parse(
        "flow", args.config, args.seed)
    lam = flow_cfg.lam

    if mode == "coupled":
        trajectory = run_coupled(state0, flow_cfg)
    else:
        trajectory = run_decoupled(state0.g, state0.f, flow_cfg)

    table = monotonicity_report(trajectory, lam)
    rows = []
    for state, r in zip(trajectory, table):
        min_eig = float(np.linalg.eigvalsh(state.g.values)[..., 0].min())
        rows.append([r.t, r.f_lam, r.df_dt, r.dissipation, r.ratio, r.sign,
                     state.measure_drift(), min_eig])
    # flow.conserved_measure_check's drift: the rows' maximum deviation
    drift = max(row[6] for row in rows) if mode == "coupled" else math.nan

    ok = True
    if mode == "coupled" and drift > constraint_tol:
        ok = False
        print(f"[FAIL] constraint drift {_fmt(drift)} exceeds "
              f"{_fmt(constraint_tol)}")
    elif mode == "coupled":
        print(f"[PASS] coupled run complete, constraint drift {_fmt(drift)}")
    # The sign of dF/dt is data, but flipping mid-run would make the
    # monotonicity table incoherent; judge it only where the derivative
    # is resolved against the dissipation scale.
    signs = {r.sign for r in table
             if math.isfinite(r.ratio) and abs(r.ratio) > 0.5}
    if len(signs) > 1:
        ok = False
        print("[FAIL] dF/dt changed sign along the trajectory")
    elif signs:
        print(f"[PASS] dF/dt sign consistent ({signs.pop():+d}) at every "
              "resolved snapshot")
    if mode == "decoupled":
        values = [r.f_lam for r in table]
        scale = max(abs(v) for v in values) or 1.0
        nondecreasing = all(b - a >= -1e-10 * scale
                            for a, b in zip(values, values[1:]))
        if nondecreasing:
            print("[PASS] decoupled run complete, functional nondecreasing "
                  f"over {len(values)} snapshots")
        else:
            ok = False
            print("[FAIL] decoupled run: functional decreased between "
                  "snapshots")
    comments = [f"flow mode={mode} integrator={flow_cfg.integrator} "
                f"lambda={_fmt(lam)} dt={_fmt(flow_cfg.dt)} "
                f"t_end={_fmt(flow_cfg.t_end)} "
                f"filter_cutoff={_fmt(flow_cfg.filter_cutoff)}",
                *cfg.echo(),
                f"seed {args.seed}",
                f"constraint drift {_fmt(drift)} (tol {_fmt(constraint_tol)})",
                "columns: time, functional, centered dF/dt, dissipation, "
                "ratio (dF/dt)/D, sign of dF/dt, max relative drift of "
                "e^-f sqrt(det g) from t=0, min metric eigenvalue"]
    _write_table(args.out, comments,
                 ["t", "F_lambda", "dF_dt", "dissipation", "ratio", "sign",
                  "constraint_dev", "min_metric_eig"],
                 rows)
    return 0 if ok else 1


# ------------------------------------------------------------------ main

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="warpflow",
        description="numerical checks for warped-product curvature, the "
                    "product-action identity, its first variation, and the "
                    "associated geometric flows")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="solve coupling constants")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="solve the fixed-coupling family instead of the "
                        "distinguished branches")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_constants)

    for name, func in (("verify-curvature", cmd_verify_curvature),
                       ("verify-identity", cmd_verify_identity),
                       ("verify-variation", cmd_verify_variation),
                       ("flow", cmd_flow)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code, failure = args.func(args), []
        except (ConfigError, ConstantsError, GridMismatchError,
                configparser.Error) as exc:
            code, failure = 2, [f"error: {exc}"]
        except (FlowDivergenceError, MetricDegeneracyError) as exc:
            code, failure = 1, [f"failure: {exc}"]
    # each distinct warning once, as a CLI line, ahead of the failure
    for line in [*dict.fromkeys(f"warning: {w.message}" for w in caught),
                 *failure]:
        print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
