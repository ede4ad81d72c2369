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
Unknown sections or keys are rejected rather than ignored, so a typo
cannot silently change an experiment.  Exit codes: 0 all checks passed,
1 a tolerance or stability check failed, 2 invalid input.

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
from pathlib import Path

import numpy as np

from . import verify
from .errors import (ConfigError, ConstantsError, FlowDivergenceError,
                     GridMismatchError, MetricDegeneracyError)
from .flow import FlowConfig, FlowState, monotonicity_report, run_coupled, \
    run_decoupled
from .grids import GridSpec, ScalarField, SymTensorField, filter_array
from .recipes import high_mode_scalar, sine_scalar
from .verify import FieldSpec
from .warped import (WarpedConstants, c1_residual, c2_residual,
                     lambda_to_constants, solve_perelman_constants,
                     solve_theta)

__all__ = ["main"]

# Per-command config schema: section -> allowed keys.  A config may omit
# keys (defaults apply) but may not invent them.
_FIELD_KEYS = {"g", "g_amplitude", "g_mode", "g_axis",
               "h", "h_amplitude", "h_mode", "h_axis",
               "f_amplitude", "f_mode", "f_modes"}
_SCHEMAS: dict[str, dict[str, set[str]]] = {
    "verify-curvature": {
        "constants": {"m", "n", "branch", "lambda", "root"},
        "grid": {"m_points", "n_points", "m_period", "n_period", "order"},
        "fields": _FIELD_KEYS,
        "tolerances": {"min_order", "max_final_error"},
    },
    "verify-identity": {
        "constants": {"m", "n", "branch", "lambda", "root"},
        "grid": {"m_points", "n_points", "m_period", "n_period", "order"},
        "fields": _FIELD_KEYS,
        "identity": {"lambdas", "normalize_n"},
        "tolerances": {"min_order", "max_final_residual"},
    },
    "verify-variation": {
        "constants": {"m", "n", "branch", "lambda", "root"},
        "grid": {"m_points", "n_points", "m_period", "n_period", "order"},
        "fields": _FIELD_KEYS,
        "variation": {"lambdas", "directions", "eps", "amplitude"},
        "tolerances": {"max_rel_mismatch"},
    },
    "flow": {
        "grid": {"points", "period"},
        "fields": {"g", "g_amplitude", "g_mode", "g_axis",
                   "f_amplitude", "f_mode",
                   "f_high_modes", "f_high_amplitude"},
        "flow": {"lambda", "dt", "t_end", "integrator", "mode",
                 "filter_cutoff", "snapshot_stride", "constraint_tol"},
    },
}

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


def _load_config(path: str, command: str) -> configparser.ConfigParser:
    schema = _SCHEMAS[command]
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in schema:
            raise ConfigError(
                f"unknown config section [{section}] for {command}")
        for key in parser[section]:
            if key not in schema[section]:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}]")
    return parser


def _get(cfg, section, key, default=None):
    if cfg.has_option(section, key):
        return cfg.get(section, key)
    return default


def _parsed(cfg, section, key, default, convert, what):
    """``[section] key`` through ``convert``, or ``default`` when absent;
    a value ``convert`` rejects is a ConfigError."""
    raw = _get(cfg, section, key)
    if raw is None:
        return default
    try:
        return convert(raw)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"{section}.{key} must be {what}, got {raw!r}") \
            from exc


def _some(kind, raw: str) -> list:
    values = [kind(tok) for tok in raw.split()]
    if not values:
        raise ValueError("empty list")
    return values


def _float(cfg, section, key, default):
    return _parsed(cfg, section, key, default, float, "a float")


def _int(cfg, section, key, default):
    return _parsed(cfg, section, key, default, int, "an int")


def _bool(cfg, section, key, default):
    return _parsed(cfg, section, key, default,
                   lambda raw: cfg.BOOLEAN_STATES[raw.lower()], "a boolean")


def _ints(cfg, section, key, default):
    return _parsed(cfg, section, key, default, lambda raw: _some(int, raw),
                   "one or more whitespace-separated ints")


def _floats(cfg, section, key, default):
    return _parsed(cfg, section, key, default, lambda raw: _some(float, raw),
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


def _constants_from_config(cfg) -> tuple[WarpedConstants, str]:
    m, n = _dims(cfg)
    lam_raw = _get(cfg, "constants", "lambda")
    if lam_raw is not None:
        root = _int(cfg, "constants", "root", 0)
        lam = _float(cfg, "constants", "lambda", None)
        return _lambda_root(m, n, lam, root), f"lambda={lam_raw} root={root}"
    branch = _get(cfg, "constants", "branch", "plus")
    if branch not in ("plus", "minus"):
        raise ConfigError(f"constants.branch must be plus or minus, "
                          f"got {branch!r}")
    return solve_perelman_constants(m, n, branch), f"branch={branch}"


def _f_modes(cfg) -> tuple[int, ...] | None:
    modes = _ints(cfg, "fields", "f_modes", None)
    if modes is None:
        return None
    if any(k < 1 for k in modes):
        raise ConfigError(f"fields.f_modes must be positive ints: {modes}")
    return tuple(modes)


def _axis(cfg, key: str, dim: int) -> int | None:
    axis = _int(cfg, "fields", key, None)
    if axis is not None and axis not in range(dim):
        raise ConfigError(f"fields.{key} must lie in 0..{dim - 1}, "
                          f"got {axis}")
    return axis


def _field_spec(cfg, prefix: str, default_name: str,
                default_amplitude: float, dim: int) -> FieldSpec:
    name = _get(cfg, "fields", prefix, default_name)
    if name not in ("flat", "conformal-bump", "random-spd"):
        raise ConfigError(f"fields.{prefix} must be flat, conformal-bump "
                          f"or random-spd, got {name!r}")
    return FieldSpec(
        name=name,
        amplitude=_float(cfg, "fields", f"{prefix}_amplitude",
                         default_amplitude),
        mode=_int(cfg, "fields", f"{prefix}_mode", 1),
        axis=_axis(cfg, f"{prefix}_axis", dim),
    )


def _grid(points: tuple[int, ...], period: float) -> GridSpec:
    """A grid from config values; its own validation becomes a ConfigError."""
    try:
        return GridSpec(points, (period,) * len(points))
    except ValueError as exc:
        raise ConfigError(f"[grid] {exc}") from exc


def _order(cfg) -> int:
    order = _int(cfg, "grid", "order", 2)
    if order not in (2, 4):
        raise ConfigError(f"grid.order must be 2 or 4, got {order}")
    return order


def _study_inputs(cfg, m: int, n: int, g_default: str):
    """The ladder, every level's grids validated, and the keyword
    arguments the three studies share."""
    m_counts = _ints(cfg, "grid", "m_points", [16, 32])
    n_counts = _ints(cfg, "grid", "n_points", [8] * len(m_counts))
    if len(m_counts) != len(n_counts):
        raise ConfigError("grid.m_points and grid.n_points must list the "
                          "same number of levels")
    period_m = _float(cfg, "grid", "m_period", 2.0 * math.pi)
    period_n = _float(cfg, "grid", "n_period", 2.0 * math.pi)
    levels = tuple(((pm,) * m, (pn,) * n)
                   for pm, pn in zip(m_counts, n_counts))
    for points_m, points_n in levels:
        _grid(points_m, period_m)
        _grid(points_n, period_n)
    return levels, dict(
        period_m=period_m, period_n=period_n,
        g_spec=_field_spec(cfg, "g", g_default, 0.2, m),
        h_spec=_field_spec(cfg, "h", "flat", 0.1, n),
        f_amplitude=_float(cfg, "fields", "f_amplitude", 0.2),
        f_mode=_int(cfg, "fields", "f_mode", 1),
        f_modes=_f_modes(cfg), order=_order(cfg))


def _require_seed(args, *specs: FieldSpec) -> int | None:
    if args.seed is None and any(s.name == "random-spd" for s in specs):
        raise ConfigError("a random-spd recipe is in use: pass --seed")
    return args.seed


def _config_echo(cfg) -> list[str]:
    lines = []
    for section in cfg.sections():
        pairs = " ".join(f"{k}={cfg.get(section, k)}"
                         for k in sorted(cfg[section]))
        lines.append(f"config [{section}] {pairs}")
    return lines


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
    cfg = _load_config(args.config, "verify-curvature")
    constants, label = _constants_from_config(cfg)
    levels, shared = _study_inputs(cfg, constants.m, constants.n,
                                   "conformal-bump")
    seed = _require_seed(args, shared["g_spec"], shared["h_spec"])
    min_order = _float(cfg, "tolerances", "min_order", 1.8)
    max_final = _float(cfg, "tolerances", "max_final_error", math.inf)

    rows = verify.curvature_study(verify.CurvatureStudyConfig(
        constants=constants, levels=levels, seed=seed, **shared))

    n_levels = len(levels)
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
                *_config_echo(cfg),
                f"seed {seed}",
                f"tolerances: min_order={_fmt(min_order)} "
                f"max_final_error={_fmt(max_final)} "
                f"abs_floor={_fmt(_ABS_FLOOR)}"]
    _write_table(args.out, comments,
                 ["family", "level", "h", "error", "order"],
                 [[r.family, r.level, r.h, r.error, r.order] for r in rows])
    return 0 if ok else 1


def cmd_verify_identity(args) -> int:
    cfg = _load_config(args.config, "verify-identity")
    m, n = _dims(cfg)
    levels, shared = _study_inputs(cfg, m, n, "flat")
    seed = _require_seed(args, shared["g_spec"], shared["h_spec"])
    normalize_n = _bool(cfg, "identity", "normalize_n", False)
    min_order = _float(cfg, "tolerances", "min_order", 1.8)
    max_final = _float(cfg, "tolerances", "max_final_residual", math.inf)
    lams = _floats(cfg, "identity", "lambdas", None)

    runs: list[tuple[str, WarpedConstants]] = []
    if lams is not None:
        root = _int(cfg, "constants", "root", 0)
        for lam in lams:
            runs.append((f"lambda={_fmt(lam)}", _lambda_root(m, n, lam, root)))
    else:
        constants, label = _constants_from_config(cfg)
        runs.append((label, constants))

    all_rows: list[list] = []
    ok = True
    for label, constants in runs:
        rows = verify.identity_study(constants, levels,
                                     normalize_n=normalize_n, seed=seed,
                                     **shared)
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
    comments = [f"verify-identity m={m} n={n}",
                *_config_echo(cfg),
                f"seed {seed}",
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
    cfg = _load_config(args.config, "verify-variation")
    if args.seed is None:
        raise ConfigError("verify-variation draws random directions: "
                          "pass --seed")
    m, n = _dims(cfg)
    levels, shared = _study_inputs(cfg, m, n, "flat")
    lams = _floats(cfg, "variation", "lambdas", [0.0])
    directions = _int(cfg, "variation", "directions", 20)
    if directions < 1:
        raise ConfigError(f"variation.directions must be >= 1, "
                          f"got {directions}")
    eps = _float(cfg, "variation", "eps", 1e-4)
    amplitude = _float(cfg, "variation", "amplitude", 0.3)
    max_rel = _float(cfg, "tolerances", "max_rel_mismatch", 1e-4)
    root = _int(cfg, "constants", "root", 0)
    solved = [_lambda_root(m, n, lam, root) for lam in lams]

    all_rows: list[list] = []
    ok = True
    for lam, constants in zip(lams, solved):
        rows = verify.variation_study(
            constants, *levels[0], n_directions=directions, seed=args.seed,
            direction_amplitude=amplitude, eps=eps, **shared)
        worst = max(r.rel_mismatch for r in rows)
        if worst <= max_rel:
            print(f"[PASS] variation lambda={_fmt(lam)}: worst relative "
                  f"mismatch {_fmt(worst)} over {directions} directions")
        else:
            ok = False
            print(f"[FAIL] variation lambda={_fmt(lam)}: worst relative "
                  f"mismatch {_fmt(worst)} exceeds {_fmt(max_rel)}")
        for r in rows:
            all_rows.append([r.lam, r.direction, r.numeric, r.closed,
                             r.rel_mismatch, r.richardson_gap])
    comments = [f"verify-variation m={m} n={n}",
                *_config_echo(cfg),
                f"seed {args.seed}",
                f"tolerances: max_rel_mismatch={_fmt(max_rel)} "
                f"eps={_fmt(eps)}"]
    _write_table(args.out, comments,
                 ["lambda", "direction", "numeric", "closed",
                  "rel_mismatch", "richardson_gap"],
                 all_rows)
    return 0 if ok else 1


def _flow_initial(cfg, seed: int | None, filter_cutoff: float) -> FlowState:
    grid = _grid(tuple(_ints(cfg, "grid", "points", [48])),
                 _float(cfg, "grid", "period", 2.0 * math.pi))
    rng = np.random.default_rng(seed) if seed is not None else None
    g = verify.build_metric(grid, _field_spec(cfg, "g", "flat", 0.1, grid.dim),
                            rng)
    f = sine_scalar(grid, _float(cfg, "fields", "f_amplitude", 0.2),
                    _int(cfg, "fields", "f_mode", 1))
    high = _ints(cfg, "fields", "f_high_modes", None)
    if high is not None:
        extra = high_mode_scalar(
            grid, _float(cfg, "fields", "f_high_amplitude", 0.3), tuple(high))
        f = ScalarField(grid, f.values + extra.values)
    if filter_cutoff < 1.0:
        # a filtered run lives in the resolved subspace; project the
        # initial data into it too, or the first step's truncation shows
        # up as a spurious O(1) transient in the conserved density
        f = ScalarField(grid, filter_array(f.values, grid, filter_cutoff))
        g = SymTensorField(grid, filter_array(g.values, grid, filter_cutoff),
                           is_metric=True)
    return FlowState.initial(g, f)


def cmd_flow(args) -> int:
    cfg = _load_config(args.config, "flow")
    lam = _float(cfg, "flow", "lambda", 0.0)
    flow_cfg = FlowConfig(
        dt=_float(cfg, "flow", "dt", 1e-4),
        t_end=_float(cfg, "flow", "t_end", 1e-2),
        lam=lam,
        integrator=_get(cfg, "flow", "integrator", "euler"),
        mode=_get(cfg, "flow", "mode", "coupled"),
        filter_cutoff=_float(cfg, "flow", "filter_cutoff", 1.0),
        snapshot_stride=_int(cfg, "flow", "snapshot_stride", 1))
    constraint_tol = _float(cfg, "flow", "constraint_tol", math.inf)
    state0 = _flow_initial(cfg, args.seed, flow_cfg.filter_cutoff)

    if flow_cfg.mode == "coupled":
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
    drift = max(row[6] for row in rows) \
        if flow_cfg.mode == "coupled" else math.nan

    ok = True
    if flow_cfg.mode == "coupled" and drift > constraint_tol:
        ok = False
        print(f"[FAIL] constraint drift {_fmt(drift)} exceeds "
              f"{_fmt(constraint_tol)}")
    elif flow_cfg.mode == "coupled":
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
    if flow_cfg.mode == "decoupled":
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
    comments = [f"flow mode={flow_cfg.mode} integrator={flow_cfg.integrator} "
                f"lambda={_fmt(lam)} dt={_fmt(flow_cfg.dt)} "
                f"t_end={_fmt(flow_cfg.t_end)} "
                f"filter_cutoff={_fmt(flow_cfg.filter_cutoff)}",
                *_config_echo(cfg),
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
    try:
        return args.func(args)
    except (ConfigError, ConstantsError, GridMismatchError,
            configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FlowDivergenceError, MetricDegeneracyError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
