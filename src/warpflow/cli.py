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
  [flow] filter_cutoff        only in coupled mode

verify-variation runs at one resolution, so its m_points and n_points
take one level; a ladder's m_points must increase level by level; a
flow's t_end must be a whole number of steps of dt; and a coupled
flow's filter_cutoff must keep wavenumber 1 on every axis, i.e.
filter_cutoff * (n // 2) >= 1 for an axis of n points (the flow refuses
it before the first step).  A value outside its domain (a NaN gate
bound, a non-finite coupling or a negative --seed included), a config
file that is not UTF-8, a recipe field that comes out non-finite, or an
--out that is not a file in an existing directory (checked before the
run) is invalid input.  A field the run computes that comes out
non-finite (a warp factor e^{-Af} or a product density out of float
range: ``NonFiniteFieldError``) is a failed run, as a degenerate metric
is, and so is a run that needs more memory than the machine gives it
(``MemoryError``); the mapping is by exception type.  Exit codes: 0 all
checks passed, 1 a tolerance or stability check failed, a computed
field left the float range or memory ran out, 2 invalid input.  Each
distinct warning a run raises is printed once on stderr as a
``warning: <message>`` line, ahead of any ``error:`` or ``failure:``
line.

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
                     GridMismatchError, MetricDegeneracyError,
                     NonFiniteFieldError)
from .flow import FlowConfig, monotonicity_report, run_coupled, run_decoupled
from .grids import GridSpec, ScalarField
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
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out}: {exc}") from exc


def _check_out(out: str | None) -> None:
    """Refuse an --out whose directory does not exist before anything
    runs, so a long study never ends in an unwritable path."""
    if out is not None and (Path(out).is_dir()
                            or not Path(out).parent.is_dir()):
        raise ConfigError(f"--out {out}: not a file in an existing "
                          "directory")


class _Config:
    """An INI config read key by key.  Every (section, key) a command
    looks up is recorded, so that once the command has parsed its spec,
    ``reject_unread`` refuses whatever it never looked up."""

    def __init__(self, path: str):
        self._parser = configparser.ConfigParser(interpolation=None)
        # opened here, since ``ConfigParser.read`` skips a path it cannot
        # open, a directory or a symlink loop as much as a missing file;
        # "utf-8-sig" drops a leading byte order mark, which the parser
        # would take for part of the first line
        try:
            with open(path, encoding="utf-8-sig") as config:
                self._parser.read_file(config, source=path)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except OSError as exc:
            raise ConfigError(f"config file {path} cannot be read: "
                              f"{exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid UTF-8: "
                              f"{exc.reason} at byte {exc.start}") from exc
        # the parser's own messages take several lines; one line each
        except configparser.MissingSectionHeaderError as exc:
            raise ConfigError(f"config file {path}, line {exc.lineno}: "
                              f"{exc.line!r} comes before any [section] "
                              f"header") from exc
        except configparser.ParsingError as exc:
            (lineno, line), *more = exc.errors    # line: a repr already
            others = f" (and {len(more)} more)" if more else ""
            raise ConfigError(f"config file {path}, line {lineno}: cannot "
                              f"parse {line}{others}") from exc
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


def _positive(cfg, section, key, default):
    return _float(cfg, section, key, default, "a finite float > 0",
                  lambda value: 0.0 < value < math.inf)


def _tolerance(cfg, section, key, default):
    """A gate's bound: any float but NaN, which would pass every check."""
    return _float(cfg, section, key, default, "a float, not nan",
                  lambda value: not math.isnan(value))


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


def _grid(points: tuple[int, ...], period: float, **fields) -> GridSpec:
    """A grid from config values, with any further ``GridSpec`` fields
    (the stencil order) passed through; its own validation becomes a
    ConfigError."""
    try:
        return GridSpec(points, (period,) * len(points), **fields)
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
    if any(fine <= coarse for coarse, fine in zip(m_counts, m_counts[1:])):
        # a measured order needs a finer h at every level
        raise ConfigError(f"grid.m_points must increase level by level, got "
                          f"{' '.join(map(str, m_counts))}")
    period_m = _float(cfg, "grid", "m_period", 2.0 * math.pi)
    period_n = _float(cfg, "grid", "n_period", 2.0 * math.pi)
    levels = tuple(((pm,) * m, (pn,) * n)
                   for pm, pn in zip(m_counts, n_counts))
    order = _int(cfg, "grid", "order", 2)
    for points_m, points_n in levels:
        _grid(points_m, period_m, order=order)
        _grid(points_n, period_n, order=order)
    g_spec = _field_spec(cfg, "g", g_default, 0.2, m)
    h_spec = _field_spec(cfg, "h", "flat", 0.1, n)
    if seed is None and "random-spd" in (g_spec.name, h_spec.name):
        raise ConfigError("a random-spd recipe is in use: pass --seed")
    f_amplitude, f_modes = _f_profile(cfg, multi_mode=True)
    return StudySpec(levels, period_m, period_n, g_spec, h_spec,
                     f_amplitude, f_modes, order, seed)


def _ladder_gates(cfg, max_final_key: str) -> tuple[float, float]:
    """A ladder's gates: the least order and the largest final value."""
    return (_tolerance(cfg, "tolerances", "min_order", 1.8),
            _tolerance(cfg, "tolerances", max_final_key, math.inf))


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
            _positive(cfg, "variation", "eps", 1e-4),
            # at 0 every direction is zero and every row passes vacuously
            _positive(cfg, "variation", "amplitude", 0.3),
            _tolerance(cfg, "tolerances", "max_rel_mismatch", 1e-4))


def _parse_flow(cfg, seed):
    mode = cfg.get("flow", "mode", "coupled", _one_of("coupled", "decoupled"),
                   "coupled or decoupled")
    coupled = mode == "coupled"
    flow_cfg = FlowConfig(
        dt=_float(cfg, "flow", "dt", 1e-4),
        t_end=_float(cfg, "flow", "t_end", 1e-2),
        lam=_float(cfg, "flow", "lambda", 0.0),
        integrator=cfg.get("flow", "integrator", "euler"),
        filter_cutoff=(_float(cfg, "flow", "filter_cutoff", 1.0)
                       if coupled else 1.0),
        snapshot_stride=_int(cfg, "flow", "snapshot_stride", 1))
    constraint_tol = (_tolerance(cfg, "flow", "constraint_tol", math.inf)
                      if coupled else math.inf)
    grid = _grid(tuple(_ints(cfg, "grid", "points", [48])),
                 _float(cfg, "grid", "period", 2.0 * math.pi))
    rng = np.random.default_rng(seed) if seed is not None else None
    g = verify.build_metric(grid, _field_spec(cfg, "g", "flat", 0.1, grid.dim),
                            rng)
    f_amplitude, (f_mode,) = _f_profile(cfg, multi_mode=False)
    f = sine_scalar(grid, f_amplitude, f_mode)
    high = _ints(cfg, "fields", "f_high_modes", None)
    if high is not None:
        amplitude = _finite(cfg, "fields", "f_high_amplitude", 0.3)
        # a sum of modes too tall for float64 is reported once, below
        with np.errstate(over="ignore"):
            try:
                extra = high_mode_scalar(grid, amplitude, tuple(high))
                f = ScalarField(grid, f.values + extra.values)
            except NonFiniteFieldError as exc:
                raise ConfigError(f"f: {exc}") from exc
    return flow_cfg, mode, g, f, constraint_tol


def _parse(command: str, path: str, seed: int | None):
    """The config at ``path`` and ``command``'s typed spec parsed from it.
    Every key is looked up only where its value takes effect, so any
    section or key the parse did not look up is a ConfigError, and so is
    a seed that numpy's generator refuses."""
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed must be a non-negative int, got {seed}")
    cfg = _Config(path)
    spec = _COMMANDS[command][0](cfg, seed)
    cfg.reject_unread(command)
    return cfg, spec


# ---------------------------------------------------------------- commands
#
# A config command's run takes the fields of its parsed spec, prints its
# verdict lines, and returns (passed, title, notes, columns, rows): the
# table's first comment line, after the command name, and the comment
# lines after the config echo and the seed.

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


def _run_curvature(label, constants, spec, min_order, max_final):
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
        missed = []
        if row.error > max_final:
            missed.append(f"final error <= {_fmt(max_final)}")
        if math.isnan(row.order) or row.order < min_order:
            missed.append(f"order >= {_fmt(min_order)}")
        if missed:
            ok = False
            print(f"[FAIL] {family}: final error {_fmt(row.error)}, "
                  f"order {_fmt(row.order)} (need {' and '.join(missed)})")
        else:
            print(f"[PASS] {family}: final error {_fmt(row.error)}, "
                  f"order {_fmt(row.order)}")
    return (ok, f"{label} m={constants.m} n={constants.n}",
            [f"tolerances: min_order={_fmt(min_order)} "
             f"max_final_error={_fmt(max_final)} "
             f"abs_floor={_fmt(_ABS_FLOOR)}"],
            ["family", "level", "h", "error", "order"],
            [[r.family, r.level, r.h, r.error, r.order] for r in rows])


def _run_identity(runs, spec, normalize_n, min_order, max_final):
    rows_by_run = verify.identity_study([c for _, c in runs], spec,
                                        normalize_n)

    all_rows: list[list] = []
    ok = True
    for (label, constants), rows in zip(runs, rows_by_run):
        final = rows[-1]
        missed = []
        if not (abs(final.residual) <= _ABS_FLOOR or final.order >= min_order):
            missed.append(f"order >= {_fmt(min_order)} or |residual| <= "
                          f"{_fmt(_ABS_FLOOR)}")
        if not abs(final.residual) <= max_final:
            missed.append(f"|residual| <= {_fmt(max_final)}")
        if missed:
            ok = False
            print(f"[FAIL] identity {label}: final residual "
                  f"{_fmt(final.residual)}, order {_fmt(final.order)} "
                  f"(need {'; '.join(missed)})")
        else:
            print(f"[PASS] identity {label}: final residual "
                  f"{_fmt(final.residual)}, order {_fmt(final.order)}")
        for r in rows:
            all_rows.append([label, r.level, r.h, r.lam, r.S_tilde, r.F_lam,
                             r.vol_N, r.total_scalar_N, r.warp_coupling,
                             r.residual, r.order])
    return (ok, f"m={constants.m} n={constants.n}",
            [f"tolerances: min_order={_fmt(min_order)} "
             f"max_final_residual={_fmt(max_final)} "
             f"abs_floor={_fmt(_ABS_FLOOR)}"],
            ["run", "level", "h", "lambda", "S_tilde", "F_lambda", "vol_N",
             "total_scalar_N", "warp_coupling", "residual", "order"],
            all_rows)


def _run_variation(runs, spec, directions, eps, amplitude, max_rel):
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
    return (ok, f"m={constants.m} n={constants.n}",
            [f"tolerances: max_rel_mismatch={_fmt(max_rel)} "
             f"eps={_fmt(eps)}"],
            ["lambda", "direction", "numeric", "closed", "rel_mismatch",
             "richardson_gap"],
            all_rows)


def _run_flow(flow_cfg, mode, g, f, constraint_tol):
    lam = flow_cfg.lam
    trajectory = (run_coupled if mode == "coupled" else run_decoupled)(
        g, f, flow_cfg)

    table = monotonicity_report(trajectory, lam)
    rows = []
    for state, r in zip(trajectory, table):
        min_eig = float(np.linalg.eigvalsh(state.g.values)[..., 0].min())
        rows.append([r.t, r.f_lam, r.df_dt, r.dissipation, r.ratio, r.sign,
                     r.drift, min_eig])
    # the run's constraint drift: the largest of the snapshots' drifts
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
    return (ok, f"mode={mode} integrator={flow_cfg.integrator} "
                f"lambda={_fmt(lam)} dt={_fmt(flow_cfg.dt)} "
                f"t_end={_fmt(flow_cfg.t_end)} "
                f"filter_cutoff={_fmt(flow_cfg.filter_cutoff)}",
            [f"constraint drift {_fmt(drift)} (tol {_fmt(constraint_tol)})",
             "columns: time, functional, centered dF/dt, dissipation, "
             "ratio (dF/dt)/D, sign of dF/dt, max relative drift of "
             "e^-f sqrt(det g) from t=0, min metric eigenvalue"],
            ["t", "F_lambda", "dF_dt", "dissipation", "ratio", "sign",
             "constraint_dev", "min_metric_eig"],
            rows)


_COMMANDS = {"verify-curvature": (_parse_curvature, _run_curvature),
             "verify-identity": (_parse_identity, _run_identity),
             "verify-variation": (_parse_variation, _run_variation),
             "flow": (_parse_flow, _run_flow)}


def cmd_config(args) -> int:
    """Any command of ``_COMMANDS``: parse its config, run it, and write
    its table; exit 0 if every check passed, else 1."""
    cfg, spec = _parse(args.command, args.config, args.seed)
    ok, title, notes, columns, rows = _COMMANDS[args.command][1](*spec)
    _write_table(args.out, [f"{args.command} {title}", *cfg.echo(),
                            f"seed {args.seed}", *notes], columns, rows)
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

    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(func=cmd_config)
    return parser


def _attach_lambda_value(argv: list[str]) -> list[str]:
    """``--lambda VALUE`` as ``--lambda=VALUE`` when VALUE starts with
    '-'.  argparse reads such a word as an option unless it is a plain
    negative number, so ``--lambda -1e-1`` and ``--lambda -inf`` would
    end in "expected one argument" instead of reaching the value
    checks."""
    words = list(argv)
    for k in reversed(range(1, len(words))):
        if words[k - 1] == "--lambda" and words[k].startswith("-"):
            words[k - 1:k + 1] = [f"--lambda={words[k]}"]
    return words


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_lambda_value(
            sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            _check_out(args.out)
            code, failure = args.func(args), []
        except (ConfigError, ConstantsError, GridMismatchError,
                configparser.Error) as exc:
            code, failure = 2, [f"error: {exc}"]
        except (FlowDivergenceError, MetricDegeneracyError,
                NonFiniteFieldError) as exc:
            code, failure = 1, [f"failure: {exc}"]
        except MemoryError as exc:
            # numpy's names the allocation it refused; a bare one is empty
            code, failure = 1, ["failure: out of memory"
                                + (f": {exc}" if str(exc) else "")]
    # each distinct warning once, as a CLI line, ahead of the failure
    for line in [*dict.fromkeys(f"warning: {w.message}" for w in caught),
                 *failure]:
        print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
