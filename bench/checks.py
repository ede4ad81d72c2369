"""Correctness of one operation (one CLI command), judged from outside.

An operation passes when

* it exits 0;
* its ``[PASS]``/``[FAIL]`` lines are exactly the verdicts the benchmark
  recomputes from the CSV against the gate it wrote into the config, and
  every verdict is a pass;
* every CSV number is finite (NaN only where the CLI documents it: the
  order at the first level or at the roundoff floor, and the centered
  dF/dt at the trajectory ends) and within the stated bounds;
* for the default seed, the CSV agrees with the reference CSV in
  ``reference/`` to ``RTOL`` (see ``compare_reference``).
"""

from __future__ import annotations

import math
import re

from workloads import Op

ABS_FLOOR = 1e-11       # the CLI's "converged to roundoff" error floor
NAN_OK = {"order", "dF_dt", "ratio"}

# Reference agreement: |x - ref| <= RTOL * |ref| + atol(column).  Last-bit
# changes (a reordered einsum, another BLAS) move every number by far less
# than RTOL.  The columns in ROUNDOFF_COLUMNS are differences of nearly
# equal numbers whose reference values sit within a few thousand ulps of
# roundoff, so they get an absolute floor far below their gates instead.
RTOL = 1e-8
ATOL = 1e-12
ROUNDOFF_COLUMNS = {"rel_mismatch": 1e-8, "richardson_gap": 1e-8,
                    "constraint_dev": 1e-12}

_VERDICT = re.compile(r"^\[(PASS|FAIL)\] (.*)$")


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _records(header, rows) -> list[dict[str, str]]:
    return [dict(zip(header, row)) for row in rows]


def _subject(op: Op, text: str) -> str:
    """The gate a verdict line reports on."""
    if op.command == "flow":
        if "constraint drift" in text:
            return "constraint"
        if "dF/dt" in text:
            return "sign"
        return "monotone"
    if op.command == "verify-identity":
        text = text.removeprefix("identity ")
    elif op.command == "verify-variation":
        text = _lam(text.removeprefix("variation lambda=").split(":", 1)[0])
    return text.split(":", 1)[0]


def _lam(text: str) -> str:
    """A coupling as both the CSV and the verdict lines can spell it."""
    return f"{float(text):.12g}"


def _tolerance(op: Op, key: str, default: float) -> float:
    for section in ("tolerances", "flow"):
        if key in op.config.get(section, {}):
            return float(op.config[section][key])
    return default


def _expected_curvature(op: Op, recs) -> dict[str, bool]:
    min_order = _tolerance(op, "min_order", 1.8)
    max_final = _tolerance(op, "max_final_error", math.inf)
    finest = max(int(r["level"]) for r in recs)
    out = {}
    for r in recs:
        error, order = float(r["error"]), float(r["order"])
        if int(r["level"]) == finest and error > ABS_FLOOR:
            out[r["family"]] = (error <= max_final and not math.isnan(order)
                                and order >= min_order)
    return out


def _expected_identity(op: Op, recs) -> dict[str, bool]:
    min_order = _tolerance(op, "min_order", 1.8)
    max_final = _tolerance(op, "max_final_residual", math.inf)
    finest = max(int(r["level"]) for r in recs)
    out = {}
    for r in recs:
        if int(r["level"]) != finest:
            continue
        res, order = abs(float(r["residual"])), float(r["order"])
        order_ok = not math.isnan(order) and order >= min_order
        out[r["run"]] = (res <= ABS_FLOOR or order_ok) and res <= max_final
    return out


def _expected_variation(op: Op, recs) -> dict[str, bool]:
    max_rel = _tolerance(op, "max_rel_mismatch", 1e-4)
    out: dict[str, bool] = {}
    for r in recs:
        ok = float(r["rel_mismatch"]) <= max_rel
        lam = _lam(r["lambda"])
        out[lam] = out.get(lam, True) and ok
    return out


def _expected_flow(op: Op, recs) -> dict[str, bool]:
    out = {}
    if op.config["flow"]["mode"] == "coupled":
        drift = max(float(r["constraint_dev"]) for r in recs)
        out["constraint"] = drift <= _tolerance(op, "constraint_tol", math.inf)
    signs = {int(r["sign"]) for r in recs
             if math.isfinite(float(r["ratio"])) and abs(float(r["ratio"])) > 0.5}
    if signs:
        out["sign"] = len(signs) == 1
    if op.config["flow"]["mode"] == "decoupled":
        values = [float(r["F_lambda"]) for r in recs]
        scale = max(abs(v) for v in values) or 1.0
        out["monotone"] = all(b - a >= -1e-10 * scale
                              for a, b in zip(values, values[1:]))
    return out


_EXPECTED = {"verify-curvature": _expected_curvature,
             "verify-identity": _expected_identity,
             "verify-variation": _expected_variation,
             "flow": _expected_flow}


def _bounds(op: Op, recs) -> list[str]:
    """Bounds beyond the CLI's own gate."""
    problems = []
    if op.command == "verify-identity":
        if any(abs(float(r["vol_N"]) - 1.0) > 1e-12 for r in recs):
            problems.append("vol_N is not 1 although normalize_n is set")
    elif op.command == "verify-variation":
        # Scaled by the largest derivative over the coupling's directions:
        # a direction along which the action barely changes makes the
        # CLI's per-direction relative mismatch ill-conditioned.
        scale: dict[str, float] = {}
        for r in recs:
            lam = _lam(r["lambda"])
            scale[lam] = max(scale.get(lam, 0.0), abs(float(r["numeric"])),
                             abs(float(r["closed"])))
        for r in recs:
            size = scale[_lam(r["lambda"])]
            where = f"(lambda {r['lambda']}, direction {r['direction']})"
            miss = abs(float(r["numeric"]) - float(r["closed"]))
            if miss > op.extra["max_scaled_mismatch"] * size:
                problems.append(f"mismatch {miss:.3e} above "
                                f"{op.extra['max_scaled_mismatch']:g} of the "
                                f"largest derivative {size:.3e} {where}")
            if float(r["richardson_gap"]) > op.extra["max_scaled_gap"] * size:
                problems.append(f"Richardson gap {r['richardson_gap']} above "
                                f"{op.extra['max_scaled_gap']:g} of the "
                                f"largest derivative {size:.3e} {where}")
    elif op.command == "flow":
        if any(float(r["min_metric_eig"]) <= 0.0 for r in recs):
            problems.append("metric left the positive cone")
        if any(float(r["dissipation"]) < 0.0 for r in recs):
            problems.append("negative dissipation integral")
    return problems


def check_op(op: Op, returncode: int, stdout: str, csv_text: str) -> list[str]:
    """Problems found with one operation's result; empty when it passed."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}, expected 0")
    header, rows = parse_csv(csv_text)
    if not rows:
        return problems + ["no CSV rows"]
    non_finite = []
    for row in rows:
        for col, cell in zip(header, row):
            try:
                value = float(cell)
            except ValueError:
                continue
            if math.isinf(value) or (math.isnan(value) and col not in NAN_OK):
                non_finite.append(f"non-finite {col} = {cell}")
    if non_finite:
        return problems + non_finite
    recs = _records(header, rows)
    actual = {}
    for line in stdout.splitlines():
        match = _VERDICT.match(line)
        if match:
            actual[_subject(op, match.group(2))] = match.group(1) == "PASS"
    expected = _EXPECTED[op.command](op, recs)
    if actual != expected:
        problems.append(f"verdict lines {actual} differ from the gate "
                        f"recomputed from the CSV {expected}")
    failed = sorted(k for k, ok in expected.items() if not ok)
    if failed:
        problems.append(f"gate failed for {failed}")
    return problems + _bounds(op, recs)


def _close(x: float, ref: float, atol: float) -> bool:
    if math.isnan(x) or math.isnan(ref):
        return math.isnan(x) and math.isnan(ref)
    return abs(x - ref) <= RTOL * abs(ref) + atol


def compare_reference(csv_text: str, ref_text: str) -> list[str]:
    """Differences between a CSV table and the reference, comments aside."""
    header, rows = parse_csv(csv_text)
    ref_header, ref_rows = parse_csv(ref_text)
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"table shape {header} x {len(rows)} differs from the "
                f"reference {ref_header} x {len(ref_rows)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col, cell, ref_cell in zip(header, row, ref):
            try:
                x, r = float(cell), float(ref_cell)
            except ValueError:
                same = cell == ref_cell
            else:
                same = _close(x, r, ROUNDOFF_COLUMNS.get(col, ATOL))
            if not same:
                problems.append(f"row {i} {col}: {cell} vs reference {ref_cell}")
    if len(problems) > 3:
        problems[3:] = [f"and {len(problems) - 3} more cells differ"]
    return problems
