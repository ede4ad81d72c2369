"""Compare the CLI outputs of the working tree against a git revision.

    python tools/same_outputs.py --base REV [INI ...]

REV's ``src/`` is extracted with ``git archive`` into a temporary
directory, so the checkout is left as it is.  Each INI (default
``configs/*.ini``; the command is the file name's prefix, ``curvature-``
for ``verify-curvature`` and so on) and ``constants --m 3 --n 1`` run on
both trees, at seeds 1 and 2, once with ``OPENBLAS_NUM_THREADS=1`` and
once with it unset.  ``constants`` takes no seed and runs once per
thread setting.

One Markdown row per run: the two exit codes, whether stdout and stderr
match line for line, whether the CSVs are byte-identical and, where they
are not, the largest relative difference of a cell and its column.
Exits 1 when an exit code or a verdict line (a printed line up to its
first colon, e.g. ``[PASS] scalar_general`` or ``error``) differs, else 0.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = {"curvature": "verify-curvature", "identity": "verify-identity",
            "variation": "verify-variation", "flow": "flow"}
SEEDS = (1, 2)
THREADS = ("1", None)


def extract_src(rev: str, into: Path) -> Path:
    """REV's ``src/`` under ``into``, read with ``git archive``."""
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return into / "src"


def run(src: Path, argv: list[str], threads: str | None,
        out: Path) -> tuple[int, list[str], bytes | None]:
    """Exit code, stdout and stderr lines, and the CSV of one CLI run."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    out.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, "-m", "warpflow", *argv,
                           "--out", str(out)], env=env, cwd=out.parent,
                          capture_output=True, text=True)
    lines = proc.stdout.splitlines() + proc.stderr.splitlines()
    return proc.returncode, lines, out.read_bytes() if out.exists() else None


def verdicts(lines: list[str]) -> list[str]:
    return [line.split(":", 1)[0] for line in lines]


def rel_gap(a: str, b: str) -> float:
    """Relative difference of two CSV cells; inf when they differ and
    are not both numbers."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def largest_gap(base: bytes, change: bytes) -> tuple[float, str]:
    """Largest relative cell difference of two CSVs and its column."""
    def table(data):
        return [line.split(",") for line in data.decode().splitlines()
                if not line.startswith("#")]
    rows_b, rows_c = table(base), table(change)
    if len(rows_b) != len(rows_c) or not rows_b or rows_b[0] != rows_c[0]:
        return math.inf, "(table shape or header)"
    worst, column = 0.0, ""
    for row_b, row_c in zip(rows_b[1:], rows_c[1:]):
        if len(row_b) != len(row_c):
            return math.inf, "(row length)"
        for name, a, b in zip(rows_b[0], row_b, row_c):
            gap = rel_gap(a, b)
            if gap > worst:
                worst, column = gap, name
    return worst, column


def runs(inis: list[Path]):
    """(label, argv) of every run, in order."""
    for threads in THREADS:
        tag = "1 thread" if threads else "default threads"
        yield f"constants --m 3 --n 1, {tag}", \
            ["constants", "--m", "3", "--n", "1"], threads
        for ini in inis:
            command = COMMANDS[ini.stem.split("-")[0]]
            for seed in SEEDS:
                yield (f"{ini.parent.name}/{ini.name}, seed {seed}, {tag}",
                       [command, "--config", str(ini.resolve()),
                        "--seed", str(seed)], threads)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision")
    parser.add_argument("inis", nargs="*", type=Path)
    args = parser.parse_args(argv)
    inis = args.inis or sorted((ROOT / "configs").glob("*.ini"))
    print("| run | exit (base, change) | same lines | CSV | "
          "largest relative difference (column) |")
    print("| --- | --- | --- | --- | --- |")
    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        base_src = extract_src(args.base, Path(tmp) / "base")
        out = Path(tmp) / "out.csv"
        for label, cli_argv, threads in runs(inis):
            code_b, lines_b, csv_b = run(base_src, cli_argv, threads, out)
            code_c, lines_c, csv_c = run(ROOT / "src", cli_argv, threads, out)
            if code_b != code_c or verdicts(lines_b) != verdicts(lines_c):
                differs = True
            if csv_b is None or csv_c is None:
                csv, gap = ("none" if csv_b is None and csv_c is None
                            else "one side only"), ""
            elif csv_b == csv_c:
                csv, gap = "identical", "0"
            else:
                worst, column = largest_gap(csv_b, csv_c)
                csv, gap = "differs", f"{worst:.1e} ({column})"
            print(f"| {label} | {code_b}, {code_c} | "
                  f"{'yes' if lines_b == lines_c else 'no'} | {csv} | {gap} |",
                  flush=True)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
