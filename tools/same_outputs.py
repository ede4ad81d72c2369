"""Compare the CLI outputs of the working tree against a git revision.

    python tools/same_outputs.py --base REV [--bench] [INI ...]

REV's ``src/`` is extracted with ``git archive`` into a temporary
directory, so the checkout is left as it is.  Each INI (default
``configs/*.ini``; the command is the file name's prefix, ``curvature-``
for ``verify-curvature`` and so on) and ``constants --m 3 --n 1`` run on
both trees, at seeds 1 and 2, once with ``OPENBLAS_NUM_THREADS=1`` and
once with it unset.  ``constants`` takes no seed and runs once per
thread setting.  ``--bench`` adds the six INIs of the benchmark's
full-size workloads, written by the working tree's ``bench/workloads.py``
into the temporary directory.

One Markdown row per run: the two exit codes, whether stdout and stderr
match line for line, whether the CSVs are byte-identical and, where they
are not, the largest relative difference of a cell and its column, and
each run's peak RSS (``os.wait4``'s rusage), so that a memory change
shows config by config.  The peak RSS is reported only.  A last line
sums the table up: the runs compared, the CSVs byte-identical, the CSVs
differing (a CSV that only one side wrote included) and the runs that
wrote no CSV on either side.  Exits 1 when an exit code or a verdict
line (a printed line up to its first colon, e.g. ``[PASS]
scalar_general`` or ``error``, with every decimal number in it masked,
so that ``[PASS] coupled run complete, constraint drift 5.36e-10``
compares as a verdict) differs, else 0.
A config under ``configs/`` that REV does not have (``git cat-file -e
REV:configs/NAME.ini`` fails) is one a change adds, often to show a
defect it fixes: its rows are marked "new at change" and still run on
both trees, but do not count toward the exit status.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import re
import runpy
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


def new_at_change(rev: str, ini: Path) -> bool:
    """Whether ``ini`` is a file of ``configs/`` that REV does not have."""
    if ini.resolve().parent != ROOT / "configs":
        return False
    return subprocess.run(["git", "cat-file", "-e",
                           f"{rev}:configs/{ini.name}"], cwd=ROOT,
                          capture_output=True).returncode != 0


def extract_src(rev: str, into: Path) -> Path:
    """REV's ``src/`` under ``into``, read with ``git archive``."""
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return into / "src"


def run(src: Path, argv: list[str], threads: str | None,
        out: Path) -> tuple[int, list[str], bytes | None, float]:
    """Exit code, stdout and stderr lines, the CSV and the peak RSS in MB
    of one CLI run.  The child is reaped with ``os.wait4``, whose rusage
    is that child's alone; its output goes to temporary files, so no pipe
    fills while nothing reads it."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    out.unlink(missing_ok=True)
    with tempfile.TemporaryFile() as stdout, \
            tempfile.TemporaryFile() as stderr:
        proc = subprocess.Popen([sys.executable, "-m", "warpflow", *argv,
                                 "--out", str(out)], env=env,
                                cwd=out.parent, stdout=stdout, stderr=stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        lines = []
        for stream in (stdout, stderr):
            stream.seek(0)
            lines += stream.read().decode().splitlines()
    return (proc.returncode, lines, out.read_bytes() if out.exists() else None,
            usage.ru_maxrss / 1024)


# a decimal number, such as a drift a verdict line reports
MEASURED = re.compile(r"[-+]?(\d+\.\d*|\.\d+|\d+(?=[eE]))([eE][-+]?\d+)?")


def verdicts(lines: list[str]) -> list[str]:
    return [MEASURED.sub("#", line.split(":", 1)[0]) for line in lines]


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


def bench_inis(into: Path) -> list[tuple[str, Path]]:
    """(label, path) of each INI ``bench/workloads.py`` writes for the
    full-size workloads, written under ``into``, in run order."""
    workloads = runpy.run_path(str(ROOT / "bench" / "workloads.py"))
    into.mkdir()
    labelled = []
    for name in workloads["NAMES"]:
        for op in workloads["ops"](name):
            op.write_config(into)
            labelled.append((f"bench/workloads.py {op.name}.ini",
                             into / f"{op.name}.ini"))
    return labelled


def runs(inis: list[tuple[str, Path]], new: set[Path]):
    """(label, argv, threads, whether the INI is in ``new``) of every run,
    in order."""
    for threads in THREADS:
        tag = "1 thread" if threads else "default threads"
        yield f"constants --m 3 --n 1, {tag}", \
            ["constants", "--m", "3", "--n", "1"], threads, False
        for name, ini in inis:
            command = COMMANDS[ini.stem.split("-")[0]]
            for seed in SEEDS:
                yield (f"{name}, seed {seed}, {tag}",
                       [command, "--config", str(ini.resolve()),
                        "--seed", str(seed)], threads, ini in new)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision")
    parser.add_argument("--bench", action="store_true",
                        help="also run the benchmark workloads' INIs")
    parser.add_argument("inis", nargs="*", type=Path)
    args = parser.parse_args(argv)
    inis = [(f"{ini.parent.name}/{ini.name}", ini) for ini in
            args.inis or sorted((ROOT / "configs").glob("*.ini"))]
    print("| run | exit (base, change) | same lines | CSV | "
          "largest relative difference (column) | peak RSS MB (base, change) |")
    print("| --- | --- | --- | --- | --- | --- |")
    new = {ini for _, ini in inis if new_at_change(args.base, ini)}
    differs = False
    tally = {"identical": 0, "differs": 0, "one side only": 0, "none": 0}
    with tempfile.TemporaryDirectory() as tmp:
        base_src = extract_src(args.base, Path(tmp) / "base")
        if args.bench:
            inis += bench_inis(Path(tmp) / "bench")
        out = Path(tmp) / "out.csv"
        for label, cli_argv, threads, is_new in runs(inis, new):
            code_b, lines_b, csv_b, rss_b = run(base_src, cli_argv, threads,
                                                out)
            code_c, lines_c, csv_c, rss_c = run(ROOT / "src", cli_argv,
                                                threads, out)
            if is_new:
                label += " (new at change)"
            elif code_b != code_c or verdicts(lines_b) != verdicts(lines_c):
                differs = True
            if csv_b is None or csv_c is None:
                csv, gap = ("none" if csv_b is None and csv_c is None
                            else "one side only"), ""
            elif csv_b == csv_c:
                csv, gap = "identical", "0"
            else:
                worst, column = largest_gap(csv_b, csv_c)
                csv, gap = "differs", f"{worst:.1e} ({column})"
            tally[csv] += 1
            print(f"| {label} | {code_b}, {code_c} | "
                  f"{'yes' if lines_b == lines_c else 'no'} | {csv} | {gap} | "
                  f"{rss_b:.1f}, {rss_c:.1f} |", flush=True)
    print(f"\n{sum(tally.values())} runs compared: {tally['identical']} "
          f"CSVs byte-identical, "
          f"{tally['differs'] + tally['one side only']} differing, "
          f"{tally['none']} runs without a CSV")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
