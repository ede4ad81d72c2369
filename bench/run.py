"""The warpflow benchmark.  Run it from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload in turn
    python3 bench/run.py --check-tracer            # traced calls vs cProfile
    python3 bench/run.py --write-reference         # refresh reference/*.csv

Each repetition of a workload is its own process (``worker.py``), so
``ru_maxrss`` is that workload's peak.  With ``--trace 0`` a run repeats
the workload, each repetition after a set-up sample, while another
repetition still fits in ``--seconds``, takes the set-up samples still
missing from ``SETUP_PROBES``, and prints the medians of the end-to-end
metrics, wall and CPU times scaled to a reference host speed
(``speed.py``).  With ``--trace 1`` it alternates untraced and traced
repetitions instead and prints the per-layer metrics and the tracing
overhead.  Every operation's output is checked (``checks.py``).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from speed import at_reference  # noqa: E402
from tracer import layer_metric_units  # noqa: E402

# One BLAS/OpenMP thread per worker: the kernels are batched small-matrix
# operations BLAS does not split, and idle BLAS threads would compete
# with the measured process on a small machine.  Never above nproc.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
RUN_LIMIT_S = 170          # a run must end within 180 s, whatever happens
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
RUN_SECONDS = json.loads((BENCH.parent / "BENCHMARK.json").read_text())[
    "run_seconds"]


def environment(root: Path) -> dict:
    """What the numbers depend on besides the code."""
    import numpy
    sha = "unknown"
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {var: _threads() for var in THREAD_VARS}}


def _threads() -> int:
    return min(THREADS, len(os.sched_getaffinity(0)))


class Runner:
    """Starts the worker processes of one workload and checks what they
    produce."""

    def __init__(self, root: Path, workload: str, seed: int,
                 reference: bool = True):
        self.root, self.workload, self.seed = root, workload, seed
        self.ops = {op.name: op for op in workloads.ops(workload)}
        self.reference = reference and seed == workloads.DEFAULT_SEED
        self.dir = root / ".bench_run" / f"{workload}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = {**os.environ, **{v: str(_threads()) for v in THREAD_VARS}}
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def spawn(self, mode: str) -> dict | None:
        """One worker process; None if it crashed or ran out of time."""
        cmd = [sys.executable, str(BENCH / "worker.py"), str(self.root),
               str(self.dir), self.workload, str(self.seed), mode]
        try:
            proc = subprocess.run(
                cmd + [repr(time.monotonic())], env=self.env, text=True,
                stdout=subprocess.PIPE,
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self._crashed(mode, "ran out of time")
            return None
        if proc.returncode != 0 or not proc.stdout.strip():
            self._crashed(mode, f"exited {proc.returncode}")
            return None
        result = json.loads(proc.stdout.splitlines()[-1])
        if mode in ("run", "trace"):
            self._check(result)
        return result

    def _crashed(self, mode: str, why: str) -> None:
        if mode != "setup":
            self.attempted += len(self.ops)
            self.failed += len(self.ops)
        self.failures.append(f"{mode} worker {why}")

    def _check(self, result: dict) -> None:
        for rec in result["ops"]:
            op = self.ops[rec["op"]]
            csv_path = self.dir / f"{op.name}.csv"
            csv_text = csv_path.read_text() if csv_path.exists() else ""
            csv_path.unlink(missing_ok=True)
            problems = checks.check_op(op, rec["rc"], rec["stdout"], csv_text)
            if self.reference:
                ref = BENCH / "reference" / f"{op.name}.csv"
                problems += (checks.compare_reference(csv_text, ref.read_text())
                             if ref.exists() else [f"no reference {ref.name}"])
            rec["csv"] = csv_text
            self.attempted += 1
            self.failed += bool(problems)
            self.failures += [f"{op.name}: {p}" for p in problems]

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:
            pass


def _fits(start: float, rep_start: float, seconds: float) -> bool:
    """Whether another repetition as long as the last still fits."""
    now = time.monotonic()
    return now - start + (now - rep_start) <= seconds


def measure(runner: Runner, seconds: float) -> tuple[dict, dict, int]:
    """Untraced run: repetitions, each after a set-up probe, then the
    probes still missing from ``SETUP_PROBES``; medians, with wall and
    CPU times scaled to the reference speed (``speed.py``).  Spreading
    the set-up probes over the run lets them sample the same machine
    phases as the repetitions."""
    start = time.monotonic()
    probes, setups, reps = 0, [], []
    while True:
        rep_start = time.monotonic()
        probe = runner.spawn("setup")
        probes += 1
        result = runner.spawn("run")
        if probe:
            setups.append(probe["setup_s"])
        if result is None:
            break
        reps.append(result)
        setups.append(result["setup_s"])
        if not _fits(start, rep_start, seconds):
            break
    for _ in range(SETUP_PROBES - probes):
        probe = runner.spawn("setup")
        if probe:
            setups.append(probe["setup_s"])
    samples = {
        "setup_s": setups,
        "wall_s": [at_reference(r["wall_s"], r["probe_s"]) for r in reps],
        "cpu_s": [at_reference(r["cpu_s"], r["probe_s"]) for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps]}
    raw = {"wall_s": [r["wall_s"] for r in reps],
           "cpu_s": [r["cpu_s"] for r in reps],
           "speed_probe_ms": [1e3 * r["probe_s"] for r in reps]}
    return samples, raw, len(reps)


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, dict, int]:
    """Traced run: untraced and traced repetitions in turn; per-layer
    medians and the traced/untraced wall time ratio."""
    start = time.monotonic()
    plain, traced = [], []
    while True:
        rep_start = time.monotonic()
        pair = runner.spawn("run"), runner.spawn("trace")
        if None in pair:
            break
        plain.append(pair[0])
        traced.append(pair[1])
        if not _fits(start, rep_start, seconds):
            break
    samples = {name: [r["layers"][name] for r in traced]
               for name in layer_metric_units() if name != "trace_overhead"}
    if traced:
        samples["trace_overhead"] = [
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in plain)]
    return samples, {}, len(plain) + len(traced)


def _describe(values: list[float]) -> str:
    if len(values) == 1:
        return "1 sample"
    return f"median of {len(values)}: " + " ".join(f"{v:.4g}" for v in values)


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict | None:
    """One benchmark run; prints its report and returns the result object
    (None when no repetition completed)."""
    runner = Runner(root, workload, seed)
    try:
        if trace:
            samples, raw, reps = measure_traced(runner, seconds)
            units = layer_metric_units()
        else:
            samples, raw, reps = measure(runner, seconds)
            units = END_TO_END
    finally:
        runner.close()
    failed = runner.failed
    print(f"{workload}: seed {seed}, trace {int(trace)}, {reps} "
          f"repetitions of {len(runner.ops)} operations "
          f"({', '.join(runner.ops)})")
    for line in runner.failures:
        print(f"  FAILED {line}")
    if not reps or any(not v for v in samples.values()):
        return None
    metrics = {}
    for name, unit in units.items():
        values = samples[name]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        if values[0] or not trace:
            print(f"  {name:<46} {metrics[name]['value']:<14.6g} {unit:<6} "
                  f"{_describe(values)}")
    for name, values in raw.items():
        print(f"  (unscaled) {name:<35} {statistics.median(values):<14.6g} "
              f"{'':<6} {_describe(values)}")
    zero = sum(1 for m in metrics.values() if not m["value"])
    if zero:
        print(f"  ({zero} per-layer metrics are 0: functions this workload "
              "never calls)")
    attempted = max(runner.attempted, 1)
    print(f"  {'fail_frac':<46} {failed / attempted:<14.6g} {'ratio':<6} "
          f"{failed} of {attempted} operations failed")
    return {"correct": not runner.failures,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def check_tracer(root: Path, names: list[str]) -> int:
    """Traced calls against cProfile's ncalls on the small variant of each
    workload; every wrapped function must agree."""
    mismatches = 0
    for workload in names:
        runner = Runner(root, workload, workloads.DEFAULT_SEED)
        try:
            result = runner.spawn("profile")
        finally:
            runner.close()
        if result is None:
            print(f"{workload}: profile worker failed")
            return 1
        counts = result["calls"]
        called = sum(1 for traced, _ in counts.values() if traced)
        bad = {k: v for k, v in counts.items() if v[0] != v[1]}
        mismatches += len(bad)
        print(f"{workload}: {len(counts)} wrapped functions, {called} called, "
              f"{len(bad)} disagree with cProfile")
        for name, (traced, profiled) in sorted(bad.items()):
            print(f"  {name}: traced {traced}, cProfile {profiled}")
    return 1 if mismatches else 0


def write_reference(root: Path) -> int:
    """Run every workload once at the default seed and store its CSVs."""
    for workload in workloads.NAMES:
        runner = Runner(root, workload, workloads.DEFAULT_SEED,
                        reference=False)
        try:
            result = runner.spawn("run")
        finally:
            runner.close()
        if result is None or runner.failures:
            print(f"{workload}: not written: {runner.failures}")
            return 1
        for rec in result["ops"]:
            (BENCH / "reference" / f"{rec['op']}.csv").write_text(rec["csv"])
            print(f"wrote reference/{rec['op']}.csv")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-tracer", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "warpflow" / "cli.py").is_file():
        print(f"error: {root} is not a warpflow checkout (no "
              "src/warpflow/cli.py); run from the repository root",
              file=sys.stderr)
        return 2
    names = list(workloads.NAMES) if args.workload == "all" \
        else [args.workload]
    if args.check_tracer:
        return check_tracer(root, names)
    if args.write_reference:
        return write_reference(root)

    results = {}
    for workload in names:
        result = run_workload(root, workload, args.seed, args.seconds,
                              bool(args.trace))
        if result is None:
            print(f"error: no repetition of {workload} completed",
                  file=sys.stderr)
            return 1
        results[workload] = result
    print("env: " + json.dumps(environment(root)))
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
