"""Compare two checkouts with the benchmark: the parent against a change.

    python3 bench/compare.py --base PARENT --change CHANGE [--out results.jsonl]
    python3 bench/compare.py --load results.jsonl

Both sides run this copy of ``run.py`` (identical benchmark code), each
from its own checkout root, for BENCHMARK.json's ``run_seconds``, on
every workload: a change must hold every workload, not just the one it
targets.  There are ``PAIRS`` pairs; pair i runs seed ``1 + i`` on both
sides; even pairs run the parent first, odd pairs the change first.
Every run is appended to ``--out`` as one JSON line, which ``--load``
reads back.

Only pairs whose two runs are both correct are compared.  Per workload
and end-to-end metric the verdict follows the gain rule: a gain needs the
change to win at least 9/10 of all pairs run (ties, and pairs with an
incorrect or missing run, count for neither), the medians to differ by
more than the parent's interquartile range, and the change to fail no
more operations than the parent.  A regression is a change median worse
than the parent's by more than the metric's bound in BENCHMARK.json.
Where the parent's own spread exceeds the bound the row is "unresolved",
unless every change run beats every parent run.  The exit code is 1 on
any regression and on any change run that is incorrect or missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SIDES = ("base", "change")
PAIRS = 10


def run_side(root: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "env": {}}
    env = next((json.loads(ln[len("env: "):]) for ln in lines
                if ln.startswith("env: ")), {})
    return {**json.loads(lines[-1]), "env": env}


def collect(args) -> list[dict]:
    roots = {"base": Path(args.base).resolve(),
             "change": Path(args.change).resolve()}
    records = []
    with open(args.out, "a") as out:
        for pair in range(PAIRS):
            seed = 1 + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in workloads.NAMES:
                for side in order:
                    result = run_side(roots[side], workload, seed)
                    rec = {"pair": pair, "side": side, "workload": workload,
                           "seed": seed, "result": result}
                    out.write(json.dumps(rec) + "\n")
                    out.flush()
                    records.append(rec)
                    print(f"pair {pair} {workload} {side}: "
                          f"correct={result['correct']}", file=sys.stderr)
    return records


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], wins: int, pairs: int,
            bound: float, lower_better: bool, more_failures: bool) -> str:
    sign = 1.0 if lower_better else -1.0
    q1, med_b, q3 = _quartiles(base)
    med_c = _quartiles(change)[1]
    worse = sign * (med_c - med_b)           # > 0: the change is worse
    if wins >= 0.9 * pairs and -worse > q3 - q1 and not more_failures:
        return "gain"
    if (q3 - q1) > bound * abs(med_b):
        if all(sign * (c - b) < 0 for c in change for b in base):
            return "better (every run)"
        return "unresolved"
    if worse > bound * abs(med_b):
        return "regression"
    return "unchanged"


def _spread(values: list[float]) -> str:
    q1, q2, q3 = _quartiles(values)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"


def report(records: list[dict]) -> int:
    bad = 0
    print(f"{'workload':<18} {'metric':<12} {'base median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'wins':<7} verdict")
    workload_names = sorted({r["workload"] for r in records})
    for workload in workload_names:
        runs = {(r["pair"], r["side"]): r["result"] for r in records
                if r["workload"] == workload}
        run_pairs = sorted({p for p, _ in runs})
        usable = [p for p in run_pairs
                  if all(runs.get((p, side), {}).get("correct")
                         for side in SIDES)]
        broken = [p for p in run_pairs
                  if not runs.get((p, "change"), {}).get("correct")]
        failed = {side: sum(r["failed"] for (_, s), r in runs.items()
                            if s == side) for side in SIDES}
        attempted = {side: sum(r["attempted"] for (_, s), r in runs.items()
                               if s == side) for side in SIDES}
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            vals = [(runs[p, "base"]["metrics"][name]["value"],
                     runs[p, "change"]["metrics"][name]["value"])
                    for p in usable]
            if not vals:
                print(f"{workload:<18} {name:<12} no pair with both runs "
                      "correct")
                continue
            lower = metric["better"] == "lower"
            wins = sum(1 for b, c in vals if (c < b if lower else c > b))
            base, change = [b for b, _ in vals], [c for _, c in vals]
            v = verdict(base, change, wins, len(run_pairs), metric["bound"],
                        lower, failed["change"] > failed["base"])
            bad += v == "regression"
            print(f"{workload:<18} {name:<12} {_spread(base):<32} "
                  f"{_spread(change):<32} {f'{wins}/{len(run_pairs)}':<7} {v}")
        for side in SIDES:
            print(f"{workload:<18} fail_frac {side}: "
                  f"{failed[side]}/{attempted[side]}")
        if broken:
            print(f"{workload:<18} change run incorrect or missing in "
                  f"pairs {broken}")
            bad += 1
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base")
    parser.add_argument("--change")
    parser.add_argument("--out", default="compare-results.jsonl")
    parser.add_argument("--load")
    args = parser.parse_args(argv)
    if args.load:
        records = [json.loads(ln) for ln in Path(args.load).read_text()
                   .splitlines() if ln.strip()]
    elif args.base and args.change:
        records = collect(args)
    else:
        parser.error("give --base and --change, or --load")
    return report(records)


if __name__ == "__main__":
    sys.exit(main())
