"""One workload process of the benchmark; ``run.py`` starts it.

    python3 worker.py ROOT DIR WORKLOAD SEED MODE SPAWNED

It imports warpflow from ROOT/src, writes the workload's configs into DIR
and then, by MODE:

* ``setup``   stops there (a set-up sample);
* ``run``     runs every operation through ``warpflow.cli.main``;
* ``trace``   the same with the tracer installed;
* ``profile`` the small variant with the tracer and cProfile both on,
              and compares their call counts.

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process; the clock is system-wide, so set-up time runs from there to the
first timed call.  A ``run`` samples the speed probe (``speed.py``)
throughout, leaves the probe's time out of ``wall_s`` and ``cpu_s`` and
reports its mean beside them; ``run.py`` scales the times by it.  The
last line of stdout is one JSON object.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _call_counts(tracer, profile) -> dict[str, tuple[int, int]]:
    """Traced calls against cProfile's ncalls, per wrapped function."""
    import pstats
    counts = pstats.Stats(profile).stats
    out = {}
    for name, fn in tracer.originals.items():
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        out[name] = (tracer.stats[name].calls, counts.get(key, (0, 0))[1])
    return out


def main(argv: list[str]) -> int:
    root, directory, workload, seed, mode, spawned = argv
    seed, spawned = int(seed), float(spawned)
    sys.path.insert(0, str(Path(root) / "src"))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    from warpflow import cli
    import workloads
    from speed import Probe

    directory = Path(directory)
    ops = workloads.ops(workload, small=mode == "profile")
    for op in ops:
        op.write_config(directory)
    result = {"setup_s": time.monotonic() - spawned}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = profile = None
    if mode in ("trace", "profile"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    if mode == "profile":
        import cProfile
        profile = cProfile.Profile()
        profile.enable()

    # Only a plain run samples the speed probe: inside a traced span its
    # time would count as that span's self time.
    probe = Probe()
    records = []
    cpu0, t0 = _cpu_s(), time.perf_counter()
    with probe if mode == "run" else contextlib.nullcontext():
        for op in ops:
            out = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out):
                rc = cli.main(op.argv(directory, seed))
            records.append({"op": op.name, "rc": rc,
                            "stdout": out.getvalue(),
                            "wall_s": time.perf_counter() - start})
    wall = time.perf_counter() - t0 - probe.wall_s
    cpu = _cpu_s() - cpu0 - probe.cpu_s
    if profile is not None:
        profile.disable()
    if mode == "run":
        if not probe.times:     # a repetition shorter than one period
            probe.sample()
        result["probe_s"] = probe.mean_s()

    result.update(
        wall_s=wall, cpu_s=cpu,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        ops=records)
    if mode == "trace":
        result["layers"] = tracer.metrics()
    if mode == "profile":
        result["calls"] = _call_counts(tracer, profile)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
