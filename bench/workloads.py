"""The benchmark's workloads: the CLI configs it generates, the gates they
set, and the shrunken variants the tracer check runs.

An operation is one CLI command.  Every operation takes the benchmark
seed through ``--seed``; the seed drives the ``random-spd`` metric recipe
and the variation directions, and the configs themselves are fixed, so
the program sees only the generated INI files and the seed.

Gates come from the spread measured over seeds 1-24 on the full-size
workloads (see README.md, "Gates"), not from the repository's sample
configs: at 16/24 points per axis a ``random-spd`` metric measures orders
near 1.7, below the 1.8 the 16/32/64 ladders use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 1
NAMES = ("curvature-4d", "action-variation", "flow-small")

TWO_PI = "6.283185307179586"


@dataclass(frozen=True)
class Op:
    """One CLI command of a workload."""

    name: str                      # stem of its config and CSV files
    command: str                   # CLI subcommand
    config: dict[str, dict[str, str]]
    # Bounds the benchmark checks beyond the ones the config hands the CLI.
    extra: dict[str, float] = field(default_factory=dict)

    def write_config(self, directory: Path) -> None:
        lines = []
        for section, keys in self.config.items():
            lines.append(f"[{section}]")
            lines.extend(f"{k} = {v}" for k, v in keys.items())
            lines.append("")
        (directory / f"{self.name}.ini").write_text("\n".join(lines))

    def argv(self, directory: Path, seed: int) -> list[str]:
        return [self.command, "--config", str(directory / f"{self.name}.ini"),
                "--seed", str(seed), "--out", str(directory / f"{self.name}.csv")]


def _curvature(m: int, n: int, points: str) -> Op:
    return Op(
        name=f"curvature-{m}{n}", command="verify-curvature",
        config={
            "constants": {"m": str(m), "n": str(n), "branch": "plus"},
            "grid": {"m_points": points, "n_points": points, "order": "2"},
            "fields": {"g": "random-spd", "g_amplitude": "0.2",
                       "h": "conformal-bump", "h_amplitude": "0.1",
                       "h_mode": "1", "f_amplitude": "0.2", "f_mode": "1"},
            "tolerances": {"min_order": "1.3", "max_final_error": "0.05"},
        })


def _identity(m_points: str) -> Op:
    return Op(
        name="identity", command="verify-identity",
        config={
            "constants": {"m": "3", "n": "1", "root": "0"},
            "grid": {"m_points": m_points, "n_points": "8 8"},
            # A random-spd g leaves the two-level residual pre-asymptotic
            # (orders from -5.3 to 5.6 over seeds 1-24), so the identity
            # keeps the sample configs' conformal bump.
            "fields": {"g": "conformal-bump", "g_amplitude": "0.15",
                       "g_mode": "1", "f_amplitude": "0.25", "f_modes": "1 2"},
            "identity": {"lambdas": "-0.5 0.5 1.0", "normalize_n": "true"},
            "tolerances": {"min_order": "1.8", "max_final_residual": "0.5"},
        })


def _variation(m_points: str, directions: int) -> Op:
    return Op(
        name="variation", command="verify-variation",
        config={
            "constants": {"m": "2", "n": "1", "root": "0"},
            "grid": {"m_points": m_points, "n_points": "8", "order": "4"},
            "fields": {"g": "random-spd", "g_amplitude": "0.15",
                       "f_amplitude": "0.2", "f_mode": "1"},
            "variation": {"lambdas": "0.0 0.5",
                          "directions": str(directions),
                          "eps": "1e-4", "amplitude": "0.3"},
            # The CLI's per-direction relative mismatch blows up along a
            # direction with a near-zero derivative (2.8e-4 for seed 6 on
            # correct code, derivatives 1.3e-3 to 1.1), so its gate only
            # catches gross errors; checks.py bounds the mismatch and the
            # Richardson gap by the coupling's largest derivative instead.
            "tolerances": {"max_rel_mismatch": "1e-2"},
        },
        extra={"max_scaled_mismatch": 1e-4, "max_scaled_gap": 1e-7})


def _coupled(points: str, t_end: str) -> Op:
    return Op(
        name="flow-coupled", command="flow",
        config={
            "grid": {"points": points, "period": TWO_PI},
            "fields": {"g": "random-spd", "g_amplitude": "0.1",
                       "f_amplitude": "0.2", "f_mode": "1"},
            # cutoff 2/3: the classic dealiasing rule, so filter_array
            # runs after every step
            "flow": {"lambda": "0.5", "dt": "1e-4", "t_end": t_end,
                     "integrator": "rk4", "mode": "coupled",
                     "filter_cutoff": "0.6666666666666666",
                     "snapshot_stride": "10", "constraint_tol": "1e-8"},
        })


def _decoupled(points: str, t_end: str) -> Op:
    return Op(
        name="flow-decoupled", command="flow",
        config={
            "grid": {"points": points, "period": TWO_PI},
            "fields": {"g": "flat", "f_amplitude": "0.2", "f_mode": "1"},
            "flow": {"lambda": "0.0", "dt": "1e-4", "t_end": t_end,
                     "integrator": "rk4", "mode": "decoupled",
                     "snapshot_stride": "1"},
        })


def ops(workload: str, small: bool = False) -> list[Op]:
    """The operations of one workload, in run order.  ``small`` gives the
    shrunken variant the tracer check profiles: same commands and code
    paths, grids near the 8-point minimum and few steps."""
    if workload == "curvature-4d":
        points = "8 10" if small else "16 24"
        return [_curvature(3, 1, points), _curvature(2, 2, points)]
    if workload == "action-variation":
        if small:
            return [_identity("8 12"), _variation("16", 1)]
        return [_identity("16 32"), _variation("128", 5)]
    if workload == "flow-small":
        if small:
            return [_coupled("12 12", "2e-3"), _decoupled("16", "1e-3")]
        return [_coupled("32 32", "4e-2"), _decoupled("64", "6e-3")]
    raise ValueError(f"unknown workload {workload!r}; choose from {NAMES}")
