"""End-to-end command line behavior: config validation, exit codes,
reproducible CSV output, and the shipped sample configs."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from warpflow.cli import _parse, main
from warpflow.errors import StabilityWarning

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def read_table(path):
    """Split a written CSV into (comment lines, header, data rows)."""
    lines = Path(path).read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    header = body[0].split(",")
    rows = [l.split(",") for l in body[1:]]
    return comments, header, rows


# ---------------------------------------------------------------- constants

def test_constants_branches(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert main(["constants", "--m", "3", "--n", "1",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "theta root" in printed
    _, header, rows = read_table(out)
    assert header[:3] == ["branch", "A", "B"]
    by_branch = {r[0]: r for r in rows}
    assert set(by_branch) == {"plus", "minus"}
    a_plus = float(by_branch["plus"][1])
    assert a_plus == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-12)
    for r in rows:
        assert abs(float(r[5])) <= 1e-12  # first constraint residual
        assert abs(float(r[6])) <= 1e-12  # second constraint residual


def test_constants_lambda_family(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["constants", "--m", "2", "--n", "4",
                 "--lambda", "3.75", "--out", str(out)]) == 0
    _, _, rows = read_table(out)
    assert len(rows) == 1
    assert rows[0][0] == "lambda-root-0"
    assert float(rows[0][1]) == pytest.approx(4.0, abs=1e-12)
    assert float(rows[0][2]) == pytest.approx(0.5, abs=1e-12)


def test_constants_invalid_dimensions_exit_2():
    assert main(["constants", "--m", "0", "--n", "1"]) == 2


def test_argparse_failures_exit_2():
    assert main(["no-such-command"]) == 2
    assert main(["constants", "--m", "3"]) == 2


# ------------------------------------------------------------ config gating

def test_unknown_section_rejected(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[mesh]\npoints = 16\n")
    assert main(["verify-curvature", "--config", str(cfg)]) == 2


def test_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[constants]\nm = 2\nn = 1\n"
                   "[grid]\nm_pointz = 12 24\n")
    assert main(["verify-curvature", "--config", str(cfg)]) == 2


def test_missing_dimensions_rejected(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[constants]\nn = 1\n")
    assert main(["verify-identity", "--config", str(cfg)]) == 2


def test_missing_config_file_exit_2(tmp_path):
    assert main(["verify-identity",
                 "--config", str(tmp_path / "absent.ini")]) == 2


def test_variation_requires_seed():
    assert main(["verify-variation",
                 "--config", str(CONFIGS / "variation.ini")]) == 2


def test_random_spd_requires_seed(tmp_path):
    cfg = tmp_path / "rnd.ini"
    cfg.write_text("[constants]\nm = 2\nn = 1\n"
                   "[fields]\ng = random-spd\n")
    assert main(["verify-curvature", "--config", str(cfg)]) == 2


_DIMS = "[constants]\nm = 2\nn = 1\n"
MALFORMED = [
    ("verify-curvature", _DIMS + "lambda = abc\n"),
    ("verify-curvature", _DIMS + "[fields]\ng_axis = x\n"),
    ("verify-curvature", _DIMS + "[fields]\ng_axis = 2\n"),
    ("verify-curvature", _DIMS + "[grid]\nm_points = 4 8\n"),
    ("verify-curvature", _DIMS + "[grid]\nm_period = -1\n"),
    ("verify-curvature", _DIMS + "[grid]\nm_points =\n"),
    ("verify-curvature", _DIMS + "[grid]\norder = 3\n"),
    ("verify-identity", _DIMS + "[identity]\nnormalize_n = maybe\n"),
    ("verify-identity", _DIMS + "root = 5\n[identity]\nlambdas = 0.5\n"),
    ("verify-identity", _DIMS + "root = -1\n[identity]\nlambdas = 0.5\n"),
    ("verify-variation", _DIMS + "root = 5\n"),
    ("verify-variation", _DIMS + "root = -1\n"),
    ("verify-variation", _DIMS + "[variation]\ndirections = 0\n"),
    ("verify-variation", _DIMS + "[variation]\nlambdas =\n"),
    ("flow", "[grid]\npoints = 4\n"),
    ("flow", "[fields]\ng = conformal-bump\ng_axis = 1\n"),
    ("flow", "[flow]\ndt = 1e-3\nt_end = 1.05e-2\n"),
    ("flow", "[flow]\nt_end = nan\n"),
    # keys that exist but would have no effect where they stand
    ("verify-curvature", _DIMS + "lambda = 0.5\nbranch = minus\n"),
    ("verify-curvature", _DIMS + "root = 0\n"),
    ("verify-curvature", _DIMS + "[fields]\nf_mode = 1\nf_modes = 1 2\n"),
    ("verify-curvature", _DIMS + "[fields]\ng = random-spd\ng_mode = 2\n"),
    ("verify-identity", _DIMS + "branch = minus\n"
                        "[identity]\nlambdas = 0.5\n"),
    ("verify-identity", _DIMS + "lambda = 0.9\n"
                        "[identity]\nlambdas = 0.5\n"),
    ("verify-variation", _DIMS + "lambda = 0.9\n"),
    ("verify-variation", _DIMS + "branch = minus\n"),
    ("verify-variation", _DIMS + "[grid]\nm_points = 16 32\n"),
    ("flow", "[fields]\nf_high_amplitude = 0.4\n"),
    ("flow", "[flow]\nmode = decoupled\nconstraint_tol = 1e-10\n"),
    # values outside their domain, caught before anything runs
    ("flow", "[flow]\nmode = mixed\n"),
    ("verify-variation", _DIMS + "[variation]\neps = 0\n"),
    ("verify-variation", _DIMS + "[variation]\neps = inf\n"),
    ("verify-variation", _DIMS + "[variation]\neps = nan\n"),
    ("verify-variation", _DIMS + "[variation]\namplitude = nan\n"),
    ("verify-variation", _DIMS + "[variation]\namplitude = inf\n"),
    ("verify-curvature", _DIMS + "[fields]\ng = random-spd\n"
                         "g_amplitude = 1.5\n"),
    ("verify-variation", _DIMS + "[fields]\ng = random-spd\n"
                         "g_amplitude = 0\n"),
    ("verify-identity", _DIMS + "[fields]\nf_amplitude = nan\n"),
    ("flow", "[fields]\nf_amplitude = inf\n"),
    # a recipe field that comes out non-finite
    ("verify-curvature", _DIMS + "[fields]\ng = conformal-bump\n"
                         "g_amplitude = nan\n"),
    ("verify-identity", _DIMS + "[fields]\ng = conformal-bump\n"
                        "g_amplitude = 1e3\n"),
    ("flow", "[fields]\ng = conformal-bump\ng_amplitude = 1e3\n"),
]


@pytest.mark.parametrize("command,text", MALFORMED)
def test_malformed_config_exits_2_without_traceback(tmp_path, capfd,
                                                     command, text):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    rc = main([command, "--config", str(cfg), "--seed", "1",
               "--out", str(tmp_path / "out.csv")])
    err = capfd.readouterr().err
    assert rc == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


# ------------------------------------------------------- shipped configs

COMMANDS = {"curvature": "verify-curvature", "identity": "verify-identity",
            "variation": "verify-variation", "flow": "flow"}


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.ini")),
                         ids=lambda path: path.name)
def test_shipped_config_parses(path):
    # the parse alone, no study or flow: every key a shipped config sets
    # takes effect in its command
    _parse(COMMANDS[path.stem.split("-")[0]], str(path), seed=1)


def test_curvature_quick_config(tmp_path, capsys):
    out = tmp_path / "curv.csv"
    rc = main(["verify-curvature",
               "--config", str(CONFIGS / "curvature-quick.ini"),
               "--out", str(out)])
    printed = capsys.readouterr().out
    assert rc == 0
    assert "[FAIL]" not in printed and "[PASS]" in printed
    comments, header, rows = read_table(out)
    assert header == ["family", "level", "h", "error", "order"]
    assert any("config [grid]" in c for c in comments)
    assert len(rows) == 2 * 12  # two levels, twelve families on the locus


def test_identity_flat_config(tmp_path, capsys):
    rc = main(["verify-identity",
               "--config", str(CONFIGS / "identity-flat.ini"),
               "--out", str(tmp_path / "id.csv")])
    assert rc == 0
    assert "[FAIL]" not in capsys.readouterr().out


@pytest.mark.parametrize("seed", ["7", "1"])
def test_variation_config_with_seed(tmp_path, capsys, seed):
    rc = main(["verify-variation",
               "--config", str(CONFIGS / "variation.ini"),
               "--seed", seed, "--out", str(tmp_path / "var.csv")])
    printed = capsys.readouterr().out
    assert rc == 0
    assert printed.count("[PASS]") == 2  # one gate per coupling


def test_flow_coupled_config(tmp_path, capsys):
    out = tmp_path / "flow.csv"
    rc = main(["flow", "--config", str(CONFIGS / "flow-coupled.ini"),
               "--out", str(out)])
    printed = capsys.readouterr().out
    assert rc == 0
    assert "constraint drift" in printed
    assert "sign consistent" in printed
    _, header, rows = read_table(out)
    assert header == ["t", "F_lambda", "dF_dt", "dissipation", "ratio",
                      "sign", "constraint_dev", "min_metric_eig"]
    assert len(rows) == 21
    first, last = rows[0], rows[-1]
    assert float(first[0]) == 0.0
    assert first[2] == "nan" and first[5] == "0"  # endpoint derivative
    assert float(first[6]) == 0.0                 # no drift at t = 0
    assert float(last[6]) < 1e-10
    assert 0.9 < float(last[7]) <= 1.001          # metric stayed near flat
    interior_ratio = float(rows[10][4])
    assert abs(interior_ratio - 1.0) < 1e-2


def test_flow_decoupled_config(tmp_path, capsys):
    rc = main(["flow", "--config", str(CONFIGS / "flow-decoupled.ini"),
               "--out", str(tmp_path / "dec.csv")])
    printed = capsys.readouterr().out
    assert rc == 0
    assert "functional nondecreasing over 61 snapshots" in printed


def test_flow_unstable_config_detects_divergence(tmp_path, capfd):
    # the stability warning comes out as CLI lines, once, ahead of the
    # failure: no source path, no source line
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        rc = main(["flow", "--config", str(CONFIGS / "flow-unstable.ini"),
                   "--out", str(tmp_path / "boom.csv")])
    assert rc == 1
    lines = capfd.readouterr().err.splitlines()
    assert [l for l in lines if l.startswith("warning: dt exceeds")] \
        == [lines[0]]
    assert lines[-1].startswith("failure:")
    assert not any(".py:" in l for l in lines)


def test_flow_filtered_config_completes(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        rc = main(["flow", "--config", str(CONFIGS / "flow-filtered.ini"),
                   "--out", str(tmp_path / "ok.csv")])
    assert rc == 0
    _, _, rows = read_table(tmp_path / "ok.csv")
    assert float(rows[-1][0]) == pytest.approx(0.395, abs=1e-12)


def test_constraint_gate_exit_1(tmp_path, capsys):
    cfg = tmp_path / "tight.ini"
    cfg.write_text("[grid]\npoints = 48\n"
                   "[fields]\nf_amplitude = 0.2\n"
                   "[flow]\ndt = 1e-3\nt_end = 5e-3\nintegrator = euler\n"
                   "constraint_tol = 1e-18\n")
    rc = main(["flow", "--config", str(cfg), "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "[FAIL] constraint drift" in capsys.readouterr().out


# -------------------------------------------------------- reproducibility

def test_reruns_are_byte_identical(tmp_path):
    pairs = []
    for tag, argv in (
            ("identity", ["verify-identity",
                          "--config", str(CONFIGS / "identity-torus.ini")]),
            ("flow", ["flow", "--config", str(CONFIGS / "flow-coupled.ini")]),
            ("variation", ["verify-variation",
                           "--config", str(CONFIGS / "variation.ini"),
                           "--seed", "11"])):
        a = tmp_path / f"{tag}-a.csv"
        b = tmp_path / f"{tag}-b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        pairs.append((a.read_bytes(), b.read_bytes()))
    for blob_a, blob_b in pairs:
        assert blob_a == blob_b


def test_output_does_not_depend_on_blas_threads(tmp_path):
    # the oracle's contractions are BLAS matrix products: one thread and
    # the default thread count must print and write the same bytes
    runs = []
    for tag, threads in (("one", "1"), ("default", None)):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"{tag}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "warpflow.cli", "verify-curvature",
             "--config", str(CONFIGS / "curvature-quick.ini"),
             "--out", str(out)],
            env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, out.read_bytes()))
    assert b"[PASS]" in runs[0][0]
    assert runs[0] == runs[1]
