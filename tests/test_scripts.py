"""The builtin generator still builds its configs and the demos still run."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import shapelink
from shapelink.shaping import ShapingConfig

ROOT = Path(__file__).resolve().parents[1]


def test_builtin_generator_module_configs_build(monkeypatch):
    # importing runs only the module level: main() is behind __main__
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "generate_builtins", ROOT / "tools" / "generate_builtins.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert isinstance(module.AWGN_CFG, ShapingConfig)


@pytest.mark.parametrize(
    "demo, out_dir, written",
    [
        (
            "shape_constellation.py",
            "out_shaping",
            ["shaped_awgn.txt", "shaped_papr.txt", "shaped_system.txt"],
        ),
        ("fec_decoding.py", "out_fec", ["regular_1024.alist"]),
        ("capacity_gap_sweep.py", "out_gap_sweep", ["gap_sweep.csv", "manifest.json"]),
        (
            "fiber_link_run.py",
            "out_fiber",
            ["p+0dBm", "p+2dBm", "p+4dBm", "p-2dBm", "p-4dBm"],
        ),
    ],
    ids=["shaping", "fec", "gap_sweep", "fiber"],
)
def test_shaping_demo_runs(tmp_path, demo, out_dir, written):
    proc = _run_demo(tmp_path, demo)
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(tmp_path / out_dir)) == written


@pytest.mark.parametrize(
    "demo, closing",
    [
        ("dsp_pipeline.py", r"marker tracking residual: [\d.]+ rad worst case \(no cycle slips, .*"),
        ("band_budget.py", r"snr spread across the band: [\d.]+ \.\. [\d.]+ dB"),
    ],
    ids=["dsp_pipeline", "band_budget"],
)
def test_printing_demo_runs(tmp_path, demo, closing):
    # these demos only print; their last line is the verdict
    proc = _run_demo(tmp_path, demo)
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(closing, proc.stdout.splitlines()[-1])
    assert os.listdir(tmp_path) == []
    if demo == "dsp_pipeline.py":  # act one's blind chain, at BER <= 1e-4
        errors = re.search(r"^bit errors: (\d+) / 360000 ", proc.stdout, re.M)
        assert errors and int(errors.group(1)) <= 36, proc.stdout


def _run_demo(cwd, demo):
    # the demos import the package this suite imported
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(shapelink.__file__))}
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=cwd,
        capture_output=True,
        text=True,
        env=env,
    )


def test_seeded_output_hasher_prints_one_line_per_file(tmp_path):
    # the two cheapest runs; each output file gives "<run>/<file> <sha256>"
    def hasher(*args):
        return subprocess.run(
            [sys.executable, str(ROOT / "tools" / "seeded_outputs.py"), *args],
            cwd=tmp_path,
            capture_output=True,
            text=True,
        )

    proc = hasher("linkbudget", "gap_sweep_gh")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == [
        "linkbudget/linkbudget.csv",
        "gap_sweep_gh/gap_sweep.csv",
    ]
    for line in lines:
        assert re.fullmatch(r"\S+ [0-9a-f]{64}", line), line
    assert os.listdir(tmp_path) == []

    # --check compares only the runs it hashes: the saved gap_sweep_gh
    # line is ignored, and a changed linkbudget digest fails the check
    saved = tmp_path / "saved.txt"
    saved.write_text(proc.stdout)
    check = hasher("--check", str(saved), "linkbudget")
    assert check.returncode == 0, check.stderr
    assert check.stdout == lines[0] + "\n"
    name, digest = lines[0].split()
    saved.write_text(f"{name} {'0' * 64}\n{lines[1]}\n")
    check = hasher("--check", str(saved), "linkbudget")
    assert check.returncode == 1
    assert check.stderr.startswith(f"{name}: saved {'0' * 64}, now {digest}")
    saved.write_text(lines[1] + "\n")
    check = hasher("--check", str(saved), "linkbudget")
    assert check.returncode == 1
    assert check.stderr.startswith(f"{name}: saved -, now {digest}")

    # a bare --check reads the checked-in lines (run names go before it);
    # another machine's BLAS may change a digest, so either outcome is exact
    checked_in = dict(
        line.split() for line in (ROOT / "tools" / "seeded_outputs.txt").read_text().splitlines()
    )
    check = hasher("linkbudget", "--check")
    assert check.returncode == (0 if checked_in[name] == digest else 1), check.stderr
