"""Byte-for-byte pins of the sweep table and of `prepare` output.

The files under tests/golden/ were written by the implementation that had
one scoring function per row kind and one writer per table; the single
scoring path and table emitter that replaced them must leave every byte
unchanged except the `wall_time_ms` cells, which are masked on both sides.
The n = 12 and n = 18 `prepare` pins were written by the implementation
that scored a state with one function per metric, a complex copy of the
target and a second grid; the one-pass scorer must leave them unchanged.
The 41 MB n = 18 distribution dump is pinned by its SHA-256.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gaussprep.cli import main

GOLDEN = Path(__file__).parent / "golden"

SWEEP_ARGV = [
    "sweep", "-n", "2", "3", "4", "5", "6", "7", "8", "9", "10",
    "--deltas", "0", "0.001", "0.0123", "0.1", "--include-baseline",
]
WALL_TIME_COLUMN = 10  # position of wall_time_ms in the sweep CSV header


def mask_wall_time(text: str) -> str:
    """Replace every wall_time_ms value, in CSV or in indented JSON; the CSV
    header stays as it is."""
    if text.startswith("["):
        return re.sub(r'("wall_time_ms": )[^,\n]+', r"\1MASKED", text)
    header, *lines = text.splitlines(keepends=True)
    masked = [header]
    for line in lines:
        cells = line.split(",")
        if cells[WALL_TIME_COLUMN]:
            cells[WALL_TIME_COLUMN] = "MASKED"
        masked.append(",".join(cells))
    return "".join(masked)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "name, extra",
    [("sweep_n2-10.csv", []), ("sweep_n2-10.json", ["--format", "json"])],
    ids=["csv", "json"],
)
def test_sweep_stdout(name, extra, capsys):
    code, stdout, stderr = run_cli(SWEEP_ARGV + extra, capsys)
    assert code == 0 and stderr == ""
    assert mask_wall_time(stdout) == (GOLDEN / name).read_text(encoding="utf-8")


def test_prepare_stdout_and_distribution_files(tmp_path, capsys):
    expected_stdout = (GOLDEN / "prepare_n6.stdout").read_text(encoding="utf-8")
    code, stdout, _ = run_cli(["prepare", "-n", "6"], capsys)
    assert code == 0 and stdout == expected_stdout

    csv_path = tmp_path / "distribution.csv"
    code, stdout, _ = run_cli(["prepare", "-n", "6", "--out", str(csv_path)], capsys)
    assert code == 0 and stdout == expected_stdout
    assert csv_path.read_bytes() == (GOLDEN / "prepare_n6.csv").read_bytes()

    json_path = tmp_path / "distribution.json"
    code, stdout, _ = run_cli(
        ["prepare", "-n", "6", "--format", "json", "--out", str(json_path)], capsys
    )
    assert code == 0 and stdout == expected_stdout
    assert json_path.read_bytes() == (GOLDEN / "prepare_n6.json").read_bytes()


@pytest.mark.parametrize(
    "stem, argv, json_sha256",
    [
        ("prepare_n12", ["prepare", "-n", "12"], None),
        ("prepare_n18_delta0", ["prepare", "-n", "18", "--delta", "0"],
         "51d1f9807cb33840fc64a735abbab1547d1cfe8d48fb594098029768b6ab3c6a"),
    ],
    ids=["n12", "n18-delta0"],
)
def test_prepare_report_and_json_dump(stem, argv, json_sha256, tmp_path, capsys):
    expected_stdout = (GOLDEN / f"{stem}.stdout").read_text(encoding="utf-8")
    code, stdout, stderr = run_cli(argv, capsys)
    assert code == 0 and stderr == "" and stdout == expected_stdout

    json_path = tmp_path / "distribution.json"
    code, stdout, _ = run_cli(argv + ["--format", "json", "--out", str(json_path)], capsys)
    assert code == 0 and stdout == expected_stdout
    if json_sha256 is None:
        assert json_path.read_bytes() == (GOLDEN / f"{stem}.json").read_bytes()
    else:
        assert hashlib.sha256(json_path.read_bytes()).hexdigest() == json_sha256


EXPERIMENT_FILES = (
    "sweep.csv", "cost_comparison.csv", "calibration_n8.csv", "calibration_n10.csv",
    "calibration_n12.csv", "distribution_n8.csv", "histogram_n5.csv",
)


def test_experiment_script_files(tmp_path):
    """scripts/run_experiments.py writes the seven pinned files, byte for
    byte with wall_time_ms masked, and prints one gate-ratio line per n of
    the cost comparison. The pins were written by the script that called
    the harness itself instead of the CLI."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_experiments.py"), "--outdir", str(tmp_path)],
        env=env, capture_output=True, text=True, check=False, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(EXPERIMENT_FILES)
    for name in EXPERIMENT_FILES:
        text = (tmp_path / name).read_bytes().decode("utf-8")
        if name in ("sweep.csv", "cost_comparison.csv"):
            text = mask_wall_time(text)
        assert text.encode("utf-8") == (GOLDEN / "experiments" / name).read_bytes(), name
    assert "  n=4: 17 gates vs 81 baseline (4.8x)\n" in done.stdout
    assert "  n=10: 68 gates vs 7101 baseline (104.4x)\n" in done.stdout
