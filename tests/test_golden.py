"""Byte-for-byte pins of calibration, sampling and QASM output.

The files under tests/golden/ were written by the implementation that
preceded the periodic closed form, the single-pass calibration grid and
the sorted shot lookup; those changes must leave every byte unchanged.
The n = 14 and n = 16 calibration files were written by the implementation
that preceded the shared cosine table, the tiled short-period factors and
the once-prepared KL target. The n = 18 `sample` and n = 20 `prepare`
files were written by the executor that ran the QFT's SWAPs as gates in
one layout, before SWAP relabels, the layout switch and chunked kernels.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from gaussprep import run_prepare, sample_counts
from gaussprep.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "stem, argv",
    [
        # delta 0: every evaluation goes through the closed form
        ("calibrate_n10_lambda1", ["calibrate", "-n", "10", "--lambda", "1.0"]),
        # the closed form at the sizes where its short-period factors are
        # tiled and one cosine table serves every evaluation
        ("calibrate_n14_lambda1.3", ["calibrate", "-n", "14", "--lambda", "1.3"]),
        ("calibrate_n16_lambda0.8", ["calibrate", "-n", "16", "--lambda", "0.8"]),
        # delta > 0: every evaluation simulates the pruned circuit gate by gate
        ("calibrate_n8_delta0.0123", ["calibrate", "-n", "8", "--delta", "0.0123"]),
    ],
    ids=["closed-form", "closed-form-n14", "closed-form-n16", "gate-level"],
)
def test_calibrate_stdout_and_table(stem, argv, tmp_path, capsys):
    out = tmp_path / "table.csv"
    code, stdout = run_cli(argv + ["--out", str(out)], capsys)
    assert code == 0
    assert stdout == (GOLDEN / f"{stem}.stdout").read_text(encoding="utf-8")
    assert out.read_bytes() == (GOLDEN / f"{stem}.csv").read_bytes()


def test_seeded_counts():
    counts = sample_counts(run_prepare(10).prepared_probabilities, 50_000, 1234).counts
    expected = np.loadtxt(GOLDEN / "sample_counts_n10_seed1234.txt", dtype=np.int64)
    np.testing.assert_array_equal(counts, expected)


def test_sample_stdout_and_histogram(tmp_path, capsys):
    out = tmp_path / "histogram.csv"
    code, stdout = run_cli(["sample", "-n", "5", "--out", str(out)], capsys)
    assert code == 0
    assert stdout == (GOLDEN / "sample_n5.stdout").read_text(encoding="utf-8")
    assert out.read_bytes() == (GOLDEN / "sample_n5.csv").read_bytes()


@pytest.mark.parametrize(
    "stem, argv",
    [
        # op 1 of the benchmark's dense-n18 workload at seed 0
        ("sample_n18_dense", ["sample", "-n", "18", "--shots", "262144", "--seed", "783028455",
                              "--lambda", "1.3786810564361656"]),
        ("prepare_n20", ["prepare", "-n", "20"]),
    ],
    ids=["sample-n18", "prepare-n20"],
)
def test_large_state_stdout(stem, argv, capsys):
    code, stdout = run_cli(argv, capsys)
    assert code == 0
    assert stdout == (GOLDEN / f"{stem}.stdout").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (["-n", "1024"], "a84599670b05a13865ca3ff21467a3465e175de5c611113c13b630d434248ade"),
        (["-n", "200", "--delta", "0"],
         "dfc88ead60c9aa71675398436d7f9622d4f1f4d9204c24a82d18efd664f799c9"),
    ],
    ids=["n1024", "n200-delta0"],
)
def test_qasm_bytes(argv, sha256, capsys):
    code, stdout = run_cli(["export-qasm"] + argv, capsys)
    assert code == 0
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == sha256
