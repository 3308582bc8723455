"""Command-line interface: exit codes, output routing, and payload shapes
for every subcommand."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gaussprep
from gaussprep import cli
from gaussprep.cli import main
from gaussprep.harness import (
    CALIBRATION_COLUMNS,
    DISTRIBUTION_COLUMNS,
    HISTOGRAM_COLUMNS,
    SWEEP_COLUMNS,
    gaussian_gate_count,
)

REPORT_KEYS = {
    "n", "decay_rate", "beta", "delta", "mse_amplitude", "mse_phase_optimized",
    "kl_divergence", "fidelity", "fidelity_phase_sensitive", "fidelity_bound",
    "gate_counts",
}


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def read_csv_text(text):
    return list(csv.reader(io.StringIO(text)))


COMMANDS = ("prepare", "sweep", "calibrate", "sample", "export-qasm")


class TestExitCodes:
    def test_no_arguments_is_a_usage_error(self, capsys):
        assert main([]) == 1

    def test_missing_required_flag_is_a_usage_error(self, capsys):
        assert main(["prepare"]) == 1

    def test_invalid_beta_text_is_a_usage_error(self, capsys):
        assert main(["prepare", "--qubits", "4", "--beta", "-1"]) == 1
        assert main(["prepare", "--qubits", "4", "--beta", "junk"]) == 1

    @pytest.mark.parametrize("text", ["inf", "1e999", "nan", "0", "-1"])
    def test_bad_explicit_beta_is_a_usage_error(self, text, capsys):
        assert main(["prepare", "--qubits", "4", "--beta", text]) == 1
        assert f"explicit beta must be finite and > 0, got '{text}'" in capsys.readouterr().err

    def test_overflowing_heuristic_beta_is_a_runtime_error(self, capsys):
        assert main(["export-qasm", "-n", "4", "--lambda", "1e-320"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gaussprep: error: lambda = 1e-320 ")
        assert "beta" in err and "non-finite angle" not in err
        assert main(["sweep", "-n", "4", "--deltas", "0", "--lambda", "1e-320"]) == 0
        row = read_csv_text(capsys.readouterr().out)[1]
        assert row[-1].startswith("lambda = 1e-320 ") and "beta" in row[-1]

    def test_underflowing_heuristic_beta_is_a_runtime_error(self, capsys):
        # 5 / (2 * 1e308) is 5 / inf = 0.0: refused by name, not as "beta 0.0"
        assert main(["prepare", "-n", "4", "--lambda", "1e308"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gaussprep: error: lambda = 1e+308 is too large: ")
        assert "underflows to 0.0" in err and "beta must be > 0" not in err

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_calibration_rate_is_a_runtime_error(self, rate, capsys):
        assert main(["calibrate", "-n", "5", "--lambda", rate]) == 2
        err = capsys.readouterr().err
        assert f"finite decay rate, got {rate}" in err and "flat target" not in err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["prepare", "--help"]) == 0

    def test_simulation_cap_is_a_runtime_error(self, capsys):
        assert main(["prepare", "--qubits", "30"]) == 2
        assert "error" in capsys.readouterr().err

    def test_flat_target_calibration_is_a_runtime_error(self, capsys):
        assert main(["calibrate", "--qubits", "6", "--lambda", "0"]) == 2

    def test_unwritable_output_is_a_runtime_error(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir" / "out.csv"
        assert main(["prepare", "--qubits", "3", "--out", str(missing)]) == 2

    def test_successful_run_exits_zero(self, capsys):
        assert main(["prepare", "--qubits", "3"]) == 0

    def test_refused_allocation_is_a_runtime_error(self, capsys):
        # 10**15 float64 draws are 7.1 PiB, more than any process can map,
        # so numpy refuses before it allocates anything
        assert main(["sample", "-n", "2", "--shots", str(10**15)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gaussprep: error: ") and "Traceback" not in err

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_smoothing_is_a_runtime_error(self, eps, capsys):
        assert main(["sample", "-n", "3", "--smoothing", eps]) == 2
        assert "eps must be finite and > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("delta", ["-1", "nan"])
    def test_bad_threshold_gives_one_message_in_every_command(self, command, delta, capsys):
        flag = "--deltas" if command == "sweep" else "--delta"
        assert main([command, "-n", "4", flag, delta]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"gaussprep: error: pruning threshold must be finite and >= 0, got {float(delta)}\n"
        )

    @pytest.mark.parametrize("command", ["prepare", "sample", "sweep"])
    def test_qubit_count_beyond_the_simulator_gives_one_message(self, command, capsys):
        assert main([command, "-n", "27"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gaussprep: error: qubit count 27 outside simulable range 1..26\n"

    def test_repeated_sweep_values_are_a_runtime_error(self, capsys):
        assert main(["sweep", "-n", "3", "3", "--deltas", "0"]) == 2
        assert "qubit count 3 is given more than once" in capsys.readouterr().err
        assert main(["sweep", "-n", "3", "--deltas", "0", "0"]) == 2
        assert "pruning threshold 0.0 is given more than once" in capsys.readouterr().err


class TestPrepare:
    def test_stdout_report(self, capsys):
        assert main(["prepare", "--qubits", "4", "--delta", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == REPORT_KEYS
        assert report["n"] == 4
        assert report["delta"] == 0.0
        assert report["beta"] == 2.5
        assert report["gate_counts"]["ry"] == 4

    def test_explicit_beta_and_lambda(self, capsys):
        assert main(["prepare", "-n", "3", "--lambda", "2", "--beta", "1.25"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["decay_rate"] == 2.0
        assert report["beta"] == 1.25

    def test_distribution_csv(self, tmp_path, capsys):
        path = tmp_path / "dist.csv"
        assert main(["prepare", "-n", "3", "--out", str(path)]) == 0
        parsed = read_csv(path)
        assert parsed[0] == list(DISTRIBUTION_COLUMNS)
        assert len(parsed) == 9

    def test_huge_threshold_gives_a_minus_infinite_bound(self, capsys):
        # (n-1) * delta squared overflows a double; the bound is -inf
        assert main(["prepare", "-n", "2", "--delta", "1e200"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["fidelity_bound"] == "-inf"
        assert report["gate_counts"]["cphase"] == 0

    def test_distribution_json(self, tmp_path, capsys):
        path = tmp_path / "dist.json"
        assert main(["prepare", "-n", "3", "--format", "json", "--out", str(path)]) == 0
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert set(payload) == {"report", "distribution"}
        assert len(payload["distribution"]) == 8
        assert set(payload["distribution"][0]) == set(DISTRIBUTION_COLUMNS)


class TestSweep:
    def test_stdout_csv(self, capsys):
        assert main(["sweep", "--qubits", "3", "4", "--deltas", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 3

    def test_file_output_and_summary_line(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        assert main(["sweep", "--qubits", "3", "--out", str(path)]) == 0
        assert capsys.readouterr().out.strip() == f"wrote 2 rows to {path}"
        assert read_csv(path)[0] == list(SWEEP_COLUMNS)

    def test_stdout_json(self, capsys):
        assert main(["sweep", "--qubits", "3", "--deltas", "0", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and payload[0]["n"] == 3

    def test_include_baseline(self, capsys):
        assert main(["sweep", "-n", "4", "--deltas", "0", "--include-baseline",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["method"] for row in payload] == ["gaussian", "baseline"]

    def test_baseline_above_its_cap_is_an_error_row(self, capsys):
        assert main(["sweep", "-n", "17", "--deltas", "0.1", "--include-baseline",
                     "--format", "json"]) == 0
        gaussian, baseline = json.loads(capsys.readouterr().out)
        assert gaussian["error"] is None and gaussian["gate_total"] > 0
        assert baseline["method"] == "baseline"
        assert baseline["error"] == "exact encoding is capped at 16 qubits, got 17"


class TestCalibrate:
    def test_stdout_summary(self, capsys):
        assert main(["calibrate", "--qubits", "6"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert "table" not in summary
        assert summary["n"] == 6
        assert summary["delta"] == 0.0
        assert 2.3 < summary["best_beta"] < 2.7
        assert len(summary["candidates"]) == 2

    def test_diagnostic_table_csv(self, tmp_path, capsys):
        path = tmp_path / "calibration.csv"
        assert main(["calibrate", "-n", "4", "--out", str(path)]) == 0
        parsed = read_csv(path)
        assert parsed[0] == list(CALIBRATION_COLUMNS)
        kinds = {row[0] for row in parsed[1:]}
        assert kinds == {"grid", "candidate", "best"}
        assert len(parsed) == 1 + 61 + 2 + 1

    def test_beta_is_a_usage_error(self, capsys):
        # the search finds beta itself; a given one would go unread
        assert main(["calibrate", "-n", "8", "--beta", "3"]) == 1
        assert "unrecognized arguments: --beta 3" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["calibrate", "-n", "1"],
        ["calibrate", "-n", "1", "--lambda", "3"],
        ["prepare", "-n", "1", "--beta", "calibrated"],
    ])
    def test_one_qubit_is_refused_by_name(self, argv, capsys):
        # the only angle at n = 1 is pi/2 for every beta: no lambda helps
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("gaussprep: error: calibration needs at least 2 qubits: ")
        assert "bracket" not in err

    def test_one_qubit_calibrated_sweep_row_names_the_reason(self, capsys):
        assert main(["sweep", "-n", "1", "2", "--deltas", "0", "--beta", "calibrated",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["error"].startswith("calibration needs at least 2 qubits: ")
        assert payload[1]["error"] is None


class TestSample:
    def test_stdout_summary(self, capsys):
        assert main(["sample", "-n", "4", "--shots", "2000", "--seed", "9"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert set(summary) == {"n", "shots", "seed", "tv_distance"}
        assert summary["shots"] == 2000 and summary["seed"] == 9
        assert 0.0 <= summary["tv_distance"] <= 1.0

    def test_same_seed_is_reproducible(self, capsys):
        argv = ["sample", "-n", "4", "--shots", "2000", "--seed", "9"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second

    def test_smoothing_adds_kl_field(self, capsys):
        assert main(["sample", "-n", "4", "--shots", "2000", "--seed", "9",
                     "--smoothing", "1e-9"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert "kl_target_to_empirical_smoothed" in summary
        assert isinstance(summary["kl_target_to_empirical_smoothed"], float)

    def test_subnormal_smoothing_gives_a_finite_kl_without_a_warning(self):
        # every shot misses one bin, so its smoothed frequency is subnormal
        # and p / q overflows there; the divergence itself is finite
        done = TestModuleEntryPoint.run_module("gaussprep", "sample", "-n", "4",
                                               "--smoothing", "1e-320")
        assert done.returncode == 0 and done.stderr == ""
        kl = json.loads(done.stdout)["kl_target_to_empirical_smoothed"]
        assert isinstance(kl, float) and math.isfinite(kl) and kl > 0.0

    def test_histogram_csv(self, tmp_path, capsys):
        path = tmp_path / "hist.csv"
        assert main(["sample", "-n", "3", "--shots", "1000", "--out", str(path)]) == 0
        parsed = read_csv(path)
        assert parsed[0] == list(HISTOGRAM_COLUMNS)
        assert len(parsed) == 9
        assert sum(int(row[3]) for row in parsed[1:]) == 1000

    def test_zero_shots_is_a_runtime_error(self, capsys):
        assert main(["sample", "-n", "3", "--shots", "0"]) == 2

    def test_zero_shots_is_refused_before_the_state_exists(self, capsys):
        # the 2**26 amplitudes would take 1 GiB
        tracemalloc.start()
        try:
            assert main(["sample", "-n", "26", "--shots", "0"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == "gaussprep: error: shots must be >= 1, got 0\n"
        assert peak < 2**20

    def test_peak_memory_at_18_qubits(self, capsys):
        # the state is freed before the shots are drawn: the probabilities,
        # the CDF, the draws and their indices (2.0 states at 2**18 shots;
        # 3.58 while the state lived through sampling)
        argv = ["sample", "-n", "18", "--shots", "262144", "--seed", "5"]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * (16 << 18)

    def test_peak_memory_with_smoothing_at_18_qubits(self, capsys):
        # the sampled probabilities, the counts, the smoothed frequencies,
        # the target and the KL's one array: 2.51 states (3.01 while the KL
        # copied the target, 4.01 while the target kept its grid and
        # amplitudes)
        argv = ["sample", "-n", "18", "--shots", "262144", "--smoothing", "1e-9"]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.6 * (16 << 18)

    def test_too_many_shots_are_refused_before_the_state_exists(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_available_bytes", lambda: 8 << 30)
        tracemalloc.start()
        try:
            assert main(["sample", "-n", "4", "--shots", "9223372036854775807"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == (
            "gaussprep: error: sample -n 4 with 9223372036854775807 shots needs about "
            "147573952589676478986 bytes at its peak, but only 8589934592 bytes are available\n")
        assert peak < 2**20

    def test_negative_seed_is_a_runtime_error_naming_the_seed(self, capsys):
        assert main(["sample", "-n", "3", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gaussprep: error: seed must be >= 0, got -1\n"

    def test_huge_threshold_samples(self, capsys):
        assert main(["sample", "-n", "3", "--delta", "1e200", "--shots", "100"]) == 0
        assert json.loads(capsys.readouterr().out)["shots"] == 100


class TestMemoryPreflight:
    # estimated peaks: prepare 3.6 states, or 26 with --out as CSV and 84 as
    # JSON; sample 2.1 states, or 26 with --out, plus 16 B per shot and half
    # a state more with --smoothing; sweep 5 states of its largest n, or 21
    # with a baseline row; in bytes rounded up; a state is 16 * 2**n bytes;
    # export-qasm 320 B per gate, 11 gates at n = 3; the command then adds
    # a fixed 64 KiB
    @pytest.mark.parametrize("argv, estimate", [
        (["prepare", "-n", "10"], 58983),
        (["sample", "-n", "4", "--shots", "100"], 538 + 1600),
        (["sample", "-n", "4", "--shots", "100", "--smoothing", "1e-9"], 666 + 1600),
        (["export-qasm", "-n", "3", "--delta", "0"], 3520),
        (["prepare", "-n", "4", "--out", "OUT"], 6656),
        (["prepare", "-n", "4", "--format", "json", "--out", "OUT"], 21504),
        (["sample", "-n", "4", "--shots", "100", "--out", "OUT"], 6656 + 1600),
        (["sweep", "-n", "4", "3"], 1280),
        (["sweep", "-n", "4", "3", "--include-baseline"], 5376),
        (["sweep", "-n", "17", "--include-baseline"], 10485760),  # no baseline above 16
    ])
    def test_refused_one_byte_short_of_the_estimate(self, argv, estimate, tmp_path, monkeypatch,
                                                    capsys):
        argv = [str(tmp_path / "out") if arg == "OUT" else arg for arg in argv]
        needed = estimate + (64 << 10)
        monkeypatch.setattr(cli, "_available_bytes", lambda: needed)
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "_available_bytes", lambda: needed - 1)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"gaussprep: error: {argv[0]} -n {argv[2]} ")
        assert captured.err.endswith(f" needs about {needed} bytes at its peak, "
                                     f"but only {needed - 1} bytes are available\n")

    @pytest.mark.parametrize("argv", [
        ["prepare", "-n", "14"],
        ["prepare", "-n", "14", "--out", "OUT"],
        ["prepare", "-n", "14", "--format", "json", "--out", "OUT"],
        ["sample", "-n", "14", "--shots", "1000"],
        ["sample", "-n", "14", "--shots", "1000", "--out", "OUT"],
        ["sweep", "-n", "14"],
        ["sweep", "-n", "10", "--include-baseline"],
    ], ids=["prepare", "prepare-csv", "prepare-json", "sample", "sample-out", "sweep",
            "sweep-baseline"])
    def test_peak_memory_within_the_estimate(self, argv, tmp_path, monkeypatch, capsys):
        # the estimate the command checks against MemAvailable (its fixed
        # term included), against the tracemalloc peak of the run (a run at
        # n = 2 first, for what a first call allocates once)
        argv = [str(tmp_path / "out") if arg == "OUT" else arg for arg in argv]
        assert main(argv[:2] + ["2"] + argv[3:]) == 0
        estimates = []
        check = cli._check_available
        monkeypatch.setattr(cli, "_check_available",
                            lambda run, needed: (estimates.append(needed), check(run, needed)))
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= estimates[-1] + cli.FIXED_PEAK_BYTES

    def test_unreadable_meminfo_skips_the_check(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_available_bytes", lambda: None)
        assert main(["sample", "-n", "4", "--shots", "100"]) == 0
        # numpy's own refusal is still an exit 2
        assert main(["sample", "-n", "2", "--shots", str(10**15)]) == 2
        assert capsys.readouterr().err.startswith("gaussprep: error: ")

    def test_qubit_cap_is_named_before_the_memory(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_available_bytes", lambda: 0)
        assert main(["prepare", "-n", "27"]) == 2
        assert capsys.readouterr().err == (
            "gaussprep: error: qubit count 27 outside simulable range 1..26\n")

    @pytest.mark.parametrize("argv, message", [
        (["export-qasm", "-n", "4097"], "qubit count 4097 exceeds synthesis cap 4096"),
        (["export-qasm", "-n", "0"], "qubit count must be >= 1, got 0"),
        (["export-qasm", "-n", "4097", "--delta", "-1"],
         "pruning threshold must be finite and >= 0, got -1.0"),
    ])
    def test_export_inputs_are_named_before_the_memory(self, argv, message, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_available_bytes", lambda: 0)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"gaussprep: error: {message}\n"

    def test_export_at_the_cap_is_refused_before_a_gate_is_built(self, monkeypatch, capsys):
        # 2n + n(n-1)/2 + n/2 + 1 gates at n = 4096, delta = 0: about 2.5 GiB
        monkeypatch.setattr(cli, "_available_bytes", lambda: 2 << 30)
        monkeypatch.setattr(cli, "gaussian_circuit", lambda *args: pytest.fail("circuit built"))
        tracemalloc.start()
        try:
            assert main(["export-qasm", "-n", "4096", "--delta", "0"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "gaussprep: error: export-qasm -n 4096 (8396801 gates) needs about 2687041856 "
            "bytes at its peak, but only 2147483648 bytes are available\n")
        assert peak < 2**20

    def test_export_peak_memory_per_gate_at_512_qubits(self, tmp_path, capsys):
        # every gate, its QASM line and the program text: 269 B per gate
        # under tracemalloc (281 B at n = 1024)
        argv = ["export-qasm", "-n", "512", "--delta", "0", "--out", str(tmp_path / "p.qasm")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cli.QASM_BYTES_PER_GATE * gaussian_gate_count(512, 0.0)

    def test_reads_mem_available_in_bytes(self, tmp_path):
        meminfo = tmp_path / "meminfo"
        meminfo.write_text("MemTotal:       16000000 kB\nMemAvailable:    7444992 kB\n")
        assert cli._available_bytes(str(meminfo)) == 7444992 * 1024
        meminfo.write_text("MemTotal:       16000000 kB\n")
        assert cli._available_bytes(str(meminfo)) is None
        meminfo.write_text("MemAvailable: lots\n")
        assert cli._available_bytes(str(meminfo)) is None
        assert cli._available_bytes(str(tmp_path / "missing")) is None


class TestExportQasm:
    def test_stdout_program(self, capsys):
        assert main(["export-qasm", "-n", "3", "--delta", "0"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "OPENQASM 2.0;"
        assert lines[2] == "qreg q[3];"
        # 3 ry + 3 h + 3 cu1 + 1 swap + 1 x at delta = 0
        assert len(lines) == 3 + 11

    def test_file_output(self, tmp_path, capsys):
        path = tmp_path / "circuit.qasm"
        assert main(["export-qasm", "-n", "3", "--out", str(path)]) == 0
        assert path.read_text(encoding="utf-8").startswith("OPENQASM 2.0;")

    def test_synthesis_works_beyond_the_simulation_cap(self, capsys):
        # export only builds the circuit; the 26-qubit simulation cap does
        # not apply
        assert main(["export-qasm", "-n", "30"]) == 0
        out = capsys.readouterr().out
        assert "qreg q[30];" in out

    def test_beyond_1024_qubits_exits_zero(self, capsys):
        # pi/2**d overflowed for d >= 1024; ldexp underflows gracefully
        n = 1100
        assert main(["export-qasm", "-n", str(n)]) == 0
        body = capsys.readouterr().out.splitlines()[3:]
        # n ry + n h + kept cu1 (distances 1..7 at the default delta)
        # + floor(n/2) swap + 1 x
        assert len(body) == n + n + sum(n - d for d in range(1, 8)) + n // 2 + 1

    def test_synthesis_cap_is_a_runtime_error(self, capsys):
        assert main(["export-qasm", "-n", "4097"]) == 2
        assert "synthesis cap 4096" in capsys.readouterr().err

    def test_pruning_shrinks_the_program(self, capsys):
        assert main(["export-qasm", "-n", "12", "--delta", "0"]) == 0
        full = capsys.readouterr().out.count("cu1(")
        assert main(["export-qasm", "-n", "12", "--delta", "0.0123"]) == 0
        pruned = capsys.readouterr().out.count("cu1(")
        assert full == 66 and pruned == 56


class TestModuleEntryPoint:
    @staticmethod
    def run_module(*argv):
        source_root = str(Path(gaussprep.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", *argv],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
        )

    def test_python_dash_m_runs_the_cli(self):
        done = self.run_module("gaussprep", "prepare", "-n", "3")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["n"] == 3

    def test_cli_module_runs_the_cli(self):
        done = self.run_module("gaussprep.cli", "prepare", "-n", "3")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["n"] == 3

    def test_overflowing_target_exponent_prints_no_warning(self):
        # -1e308 * x^2 overflows to -inf, weight 0: the right limit, not news
        done = self.run_module("gaussprep", "calibrate", "-n", "14", "--lambda", "1e308")
        assert done.returncode == 2
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("gaussprep: error: "), done.stderr

    def test_cli_module_reports_a_runtime_error(self):
        done = self.run_module("gaussprep.cli", "export-qasm", "-n", "4", "--lambda", "1e-320")
        assert done.returncode == 2
        assert done.stdout == ""
        assert "gaussprep: error: lambda = 1e-320 is too small" in done.stderr


class TestClosedStdout:
    """A reader that stops early (`gaussprep prepare | head -1`) ends the
    command quietly; an --out file that cannot be written stays an error."""

    @pytest.mark.parametrize("argv", [["prepare", "-n", "4"], ["sweep", "-n", "3", "4"],
                                      ["export-qasm", "-n", "64", "--delta", "0"]],
                             ids=["prepare", "sweep", "export-qasm"])
    def test_closed_pipe_exits_zero_without_a_message(self, argv):
        source_root = str(Path(gaussprep.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
        child = subprocess.Popen([sys.executable, "-m", "gaussprep", *argv],
                                 env={**os.environ, "PYTHONPATH": path},
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        child.stdout.close()  # before the child has imported numpy, let alone written
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == 0
        assert err == b""

    def test_closed_stdout_without_a_descriptor(self, monkeypatch, capsys):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["prepare", "-n", "3"]) == 0
        assert capsys.readouterr().err == ""

    def test_broken_pipe_on_the_out_file_stays_an_error(self, tmp_path, monkeypatch, capsys):
        def closed_pipe(*args, **kwargs):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(Path, "write_text", closed_pipe)
        assert main(["prepare", "-n", "3", "--out", str(tmp_path / "dump.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gaussprep: error: [Errno 32] Broken pipe\n"


# Values for every float flag: the edges of the double range, both
# infinities, NaN, zeros and ordinary settings.
FLOAT_TEXTS = ("nan", "inf", "-inf", "0", "-0", "1e-320", "1e200", "-1",
               "1e-9", "0.0123", "0.5", "1", "2.5")
QUBITS = st.integers(min_value=-1, max_value=8)
FLOATS = st.sampled_from(FLOAT_TEXTS)
# Small shot counts, plus counts that the memory preflight refuses on the
# 1 GiB that TestArgvProperty reports available; nothing in between, so no
# draw allocates gigabytes.
SHOTS = st.one_of(st.integers(min_value=-1, max_value=3000),
                  st.integers(min_value=10**15, max_value=2**64))


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    if command == "sweep":
        argv += ["-n", *map(str, draw(st.lists(QUBITS, min_size=1, max_size=3)))]
        if draw(st.booleans()):
            argv += ["--deltas", *draw(st.lists(FLOATS, min_size=1, max_size=3))]
        if draw(st.booleans()):
            argv.append("--include-baseline")
    else:
        argv += ["-n", str(draw(QUBITS))]
        if draw(st.booleans()):
            argv += ["--delta", draw(FLOATS)]
    if draw(st.booleans()):
        argv += ["--lambda", draw(FLOATS)]
    if draw(st.booleans()):
        argv += ["--beta", draw(st.one_of(FLOATS, st.sampled_from(("heuristic", "calibrated"))))]
    if command == "sample":
        if draw(st.booleans()):
            argv += ["--shots", str(draw(SHOTS))]
        if draw(st.booleans()):
            argv += ["--smoothing", draw(FLOATS)]
        if draw(st.booleans()):
            argv += ["--seed", str(draw(st.integers(min_value=-1, max_value=2**64)))]
    if command in ("prepare", "sweep") and draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


class TestArgvProperty:
    @settings(max_examples=200)
    @given(cli_argv())
    # the two inputs that once ended in a traceback
    @example(["prepare", "-n", "2", "--delta", "1e200"])
    @example(["sample", "-n", "2", "--shots", str(10**15)])
    def test_every_run_exits_0_1_or_2(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.object(cli, "_available_bytes", return_value=1 << 30):
            code = main(argv)
        assert code in (0, 1, 2), (argv, code, err.getvalue())
        if code == 2:
            assert err.getvalue().startswith("gaussprep: error: "), argv
