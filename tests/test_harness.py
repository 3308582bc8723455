"""Experiment harness: single runs, the sweep table and its serializations,
and the decay-parameter calibration search."""

from __future__ import annotations

import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

import gaussprep.harness as harness
from conftest import simulate
from gaussprep import (
    SweepConfig,
    calibrate_beta,
    pruning_fidelity_bound,
    resolve_beta,
    run_prepare,
    run_sweep,
)
from gaussprep.harness import (
    CALIBRATION_COLUMNS,
    DISTRIBUTION_COLUMNS,
    HISTOGRAM_COLUMNS,
    SWEEP_COLUMNS,
    distribution_table,
    prepared_state,
    table_text,
)
from gaussprep.statevector import probabilities

# golden-section argmin of the smoothed-KL objective at n=10, lambda=1
CALIBRATED_BETA_N10 = 2.4941317098691824


@pytest.fixture(scope="module")
def default_sweep_rows():
    config = SweepConfig(n_values=tuple(range(4, 13)), delta_values=(0.0, 0.0123))
    return run_sweep(config)


def mask_wall_time(csv_text: str) -> str:
    column = SWEEP_COLUMNS.index("wall_time_ms")
    lines = []
    for line in csv_text.splitlines():
        cells = line.split(",")
        cells[column] = "MASKED"
        lines.append(",".join(cells))
    return "\n".join(lines)


class TestRunPrepare:
    def test_report_echoes_configuration(self):
        result = run_prepare(6, decay_rate=2.0, delta=0.01, beta_mode=1.5)
        assert result.report.n == 6
        assert result.report.decay_rate == 2.0
        assert result.report.delta == 0.01
        assert result.report.beta == 1.5
        assert result.prepared_probabilities.shape == (64,)
        assert result.grid.shape == (64,)
        assert result.report.inventory.ry == 6

    def test_probabilities_are_normalized(self):
        result = run_prepare(8)
        assert result.prepared_probabilities.sum() == pytest.approx(1.0, abs=1e-10)
        assert result.target_probabilities.sum() == pytest.approx(1.0, abs=1e-10)

    def test_flat_target_single_qubit(self):
        # decay_rate 0 is legal: heuristic beta falls back to 2.5 and every
        # metric stays finite
        result = run_prepare(1, decay_rate=0.0)
        np.testing.assert_allclose(result.prepared_probabilities, [0.0, 1.0], atol=1e-12)
        assert result.report.kl_divergence == pytest.approx(math.log(2.0), rel=1e-12)
        assert result.report.fidelity == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("n, delta", [(12, 0.0123), (13, 0.0)])
    def test_sample_probabilities_have_the_scored_bits(self, n, delta):
        # `sample` reads statevector.probabilities of the state it simulates
        # without scoring it; score_state squares |a| in place instead
        scored = run_prepare(n, delta=delta).prepared_probabilities
        unscored = probabilities(prepared_state(n, delta=delta).state)
        assert np.array_equal(unscored.view(np.int64), scored.view(np.int64))

    def test_pruning_cost_stays_within_analytic_allowance(self):
        full = run_prepare(12, decay_rate=1.0, delta=0.0)
        pruned = run_prepare(12, decay_rate=1.0, delta=0.0123)
        allowance = 1.0 - pruning_fidelity_bound(12, 0.0123)
        assert abs(full.report.fidelity - pruned.report.fidelity) <= allowance

    def test_peak_memory_at_18_qubits(self):
        # the state, the target with its grid, the probabilities and the
        # KL temporaries: at most 4.6 states (5.07 with per-metric scoring)
        n = 18
        run_prepare(n)
        tracemalloc.start()
        try:
            run_prepare(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.6 * (16 << n)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match=r"^qubit count 0 outside simulable range 1\.\.26$"):
            run_prepare(0)
        with pytest.raises(ValueError, match=r"^qubit count 27 outside simulable range 1\.\.26$"):
            run_prepare(27)
        with pytest.raises(ValueError,
                           match=r"^pruning threshold must be finite and >= 0, got nan$"):
            run_prepare(4, delta=math.nan)
        with pytest.raises(ValueError):
            run_prepare(4, delta=-0.1)
        with pytest.raises(ValueError):
            run_prepare(4, beta_mode="typo")


class TestResolveBeta:
    def test_explicit_number_passes_through(self):
        assert resolve_beta(4, 1.0, 0.7) == 0.7
        assert resolve_beta(4, 1.0, 3) == 3.0

    def test_heuristic_inverse_to_decay_rate(self):
        assert resolve_beta(4, 1.0, "heuristic") == 2.5
        assert resolve_beta(4, 2.0, "heuristic") == 1.25

    def test_heuristic_flat_target_fallback(self):
        assert resolve_beta(4, 0.0, "heuristic") == 2.5

    @pytest.mark.parametrize("decay_rate", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("beta_mode", ["heuristic", 0.7])
    def test_bad_decay_rate_rejected(self, decay_rate, beta_mode):
        with pytest.raises(ValueError, match="decay_rate must be finite and >= 0"):
            resolve_beta(4, decay_rate, beta_mode)

    def test_overflowing_heuristic_beta_rejected(self):
        with pytest.raises(ValueError, match=r"lambda = 1e-320 .*beta .*overflows to inf"):
            resolve_beta(4, 1e-320, "heuristic")
        assert resolve_beta(4, 1e-320, 0.7) == 0.7

    def test_calibrated_mode_leaves_the_decay_rate_to_calibration(self):
        with pytest.raises(ValueError, match="calibration requires a positive decay rate"):
            resolve_beta(4, -1.0, "calibrated")

    def test_invalid_modes_rejected(self):
        with pytest.raises(ValueError):
            resolve_beta(4, 1.0, "typo")
        with pytest.raises(ValueError):
            resolve_beta(4, 1.0, -1.0)
        with pytest.raises(ValueError):
            resolve_beta(4, 1.0, math.nan)
        with pytest.raises(ValueError):
            resolve_beta(4, 1.0, True)


class TestSweepConfig:
    def test_empty_grids_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(n_values=(), delta_values=(0.0,))
        with pytest.raises(ValueError):
            SweepConfig(n_values=(4,), delta_values=())

    def test_qubit_range_enforced(self):
        with pytest.raises(ValueError, match=r"^qubit count 0 outside simulable range 1\.\.26$"):
            SweepConfig(n_values=(0,), delta_values=(0.0,))
        with pytest.raises(ValueError, match=r"^qubit count 27 outside simulable range 1\.\.26$"):
            SweepConfig(n_values=(27,), delta_values=(0.0,))

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^pruning threshold must be finite and >= 0, got -0\.1$"):
            SweepConfig(n_values=(4,), delta_values=(-0.1,))

    @pytest.mark.parametrize("n_values, delta_values, message", [
        ((3, 3), (0.0,), "qubit count 3"),
        ((3, 4, 3), (0.0,), "qubit count 3"),
        ((3,), (0.0, 0.0123, 0.0123), "pruning threshold 0.0123"),
        ((3,), (0.0, -0.0), "pruning threshold -0.0"),
    ])
    def test_repeated_values_rejected(self, n_values, delta_values, message):
        with pytest.raises(ValueError, match=f"{message} is given more than once"):
            SweepConfig(n_values=n_values, delta_values=delta_values)

    def test_bad_beta_mode_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(n_values=(4,), delta_values=(0.0,), beta_mode="typo")


class TestRunSweep:
    def test_default_grid_has_eighteen_rows(self, default_sweep_rows):
        assert len(default_sweep_rows) == 18
        assert all(row.error is None for row in default_sweep_rows)
        assert all(row.method == "gaussian" for row in default_sweep_rows)

    def test_rows_sorted_by_n_then_delta(self, default_sweep_rows):
        keys = [(row.n, row.delta) for row in default_sweep_rows]
        assert keys == sorted(keys)

    def test_fidelity_never_below_analytic_bound(self, default_sweep_rows):
        for row in default_sweep_rows:
            assert row.fidelity >= row.fidelity_bound
            assert row.pruned_count >= 0

    def test_unpruned_rows_report_exact_unit_fidelity(self, default_sweep_rows):
        for row in default_sweep_rows:
            if row.pruned_count == 0:
                assert row.fidelity == 1.0

    def test_kl_insensitive_to_default_pruning(self, default_sweep_rows):
        by_cell = {(row.n, row.delta): row for row in default_sweep_rows}
        for n in range(10, 13):
            kl_full = by_cell[(n, 0.0)].kl
            kl_pruned = by_cell[(n, 0.0123)].kl
            assert abs(kl_pruned - kl_full) <= 0.10 * kl_full

    def test_gate_totals_grow_with_n(self, default_sweep_rows):
        for delta in (0.0, 0.0123):
            totals = [row.gate_total for row in default_sweep_rows if row.delta == delta]
            assert totals == sorted(totals)

    def test_csv_round_trip_and_determinism(self, default_sweep_rows):
        config = SweepConfig(n_values=tuple(range(4, 13)), delta_values=(0.0, 0.0123))
        rows_again = run_sweep(config)
        text_a = table_text(SWEEP_COLUMNS, default_sweep_rows, "csv")
        text_b = table_text(SWEEP_COLUMNS, rows_again, "csv")
        assert mask_wall_time(text_a) == mask_wall_time(text_b)

        parsed = list(csv.reader(io.StringIO(text_b)))
        assert parsed[0] == list(SWEEP_COLUMNS)
        assert len(parsed) == 1 + len(rows_again)
        # floats are written with 17 significant digits: parsing one back
        # must reproduce the exact double
        kl_cell = parsed[1][SWEEP_COLUMNS.index("kl")]
        assert float(kl_cell) == rows_again[0].kl

    def test_json_output_parses(self):
        rows = run_sweep(SweepConfig(n_values=(4, 5), delta_values=(0.0,)))
        payload = json.loads(table_text(SWEEP_COLUMNS, rows, "json"))
        assert [entry["n"] for entry in payload] == [4, 5]
        assert set(payload[0]) == set(SWEEP_COLUMNS)
        assert payload[0]["kl"] == rows[0].kl

    def test_baseline_rows(self):
        config = SweepConfig(
            n_values=(4, 5), delta_values=(0.0123,), include_baseline=True
        )
        rows = run_sweep(config)
        assert [row.method for row in rows] == ["gaussian", "baseline"] * 2
        baselines = [row for row in rows if row.method == "baseline"]
        for row, n in zip(baselines, (4, 5)):
            assert row.delta is None and row.beta is None and row.fidelity_bound is None
            assert row.gate_total == 7 * 2**n - 6 * n - 7
            assert row.fidelity == pytest.approx(1.0, abs=1e-10)
            assert row.fidelity == row.fidelity_target

    def test_failing_cell_becomes_error_row(self, monkeypatch):
        real_circuit = harness.gaussian_circuit

        def exploding_circuit(n, beta, delta):
            if n == 5:
                raise ValueError("synthetic failure\n  with newline")
            return real_circuit(n, beta, delta)

        monkeypatch.setattr(harness, "gaussian_circuit", exploding_circuit)
        rows = run_sweep(SweepConfig(n_values=(4, 5, 6), delta_values=(0.0,)))
        assert len(rows) == 3
        failed = [row for row in rows if row.error is not None]
        assert len(failed) == 1
        assert failed[0].n == 5
        assert failed[0].error == "synthetic failure with newline"
        assert failed[0].kl is None and failed[0].gate_total is None
        # the error row still serializes: one CSV line per row, no stray breaks
        text = table_text(SWEEP_COLUMNS, rows, "csv")
        assert len(text.splitlines()) == 4

    def test_each_circuit_is_simulated_once(self, monkeypatch):
        # at the default thresholds, 0.0123 prunes nothing for n <= 8, so
        # n = 4..10 with baselines needs 7 full, 2 pruned and 7 baseline runs
        simulated = []
        real_apply = harness.apply_circuit

        def recording_apply(state, circuit):
            simulated.append(circuit)
            return real_apply(state, circuit)

        monkeypatch.setattr(harness, "apply_circuit", recording_apply)
        rows = run_sweep(SweepConfig(n_values=tuple(range(4, 11)),
                                     delta_values=(0.0, 0.0123), include_baseline=True))
        assert len(rows) == 21 and all(row.error is None for row in rows)
        assert len(simulated) == 16
        assert len(set(simulated)) == 16

    def test_each_target_is_built_once(self, monkeypatch):
        built = []
        real_target = harness.target_distribution

        def recording_target(spec, n):
            built.append(n)
            return real_target(spec, n)

        monkeypatch.setattr(harness, "target_distribution", recording_target)
        rows = run_sweep(SweepConfig(n_values=(3, 4, 5), delta_values=(0.0, 0.1),
                                     include_baseline=True))
        assert len(rows) == 9 and all(row.error is None for row in rows)
        assert built == [3, 4, 5]

    @pytest.mark.parametrize("beta_mode, gaussian_error", [
        ("heuristic", "decay_rate must be finite and >= 0, got -1.0"),
        (0.7, "decay_rate must be finite and >= 0, got -1.0"),
        ("calibrated", "calibration requires a positive decay rate: "
                       "a flat target has no width to match"),
    ])
    def test_failed_target_rows(self, beta_mode, gaussian_error):
        # a Gaussian row names its beta's failure before its target's; the
        # baseline row needs only the target
        rows = run_sweep(SweepConfig(n_values=(2, 3), delta_values=(0.0, 0.1), decay_rate=-1.0,
                                     beta_mode=beta_mode, include_baseline=True))
        assert [(row.method, row.error) for row in rows] == [
            ("gaussian", gaussian_error), ("gaussian", gaussian_error),
            ("baseline", "decay_rate must be finite and >= 0, got -1.0"),
        ] * 2

    def test_baseline_above_its_cap_is_an_error_row(self):
        rows = run_sweep(SweepConfig(n_values=(17,), delta_values=(0.0, 0.1),
                                     include_baseline=True))
        assert [(row.method, row.error) for row in rows] == [
            ("gaussian", None), ("gaussian", None),
            ("baseline", "exact encoding is capped at 16 qubits, got 17")]
        assert rows[1].pruned_count > 0 and rows[2].gate_total is None

    def test_failed_beta_leaves_the_baseline_row(self):
        rows = run_sweep(SweepConfig(n_values=(3,), delta_values=(0.0,), decay_rate=1e-320,
                                     include_baseline=True))
        assert rows[0].error.startswith("lambda = 1e-320 is too small")
        assert rows[1].method == "baseline" and rows[1].error is None

    def test_pruned_fidelity_compares_with_the_full_circuit(self):
        (full_row, pruned_row) = run_sweep(SweepConfig(n_values=(11,), delta_values=(0.0, 0.1)))
        beta = pruned_row.beta
        full = simulate(harness.gaussian_circuit(11, beta, 0.0))
        pruned = simulate(harness.gaussian_circuit(11, beta, 0.1))
        assert pruned_row.pruned_count > 0
        assert pruned_row.fidelity == harness.fidelity(full, pruned)
        assert pruned_row.fidelity < 1.0 and full_row.fidelity == 1.0
        assert pruned_row.gate_total == full_row.gate_total - pruned_row.pruned_count

    def test_huge_threshold_gives_a_minus_infinite_bound(self):
        (row,) = run_sweep(SweepConfig(n_values=(3,), delta_values=(1e200,)))
        assert row.error is None and row.pruned_count == 3
        assert row.fidelity_bound == -math.inf


class TestWriters:
    def test_column_layouts_are_frozen(self):
        assert SWEEP_COLUMNS == (
            "n", "delta", "beta", "gate_total", "cphase_count", "pruned_count",
            "mse", "kl", "fidelity", "fidelity_bound", "wall_time_ms",
            "fidelity_target", "method", "error",
        )
        assert DISTRIBUTION_COLUMNS == ("index", "x_k", "target_prob", "prepared_prob")
        assert HISTOGRAM_COLUMNS == ("index", "x_k", "prepared_prob", "count", "frequency")
        assert CALIBRATION_COLUMNS == ("kind", "beta", "kl", "fidelity")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format must be csv or json"):
            table_text(SWEEP_COLUMNS, [], "xml")

    def test_cells_that_do_not_apply(self):
        rows = [(1, None, math.inf), (np.int64(2), "a,b", np.float64(-math.inf))]
        assert table_text(("a", "b", "c"), rows, "csv") == 'a,b,c\n1,,inf\n2,"a,b",-inf\n'
        assert json.loads(table_text(("a", "b", "c"), rows, "json")) == [
            {"a": 1, "b": None, "c": "inf"},
            {"a": 2, "b": "a,b", "c": "-inf"},
        ]

    def test_distribution_csv(self):
        result = run_prepare(3)
        parsed = list(csv.reader(io.StringIO(table_text(*distribution_table(result), "csv"))))
        assert parsed[0] == list(DISTRIBUTION_COLUMNS)
        assert len(parsed) == 1 + 8
        assert [row[0] for row in parsed[1:]] == [str(k) for k in range(8)]
        assert float(parsed[1][1]) == -2.0  # leftmost grid point
        prepared = np.array([float(row[3]) for row in parsed[1:]])
        np.testing.assert_allclose(prepared, result.prepared_probabilities, atol=1e-15)


class TestCalibrateBeta:
    def test_matches_frozen_argmin(self):
        result = calibrate_beta(1.0, 10)
        assert result.best_beta == pytest.approx(CALIBRATED_BETA_N10, abs=1e-3)
        assert result.n == 10 and result.decay_rate == 1.0 and result.delta == 0.0

    def test_beats_both_reference_candidates(self):
        result = calibrate_beta(1.0, 8)
        assert [candidate.beta for candidate in result.candidates] == [2.5, 0.25]
        assert result.best_kl <= min(c.kl for c in result.candidates) + 1e-12
        assert result.best_fidelity >= max(c.fidelity for c in result.candidates) - 1e-6

    def test_table_covers_the_search_grid(self):
        result = calibrate_beta(1.0, 4)
        assert len(result.table) == 61
        assert result.table[0].beta == pytest.approx(0.01)
        assert result.table[-1].beta == pytest.approx(10.0)

    def test_flat_target_rejected(self):
        with pytest.raises(ValueError, match="width"):
            calibrate_beta(0.0, 8)

    @pytest.mark.parametrize("decay_rate", [math.nan, math.inf, -math.inf])
    def test_non_finite_decay_rate_rejected(self, decay_rate):
        with pytest.raises(ValueError, match=f"requires a finite decay rate, got {decay_rate}"):
            calibrate_beta(decay_rate, 8)

    def test_qubit_cap(self):
        with pytest.raises(ValueError, match=r"^calibration supports 2\.\.16 qubits, got 17$"):
            calibrate_beta(1.0, 17)

    @pytest.mark.parametrize("decay_rate", [0.1, 1.0, 50.0])
    def test_one_qubit_is_refused_by_name(self, decay_rate):
        # rotation_angle(0, beta) is pi/2 for every beta, so the KL is flat
        with pytest.raises(ValueError, match=r"^calibration needs at least 2 qubits: at n = 1 "
                                             r"the only angle is rotation_angle\(0, beta\) = pi/2"):
            calibrate_beta(decay_rate, 1)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^pruning threshold must be finite and >= 0, got -0\.5$"):
            calibrate_beta(1.0, 8, delta=-0.5)

    @pytest.mark.parametrize("decay_rate", [2000.0, 1e-4])
    def test_edge_of_search_range_is_an_error(self, decay_rate):
        with pytest.raises(ValueError, match="search bracket exhausted"):
            calibrate_beta(decay_rate, 6)

    def test_pruned_calibration_uses_gate_level_path(self):
        result = calibrate_beta(1.0, 9, delta=0.0123)
        assert result.delta == 0.0123
        assert result.best_beta == pytest.approx(2.494, abs=5e-2)
