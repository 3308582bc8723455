"""scripts/bench_pairs.py: the summary written into the committed
BENCH_*.json files, on synthetic pairs, and the layer timings, run on
this checkout at a tiny n."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _pairs(parent: list[float], change: list[float]) -> list[dict]:
    return [{"pair": i + 1, "parent": {"t": p, "rate": p}, "change": {"t": c, "rate": c}}
            for i, (p, c) in enumerate(zip(parent, change))]


class TestSummary:
    def test_medians_quartiles_wins_and_ratio(self):
        # pair 2 is a tie, pair 3 a loss for a lower-is-better metric
        pairs = _pairs([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 3.5, 3.0, 4.0])
        out = bench_pairs.summary(pairs, {"t": "lower", "rate": "higher"})
        assert out["t"] == {
            "parent_median": 3.0,
            "parent_quartiles": [1.5, 4.5],  # exclusive method: positions 1.5 and 4.5
            "change_median": 3.0,
            "change_quartiles": [1.25, 3.75],
            "change_over_parent": 1.0,
            "change_wins": "3/5",
        }
        # the tie counts for neither side in either direction
        assert out["rate"]["change_wins"] == "1/5"

    def test_ratio_of_medians(self):
        out = bench_pairs.summary(_pairs([2.0, 4.0, 8.0], [1.0, 3.0, 5.0]), {"t": "lower"})
        assert out["t"]["change_over_parent"] == 0.75
        assert out["t"]["change_wins"] == "3/3"

    def test_one_pair_has_its_value_as_both_quartiles(self):
        out = bench_pairs.summary(_pairs([2.0], [2.0]), {"t": "lower"})
        assert out["t"]["parent_quartiles"] == [2.0, 2.0]
        assert out["t"]["change_quartiles"] == [2.0, 2.0]
        assert out["t"]["change_wins"] == "0/1"


class TestLayers:
    def test_layer_timings_at_a_tiny_n(self, tmp_path, monkeypatch):
        # both sides are this checkout; the file goes to tmp_path
        root = Path(__file__).resolve().parent.parent
        (tmp_path / "BENCHMARK.json").write_bytes((root / "BENCHMARK.json").read_bytes())
        monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
        monkeypatch.setattr(bench_pairs, "LAYER_PAIRS", 2)
        code = bench_pairs.main(["--parent", str(root), "--change", str(root), "--name", "layers",
                                 "--layers", "3", "--what", "a test"])
        assert code == 0
        record = json.loads((tmp_path / "BENCH_layers.json").read_text(encoding="utf-8"))
        assert record["workloads"] == {}
        pairs = record["layers"]["pairs"]
        assert [pair["first"] for pair in pairs] == ["parent", "change"]
        layers = ["gaussian_apply_circuit_n3_s", "exact_build_n3_s", "exact_apply_circuit_n3_s"]
        for pair in pairs:
            for side in bench_pairs.SIDES:
                assert list(pair[side]) == layers
                assert all(0.0 < pair[side][layer] < 1.0 for layer in layers)
        for layer in layers:
            assert record["layers"]["summary"][layer]["change_wins"].endswith("/2")
