"""Tests of the experiment sweep harness (PR 7).

Covers the JSONL result logger (schema validation, parse errors), grid
loading/validation, end-to-end sweeps on a tiny grid (determinism, the
attackers-disabled digest-equality acceptance check) and headless plot
rendering with the dependency-free SVG backend.
"""

import importlib.util
import json
import os
import sys

import pytest

from repro.exceptions import ConfigurationError
from repro.topology.generator import SCALES, scale_config

_BENCHMARKS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)
if _BENCHMARKS not in sys.path:
    sys.path.insert(0, _BENCHMARKS)

import plot_results  # noqa: E402
import result_logger  # noqa: E402
import run_benchmarks  # noqa: E402
import run_experiments  # noqa: E402
from result_logger import (  # noqa: E402
    ResultLogger,
    ResultLoggerError,
    iter_results,
    load_results,
)


def _record(**overrides):
    record = {
        "schema": result_logger.SCHEMA_VERSION,
        "grid": "g",
        "scenario": "clean",
        "policy": "don",
        "scale": "tiny",
        "seed": 7,
        "metrics": {"messages_sent": 10},
    }
    record.update(overrides)
    return record


def _tiny_grid(scenarios, seed=21, periods=2, **scenario_tables):
    grid = {
        "grid": {
            "name": "test-grid",
            "seed": seed,
            "periods": periods,
            "verify_signatures": True,
            "scenarios": scenarios,
            "policies": ["don"],
            "scales": ["tiny"],
        },
        "traffic": {
            "demand_mbps": 500.0,
            "flows": 50,
            "max_pairs": 4,
            "rounds_per_period": 2,
        },
    }
    if scenario_tables:
        grid["scenarios"] = scenario_tables
    return grid


class TestResultLogger:
    def test_append_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        logger = ResultLogger(path)
        logger.append(_record(seed=1))
        logger.append(_record(seed=2))
        assert logger.records_written == 2
        loaded = load_results(path)
        assert [record["seed"] for record in loaded] == [1, 2]

    def test_missing_required_field_rejected(self, tmp_path):
        logger = ResultLogger(str(tmp_path / "r.jsonl"))
        bad = _record()
        del bad["metrics"]
        with pytest.raises(ResultLoggerError):
            logger.append(bad)

    def test_non_dict_metrics_rejected(self, tmp_path):
        logger = ResultLogger(str(tmp_path / "r.jsonl"))
        with pytest.raises(ResultLoggerError):
            logger.append(_record(metrics=[1, 2]))

    def test_malformed_line_names_its_line_number(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(
            json.dumps(_record()) + "\n" + "{not json\n", encoding="utf-8"
        )
        with pytest.raises(ResultLoggerError, match=":2:"):
            list(iter_results(str(path)))

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(json.dumps(_record()) + "\n\n", encoding="utf-8")
        assert len(load_results(str(path))) == 1

    def test_truncation_vs_append_mode(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        ResultLogger(path).append(_record(seed=1))
        ResultLogger(path, append=True).append(_record(seed=2))
        assert len(load_results(path)) == 2
        ResultLogger(path).append(_record(seed=3))
        assert [r["seed"] for r in load_results(path)] == [3]


class TestGridLoading:
    def test_unknown_scenario_rejected(self, tmp_path):
        path = tmp_path / "grid.toml"
        path.write_text(
            '[grid]\nname = "g"\nscenarios = ["nope"]\n'
            'policies = ["don"]\nscales = ["tiny"]\n',
            encoding="utf-8",
        )
        with pytest.raises(SystemExit, match="unknown scenario"):
            run_experiments.load_grid(str(path))

    def test_unknown_policy_rejected(self, tmp_path):
        path = tmp_path / "grid.toml"
        path.write_text(
            '[grid]\nname = "g"\nscenarios = ["clean"]\n'
            'policies = ["bgp"]\nscales = ["tiny"]\n',
            encoding="utf-8",
        )
        with pytest.raises(SystemExit, match="unknown policy"):
            run_experiments.load_grid(str(path))

    def test_missing_grid_table_rejected(self, tmp_path):
        path = tmp_path / "grid.toml"
        path.write_text('[traffic]\ndemand_mbps = 1.0\n', encoding="utf-8")
        with pytest.raises(SystemExit, match="missing"):
            run_experiments.load_grid(str(path))

    def test_checked_in_grids_load(self):
        repo = os.path.dirname(_BENCHMARKS)
        for name in ("adversarial_small.toml", "smoke.toml"):
            grid = run_experiments.load_grid(
                os.path.join(repo, "examples", "grids", name)
            )
            assert run_experiments.grid_cells(grid)

    def test_cells_are_sorted(self):
        grid = _tiny_grid(["gray", "clean"])
        grid["grid"]["policies"] = ["don", "dob300"]
        cells = run_experiments.grid_cells(grid)
        assert cells == sorted(cells)
        assert len(cells) == 4


def _load_bench_conftest():
    """Import ``benchmarks/conftest.py`` under a name that cannot clash."""
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", os.path.join(_BENCHMARKS, "conftest.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestScalePresets:
    @pytest.mark.parametrize("scale", SCALES)
    def test_benchmark_entry_points_agree(self, scale, monkeypatch):
        monkeypatch.setenv("IREC_BENCH_SCALE", scale)
        expected = scale_config(scale, seed=11)
        assert _load_bench_conftest().bench_topology_config(seed=11) == expected
        assert run_benchmarks.scale_topology_config(scale, seed=11) == expected
        assert run_experiments.scale_config(scale, 11) == expected

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scale"):
            scale_config("huge")


class TestSweepEndToEnd:
    def test_sweep_writes_valid_jsonl(self, tmp_path):
        grid = _tiny_grid(["clean"])
        out = str(tmp_path / "out.jsonl")
        written = run_experiments.run_sweep(grid, out, quiet=True)
        assert written == 1
        (record,) = load_results(out)
        assert record["scenario"] == "clean"
        assert record["policy"] == "don"
        assert record["seed"] == 21
        metrics = record["metrics"]
        for key in (
            "messages_sent",
            "convergence_digest",
            "traffic_mean_carried_mbps",
            "revocations_received",
            "wall_time_s",
        ):
            assert key in metrics
        assert metrics["traffic_rounds"] > 0

    def test_sweep_is_deterministic(self, tmp_path):
        grid = _tiny_grid(["gray"], gray={"links": 1, "drop_rate": 1.0})
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        run_experiments.run_sweep(grid, str(first), quiet=True)
        run_experiments.run_sweep(grid, str(second), quiet=True)
        # Strip the wall-time stamp (the only non-deterministic field).
        def stable(path):
            records = load_results(str(path))
            for record in records:
                record["metrics"].pop("wall_time_s")
            return records

        assert stable(first) == stable(second)

    def test_disabled_byzantine_cell_matches_clean_digest(self, tmp_path):
        """Acceptance: attackers off ⇒ the cell is bit-for-bit the clean run."""
        clean_grid = _tiny_grid(["clean"])
        disabled_grid = _tiny_grid(
            ["byzantine"], byzantine={"enabled": False}
        )
        clean_out = tmp_path / "clean.jsonl"
        disabled_out = tmp_path / "disabled.jsonl"
        run_experiments.run_sweep(clean_grid, str(clean_out), quiet=True)
        run_experiments.run_sweep(disabled_grid, str(disabled_out), quiet=True)
        (clean,) = load_results(str(clean_out))
        (disabled,) = load_results(str(disabled_out))
        assert (
            disabled["metrics"]["convergence_digest"]
            == clean["metrics"]["convergence_digest"]
        )
        assert (
            disabled["metrics"]["traffic_trace_digest"]
            == clean["metrics"]["traffic_trace_digest"]
        )

    def test_byzantine_cell_rejects_every_forgery(self, tmp_path):
        grid = _tiny_grid(
            ["byzantine"],
            byzantine={"enabled": True, "forgeries": 2, "replays": 0},
        )
        out = str(tmp_path / "byz.jsonl")
        run_experiments.run_sweep(grid, out, quiet=True)
        (record,) = load_results(out)
        metrics = record["metrics"]
        assert metrics["revocations_received"] > 0
        assert (
            metrics["revocations_rejected_invalid"]
            == metrics["revocations_received"]
        )


class TestPlotting:
    def _results(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        logger = ResultLogger(path)
        for scenario in ("clean", "gray"):
            for policy, sent in (("don", 100), ("dob300", 150)):
                logger.append(
                    _record(
                        scenario=scenario,
                        policy=policy,
                        metrics={
                            "messages_sent": sent,
                            "gray_dropped": 5 if scenario == "gray" else 0,
                        },
                    )
                )
        return path

    def test_svg_backend_renders_headlessly(self, tmp_path):
        results = self._results(tmp_path)
        out_dir = str(tmp_path / "plots")
        written = plot_results.plot_all(
            results, out_dir, metrics=("messages_sent", "gray_dropped"), fmt="svg"
        )
        assert len(written) == 2
        for path in written:
            content = open(path, encoding="utf-8").read()
            assert content.startswith("<svg")
            assert "</svg>" in content

    def test_absent_metric_is_skipped_not_fatal(self, tmp_path):
        results = self._results(tmp_path)
        written = plot_results.plot_all(
            results,
            str(tmp_path / "plots"),
            metrics=("messages_sent", "no_such_metric"),
            fmt="svg",
        )
        assert len(written) == 1

    def test_group_metric_averages_repeats(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        logger = ResultLogger(path)
        logger.append(_record(seed=1, metrics={"m": 10}))
        logger.append(_record(seed=2, metrics={"m": 30}))
        scenarios, policies, values = plot_results.group_metric(
            load_results(path), "m"
        )
        assert scenarios == ["clean"]
        assert policies == ["don"]
        assert values[("clean", "don")] == pytest.approx(20.0)

    def test_empty_results_fail_loudly(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(SystemExit):
            plot_results.plot_all(str(path), str(tmp_path / "plots"))
