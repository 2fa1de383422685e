"""The CI benchmark regression gate (satellite of the procpool PR).

``benchmarks/check_regression.py`` is CI-critical: a bug that never
fails (or always fails) silently disables the perf gate.  These tests
drive the comparison logic and the CLI surface end to end against
synthetic reports.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_regression",
    Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "check_regression.py",
)
check_regression = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_regression)


BASE = {
    "quick": True,
    "warm_speedup": 10.0,
    "warm_cell_ms": 8.0,
    "cold_cell_ms": 40.0,
}


class TestCompare:
    def test_identical_reports_pass(self):
        verdict = check_regression.compare(BASE, dict(BASE), 0.30, {})
        assert verdict["ok"]
        assert verdict["regressions"] == []

    def test_within_tolerance_passes_both_directions(self):
        current = {**BASE, "warm_speedup": 7.5, "warm_cell_ms": 10.0}
        verdict = check_regression.compare(BASE, current, 0.30, {})
        assert verdict["ok"], verdict

    def test_speedup_drop_beyond_tolerance_regresses(self):
        current = {**BASE, "warm_speedup": 6.0}  # -40%
        verdict = check_regression.compare(BASE, current, 0.30, {})
        assert verdict["regressions"] == ["warm_speedup"]

    def test_cell_ms_growth_beyond_tolerance_regresses(self):
        current = {**BASE, "warm_cell_ms": 12.0}  # +50%, lower-is-better
        verdict = check_regression.compare(BASE, current, 0.30, {})
        assert verdict["regressions"] == ["warm_cell_ms"]

    def test_cold_cell_growth_regresses_though_the_ratio_improves(self):
        # a slower cold chain (attribution sliding back to a span scan
        # per block) *raises* warm_speedup; only cold_cell_ms sees it
        current = {**BASE, "cold_cell_ms": 120.0, "warm_speedup": 30.0}
        verdict = check_regression.compare(BASE, current, 0.30, {})
        assert verdict["regressions"] == ["cold_cell_ms"]
        assert verdict["metrics"]["cold_cell_ms"]["direction"] == "lower"

    def test_improvements_never_fail(self):
        current = {
            **BASE,
            "warm_speedup": 100.0,
            "warm_cell_ms": 0.5,
            "cold_cell_ms": 4.0,
        }
        verdict = check_regression.compare(BASE, current, 0.30, {})
        assert verdict["ok"]

    def test_per_metric_override_loosens_only_that_metric(self):
        current = {**BASE, "warm_cell_ms": 12.0, "warm_speedup": 6.0}
        verdict = check_regression.compare(
            BASE, current, 0.30, {"warm_cell_ms": 0.60}
        )
        assert verdict["regressions"] == ["warm_speedup"]

    def test_missing_metric_is_not_comparable_not_a_crash(self):
        verdict = check_regression.compare(BASE, {"quick": True}, 0.30, {})
        assert all(
            row["verdict"] == "not-comparable"
            for row in verdict["metrics"].values()
        )
        assert verdict["ok"]  # nothing measurable, nothing gated


class TestCli:
    def _write(self, tmp_path: Path, name: str, payload: dict) -> Path:
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    def _run(self, tmp_path, current, baseline, *extra):
        trend = tmp_path / "trend.json"
        code = check_regression.main(
            [
                "--current", str(self._write(tmp_path, "cur.json", current)),
                "--baseline", str(self._write(tmp_path, "base.json", baseline)),
                "--trend-out", str(trend),
                *extra,
            ]
        )
        return code, json.loads(trend.read_text())

    def test_pass_writes_trend(self, tmp_path):
        code, trend = self._run(tmp_path, dict(BASE), dict(BASE))
        assert code == 0
        assert trend["ok"]
        assert trend["metrics"]["warm_speedup"]["delta"] == 0.0

    def test_regression_fails_and_still_writes_trend(self, tmp_path):
        code, trend = self._run(
            tmp_path, {**BASE, "warm_speedup": 1.0}, dict(BASE)
        )
        assert code == 1
        assert trend["regressions"] == ["warm_speedup"]

    def test_grid_mismatch_skips_gate(self, tmp_path):
        code, trend = self._run(
            tmp_path, {**BASE, "quick": False, "warm_speedup": 1.0}, BASE
        )
        assert code == 0
        assert "grid mismatch" in trend["skipped"]

    def test_same_quick_flag_but_different_grid_also_skips(self, tmp_path):
        # the quick flag alone is not comparability: an edited quick
        # grid measures different work even though both runs are quick
        current = {
            **BASE,
            "grid": ["MobileNetV3Small/bs4"],
            "warm_speedup": 1.0,
        }
        baseline = {**BASE, "grid": ["MnasNet/bs16"]}
        code, trend = self._run(tmp_path, current, baseline)
        assert code == 0
        assert "grid mismatch" in trend["skipped"]

    def test_missing_current_is_exit_2(self, tmp_path):
        baseline = self._write(tmp_path, "base.json", BASE)
        code = check_regression.main(
            ["--current", str(tmp_path / "nope.json"),
             "--baseline", str(baseline)]
        )
        assert code == 2

    def test_unknown_override_metric_rejected(self):
        with pytest.raises(SystemExit):
            check_regression.parse_overrides(["no_such_metric=0.5"])


def test_checked_in_baseline_parses_and_has_the_gated_metrics():
    baseline_path = (
        Path(__file__).resolve().parent.parent
        / "benchmarks"
        / "baselines"
        / "BENCH_pipeline.baseline.json"
    )
    baseline = json.loads(baseline_path.read_text())
    for metric in check_regression.METRICS:
        assert isinstance(baseline[metric], (int, float)), metric
    assert baseline["peaks_byte_identical"] is True


class TestPresets:
    """The artifact-store lane rides the same gate via --preset."""

    ARTIFACTS_BASE = {
        "quick": True,
        "store_speedup": 4.0,
        "store_cell_ms": 40.0,
    }

    def test_pipeline_preset_is_the_module_metrics(self):
        metrics, basename = check_regression.METRIC_PRESETS["pipeline"]
        assert metrics is check_regression.METRICS
        assert basename == "BENCH_pipeline"
        assert metrics["cold_cell_ms"] == "lower"

    def test_pipeline_preset_cli_fails_on_a_slower_cold_path(
        self, tmp_path, capsys
    ):
        current = tmp_path / "cur.json"
        current.write_text(json.dumps({**BASE, "cold_cell_ms": 130.0}))
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(BASE))
        code = check_regression.main(
            [
                "--preset", "pipeline",
                "--current", str(current),
                "--baseline", str(baseline),
                "--trend-out", str(tmp_path / "trend.json"),
            ]
        )
        assert code == 1
        assert "cold_cell_ms" in capsys.readouterr().err

    def test_compare_with_explicit_metrics(self):
        current = {**self.ARTIFACTS_BASE, "store_speedup": 2.0}  # -50%
        metrics = check_regression.METRIC_PRESETS["artifacts"][0]
        verdict = check_regression.compare(
            self.ARTIFACTS_BASE, current, 0.30, {}, metrics
        )
        assert verdict["regressions"] == ["store_speedup"]

    def test_artifacts_preset_cli(self, tmp_path):
        current = tmp_path / "cur.json"
        current.write_text(json.dumps(self.ARTIFACTS_BASE))
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(self.ARTIFACTS_BASE))
        trend = tmp_path / "trend.json"
        code = check_regression.main(
            [
                "--preset", "artifacts",
                "--current", str(current),
                "--baseline", str(baseline),
                "--trend-out", str(trend),
            ]
        )
        assert code == 0
        assert "store_speedup" in json.loads(trend.read_text())["metrics"]

    def test_regression_message_names_metric_and_numbers(
        self, tmp_path, capsys
    ):
        current = tmp_path / "cur.json"
        current.write_text(
            json.dumps({**self.ARTIFACTS_BASE, "store_cell_ms": 80.0})
        )
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(self.ARTIFACTS_BASE))
        code = check_regression.main(
            [
                "--preset", "artifacts",
                "--current", str(current),
                "--baseline", str(baseline),
                "--trend-out", str(tmp_path / "trend.json"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        # the failure says which metric tripped, with its numbers
        assert "store_cell_ms" in err
        assert "lower-is-better" in err
        assert "40" in err and "80" in err
        assert "+100.0%" in err

    def test_checked_in_artifacts_baseline_has_the_gated_metrics(self):
        baseline_path = (
            Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "baselines"
            / "BENCH_artifacts.baseline.json"
        )
        baseline = json.loads(baseline_path.read_text())
        metrics = check_regression.METRIC_PRESETS["artifacts"][0]
        for metric in metrics:
            assert isinstance(baseline[metric], (int, float)), metric
        assert baseline["peaks_byte_identical"] is True
        assert baseline["delta_identity"]["identical"] is True

    CONTROL_BASE = {
        "quick": True,
        "well_p99_ratio": 1.2,
        "hostile_shed_fraction": 0.85,
        "admission_overhead_us": 2.0,
    }

    def test_control_preset_metric_directions(self):
        metrics, basename = check_regression.METRIC_PRESETS["control"]
        assert basename == "BENCH_control"
        assert metrics["well_p99_ratio"] == "lower"
        assert metrics["hostile_shed_fraction"] == "higher"
        assert metrics["admission_overhead_us"] == "lower"

    def test_control_preset_catches_fairness_regression(self, tmp_path):
        # the well-behaved tenant's p99 doubling relative to solo is
        # exactly what this lane exists to stop
        current = tmp_path / "cur.json"
        current.write_text(
            json.dumps({**self.CONTROL_BASE, "well_p99_ratio": 2.4})
        )
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(self.CONTROL_BASE))
        code = check_regression.main(
            [
                "--preset", "control",
                "--current", str(current),
                "--baseline", str(baseline),
                "--trend-out", str(tmp_path / "trend.json"),
            ]
        )
        assert code == 1

    def test_control_preset_catches_shed_fraction_drop(self, tmp_path):
        # hostile sheds collapsing means the flood is reaching the
        # queues — higher-is-better metric, so a drop regresses
        current = tmp_path / "cur.json"
        current.write_text(
            json.dumps({**self.CONTROL_BASE, "hostile_shed_fraction": 0.3})
        )
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(self.CONTROL_BASE))
        code = check_regression.main(
            [
                "--preset", "control",
                "--current", str(current),
                "--baseline", str(baseline),
                "--trend-out", str(tmp_path / "trend.json"),
            ]
        )
        assert code == 1

    def test_checked_in_control_baseline_has_the_gated_metrics(self):
        baseline_path = (
            Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "baselines"
            / "BENCH_control.baseline.json"
        )
        baseline = json.loads(baseline_path.read_text())
        metrics = check_regression.METRIC_PRESETS["control"][0]
        for metric in metrics:
            assert isinstance(baseline[metric], (int, float)), metric
        assert baseline["quick"] is True  # CI runs --quick
        assert baseline["cross_driver"]["identical"] is True
        assert baseline["well_behaved"]["quota_shed"] == 0

    def test_unknown_preset_exits_2_listing_valid_presets(self, capsys):
        code = check_regression.main(["--preset", "no-such-preset"])
        assert code == 2
        err = capsys.readouterr().err
        assert "no-such-preset" in err
        for preset in check_regression.METRIC_PRESETS:
            assert preset in err


_RENDER_SPEC = importlib.util.spec_from_file_location(
    "render_trend",
    Path(__file__).resolve().parent.parent / "benchmarks" / "render_trend.py",
)
render_trend = importlib.util.module_from_spec(_RENDER_SPEC)
_RENDER_SPEC.loader.exec_module(render_trend)


class TestRenderTrend:
    """The human-readable face of the gate's trend artifact."""

    OK_TREND = {
        "baseline_grid": ["MnasNet/bs16"],
        "current_grid": ["MnasNet/bs16"],
        "metrics": {
            "warm_speedup": {
                "baseline": 10.0, "current": 9.0, "delta": -0.1,
                "direction": "higher", "tolerance": 0.3, "verdict": "ok",
            },
        },
        "regressions": [],
        "ok": True,
    }

    def _write(self, tmp_path: Path, payload) -> Path:
        path = tmp_path / "trend.json"
        path.write_text(
            payload if isinstance(payload, str) else json.dumps(payload)
        )
        return path

    def test_ok_trend_renders_table_and_verdict(self, tmp_path):
        text = render_trend.render_file(self._write(tmp_path, self.OK_TREND))
        assert "warm_speedup" in text
        assert "-10.0%" in text
        assert "ok: all metrics within tolerance" in text

    def test_regression_trend_names_the_metric(self, tmp_path):
        trend = json.loads(json.dumps(self.OK_TREND))
        trend["metrics"]["warm_speedup"]["verdict"] = "regression"
        trend["regressions"] = ["warm_speedup"]
        trend["ok"] = False
        text = render_trend.render_file(self._write(tmp_path, trend))
        assert "REGRESSIONS: warm_speedup" in text

    def test_skipped_trend_says_so_instead_of_a_table(self, tmp_path):
        trend = {"skipped": "grid mismatch: refresh the baseline"}
        text = render_trend.render_file(self._write(tmp_path, trend))
        assert "SKIPPED: grid mismatch" in text
        assert "warm_speedup" not in text

    def test_cli_writes_rendered_artifact(self, tmp_path):
        trend = self._write(tmp_path, self.OK_TREND)
        out = tmp_path / "trend.txt"
        code = render_trend.main(["--trend", str(trend), "--out", str(out)])
        assert code == 0
        assert "ok: all metrics within tolerance" in out.read_text()

    def test_cli_missing_input_is_exit_2(self, tmp_path):
        code = render_trend.main(
            ["--trend", str(tmp_path / "nope.json"),
             "--out", str(tmp_path / "out.txt")]
        )
        assert code == 2

    def test_cli_malformed_json_is_exit_2(self, tmp_path):
        trend = self._write(tmp_path, "{not json")
        out = tmp_path / "out.txt"
        code = render_trend.main(["--trend", str(trend), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_malformed_metric_entry_is_skipped_not_a_crash(self, tmp_path):
        # a hand-edited or truncated trend can leave a metric entry as a
        # bare number; the renderer must drop the row and keep the rest
        trend = json.loads(json.dumps(self.OK_TREND))
        trend["metrics"]["warm_cell_ms"] = 8.0
        text = render_trend.render_file(self._write(tmp_path, trend))
        assert "warm_speedup" in text  # the intact row survived
        assert "warm_cell_ms" in text
        assert "skipped" in text
        assert "ok: all metrics within tolerance" in text
