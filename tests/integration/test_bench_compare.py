"""Unit tests for the benchmark regression gate (tools/bench_compare.py)."""

import copy
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]

sys.path.insert(0, str(ROOT / "tools"))
try:
    import bench_compare
finally:
    sys.path.pop(0)


def _pipeline_doc(stage_walls):
    return {
        "benchmark": "pipeline",
        "sections": {
            "stages": [
                {"stage": name, "wall_s": wall, "cpu_s": wall, "calls": 1}
                for name, wall in stage_walls.items()
            ],
            "workload": {"instances": 480},
        },
    }


def _remap_doc(peak_reduction):
    return {
        "benchmark": "remap",
        "sections": {
            "remap": {
                "swaps_accepted": 2,
                "peak_reduction": dict(peak_reduction),
            }
        },
    }


def _capture_section(capture_wall, bare_wall, *, cpu_count=4, workers=4):
    return {
        "workers": workers,
        "cpu_count": cpu_count,
        "capture_wall_s": capture_wall,
        "no_capture_wall_s": bare_wall,
        "overhead_frac": capture_wall / bare_wall - 1.0,
        "max_overhead_frac": 0.05,
    }


def _recovery_section(guarded_wall, bare_wall, *, cpu_count=4, workers=4):
    return {
        "workers": workers,
        "cpu_count": cpu_count,
        "guarded_wall_s": guarded_wall,
        "bare_wall_s": bare_wall,
        "overhead_frac": guarded_wall / bare_wall - 1.0,
        "max_overhead_frac": 0.03,
    }


def _engine_doc(
    serial, parallel, *, cpu_count=4, workers=4, capture=True, recovery=True
):
    """An engine document; ``capture``/``recovery`` default to sections
    with zero overhead and are omitted when falsy."""
    if capture is True:
        capture = _capture_section(
            parallel, parallel, cpu_count=cpu_count, workers=workers
        )
    if recovery is True:
        recovery = _recovery_section(
            parallel, parallel, cpu_count=cpu_count, workers=workers
        )
    sections = {
        "stages": [
            {"stage": "chaos_suite_serial", "wall_s": serial, "calls": 1},
            {"stage": "chaos_suite_parallel", "wall_s": parallel, "calls": 1},
        ],
        "parallel": {
            "workers": workers,
            "cpu_count": cpu_count,
            "serial_wall_s": serial,
            "parallel_wall_s": parallel,
            "speedup": serial / parallel,
        },
    }
    if capture:
        sections["capture"] = capture
    if recovery:
        sections["recovery"] = recovery
    return {"benchmark": "engine", "sections": sections}


def _scale_doc(stage_walls):
    return {
        "benchmark": "scale",
        "sections": {
            "stages": [
                {"stage": name, "wall_s": wall, "calls": 1}
                for name, wall in stage_walls.items()
            ]
        },
    }


BASE_STAGES = {"synthesize": 0.2, "place": 0.19, "remap": 0.007}
BASE_PEAKS = {"rpp": 0.15, "suite": 0.02}


def _write_pair(directory, pipeline, remap):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "BENCH_pipeline.json").write_text(json.dumps(pipeline))
    (directory / "BENCH_remap.json").write_text(json.dumps(remap))


@pytest.fixture
def dirs(tmp_path):
    baseline = tmp_path / "baseline"
    current = tmp_path / "current"
    _write_pair(baseline, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
    return baseline, current


class TestComparePipeline:
    def test_identical_run_passes(self, dirs):
        baseline, current = dirs
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
        diff = bench_compare.compare_documents(baseline, current)
        assert diff["regressions"] == []
        assert all(row["status"] == "ok" for row in diff["pipeline"])

    def test_ten_x_slowdown_exits_nonzero(self, dirs):
        """The acceptance criterion: a 10x stage slowdown fails the gate."""
        baseline, current = dirs
        slowed = dict(BASE_STAGES, place=BASE_STAGES["place"] * 10)
        _write_pair(current, _pipeline_doc(slowed), _remap_doc(BASE_PEAKS))
        code = bench_compare.main(
            ["--baseline-dir", str(baseline), "--current-dir", str(current)]
        )
        assert code == 1

    def test_slowdown_within_tolerance_passes(self, dirs):
        baseline, current = dirs
        slowed = {name: wall * 2.5 for name, wall in BASE_STAGES.items()}
        _write_pair(current, _pipeline_doc(slowed), _remap_doc(BASE_PEAKS))
        code = bench_compare.main(
            ["--baseline-dir", str(baseline), "--current-dir", str(current)]
        )
        assert code == 0

    def test_missing_stage_is_regression(self, dirs):
        baseline, current = dirs
        fewer = {k: v for k, v in BASE_STAGES.items() if k != "remap"}
        _write_pair(current, _pipeline_doc(fewer), _remap_doc(BASE_PEAKS))
        diff = bench_compare.compare_documents(baseline, current)
        (row,) = [r for r in diff["pipeline"] if r["stage"] == "remap"]
        assert row["status"] == "missing"
        assert any("remap" in item for item in diff["regressions"])

    def test_new_stage_is_informational(self, dirs):
        baseline, current = dirs
        more = dict(BASE_STAGES, telemetry=0.001)
        _write_pair(current, _pipeline_doc(more), _remap_doc(BASE_PEAKS))
        diff = bench_compare.compare_documents(baseline, current)
        (row,) = [r for r in diff["pipeline"] if r["stage"] == "telemetry"]
        assert row["status"] == "new"
        assert diff["regressions"] == []

    def test_floor_absorbs_jitter_on_fast_stages(self, dirs):
        baseline, current = dirs
        # 0.007s -> 0.04s is nearly 6x but under the 0.05s absolute floor.
        jittery = dict(BASE_STAGES, remap=0.04)
        _write_pair(current, _pipeline_doc(jittery), _remap_doc(BASE_PEAKS))
        diff = bench_compare.compare_documents(baseline, current)
        (row,) = [r for r in diff["pipeline"] if r["stage"] == "remap"]
        assert row["status"] == "ok"


class TestCompareRemap:
    def test_peak_reduction_drop_is_regression(self, dirs):
        baseline, current = dirs
        worse = dict(BASE_PEAKS, rpp=BASE_PEAKS["rpp"] - 0.1)
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(worse))
        diff = bench_compare.compare_documents(baseline, current)
        (row,) = [r for r in diff["remap"] if r["level"] == "rpp"]
        assert row["status"] == "regression"
        assert diff["regressions"]

    def test_small_drop_within_tolerance_passes(self, dirs):
        baseline, current = dirs
        wobble = dict(BASE_PEAKS, rpp=BASE_PEAKS["rpp"] - 0.01)
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(wobble))
        diff = bench_compare.compare_documents(baseline, current)
        assert diff["regressions"] == []

    def test_improvement_passes(self, dirs):
        baseline, current = dirs
        better = {level: value + 0.05 for level, value in BASE_PEAKS.items()}
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(better))
        diff = bench_compare.compare_documents(baseline, current)
        assert diff["regressions"] == []


class TestCompareEngine:
    def _write(self, directory, doc):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "BENCH_engine.json").write_text(json.dumps(doc))

    def test_fast_pool_on_multi_cpu_passes(self, dirs):
        baseline, current = dirs
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
        self._write(baseline, _engine_doc(2.0, 1.0))
        self._write(current, _engine_doc(2.0, 1.0))
        diff = bench_compare.compare_documents(baseline, current)
        assert diff["engine_parallel"]["status"] == "ok"
        assert diff["regressions"] == []

    def test_slow_pool_on_multi_cpu_is_regression(self, dirs):
        baseline, current = dirs
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
        self._write(baseline, _engine_doc(2.0, 1.0))
        self._write(current, _engine_doc(2.0, 1.8))  # 1.11x < 1.3x
        diff = bench_compare.compare_documents(baseline, current)
        assert diff["engine_parallel"]["status"] == "regression"
        assert any("engine speedup" in item for item in diff["regressions"])

    def test_single_cpu_skips_the_speedup_gate(self, dirs):
        baseline, current = dirs
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
        self._write(baseline, _engine_doc(2.0, 2.4, cpu_count=1, workers=2))
        self._write(current, _engine_doc(2.0, 2.4, cpu_count=1, workers=2))
        diff = bench_compare.compare_documents(baseline, current)
        assert diff["engine_parallel"]["status"] == "skipped"
        assert diff["regressions"] == []

    def test_absent_engine_documents_are_tolerated(self, dirs):
        baseline, current = dirs
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
        diff = bench_compare.compare_documents(baseline, current)
        assert diff["engine"] == []
        assert diff["engine_parallel"] is None
        assert diff["regressions"] == []

    def test_missing_baseline_still_gates_the_fresh_run(self, dirs):
        baseline, current = dirs
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
        self._write(current, _engine_doc(2.0, 1.9))  # no baseline doc
        diff = bench_compare.compare_documents(baseline, current)
        assert diff["engine"] == []
        assert diff["engine_parallel"]["status"] == "regression"

    def test_vanished_fresh_document_is_lost_coverage(self, dirs):
        baseline, current = dirs
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
        self._write(baseline, _engine_doc(2.0, 1.0))
        diff = bench_compare.compare_documents(baseline, current)
        assert {row["status"] for row in diff["engine"]} == {"missing"}
        assert any("engine stage" in item for item in diff["regressions"])

    def test_custom_min_speedup_threshold(self, dirs):
        baseline, current = dirs
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
        self._write(current, _engine_doc(2.0, 1.8))
        diff = bench_compare.compare_documents(baseline, current, min_speedup=1.05)
        assert diff["engine_parallel"]["status"] == "ok"


class TestCompareCapture:
    def _write(self, directory, doc):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "BENCH_engine.json").write_text(json.dumps(doc))

    def test_small_overhead_passes(self, dirs):
        baseline, current = dirs
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
        self._write(
            current, _engine_doc(8.0, 2.0, capture=_capture_section(2.04, 2.0))
        )
        diff = bench_compare.compare_documents(baseline, current)
        assert diff["capture_gate"]["status"] == "ok"
        assert diff["regressions"] == []

    def test_large_overhead_is_regression(self, dirs):
        baseline, current = dirs
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
        # 20% over bare and well past the 0.05s floor.
        self._write(
            current, _engine_doc(8.0, 2.4, capture=_capture_section(2.4, 2.0))
        )
        diff = bench_compare.compare_documents(baseline, current)
        assert diff["capture_gate"]["status"] == "regression"
        assert any("capture overhead" in item for item in diff["regressions"])

    def test_floor_absorbs_jitter_on_fast_passes(self, dirs):
        baseline, current = dirs
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
        # 30% relative but only 30ms absolute: under the additive floor.
        self._write(
            current, _engine_doc(1.0, 0.13, capture=_capture_section(0.13, 0.1))
        )
        diff = bench_compare.compare_documents(baseline, current)
        assert diff["capture_gate"]["status"] == "ok"
        assert diff["regressions"] == []

    def test_single_cpu_skips_the_gate(self, dirs):
        baseline, current = dirs
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
        self._write(
            current,
            _engine_doc(
                8.0,
                9.0,
                cpu_count=1,
                capture=_capture_section(9.0, 6.0, cpu_count=1),
            ),
        )
        diff = bench_compare.compare_documents(baseline, current)
        assert diff["capture_gate"]["status"] == "skipped"
        assert "capture" not in " ".join(diff["regressions"])

    def test_document_without_capture_section_is_tolerated(self, dirs):
        """A single-CPU document may omit the section: the gate skips."""
        baseline, current = dirs
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
        self._write(current, _engine_doc(8.0, 9.0, cpu_count=1, capture=None))
        diff = bench_compare.compare_documents(baseline, current)
        assert diff["capture_gate"]["status"] == "skipped"
        assert diff["regressions"] == []

    def test_multi_cpu_document_without_capture_section_fails(self, dirs):
        """A gate that did not run on a multi-CPU host must not pass."""
        baseline, current = dirs
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
        self._write(current, _engine_doc(8.0, 2.0, capture=None))
        diff = bench_compare.compare_documents(baseline, current)
        assert diff["capture_gate"]["status"] == "missing"
        assert any("capture overhead" in item for item in diff["regressions"])

    def test_custom_overhead_threshold(self, dirs):
        baseline, current = dirs
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
        self._write(
            current, _engine_doc(8.0, 2.4, capture=_capture_section(2.4, 2.0))
        )
        diff = bench_compare.compare_documents(
            baseline, current, max_capture_overhead=0.25
        )
        assert diff["capture_gate"]["status"] == "ok"

    def test_rendered_in_summary(self, dirs):
        baseline, current = dirs
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
        self._write(
            current, _engine_doc(8.0, 2.0, capture=_capture_section(2.04, 2.0))
        )
        diff = bench_compare.compare_documents(baseline, current)
        assert "capture overhead" in bench_compare.render(diff)


class TestCompareRecovery:
    def _write(self, directory, doc):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "BENCH_engine.json").write_text(json.dumps(doc))

    def test_small_overhead_passes(self, dirs):
        baseline, current = dirs
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
        self._write(
            current, _engine_doc(8.0, 2.0, recovery=_recovery_section(2.02, 2.0))
        )
        diff = bench_compare.compare_documents(baseline, current)
        assert diff["recovery_gate"]["status"] == "ok"
        assert diff["regressions"] == []

    def test_large_overhead_is_regression(self, dirs):
        baseline, current = dirs
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
        # 15% over the unguarded pass and well past the 0.05s floor.
        self._write(
            current, _engine_doc(8.0, 2.0, recovery=_recovery_section(2.3, 2.0))
        )
        diff = bench_compare.compare_documents(baseline, current)
        assert diff["recovery_gate"]["status"] == "regression"
        assert any("recovery overhead" in item for item in diff["regressions"])

    def test_floor_absorbs_jitter_on_fast_passes(self, dirs):
        baseline, current = dirs
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
        # 30% relative but only 30ms absolute: under the additive floor.
        self._write(
            current, _engine_doc(1.0, 0.1, recovery=_recovery_section(0.13, 0.1))
        )
        diff = bench_compare.compare_documents(baseline, current)
        assert diff["recovery_gate"]["status"] == "ok"
        assert diff["regressions"] == []

    def test_single_cpu_skips_the_gate(self, dirs):
        baseline, current = dirs
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
        self._write(
            current,
            _engine_doc(
                8.0,
                9.0,
                cpu_count=1,
                recovery=_recovery_section(9.0, 6.0, cpu_count=1),
            ),
        )
        diff = bench_compare.compare_documents(baseline, current)
        assert diff["recovery_gate"]["status"] == "skipped"
        assert "recovery" not in " ".join(diff["regressions"])

    def test_document_without_recovery_section_is_tolerated(self, dirs):
        """A single-CPU document may omit the section: the gate skips."""
        baseline, current = dirs
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
        self._write(current, _engine_doc(8.0, 9.0, cpu_count=1, recovery=None))
        diff = bench_compare.compare_documents(baseline, current)
        assert diff["recovery_gate"]["status"] == "skipped"
        assert diff["regressions"] == []

    def test_multi_cpu_document_without_recovery_section_fails(self, dirs):
        """A gate that did not run on a multi-CPU host must not pass."""
        baseline, current = dirs
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
        self._write(current, _engine_doc(8.0, 2.0, recovery=None))
        diff = bench_compare.compare_documents(baseline, current)
        assert diff["recovery_gate"]["status"] == "missing"
        assert any("recovery overhead" in item for item in diff["regressions"])

    def test_custom_overhead_threshold(self, dirs):
        baseline, current = dirs
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
        self._write(
            current, _engine_doc(8.0, 2.0, recovery=_recovery_section(2.3, 2.0))
        )
        diff = bench_compare.compare_documents(
            baseline, current, max_recovery_overhead=0.25
        )
        assert diff["recovery_gate"]["status"] == "ok"

    def test_rendered_in_summary(self, dirs):
        baseline, current = dirs
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
        self._write(
            current, _engine_doc(8.0, 2.0, recovery=_recovery_section(2.02, 2.0))
        )
        diff = bench_compare.compare_documents(baseline, current)
        assert "recovery overhead" in bench_compare.render(diff)


class TestCompareScale:
    def _write(self, directory, doc):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "BENCH_scale.json").write_text(json.dumps(doc))

    def test_stage_walls_gated_by_tolerance(self, dirs):
        baseline, current = dirs
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
        self._write(baseline, _scale_doc({"score_serial": 0.3}))
        self._write(current, _scale_doc({"score_serial": 3.0}))
        diff = bench_compare.compare_documents(baseline, current)
        assert [row["status"] for row in diff["scale"]] == ["regression"]
        assert any("scale stage" in item for item in diff["regressions"])

    def test_fresh_document_without_baseline_is_new(self, dirs):
        baseline, current = dirs
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
        self._write(current, _scale_doc({"score_serial": 0.3}))
        diff = bench_compare.compare_documents(baseline, current)
        assert diff["scale"] == []
        assert diff["regressions"] == []

    def test_vanished_fresh_document_is_lost_coverage(self, dirs):
        baseline, current = dirs
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
        self._write(baseline, _scale_doc({"score_serial": 0.3}))
        diff = bench_compare.compare_documents(baseline, current)
        assert [row["status"] for row in diff["scale"]] == ["missing"]
        assert any("scale stage" in item for item in diff["regressions"])


class TestMainOutput:
    def test_output_writes_diff_json(self, dirs, tmp_path, capsys):
        baseline, current = dirs
        _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
        out = tmp_path / "diff.json"
        code = bench_compare.main(
            [
                "--baseline-dir",
                str(baseline),
                "--current-dir",
                str(current),
                "--output",
                str(out),
            ]
        )
        assert code == 0
        diff = json.loads(out.read_text())
        assert diff["regressions"] == []
        assert {row["stage"] for row in diff["pipeline"]} == set(BASE_STAGES)
        assert "no regressions" in capsys.readouterr().out

    def test_malformed_document_raises(self, dirs):
        baseline, current = dirs
        current.mkdir(parents=True, exist_ok=True)
        (current / "BENCH_pipeline.json").write_text(json.dumps({"stages": []}))
        (current / "BENCH_remap.json").write_text(json.dumps(_remap_doc(BASE_PEAKS)))
        with pytest.raises(ValueError):
            bench_compare.compare_documents(baseline, current)

    def test_committed_baselines_pass_against_themselves(self):
        """The repo's own BENCH_*.json pair must pass the gate vs itself."""
        diff = bench_compare.compare_documents(ROOT, ROOT)
        assert diff["regressions"] == []


class TestRenderRobustness:
    def test_render_handles_missing_and_new_rows(self, dirs):
        baseline, current = dirs
        stages = copy.deepcopy(BASE_STAGES)
        del stages["remap"]
        stages["telemetry"] = 0.001
        peaks = {"rpp": BASE_PEAKS["rpp"]}  # "suite" level goes missing
        _write_pair(current, _pipeline_doc(stages), _remap_doc(peaks))
        diff = bench_compare.compare_documents(baseline, current)
        text = bench_compare.render(diff)
        assert "missing" in text
        assert "new" in text
        assert "REGRESSIONS" in text
