"""Unit tests for the benchmark gate table (tools/bench_compare.py)."""

import dataclasses
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

BASELINE, CPU_PATH, GATES = (
    bench_compare.BASELINE, bench_compare.CPU_PATH, bench_compare.GATES
)


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
            "remap": {"swaps_accepted": 2, "peak_reduction": dict(peak_reduction)}
        },
    }


def _capture_section(capture_wall, bare_wall, *, cpu_count=4, workers=4):
    return {
        "workers": workers,
        "cpu_count": cpu_count,
        "capture_wall_s": capture_wall,
        "no_capture_wall_s": bare_wall,
    }


def _recovery_section(guarded_wall, bare_wall, *, cpu_count=4, workers=4):
    return {
        "workers": workers,
        "cpu_count": cpu_count,
        "guarded_wall_s": guarded_wall,
        "bare_wall_s": bare_wall,
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


def _write(directory, name, doc):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(json.dumps(doc))


def _write_pair(directory, pipeline, remap):
    _write(directory, "BENCH_pipeline.json", pipeline)
    _write(directory, "BENCH_remap.json", remap)


def _row(diff, gate, key=None):
    (row,) = [r for r in diff["rows"] if r["gate"] == gate and r["key"] == key]
    return row


def _status(diff, gate, key=None):
    return _row(diff, gate, key)["status"]


def _failing(diff, prefix):
    return [item for item in diff["regressions"] if item.startswith(prefix)]


@pytest.fixture
def dirs(tmp_path):
    baseline = tmp_path / "baseline"
    current = tmp_path / "current"
    _write_pair(baseline, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
    _write_pair(current, _pipeline_doc(BASE_STAGES), _remap_doc(BASE_PEAKS))
    return baseline, current


def _main(baseline, current, *extra):
    return bench_compare.main(
        ["--baseline-dir", str(baseline), "--current-dir", str(current), *extra]
    )


# ---------------------------------------------------------------------------
# One case table over every GATES row
# ---------------------------------------------------------------------------

#: The baseline (or in-document reference) value every case starts from.
REF = 1.0


def _put(sections, path, value):
    """Write ``value`` at a gate path; a wildcard becomes the key ``k``."""
    if "[*]" in path:
        head, field = path.split("[*].")
        sections[head] = [{"stage": "k", field: value}]
        return
    *parents, leaf = path.replace("*", "k").split(".")
    node = sections
    for part in parents:
        node = node.setdefault(part, {})
    node[leaf] = value


def _limit(gate):
    """The gate's pass/fail boundary with :data:`REF` as the reference."""
    if gate.op == "ratio":
        return REF * gate.bound + bench_compare.FLOOR_S
    if gate.op == "drop":
        return REF - gate.bound
    return gate.bound


def _case_doc(gate, value, *, cpus=4, instances=480):
    sections = {}
    if value is not None:
        _put(sections, gate.path, value)
    if gate.against not in (None, BASELINE):
        _put(sections, gate.against, REF)
    _put(sections, CPU_PATH, cpus)
    _put(sections, gate.workload, {"instances": instances})
    return {"benchmark": "case", "sections": sections}


def _expected(gate, case):
    return {
        "ok": "ok",
        "regression": "regression",
        "section_missing": "missing",
        "baseline_missing": "new",
        "one_cpu": "skipped" if gate.min_cpus > 1 else "ok",
        "mismatch": "mismatch",
    }[case]


CASES = (
    "ok",
    "regression",
    "section_missing",
    "baseline_missing",
    "one_cpu",
    "mismatch",
)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("gate", GATES, ids=lambda gate: gate.name)
def test_gate_case_table(tmp_path, gate, case):
    """Every gate row reads the expected status on each doctored case."""
    at_most = gate.op in ("ratio", "max")
    fresh_value = {
        "regression": _limit(gate) + (0.01 if at_most else -0.01),
        "section_missing": None,
    }.get(case, _limit(gate))
    baseline, current = tmp_path / "baseline", tmp_path / "current"
    current.mkdir()
    if case != "baseline_missing":
        _write(baseline, gate.document, _case_doc(gate, REF))
    else:
        baseline.mkdir()
    _write(
        current,
        gate.document,
        _case_doc(
            gate,
            fresh_value,
            cpus=1 if case == "one_cpu" else 4,
            instances=192 if case == "mismatch" else 480,
        ),
    )
    diff = bench_compare.evaluate(baseline, current, gates=(gate,))
    key = "k" if "*" in gate.path else None
    row = _row(diff, gate.name, key)
    assert row["status"] == _expected(gate, case)
    if row["status"] == "skipped":
        assert row["reason"]


def test_bounds_keep_the_values_they_replace():
    """Each bound equals the CLI flag default or bench constant it replaced."""
    assert {
        g.name: (g.op, g.bound, g.against, g.min_cpus) for g in GATES
    } == {
        # --tolerance 3.0
        "pipeline_wall": ("ratio", 3.0, BASELINE, 1),
        "engine_wall": ("ratio", 3.0, BASELINE, 1),
        "scale_wall": ("ratio", 3.0, BASELINE, 1),
        # --peak-tolerance 0.02
        "remap_peak_reduction": ("drop", 0.02, BASELINE, 1),
        # --min-speedup 1.3, judged on >= 2 CPUs only
        "pool_speedup": ("min", 1.3, None, 2),
        # --max-capture-overhead 0.05: capture <= bare * 1.05 + floor
        "capture_overhead": ("ratio", 1.05, "capture.no_capture_wall_s", 2),
        # --max-recovery-overhead 0.03: guarded <= bare * 1.03 + floor
        "recovery_overhead": ("ratio", 1.03, "recovery.bare_wall_s", 2),
        # --min-incremental-speedup 5.0
        "incremental_speedup": ("min", 5.0, None, 1),
        # bench_robust.MIN_AVOIDED_FRACTION and MAX_CAPACITY_OVERHEAD
        "robust_avoided": ("min", 0.80, None, 1),
        "robust_capacity": ("max", 0.15, None, 1),
        # DEFAULT_AVOIDED_TOLERANCE
        "robust_avoided_drop": ("drop", 0.05, BASELINE, 1),
    }
    # --floor 0.05: the additive slack on every ``ratio`` limit
    assert bench_compare.FLOOR_S == 0.05


# ---------------------------------------------------------------------------
# Behaviour of the individual gates on realistic documents
# ---------------------------------------------------------------------------


class TestComparePipeline:
    def test_identical_run_passes(self, dirs):
        diff = bench_compare.evaluate(*dirs)
        assert diff["regressions"] == []
        walls = [r for r in diff["rows"] if r["gate"] == "pipeline_wall"]
        assert {r["status"] for r in walls} == {"ok"}

    def test_ten_x_slowdown_exits_nonzero(self, dirs):
        """The acceptance criterion: a 10x stage slowdown fails the gate."""
        baseline, current = dirs
        slowed = dict(BASE_STAGES, place=BASE_STAGES["place"] * 10)
        _write_pair(current, _pipeline_doc(slowed), _remap_doc(BASE_PEAKS))
        assert _main(baseline, current) == 1

    def test_slowdown_within_tolerance_passes(self, dirs):
        baseline, current = dirs
        slowed = {name: wall * 2.5 for name, wall in BASE_STAGES.items()}
        _write_pair(current, _pipeline_doc(slowed), _remap_doc(BASE_PEAKS))
        assert _main(baseline, current) == 0

    def test_missing_stage_is_regression(self, dirs):
        baseline, current = dirs
        fewer = {k: v for k, v in BASE_STAGES.items() if k != "remap"}
        _write_pair(current, _pipeline_doc(fewer), _remap_doc(BASE_PEAKS))
        diff = bench_compare.evaluate(baseline, current)
        assert _status(diff, "pipeline_wall", "remap") == "missing"
        assert _failing(diff, "pipeline_wall[remap]")

    def test_new_stage_is_informational(self, dirs):
        baseline, current = dirs
        more = dict(BASE_STAGES, telemetry=0.001)
        _write_pair(current, _pipeline_doc(more), _remap_doc(BASE_PEAKS))
        diff = bench_compare.evaluate(baseline, current)
        assert _status(diff, "pipeline_wall", "telemetry") == "new"
        assert diff["regressions"] == []

    def test_floor_absorbs_jitter_on_fast_stages(self, dirs):
        baseline, current = dirs
        # 0.007s -> 0.04s is nearly 6x but under the 0.05s absolute floor.
        jittery = dict(BASE_STAGES, remap=0.04)
        _write_pair(current, _pipeline_doc(jittery), _remap_doc(BASE_PEAKS))
        diff = bench_compare.evaluate(baseline, current)
        assert _status(diff, "pipeline_wall", "remap") == "ok"


class TestCompareRemap:
    def _peaks(self, dirs, peaks):
        baseline, current = dirs
        _write(current, "BENCH_remap.json", _remap_doc(peaks))
        return bench_compare.evaluate(baseline, current)

    def test_peak_reduction_drop_is_regression(self, dirs):
        diff = self._peaks(dirs, dict(BASE_PEAKS, rpp=BASE_PEAKS["rpp"] - 0.1))
        assert _status(diff, "remap_peak_reduction", "rpp") == "regression"
        assert diff["regressions"]

    def test_small_drop_within_tolerance_passes(self, dirs):
        diff = self._peaks(dirs, dict(BASE_PEAKS, rpp=BASE_PEAKS["rpp"] - 0.01))
        assert diff["regressions"] == []

    def test_improvement_passes(self, dirs):
        diff = self._peaks(dirs, {k: v + 0.05 for k, v in BASE_PEAKS.items()})
        assert diff["regressions"] == []


class TestCompareEngine:
    def _evaluate(self, dirs, baseline_doc, current_doc, **kwargs):
        baseline, current = dirs
        if baseline_doc is not None:
            _write(baseline, "BENCH_engine.json", baseline_doc)
        if current_doc is not None:
            _write(current, "BENCH_engine.json", current_doc)
        return bench_compare.evaluate(baseline, current, **kwargs)

    def test_fast_pool_on_multi_cpu_passes(self, dirs):
        diff = self._evaluate(dirs, _engine_doc(2.0, 1.0), _engine_doc(2.0, 1.0))
        assert _status(diff, "pool_speedup") == "ok"
        assert diff["regressions"] == []

    def test_slow_pool_on_multi_cpu_is_regression(self, dirs):
        # 1.11x < 1.3x
        diff = self._evaluate(dirs, _engine_doc(2.0, 1.0), _engine_doc(2.0, 1.8))
        assert _status(diff, "pool_speedup") == "regression"
        assert _failing(diff, "pool_speedup")

    def test_single_cpu_skips_the_speedup_gate(self, dirs):
        doc = _engine_doc(2.0, 2.4, cpu_count=1, workers=2)
        diff = self._evaluate(dirs, doc, doc)
        row = _row(diff, "pool_speedup")
        assert row["status"] == "skipped" and "1-CPU" in row["reason"]
        assert diff["regressions"] == []

    def test_absent_engine_documents_are_tolerated(self, dirs):
        diff = self._evaluate(dirs, None, None)
        engine = [r for r in diff["rows"] if r["document"] == "BENCH_engine.json"]
        assert {r["status"] for r in engine} == {"skipped"}
        assert all(r["reason"] for r in engine)
        assert diff["regressions"] == []

    def test_missing_baseline_still_gates_the_fresh_run(self, dirs):
        diff = self._evaluate(dirs, None, _engine_doc(2.0, 1.9))
        assert _status(diff, "engine_wall", "chaos_suite_serial") == "new"
        assert _status(diff, "pool_speedup") == "regression"

    def test_vanished_fresh_document_is_lost_coverage(self, dirs):
        diff = self._evaluate(dirs, _engine_doc(2.0, 1.0), None)
        engine = [r for r in diff["rows"] if r["document"] == "BENCH_engine.json"]
        assert {r["status"] for r in engine} == {"missing"}
        assert _failing(diff, "engine_wall")

    def test_custom_min_speedup_threshold(self, dirs):
        """The evaluator reads the bound from the table it is given."""
        looser = [
            dataclasses.replace(g, bound=1.05) if g.name == "pool_speedup" else g
            for g in GATES
        ]
        diff = self._evaluate(dirs, None, _engine_doc(2.0, 1.8), gates=looser)
        assert _status(diff, "pool_speedup") == "new"  # passes, no baseline


class _OverheadGate:
    """Shared cases for the two in-document overhead gates."""

    gate = ""  # the GATES row
    name = ""  # the engine document section it reads
    section = None  # builds that section from (measured, bare)

    def _evaluate(self, dirs, doc, **kwargs):
        for directory in dirs:
            _write(directory, "BENCH_engine.json", doc)
        return bench_compare.evaluate(*dirs, **kwargs)

    def _doc(self, measured, bare, **kwargs):
        section = self.section(measured, bare, **kwargs)
        return _engine_doc(8.0, 2.0, **{self.name: section}, **kwargs)

    def test_small_overhead_passes(self, dirs):
        diff = self._evaluate(dirs, self._doc(2.02, 2.0))
        assert _status(diff, self.gate) == "ok"
        assert diff["regressions"] == []

    def test_large_overhead_is_regression(self, dirs):
        # 20% over bare and well past the 0.05s floor.
        diff = self._evaluate(dirs, self._doc(2.4, 2.0))
        assert _status(diff, self.gate) == "regression"
        assert _failing(diff, self.gate)

    def test_floor_absorbs_jitter_on_fast_passes(self, dirs):
        # 30% relative but only 30ms absolute: under the additive floor.
        diff = self._evaluate(dirs, self._doc(0.13, 0.1))
        assert _status(diff, self.gate) == "ok"
        assert diff["regressions"] == []

    def test_single_cpu_skips_the_gate(self, dirs):
        diff = self._evaluate(dirs, self._doc(9.0, 6.0, cpu_count=1))
        row = _row(diff, self.gate)
        assert row["status"] == "skipped" and row["reason"]
        assert not _failing(diff, self.gate)

    def _without_section_on_multi_cpu_fails(self, dirs):
        """A gate that did not run on a multi-CPU host must not pass."""
        diff = self._evaluate(dirs, _engine_doc(8.0, 2.0, **{self.name: None}))
        assert _status(diff, self.gate) == "missing"
        assert _failing(diff, self.gate)

    def _without_section_on_one_cpu_skips(self, dirs):
        """A single-CPU document may omit the section: the gate skips."""
        doc = _engine_doc(8.0, 9.0, cpu_count=1, **{self.name: None})
        diff = self._evaluate(dirs, doc)
        assert _status(diff, self.gate) == "skipped"
        assert diff["regressions"] == []

    def test_custom_overhead_threshold(self, dirs):
        looser = [
            dataclasses.replace(g, bound=1.25) if g.name == self.gate else g
            for g in GATES
        ]
        diff = self._evaluate(dirs, self._doc(2.4, 2.0), gates=looser)
        assert _status(diff, self.gate) == "ok"

    def test_rendered_in_summary(self, dirs):
        diff = self._evaluate(dirs, self._doc(2.02, 2.0))
        assert self.gate in bench_compare.render(diff)


class TestCompareCapture(_OverheadGate):
    gate, name = "capture_overhead", "capture"
    section = staticmethod(_capture_section)

    def test_multi_cpu_document_without_capture_section_fails(self, dirs):
        self._without_section_on_multi_cpu_fails(dirs)

    def test_document_without_capture_section_is_tolerated(self, dirs):
        self._without_section_on_one_cpu_skips(dirs)


class TestCompareRecovery(_OverheadGate):
    gate, name = "recovery_overhead", "recovery"
    section = staticmethod(_recovery_section)

    def test_multi_cpu_document_without_recovery_section_fails(self, dirs):
        self._without_section_on_multi_cpu_fails(dirs)

    def test_document_without_recovery_section_is_tolerated(self, dirs):
        self._without_section_on_one_cpu_skips(dirs)


class TestCompareScale:
    def test_stage_walls_gated_by_tolerance(self, dirs):
        baseline, current = dirs
        _write(baseline, "BENCH_scale.json", _scale_doc({"score_serial": 0.3}))
        _write(current, "BENCH_scale.json", _scale_doc({"score_serial": 3.0}))
        diff = bench_compare.evaluate(baseline, current)
        assert _status(diff, "scale_wall", "score_serial") == "regression"
        assert _failing(diff, "scale_wall")

    def test_fresh_document_without_baseline_is_new(self, dirs):
        baseline, current = dirs
        _write(current, "BENCH_scale.json", _scale_doc({"score_serial": 0.3}))
        diff = bench_compare.evaluate(baseline, current)
        assert _status(diff, "scale_wall", "score_serial") == "new"
        assert diff["regressions"] == []

    def test_vanished_fresh_document_is_lost_coverage(self, dirs):
        baseline, current = dirs
        _write(baseline, "BENCH_scale.json", _scale_doc({"score_serial": 0.3}))
        diff = bench_compare.evaluate(baseline, current)
        assert _status(diff, "scale_wall", "score_serial") == "missing"
        assert _failing(diff, "scale_wall")


def test_bench_recorded_skip_carries_its_reason(dirs):
    """bench_incremental records ``skipped`` when its fixture cannot fit."""
    baseline, current = dirs
    skipped = {"skipped": True, "reason": "fixture does not fit in memory"}
    _write(current, "BENCH_incremental.json",
           {"benchmark": "incremental", "sections": {"gate": skipped}})
    row = _row(bench_compare.evaluate(baseline, current), "incremental_speedup")
    assert (row["status"], row["reason"]) == ("skipped", skipped["reason"])


class TestMainOutput:
    def test_output_writes_diff_json(self, dirs, tmp_path, capsys):
        out = tmp_path / "diff.json"
        assert _main(*dirs, "--output", str(out)) == 0
        diff = json.loads(out.read_text())
        assert diff["regressions"] == []
        assert {
            r["key"] for r in diff["rows"] if r["gate"] == "pipeline_wall"
        } == set(BASE_STAGES)
        assert "no regressions" in capsys.readouterr().out

    def test_malformed_document_raises(self, dirs):
        baseline, current = dirs
        (current / "BENCH_pipeline.json").write_text(json.dumps({"stages": []}))
        with pytest.raises(ValueError):
            bench_compare.evaluate(baseline, current)

    def test_committed_baselines_pass_against_themselves(self):
        """The repo's own BENCH_*.json documents pass the gate vs themselves."""
        diff = bench_compare.evaluate(ROOT, ROOT)
        assert diff["regressions"] == []
        assert all(r["reason"] for r in diff["rows"] if r["status"] == "skipped")

    def test_cli_has_no_threshold_flags(self, dirs):
        with pytest.raises(SystemExit):
            _main(*dirs, "--tolerance", "3.0")


class TestRenderRobustness:
    def test_render_handles_missing_and_new_rows(self, dirs):
        baseline, current = dirs
        stages = {k: v for k, v in BASE_STAGES.items() if k != "remap"}
        stages["telemetry"] = 0.001
        peaks = {"rpp": BASE_PEAKS["rpp"]}  # "suite" level goes missing
        _write_pair(current, _pipeline_doc(stages), _remap_doc(peaks))
        text = bench_compare.render(bench_compare.evaluate(baseline, current))
        assert "missing" in text
        assert "new" in text
        assert "REGRESSIONS" in text
