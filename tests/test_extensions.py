"""Extension features: Kineto import, snapshot verify, precision, pipeline."""

import pytest

from repro.core.analyzer import Analyzer
from repro.core.precision import (
    PrecisionPlan,
    estimate_precision_peak,
    rescale_sequence,
)
from repro.core.simulator import MemorySimulator
from repro.core.verify import compare_curves, diff_snapshots
from repro.allocator.caching import CachingAllocator
from repro.allocator.device import DeviceAllocator
from repro.allocator.snapshot import memory_snapshot
from repro.allocator.stats import TimelineRecorder
from repro.core.orchestrator import MemoryOrchestrator
from repro.distributed import extract_layer_profiles, minimum_stages
from repro.distributed.planner import PlanningError, plan_pipeline
from repro.errors import TraceSchemaError
from repro.framework.dtypes import DType
from repro.trace.kineto import import_kineto
from repro.units import GiB, MiB
from repro.workload import DeviceSpec


# ---------------------------------------------------------------------
# Kineto import
# ---------------------------------------------------------------------
def kineto_document():
    return {
        "schemaVersion": 1,
        "deviceProperties": [{"name": "cpu"}],  # skipped (dict value)
        "traceEvents": [
            {
                "ph": "X", "cat": "user_annotation", "name": "ProfilerStep#0",
                "ts": 0, "dur": 100, "pid": 1, "tid": 2, "args": {},
            },
            {
                "ph": "X", "cat": "cpu_op", "name": "aten::addmm",
                "ts": 10, "dur": 20, "pid": 1, "tid": 2,
                "args": {"Sequence number": 5},
            },
            {
                "ph": "i", "name": "[memory]", "ts": 12, "pid": 1, "tid": 2,
                "args": {
                    "Addr": 140000000, "Bytes": 4096,
                    "Total Allocated": 4096, "Device Type": 0,
                },
            },
            {
                "ph": "i", "name": "[memory]", "ts": 50, "pid": 1, "tid": 2,
                "args": {
                    "Addr": 140000000, "Bytes": -4096,
                    "Total Allocated": 0, "Device Type": 0,
                },
            },
            # GPU-side memory record: skipped
            {
                "ph": "i", "name": "[memory]", "ts": 60, "pid": 1, "tid": 2,
                "args": {"Addr": 1, "Bytes": 100, "Device Type": 1},
            },
            # kernel event: skipped
            {"ph": "X", "cat": "kernel", "name": "sgemm", "ts": 15, "dur": 3},
        ],
    }


class TestKinetoImport:
    def test_import_maps_categories(self):
        trace, report = import_kineto(kineto_document())
        assert report.num_spans == 2
        assert report.num_memory_events == 2
        assert report.num_skipped == 2
        assert trace.num_iterations() == 1
        assert trace.cpu_ops[0].sequence_number == 5

    def test_skipped_categories_reported(self):
        _, report = import_kineto(kineto_document())
        assert "kernel" in report.skipped_categories
        assert "gpu_memory" in report.skipped_categories

    def test_metadata_scalars_kept(self):
        trace, _ = import_kineto(kineto_document())
        assert trace.metadata["schemaVersion"] == 1
        assert trace.metadata["source"] == "kineto"

    def test_missing_trace_events(self):
        with pytest.raises(TraceSchemaError):
            import_kineto({"foo": 1})

    def test_malformed_memory_event(self):
        document = kineto_document()
        document["traceEvents"].append(
            {"ph": "i", "name": "[memory]", "ts": 1, "args": {"Bytes": "x"}}
        )
        with pytest.raises(TraceSchemaError):
            import_kineto(document)

    def test_file_round_trip(self, tmp_path):
        import json

        from repro.trace.kineto import load_kineto_file

        path = tmp_path / "kineto.json"
        path.write_text(json.dumps(kineto_document()))
        trace, report = load_kineto_file(path)
        assert report.num_memory_events == 2
        assert len(trace.memory_events) == 2

    def test_legacy_operator_category(self):
        document = kineto_document()
        document["traceEvents"].append(
            {"ph": "X", "cat": "Operator", "name": "aten::relu", "ts": 40, "dur": 2}
        )
        trace, _ = import_kineto(document)
        assert any(o.name == "aten::relu" for o in trace.cpu_ops)


# ---------------------------------------------------------------------
# snapshot / curve verification
# ---------------------------------------------------------------------
class TestVerify:
    def make_allocator(self, sizes):
        alloc = CachingAllocator(DeviceAllocator(capacity=GiB))
        for size in sizes:
            alloc.malloc(size)
        return alloc

    def test_identical_snapshots_match(self):
        a = memory_snapshot(self.make_allocator([512, 5 * MiB]))
        b = memory_snapshot(self.make_allocator([512, 5 * MiB]))
        diff = diff_snapshots(a, b)
        assert diff.matches()
        assert not diff.segment_size_delta

    def test_divergent_snapshots_reported(self):
        a = memory_snapshot(self.make_allocator([512, 5 * MiB]))
        b = memory_snapshot(self.make_allocator([512]))
        diff = diff_snapshots(a, b)
        assert not diff.matches()
        assert diff.reserved_gap == 20 * MiB
        assert diff.segment_size_delta == {20 * MiB: 1}

    def test_tolerance(self):
        a = memory_snapshot(self.make_allocator([512]))
        b = memory_snapshot(self.make_allocator([1024]))
        diff = diff_snapshots(a, b)
        assert diff.matches(tolerance_bytes=1024)

    def test_curve_fidelity(self):
        reference = TimelineRecorder()
        simulated = TimelineRecorder()
        for ts in range(10):
            reference.record(ts, 0, 100 * (ts + 1))
            simulated.record(ts, 0, 100 * (ts + 1) + 10)
        fidelity = compare_curves(reference, simulated, samples=16)
        assert fidelity.peak_error == pytest.approx(0.01)
        assert fidelity.mean_abs_gap == 10
        assert fidelity.max_abs_gap == 10

    def test_curve_samples_validation(self):
        with pytest.raises(ValueError):
            compare_curves(TimelineRecorder(), TimelineRecorder(), samples=1)

    def test_end_to_end_fidelity(self, tiny_trace):
        """The §3.4 loop: replay the analyzed trace, diff vs itself."""
        analyzed = Analyzer().analyze(tiny_trace)
        sequence = MemoryOrchestrator().orchestrate(analyzed)
        first = MemorySimulator().replay(sequence)
        second = MemorySimulator().replay(sequence)
        fidelity = compare_curves(first.timeline, second.timeline)
        assert fidelity.peak_error == 0.0


# ---------------------------------------------------------------------
# mixed precision (§6.3)
# ---------------------------------------------------------------------
class TestPrecision:
    @pytest.fixture(scope="class")
    def analyzed(self, distilgpt2_trace):
        return Analyzer().analyze(distilgpt2_trace)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            PrecisionPlan(mode="int4")
        with pytest.raises(ValueError):
            PrecisionPlan(target=DType.float64)

    def test_fp16_pure_halves_most_memory(self, analyzed):
        fp32 = MemorySimulator().replay(
            MemoryOrchestrator().orchestrate(analyzed)
        )
        fp16 = estimate_precision_peak(
            analyzed, PrecisionPlan(target=DType.float16, mode="pure")
        )
        assert 0.4 * fp32.peak_reserved_bytes < fp16
        assert fp16 < 0.75 * fp32.peak_reserved_bytes

    def test_amp_between_pure_and_fp32(self, analyzed):
        fp32 = MemorySimulator().replay(
            MemoryOrchestrator().orchestrate(analyzed)
        ).peak_reserved_bytes
        pure = estimate_precision_peak(
            analyzed, PrecisionPlan(target=DType.float16, mode="pure")
        )
        amp = estimate_precision_peak(
            analyzed, PrecisionPlan(target=DType.float16, mode="amp")
        )
        assert pure < amp < fp32 * 1.05  # AMP adds a half param copy

    def test_rescale_keeps_event_count(self, analyzed):
        sequence = rescale_sequence(
            analyzed, PrecisionPlan(target=DType.float16, mode="pure")
        )
        reference = MemoryOrchestrator().orchestrate(analyzed)
        assert len(sequence.events) == len(reference.events)

    def test_bfloat16_supported(self, analyzed):
        peak = estimate_precision_peak(
            analyzed, PrecisionPlan(target=DType.bfloat16, mode="pure")
        )
        assert peak > 0


# ---------------------------------------------------------------------
# distributed planning (§6.2)
# ---------------------------------------------------------------------
class TestDistributed:
    @pytest.fixture(scope="class")
    def memory_map(self, distilgpt2_trace):
        from repro.models import get_model_spec

        analyzed = Analyzer().analyze(distilgpt2_trace)
        model = get_model_spec("distilgpt2").build()
        return extract_layer_profiles(analyzed, model, depth=1)

    def test_layers_in_execution_order(self, memory_map):
        names = [p.name for p in memory_map.layers]
        assert names.index("embed_tokens") < names.index("block0")
        assert names.index("block0") < names.index("block5")
        assert names.index("block5") < names.index("lm_head")

    def test_params_match_model(self, memory_map):
        from repro.models import get_model_spec

        model = get_model_spec("distilgpt2").build()
        assert memory_map.total_parameter_bytes() == model.parameter_bytes()

    def test_blocks_have_activations(self, memory_map):
        block = memory_map.layer("block0")
        assert block.activation_bytes > 0
        assert block.parameter_bytes > 0

    def test_plan_fits_budget(self, memory_map):
        device = DeviceSpec(
            name="small", capacity_bytes=3 * GiB, framework_bytes=256 * MiB
        )
        plan = minimum_stages(memory_map, device)
        assert plan.fits()
        assert plan.num_stages >= 1
        # stages are contiguous and cover all layers exactly once
        covered = [name for stage in plan.stages for name in stage.layers]
        assert covered == [p.name for p in memory_map.layers]

    def test_more_stages_lower_max(self, memory_map):
        device = DeviceSpec(
            name="big", capacity_bytes=64 * GiB, framework_bytes=256 * MiB
        )
        one = plan_pipeline(memory_map, device, 1)
        two = plan_pipeline(memory_map, device, 2)
        assert two.max_stage_bytes < one.max_stage_bytes

    def test_impossible_budget_raises(self, memory_map):
        device = DeviceSpec(
            name="nano", capacity_bytes=256 * MiB, framework_bytes=64 * MiB
        )
        with pytest.raises(PlanningError):
            minimum_stages(memory_map, device, max_stages=4)

    def test_too_many_stages_rejected(self, memory_map):
        device = DeviceSpec(
            name="big", capacity_bytes=64 * GiB, framework_bytes=256 * MiB
        )
        with pytest.raises(PlanningError):
            plan_pipeline(memory_map, device, num_stages=10_000)

    def test_balance_metric(self, memory_map):
        device = DeviceSpec(
            name="big", capacity_bytes=64 * GiB, framework_bytes=256 * MiB
        )
        plan = plan_pipeline(memory_map, device, 3)
        assert plan.balance >= 1.0
