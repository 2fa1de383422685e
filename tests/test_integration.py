"""End-to-end integration: full pipelines across module boundaries."""


from repro.core import Analyzer
from repro.core.estimator import XMemEstimator
from repro.core.orchestrator import MemoryOrchestrator
from repro.core.simulator import MemorySimulator
from repro.eval.runner import ExperimentRunner
from repro.eval.validation import GroundTruthCache, validate
from repro.runtime import profile_on_cpu, run_gpu_ground_truth
from repro.runtime.loop import TrainLoopConfig
from repro.trace.kineto import import_kineto
from repro.trace.reader import Trace
from repro.trace.schema import trace_to_json
from repro.workload import RTX_3060, RTX_4060, WorkloadConfig


class TestProfileAnalyzeSimulate:
    """The Fig. 4 pipeline driven manually, stage by stage."""

    def test_stage_by_stage_equals_facade(self):
        workload = WorkloadConfig("MobileNetV3Small", "adam", 32)
        trace = profile_on_cpu(
            workload.model, workload.batch_size, workload.optimizer
        )
        analyzed = Analyzer().analyze(trace)
        sequence = MemoryOrchestrator().orchestrate(analyzed)
        simulation = MemorySimulator().replay(sequence)
        facade = XMemEstimator().estimate(workload, RTX_3060)
        assert simulation.peak_reserved_bytes == facade.peak_bytes

    def test_trace_survives_json_round_trip(self, tmp_path):
        workload = WorkloadConfig("MobileNetV3Small", "sgd", 16)
        trace = profile_on_cpu(
            workload.model, workload.batch_size, workload.optimizer
        )
        path = tmp_path / "trace.json"
        trace.save(path)
        reloaded = Trace.load(path)
        direct = XMemEstimator().estimate(workload, RTX_3060, trace=trace)
        from_disk = XMemEstimator().estimate(
            workload, RTX_3060, trace=reloaded
        )
        assert direct.peak_bytes == from_disk.peak_bytes

    def test_own_trace_reimports_via_kineto_adapter(self):
        """Our schema is a Kineto dialect: the adapter must accept it."""
        trace = profile_on_cpu("MobileNetV3Small", 8, "sgd")
        document = trace_to_json(trace.spans, trace.memory_events, {})
        imported, report = import_kineto(document)
        assert report.num_memory_events == len(trace.memory_events)
        assert imported.num_iterations() == trace.num_iterations()
        workload = WorkloadConfig("MobileNetV3Small", "sgd", 8)
        native = XMemEstimator().estimate(workload, RTX_3060, trace=trace)
        adapted = XMemEstimator().estimate(workload, RTX_3060, trace=imported)
        assert native.peak_bytes == adapted.peak_bytes


class TestCrossDeviceConsistency:
    def test_estimate_independent_of_device(self):
        """The peak is a property of the job; the device only sets the
        budget the estimate is compared against."""
        workload = WorkloadConfig("distilgpt2", "adam", 4)
        on_3060 = XMemEstimator().estimate(workload, RTX_3060)
        on_4060 = XMemEstimator().estimate(workload, RTX_4060)
        assert on_3060.peak_bytes == on_4060.peak_bytes

    def test_oom_prediction_depends_on_device(self):
        workload = WorkloadConfig("pythia-1b", "adam", 4)
        result_3060 = XMemEstimator().estimate(workload, RTX_3060)
        # pythia-1b + Adam needs ~16 GB of states alone: OOM on both, but
        # the comparison must use each device's own budget
        assert result_3060.predicts_oom()
        from repro.workload import A100_40GB

        result_a100 = XMemEstimator().estimate(workload, A100_40GB)
        assert not result_a100.predicts_oom()


class TestOomBoundary:
    def test_batch_sweep_crosses_oom(self):
        """Sweeping batch size crosses the fits/OOM boundary, and the
        estimator tracks the ground truth across it."""
        crossings = []
        for batch in (10, 60, 110):
            workload = WorkloadConfig("gpt2", "adam", batch)
            estimate = XMemEstimator().estimate(workload, RTX_4060)
            truth = run_gpu_ground_truth(
                "gpt2", batch, "adam",
                capacity_bytes=RTX_4060.job_budget(), seed=5,
            )
            crossings.append((estimate.predicts_oom(), truth.oom))
        # monotone: once OOM, stays OOM
        predictions = [p for p, _ in crossings]
        truths = [t for _, t in crossings]
        assert predictions == sorted(predictions)
        assert truths == sorted(truths)
        assert truths[-1]  # the largest batch really OOMs
        assert predictions == truths  # xMem tracks the boundary


class TestRunnerIntegration:
    def test_runner_caches_estimates_and_truths(self):
        class CountingEstimator(XMemEstimator):
            calls = 0

            def estimate(self, workload, device, trace=None):
                type(self).calls += 1
                return super().estimate(workload, device, trace)

        estimator = CountingEstimator()
        runner = ExperimentRunner(estimators=[estimator], repeats=2)
        workload = WorkloadConfig("MobileNetV3Small", "sgd", 16)
        result = runner.run([(workload, RTX_3060)])
        assert len(result.outcomes) == 2
        assert CountingEstimator.calls == 1  # estimate computed once
        assert runner.cache.misses == 2  # one round-1 truth per repeat seed

    def test_scores_and_by_model_views(self):
        runner = ExperimentRunner(
            estimators=[XMemEstimator()], repeats=1
        )
        workloads = [
            WorkloadConfig("MobileNetV3Small", "sgd", 16),
            WorkloadConfig("MobileNetV3Small", "adam", 16),
        ]
        result = runner.run([(w, RTX_3060) for w in workloads])
        scores = result.scores()
        assert scores["xMem"].num_runs == 2
        assert ("MobileNetV3Small", "xMem") in result.by_model()

    def test_validation_repeat_seeds_differ(self):
        cache = GroundTruthCache()
        workload = WorkloadConfig("MobileNetV3Small", "sgd", 64)
        estimator = XMemEstimator()
        first = validate(estimator, workload, RTX_3060, run_index=0, cache=cache)
        second = validate(estimator, workload, RTX_3060, run_index=1, cache=cache)
        assert first.est_peak == second.est_peak  # estimate deterministic
        # ground-truth jitter differs across repeats (usually): at minimum
        # the protocol must have run both
        assert first.m_peak1 is not None and second.m_peak1 is not None


class TestFigure1EndToEnd:
    def test_xmem_tracks_zero_grad_placement(self):
        """xMem must *predict* the Fig. 1 effect, not just observe it."""
        peaks = {}
        truths = {}
        for position in ("pos0", "pos1"):
            workload = WorkloadConfig(
                "distilgpt2", "adam", 8, zero_grad_position=position
            )
            peaks[position] = XMemEstimator().estimate(
                workload, RTX_3060
            ).peak_bytes
            truths[position] = run_gpu_ground_truth(
                "distilgpt2", 8, "adam",
                loop=TrainLoopConfig(
                    iterations=2, zero_grad_position=position
                ),
                capacity_bytes=RTX_3060.job_budget(),
                seed=8,
            ).measured_peak
        assert peaks["pos0"] > peaks["pos1"]
        assert truths["pos0"] > truths["pos1"]
        for position in ("pos0", "pos1"):
            error = abs(peaks[position] - truths[position]) / truths[position]
            assert error < 0.08
