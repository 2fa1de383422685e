"""xMem end-to-end and the three baselines."""

import pytest

from repro.baselines.dnnmem import DNNMemEstimator
from repro.baselines.llmem import LLMemEstimator
from repro.baselines.schedtune import HistoryRecord, SchedTuneEstimator
from repro.core.estimator import XMemEstimator
from repro.runtime.ground_truth import run_gpu_ground_truth
from repro.units import GiB, MiB
from repro.workload import RTX_3060, RTX_4060, DeviceSpec, WorkloadConfig


WORKLOAD = WorkloadConfig("distilgpt2", "adamw", 4)
CNN_WORKLOAD = WorkloadConfig("MobileNetV3Small", "sgd", 64)


@pytest.fixture(scope="module")
def xmem_result():
    return XMemEstimator().estimate(WORKLOAD, RTX_3060)


@pytest.fixture(scope="module")
def ground_truth():
    return run_gpu_ground_truth(
        WORKLOAD.model,
        WORKLOAD.batch_size,
        WORKLOAD.optimizer,
        capacity_bytes=RTX_3060.job_budget(),
        seed=13,
    )


class TestXMem:
    def test_estimate_within_5pct_of_truth(self, xmem_result, ground_truth):
        error = abs(xmem_result.peak_bytes - ground_truth.measured_peak)
        assert error / ground_truth.measured_peak < 0.05

    def test_estimate_has_curve(self, xmem_result):
        assert xmem_result.curve is not None
        assert xmem_result.curve.peak_reserved() == xmem_result.peak_bytes

    def test_detail_diagnostics(self, xmem_result):
        assert xmem_result.detail["num_blocks"] > 0
        assert xmem_result.detail["persistent_bytes"] > 0
        assert "rule_adjustments" in xmem_result.detail

    def test_supports_everything(self):
        assert XMemEstimator().supports(WORKLOAD)
        assert XMemEstimator().supports(CNN_WORKLOAD)

    def test_estimate_from_saved_trace(self, tmp_path):
        """Deployment mode: users hand xMem existing profiler output."""
        from repro.runtime.profiler import profile_on_cpu
        from repro.trace.reader import Trace

        trace = profile_on_cpu(
            WORKLOAD.model, WORKLOAD.batch_size, WORKLOAD.optimizer
        )
        path = tmp_path / "trace.json"
        trace.save(path)
        result = XMemEstimator().estimate(
            WORKLOAD, RTX_3060, trace=Trace.load(path)
        )
        fresh = XMemEstimator().estimate(WORKLOAD, RTX_3060)
        assert result.peak_bytes == fresh.peak_bytes

    def test_deterministic(self):
        first = XMemEstimator().estimate(CNN_WORKLOAD, RTX_3060)
        second = XMemEstimator().estimate(CNN_WORKLOAD, RTX_3060)
        assert first.peak_bytes == second.peak_bytes

    def test_orchestrator_ablation_changes_estimate(self):
        full = XMemEstimator().estimate(WORKLOAD, RTX_3060)
        ablated = XMemEstimator(orchestrate=False).estimate(WORKLOAD, RTX_3060)
        assert ablated.peak_bytes >= full.peak_bytes

    def test_tensor_accounting_underestimates(self, xmem_result):
        tensor_only = XMemEstimator(account="tensor").estimate(
            WORKLOAD, RTX_3060
        )
        assert tensor_only.peak_bytes < xmem_result.peak_bytes

    def test_single_iteration_misses_optimizer_peak(self):
        """DESIGN.md ablation 4: 1-iteration profiles miss the stabilized
        second-iteration peak that includes optimizer state."""
        one = XMemEstimator(iterations=1).estimate(WORKLOAD, RTX_3060)
        three = XMemEstimator(iterations=3).estimate(WORKLOAD, RTX_3060)
        assert one.peak_bytes < three.peak_bytes

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            XMemEstimator(iterations=0)

    def test_oom_prediction(self):
        tiny_device = DeviceSpec(
            name="tiny", capacity_bytes=1 * GiB, framework_bytes=128 * MiB
        )
        result = XMemEstimator().estimate(WORKLOAD, tiny_device)
        assert result.predicts_oom()


class TestDNNMem:
    def test_underestimates_adam_workloads(self, ground_truth):
        """The static graph lacks optimizer state (paper §5.1)."""
        result = DNNMemEstimator().estimate(WORKLOAD, RTX_3060)
        assert result.peak_bytes < ground_truth.measured_peak

    def test_blind_to_zero_grad_placement(self):
        pos0 = DNNMemEstimator().estimate(
            WorkloadConfig("distilgpt2", "sgd", 4, zero_grad_position="pos0"),
            RTX_3060,
        )
        pos1 = DNNMemEstimator().estimate(
            WorkloadConfig("distilgpt2", "sgd", 4, zero_grad_position="pos1"),
            RTX_3060,
        )
        assert pos0.peak_bytes == pos1.peak_bytes

    def test_blind_to_optimizer_choice(self):
        adam = DNNMemEstimator().estimate(
            WorkloadConfig("gpt2", "adam", 2), RTX_3060
        )
        sgd = DNNMemEstimator().estimate(
            WorkloadConfig("gpt2", "sgd", 2), RTX_3060
        )
        assert adam.peak_bytes == sgd.peak_bytes

    def test_more_accurate_for_sgd(self):
        """Paper §5.1: estimates are 'more accurate for the lowest-overhead
        optimizers like SGD'."""
        workload_sgd = WorkloadConfig("distilgpt2", "sgd", 4)
        truth = run_gpu_ground_truth(
            "distilgpt2", 4, "sgd",
            capacity_bytes=RTX_3060.job_budget(), seed=13,
        )
        result = DNNMemEstimator().estimate(workload_sgd, RTX_3060)
        sgd_error = abs(result.peak_bytes - truth.measured_peak) / truth.measured_peak
        adam_truth = run_gpu_ground_truth(
            "distilgpt2", 4, "adam",
            capacity_bytes=RTX_3060.job_budget(), seed=13,
        )
        adam_result = DNNMemEstimator().estimate(WORKLOAD, RTX_3060)
        adam_error = abs(
            adam_result.peak_bytes - adam_truth.measured_peak
        ) / adam_truth.measured_peak
        assert sgd_error < adam_error

    def test_supports_cnns(self):
        result = DNNMemEstimator().estimate(CNN_WORKLOAD, RTX_3060)
        assert result.supported and result.peak_bytes > 0


class TestSchedTune:
    @pytest.fixture(scope="class")
    def fitted(self):
        history = []
        for model, optimizer, batch, peak_gib in [
            ("MobileNetV3Small", "sgd", 32, 0.4),
            ("MobileNetV3Small", "sgd", 128, 1.1),
            ("MobileNetV3Small", "adam", 64, 0.8),
            ("ResNet101", "sgd", 64, 1.4),
            ("ResNet101", "adam", 128, 2.8),
            ("distilgpt2", "adam", 4, 2.6),
            ("distilgpt2", "sgd", 8, 2.4),
        ]:
            history.append(
                HistoryRecord(
                    workload=WorkloadConfig(model, optimizer, batch),
                    peak_bytes=int(peak_gib * GiB),
                )
            )
        estimator = SchedTuneEstimator(history=history)
        estimator.fit()
        return estimator

    def test_predicts_positive(self, fitted):
        result = fitted.estimate(CNN_WORKLOAD, RTX_3060)
        assert result.peak_bytes >= 64 * MiB

    def test_interpolation_reasonable(self, fitted):
        result = fitted.estimate(
            WorkloadConfig("MobileNetV3Small", "sgd", 64), RTX_3060
        )
        assert 0.2 * GiB < result.peak_bytes < 2 * GiB

    def test_blind_to_zero_grad_placement(self, fitted):
        pos0 = fitted.estimate(
            WorkloadConfig("ResNet101", "sgd", 64, zero_grad_position="pos0"),
            RTX_3060,
        )
        pos1 = fitted.estimate(
            WorkloadConfig("ResNet101", "sgd", 64, zero_grad_position="pos1"),
            RTX_3060,
        )
        assert pos0.peak_bytes == pos1.peak_bytes

    def test_fast_inference(self, fitted):
        result = fitted.estimate(CNN_WORKLOAD, RTX_3060)
        assert result.runtime_seconds < 0.5

    def test_supports_everything(self, fitted):
        assert fitted.supports(WORKLOAD)
        assert fitted.supports(CNN_WORKLOAD)


class TestLLMem:
    def test_rejects_cnns(self):
        estimator = LLMemEstimator()
        assert not estimator.supports(CNN_WORKLOAD)
        result = estimator.estimate(CNN_WORKLOAD, RTX_3060)
        assert not result.supported

    def test_rejects_encoder_decoder(self):
        assert not LLMemEstimator().supports(
            WorkloadConfig("t5-small", "adam", 8)
        )

    def test_supports_causal_lm(self):
        assert LLMemEstimator().supports(WORKLOAD)

    def test_probe_plus_extrapolation(self):
        result = LLMemEstimator().estimate(WORKLOAD, RTX_3060)
        assert result.supported
        assert result.peak_bytes > result.detail["probe_peak_bytes"]
        assert result.detail["act_per_sample"] > 0

    def test_probe_oom_reports_capacity(self):
        tiny = DeviceSpec(
            name="tiny", capacity_bytes=512 * MiB, framework_bytes=64 * MiB
        )
        result = LLMemEstimator().estimate(WORKLOAD, tiny)
        assert result.detail["probe_oom"]
        assert result.peak_bytes == tiny.capacity_bytes
        assert result.predicts_oom()

    def test_error_is_batch_dependent(self):
        """Measured-probe + linear extrapolation cannot hold a constant
        bias across batch sizes (allocator effects are non-linear)."""
        errors = []
        for batch in (4, 32):
            workload = WorkloadConfig("distilgpt2", "sgd", batch)
            truth = run_gpu_ground_truth(
                workload.model, batch, "sgd",
                capacity_bytes=RTX_4060.job_budget(), seed=3,
            )
            result = LLMemEstimator().estimate(workload, RTX_4060)
            errors.append(
                abs(result.peak_bytes - truth.measured_peak)
                / truth.measured_peak
            )
        assert abs(errors[0] - errors[1]) > 0.05


#: SchedTune over its built-in history, RTX 3060, batch size 4: the peaks
#: of the ridge fit as numpy's ``linalg.solve`` computed it
SCHEDTUNE_PEAKS = {
    ("Cerebras-GPT-111M", "sgd"): 1769395636,
    ("Cerebras-GPT-111M", "adam"): 2926211163,
    ("ConvNeXtTiny", "sgd"): 273118772,
    ("ConvNeXtTiny", "adam"): 570847362,
    ("VGG16", "sgd"): 1911415604,
    ("VGG16", "adam"): 3352689267,
    ("VGG19", "sgd"): 1992403375,
    ("VGG19", "adam"): 3488988262,
    ("distilgpt2", "sgd"): 1218545383,
    ("distilgpt2", "adam"): 2071830539,
    ("t5-small", "sgd"): 975107328,
    ("t5-small", "adam"): 1605395531,
}


@pytest.fixture(scope="module")
def default_schedtune():
    estimator = SchedTuneEstimator()
    estimator.fit()
    return estimator


@pytest.mark.parametrize("model, optimizer", sorted(SCHEDTUNE_PEAKS))
def test_schedtune_default_history_peaks_are_pinned(
    default_schedtune, model, optimizer
):
    """The default fit is the same in every process (its history seeds
    do not depend on the process's string-hash salt) and its peaks hold
    to the byte."""
    result = default_schedtune.estimate(
        WorkloadConfig(model, optimizer, 4), RTX_3060
    )
    assert result.peak_bytes == SCHEDTUNE_PEAKS[model, optimizer]
