"""§6.4 generality: the BFC core is framework-agnostic.

TensorFlow manages CUDA memory with the same Best-Fit-with-Coalescing
family of algorithms, with different constants (256 B alignment,
power-of-two region growth).  These tests run a TensorFlow-flavoured
configuration through the same simulator to back the paper's pluggability
claim.
"""


from repro.allocator.caching import CachingAllocator
from repro.allocator.constants import AllocatorConfig
from repro.allocator.device import DeviceAllocator
from repro.core.orchestrator import EventKind, MemoryOp, OrchestratedSequence
from repro.core.simulator import MemorySimulator
from repro.units import GiB, KiB, MiB

#: TensorFlow's GPU BFC allocator: 256-byte alignment, coarser regions.
TF_BFC_CONFIG = AllocatorConfig(
    min_block_size=256,
    small_size=256 * KiB,
    small_buffer=1 * MiB,
    large_buffer=8 * MiB,
    min_large_alloc=4 * MiB,
    round_large=2 * MiB,
)


class TestTensorFlowFlavour:
    def test_alignment_differs(self):
        torch_alloc = CachingAllocator(DeviceAllocator(capacity=GiB))
        tf_alloc = CachingAllocator(
            DeviceAllocator(capacity=GiB), config=TF_BFC_CONFIG
        )
        assert torch_alloc.malloc(200).size == 512  # 512 B minimum
        assert tf_alloc.malloc(200).size == 256  # 256 B alignment

    def test_segment_policy_differs(self):
        tf_alloc = CachingAllocator(
            DeviceAllocator(capacity=GiB), config=TF_BFC_CONFIG
        )
        tf_alloc.malloc(100)
        assert tf_alloc.reserved_bytes == 1 * MiB  # not PyTorch's 2 MiB
        tf_alloc.malloc(2 * MiB)
        assert tf_alloc.reserved_bytes == 1 * MiB + 8 * MiB

    def test_bfc_invariants_hold_for_both(self):
        for config in (AllocatorConfig(), TF_BFC_CONFIG):
            alloc = CachingAllocator(
                DeviceAllocator(capacity=GiB), config=config
            )
            blocks = [alloc.malloc(s) for s in (300, 5 * MiB, 700 * KiB)]
            for block in blocks[::2]:
                alloc.free(block)
            alloc.check_invariants()

    def test_simulator_accepts_custom_config(self):
        events = [
            MemoryOp(ts=1, kind=EventKind.ALLOC, block_id=1, size=3 * MiB),
            MemoryOp(ts=2, kind=EventKind.FREE, block_id=1, size=3 * MiB),
            MemoryOp(ts=3, kind=EventKind.ALLOC, block_id=2, size=2 * MiB),
        ]
        sequence = OrchestratedSequence.from_ops(
            events, horizon=4, num_blocks=2, persistent_bytes=0
        )
        torch_result = MemorySimulator().replay(sequence)
        tf_result = MemorySimulator(allocator_config=TF_BFC_CONFIG).replay(
            sequence
        )
        assert not torch_result.oom and not tf_result.oom
        # different constants, different reserved footprints
        assert (
            torch_result.peak_reserved_bytes != tf_result.peak_reserved_bytes
        )

    def test_estimator_accepts_custom_config(self):
        from repro.core.estimator import XMemEstimator
        from repro.workload import RTX_3060, WorkloadConfig

        workload = WorkloadConfig("MobileNetV3Small", "sgd", 32)
        default = XMemEstimator().estimate(workload, RTX_3060)
        tf_flavoured = XMemEstimator(
            allocator_config=TF_BFC_CONFIG
        ).estimate(workload, RTX_3060)
        assert tf_flavoured.peak_bytes > 0
        # same tensors, different allocator: footprints differ but stay
        # within the same ballpark
        ratio = tf_flavoured.peak_bytes / default.peak_bytes
        assert 0.5 < ratio < 2.0
