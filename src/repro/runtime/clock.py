"""Virtual microsecond clock driving all trace timestamps.

Everything in the runtime is measured in *virtual* microseconds so runs are
deterministic and traces are reproducible byte-for-byte under a fixed seed.
"""

from __future__ import annotations


class VirtualClock:
    """Monotonic microsecond counter."""

    def __init__(self, start_us: int = 0):
        self._now = start_us

    @property
    def now(self) -> int:
        return self._now

    def advance(self, delta_us: int) -> int:
        """Move time forward; returns the new timestamp."""
        if delta_us < 0:
            raise ValueError(f"cannot move time backwards ({delta_us})")
        self._now += delta_us
        return self._now

    def tick(self) -> int:
        """Advance by the smallest unit — separates ordered events."""
        self._now += 1
        return self._now
