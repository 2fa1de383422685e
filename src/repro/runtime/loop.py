"""Training-loop configuration.

The paper's Figure 1 shows that the *placement* of
``optimizer.zero_grad()`` alone changes the segment footprint:

* ``POS0`` — called after the forward pass, right before ``backward()``:
  last iteration's gradients stay alive through the whole forward pass.
* ``POS1`` — called at the start of the iteration: gradients are released
  before the forward pass allocates activations.

``set_to_none=True`` (the modern PyTorch default) makes ``zero_grad``
actually *free* gradient buffers; with ``False`` the buffers are zeroed in
place and placement no longer affects memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..workload import POS0, POS1

#: Default number of profiled iterations; persistent state is allocated in
#: iteration 1, memory stabilizes by iterations 2-3 (§3.1 footnote 2).
DEFAULT_PROFILE_ITERATIONS = 3


@dataclass(frozen=True)
class TrainLoopConfig:
    """Shape of the training loop the engine executes."""

    iterations: int = 3
    zero_grad_position: str = POS1
    set_to_none: bool = True

    def __post_init__(self) -> None:
        if self.zero_grad_position not in (POS0, POS1):
            raise ValueError(
                f"zero_grad_position must be {POS0!r} or {POS1!r}, "
                f"got {self.zero_grad_position!r}"
            )
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
