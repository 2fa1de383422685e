"""Symbolic deep-learning framework: modules plan allocation sequences.

This substitutes for PyTorch in the reproduction: modules carry parameter
metadata and *plan* their forward pass as a DAG of :class:`OpSpec` records
(output sizes, saved-for-backward sets, workspaces).  The training runtime
interprets plans to generate the memory-event streams xMem consumes.
"""

from .._lazy import lazy_exports

# ``tensor`` is both a function and the submodule defining it; importing the
# submodule sets this package's attribute to the module, so the function is
# bound here, after that import, not left to the lazy table
from .tensor import tensor

#: every export and the module that defines it, imported on first use
#: (``layers`` and ``optim`` are the subpackages themselves)
_EXPORTS = {
    "DEFAULT_DTYPE": ".dtypes",
    "DType": ".dtypes",
    "layers": ".layers",
    "CrossEntropyLoss": ".loss",
    "MSELoss": ".loss",
    "Identity": ".module",
    "Module": ".module",
    "Parameter": ".module",
    "Residual": ".module",
    "Sequential": ".module",
    "optim": ".optim",
    "ModulePlan": ".plan",
    "OpSpec": ".plan",
    "PlanContext": ".plan",
    "TensorMeta": ".tensor",
    "TensorRole": ".tensor",
}

__all__ = [
    "CrossEntropyLoss",
    "DEFAULT_DTYPE",
    "DType",
    "Identity",
    "MSELoss",
    "Module",
    "ModulePlan",
    "OpSpec",
    "Parameter",
    "PlanContext",
    "Residual",
    "Sequential",
    "TensorMeta",
    "TensorRole",
    "layers",
    "optim",
    "tensor",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
