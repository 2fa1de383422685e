"""Optimizer memory models."""

from ..._lazy import lazy_exports

#: every export and the module that defines it, imported on first use
_EXPORTS = {
    "is_optimizer": ".optimizers",
    "make_optimizer": ".optimizers",
    "optimizer_names": ".optimizers",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
