"""Optimizer memory models."""

from ..._lazy import lazy_exports

#: every export and the module that defines it, imported on first use
_EXPORTS = {
    "Optimizer": ".base",
    "SGD": ".optimizers",
    "Adafactor": ".optimizers",
    "Adagrad": ".optimizers",
    "Adam": ".optimizers",
    "AdamW": ".optimizers",
    "RMSprop": ".optimizers",
    "is_optimizer": ".optimizers",
    "make_optimizer": ".optimizers",
    "optimizer_names": ".optimizers",
}

__all__ = [
    "Adafactor",
    "Adagrad",
    "Adam",
    "AdamW",
    "Optimizer",
    "RMSprop",
    "SGD",
    "is_optimizer",
    "make_optimizer",
    "optimizer_names",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
