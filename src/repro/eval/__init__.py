"""Evaluation harness: metrics (Eqs. 1-8), two-round validation, drivers."""

from .._lazy import lazy_exports

#: every export and the module that defines it, imported on first use
_EXPORTS = {
    "default_estimators": ".runner",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
