"""Transformer model zoo (Table 2, transformer half + RQ5 models)."""

from ..._lazy import lazy_exports

#: every export and the module that defines it, imported on first use
_EXPORTS = {
    "configs": ".configs",
    "DecoderConfig": ".configs",
    "T5Config": ".configs",
    "DecoderBlock": ".decoder",
    "DecoderLM": ".decoder",
    "T5Model": ".t5",
}

__all__ = [
    "DecoderBlock",
    "DecoderConfig",
    "DecoderLM",
    "T5Config",
    "T5Model",
    "configs",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
