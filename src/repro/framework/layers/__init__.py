"""Layer library of the symbolic framework."""

from ..._lazy import lazy_exports

#: every export and the module that defines it, imported on first use
_EXPORTS = {
    "make_activation": ".activation",
    "MultiHeadSelfAttention": ".attention",
    "Conv2d": ".conv",
    "ConvBnAct": ".conv",
    "Dropout": ".dropout",
    "Embedding": ".embedding",
    "PositionalEmbedding": ".embedding",
    "Linear": ".linear",
    "GroupNorm": ".norm",
    "LayerNorm": ".norm",
    "RMSNorm": ".norm",
    "AdaptiveAvgPool2d": ".pooling",
    "GlobalAvgPoolFlatten": ".pooling",
    "MaxPool2d": ".pooling",
    "Flatten": ".shape",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
