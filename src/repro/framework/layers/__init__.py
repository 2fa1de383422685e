"""Layer library of the symbolic framework."""

from ..._lazy import lazy_exports

#: every export and the module that defines it, imported on first use
_EXPORTS = {
    "GELU": ".activation",
    "Hardsigmoid": ".activation",
    "Hardswish": ".activation",
    "ReLU": ".activation",
    "Sigmoid": ".activation",
    "SiLU": ".activation",
    "Softmax": ".activation",
    "Tanh": ".activation",
    "make_activation": ".activation",
    "MultiHeadSelfAttention": ".attention",
    "Conv2d": ".conv",
    "ConvBnAct": ".conv",
    "Dropout": ".dropout",
    "Embedding": ".embedding",
    "PositionalEmbedding": ".embedding",
    "Linear": ".linear",
    "BatchNorm2d": ".norm",
    "GroupNorm": ".norm",
    "LayerNorm": ".norm",
    "RMSNorm": ".norm",
    "AdaptiveAvgPool2d": ".pooling",
    "AvgPool2d": ".pooling",
    "GlobalAvgPoolFlatten": ".pooling",
    "MaxPool2d": ".pooling",
    "Flatten": ".shape",
    "Reshape": ".shape",
}

__all__ = [
    "AdaptiveAvgPool2d",
    "AvgPool2d",
    "BatchNorm2d",
    "Conv2d",
    "ConvBnAct",
    "Dropout",
    "Embedding",
    "Flatten",
    "GELU",
    "GlobalAvgPoolFlatten",
    "GroupNorm",
    "Hardsigmoid",
    "Hardswish",
    "LayerNorm",
    "Linear",
    "MaxPool2d",
    "MultiHeadSelfAttention",
    "PositionalEmbedding",
    "RMSNorm",
    "ReLU",
    "Reshape",
    "Sigmoid",
    "SiLU",
    "Softmax",
    "Tanh",
    "make_activation",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
