"""CNN model zoo (Table 2, convolutional half)."""

from ..._lazy import lazy_exports

#: every export is the submodule of that name, imported on first use
_EXPORTS = {
    "common": ".common",
    "convnext": ".convnext",
    "mnasnet": ".mnasnet",
    "mobilenet": ".mobilenet",
    "regnet": ".regnet",
    "resnet": ".resnet",
    "vgg": ".vgg",
}

__all__ = ["common", "convnext", "mnasnet", "mobilenet", "regnet", "resnet", "vgg"]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
