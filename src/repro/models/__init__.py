"""Model zoo: all 25 models of the paper's Table 2."""

from .._lazy import lazy_exports

#: every export and the module that defines it, imported on first use
_EXPORTS = {
    "CNN_IMAGE_SIZE": ".registry",
    "ModelSpec": ".registry",
    "NUM_CLASSES": ".registry",
    "SEQ_LEN": ".registry",
    "get_model_spec": ".registry",
    "list_models": ".registry",
    "rq5_models": ".registry",
}

__all__ = [
    "CNN_IMAGE_SIZE",
    "ModelSpec",
    "NUM_CLASSES",
    "SEQ_LEN",
    "get_model_spec",
    "list_models",
    "rq5_models",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
