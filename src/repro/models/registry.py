"""Model registry: every workload of the paper's Table 2 by name.

A :class:`ModelSpec` couples a builder with the input/label shapes a
training iteration consumes, so workloads can be described as
``(model name, optimizer, batch size)`` exactly as in the paper.

The registry holds names, families and shapes, never model code: each
builder is named by its module and function, and its module loads on the
first ``spec.build()``.  Listing or validating models loads no layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import TYPE_CHECKING, Callable

from ..errors import ModelNotFoundError
from ..framework.dtypes import DType
from ..framework.tensor import TensorMeta
from .transformer import configs

if TYPE_CHECKING:
    from ..framework.module import Module

#: Image side used for CNN workloads.  The paper trains on a 12 GB RTX 3060
#: with batches 200-700; 64x64 inputs put that grid on the fits/OOM
#: boundary of the simulated devices (DESIGN.md, substitutions).
CNN_IMAGE_SIZE = 64
#: Sequence length used for transformer workloads.
SEQ_LEN = 128
#: Number of classes for CNN heads.
NUM_CLASSES = 1000


@dataclass(frozen=True)
class ModelSpec:
    """A registered model: builder plus workload input description."""

    name: str
    family: str  # "cnn" | "transformer"
    build: Callable[[], Module]
    input_meta: Callable[[int], TensorMeta]
    label_meta: Callable[[int], TensorMeta]
    year: int = 0
    rq5_only: bool = False
    causal_lm: bool = False  # True for decoder-only LMs (LLMem's scope)
    notes: str = ""
    aliases: tuple[str, ...] = field(default=())


def _builder(path: str) -> Callable[..., Module]:
    """The callable at ``path`` (``"module.name"`` under this package),
    its module imported when the builder is first called."""
    module, _, name = path.rpartition(".")

    def build(*args, **kwargs) -> Module:
        return getattr(import_module(f".{module}", __package__), name)(*args, **kwargs)

    return build


def _cnn_spec(name: str, builder: str, year: int) -> ModelSpec:
    build = _builder(f"cnn.{builder}")
    return ModelSpec(
        name=name,
        family="cnn",
        build=lambda: build(image_size=CNN_IMAGE_SIZE, num_classes=NUM_CLASSES),
        input_meta=lambda batch: TensorMeta(
            (batch, 3, CNN_IMAGE_SIZE, CNN_IMAGE_SIZE)
        ),
        label_meta=lambda batch: TensorMeta((batch,), dtype=DType.int64),
        year=year,
    )


def _decoder_spec(
    config, year: int, rq5_only: bool = False, seq_len: int = SEQ_LEN
) -> ModelSpec:
    build = _builder("transformer.decoder.DecoderLM")
    return ModelSpec(
        name=config.name,
        family="transformer",
        build=lambda: build(config),
        input_meta=lambda batch: TensorMeta((batch, seq_len), dtype=DType.int64),
        label_meta=lambda batch: TensorMeta((batch, seq_len), dtype=DType.int64),
        year=year,
        rq5_only=rq5_only,
        causal_lm=True,
    )


def _t5_spec(config, year: int) -> ModelSpec:
    build = _builder("transformer.t5.T5Model")
    return ModelSpec(
        name=config.name,
        family="transformer",
        build=lambda: build(config),
        input_meta=lambda batch: TensorMeta((batch, SEQ_LEN), dtype=DType.int64),
        label_meta=lambda batch: TensorMeta((batch, SEQ_LEN), dtype=DType.int64),
        year=year,
        causal_lm=False,  # encoder-decoder: outside LLMem's CausalLM scope
    )


_SPECS: dict[str, ModelSpec] = {}


def _register(spec: ModelSpec) -> None:
    for key in (spec.name, *spec.aliases):
        lowered = key.lower()
        if lowered in _SPECS:
            raise ValueError(f"duplicate model registration: {key}")
        _SPECS[lowered] = spec


# --- CNNs (Table 2, upper half) --------------------------------------
_register(_cnn_spec("VGG16", "vgg.vgg16", 2014))
_register(_cnn_spec("VGG19", "vgg.vgg19", 2014))
_register(_cnn_spec("ResNet101", "resnet.resnet101", 2016))
_register(_cnn_spec("ResNet152", "resnet.resnet152", 2016))
_register(_cnn_spec("MobileNetV2", "mobilenet.mobilenet_v2", 2018))
_register(_cnn_spec("MobileNetV3Small", "mobilenet.mobilenet_v3_small", 2019))
_register(_cnn_spec("MobileNetV3Large", "mobilenet.mobilenet_v3_large", 2019))
_register(_cnn_spec("MnasNet", "mnasnet.mnasnet", 2019))
_register(_cnn_spec("RegNetX400MF", "regnet.regnet_x_400mf", 2020))
_register(_cnn_spec("RegNetY400MF", "regnet.regnet_y_400mf", 2020))
_register(_cnn_spec("ConvNeXtTiny", "convnext.convnext_tiny", 2022))
_register(_cnn_spec("ConvNeXtBase", "convnext.convnext_base", 2022))

# --- Transformers (Table 2, lower half) -------------------------------
_register(_decoder_spec(configs.DISTILGPT2, 2019))
_register(_decoder_spec(configs.GPT2, 2019))
_register(_t5_spec(configs.T5_SMALL, 2020))
_register(_t5_spec(configs.T5_BASE, 2020))
_register(_decoder_spec(configs.GPT_NEO_125M, 2022))
_register(_decoder_spec(configs.OPT_125M, 2022))
_register(_decoder_spec(configs.OPT_350M, 2022))
_register(_decoder_spec(configs.CEREBRAS_GPT_111M, 2023))
_register(_decoder_spec(configs.PYTHIA_1B, 2023))
_register(_decoder_spec(configs.QWEN3_0_6B, 2025))

# --- RQ5 large models (Table 2, '*' rows) -----------------------------
_register(_decoder_spec(configs.LLAMA_3_2_3B, 2024, rq5_only=True))
_register(
    _decoder_spec(configs.DEEPSEEK_R1_DISTILL_QWEN_1_5B, 2025, rq5_only=True)
)
_register(_decoder_spec(configs.QWEN3_4B, 2025, rq5_only=True))


def get_model_spec(name: str) -> ModelSpec:
    """Look up a model spec by (case-insensitive) name."""
    try:
        return _SPECS[name.lower()]
    except KeyError:
        raise ModelNotFoundError(
            f"unknown model {name!r}; known: {sorted({s.name for s in _SPECS.values()})}"
        ) from None


def list_models(
    family: str | None = None, include_rq5: bool = False
) -> list[ModelSpec]:
    """All registered specs, optionally filtered by family."""
    seen: dict[str, ModelSpec] = {}
    for spec in _SPECS.values():
        seen.setdefault(spec.name, spec)
    specs = sorted(seen.values(), key=lambda s: s.name.lower())
    if family is not None:
        specs = [s for s in specs if s.family == family]
    if not include_rq5:
        specs = [s for s in specs if not s.rq5_only]
    return specs


def rq5_models() -> list[ModelSpec]:
    """The three large models used only in RQ5."""
    seen: dict[str, ModelSpec] = {}
    for spec in _SPECS.values():
        if spec.rq5_only:
            seen.setdefault(spec.name, spec)
    return sorted(seen.values(), key=lambda s: s.name.lower())
