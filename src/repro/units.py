"""Byte-size units and formatting helpers used across the code base.

All memory sizes in this project are plain ``int`` byte counts.  These
helpers exist so that literals in model definitions, allocator constants,
and tests read naturally (``2 * MiB``) and so that reports render sizes
the way the paper does (GB curves, MB tables).  :func:`require_types`
is how the frozen configs keep their counts plain ``int``.
"""

from __future__ import annotations

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB

# Decimal units, used by NVML-style reporting (the paper reports GB).
KB = 1000
MB = 1000 * KB
GB = 1000 * MB

_BINARY_SUFFIXES = (
    (GiB, "GiB"),
    (MiB, "MiB"),
    (KiB, "KiB"),
)


def format_bytes(num_bytes: int, precision: int = 2) -> str:
    """Render a byte count with a binary suffix, e.g. ``format_bytes(3 * MiB)``
    -> ``"3.00 MiB"``.  Negative sizes (used for deallocation deltas in
    traces) keep their sign.
    """
    sign = "-" if num_bytes < 0 else ""
    magnitude = abs(num_bytes)
    for factor, suffix in _BINARY_SUFFIXES:
        if magnitude >= factor:
            return f"{sign}{magnitude / factor:.{precision}f} {suffix}"
    return f"{sign}{magnitude} B"


def format_gb(num_bytes: int, precision: int = 2) -> str:
    """Render a byte count in decimal gigabytes, matching the paper's units."""
    return f"{num_bytes / GB:.{precision}f} GB"


def parse_size(text: str) -> int:
    """Parse a human-readable size such as ``"12GiB"``, ``"8 GB"`` or
    ``"512"`` (plain bytes) into an integer byte count.

    Raises ``ValueError`` for unknown suffixes or malformed numbers.
    """
    cleaned = text.strip()
    suffixes = {
        "kib": KiB,
        "mib": MiB,
        "gib": GiB,
        "kb": KB,
        "mb": MB,
        "gb": GB,
        "b": 1,
        "": 1,
    }
    index = len(cleaned)
    while index > 0 and not cleaned[index - 1].isdigit():
        index -= 1
    number_part = cleaned[:index].strip()
    suffix_part = cleaned[index:].strip().lower()
    if suffix_part not in suffixes:
        raise ValueError(f"unknown size suffix {suffix_part!r} in {text!r}")
    if not number_part:
        raise ValueError(f"no numeric part in size {text!r}")
    return int(float(number_part) * suffixes[suffix_part])


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""
    if alignment <= 0:
        raise ValueError(f"alignment must be positive, got {alignment}")
    return ((value + alignment - 1) // alignment) * alignment


def require_types(config: object, **kinds: type) -> None:
    """Raise ``TypeError`` unless each named field of ``config`` is an
    instance of its kind, where a ``bool`` is never an ``int``.

    Equal configs must encode to identical JSON: ``8 == 8.0 == True``
    compare and hash equal but serialise differently, so a fingerprint
    memoised by value would answer with whichever spelling came first.
    """
    for field, kind in kinds.items():
        value = getattr(config, field)
        if not isinstance(value, kind) or (
            kind is int and isinstance(value, bool)
        ):
            raise TypeError(
                f"{type(config).__name__}.{field} must be {kind.__name__}, "
                f"got {value!r}"
            )
