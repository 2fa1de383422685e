"""Canonical request fingerprints for the estimation service.

Two estimation requests are *the same request* iff they agree on the
workload, the device, the allocator configuration, and the estimator
(name + version).  The fingerprint is a stable SHA-256 over the canonical
JSON encoding of exactly those inputs, so it can key the estimate cache,
the single-flight table, and any future persistent store — across
processes and across runs.

Stability contract: the payload layout (field names and order) is
versioned via :data:`FINGERPRINT_VERSION`; bump it whenever the canonical
encoding changes so stale persisted entries can never alias fresh ones.

One fingerprint per identity: every input is frozen, so
:func:`fingerprint_request` is memoised in a bounded LRU keyed by the
argument *values* (a TCP request decodes fresh ``WorkloadConfig`` /
``DeviceSpec`` objects, so keying by identity would never hit).  A hit
costs one hash of the argument tuple instead of three dict builds, a
sorted JSON dump and a SHA-256.  The memo holds :data:`FINGERPRINT_MEMO_SIZE` identities,
as many answers as a default :class:`~.cache.EstimateCache` keeps; an
identity past that bound is simply hashed again.

A value-keyed memo is only correct if *equal inputs encode identically*:
``8 == 8.0 == True`` compare and hash equal but serialise differently,
so the memo would answer with whichever spelling arrived first.
``WorkloadConfig``, ``DeviceSpec`` and ``AllocatorConfig`` therefore
reject a field of the wrong type at construction
(:func:`repro.units.require_types`; a ``bool`` is never an ``int``),
which makes equality imply a byte-identical payload.  The
uncached encoding stays reachable as ``fingerprint_request.__wrapped__``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from typing import Any, Optional

from ..allocator.constants import AllocatorConfig
from ..workload import DeviceSpec, WorkloadConfig
from .cache import DEFAULT_MAX_ENTRIES

#: Bump when the canonical payload layout changes.
FINGERPRINT_VERSION = 1

#: Hex digits kept from the SHA-256 digest (128 bits: collision-safe for
#: any conceivable request population, half the log noise).
DIGEST_LENGTH = 32

#: Request identities whose fingerprint is memoised.
FINGERPRINT_MEMO_SIZE = DEFAULT_MAX_ENTRIES


def request_payload(
    workload: WorkloadConfig,
    device: DeviceSpec,
    *,
    estimator_name: str,
    estimator_version: str = "",
    allocator_config: Optional[AllocatorConfig] = None,
) -> dict[str, Any]:
    """The canonical, JSON-ready identity of one estimation request."""
    return {
        "v": FINGERPRINT_VERSION,
        "estimator": {"name": estimator_name, "version": estimator_version},
        "workload": workload.as_dict(),
        "device": device.as_dict(),
        "allocator": (
            None
            if allocator_config is None
            else dataclasses.asdict(allocator_config)
        ),
    }


@functools.lru_cache(maxsize=FINGERPRINT_MEMO_SIZE)
def fingerprint_request(
    workload: WorkloadConfig,
    device: DeviceSpec,
    *,
    estimator_name: str,
    estimator_version: str = "",
    allocator_config: Optional[AllocatorConfig] = None,
) -> str:
    """Stable hex fingerprint of one estimation request."""
    payload = request_payload(
        workload,
        device,
        estimator_name=estimator_name,
        estimator_version=estimator_version,
        allocator_config=allocator_config,
    )
    encoded = json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:DIGEST_LENGTH]
