"""Routing policies: which shard serves one fingerprint (sans-IO core).

Extracted from the gateway so the policies are pure, driver-independent
decision functions — no threads, no event loop, no clocks.  A policy sees
only the request fingerprint and the current per-shard loads; mutual
exclusion around stateful policies (the seeded RNG in
:class:`RandomRouting`) is the *driver's* job: all three gateway drivers
call ``select`` under their own serialization (the thread and process
gateways inside their lock, the asyncio gateway on the event loop).

Policies live entirely in the dispatching process: the process-pool
driver (:mod:`repro.service.procpool`) routes and admits in the parent
and ships only the request envelope to its workers, so ring tables and
RNG state are never pickled and never diverge across replicas.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from typing import Sequence

#: virtual nodes per shard on the consistent-hash ring (smooths the
#: key-space split so a 4-shard ring is within a few percent of 25/25/25/25)
DEFAULT_VNODES = 64


def _ring_hash(token: str) -> int:
    """Stable 64-bit position on the hash ring (process-independent)."""
    return int.from_bytes(
        hashlib.sha256(token.encode("utf-8")).digest()[:8], "big"
    )


class RoutingPolicy:
    """Picks the one shard that serves a fingerprint.

    ``select`` returns that shard's index; ``loads`` is the current
    queued-or-running count per shard.

    Policies may keep state (an RNG, ring tables) but must not
    synchronize: drivers serialize every ``select`` call themselves.
    """

    name = "policy"

    def select(self, fingerprint: str, loads: Sequence[int]) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class ConsistentHashRouting(RoutingPolicy):
    """Fingerprint-keyed consistent hashing: repeats share a shard.

    Classic ring construction — each shard owns ``vnodes`` pseudo-random
    arcs; a fingerprint routes to the first vnode clockwise from its own
    hash.  Cache locality is structural: identical fingerprints always
    map to the same shard, and resizing the fleet remaps only ~1/N of the
    key space (the arcs the new shard takes over).
    """

    name = "hash"

    def __init__(self, num_shards: int, vnodes: int = DEFAULT_VNODES):
        if num_shards < 1 or vnodes < 1:
            raise ValueError("need at least one shard and one vnode")
        positions = [
            (_ring_hash(f"shard-{shard}/vnode-{vnode}"), shard)
            for shard in range(num_shards)
            for vnode in range(vnodes)
        ]
        positions.sort()
        self._ring = [position for position, _ in positions]
        self._owner = [shard for _, shard in positions]

    def shard_for(self, fingerprint: str) -> int:
        index = bisect.bisect(self._ring, _ring_hash(fingerprint))
        return self._owner[index % len(self._owner)]

    def select(self, fingerprint, loads):
        return self.shard_for(fingerprint)


class RandomRouting(RoutingPolicy):
    """Seeded uniform routing — the no-locality baseline.

    A hot fingerprint is smeared across every shard, so each shard pays
    its own cold miss for the same key; benchmarks use this as the
    control :class:`ConsistentHashRouting` must beat on hit rate.
    """

    name = "random"

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def select(self, fingerprint, loads):
        return self._rng.randrange(len(loads))


class LeastLoadedRouting(RoutingPolicy):
    """Routes to the shard with the shortest queue (ties → lowest index).

    Ignores the fingerprint entirely: best when requests rarely repeat
    (cache locality is worthless) and worst-case queueing dominates.
    """

    name = "least_loaded"

    def select(self, fingerprint, loads):
        return min(range(len(loads)), key=lambda index: loads[index])


POLICY_NAMES = ("hash", "least_loaded", "random")


def make_policy(name: str, num_shards: int, seed: int = 0) -> RoutingPolicy:
    """Build a routing policy from its CLI/benchmark name."""
    if name == "hash":
        return ConsistentHashRouting(num_shards)
    if name == "random":
        return RandomRouting(seed=seed)
    if name == "least_loaded":
        return LeastLoadedRouting()
    raise ValueError(
        f"unknown routing policy {name!r}; choose from {sorted(POLICY_NAMES)}"
    )
