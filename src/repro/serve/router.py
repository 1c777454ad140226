"""Deterministic shard routing via rendezvous (HRW) hashing.

The cluster needs an assignment of submissions to shards that is

* **deterministic** — the same ``(tenant, trace)`` key always lands on
  the same shard, across processes and runs, so cluster results are
  bit-reproducible and a recovered shard sees exactly the keys it saw
  before the crash;
* **tenant-spreading** — the key is ``tenant ␟ trace`` (see
  :func:`route_key`), so one tenant's submissions against different
  traces spread across shards while all of one tenant's submissions
  against one trace (and that device's stream) share a shard.
  Coalescing happens *within* a shard, so fingerprint dedup and
  tensor-major batching only combine work whose keys land together:
  identical conditions from different tenants over the same trace
  usually route to different shards and run once per shard; and
* **stable under resizing** — growing N → N+1 shards should strand as
  little routing state as possible.

Rendezvous hashing (highest random weight, Thaler & Ravishankar 1996)
gives all three without a ring or a table: every ``(key, shard)`` pair
gets a score from a cryptographic hash, and the key lives on the shard
with the highest score.  Adding a shard only remaps the keys whose new
score beats their old maximum — an expected ``1/(N+1)`` of them — and
removing one only remaps the keys it owned.  Scores come from SHA-256,
so routing never depends on ``PYTHONHASHSEED`` or platform ``hash()``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

from repro.errors import SidewinderError
from repro.serve.submission import Submission

__all__ = ["ShardRouter", "route_key"]


def route_key(tenant: str, trace: str) -> str:
    """The routing key for a submission: tenant plus trace name.

    Both components place the key: a tenant's multi-trace portfolio
    spreads across shards, and the same trace under different tenants
    does too, so cross-tenant dedup only happens among tenants that
    share a shard.  ``0x1f`` (unit separator) keeps ``("a", "bc")``
    distinct from ``("ab", "c")``.
    """
    return f"{tenant}\x1f{trace}"


class ShardRouter:
    """Stateless rendezvous router over ``shards`` numbered ``0..N-1``.

    Args:
        shards: Shard count; must be positive.
        salt: Optional namespace mixed into every score, so two
            clusters with different salts route the same keys
            differently (e.g. A/B topologies in one test).
    """

    def __init__(self, shards: int, salt: str = ""):
        if shards < 1:
            raise SidewinderError(
                f"a cluster needs at least one shard, got {shards}"
            )
        self._shards = int(shards)
        self._salt = salt

    @property
    def shards(self) -> int:
        """The shard count this router spreads keys over."""
        return self._shards

    def _score(self, key: str, shard: int) -> int:
        digest = hashlib.sha256(
            f"{self._salt}\x1f{shard}\x1f{key}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big")

    def route(self, tenant: str, trace: str) -> int:
        """The shard owning ``(tenant, trace)`` — highest score wins."""
        key = route_key(tenant, trace)
        best_shard = 0
        best_score = -1
        for shard in range(self._shards):
            score = self._score(key, shard)
            if score > best_score:
                best_score = score
                best_shard = shard
        return best_shard

    def route_submission(self, submission: Submission) -> int:
        """Route a submission by its ``(tenant, trace)`` pair."""
        return self.route(submission.tenant, submission.trace)

    def route_stream(self, tenant: str, stream: str) -> int:
        """The shard owning a device stream.

        Streams route exactly like traces — the stream name *is* the
        trace name its subscriptions carry — so every chunk of a
        device's stream, every subscription over it, and any eventual
        replay of its assembled trace all land on the same shard.
        """
        return self.route(tenant, stream)

    def assignment(
        self, keys: List[Tuple[str, str]]
    ) -> Dict[int, List[Tuple[str, str]]]:
        """Bulk-route ``(tenant, trace)`` keys; shard → its keys.

        Every shard appears in the result, owners of nothing included,
        so balance checks can iterate shards without a default.
        """
        owned: Dict[int, List[Tuple[str, str]]] = {
            shard: [] for shard in range(self._shards)
        }
        for tenant, trace in keys:
            owned[self.route(tenant, trace)].append((tenant, trace))
        return owned
