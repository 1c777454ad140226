"""Tier-choice diagnostics, recorded in every run.

The cost model picks execution tiers from wall-clock probes
(``PROBE_THRESHOLD_S`` plus seconds-per-item comparisons), so two runs
of one commit can settle differently and time differently.  This log
counts every ``CostModel.choose`` outcome and remembers each model it
saw, so a run record can list each fingerprint's settled
``CostModel.selection`` and a digest of them.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter, defaultdict
from typing import Dict


class TierLog:
    """Counts tier choices; collects every cost model that chose."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self._models: Dict[int, object] = {}

    def install(self) -> None:
        from repro.hub.costmodel import CostModel

        choose = CostModel.choose
        log = self

        def counted(model, fingerprint, allowed):
            tier = choose(model, fingerprint, allowed)
            log.counts[tier] += 1
            log._models[id(model)] = model
            return tier

        counted.__wrapped__ = choose
        CostModel.choose = counted

    def selections(self) -> Dict[str, str]:
        """Fingerprint (or shape signature) → settled tier; several
        tiers joined by ``/`` when shards or passes settled differently,
        ``unsettled`` while probing was unfinished."""
        seen = defaultdict(set)
        for model in self._models.values():
            for key, tiers in model.as_dict().items():
                seen[key].add(model.selection(key, tuple(tiers)) or "unsettled")
        return {key: "/".join(sorted(tiers)) for key, tiers in sorted(seen.items())}

    def summary(self) -> Dict[str, object]:
        selections = self.selections()
        blob = json.dumps(selections, sort_keys=True).encode()
        return {
            "choose_counts": dict(sorted(self.counts.items())),
            "settled": dict(sorted(Counter(selections.values()).items())),
            "digest": hashlib.sha256(blob).hexdigest()[:16],
            "selections": selections,
        }
