"""Table builders: the paper's Table 1 and Table 2.

Each builder returns plain data structures (lists of rows / nested
dicts) so benchmarks can both print them and assert on their shape.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps import MusicJournalApp, PhraseDetectionApp, SirenDetectorApp
from repro.eval.experiments import Matrix, run_matrix
from repro.power.phone import NEXUS4, PhonePowerProfile
from repro.sim.configs import Oracle, PredefinedActivity, Sidewinder
from repro.sim.engine import RunContext
from repro.traces.base import Trace
from repro.traces.library import audio_corpus

#: Paper Table 2, milliwatts, for shape comparison (the starred siren
#: value includes the LM4F120).
PAPER_TABLE2 = {
    "oracle": {"sirens": 16.8, "music_journal": 27.2, "phrase_detection": 14.7},
    "predefined_activity": {
        "sirens": 51.9, "music_journal": 51.9, "phrase_detection": 51.9,
    },
    "sidewinder": {"sirens": 63.1, "music_journal": 32.3, "phrase_detection": 35.6},
}


def build_table1(
    profile: PhonePowerProfile = NEXUS4,
) -> List[Tuple[str, float, str]]:
    """Table 1 rows: (state, average power mW, average duration)."""
    return profile.table1_rows()


def build_table2(
    traces: Sequence[Trace] | None = None,
    sound_threshold: float | None = None,
    jobs: int = 1,
    context: Optional[RunContext] = None,
) -> Tuple[Dict[str, Dict[str, float]], Matrix]:
    """Table 2: average power (mW) per audio app and wake-up mechanism.

    Args:
        traces: Audio traces to average over; defaults to the standard
            corpus.
        sound_threshold: Optional calibrated PA sound threshold.
        jobs: Worker processes for the sweep (1 = serial).
        context: Optional engine context; the fast-path switches set on
            it (memoization, fused, compiled, batched and shape-batched
            hub paths) govern the sweep.  ``None`` runs with every fast
            path on.

    Returns:
        ``(table, matrix)`` where ``table[config][app]`` is the mean
        power in mW and ``matrix`` holds the raw results.
    """
    traces = list(traces) if traces is not None else list(audio_corpus())
    pa = (
        PredefinedActivity(sound_threshold=sound_threshold)
        if sound_threshold is not None
        else PredefinedActivity()
    )
    configs = [Oracle(), pa, Sidewinder()]
    apps = [SirenDetectorApp(), MusicJournalApp(), PhraseDetectionApp()]
    matrix = run_matrix(configs, apps, traces, jobs=jobs, context=context)
    table: Dict[str, Dict[str, float]] = {}
    for config in configs:
        table[config.name] = {
            app.name: matrix.mean_power(config.name, app.name) for app in apps
        }
    return table, matrix
