"""The four benchmark workloads, each with its correctness gate.

A workload has four phases, called by :mod:`perfbench.run`:

* ``setup()`` — trace synthesis and service/cluster construction, the
  work every CLI invocation pays before it serves anything.  Timed
  several times per run (corpus caches are cleared between repeats).
* ``generate()`` — the benchmark's own input generation from the seed;
  timed on its own and excluded from every metric.
* ``run_pass(index)`` — one complete, cold unit of the timed work: a
  fresh cluster (or fresh engine contexts) each time.
* ``check_pass(index, result, verdict)`` — right after each pass and
  outside its timing, compare its output with a reference computed
  without the serving layer or fast paths; the caller then drops the
  output, so no pass runs on a heap swollen by earlier passes' outputs.

Operations are matrix cells (paper-figures), submissions offered
(fleet-*) and sensor samples pushed (stream-fleet).

Passes and latencies are timed in CPU seconds of this process
(:func:`clock`), wall seconds kept alongside for the run record: on a
shared host the wall clock also counts time the process waits for a
core or for a journal ``fsync``, and those waits spread runs of the same
code past the benchmark's bounds.  Clusters pump their shards serially
on the driving thread, so every cycle of a pass is on this process's
clock and no thread hand-off adds scheduler jitter.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import shutil
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.apps import (
    HeadbuttApp,
    MusicJournalApp,
    PhraseDetectionApp,
    SirenDetectorApp,
    StepsApp,
    TransitionsApp,
    all_applications,
)
from repro.errors import SidewinderError
from repro.eval.experiments import paper_configurations
from repro.eval.figures import (
    FIGURE6_INTERVALS,
    figure5_series,
    figure6_series,
    figure7_series,
)
from repro.hub.runtime import WakeEvent
from repro.power.phone import NEXUS4
from repro.serve import (
    Completed,
    Failed,
    LoadSpec,
    Rejected,
    ShardCluster,
    StreamLoadSpec,
    Submission,
    completion_digest,
    fleet_workload,
    reference_result,
    run_cluster_fleet,
    stream_fleet_plan,
    stream_replay_workload,
)
from repro.serve.loadgen import submission_content_key
from repro.serve.openloop import DeviceConnectivity, StreamFleetReport
from repro.sim.configs import DutyCycling, Oracle, PredefinedActivity, Sidewinder
from repro.sim.engine import RunContext
from repro.sim.results import SimulationResult
from repro.traces import library

#: The corpus functions as defined (``lru_cache`` wrappers), kept so
#: repeated set-ups can clear their caches even while the module
#: attributes are wrapped by the tracer.
CORPUS_FUNCTIONS = (library.robot_corpus, library.audio_corpus, library.human_corpus)

#: Shards per cluster, pumped serially on the driving thread.
SHARDS = 2

#: The pass and latency clock: CPU seconds of this process.
clock = time.process_time

#: Fewest timed passes per run: metrics are medians over passes, and
#: the cost model settles afresh in every pass.
MIN_PASSES = 3

#: Submissions offered between cluster pumps (``run_cluster_fleet``'s
#: closed-loop shape).
PUMP_EVERY = 32

#: The significant-motion detector with a per-tenant threshold, the
#: heterogeneous fleet of ``benchmarks/test_serve.py``.
HETERO_DETECTOR = (
    "ACC_X -> movingAvg(id=1, params={{10}});"
    "ACC_Y -> movingAvg(id=2, params={{10}});"
    "ACC_Z -> movingAvg(id=3, params={{10}});"
    "1,2,3 -> vectorMagnitude(id=4);"
    "4 -> minThreshold(id=5, params={{{threshold:.4f}}});"
    "5 -> OUT;"
)


class BenchError(RuntimeError):
    """A workload could not run as specified."""


@dataclass
class PassResult:
    """One timed pass.

    Attributes:
        cpu_s: CPU seconds of the timed drive (:func:`clock`).
        wall_s: Wall seconds of the same drive.
        ops: Operations the pass performed.
        latencies_s: One latency per operation sample, in CPU seconds.
        waits_s: Queue wait per submission, offer to the start of the
            answering pump, in CPU seconds (fleets only).
        output: What the correctness gate inspects (for fleets, each
            submission's response, ``None`` if never answered).
        counts: Per-layer counters read from the program's public
            counters at the end of the pass.
    """

    cpu_s: float
    wall_s: float
    ops: int
    latencies_s: List[float]
    output: object
    waits_s: List[float] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)


@dataclass
class Verdict:
    """Outcome of a correctness gate."""

    attempted: int
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(note)


def clear_corpus_caches() -> None:
    for corpus in CORPUS_FUNCTIONS:
        corpus.cache_clear()


def corrupt_result(result: object) -> object:
    """The same result with one wake event shifted by one second (or,
    for a simulation result, one extra hub wake-up counted)."""
    if isinstance(result, SimulationResult):
        return dataclasses.replace(result, hub_wake_count=result.hub_wake_count + 1)
    events = list(result)
    if events:
        events[0] = WakeEvent(events[0].time + 1.0, events[0].value)
    else:
        events.append(WakeEvent(0.0, 0.0))
    return tuple(events)


def engine_counts(stats: Sequence[Dict[str, int]]) -> Dict[str, float]:
    """Cache-hit ratio over ``CacheStats.as_dict()`` snapshots."""
    hits = sum(s[k] for s in stats for k in s if k.endswith("_hits"))
    misses = sum(s[k] for s in stats for k in s if k.endswith("_misses"))
    ratio = hits / (hits + misses) if hits + misses else 0.0
    return {"engine.cache_hit_ratio": ratio}


class Workload:
    """Base class; see the module docstring for the phases."""

    name = ""
    #: Rough seconds of one pass on the 2-core reference box.  The pass
    #: count is ``max(MIN_PASSES, ceil(seconds / nominal_pass_s))``,
    #: fixed per run length, so both sides of a comparison do the same
    #: work.
    nominal_pass_s = 1.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def passes_for(self, seconds: float) -> int:
        return max(MIN_PASSES, math.ceil(seconds / self.nominal_pass_s))

    def setup(self) -> None:
        raise NotImplementedError

    def generate(self, passes: int) -> None:
        """Build the seeded inputs of ``passes`` passes (default: nothing
        to build)."""

    def prepare_pass(self, index: int) -> None:
        """Build inputs of pass ``index`` too large to hold for every
        pass at once; untimed, before the pass's heap reset."""

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def check_pass(self, index: int, result: PassResult, verdict: Verdict) -> None:
        """Add pass ``index``'s operations and mismatches to ``verdict``."""
        raise NotImplementedError

    def corrupt(self, result: PassResult) -> None:
        """Damage one output of pass 0 so the gate must fail."""
        raise NotImplementedError


# -- paper-figures -----------------------------------------------------


class PaperFigures(Workload):
    """Figures 5-7, run serially from explicit corpora.

    Table 2 is left out of the timed pass: the cost model's wall-clock
    probes settle one of its audio fingerprints on the compiled or the
    rounds tier at random, which moves a pass by about 40 % of its CPU
    time and 300 MB of RSS, so no run length makes it steady.
    """

    name = "paper-figures"
    nominal_pass_s = 3.3
    #: Cells re-run with every ``RunContext`` fast path off, per artifact.
    SAMPLE_PER_ARTIFACT = 2

    def __init__(self, seed: int, workdir: Path, cell_timer: "CellTimer"):
        super().__init__(seed, workdir)
        self.cell_timer = cell_timer

    def setup(self) -> None:
        self.load_corpora(0)

    def prepare_pass(self, index: int) -> None:
        if index:
            self.load_corpora(index)

    def load_corpora(self, index: int) -> None:
        """Synthesize pass ``index``'s corpora: every corpus base seed
        offset by ``10000 × pass_seed`` (pass 0 of seed 0 = the paper's
        corpora)."""
        # Drop the previous corpora first, so they do not stack up in
        # memory.
        self.robot = self.human = self.group1 = None
        clear_corpus_caches()
        offset = 10_000 * pass_seed(self.seed, index)
        self.robot = list(library.robot_corpus(600.0, 1000 + offset))
        self.human = list(library.human_corpus(1200.0, 2000 + offset))
        self.group1 = [t for t in self.robot if t.metadata.get("group") == 1]

    def run_pass(self, index: int) -> PassResult:
        artifacts = (
            ("figure5", lambda: figure5_series(self.robot)),
            ("figure6", lambda: figure6_series(self.group1)),
            ("figure7", lambda: figure7_series(self.human)),
        )
        series, matrices = {}, {}
        self.cell_timer.start()
        started, began = clock(), time.perf_counter()
        for name, build in artifacts:
            self.cell_timer.mark()
            series[name], matrices[name] = build()
        cpu, wall = clock() - started, time.perf_counter() - began
        latencies = self.cell_timer.stop()
        counts = engine_counts([m.execution.cache_stats for m in matrices.values()])
        output = {"series": _plain(series), "matrices": matrices}
        ops = sum(len(m.results) for m in matrices.values())
        return PassResult(cpu, wall, ops, latencies, output, counts=counts)

    def _artifact_inputs(self, artifact: str):
        if artifact == "figure5":
            configs = paper_configurations()
            apps = [StepsApp(), TransitionsApp(), HeadbuttApp()]
            traces = self.robot
        elif artifact == "figure6":
            configs = [DutyCycling(i) for i in FIGURE6_INTERVALS]
            apps = [StepsApp(), TransitionsApp(), HeadbuttApp()]
            traces = self.group1
        else:
            configs = paper_configurations(sleep_intervals=(10.0,))
            apps = [StepsApp()]
            traces = self.human
        return (
            {c.name: c for c in configs},
            {a.name: a for a in apps},
            {t.name: t for t in traces},
        )

    def sampled_cells(self, index: int, matrices) -> List[Tuple[str, int]]:
        rng = random.Random(pass_seed(self.seed, index))
        picks = []
        for artifact, matrix in matrices.items():
            count = min(self.SAMPLE_PER_ARTIFACT, len(matrix.results))
            picks.extend(
                (artifact, i) for i in rng.sample(range(len(matrix.results)), count)
            )
        return picks

    def check_pass(self, index: int, result: PassResult, verdict: Verdict) -> None:
        verdict.attempted += result.ops
        series = result.output["series"]
        if self.seed == 0 and index == 0:
            expected = _load_series("figure5")
            wrong = _count_differences(expected, series["figure5"])
            if wrong:
                verdict.fail(
                    f"figure5: {wrong} values differ from results/figure5.json",
                    wrong,
                )
        matrices = result.output["matrices"]
        for artifact, cell in self.sampled_cells(index, matrices):
            got = matrices[artifact].results[cell]
            configs, apps, traces = self._artifact_inputs(artifact)
            oracle = configs[got.config_name].run(
                apps[got.app_name],
                traces[got.trace_name],
                NEXUS4,
                context=RunContext(
                    cache=False, fuse=False, compiled=False,
                    batch=False, shape_batch=False,
                ),
            )
            if oracle != got:
                verdict.fail(
                    f"{artifact} cell {got.config_name}/{got.app_name}/"
                    f"{got.trace_name} differs from the fast-path-off run"
                )

    def corrupt(self, result: PassResult) -> None:
        matrices = result.output["matrices"]
        artifact, cell = self.sampled_cells(0, matrices)[0]
        results = matrices[artifact].results
        results[cell] = corrupt_result(results[cell])
        figure5 = result.output["series"]["figure5"]
        group = figure5[min(figure5)]
        app = group[min(group)]
        app[min(app)] += 1e-9


def _plain(value: object) -> object:
    """Nested series with string keys, as they read back from JSON."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


def _load_series(artifact: str) -> dict:
    root = Path(__file__).resolve().parent.parent
    return json.loads((root / "results" / f"{artifact}.json").read_text())["series"]


def _count_differences(expected: object, got: object) -> int:
    if isinstance(expected, dict) and isinstance(got, dict):
        keys = set(expected) | set(got)
        return sum(
            _count_differences(expected.get(k), got.get(k)) for k in keys
        )
    return 0 if expected == got else 1


class CellTimer:
    """The paper-figures latency: for every cell, the CPU seconds from the
    start of its artifact's sweep (:meth:`mark`) to the return of the
    cell's outermost ``SensingConfiguration.run`` — the time the sweep
    took to produce that cell, batched hub prewarm included."""

    CLASSES = ("AlwaysAwake", "DutyCycling", "Batching", "Oracle",
               "PredefinedActivity", "Sidewinder")

    def __init__(self) -> None:
        self._active = False
        self._depth = 0
        self._origin = 0.0
        self._samples: List[float] = []

    def install(self) -> None:
        from repro.sim import configs

        for name in self.CLASSES:
            cls = getattr(configs, name)
            cls.run = self._wrap(cls.__dict__["run"])

    def _wrap(self, run):
        timer = self

        def timed(*args, **kwargs):
            if not timer._active or timer._depth:
                return run(*args, **kwargs)
            timer._depth += 1
            try:
                return run(*args, **kwargs)
            finally:
                timer._samples.append(clock() - timer._origin)
                timer._depth -= 1

        timed.__wrapped__ = run
        return timed

    def start(self) -> None:
        self._samples = []
        self._active = True

    def mark(self) -> None:
        """A new artifact's sweep starts now."""
        self._origin = clock()

    def stop(self) -> List[float]:
        self._active = False
        return self._samples


# -- fleets ------------------------------------------------------------


def drive_fleet(
    cluster: ShardCluster, submissions: Sequence[Submission]
) -> Tuple[float, List[float], List[float], List[object]]:
    """The closed loop of ``run_cluster_fleet`` (offer ``PUMP_EVERY``,
    pump, repeat, then drain), timing every submission from its offer
    to the return of the pump or drain call that answered it.

    Returns ``(cpu_s, wall_s, latencies_s, waits_s, responses)``; a
    refused or unanswered submission counts as an infinite latency.
    """
    n = len(submissions)
    offered = [0.0] * n
    latencies = [math.inf] * n
    waits = [math.inf] * n
    responses: List[object] = [None] * n
    index: Dict[Tuple[int, int], int] = {}

    def deliver(call) -> None:
        began = clock()
        batches = call()
        returned = clock()
        for shard, batch in batches.items():
            for response in batch:
                i = index[(shard, response.ticket.submission_id)]
                responses[i] = response
                latencies[i] = returned - offered[i]
                waits[i] = began - offered[i]

    started, wall_began = clock(), time.perf_counter()
    for i, submission in enumerate(submissions):
        offered[i] = clock()
        routed = cluster.submit(submission)
        if isinstance(routed.response, Rejected):
            responses[i] = routed.response
        else:
            index[(routed.shard, routed.response.submission_id)] = i
        if (i + 1) % PUMP_EVERY == 0:
            deliver(cluster.pump)
    deliver(cluster.drain)
    cpu, wall = clock() - started, time.perf_counter() - wall_began
    return cpu, wall, latencies, waits, responses


def pass_seed(seed: int, index: int) -> int:
    """Load seed of pass ``index`` in a run seeded ``seed``: every pass
    drives a fresh fleet, so a run's figures average over several
    arrival orders (pass 0 of seed 0 is the CLI's default fleet)."""
    return seed * 1000 + index


def journal_bytes(directory: Path) -> int:
    """Size of a pass's shard journals; the directory is then removed,
    so passes do not pile journals up on disk."""
    size = sum(path.stat().st_size for path in directory.glob("*.wal"))
    shutil.rmtree(directory, ignore_errors=True)
    return size


def skew(values: Sequence[float]) -> float:
    """Max over mean (1.0 is perfectly even; 0 when nothing ran)."""
    mean = sum(values) / len(values) if values else 0.0
    return max(values) / mean if mean > 0 else 0.0


class FleetWorkload(Workload):
    """Shared machinery of the two one-shot fleets."""

    journaled = False

    def make_traces(self) -> Dict[str, object]:
        raise NotImplementedError

    def setup(self) -> None:
        self.traces = None
        clear_corpus_caches()
        self.traces = self.make_traces()
        cluster, _ = self.make_cluster("setup")
        cluster.shutdown()

    def make_cluster(self, tag: str) -> Tuple[ShardCluster, List[RunContext]]:
        contexts: List[RunContext] = []

        def context() -> RunContext:
            contexts.append(RunContext())
            return contexts[-1]

        journal = None
        if self.journaled:
            journal = self.workdir / tag
            shutil.rmtree(journal, ignore_errors=True)
        cluster = ShardCluster(
            self.traces,
            shards=SHARDS,
            journal_dir=journal,
            context_factory=context,
            parallel_pumps=False,
        )
        return cluster, contexts

    def run_pass(self, index: int) -> PassResult:
        submissions = self.submissions[index]
        cluster, contexts = self.make_cluster(f"pass-{index}")
        try:
            cpu, wall, latencies, waits, responses = drive_fleet(
                cluster, submissions
            )
            metrics = cluster.metrics()
        finally:
            cluster.shutdown()
        counts = engine_counts([c.stats.as_dict() for c in contexts])
        counts["service.rejected"] = sum(metrics.merged.rejected.values())
        counts["router.accept_skew"] = skew(
            [shard.accepted for shard in metrics.per_shard]
        )
        if self.journaled:
            counts["journal.bytes"] = journal_bytes(self.workdir / f"pass-{index}")
        return PassResult(
            cpu, wall, len(submissions), latencies,
            responses, waits_s=waits, counts=counts,
        )

    def expected(self, submission: Submission, cache: dict) -> object:
        """Reference outcome: a result, or the error type expected in a
        ``Failed`` response.  Shared across tenants, which cannot change
        a result."""
        key = submission_content_key(submission)[1:-1]
        if key not in cache:
            try:
                cache[key] = reference_result(submission, self.traces)
            except SidewinderError as error:
                cache[key] = ("error", type(error).__name__)
        return cache[key]

    def checked_indices(self, index: int) -> Sequence[int]:
        """Submissions of pass ``index`` compared with the reference."""
        return range(len(self.submissions[index]))

    def check_pass(self, index: int, result: PassResult, verdict: Verdict) -> None:
        verdict.attempted += result.ops
        cache = self.__dict__.setdefault("_expected", {})
        checked = set(self.checked_indices(index))
        for i, response in enumerate(result.output):
            if not isinstance(response, (Completed, Failed)):
                verdict.fail(f"pass {index} submission {i}: {response!r}")
                continue
            if i not in checked:
                continue
            expected = self.expected(self.submissions[index][i], cache)
            if isinstance(expected, tuple) and expected[:1] == ("error",):
                ok = isinstance(response, Failed) and response.error_type == expected[1]
            else:
                ok = isinstance(response, Completed) and response.result == expected
            if not ok:
                verdict.fail(
                    f"pass {index} submission {i} differs from reference_result"
                )

    def corrupt(self, result: PassResult) -> None:
        responses = result.output
        checked = set(self.checked_indices(0))
        for i, response in enumerate(responses):
            if i in checked and isinstance(response, Completed):
                responses[i] = dataclasses.replace(
                    response, result=corrupt_result(response.result)
                )
                return
        raise BenchError("no checked completion to corrupt")


class FleetZipf(FleetWorkload):
    """``fleet_workload(LoadSpec(fleet=1000))`` over the serve-bench
    registry, on a journaled 2-shard cluster."""

    name = "fleet-zipf"
    nominal_pass_s = 2.0
    journaled = True
    FLEET = 1000
    DURATION_S = 300.0

    def make_traces(self) -> Dict[str, object]:
        traces = (
            library.robot_corpus(self.DURATION_S)[:3]
            + library.audio_corpus(self.DURATION_S)
            + library.human_corpus(self.DURATION_S)
        )
        return {trace.name: trace for trace in traces}

    def generate(self, passes: int) -> None:
        self.submissions = [
            fleet_workload(
                LoadSpec(fleet=self.FLEET, seed=pass_seed(self.seed, index)),
                all_applications(),
                list(self.traces.values()),
            )
            for index in range(passes)
        ]


class FleetRetuned(FleetWorkload):
    """1000 devices, each its own significant-motion threshold, on an
    unjournaled 2-shard cluster: every fingerprint is unique."""

    name = "fleet-retuned"
    nominal_pass_s = 2.0
    FLEET = 1000
    DURATION_S = 600.0
    #: Completions compared with ``reference_result`` per run.
    SAMPLE = 64

    def make_traces(self) -> Dict[str, object]:
        traces = library.robot_corpus(self.DURATION_S) + library.human_corpus(
            self.DURATION_S
        )
        return {trace.name: trace for trace in traces}

    def generate(self, passes: int) -> None:
        self.submissions = [
            self._fleet(random.Random(pass_seed(self.seed, index)))
            for index in range(passes)
        ]

    def _fleet(self, rng: random.Random) -> List[Submission]:
        names = sorted(self.traces)
        # Distinct steps of 1e-4 just above gravity: unique thresholds,
        # so unique fingerprints, with sparse wake events.
        steps = rng.sample(range(12_000), self.FLEET)
        return [
            Submission(
                tenant=f"device-{device:04d}",
                trace=rng.choice(names),
                il=HETERO_DETECTOR.format(threshold=10.3 + step / 10_000),
            )
            for device, step in enumerate(steps)
        ]

    def checked_indices(self, index: int) -> Sequence[int]:
        per_pass = math.ceil(self.SAMPLE / len(self.submissions))
        rng = random.Random(pass_seed(self.seed, index) + 1)
        return sorted(rng.sample(range(len(self.submissions[index])), per_pass))


# -- stream-fleet ------------------------------------------------------


@dataclass
class StreamOutput:
    """One streamed drive: registered subscriptions and their logs."""

    by_subscription: Dict[Tuple[int, int], Submission]
    events: Dict[Tuple[int, int], tuple]

    def report(self) -> StreamFleetReport:
        return StreamFleetReport(
            by_subscription=self.by_subscription, events=self.events
        )


class StreamFleet(Workload):
    """``stream_fleet_plan`` driven through a journaled 2-shard cluster
    the way ``run_stream_fleet`` drives it."""

    name = "stream-fleet"
    nominal_pass_s = 2.0
    FLEET = 200
    DURATION_S = 64.0

    def setup(self) -> None:
        cluster = self.make_cluster("setup")
        cluster.shutdown()

    def make_cluster(self, tag: str) -> ShardCluster:
        journal = self.workdir / tag
        shutil.rmtree(journal, ignore_errors=True)
        return ShardCluster(
            traces={}, shards=SHARDS, journal_dir=journal, parallel_pumps=False
        )

    def generate(self, passes: int) -> None:
        self.spec = StreamLoadSpec(
            fleet=self.FLEET, seed=self.seed, duration_s=self.DURATION_S
        )
        self.plans = stream_fleet_plan(self.spec)

    def run_pass(self, index: int) -> PassResult:
        cluster = self.make_cluster(f"pass-{index}")
        try:
            cpu, wall, samples, latencies, output = self._drive(cluster)
            metrics = cluster.metrics()
        finally:
            cluster.shutdown()
        counts = {
            "router.accept_skew": skew(
                [shard.stream_chunks for shard in metrics.per_shard]
            ),
            "service.rejected": sum(metrics.merged.rejected.values()),
            "journal.bytes": journal_bytes(self.workdir / f"pass-{index}"),
        }
        return PassResult(cpu, wall, samples, latencies, output, counts=counts)

    def _drive(self, cluster: ShardCluster):
        """``run_stream_fleet`` without recovery, timing each chunk from
        the return of its ``push_chunk`` to the return of the pump that
        evaluated it."""
        plans, spec = self.plans, self.spec
        rounds = max(len(plan.chunks) for plan in plans)
        sent = {plan.stream: 0 for plan in plans}
        schedules = {
            plan.stream: DeviceConnectivity(
                spec.seed, device, spec.disconnect_rate, spec.mean_gap_rounds
            ).schedule(rounds)
            for device, plan in enumerate(plans)
        }
        pushed_at: List[float] = []
        latencies: List[float] = []
        samples = 0
        by_subscription: Dict[Tuple[int, int], Submission] = {}
        events: Dict[Tuple[int, int], tuple] = {}

        def deliver(plan, upto: int) -> None:
            nonlocal samples
            for seq in range(sent[plan.stream], upto):
                chunk = plan.chunks[seq]
                _, applied = cluster.push_chunk(
                    plan.tenant, plan.stream, seq, chunk,
                    rate_hz=dict(plan.rate_hz) if seq == 0 else None,
                )
                pushed_at.append(clock())
                if applied is None:
                    raise BenchError(f"shard down for {plan.stream}")
                sent[plan.stream] = seq + 1
                samples += sum(len(column) for column in chunk.values())

        def pump() -> None:
            cluster.pump()
            returned = clock()
            latencies.extend(returned - t for t in pushed_at)
            pushed_at.clear()

        started, wall_began = clock(), time.perf_counter()
        for now_round in range(rounds):
            for plan in plans:
                if now_round < len(plan.chunks) and schedules[plan.stream][now_round]:
                    deliver(plan, now_round + 1)
            if now_round == 0:
                for plan in plans:
                    for submission in plan.submissions:
                        shard, outcome = cluster.subscribe_stream(submission)
                        if isinstance(outcome, Rejected):
                            raise BenchError(f"subscription refused: {outcome}")
                        by_subscription[(shard, outcome)] = submission
            pump()
        while any(sent[plan.stream] < len(plan.chunks) for plan in plans):
            for plan in plans:
                deliver(plan, len(plan.chunks))
            pump()
        for plan in plans:
            shard = cluster.router.route_stream(plan.tenant, plan.stream)
            for sub_id, log in cluster.close_stream(plan.tenant, plan.stream).items():
                events[(shard, sub_id)] = log
        cpu, wall = clock() - started, time.perf_counter() - wall_began
        return cpu, wall, samples, latencies, StreamOutput(by_subscription, events)

    def replay_reference(self) -> Tuple[Dict[tuple, List[object]], str]:
        """Replay completions per content key, and the replay digest."""
        traces, submissions = stream_replay_workload(self.plans)
        cluster = ShardCluster(traces, shards=SHARDS, parallel_pumps=False)
        try:
            replay = run_cluster_fleet(cluster, submissions, pump_every=PUMP_EVERY)
        finally:
            cluster.shutdown()
        reference: Dict[tuple, List[object]] = defaultdict(list)
        for submission, response in replay.pairs:
            if not isinstance(response, Completed):
                raise BenchError(f"replay reference failed: {response!r}")
            reference[submission_content_key(submission)].append(response.result)
        return reference, completion_digest(replay.pairs)

    def check_pass(self, index: int, result: PassResult, verdict: Verdict) -> None:
        if index == 0:
            self.reference, self.digest = self.replay_reference()
        output = result.output
        verdict.attempted += len(output.by_subscription)
        streamed: Dict[tuple, List[object]] = defaultdict(list)
        for key, submission in output.by_subscription.items():
            streamed[submission_content_key(submission)].append(
                output.events.get(key, ())
            )
        for key in set(self.reference) | set(streamed):
            wrong = _multiset_misses(streamed.get(key, []), self.reference.get(key, []))
            if wrong:
                verdict.fail(
                    f"pass {index} {key[0]} {key[1]}: {wrong} logs differ", wrong
                )
        if index == 0 and not verdict.failed and output.report().digest() != self.digest:
            verdict.fail("pass 0 completion_digest differs from the replay digest")

    def corrupt(self, result: PassResult) -> None:
        events = result.output.events
        key = min(events)
        events[key] = corrupt_result(events[key])


def _multiset_misses(got: List[object], expected: List[object]) -> int:
    """Items of ``got`` or ``expected`` left unmatched by equality."""
    remaining = list(expected)
    misses = 0
    for item in got:
        for j, candidate in enumerate(remaining):
            if candidate == item:
                del remaining[j]
                break
        else:
            misses += 1
    return max(misses, len(remaining))


WORKLOADS = {
    PaperFigures.name: PaperFigures,
    FleetZipf.name: FleetZipf,
    FleetRetuned.name: FleetRetuned,
    StreamFleet.name: StreamFleet,
}
