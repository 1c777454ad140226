"""Submissions and structured responses of the fleet serving layer.

A :class:`Submission` is what one device-resident sensor manager sends
to the backend: *whose* request it is (tenant), *what* to evaluate (a
registry application, or a wake-up condition already lowered to textual
IL — the wire form the phone-side manager would push to its hub), and
*where* to evaluate it (a trace name, a hub catalog choice, the feed
chunking).

Every outcome is a value, never an exception: :class:`Rejected` at
admission time, then exactly one of :class:`Completed`,
:class:`Failed` or :class:`Cancelled` per accepted ticket.  Structured
responses are the contract that lets one tenant's malformed condition
or exhausted quota coexist with another tenant's batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from repro.hub.runtime import EventLog
from repro.sim.results import SimulationResult


class Lane(Enum):
    """Scheduling priority of a submission.

    INTERACTIVE is for small latency-sensitive requests (a developer
    iterating on one condition); BULK is for fleet sweeps.  The queue
    reserves capacity for the interactive lane and always serves it
    first, so a bulk flood cannot starve interactive tenants.
    """

    INTERACTIVE = "interactive"
    BULK = "bulk"


@dataclass(frozen=True)
class Submission:
    """One tenant request: evaluate a wake-up condition over a trace.

    Exactly one of ``app`` / ``il`` must be set:

    * ``app`` names a registry application; the service runs the full
      Sidewinder configuration (hub condition + precise detector +
      power accounting) and completes with a
      :class:`~repro.sim.results.SimulationResult`.
    * ``il`` carries raw intermediate-language text — the wire form a
      phone pushes to its hub.  The service runs the condition on the
      simulated hub only and completes with the wake-event log.

    Attributes:
        tenant: Tenant (device/app installation) identifier.
        trace: Name of a trace in the service's registry.
        app: Registry application name, or ``None``.
        il: IL program text, or ``None``.
        chunk_seconds: Hub feed chunking for raw-IL runs (application
            runs always use the engine default so they stay
            bit-identical to direct Sidewinder runs).
        hub: Hub catalog choice, a key of
            :data:`repro.serve.scheduler.HUB_CATALOGS`.
        lane: Scheduling priority lane.
    """

    tenant: str
    trace: str
    app: Optional[str] = None
    il: Optional[str] = None
    chunk_seconds: float = 4.0
    hub: str = "default"
    lane: Lane = Lane.BULK

    @property
    def kind(self) -> str:
        """``"app"`` or ``"il"`` — which payload the submission carries."""
        return "app" if self.app is not None else "il"


@dataclass(frozen=True)
class Ticket:
    """Receipt for an accepted submission.

    Attributes:
        submission_id: Service-assigned identifier; the key results are
            fetched under.
        tenant: The submitting tenant.
        submitted_at: Service-clock time of acceptance.
    """

    submission_id: int
    tenant: str
    submitted_at: float


@dataclass(frozen=True)
class Rejected:
    """Admission control refused a submission — a value, not an error.

    Attributes:
        tenant: The submitting tenant.
        reason: Machine-readable reason code — one of
            ``queue_full``, ``bulk_backpressure``, ``tenant_quota``,
            ``tenant_budget``, ``unknown_app``, ``unknown_trace``,
            ``unknown_hub``, ``malformed``, ``shutdown``,
            ``degraded`` (the shard's health monitor is shedding new
            batch work), ``journal_unavailable`` (the write-ahead
            journal could not make the acceptance durable).
        detail: Human-readable explanation.
    """

    tenant: str
    reason: str
    detail: str = ""


#: What a completed submission evaluates to: a full simulation result
#: (application submissions) or the hub wake events (raw-IL ones).
ServeResult = Union[SimulationResult, EventLog]


@dataclass(frozen=True)
class Completed:
    """A submission ran (or coalesced onto an identical run) successfully.

    Attributes:
        ticket: The submission's receipt.
        result: The simulation result or wake-event log.  Coalesced
            submissions share the payer's result object — bit-identical
            by construction.
        dedup: True when this submission never touched the engine: an
            identical (fingerprint, trace) work item paid for the run.
        latency: Service-clock time between acceptance and completion.
    """

    ticket: Ticket
    result: ServeResult
    dedup: bool = False
    latency: float = 0.0


@dataclass(frozen=True)
class Failed:
    """A submission was accepted but could not run.

    The error taxonomy is the library's own
    (:mod:`repro.errors`): ``error_type`` is the
    :class:`~repro.errors.SidewinderError` subclass name the validation
    or execution raised, captured per request so the rest of the batch
    is untouched.

    Attributes:
        ticket: The submission's receipt.
        error_type: Exception class name (e.g. ``ILSyntaxError``).
        message: The exception message.
        latency: Service-clock time between acceptance and the failure.
    """

    ticket: Ticket
    error_type: str
    message: str
    latency: float = 0.0


@dataclass(frozen=True)
class Cancelled:
    """A queued submission the service shut down before running.

    Attributes:
        ticket: The submission's receipt.
        reason: Why it never ran (currently always ``shutdown``).
    """

    ticket: Ticket
    reason: str = "shutdown"


#: Every terminal state an accepted ticket can reach.
Response = Union[Completed, Failed, Cancelled]
