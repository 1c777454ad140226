"""The low-power sensor hub (paper Sections 3.4-3.5).

The hub is the manufacturer-provided side of Sidewinder: one or more
low-power microcontrollers plus a runtime that interprets intermediate
language pushed by the sensor manager.  This package provides:

* :mod:`repro.hub.mcu` — microcontroller descriptors (TI MSP430 and
  TI LM4F120, with the paper's measured power draws);
* :mod:`repro.hub.feasibility` — the real-time feasibility model that
  decides which MCU a wake-up condition needs (the paper's MSP430 could
  not run FFT-based filtering of audio in real time);
* :mod:`repro.hub.runtime` — the interpreter executing a validated
  dataflow graph over incoming sensor chunks;
* :mod:`repro.hub.compile` — the compiler lowering fusion-eligible
  graphs to whole-trace numpy array programs (the interpreter stays
  the semantics oracle: compiled wake events are bit-identical);
* :mod:`repro.hub.hub` — the :class:`SensorHub` facade managing several
  concurrent wake-up conditions and their listeners;
* :mod:`repro.hub.faults` — deterministic system-fault injection (hub
  resets, lossy links, flaky wake interrupts);
* :mod:`repro.hub.reliability` — the reliable transport (CRC framing,
  ACK/retry, heartbeats) a production hub vendor would ship.
"""

from repro.hub.compile import (
    CompiledPlan,
    PlanStep,
    compile_eligibility,
    compile_graph,
)
from repro.hub.delivery import (
    RAW_DELIVERY,
    TRIGGER_DELIVERY,
    DeliveryMode,
    DeliverySpec,
    payload_bytes,
)
from repro.hub.faults import NO_FAULTS, FaultInjector, FaultPlan
from repro.hub.feasibility import FeasibilityReport, analyze, is_feasible, select_mcu
from repro.hub.fpga import ARTIX_CLASS, ICE40_CLASS, FPGAModel, select_processor
from repro.hub.link import (
    I2C_FAST_MODE,
    SPI_20MHZ,
    UART_DEBUG,
    LinkModel,
    sample_bytes_for_kind,
)
from repro.hub.reliability import (
    DEFAULT_RELIABILITY,
    ReliabilityPolicy,
    ReliableLink,
    TransferOutcome,
)
from repro.hub.merge import (
    MergedProgram,
    MultiTapRuntime,
    merge_programs,
    merged_cycles_per_second,
    merged_graph,
)
from repro.hub.hub import PushedCondition, SensorHub
from repro.hub.mcu import DEFAULT_CATALOG, LM4F120, MSP430, MCUModel
from repro.hub.runtime import EventLog, HubRuntime, WakeEvent
from repro.hub.state import AlgorithmState

__all__ = [
    "ARTIX_CLASS",
    "DEFAULT_CATALOG",
    "DEFAULT_RELIABILITY",
    "DeliveryMode",
    "DeliverySpec",
    "EventLog",
    "FPGAModel",
    "FaultInjector",
    "FaultPlan",
    "I2C_FAST_MODE",
    "ICE40_CLASS",
    "LM4F120",
    "LinkModel",
    "MSP430",
    "NO_FAULTS",
    "RAW_DELIVERY",
    "ReliabilityPolicy",
    "ReliableLink",
    "SPI_20MHZ",
    "TRIGGER_DELIVERY",
    "TransferOutcome",
    "UART_DEBUG",
    "AlgorithmState",
    "CompiledPlan",
    "FeasibilityReport",
    "MergedProgram",
    "MultiTapRuntime",
    "HubRuntime",
    "MCUModel",
    "PlanStep",
    "PushedCondition",
    "SensorHub",
    "WakeEvent",
    "analyze",
    "compile_eligibility",
    "compile_graph",
    "is_feasible",
    "merge_programs",
    "merged_cycles_per_second",
    "merged_graph",
    "payload_bytes",
    "sample_bytes_for_kind",
    "select_mcu",
    "select_processor",
]
