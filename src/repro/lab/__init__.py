"""NetPowerBench: the lab half of the paper's tooling (§5).

Everything needed to derive a router power model from scratch: a simulated
MCP39F511N power meter, a traffic generator with the paper's tool
behaviours, RFC 8239 snake cabling, and the orchestrator that runs the
Base / Idle / Port / Trx / Snake experiment protocol.
"""

from repro.lab.power_meter import (
    MCP39F511N_ACCURACY,
    MeterChannel,
    PowerMeter,
    PowerSample,
    PowerSummary,
    summarize,
)
from repro.lab.traffic_gen import Flow, TrafficGenerator
from repro.lab.snake import (
    SnakeLayout,
    apply_snake_traffic,
    cable_pairs,
    cable_snake,
    clear_traffic,
    teardown,
)
from repro.lab.modular import (
    LinecardDerivationReport,
    ModularOrchestrator,
)
from repro.lab.orchestrator import (
    EXPERIMENTS,
    ExperimentPlan,
    ExperimentSuite,
    MeasurementFrame,
    Orchestrator,
)

__all__ = [
    "LinecardDerivationReport",
    "ModularOrchestrator",
    "MCP39F511N_ACCURACY",
    "MeterChannel",
    "PowerMeter",
    "PowerSample",
    "PowerSummary",
    "summarize",
    "Flow",
    "TrafficGenerator",
    "SnakeLayout",
    "apply_snake_traffic",
    "cable_pairs",
    "cable_snake",
    "clear_traffic",
    "teardown",
    "EXPERIMENTS",
    "ExperimentPlan",
    "ExperimentSuite",
    "MeasurementFrame",
    "Orchestrator",
]
