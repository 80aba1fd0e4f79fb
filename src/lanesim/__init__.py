"""Fault-tolerant replicated-lane simulation and analysis toolkit."""

from .coverage import (CoverageLevel, CoverageSample, RiskReport,
                       functional_coverage, peripheral_coverage, time_at_risk,
                       zonal_coverage)
from .fault import (Consensus, FaultKind, FaultSpec, FaultTarget,
                    InsufficientLanes, TargetKind, VoteOutcome, VoterConfig,
                    bit_detects, can_identify_byzantine, classify,
                    cross_monitor, exchange_vote)
from .model import (Architecture, ApplicationSpec, BusSpec, InvalidModel,
                    LaneSpec, MalformedDocument, MessageSpec, ProcessorRole,
                    ProcessorSpec, StateModel, StateStrategy, SystemModel,
                    TaskSpec, TimingConfig, Violation, build_system,
                    initial_allocation)
from .reconfig import (Copy, FailedTask, Health, Outcome, PlacementPlan,
                       PoliceCounter, ReconfigRecord, ReplicaGroup,
                       SpareCandidate, recovery_order, select_spare)
from .scenario import (Scenario, generate_scenario, load_scenario,
                       parse_scenario)
from .sim import (Engine, InsufficientInstances, ScenarioInvalid, SimResult,
                  TraceEvent, measure_jitter, run, schedule_processor)
from .timing import (AdmissionDecision, BusState, NoBandwidth, ProcessorState,
                     admit_task, available_transfer_bandwidth, catchup_time,
                     check_comms, task_utilization, transfer_time)

__version__ = "0.1.0"
