"""Fault-tolerant replicated-lane simulation and analysis toolkit."""

from .coverage import (CoverageLevel, CoverageSample, RiskReport,
                       functional_coverage, peripheral_coverage, time_at_risk,
                       zonal_coverage)
from .fault import (Consensus, FaultKind, FaultSpec, FaultTarget,
                    InsufficientLanes, TargetKind, VoteOutcome, VoterConfig,
                    bit_detects, classify, cross_monitor, exchange_vote)
from .jitter import InsufficientInstances, measure_jitter
from .model import (Architecture, ApplicationSpec, BusSpec, InvalidModel,
                    LaneSpec, MalformedDocument, MessageSpec, ProcessorRole,
                    ProcessorSpec, StateModel, StateStrategy, SystemModel,
                    TaskSpec, TimingConfig, Violation, build_system)
from .processor import schedule_processor
from .reconfig import (Copy, Health, Outcome, PlacementPlan, ReconfigRecord,
                       select_spare)
from .scenario import (Scenario, generate_scenario, load_scenario,
                       parse_scenario)
from .sim import Engine, ScenarioInvalid, SimResult, TraceEvent, run
from .timing import (AdmissionDecision, BusState, NoBandwidth, ProcessorState,
                     admit_task, available_transfer_bandwidth, check_comms,
                     transfer_time)

__version__ = "0.1.0"
