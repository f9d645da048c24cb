"""Multi-player bandits with capacity-shareable arms.

Simulation engine, decentralized policies coordinating over collision
signals, baseline heuristics, and a reproducible experiment harness.
"""

from .engine import (
    InvalidActionError,
    Observation,
    Policy,
    PublicEnvInfo,
    RunTrace,
    run,
)
from .model import (
    AssignmentProfile,
    EnvSpec,
    Feedback,
    InfeasibleAssignmentError,
    OptimalProfile,
    expected_reward,
    optimal_profile_for,
    oracle,
)
from .protocol import ProtocolCorruptionError
from .dpe import DpeSdiPolicy, UnsupportedFeedbackError
from .sic import SicSdaPolicy
from .baselines import FixedArmPolicy, HighestRewardPolicy, IdlestArmPolicy
from .scenarios import Scenario, ScenarioError, load_scenario, preset_scenarios
from .harness import AggregateResult, RunResult, emit_outputs, run_experiment

__all__ = [
    "AggregateResult",
    "AssignmentProfile",
    "DpeSdiPolicy",
    "EnvSpec",
    "Feedback",
    "FixedArmPolicy",
    "HighestRewardPolicy",
    "IdlestArmPolicy",
    "InfeasibleAssignmentError",
    "InvalidActionError",
    "Observation",
    "OptimalProfile",
    "Policy",
    "ProtocolCorruptionError",
    "PublicEnvInfo",
    "RunResult",
    "RunTrace",
    "Scenario",
    "ScenarioError",
    "SicSdaPolicy",
    "UnsupportedFeedbackError",
    "emit_outputs",
    "expected_reward",
    "load_scenario",
    "optimal_profile_for",
    "oracle",
    "preset_scenarios",
    "run",
    "run_experiment",
]
