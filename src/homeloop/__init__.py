"""homeloop: a seedable household mobile-manipulation simulator with
closed-loop replanning, hierarchical failure recovery, and a metrics harness.

Layers, bottom to top: a ground-truth 2D world with stochastic action
outcomes; a three-level perception stack (global furniture map, local object
maps, close-up inspection); the six primitive-action APIs; rule-based success
and feasibility verification; a budgeted object/local/global recovery state
machine; pluggable planners (deterministic scripted policy or an external
chat model); and the trial/suite harness with SR/SSR/RR accounting and
deterministic JSON-lines traces.
"""

from .errors import (
    ApiCallError,
    BudgetExceeded,
    ConfigError,
    ExplorationStalled,
    Fault,
    NotAtReceptacle,
    PolicyStuck,
    PreconditionFault,
    TargetNotVisible,
    TraceFormatError,
    TransportError,
)
from .world import (
    ActionRequest,
    GroundOutcome,
    NoiseModel,
    World,
    WorldConfig,
    load_config_file,
    parse_config,
    vary_config,
)
from .goals import Goal, Selector, goal_satisfied, parse_goal
from .perception import Belief, GlobalMap, LocalMap, Observation, SceneObject
from .skills import Feedback, SkillContext, dispatch
from .verification import (
    FailureRecord,
    FeasibilityVerdict,
    SuccessVerdict,
    classify_failure,
    verify_feasibility,
    verify_success,
)
from .recovery import RecoveryDirective, RecoveryEpisode, select_recovery
from .planning import (
    ChatModelPlanner,
    DialogueHistory,
    PlannerView,
    ScriptedPlanner,
    TranscriptBackend,
    parse_plan,
)
from .harness import SuiteConfig, TaskSpec, TrialOptions, run_suite, run_trial
from .trace import TrialReport, load_trace_file, write_trace_file
from .metrics import MetricsTable, compute_metrics

__version__ = "0.1.0"
