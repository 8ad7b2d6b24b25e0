"""Almost-sure winning in concurrent stochastic games with imperfect
information on both sides: model, knowledge construction, solver, and exact
evaluation oracles."""

from .errors import (
    GameError,
    InconsistentObservation,
    NotClosed,
    ResourceLimit,
    SchemaError,
    ValidationError,
)
from .evaluation import (
    EvalResult,
    ProductChain,
    best_response_full_info,
    buchi_probability,
    build_chain,
    monte_carlo,
    objective_probability,
    reach_probability,
)
from .halfplayer import (
    BeliefGraph,
    OneHalfGame,
    PositiveWinReport,
    positive_cobuchi,
    positive_safety,
)
from .knowledge import (
    Knowledge,
    KnowledgeArena,
    KnowledgeOnlyStrategy,
    KnowledgeState,
    adapt_adam_strategy,
    build_knowledge_arena,
    knowledge_update,
    lift_strategy,
    lower_strategy,
)
from .model import (
    Arena,
    Distribution,
    FiniteMemoryStrategy,
    Objective,
    parse_game,
    parse_strategy,
    serialize_game,
    serialize_strategy,
    validate_strategy,
)
from .solver import (
    CandidateStrategy,
    SolveReport,
    decide_almost_sure_buchi,
    decide_almost_sure_reach,
    fix_candidate,
    random_safe_strategy,
)

__version__ = "0.1.0"
