"""Almost-sure winning in concurrent stochastic games with imperfect
information on both sides: model, knowledge construction, solver, and exact
evaluation oracles."""

from .errors import (
    GameError,
    ResourceLimit,
    SchemaError,
    ValidationError,
)
from .evaluation import (
    EvalResult,
    ProductChain,
    best_response_full_info,
    build_chain,
    monte_carlo,
    objective_probability,
)
from .halfplayer import (
    BeliefGraph,
    OneHalfGame,
    PositiveWinReport,
    positive_cobuchi,
    positive_safety,
)
from .knowledge import (
    KnowledgeArena,
    build_knowledge_arena,
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
    SolveReport,
    decide_almost_sure_buchi,
    decide_almost_sure_reach,
    fix_candidate,
)

__version__ = "0.1.0"
