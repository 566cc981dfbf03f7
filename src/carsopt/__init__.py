"""Black-box parameter design by continuously adapting random sampling.

Sampling probabilities over a discretized parameter tensor come from a
weighted softmax of observed fitness, shifting smoothly from uniform random
exploration to greedy exploitation.  An island NSGA-II baseline, analytic
surrogate problems, and a batch/CLI harness round out the toolkit.
"""

from .engine import (
    RunConfig,
    RunState,
    heuristic_schedule,
    neighbor_count,
    oversampling_width,
    resume,
    run,
)
from .evaluators import (
    BuiltinEvaluator,
    EvaluationRequest,
    EvaluationResult,
    ExternalEvaluator,
    builtin_problem,
    make_evaluator,
)
from .fitness import (
    NormalizationConstants,
    boundary_penalty,
    canberra_sqrt,
    evaluate_breakdown,
    is_valid,
    objective_fitness,
)
from .ga import IslandConfig, run_islands
from .knn import NeighborStore
from .problem import (
    BoundaryDef,
    ObjectiveDef,
    ParameterDef,
    ProblemSpec,
    load_problem,
    sampled_dimensions,
    to_physical,
)
from .tensor import SubdomainTensor

__version__ = "0.1.0"

__all__ = [
    "RunConfig",
    "RunState",
    "run",
    "resume",
    "heuristic_schedule",
    "oversampling_width",
    "neighbor_count",
    "BuiltinEvaluator",
    "ExternalEvaluator",
    "EvaluationRequest",
    "EvaluationResult",
    "builtin_problem",
    "make_evaluator",
    "NormalizationConstants",
    "canberra_sqrt",
    "boundary_penalty",
    "objective_fitness",
    "evaluate_breakdown",
    "is_valid",
    "IslandConfig",
    "run_islands",
    "NeighborStore",
    "ParameterDef",
    "ObjectiveDef",
    "BoundaryDef",
    "ProblemSpec",
    "sampled_dimensions",
    "to_physical",
    "load_problem",
    "SubdomainTensor",
]
