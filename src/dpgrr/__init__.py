"""Distributed stochastic proximal-gradient optimization with random reshuffling.

A desk-scale simulator for non-smooth finite-sum minimization over
time-varying multi-agent networks: agents run local reshuffled gradient
passes, mix their estimates through products of doubly stochastic
matrices, and apply one proximal step per epoch.
"""

__version__ = "0.1.0"

from .engine import (  # noqa: F401
    ALGORITHMS,
    NonFiniteIterate,
    ProblemBundle,
    RunConfig,
    RunTrace,
    StepBoundViolation,
    StepRule,
    run,
    step_scale_bound,
)
from .netgraph import (  # noqa: F401
    ConsensusWeights,
    GraphSchedule,
    MixingMatrix,
    StepsMode,
    consensus_weights_for_epoch,
    metropolis_weights,
    validate_schedule,
)
from .objectives import (  # noqa: F401
    SmoothLossKind,
    full_objective,
    gradient_bound,
    lipschitz_constant,
    sample_value_grad,
)
from .proxops import (  # noqa: F401
    Regularizer,
    RegKind,
    inexact_prox_error,
    prox,
    subgradient,
)
from .reference import ReferenceSolution, centralized_prox_rr, solve_centralized  # noqa: F401
from .sampling import Mode, epoch_indices, prefix_average_stats  # noqa: F401
