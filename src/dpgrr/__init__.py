"""Distributed stochastic proximal-gradient optimization with random reshuffling.

A desk-scale simulator for non-smooth finite-sum minimization over
time-varying multi-agent networks: agents run local reshuffled gradient
passes, mix their estimates through products of doubly stochastic
matrices, and apply one proximal step per epoch.
"""

__version__ = "0.1.0"

from .config import StepRule, step_scale_bound  # noqa: F401
from .engine import (  # noqa: F401
    ALGORITHMS,
    NonFiniteIterate,
    ProblemBundle,
    RunConfig,
    RunTrace,
    run,
)
from .netgraph import (  # noqa: F401
    GraphSchedule,
    MixingMatrix,
    StepsMode,
    metropolis_weights,
    validate_schedule,
)
from .objectives import (  # noqa: F401
    SmoothLossKind,
    full_objective,
    gradient_bound,
    lipschitz_constant,
)
from .proxops import (  # noqa: F401
    Regularizer,
    RegKind,
    prox,
    subgradient,
)
from .reference import ReferenceSolution, solve_centralized  # noqa: F401
from .sampling import Mode  # noqa: F401
