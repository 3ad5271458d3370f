"""Synchronous epoch engine for the distributed proximal-gradient algorithms.

The agents' iterates are the rows of one ``(m, d)`` array.  One epoch of
the proximal algorithms has three barrier-separated phases:

  1. every agent takes n local stochastic gradient steps following its
     epoch index sequence; each step is one vectorized update of all rows,
  2. all agents' phase-1 outputs are mixed through the epoch's consensus
     weights (a product of schedule matrices),
  3. every agent applies the proximal map of the shared penalty.

The three samplers (reshuffling / with-replacement / fixed-order) share
this single code path and differ only in the index sequence they draw.
The subgradient baseline replaces the whole epoch body: one single-matrix
mixing step followed by one full local subgradient step with a decaying
step size.

Iterates are checked for finiteness once per phase.  Non-finite entries
stay non-finite under later gradient steps, so when the local phase ends
non-finite, replaying the lowest failing agent from its pre-epoch row
finds the first inner step that overflowed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import metrics as metrics_mod
from . import objectives
from .netgraph import GraphSchedule, StepsMode, consensus_weights_for_epoch
from .objectives import LocalDataset, SmoothLossKind
from .proxops import NonPositiveStep, Regularizer, prox, subgradient
from .sampling import Mode, SamplingSchedule, epoch_indices

__all__ = [
    "ALGORITHMS",
    "NonFiniteIterate",
    "StepBoundViolation",
    "StepBoundWarning",
    "step_scale_bound",
    "StepRule",
    "ProblemBundle",
    "RunConfig",
    "RunTrace",
    "run_epoch_dpgrr",
    "run_epoch_dgm",
    "run",
    "default_cadence",
]

ALGORITHMS = ("dpg-rr", "dpg-sg", "dpg-ig", "dgm")

_SAMPLER_FOR = {"dpg-rr": Mode.RR, "dpg-sg": Mode.SG, "dpg-ig": Mode.IG}


class NonFiniteIterate(FloatingPointError):
    """An iterate left the representable range; carries run context."""

    def __init__(self, agent: int, epoch: int, inner_step: int | None, phase: str):
        self.agent = agent
        self.epoch = epoch
        self.inner_step = inner_step
        self.phase = phase
        where = f"agent {agent}, epoch {epoch}, phase {phase}"
        if inner_step is not None:
            where += f", inner step {inner_step}"
        super().__init__(f"non-finite iterate at {where}")


class StepBoundViolation(ValueError):
    """The 1/sqrt(T) rule's scale exceeds its admissible bound."""


class StepBoundWarning(UserWarning):
    """An unenforced 1/sqrt(T) scale exceeds its admissible bound."""


def step_scale_bound(lipschitz: float, n: int) -> float:
    """Largest admissible scale M of the gamma = M / sqrt(T) rule."""
    return math.sqrt(6.0) / (6.0 * lipschitz * n)


@dataclass(frozen=True)
class StepRule:
    """Either a constant step size or gamma = scale / sqrt(T)."""

    rule: str  # "constant" | "sqrt_horizon"
    gamma: float | None = None
    scale: float | None = None

    def __post_init__(self) -> None:
        if self.rule not in ("constant", "sqrt_horizon"):
            raise ValueError(f"unknown step rule {self.rule!r}")
        if self.rule == "constant" and (self.gamma is None or self.gamma <= 0.0):
            raise ValueError("constant rule needs gamma > 0")
        if self.rule == "sqrt_horizon" and self.scale is not None and self.scale <= 0:
            raise ValueError("sqrt_horizon scale must be > 0")

    @classmethod
    def constant(cls, gamma: float) -> "StepRule":
        return cls("constant", gamma=float(gamma))

    @classmethod
    def sqrt_horizon(cls, scale: float | None = None) -> "StepRule":
        return cls("sqrt_horizon", scale=None if scale is None else float(scale))

    def bound_violation(self, lipschitz: float, n: int) -> str | None:
        """Why the rule's scale is inadmissible, or None if it is admissible."""
        if self.rule != "sqrt_horizon" or self.scale is None:
            return None
        bound = step_scale_bound(lipschitz, n)
        if self.scale > bound * (1.0 + 1e-12):
            return f"step scale {self.scale:g} exceeds admissible bound {bound:g}"
        return None

    def resolve(
        self, lipschitz: float, n: int, horizon: int, enforce_bound: bool = True
    ) -> float:
        """Concrete step size for a run of ``horizon`` epochs."""
        if self.rule == "constant":
            return self.gamma
        if horizon < 1:
            raise ValueError("sqrt_horizon rule needs horizon >= 1")
        violation = self.bound_violation(lipschitz, n)
        if violation is not None:
            if enforce_bound:
                raise StepBoundViolation(violation)
            warnings.warn(violation, StepBoundWarning, stacklevel=2)
        scale = step_scale_bound(lipschitz, n) if self.scale is None else self.scale
        return scale / math.sqrt(horizon)


@dataclass(frozen=True)
class ProblemBundle:
    """Everything a run needs besides the algorithm configuration."""

    datasets: tuple[LocalDataset, ...]
    dim: int
    kind: SmoothLossKind
    regularizer: Regularizer
    schedule: GraphSchedule
    f_star: float | None = None
    x_star: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "datasets", tuple(self.datasets))
        if not self.datasets:
            raise ValueError("problem needs at least one agent")
        n = self.datasets[0].n
        if any(ds.n != n for ds in self.datasets):
            raise ValueError("all agents must hold equally many samples")
        if self.schedule.m != len(self.datasets):
            raise ValueError(
                f"schedule is over {self.schedule.m} agents, data over {len(self.datasets)}"
            )

    @property
    def m(self) -> int:
        return len(self.datasets)

    @property
    def n(self) -> int:
        return self.datasets[0].n


@dataclass(frozen=True)
class RunConfig:
    """Algorithm selection and run-shaping knobs.

    ``cadence=None`` records every epoch up to 2000 epochs and about 2000
    evenly spaced rows beyond that.  ``share_agent_streams`` keys every
    agent's sampler identically (diagnostic use: symmetry tests).
    """

    algorithm: str
    horizon: int
    step: StepRule
    steps_mode: StepsMode = field(default_factory=StepsMode.growing)
    seed: int = 0
    cadence: int | None = None
    store_snapshots: bool = False
    record_v: bool = False
    record_sigma_star: bool = False
    enforce_step_bound: bool = True
    x0: float = 0.0
    share_agent_streams: bool = False

    def __post_init__(self) -> None:
        if self.algorithm.lower() not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if self.cadence is not None and self.cadence < 1:
            raise ValueError("cadence must be >= 1")


@dataclass
class RunTrace:
    """Recorded rows plus the per-record average and running-average iterates."""

    rows: list[metrics_mod.EpochMetrics]
    x_bar: dict[int, np.ndarray]
    x_hat: dict[int, np.ndarray]
    snapshots: dict[int, np.ndarray]
    gamma: float | None
    x_final: np.ndarray


def default_cadence(horizon: int) -> int:
    return 1 if horizon <= 2000 else math.ceil(horizon / 2000)


def _inner_step(kind: SmoothLossKind, gamma: float, x, a, y) -> None:
    """One gradient step of every row of ``x`` on its sample ``(a, y)``, in place."""
    z = np.einsum("jd,jd->j", a, x)
    x -= gamma * (objectives.loss_derivative(kind, z, y)[:, None] * a)


def _first_bad_step(kind: SmoothLossKind, gamma: float, x, a, y) -> int | None:
    """Replay one agent's local pass from ``x`` to its first non-finite step."""
    x = x[None, :].copy()
    for i in range(y.size):
        _inner_step(kind, gamma, x, a[None, i], y[None, i])
        if not np.isfinite(x).all():
            return i
    return None


def _check_phases(t: int, *phases: tuple[str, np.ndarray]) -> None:
    """Raise for the lowest agent with a non-finite row, naming its first bad phase."""
    bad = np.stack([~np.isfinite(x).all(axis=1) for _, x in phases])
    if bad.any():
        agent = int(np.argmax(bad.any(axis=0)))
        raise NonFiniteIterate(agent, t, None, phases[int(np.argmax(bad[:, agent]))][0])


def run_epoch_dpgrr(
    x: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    kind: SmoothLossKind,
    reg: Regularizer,
    gamma: float,
    weights: np.ndarray,
    samplers: list[SamplingSchedule],
    t: int,
    record_inner: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """One proximal epoch of all agents from the ``(m, d)`` state ``x``.

    ``features`` is ``(m, n, d)`` and ``labels`` ``(m, n)``, agent-major.
    Returns the next state and, if recorded, the network averages of the
    n inner iterates.  Phase 2 reads every agent's phase-1 output, exactly
    as a barrier-synchronized parallel execution would.
    """
    if not gamma > 0.0:
        raise NonPositiveStep(f"epoch needs gamma > 0, got {gamma}")
    m, n = labels.shape
    rows = np.arange(m)[:, None]
    perm = np.stack([epoch_indices(sampler, t) for sampler in samplers])
    a, y = features[rows, perm], labels[rows, perm]
    inner = x.copy()
    inner_sum = np.empty((n, x.shape[1])) if record_inner else None
    with np.errstate(all="ignore"):
        for i in range(n):
            if record_inner:
                inner_sum[i] = inner.sum(axis=0)
            _inner_step(kind, gamma, inner, a[:, i], y[:, i])
        bad = ~np.isfinite(inner).all(axis=1)
        if bad.any():
            j = int(np.argmax(bad))
            step = _first_bad_step(kind, gamma, x[j], a[j], y[j])
            raise NonFiniteIterate(j, t, step, "inner")
        mixed = weights @ inner
        x_next = prox(reg, gamma, mixed)
    _check_phases(t, ("mix", mixed), ("prox", x_next))
    return x_next, (inner_sum / m if record_inner else None)


def run_epoch_dgm(
    x: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    kind: SmoothLossKind,
    reg: Regularizer,
    gamma_t: float,
    weights: np.ndarray,
    t: int,
) -> np.ndarray:
    """One epoch of the subgradient baseline: mix once, then one local step.

    Each agent combines neighbors through the single matrix at the current
    communication step, then descends the sum of its local gradients plus
    one penalty subgradient with the (externally decayed) step gamma_t.
    """
    if not gamma_t > 0.0:
        raise NonPositiveStep(f"epoch needs gamma > 0, got {gamma_t}")
    with np.errstate(all="ignore"):
        mixed = weights @ x
        coef = objectives.loss_derivative(
            kind, np.einsum("jnd,jd->jn", features, mixed), labels
        )
        grad = subgradient(reg, mixed) + np.einsum("jn,jnd->jd", coef, features)
        x_next = mixed - gamma_t * grad
    _check_phases(t, ("mix", mixed), ("step", x_next))
    return x_next


def run(config: RunConfig, problem: ProblemBundle) -> RunTrace:
    """Execute the configured algorithm for ``config.horizon`` epochs.

    Fully deterministic given the seed: sampler streams are pre-keyed by
    (seed, agent, epoch) and every reduction has a fixed order.
    """
    algo = config.algorithm.lower()
    horizon = config.horizon
    m, n, dim = problem.m, problem.n, problem.dim
    kind, reg = problem.kind, problem.regularizer
    lipschitz = objectives.lipschitz_constant(problem.datasets, kind)
    gamma = None
    if horizon > 0:
        gamma = config.step.resolve(lipschitz, n, horizon, config.enforce_step_bound)
    if algo == "dgm" and config.step.rule != "constant":
        raise ValueError("the subgradient baseline decays its own step; use a constant rule")

    features, labels, _ = objectives.packed_arrays(problem.datasets)
    agent_features = features.reshape(m, n, dim)
    agent_labels = labels.reshape(m, n)
    x = np.full((m, dim), float(config.x0))

    sigma_star = None
    if config.record_sigma_star:
        if problem.x_star is None:
            raise ValueError("sigma_star recording needs the reference solution point")
        sigma_star = metrics_mod.shuffling_variance(problem.datasets, kind, problem.x_star)

    cadence = config.cadence if config.cadence is not None else default_cadence(horizon)
    designated = problem.schedule.matrix(0)  # fixed matrix keeps rows comparable
    samplers = None
    if algo != "dgm":
        mode = _SAMPLER_FOR[algo]
        samplers = [
            SamplingSchedule(
                mode, n, config.seed, 0 if config.share_agent_streams else j
            )
            for j in range(m)
        ]

    trace = RunTrace(rows=[], x_bar={}, x_hat={}, snapshots={}, gamma=gamma,
                     x_final=x.copy())

    def objective(point: np.ndarray) -> float:
        value, _ = objectives.packed_smooth_value_grad(features, labels, m, kind, point)
        return value + reg.value(point)

    def record(epoch: int, state: np.ndarray, x_bar: np.ndarray,
               x_hat: np.ndarray | None, v_value: float | None) -> None:
        f_hat = None if x_hat is None else objective(x_hat)
        subopt = None
        if f_hat is not None and problem.f_star is not None:
            subopt = f_hat - problem.f_star
        trace.rows.append(
            metrics_mod.EpochMetrics(
                epoch=epoch,
                f_bar=objective(x_bar),
                f_hat=f_hat,
                suboptimality=subopt,
                disagreement=metrics_mod.consensus_quantity(state, designated),
                max_consensus_dist=float(
                    np.linalg.norm(state - x_bar[None, :], axis=1).max()
                ),
                sigma_star_sq=sigma_star,
                forward_deviation=v_value,
            )
        )
        trace.x_bar[epoch] = x_bar.copy()
        if x_hat is not None:
            trace.x_hat[epoch] = x_hat.copy()
        if config.store_snapshots:
            trace.snapshots[epoch] = state.copy()

    record(0, x, x.mean(axis=0), None, None)

    x_hat_sum = np.zeros(dim)
    for t in range(horizon):
        inner_avgs = None
        if algo == "dgm":
            x = run_epoch_dgm(
                x, agent_features, agent_labels, kind, reg,
                gamma / math.sqrt(t + 1.0), problem.schedule.matrix(t).weights, t,
            )
        else:
            weights = consensus_weights_for_epoch(problem.schedule, t, config.steps_mode)
            x, inner_avgs = run_epoch_dpgrr(
                x, agent_features, agent_labels, kind, reg, gamma,
                weights.weights, samplers, t, record_inner=config.record_v,
            )
        x_bar = x.mean(axis=0)
        x_hat_sum += x_bar
        epoch = t + 1
        if epoch % cadence == 0 or epoch == horizon:
            v_value = None
            if inner_avgs is not None:
                v_value = metrics_mod.forward_deviation(inner_avgs, x_bar)
            record(epoch, x, x_bar, x_hat_sum / epoch, v_value)

    trace.x_final = x.copy()
    return trace
