"""Synchronous epoch engine for the distributed proximal-gradient algorithms.

``run`` advances S runs of one problem together: the agents' iterates of
run s are the rows of ``x[s]`` in one ``(S, m, d)`` array.  One epoch of
the proximal algorithms has three barrier-separated phases:

  1. every agent takes n local stochastic gradient steps following its
     epoch index sequence; each step is one vectorized update of all S*m
     rows, with each run's own step size (one float when the runs share
     it, as the products are the same and a float skips broadcasting),
  2. all agents' phase-1 outputs are mixed through the epoch's consensus
     weights, the same for every run: the state is multiplied by each of
     the epoch's memoized power-of-two blocks of schedule matrices in
     turn, earliest first (``netgraph.mix``), so no ``(m, m)`` product is
     formed; each run's ``(m, d)`` state is its own matmul,
  3. every agent applies the proximal map of the shared penalty.

The three samplers (reshuffling / with-replacement / fixed-order) share
this single code path and differ only in the ``(m, n)`` index block drawn
for each run and epoch, so they advance in one batch.  A batch keeps one
``(S, m, n)`` index buffer and a table of each run's (row, sampler, seed):
every epoch ``sampling.fill_indices`` redraws the rows of the reshuffled
and with-replacement runs, and the fixed order's rows are filled once.
Each epoch gathers its samples with one ``take`` on the flat ``(m n, d)``
rows.
The subgradient baseline replaces the whole epoch body: one single-matrix
mixing step followed by one full local subgradient step with a decaying
step size; its runs batch among themselves.

Every batched operation is elementwise or reduces each run's rows in the
order a single run does, so a run's trace does not depend on its batch.
Recorded epochs are buffered and evaluated in chunks: once the buffered
states and averages reach ``MAX_RECORD_BYTES``, and once at the end of
the horizon, each row quantity is one call over the ``(R, S, ...)`` stack
of the R pending epochs, with reductions whose per-row bits do not depend
on the stack, written into the chunk's slice of the batch's float
columns, allocated once.  The budget is small because the row reductions
make several chunk-sized temporaries, which would otherwise raise peak
memory.
Once a run behind the first has failed, ``run`` will raise that failure
and discard the batch's traces, so the pending rows are dropped and no
more are buffered; the earlier runs only keep stepping.

A logistic step reads only the sample's signed row ``y * a``, which the
problem keeps once: labels are exactly +-1, so ``y <a, x> = <y a, x>`` and
``-y sigma(-y z) a = -sigma(-u) (y a)`` hold bit for bit, and no label is
gathered or multiplied per step.  ``sigma(-u)`` is ``objectives.sigmoid``,
the package's one vectorized sigmoid, for the inner step and dgm alike.
Least squares steps on rows and labels.

Each epoch tests its phase-1 output and its next state for finiteness,
one whole-array test each.  That covers the mixed state too: mixing a
finite state with finite weights gives finite values unless it
overflows, and a non-finite mixed entry stays non-finite under every
prox and under dgm's step.  Only when a test fails are the phases
examined row by row, and the report names the first failing run, its
lowest failing agent and that agent's first bad phase.  Non-finite
entries stay non-finite under later gradient steps, so when the local
phase ends non-finite, replaying the lowest failing agent from its
pre-epoch row finds the first inner step that overflowed.

``run`` takes every run of a problem, proximal and dgm mixed, and cuts
them into batches of one epoch body under ``MAX_BATCH_BYTES``.  When
more than one CPU is usable and each would get at least ``_LANE_WORK``
run-epochs, it first cuts the runs into that many lanes of consecutive
runs, one per CPU, and cuts each lane into its own batches.  The caller's
process runs the first lane; every other lane runs in a worker made
with ``os.fork``, which sends back its results, or its failure, pickled
over a pipe.  A lane's results are its traces, whose columns travel as
the arrays they are, unless the caller gives ``run`` a per-run
callback: then the lane calls it on each trace as the trace's batch
ends, and only the callback's results travel.  Every check and step
resolution, with its error, happens before the fork, and the failure
of the first failing run in order is the one raised.
Workers are always reaped, and killed first when the caller's lane
fails or is interrupted.  Since a run's trace does not depend on its
batch, the lanes give the traces a single process gives;
``taskset -c 0`` runs every batch in one process.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import signal
import threading
import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import metrics as metrics_mod
from . import objectives
from .netgraph import GraphSchedule, StepsMode, epoch_blocks, mix
from .objectives import DimensionMismatch, EmptyData, SmoothLossKind
from .proxops import Regularizer, check_step, prox, subgradient
from .sampling import Mode, fill_indices

__all__ = [
    "ALGORITHMS",
    "NonFiniteIterate",
    "StepBoundViolation",
    "step_scale_bound",
    "StepRule",
    "ProblemBundle",
    "RunConfig",
    "RunTrace",
    "WorkerLost",
    "run_epoch_dpgrr",
    "run_epoch_dgm",
    "run",
    "default_cadence",
    "MAX_BATCH_BYTES",
    "MAX_RECORD_BYTES",
]

ALGORITHMS = ("dpg-rr", "dpg-sg", "dpg-ig", "dgm")

_SAMPLER_FOR = {"dpg-rr": Mode.RR, "dpg-sg": Mode.SG, "dpg-ig": Mode.IG}

# Bound on the ``(S, m, n, d)`` sample block one epoch gathers; ``run``
# advances a longer list of runs in consecutive batches under it.
MAX_BATCH_BYTES = 1 << 20

# Run-epochs (runs times horizon) each lane must carry before ``run``
# forks workers for its lanes.  On the bench workloads of a shared 2-vCPU
# host a run-epoch that records its row took at least 52 us, so a lane
# at this bound runs for at least about 100 ms; its fork costs the caller
# about 0.5 ms and unpickling its traces, when no callback takes them in
# the lane, about 0.1 us a row, together under 1% of the lane.
_LANE_WORK = 2000

# Bound on the buffered states and averages of recorded epochs that the
# engine evaluates together; each chunk costs one call per row quantity.
MAX_RECORD_BYTES = 1 << 16

# RunConfig fields that every run of one ``run`` call must share
_SHARED_FIELDS = ("horizon", "steps_mode", "cadence", "x0", "record_v")


class NonFiniteIterate(FloatingPointError):
    """An iterate left the representable range; carries run context.

    ``run`` names the failing run: its algorithm and seed when raised by
    ``run``, its position in the batch when raised by an epoch function.
    """

    def __init__(self, agent: int, epoch: int, inner_step: int | None, phase: str,
                 run: str | int | None = None):
        self.agent = agent
        self.epoch = epoch
        self.inner_step = inner_step
        self.phase = phase
        self.run = run
        where = f"agent {agent}, epoch {epoch}, phase {phase}"
        if inner_step is not None:
            where += f", inner step {inner_step}"
        if run is not None:
            where = f"run {run}, {where}"
        super().__init__(f"non-finite iterate at {where}")

    def __reduce__(self):
        # the default rebuilds from the message alone, which __init__ rejects
        return type(self), (self.agent, self.epoch, self.inner_step, self.phase, self.run)


class WorkerLost(RuntimeError):
    """A worker process ended without sending back its lane's result."""


class StepBoundViolation(ValueError):
    """The 1/sqrt(T) rule's scale exceeds its admissible bound, or the rule
    has no scale where L = 0 leaves the bound infinite."""


def step_scale_bound(lipschitz: float, n: int) -> float:
    """Largest admissible scale M of the gamma = M / sqrt(T) rule; infinite
    when every sample is zero (L = 0)."""
    return math.sqrt(6.0) / (6.0 * lipschitz * n) if lipschitz else math.inf


@dataclass(frozen=True)
class StepRule:
    """Either a constant step size or gamma = scale / sqrt(T)."""

    rule: str  # "constant" | "sqrt_horizon"
    gamma: float | None = None
    scale: float | None = None

    def __post_init__(self) -> None:
        if self.rule not in ("constant", "sqrt_horizon"):
            raise ValueError(f"unknown step rule {self.rule!r}")
        if self.rule == "constant" and not (
            self.gamma is not None and 0.0 < self.gamma < math.inf
        ):
            raise ValueError(f"constant rule needs a finite gamma > 0, got {self.gamma}")
        if self.rule == "sqrt_horizon" and self.scale is not None and not (
            0.0 < self.scale < math.inf
        ):
            raise ValueError(f"sqrt_horizon scale must be finite and > 0, got {self.scale}")

    @classmethod
    def constant(cls, gamma: float) -> "StepRule":
        return cls("constant", gamma=float(gamma))

    @classmethod
    def sqrt_horizon(cls, scale: float | None = None) -> "StepRule":
        return cls("sqrt_horizon", scale=None if scale is None else float(scale))

    def bound_violation(self, lipschitz: float, n: int) -> str | None:
        """Why the rule's scale is inadmissible, or None if it is admissible.

        A rule without a scale takes the bound, so it has no step when the
        bound is infinite.
        """
        if self.rule != "sqrt_horizon":
            return None
        bound = step_scale_bound(lipschitz, n)
        if self.scale is None:
            return None if bound < math.inf else "needs a scale: L = 0 leaves no bound"
        if self.scale > bound * (1.0 + 1e-12):
            return f"step scale {self.scale:g} exceeds admissible bound {bound:g}"
        return None

    def resolve(self, lipschitz: float, n: int, horizon: int) -> float:
        """Concrete step size for a run of ``horizon`` epochs; checks no bound."""
        if self.rule == "constant":
            return self.gamma
        if horizon < 1:
            raise ValueError("sqrt_horizon rule needs horizon >= 1")
        scale = step_scale_bound(lipschitz, n) if self.scale is None else self.scale
        return scale / math.sqrt(horizon)


@dataclass(frozen=True, eq=False)
class ProblemBundle:
    """Everything a run needs besides the algorithm configuration.

    ``features`` ``(m, n, d)`` and ``labels`` ``(m, n)`` hold agent j's i-th
    sample at ``[j, i]``.  The bundle keeps checked read-only copies of
    them, never freezing the caller's arrays.  Logistic labels must be
    exactly -1 or +1; for logistic problems ``signed`` is the read-only
    ``labels[..., None] * features``, the rows the engine steps on (None
    for least squares).  Its schedule's matrices, and
    so all their products, are nonnegative with unit row sums.  Compares
    by identity.
    """

    features: np.ndarray
    labels: np.ndarray
    kind: SmoothLossKind
    regularizer: Regularizer
    schedule: GraphSchedule
    signed: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        features = np.array(self.features, dtype=float)
        labels = np.array(self.labels, dtype=float)
        if features.ndim != 3 or labels.shape != features.shape[:2]:
            raise DimensionMismatch(
                f"features {features.shape} and labels {labels.shape} "
                "are not (m, n, d) and (m, n)"
            )
        if labels.size == 0:
            raise EmptyData(f"no samples: (m, n) = {labels.shape}")
        if features.shape[2] == 0:
            raise EmptyData("no features: every sample has d = 0")
        if not (np.isfinite(features).all() and np.isfinite(labels).all()):
            raise ValueError("problem data contains non-finite values")
        if self.kind is SmoothLossKind.LOGISTIC:
            if not (np.abs(labels) == 1.0).all():
                raise ValueError("logistic labels must be -1 or +1")
            signed = labels[..., None] * features
            signed.setflags(write=False)
            object.__setattr__(self, "signed", signed)
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        if self.schedule.m != self.m:
            raise ValueError(
                f"schedule is over {self.schedule.m} agents, data over {self.m}"
            )
        for slot, matrix in enumerate(self.schedule.matrices):
            w = matrix.weights
            if w.min() < 0.0 or np.abs(w.sum(axis=1) - 1.0).max() > 1e-10:
                raise ValueError(f"schedule matrix {slot} is not row stochastic")

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[1]

    @property
    def dim(self) -> int:
        return self.features.shape[2]


@dataclass(frozen=True)
class RunConfig:
    """Algorithm selection and run-shaping knobs.

    ``cadence=None`` records every epoch up to 2000 epochs and about 2000
    evenly spaced rows beyond that.  dgm mixes once per epoch, whatever
    ``steps_mode``.
    """

    algorithm: str
    horizon: int
    step: StepRule
    steps_mode: StepsMode = field(default_factory=StepsMode.growing)
    seed: int = 0
    cadence: int | None = None
    record_v: bool = False
    x0: float = 0.0

    def __post_init__(self) -> None:
        if self.algorithm.lower() not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if self.cadence is not None and self.cadence < 1:
            raise ValueError("cadence must be >= 1")
        # a seed keys the uint64 Philox index streams
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed {self.seed} is outside [0, 2**64)")


@dataclass
class RunTrace:
    """Recorded columns and the final iterate of one run.

    A column has a float per entry of ``epochs``, the batch's read-only
    int64 array; ``f_hat`` and ``forward_deviation`` (None without
    ``record_v`` or on dgm) start at epoch 1, so align with ``epochs[1:]``.
    """

    epochs: np.ndarray
    f_bar: np.ndarray
    f_hat: np.ndarray
    disagreement: np.ndarray
    max_consensus_dist: np.ndarray
    forward_deviation: np.ndarray | None
    gamma: float | None
    x_final: np.ndarray


def default_cadence(horizon: int) -> int:
    return 1 if horizon <= 2000 else math.ceil(horizon / 2000)


def _inner_step(kind: SmoothLossKind, gamma, x, a, y) -> None:
    """One gradient step of every row of ``x`` on its sample, in place.

    A logistic sample is its signed row ``a`` alone (``y`` is None); a
    least-squares sample is its row ``a`` and target ``y``.
    """
    u = np.einsum("...d,...d->...", a, x)
    if y is None:
        # gamma * (c * a), not (gamma * c) * a: the grouping keeps the bits
        x += gamma * (objectives.sigmoid(-u)[..., None] * a)
    else:
        x -= gamma * (objectives.loss_derivative(kind, u, y)[..., None] * a)


def _first_bad_step(kind: SmoothLossKind, gamma: float, x, a, y) -> int | None:
    """Replay one agent's local pass from ``x`` to its first non-finite step."""
    x = x[None, :].copy()
    with np.errstate(all="ignore"):  # the overflow found is reported, not warned
        for i in range(len(a)):
            _inner_step(kind, gamma, x, a[None, i], None if y is None else y[None, i])
            if not np.isfinite(x).all():
                return i
    return None


def _bad_rows(*phases: np.ndarray) -> np.ndarray:
    """``(phase, S, m)`` mask of the non-finite rows of each phase's state."""
    return np.stack([~np.isfinite(x).all(axis=-1) for x in phases])


def _phase_failure(t: int, run: int, names: tuple[str, ...], bad: np.ndarray):
    """Failure of run ``run``: its lowest agent with a non-finite row in
    ``bad`` ``(phase, m)``, named by that agent's first bad phase."""
    agent = int(np.argmax(bad.any(axis=0)))
    return NonFiniteIterate(agent, t, None, names[int(np.argmax(bad[:, agent]))], run=run)


def run_epoch_dpgrr(
    x: np.ndarray,
    problem: ProblemBundle,
    gamma,
    blocks: Sequence[np.ndarray],
    perm: np.ndarray,
    t: int,
    record_inner: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """One proximal epoch of S runs' agents from the ``(S, m, d)`` state ``x``.

    ``gamma`` is one step or an ``(S, 1, 1)`` array of each run's step.
    Row ``perm[s, j]`` of the ``(S, m, n)`` block is the order in which
    agent j of run s visits its samples; a ``(1, 1, n)`` block is one order
    for every agent.  ``blocks`` are the epoch's ``netgraph.epoch_blocks``:
    phase 2 mixes through their product by applying each to the state in
    turn.  Returns the next state and, if recorded, the ``(S, n, d)``
    network averages of the n inner iterates.  Phase 2 reads every agent's
    phase-1 output, exactly as a barrier-synchronized parallel execution
    would.  A non-finite iterate raises for the first failing run, with
    its position in the batch.
    """
    check_step(gamma, "epoch")
    m, n, kind = problem.m, problem.n, problem.kind
    # step i's samples of all runs are one contiguous (S, m, d) block,
    # taken from the flat (m n, d) rows: agent j's sample k is row j n + k
    order = perm.transpose(2, 0, 1) + np.arange(0, m * n, n)
    if problem.signed is not None:
        a, y = problem.signed.reshape(m * n, -1).take(order, axis=0), None
    else:
        a = problem.features.reshape(m * n, -1).take(order, axis=0)
        y = problem.labels.reshape(-1).take(order)
    inner = x.copy()
    inner_sum = np.empty((x.shape[0], n, x.shape[2])) if record_inner else None
    with np.errstate(all="ignore"):
        for i in range(n):
            if record_inner:
                inner_sum[:, i] = inner.sum(axis=1)
            _inner_step(kind, gamma, inner, a[i], None if y is None else y[i])
        mixed = mix(blocks, inner)
        x_next = prox(problem.regularizer, gamma, mixed)
    if not (np.isfinite(inner).all() and np.isfinite(x_next).all()):
        # every prox maps a finite row to a finite row, so a non-finite
        # next state has a non-finite inner or mixed row first
        bad = _bad_rows(inner, mixed)
        s = int(np.argmax(bad.any(axis=(0, 2))))
        if bad[0, s].any():
            j = int(np.argmax(bad[0, s]))
            gamma_s = np.broadcast_to(gamma, (len(x), 1, 1))[s, 0, 0]
            y_j = None if y is None else y[:, s, j]
            step = _first_bad_step(kind, gamma_s, x[s, j], a[:, s, j], y_j)
            raise NonFiniteIterate(j, t, step, "inner", run=s)
        raise _phase_failure(t, s, ("mix",), bad[1:, s])
    return x_next, (inner_sum / m if record_inner else None)


def run_epoch_dgm(
    x: np.ndarray, problem: ProblemBundle, gamma_t, blocks: Sequence[np.ndarray], t: int
) -> np.ndarray:
    """One epoch of the subgradient baseline for S runs: mix once, then one local step.

    Each agent combines neighbors through the single matrix at the current
    communication step (``blocks`` holds it alone), then descends the sum
    of its local gradients plus one penalty subgradient with the
    (externally decayed) step gamma_t: one value, or an ``(S, 1, 1)``
    array of each run's step.
    """
    check_step(gamma_t, "epoch")
    with np.errstate(all="ignore"):
        mixed = mix(blocks, x)
        if problem.signed is not None:
            rows = problem.signed
            # -sigma(-u) times the signed row is each term's old product
            # -y sigma(-y z) times the row, so the sums keep their bits
            coef = -objectives.sigmoid(-np.einsum("jnd,sjd->sjn", rows, mixed))
        else:
            rows = problem.features
            coef = objectives.loss_derivative(
                problem.kind, np.einsum("jnd,sjd->sjn", rows, mixed), problem.labels
            )
        grad = subgradient(problem.regularizer, mixed) + np.einsum(
            "sjn,jnd->sjd", coef, rows
        )
        x_next = mixed - gamma_t * grad
    if not np.isfinite(x_next).all():
        bad = _bad_rows(mixed, x_next)
        s = int(np.argmax(bad.any(axis=(0, 2))))
        raise _phase_failure(t, s, ("mix", "step"), bad[:, s])
    return x_next


def run(configs: Sequence[RunConfig], problem: ProblemBundle,
        finish: Callable[[int, RunTrace], Any] | None = None) -> list:
    """Execute the configured runs for their shared horizon; one trace each, in order.

    The runs may differ in algorithm, seed and step; every other
    ``RunConfig`` field must agree.  A run's trace is the one it gets
    alone, ``run([config], problem)[0]``.  Consecutive runs of one epoch
    body (proximal or dgm) advance together, in batches under
    ``MAX_BATCH_BYTES`` of gathered samples; given the CPUs and the work,
    lanes of them advance at once in forked workers (see the module
    docstring).

    With ``finish``, the process that ran run k calls ``finish(k, trace)``
    as soon as the run's batch ends, and ``run`` returns what those calls
    returned, in run order, instead of the traces; a worker sends back
    only those results.  A finished run's work, such as writing its
    output, thus happens in its lane, while the other lanes step.  A
    failure of ``finish`` is the failure of its run.

    A non-finite iterate raises for the first failing run in the order
    given, the one a loop over the runs would stop on, naming its
    algorithm and seed.  Fully deterministic given the seeds: each
    epoch's index block is a pure function of (seed, epoch) and every
    reduction has a fixed order.
    """
    configs = list(configs)
    for cfg in configs[1:]:
        for name in _SHARED_FIELDS:
            if getattr(cfg, name) != getattr(configs[0], name):
                raise ValueError(f"runs in one call must share {name}")
    if not configs:
        return []
    lipschitz = objectives.lipschitz_constant(problem.features, problem.kind)
    steps = []
    for cfg in configs:
        # a run of horizon 0 takes no step, so its rule is not checked
        if cfg.horizon and (violation := cfg.step.bound_violation(lipschitz, problem.n)):
            raise StepBoundViolation(violation)
        steps.append(cfg.step.resolve(lipschitz, problem.n, cfg.horizon) if cfg.horizon else None)
        if _is_dgm(cfg) and cfg.step.rule != "constant":
            raise ValueError(
                "the subgradient baseline decays its own step; use a constant rule")

    def run_lane(batches: list[tuple[int, int]]) -> list:
        results = []
        for lo, hi in batches:
            traces = _run_batch(configs[lo:hi], steps[lo:hi], problem)
            results += traces if finish is None else [
                finish(k, trace) for k, trace in enumerate(traces, lo)]
        return results

    lanes = _lanes(configs, max(1, MAX_BATCH_BYTES // problem.features.nbytes))
    workers = []
    try:
        for batches in lanes[1:]:
            runs = [cfg for lo, hi in batches for cfg in configs[lo:hi]]
            workers.append(_Worker(", ".join(f"{c.algorithm} seed {c.seed}" for c in runs)))
            workers[-1].start(run_lane, batches)
        results = run_lane(lanes[0])
        for batches, worker in zip(lanes[1:], workers):
            # a lane that got no process runs here, in its turn
            results += run_lane(batches) if worker.pid is None else worker.result()
        return results
    finally:
        for worker in workers:
            worker.stop()


def _is_dgm(cfg: RunConfig) -> bool:
    return cfg.algorithm.lower() == "dgm"


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where the OS cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return 1 if affinity is None else len(affinity(0))


def _lanes(configs: list[RunConfig], size: int) -> list[list[tuple[int, int]]]:
    """The ``(lo, hi)`` batches of each lane, lanes and batches in run order.

    The runs split into as many lanes of consecutive runs, of equal
    counts to within one, as there are usable CPUs with ``_LANE_WORK``
    run-epochs each; one lane unless this process can fork safely, which
    needs ``os.fork`` and no other thread that may hold a lock.  A lane
    cuts each stretch of one epoch body into batches of at most ``size``.
    """
    count = 1
    if hasattr(os, "fork") and threading.active_count() == 1:
        work = len(configs) * configs[0].horizon
        count = max(1, min(_cpu_count(), len(configs), work // _LANE_WORK))
    # the first lane, the caller's, is the shorter: it also unpickles the rest
    bounds = [len(configs) * k // count for k in range(count + 1)]
    lanes = []
    for lo, hi in zip(bounds, bounds[1:]):
        batches = []
        for _, body in itertools.groupby(range(lo, hi), key=lambda s: _is_dgm(configs[s])):
            body = list(body)
            batches += [(b, min(b + size, body[-1] + 1)) for b in body[::size]]
        lanes.append(batches)
    return lanes


class _Worker:
    """One lane run in a forked process, which sends back its results, or
    its failure, pickled over a pipe."""

    def __init__(self, runs: str):
        self.runs = runs  # names the lane's runs if the process is lost
        self.pid: int | None = None
        self.pipe: int | None = None

    def start(self, run_lane, batches) -> None:
        """Fork the worker; ``pid`` stays None if the system has no process
        to spare."""
        read, write = os.pipe()
        try:
            with warnings.catch_warnings():
                # CPython 3.12+ warns on every fork while numpy's BLAS pool
                # has threads; that pool re-forms itself in the child, and
                # the caller has checked that no other Python thread runs
                warnings.filterwarnings("ignore", ".* is multi-threaded", DeprecationWarning)
                self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            return
        if self.pid == 0:
            os.close(read)
            _serve(run_lane, batches, write)
        os.close(write)
        self.pipe = read

    def result(self) -> list:
        """The lane's results, once the worker has ended; raises its failure."""
        with open(self.pipe, "rb") as pipe:
            self.pipe = None
            data = pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            how = f"was killed by signal {-code}" if code < 0 else f"exited with {code}"
            raise WorkerLost(f"the worker running {self.runs} {how}")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    def stop(self) -> None:
        """Kill and reap the worker if it is still running; idempotent."""
        if self.pipe is not None:
            os.close(self.pipe)
            self.pipe = None
        if self.pid:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(self.pid, 0)
            self.pid = None


def _serve(run_lane, batches, pipe: int):
    """The worker's whole life: run the lane, send the outcome, exit."""
    status = 1
    try:
        try:
            outcome = True, run_lane(batches)
        except BaseException as exc:  # the caller raises it, in its turn
            outcome = False, exc
        try:
            data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        except Exception:  # an exception that does not pickle travels as its text
            data = pickle.dumps((False, RuntimeError(repr(outcome[1]))))
        with open(pipe, "wb") as out:
            out.write(data)
        status = 0
    finally:
        # never back into the caller's code, nor its exit handlers and buffers
        os._exit(status)


def _batch_step(steps: list[float]):
    """The step of a batch's runs: one float when they all share it, else
    the ``(S, 1, 1)`` array of each run's step.  Either gives the same
    products; a float skips broadcasting in every step."""
    if len(set(steps)) == 1:
        return steps[0]
    return np.array(steps).reshape(-1, 1, 1)


def _run_batch(configs: list[RunConfig], steps: list[float | None],
               problem: ProblemBundle) -> list[RunTrace]:
    """``run`` for runs of one epoch body whose samples fit one gathered
    block, with their resolved ``steps`` (None at horizon 0)."""
    first = configs[0]
    dgm = _is_dgm(first)
    horizon = first.horizon
    m, n, dim = problem.m, problem.n, problem.dim
    kind, reg = problem.kind, problem.regularizer
    features, labels = problem.features, problem.labels

    cadence = first.cadence if first.cadence is not None else default_cadence(horizon)
    # a fixed matrix keeps the rows' disagreement comparable
    designated = problem.schedule.matrices[0].weights
    designated_edges = metrics_mod.consensus_edges(designated)
    steps_mode = StepsMode.fixed(1) if dgm else first.steps_mode

    x = np.full((len(configs), m, dim), float(first.x0))
    # epoch 0, every cadence-th epoch and the last: one entry of each column
    epochs = np.arange(0, horizon + 1, cadence, dtype=np.int64)
    if epochs[-1] != horizon:
        epochs = np.append(epochs, horizon)
    epochs.setflags(write=False)
    f_bar, disagreement, max_dist = (np.empty((len(configs), len(epochs))) for _ in range(3))
    # the running average and the inner pass start at epoch 1
    f_hat = np.empty((len(configs), len(epochs) - 1))
    v_values = np.empty_like(f_hat) if first.record_v and not dgm else None

    def record(row: int, states: np.ndarray, x_bars: np.ndarray, x_hats: np.ndarray | None,
               inner_avgs: np.ndarray | None) -> None:
        """Columns from entry ``row`` on, for each run still in the batch.

        ``states`` ``(R, S, m, d)``, ``x_bars`` and ``x_hats`` ``(R, S, d)``
        and ``inner_avgs`` ``(R, S, n, d)`` stack the R epochs; each row
        quantity is one call over the whole stack.
        """
        runs, span = states.shape[1], slice(row, row + len(states))
        points = x_bars if x_hats is None else np.concatenate([x_bars, x_hats], axis=1)
        # every quantity transposed to one column of R values per run
        objective = objectives.full_objective(features, labels, reg, kind, points).T
        f_bar[:runs, span] = objective[:runs]
        disagreement[:runs, span] = metrics_mod.consensus_quantity(
            states, designated, designated_edges).T
        diff = states - x_bars[..., None, :]
        max_dist[:runs, span] = np.sqrt(
            np.einsum("...md,...md->...m", diff, diff)).max(axis=-1).T
        if x_hats is not None:
            later = slice(row - 1, row - 1 + len(states))
            f_hat[:runs, later] = objective[runs:]
            if v_values is not None:
                v_values[:runs, later] = metrics_mod.forward_deviation(inner_avgs, x_bars).T

    # sum / m has the bits of mean(axis=1) and skips its dispatch
    record(0, x[None], (x.sum(axis=1) / m)[None], None, None)

    # recorded epochs not yet evaluated, the column entries from ``filled``
    # on: (state, x_bar, x_hat, inner_avgs), none of them an array that a
    # later epoch changes
    pending: list[tuple] = []
    filled = 1

    def flush() -> None:
        nonlocal filled
        if pending:
            record(filled, *(None if p[0] is None else np.stack(p) for p in zip(*pending)))
            filled += len(pending)
            pending.clear()

    gamma = _batch_step(steps)
    x_hat_sum = np.zeros((len(configs), dim))
    failure = None
    # bytes one recorded epoch buffers: its state, x_bar and x_hat, and
    # with record_v its (S, n, d) inner averages; a chunk is the fewest
    # epochs that reach the budget
    row_bytes = x.itemsize * len(configs) * (
        (m + 2) * dim + (n * dim if first.record_v and not dgm else 0))
    chunk = -(-MAX_RECORD_BYTES // row_bytes)
    # each run's (row, sampler, seed) fills its row of one (S, m, n) index
    # buffer; dpg-ig visits every epoch in the order it draws at epoch 0,
    # so its rows are filled once
    draws = [] if dgm else [(s, _SAMPLER_FOR[cfg.algorithm.lower()], cfg.seed)
                            for s, cfg in enumerate(configs)]
    perm = np.empty((len(draws), m, n), dtype=np.int64)
    fill_indices(perm, [d for d in draws if d[1] is Mode.IG], 0)
    draws = [d for d in draws if d[1] is not Mode.IG]
    for t in range(horizon):
        inner_avgs = None
        blocks = epoch_blocks(problem.schedule, t, steps_mode)
        if not dgm:
            fill_indices(perm, draws, t)
        while True:
            try:
                if dgm:
                    x_next = run_epoch_dgm(x, problem, gamma / math.sqrt(t + 1.0), blocks, t)
                else:
                    x_next, inner_avgs = run_epoch_dpgrr(
                        x, problem, gamma, blocks, perm, t, record_inner=first.record_v
                    )
                break
            except NonFiniteIterate as exc:
                # runs after the failing one no longer matter; earlier runs
                # go on, since one of them may still fail first in order,
                # but ``failure`` is raised at the end either way, so no
                # row of the batch is evaluated any more
                cfg = configs[exc.run]
                failure = NonFiniteIterate(exc.agent, exc.epoch, exc.inner_step, exc.phase,
                                           run=f"{cfg.algorithm} seed {cfg.seed}")
                if exc.run == 0:
                    raise failure from None
                pending.clear()
                configs, x, steps = configs[:exc.run], x[:exc.run], steps[:exc.run]
                gamma = _batch_step(steps)
                x_hat_sum, perm = x_hat_sum[:exc.run], perm[:exc.run]
                draws = [d for d in draws if d[0] < exc.run]
        x = x_next
        x_bar = x.sum(axis=1) / m
        x_hat_sum += x_bar
        epoch = t + 1
        if failure is None and (epoch % cadence == 0 or epoch == horizon):
            pending.append((x, x_bar, x_hat_sum / epoch, inner_avgs))
            if len(pending) == chunk:
                flush()
    flush()

    if failure is not None:
        raise failure
    return [
        RunTrace(epochs, f_bar[s], f_hat[s], disagreement[s], max_dist[s],
                 None if v_values is None else v_values[s], gamma=steps[s], x_final=x[s])
        for s in range(len(configs))
    ]
