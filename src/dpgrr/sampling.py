"""Per-agent index schedules: reshuffled, fixed-order, or with replacement.

Index streams are counter-based: the stream for epoch ``t`` of agent
``j`` is the Philox generator keyed by ``(seed, j)`` at counter
``(0, 0, 0, t)``, so any epoch can be replayed without generating its
predecessors and agents can run in parallel without sharing RNG state.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = ["BadK", "Mode", "SamplingSchedule", "epoch_indices", "prefix_average_stats"]


class BadK(ValueError):
    """Prefix length outside ``1..n``."""


class Mode(enum.Enum):
    RR = "rr"  # fresh uniform permutation every epoch
    IG = "ig"  # one fixed permutation reused forever
    SG = "sg"  # n independent uniform draws with replacement


def _stream(seed: int, agent: int, epoch: int) -> np.random.Generator:
    key = np.array([seed, agent], dtype=np.uint64)
    counter = np.zeros(4, dtype=np.uint64)
    counter[3] = epoch
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


@dataclass(frozen=True)
class SamplingSchedule:
    """Deterministic index source for one agent.

    Holds one generator on the key ``(seed, agent)``; each draw rewinds it
    to the epoch's counter, so no generator is built per draw.  That makes
    drawing mutate the schedule's private state: one schedule must not be
    drawn from by two threads at once.  The generator takes no part in
    equality, hashing or repr.
    """

    mode: Mode
    n: int
    seed: int
    agent: int = 0
    # IG only: the one order drawn at construction from the stream's start
    fixed_permutation: tuple[int, ...] | None = field(init=False, default=None)
    _rng: np.random.Generator = field(init=False, repr=False, compare=False)
    _rewind_state: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one local sample")
        rng = _stream(self.seed, self.agent, 0)
        object.__setattr__(self, "_rng", rng)
        # the state of a fresh ``_stream(seed, agent, t)`` once counter[3] = t
        object.__setattr__(self, "_rewind_state", rng.bit_generator.state)
        if self.mode is Mode.IG:
            perm = rng.permutation(self.n)
            object.__setattr__(self, "fixed_permutation", tuple(int(i) for i in perm))


def epoch_indices(schedule: SamplingSchedule, t: int) -> np.ndarray:
    """The n sample indices agent ``schedule.agent`` visits in epoch ``t``.

    Equal to drawing from a fresh ``_stream(seed, agent, t)``.
    """
    if t < 0:
        raise ValueError("epoch must be >= 0")
    if schedule.mode is Mode.IG:
        return np.array(schedule.fixed_permutation, dtype=np.int64)
    rng, state = schedule._rng, schedule._rewind_state
    state["state"]["counter"][3] = t
    rng.bit_generator.state = state
    if schedule.mode is Mode.RR:
        return rng.permutation(schedule.n).astype(np.int64, copy=False)
    return rng.integers(0, schedule.n, size=schedule.n, dtype=np.int64)


def prefix_average_stats(
    values, k: int, trials: int = 20000, seed: int = 0
) -> tuple[np.ndarray, float]:
    """Mean and mean squared deviation of k-prefix averages drawn without replacement.

    Draws ``k`` of the ``n`` vectors without replacement and averages them.
    Enumerates all ordered prefixes exhaustively when ``n <= 6``, otherwise
    Monte Carlo with ``trials`` draws.  Returns the empirical expectation of
    the prefix average and the empirical ``E[||avg - mean||^2]`` against the
    population mean, for comparison with the closed form
    ``(n - k) / (k (n - 1)) * population_variance``.
    """
    vecs = np.stack([np.atleast_1d(np.asarray(v, dtype=float)) for v in values])
    n = vecs.shape[0]
    if n < 2:
        raise ValueError("need at least two vectors")
    if not 1 <= k <= n:
        raise BadK(f"k={k} outside 1..{n}")
    center = vecs.mean(axis=0)

    if n <= 6:
        prefixes = itertools.permutations(range(n), k)
        total = np.zeros_like(center)
        total_sq = 0.0
        count = 0
        for pref in prefixes:
            avg = vecs[list(pref)].mean(axis=0)
            total += avg
            diff = avg - center
            total_sq += float(np.dot(diff, diff))
            count += 1
        return total / count, total_sq / count
    rng = np.random.default_rng(seed)
    total = np.zeros_like(center)
    total_sq = 0.0
    for _ in range(trials):
        avg = vecs[rng.choice(n, size=k, replace=False)].mean(axis=0)
        total += avg
        diff = avg - center
        total_sq += float(np.dot(diff, diff))
    return total / trials, total_sq / trials
