"""Per-epoch index draws: reshuffled, fixed-order, or with replacement.

Index draws are counter-based: epoch ``t`` of every agent comes from the
one Philox generator keyed by ``(seed, 0)`` at counter ``(0, 0, 0, t)``,
drawn as an ``(m, n)`` block whose row j is agent j's order.  Any epoch
can be replayed without generating its predecessors, and a draw holds
no state between calls.
"""

from __future__ import annotations

import enum
import itertools

import numpy as np

__all__ = ["BadK", "Mode", "epoch_indices", "prefix_average_stats"]


class BadK(ValueError):
    """Prefix length outside ``1..n``."""


class Mode(enum.Enum):
    RR = "rr"  # fresh uniform permutation every epoch
    IG = "ig"  # one fixed permutation reused forever
    SG = "sg"  # n independent uniform draws with replacement


def epoch_indices(mode: Mode, seed: int, t: int, m: int, n: int) -> np.ndarray:
    """The ``(m, n)`` sample indices the m agents visit in epoch ``t``.

    RR sorts an ``(m, n)`` block of uniforms row by row (stable argsort),
    SG draws an ``(m, n)`` block of integers in ``[0, n)``, and IG reuses
    the RR block of epoch 0.  Both blocks fill in row-major order, so row
    j is the same for every ``m > j``.
    """
    if t < 0:
        raise ValueError("epoch must be >= 0")
    counter = np.zeros(4, dtype=np.uint64)
    counter[3] = 0 if mode is Mode.IG else t
    key = np.array([seed, 0], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(counter=counter, key=key))
    if mode is Mode.SG:
        return rng.integers(0, n, size=(m, n), dtype=np.int64)
    return np.argsort(rng.random((m, n)), axis=1, kind="stable")


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
