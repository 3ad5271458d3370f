"""Per-epoch index draws: reshuffled, fixed-order, or with replacement.

Index draws are counter-based: epoch ``t`` of every agent comes from the
one Philox generator keyed by ``(seed, 0)`` at counter ``(0, 0, 0, t)``,
drawn as an ``(m, n)`` block whose row j is agent j's order.  Any epoch
can be replayed without generating its predecessors, and no draw
depends on an earlier one.
"""

from __future__ import annotations

import enum
import itertools
import threading

import numpy as np

__all__ = ["BadK", "Mode", "epoch_indices", "prefix_average_stats"]


class BadK(ValueError):
    """Prefix length outside ``1..n``."""


class Mode(enum.Enum):
    RR = "rr"  # fresh uniform permutation every epoch
    IG = "ig"  # one fixed permutation reused forever
    SG = "sg"  # n independent uniform draws with replacement


# One generator serves every draw: each call overwrites its whole state
# (key, counter and the emptied output buffers) before drawing, so no draw
# depends on an earlier one.  Building a fresh Philox costs an OS-entropy
# seed sequence that the explicit key then discards.  The lock keeps a
# state and its draw together when threads share the generator.
_BIT_GENERATOR = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
_GENERATOR = np.random.Generator(_BIT_GENERATOR)
_DRAW_LOCK = threading.Lock()


def epoch_indices(mode: Mode, seed: int, t: int, m: int, n: int) -> np.ndarray:
    """The ``(m, n)`` sample indices the m agents visit in epoch ``t``.

    RR sorts an ``(m, n)`` block of uniforms row by row (stable argsort),
    SG draws an ``(m, n)`` block of integers in ``[0, n)``, and IG reuses
    the RR block of epoch 0.  Both blocks fill in row-major order, so row
    j is the same for every ``m > j``.
    """
    if t < 0:
        raise ValueError("epoch must be >= 0")
    state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array([0, 0, 0, 0 if mode is Mode.IG else t], dtype=np.uint64),
            "key": np.array([seed, 0], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    with _DRAW_LOCK:
        _BIT_GENERATOR.state = state
        if mode is Mode.SG:
            return _GENERATOR.integers(0, n, size=(m, n), dtype=np.int64)
        uniforms = _GENERATOR.random((m, n))
    return np.argsort(uniforms, axis=1, kind="stable")


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
