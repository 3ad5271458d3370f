"""Measured quantities: disagreement energy, suboptimality, shuffling variance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objectives import DimensionMismatch, SmoothLossKind, loss_derivative
from .proxops import sequential_sum

__all__ = [
    "MissingInnerTrace",
    "EpochMetrics",
    "consensus_edges",
    "consensus_quantity",
    "shuffling_variance",
    "forward_deviation",
]


class MissingInnerTrace(RuntimeError):
    """Inner-iterate averages were not recorded for this epoch."""


@dataclass(frozen=True, slots=True)
class EpochMetrics:
    """One recorded row of a run.

    ``f_hat`` and ``suboptimality`` concern the running average of
    iterates, which starts at epoch 1, so they are None on the initial
    row.  ``forward_deviation`` of the epoch that produced this row and
    ``sigma_star_sq`` are diagnostics and None unless enabled.
    """

    epoch: int
    f_bar: float
    f_hat: float | None
    suboptimality: float | None
    disagreement: float
    max_consensus_dist: float
    sigma_star_sq: float | None = None
    forward_deviation: float | None = None


def consensus_edges(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero off-diagonal entries ``(i, j, w)`` of an ``(m, m)`` weight array.

    In row-major order; ``w[e]`` is ``weights[i[e], j[e]]``.  A fixed matrix
    needs this once, however many states ``consensus_quantity`` evaluates.
    """
    off = np.array(weights, copy=True)
    np.fill_diagonal(off, 0.0)
    i, j = np.nonzero(off)
    return i, j, off[i, j]


def consensus_quantity(xs, weights: np.ndarray, edges=None):
    """Weighted disagreement ``sum_i <x_i, sum_j a_ij (x_i - x_j)>``.

    Equals the Laplacian quadratic form of the weighted graph, hence zero
    exactly when all agents agree (for a connected weight support).
    Evaluated through the symmetric rearrangement
    ``(1/2) sum_ij a_ij ||x_i - x_j||^2`` (identical for the symmetric
    weights required here), which stays accurate near consensus where the
    inner-product form cancels catastrophically.  Only the nonzero
    off-diagonal weights of the ``(m, m)`` array contribute, so the cost is
    O(|E| d); with none, the value is exactly 0.  ``edges`` is
    ``consensus_edges(weights)``, found here when not given.

    ``xs`` is one state ``(m, d)``, giving a float, or an ``(..., m, d)``
    stack of states, giving one value per state with the bits it has alone.
    """
    weights = np.asarray(weights)
    stacked = np.asarray(xs, dtype=float)
    if stacked.ndim < 2 or weights.shape != (stacked.shape[-2],) * 2:
        raise DimensionMismatch(f"states {stacked.shape} vs {weights.shape} weights")
    i, j, w = consensus_edges(weights) if edges is None else edges
    diff = stacked[..., i, :] - stacked[..., j, :]
    value = 0.5 * sequential_sum(w * np.einsum("...ed,...ed->...e", diff, diff))
    return float(value) if stacked.ndim == 2 else value


def shuffling_variance(
    features: np.ndarray, labels: np.ndarray, kind: SmoothLossKind, x_star: np.ndarray
) -> float:
    """Population variance of agent-averaged per-index gradients at ``x_star``.

    ``features`` ``(m, n, d)`` and ``labels`` ``(m, n)`` are a problem's
    packed arrays.  For each local index i the gradients of the i-th
    sample of every agent are averaged; the result is the variance of
    those n averages.  Invariant to reordering samples within agents only
    in the sense that the value is a symmetric function of the per-index
    averages.
    """
    x_star = np.asarray(x_star, dtype=float)
    coef = loss_derivative(kind, features @ x_star, labels)
    per_index = (coef[:, :, None] * features).sum(axis=0) / features.shape[0]
    centered = per_index - per_index.mean(axis=0)
    return float(np.mean(np.sum(centered * centered, axis=1)))


def forward_deviation(inner_averages, x_bar_next: np.ndarray):
    """Sum of squared distances from each inner-iterate average to the next iterate.

    ``inner_averages`` holds the network averages of the n inner iterates
    of one epoch (the pre-step points), ``(n, d)`` against ``x_bar_next``
    ``(d,)`` for a float, or an ``(..., n, d)`` stack against ``(..., d)``
    for one value per epoch and run, each with the bits it has alone.  Recording them is opt-in,
    so a missing trace raises rather than silently returning garbage.
    """
    if inner_averages is None:
        raise MissingInnerTrace("run with inner-average recording enabled")
    inner = np.asarray(inner_averages, dtype=float)
    diff = inner - np.asarray(x_bar_next, dtype=float)[..., None, :]
    value = sequential_sum(np.einsum("...nd,...nd->...n", diff, diff))
    return float(value) if inner.ndim == 2 else value
