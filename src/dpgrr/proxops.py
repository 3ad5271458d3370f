"""Proximal maps and subgradients for the supported non-smooth penalties."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NonPositiveStep",
    "RegKind",
    "Regularizer",
    "check_step",
    "row_sum",
    "span_dot",
    "prox",
    "subgradient",
]


class NonPositiveStep(ValueError):
    """The step size of a proximal map must be strictly positive."""


# Longest span of a row that one BLAS dot takes.  OpenBLAS splits a ddot
# of more than 10000 elements across its threads, which gives bits that
# depend on the thread count, and so on the CPUs, and einsum sums a row
# longer than its 8192-element buffer in pieces that depend on the
# batch; a wider row's dot is the sum of its spans' dots, in order.
_DOT_SPAN = 8192


def span_dot(dot, a, x):
    """``dot(a, x)``, which sums products over the rows' last axis; a row
    wider than ``_DOT_SPAN`` sums its spans' dots, in order.

    The one span rule: the engine's margins and every recorded row sum
    (``row_sum``) take it.
    """
    if a.shape[-1] <= _DOT_SPAN:
        return dot(a, x)
    u = dot(a[..., :_DOT_SPAN], x[..., :_DOT_SPAN])
    for lo in range(_DOT_SPAN, a.shape[-1], _DOT_SPAN):
        u += dot(a[..., lo:lo + _DOT_SPAN], x[..., lo:lo + _DOT_SPAN])
    return u


def row_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis; 0 over an empty axis.

    The one row-sum rule, which every recorded quantity reduces with: each
    row, made contiguous, is one BLAS dot with a ones vector
    (``np.vecdot``), in spans of at most ``_DOT_SPAN`` (``span_dot``), so
    every row of a stack sums to the bits it has alone, on any BLAS thread
    count.  ``np.sum`` picks its summation order from the shape of the
    whole array, and a strided row takes another BLAS path, with other bits.
    """
    terms = np.ascontiguousarray(terms)
    return span_dot(np.vecdot, terms, np.ones(terms.shape[-1]))


class RegKind(enum.Enum):
    ZERO = "zero"
    L1 = "l1"
    SQUARED_L2 = "squared_l2"


@dataclass(frozen=True)
class Regularizer:
    """Non-smooth penalty from a closed family with known proximal maps.

    ``lam`` weights the penalty: ``lam * ||x||_1`` for L1,
    ``(lam / 2) * ||x||^2`` for SQUARED_L2, ignored for ZERO.  Keeping the
    family closed means the exact prox, a subgradient selection, and a
    subgradient-norm bound are all available in closed form, so every
    consumer can be checked against them.
    """

    kind: RegKind
    lam: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"penalty weight must be finite and >= 0, got {self.lam}")

    @classmethod
    def zero(cls) -> "Regularizer":
        return cls(RegKind.ZERO, 0.0)

    @classmethod
    def l1(cls, lam: float) -> "Regularizer":
        return cls(RegKind.L1, float(lam))

    @classmethod
    def squared_l2(cls, lam: float) -> "Regularizer":
        return cls(RegKind.SQUARED_L2, float(lam))

    def value(self, x: np.ndarray):
        """Penalty at each point of an ``(..., d)`` stack; a float for one point.

        Each point's value has the same bits whatever the stack around it.
        """
        x = np.asarray(x, dtype=float)
        points = x.reshape(-1, x.shape[-1])
        if self.kind is RegKind.ZERO:
            value = np.zeros(len(points))
        elif self.kind is RegKind.L1:
            value = self.lam * row_sum(np.abs(points))
        else:
            value = 0.5 * self.lam * span_dot(np.vecdot, points, points)
        return float(value[0]) if x.ndim == 1 else value.reshape(x.shape[:-1])

    def subgradient_bound(self, dim: int, radius: float = math.inf) -> float:
        """Bound on ``||g||`` over subgradients, valid on the ball ``||x|| <= radius``.

        The L1 bound is global; the squared-L2 one only holds on the ball.
        """
        if self.kind is RegKind.ZERO:
            return 0.0
        if self.kind is RegKind.L1:
            return self.lam * math.sqrt(dim)
        return self.lam * radius


def check_step(gamma, what: str) -> None:
    """Raise ``NonPositiveStep`` unless the step, or every step of an array, is > 0.

    A scalar step skips numpy: the F* solver checks one per iteration.
    """
    positive = bool((gamma > 0.0).all()) if isinstance(gamma, np.ndarray) else gamma > 0.0
    if not positive:
        raise NonPositiveStep(f"{what} needs gamma > 0, got {gamma}")


def prox(reg: Regularizer, gamma, x: np.ndarray) -> np.ndarray:
    """Evaluate ``argmin_z reg.value(z) + ||z - x||^2 / (2 gamma)``.

    Soft-thresholding for L1, identity for ZERO, uniform shrinkage for
    squared L2.  ``gamma`` is one step or an array of steps that
    broadcasts against ``x``, such as one per run of a batch.
    """
    check_step(gamma, "prox")
    x = np.asarray(x, dtype=float)
    if reg.kind is RegKind.ZERO:
        return x.copy()
    if reg.kind is RegKind.L1:
        thr = gamma * reg.lam
        return np.sign(x) * np.maximum(np.abs(x) - thr, 0.0)
    return x / (1.0 + gamma * reg.lam)


def subgradient(reg: Regularizer, x: np.ndarray) -> np.ndarray:
    """One element of the subdifferential at ``x``.

    At kinks of the L1 penalty the minimum-norm element (0) is chosen, so
    the selection is deterministic.
    """
    x = np.asarray(x, dtype=float)
    if reg.kind is RegKind.ZERO:
        return np.zeros_like(x)
    if reg.kind is RegKind.L1:
        return reg.lam * np.sign(x)
    return reg.lam * x
