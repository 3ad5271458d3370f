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
    "prox",
    "inexact_prox_error",
    "subgradient",
]


class NonPositiveStep(ValueError):
    """The step size of a proximal map must be strictly positive."""


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
        if not self.lam >= 0.0:
            raise ValueError(f"penalty weight must be >= 0, got {self.lam}")

    @classmethod
    def zero(cls) -> "Regularizer":
        return cls(RegKind.ZERO, 0.0)

    @classmethod
    def l1(cls, lam: float) -> "Regularizer":
        return cls(RegKind.L1, float(lam))

    @classmethod
    def squared_l2(cls, lam: float) -> "Regularizer":
        return cls(RegKind.SQUARED_L2, float(lam))

    def value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if self.kind is RegKind.ZERO:
            return 0.0
        if self.kind is RegKind.L1:
            return self.lam * float(np.sum(np.abs(x)))
        return 0.5 * self.lam * float(np.dot(x, x))

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


def inexact_prox_error(
    reg: Regularizer, gamma: float, x: np.ndarray, candidate: np.ndarray
) -> float:
    """Objective gap of ``candidate`` in the prox problem centered at ``x``.

    Returns ``[reg(c) + ||c - x||^2/(2 gamma)] - min_z [...]`` using the
    exact prox for the minimum.  The gap is nonnegative by construction;
    floating-point residue below zero (within 1e-14) is clamped to 0.
    """
    if not gamma > 0.0:
        raise NonPositiveStep(f"inexact prox error needs gamma > 0, got {gamma}")
    x = np.asarray(x, dtype=float)
    candidate = np.asarray(candidate, dtype=float)

    def objective(z: np.ndarray) -> float:
        diff = z - x
        return reg.value(z) + float(np.dot(diff, diff)) / (2.0 * gamma)

    gap = objective(candidate) - objective(prox(reg, gamma, x))
    return gap if gap > 0.0 else 0.0


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
