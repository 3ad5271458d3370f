"""Per-sample smooth losses, the aggregate objective, and smoothness constants.

The aggregate objective over ``m`` agents with ``n`` local samples each is

    F(x) = (1/m) * sum_j sum_i loss(sample_{j,i}, x) + penalty(x)

Note the 1/m scaling: the inner sums over an agent's samples are *not*
averaged.  Everything downstream (engine, reference solver, metrics)
relies on this exact scaling, so it lives in one place here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .proxops import Regularizer

__all__ = [
    "DimensionMismatch",
    "EmptyData",
    "SmoothLossKind",
    "Sample",
    "LocalDataset",
    "sample_value_grad",
    "loss_derivative",
    "batch_smooth_value_grad",
    "full_objective",
    "lipschitz_constant",
    "gradient_bound",
]


class DimensionMismatch(ValueError):
    """Feature indices or iterate dimensions do not agree."""


class EmptyData(ValueError):
    """An operation that needs samples received none."""


class SmoothLossKind(enum.Enum):
    LOGISTIC = "logistic"
    LEAST_SQUARES = "least_squares"


@dataclass(frozen=True)
class Sample:
    """Sparse feature vector and its label.

    Labels are +-1 for classification, real targets for regression.
    Indices are stored sorted ascending so dot products always accumulate
    in the same order, which keeps every downstream metric reproducible.
    """

    indices: np.ndarray
    values: np.ndarray
    label: float

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64).ravel()
        val = np.asarray(self.values, dtype=float).ravel()
        if idx.shape != val.shape:
            raise ValueError("indices and values must have equal length")
        if idx.size and idx.min() < 0:
            raise ValueError("feature indices must be nonnegative")
        if idx.size != np.unique(idx).size:
            raise ValueError("duplicate feature index in sample")
        if not (np.all(np.isfinite(val)) and math.isfinite(self.label)):
            raise ValueError("sample contains non-finite values")
        order = np.argsort(idx, kind="stable")
        object.__setattr__(self, "indices", idx[order])
        object.__setattr__(self, "values", val[order])
        object.__setattr__(self, "label", float(self.label))

    def dense(self, dim: int) -> np.ndarray:
        if self.indices.size and self.indices[-1] >= dim:
            raise DimensionMismatch(
                f"sample index {self.indices[-1]} out of range for dim {dim}"
            )
        out = np.zeros(dim)
        out[self.indices] = self.values
        return out

    def feature_norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class LocalDataset:
    """The ordered samples held by one agent."""

    agent: int
    samples: tuple[Sample, ...]
    dim: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", tuple(self.samples))
        if not self.samples:
            raise EmptyData(f"agent {self.agent} has no samples")
        for s in self.samples:
            if s.indices.size and s.indices[-1] >= self.dim:
                raise DimensionMismatch(
                    f"agent {self.agent}: index {s.indices[-1]} >= dim {self.dim}"
                )

    @property
    def n(self) -> int:
        return len(self.samples)


def _softplus(u: float) -> float:
    # log(1 + exp(u)) without overflow on either tail
    if u > 0.0:
        return u + math.log1p(math.exp(-u))
    return math.log1p(math.exp(u))


def _sigmoid(u: float) -> float:
    if u >= 0.0:
        return 1.0 / (1.0 + math.exp(-u))
    e = math.exp(u)
    return e / (1.0 + e)


def sample_value_grad(
    kind: SmoothLossKind, sample: Sample, x: np.ndarray
) -> tuple[float, np.ndarray]:
    """Loss value and dense gradient of one sample at ``x``.

    Logistic: ``log(1 + exp(-label * <a, x>))`` evaluated through the
    stable softplus form; least squares: ``(1/2) (<a, x> - label)^2``.
    """
    x = np.asarray(x, dtype=float)
    if sample.indices.size and sample.indices[-1] >= x.size:
        raise DimensionMismatch(
            f"sample index {sample.indices[-1]} out of range for x of size {x.size}"
        )
    z = float(sample.values @ x[sample.indices]) if sample.indices.size else 0.0
    if kind is SmoothLossKind.LOGISTIC:
        margin = sample.label * z
        value = _softplus(-margin)
        coef = -sample.label * _sigmoid(-margin)
    else:
        r = z - sample.label
        value = 0.5 * r * r
        coef = r
    grad = np.zeros(x.size)
    grad[sample.indices] = coef * sample.values
    return value, grad


def packed_arrays(datasets) -> tuple[np.ndarray, np.ndarray, int]:
    """Dense (features, labels, agent count) stack for repeated batch evaluation."""
    if not datasets:
        raise EmptyData("no datasets")
    dim = datasets[0].dim
    rows = sum(ds.n for ds in datasets)
    features = np.zeros((rows, dim))
    labels = np.empty(rows)
    r = 0
    for ds in datasets:
        if ds.dim != dim:
            raise DimensionMismatch("datasets disagree on feature dimension")
        for s in ds.samples:
            features[r, s.indices] = s.values
            labels[r] = s.label
            r += 1
    return features, labels, len(datasets)


def _sigmoid_vec(u: np.ndarray) -> np.ndarray:
    # the two branches of ``_sigmoid`` in one pass: exp(-|u|) never overflows
    e = np.exp(-np.abs(u))
    return np.where(u >= 0.0, 1.0, e) / (1.0 + e)


def loss_derivative(
    kind: SmoothLossKind, z: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Derivative of each sample's loss in its inner product ``z = <a, x>``.

    A sample's gradient is this coefficient times its feature vector.
    """
    if kind is SmoothLossKind.LOGISTIC:
        return -labels * _sigmoid_vec(-(labels * z))
    return z - labels


def packed_smooth_value_grad(
    features: np.ndarray, labels: np.ndarray, m: int, kind: SmoothLossKind, x: np.ndarray
) -> tuple[float, np.ndarray]:
    """Like ``batch_smooth_value_grad`` but against pre-packed arrays."""
    x = np.asarray(x, dtype=float)
    if x.size != features.shape[1]:
        raise DimensionMismatch(
            f"x has size {x.size}, data dimension is {features.shape[1]}"
        )
    z = features @ x
    if kind is SmoothLossKind.LOGISTIC:
        value = float(np.sum(np.logaddexp(0.0, -(labels * z)))) / m
    else:
        r = z - labels
        value = 0.5 * float(np.dot(r, r)) / m
    return value, features.T @ (loss_derivative(kind, z, labels) / m)


def batch_smooth_value_grad(
    datasets: tuple[LocalDataset, ...], kind: SmoothLossKind, x: np.ndarray
) -> tuple[float, np.ndarray]:
    """Value and gradient of the smooth part ``(1/m) sum_j sum_i loss_{j,i}``."""
    features, labels, m = packed_arrays(datasets)
    return packed_smooth_value_grad(features, labels, m, kind, x)


def full_objective(
    datasets: tuple[LocalDataset, ...],
    reg: Regularizer,
    kind: SmoothLossKind,
    x: np.ndarray,
) -> float:
    """Smooth part plus penalty, with the 1/m (not 1/(m n)) scaling."""
    value, _ = batch_smooth_value_grad(tuple(datasets), kind, x)
    return value + reg.value(np.asarray(x, dtype=float))


def _max_feature_norm(datasets: tuple[LocalDataset, ...]) -> float:
    norms = [s.feature_norm() for ds in datasets for s in ds.samples]
    if not norms:
        raise EmptyData("no samples")
    return max(norms)


def lipschitz_constant(
    datasets: tuple[LocalDataset, ...], kind: SmoothLossKind
) -> float:
    """Per-sample gradient-Lipschitz bound.

    ``max ||a||^2 / 4`` for logistic, ``max ||a||^2`` for least squares.
    This is the constant that feeds the 1/sqrt(T) step-size rule.
    """
    if not datasets:
        raise EmptyData("no datasets")
    worst = _max_feature_norm(tuple(datasets))
    if kind is SmoothLossKind.LOGISTIC:
        return worst * worst / 4.0
    return worst * worst


def gradient_bound(
    datasets: tuple[LocalDataset, ...], kind: SmoothLossKind, radius: float = 10.0
) -> float:
    """Bound on per-sample gradient norms.

    Global for logistic (``max ||a||``, since the sigmoid factor is below
    1); for least squares it only holds on the ball ``||x|| <= radius``
    because quadratic gradients are unbounded.
    """
    if radius < 0.0:
        raise ValueError("radius must be >= 0")
    if not datasets:
        raise EmptyData("no datasets")
    datasets = tuple(datasets)
    if kind is SmoothLossKind.LOGISTIC:
        return _max_feature_norm(datasets)
    worst = 0.0
    for ds in datasets:
        for s in ds.samples:
            a = s.feature_norm()
            worst = max(worst, a * (a * radius + abs(s.label)))
    if worst == 0.0 and not any(ds.samples for ds in datasets):
        raise EmptyData("no samples")
    return worst
