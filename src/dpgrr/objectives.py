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
    "sample_value_grad",
    "loss_derivative",
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


@dataclass(frozen=True, eq=False)
class Sample:
    """Sparse feature vector and its label.

    Labels are +-1 for classification, real targets for regression.
    Indices are stored sorted ascending so dot products always accumulate
    in the same order, which keeps every downstream metric reproducible.
    Compares and hashes by value: equal label and equal (read-only)
    indices and values.
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
        idx, val = idx[order], val[order]
        idx.setflags(write=False)
        val.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)
        object.__setattr__(self, "label", float(self.label))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sample):
            return NotImplemented
        return (
            self.label == other.label
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self) -> int:
        # + 0.0 maps -0.0 to 0.0, which array_equal treats as equal
        return hash((self.label, self.indices.tobytes(), (self.values + 0.0).tobytes()))

    def dense(self, dim: int) -> np.ndarray:
        if self.indices.size and self.indices[-1] >= dim:
            raise DimensionMismatch(
                f"sample index {self.indices[-1]} out of range for dim {dim}"
            )
        out = np.zeros(dim)
        out[self.indices] = self.values
        return out


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


def _flat(features: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(m n, d)`` view of the features and ``x`` checked against ``d``."""
    x = np.asarray(x, dtype=float)
    if x.size != features.shape[-1]:
        raise DimensionMismatch(
            f"x has size {x.size}, data dimension is {features.shape[-1]}"
        )
    return features.reshape(-1, x.size), x


def packed_smooth_grad(
    features: np.ndarray, labels: np.ndarray, kind: SmoothLossKind, x: np.ndarray
) -> np.ndarray:
    """Gradient of the smooth part against packed arrays, without its value."""
    flat, x = _flat(features, x)
    coef = loss_derivative(kind, flat @ x, labels.reshape(-1))
    return flat.T @ (coef / features.shape[0])


def packed_smooth_value(
    features: np.ndarray, labels: np.ndarray, kind: SmoothLossKind, x: np.ndarray
) -> float:
    """Value of the smooth part against packed arrays, without its gradient."""
    flat, x = _flat(features, x)
    z, y, m = flat @ x, labels.reshape(-1), features.shape[0]
    if kind is SmoothLossKind.LOGISTIC:
        return float(np.sum(np.logaddexp(0.0, -(y * z)))) / m
    r = z - y
    return 0.5 * float(np.dot(r, r)) / m


def full_objective(
    features: np.ndarray, labels: np.ndarray, reg: Regularizer, kind: SmoothLossKind,
    x: np.ndarray,
) -> float:
    """Smooth part plus penalty, with the 1/m (not 1/(m n)) scaling."""
    return packed_smooth_value(features, labels, kind, x) + reg.value(x)


def _sample_norms(features: np.ndarray) -> np.ndarray:
    # ``||sample.values||`` bit for bit: ``sqrt(v.dot(v))``, the 1-D
    # ``np.linalg.norm``, over the nonzeros ``v`` of each row.  The zeros
    # between them, or the batched ``norm(..., axis=-1)``, change the
    # summation order and the last bit of a quarter of the rows.
    rows = features.reshape(-1, features.shape[-1])
    return np.sqrt([v.dot(v) for v in (a[a != 0.0] for a in rows)])


def lipschitz_constant(features: np.ndarray, kind: SmoothLossKind) -> float:
    """Per-sample gradient-Lipschitz bound.

    ``max ||a||^2 / 4`` for logistic, ``max ||a||^2`` for least squares.
    This is the constant that feeds the 1/sqrt(T) step-size rule.
    """
    worst = float(_sample_norms(features).max())
    if kind is SmoothLossKind.LOGISTIC:
        return worst * worst / 4.0
    return worst * worst


def gradient_bound(
    features: np.ndarray, labels: np.ndarray, kind: SmoothLossKind, radius: float = 10.0
) -> float:
    """Bound on per-sample gradient norms.

    Global for logistic (``max ||a||``, since the sigmoid factor is below
    1); for least squares it only holds on the ball ``||x|| <= radius``
    because quadratic gradients are unbounded.
    """
    if radius < 0.0:
        raise ValueError("radius must be >= 0")
    norms = _sample_norms(features)
    if kind is SmoothLossKind.LOGISTIC:
        return float(norms.max())
    return float(np.max(norms * (norms * radius + np.abs(labels.reshape(-1)))))
