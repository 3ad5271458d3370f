"""Vectorized smooth losses, the aggregate objective, and smoothness constants.

The aggregate objective over ``m`` agents with ``n`` local samples each is

    F(x) = (1/m) * sum_j sum_i loss(sample_{j,i}, x) + penalty(x)

Note the 1/m scaling: the inner sums over an agent's samples are *not*
averaged.  Everything downstream (engine, reference solver, metrics)
relies on this exact scaling, so it lives in one place here.

``sigmoid`` is the one vectorized sigmoid: ``loss_derivative``, the
engine's logistic inner step and its dgm gradient all call it.
``softplus`` is the one vectorized softplus: the logistic value of
``full_objective``, and so every recorded F and the reference F*, takes
it.
"""

from __future__ import annotations

import enum

import numpy as np

from .proxops import Regularizer, sequential_sum

__all__ = [
    "DimensionMismatch",
    "EmptyData",
    "SmoothLossKind",
    "loss_derivative",
    "sigmoid",
    "softplus",
    "full_objective",
    "lipschitz_constant",
    "smooth_curvature",
    "gradient_bound",
]


class DimensionMismatch(ValueError):
    """Feature rows and iterates do not agree in dimension."""


class EmptyData(ValueError):
    """An operation that needs samples received none."""


class SmoothLossKind(enum.Enum):
    LOGISTIC = "logistic"
    LEAST_SQUARES = "least_squares"


def sigmoid(v: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-v))`` elementwise, the package's one vectorized sigmoid.

    The two branches of the scalar sigmoid in one pass: with ``e = exp(-|v|)``,
    which never overflows, the numerator is 1 for ``v >= 0`` and ``e``
    below.  ``max(e, heaviside(v, 1))`` picks it without ``np.where``: the
    step is 1 from ``v = -0.0`` on, where ``e <= 1``, and 0 below, where
    ``e >= 0``; a NaN stays NaN.  It has the bits of
    ``where(v >= 0, 1, e) / (1 + e)`` everywhere, infinities included.
    """
    e = np.exp(-np.abs(v))
    return np.maximum(e, np.heaviside(v, 1.0)) / (1.0 + e)


def softplus(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``log(1 + exp(v))`` elementwise, the package's one vectorized softplus.

    ``max(v, 0) + log1p(exp(-|v|))``, the form ``np.logaddexp(0, v)``
    takes, but on numpy's vectorized ``exp`` and ``log1p`` loops over a
    contiguous buffer it allocates, where ``logaddexp`` calls the scalar
    libm functions once per term.  Within 2 ULP of ``logaddexp(0, v)``
    but in one narrow band near ``v = -4.155``, where the vectorized
    ``exp`` and ``log1p`` can both round down and the two are up to
    3 ULP apart; equal to it at +-0, +-inf (giving inf and 0.0) and NaN.
    ``out`` may be ``v`` itself, which is then overwritten.
    """
    v = np.asarray(v, dtype=float)
    e = np.abs(v)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.log1p(e, out=e)
    out = np.maximum(v, 0.0, out=out)
    out += e
    return out


def loss_derivative(
    kind: SmoothLossKind, z: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Derivative of each sample's loss in its inner product ``z = <a, x>``.

    A sample's gradient is this coefficient times its feature vector.
    """
    if kind is SmoothLossKind.LOGISTIC:
        return -labels * sigmoid(-(labels * z))
    return z - labels


def _flat(features: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(m n, d)`` view of the features and ``x`` checked against ``d``."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != features.shape[-1]:
        raise DimensionMismatch(
            f"x has shape {x.shape}, data dimension is {features.shape[-1]}"
        )
    return features.reshape(-1, features.shape[-1]), x


def packed_smooth_value(
    features: np.ndarray, labels: np.ndarray, kind: SmoothLossKind, x: np.ndarray
):
    """Smooth part at each point of an ``(..., d)`` stack; a float for one point.

    The margins are per-point ``einsum`` dot products and the losses are
    summed in sample order (``sequential_sum``): a ``@`` or ``np.sum`` over
    the stack would change a point's bits with the points stacked beside it.
    A logistic point's losses are ``softplus`` of its negated margins,
    both taken in place on the margin buffer.
    """
    flat, x = _flat(features, x)
    points = x.reshape(-1, flat.shape[1])
    z, y, m = np.einsum("kd,sd->sk", flat, points), labels.reshape(-1), features.shape[0]
    if kind is SmoothLossKind.LOGISTIC:
        # (-y) z has the bits of -(y z); it and its softplus overwrite z
        np.multiply(-y, z, out=z)
        value = sequential_sum(softplus(z, out=z)) / m
    else:
        r = z - y
        value = 0.5 * sequential_sum(r * r) / m
    return float(value[0]) if x.ndim == 1 else value.reshape(x.shape[:-1])


def full_objective(
    features: np.ndarray, labels: np.ndarray, reg: Regularizer, kind: SmoothLossKind,
    x: np.ndarray,
):
    """Smooth part plus penalty, with the 1/m (not 1/(m n)) scaling.

    ``x`` is one point ``(d,)``, giving a float, or an ``(..., d)`` stack,
    giving one value per point, each with the bits it has alone.
    """
    return packed_smooth_value(features, labels, kind, x) + reg.value(x)


def _sample_norms(features: np.ndarray) -> np.ndarray:
    # ``sqrt(v.dot(v))``, the 1-D ``np.linalg.norm``, over the nonzeros
    # ``v`` of each row only: that keeps ``L``, the 1/sqrt(T) step and the
    # manifests bit-identical to the norms of the sparse parsed values.
    # The zeros between them, or the batched ``norm(..., axis=-1)``, change
    # the summation order and the last bit of a quarter of the rows.
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


def smooth_curvature(features: np.ndarray, kind: SmoothLossKind) -> float:
    """Lipschitz constant of the gradient of the aggregate smooth part.

    ``lambda_max(A^T A) / (4 m)`` for logistic, ``lambda_max(A^T A) / m``
    for least squares, over the flat ``(m n, d)`` features ``A``: the
    Hessian is ``A^T D A / m`` with every diagonal weight in ``D`` at most
    1/4 (logistic) or exactly 1.  Never above ``n * lipschitz_constant``.
    """
    flat = features.reshape(-1, features.shape[-1])
    top = float(np.linalg.eigvalsh(flat.T @ flat)[-1])
    m = features.shape[0]
    if kind is SmoothLossKind.LOGISTIC:
        return top / (4.0 * m)
    return top / m


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
