"""Vectorized smooth losses, the aggregate objective, and smoothness constants.

The aggregate objective over ``m`` agents with ``n`` local samples each is

    F(x) = (1/m) * sum_j sum_i loss(sample_{j,i}, x) + penalty(x)

Note the 1/m scaling: the inner sums over an agent's samples are *not*
averaged.  Everything downstream (engine, reference solver, metrics)
relies on this exact scaling, so it lives in one place here.

``margin_rows`` and ``margin_slope`` are the one place a loss family is
written in margin space: a sample's margin is ``u = <row, x>`` and its
gradient is its slope in ``u`` times its row.  A logistic row is ``y a``,
whose margin and gradient, with labels exactly +-1, have the bits of
``y <a, x>`` and ``-y sigma(-y z) a``.  The logistic slope has one
formula, ``-1 / (1 + exp(u))``; the engine's inner step forms
``gamma`` times it in its margin's buffer (see ``engine``).
``softplus`` is the one vectorized softplus: the logistic value of
``full_objective``, and so every recorded F and the reference F*, takes
it.
"""

from __future__ import annotations

import enum

import numpy as np

from .proxops import Regularizer, row_sum

__all__ = [
    "DimensionMismatch",
    "EmptyData",
    "SmoothLossKind",
    "margin_rows",
    "margin_slope",
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


def margin_rows(
    features: np.ndarray, labels: np.ndarray, kind: SmoothLossKind
) -> tuple[np.ndarray, np.ndarray | None]:
    """``(rows, targets)`` of the ``(..., d)`` features and ``(...)`` labels.

    Logistic: the signed rows ``y a`` and no targets (labels must be
    exactly +-1).  Least squares: the features themselves and the labels.
    """
    if kind is SmoothLossKind.LOGISTIC:
        return labels[..., None] * features, None
    return features, labels


def margin_slope(
    kind: SmoothLossKind, u: np.ndarray, targets: np.ndarray | None
) -> np.ndarray:
    """Slope of each sample's loss in its margin ``u = <row, x>``.

    ``-sigma(-u)`` for logistic, as ``-1 / (1 + exp(u))``: exactly 0 past
    exp's overflow (u > 709.78), and -1 below its underflow; ``u - targets``
    for least squares.  Taken on ``margin_rows``, a sample's gradient is
    this slope times its row.
    """
    if kind is SmoothLossKind.LOGISTIC:
        with np.errstate(over="ignore"):  # exp(u) is inf, and the slope 0
            return -1.0 / (1.0 + np.exp(u))
    return u - targets


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

    A point's margins are one BLAS gemv, ``point @ flat.T``, and its losses
    are summed by ``row_sum``: each point's bits are the ones it has alone.
    One gemm over the whole stack, or ``np.sum``, would change a point's
    bits with the points stacked beside it.  A logistic point's losses are
    ``softplus`` of its negated margins, both taken in place on the margin
    buffer.
    """
    flat, x = _flat(features, x)
    points = x.reshape(-1, flat.shape[1])
    z, y, m = (points[:, None, :] @ flat.T)[:, 0], labels.reshape(-1), features.shape[0]
    if kind is SmoothLossKind.LOGISTIC:
        # (-y) z has the bits of -(y z); it and its softplus overwrite z
        np.multiply(-y, z, out=z)
        value = row_sum(softplus(z, out=z)) / m
    else:
        r = z - y
        value = 0.5 * row_sum(r * r) / m
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
    # the summation order and the last bit of a quarter of the rows.  The
    # rows with k nonzeros are packed row-major into one ``(rows, k)``
    # block and summed in one stacked ``1 x k @ k x 1`` matmul, which
    # numpy hands row by row to that same ``dot``: one call per count.
    rows = features.reshape(-1, features.shape[-1])
    nonzero = rows != 0.0
    counts = nonzero.sum(axis=1)
    squares = np.empty(len(rows))
    # not np.unique, whose first call in a process takes about 17 ms
    for k in set(counts.tolist()):
        group = counts == k
        block = rows[group]
        v = block[nonzero[group]].reshape(len(block), k)
        squares[group] = (v[:, None, :] @ v[:, :, None])[:, 0, 0]
    return np.sqrt(squares)


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
    ``lambda_max`` is taken from the smaller Gram matrix, which has the
    same top eigenvalue: ``A A^T`` when there are fewer samples than
    features (40 x 40 rather than 123 x 123 on a9a_subset), else ``A^T A``.
    """
    flat = features.reshape(-1, features.shape[-1])
    gram = flat @ flat.T if flat.shape[0] < flat.shape[1] else flat.T @ flat
    top = float(np.linalg.eigvalsh(gram)[-1])
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
