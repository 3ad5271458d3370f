"""Reference oracles the tests check the package against.

None of them uses ``dpgrr.engine``: the scalar loss and gradient of one
sample, the unsigned loss derivative and gradient of the packed smooth
part, the per-row loops of the sample norms and of the synthetic
problem, the one-agent reshuffled proximal gradient baseline, the
one-run index draw, the exhaustive or Monte Carlo prefix-average
statistics, the proximal objective gap, the sparse-text writer that
``parse_libsvm`` reads back, and the ``(m, m)`` product of a run of
schedule matrices, which the engine never forms.
"""

import itertools
import math

import numpy as np

from dpgrr.netgraph import GraphSchedule, StepsMode, epoch_blocks, mix
from dpgrr.objectives import DimensionMismatch, SmoothLossKind, sigmoid
from dpgrr.proxops import NonPositiveStep, Regularizer, prox
from dpgrr.sampling import Mode, fill_indices


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


def loss_derivative(
    kind: SmoothLossKind, z: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Derivative of each sample's loss in its unsigned inner product ``z = <a, x>``.

    ``-y sigmoid(-y z)`` for logistic, ``z - y`` for least squares: the
    label form whose bits ``objectives.margin_slope`` on the signed rows
    ``y a`` reproduces.  A sample's gradient is this coefficient times
    its feature vector.
    """
    if kind is SmoothLossKind.LOGISTIC:
        return -labels * sigmoid(-(labels * z))
    return z - labels


def sample_value_grad(
    kind: SmoothLossKind, a: np.ndarray, label: float, x: np.ndarray
) -> tuple[float, np.ndarray]:
    """Loss value and gradient of the sample ``(a, label)`` at ``x``.

    ``a`` is the sample's dense feature row.  Logistic:
    ``log(1 + exp(-label * <a, x>))`` evaluated through the stable softplus
    form; least squares: ``(1/2) (<a, x> - label)^2``.  A scalar reference
    oracle, independent of the vectorized ``loss_derivative``.
    """
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    if a.shape != x.shape:
        raise DimensionMismatch(f"row has size {a.size}, x has size {x.size}")
    z = float(a @ x)
    if kind is SmoothLossKind.LOGISTIC:
        margin = label * z
        value = _softplus(-margin)
        coef = -label * _sigmoid(-margin)
    else:
        r = z - label
        value = 0.5 * r * r
        coef = r
    return value, coef * a


def packed_smooth_grad(
    features: np.ndarray, labels: np.ndarray, kind: SmoothLossKind, x: np.ndarray
) -> np.ndarray:
    """Gradient of the smooth part at ``x`` against packed arrays.

    The unsigned form ``A^T @ (loss_derivative(A @ x) / m)`` over the flat
    ``(m n, d)`` features ``A``, whose bits the reference solver's signed
    logistic rows reproduce.
    """
    flat = features.reshape(-1, features.shape[-1])
    coef = loss_derivative(kind, flat @ x, labels.reshape(-1))
    return flat.T @ (coef / features.shape[0])


def sample_norms(features: np.ndarray) -> np.ndarray:
    """Each sample's ``sqrt(v.dot(v))`` over its nonzeros ``v``, one row at a time."""
    rows = features.reshape(-1, features.shape[-1])
    return np.sqrt([v.dot(v) for v in (a[a != 0.0] for a in rows)])


def synthesized_classification(
    m: int, n: int, d: int, separation: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """``dataio.synthesize_classification`` with one ``dot`` per row for
    each norm and each margin."""
    rng = np.random.default_rng(seed)
    hidden = rng.normal(size=d)
    noisy = separation != np.inf
    draws = rng.normal(size=(m * n, d + noisy))
    gs = draws[:, :d]
    norms = np.sqrt([g.dot(g) for g in gs])
    features = gs / np.maximum(1.0, norms)[:, None]
    margins = np.array([a @ hidden for a in features])
    if noisy:
        margins += (1.0 / separation) * draws[:, d]
    labels = np.where(margins >= 0.0, 1.0, -1.0)
    return features.reshape(m, n, d), labels.reshape(m, n)


def centralized_prox_rr(
    features: np.ndarray,
    labels: np.ndarray,
    kind: SmoothLossKind,
    reg: Regularizer,
    gamma: float,
    horizon: int,
    seed: int,
    x0: float = 0.0,
) -> np.ndarray:
    """Single-machine reshuffled proximal gradient over ``N`` flat rows.

    ``features`` ``(N, d)`` and ``labels`` ``(N,)`` are the samples.  Per
    epoch: one reshuffled pass of gradient steps over all rows, then a
    single proximal step.  Returns the (horizon + 1, d) array of per-epoch
    iterates, starting with the initial point.  Epoch t visits the rows in
    the stable argsort of N uniforms from Philox keyed by (seed, 0) at
    counter (0, 0, 0, t), so a one-agent distributed run with the same seed
    visits them in the same order.
    """
    if not gamma > 0.0:
        raise ValueError("gamma must be > 0")
    x = np.full(features.shape[1], float(x0))
    out = np.empty((horizon + 1, x.size))
    out[0] = x
    for t in range(horizon):
        key = np.array([seed, 0], dtype=np.uint64)
        counter = np.array([0, 0, 0, t], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(counter=counter, key=key))
        for idx in np.argsort(rng.random(len(labels)), kind="stable"):
            _, grad = sample_value_grad(kind, features[idx], labels[idx], x)
            x = x - gamma * grad
        x = prox(reg, gamma, x)
        out[t + 1] = x
    return out


def epoch_indices(mode: Mode, seed: int, t: int, m: int, n: int) -> np.ndarray:
    """The ``(m, n)`` sample indices the m agents visit in epoch ``t``.

    The one-run, one-epoch case of ``fill_indices``.
    """
    out = np.empty((1, 1, m, n), dtype=np.int64)
    fill_indices(out, ((0, mode, seed),), t)
    return out[0, 0]


class BadK(ValueError):
    """Prefix length outside ``1..n``."""


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


def format_libsvm(features: np.ndarray, labels: np.ndarray) -> str:
    """Each row's nonzeros as a sparse-text line, 17 significant digits.

    ``parse_libsvm`` reads back the same arrays, less any trailing all-zero
    columns, which no line records.
    """
    lines = []
    for a, label in zip(features, labels):
        feats = " ".join(f"{i + 1}:{a[i]:.17g}" for i in np.flatnonzero(a))
        lines.append(f"{label:.17g} {feats}".rstrip())
    return "\n".join(lines) + ("\n" if lines else "")


def product(blocks) -> np.ndarray:
    """The blocks' product: the first block mixed through the rest, so it
    is the same fold as mixing a state through them."""
    first, *rest = blocks
    return mix(rest, first)


def transition_product(schedule: GraphSchedule, start: int, count: int) -> np.ndarray:
    """Product of ``count`` matrices from step ``start``, latest on the left."""
    return product(schedule.blocks(start, count))


def consensus_weights_for_epoch(
    schedule: GraphSchedule, t: int, steps_mode: StepsMode
) -> np.ndarray:
    """Mixing coefficients for epoch ``t``: the product of its ``epoch_blocks``.

    The result may be a memoized block that callers must not write; a
    one-factor product is the matrix's own ``weights``.
    """
    return product(epoch_blocks(schedule, t, steps_mode))
