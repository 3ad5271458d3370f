import math

import mpmath
import numpy as np
import pytest

from conftest import packed
from dpgrr.dataio import synthesize_classification
from dpgrr.objectives import (
    DimensionMismatch,
    SmoothLossKind,
    full_objective,
    gradient_bound,
    lipschitz_constant,
    loss_derivative,
    packed_smooth_grad,
    packed_smooth_value,
    sample_value_grad,
)
from dpgrr.proxops import Regularizer

LOG = SmoothLossKind.LOGISTIC
LS = SmoothLossKind.LEAST_SQUARES


def test_logistic_at_zero():
    value, grad = sample_value_grad(LOG, [1.0], 1.0, np.zeros(1))
    assert value == pytest.approx(math.log(2.0), abs=1e-15)
    assert grad[0] == pytest.approx(-0.5, abs=1e-15)


def test_logistic_large_margin_no_overflow():
    # compare against 50-digit evaluation of log(1 + exp(-40))
    value, grad = sample_value_grad(LOG, [1.0], 1.0, np.array([40.0]))
    mpmath.mp.dps = 50
    want_value = float(mpmath.log(1 + mpmath.exp(-40)))
    want_grad = float(-1 / (1 + mpmath.exp(40)))
    assert value == pytest.approx(want_value, rel=1e-14)
    assert grad[0] == pytest.approx(want_grad, rel=1e-14)
    # and the mirrored tail
    value, grad = sample_value_grad(LOG, [1.0], 1.0, np.array([-40.0]))
    assert value == pytest.approx(float(mpmath.log(1 + mpmath.exp(40))), rel=1e-14)
    assert grad[0] == pytest.approx(float(-1 / (1 + mpmath.exp(-40))), rel=1e-14)


def test_least_squares_exact_fit():
    value, grad = sample_value_grad(LS, [2.0], 4.0, np.array([2.0]))
    assert value == 0.0
    assert np.array_equal(grad, [0.0])


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        sample_value_grad(LOG, [1.0, 2.0], 1.0, np.zeros(1))
    with pytest.raises(DimensionMismatch):
        full_objective(*packed([([1.0, 2.0], 1.0)]), Regularizer.zero(), LOG, np.zeros(3))


def test_full_objective_at_zero_is_n_log2():
    arrays = synthesize_classification(m=3, n=7, d=4, separation=2.0, seed=5)
    got = full_objective(*arrays, Regularizer.zero(), LOG, np.zeros(4))
    assert got == pytest.approx(7.0 * math.log(2.0), rel=1e-12)


def test_full_objective_single_agent_example():
    got = full_objective(*packed([([1.0], 0.0)]), Regularizer.l1(1.0), LS, np.array([2.0]))
    assert got == pytest.approx(4.0, abs=1e-15)  # 0.5*4 + |2|


def test_full_objective_uses_one_over_m_scaling():
    # two agents, one sample each: F = (f1 + f2) / 2, not / (2*1) twice
    x = np.array([3.0])
    got = full_objective(*packed([([1.0], 0.0)], [([1.0], 0.0)]), Regularizer.zero(), LS, x)
    assert got == pytest.approx(0.5 * (4.5 + 4.5), abs=1e-14)


def test_batch_matches_sample_sum():
    features, labels = synthesize_classification(m=2, n=5, d=6, separation=1.0, seed=9)
    rows = list(zip(features.reshape(-1, 6), labels.ravel()))
    rng = np.random.default_rng(0)
    for kind in (LOG, LS):
        x = rng.normal(size=6)
        value = packed_smooth_value(features, labels, kind, x)
        grad = packed_smooth_grad(features, labels, kind, x)
        m = features.shape[0]
        want_v = sum(sample_value_grad(kind, a, y, x)[0] for a, y in rows) / m
        want_g = sum(sample_value_grad(kind, a, y, x)[1] for a, y in rows) / m
        assert value == pytest.approx(want_v, rel=1e-12)
        assert np.allclose(grad, want_g, atol=1e-12)


def test_loss_derivative_matches_scalar_form_at_extreme_margins():
    # the vectorized logistic derivative must neither overflow nor lose
    # the tails that the scalar two-branch sigmoid keeps
    margins = np.array([40.0, -40.0, 700.0, -700.0, 745.0, -745.0])
    for label in (1.0, -1.0):
        labels = np.full(margins.size, label)
        got = loss_derivative(LOG, label * margins, labels)
        for z, coef in zip(label * margins, got):
            _, grad = sample_value_grad(LOG, [1.0], label, np.array([z]))
            assert coef == pytest.approx(grad[0], rel=1e-14, abs=1e-320)


def central_difference(kind, a, label, x, h=1e-6):
    grad = np.empty_like(x)
    for i in range(x.size):
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (
            sample_value_grad(kind, a, label, up)[0]
            - sample_value_grad(kind, a, label, down)[0]
        ) / (2 * h)
    return grad


@pytest.mark.parametrize("kind", [LOG, LS])
def test_gradient_matches_finite_differences(kind):
    rng = np.random.default_rng(17)
    for _ in range(60):
        d = int(rng.integers(1, 6))
        a = rng.normal(size=d)
        label = 1.0 if kind is LOG and rng.random() < 0.5 else -1.0
        if kind is LS:
            label = float(rng.normal())
        x = rng.normal(size=d)
        _, grad = sample_value_grad(kind, a, label, x)
        approx = central_difference(kind, a, label, x)
        scale = max(1.0, np.linalg.norm(grad))
        assert np.linalg.norm(grad - approx) / scale <= 1e-5


@pytest.mark.parametrize("kind", [LOG, LS])
def test_convexity_along_segments(kind):
    rng = np.random.default_rng(23)
    a = rng.normal(size=4)
    for _ in range(50):
        x, y = rng.normal(size=4), rng.normal(size=4)
        t = float(rng.uniform(0.01, 0.99))
        fx = sample_value_grad(kind, a, 1.0, x)[0]
        fy = sample_value_grad(kind, a, 1.0, y)[0]
        fm = sample_value_grad(kind, a, 1.0, t * x + (1 - t) * y)[0]
        assert fm <= t * fx + (1 - t) * fy + 1e-12


@pytest.mark.parametrize("kind", [LOG, LS])
def test_per_sample_smoothness_with_module_constant(kind):
    rng = np.random.default_rng(31)
    features, labels = synthesize_classification(m=1, n=8, d=5, separation=1.0, seed=3)
    lip = lipschitz_constant(features, kind)
    for _ in range(200):
        x, y = rng.normal(size=5), rng.normal(size=5)
        for a, label in zip(features[0], labels[0]):
            gx = sample_value_grad(kind, a, label, x)[1]
            gy = sample_value_grad(kind, a, label, y)[1]
            assert np.linalg.norm(gx - gy) <= lip * np.linalg.norm(x - y) + 1e-12


def test_lipschitz_constant_examples():
    one, _ = packed([([2.0], 1.0)])
    assert lipschitz_constant(one, LOG) == pytest.approx(1.0)
    two, _ = packed([([1.0], 0.0), ([3.0], 0.0)])
    assert lipschitz_constant(two, LS) == pytest.approx(9.0)


def test_gradient_bound_examples():
    three_four = packed([([3.0, 4.0], 1.0)])
    assert gradient_bound(*three_four, LOG) == pytest.approx(5.0)
    unit = packed([([1.0], 1.0)])
    assert gradient_bound(*unit, LS, radius=0.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        gradient_bound(*unit, LS, radius=-1.0)


def test_gradient_bound_matches_direct_scan():
    arrays = synthesize_classification(m=4, n=6, d=8, separation=2.0, seed=11)
    rows = list(zip(arrays[0].reshape(-1, 8), arrays[1].ravel()))
    want = max(float(np.linalg.norm(a)) for a, _ in rows)
    assert gradient_bound(*arrays, LOG) == pytest.approx(want, rel=1e-15)
    # the bound really does dominate observed gradients
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = rng.normal(size=8, scale=5.0)
        for a, label in rows:
            g = sample_value_grad(LOG, a, label, x)[1]
            assert np.linalg.norm(g) <= gradient_bound(*arrays, LOG) + 1e-12


@pytest.mark.parametrize("d", [3, 10, 57, 123, 200])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_constants_equal_per_sample_forms_bit_for_bit(d, sparse):
    # each sample alone, so that every row's norm is compared, not just the
    # largest; the batched axis norm and the norm of a row with its zeros
    # both differ from the norm of its generated nonzero values in the last
    # bit on some rows
    rng = np.random.default_rng(d)
    radius = 2.5
    rows, nonzeros = [], []
    for _ in range(40):
        idx = np.arange(d)
        if sparse:
            idx = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
        values = 3.0 * rng.normal(size=idx.size)
        a = np.zeros(d)
        a[idx] = values
        rows.append((a, float(rng.normal())))
        nonzeros.append(values)
    groups = [[k] for k in range(len(rows))] + [list(range(len(rows)))]
    for group in groups:
        features = np.array([[rows[k][0] for k in group]])
        labels = np.array([[rows[k][1] for k in group]])
        norms = [float(np.linalg.norm(nonzeros[k])) for k in group]
        a = max(norms)
        assert lipschitz_constant(features, LOG) == a * a / 4.0
        assert lipschitz_constant(features, LS) == a * a
        assert gradient_bound(features, labels, LOG) == a
        want = max(r * (r * radius + abs(rows[k][1])) for r, k in zip(norms, group))
        assert gradient_bound(features, labels, LS, radius) == want
