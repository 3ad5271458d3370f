import math

import mpmath
import numpy as np
import pytest

from conftest import single_sample_dataset
from dpgrr.dataio import synthesize_classification
from dpgrr.objectives import (
    DimensionMismatch,
    EmptyData,
    LocalDataset,
    Sample,
    SmoothLossKind,
    batch_smooth_value_grad,
    full_objective,
    gradient_bound,
    lipschitz_constant,
    loss_derivative,
    sample_value_grad,
)
from dpgrr.proxops import Regularizer

LOG = SmoothLossKind.LOGISTIC
LS = SmoothLossKind.LEAST_SQUARES


def s(a, label):
    a = np.atleast_1d(np.asarray(a, dtype=float))
    return Sample(np.arange(a.size, dtype=np.int64), a, label)


def test_logistic_at_zero():
    value, grad = sample_value_grad(LOG, s([1.0], 1.0), np.zeros(1))
    assert value == pytest.approx(math.log(2.0), abs=1e-15)
    assert grad[0] == pytest.approx(-0.5, abs=1e-15)


def test_logistic_large_margin_no_overflow():
    # compare against 50-digit evaluation of log(1 + exp(-40))
    value, grad = sample_value_grad(LOG, s([1.0], 1.0), np.array([40.0]))
    mpmath.mp.dps = 50
    want_value = float(mpmath.log(1 + mpmath.exp(-40)))
    want_grad = float(-1 / (1 + mpmath.exp(40)))
    assert value == pytest.approx(want_value, rel=1e-14)
    assert grad[0] == pytest.approx(want_grad, rel=1e-14)
    # and the mirrored tail
    value, grad = sample_value_grad(LOG, s([1.0], 1.0), np.array([-40.0]))
    assert value == pytest.approx(float(mpmath.log(1 + mpmath.exp(40))), rel=1e-14)
    assert grad[0] == pytest.approx(float(-1 / (1 + mpmath.exp(-40))), rel=1e-14)


def test_least_squares_exact_fit():
    value, grad = sample_value_grad(LS, s([2.0], 4.0), np.array([2.0]))
    assert value == 0.0
    assert np.array_equal(grad, [0.0])


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        sample_value_grad(LOG, s([1.0, 2.0], 1.0), np.zeros(1))
    ds = single_sample_dataset([1.0, 2.0], 1.0, 2)
    with pytest.raises(DimensionMismatch):
        full_objective((ds,), Regularizer.zero(), LOG, np.zeros(3))


def test_sparse_sample_gradient_placement():
    sample = Sample(np.array([4, 1]), np.array([2.0, 3.0]), -1.0)  # unsorted input
    assert np.array_equal(sample.indices, [1, 4])
    x = np.zeros(6)
    _, grad = sample_value_grad(LOG, sample, x)
    assert grad[0] == 0.0 and grad[2] == 0.0
    assert grad[1] != 0.0 and grad[4] != 0.0


def test_full_objective_at_zero_is_n_log2():
    datasets = synthesize_classification(m=3, n=7, d=4, separation=2.0, seed=5)
    got = full_objective(tuple(datasets), Regularizer.zero(), LOG, np.zeros(4))
    assert got == pytest.approx(7.0 * math.log(2.0), rel=1e-12)


def test_full_objective_single_agent_example():
    ds = single_sample_dataset([1.0], 0.0, 1)
    got = full_objective((ds,), Regularizer.l1(1.0), LS, np.array([2.0]))
    assert got == pytest.approx(4.0, abs=1e-15)  # 0.5*4 + |2|


def test_full_objective_uses_one_over_m_scaling():
    # two agents, one sample each: F = (f1 + f2) / 2, not / (2*1) twice
    d1 = single_sample_dataset([1.0], 0.0, 1, agent=0)
    d2 = single_sample_dataset([1.0], 0.0, 1, agent=1)
    x = np.array([3.0])
    got = full_objective((d1, d2), Regularizer.zero(), LS, x)
    assert got == pytest.approx(0.5 * (4.5 + 4.5), abs=1e-14)


def test_batch_matches_sample_sum():
    datasets = tuple(synthesize_classification(m=2, n=5, d=6, separation=1.0, seed=9))
    rng = np.random.default_rng(0)
    for kind in (LOG, LS):
        x = rng.normal(size=6)
        value, grad = batch_smooth_value_grad(datasets, kind, x)
        m = len(datasets)
        want_v = sum(
            sample_value_grad(kind, smp, x)[0] for ds in datasets for smp in ds.samples
        ) / m
        want_g = sum(
            sample_value_grad(kind, smp, x)[1] for ds in datasets for smp in ds.samples
        ) / m
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
            _, grad = sample_value_grad(LOG, s([1.0], label), np.array([z]))
            assert coef == pytest.approx(grad[0], rel=1e-14, abs=1e-320)


def central_difference(kind, sample, x, h=1e-6):
    grad = np.empty_like(x)
    for i in range(x.size):
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (
            sample_value_grad(kind, sample, up)[0]
            - sample_value_grad(kind, sample, down)[0]
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
        sample = s(a, label)
        x = rng.normal(size=d)
        _, grad = sample_value_grad(kind, sample, x)
        approx = central_difference(kind, sample, x)
        scale = max(1.0, np.linalg.norm(grad))
        assert np.linalg.norm(grad - approx) / scale <= 1e-5


@pytest.mark.parametrize("kind", [LOG, LS])
def test_convexity_along_segments(kind):
    rng = np.random.default_rng(23)
    sample = s(rng.normal(size=4), 1.0)
    for _ in range(50):
        x, y = rng.normal(size=4), rng.normal(size=4)
        t = float(rng.uniform(0.01, 0.99))
        fx = sample_value_grad(kind, sample, x)[0]
        fy = sample_value_grad(kind, sample, y)[0]
        fm = sample_value_grad(kind, sample, t * x + (1 - t) * y)[0]
        assert fm <= t * fx + (1 - t) * fy + 1e-12


@pytest.mark.parametrize("kind", [LOG, LS])
def test_per_sample_smoothness_with_module_constant(kind):
    rng = np.random.default_rng(31)
    datasets = tuple(synthesize_classification(m=1, n=8, d=5, separation=1.0, seed=3))
    lip = lipschitz_constant(datasets, kind)
    for _ in range(200):
        x, y = rng.normal(size=5), rng.normal(size=5)
        for smp in datasets[0].samples:
            gx = sample_value_grad(kind, smp, x)[1]
            gy = sample_value_grad(kind, smp, y)[1]
            assert np.linalg.norm(gx - gy) <= lip * np.linalg.norm(x - y) + 1e-12


def test_lipschitz_constant_examples():
    assert lipschitz_constant((single_sample_dataset([2.0], 1.0, 1),), LOG) == pytest.approx(1.0)
    two = LocalDataset(0, (s([1.0], 0.0), s([3.0], 0.0)), 1)
    assert lipschitz_constant((two,), LS) == pytest.approx(9.0)
    with pytest.raises(EmptyData):
        lipschitz_constant((), LOG)


def test_gradient_bound_examples():
    assert gradient_bound((single_sample_dataset([3.0, 4.0], 1.0, 2),), LOG) == pytest.approx(5.0)
    assert gradient_bound((single_sample_dataset([1.0], 1.0, 1),), LS, radius=0.0) == pytest.approx(1.0)
    with pytest.raises(EmptyData):
        gradient_bound((), LOG)
    with pytest.raises(ValueError):
        gradient_bound((single_sample_dataset([1.0], 1.0, 1),), LS, radius=-1.0)


def test_gradient_bound_matches_direct_scan():
    datasets = tuple(synthesize_classification(m=4, n=6, d=8, separation=2.0, seed=11))
    want = max(
        float(np.linalg.norm(smp.dense(8))) for ds in datasets for smp in ds.samples
    )
    assert gradient_bound(datasets, LOG) == pytest.approx(want, rel=1e-15)
    # the bound really does dominate observed gradients
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = rng.normal(size=8, scale=5.0)
        for ds in datasets:
            for smp in ds.samples:
                g = sample_value_grad(LOG, smp, x)[1]
                assert np.linalg.norm(g) <= gradient_bound(datasets, LOG) + 1e-12


def test_sample_validation():
    with pytest.raises(ValueError):
        Sample(np.array([0, 0]), np.array([1.0, 2.0]), 1.0)  # duplicate index
    with pytest.raises(ValueError):
        Sample(np.array([-1]), np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        Sample(np.array([0]), np.array([np.nan]), 1.0)
    with pytest.raises(EmptyData):
        LocalDataset(0, (), 3)
