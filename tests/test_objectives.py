import math
import warnings

import mpmath
import numpy as np
import pytest

from conftest import packed
from dpgrr.dataio import synthesize_classification
from dpgrr.objectives import (
    DimensionMismatch,
    SmoothLossKind,
    _sample_norms,
    full_objective,
    gradient_bound,
    lipschitz_constant,
    margin_slope,
    packed_smooth_value,
    smooth_curvature,
    softplus,
)
from dpgrr.proxops import Regularizer
from oracles import loss_derivative, packed_smooth_grad, sample_norms, sample_value_grad
from test_engine import MARGINS, stdout_on_one_and_two_blas_threads

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


STACK_SIZES = (1, 2, 7, 30, 61)


@pytest.mark.parametrize("m", [1, 10])
@pytest.mark.parametrize("kind", [LOG, LS])
@pytest.mark.parametrize(
    "reg", [Regularizer.zero(), Regularizer.l1(5e-4), Regularizer.squared_l2(0.1)],
    ids=["zero", "l1", "squared_l2"],
)
def test_stacked_objective_and_penalty_equal_one_point_at_a_time(m, kind, reg):
    # the engine evaluates a batch's points in one call; each point must get
    # the bits it gets alone, whatever the size of the stack around it
    features, labels = synthesize_classification(m=m, n=20, d=10, separation=5.0, seed=42)
    rng = np.random.default_rng(m)
    if kind is LS:
        labels = rng.normal(size=labels.shape)
    points = rng.normal(size=(max(STACK_SIZES), 10))
    objective = [full_objective(features, labels, reg, kind, x) for x in points]
    penalty = [reg.value(x) for x in points]
    assert all(type(value) is float for value in objective + penalty)
    for size in STACK_SIZES:
        assert full_objective(features, labels, reg, kind, points[:size]).tolist() == (
            objective[:size]
        )
        assert reg.value(points[:size]).tolist() == penalty[:size]
    grid = full_objective(features, labels, reg, kind, points[:60].reshape(2, 30, 10))
    assert grid.shape == (2, 30) and grid.ravel().tolist() == objective[:60]


@pytest.mark.parametrize("m, n, d", [(2, 4500, 3), (1, 5, 9000)],
                         ids=["samples_past_a_span", "features_past_a_span"])
@pytest.mark.parametrize("kind", [LOG, LS])
def test_wide_stacks_give_each_point_its_bits_alone(m, n, d, kind):
    # more samples than a span sum a point's losses span by span, and more
    # features than a span sum the penalty so; the squared-L2 penalty's
    # einsum once summed a point wider than its 8192-element buffer in
    # pieces that depended on the stack
    features, labels = synthesize_classification(m=m, n=n, d=d, separation=1.0, seed=3)
    points = np.random.default_rng(d).normal(size=(7, d)) * 0.1
    for reg in (Regularizer.l1(5e-4), Regularizer.squared_l2(0.1)):
        objective = [full_objective(features, labels, reg, kind, x) for x in points]
        penalty = [reg.value(x) for x in points]
        for size in (2, 7):
            assert full_objective(features, labels, reg, kind, points[:size]).tolist() == (
                objective[:size]
            )
            assert reg.value(points[:size]).tolist() == penalty[:size]


def test_recorded_values_have_the_same_bits_on_any_blas_thread_count():
    # OpenBLAS threads a ddot of more than 10000 elements and a large
    # gemv; the record's sums and penalty dots take spans of at most 8192,
    # and a gemv keeps each margin whole, so one thread and two give the
    # same values, with m n, d and the edges each past a span
    script = """if True:
        import hashlib
        import numpy as np
        from dpgrr.dataio import synthesize_classification
        from dpgrr.metrics import consensus_quantity
        from dpgrr.objectives import SmoothLossKind, full_objective
        from dpgrr.proxops import Regularizer
        rng = np.random.default_rng(0)
        regs = (Regularizer.l1(0.01), Regularizer.squared_l2(0.1))
        values = []
        for m, n, d in ((4, 3000, 20), (1, 30, 9000)):
            features, labels = synthesize_classification(m=m, n=n, d=d, separation=1.0, seed=1)
            points = rng.normal(size=(3, d)) * 0.1
            for kind in SmoothLossKind:
                for reg in regs:
                    values.append(full_objective(features, labels, reg, kind, points))
        for reg in regs:
            values.append(reg.value(rng.normal(size=(3, 20000))))
        for m, d in ((110, 3), (3, 20000)):
            weights = np.full((m, m), 1.0 / m)
            values.append(consensus_quantity(rng.normal(size=(2, m, d)), weights))
        for value in values:
            print(hashlib.sha256(value.tobytes()).hexdigest())
    """
    out = stdout_on_one_and_two_blas_threads(script)
    assert len(out[0].split()) == 12
    assert out[0] == out[1]


def test_loss_derivative_matches_scalar_form_at_extreme_margins():
    # the vectorized logistic derivative must neither overflow, nor warn,
    # nor lose the tails that the scalar two-branch sigmoid keeps;
    # ``margin_slope`` takes the signed margins y z, and its slope times y
    # is the derivative.  Past exp's overflow (u > 709.78) it is exactly 0,
    # where the scalar form is below the smallest normal float
    margins = np.array([40.0, -40.0, 700.0, -700.0, 745.0, -745.0, 709.79, 1e308, math.inf])
    past = margins > 709.78
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for label in (1.0, -1.0):
            labels = np.full(margins.size, label)
            for got in (loss_derivative(LOG, label * margins, labels),
                        label * margin_slope(LOG, margins, None)):
                for z, coef, beyond in zip(label * margins, got, past):
                    _, grad = sample_value_grad(LOG, [1.0], label, np.array([z]))
                    if beyond:
                        assert coef == 0.0 and abs(grad[0]) < np.finfo(float).tiny
                    else:
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


def _random_pack(seed, kind):
    """Random sparse ``(m, n, d)`` features with labels of ``kind``."""
    rng = np.random.default_rng(seed)
    m, n, d = (int(v) for v in rng.integers(1, 7, size=3))
    features = rng.normal(scale=2.0, size=(m, n, d)) * (rng.random((m, n, d)) < 0.6)
    if kind is LOG:
        labels = rng.choice([-1.0, 1.0], size=(m, n))
    else:
        labels = rng.normal(size=(m, n))
    return features, labels


@pytest.mark.parametrize("seed", range(5))
def test_least_squares_curvature_is_the_top_hessian_eigenvalue(seed):
    features, labels = _random_pack(seed, LS)
    d = features.shape[-1]
    # the least-squares gradient is affine: its differences are Hessian columns
    zero = packed_smooth_grad(features, labels, LS, np.zeros(d))
    hessian = np.column_stack(
        [packed_smooth_grad(features, labels, LS, e) - zero for e in np.eye(d)]
    )
    top = np.linalg.norm((hessian + hessian.T) / 2.0, 2)
    assert smooth_curvature(features, LS) == pytest.approx(top, rel=1e-10, abs=1e-14)


@pytest.mark.parametrize(("m", "n", "d"), [(2, 3, 20), (4, 5, 3)], ids=["wide", "tall"])
def test_curvature_takes_the_top_eigenvalue_of_the_smaller_gram_matrix(monkeypatch, m, n, d):
    # A A^T and A^T A share their nonzero eigenvalues
    features = np.random.default_rng(d).normal(size=(m, n, d))
    flat = features.reshape(-1, d)
    top = np.linalg.eigvalsh(flat.T @ flat)[-1]
    orders = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: orders.append(len(a)) or eigvalsh(a))
    assert smooth_curvature(features, LS) == pytest.approx(top / m, rel=1e-13)
    assert smooth_curvature(features, LOG) == pytest.approx(top / (4.0 * m), rel=1e-13)
    assert orders == [min(m * n, d)] * 2


@pytest.mark.parametrize("kind", [LOG, LS])
@pytest.mark.parametrize("seed", range(6))
def test_curvature_is_at_most_n_times_the_per_sample_constant(kind, seed):
    features, _ = _random_pack(seed, kind)
    n = features.shape[1]
    bound = n * lipschitz_constant(features, kind)
    assert smooth_curvature(features, kind) <= bound * (1.0 + 1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_logistic_descent_lemma_at_the_curvature(seed):
    features, labels = _random_pack(seed, LOG)
    curvature = smooth_curvature(features, LOG)
    rng = np.random.default_rng(100 + seed)
    for _ in range(200):
        x, y = rng.normal(scale=3.0, size=(2, features.shape[-1]))
        fx = packed_smooth_value(features, labels, LOG, x)
        gx = packed_smooth_grad(features, labels, LOG, x)
        fy = packed_smooth_value(features, labels, LOG, y)
        step = y - x
        upper = fx + gx @ step + 0.5 * curvature * step @ step
        assert fy <= upper + 1e-12 * max(1.0, abs(upper))


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


@pytest.mark.parametrize("d", [1, 2, 3, 7, 10, 20, 33, 123, 300])
@pytest.mark.parametrize("rows", ["dense", "sparse", "zero-rows", "negative-zeros"])
def test_sample_norms_are_the_per_row_loop_bit_for_bit(d, rows):
    # the stacked matmul over rows grouped by their count of nonzeros sums
    # each row's nonzeros as that row's own dot does
    rng = np.random.default_rng(d)
    features = rng.normal(scale=3.0, size=(3, 20, d))
    if rows == "sparse":
        # 30% zeros, a -0.0 where the zeroed entry was negative
        features *= rng.random(features.shape) >= 0.3
    elif rows == "zero-rows":
        features[:, ::3] = 0.0
    elif rows == "negative-zeros":
        features[rng.random(features.shape) < 0.3] = -0.0
    assert _sample_norms(features).tobytes() == sample_norms(features).tobytes()


def test_softplus_is_within_two_ulp_of_logaddexp():
    rng = np.random.default_rng(21)
    # near v = -4.155 numpy's vectorized exp and log1p can both round down
    # where libm's round up: the one band found 3 ULP apart
    band = np.linspace(-4.16, -4.15, 20001)
    values = np.concatenate([
        MARGINS, [math.inf, -math.inf, math.nan, 5e-324, -5e-324, 710.0, -710.0,
                  1e308, -1e308],
        rng.normal(size=20000) * 40.0, rng.standard_cauchy(size=20000) * 10.0, band,
    ])
    with np.errstate(invalid="ignore"):  # logaddexp warns on NaN
        want = np.logaddexp(0.0, values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = softplus(values)
        in_place = values.copy()
        assert softplus(in_place, out=in_place) is in_place
        strided = softplus(values[::2])
    # the results are >= 0, where the integer view orders floats by ULP
    ulps = np.abs(got.view(np.int64) - want.view(np.int64))
    in_band = (values >= band[0]) & (values <= band[-1])
    assert ulps[~np.isnan(want) & ~in_band].max() <= 2
    assert ulps[in_band].max() <= 3
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(in_place.view(np.int64), got.view(np.int64))
    assert np.array_equal(strided.view(np.int64), got[::2].view(np.int64))
    edges = np.array([0.0, -0.0, math.inf, -math.inf])
    assert softplus(edges).tolist() == [math.log(2.0), math.log(2.0), math.inf, 0.0]
    assert softplus(edges).tolist() == np.logaddexp(0.0, edges).tolist()
    assert math.isnan(softplus(np.array([math.nan]))[0])
    assert np.signbit(softplus(edges)).sum() == 0
