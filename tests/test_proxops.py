import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import golden_section_prox_1d
from dpgrr.proxops import NonPositiveStep, RegKind, Regularizer, prox, row_sum, subgradient
from oracles import inexact_prox_error, span_sum

ALL_KINDS = [Regularizer.zero(), Regularizer.l1(1.0), Regularizer.squared_l2(0.7)]


@pytest.mark.parametrize("width", [0, 1, 17, 8192, 8193, 20000])
def test_a_row_sums_to_its_spans_dots_in_order_whatever_its_stack(width):
    # each span of at most 8192 terms is one BLAS dot with ones; a row
    # alone, in a stack, and in a strided stack (as einsum's F-ordered
    # outputs are) all sum to those spans' dots added in order
    terms = np.random.default_rng(width).normal(size=(5, 3, width))
    want = [span_sum(row) for row in terms.reshape(15, width)]
    assert row_sum(terms).ravel().tolist() == want
    assert row_sum(np.asfortranarray(terms)).ravel().tolist() == want
    assert [float(row_sum(row)) for row in terms.reshape(15, width)] == want


def numeric_prox_1d(reg: Regularizer, gamma: float, xi: float) -> float:
    """Independent per-coordinate minimizer of the prox objective."""
    if reg.kind is RegKind.L1:
        penalty = lambda z: reg.lam * abs(z)
    elif reg.kind is RegKind.ZERO:
        penalty = lambda z: 0 * z
    else:
        penalty = lambda z: 0.5 * reg.lam * z * z
    return golden_section_prox_1d(penalty, gamma, xi)


def test_zero_prox_is_identity():
    x = np.array([3.0, -1.0])
    assert np.array_equal(prox(Regularizer.zero(), 2.5, x), x)


def test_l1_prox_matches_soft_threshold_example():
    got = prox(Regularizer.l1(1.0), 1.0, np.array([2.0, -0.5, 0.0]))
    assert np.allclose(got, [1.0, 0.0, 0.0], atol=1e-15)
    # cross-check each coordinate against the numeric minimizer
    for xi, want in [(2.0, 1.0), (-0.5, 0.0), (0.0, 0.0)]:
        assert numeric_prox_1d(Regularizer.l1(1.0), 1.0, xi) == pytest.approx(
            want, abs=1e-8
        )


def test_l1_prox_at_origin_is_origin():
    assert np.array_equal(
        prox(Regularizer.l1(5e-4), 0.3, np.zeros(4)), np.zeros(4)
    )


def test_squared_l2_prox_shrinks():
    x = np.array([2.0, -4.0])
    got = prox(Regularizer.squared_l2(3.0), 0.5, x)
    assert np.allclose(got, x / 2.5, atol=1e-15)


def test_prox_rejects_nonpositive_step():
    for gamma in (0.0, -1.0):
        with pytest.raises(NonPositiveStep):
            prox(Regularizer.l1(1.0), gamma, np.ones(2))
        with pytest.raises(NonPositiveStep):
            inexact_prox_error(Regularizer.l1(1.0), gamma, np.ones(2), np.ones(2))


def test_l1_prox_vs_numeric_minimizer_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        lam = float(rng.uniform(1e-4, 3.0))
        gamma = float(rng.uniform(1e-3, 5.0))
        xi = float(rng.normal(scale=4.0))
        reg = Regularizer.l1(lam)
        want = numeric_prox_1d(reg, gamma, xi)
        got = prox(reg, gamma, np.array([xi]))[0]
        assert got == pytest.approx(want, abs=1e-8)


@settings(max_examples=150, deadline=None)
@given(
    x=arrays(float, 5, elements=st.floats(-50, 50)),
    y=arrays(float, 5, elements=st.floats(-50, 50)),
    gamma=st.floats(1e-3, 10.0),
    lam=st.floats(0.0, 5.0),
)
def test_nonexpansive_l1(x, y, gamma, lam):
    reg = Regularizer.l1(lam)
    lhs = np.linalg.norm(prox(reg, gamma, x) - prox(reg, gamma, y))
    assert lhs <= np.linalg.norm(x - y) + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    x=arrays(float, 3, elements=st.floats(-20, 20)),
    y=arrays(float, 3, elements=st.floats(-20, 20)),
    gamma=st.floats(1e-3, 10.0),
)
def test_nonexpansive_all_kinds(x, y, gamma):
    for reg in ALL_KINDS:
        lhs = np.linalg.norm(prox(reg, gamma, x) - prox(reg, gamma, y))
        assert lhs <= np.linalg.norm(x - y) + 1e-12


def test_l1_optimality_inclusion():
    # (x - prox(x)) / gamma must be a valid subgradient at the prox point
    rng = np.random.default_rng(1)
    for _ in range(100):
        lam = float(rng.uniform(0.05, 2.0))
        gamma = float(rng.uniform(0.05, 3.0))
        x = rng.normal(scale=3.0, size=6)
        z = prox(Regularizer.l1(lam), gamma, x)
        residual = (x - z) / gamma
        on = z != 0.0
        assert np.allclose(residual[on], lam * np.sign(z[on]), atol=1e-12)
        assert np.all(np.abs(residual[~on]) <= lam + 1e-12)


def test_inexact_error_zero_at_exact_prox():
    rng = np.random.default_rng(2)
    for reg in ALL_KINDS:
        x = rng.normal(size=5)
        gamma = 0.7
        assert inexact_prox_error(reg, gamma, x, prox(reg, gamma, x)) == 0.0


def test_inexact_error_examples():
    got = inexact_prox_error(Regularizer.zero(), 1.0, np.array([0.0]), np.array([1.0]))
    assert got == pytest.approx(0.5, abs=1e-15)
    # objective at 0.9 is 0.9 + 0.605 = 1.505; minimum at 1 is 1.5
    got = inexact_prox_error(Regularizer.l1(1.0), 1.0, np.array([2.0]), np.array([0.9]))
    assert got == pytest.approx(0.005, abs=1e-12)


def test_inexact_error_nonnegative_random():
    rng = np.random.default_rng(3)
    for _ in range(300):
        reg = Regularizer.l1(float(rng.uniform(0, 2)))
        x = rng.normal(size=4)
        cand = rng.normal(size=4)
        assert inexact_prox_error(reg, float(rng.uniform(0.01, 2)), x, cand) >= 0.0


def test_subgradient_cases():
    assert np.array_equal(subgradient(Regularizer.zero(), np.ones(3)), np.zeros(3))
    got = subgradient(Regularizer.l1(2.0), np.array([3.0, 0.0, -1.0]))
    assert np.array_equal(got, [2.0, 0.0, -2.0])
    d = 7
    g = subgradient(Regularizer.l1(1.0), np.zeros(d))
    assert np.array_equal(g, np.zeros(d))
    assert np.linalg.norm(g) <= Regularizer.l1(1.0).subgradient_bound(d)


def test_subgradient_bound_values():
    assert Regularizer.l1(2.0).subgradient_bound(9) == pytest.approx(6.0)
    assert Regularizer.zero().subgradient_bound(9) == 0.0
    assert Regularizer.squared_l2(2.0).subgradient_bound(9, radius=3.0) == 6.0


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        Regularizer.l1(-0.1)


@pytest.mark.parametrize("lam", [math.inf, math.nan])
def test_non_finite_weight_rejected(lam):
    for make in (Regularizer.l1, Regularizer.squared_l2):
        with pytest.raises(ValueError, match="finite"):
            make(lam)
