import numpy as np
import pytest

from conftest import packed
from dpgrr.dataio import synthesize_classification
from dpgrr.metrics import (
    consensus_edges,
    consensus_quantity,
    forward_deviation,
    shuffling_variance,
)
from dpgrr.netgraph import metropolis_weights
from dpgrr.objectives import DimensionMismatch, SmoothLossKind
from oracles import sample_value_grad


def laplacian_form(xs, weights) -> float:
    """Independent route: explicit graph Laplacian from off-diagonal weights."""
    xs = np.stack(xs)
    off = weights.copy()
    np.fill_diagonal(off, 0.0)
    lap = np.diag(off.sum(axis=1)) - off
    flat = xs.reshape(xs.shape[0], -1)
    return float(np.trace(flat.T @ lap @ flat))


def test_equal_vectors_give_zero():
    a = metropolis_weights({(0, 1), (1, 2)}, 3, 0.1).weights
    xs = [np.array([1.0, -2.0])] * 3
    assert consensus_quantity(xs, a) == 0.0


def test_two_agent_half_weights_example():
    # direct expansion: x1 a12 (x1 - x2) + x2 a21 (x2 - x1) = 0.5
    a = np.array([[0.5, 0.5], [0.5, 0.5]])
    xs = [np.array([1.0]), np.array([0.0])]
    got = consensus_quantity(xs, a)
    assert got == pytest.approx(0.5, abs=1e-15)
    assert got == pytest.approx(laplacian_form(xs, a), abs=1e-15)


def test_matches_laplacian_form_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = int(rng.integers(2, 8))
        edges = {(i, (i + 1) % m) for i in range(m)} if m > 2 else {(0, 1)}
        a = metropolis_weights(edges, m, 0.01).weights
        xs = [rng.normal(size=4) for _ in range(m)]
        got = consensus_quantity(xs, a)
        assert got == pytest.approx(laplacian_form(xs, a), abs=1e-10)
        assert got > 0.0  # connected graph, distinct vectors


def test_zero_iff_consensus_on_connected_graph():
    a = metropolis_weights({(0, 1), (1, 2), (0, 2)}, 3, 0.1).weights
    rng = np.random.default_rng(6)
    xs = [rng.normal(size=3) for _ in range(3)]
    assert consensus_quantity(xs, a) > 0.0
    same = [xs[0].copy() for _ in range(3)]
    assert consensus_quantity(same, a) == 0.0
    # and a tiny perturbation leaves zero again only if removed
    same[1] = same[1] + 1e-8
    assert consensus_quantity(same, a) > 0.0


STACK_SIZES = (1, 2, 7, 30, 61)


@pytest.mark.parametrize(
    "m, edges",
    [(1, set()), (4, set()), (10, {(j, (j + 1) % 10) for j in range(10)} | {(0, 5)})],
    ids=["one_agent", "no_off_diagonal", "ring_and_chord"],
)
def test_stacked_disagreement_equals_one_state_at_a_time(m, edges):
    # the engine evaluates a batch's states in one call; each state must get
    # the bits it gets alone, whatever the size of the stack around it
    designated = metropolis_weights(edges, m, 1.0 / m).weights
    states = np.random.default_rng(m).normal(size=(max(STACK_SIZES), m, 3))
    one = [consensus_quantity(state, designated) for state in states]
    assert all(type(value) is float for value in one)
    for size in STACK_SIZES:
        assert consensus_quantity(states[:size], designated).tolist() == one[:size]
    if not edges:
        assert one == [0.0] * len(states)
    else:
        assert min(one) > 0.0


@pytest.mark.parametrize(
    "m, edges",
    [(1, set()), (4, set()), (10, {(j, (j + 1) % 10) for j in range(10)} | {(0, 5)})],
    ids=["one_agent", "no_off_diagonal", "ring_and_chord"],
)
def test_edges_found_once_give_the_same_bits(m, edges):
    # the engine finds a fixed matrix's edge list once per batch and passes
    # it with every recorded stack
    designated = metropolis_weights(edges, m, 1.0 / m).weights
    i, j, w = consensus_edges(designated)
    assert [(a, b) for a, b in zip(i.tolist(), j.tolist())] == sorted(
        edges | {(b, a) for a, b in edges}
    )
    assert np.array_equal(w, designated[i, j])
    states = np.random.default_rng(m).normal(size=(7, m, 3))
    given = consensus_quantity(states, designated, (i, j, w))
    assert given.tolist() == consensus_quantity(states, designated).tolist()
    assert consensus_quantity(states[0], designated, (i, j, w)) == consensus_quantity(
        states[0], designated
    )
    if not edges:
        assert given.tolist() == [0.0] * len(states)


@pytest.mark.parametrize("n", [1, 20])
def test_stacked_forward_deviation_equals_one_run_at_a_time(n):
    rng = np.random.default_rng(n)
    inner = rng.normal(size=(max(STACK_SIZES), n, 10))
    x_next = rng.normal(size=(max(STACK_SIZES), 10))
    one = [forward_deviation(a, b) for a, b in zip(inner, x_next)]
    assert all(type(value) is float for value in one)
    for size in STACK_SIZES:
        assert forward_deviation(inner[:size], x_next[:size]).tolist() == one[:size]


def test_dimension_mismatch():
    a = metropolis_weights({(0, 1)}, 2, 0.1).weights
    with pytest.raises(DimensionMismatch):
        consensus_quantity([np.ones(2)] * 3, a)


def test_shuffling_variance_identical_samples():
    features, labels = synthesize_classification(m=2, n=4, d=3, separation=np.inf, seed=1)
    # overwrite: make every index hold the same sample per agent
    flat = np.broadcast_to(features[0, 0], (2, 4, 3))
    same = np.full((2, 4), labels[0, 0])
    got = shuffling_variance(flat, same, SmoothLossKind.LOGISTIC, np.zeros(3))
    assert got == pytest.approx(0.0, abs=1e-30)


def test_shuffling_variance_two_point_example():
    # per-index averaged gradients [1] and [-1]: mean 0, variance 1
    # least squares at x=0: grad = (0 - label) * a -> -1 and +1
    got = shuffling_variance(
        *packed([([1.0], 1.0), ([1.0], -1.0)]), SmoothLossKind.LEAST_SQUARES, np.zeros(1)
    )
    assert got == pytest.approx(1.0, abs=1e-15)


def test_shuffling_variance_matches_brute_force():
    features, labels = synthesize_classification(m=3, n=5, d=4, separation=1.0, seed=7)
    x = np.random.default_rng(8).normal(size=4)
    got = shuffling_variance(features, labels, SmoothLossKind.LOGISTIC, x)
    # independent recomputation, one sample at a time
    g = np.zeros((5, 4))
    for i in range(5):
        for rows, ys in zip(features, labels):
            g[i] += sample_value_grad(SmoothLossKind.LOGISTIC, rows[i], ys[i], x)[1]
        g[i] /= 3
    want = float(np.mean(np.sum((g - g.mean(0)) ** 2, axis=1)))
    assert got == pytest.approx(want, abs=1e-12)


def test_shuffling_variance_invariant_to_local_reorder():
    features, labels = synthesize_classification(m=2, n=6, d=3, separation=1.0, seed=9)
    x = np.random.default_rng(10).normal(size=3)
    base = shuffling_variance(features, labels, SmoothLossKind.LOGISTIC, x)
    # reorder each agent's samples by the SAME permutation: the per-index
    # averages are permuted as a set, so the variance cannot change
    perm = [3, 0, 5, 1, 4, 2]
    got = shuffling_variance(
        features[:, perm], labels[:, perm], SmoothLossKind.LOGISTIC, x
    )
    assert got == pytest.approx(base, abs=1e-14)


def test_forward_deviation_values():
    x_next = np.array([1.0, 1.0])
    inner = np.stack([x_next, x_next])
    assert forward_deviation(inner, x_next) == 0.0
    inner = np.stack([x_next + [1.0, 0.0], x_next + [2.0, 0.0]])
    assert forward_deviation(inner, x_next) == pytest.approx(5.0, abs=1e-15)
