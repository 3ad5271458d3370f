import glob

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dpgrr.config import build_schedule, load_config
from dpgrr.netgraph import (
    EmptyGraph,
    EtaViolation,
    GraphSchedule,
    MixingMatrix,
    StepsMode,
    consensus_weights_for_epoch,
    epoch_blocks,
    metropolis_weights,
    mix,
    validate_schedule,
)


def ring_matrix(m: int, eta: float = 0.05) -> MixingMatrix:
    edges = {(i, (i + 1) % m) for i in range(m)} if m > 2 else {(0, 1)}
    return metropolis_weights(edges, m, eta)


def random_connected_matrix(rng, m: int, eta: float = 0.01) -> MixingMatrix:
    # random spanning tree plus a few extra edges
    nodes = rng.permutation(m)
    edges = {(int(nodes[i]), int(nodes[rng.integers(0, i)])) for i in range(1, m)}
    for _ in range(int(rng.integers(0, m))):
        i, j = rng.integers(0, m, size=2)
        if i != j:
            edges.add((int(i), int(j)))
    return metropolis_weights(edges, m, eta)


# -- construction ------------------------------------------------------------


def test_metropolis_single_edge():
    got = metropolis_weights({(0, 1)}, 2, 0.1)
    assert np.allclose(got.weights, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_metropolis_no_edges_is_identity():
    got = metropolis_weights(set(), 3, 0.1)
    assert np.array_equal(got.weights, np.eye(3))


def test_metropolis_path_graph():
    got = metropolis_weights({(0, 1), (1, 2)}, 3, 0.1)
    third = 1.0 / 3.0
    want = [[2 * third, third, 0.0], [third, third, third], [0.0, third, 2 * third]]
    assert np.allclose(got.weights, want, atol=1e-15)
    assert np.allclose(got.weights.sum(0), 1.0, atol=1e-15)
    assert np.allclose(got.weights.sum(1), 1.0, atol=1e-15)


def test_metropolis_preconditions():
    with pytest.raises(EmptyGraph):
        metropolis_weights(set(), 0, 0.1)
    with pytest.raises(ValueError):
        metropolis_weights({(0, 0)}, 2, 0.1)  # self loop
    with pytest.raises(ValueError):
        metropolis_weights({(0, 5)}, 3, 0.1)  # out of range
    with pytest.raises(ValueError):
        metropolis_weights({(0, 1)}, 3, 0.5)  # eta > 1/m


def _metropolis_by_loop(edges, m: int) -> np.ndarray:
    """The weights filled one edge and one row at a time."""
    edge_set = {(min(i, j), max(i, j)) for i, j in edges}
    degree = [0] * m
    for i, j in edge_set:
        degree[i] += 1
        degree[j] += 1
    w = np.zeros((m, m))
    for i, j in edge_set:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(degree[i], degree[j]))
    for i in range(m):
        w[i, i] = 1.0 - w[i].sum()
    return w


def test_metropolis_array_fill_has_the_bits_of_the_loop():
    # the two perfect matchings of a 100-ring, then random graphs whose
    # edge lists repeat and reverse edges
    m = 100
    cases = [([(i, i + 1) for i in range(0, m, 2)], m),
             ([(i, (i + 1) % m) for i in range(1, m, 2)], m)]
    rng = np.random.default_rng(19)
    for _ in range(300):
        m = int(rng.integers(1, 40))
        pairs = rng.integers(0, m, size=(int(rng.integers(0, 3 * m)), 2))
        cases.append(([(int(i), int(j)) for i, j in pairs if i != j], m))
    for edges, m in cases:
        got = metropolis_weights(edges, m, 0.5 / m).weights
        want = _metropolis_by_loop(edges, m)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (edges, m)


def _edges_by_double_loop(w: np.ndarray) -> set[tuple[int, int]]:
    m = len(w)
    return {
        (i, j)
        for i in range(m)
        for j in range(i + 1, m)
        if w[i, j] > 0.0 or w[j, i] > 0.0
    }


# zeros of both signs, subnormals and tiny normals beside ordinary weights
WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308]),
    st.floats(0.0, 1.0),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(lambda m: arrays(float, (m, m), elements=WEIGHTS)))
@example(np.array([[0.0, 5e-324, -0.0], [-0.0, 1.0, 0.0], [1e-310, 0.0, 0.0]]))
def test_edges_match_the_double_loop_over_any_support(weights):
    # the support need not be symmetric: either direction carries the edge
    edges = MixingMatrix(weights, 0.1).edges()
    assert edges == _edges_by_double_loop(weights)
    assert all(type(i) is int and type(j) is int for i, j in edges)


def test_eta_violation_detected_on_doctored_matrix():
    w = np.array([[0.999, 0.001], [0.001, 0.999]])
    issues = MixingMatrix(w, eta=0.1).issues()
    assert any("eta bound" in i for i in issues)


def test_eta_violation_error_type_exists():
    assert issubclass(EtaViolation, ValueError)


# -- schedule validation -----------------------------------------------------


def test_complete_graph_schedule_passes():
    m = 4
    complete = metropolis_weights(
        {(i, j) for i in range(m) for j in range(i + 1, m)}, m, 1.0 / m
    )
    report = validate_schedule(GraphSchedule((complete,), 1))
    assert report.passed
    assert "PASS" in report.render()


def test_identity_schedule_fails_connectivity():
    identity = metropolis_weights(set(), 3, 0.1)
    report = validate_schedule(GraphSchedule((identity,), 5))
    assert not report.passed
    assert "uniform connectivity" in report.first_failure()
    assert "FAIL" in report.render()


def test_nonstochastic_matrix_reported():
    bad = MixingMatrix(np.array([[0.7, 0.2], [0.2, 0.7]]), eta=0.01)
    report = validate_schedule(GraphSchedule((bad,), 1))
    assert not report.passed
    assert "doubly stochastic" in report.first_failure()


def test_ring_fragments_connected_with_window_three():
    slots = [[(0, 1), (1, 2)], [(2, 3), (3, 4)], [(0, 4)]]
    matrices = tuple(metropolis_weights(s, 5, 0.05) for s in slots)
    # single fragment is not connected on its own
    lone = validate_schedule(GraphSchedule((matrices[0],), 1))
    assert not lone.passed
    report = validate_schedule(GraphSchedule(matrices, 3))
    assert report.passed


@pytest.mark.parametrize("window", [3, 4, 7])
def test_a_window_past_the_period_holds_every_slot(window):
    slots = [[(0, 1), (1, 2)], [(2, 3), (3, 4)], [(0, 4)]]
    matrices = tuple(metropolis_weights(s, 5, 0.05) for s in slots)
    report = validate_schedule(GraphSchedule(matrices, window))
    assert report.passed
    assert [(w.start, w.union_edges) for w in report.windows] == [(0, 5), (1, 5), (2, 5)]


def test_all_shipped_config_schedules_validate(configs_dir):
    paths = sorted(glob.glob(str(configs_dir / "*.yaml")))
    assert paths, "no shipped configs found"
    for path in paths:
        cfg = load_config(path)
        report = validate_schedule(build_schedule(cfg.graph, cfg.m))
        assert report.passed, f"{path}: {report.first_failure()}"


# -- consensus weights -------------------------------------------------------


def test_epoch_zero_growing_is_single_matrix():
    mat = ring_matrix(4)
    sched = GraphSchedule((mat,), 1)
    got = consensus_weights_for_epoch(sched, 0, StepsMode.growing())
    assert np.allclose(got, mat.weights, atol=1e-15)


def test_constant_schedule_gives_matrix_powers():
    mat = ring_matrix(5)
    sched = GraphSchedule((mat,), 1)
    for t, mode in [(3, StepsMode.growing()), (0, StepsMode.fixed(6)), (2, StepsMode.fixed(4))]:
        got = consensus_weights_for_epoch(sched, t, mode)
        want = np.linalg.matrix_power(mat.weights, mode.factors_for_epoch(t))
        assert np.allclose(got, want, atol=1e-12)


def test_path_graph_power_approaches_uniform():
    mat = metropolis_weights({(0, 1), (1, 2)}, 3, 0.1)
    sched = GraphSchedule((mat,), 1)
    got = consensus_weights_for_epoch(sched, 5, StepsMode.growing())  # six factors
    dev = np.abs(got - 1.0 / 3.0).max()
    assert dev <= 0.05
    want = np.linalg.matrix_power(mat.weights, 6)
    assert np.allclose(got, want, atol=1e-13)


def test_growing_mode_offsets_walk_the_period():
    rng = np.random.default_rng(0)
    mats = tuple(random_connected_matrix(rng, 4) for _ in range(3))
    sched = GraphSchedule(mats, 1)
    mode = StepsMode.growing()
    # epoch 2 starts after 1+2=3 consumed steps and multiplies A(5)A(4)A(3)
    got = consensus_weights_for_epoch(sched, 2, mode)
    want = mats[5 % 3].weights @ mats[4 % 3].weights @ mats[3 % 3].weights
    assert np.allclose(got, want, atol=1e-14)
    assert mode.steps_before_epoch(2) == 3
    assert StepsMode.fixed(4).steps_before_epoch(3) == 12


def test_steps_mode_offsets_do_not_drift():
    # each epoch starts where the previous one stopped: the closed-form
    # offsets never skip or repeat a communication step
    for mode in (StepsMode.growing(), StepsMode.fixed(3)):
        assert mode.steps_before_epoch(0) == 0
        for t in range(50):
            assert mode.steps_before_epoch(t + 1) == (
                mode.steps_before_epoch(t) + mode.factors_for_epoch(t)
            )


def test_memoized_product_matches_naive():
    rng = np.random.default_rng(2)
    mats = tuple(random_connected_matrix(rng, 6) for _ in range(3))
    sched = GraphSchedule(mats, 1)
    cases = [(0, 1), (1, 2), (2, 7), (5, 13), (0, 40)]
    # a start in every phase, lengths on both sides of powers of two
    cases += [(start, count) for start in (3, 7, 11)
              for count in (1, 2, 3, 7, 8, 9, 63, 64, 65, 1000)]
    for start, count in cases:
        got = sched.transition_product(start, count)
        naive = mats[start % 3].weights
        for k in range(start + 1, start + count):
            naive = mats[k % 3].weights @ naive
        assert np.allclose(got, naive, atol=1e-12)


def _block_at_a_time_product(sched, start, count):
    # the product loop that chained the blocks before they were a list
    phase, product = start % sched.period, None
    for k in range(count.bit_length()):
        if count >> k & 1:
            block = sched._block(phase, k)
            product = block if product is None else block @ product
            phase = (phase + (1 << k)) % sched.period
    return product


@pytest.mark.parametrize("period", [1, 2, 3, 4])
def test_mixing_through_the_blocks_is_mixing_through_the_weights(period):
    rng = np.random.default_rng(40 + period)
    m, runs, d = 6, 3, 4
    # row stochastic but not symmetric, so the order of the factors shows
    rows = rng.random((period, m, m)) * (rng.random((period, m, m)) < 0.6) + np.eye(m)
    sched = GraphSchedule(
        tuple(MixingMatrix(r / r.sum(axis=1, keepdims=True), 0.0) for r in rows), period)
    # growing epochs take 1-70 steps, fixed ones 1-70 from a few offsets
    epochs = [(StepsMode.growing(), t) for t in range(70)]
    epochs += [(StepsMode.fixed(k), t) for k in range(1, 71) for t in (0, 1, 5)]
    for mode, t in epochs:
        count = mode.factors_for_epoch(t)
        state = rng.uniform(-1.0, 1.0, (runs, m, d))
        weights = consensus_weights_for_epoch(sched, t, mode)
        assert np.array_equal(
            weights, _block_at_a_time_product(sched, mode.steps_before_epoch(t), count))
        mixed = mix(epoch_blocks(sched, t, mode), state)
        assert np.abs(mixed - weights @ state).max() <= 1e-14, (mode, t)
        if count & (count - 1) == 0:  # one block
            assert np.array_equal(mixed, weights @ state)
        # and both agree with applying the matrices one step at a time
        naive = state
        for k in range(mode.steps_before_epoch(t), mode.steps_before_epoch(t) + count):
            naive = sched.matrices[k % period].weights @ naive
        assert np.abs(mixed - naive).max() <= 1e-13


def test_product_memo_is_logarithmic_in_horizon():
    rng = np.random.default_rng(3)
    sched = GraphSchedule(tuple(random_connected_matrix(rng, 4) for _ in range(3)), 1)
    mode = StepsMode.growing()
    for t in range(2000):
        consensus_weights_for_epoch(sched, t, mode)
    # period 3 times floor(log2 2000) + 1 = 11 block lengths
    assert len(sched._products) <= 3 * 11


def test_product_memo_is_not_a_constructor_argument():
    mat = ring_matrix(4)
    with pytest.raises(TypeError):
        GraphSchedule((mat,), 1, {})


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(2, 10),
    period=st.integers(1, 3),
    t=st.integers(0, 6),
    fixed_k=st.integers(1, 5),
    seed=st.integers(0, 10_000),
)
def test_products_stay_doubly_stochastic(m, period, t, fixed_k, seed):
    rng = np.random.default_rng(seed)
    mats = tuple(random_connected_matrix(rng, m) for _ in range(period))
    sched = GraphSchedule(mats, period)
    for mode in (StepsMode.growing(), StepsMode.fixed(fixed_k)):
        w = consensus_weights_for_epoch(sched, t, mode)
        assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-10
        assert np.abs(w.sum(axis=0) - 1.0).max() <= 1e-10
        assert w.min() >= 0.0 and w.max() <= 1.0


def test_uniformity_gap_shrinks_with_more_factors():
    mat = metropolis_weights({(i, i + 1) for i in range(5)}, 6, 0.05)  # path
    sched = GraphSchedule((mat,), 1)
    dev = lambda k: np.abs(sched.transition_product(0, k) - 1 / 6).max()
    assert dev(100) < dev(10)
    assert dev(1000) < 1e-9


def test_one_factor_weights_are_the_scheduled_matrix():
    rng = np.random.default_rng(4)
    mats = tuple(random_connected_matrix(rng, 4) for _ in range(3))
    sched = GraphSchedule(mats, 1)
    for t in range(7):
        w = consensus_weights_for_epoch(sched, t, StepsMode.fixed(1))
        assert w is mats[t % 3].weights
        assert not w.flags.writeable
