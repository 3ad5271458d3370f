import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpgrr.sampling import (
    BadK,
    Mode,
    SamplingSchedule,
    epoch_indices,
    _stream,
    prefix_average_stats,
)


def test_single_sample_all_modes():
    for mode in Mode:
        sch = SamplingSchedule(mode, 1, 99, 0)
        for t in (0, 3, 10):
            assert list(epoch_indices(sch, t)) == [0]


def test_ig_reuses_one_permutation():
    sch = SamplingSchedule(Mode.IG, 4, 7, 2)
    first = epoch_indices(sch, 0)
    assert sorted(first) == [0, 1, 2, 3]
    assert np.array_equal(first, epoch_indices(sch, 7))
    assert np.array_equal(first, epoch_indices(sch, 123))
    assert tuple(first) == sch.fixed_permutation


def test_fixed_permutation_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        SamplingSchedule(Mode.IG, 3, 0, fixed_permutation=(0, 0, 5))
    with pytest.raises(TypeError):
        SamplingSchedule(Mode.RR, 3, 0, 0, (2, 1, 0))
    # the IG order is still the first permutation of the (seed, agent) stream
    sch = SamplingSchedule(Mode.IG, 6, 11, 2)
    assert sch.fixed_permutation == (1, 4, 2, 3, 0, 5)
    assert np.array_equal(epoch_indices(sch, 5), _stream(11, 2, 0).permutation(6))
    assert SamplingSchedule(Mode.RR, 3, 0).fixed_permutation is None


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12),
    seed=st.integers(0, 2**62),
    agent=st.integers(0, 20),
    t=st.integers(0, 1000),
)
def test_rr_epoch_is_permutation(n, seed, agent, t):
    sch = SamplingSchedule(Mode.RR, n, seed, agent)
    assert sorted(epoch_indices(sch, t)) == list(range(n))


@settings(max_examples=40, deadline=None)
@given(
    mode=st.sampled_from(list(Mode)),
    n=st.integers(1, 9),
    seed=st.integers(0, 2**62),
    agent=st.integers(0, 5),
    t=st.integers(0, 500),
)
def test_replay_is_bit_exact(mode, n, seed, agent, t):
    a = epoch_indices(SamplingSchedule(mode, n, seed, agent), t)
    b = epoch_indices(SamplingSchedule(mode, n, seed, agent), t)
    assert np.array_equal(a, b)


def test_streams_differ_across_keys():
    base = SamplingSchedule(Mode.RR, 30, 5, 0)
    other_agent = SamplingSchedule(Mode.RR, 30, 5, 1)
    other_seed = SamplingSchedule(Mode.RR, 30, 6, 0)
    p = epoch_indices(base, 0)
    assert not np.array_equal(p, epoch_indices(other_agent, 0))
    assert not np.array_equal(p, epoch_indices(other_seed, 0))
    assert not np.array_equal(p, epoch_indices(base, 1))


def test_sg_draws_are_in_range_and_vary():
    sch = SamplingSchedule(Mode.SG, 6, 11, 0)
    draws = np.concatenate([epoch_indices(sch, t) for t in range(200)])
    assert draws.min() >= 0 and draws.max() < 6
    # with replacement: some epoch must repeat an index
    assert any(
        len(set(epoch_indices(sch, t))) < 6 for t in range(50)
    )


def test_negative_epoch_rejected():
    with pytest.raises(ValueError):
        epoch_indices(SamplingSchedule(Mode.RR, 3, 0, 0), -1)


def test_rr_permutation_frequencies_uniform():
    # 120 000 epochs over n=5: each of the 120 permutations within +-15%
    sch = SamplingSchedule(Mode.RR, 5, 12345, 0)
    counts: dict[tuple, int] = {}
    for t in range(120_000):
        key = tuple(epoch_indices(sch, t))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 120
    expected = 120_000 / 120
    for c in counts.values():
        assert abs(c - expected) / expected <= 0.15


def _fresh_draw(mode: Mode, n: int, seed: int, agent: int, t: int) -> np.ndarray:
    """What ``epoch_indices`` gives from a generator built for this one draw."""
    if mode is Mode.IG:
        return _stream(seed, agent, 0).permutation(n)
    if mode is Mode.RR:
        return _stream(seed, agent, t).permutation(n)
    return _stream(seed, agent, t).integers(0, n, size=n, dtype=np.int64)


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("n", [1, 2, 7, 20])
def test_rewound_stream_matches_fresh_stream(mode, n):
    epochs = (3, 0, 9, 3, 250, 2**40, 1, 3)
    seed, agent = 2**40 + 17, 4
    sch = SamplingSchedule(mode, n, seed, agent)
    twin = SamplingSchedule(mode, n, seed, agent)
    for t in epochs:
        got = epoch_indices(sch, t)
        assert got.dtype == np.int64
        assert np.array_equal(got, _fresh_draw(mode, n, seed, agent, t))
    # two schedules on one key, drawn interleaved, do not disturb each other
    for t, u in zip(epochs, reversed(epochs)):
        assert np.array_equal(epoch_indices(sch, t), _fresh_draw(mode, n, seed, agent, t))
        assert np.array_equal(epoch_indices(twin, u), _fresh_draw(mode, n, seed, agent, u))


def test_drawing_leaves_value_semantics_alone():
    for mode in Mode:
        drawn = SamplingSchedule(mode, 5, 3, 1)
        epoch_indices(drawn, 7)
        fresh = SamplingSchedule(mode, 5, 3, 1)
        assert drawn == fresh and hash(drawn) == hash(fresh)
        assert repr(drawn) == repr(fresh)
        assert drawn != SamplingSchedule(mode, 5, 3, 2)


def test_prefix_stats_k_equals_n():
    vecs = [np.array([1.0, 2.0]), np.array([3.0, -1.0]), np.array([0.0, 0.0])]
    mean, msd = prefix_average_stats(vecs, k=3)
    assert np.allclose(mean, np.mean(vecs, axis=0), atol=1e-15)
    assert msd == pytest.approx(0.0, abs=1e-15)


def test_prefix_stats_identical_vectors():
    vecs = [np.array([2.0, 2.0])] * 5
    for k in range(1, 6):
        _, msd = prefix_average_stats(vecs, k)
        assert msd == pytest.approx(0.0, abs=1e-15)


def test_prefix_stats_frozen_example():
    # n=4 scalars {0,1,2,3}, k=2: variance 1.25, formula (4-2)/(2*3)*1.25
    mean, msd = prefix_average_stats([0.0, 1.0, 2.0, 3.0], k=2)
    assert mean[0] == pytest.approx(1.5, abs=1e-12)
    assert msd == pytest.approx(1.25 * 2.0 / 6.0, abs=1e-12)


def test_prefix_stats_bad_k():
    with pytest.raises(BadK):
        prefix_average_stats([0.0, 1.0], k=0)
    with pytest.raises(BadK):
        prefix_average_stats([0.0, 1.0], k=3)
    with pytest.raises(ValueError):
        prefix_average_stats([0.0], k=1)


def exhaustive_oracle(vecs: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """Brute-force enumeration, written independently of the module."""
    n = vecs.shape[0]
    center = vecs.mean(axis=0)
    avgs = [
        vecs[list(pref)].mean(axis=0) for pref in itertools.permutations(range(n), k)
    ]
    avgs = np.stack(avgs)
    return avgs.mean(axis=0), float(
        np.mean(np.sum((avgs - center) ** 2, axis=1))
    )


def test_exhaustive_matches_closed_form_small():
    rng = np.random.default_rng(4)
    for n in (2, 4, 6):
        vecs = rng.normal(size=(n, 3))
        sigma2 = float(np.mean(np.sum((vecs - vecs.mean(0)) ** 2, axis=1)))
        for k in range(1, n + 1):
            mean, msd = prefix_average_stats(list(vecs), k)
            o_mean, o_msd = exhaustive_oracle(vecs, k)
            assert np.allclose(mean, o_mean, atol=1e-13)
            assert msd == pytest.approx(o_msd, abs=1e-13)
            want = (n - k) / (k * (n - 1)) * sigma2
            assert msd == pytest.approx(want, abs=1e-12)
            assert np.allclose(mean, vecs.mean(axis=0), atol=1e-12)


def test_monte_carlo_branch_approaches_closed_form():
    rng = np.random.default_rng(8)
    vecs = rng.normal(size=(9, 2))  # n > 6 forces the sampled branch
    sigma2 = float(np.mean(np.sum((vecs - vecs.mean(0)) ** 2, axis=1)))
    mean, msd = prefix_average_stats(list(vecs), k=3, trials=60_000, seed=1)
    want = (9 - 3) / (3 * 8) * sigma2
    assert np.allclose(mean, vecs.mean(axis=0), atol=0.05)
    assert msd == pytest.approx(want, rel=0.05)
