import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpgrr import sampling
from dpgrr.sampling import Mode, fill_indices
from oracles import BadK, epoch_indices, prefix_average_stats


def test_single_sample_all_modes():
    for mode in Mode:
        for t in (0, 3, 10):
            block = epoch_indices(mode, 99, t, 3, 1)
            assert block.dtype == np.int64
            assert block.tolist() == [[0], [0], [0]]


def test_ig_reuses_one_permutation():
    first = epoch_indices(Mode.IG, 7, 0, 3, 4)
    for row in first:
        assert sorted(row) == [0, 1, 2, 3]
    # the fixed order is the reshuffled block of epoch 0
    assert np.array_equal(epoch_indices(Mode.RR, 7, 0, 3, 4), first)
    for t in (7, 123):
        assert np.array_equal(epoch_indices(Mode.IG, 7, t, 3, 4), first)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 6),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**64 - 1),
    t=st.integers(0, 1000),
)
def test_rr_epoch_is_permutation(m, n, seed, t):
    block = epoch_indices(Mode.RR, seed, t, m, n)
    assert block.shape == (m, n)
    for row in block:
        assert sorted(row) == list(range(n))


@settings(max_examples=40, deadline=None)
@given(
    mode=st.sampled_from(list(Mode)),
    m=st.integers(1, 5),
    n=st.integers(1, 9),
    seed=st.integers(0, 2**62),
    t=st.integers(0, 500),
)
def test_replay_is_bit_exact(mode, m, n, seed, t):
    a = epoch_indices(mode, seed, t, m, n)
    b = epoch_indices(mode, seed, t, m, n)
    assert np.array_equal(a, b)


def _fresh_block(mode, seed, t, m, n):
    """The block drawn from a newly built generator at the documented key and counter."""
    counter = np.array([0, 0, 0, 0 if mode is Mode.IG else t], dtype=np.uint64)
    key = np.array([seed, 0], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(counter=counter, key=key))
    if mode is Mode.SG:
        return rng.integers(0, n, size=(m, n), dtype=np.int64)
    return np.argsort(rng.random((m, n)), axis=1, kind="stable")


def test_interleaved_draws_match_a_fresh_generator():
    # draws of mixed modes, seeds and epochs, with odd-sized SG blocks that
    # leave half a 64-bit word behind: no block may depend on the one before
    picks = np.random.default_rng(11)
    seeds, epochs = (0, 1, 7, 2**63 + 5, 2**64 - 1), (0, 1, 2, 199, 2**40)
    for _ in range(300):
        mode = list(Mode)[int(picks.integers(0, 3))]
        seed, t = seeds[int(picks.integers(0, 5))], epochs[int(picks.integers(0, 5))]
        m, n = int(picks.integers(1, 8)), int(picks.integers(1, 14))
        block = epoch_indices(mode, seed, t, m, n)
        assert np.array_equal(block, _fresh_block(mode, seed, t, m, n)), (mode, seed, t, m, n)


@pytest.mark.parametrize("t0", [1, 37, 2**40])
def test_a_stretch_of_epochs_gives_each_epoch_its_own_draw(t0):
    # RR, SG and IG rows drawn for 6 epochs at once; row 4 is no run's
    # and keeps what it held
    draws = [(0, Mode.RR, 5), (1, Mode.SG, 5), (2, Mode.IG, 8), (3, Mode.SG, 2**64 - 1),
             (5, Mode.RR, 0)]
    out = np.full((6, 6, 3, 7), -1, dtype=np.int64)
    fill_indices(out, draws, t0)
    for e in range(6):
        for row, mode, seed in draws:
            assert np.array_equal(out[e, row], epoch_indices(mode, seed, t0 + e, 3, 7))
            assert np.array_equal(out[e, row], _fresh_block(mode, seed, t0 + e, 3, 7))
    assert (out[:, 4] == -1).all()


SG_SEEDS = (0, 1, 2**63 + 5, 2**64 - 1)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 2000])
@pytest.mark.parametrize("m", [1, 3, 4])
@pytest.mark.parametrize("t0", [0, 5, 2**40])
def test_sg_blocks_have_the_bits_of_integers(m, n, t0):
    # SG blocks formed from raw words, alone and mixed with RR and IG
    # draws; with m n odd the last word's high half goes unused
    alone = [(k, Mode.SG, seed) for k, seed in enumerate(SG_SEEDS)]
    mixed = [(0, Mode.RR, 3), (1, Mode.SG, 2**64 - 1), (2, Mode.IG, 4), (3, Mode.SG, 0),
             (4, Mode.SG, 2**63 + 5), (5, Mode.RR, 2**64 - 1)]
    for draws in (alone, mixed):
        out = np.full((3, len(draws), m, n), -1, dtype=np.int64)
        fill_indices(out, draws, t0)
        for e in range(3):
            for row, mode, seed in draws:
                want = _fresh_block(mode, seed, t0 + e, m, n)
                assert np.array_equal(out[e, row], want), (mode, seed, t0 + e)
                assert np.array_equal(out[e, row], epoch_indices(mode, seed, t0 + e, m, n))


class _RawWords:
    """``sampling``'s Philox with every raw word passed through ``edit``."""

    def __init__(self, bit_generator, edit):
        self._bit_generator, self._edit = bit_generator, edit

    @property
    def state(self):
        return self._bit_generator.state

    @state.setter
    def state(self, value):
        self._bit_generator.state = value

    def random_raw(self, size):
        return self._edit(self._bit_generator.random_raw(size))


@pytest.mark.parametrize("n", [3, 7, 20, 2000])
@pytest.mark.parametrize("word", [None, 0, -1], ids=["every_word", "first_word", "last_word"])
def test_a_rejected_word_redraws_its_whole_block_through_integers(monkeypatch, n, word):
    # a 32-bit word of 0 is below Lemire's bound 2**32 mod n whenever n is
    # not a power of two, so numpy would draw again: the whole block must
    # then be the one ``integers`` draws, not the raw block with the
    # rejected index at 0
    def edit(words):
        if word is None:
            words[:] = 0
        else:  # the word's low half, the block's index 2 k
            words[word] &= np.uint64(0xFFFFFFFF00000000)
        return words

    monkeypatch.setattr(sampling, "_BIT_GENERATOR", _RawWords(sampling._BIT_GENERATOR, edit))
    draws = [(0, Mode.SG, 9), (1, Mode.RR, 9), (2, Mode.SG, 2**64 - 1)]
    out = np.empty((2, 3, 3, n), dtype=np.int64)
    fill_indices(out, draws, 11)
    kept_raw_block_differs = False
    for e in range(2):
        for row, mode, seed in draws:
            want = _fresh_block(mode, seed, 11 + e, 3, n)
            assert np.array_equal(out[e, row], want)
            if mode is Mode.SG:
                index = 0 if word == 0 else 2 * ((3 * n - 1) // 2)
                kept_raw_block_differs |= want.flat[index] != 0
    # so a fill that kept the raw block would have failed above
    assert kept_raw_block_differs


def test_threads_sharing_the_generator_draw_their_own_blocks():
    # more threads than cores, switching often: a state set by one thread
    # must never feed another thread's draw
    cases = [(mode, seed, t) for mode in Mode for seed in (1, 2) for t in range(40)]
    want = {case: _fresh_block(*case, 3, 11) for case in cases}
    bad = []

    def worker(offset):
        for case in cases[offset:] + cases[:offset]:
            if not np.array_equal(epoch_indices(*case, 3, 11), want[case]):
                bad.append(case)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k * 30,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert bad == []


@settings(max_examples=40, deadline=None)
@given(
    mode=st.sampled_from(list(Mode)),
    j=st.integers(0, 6),
    extra=st.integers(1, 5),
    n=st.integers(1, 9),
    seed=st.integers(0, 2**62),
    t=st.integers(0, 500),
)
def test_row_does_not_depend_on_agent_count(mode, j, extra, n, seed, t):
    # a (1, n) block gives every agent one order, and the one-agent oracle
    # matches row 0: both rely on row j ignoring m
    row = epoch_indices(mode, seed, t, j + 1, n)[j]
    assert np.array_equal(epoch_indices(mode, seed, t, j + extra, n)[j], row)


def test_streams_differ_across_keys():
    base = epoch_indices(Mode.RR, 5, 0, 2, 30)
    assert not np.array_equal(base[0], base[1])
    assert not np.array_equal(base, epoch_indices(Mode.RR, 6, 0, 2, 30))
    assert not np.array_equal(base, epoch_indices(Mode.RR, 5, 1, 2, 30))


def test_sg_draws_are_in_range_and_vary():
    blocks = [epoch_indices(Mode.SG, 11, t, 2, 6) for t in range(200)]
    draws = np.concatenate(blocks)
    assert draws.min() >= 0 and draws.max() < 6
    # with replacement: some agent's epoch must repeat an index
    assert any(len(set(row)) < 6 for row in draws[:100])


def test_negative_epoch_rejected():
    for mode in Mode:
        with pytest.raises(ValueError):
            epoch_indices(mode, 0, -1, 2, 3)


def test_rr_permutation_frequencies_uniform():
    # 120 000 orders over n=5, 1000 epochs of 120 agents: each of the 120
    # permutations within +-15%
    counts: dict[tuple, int] = {}
    for t in range(1000):
        for row in epoch_indices(Mode.RR, 12345, t, 120, 5).tolist():
            counts[tuple(row)] = counts.get(tuple(row), 0) + 1
    assert len(counts) == 120
    expected = 120_000 / 120
    for c in counts.values():
        assert abs(c - expected) / expected <= 0.15


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
