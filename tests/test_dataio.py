import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpgrr.dataio import (
    LabelError,
    ParseError,
    TooFewSamples,
    format_libsvm,
    parse_libsvm,
    partition,
    synthesize_classification,
)
from dpgrr.objectives import DimensionMismatch, Sample


def test_parse_basic_line():
    samples, dim = parse_libsvm("+1 1:0.5 3:2\n")
    assert dim == 3
    s = samples[0]
    assert s.label == 1.0
    assert list(s.indices) == [0, 2]
    assert list(s.values) == [0.5, 2.0]


def test_parse_empty_input():
    samples, dim = parse_libsvm("")
    assert samples == [] and dim == 0


def test_parse_skips_comments_and_blanks():
    text = "# header comment\n\n-1 2:1.5  # trailing note\n   \n+1 1:1\n"
    samples, dim = parse_libsvm(text)
    assert [s.label for s in samples] == [-1.0, 1.0]
    assert dim == 2


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_libsvm("+1 1:0.5\n-1 oops\n")
    assert err.value.line_no == 2
    with pytest.raises(ParseError) as err:
        parse_libsvm("+1 0:1\n")  # not 1-based
    assert err.value.line_no == 1
    with pytest.raises(ParseError):
        parse_libsvm("+1 1:1 1:2\n")  # duplicate index


def test_label_error_in_classification_mode():
    with pytest.raises(LabelError) as err:
        parse_libsvm("2 1:1\n")
    assert err.value.line_no == 1
    # regression mode accepts real targets
    samples, _ = parse_libsvm("2.5 1:1\n", classification=False)
    assert samples[0].label == 2.5


def test_bad_label_token():
    with pytest.raises(ParseError):
        parse_libsvm("abc 1:1\n")


def test_fixture_file_first_lines(configs_dir):
    # hand-read once from configs/data/a9a_subset.libsvm and frozen here
    with open(configs_dir / "data" / "a9a_subset.libsvm") as fh:
        samples, dim = parse_libsvm(fh)
    assert len(samples) == 42
    assert dim == 123
    assert samples[0].label == -1.0 and samples[0].indices.size == 11
    assert samples[1].label == -1.0 and samples[1].indices.size == 12
    assert samples[2].label == 1.0 and samples[2].indices.size == 11
    assert list(samples[0].indices[:3]) == [18, 20, 28]  # 0-based


def test_roundtrip_preserves_samples():
    rng = np.random.default_rng(0)
    samples = []
    for _ in range(25):
        k = int(rng.integers(1, 8))
        idx = np.sort(rng.choice(50, size=k, replace=False)).astype(np.int64)
        vals = rng.normal(size=k)
        label = 1.0 if rng.random() < 0.5 else -1.0
        samples.append(Sample(idx, vals, label))
    text = format_libsvm(samples)
    parsed, _ = parse_libsvm(text)
    assert len(parsed) == len(samples)
    for a, b in zip(samples, parsed):
        assert a.label == b.label
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.values, b.values)  # 17 digits round-trips floats


def unit_samples(n):
    return [Sample(np.array([0]), np.array([1.0]), float(2 * (i % 2) - 1)) for i in range(n)]


def test_partition_each_agent_one_sample():
    features, labels, info = partition(unit_samples(10), 1, 10)
    assert info.dropped == 0 and info.n == 1
    assert features.shape == (10, 1, 1) and labels.shape == (10, 1)
    assert labels[:, 0].tolist() == [-1.0, 1.0] * 5


def test_partition_contiguous_blocks_and_drop():
    samples = [Sample(np.array([0]), np.array([float(i)]), 1.0) for i in range(10)]
    features, _, info = partition(samples, 1, 3, strategy="contiguous")
    assert info.dropped == 1
    assert features[..., 0].tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0, 8.0]]


def test_partition_round_robin_unshuffled():
    samples = [Sample(np.array([0]), np.array([float(i)]), 1.0) for i in range(6)]
    features, _, _ = partition(samples, 1, 2, strategy="round_robin")
    assert features[..., 0].tolist() == [[0.0, 2.0, 4.0], [1.0, 3.0, 5.0]]


def test_partition_scatters_sparse_samples_into_dense_rows():
    samples = [
        Sample(np.array([3, 0]), np.array([2.0, 1.0]), -1.0),
        Sample(np.array([], dtype=np.int64), np.array([]), 1.0),
    ]
    features, labels, _ = partition(samples, 4, 1)
    assert features.tolist() == [[[1.0, 0.0, 0.0, 2.0], [0.0, 0.0, 0.0, 0.0]]]
    assert labels.tolist() == [[-1.0, 1.0]]
    with pytest.raises(DimensionMismatch):
        partition(samples, 3, 1)


def test_partition_seeded_replay_is_deterministic():
    samples = [Sample(np.array([0]), np.array([float(i)]), 1.0) for i in range(17)]
    a, _, info = partition(samples, 1, 4, seed=9)
    b, _, _ = partition(samples, 1, 4, seed=9)
    assert info.dropped == 1
    assert np.array_equal(a, b)
    c, _, _ = partition(samples, 1, 4, seed=10)
    assert not np.array_equal(a, c)


@settings(max_examples=40, deadline=None)
@given(
    total=st.integers(1, 60),
    m=st.integers(1, 8),
    strategy=st.sampled_from(["round_robin", "contiguous"]),
    seed=st.one_of(st.none(), st.integers(0, 100)),
)
def test_partition_is_a_partition(total, m, strategy, seed):
    if total < m:
        with pytest.raises(TooFewSamples):
            partition(unit_samples(total), 1, m, strategy, seed)
        return
    samples = [Sample(np.array([0]), np.array([float(i)]), 1.0) for i in range(total)]
    features, labels, info = partition(samples, 1, m, strategy, seed)
    n = total // m
    assert info.n == n and info.dropped == total - m * n
    assert features.shape == (m, n, 1) and labels.shape == (m, n)
    assigned = features.ravel().tolist()
    assert len(assigned) == len(set(assigned)) == m * n  # no duplicates


def test_synthesize_deterministic_and_bounded():
    features, labels = synthesize_classification(3, 4, 6, separation=2.0, seed=13)
    again = synthesize_classification(3, 4, 6, separation=2.0, seed=13)
    assert np.array_equal(features, again[0]) and np.array_equal(labels, again[1])
    assert features.shape == (3, 4, 6) and labels.shape == (3, 4)
    assert np.all(np.linalg.norm(features, axis=-1) <= 1.0 + 1e-12)
    assert set(labels.ravel()) <= {-1.0, 1.0}
    other, _ = synthesize_classification(3, 4, 6, separation=2.0, seed=14)
    assert not np.array_equal(features, other)


def test_synthesize_no_noise_is_separable():
    features, labels = synthesize_classification(4, 10, 5, separation=np.inf, seed=3)
    # recover the hidden direction: with no label noise some direction
    # classifies everything; verify via the generator's own stream
    rng = np.random.default_rng(3)
    hidden = rng.normal(size=5)
    assert np.all(labels * (features @ hidden) >= 0.0)
