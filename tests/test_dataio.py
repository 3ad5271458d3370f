import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpgrr.config import build_problem, load_config
from dpgrr.dataio import (
    LabelError,
    ParseError,
    TooFewSamples,
    format_libsvm,
    parse_libsvm,
    partition,
    synthesize_classification,
)


def test_parse_basic_line():
    features, labels = parse_libsvm("+1 1:0.5 3:2\n")
    assert features.tolist() == [[0.5, 0.0, 2.0]]
    assert labels.tolist() == [1.0]


def test_parse_empty_input():
    features, labels = parse_libsvm("")
    assert features.shape == (0, 0) and labels.shape == (0,)


def test_parse_skips_comments_and_blanks():
    text = "# header comment\n\n-1 2:1.5  # trailing note\n   \n+1 1:1\n"
    features, labels = parse_libsvm(text)
    assert labels.tolist() == [-1.0, 1.0]
    assert features.tolist() == [[0.0, 1.5], [1.0, 0.0]]


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_libsvm("+1 1:0.5\n-1 oops\n")
    assert err.value.line_no == 2
    with pytest.raises(ParseError) as err:
        parse_libsvm("+1 0:1\n")  # not 1-based
    assert err.value.line_no == 1
    with pytest.raises(ParseError) as err:
        parse_libsvm("+1 1:1\n+1 2:1 -1:2\n")  # negative index
    assert err.value.line_no == 2
    with pytest.raises(ParseError) as err:
        parse_libsvm("+1 1:1\n+1 1:1 1:2\n")  # duplicate index
    assert err.value.line_no == 2 and "duplicate" in str(err.value)


def test_parse_rejects_non_finite_values():
    for text, classification in (
        ("+1 1:1\n+1 1:nan\n", True),
        ("+1 1:1\n+1 2:1 1:-inf\n", True),
        ("+1 1:1\nnan 1:1\n", True),
        ("2.5 1:1\nnan 1:1\n", False),
        ("2.5 1:1\ninf 1:1\n", False),
    ):
        with pytest.raises(ParseError, match="^line 2: ") as err:
            parse_libsvm(text, classification=classification)
        assert err.value.line_no == 2, text


def test_label_error_in_classification_mode():
    with pytest.raises(LabelError) as err:
        parse_libsvm("2 1:1\n")
    assert err.value.line_no == 1
    # regression mode accepts real targets
    _, labels = parse_libsvm("2.5 1:1\n", classification=False)
    assert labels.tolist() == [2.5]


def test_bad_label_token():
    with pytest.raises(ParseError):
        parse_libsvm("abc 1:1\n")


def test_fixture_file_first_lines(configs_dir):
    # hand-read once from configs/data/a9a_subset.libsvm and frozen here
    with open(configs_dir / "data" / "a9a_subset.libsvm") as fh:
        features, labels = parse_libsvm(fh)
    assert features.shape == (42, 123) and labels.shape == (42,)
    assert labels[:3].tolist() == [-1.0, -1.0, 1.0]
    assert [np.count_nonzero(a) for a in features[:3]] == [11, 12, 11]
    assert np.flatnonzero(features[0])[:3].tolist() == [18, 20, 28]  # 0-based


# sha256 of ``features.tobytes() + labels.tobytes()`` of the shipped
# text-data problems: a change to parsing or partitioning that moves one
# byte moves every CSV and manifest of these configs
PACKED_DIGESTS = {
    "a9a_subset": "6ed483d72adbe142ef7ed972c7d81b4b396be629087d76c909675857c2affa55",
    "toy_least_squares": "df05c72cdcfe99ccd882da2c3bc3baa09f168f62109ccac2298e4a99a086828f",
}


@pytest.mark.parametrize("name", sorted(PACKED_DIGESTS))
def test_packed_arrays_of_shipped_text_configs_are_pinned(configs_dir, name):
    problem, _ = build_problem(load_config(configs_dir / f"{name}.yaml"))
    blob = problem.features.tobytes() + problem.labels.tobytes()
    assert hashlib.sha256(blob).hexdigest() == PACKED_DIGESTS[name]


def test_roundtrip_preserves_samples():
    rng = np.random.default_rng(0)
    features = np.zeros((25, 50))
    for row in features:
        k = int(rng.integers(1, 8))
        row[rng.choice(50, size=k, replace=False)] = rng.normal(size=k)
    features[0, 49] = 1.5  # so that no trailing column is all zero
    labels = np.where(rng.random(25) < 0.5, 1.0, -1.0)
    parsed, parsed_labels = parse_libsvm(format_libsvm(features, labels))
    assert np.array_equal(parsed, features)  # 17 digits round-trips floats
    assert np.array_equal(parsed_labels, labels)


def unit_rows(n):
    return np.ones((n, 1)), np.array([float(2 * (i % 2) - 1) for i in range(n)])


def numbered_rows(n):
    """Row i is ``[i]`` with label i, so each row can be traced."""
    return np.arange(n, dtype=float)[:, None], np.arange(n, dtype=float)


def test_partition_each_agent_one_sample():
    features, labels, info = partition(*unit_rows(10), 10)
    assert info.dropped == 0 and info.n == 1
    assert features.shape == (10, 1, 1) and labels.shape == (10, 1)
    assert labels[:, 0].tolist() == [-1.0, 1.0] * 5


def test_partition_contiguous_blocks_and_drop():
    features, _, info = partition(*numbered_rows(10), 3, strategy="contiguous")
    assert info.dropped == 1
    assert features[..., 0].tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0, 8.0]]


def test_partition_round_robin_unshuffled():
    features, _, _ = partition(*numbered_rows(6), 2, strategy="round_robin")
    assert features[..., 0].tolist() == [[0.0, 2.0, 4.0], [1.0, 3.0, 5.0]]


def test_partition_scatters_sparse_samples_into_dense_rows():
    features, labels, _ = partition(*parse_libsvm("-1 4:2 1:1\n+1\n"), 1)
    assert features.tolist() == [[[1.0, 0.0, 0.0, 2.0], [0.0, 0.0, 0.0, 0.0]]]
    assert labels.tolist() == [[-1.0, 1.0]]


def test_partition_seeded_replay_is_deterministic():
    a, _, info = partition(*numbered_rows(17), 4, seed=9)
    b, _, _ = partition(*numbered_rows(17), 4, seed=9)
    assert info.dropped == 1
    assert np.array_equal(a, b)
    c, _, _ = partition(*numbered_rows(17), 4, seed=10)
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
            partition(*unit_rows(total), m, strategy, seed)
        return
    features, labels, info = partition(*numbered_rows(total), m, strategy, seed)
    n = total // m
    assert info.n == n and info.dropped == total - m * n
    assert features.shape == (m, n, 1) and labels.shape == (m, n)
    assigned = features.ravel().tolist()
    assert len(assigned) == len(set(assigned)) == m * n  # no duplicates
    assert np.array_equal(features[..., 0], labels)  # labels travel with rows


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
