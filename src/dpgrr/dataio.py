"""Sparse-text dataset ingestion, agent partitioning, synthetic problems.

Partitioning and synthesis both return a problem's packed arrays:
``features`` ``(m, n, d)`` and ``labels`` ``(m, n)``, agent-major.

The text format is the usual sparse one: each line is
``label idx:val idx:val ...`` with 1-based feature indices; ``#`` starts
a comment and blank lines are skipped.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .objectives import Sample

__all__ = [
    "ParseError",
    "LabelError",
    "TooFewSamples",
    "parse_libsvm",
    "format_libsvm",
    "Partition",
    "partition",
    "synthesize_classification",
]


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class LabelError(ParseError):
    pass


class TooFewSamples(ValueError):
    """Fewer samples than agents; the equal split is impossible."""


def parse_libsvm(source, classification: bool = True) -> tuple[list[Sample], int]:
    """Parse sparse-text samples; returns (samples, inferred dimension).

    The dimension is the largest feature index seen (no header needed).
    In classification mode labels must be +-1 ("+1", "1", "-1" all
    accepted); otherwise any real target passes through.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    samples: list[Sample] = []
    dim = 0
    for line_no, raw in enumerate(source, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(line_no, f"bad label token {tokens[0]!r}") from None
        if classification and label not in (-1.0, 1.0):
            raise LabelError(line_no, f"label {tokens[0]!r} is not +1/-1")
        indices = []
        values = []
        for token in tokens[1:]:
            head, sep, tail = token.partition(":")
            if not sep:
                raise ParseError(line_no, f"feature token {token!r} lacks ':'")
            try:
                idx = int(head)
                val = float(tail)
            except ValueError:
                raise ParseError(line_no, f"bad feature token {token!r}") from None
            if idx < 1:
                raise ParseError(line_no, f"feature index {idx} is not 1-based")
            indices.append(idx - 1)
            values.append(val)
        if len(set(indices)) != len(indices):
            raise ParseError(line_no, "duplicate feature index")
        if indices:
            dim = max(dim, max(indices) + 1)
        samples.append(Sample(np.array(indices, dtype=np.int64),
                              np.array(values), label))
    return samples, dim


def format_libsvm(samples) -> str:
    """Inverse of ``parse_libsvm`` up to 17-significant-digit formatting."""
    lines = []
    for s in samples:
        feats = " ".join(
            f"{int(i) + 1}:{v:.17g}" for i, v in zip(s.indices, s.values)
        )
        head = f"{s.label:.17g}"
        lines.append(f"{head} {feats}".rstrip())
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class Partition:
    """How the global sample list was split: equal shares, remainder dropped."""

    m: int
    n: int
    strategy: str
    dropped: int


def partition(
    samples,
    dim: int,
    m: int,
    strategy: str = "round_robin",
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray, Partition]:
    """Split samples into m equal shares of n = floor(N / m), packed.

    Returns ``(features, labels, partition)``, agent j's i-th sample being
    the dense row ``features[j, i]`` of width ``dim``.  An optional seeded
    pre-shuffle decorrelates file order from agent assignment (sorted-by-label
    files would otherwise give every agent a single class).  The N - m*n
    leftover samples are dropped; ``partition`` reports the count.
    """
    samples = list(samples)
    if m < 1:
        raise ValueError("need at least one agent")
    if strategy not in ("round_robin", "contiguous"):
        raise ValueError(f"unknown strategy {strategy!r}")
    total = len(samples)
    if total < m:
        raise TooFewSamples(f"{total} samples cannot cover {m} agents")
    order = np.arange(total)
    if seed is not None:
        order = np.random.default_rng(seed).permutation(total)
    n = total // m
    kept = order[: m * n]
    features = np.empty((m, n, dim))
    labels = np.empty((m, n))
    for j in range(m):
        chosen = kept[j::m] if strategy == "round_robin" else kept[j * n:(j + 1) * n]
        for i, k in enumerate(chosen):
            sample = samples[int(k)]
            features[j, i], labels[j, i] = sample.dense(dim), sample.label
    return features, labels, Partition(m, n, strategy, total - m * n)


def synthesize_classification(
    m: int, n: int, d: int, separation: float = 5.0, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded linear-classifier ``(features, labels)``: unit-ball rows, noisy margins.

    Labels are the sign of the margin against a hidden weight vector plus
    Gaussian noise of scale 1/separation; infinite separation gives a
    perfectly separable set.  Identical seeds give identical arrays.
    """
    if min(m, n, d) < 1:
        raise ValueError("m, n, d must all be >= 1")
    rng = np.random.default_rng(seed)
    hidden = rng.normal(size=d)
    noise_scale = 0.0 if separation == np.inf else 1.0 / separation
    features = np.empty((m, n, d))
    labels = np.empty((m, n))
    for j in range(m):
        for i in range(n):
            g = rng.normal(size=d)
            a = g / max(1.0, float(np.linalg.norm(g)))
            margin = float(a @ hidden)
            if noise_scale > 0.0:
                margin += noise_scale * rng.normal()
            features[j, i] = a
            labels[j, i] = 1.0 if margin >= 0.0 else -1.0
    return features, labels
