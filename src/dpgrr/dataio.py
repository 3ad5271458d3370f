"""Sparse-text dataset ingestion, agent partitioning, synthetic problems.

A sample is a dense feature row and its label from parsing on.
Partitioning and synthesis both return a problem's packed arrays:
``features`` ``(m, n, d)`` and ``labels`` ``(m, n)``, agent-major.

The text format is the usual sparse one: each line is
``label idx:val idx:val ...`` with 1-based feature indices; ``#`` starts
a comment and blank lines are skipped.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParseError",
    "LabelError",
    "TooFewSamples",
    "parse_libsvm",
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


def parse_libsvm(source, classification: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Parse sparse-text samples into dense ``(features (N, d), labels (N,))``.

    Row k is line k's sample, zero outside its listed indices.  The
    dimension d is the largest feature index seen (no header needed).  In
    classification mode labels must be +-1 ("+1", "1", "-1" all accepted);
    otherwise any finite real target passes through.  Every malformed line
    raises ``ParseError`` naming its line number.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    rows: list[tuple[list[int], list[float]]] = []
    labels: list[float] = []
    for line_no, raw in enumerate(source, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(line_no, f"bad label token {tokens[0]!r}") from None
        if not math.isfinite(label):
            raise ParseError(line_no, f"label {tokens[0]!r} is not finite")
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
            if not math.isfinite(val):
                raise ParseError(line_no, f"feature value {token!r} is not finite")
            indices.append(idx - 1)
            values.append(val)
        if len(set(indices)) != len(indices):
            raise ParseError(line_no, "duplicate feature index")
        rows.append((indices, values))
        labels.append(label)
    dim = max((max(idx) + 1 for idx, _ in rows if idx), default=0)
    features = np.zeros((len(rows), dim))
    for row, (idx, val) in zip(features, rows):
        row[idx] = val
    return features, np.array(labels, dtype=float)


@dataclass(frozen=True)
class Partition:
    """How the global sample list was split: equal shares, remainder dropped."""

    m: int
    n: int
    strategy: str
    dropped: int


def partition(
    features: np.ndarray,
    labels: np.ndarray,
    m: int,
    strategy: str = "round_robin",
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray, Partition]:
    """Split ``N`` rows into m equal shares of n = floor(N / m), packed.

    ``features`` ``(N, d)`` and ``labels`` ``(N,)`` in, ``(features (m, n, d),
    labels (m, n), partition)`` out.  Over the kept order, round-robin gives
    agent j every m-th row from row j, contiguous the j-th block of n rows.
    An optional seeded pre-shuffle decorrelates file order from agent
    assignment (sorted-by-label files would otherwise give every agent a
    single class).  The N - m*n leftover rows are dropped; ``partition``
    reports the count.
    """
    if m < 1:
        raise ValueError("need at least one agent")
    if strategy not in ("round_robin", "contiguous"):
        raise ValueError(f"unknown strategy {strategy!r}")
    total = len(labels)
    if total < m:
        raise TooFewSamples(f"{total} samples cannot cover {m} agents")
    order = np.arange(total)
    if seed is not None:
        order = np.random.default_rng(seed).permutation(total)
    n = total // m
    kept = order[: m * n]
    rows = kept.reshape(n, m).T if strategy == "round_robin" else kept.reshape(m, n)
    return features[rows], labels[rows], Partition(m, n, strategy, total - m * n)


def synthesize_classification(
    m: int, n: int, d: int, separation: float = 5.0, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded linear-classifier ``(features, labels)``: unit-ball rows, noisy margins.

    Labels are the sign of the margin against a hidden weight vector plus
    Gaussian noise of scale 1/separation (> 0); infinite separation gives a
    perfectly separable set.  Identical seeds give identical arrays.
    """
    if min(m, n, d) < 1:
        raise ValueError("m, n, d must all be >= 1")
    if not separation > 0.0:
        raise ValueError(f"separation must be > 0 (inf allowed), got {separation}")
    rng = np.random.default_rng(seed)
    hidden = rng.normal(size=d)
    noisy = separation != np.inf
    # sample k's d normals, then its noise normal if any: one row each, in
    # the generator's order, so the block holds the per-sample draws
    draws = rng.normal(size=(m * n, d + noisy))
    gs = draws[:, :d]
    # one dot per row: a batched norm or matvec would sum in another order
    norms = np.sqrt([g.dot(g) for g in gs])
    features = gs / np.maximum(1.0, norms)[:, None]
    margins = np.array([a @ hidden for a in features])
    if noisy:
        margins += (1.0 / separation) * draws[:, d]
    labels = np.where(margins >= 0.0, 1.0, -1.0)
    return features.reshape(m, n, d), labels.reshape(m, n)
