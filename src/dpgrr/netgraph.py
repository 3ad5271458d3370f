"""Time-varying communication topologies and their mixing algebra.

A schedule is a periodic sequence of symmetric doubly stochastic mixing
matrices.  One optimization epoch consumes a block of consecutive
communication steps; the consensus weights for that epoch are the product
of the block's matrices (latest factor on the left).  In "growing" mode
epoch ``t`` consumes ``t + 1`` steps, in fixed mode every epoch consumes
``K`` steps.

A run of ``count`` steps is split, by the set bits of ``count``, into
memoized blocks of ``2**k`` steps, earliest first (``epoch_blocks``).
There is one chain rule over them, ``mix``: apply each block in turn.
The engine mixes its states through an epoch's blocks without forming
the ``(m, m)`` product; ``consensus_weights_for_epoch`` is the first
block mixed through the rest, so the weights and the mixing agree.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EmptyGraph",
    "EtaViolation",
    "MixingMatrix",
    "metropolis_weights",
    "GraphSchedule",
    "StepsMode",
    "epoch_blocks",
    "consensus_weights_for_epoch",
    "mix",
    "WindowCheck",
    "ValidationReport",
    "validate_schedule",
]

_STOCHASTIC_TOL = 1e-12


class EmptyGraph(ValueError):
    """A graph over zero agents has no mixing matrix."""


class EtaViolation(ValueError):
    """A positive mixing weight fell below the configured floor."""


@dataclass(frozen=True, eq=False)
class MixingMatrix:
    """Dense symmetric doubly stochastic weight matrix with floor ``eta``.

    Construction does not validate; ``issues`` reports violations so that
    schedule validation can collect them instead of aborting.  Compares
    and hashes by value: equal ``eta`` and equal (read-only) weights.
    """

    weights: np.ndarray
    eta: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("mixing matrix must be square")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MixingMatrix):
            return NotImplemented
        return self.eta == other.eta and np.array_equal(self.weights, other.weights)

    def __hash__(self) -> int:
        # + 0.0 maps -0.0 to 0.0, which array_equal treats as equal
        return hash((self.eta, self.weights.shape, (self.weights + 0.0).tobytes()))

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    def edges(self) -> set[tuple[int, int]]:
        """Undirected edges carried by nonzero off-diagonal weights."""
        m = self.size
        return {
            (i, j)
            for i in range(m)
            for j in range(i + 1, m)
            if self.weights[i, j] > 0.0 or self.weights[j, i] > 0.0
        }

    def issues(self) -> list[str]:
        w = self.weights
        out = []
        if np.abs(w.sum(axis=1) - 1.0).max() > _STOCHASTIC_TOL:
            out.append("doubly stochastic: a row sum deviates from 1")
        if np.abs(w.sum(axis=0) - 1.0).max() > _STOCHASTIC_TOL:
            out.append("doubly stochastic: a column sum deviates from 1")
        if np.abs(w - w.T).max() > _STOCHASTIC_TOL:
            out.append("symmetry: matrix is not symmetric")
        if w.min() < 0.0:
            out.append("nonnegativity: negative weight present")
        if np.diag(w).min() < self.eta:
            out.append("eta bound: a diagonal entry is below eta")
        off = w[~np.eye(self.size, dtype=bool)]
        positive = off[off > 0.0]
        if positive.size and positive.min() < self.eta:
            out.append("eta bound: a positive off-diagonal entry is below eta")
        return out


def metropolis_weights(edges, m: int, eta: float) -> MixingMatrix:
    """Symmetric doubly stochastic matrix with max-degree Metropolis weights.

    Edge (i, j) gets weight ``1 / (1 + max(deg_i, deg_j))``; the diagonal
    absorbs the remainder of each row.
    """
    if m == 0:
        raise EmptyGraph("need at least one agent")
    if m < 0:
        raise ValueError("agent count must be nonnegative")
    if not 0.0 < eta <= 1.0 / m:
        raise ValueError(f"eta must lie in (0, 1/m]; got eta={eta} for m={m}")
    edge_set = set()
    for i, j in edges:
        i, j = int(i), int(j)
        if i == j:
            raise ValueError(f"self-loop ({i}, {j}) not allowed")
        if not (0 <= i < m and 0 <= j < m):
            raise ValueError(f"edge ({i}, {j}) out of range for m={m}")
        edge_set.add((min(i, j), max(i, j)))
    degree = [0] * m
    for i, j in edge_set:
        degree[i] += 1
        degree[j] += 1
    w = np.zeros((m, m))
    for i, j in edge_set:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(degree[i], degree[j]))
    for i in range(m):
        w[i, i] = 1.0 - w[i].sum()
    matrix = MixingMatrix(w, eta)
    bad = [issue for issue in matrix.issues() if issue.startswith("eta bound")]
    if bad:
        raise EtaViolation("; ".join(bad))
    return matrix


@dataclass(frozen=True)
class StepsMode:
    """How many communication steps an epoch consumes."""

    kind: str  # "growing" or "fixed"
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("growing", "fixed"):
            raise ValueError(f"unknown steps mode {self.kind!r}")
        if self.kind == "fixed" and (self.k is None or self.k < 1):
            raise ValueError("fixed mode needs k >= 1")

    @classmethod
    def growing(cls) -> "StepsMode":
        return cls("growing")

    @classmethod
    def fixed(cls, k: int) -> "StepsMode":
        return cls("fixed", int(k))

    def factors_for_epoch(self, t: int) -> int:
        """Number of matrices multiplied together for epoch ``t``."""
        return t + 1 if self.kind == "growing" else self.k

    def steps_before_epoch(self, t: int) -> int:
        """Total communication steps consumed by epochs before ``t``."""
        return t * (t + 1) // 2 if self.kind == "growing" else self.k * t


@dataclass(frozen=True)
class GraphSchedule:
    """Periodic sequence of mixing matrices with connectivity window ``window``.

    ``window`` declares that the union graph of any ``window`` consecutive
    matrices must be connected; ``validate_schedule`` checks the claim.
    Immutable after construction and safe to share across threads: only
    blocks of ``2**k`` factors are memoized, on (start phase, k).  A run
    of any length is the blocks of its length's set bits (``blocks``), so
    a ``T``-epoch run caches at most ``period * (floor(log2 T) + 1)``.
    """

    matrices: tuple[MixingMatrix, ...]
    window: int
    _products: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrices", tuple(self.matrices))
        if not self.matrices:
            raise ValueError("schedule needs at least one matrix")
        m = self.matrices[0].size
        if any(mat.size != m for mat in self.matrices):
            raise ValueError("all matrices in a schedule must share one size")
        if self.window < 1:
            raise ValueError("connectivity window must be >= 1")

    @property
    def m(self) -> int:
        return self.matrices[0].size

    @property
    def period(self) -> int:
        return len(self.matrices)

    def blocks(self, start: int, count: int) -> list[np.ndarray]:
        """Memoized blocks of the ``count`` matrices from step ``start``, earliest first.

        One product of ``2**k`` consecutive matrices per set bit k of
        ``count``, lowest bit first, so that applying the blocks in turn
        (``mix``) applies the ``count`` matrices in turn.  Callers must not
        write them.
        """
        if count < 1:
            raise ValueError("need at least one factor")
        out, phase = [], start % self.period
        for k in range(count.bit_length()):
            if count >> k & 1:
                out.append(self._block(phase, k))
                phase = (phase + (1 << k)) % self.period
        return out

    def transition_product(self, start: int, count: int) -> np.ndarray:
        """Product of ``count`` matrices from step ``start``, latest on the left."""
        return _product(self.blocks(start, count))

    def _block(self, phase: int, k: int) -> np.ndarray:
        """Product of the ``2**k`` matrices from ``phase``, memoized."""
        cached = self._products.get((phase, k))
        if cached is not None:
            return cached
        if k == 0:
            result = self.matrices[phase].weights
        else:
            mid = (phase + (1 << (k - 1))) % self.period
            result = self._block(mid, k - 1) @ self._block(phase, k - 1)
        result.setflags(write=False)
        self._products[phase, k] = result
        return result


def mix(blocks: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
    """``x`` mixed through the product of ``blocks``: each block applied in turn.

    ``x`` is an ``(m, ...)`` array or an ``(S, m, d)`` stack of states, each
    of which a block multiplies on its own, so a state's bits do not
    depend on the stack.  This is the one chain rule over blocks.
    """
    for block in blocks:
        x = block @ x
    return x


def _product(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """The blocks' product: the first block mixed through the rest."""
    first, *rest = blocks
    return mix(rest, first)


def epoch_blocks(
    schedule: GraphSchedule, t: int, steps_mode: StepsMode
) -> list[np.ndarray]:
    """Epoch ``t``'s step block as memoized blocks, earliest first.

    ``mix(epoch_blocks(...), x)`` mixes ``x`` through the epoch's consensus
    weights without forming them: popcount(steps) products with the state
    instead of popcount(steps) - 1 products of ``(m, m)`` matrices.
    """
    if t < 0:
        raise ValueError("epoch must be >= 0")
    start = steps_mode.steps_before_epoch(t)
    return schedule.blocks(start, steps_mode.factors_for_epoch(t))


def consensus_weights_for_epoch(
    schedule: GraphSchedule, t: int, steps_mode: StepsMode
) -> np.ndarray:
    """Mixing coefficients for epoch ``t``: the product of its ``epoch_blocks``.

    Pure function of (schedule, t, mode), so any epoch can be replayed.
    It is the same fold as mixing through the blocks, started at the
    first block instead of a state.  The result may be a memoized block
    that callers must not write; a one-factor product is the matrix's own
    ``weights``.
    """
    return _product(epoch_blocks(schedule, t, steps_mode))


def _union_connected(edge_sets: list[set[tuple[int, int]]], m: int) -> bool:
    if m <= 1:
        return True
    adjacency: list[list[int]] = [[] for _ in range(m)]
    for edges in edge_sets:
        for i, j in edges:
            adjacency[i].append(j)
            adjacency[j].append(i)
    seen = [False] * m
    queue = deque([0])
    seen[0] = True
    while queue:
        node = queue.popleft()
        for nxt in adjacency[node]:
            if not seen[nxt]:
                seen[nxt] = True
                queue.append(nxt)
    return all(seen)


@dataclass(frozen=True)
class WindowCheck:
    start: int
    union_edges: int
    connected: bool


@dataclass(frozen=True)
class ValidationReport:
    matrix_issues: tuple[tuple[int, str], ...]
    windows: tuple[WindowCheck, ...]
    passed: bool

    def first_failure(self) -> str | None:
        if self.matrix_issues:
            slot, issue = self.matrix_issues[0]
            return f"matrix {slot}: {issue}"
        for w in self.windows:
            if not w.connected:
                return (
                    "uniform connectivity: union graph of window starting at "
                    f"step {w.start} is disconnected"
                )
        return None

    def render(self) -> str:
        lines = []
        if self.matrix_issues:
            for slot, issue in self.matrix_issues:
                lines.append(f"matrix {slot}: FAIL ({issue})")
        else:
            lines.append("all matrices doubly stochastic, symmetric, eta-bounded")
        for w in self.windows:
            status = "connected" if w.connected else "DISCONNECTED"
            lines.append(
                f"window start={w.start}: {w.union_edges} union edges, {status}"
            )
        lines.append("overall: PASS" if self.passed else "overall: FAIL")
        return "\n".join(lines)


def validate_schedule(schedule: GraphSchedule) -> ValidationReport:
    """Check every matrix and every connectivity window of the schedule.

    Windows of ``schedule.window`` consecutive steps starting at each
    phase of the period cover all distinct windows of the cyclic sequence.
    """
    issues = []
    for slot, matrix in enumerate(schedule.matrices):
        for issue in matrix.issues():
            issues.append((slot, issue))
    edge_sets = [matrix.edges() for matrix in schedule.matrices]
    windows = []
    for start in range(schedule.period):
        union = [edge_sets[(start + offset) % schedule.period]
                 for offset in range(schedule.window)]
        merged: set[tuple[int, int]] = set().union(*union)
        windows.append(
            WindowCheck(
                start=start,
                union_edges=len(merged),
                connected=_union_connected(union, schedule.m),
            )
        )
    passed = not issues and all(w.connected for w in windows)
    return ValidationReport(tuple(issues), tuple(windows), passed)
