"""Per-epoch index draws: reshuffled, fixed-order, or with replacement.

Index draws are counter-based: epoch ``t`` of every agent comes from the
one Philox generator keyed by ``(seed, 0)`` at counter ``(0, 0, 0, t)``,
drawn as an ``(m, n)`` block whose row j is agent j's order.  Any epoch
can be replayed without generating its predecessors, and no draw
depends on an earlier one.  ``fill_indices`` draws the blocks of many
runs over a stretch of epochs into one ``(E, S, m, n)`` buffer.

A with-replacement block has the bits of ``Generator.integers(0, n,
size=(m, n), dtype=np.int64)``, but is formed from the block's raw
64-bit Philox words, as numpy forms it (Lemire's bounded integers): each
word gives two 32-bit words, its low half first, and a 32-bit word ``w``
gives the index ``(w n) >> 32`` (numpy's 32-bit method, for any ``n``
up to 2**32).  Where numpy would reject a word, when
``(w n) mod 2**32 < 2**32 mod n``, the whole block is drawn again
through ``integers``: at ``n`` = 20, one 200-index block in about 1.3
million.
"""

from __future__ import annotations

import enum
import threading

import numpy as np

__all__ = ["Mode", "fill_indices"]


class Mode(enum.Enum):
    RR = "rr"  # fresh uniform permutation every epoch
    IG = "ig"  # one fixed permutation reused forever
    SG = "sg"  # n independent uniform draws with replacement


# One generator serves every draw: each draw first overwrites its whole
# state (key, counter and the emptied output buffers), so no draw depends
# on an earlier one.  Building a fresh Philox costs an OS-entropy seed
# sequence that the explicit key then discards.  Setting the state copies
# the values of ``_STATE``'s arrays, which are refilled for each draw.
# The lock keeps a state and its draw together when threads share the
# generator.
_BIT_GENERATOR = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
_GENERATOR = np.random.Generator(_BIT_GENERATOR)
_COUNTER = np.zeros(4, dtype=np.uint64)
_KEY = np.zeros(2, dtype=np.uint64)
_STATE = {
    "bit_generator": "Philox",
    "state": {"counter": _COUNTER, "key": _KEY},
    "buffer": np.zeros(4, dtype=np.uint64),
    "buffer_pos": 4,
    "has_uint32": 0,
    "uinteger": 0,
}
_DRAW_LOCK = threading.Lock()


def _seek(mode: Mode, seed: int, t: int) -> None:
    """Put the generator at the start of ``(mode, seed)``'s epoch ``t`` draw."""
    _COUNTER[3] = 0 if mode is Mode.IG else t
    _KEY[0] = seed
    _BIT_GENERATOR.state = _STATE


def fill_indices(out: np.ndarray, draws, t0: int) -> None:
    """Write the index blocks of epochs ``t0`` to ``t0 + E - 1`` of each
    ``(row, mode, seed)`` into ``out[:, row]``.

    ``out`` is an ``(E, S, m, n)`` int64 buffer whose block ``out[e, row]``
    is the ``(m, n)`` block of one run at epoch ``t0 + e``, with the bits
    of that epoch's own draw.  RR sorts an ``(m, n)`` block of uniforms
    row by row (stable argsort), SG draws an ``(m, n)`` block of integers
    in ``[0, n)``, and IG reuses the RR block of epoch 0.  The RR and IG
    uniforms of all draws and epochs fill one block, sorted in one call: a
    stable argsort along the last axis sorts every row on its own.  The SG
    blocks' raw words fill another, from which every SG index of the
    stretch is formed at once (see the module docstring).  The blocks fill
    in row-major order, so row j is the same for every ``m > j``.
    """
    if t0 < 0:
        raise ValueError("epoch must be >= 0")
    epochs, _, m, n = out.shape
    shuffled = [row for row, mode, _ in draws if mode is not Mode.SG]
    sampled = [(row, seed) for row, mode, seed in draws if mode is Mode.SG]
    uniforms = np.empty((epochs, len(shuffled), m, n))
    # two 32-bit words a raw word, the last one's high half unused when
    # m n is odd
    words = np.empty((epochs, len(sampled), -(-m * n // 2)), dtype=np.uint64) if sampled else None
    with _DRAW_LOCK:
        for e in range(epochs):
            k = j = 0
            for row, mode, seed in draws:
                _seek(mode, seed, t0 + e)
                if mode is Mode.SG:
                    words[e, j] = _BIT_GENERATOR.random_raw(words.shape[-1])
                    j += 1
                else:
                    _GENERATOR.random(out=uniforms[e, k])
                    k += 1
    if sampled:
        rows = [row for row, _ in sampled]
        # masks and shifts, not a uint32 view, whose halves' order is the
        # byte order's
        halves = np.empty(words.shape[:-1] + (2 * words.shape[-1],), dtype=np.uint64)
        np.bitwise_and(words, 0xFFFFFFFF, out=halves[..., 0::2])
        np.right_shift(words, 32, out=halves[..., 1::2])
        scaled = halves[..., :m * n]
        scaled *= n
        out[:, rows] = (scaled >> 32).reshape(epochs, len(rows), m, n)
        scaled &= 0xFFFFFFFF
        rejected = np.nonzero((scaled < 2**32 % n).any(axis=-1))
        with _DRAW_LOCK:
            for e, j in zip(*rejected):
                row, seed = sampled[j]
                _seek(Mode.SG, seed, t0 + e)
                out[e, row] = _GENERATOR.integers(0, n, size=(m, n), dtype=np.int64)
    if shuffled:
        out[:, shuffled] = np.argsort(uniforms, axis=-1, kind="stable")
