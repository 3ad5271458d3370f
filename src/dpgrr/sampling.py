"""Per-epoch index draws: reshuffled, fixed-order, or with replacement.

Index draws are counter-based: epoch ``t`` of every agent comes from the
one Philox generator keyed by ``(seed, 0)`` at counter ``(0, 0, 0, t)``,
drawn as an ``(m, n)`` block whose row j is agent j's order.  Any epoch
can be replayed without generating its predecessors, and no draw
depends on an earlier one.  ``fill_indices`` draws the blocks of many
runs over a stretch of epochs into one ``(E, S, m, n)`` buffer.
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


def fill_indices(out: np.ndarray, draws, t0: int) -> None:
    """Write the index blocks of epochs ``t0`` to ``t0 + E - 1`` of each
    ``(row, mode, seed)`` into ``out[:, row]``.

    ``out`` is an ``(E, S, m, n)`` int64 buffer whose block ``out[e, row]``
    is the ``(m, n)`` block of one run at epoch ``t0 + e``, with the bits
    of that epoch's own draw.  RR sorts an ``(m, n)`` block of uniforms
    row by row (stable argsort), SG draws an ``(m, n)`` block of integers
    in ``[0, n)``, and IG reuses the RR block of epoch 0.  The RR and IG
    uniforms of all draws and epochs fill one block, sorted in one call: a
    stable argsort along the last axis sorts every row on its own.  Both
    blocks fill in row-major order, so row j is the same for every ``m > j``.
    """
    if t0 < 0:
        raise ValueError("epoch must be >= 0")
    epochs, _, m, n = out.shape
    shuffled = [row for row, mode, _ in draws if mode is not Mode.SG]
    uniforms = np.empty((epochs, len(shuffled), m, n))
    with _DRAW_LOCK:
        for e in range(epochs):
            k = 0
            for row, mode, seed in draws:
                _COUNTER[3] = 0 if mode is Mode.IG else t0 + e
                _KEY[0] = seed
                _BIT_GENERATOR.state = _STATE
                if mode is Mode.SG:
                    out[e, row] = _GENERATOR.integers(0, n, size=(m, n), dtype=np.int64)
                else:
                    _GENERATOR.random(out=uniforms[e, k])
                    k += 1
    if shuffled:
        out[:, shuffled] = np.argsort(uniforms, axis=-1, kind="stable")
