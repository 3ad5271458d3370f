"""The certified centralized solver and the store of its optimal values.

The solver is full-batch accelerated proximal gradient (FISTA) with
gradient-based adaptive restart, a fixed step and a gradient-mapping
stopping rule: it evaluates gradients only, and it is independent of the
distributed engine so it can certify optimal values the engine is judged
against.  It is not monotone in the objective; the certificate is the
mapping norm at the returned point.  Logistic gradients are taken on rows
signed once per solve, whose every term has the bits of the unsigned
``a (-y sigma(-y z) / m)``, so iteration counts and F* bits are those of
the unsigned form.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError
from .objectives import SmoothLossKind, full_objective, sigmoid, smooth_curvature
from .proxops import Regularizer, prox

__all__ = [
    "ReferenceSolution",
    "solve_centralized",
    "usable_fixture",
    "store_fixture",
]


@dataclass(frozen=True)
class ReferenceSolution:
    """Certified (or best-effort) minimizer of the aggregate objective.

    ``x_star`` is the point at which the solver last measured the
    proximal-gradient mapping, and ``mapping_norm`` is that mapping's norm,
    taken at ``step``, the fixed step the solver took.  ``converged`` is
    False when the iteration budget ran out before the mapping norm reached
    the tolerance; ``x_star`` is then the last such point, which need not
    be the best iterate so far, and it is returned instead of raising.
    """

    x_star: np.ndarray
    f_star: float
    mapping_norm: float
    iterations: int
    converged: bool
    step: float


def solve_centralized(
    features: np.ndarray,
    labels: np.ndarray,
    reg: Regularizer,
    kind: SmoothLossKind,
    tol: float = 1e-10,
    max_iters: int = 500_000,
) -> ReferenceSolution:
    """Accelerated proximal gradient until the gradient mapping is below ``tol``.

    ``features`` ``(m, n, d)`` and ``labels`` ``(m, n)`` are a problem's
    packed arrays.  The fixed step is 1 / L_f, where L_f is the Lipschitz
    constant of the aggregate smooth gradient (``smooth_curvature``), the
    step at which FISTA converges (Beck & Teboulle, SIAM J. Imaging Sci.
    2009).  When L_f is 0 the features are all zero, the smooth part is
    constant, any step is exact, and the step is 1.

    From ``x = y = 0`` and ``theta = 1``, each iteration takes
    ``forward = prox(y - step * grad f(y))`` and stops when
    ``||y - forward|| / step <= tol`` (or after ``max_iters`` iterations),
    returning ``y``.  Otherwise ``theta`` is reset to 1 when
    ``<y - forward, forward - x> > 0``, the momentum pointing against the
    last proximal-gradient step (gradient restart, O'Donoghue & Candès,
    Found. Comput. Math. 2015), and then
    ``theta' = (1 + sqrt(1 + 4 theta^2)) / 2``,
    ``y = forward + ((theta - 1) / theta') (forward - x)``, ``x = forward``.
    The restart test needs no loss value, so only gradients are evaluated.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tolerance must be finite and > 0")
    curvature = smooth_curvature(features, kind)
    step = 1.0 / curvature if curvature > 0.0 else 1.0
    m = features.shape[0]
    flat = features.reshape(-1, features.shape[-1])
    if kind is SmoothLossKind.LOGISTIC:
        # rows signed once: with labels +-1 each term of (-y a) @ x and of
        # (-y a)^T @ (sigma / m) has the bits of the unsigned form's term
        # in -(y (a @ x)) and in a^T @ (-y sigma(-y z) / m), so every sum,
        # and the iteration count, is unchanged
        rows = -(labels.reshape(-1, 1) * flat)
    else:
        rows, labels = flat, labels.reshape(-1)
    rows_t = rows.T
    x = y = np.zeros(features.shape[-1])
    theta = 1.0
    for iterations in range(max(max_iters, 0) + 1):
        if kind is SmoothLossKind.LOGISTIC:
            grad = rows_t @ (sigmoid(rows @ y) / m)
        else:
            grad = rows_t @ ((rows @ y - labels) / m)
        forward = prox(reg, step, y - step * grad)
        # sqrt(back . back) has the bits of the 1-D np.linalg.norm
        back = y - forward
        mapping_norm = math.sqrt(back.dot(back)) / step
        if mapping_norm <= tol or iterations >= max_iters:
            break
        ahead = forward - x
        if back.dot(ahead) > 0.0:
            theta = 1.0
        theta, previous = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta)), theta
        x, y = forward, forward + ((previous - 1.0) / theta) * ahead
    return ReferenceSolution(
        x_star=y,
        f_star=full_objective(features, labels, reg, kind, y),
        mapping_norm=mapping_norm,
        iterations=iterations,
        converged=mapping_norm <= tol,
        step=step,
    )


# -- optimal-value fixtures ------------------------------------------------
#
# One JSON file, read and written only here: a map from problem key to the
# certified value, its solve's report, ``x_star`` as a list of floats (which
# ``json`` writes by ``repr``, so every bit round-trips) and ``data_sha256``,
# the digest of the packed arrays it was solved on.


def _load_fixtures(path: Path | str) -> dict:
    """The store at ``path``, empty if there is none.

    A store that is not a JSON object is a ``ConfigError`` naming the file.
    """
    path = Path(path)
    if not path.exists():
        return {}
    with path.open() as fh:
        try:
            fixtures = json.load(fh)
        except ValueError as exc:  # not JSON, or not even text
            raise ConfigError(f"fixtures store {path} is not valid JSON: {exc}") from None
    if not isinstance(fixtures, dict):
        raise ConfigError(f"fixtures store {path} is not a JSON object")
    return fixtures


def _data_sha256(features: np.ndarray, labels: np.ndarray) -> str:
    """sha256 of the packed arrays' shapes, then their float64 bytes."""
    digest = hashlib.sha256(repr((features.shape, labels.shape)).encode())
    for array in (features, labels):
        digest.update(np.ascontiguousarray(array, dtype=float))
    return digest.hexdigest()


def _finite(value) -> bool:
    # not a bool; an int is compared exactly, so one past the float range fails
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _entry_fault(entry, dim: int) -> str | None:
    """Why a store entry is malformed for a ``dim``-dimensional problem, or None."""
    if not isinstance(entry, dict):
        return "is not a JSON object"
    for name in ("f_star", "tol", "x_star", "data_sha256"):
        if name not in entry:
            return f"has no {name!r}"
    for name in ("f_star", "tol"):
        if not _finite(entry[name]):
            return f"has {name} {entry[name]!r}, not a finite number"
    x_star = entry["x_star"]
    if not isinstance(x_star, list):
        return f"has x_star {x_star!r}, not a list"
    if len(x_star) != dim:
        return f"has x_star of length {len(x_star)}, not {dim}"
    for i, value in enumerate(x_star):
        if not _finite(value):
            return f"has x_star[{i}] {value!r}, not a finite number"
    if not isinstance(entry["data_sha256"], str):
        return f"has data_sha256 {entry['data_sha256']!r}, not a string"
    return None


def usable_fixture(
    path: Path | str, key: str, features: np.ndarray, labels: np.ndarray, tol: float,
) -> tuple[float, np.ndarray] | None:
    """``(f_star, x_star)`` stored under ``key`` at ``path`` if usable, else None.

    Usable: solved at ``tol`` or tighter, on these packed arrays; an entry
    solved on other data is stale, and one stderr note names it.  A
    malformed entry is a ``ConfigError`` naming the store and the key.
    """
    fixtures = _load_fixtures(path)
    if key not in fixtures:
        return None
    entry = fixtures[key]
    fault = _entry_fault(entry, features.shape[-1])
    if fault is not None:
        raise ConfigError(f"fixtures store {path}: entry {key} {fault}")
    if entry["tol"] > tol:
        return None
    if entry["data_sha256"] != _data_sha256(features, labels):
        print(f"note: fixture {key[:16]} was solved on other data; solving F* again",
              file=sys.stderr)
        return None
    return float(entry["f_star"]), np.array(entry["x_star"], dtype=float)


def store_fixture(
    path: Path | str, key: str, solution: ReferenceSolution, tol: float,
    features: np.ndarray, labels: np.ndarray,
) -> None:
    """Record ``solution``, solved at ``tol`` on these packed arrays, under
    ``key``, replacing any entry there.  The store is written beside itself,
    then moved into place, so an interrupted store leaves the old file whole.
    """
    path = Path(path)
    fixtures = _load_fixtures(path)
    fixtures[key] = {
        "data_sha256": _data_sha256(features, labels),
        "f_star": solution.f_star,
        "iterations": solution.iterations,
        "mapping_norm": solution.mapping_norm,
        "tol": tol,
        "x_star": solution.x_star.tolist(),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    staged = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with staged.open("w") as fh:
            json.dump(fixtures, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(staged, path)
    finally:
        staged.unlink(missing_ok=True)
