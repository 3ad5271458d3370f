"""Independent centralized oracles: a certified solver and a one-agent baseline.

The solver is plain full-batch proximal gradient with a fixed step and a
gradient-mapping stopping rule: simple, monotone, and independent of the
distributed engine so it can certify optimal values the engine is judged
against.  The one-agent reshuffling baseline below it deliberately does
not reuse the engine's epoch loop either; the two implementations are
compared against each other in tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .objectives import (
    SmoothLossKind,
    full_objective,
    lipschitz_constant,
    packed_smooth_grad,
    sample_value_grad,
)
from .proxops import Regularizer, prox

__all__ = [
    "ReferenceSolution",
    "solve_centralized",
    "centralized_prox_rr",
    "load_fixtures",
    "usable_fixture",
    "store_fixture",
    "fixture_x_star",
]


@dataclass(frozen=True)
class ReferenceSolution:
    """Certified (or best-effort) minimizer of the aggregate objective.

    ``mapping_norm`` is the proximal-gradient-mapping norm at ``x_star``;
    ``converged`` is False when the iteration budget ran out before the
    mapping norm reached the tolerance, in which case the best iterate so
    far is returned instead of raising.
    """

    x_star: np.ndarray
    f_star: float
    mapping_norm: float
    iterations: int
    converged: bool


def solve_centralized(
    features: np.ndarray,
    labels: np.ndarray,
    reg: Regularizer,
    kind: SmoothLossKind,
    tol: float = 1e-10,
    max_iters: int = 500_000,
) -> ReferenceSolution:
    """Full-batch proximal gradient until the gradient mapping is below ``tol``.

    ``features`` ``(m, n, d)`` and ``labels`` ``(m, n)`` are a problem's
    packed arrays.  The fixed step is 1 / (n L) where L is the per-sample
    smoothness constant: with the 1/m objective scaling, each of the m
    sums of n samples contributes at most n L / m to the total curvature.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tolerance must be finite and > 0")
    _, n, dim = features.shape
    step = 1.0 / (n * lipschitz_constant(features, kind))
    x = np.zeros(dim)
    iterations = 0
    mapping_norm = math.inf
    for _ in range(max_iters + 1):
        grad = packed_smooth_grad(features, labels, kind, x)
        forward = prox(reg, step, x - step * grad)
        mapping_norm = float(np.linalg.norm(x - forward)) / step
        if mapping_norm <= tol or iterations == max_iters:
            break
        x = forward
        iterations += 1
    return ReferenceSolution(
        x_star=x,
        f_star=full_objective(features, labels, reg, kind, x),
        mapping_norm=mapping_norm,
        iterations=iterations,
        converged=mapping_norm <= tol,
    )


def centralized_prox_rr(
    features: np.ndarray,
    labels: np.ndarray,
    kind: SmoothLossKind,
    reg: Regularizer,
    gamma: float,
    horizon: int,
    seed: int,
    x0: float = 0.0,
) -> np.ndarray:
    """Single-machine reshuffled proximal gradient over ``N`` flat rows.

    ``features`` ``(N, d)`` and ``labels`` ``(N,)`` are the samples.  Per
    epoch: one reshuffled pass of gradient steps over all rows, then a
    single proximal step.  Returns the (horizon + 1, d) array of per-epoch
    iterates, starting with the initial point.  Epoch t visits the rows in
    the stable argsort of N uniforms from Philox keyed by (seed, 0) at
    counter (0, 0, 0, t), so a one-agent distributed run with the same seed
    visits them in the same order.
    """
    if not gamma > 0.0:
        raise ValueError("gamma must be > 0")
    x = np.full(features.shape[1], float(x0))
    out = np.empty((horizon + 1, x.size))
    out[0] = x
    for t in range(horizon):
        key = np.array([seed, 0], dtype=np.uint64)
        counter = np.zeros(4, dtype=np.uint64)
        counter[3] = t
        rng = np.random.Generator(np.random.Philox(counter=counter, key=key))
        for idx in np.argsort(rng.random(len(labels)), kind="stable"):
            _, grad = sample_value_grad(kind, features[idx], labels[idx], x)
            x = x - gamma * grad
        x = prox(reg, gamma, x)
        out[t + 1] = x
    return out


# -- optimal-value fixtures ------------------------------------------------
#
# Plain-text store: a JSON map from problem key to the certified value,
# with the solution point saved as a text vector beside it.


def load_fixtures(path: Path | str) -> dict:
    path = Path(path)
    if not path.exists():
        return {}
    with path.open() as fh:
        return json.load(fh)


def _x_star_filename(key: str) -> str:
    return f"x_star_{key[:16]}.txt"


def usable_fixture(fixtures: dict, path: Path | str, key: str, tol: float) -> dict | None:
    """``fixtures[key]`` (the store at ``path``, loaded) if it is usable, else None.

    Usable: solved at ``tol`` or tighter, with its solution file present.
    """
    entry = fixtures.get(key)
    if entry is None or entry["tol"] > tol:
        return None
    if not (Path(path).parent / entry["x_star_file"]).exists():
        return None
    return entry


def store_fixture(
    path: Path | str, key: str, solution: ReferenceSolution, tol: float
) -> bool:
    """Record a certified solution under ``key``; returns False on a no-op.

    Idempotent: a usable entry solved at least as tightly is kept.
    """
    path = Path(path)
    fixtures = load_fixtures(path)
    if usable_fixture(fixtures, path, key, tol) is not None:
        return False
    entry = {
        "f_star": solution.f_star,
        "tol": tol,
        "mapping_norm": solution.mapping_norm,
        "iterations": solution.iterations,
        "x_star_file": _x_star_filename(key),
    }
    fixtures[key] = entry
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(path.parent / entry["x_star_file"], solution.x_star, fmt="%.17e")
    with path.open("w") as fh:
        json.dump(fixtures, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return True


def fixture_x_star(path: Path | str, entry: dict) -> np.ndarray:
    return np.atleast_1d(np.loadtxt(Path(path).parent / entry["x_star_file"]))
