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
    lipschitz_constant,
    packed_arrays,
    packed_smooth_value_grad,
    sample_value_grad,
)
from .proxops import Regularizer, prox

__all__ = [
    "ReferenceSolution",
    "solve_centralized",
    "centralized_prox_rr",
    "load_fixtures",
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
    datasets,
    reg: Regularizer,
    kind: SmoothLossKind,
    tol: float = 1e-10,
    max_iters: int = 500_000,
) -> ReferenceSolution:
    """Full-batch proximal gradient until the gradient mapping is below ``tol``.

    The fixed step is 1 / (n L) where L is the per-sample smoothness
    constant: with the 1/m objective scaling, each of the m sums of n
    samples contributes at most n L / m to the total curvature.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be > 0")
    datasets = tuple(datasets)
    dim = datasets[0].dim
    n = datasets[0].n
    step = 1.0 / (n * lipschitz_constant(datasets, kind))
    features, labels, m = packed_arrays(datasets)
    x = np.zeros(dim)
    iterations = 0
    mapping_norm = math.inf
    for _ in range(max_iters + 1):
        _, grad = packed_smooth_value_grad(features, labels, m, kind, x)
        forward = prox(reg, step, x - step * grad)
        mapping_norm = float(np.linalg.norm(x - forward)) / step
        if mapping_norm <= tol or iterations == max_iters:
            break
        x = forward
        iterations += 1
    value, _ = packed_smooth_value_grad(features, labels, m, kind, x)
    return ReferenceSolution(
        x_star=x,
        f_star=value + reg.value(x),
        mapping_norm=mapping_norm,
        iterations=iterations,
        converged=mapping_norm <= tol,
    )


def centralized_prox_rr(
    samples,
    dim: int,
    kind: SmoothLossKind,
    reg: Regularizer,
    gamma: float,
    horizon: int,
    seed: int,
    x0: float = 0.0,
) -> np.ndarray:
    """Single-machine reshuffled proximal gradient over a flat sample list.

    Per epoch: one reshuffled pass of gradient steps over all samples,
    then a single proximal step.  Returns the (horizon + 1, dim) array of
    per-epoch iterates, starting with the initial point.  The permutation
    stream is keyed by (seed, 0, epoch) so a one-agent distributed run
    with the same seed visits samples in the same order.
    """
    if not gamma > 0.0:
        raise ValueError("gamma must be > 0")
    samples = list(samples)
    x = np.full(dim, float(x0))
    out = np.empty((horizon + 1, dim))
    out[0] = x
    for t in range(horizon):
        key = np.array([seed, 0], dtype=np.uint64)
        counter = np.zeros(4, dtype=np.uint64)
        counter[3] = t
        rng = np.random.Generator(np.random.Philox(counter=counter, key=key))
        for idx in rng.permutation(len(samples)):
            _, grad = sample_value_grad(kind, samples[idx], x)
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


def store_fixture(
    path: Path | str, key: str, solution: ReferenceSolution, tol: float
) -> bool:
    """Record a certified solution under ``key``; returns False on a no-op.

    Idempotent: an existing entry solved at least as tightly is kept.
    """
    path = Path(path)
    fixtures = load_fixtures(path)
    existing = fixtures.get(key)
    if existing is not None and existing["tol"] <= tol:
        if (path.parent / existing["x_star_file"]).exists():
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
