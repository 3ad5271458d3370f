"""Independent centralized oracles: a certified solver and a one-agent baseline.

The solver is full-batch accelerated proximal gradient (FISTA) with
gradient-based adaptive restart, a fixed step and a gradient-mapping
stopping rule: it evaluates gradients only, and it is independent of the
distributed engine so it can certify optimal values the engine is judged
against.  It is not monotone in the objective; the certificate is the
mapping norm at the returned point.  The one-agent reshuffling baseline
below it deliberately does not reuse the engine's epoch loop either; the
two implementations are compared against each other in tests.
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
    packed_smooth_grad,
    sample_value_grad,
    smooth_curvature,
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
    x = y = np.zeros(features.shape[-1])
    theta = 1.0
    for iterations in range(max(max_iters, 0) + 1):
        grad = packed_smooth_grad(features, labels, kind, y)
        forward = prox(reg, step, y - step * grad)
        mapping_norm = float(np.linalg.norm(y - forward)) / step
        if mapping_norm <= tol or iterations >= max_iters:
            break
        if np.dot(y - forward, forward - x) > 0.0:
            theta = 1.0
        theta, previous = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta)), theta
        x, y = forward, forward + ((previous - 1.0) / theta) * (forward - x)
    return ReferenceSolution(
        x_star=y,
        f_star=full_objective(features, labels, reg, kind, y),
        mapping_norm=mapping_norm,
        iterations=iterations,
        converged=mapping_norm <= tol,
        step=step,
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
        counter = np.array([0, 0, 0, t], dtype=np.uint64)
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
    path: Path | str, key: str, solution: ReferenceSolution, tol: float,
    replace: bool = False,
) -> bool:
    """Record a certified solution under ``key``; returns False on a no-op.

    Idempotent: a usable entry solved at least as tightly is kept, unless
    ``replace`` asks to overwrite it and its solution file.
    """
    path = Path(path)
    fixtures = load_fixtures(path)
    if not replace and usable_fixture(fixtures, path, key, tol) is not None:
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
