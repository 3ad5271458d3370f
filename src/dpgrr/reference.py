"""The certified centralized solver and the store of its optimal values.

The solver is full-batch accelerated proximal gradient (FISTA) with
gradient-based adaptive restart, a fixed step and a gradient-mapping
stopping rule, finished by Newton steps on the sign pattern it settles
on: FISTA evaluates gradients only, a finish also Hessians and the
objective at each Newton point, and the solver is independent of the
distributed engine so it can certify optimal values the engine is
judged against.  It is not monotone in the objective; the certificate is
the mapping norm at the returned point.
Gradients and Hessians are taken on ``objectives.margin_rows``, formed
once per solve, and ``objectives.margin_slope``.
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
from .objectives import SmoothLossKind, full_objective, margin_rows, margin_slope, smooth_curvature
from .proxops import Regularizer, RegKind, prox

__all__ = [
    "ReferenceSolution",
    "solve_centralized",
    "usable_fixture",
    "store_fixture",
]


@dataclass(frozen=True)
class ReferenceSolution:
    """Certified (or best-effort) minimizer of the aggregate objective.

    ``x_star`` is the last point the solver kept, FISTA's extrapolated
    point or a Newton point, projected onto its face for L1, that lowered
    the mapping norm and kept the objective at most its value where the
    finish started, and
    ``mapping_norm`` is the norm of the proximal-gradient mapping measured
    there, taken at ``step``, the fixed step the solver took.  A Newton
    point that was not kept is never returned.  ``iterations`` counts
    FISTA iterations and Newton steps.  ``converged`` is False when the
    iteration budget ran out before the mapping norm reached the
    tolerance; ``x_star`` is then the last point kept, which need not be
    the best iterate so far, and it is returned instead of raising.
    """

    x_star: np.ndarray
    f_star: float
    mapping_norm: float
    iterations: int
    converged: bool
    step: float


# FISTA iterations for which ``forward``'s sign pattern must hold before a
# Newton finish tries it; a pattern a finish failed on must hold twice as
# long as it had before it is tried again
_NEWTON_HOLD = 3


def solve_centralized(
    features: np.ndarray,
    labels: np.ndarray,
    reg: Regularizer,
    kind: SmoothLossKind,
    tol: float = 1e-10,
    max_iters: int = 500_000,
) -> ReferenceSolution:
    """Accelerated proximal gradient, finished by Newton steps, until the
    gradient mapping is below ``tol``.

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

    Once the sign pattern of ``forward`` has held for ``_NEWTON_HOLD``
    iterations, a Newton finish takes it for the solution's (Lee, Sun &
    Saunders, SIAM J. Optim. 2014).  From ``y`` it takes Newton steps on
    the smooth function the objective is on that face: over the pattern's
    nonzero coordinates (all of them for the ZERO penalty), the others
    held at 0, with the Hessian ``A^T D A / m`` of the smooth part on them
    (plus ``lam I`` for squared L2), solved by ``np.linalg.solve``.  An L1
    face with more coordinates than there are samples has a singular
    Hessian; its step is the least-norm solution, taken through the
    smaller Gram matrix ``A A^T`` of the face's columns.  On an L1 face a
    step that moves a coordinate across zero sets it to 0 (the orthant
    projection of Andrew & Gao, ICML 2007), and the next step takes the
    face of ``forward``'s signs at the point kept; for ZERO and squared L2
    a step that changes the pattern ends the finish.  A step is kept while
    it lowers the mapping norm, measured at its point, and keeps the
    objective at most its value at ``y``, and the solve returns as soon as
    that norm is at most ``tol``.  Otherwise, or when the system is
    singular, FISTA resumes from ``y``, and the pattern that failed must
    hold twice as long as it had before it is tried again.  Every Newton
    step counts as an iteration.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tolerance must be finite and > 0")
    curvature = smooth_curvature(features, kind)
    step = 1.0 / curvature if curvature > 0.0 else 1.0
    m = features.shape[0]
    flat = features.reshape(-1, features.shape[-1])
    logistic = kind is SmoothLossKind.LOGISTIC
    l1 = reg.kind is RegKind.L1
    rows, targets = margin_rows(flat, labels.reshape(-1), kind)
    rows_t = rows.T

    def measure(point):
        # the loss slopes, the gradient, forward, point - forward and the
        # mapping norm, all at point
        slopes = margin_slope(kind, rows @ point, targets)
        grad = rows_t @ (slopes / m)
        forward = prox(reg, step, point - step * grad)
        # sqrt(back . back) has the bits of the 1-D np.linalg.norm
        back = point - forward
        return slopes, grad, forward, back, math.sqrt(back.dot(back)) / step

    def newton_step(point, slopes, grad, signs):
        # Newton's step from point for the objective on the face of signs
        # (every coordinate for ZERO), or None if its system is singular
        if reg.kind is RegKind.ZERO:
            face = np.arange(point.size)
        else:
            face = np.flatnonzero(signs)
        block = rows[:, face]
        # a logistic slope is -sigma: the weight is sigma (1 - sigma) / m
        weights = -slopes * (1.0 + slopes) / m if logistic else 1.0 / m
        slope = grad[face]
        if l1:
            slope = slope + reg.lam * signs[face]
        try:
            if l1 and face.size > len(rows):
                # an L1 face wider than the samples: the Hessian B^T W B has
                # rank at most the sample count, and its least-norm solution
                # B^T G^-1 W^-1 G^-1 B slope goes through the smaller Gram
                # matrix G = B B^T
                gram = block @ block.T
                inner = np.linalg.solve(gram, block @ slope) / weights
                delta = block.T @ np.linalg.solve(gram, inner)
            else:
                if logistic:
                    hessian = block.T @ (block * weights[:, None])
                else:
                    hessian = block.T @ (block / m)
                if reg.kind is RegKind.SQUARED_L2:
                    hessian[np.diag_indices_from(hessian)] += reg.lam
                    slope = slope + reg.lam * point[face]
                delta = np.linalg.solve(hessian, slope)
        except np.linalg.LinAlgError:
            return None
        newton = np.zeros_like(point)
        newton[face] = point[face] - delta
        return newton

    x = y = np.zeros(features.shape[-1])
    theta = 1.0
    iterations, held = 0, 0
    failed, retry = None, 0  # the last pattern a finish failed on, and when to retry it
    slopes, grad, forward, back, x_star_norm = measure(y)
    signs, x_star = np.sign(forward), y
    while x_star_norm > tol and iterations < max_iters:
        if held >= _NEWTON_HOLD and (held >= retry or not (signs == failed).all()):
            # a Newton finish from y; a near-singular system may give a
            # step that overflows, whose NaN or inf mapping norm is not
            # kept, or one so long that the gradient underflows and the
            # penalty's shift rounds away, whose mapping norm measures 0
            # but whose objective is above y's; the test is against y, not
            # the last point kept, whose objective a last step may exceed
            # by a rounding
            point_slopes, point_grad, face_signs = slopes, grad, signs
            value = full_objective(features, labels, reg, kind, x_star)
            with np.errstate(all="ignore"):
                while iterations < max_iters:
                    newton = newton_step(x_star, point_slopes, point_grad, face_signs)
                    if newton is None:
                        break
                    iterations += 1
                    moved = np.sign(newton) != face_signs
                    if l1:
                        # the orthant projection: a face coordinate that
                        # crossed zero is set to 0
                        newton[moved] = 0.0
                    elif moved.any():
                        break
                    newton_slopes, newton_grad, newton_forward, _, newton_norm = measure(newton)
                    if not newton_norm < x_star_norm:
                        break
                    if not full_objective(features, labels, reg, kind, newton) <= value:
                        break
                    x_star, x_star_norm = newton, newton_norm
                    point_slopes, point_grad = newton_slopes, newton_grad
                    if l1:
                        face_signs = np.sign(newton_forward)
                    if x_star_norm <= tol:
                        break
            if x_star_norm <= tol or iterations >= max_iters:
                break
            failed, retry = signs, 2 * held
        ahead = forward - x
        if back.dot(ahead) > 0.0:
            theta = 1.0
        theta, previous = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta)), theta
        x, y = forward, forward + ((previous - 1.0) / theta) * ahead
        iterations += 1
        slopes, grad, forward, back, x_star_norm = measure(y)
        pattern = np.sign(forward)
        held = held + 1 if (pattern == signs).all() else 0
        signs, x_star = pattern, y
    return ReferenceSolution(
        x_star=x_star,
        f_star=full_objective(features, labels, reg, kind, x_star),
        mapping_norm=x_star_norm,
        iterations=iterations,
        converged=x_star_norm <= tol,
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

    A store that cannot be read, or is not a JSON object, is a
    ``ConfigError`` naming the file.
    """
    path = Path(path)
    if not path.exists():
        return {}
    try:
        with path.open() as fh:
            fixtures = json.load(fh)
    except OSError as exc:  # a directory, say
        raise ConfigError(f"fixtures store {path} cannot be read: {exc}") from None
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
    A store that cannot be written is a ``ConfigError`` naming the file.
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
    staged = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        # under a regular file this raises before any staged file is made
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with staged.open("w") as fh:
                json.dump(fixtures, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(staged, path)
        finally:
            staged.unlink(missing_ok=True)
    except OSError as exc:
        raise ConfigError(f"fixtures store {path} cannot be written: {exc}") from None
