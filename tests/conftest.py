import dataclasses
from pathlib import Path

import mpmath
import numpy as np
import pytest

from dpgrr.config import build_problem, load_config
from dpgrr.engine import ProblemBundle
from dpgrr.netgraph import GraphSchedule, metropolis_weights
from dpgrr.objectives import SmoothLossKind
from dpgrr.proxops import Regularizer
from dpgrr.reference import solve_centralized

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


@pytest.fixture(scope="session")
def configs_dir() -> Path:
    return CONFIGS


@pytest.fixture(scope="session")
def canonical_config():
    return load_config(CONFIGS / "synthetic_consensus.yaml")


@pytest.fixture(scope="session")
def canonical_problem(canonical_config) -> ProblemBundle:
    """The shipped 5-agent problem with a freshly certified optimal value."""
    problem, _ = build_problem(canonical_config)
    sol = solve_centralized(
        problem.features, problem.labels, problem.regularizer, problem.kind, tol=1e-10
    )
    assert sol.converged
    return dataclasses.replace(problem, f_star=sol.f_star, x_star=sol.x_star)


def golden_section_prox_1d(penalty, gamma: float, xi: float) -> float:
    """Numeric one-dimensional prox oracle, independent of closed forms.

    Golden-section search on ``penalty(z) + (z - xi)^2 / (2 gamma)`` in
    40-digit arithmetic; double-precision function minimizers cannot
    certify below ~1e-8 because the objective is quadratically flat at
    the minimum.
    """
    mpmath.mp.dps = 40
    gamma_mp = mpmath.mpf(gamma)
    xi_mp = mpmath.mpf(xi)

    def objective(z):
        return penalty(z) + (z - xi_mp) ** 2 / (2 * gamma_mp)

    span = abs(xi_mp) + gamma_mp + 10
    lo, hi = xi_mp - span, xi_mp + span
    inv_phi = (mpmath.sqrt(5) - 1) / 2
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc, fd = objective(c), objective(d)
    while hi - lo > mpmath.mpf("1e-13"):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = objective(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = objective(d)
    return float((lo + hi) / 2)


def packed(*agents):
    """``(features, labels)`` of agents given as lists of ``(a, label)`` pairs."""
    features = np.array([[np.atleast_1d(a) for a, _ in pairs] for pairs in agents], float)
    labels = np.array([[label for _, label in pairs] for pairs in agents], float)
    return features, labels


@pytest.fixture()
def toy_ls_problem() -> ProblemBundle:
    """One agent, one least-squares sample a=[1], target 1."""
    schedule = GraphSchedule((metropolis_weights(set(), 1, 1.0),), 1)
    return ProblemBundle(
        *packed([([1.0], 1.0)]),
        kind=SmoothLossKind.LEAST_SQUARES,
        regularizer=Regularizer.zero(),
        schedule=schedule,
    )
