import dataclasses
from pathlib import Path

import mpmath
import numpy as np
import pytest

from dpgrr.config import build_problem, load_config
from dpgrr.engine import ProblemBundle, StepRule, run
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


# the recorded columns of a ``RunTrace``
COLUMNS = ("epochs", "f_bar", "f_hat", "suboptimality", "disagreement",
           "max_consensus_dist", "forward_deviation")


def assert_same_columns(got, want):
    """Every column of two traces has the same dtype, shape and bits, or is
    None in both, and so is ``sigma_star_sq``: an array's bytes and a
    float's repr are its bits, so a NaN equals itself."""
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert repr(got.sigma_star_sq) == repr(want.sigma_star_sq)


def iterates(cfgs, problem, traces):
    """Each run's state after every epoch: ``out[s][h]`` is run s's
    ``(m, d)`` state after h epochs, for h from 0 to the horizon.

    An epoch depends only on the run's seed and step and on the epochs
    before it, so the state after h epochs is the ``x_final`` of the same
    list of runs rerun to horizon h, each at its trace's resolved step;
    after the last epoch it is the trace's own ``x_final``.  A rerun must
    record the run's own rows, bit for bit, at the epochs both record.
    """
    steps = [cfg.step if trace.gamma is None else StepRule.constant(trace.gamma)
             for cfg, trace in zip(cfgs, traces, strict=True)]
    finals = []
    for h in range(cfgs[0].horizon):
        reruns = run([dataclasses.replace(cfg, horizon=h, step=step)
                      for cfg, step in zip(cfgs, steps)], problem)
        for rerun, trace in zip(reruns, traces):
            # the epochs both record lead both traces
            k = len(np.intersect1d(rerun.epochs, trace.epochs))
            for name, rows in (("f_bar", k), ("f_hat", k - 1), ("disagreement", k),
                               ("max_consensus_dist", k)):
                got, want = getattr(rerun, name)[:rows], getattr(trace, name)[:rows]
                assert got.tobytes() == want.tobytes(), name
        finals.append([rerun.x_final for rerun in reruns])
    finals.append([trace.x_final for trace in traces])
    return [np.stack(states) for states in zip(*finals)]


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
