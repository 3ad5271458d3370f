import os
import signal
from pathlib import Path

import mpmath
import numpy as np
import pytest

from dpgrr import engine
from dpgrr.config import build_problem, load_config
from dpgrr.engine import ProblemBundle, run
from dpgrr.netgraph import GraphSchedule, metropolis_weights
from dpgrr.objectives import SmoothLossKind
from dpgrr.proxops import Regularizer
from dpgrr.reference import solve_centralized

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


@pytest.fixture(scope="session")
def configs_dir() -> Path:
    return CONFIGS


@pytest.fixture()
def forks(monkeypatch):
    """Count the processes ``os.fork`` makes; yields the list of forks.
    A test that waits on a worker for a minute fails instead of hanging."""
    made = []
    fork = os.fork

    def counted():
        made.append(1)
        return fork()

    def expire(signum, frame):
        raise TimeoutError("a lane test ran for a minute")

    monkeypatch.setattr(os, "fork", counted)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield made
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="session")
def canonical_config():
    return load_config(CONFIGS / "synthetic_consensus.yaml")


@pytest.fixture(scope="session")
def canonical_problem(canonical_config) -> ProblemBundle:
    """The shipped 5-agent problem."""
    problem, _ = build_problem(canonical_config)
    return problem


@pytest.fixture(scope="session")
def canonical_solution(canonical_problem):
    """The canonical problem's freshly certified optimum, ``f_star`` and ``x_star``."""
    p = canonical_problem
    sol = solve_centralized(p.features, p.labels, p.regularizer, p.kind, tol=1e-10)
    assert sol.converged
    return sol


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
COLUMNS = ("epochs", "f_bar", "f_hat", "disagreement", "max_consensus_dist",
           "forward_deviation")


def assert_same_columns(got, want):
    """Every column of two traces has the same dtype, shape and bits, or is
    None in both: an array's bytes are its bits, so a NaN equals itself."""
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def iterates(cfgs, problem, traces):
    """Each run's state after every epoch: ``out[s][h]`` is run s's
    ``(m, d)`` state after h epochs, for h from 0 to the horizon.

    Runs ``cfgs`` once more, in this process, keeping each batch's state
    that enters epoch 0 and every state an epoch returns.  That run must
    give ``traces`` bit for bit: every column, the step and the final state.
    """
    batches = []

    def keeping(epoch):
        def kept(x, *args, **kwargs):
            out = epoch(x, *args, **kwargs)
            if args[-1] == 0:  # both take the epoch's index last
                batches.append([x.copy()])
            batches[-1].append((out[0] if isinstance(out, tuple) else out).copy())
            return out
        return kept

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_cpu_count", lambda: 1)
        for name in ("run_epoch_dpgrr", "run_epoch_dgm"):
            patch.setattr(engine, name, keeping(getattr(engine, name)))
        reruns = run(cfgs, problem)
    for rerun, trace in zip(reruns, traces, strict=True):
        assert_same_columns(rerun, trace)
        assert rerun.gamma == trace.gamma
        assert rerun.x_final.tobytes() == trace.x_final.tobytes()
    if not batches:  # horizon 0: the final state is the only one
        return [trace.x_final[None] for trace in traces]
    return [states for batch in batches for states in np.stack(batch, axis=1)]


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
