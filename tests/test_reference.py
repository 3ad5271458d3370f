import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import iterates, packed
from dpgrr.dataio import synthesize_classification
from dpgrr.engine import ProblemBundle, RunConfig, StepRule, run
from dpgrr.netgraph import GraphSchedule, metropolis_weights
from dpgrr.objectives import (
    SmoothLossKind,
    full_objective,
    loss_derivative,
    smooth_curvature,
)
from dpgrr.proxops import Regularizer, prox
from dpgrr.reference import solve_centralized, store_fixture, usable_fixture
from oracles import centralized_prox_rr, packed_smooth_grad

LS = SmoothLossKind.LEAST_SQUARES
LOG = SmoothLossKind.LOGISTIC
SHIPPED = ["a9a_subset", "sampler_comparison", "synthetic_consensus", "toy_least_squares"]


def test_exact_fit_toy():
    sol = solve_centralized(*packed([([1.0], 3.0)]), Regularizer.zero(), LS, tol=1e-12)
    assert sol.converged
    assert sol.x_star[0] == pytest.approx(3.0, abs=1e-12)
    assert sol.f_star == pytest.approx(0.0, abs=1e-14)


def test_l1_toy_has_known_solution():
    # min 0.5 (x - 2)^2 + |x|  ->  x* = 1, F* = 1.5
    sol = solve_centralized(*packed([([1.0], 2.0)]), Regularizer.l1(1.0), LS, tol=1e-12)
    assert sol.converged
    assert sol.x_star[0] == pytest.approx(1.0, abs=1e-10)
    assert sol.f_star == pytest.approx(1.5, abs=1e-10)


def test_gradient_mapping_certificate_holds(canonical_problem):
    sol = solve_centralized(
        canonical_problem.features,
        canonical_problem.labels,
        canonical_problem.regularizer,
        canonical_problem.kind,
        tol=1e-10,
    )
    assert sol.converged and sol.mapping_norm <= 1e-10
    # re-evaluate the mapping at the returned point with the solver's step
    step = sol.step
    assert step == 1.0 / smooth_curvature(
        canonical_problem.features, canonical_problem.kind
    )
    grad = packed_smooth_grad(
        canonical_problem.features,
        canonical_problem.labels,
        canonical_problem.kind,
        sol.x_star,
    )
    forward = prox(
        canonical_problem.regularizer, step, sol.x_star - step * grad
    )
    assert np.linalg.norm(sol.x_star - forward) / step <= 1e-10


def _value_and_gradient_solve(agent_rows, labels, reg, kind, tol, max_iters):
    """The solver as a loop that takes the loss value with every gradient."""
    m, n, dim = agent_rows.shape
    features, labels = agent_rows.reshape(m * n, dim), labels.reshape(m * n)
    step = 1.0 / smooth_curvature(agent_rows, kind)

    def value_grad(x):
        z = features @ x
        # the value takes per-point einsum margins, the softplus form
        # max(u, 0) + log1p(exp(-|u|)) and sums in sample order, as
        # ``full_objective`` does for every point of a stack
        margins = np.einsum("kd,sd->sk", features, x[None])[0]
        if kind is LOG:
            u = -(labels * margins)
            losses = np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))
            value = float(np.cumsum(losses)[-1]) / m
        else:
            r = margins - labels
            value = 0.5 * float(np.cumsum(r * r)[-1]) / m
        return value, features.T @ (loss_derivative(kind, z, labels) / m)

    # accelerated proximal gradient with gradient restart, spelled out
    x = y = np.zeros(dim)
    theta = 1.0
    iterations = 0
    while True:
        _, grad = value_grad(y)
        forward = prox(reg, step, y - step * grad)
        mapping_norm = float(np.linalg.norm(y - forward)) / step
        if mapping_norm <= tol or iterations == max_iters:
            break
        restart = np.dot(y - forward, forward - x) > 0.0
        if restart:
            theta = 1.0
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        momentum = (theta - 1.0) / theta_next
        x, y = forward, forward + momentum * (forward - x)
        theta = theta_next
        iterations += 1
    value, _ = value_grad(y)
    return y, value + reg.value(y), mapping_norm, iterations


@pytest.mark.parametrize("kind", [LOG, LS])
@pytest.mark.parametrize(
    "reg", [Regularizer.zero(), Regularizer.l1(0.05), Regularizer.squared_l2(0.1)],
    ids=["zero", "l1", "squared_l2"],
)
def test_solver_matches_value_and_gradient_loop_bit_for_bit(kind, reg):
    rng = np.random.default_rng(11)
    dim = 6
    features, labels = np.zeros((3, 4, dim)), np.empty((3, 4))
    for j, i in np.ndindex(3, 4):
        idx = np.sort(rng.choice(dim, size=int(rng.integers(1, dim + 1)), replace=False))
        labels[j, i] = float(rng.choice([-1.0, 1.0])) if kind is LOG else float(rng.normal())
        features[j, i, idx] = rng.normal(size=idx.size)
    unseen = features.copy()
    unseen[..., 2] = 0.0  # a feature no sample has: its gradient sums are zeros
    signed_zero = features.copy()
    signed_zero[0, :, 1] = -0.0
    for data in (features, unseen, signed_zero):
        for tol, max_iters in ((1e-9, 12_000), (1e-14, 300)):
            _assert_solves_as_the_loop(data, labels, reg, kind, tol, max_iters)


@pytest.mark.parametrize("name", SHIPPED)
def test_solver_matches_value_and_gradient_loop_on_shipped_problems(configs_dir, name):
    from dpgrr.config import build_problem, load_config

    problem, _ = build_problem(load_config(configs_dir / f"{name}.yaml"))
    _assert_solves_as_the_loop(
        problem.features, problem.labels, problem.regularizer, problem.kind,
        1e-10, 500_000,
    )


def _assert_solves_as_the_loop(features, labels, reg, kind, tol, max_iters):
    sol = solve_centralized(features, labels, reg, kind, tol=tol, max_iters=max_iters)
    x, f, mapping_norm, iterations = _value_and_gradient_solve(
        features, labels, reg, kind, tol, max_iters
    )
    assert sol.x_star.tobytes() == x.tobytes()  # zeros' signs included
    assert sol.iterations == iterations
    assert sol.mapping_norm == mapping_norm
    assert sol.f_star == f
    assert sol.converged == (mapping_norm <= tol)


def test_committed_fixture_matches_fresh_solve(canonical_problem, canonical_solution,
                                               canonical_config):
    # the checked-in optimal value for the canonical problem must agree
    # with a from-scratch solve on this platform
    from dpgrr.config import problem_hash

    f_star, x_star = usable_fixture(
        canonical_config.fixtures_path(), problem_hash(canonical_config),
        canonical_problem.features, canonical_problem.labels, 1e-10,
    )
    assert f_star == pytest.approx(canonical_solution.f_star, abs=1e-8)
    assert np.allclose(x_star, canonical_solution.x_star, atol=1e-6)


@pytest.mark.parametrize("name", SHIPPED)
def test_fresh_solve_reproduces_committed_fixture(configs_dir, name):
    from dpgrr.config import build_problem, load_config, problem_hash

    cfg = load_config(configs_dir / f"{name}.yaml")
    problem, _ = build_problem(cfg)
    entry = json.loads(cfg.fixtures_path().read_text())[problem_hash(cfg)]
    sol = solve_centralized(
        problem.features, problem.labels, problem.regularizer, problem.kind,
        tol=entry["tol"],
    )
    assert sol.converged
    assert sol.iterations <= entry["iterations"]
    assert abs(sol.f_star - entry["f_star"]) <= 1e-12
    _, x_star = usable_fixture(
        cfg.fixtures_path(), problem_hash(cfg), problem.features, problem.labels, entry["tol"])
    assert np.max(np.abs(sol.x_star - x_star)) <= 1e-9


@pytest.mark.parametrize("name", SHIPPED)
def test_committed_digest_matches_its_shipped_config(configs_dir, name, capsys):
    from dpgrr.config import build_problem, load_config, problem_hash

    cfg = load_config(configs_dir / f"{name}.yaml")
    problem, _ = build_problem(cfg)
    args = (cfg.fixtures_path(), problem_hash(cfg))
    assert usable_fixture(*args, problem.features, problem.labels, 1e-10) is not None
    assert capsys.readouterr().err == ""
    # one changed label is other data: the entry is stale, and says so
    labels = problem.labels.copy()
    labels[0, 0] = -labels[0, 0] if labels[0, 0] else 1.0
    assert usable_fixture(*args, problem.features, labels, 1e-10) is None
    assert capsys.readouterr().err == (
        f"note: fixture {args[1][:16]} was solved on other data; solving F* again\n"
    )


@pytest.mark.parametrize(
    # max-abs distance of the x* that plain proximal gradient stored at tol
    # 1e-10 from a tol-1e-13 solve, before the accelerated solver replaced it
    ("name", "pg_fixture_distance"),
    [("a9a_subset", 1.9e-8), ("sampler_comparison", 4.2e-8)],
)
def test_solution_is_as_close_to_a_tight_solve_as_plain_pg(
    configs_dir, name, pg_fixture_distance
):
    from dpgrr.config import build_problem, load_config

    problem, _ = build_problem(load_config(configs_dir / f"{name}.yaml"))
    args = (problem.features, problem.labels, problem.regularizer, problem.kind)
    loose = solve_centralized(*args, tol=1e-10)
    tight = solve_centralized(*args, tol=1e-13)
    assert loose.converged and tight.converged
    assert np.max(np.abs(loose.x_star - tight.x_star)) <= pg_fixture_distance


@pytest.mark.parametrize("kind", [LOG, LS])
def test_zero_features_solve_at_unit_step(kind):
    # no curvature: the smooth part is constant, the step is 1, and x = 0
    # is already optimal under the l1 penalty
    features, labels = np.zeros((2, 3, 4)), np.ones((2, 3))
    sol = solve_centralized(features, labels, Regularizer.l1(0.1), kind, tol=1e-12)
    assert sol.converged and sol.step == 1.0 and sol.iterations == 0
    assert np.array_equal(sol.x_star, np.zeros(4))
    assert sol.f_star == full_objective(
        features, labels, Regularizer.l1(0.1), kind, np.zeros(4)
    )


def test_self_consistency_two_tolerances(canonical_problem):
    a = solve_centralized(
        canonical_problem.features, canonical_problem.labels,
        canonical_problem.regularizer, canonical_problem.kind, tol=1e-8,
    )
    b = solve_centralized(
        canonical_problem.features, canonical_problem.labels,
        canonical_problem.regularizer, canonical_problem.kind, tol=1e-12,
    )
    assert a.converged and b.converged
    assert a.f_star == pytest.approx(b.f_star, abs=1e-8)


def test_full_objective_agrees_at_reference_point(canonical_problem, canonical_solution):
    got = full_objective(
        canonical_problem.features,
        canonical_problem.labels,
        canonical_problem.regularizer,
        canonical_problem.kind,
        canonical_solution.x_star,
    )
    assert got == pytest.approx(canonical_solution.f_star, abs=1e-9)


def test_no_convergence_returns_flagged_best_effort(canonical_problem):
    sol = solve_centralized(
        canonical_problem.features,
        canonical_problem.labels,
        canonical_problem.regularizer,
        canonical_problem.kind,
        tol=1e-14,
        max_iters=5,
    )
    assert not sol.converged
    assert sol.iterations == 5
    assert np.all(np.isfinite(sol.x_star))
    # the reported mapping norm is the one measured at the returned point
    grad = packed_smooth_grad(
        canonical_problem.features,
        canonical_problem.labels,
        canonical_problem.kind,
        sol.x_star,
    )
    forward = prox(canonical_problem.regularizer, sol.step, sol.x_star - sol.step * grad)
    assert float(np.linalg.norm(sol.x_star - forward)) / sol.step == sol.mapping_norm


@pytest.mark.parametrize("max_iters", [0, -3])
def test_no_budget_returns_the_start_point_it_measured(max_iters):
    # min 0.5 (x - 2)^2 from x = 0: the mapping there is |0 - 2| / 1
    sol = solve_centralized(
        *packed([([1.0], 2.0)]), Regularizer.zero(), LS, max_iters=max_iters
    )
    assert not sol.converged and sol.iterations == 0
    assert sol.x_star.tolist() == [0.0] and sol.mapping_norm == 2.0


def test_optimality_floor_over_engine_iterates(canonical_problem, canonical_solution):
    [trace] = run(
        [RunConfig("dpg-rr", 60, StepRule.sqrt_horizon(), seed=3)], canonical_problem
    )
    assert len(trace.f_bar) == 61 and len(trace.f_hat) == 60
    assert (trace.f_bar >= canonical_solution.f_star - 1e-9).all()
    assert (trace.f_hat >= canonical_solution.f_star - 1e-9).all()


# -- centralized reshuffled baseline ----------------------------------------


def test_prox_rr_single_sample_is_gradient_descent():
    oracle = centralized_prox_rr(
        np.array([[1.0]]), np.array([1.0]), LS, Regularizer.zero(), gamma=0.5, horizon=1,
        seed=0,
    )
    assert oracle.shape == (2, 1)
    assert oracle[1, 0] == pytest.approx(0.5, abs=1e-15)


def test_prox_rr_monotone_descent_small_step():
    features, labels = synthesize_classification(m=1, n=8, d=4, separation=1.0, seed=3)
    oracle = centralized_prox_rr(
        features[0], labels[0], LOG, Regularizer.zero(), gamma=0.01,
        horizon=30, seed=1,
    )
    values = [
        full_objective(features, labels, Regularizer.zero(), LOG, x) for x in oracle
    ]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_prox_rr_matches_single_agent_engine():
    features, labels = synthesize_classification(m=1, n=5, d=3, separation=1.0, seed=4)
    reg = Regularizer.l1(0.02)
    problem = ProblemBundle(
        features,
        labels,
        kind=LOG,
        regularizer=reg,
        schedule=GraphSchedule((metropolis_weights(set(), 1, 1.0),), 1),
    )
    cfg = RunConfig("dpg-rr", 50, StepRule.constant(0.1), seed=21)
    [states] = iterates([cfg], problem, run([cfg], problem))
    oracle = centralized_prox_rr(
        features[0], labels[0], LOG, reg, gamma=0.1, horizon=50, seed=21
    )
    for t in range(51):
        assert np.allclose(states[t][0], oracle[t], atol=1e-12)


# -- fixture store -----------------------------------------------------------


def test_fixture_store_roundtrip(tmp_path):
    data = packed([([1.0, 0.0, 0.0], 2.0)])
    sol = solve_centralized(*data, Regularizer.l1(1.0), LS, tol=1e-12)
    # a point whose every bit must survive: a signed zero, a subnormal
    sol = dataclasses.replace(sol, x_star=np.array([sol.x_star[0], -0.0, 5e-324]))
    path = tmp_path / "fixtures" / "oracle.json"
    store_fixture(path, "abc123", sol, 1e-12, *data)
    f_star, x_star = usable_fixture(path, "abc123", *data, 1e-12)
    assert f_star == sol.f_star  # exact round trip through JSON
    assert x_star.tobytes() == sol.x_star.tobytes()
    # an entry at an equal or looser tolerance than asked serves it; the
    # oracle then stores nothing
    assert usable_fixture(path, "abc123", *data, 1e-8) is not None
    # a tighter request finds none, and storing replaces the entry
    assert usable_fixture(path, "abc123", *data, 1e-13) is None
    store_fixture(path, "abc123", sol, 1e-13, *data)
    assert usable_fixture(path, "abc123", *data, 1e-13)[0] == sol.f_star
    assert list(json.loads(path.read_text())) == ["abc123"]


class _Interrupted(Exception):
    pass


@pytest.mark.parametrize("point", ["json.dump", "os.replace"])
def test_an_interrupted_store_leaves_the_old_store_loadable(tmp_path, monkeypatch, point):
    path = tmp_path / "fixtures" / "oracle.json"
    old_data = packed([([1.0], 2.0)])
    old = solve_centralized(*old_data, Regularizer.l1(1.0), LS, tol=1e-12)
    store_fixture(path, "abc123", old, 1e-12, *old_data)
    before = path.read_bytes()
    if point == "json.dump":
        # the JSON is half written when the process stops
        def interrupted(obj, fh, **kwargs):
            fh.write('{"abc')
            raise _Interrupted
        monkeypatch.setattr(json, "dump", interrupted)
    else:
        # the new store is written in full, but not yet moved into place
        def interrupted(source, target):
            assert Path(target) == path and Path(source).parent == path.parent
            raise _Interrupted
        monkeypatch.setattr(os, "replace", interrupted)
    new_data = packed([([1.0], 5.0)])
    new = solve_centralized(*new_data, Regularizer.l1(1.0), LS, tol=1e-12)
    with pytest.raises(_Interrupted):
        store_fixture(path, "def456", new, 1e-12, *new_data)
    assert path.read_bytes() == before
    f_star, x_star = usable_fixture(path, "abc123", *old_data, 1e-12)
    assert f_star == old.f_star
    assert np.array_equal(x_star, old.x_star)
    assert usable_fixture(path, "def456", *new_data, 1e-12) is None
    # no temporary file is left beside the store
    assert [p.name for p in path.parent.iterdir()] == ["oracle.json"]
