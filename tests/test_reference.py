import numpy as np
import pytest

from conftest import packed
from dpgrr.dataio import synthesize_classification
from dpgrr.engine import ProblemBundle, RunConfig, StepRule, run
from dpgrr.netgraph import GraphSchedule, metropolis_weights
from dpgrr.objectives import (
    SmoothLossKind,
    full_objective,
    lipschitz_constant,
    loss_derivative,
    packed_smooth_grad,
)
from dpgrr.proxops import Regularizer, prox
from dpgrr.reference import (
    centralized_prox_rr,
    load_fixtures,
    solve_centralized,
    store_fixture,
    fixture_x_star,
)

LS = SmoothLossKind.LEAST_SQUARES
LOG = SmoothLossKind.LOGISTIC


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
    step = 1.0 / (
        canonical_problem.n
        * lipschitz_constant(canonical_problem.features, canonical_problem.kind)
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
    step = 1.0 / (n * lipschitz_constant(agent_rows, kind))

    def value_grad(x):
        z = features @ x
        if kind is LOG:
            value = float(np.sum(np.logaddexp(0.0, -(labels * z)))) / m
        else:
            r = z - labels
            value = 0.5 * float(np.dot(r, r)) / m
        return value, features.T @ (loss_derivative(kind, z, labels) / m)

    x = np.zeros(dim)
    iterations = 0
    mapping_norm = float("inf")
    for _ in range(max_iters + 1):
        _, grad = value_grad(x)
        forward = prox(reg, step, x - step * grad)
        mapping_norm = float(np.linalg.norm(x - forward)) / step
        if mapping_norm <= tol or iterations == max_iters:
            break
        x = forward
        iterations += 1
    value, _ = value_grad(x)
    return x, value + reg.value(x), mapping_norm, iterations


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
    for tol, max_iters in ((1e-9, 12_000), (1e-14, 300)):
        sol = solve_centralized(
            features, labels, reg, kind, tol=tol, max_iters=max_iters
        )
        x, f, mapping_norm, iterations = _value_and_gradient_solve(
            features, labels, reg, kind, tol, max_iters
        )
        assert np.array_equal(sol.x_star, x)
        assert sol.iterations == iterations
        assert sol.mapping_norm == mapping_norm
        assert sol.f_star == f
        assert sol.converged == (mapping_norm <= tol)


def test_committed_fixture_matches_fresh_solve(canonical_problem, canonical_config):
    # the checked-in optimal value for the canonical problem must agree
    # with a from-scratch solve on this platform
    from dpgrr.config import problem_hash

    fixtures = load_fixtures(canonical_config.fixtures_path())
    entry = fixtures[problem_hash(canonical_config)]
    assert entry["f_star"] == pytest.approx(canonical_problem.f_star, abs=1e-8)
    x_star = fixture_x_star(canonical_config.fixtures_path(), entry)
    assert np.allclose(x_star, canonical_problem.x_star, atol=1e-6)


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


def test_full_objective_agrees_at_reference_point(canonical_problem):
    got = full_objective(
        canonical_problem.features,
        canonical_problem.labels,
        canonical_problem.regularizer,
        canonical_problem.kind,
        canonical_problem.x_star,
    )
    assert got == pytest.approx(canonical_problem.f_star, abs=1e-9)


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


def test_optimality_floor_over_engine_iterates(canonical_problem):
    [trace] = run(
        [RunConfig("dpg-rr", 60, StepRule.sqrt_horizon(), seed=3)], canonical_problem
    )
    for row in trace.rows:
        assert row.f_bar >= canonical_problem.f_star - 1e-9
        if row.f_hat is not None:
            assert row.f_hat >= canonical_problem.f_star - 1e-9


# -- centralized reshuffled baseline ----------------------------------------


def test_prox_rr_single_sample_is_gradient_descent():
    iterates = centralized_prox_rr(
        np.array([[1.0]]), np.array([1.0]), LS, Regularizer.zero(), gamma=0.5, horizon=1,
        seed=0,
    )
    assert iterates.shape == (2, 1)
    assert iterates[1, 0] == pytest.approx(0.5, abs=1e-15)


def test_prox_rr_monotone_descent_small_step():
    features, labels = synthesize_classification(m=1, n=8, d=4, separation=1.0, seed=3)
    iterates = centralized_prox_rr(
        features[0], labels[0], LOG, Regularizer.zero(), gamma=0.01,
        horizon=30, seed=1,
    )
    values = [
        full_objective(features, labels, Regularizer.zero(), LOG, x) for x in iterates
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
    cfg = RunConfig(
        "dpg-rr", 50, StepRule.constant(0.1), seed=21, store_snapshots=True
    )
    [trace] = run([cfg], problem)
    iterates = centralized_prox_rr(
        features[0], labels[0], LOG, reg, gamma=0.1, horizon=50, seed=21
    )
    for t in range(51):
        assert np.allclose(trace.snapshots[t][0], iterates[t], atol=1e-12)


# -- fixture store -----------------------------------------------------------


def test_fixture_store_roundtrip_and_idempotence(tmp_path):
    sol = solve_centralized(*packed([([1.0], 2.0)]), Regularizer.l1(1.0), LS, tol=1e-12)
    path = tmp_path / "fixtures" / "oracle.json"
    assert store_fixture(path, "abc123", sol, 1e-12)
    entry = load_fixtures(path)["abc123"]
    assert entry["f_star"] == sol.f_star  # exact round trip through JSON
    assert np.allclose(fixture_x_star(path, entry), sol.x_star, atol=1e-15)
    # re-storing at an equal or looser tolerance is a no-op
    assert not store_fixture(path, "abc123", sol, 1e-12)
    assert not store_fixture(path, "abc123", sol, 1e-8)
    # a tighter request re-solves
    assert store_fixture(path, "abc123", sol, 1e-13)
