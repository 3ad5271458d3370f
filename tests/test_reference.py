import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import iterates, packed, sqrt_step
from dpgrr.dataio import synthesize_classification
from dpgrr.engine import ProblemBundle, RunConfig, run
from dpgrr.netgraph import GraphSchedule, metropolis_weights
from dpgrr.objectives import SmoothLossKind, full_objective, smooth_curvature
from dpgrr.proxops import Regularizer, RegKind, prox
from dpgrr.reference import solve_centralized, store_fixture, usable_fixture
from oracles import centralized_prox_rr, loss_derivative, packed_smooth_grad, sigmoid, span_sum

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
        # one gemv, the margins ``full_objective`` takes for every point of
        # a stack; the value takes the softplus form
        # max(u, 0) + log1p(exp(-|u|)) and sums the losses as BLAS dots
        # with ones over spans of at most 8192, in order, as it does
        z = features @ x
        if kind is LOG:
            u = -(labels * z)
            losses = np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))
            value = span_sum(losses) / m
        else:
            r = z - labels
            value = 0.5 * span_sum(r * r) / m
        return value, features.T @ (loss_derivative(kind, z, labels) / m)

    def mapping(x):
        _, grad = value_grad(x)
        forward = prox(reg, step, x - step * grad)
        return grad, forward, float(np.linalg.norm(x - forward)) / step

    def newton_step(x, grad, signs):
        # Newton's step for the smooth part plus the penalty on the face of
        # ``signs`` (every coordinate for ZERO), from x
        face = np.arange(dim) if reg.kind is RegKind.ZERO else np.flatnonzero(signs)
        a = features[:, face]
        if kind is LOG:
            p = sigmoid(-(labels * (features @ x)))
            weights = p * (1.0 - p) / m
        else:
            weights = 1.0 / m
        slope = grad[face]
        if reg.kind is RegKind.L1:
            slope = slope + reg.lam * signs[face]
        if reg.kind is RegKind.L1 and face.size > len(features):
            # the least-norm solution a^T G^-1 W^-1 G^-1 a slope, G = a a^T
            gram = a @ a.T
            delta = a.T @ np.linalg.solve(gram, np.linalg.solve(gram, a @ slope) / weights)
        else:
            if kind is LOG:
                hessian = a.T @ (a * weights[:, None])
            else:
                hessian = a.T @ (a / m)
            if reg.kind is RegKind.SQUARED_L2:
                for i in range(face.size):
                    hessian[i, i] += reg.lam
                slope = slope + reg.lam * x[face]
            delta = np.linalg.solve(hessian, slope)
        newton = np.zeros(dim)
        newton[face] = x[face] - delta
        return newton

    # accelerated proximal gradient with gradient restart, spelled out,
    # and Newton finishes on a sign pattern that holds
    x = y = np.zeros(dim)
    theta = 1.0
    iterations = 0
    held, previous, failed, retry = 0, None, None, 0
    while True:
        grad, forward, mapping_norm = mapping(y)
        best, best_norm = y, mapping_norm
        if mapping_norm <= tol or iterations == max_iters:
            break
        signs = np.sign(forward)
        if previous is not None and np.array_equal(signs, previous):
            held += 1
        else:
            held = 0
        previous = signs
        if held >= 3 and (
            held >= retry or failed is None or not np.array_equal(signs, failed)
        ):
            # the finish takes Newton steps while each lowers the mapping
            # norm and keeps the objective at most its value at y; on an L1
            # face a coordinate that crosses zero is set to 0, and the next
            # step takes the face of forward's signs at the point kept
            point_grad, face_signs = grad, signs
            value = value_grad(best)[0] + reg.value(best)
            with np.errstate(all="ignore"):
                while iterations < max_iters:
                    try:
                        newton = newton_step(best, point_grad, face_signs)
                    except np.linalg.LinAlgError:
                        break
                    iterations += 1
                    crossed = np.sign(newton) != face_signs
                    if reg.kind is RegKind.L1:
                        newton = np.where(crossed, 0.0, newton)
                    elif crossed.any():
                        break
                    newton_grad, newton_forward, newton_norm = mapping(newton)
                    if not newton_norm < best_norm:
                        break
                    if not value_grad(newton)[0] + reg.value(newton) <= value:
                        break
                    best, best_norm = newton, newton_norm
                    point_grad = newton_grad
                    if reg.kind is RegKind.L1:
                        face_signs = np.sign(newton_forward)
                    if best_norm <= tol:
                        break
            if best_norm <= tol or iterations == max_iters:
                break
            failed, retry = signs, 2 * held
        restart = np.dot(y - forward, forward - x) > 0.0
        if restart:
            theta = 1.0
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        momentum = (theta - 1.0) / theta_next
        x, y = forward, forward + momentum * (forward - x)
        theta = theta_next
        iterations += 1
    value, _ = value_grad(best)
    return best, value + reg.value(best), best_norm, iterations


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
    # one agent's 4 samples over the 6 features: an L1 face may be wider
    # than the samples
    problems = [(data, labels) for data in (features, unseen, signed_zero)]
    problems.append((features[:1], labels[:1]))
    for data, data_labels in problems:
        for tol, max_iters in ((1e-9, 12_000), (1e-14, 300)):
            _assert_solves_as_the_loop(data, data_labels, reg, kind, tol, max_iters)


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


def test_no_convergence_returns_flagged_best_effort(canonical_problem, monkeypatch):
    p = canonical_problem
    args = (p.features, p.labels, p.regularizer, p.kind)
    full = solve_centralized(*args, tol=1e-14)
    assert full.converged
    systems = []  # one entry per Newton system
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: systems.append(a) or solve(*a))
    taken = []
    for max_iters in range(full.iterations):
        del systems[:]
        sol = solve_centralized(*args, tol=1e-14, max_iters=max_iters)
        taken.append(len(systems))
        assert not sol.converged
        assert sol.iterations == max_iters
        assert np.all(np.isfinite(sol.x_star))
        # the reported mapping norm is the one measured at the returned point
        grad = packed_smooth_grad(p.features, p.labels, p.kind, sol.x_star)
        forward = prox(p.regularizer, sol.step, sol.x_star - sol.step * grad)
        assert float(np.linalg.norm(sol.x_star - forward)) / sol.step == sol.mapping_norm
    # some budget's last iteration is a Newton step: it ran out inside a finish
    assert any(b > a for a, b in zip(taken, taken[1:]))


@pytest.mark.parametrize(
    # iterations of the FISTA solve alone: 816 and 301; with a Newton finish
    # that ended at a sign crossing, 155 and 11
    ("name", "most"), [("a9a_subset", 100), ("sampler_comparison", 30)],
)
def test_newton_finish_certifies_shipped_problems_in_few_iterations(configs_dir, name, most):
    from dpgrr.cli import ORACLE_TOL
    from dpgrr.config import build_problem, load_config

    problem, _ = build_problem(load_config(configs_dir / f"{name}.yaml"))
    sol = solve_centralized(
        problem.features, problem.labels, problem.regularizer, problem.kind, tol=ORACLE_TOL
    )
    assert sol.converged and sol.iterations <= most


@pytest.mark.parametrize("lam", [0.0, 5e-324])
def test_a9a_subset_without_a_penalty_is_certified(configs_dir, lam):
    # 40 samples over 120 seen features: every L1 face of forward's signs is
    # wider than the samples, and with no penalty the rows are separable, so
    # F* is 0, approached as the margins grow; the best-effort FISTA solve
    # spent its whole budget of 500000 iterations here
    from dpgrr.cli import ORACLE_TOL
    from dpgrr.config import build_problem, load_config

    problem, _ = build_problem(load_config(configs_dir / "a9a_subset.yaml"))
    sol = solve_centralized(
        problem.features, problem.labels, Regularizer.l1(lam), problem.kind, tol=ORACLE_TOL
    )
    assert sol.converged and sol.iterations <= 100
    assert 0.0 < sol.f_star < 1e-9


def test_a_newton_step_across_zero_is_projected_onto_the_face():
    # least squares under 2 |x|_1, solved by x* = (0, -1.2, 0) with F* = 2.9:
    # after 3 FISTA iterations forward's pattern (0, -, +) has held, and
    # Newton's step on that face takes the third coordinate across zero; the
    # finish sets it to 0 and keeps the point, and one more step, on the
    # face (0, -, 0) of forward there, is exact
    data = packed([([0.0, 0.0, 3.0], 0.0), ([-2.0, 2.0, 1.0], -3.0), ([-3.0, -1.0, 3.0], 2.0)])
    reg = Regularizer.l1(2.0)
    fista = solve_centralized(*data, reg, LS, tol=1e-12, max_iters=3)
    y = fista.x_star
    grad = packed_smooth_grad(*data, LS, y)
    assert np.sign(prox(reg, fista.step, y - fista.step * grad)).tolist() == [0.0, -1.0, 1.0]
    a = data[0][0][:, 1:]
    newton = y[1:] - np.linalg.solve(a.T @ a, grad[1:] + 2.0 * np.array([-1.0, 1.0]))
    assert newton[0] < 0.0 and newton[1] < 0.0 < y[2]

    projected = solve_centralized(*data, reg, LS, tol=1e-12, max_iters=4)
    assert projected.x_star[0] == 0.0 and projected.x_star[2] == 0.0
    assert projected.x_star[1] == pytest.approx(newton[0], rel=1e-12)
    assert projected.mapping_norm < fista.mapping_norm
    sol = solve_centralized(*data, reg, LS, tol=1e-12)
    assert sol.converged and sol.iterations == 5
    assert sol.x_star.tolist() == pytest.approx([0.0, -1.2, 0.0], abs=1e-15)
    assert sol.f_star == pytest.approx(2.9, rel=1e-15)


def test_a_newton_point_above_the_objective_at_y_is_not_kept(monkeypatch):
    # logistic under 0.01 |x|_1, solved by x* = (0, 0, -4.595): the second
    # and third samples have opposite rows and one label, and the first
    # Newton step, on the face (-, +, -), goes out so far along x1 = -x2
    # that the first sample's sigmoid underflows, the other two cancel, and
    # the penalty's shift rounds away; the mapping norm there measures 0,
    # but the objective is about 2.4e12
    import dpgrr.reference as reference

    data = packed([([0.0, 1.0, -1.0], 1.0), ([1.0, 1.0, 0.0], -1.0), ([-1.0, -1.0, 0.0], -1.0)])
    reg = Regularizer.l1(0.01)
    sol = solve_centralized(*data, reg, LOG, tol=1e-10)
    monkeypatch.setattr(reference, "_NEWTON_HOLD", math.inf)
    fista = solve_centralized(*data, reg, LOG, tol=1e-10)
    assert sol.converged and fista.converged
    assert sol.f_star == pytest.approx(fista.f_star, rel=1e-12)
    assert sol.x_star == pytest.approx(fista.x_star, abs=1e-7)


def test_a_singular_hessian_leaves_the_solve_to_fista(monkeypatch):
    # least squares without a penalty, three features over two samples, the
    # third in neither: every Newton system has a zero row, so np.linalg.solve
    # refuses it, and the solve is FISTA's alone, certificate and all
    import dpgrr.reference as reference

    data = packed([([1.0, 2.0, 0.0], 1.0), ([3.0, -1.0, 0.0], 2.0)])
    refused = []
    solve = np.linalg.solve

    def refusing(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            refused.append(a)
            raise

    monkeypatch.setattr(np.linalg, "solve", refusing)
    sol = solve_centralized(*data, Regularizer.zero(), LS, tol=1e-12)
    assert refused
    monkeypatch.setattr(reference, "_NEWTON_HOLD", math.inf)
    fista = solve_centralized(*data, Regularizer.zero(), LS, tol=1e-12)
    assert sol.converged and sol.mapping_norm <= 1e-12
    assert sol.x_star.tobytes() == fista.x_star.tobytes()
    assert (sol.iterations, sol.mapping_norm, sol.f_star) == (
        fista.iterations, fista.mapping_norm, fista.f_star)
    forward = sol.x_star - sol.step * packed_smooth_grad(*data, LS, sol.x_star)
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
        [RunConfig("dpg-rr", 60, sqrt_step(canonical_problem, 60), seed=3)], canonical_problem
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
    cfg = RunConfig("dpg-rr", 50, 0.1, seed=21)
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
