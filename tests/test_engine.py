import dataclasses
import math

import numpy as np
import pytest

from conftest import packed
from dpgrr.dataio import synthesize_classification
from dpgrr.engine import (
    NonFiniteIterate,
    ProblemBundle,
    RunConfig,
    StepBoundViolation,
    StepRule,
    run,
    step_scale_bound,
)
from dpgrr.netgraph import (
    GraphSchedule,
    StepsMode,
    consensus_weights_for_epoch,
    metropolis_weights,
)
from dpgrr.objectives import (
    DimensionMismatch,
    EmptyData,
    SmoothLossKind,
    full_objective,
    lipschitz_constant,
    sample_value_grad,
)
from dpgrr.proxops import Regularizer, prox, subgradient
from dpgrr.reference import solve_centralized
from dpgrr.sampling import Mode, epoch_indices

LS = SmoothLossKind.LEAST_SQUARES
LOG = SmoothLossKind.LOGISTIC


def two_agent_problem(reg=None, labels=(1.0, 3.0)):
    complete = metropolis_weights({(0, 1)}, 2, 0.5)
    return ProblemBundle(
        *packed([([1.0], labels[0])], [([1.0], labels[1])]),
        kind=LS,
        regularizer=reg or Regularizer.zero(),
        schedule=GraphSchedule((complete,), 1),
    )


def test_single_agent_single_epoch_gradient_step(toy_ls_problem):
    cfg = RunConfig("dpg-rr", 1, StepRule.constant(0.5))
    trace = run(cfg, toy_ls_problem)
    assert trace.x_final.shape == (1, 1)
    assert trace.x_final[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_tiny_step_changes_almost_nothing(toy_ls_problem):
    cfg = RunConfig("dpg-rr", 3, StepRule.constant(1e-300))
    trace = run(cfg, toy_ls_problem)
    assert abs(trace.x_final[0, 0]) < 1e-290


def test_zero_step_rejected():
    with pytest.raises(ValueError):
        StepRule.constant(0.0)


def test_t_zero_records_only_initial_row(toy_ls_problem):
    trace = run(RunConfig("dpg-rr", 0, StepRule.constant(0.1)), toy_ls_problem)
    assert len(trace.rows) == 1
    row = trace.rows[0]
    assert row.epoch == 0
    assert row.f_hat is None and row.suboptimality is None
    assert row.disagreement == 0.0 and row.max_consensus_dist == 0.0


def test_two_agents_complete_graph_matches_hand_average():
    # one sample each, zero penalty, one communication step per epoch: the
    # network average follows x <- (1 - gamma) x + gamma * mean(labels)
    problem = two_agent_problem()
    cfg = RunConfig(
        "dpg-rr", 2, StepRule.constant(0.25), steps_mode=StepsMode.fixed(1)
    )
    trace = run(cfg, problem)
    x = 0.0
    for _ in range(2):
        x = 0.75 * x + 0.25 * 2.0
    assert trace.x_final[0, 0] == pytest.approx(x, abs=1e-12)
    assert trace.x_final[1, 0] == pytest.approx(x, abs=1e-12)
    # intermediate epoch too
    assert trace.x_bar[1][0] == pytest.approx(0.5, abs=1e-12)


def test_identical_agents_stay_identical():
    # same data, same start, shared sampler streams: trajectories must agree
    # bit for bit because mixing is doubly stochastic
    features, labels = synthesize_classification(m=1, n=4, d=3, separation=1.0, seed=2)
    problem = ProblemBundle(
        np.concatenate([features, features]),
        np.concatenate([labels, labels]),
        kind=LOG,
        regularizer=Regularizer.l1(0.01),
        schedule=GraphSchedule((metropolis_weights({(0, 1)}, 2, 0.5),), 1),
    )
    cfg = RunConfig(
        "dpg-rr", 20, StepRule.constant(0.1), seed=3, share_agent_streams=True,
        store_snapshots=True,
    )
    trace = run(cfg, problem)
    for snap in trace.snapshots.values():
        assert np.array_equal(snap[0], snap[1])


def test_determinism_bit_identical(canonical_problem):
    cfg = RunConfig("dpg-rr", 40, StepRule.sqrt_horizon(), seed=11, store_snapshots=True)
    a = run(cfg, canonical_problem)
    b = run(cfg, canonical_problem)
    assert a.rows == b.rows
    for t in a.snapshots:
        assert np.array_equal(a.snapshots[t], b.snapshots[t])


def test_average_iterate_identities(canonical_problem):
    cfg = RunConfig("dpg-rr", 30, StepRule.sqrt_horizon(), seed=4, store_snapshots=True)
    trace = run(cfg, canonical_problem)
    accum = np.zeros(canonical_problem.dim)
    for t in range(1, 31):
        snap = trace.snapshots[t]
        assert np.array_equal(trace.x_bar[t], snap.mean(axis=0))
        accum += snap.mean(axis=0)
        assert np.array_equal(trace.x_hat[t], accum / t)


def test_rows_recomputable_from_snapshots(canonical_problem):
    cfg = RunConfig("dpg-rr", 25, StepRule.sqrt_horizon(), seed=6, store_snapshots=True)
    trace = run(cfg, canonical_problem)
    for row in trace.rows:
        snap = trace.snapshots[row.epoch]
        f_bar = full_objective(
            canonical_problem.features,
            canonical_problem.labels,
            canonical_problem.regularizer,
            canonical_problem.kind,
            snap.mean(axis=0),
        )
        assert row.f_bar == pytest.approx(f_bar, abs=1e-10)


def test_samplers_share_the_engine_path():
    # with one local sample every index stream is [0], so all three
    # proximal algorithms must produce bit-identical traces
    problem = two_agent_problem(reg=Regularizer.l1(0.05))
    traces = [
        run(RunConfig(algo, 10, StepRule.constant(0.2), seed=5), problem)
        for algo in ("dpg-rr", "dpg-sg", "dpg-ig")
    ]
    for other in traces[1:]:
        assert np.array_equal(traces[0].x_final, other.x_final)
        assert traces[0].rows == other.rows


def test_cadence_controls_recording(canonical_problem):
    cfg = RunConfig("dpg-rr", 10, StepRule.sqrt_horizon(), seed=1, cadence=4)
    trace = run(cfg, canonical_problem)
    assert [r.epoch for r in trace.rows] == [0, 4, 8, 10]


def test_sqrt_rule_uses_bound_by_default(canonical_problem):
    lip = lipschitz_constant(canonical_problem.features, canonical_problem.kind)
    cfg = RunConfig("dpg-rr", 100, StepRule.sqrt_horizon(), seed=1, cadence=100)
    trace = run(cfg, canonical_problem)
    want = step_scale_bound(lip, canonical_problem.n) / math.sqrt(100)
    assert trace.gamma == pytest.approx(want, rel=1e-15)


def test_step_bound_enforced_and_warned(canonical_problem):
    lip = lipschitz_constant(canonical_problem.features, canonical_problem.kind)
    too_big = 2.0 * step_scale_bound(lip, canonical_problem.n)
    cfg = RunConfig("dpg-rr", 5, StepRule.sqrt_horizon(too_big), seed=1)
    with pytest.raises(StepBoundViolation):
        run(cfg, canonical_problem)
    relaxed = dataclasses.replace(cfg, enforce_step_bound=False)
    with pytest.warns(UserWarning):
        run(relaxed, canonical_problem)


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_iterate_reports_context():
    problem = ProblemBundle(
        *packed([([1.0], 0.0), ([1.0], 0.0)]),
        kind=LS,
        regularizer=Regularizer.zero(),
        schedule=GraphSchedule((metropolis_weights(set(), 1, 1.0),), 1),
    )
    cfg = RunConfig("dpg-rr", 1, StepRule.constant(1e200), x0=1.0)
    with pytest.raises(NonFiniteIterate) as err:
        run(cfg, problem)
    assert err.value.agent == 0
    assert err.value.epoch == 0
    assert err.value.inner_step == 1
    assert "agent 0" in str(err.value)


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_report_follows_serial_agent_order():
    # agent 1 overflows at inner step 0, agent 0 only at step 1; agent 0's
    # pass comes first in serial order, so it is the one reported
    problem = ProblemBundle(
        *packed([([1.0], 0.0)] * 2, [([1e200], 0.0)] * 2),
        kind=LS,
        regularizer=Regularizer.zero(),
        schedule=GraphSchedule((metropolis_weights({(0, 1)}, 2, 0.5),), 1),
    )
    cfg = RunConfig("dpg-rr", 1, StepRule.constant(1e200), x0=1.0)
    with pytest.raises(NonFiniteIterate) as err:
        run(cfg, problem)
    assert (err.value.agent, err.value.epoch) == (0, 0)
    assert (err.value.phase, err.value.inner_step) == ("inner", 1)


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        RunConfig("dpg-xx", 1, StepRule.constant(0.1))


# -- subgradient baseline ----------------------------------------------------


def test_dgm_single_agent_first_step(toy_ls_problem):
    trace = run(RunConfig("dgm", 1, StepRule.constant(0.5)), toy_ls_problem)
    # gamma_0 = 0.5 / sqrt(1); gradient at 0 is -1
    assert trace.x_final[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_dgm_steps_decay_like_inverse_sqrt(toy_ls_problem):
    trace = run(RunConfig("dgm", 3, StepRule.constant(0.5)), toy_ls_problem)
    x = 0.0
    for t in range(3):
        gamma_t = 0.5 / math.sqrt(t + 1.0)
        x = x - gamma_t * (x - 1.0)
    assert trace.x_final[0, 0] == pytest.approx(x, abs=1e-14)


def test_dgm_identity_mixing_keeps_agents_independent():
    identity = metropolis_weights(set(), 2, 0.5)
    problem = ProblemBundle(
        *packed([([1.0], 1.0)], [([1.0], 5.0)]),
        kind=LS,
        regularizer=Regularizer.l1(0.01),
        schedule=GraphSchedule((identity,), 1),
    )
    trace = run(RunConfig("dgm", 4, StepRule.constant(0.3)), problem)
    for j, label in enumerate((1.0, 5.0)):
        x = np.zeros(1)
        for t in range(4):
            gamma_t = 0.3 / math.sqrt(t + 1.0)
            g = (x[0] - label) * 1.0 + subgradient(Regularizer.l1(0.01), x)[0]
            x = x - gamma_t * g
        assert trace.x_final[j, 0] == pytest.approx(x[0], abs=1e-14)


def test_dgm_requires_constant_rule(toy_ls_problem):
    with pytest.raises(ValueError):
        run(RunConfig("dgm", 2, StepRule.sqrt_horizon()), toy_ls_problem)


def test_dgm_slower_than_reshuffling_on_seeded_problem():
    features, labels = synthesize_classification(m=3, n=10, d=5, separation=1.0, seed=6)
    reg = Regularizer.l1(0.01)
    slots = [{(0, 1)}, {(1, 2)}, {(0, 2)}]
    schedule = GraphSchedule(
        tuple(metropolis_weights(s, 3, 0.1) for s in slots), 3
    )
    sol = solve_centralized(features, labels, reg, LOG, tol=1e-10)
    problem = ProblemBundle(
        features, labels, kind=LOG, regularizer=reg, schedule=schedule,
        f_star=sol.f_star, x_star=sol.x_star,
    )
    rr = run(RunConfig("dpg-rr", 200, StepRule.constant(0.1), seed=1, cadence=200), problem)
    dgm = run(RunConfig("dgm", 200, StepRule.constant(0.1), seed=1, cadence=200), problem)
    assert dgm.rows[-1].suboptimality > rr.rows[-1].suboptimality > -1e-9


def test_bundle_checks_and_owns_its_arrays(toy_ls_problem):
    features, labels = packed([([1.0, 2.0], 1.0), ([3.0, 4.0], -1.0)])
    p = dataclasses.replace(toy_ls_problem, features=features, labels=labels)
    assert (p.m, p.n, p.dim) == (1, 2, 2)
    assert np.array_equal(p.features, features) and np.array_equal(p.labels, labels)
    # read-only copies: the caller's arrays stay writable and apart
    with pytest.raises(ValueError):
        p.features[0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        p.labels[0, 0] = 5.0
    features[0, 0, 0] = labels[0, 0] = 5.0
    assert p.features[0, 0, 0] == 1.0 and p.labels[0, 0] == 1.0
    for shapes in ((features, labels[:, :1]), (features[0], labels), (features, labels[0])):
        with pytest.raises(DimensionMismatch):
            dataclasses.replace(p, features=shapes[0], labels=shapes[1])
    for empty in ((features[:, :0], labels[:, :0]), (features[:0], labels[:0])):
        with pytest.raises(EmptyData):
            dataclasses.replace(p, features=empty[0], labels=empty[1])
    nan_features, nan_labels = features.copy(), labels.copy()
    nan_features[0, 1, 1] = nan_labels[0, 1] = np.nan
    for bad in ({"features": nan_features}, {"labels": nan_labels}):
        with pytest.raises(ValueError, match="non-finite"):
            dataclasses.replace(p, **{"features": features, "labels": labels, **bad})
    # identity comparison: neither == nor hash raises on the arrays
    assert (p == dataclasses.replace(p)) is False
    assert p == p and hash(p) == hash(p)


# -- diagnostics -------------------------------------------------------------


def test_forward_deviation_recorded(canonical_problem):
    cfg = RunConfig("dpg-rr", 5, StepRule.sqrt_horizon(), seed=2, record_v=True)
    trace = run(cfg, canonical_problem)
    assert trace.rows[0].forward_deviation is None
    for row in trace.rows[1:]:
        assert row.forward_deviation is not None
        assert row.forward_deviation >= 0.0


def test_forward_deviation_shrinks_with_step(canonical_problem):
    # inner drift scales with the step size: halving gamma should cut the
    # typical deviation by well over 2x (it scales quadratically)
    def median_v(gamma):
        cfg = RunConfig("dpg-rr", 40, StepRule.constant(gamma), seed=3, record_v=True)
        trace = run(cfg, canonical_problem)
        return float(np.median([r.forward_deviation for r in trace.rows[1:]]))

    assert median_v(0.005) <= 0.5 * median_v(0.01)


def test_sigma_star_recorded(canonical_problem):
    cfg = RunConfig(
        "dpg-rr", 2, StepRule.sqrt_horizon(), seed=2, record_sigma_star=True
    )
    trace = run(cfg, canonical_problem)
    values = {r.sigma_star_sq for r in trace.rows}
    assert len(values) == 1
    assert values.pop() > 0.0


def test_sigma_star_needs_reference_point(canonical_problem):
    stripped = dataclasses.replace(canonical_problem, x_star=None)
    cfg = RunConfig("dpg-rr", 1, StepRule.sqrt_horizon(), record_sigma_star=True)
    with pytest.raises(ValueError):
        run(cfg, stripped)


# -- serial reference ----------------------------------------------------------

_MODES = {"dpg-rr": Mode.RR, "dpg-sg": Mode.SG, "dpg-ig": Mode.IG}


def serial_reference(cfg, problem):
    """Per-agent, per-sample loop over lists of vectors: epoch -> (snapshot, V_t)."""
    m, n, kind, reg = problem.m, problem.n, problem.kind, problem.regularizer
    gamma = cfg.step.gamma
    xs = [np.full(problem.dim, cfg.x0) for _ in range(m)]
    out = {0: (np.stack(xs), None)}
    for t in range(cfg.horizon):
        v_t = None
        if cfg.algorithm == "dgm":
            w = problem.schedule.matrix(t).weights
            mixed = [sum(w[j, k] * xs[k] for k in range(m)) for j in range(m)]
            xs = []
            for v, rows, labels in zip(mixed, problem.features, problem.labels):
                g = subgradient(reg, v)
                for a, label in zip(rows, labels):
                    g = g + sample_value_grad(kind, a, label, v)[1]
                xs.append(v - gamma / math.sqrt(t + 1.0) * g)
        else:
            inner_avg, local = np.zeros((n, problem.dim)), []
            for j in range(m):
                x = xs[j].copy()
                order = epoch_indices(_MODES[cfg.algorithm], cfg.seed, t, m, n)[j]
                for i, idx in enumerate(order):
                    inner_avg[i] += x / m
                    a, label = problem.features[j, idx], problem.labels[j, idx]
                    x = x - gamma * sample_value_grad(kind, a, label, x)[1]
                local.append(x)
            w = consensus_weights_for_epoch(problem.schedule, t, cfg.steps_mode).weights
            xs = [prox(reg, gamma, sum(w[j, k] * local[k] for k in range(m))) for j in range(m)]
            v_t = float(np.sum((inner_avg - np.mean(xs, axis=0)) ** 2))
        out[t + 1] = (np.stack(xs), v_t)
    return out


@pytest.mark.parametrize("algo", ["dpg-rr", "dpg-sg", "dpg-ig", "dgm"])
def test_engine_matches_serial_reference(canonical_problem, algo):
    p = canonical_problem
    cfg = RunConfig(algo, 12, StepRule.constant(0.05), seed=9, store_snapshots=True,
                    record_v=True)
    trace = run(cfg, p)
    want = serial_reference(cfg, p)
    w = p.schedule.matrix(0).weights
    x_hat_sum = np.zeros(p.dim)
    for row in trace.rows:
        snap, v_t = want[row.epoch]
        assert np.abs(trace.snapshots[row.epoch] - snap).max() <= 1e-12
        x_bar = snap.mean(axis=0)
        x_hat_sum += x_bar if row.epoch else 0.0
        assert row.f_bar == pytest.approx(
            full_objective(p.features, p.labels, p.regularizer, p.kind, x_bar), abs=1e-12)
        if row.epoch:
            f_hat = full_objective(
                p.features, p.labels, p.regularizer, p.kind, x_hat_sum / row.epoch)
            assert row.f_hat == pytest.approx(f_hat, abs=1e-12)
        energy = 0.5 * sum(w[i, j] * np.sum((snap[i] - snap[j]) ** 2)
                           for i in range(p.m) for j in range(p.m))
        assert row.disagreement == pytest.approx(energy, abs=1e-12)
        dist = max(np.linalg.norm(x - x_bar) for x in snap)
        assert row.max_consensus_dist == pytest.approx(dist, abs=1e-12)
        if v_t is None:
            assert row.forward_deviation is None
        else:
            assert row.forward_deviation == pytest.approx(v_t, abs=1e-12)
