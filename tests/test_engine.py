import dataclasses
import math
import os
import pickle
import signal
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (
    COLUMNS, assert_no_child_left, assert_same_columns, iterates, packed, sqrt_step,
)
from dpgrr import engine
from dpgrr.config import StepRule, build_problem, load_config
from dpgrr.dataio import synthesize_classification
from dpgrr.engine import (
    NonFiniteIterate,
    ProblemBundle,
    RunConfig,
    WorkerLost,
    run,
    run_epoch_dpgrr,
)
from dpgrr.netgraph import GraphSchedule, MixingMatrix, StepsMode, metropolis_weights, mix
from dpgrr import objectives
from dpgrr.objectives import (
    DimensionMismatch,
    EmptyData,
    SmoothLossKind,
    full_objective,
)
from dpgrr.proxops import Regularizer, prox, subgradient
from dpgrr.reference import solve_centralized
from dpgrr.sampling import Mode
from oracles import consensus_weights_for_epoch, epoch_indices, loss_derivative, sample_value_grad

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


def flat_order(perm, m, n):
    """``run_epoch_dpgrr``'s order of an ``(S, m, n)`` index block: step
    i's rows of the flat ``(m n, d)`` samples, agent j's sample k at j n + k."""
    return perm.transpose(2, 0, 1) + np.arange(0, m * n, n)


def test_single_agent_single_epoch_gradient_step(toy_ls_problem):
    cfg = RunConfig("dpg-rr", 1, 0.5)
    [trace] = run([cfg], toy_ls_problem)
    assert trace.x_final.shape == (1, 1)
    assert trace.x_final[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_tiny_step_changes_almost_nothing(toy_ls_problem):
    cfg = RunConfig("dpg-rr", 3, 1e-300)
    [trace] = run([cfg], toy_ls_problem)
    assert abs(trace.x_final[0, 0]) < 1e-290


@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
def test_non_finite_step_rejected(value):
    # a step, and a rule's gamma or scale, must be finite and > 0
    with pytest.raises(ValueError, match="step must be finite and > 0"):
        RunConfig("dpg-rr", 1, value)
    with pytest.raises(ValueError, match="finite"):
        StepRule.constant(value)
    with pytest.raises(ValueError, match="finite"):
        StepRule.sqrt_horizon(value)


def test_t_zero_records_only_initial_row(toy_ls_problem):
    [trace] = run([RunConfig("dpg-rr", 0, 0.1)], toy_ls_problem)
    assert trace.epochs.tolist() == [0]
    assert trace.f_hat.size == 0
    assert trace.disagreement.tolist() == [0.0] and trace.max_consensus_dist.tolist() == [0.0]


def test_two_agents_complete_graph_matches_hand_average():
    # one sample each, zero penalty, one communication step per epoch: the
    # network average follows x <- (1 - gamma) x + gamma * mean(labels)
    problem = two_agent_problem()
    cfg = RunConfig("dpg-rr", 2, 0.25, steps_mode=StepsMode.fixed(1))
    [trace] = run([cfg], problem)
    x = 0.0
    for _ in range(2):
        x = 0.75 * x + 0.25 * 2.0
    assert trace.x_final[0, 0] == pytest.approx(x, abs=1e-12)
    assert trace.x_final[1, 0] == pytest.approx(x, abs=1e-12)
    # intermediate epoch too
    [states] = iterates([cfg], problem, [trace])
    assert states[1].mean(axis=0)[0] == pytest.approx(0.5, abs=1e-12)


def test_identical_agents_stay_identical():
    # same data, same start, one shared (1, 1, n) index block: trajectories must agree
    # bit for bit because mixing is doubly stochastic
    features, labels = synthesize_classification(m=1, n=4, d=3, separation=1.0, seed=2)
    problem = ProblemBundle(
        np.concatenate([features, features]),
        np.concatenate([labels, labels]),
        kind=LOG,
        regularizer=Regularizer.l1(0.01),
        schedule=GraphSchedule((metropolis_weights({(0, 1)}, 2, 0.5),), 1),
    )
    weights = problem.schedule.matrices[0].weights
    x = np.zeros((1, 2, problem.dim))
    for t in range(20):
        perm = epoch_indices(Mode.RR, 3, t, 1, problem.n)
        x, _ = run_epoch_dpgrr(x, problem, 0.1, [weights], flat_order(perm[None], 2, problem.n), t)
        assert np.array_equal(x[0, 0], x[0, 1])


def test_determinism_bit_identical(canonical_problem):
    cfg = RunConfig("dpg-rr", 40, sqrt_step(canonical_problem, 40), seed=11)
    [a] = run([cfg], canonical_problem)
    [b] = run([cfg], canonical_problem)
    assert_same_columns(a, b)
    assert np.array_equal(iterates([cfg], canonical_problem, [a])[0],
                          iterates([cfg], canonical_problem, [b])[0])


def test_average_iterate_identities(canonical_problem):
    # F_bar is F at each iterate's agent average, F_hat at the running mean
    # of the averages since epoch 1, both with their bits
    p = canonical_problem
    cfg = RunConfig("dpg-rr", 30, sqrt_step(p, 30), seed=4)
    [trace] = run([cfg], p)
    [states] = iterates([cfg], p, [trace])
    accum = np.zeros(p.dim)
    for t, state in enumerate(states):
        x_bar = state.mean(axis=0)
        assert trace.f_bar[t] == full_objective(p.features, p.labels, p.regularizer, p.kind,
                                                x_bar)
        if t:
            accum += x_bar
            assert trace.f_hat[t - 1] == full_objective(
                p.features, p.labels, p.regularizer, p.kind, accum / t)


def test_rows_recomputable_from_iterates(canonical_problem):
    cfg = RunConfig("dpg-rr", 25, sqrt_step(canonical_problem, 25), seed=6)
    [trace] = run([cfg], canonical_problem)
    [states] = iterates([cfg], canonical_problem, [trace])
    for epoch, value in zip(trace.epochs.tolist(), trace.f_bar.tolist(), strict=True):
        snap = states[epoch]
        f_bar = full_objective(
            canonical_problem.features,
            canonical_problem.labels,
            canonical_problem.regularizer,
            canonical_problem.kind,
            snap.mean(axis=0),
        )
        assert value == pytest.approx(f_bar, abs=1e-10)


def test_samplers_share_the_engine_path():
    # with one local sample every index stream is [0], so all three
    # proximal algorithms must produce bit-identical traces
    problem = two_agent_problem(reg=Regularizer.l1(0.05))
    traces = [
        run([RunConfig(algo, 10, 0.2, seed=5)], problem)[0]
        for algo in ("dpg-rr", "dpg-sg", "dpg-ig")
    ]
    for other in traces[1:]:
        assert np.array_equal(traces[0].x_final, other.x_final)
        assert_same_columns(traces[0], other)


def test_cadence_controls_recording(canonical_problem):
    cfg = RunConfig("dpg-rr", 10, sqrt_step(canonical_problem, 10), seed=1, cadence=4)
    [trace] = run([cfg], canonical_problem)
    assert trace.epochs.dtype == np.int64 and trace.epochs.tolist() == [0, 4, 8, 10]
    # f_hat starts at epoch 1; the rest have every epoch
    for name in COLUMNS[1:-1]:
        column = getattr(trace, name)
        assert column.dtype == np.float64
        assert len(column) == (3 if name == "f_hat" else 4)
    assert trace.forward_deviation is None


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_iterate_reports_context():
    problem = ProblemBundle(
        *packed([([1.0], 0.0), ([1.0], 0.0)]),
        kind=LS,
        regularizer=Regularizer.zero(),
        schedule=GraphSchedule((metropolis_weights(set(), 1, 1.0),), 1),
    )
    cfg = RunConfig("dpg-rr", 1, 1e200, x0=1.0)
    with pytest.raises(NonFiniteIterate) as err:
        run([cfg], problem)
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
    cfg = RunConfig("dpg-rr", 1, 1e200, x0=1.0)
    with pytest.raises(NonFiniteIterate) as err:
        run([cfg], problem)
    assert (err.value.agent, err.value.epoch) == (0, 0)
    assert (err.value.phase, err.value.inner_step) == ("inner", 1)


# margins at +-0, where exp underflows or overflows, and where the margin
# itself is near the largest float
MARGINS = [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 745.0, -745.0, 1e308, -1e308]


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("gamma", [0.5, np.array([0.5, 3.0]).reshape(2, 1, 1)])
def test_fused_logistic_step_is_gamma_over_one_plus_exp_of_the_margin(gamma):
    # the step on signed rows y * a against the label form spelled out:
    # x + gamma / (1 + exp(u)) * (y a), with u = y <a, x>
    rng = np.random.default_rng(0)
    margins = np.array(MARGINS).reshape(2, 5, 1)
    cases = [(margins, np.ones_like(margins))]  # <a, x> is the margin itself
    for scale in (1.0, 1e3):
        cases.append((rng.normal(size=(2, 5, 7)) * scale, rng.normal(size=(2, 5, 7))))
    with np.errstate(over="ignore"):  # exp(u) overflows to inf past 709.78
        for x, a in cases:
            for y in (np.ones(x.shape[:2]), -np.ones(x.shape[:2]),
                      rng.choice([-1.0, 1.0], size=x.shape[:2])):
                u = y * np.vecdot(a, x)
                want = x + gamma / (1.0 + np.exp(u))[..., None] * (y[..., None] * a)
                got = x.copy()
                engine._inner_step(LOG, gamma, got, y[..., None] * a, None)
                assert np.array_equal(_bits(got), _bits(want))

        # the coefficient gamma sigma(-u) read off a zero coordinate whose
        # row entry is 1: x = (u, 0) and a = (1, 1) step the 0 to it
        past = [709.79, 745.0, 1e308, math.inf]
        u = np.concatenate([MARGINS, past, rng.normal(size=20000) * 40.0,
                            rng.uniform(-745.0, 709.78, size=20000)])
        x = np.stack([u.reshape(2, -1), np.zeros((2, len(u) // 2))], axis=-1)
        got = x.copy()
        engine._inner_step(LOG, gamma, got, np.ones_like(x), None)
        coef, u = got[..., 1], x[..., 0]
        gammas = np.broadcast_to(gamma, x.shape)[..., 0]
        want = -gammas * objectives.margin_slope(LOG, u, None)
        finite = np.isfinite(np.exp(u))
    # within 1 unit in the last place of -gamma times the slope; where the
    # slope is subnormal (u > 708.39), gamma times its rounding adds to
    # that, and these two gammas keep the sum within 1
    ulps = np.abs(coef - want) / np.spacing(np.abs(want))
    assert ulps[finite].max() <= 1.0
    # and equal to it past exp's overflow, where both are 0
    assert np.isin(past, u[~finite]).all() and (u[~finite] > 709.78).all()
    assert (coef[~finite] == 0.0).all()
    assert np.array_equal(_bits(coef[~finite]), _bits(want[~finite]))
    for edge in (-745.0, -1e308):
        assert np.array_equal(coef[u == edge], gammas[u == edge])


def test_a_margin_past_exp_overflow_leaves_the_state_finite():
    # agent 0's first sample has margin 1000 x >= 1000 as x only grows:
    # exp(u) overflows every epoch inside the engine, and that sample's
    # step is exactly 0 while the other moves x by a finite step
    problem = ProblemBundle(
        *packed([([1000.0], 1.0), ([0.5], 1.0)], [([0.2], -1.0), ([0.5], 1.0)]),
        kind=LOG,
        regularizer=Regularizer.zero(),
        schedule=GraphSchedule((metropolis_weights(set(), 2, 0.5),), 1),
    )
    cfgs = [RunConfig(alg, 6, 0.5, seed=3, x0=1.0) for alg in ("dpg-rr", "dpg-sg", "dpg-ig")]
    for trace in run(cfgs, problem):
        assert np.isfinite(trace.x_final).all() and trace.x_final[0, 0] >= 1.0
        assert np.isfinite(trace.f_bar).all()
    # the overflowing sample alone leaves its agent's state where it was
    alone = ProblemBundle(*packed([([1000.0], 1.0)]), kind=LOG,
                          regularizer=Regularizer.zero(),
                          schedule=GraphSchedule((metropolis_weights(set(), 1, 1.0),), 1))
    trace = run([RunConfig("dpg-rr", 3, 0.5, x0=1.0)], alone)[0]
    assert trace.x_final.tolist() == [[1.0]]
    # and so does one epoch called outside ``run``'s own errstate
    x_next, _ = run_epoch_dpgrr(np.ones((1, 1, 1)), alone, 0.5, [],
                                flat_order(np.zeros((1, 1, 1), dtype=np.int64), 1, 1), 0)
    assert x_next.tolist() == [[[1.0]]]


@pytest.mark.parametrize("reg", [Regularizer.zero(), Regularizer.l1(0.1),
                                 Regularizer.squared_l2(0.3)], ids=lambda r: r.kind.value)
def test_dgm_gradient_on_signed_rows_matches_the_loss_derivative_form(reg):
    rng = np.random.default_rng(1)
    features = rng.normal(size=(3, 4, 5))
    features[..., 0] = 0.0  # a feature no sample has: its sums are all zeros
    features[0, :, 1] = -0.0
    labels = rng.choice([-1.0, 1.0], size=(3, 4))
    schedule = GraphSchedule((metropolis_weights({(0, 1), (1, 2)}, 3, 0.3),), 1)
    problem = ProblemBundle(features, labels, LOG, reg, schedule)
    gamma = np.array([0.2, 0.7]).reshape(2, 1, 1)
    x = rng.normal(size=(2, 3, 5))
    x[0, :, 0] = -0.0  # and a zero coordinate, so a zero's sign shows in the step
    # one agent whose two samples have margin +-x, x in MARGINS
    probe = ProblemBundle(np.ones((1, 2, 1)), np.array([[1.0, -1.0]]), LOG, reg,
                          GraphSchedule((metropolis_weights(set(), 1, 1.0),), 1))
    edge = np.array(MARGINS).reshape(-1, 1, 1)
    # no block mixes through the identity, keeping the state's zero signs
    for p, blocks, state, g in ((problem, [schedule.matrices[0].weights], x, gamma),
                                (problem, [], x, gamma), (probe, [], edge, 0.5)):
        with np.errstate(all="ignore"):
            mixed = mix(blocks, state)
            z = np.einsum("jnd,sjd->sjn", p.features, mixed)
            coef = loss_derivative(LOG, z, p.labels)
            grad = subgradient(reg, mixed) + np.einsum("sjn,jnd->sjd", coef, p.features)
            want = mixed - g * grad
        got = engine.run_epoch_dgm(state, p, g, blocks, 0)
        assert np.array_equal(_bits(got), _bits(want))


def _crafted_failure(epoch, *args):
    with pytest.raises(NonFiniteIterate) as err:
        epoch(*args)
    e = err.value
    return e.run, e.agent, e.epoch, e.inner_step, e.phase


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("kind", [LOG, LS])
def test_a_block_that_overflows_reports_phase_mix(kind):
    # every inner iterate is finite; the block's first row overflows them
    features = np.ones((2, 2, 1))
    labels = np.array([[1.0, -1.0], [-1.0, 1.0]])
    schedule = GraphSchedule((metropolis_weights({(0, 1)}, 2, 0.5),), 1)
    problem = ProblemBundle(features, labels, kind, Regularizer.l1(0.1), schedule)
    overflow = np.array([[1e10, 0.0], [0.0, 1.0]])
    order = flat_order(np.array([[[0, 1], [1, 0]]] * 2), 2, 2)
    x = np.full((2, 2, 1), 1e300)
    x[0] = 1.0  # run 0 mixes finitely, run 1 overflows
    assert _crafted_failure(run_epoch_dpgrr, x, problem, 1e-3, [overflow], order, 4) == (
        1, 0, 4, None, "mix")
    # both runs fail; the first is reported, with its own lowest bad agent
    x[0, 1] = -1e300
    overflow[1] = [0.0, 1e10]
    assert _crafted_failure(run_epoch_dpgrr, x, problem, 1e-3, [overflow], order, 4) == (
        0, 1, 4, None, "mix")


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
def test_dgm_reports_phase_mix_and_step():
    features = np.ones((2, 2, 1))
    labels = np.array([[1000.0, 1000.0], [1.0, 1.0]])
    schedule = GraphSchedule((metropolis_weights({(0, 1)}, 2, 0.5),), 1)
    problem = ProblemBundle(features, labels, LS, Regularizer.zero(), schedule)
    dgm = engine.run_epoch_dgm
    overflow = [np.array([[1.0, 0.0], [0.0, 1e10]])]
    x = np.zeros((2, 2, 1))
    x[1, 1] = 1e300
    assert _crafted_failure(dgm, x, problem, 1e-3, overflow, 3) == (1, 1, 3, None, "mix")
    # finite mixing; agent 0's step -gamma * 2 * (0 - 1000) overflows
    assert _crafted_failure(dgm, np.zeros((2, 2, 1)), problem, 1e306, [np.eye(2)], 5) == (
        0, 0, 5, None, "step")
    # the lowest failing agent is reported: agent 0's step, not agent 1's mix
    x = np.zeros((1, 2, 1))
    x[0, 1] = 1e300
    assert _crafted_failure(dgm, x, problem, 1e306, overflow, 6) == (0, 0, 6, None, "step")


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        RunConfig("dpg-xx", 1, 0.1)


# -- subgradient baseline ----------------------------------------------------


def test_dgm_single_agent_first_step(toy_ls_problem):
    [trace] = run([RunConfig("dgm", 1, 0.5)], toy_ls_problem)
    # gamma_0 = 0.5 / sqrt(1); gradient at 0 is -1
    assert trace.x_final[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_dgm_steps_decay_like_inverse_sqrt(toy_ls_problem):
    [trace] = run([RunConfig("dgm", 3, 0.5)], toy_ls_problem)
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
    [trace] = run([RunConfig("dgm", 4, 0.3)], problem)
    for j, label in enumerate((1.0, 5.0)):
        x = np.zeros(1)
        for t in range(4):
            gamma_t = 0.3 / math.sqrt(t + 1.0)
            g = (x[0] - label) * 1.0 + subgradient(Regularizer.l1(0.01), x)[0]
            x = x - gamma_t * g
        assert trace.x_final[j, 0] == pytest.approx(x[0], abs=1e-14)


def test_dgm_slower_than_reshuffling_on_seeded_problem():
    features, labels = synthesize_classification(m=3, n=10, d=5, separation=1.0, seed=6)
    reg = Regularizer.l1(0.01)
    slots = [{(0, 1)}, {(1, 2)}, {(0, 2)}]
    schedule = GraphSchedule(
        tuple(metropolis_weights(s, 3, 0.1) for s in slots), 3
    )
    sol = solve_centralized(features, labels, reg, LOG, tol=1e-10)
    problem = ProblemBundle(features, labels, kind=LOG, regularizer=reg, schedule=schedule)
    [rr] = run([RunConfig("dpg-rr", 200, 0.1, seed=1, cadence=200)], problem)
    [dgm] = run([RunConfig("dgm", 200, 0.1, seed=1, cadence=200)], problem)
    assert dgm.f_hat[-1] > rr.f_hat[-1] > sol.f_star - 1e-9


def test_run_config_takes_exactly_the_uint64_seeds(toy_ls_problem):
    # a seed keys the Philox index streams: both ends of [0, 2**64) run,
    # and the seeds just outside are rejected before anything is recorded
    for seed in (0, 2**64 - 1):
        [trace] = run([RunConfig("dpg-rr", 2, 0.5, seed=seed)],
                      toy_ls_problem)
        assert len(trace.epochs) == 3
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=rf"seed {seed} is outside \[0, 2\*\*64\)"):
            RunConfig("dpg-rr", 2, 0.5, seed=seed)


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
        with pytest.raises(EmptyData, match="no samples"):
            dataclasses.replace(p, features=empty[0], labels=empty[1])
    with pytest.raises(EmptyData, match="no features"):
        dataclasses.replace(p, features=features[..., :0], labels=labels)
    nan_features, nan_labels = features.copy(), labels.copy()
    nan_features[0, 1, 1] = nan_labels[0, 1] = np.nan
    for bad in ({"features": nan_features}, {"labels": nan_labels}):
        with pytest.raises(ValueError, match="non-finite"):
            dataclasses.replace(p, **{"features": features, "labels": labels, **bad})
    # identity comparison: neither == nor hash raises on the arrays
    assert (p == dataclasses.replace(p)) is False
    assert p == p and hash(p) == hash(p)


def test_logistic_labels_are_plus_or_minus_one():
    features, labels = synthesize_classification(m=2, n=3, d=2, separation=1.0, seed=0)
    schedule = GraphSchedule((metropolis_weights({(0, 1)}, 2, 0.5),), 1)
    p = ProblemBundle(features, labels, LOG, Regularizer.zero(), schedule)
    # the engine steps on the signed rows, kept once and read-only
    assert np.array_equal(p.rows, labels[..., None] * features) and p.targets is None
    with pytest.raises(ValueError):
        p.rows[0, 0, 0] = 5.0
    for bad in (0.0, 2.0, -0.5):
        other = labels.copy()
        other[1, 2] = bad
        with pytest.raises(ValueError, match="logistic labels must be -1 or \\+1"):
            ProblemBundle(features, other, LOG, Regularizer.zero(), schedule)
        # least squares takes any finite target and steps on the features
        # and labels themselves
        ls = ProblemBundle(features, other, LS, Regularizer.zero(), schedule)
        assert ls.rows is ls.features and ls.targets is ls.labels


def test_bundle_rejects_non_stochastic_mixing_rows():
    features, labels = synthesize_classification(m=2, n=3, d=2, separation=1.0, seed=0)

    def bundle(rows):
        schedule = GraphSchedule((MixingMatrix(np.array(rows), 0.1),), 1)
        return ProblemBundle(features, labels, LOG, Regularizer.zero(), schedule)

    with pytest.raises(ValueError, match="schedule matrix 0 is not row stochastic"):
        bundle([[0.5, 0.6], [0.5, 0.4]])
    with pytest.raises(ValueError, match="schedule matrix 0 is not row stochastic"):
        bundle([[1.2, -0.2], [-0.2, 1.2]])
    # float dust within the 1e-10 row tolerance is accepted
    assert bundle([[0.5, 0.5 + 1e-12], [0.5, 0.5]]).m == 2


# -- diagnostics -------------------------------------------------------------


def test_forward_deviation_recorded(canonical_problem):
    cfg = RunConfig("dpg-rr", 5, sqrt_step(canonical_problem, 5), seed=2, record_v=True)
    [trace] = run([cfg], canonical_problem)
    # one value per epoch after epoch 0, whose row has no inner pass
    assert trace.epochs.tolist() == [0, 1, 2, 3, 4, 5]
    assert trace.forward_deviation.dtype == np.float64
    assert len(trace.forward_deviation) == 5
    assert (trace.forward_deviation >= 0.0).all()


def test_forward_deviation_shrinks_with_step(canonical_problem):
    # inner drift scales with the step size: halving gamma should cut the
    # typical deviation by well over 2x (it scales quadratically)
    def median_v(gamma):
        cfg = RunConfig("dpg-rr", 40, gamma, seed=3, record_v=True)
        [trace] = run([cfg], canonical_problem)
        return float(np.median(trace.forward_deviation))

    assert median_v(0.005) <= 0.5 * median_v(0.01)


# -- serial reference ----------------------------------------------------------

_MODES = {"dpg-rr": Mode.RR, "dpg-sg": Mode.SG, "dpg-ig": Mode.IG}


def serial_reference(cfg, problem):
    """Per-agent, per-sample loop over lists of vectors: epoch -> (snapshot, V_t)."""
    m, n, kind, reg = problem.m, problem.n, problem.kind, problem.regularizer
    gamma = cfg.step
    xs = [np.full(problem.dim, cfg.x0) for _ in range(m)]
    out = {0: (np.stack(xs), None)}
    for t in range(cfg.horizon):
        v_t = None
        if cfg.algorithm == "dgm":
            w = problem.schedule.matrices[t % problem.schedule.period].weights
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
            w = consensus_weights_for_epoch(problem.schedule, t, cfg.steps_mode)
            xs = [prox(reg, gamma, sum(w[j, k] * local[k] for k in range(m))) for j in range(m)]
            v_t = float(np.sum((inner_avg - np.mean(xs, axis=0)) ** 2))
        out[t + 1] = (np.stack(xs), v_t)
    return out


@pytest.mark.parametrize("runs, steps_mode", [
    ([("dpg-rr", 9, 0.05)], StepsMode.growing()),
    ([("dpg-sg", 9, 0.05)], StepsMode.growing()),
    ([("dpg-ig", 9, 0.05)], StepsMode.growing()),
    ([("dgm", 9, 0.05)], StepsMode.growing()),
    # dgm mixes once per epoch whatever the mode
    ([("dgm", 9, 0.05)], StepsMode.fixed(2)),
    # one batch of every sampler, seed and step: each run is its own loop
    ([(algo, seed, gamma) for algo in ("dpg-rr", "dpg-sg", "dpg-ig")
      for seed in (9, 4) for gamma in (0.05, 0.02)], StepsMode.growing()),
], ids=["dpg-rr", "dpg-sg", "dpg-ig", "dgm", "dgm-fixed-2", "batch-mixed"])
def test_engine_matches_serial_reference(canonical_problem, runs, steps_mode):
    p = canonical_problem
    cfgs = [RunConfig(algo, 12, gamma, steps_mode=steps_mode, seed=seed,
                      record_v=True) for algo, seed, gamma in runs]
    traces = run(cfgs, p)
    assert len(traces) == len(cfgs)
    for cfg, trace, states in zip(cfgs, traces, iterates(cfgs, p, traces)):
        _check_against_serial_reference(p, cfg, trace, states)


def _check_against_serial_reference(p, cfg, trace, states):
    """``trace`` and ``states``, the run's state after each epoch within
    its batch, against the serial loop."""
    want = serial_reference(cfg, p)
    w = p.schedule.matrices[0].weights
    x_hat_sum = np.zeros(p.dim)
    for epoch, (snap, _) in want.items():
        assert np.abs(states[epoch] - snap).max() <= 1e-12
    for k, epoch in enumerate(trace.epochs.tolist()):
        snap, v_t = want[epoch]
        x_bar = snap.mean(axis=0)
        x_hat_sum += x_bar if epoch else 0.0
        assert trace.f_bar[k] == pytest.approx(
            full_objective(p.features, p.labels, p.regularizer, p.kind, x_bar), abs=1e-12)
        if epoch:
            f_hat = full_objective(
                p.features, p.labels, p.regularizer, p.kind, x_hat_sum / epoch)
            assert trace.f_hat[k - 1] == pytest.approx(f_hat, abs=1e-12)
        energy = 0.5 * sum(w[i, j] * np.sum((snap[i] - snap[j]) ** 2)
                           for i in range(p.m) for j in range(p.m))
        assert trace.disagreement[k] == pytest.approx(energy, abs=1e-12)
        dist = max(np.linalg.norm(x - x_bar) for x in snap)
        assert trace.max_consensus_dist[k] == pytest.approx(dist, abs=1e-12)
        # forward_deviation starts at epoch 1
        v = None if not epoch or trace.forward_deviation is None else trace.forward_deviation[k - 1]
        if v_t is None:
            assert v is None
        else:
            assert v == pytest.approx(v_t, abs=1e-12)


# -- batches -------------------------------------------------------------------


def _assert_same_states(got, want):
    """Two lists of state arrays, one by one, by their bytes."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.shape, a.tobytes()) == (b.shape, b.tobytes())


def _assert_same_trace(got, want):
    """The same columns and final state, arrays by their bytes."""
    assert_same_columns(got, want)
    _assert_same_states([got.x_final], [want.x_final])


def _assert_each_run_is_alone(cfgs, problem, traces):
    """``traces`` of ``cfgs`` run in one call against each run alone: the
    same columns and state after every epoch."""
    states = iterates(cfgs, problem, traces)
    for cfg, trace, got in zip(cfgs, traces, states, strict=True):
        alone = run([cfg], problem)
        _assert_same_trace(trace, alone[0])
        _assert_same_states([got], iterates([cfg], problem, alone))


def test_batched_run_equals_its_solo_run(canonical_problem):
    steps = (sqrt_step(canonical_problem, 30), 0.05)
    cfgs = [
        RunConfig(algo, 30, steps[k % 2], seed=seed, cadence=4, record_v=True)
        for algo in ("dpg-rr", "dpg-sg", "dpg-ig")
        for k, seed in enumerate((1, 2, 3, 4))
    ]
    _assert_each_run_is_alone(cfgs, canonical_problem, run(cfgs, canonical_problem))


def test_batched_dgm_runs_equal_their_solo_runs(canonical_problem):
    cfgs = [RunConfig("dgm", 25, gamma, seed=seed)
            for seed, gamma in ((3, 0.05), (8, 0.2))]
    _assert_each_run_is_alone(cfgs, canonical_problem, run(cfgs, canonical_problem))


# OpenBLAS's ddot kernel takes a row in vector blocks of 16 and then a
# scalar tail: at the canonical d = 10 every entry is in the tail
@pytest.fixture(scope="module", params=["a9a_subset", "least_squares_d37"])
def wide_problem(request, configs_dir):
    """A problem whose margin dots run through the vector blocks: the
    shipped ``a9a_subset`` (logistic, d = 123) or least squares on d = 37."""
    if request.param == "a9a_subset":
        return build_problem(load_config(configs_dir / "a9a_subset.yaml"))[0]
    features, labels = synthesize_classification(m=3, n=5, d=37, separation=1.0, seed=4)
    schedule = GraphSchedule((metropolis_weights({(0, 1), (1, 2)}, 3, 0.2),), 1)
    return ProblemBundle(features, labels, LS, Regularizer.l1(0.01), schedule)


def test_batched_runs_on_wide_rows_equal_their_solo_runs(wide_problem):
    p = wide_problem
    steps = (sqrt_step(p, 20), 0.05)
    cfgs = [RunConfig(algo, 20, steps[k % 2], seed=seed, cadence=3, record_v=True)
            for algo in ("dpg-rr", "dpg-sg", "dpg-ig")
            for k, seed in enumerate((5, 6, 7, 8))]
    _assert_each_run_is_alone(cfgs, p, run(cfgs, p))


@pytest.mark.parametrize("kind", [LOG, LS])
def test_batched_dgm_runs_on_rows_wider_than_a_span_equal_their_solo_runs(kind):
    # d = 9000 is past einsum's 8192-element buffer, in whose pieces a
    # single margin over the whole row was summed differently in a batch
    features, labels = synthesize_classification(m=2, n=3, d=9000, separation=1.0, seed=5)
    problem = ProblemBundle(features, labels, kind, Regularizer.l1(0.01),
                            GraphSchedule((metropolis_weights({(0, 1)}, 2, 0.3),), 1))
    cfgs = [RunConfig("dgm", 20, 0.5, seed=seed) for seed in (1, 2, 3)]
    _assert_each_run_is_alone(cfgs, problem, run(cfgs, problem))


@pytest.mark.parametrize("d", [1, 10, 16, 17, 123, 10001])
@pytest.mark.parametrize("kind", [LOG, LS])
def test_a_row_steps_alone_with_the_bits_it_has_in_its_batch(kind, d):
    # the batch steps (S, m, d) rows, the failure replay one (1, d) row;
    # d = 10001 sums the dots of two spans
    rng = np.random.default_rng(d)
    x, a = rng.normal(size=(2, 3, 4, d))
    y = None if kind is LOG else rng.normal(size=(3, 4))
    gamma = np.array([0.1, 0.5, 2.0]).reshape(3, 1, 1)
    batch = x.copy()
    engine._inner_step(kind, gamma, batch, a, y)
    for s, j in np.ndindex(3, 4):
        row = x[s, j][None].copy()
        engine._inner_step(kind, gamma[s, 0, 0], row, a[s, j][None],
                           None if y is None else y[s, j][None])
        assert np.array_equal(_bits(row[0]), _bits(batch[s, j]))


def stdout_on_one_and_two_blas_threads(script: str) -> list[str]:
    """The stdout of ``python -c script`` at ``OPENBLAS_NUM_THREADS`` 1 and 2."""
    src = str(Path(engine.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           check=True, timeout=60,
                           env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": k},
                           ).stdout for k in ("1", "2")]


def test_a_wide_margin_has_the_same_bits_on_any_blas_thread_count():
    # OpenBLAS splits a ddot of more than 10000 elements across its
    # threads; the inner step never hands it one, so one thread and two
    # give the same step
    script = """if True:
        import hashlib
        import numpy as np
        from dpgrr import engine
        from dpgrr.objectives import SmoothLossKind
        rng = np.random.default_rng(0)
        for kind, d in ((SmoothLossKind.LOGISTIC, 10001), (SmoothLossKind.LEAST_SQUARES, 40000)):
            x, a = rng.normal(size=(2, 2, 3, d)) * 0.01
            engine._inner_step(kind, 0.5, x, a, None if kind is SmoothLossKind.LOGISTIC
                               else rng.normal(size=(2, 3)))
            print(hashlib.sha256(x.tobytes()).hexdigest())
    """
    out = stdout_on_one_and_two_blas_threads(script)
    assert len(out[0].split()) == 2
    assert out[0] == out[1]


def test_runs_past_the_batch_cap_advance_in_later_batches(canonical_problem, monkeypatch):
    cfgs = [RunConfig(algo, 6, 0.05, seed=seed)
            for algo in ("dpg-rr", "dpg-sg") for seed in (1, 2, 3)]
    whole = run(cfgs, canonical_problem)
    want = iterates(cfgs, canonical_problem, whole)
    # two runs' samples per gathered block: batches of 2, 2 and 2
    monkeypatch.setattr(engine, "MAX_BATCH_BYTES", 2 * canonical_problem.features.nbytes)
    got = run(cfgs, canonical_problem)
    for a, b in zip(got, whole, strict=True):
        _assert_same_trace(a, b)
    _assert_same_states(iterates(cfgs, canonical_problem, got), want)
    assert run([], canonical_problem) == []


def overflow_problem():
    # agent 1's steps multiply its iterate by 1 - 4 gamma; at gamma 1e10
    # it passes 1.8e308 at its 30th step, epoch 14 inner step 1, while
    # gamma 1e200 overflows both agents at inner step 1 of epoch 0
    return ProblemBundle(
        *packed([([1.0], 0.0)] * 2, [([2.0], 0.0)] * 2),
        kind=LS,
        regularizer=Regularizer.zero(),
        schedule=GraphSchedule((metropolis_weights(set(), 2, 0.5),), 1),
    )


LATE = RunConfig("dpg-sg", 20, 1e10, seed=2, x0=1.0)


def _failure(err):
    e = err.value
    return e.run, e.agent, e.epoch, e.inner_step, e.phase, str(e)


@pytest.mark.filterwarnings("ignore:overflow")
def test_batch_reports_the_first_failing_run_in_order():
    problem, late = overflow_problem(), LATE
    early = RunConfig("dpg-rr", 20, 1e200, seed=1, x0=1.0)
    with pytest.raises(NonFiniteIterate) as err:
        run([late, early], problem)
    e = err.value
    assert (e.run, e.agent, e.epoch, e.inner_step, e.phase) == (
        "dpg-sg seed 2", 1, 14, 1, "inner")
    assert str(e) == ("non-finite iterate at run dpg-sg seed 2, agent 1, epoch 14, "
                      "phase inner, inner step 1")
    with pytest.raises(NonFiniteIterate) as alone:
        run([late], problem)
    assert str(alone.value) == str(e)
    # in the other order the early failure is the first one
    with pytest.raises(NonFiniteIterate) as err:
        run([early, late], problem)
    e = err.value
    assert (e.run, e.agent, e.epoch, e.inner_step, e.phase) == (
        "dpg-rr seed 1", 0, 0, 1, "inner")


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("d", [16, 17, 123])
def test_a_wide_row_that_overflows_names_the_same_step_batched_or_alone(d):
    # least-squares steps of 100 on unit rows overflow each run at an
    # inner step of an epoch between 50 and 130, after a long history of
    # steps; the replay steps a (1, d) row where the batch stepped
    # (S, m, d) rows, and must find that same step
    features, labels = synthesize_classification(m=3, n=4, d=d, separation=1.0, seed=d)
    problem = ProblemBundle(
        features, labels, LS, Regularizer.l1(0.01),
        GraphSchedule((metropolis_weights({(0, 1), (1, 2)}, 3, 0.2),), 1))
    healthy = RunConfig("dpg-rr", 150, 1e-3, seed=1)
    cfgs = [healthy] + [RunConfig(algo, 150, 100.0, seed=seed)
                        for algo, seed in (("dpg-sg", 2), ("dpg-rr", 3), ("dpg-ig", 4))]
    solo = [_outcome([cfg], problem)[1] for cfg in cfgs]
    assert solo[0] is None and None not in solo[1:]
    for failure in solo[1:]:
        _, _, epoch, step, phase, _ = failure
        assert (phase, epoch > 0, step is not None) == ("inner", True, True)
    # each failing run behind the healthy one, and all of them together
    for k in (1, 2, 3):
        assert _outcome([healthy, cfgs[k]], problem)[1] == solo[k]
    assert _outcome(cfgs, problem)[1] == solo[1]


def reset_problem():
    # one agent: a step on sample 0 puts its iterate back near 0.5 (as
    # 0.25 * 2**2 = 1), a step on sample 1 multiplies it by about -2**398;
    # a fixed order alternates the two, but four draws of sample 1 in a
    # row overflow
    return ProblemBundle(
        *packed([([2.0], 1.0), ([2.0**200], 0.0)]),
        kind=LS,
        regularizer=Regularizer.zero(),
        schedule=GraphSchedule((metropolis_weights(set(), 1, 1.0),), 1),
    )


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("problem, healthy, late, want", [
    (overflow_problem, RunConfig("dpg-rr", 20, 0.01, seed=1, x0=1.0),
     LATE, ("dpg-sg seed 2", 1, 14, 1, "inner")),
    # runs that share one step advance with it as one float, before the
    # cut and after it
    (reset_problem, RunConfig("dpg-ig", 20, 0.25, seed=2, x0=1.0),
     RunConfig("dpg-sg", 20, 0.25, seed=6, x0=1.0),
     ("dpg-sg seed 6", 0, 6, 1, "inner")),
], ids=["own-steps", "shared-step"])
def test_a_run_failing_behind_a_healthy_one_reports_as_alone(problem, healthy, late, want):
    # the healthy run's rows of the epochs before the failure are still
    # buffered when the late run fails, and the batch is cut down to the
    # healthy run
    problem = problem()
    run([healthy], problem)
    with pytest.raises(NonFiniteIterate) as batched:
        run([healthy, late], problem)
    with pytest.raises(NonFiniteIterate) as alone:
        run([late], problem)
    assert _failure(batched) == _failure(alone)
    assert _failure(alone)[:5] == want


@pytest.mark.filterwarnings("ignore:overflow")
def test_no_row_is_evaluated_once_a_later_run_has_failed(monkeypatch):
    # `run` raises the late run's failure whatever the healthy run does
    # after it, so the rows of the cut batch are never evaluated
    events = []
    full_objective, run_epoch = engine.objectives.full_objective, engine.run_epoch_dpgrr

    def counted(*args):
        events.append("record")
        return full_objective(*args)

    def watched(*args, **kwargs):
        try:
            return run_epoch(*args, **kwargs)
        except NonFiniteIterate:
            events.append("cut")
            raise

    monkeypatch.setattr(engine.objectives, "full_objective", counted)
    monkeypatch.setattr(engine, "run_epoch_dpgrr", watched)
    healthy = RunConfig("dpg-rr", 20, 0.01, seed=1, x0=1.0)
    with pytest.raises(NonFiniteIterate):
        run([healthy, LATE], overflow_problem())
    assert events.count("cut") == 1
    assert "record" not in events[events.index("cut"):]
    assert events[0] == "record"  # the initial row, before any epoch


# each case's runs of a problem
_CHUNKED = {
    "samplers": lambda p: [RunConfig(algo, 13, 0.05, seed=seed, record_v=True)
                           for algo in ("dpg-rr", "dpg-sg", "dpg-ig") for seed in (1, 2)],
    "off_cadence": lambda p: [RunConfig("dpg-rr", 10, sqrt_step(p, 10), seed=seed, cadence=3)
                              for seed in (4, 5)],
    "dgm": lambda p: [RunConfig("dgm", 10, gamma, seed=seed)
                      for seed, gamma in ((3, 0.05), (8, 0.2))],
    "no_epochs": lambda p: [RunConfig("dpg-rr", 0, 0.05, seed=1)],
    # at 3 rows a chunk, the last chunk holds epochs 10 and 11, both recorded
    "partial_last": lambda p: [RunConfig(algo, 11, 0.05, seed=seed, cadence=2, record_v=True)
                               for algo, seed in (("dpg-rr", 1), ("dpg-sg", 2))],
}


def _row_bytes(cfgs, p):
    """Every byte one epoch of a chunk of the batch ``cfgs`` holds or makes."""
    dgm = cfgs[0].algorithm == "dgm"
    w = p.schedule.matrices[0].weights
    edges = np.count_nonzero(w) - np.count_nonzero(np.diag(w))
    floats = ((2 * p.m + 2 + edges) * p.dim
              + (2 * p.n * p.dim if cfgs[0].record_v and not dgm else 0)
              + (4 if dgm else 6) * p.m * p.n)
    return 8 * len(cfgs) * floats


@pytest.mark.parametrize("rows", [1, 3, 10**6])
@pytest.mark.parametrize("case", sorted(_CHUNKED))
def test_record_chunk_size_never_changes_a_trace(canonical_problem, monkeypatch, case, rows):
    p = canonical_problem
    cfgs = _CHUNKED[case](p)
    want = run(cfgs, p)
    want_states = iterates(cfgs, p, want)
    monkeypatch.setattr(engine, "MAX_CHUNK_BYTES", rows * _row_bytes(cfgs, p))
    calls, drawn = [], []
    full_objective, fill_indices = engine.objectives.full_objective, engine.fill_indices

    def counted(*args):
        calls.append(len(args[-1]))  # the chunk's recorded epochs
        return full_objective(*args)

    def filled(out, draws, t0):
        drawn.append((t0, len(out)))
        return fill_indices(out, draws, t0)

    monkeypatch.setattr(engine.objectives, "full_objective", counted)
    monkeypatch.setattr(engine, "fill_indices", filled)
    got = run(cfgs, p)
    for a, b in zip(got, want, strict=True):
        _assert_same_trace(a, b)
    # chunks of `rows` epochs; the initial row alone, then one call per
    # chunk that holds recorded epochs, with all of them
    horizon, epochs = cfgs[0].horizon, want[0].epochs
    chunks = [(lo, min(lo + rows, horizon)) for lo in range(0, horizon, rows)]
    recorded = [int(np.count_nonzero((epochs > lo) & (epochs <= hi))) for lo, hi in chunks]
    assert calls == [1] + [k for k in recorded if k]
    # the fixed order's rows once, then every other row once a chunk
    dgm = cfgs[0].algorithm == "dgm"
    assert drawn == [(0, min(rows, horizon))] + (
        [] if dgm else [(lo, hi - lo) for lo, hi in chunks])
    _assert_same_states(iterates(cfgs, p, got), want_states)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("rows", [1, 3, 10**6])
@pytest.mark.parametrize("problem, healthy, late, want", [
    # epochs 4 and 7 are the middle ones of 3-epoch chunks
    (reset_problem, RunConfig("dpg-ig", 20, 0.25, seed=2, x0=1.0),
     RunConfig("dpg-sg", 20, 0.5, seed=4, x0=1.0), ("dpg-sg seed 4", 0, 4, 1, "inner")),
    (overflow_problem, RunConfig("dgm", 20, 0.01, seed=1, x0=1.0),
     RunConfig("dgm", 20, 1e40, seed=2, x0=1.0), ("dgm seed 2", 0, 7, None, "step")),
], ids=["proximal", "dgm"])
def test_a_failure_inside_a_chunk_is_named_the_same_at_any_chunk_length(
        monkeypatch, rows, problem, healthy, late, want):
    p = problem()
    assert _outcome([healthy], p)[1] is None
    failures = []
    for cfgs in ([late], [healthy, late]):
        monkeypatch.setattr(engine, "MAX_CHUNK_BYTES", rows * _row_bytes(cfgs, p))
        failures.append(_outcome(cfgs, p)[1])
    assert failures[0] == failures[1]
    assert failures[0][:5] == want


@pytest.mark.parametrize("algorithm, record_v", [
    ("dpg-rr", False), ("dpg-sg", False), ("dgm", False), ("dpg-rr", True)])
def test_a_chunk_stays_within_its_budget(algorithm, record_v):
    # many samples and few features: a chunk's index blocks, sample orders
    # and record temporaries, m n floats an epoch each, outweigh its
    # states; a count that left them out would make the whole horizon
    # one chunk
    features, labels = synthesize_classification(m=2, n=2000, d=2, separation=1.0, seed=0)
    problem = ProblemBundle(
        features, labels, LOG, Regularizer.l1(0.01),
        GraphSchedule((metropolis_weights({(0, 1)}, 2, 0.5),), 1))
    cfg = RunConfig(algorithm, 40, 1e-3, seed=1, cadence=1, record_v=record_v)
    run([dataclasses.replace(cfg, horizon=1)], problem)  # the engine's own caches
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        run([cfg], problem)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 2 * engine.MAX_CHUNK_BYTES


def test_a_recorded_row_holds_a_few_floats():
    # what four cadence-1 traces hold once ``run`` returns: a row is its
    # floats, about 42 bytes with the shared epochs; a tuple of Python
    # floats per row held about 265
    features, labels = synthesize_classification(m=2, n=2, d=2, separation=1.0, seed=0)
    problem = ProblemBundle(
        features, labels, LOG, Regularizer.l1(0.01),
        GraphSchedule((metropolis_weights({(0, 1)}, 2, 0.5),), 1))
    cfgs = [RunConfig(algo, 2000, 0.1, seed=seed, cadence=1)
            for seed, algo in enumerate(("dpg-rr", "dpg-sg", "dpg-ig", "dpg-rr"))]
    run([dataclasses.replace(cfgs[0], horizon=2)], problem)  # the engine's own caches
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traces = run(cfgs, problem)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    rows = sum(len(trace.epochs) for trace in traces)
    assert rows == 4 * 2001
    assert held <= 80 * rows


@pytest.mark.parametrize("field, value", [
    ("horizon", 7),
    ("steps_mode", StepsMode.fixed(3)),
    ("cadence", 2),
    ("x0", 0.5),
    ("record_v", True),
])
def test_batch_runs_must_share_their_shape(canonical_problem, field, value):
    base = RunConfig("dpg-rr", 5, 0.05, seed=1)
    other = dataclasses.replace(base, seed=2, **{field: value})
    with pytest.raises(ValueError, match=f"runs in one call must share {field}"):
        run([base, other], canonical_problem)


def test_a_mixed_list_equals_its_groups_run_apart(canonical_problem):
    # each stretch of one epoch body is its own batch, in the order given
    p = canonical_problem
    cfgs = [RunConfig(algo, 7, gamma, seed=seed)
            for algo, gamma, seed in (("dgm", 0.2, 1), ("dpg-rr", 0.05, 2), ("dpg-sg", 0.3, 3),
                                      ("dgm", 0.05, 4), ("dgm", 0.3, 5), ("dpg-ig", 0.05, 6))]
    groups = [cfgs[:1], cfgs[1:3], cfgs[3:5], cfgs[5:]]
    apart = [run(group, p) for group in groups]
    got = run(cfgs, p)
    for a, b in zip(got, [trace for traces in apart for trace in traces], strict=True):
        _assert_same_trace(a, b)
    _assert_same_states(iterates(cfgs, p, got), [
        states for group, traces in zip(groups, apart) for states in iterates(group, p, traces)])


def test_nonfinite_iterate_survives_pickling():
    for err in (NonFiniteIterate(2, 5, 3, "inner", run="dpg-rr seed 1"),
                NonFiniteIterate(0, 7, None, "mix")):
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is NonFiniteIterate
        assert (back.agent, back.epoch, back.inner_step, back.phase, back.run) == (
            err.agent, err.epoch, err.inner_step, err.phase, err.run)
        assert str(back) == str(err)


def test_a_trace_survives_pickling(canonical_problem):
    # with every optional column filled, and without
    for extra in ({}, {"record_v": True}):
        [trace] = run([RunConfig("dpg-rr", 6, 0.05, seed=4, **extra)],
                      canonical_problem)
        back = pickle.loads(pickle.dumps(trace))
        # every column comes back with its dtype, shape and bytes
        _assert_same_trace(back, trace)
        assert back.epochs.dtype == np.int64
        assert all(getattr(back, name).dtype == np.float64
                   for name in COLUMNS[1:] if getattr(back, name) is not None)
        assert (back.forward_deviation is None) == (not extra)


# -- lanes: batches advanced in forked workers ------------------------------


@pytest.fixture()
def lanes(monkeypatch, forks):
    """Make ``run`` fork a worker per lane for any work, up to three lanes;
    yields the list of forks made."""
    monkeypatch.setattr(engine, "_cpu_count", lambda: 3)
    monkeypatch.setattr(engine, "_LANE_WORK", 1)
    return forks


def test_lanes_give_the_serial_traces(canonical_problem, lanes):
    cfgs = [RunConfig(algo, 8, 0.05, seed=seed, record_v=True)
            for algo in ("dpg-rr", "dpg-sg", "dpg-ig") for seed in (1, 2)]
    got = run(cfgs, canonical_problem)
    assert len(lanes) == 2
    assert_no_child_left()
    _assert_each_run_is_alone(cfgs, canonical_problem, got)
    assert_no_child_left()


def test_finish_takes_each_trace_in_the_process_that_ran_it(canonical_problem, lanes):
    cfgs = [RunConfig(algo, 6, 0.05, seed=seed, record_v=True)
            for algo in ("dpg-rr", "dgm", "dpg-ig") for seed in (1, 2)]

    def finish(k, trace):
        return k, os.getpid(), trace

    got = run(cfgs, canonical_problem, finish)
    assert len(lanes) == 2
    assert_no_child_left()
    # the results come back in run order, one lane per process
    assert [k for k, _, _ in got] == list(range(len(cfgs)))
    pids = [pid for _, pid, _ in got]
    assert pids[:2] == [os.getpid()] * 2 and len(set(pids)) == 3
    for (_, _, trace), want in zip(got, run(cfgs, canonical_problem), strict=True):
        _assert_same_trace(trace, want)
    assert_no_child_left()


@pytest.mark.parametrize("where", ["caller", "worker"])
def test_a_failing_finish_is_its_runs_failure(canonical_problem, lanes, where):
    caller = os.getpid()

    def finish(k, trace):
        if (os.getpid() == caller) == (where == "caller"):
            raise Injected(f"{where} run {k}")
        return k

    cfgs = [RunConfig("dpg-rr", 5, 0.05, seed=seed) for seed in (1, 2, 3)]
    with pytest.raises(Injected, match=f"{where} run {0 if where == 'caller' else 1}"):
        run(cfgs, canonical_problem, finish)
    assert len(lanes) == 2
    assert_no_child_left()


def test_a_lane_that_gets_no_process_runs_in_the_caller(canonical_problem, lanes,
                                                        monkeypatch):
    def no_process():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)
    cfgs = [RunConfig("dpg-rr", 4, 0.05, seed=seed) for seed in (1, 2, 3)]
    for cfg, trace in zip(cfgs, run(cfgs, canonical_problem), strict=True):
        _assert_same_trace(trace, run([cfg], canonical_problem)[0])


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("failing", [0, 2], ids=["caller-lane", "worker-lane"])
def test_a_failing_lane_reports_as_alone_and_leaves_no_worker(lanes, failing):
    problem = overflow_problem()
    cfgs = [RunConfig("dpg-rr", 20, 0.01, seed=seed, x0=1.0)
            for seed in (1, 2, 3)]
    cfgs[failing] = LATE
    with pytest.raises(NonFiniteIterate) as err:
        run(cfgs, problem)
    assert len(lanes) == 2
    assert_no_child_left()
    with pytest.raises(NonFiniteIterate) as alone:
        run([LATE], problem)
    assert _failure(err) == _failure(alone)


class Injected(Exception):
    pass


@pytest.mark.parametrize("where", ["caller", "worker"])
def test_an_exception_in_a_lane_reaches_the_caller(canonical_problem, lanes, monkeypatch,
                                                    where):
    caller, run_batch = os.getpid(), engine._run_batch

    def failing(*args):
        if (os.getpid() == caller) == (where == "caller"):
            raise Injected(where)
        return run_batch(*args)

    monkeypatch.setattr(engine, "_run_batch", failing)
    cfgs = [RunConfig("dpg-rr", 5, 0.05, seed=seed) for seed in (1, 2, 3)]
    with pytest.raises(Injected, match=where):
        run(cfgs, canonical_problem)
    assert len(lanes) == 2
    assert_no_child_left()


@pytest.mark.parametrize("end, how", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"was killed by signal {signal.SIGKILL:d}"),
    (lambda: os._exit(3), "exited with 3"),
], ids=["sigkill", "exit"])
def test_a_lost_worker_is_an_error_naming_its_runs(canonical_problem, lanes, monkeypatch,
                                                   end, how):
    caller, run_batch = os.getpid(), engine._run_batch

    def lost(*args):
        if os.getpid() != caller:
            end()
        return run_batch(*args)

    monkeypatch.setattr(engine, "_run_batch", lost)
    cfgs = [RunConfig(algo, 5, 0.05, seed=seed)
            for algo, seed in (("dpg-rr", 1), ("dpg-sg", 2), ("dpg-ig", 3), ("dpg-rr", 4))]
    with pytest.raises(WorkerLost) as err:
        run(cfgs, canonical_problem)
    # the first worker's lane is dpg-sg seed 2 alone; its loss is raised first
    assert str(err.value) == f"the worker running dpg-sg seed 2 {how}"
    assert_no_child_left()


def test_every_check_comes_before_any_fork(canonical_problem, lanes):
    ok = RunConfig("dpg-rr", 5, 0.05, seed=3)
    with pytest.raises(ValueError, match="runs in one call must share horizon"):
        run([ok, ok, dataclasses.replace(ok, horizon=6)], canonical_problem)
    assert lanes == []


def test_lanes_need_a_spare_cpu_a_fork_and_one_thread(monkeypatch):
    cfgs = [RunConfig(algo, 2000, 0.05, seed=s)
            for s, algo in enumerate(("dpg-rr", "dpg-sg", "dgm", "dgm"))]
    monkeypatch.setattr(engine, "_cpu_count", lambda: 2)
    # a lane per CPU, of consecutive runs, the first the shorter; each lane
    # cuts its own batches, one epoch body and at most `size` runs each
    assert engine._lanes(cfgs, 64) == [[(0, 2)], [(2, 4)]]
    assert engine._lanes(cfgs[1:], 64) == [[(0, 1)], [(1, 3)]]
    assert engine._lanes(cfgs[:3], 1) == [[(0, 1)], [(1, 2), (2, 3)]]
    assert engine._lanes(cfgs[:1], 64) == [[(0, 1)]]
    # each lane must carry _LANE_WORK run-epochs
    assert engine._lanes([dataclasses.replace(c, horizon=999) for c in cfgs], 64) == [
        [(0, 2), (2, 4)]]
    monkeypatch.setattr(engine, "_cpu_count", lambda: 1)
    assert engine._lanes(cfgs, 64) == [[(0, 2), (2, 4)]]
    monkeypatch.setattr(engine, "_cpu_count", lambda: 8)
    assert len(engine._lanes(cfgs, 64)) == 4  # one run each
    monkeypatch.setattr(threading, "active_count", lambda: 2)
    assert len(engine._lanes(cfgs, 64)) == 1
    monkeypatch.undo()
    monkeypatch.setattr(engine, "_cpu_count", lambda: 2)
    monkeypatch.delattr(os, "fork")
    assert len(engine._lanes(cfgs, 64)) == 1


@pytest.mark.parametrize("path", ["serial", "forked"])
def test_a_shorter_horizon_gives_the_leading_epochs(canonical_problem, monkeypatch, path):
    # an epoch depends only on the run's seed and step and on the epochs
    # before it: a run to horizon h has the longer run's state after h
    # epochs, and its rows at the epochs both record
    monkeypatch.setattr(engine, "_cpu_count", lambda: 1 if path == "serial" else 3)
    monkeypatch.setattr(engine, "_LANE_WORK", 1)
    p = canonical_problem
    cfgs = [RunConfig(algo, 9, gamma, seed=seed, cadence=2, record_v=True)
            for algo, seed, gamma in (("dpg-rr", 1, 0.05), ("dpg-sg", 2, 0.2), ("dgm", 3, 0.1))]
    traces = run(cfgs, p)
    states = iterates(cfgs, p, traces)
    for h in (0, 1, 4, 8):
        shorter = run([dataclasses.replace(cfg, horizon=h) for cfg in cfgs], p)
        assert_no_child_left()
        for short, trace, state in zip(shorter, traces, states, strict=True):
            _assert_same_states([short.x_final], [state[h]])
            # the epochs both record lead both traces
            k = len(np.intersect1d(short.epochs, trace.epochs))
            assert k == h // 2 + 1
            for name in COLUMNS:
                got, want = getattr(short, name), getattr(trace, name)
                if name in ("f_hat", "forward_deviation"):
                    rows = k - 1  # these start at epoch 1
                else:
                    rows = k
                assert (got is None) == (want is None), name
                if got is not None:
                    assert got[:rows].tobytes() == want[:rows].tobytes(), name


# -- batch invariance on random problems ------------------------------------


@st.composite
def random_runs(draw):
    """A small random problem, a list of runs for it, some of which may
    overflow, and a chunk budget."""
    kind = draw(st.sampled_from([LS, LOG]))
    m, n, d = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    value = st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False)
    features = np.array(draw(st.lists(value, min_size=m * n * d, max_size=m * n * d)))
    if kind is LOG:
        labels = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m * n, max_size=m * n))
    else:
        labels = draw(st.lists(value, min_size=m * n, max_size=m * n))
    edges = draw(st.sets(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
                         .filter(lambda e: e[0] < e[1])))
    reg = draw(st.sampled_from([Regularizer.zero(), Regularizer.l1(0.05)]))
    problem = ProblemBundle(
        features.reshape(m, n, d), np.array(labels).reshape(m, n), kind=kind,
        regularizer=reg, schedule=GraphSchedule((metropolis_weights(edges, m, 0.1 / m),), 1))
    # a huge step overflows a least-squares run within a few epochs, the
    # largest any run at its first steps
    gammas = st.sampled_from([0.05, 0.3, 1e10, 1e308])
    shared = draw(st.none() | gammas)
    shape = dict(horizon=draw(st.integers(1, 6)), cadence=draw(st.none() | st.integers(1, 3)),
                 record_v=draw(st.booleans()), x0=draw(st.sampled_from([0.0, 1.0])))
    cfgs = [
        RunConfig(draw(st.sampled_from(engine.ALGORITHMS)),
                  step=draw(gammas) if shared is None else shared,
                  seed=draw(st.integers(0, 5)), **shape)
        for _ in range(draw(st.integers(2, 5)))
    ]
    # an epoch of one run holds or makes 64 to 752 bytes: 1-epoch,
    # few-epoch and whole-horizon chunks, of other lengths alone than in
    # the batch
    budget = draw(st.sampled_from([1, 600, 2000, 1 << 40]))
    return problem, cfgs, budget


def _outcome(cfgs, problem):
    try:
        return run(cfgs, problem), None
    except NonFiniteIterate as exc:
        return None, (exc.run, exc.agent, exc.epoch, exc.inner_step, exc.phase, str(exc))


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("path", ["serial", "forked"])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=random_runs())
def test_a_batch_gives_each_run_its_solo_trace(monkeypatch, path, case):
    problem, cfgs, budget = case
    monkeypatch.setattr(engine, "_cpu_count", lambda: 1 if path == "serial" else 3)
    monkeypatch.setattr(engine, "_LANE_WORK", 1)
    monkeypatch.setattr(engine, "MAX_CHUNK_BYTES", budget)
    solo = [_outcome([cfg], problem) for cfg in cfgs]
    traces, failure = _outcome(cfgs, problem)
    assert_no_child_left()
    # the failure raised is that of the first run that fails alone
    want = next((f for _, f in solo if f is not None), None)
    assert failure == want
    if want is None:
        for got, (expected, _) in zip(traces, solo, strict=True):
            _assert_same_trace(got, expected[0])
        _assert_same_states(iterates(cfgs, problem, traces), [
            states for cfg, (expected, _) in zip(cfgs, solo)
            for states in iterates([cfg], problem, expected)])
        assert_no_child_left()
