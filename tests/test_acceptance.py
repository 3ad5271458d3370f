"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np

from conftest import CONFIGS, golden_section_prox_1d, iterates, sqrt_step
from dpgrr.cli import main as cli_main
from dpgrr.config import build_problem, load_config
from dpgrr.dataio import synthesize_classification
from dpgrr.engine import ProblemBundle, RunConfig, run
from dpgrr.netgraph import GraphSchedule, StepsMode, metropolis_weights
from dpgrr.objectives import SmoothLossKind
from dpgrr.proxops import Regularizer, prox
from dpgrr.reference import solve_centralized
from oracles import (
    centralized_prox_rr,
    consensus_weights_for_epoch,
    prefix_average_stats,
    sample_value_grad,
    transition_product,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_sampling_without_replacement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    worst_mean = 0.0
    worst_var = 0.0
    for n in range(2, 7):
        vecs = rng.uniform(-1.0, 1.0, size=(n, 3))
        center = vecs.mean(axis=0)
        sigma2 = float(np.mean(np.sum((vecs - center) ** 2, axis=1)))
        for k in range(1, n + 1):
            mean, msd = prefix_average_stats(list(vecs), k)
            want = (n - k) / (k * (n - 1)) * sigma2
            worst_mean = max(worst_mean, float(np.abs(mean - center).max()))
            worst_var = max(worst_var, abs(msd - want))
    elapsed = time.perf_counter() - t0
    ok = worst_mean <= 1e-12 and worst_var <= 1e-12 and elapsed < 10.0
    report(
        "1 sampling-without-replacement lemma",
        ok,
        f"mean dev {worst_mean:.2e}, variance dev {worst_var:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_prox_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        lam = float(rng.uniform(1e-4, 3.0))
        gamma = float(rng.uniform(1e-3, 4.0))
        xi = float(rng.normal(scale=4.0))
        got = prox(Regularizer.l1(lam), gamma, np.array([xi]))[0]
        want = golden_section_prox_1d(lambda z: lam * abs(z), gamma, xi)
        worst = max(worst, abs(got - want))
    expansion = 0.0
    for _ in range(1000):
        lam = float(rng.uniform(0.0, 3.0))
        gamma = float(rng.uniform(1e-3, 4.0))
        x, y = rng.normal(size=8), rng.normal(size=8)
        reg = Regularizer.l1(lam)
        num = np.linalg.norm(prox(reg, gamma, x) - prox(reg, gamma, y))
        den = np.linalg.norm(x - y)
        expansion = max(expansion, num / den)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and expansion <= 1.0 + 1e-12 and elapsed < 5.0
    report(
        "2 prox correctness + nonexpansiveness",
        ok,
        f"minimizer dev {worst:.2e}, max expansion {expansion:.12f}, {elapsed:.2f}s",
    )


def _random_valid_schedule(rng) -> GraphSchedule:
    m = int(rng.integers(2, 11))
    period = int(rng.integers(1, 4))
    mats = []
    for _ in range(period):
        nodes = rng.permutation(m)
        edges = {
            (int(nodes[i]), int(nodes[rng.integers(0, i)])) for i in range(1, m)
        }
        for _ in range(int(rng.integers(0, m))):
            i, j = rng.integers(0, m, size=2)
            if i != j:
                edges.add((int(i), int(j)))
        mats.append(metropolis_weights(edges, m, 0.01))
    return GraphSchedule(tuple(mats), period)


def test_criterion_3_mixing_algebra():
    rng = np.random.default_rng(99)
    worst_sum = 0.0
    for _ in range(100):
        sched = _random_valid_schedule(rng)
        for mode in (StepsMode.growing(), StepsMode.fixed(int(rng.integers(1, 6)))):
            for t in range(4):
                w = consensus_weights_for_epoch(sched, t, mode)
                worst_sum = max(
                    worst_sum,
                    float(np.abs(w.sum(axis=1) - 1).max()),
                    float(np.abs(w.sum(axis=0) - 1).max()),
                )
    worst_gap = 0.0
    for m in range(2, 11):
        edges = {(i, (i + 1) % m) for i in range(m)} if m > 2 else {(0, 1)}
        ring = GraphSchedule((metropolis_weights(edges, m, 0.01),), 1)
        product = transition_product(ring, 0, 200)
        worst_gap = max(worst_gap, float(np.abs(product - 1.0 / m).max()))
    ok = worst_sum <= 1e-10 and worst_gap <= 1e-6
    report(
        "3 mixing algebra",
        ok,
        f"stochasticity dev {worst_sum:.2e} over 100 schedules, "
        f"uniformity gap {worst_gap:.2e} after 200 factors",
    )


def test_criterion_4_gradient_checks():
    rng = np.random.default_rng(31)
    h = 1e-6
    worst = 0.0
    for trial in range(500):
        kind = SmoothLossKind.LOGISTIC if trial % 2 == 0 else SmoothLossKind.LEAST_SQUARES
        d = int(rng.integers(1, 7))
        a = rng.normal(size=d)
        a /= max(1.0, np.linalg.norm(a))
        label = (
            float(rng.choice([-1.0, 1.0]))
            if kind is SmoothLossKind.LOGISTIC
            else float(rng.normal())
        )
        x = rng.uniform(-2.0, 2.0, size=d)
        _, grad = sample_value_grad(kind, a, label, x)
        fd = np.empty(d)
        for i in range(d):
            up, down = x.copy(), x.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (
                sample_value_grad(kind, a, label, up)[0]
                - sample_value_grad(kind, a, label, down)[0]
            ) / (2 * h)
        rel = np.linalg.norm(grad - fd) / max(1.0, float(np.linalg.norm(grad)))
        worst = max(worst, rel)
    ok = worst <= 1e-5
    report("4 gradient finite-difference check", ok, f"worst relative error {worst:.2e}")


def _traces(problem, horizon, step, runs):
    """Traces of the ``(algorithm, seed)`` runs, advanced as one batch,
    each recording its first and last epoch."""
    cfgs = [RunConfig(algo, horizon, step, seed=seed, cadence=horizon) for algo, seed in runs]
    return run(cfgs, problem)


def test_criterion_5_consensus(canonical_problem):
    t0 = time.perf_counter()
    traces = {
        T: _traces(canonical_problem, T, sqrt_step(canonical_problem, T), [("dpg-rr", 42)])[0]
        for T in (100, 1600)
    }
    elapsed = time.perf_counter() - t0
    dist = {T: trace.max_consensus_dist[-1] for T, trace in traces.items()}
    energy = {T: trace.disagreement[-1] for T, trace in traces.items()}
    dist_ok = dist[1600] <= 0.1 * dist[100]
    d_ok = energy[1600] <= 0.01 * energy[100]
    ok = dist_ok and d_ok and elapsed < 120.0
    report(
        "5 consensus decay",
        ok,
        f"dist {dist[100]:.2e} -> {dist[1600]:.2e}, "
        f"D {energy[100]:.2e} -> {energy[1600]:.2e}, {elapsed:.1f}s",
    )


def test_criterion_6_rate(canonical_problem, canonical_solution):
    medians = {}
    for T in (100, 1600):
        traces = _traces(canonical_problem, T, sqrt_step(canonical_problem, T),
                         [("dpg-rr", seed) for seed in range(1, 11)])
        finals = [trace.f_hat[-1] - canonical_solution.f_star for trace in traces]
        assert all(f > -1e-9 for f in finals)
        medians[T] = float(np.median(finals))
    ratio = medians[1600] / medians[100]
    ok = ratio <= 0.5
    report(
        "6 averaged-iterate rate",
        ok,
        f"median subopt {medians[100]:.4f} @T=100 -> {medians[1600]:.4f} @T=1600 "
        f"(ratio {ratio:.3f} <= 0.5)",
    )


def test_criterion_7_sampler_ordering():
    cfg = load_config(CONFIGS / "sampler_comparison.yaml")
    problem, _ = build_problem(cfg)
    sol = solve_centralized(
        problem.features, problem.labels, problem.regularizer, problem.kind, tol=1e-10
    )
    assert sol.converged
    algos = ("dpg-rr", "dpg-sg", "dpg-ig")
    traces = _traces(problem, cfg.horizon, 0.3,
                     [(algo, seed) for algo in algos for seed in cfg.seeds])
    finals = {
        algo: [trace.f_hat[-1] - sol.f_star
               for trace in traces[k * len(cfg.seeds):(k + 1) * len(cfg.seeds)]]
        for k, algo in enumerate(algos)
    }
    rr, sg, ig = finals["dpg-rr"], finals["dpg-sg"], finals["dpg-ig"]
    assert all(v > 0.0 for vals in finals.values() for v in vals)
    wins = sum(1 for a, b in zip(rr, sg) if a <= b)
    ig_ratio = float(np.median(ig) / np.median(rr))
    table = "\n".join(
        f"    seed {seed:>2}: rr={a:.6f} sg={b:.6f} ig={c:.6f}"
        for seed, a, b, c in zip(cfg.seeds, rr, sg, ig)
    )
    print("\n" + table)
    ok = wins >= 7 and ig_ratio <= 2.0
    report(
        "7 sampler ordering",
        ok,
        f"reshuffling beats with-replacement in {wins}/10 seeds, "
        f"fixed-order median at {ig_ratio:.2f}x of reshuffling",
    )


def test_criterion_8_oracle_equivalence():
    features, labels = synthesize_classification(m=1, n=5, d=3, separation=1.0, seed=4)
    reg = Regularizer.l1(0.02)
    problem = ProblemBundle(
        features,
        labels,
        kind=SmoothLossKind.LOGISTIC,
        regularizer=reg,
        schedule=GraphSchedule((metropolis_weights(set(), 1, 1.0),), 1),
    )
    cfg = RunConfig("dpg-rr", 50, 0.1, seed=77)
    [states] = iterates([cfg], problem, run([cfg], problem))
    oracle = centralized_prox_rr(
        features[0], labels[0], SmoothLossKind.LOGISTIC, reg, gamma=0.1,
        horizon=50, seed=77,
    )
    worst = max(
        float(np.abs(states[t][0] - oracle[t]).max()) for t in range(51)
    )
    ok = worst <= 1e-12
    report(
        "8 one-agent oracle equivalence",
        ok,
        f"max per-epoch deviation {worst:.2e} over 50 epochs",
    )


def test_criterion_9_determinism(tmp_path):
    mismatches = []
    checked = 0
    for config in sorted(CONFIGS.glob("*.yaml")):
        out_a = tmp_path / (config.stem + "_a")
        out_b = tmp_path / (config.stem + "_b")
        for out in (out_a, out_b):
            rc = cli_main(["run", "--config", str(config), "--output", str(out), "-q"])
            assert rc == 0, f"{config.name} failed"
        for csv_a in sorted(out_a.glob("*.csv")):
            checked += 1
            csv_b = out_b / csv_a.name
            if csv_a.read_bytes() != csv_b.read_bytes():
                mismatches.append(f"{config.name}/{csv_a.name}")
    ok = not mismatches and checked > 0
    report(
        "9 byte-identical reruns",
        ok,
        f"{checked} CSVs compared across {len(list(CONFIGS.glob('*.yaml')))} configs"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )
