#!/usr/bin/env python3
"""Decay of the averaged-iterate suboptimality on the canonical problem.

Runs the shipped 5-agent problem at several horizons with the
gamma = M / sqrt(T) rule (one batch of five seeds per horizon) and prints the
median final suboptimality, illustrating the 1/sqrt(T) trend.
"""

import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from dpgrr.config import StepRule, build_problem, load_config  # noqa: E402
from dpgrr.engine import RunConfig, run  # noqa: E402
from dpgrr.objectives import lipschitz_constant  # noqa: E402
from dpgrr.reference import solve_centralized  # noqa: E402


def main() -> int:
    cfg = load_config(REPO / "configs" / "synthetic_consensus.yaml")
    problem, _ = build_problem(cfg)
    sol = solve_centralized(
        problem.features, problem.labels, problem.regularizer, problem.kind
    )
    print(f"F* = {sol.f_star:.10f} ({sol.iterations} solver iterations)")
    lipschitz = lipschitz_constant(problem.features, problem.kind)
    print(f"{'T':>6} {'median subopt':>15} {'max consensus dist':>20}")
    for horizon in (100, 200, 400, 800, 1600):
        step = StepRule.sqrt_horizon().resolve(lipschitz, problem.n, horizon)
        cfgs = [RunConfig("dpg-rr", horizon, step, seed=seed, cadence=horizon)
                for seed in range(1, 6)]
        traces = run(cfgs, problem)
        med = float(np.median([trace.f_hat[-1] - sol.f_star for trace in traces]))
        dist = float(np.median([trace.max_consensus_dist[-1] for trace in traces]))
        print(f"{horizon:>6} {med:>15.6f} {dist:>20.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
