"""Experiment runner CLI: validate a config, precompute oracles, run algorithms.

Subcommands
    run       execute every configured algorithm/seed, write CSV metrics
              and a manifest into the output directory
    validate  check the mixing matrices, connectivity windows, and step
              bounds; exit 0 only if everything passes
    oracle    solve the centralized problem to high accuracy and record
              the certified optimal value in the fixtures store;
              ``--refresh`` re-solves and replaces a stored value
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import sys
import warnings
from pathlib import Path

from . import __version__
from .config import (
    ConfigError,
    ExperimentConfig,
    build_problem,
    canonical_dict,
    config_hash,
    load_config,
    problem_hash,
)
from .engine import (
    ProblemBundle,
    RunConfig,
    RunTrace,
    StepBoundViolation,
    StepBoundWarning,
    WorkerLost,
    run,
    step_scale_bound,
)
from .netgraph import validate_schedule
from .objectives import gradient_bound, lipschitz_constant
from .reference import (
    fixture_x_star, load_fixtures, solve_centralized, store_fixture, usable_fixture,
)

CSV_HEADER = "epoch,F_bar,F_hat,subopt,D,max_consensus_dist,sigma_star_sq,V_t"

ORACLE_TOL = 1e-10


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def write_metrics_csv(path: Path, trace: RunTrace) -> None:
    """One line per row under ``CSV_HEADER``; an empty cell is a None.

    Formats column by column: the epoch with ``str``, the columns that are
    always floats with ``repr``, and only those that can be None through
    ``_fmt``, so every cell reads as it would row by row.
    """
    epoch, f_bar, f_hat, subopt, disagreement, max_dist, sigma_star, v_t = (
        zip(*trace.rows) if trace.rows else [()] * 8)
    cells = zip(
        map(str, epoch), map(repr, map(float, f_bar)), map(_fmt, f_hat), map(_fmt, subopt),
        map(repr, map(float, disagreement)), map(repr, map(float, max_dist)),
        map(_fmt, sigma_star), map(_fmt, v_t),
    )
    path.write_text("\n".join([CSV_HEADER, *map(",".join, cells)]) + "\n")


def _csv_name(algo: str, seed: int, multi_seed: bool) -> str:
    base = algo.replace("-", "_")
    return f"{base}_seed{seed}_metrics.csv" if multi_seed else f"{base}_metrics.csv"


def _validate(cfg: ExperimentConfig, problem: ProblemBundle, out) -> str | None:
    """Print validation results; return the first violated assumption, if any.

    A step scale above its bound is a violation only while
    ``enforce_step_bound`` holds; otherwise it is reported as a warning.
    """
    report = validate_schedule(problem.schedule)
    print(report.render(), file=out)
    first = report.first_failure()
    lipschitz = lipschitz_constant(problem.features, problem.kind)
    print(
        f"step-size bound for sqrt rule: scale <= "
        f"{step_scale_bound(lipschitz, problem.n):.6g}",
        file=out,
    )
    for algo in cfg.algorithms:
        violation = algo.step.bound_violation(lipschitz, problem.n)
        if violation is None:
            continue
        message = f"step-size bound: {algo.name} {violation}"
        if not cfg.enforce_step_bound:
            print(f"warning: {message}", file=sys.stderr)
            continue
        print(message, file=out)
        if first is None:
            first = message
    return first


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    problem, _ = build_problem(cfg)
    first = _validate(cfg, problem, sys.stdout)
    if first is not None:
        print(f"FAIL: {first}", file=sys.stderr)
        return 1
    print("PASS")
    return 0


def _resolve_f_star(cfg: ExperimentConfig, problem: ProblemBundle, need_x_star: bool):
    """Optimal value from a usable fixture, else computed on the fly.

    A fixture solved at a looser tolerance than ``ORACLE_TOL`` counts as
    absent, so a run never takes a coarser F* than it would solve itself.
    Returns ``(f_star, x_star, source, oracle)``; ``oracle`` reports the
    on-the-fly solve (``converged``, ``mapping_norm``, ``iterations``,
    ``step``) and is None for a fixture.
    """
    key = problem_hash(cfg)
    fixtures_path = cfg.fixtures_path()
    entry = usable_fixture(load_fixtures(fixtures_path), fixtures_path, key, ORACLE_TOL)
    if entry is not None:
        x_star = fixture_x_star(fixtures_path, entry) if need_x_star else None
        return entry["f_star"], x_star, f"fixture:{key[:16]}", None
    solution = solve_centralized(
        problem.features, problem.labels, problem.regularizer, problem.kind,
        tol=ORACLE_TOL,
    )
    source = f"computed(tol={ORACLE_TOL:g})"
    if not solution.converged:
        print(
            f"warning: oracle did not reach tol {ORACLE_TOL:g} "
            f"(mapping norm {solution.mapping_norm:g}); using its last point",
            file=sys.stderr,
        )
        source = f"computed(best-effort, tol={ORACLE_TOL:g} not reached)"
    oracle = {
        "converged": solution.converged,
        "mapping_norm": solution.mapping_norm,
        "iterations": solution.iterations,
        "step": solution.step,
    }
    return solution.f_star, solution.x_star, source, oracle


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seeds=(args.seed,))
    out_dir = Path(args.output) if args.output else Path(cfg.output_dir)

    problem, part = build_problem(cfg)
    if part is not None and part.dropped:
        print(
            f"note: dropped {part.dropped} of {part.m * part.n + part.dropped} "
            f"samples to give every agent exactly {part.n}",
            file=sys.stderr,
        )
    first = _validate(cfg, problem, io.StringIO() if args.quiet else sys.stdout)
    if first is not None:
        print(f"FAIL: {first}", file=sys.stderr)
        return 1

    f_star, x_star, f_star_source, f_star_oracle = _resolve_f_star(
        cfg, problem, need_x_star=cfg.diagnostics.record_sigma_star
    )
    problem = dataclasses.replace(problem, f_star=f_star, x_star=x_star)

    runs = [(algo, seed) for algo in cfg.algorithms for seed in cfg.seeds]
    run_cfgs = [
        RunConfig(
            algorithm=algo.name,
            horizon=cfg.horizon,
            step=algo.step,
            steps_mode=cfg.graph.steps_mode,
            seed=seed,
            cadence=cfg.snapshot_cadence,
            record_v=cfg.diagnostics.record_v,
            record_sigma_star=cfg.diagnostics.record_sigma_star,
            enforce_step_bound=cfg.enforce_step_bound,
            x0=cfg.x0,
        )
        for algo, seed in runs
    ]
    try:
        with warnings.catch_warnings():
            # `_validate` has already reported an unenforced bound
            warnings.simplefilter("ignore", StepBoundWarning)
            traces = run(run_cfgs, problem)
    except (StepBoundViolation, FloatingPointError, ValueError, WorkerLost) as exc:
        # one call runs the whole config, so a failed run leaves no CSV
        print(f"run failed: {exc}", file=sys.stderr)
        return 1

    out_dir.mkdir(parents=True, exist_ok=True)
    multi_seed = len(cfg.seeds) > 1
    files = {}
    for (algo, seed), trace in zip(runs, traces):
        name = _csv_name(algo.name, seed, multi_seed)
        write_metrics_csv(out_dir / name, trace)
        files[f"{algo.name}/seed{seed}"] = name
        if not args.quiet:
            final = trace.rows[-1]
            sub = "" if final.suboptimality is None else f" subopt={final.suboptimality:.6g}"
            print(f"{algo.name} seed={seed}: {len(trace.rows)} rows{sub}")

    manifest = {
        "version": __version__,
        "config_hash": config_hash(cfg),
        "problem_hash": problem_hash(cfg),
        "config": canonical_dict(cfg),
        "L": lipschitz_constant(problem.features, problem.kind),
        "G_f": gradient_bound(
            problem.features, problem.labels, problem.kind, cfg.least_squares_radius
        ),
        "G_phi": problem.regularizer.subgradient_bound(problem.dim, cfg.least_squares_radius),
        "F_star": f_star,
        "F_star_source": f_star_source,
        "F_star_oracle": f_star_oracle,
        "dropped_samples": 0 if part is None else part.dropped,
        "files": files,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return 0


def cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    problem, _ = build_problem(cfg)
    key = problem_hash(cfg)
    fixtures_path = cfg.fixtures_path()
    existing = usable_fixture(load_fixtures(fixtures_path), fixtures_path, key, args.tol)
    if existing is not None and not args.refresh:
        print(f"fixture {key[:16]} already solved at tol {existing['tol']:g}")
        return 0
    solution = solve_centralized(
        problem.features, problem.labels, problem.regularizer, problem.kind,
        tol=args.tol,
    )
    print(
        f"F* = {solution.f_star!r} (mapping norm {solution.mapping_norm:.3g}, "
        f"{solution.iterations} iterations)"
    )
    if not solution.converged:
        print(
            f"warning: tolerance {args.tol:g} not reached; best-effort value "
            "NOT stored",
            file=sys.stderr,
        )
        return 1
    store_fixture(fixtures_path, key, solution, args.tol, replace=args.refresh)
    print(f"stored fixture {key[:16]} in {fixtures_path}")
    return 0


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0.0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, not {text!r}")
    return tol


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dpgrr",
        description="Distributed proximal-gradient experiments over time-varying networks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run all configured algorithms and seeds")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--output", help="override the config's output directory")
    p_run.add_argument("--seed", type=int, help="run a single seed instead")
    p_run.add_argument("-q", "--quiet", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="check network and step-size assumptions")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=cmd_validate)

    p_orc = sub.add_parser("oracle", help="precompute the certified optimal value")
    p_orc.add_argument("--config", required=True)
    p_orc.add_argument("--tol", type=_tolerance, default=ORACLE_TOL)
    p_orc.add_argument("--refresh", action="store_true",
                       help="re-solve and overwrite a stored fixture (only if converged)")
    p_orc.set_defaults(func=cmd_oracle)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
