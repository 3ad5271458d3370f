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
import contextlib
import dataclasses
import io
import json
import math
import sys
from itertools import chain, repeat
from pathlib import Path

import numpy as np

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
from .dataio import Partition
from .engine import (
    ProblemBundle,
    RunConfig,
    RunTrace,
    StepBoundViolation,
    StepRule,
    WorkerLost,
    run,
    step_scale_bound,
)
from .metrics import shuffling_variance
from .netgraph import validate_schedule
from .objectives import gradient_bound, lipschitz_constant, smooth_curvature
from .reference import solve_centralized, store_fixture, usable_fixture

CSV_HEADER = "epoch,F_bar,F_hat,subopt,D,max_consensus_dist,sigma_star_sq,V_t"

ORACLE_TOL = 1e-10


def write_metrics_csv(path: Path, trace: RunTrace, f_star: float | None = None,
                      sigma_star_sq: float | None = None) -> None:
    """One line per recorded epoch under ``CSV_HEADER``, a column at a time:
    the epochs with ``str``, the floats with ``repr``, and an empty cell
    where there is no value (the initial row of a column that starts at
    epoch 1, every row of one not recorded), so every cell reads as it
    would row by row.  ``subopt`` is ``F_hat - f_star``; it and
    ``sigma_star_sq`` are empty when not given."""
    rows = len(trace.epochs)

    def cells(column):
        return map(repr, column.tolist())

    def later(column):
        return repeat("", rows) if column is None else chain([""], cells(column))

    subopt = None if f_star is None else trace.f_hat - f_star
    sigma = "" if sigma_star_sq is None else repr(float(sigma_star_sq))
    lines = zip(
        map(str, trace.epochs.tolist()), cells(trace.f_bar), later(trace.f_hat),
        later(subopt), cells(trace.disagreement),
        cells(trace.max_consensus_dist), repeat(sigma, rows), later(trace.forward_deviation),
    )
    path.write_text("\n".join([CSV_HEADER, *map(",".join, lines)]) + "\n")


@contextlib.contextmanager
def _staged(out_dir: Path, names: list[str]):
    """Yield ``temp``, where ``temp(k)`` is a temporary path in ``out_dir``
    for the file ``names[k]``; when the block succeeds, each is renamed
    to its name.

    ``out_dir`` is created, with its missing parents, on entry.  On any
    failure or interrupt, every temporary file is removed, and so is each
    directory made on entry, so a failed block leaves the filesystem as
    it found it.  Only a failure or interrupt among the renames leaves
    the files already renamed, and the directories that hold them.
    """
    made = []
    missing = out_dir
    while not missing.exists():
        made.append(missing)
        missing = missing.parent

    def temp(k: int) -> Path:
        # formed when used, in the lane that writes the file
        return out_dir / f"{names[k]}.tmp"

    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        yield temp
        for k, name in enumerate(names):
            temp(k).replace(out_dir / name)
    except BaseException:
        for k in range(len(names)):
            temp(k).unlink(missing_ok=True)
        for directory in made:
            with contextlib.suppress(OSError):  # it holds a renamed file
                directory.rmdir()
        raise


def _csv_name(algo: str, seed: int, multi_seed: bool) -> str:
    base = algo.replace("-", "_")
    return f"{base}_seed{seed}_metrics.csv" if multi_seed else f"{base}_metrics.csv"


def _validate(cfg: ExperimentConfig, problem: ProblemBundle, lipschitz: float,
              out) -> str | None:
    """Print validation results; return the first violated assumption, if any.

    A step scale above its bound is a violation only while
    ``enforce_step_bound`` holds; otherwise it is reported as a warning.
    A rule that has no step is always a violation.
    """
    report = validate_schedule(problem.schedule)
    print(report.render(), file=out)
    first = report.first_failure()
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
        if not cfg.enforce_step_bound and algo.step.scale is not None:
            print(f"warning: {message}", file=sys.stderr)
            continue
        print(message, file=out)
        if first is None:
            first = message
    return first


def _build(cfg: ExperimentConfig) -> tuple[ProblemBundle, Partition | None, float]:
    """The config's problem, its partition and its per-sample L.

    Data whose squared sample norm or aggregate curvature L_f overflows
    is a config error: an infinite L makes every 1/sqrt(T) step 0, and an
    infinite L_f makes the F* solve's step 1/L_f 0.
    """
    problem, part = build_problem(cfg)
    features, kind = problem.features, problem.kind
    with np.errstate(over="ignore", invalid="ignore"):
        lipschitz = lipschitz_constant(features, kind)
        # L_f is lambda_max(A^T A) / (4 m) or / m, and lambda_max(A^T A) is
        # at most 4 m n L, so L_f needs computing only near overflow
        finite = lipschitz < math.inf and (
            8.0 * problem.m * problem.n * lipschitz < sys.float_info.max
            or smooth_curvature(features, kind) < math.inf
        )
    if not finite:
        raise ConfigError(
            "features too large: a squared sample norm or the curvature of the "
            "smooth part overflows float64"
        )
    return problem, part, lipschitz


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    problem, _, lipschitz = _build(cfg)
    first = _validate(cfg, problem, lipschitz, sys.stdout)
    if first is not None:
        print(f"FAIL: {first}", file=sys.stderr)
        return 1
    print("PASS")
    return 0


def _resolve_f_star(cfg: ExperimentConfig, problem: ProblemBundle):
    """Optimal value from a usable fixture, else computed on the fly.

    A fixture solved at a looser tolerance than ``ORACLE_TOL``, or on other
    data, counts as absent, so a run never takes a coarser or a stale F*.
    Returns ``(f_star, x_star, source, oracle)``; ``oracle`` reports the
    on-the-fly solve (``converged``, ``mapping_norm``, ``iterations``,
    ``step``) and is None for a fixture.
    """
    key = problem_hash(cfg)
    data = (problem.features, problem.labels)
    if fixture := usable_fixture(cfg.fixtures_path(), key, *data, ORACLE_TOL):
        return (*fixture, f"fixture:{key[:16]}", None)
    solution = solve_centralized(*data, problem.regularizer, problem.kind, tol=ORACLE_TOL)
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

    problem, part, lipschitz = _build(cfg)
    if part is not None and part.dropped:
        print(
            f"note: dropped {part.dropped} of {part.m * part.n + part.dropped} "
            f"samples to give every agent exactly {part.n}",
            file=sys.stderr,
        )
    first = _validate(cfg, problem, lipschitz, io.StringIO() if args.quiet else sys.stdout)
    if first is not None:
        print(f"FAIL: {first}", file=sys.stderr)
        return 1

    f_star, x_star, f_star_source, f_star_oracle = _resolve_f_star(cfg, problem)

    def step(rule: StepRule) -> StepRule:
        # a bound that `_validate` waived: the engine takes the step as given
        if cfg.horizon and rule.bound_violation(lipschitz, problem.n):
            return StepRule.constant(rule.resolve(lipschitz, problem.n, cfg.horizon))
        return rule

    runs = [(algo, seed) for algo in cfg.algorithms for seed in cfg.seeds]
    run_cfgs = [
        RunConfig(
            algorithm=algo.name,
            horizon=cfg.horizon,
            step=step(algo.step),
            steps_mode=cfg.graph.steps_mode,
            seed=seed,
            cadence=cfg.snapshot_cadence,
            record_v=cfg.diagnostics.record_v,
            x0=cfg.x0,
        )
        for algo, seed in runs
    ]
    sigma_star_sq = None
    if cfg.diagnostics.record_sigma_star:
        sigma_star_sq = shuffling_variance(problem.features, problem.labels, problem.kind, x_star)
    multi_seed = len(cfg.seeds) > 1
    names = [_csv_name(algo.name, seed, multi_seed) for algo, seed in runs]
    try:
        # one call runs the whole config, and its CSVs keep their names only
        # once every run has succeeded, so a failed run leaves no CSV
        with _staged(out_dir, names) as temp:

            def finish(k: int, trace: RunTrace):
                # in the process that ran the run: only the summary travels
                write_metrics_csv(temp(k), trace, f_star, sigma_star_sq)
                return len(trace.epochs), (trace.f_hat[-1] if len(trace.f_hat) else None)

            summaries = run(run_cfgs, problem, finish)
    except (StepBoundViolation, FloatingPointError, ValueError, WorkerLost) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1

    files = {}
    for (algo, seed), name, (rows, f_hat) in zip(runs, names, summaries):
        files[f"{algo.name}/seed{seed}"] = name
        if not args.quiet:
            sub = "" if f_hat is None else f" subopt={f_hat - f_star:.6g}"
            print(f"{algo.name} seed={seed}: {rows} rows{sub}")

    manifest = {
        "version": __version__,
        "config_hash": config_hash(cfg),
        "problem_hash": problem_hash(cfg),
        "config": canonical_dict(cfg),
        "L": lipschitz,
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
    problem, _, _ = _build(cfg)
    key = problem_hash(cfg)
    fixtures_path = cfg.fixtures_path()
    data = (problem.features, problem.labels)
    # a refresh reads no entry, so it also repairs a malformed one
    if not args.refresh and usable_fixture(fixtures_path, key, *data, args.tol):
        print(f"fixture {key[:16]} already solved at tol {args.tol:g}")
        return 0
    solution = solve_centralized(*data, problem.regularizer, problem.kind, tol=args.tol)
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
    store_fixture(fixtures_path, key, solution, args.tol, *data)
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
