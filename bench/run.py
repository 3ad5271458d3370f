"""Benchmark for dpgrr: end-to-end metrics, correctness gate, traced layer split.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed batch job.  This process launches one fresh
child (``bench/child.py``) per repetition, one at a time, with BLAS and
OpenMP pinned to one thread in the child's environment.  It times
repetitions of the workload until ``--seconds`` is spent, at least one,
and checks every (algorithm, seed) CSV of every repetition.  When only
one timed repetition fits, an untimed check repetition reruns the first
sampler seed, so that every invocation compares CSV digests across
repetitions.

``--trace 0`` prints the end-to-end metrics: medians over the timed
repetitions, with times in reference seconds (wall time rescaled by the
CPU speed the child measures as it runs; see ``child.SpeedClock``).  ``--trace 1`` times one repetition, runs one traced
repetition instead of the check, and prints the per-layer split from
the traced one.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Workload, pairs, prepare, sample_grads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORK_DIR = ROOT / ".bench_work"

CSV_HEADER = "epoch,F_bar,F_hat,subopt,D,max_consensus_dist,sigma_star_sq,V_t"
F_STAR_TOL = 1e-9
HARD_LIMIT_S = 170.0  # the whole invocation must end within 180 s
CHILD_THREAD_PINS = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}

# self time of these spans, summed, is the layer's time
LAYER_SELF_TIME = {
    "engine.self_s": ("engine.run", "engine.epoch"),
    "objectives.grad_s": ("objectives.grad",),
    "objectives.record_s": ("objectives.record",),
    "sampling.draw_s": ("sampling.draw",),
    "metrics.consensus_s": ("metrics.consensus",),
    "netgraph.mix_weights_s": ("netgraph.mix_weights",),
    "netgraph.validate_s": ("netgraph.validate",),
    "proxops.prox_s": ("proxops.prox",),
    "proxops.subgrad_s": ("proxops.subgrad",),
    # F* resolution: the solve when the store misses, the store reads always
    "reference.solve_s": ("reference.solve", "reference.fixture"),
    "config.load_s": ("config.load",),
    "config.build_s": ("config.build",),
    "cli.csv_write_s": ("cli.csv_write",),
}
# outermost calls of these spans, counted
LAYER_CALLS = {
    "engine.epochs": "engine.epoch",
    "objectives.grad_calls": "objectives.grad",
    "objectives.record_calls": "objectives.record",
    "sampling.draw_calls": "sampling.draw",
    "metrics.consensus_calls": "metrics.consensus",
    "netgraph.mix_weights_calls": "netgraph.mix_weights",
    "proxops.prox_calls": "proxops.prox",
}
PER_LAYER_UNITS = {
    "engine.run_s": "s",
    "engine.self_s": "s",
    "engine.epochs": "count",
    "engine.epoch_ms_p50": "ms",
    "engine.epoch_ms_p99": "ms",
    "objectives.grad_s": "s",
    "objectives.grad_calls": "count",
    "objectives.record_s": "s",
    "objectives.record_calls": "count",
    "sampling.draw_s": "s",
    "sampling.draw_calls": "count",
    "metrics.consensus_s": "s",
    "metrics.consensus_calls": "count",
    "netgraph.mix_weights_s": "s",
    "netgraph.mix_weights_calls": "count",
    "netgraph.validate_s": "s",
    "proxops.prox_s": "s",
    "proxops.prox_calls": "count",
    "proxops.subgrad_s": "s",
    "reference.solve_s": "s",
    "reference.solve_iters": "count",
    "reference.fixture_s": "s",
    "config.load_s": "s",
    "config.build_s": "s",
    "cli.csv_write_s": "s",
    "cli.csv_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Rep:
    """One child run: its timings and the verdict on each (algorithm, seed)."""

    kind: str  # "timed", "check" (first seed only) or "traced"
    runs: int
    elapsed_s: float = 0.0
    result: dict | None = None
    digests: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)
    final_subopt: dict = field(default_factory=dict)
    layers: dict | None = None


def check_csv(text: str, horizon: int, f_star: float, ceiling: float):
    """Return (failure reason or None, final subopt or None)."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return "wrong CSV header", None
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != horizon + 1:
        return f"{len(rows)} rows, expected {horizon + 1}", None
    try:
        for row in rows:
            if len(row) != 8:
                return f"row {row[0]} has {len(row)} fields", None
            if not all(math.isfinite(float(row[k])) for k in (1, 4, 5)):
                return f"non-finite F_bar, D or max_consensus_dist at epoch {row[0]}", None
            if row[2] and float(row[2]) < f_star - F_STAR_TOL:
                return f"F_hat below F* at epoch {row[0]}", None
        final = float(rows[-1][3])
    except ValueError as exc:
        return f"unparsable CSV value: {exc}", None
    if not final <= ceiling:
        return f"final subopt {final!r} above ceiling {ceiling!r}", final
    return None, final


def check_outputs(rep: Rep, workload: Workload, raw: dict, out: Path) -> None:
    """Fill ``rep`` with the digest and verdict of every (algorithm, seed) CSV."""
    runs = pairs(raw)
    try:
        manifest = json.loads((out / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        rep.failures = {p: f"no manifest: {exc}" for p in runs}
        return
    source, f_star = manifest.get("F_star_source", ""), manifest.get("F_star")
    run_failure = None
    if not isinstance(f_star, float):
        rep.failures = {p: f"manifest F_star is {f_star!r}" for p in runs}
        return
    if not source.startswith(workload.f_star_source):
        run_failure = f"F_star_source {source!r}, expected {workload.f_star_source}..."
    elif workload.f_star is not None and not abs(f_star - workload.f_star) <= F_STAR_TOL:
        run_failure = f"F* {f_star!r} differs from the fixture {workload.f_star!r}"
    for algo, seed in runs:
        name = manifest.get("files", {}).get(f"{algo}/seed{seed}")
        if name is None or not (out / name).is_file():
            rep.failures[(algo, seed)] = "no CSV written"
            continue
        data = (out / name).read_bytes()
        rep.digests[(algo, seed)] = hashlib.sha256(data).hexdigest()
        reason, final = check_csv(
            data.decode(), raw["T"], f_star, workload.subopt_ceiling[algo])
        rep.final_subopt[(algo, seed)] = final
        if run_failure or reason:
            rep.failures[(algo, seed)] = run_failure or reason


def summarize_spans(path: Path, wall_s: float, counters: dict) -> dict:
    """Per-layer metrics from one traced repetition's spans."""
    import numpy as np

    with np.load(path) as z:
        span_names = [str(s) for s in z["span_names"]]
        name = z["name"].astype(np.intp)
        parent = z["parent"].astype(np.intp)
        dur = z["end"] - z["start"]
    has_parent = parent >= 0
    covered = np.zeros(dur.size)
    np.add.at(covered, parent[has_parent], dur[has_parent])
    self_time = dur - covered
    k = len(span_names)
    self_by = np.bincount(name, weights=self_time, minlength=k)
    parent_name = np.where(has_parent, name[np.where(has_parent, parent, 0)], -1)
    outer = parent_name != name
    calls_by = np.bincount(name[outer], minlength=k)
    incl_by = np.bincount(name[outer], weights=dur[outer], minlength=k)

    def by(table, span):
        return table[span_names.index(span)] if span in span_names else 0

    layers = {m: float(sum(by(self_by, s) for s in spans))
              for m, spans in LAYER_SELF_TIME.items()}
    layers.update({m: int(by(calls_by, s)) for m, s in LAYER_CALLS.items()})
    epoch_ms = (dur[name == span_names.index("engine.epoch")] * 1e3
                if "engine.epoch" in span_names else np.zeros(0))
    layers.update({
        "engine.run_s": float(by(incl_by, "engine.run")),
        "engine.epoch_ms_p50": float(np.percentile(epoch_ms, 50)) if epoch_ms.size else 0.0,
        "engine.epoch_ms_p99": float(np.percentile(epoch_ms, 99)) if epoch_ms.size else 0.0,
        "reference.fixture_s": float(by(self_by, "reference.fixture")),
        "reference.solve_iters": int(counters["solve_iters"]),
        "cli.csv_bytes": int(counters["csv_bytes"]),
        "trace.wall_s": wall_s,
        # time outside every traced span: argument parsing, validation
        # arithmetic, hashing, the manifest write
        "cli.untraced_s": wall_s - float(dur[~has_parent].sum()),
    })
    return layers


def run_rep(workload: Workload, seed: int, work: Path, index: int,
            kind: str, timeout: float) -> Rep:
    began = time.perf_counter()
    rep_dir = work / f"rep{index}"
    rep_dir.mkdir()
    raw = prepare(workload, ROOT, rep_dir, seed, first_seed_only=kind == "check")
    out = rep_dir / "out"
    setups = 0 if kind == "traced" else workload.setup_repeats
    cmd = [sys.executable, str(CHILD), str(ROOT), str(rep_dir / "config.yaml"),
           str(out), str(rep_dir), "1" if kind == "traced" else "0", str(setups)]
    env = {**os.environ, **CHILD_THREAD_PINS}
    rep = Rep(kind=kind, runs=len(pairs(raw)))
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
        failure = None
        if proc.returncode != 0:
            failure = f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
        else:
            rep.result = json.loads((rep_dir / "result.json").read_text())
            if rep.result["rc"] != 0 or rep.result["setup_s"] is None:
                failure = (f"dpgrr run exited {rep.result['rc']}: "
                           f"{proc.stderr.strip()[-500:]}")
    except subprocess.TimeoutExpired:
        failure = f"timed out after {timeout:.0f} s"
    if failure is None:
        check_outputs(rep, workload, raw, out)
        if kind == "traced":
            rep.layers = summarize_spans(rep_dir / "spans.npz", rep.result["wall_s"],
                                         rep.result["counters"])
    else:
        print(f"repetition {index}: {failure}", file=sys.stderr)
        rep.result = None
        rep.failures = {p: failure for p in pairs(raw)}
    shutil.rmtree(rep_dir)
    rep.elapsed_s = time.perf_counter() - began
    return rep


def mark_nondeterminism(reps: list[Rep]) -> None:
    """A CSV whose digest differs from the first repetition's fails."""
    first: dict = {}
    for i, rep in enumerate(reps):
        for run, digest in rep.digests.items():
            ref = first.setdefault(run, (i, digest))
            if ref[1] != digest and run not in rep.failures:
                rep.failures[run] = f"CSV digest differs from repetition {ref[0]}"


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    for needed in ("src/dpgrr/cli.py", "configs/sampler_comparison.yaml",
                   "configs/fixtures/oracle.json", "configs/data/a9a_subset.libsvm"):
        if not (ROOT / needed).is_file():
            print(f"missing {needed}: run from a checkout of the repository",
                  file=sys.stderr)
            return 2
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)

    began = time.perf_counter()
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        work = Path(tmp)
        reps: list[Rep] = []
        while True:
            left = HARD_LIMIT_S - (time.perf_counter() - began)
            reps.append(run_rep(workload, args.seed, work, len(reps), "timed", left))
            if reps[-1].result is None or traced:
                break
            spent = time.perf_counter() - began
            longest = max(r.elapsed_s for r in reps)
            # start another only if it fits, with room left for the last one
            if spent + longest > min(args.seconds, HARD_LIMIT_S - 2.0 * longest):
                break
        last = "traced" if traced else "check" if len(reps) == 1 else None
        if last and reps[-1].result is not None:
            left = HARD_LIMIT_S - (time.perf_counter() - began)
            reps.append(run_rep(workload, args.seed, work, len(reps), last, left))
    try:
        WORK_DIR.rmdir()
    except OSError:  # not empty: another invocation is using it
        pass

    mark_nondeterminism(reps)
    attempted = sum(r.runs for r in reps)
    failed = sum(len(r.failures) for r in reps)
    timed = [r for r in reps if r.kind == "timed" and r.result is not None]
    if not timed or (traced and reps[-1].layers is None):
        print("no repetition completed; no metrics to report", file=sys.stderr)
        return 1

    raw = workload.make_config(ROOT, args.seed)
    grads = sample_grads(raw)
    walls = [r.result["wall_s"] for r in timed]
    # every set-up of the same problem is a sample, the check repetition's too
    setups = [s for r in reps if r.kind != "traced" and r.result is not None
              for s in [r.result["setup_s"], *r.result["setups_s"]]]
    rates = [grads / (r.result["wall_s"] - r.result["setup_s"]) for r in timed]
    rss = [r.result["peak_rss_kib"] / 1024.0 for r in timed]
    info = timed[0].result

    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}: sampler seeds {raw['seeds']}, "
          f"{len(pairs(raw))} (algorithm, seed) runs of T={raw['T']} per repetition, "
          f"{grads} per-sample gradients")
    extra = {"traced": " + 1 traced", "check": " + 1 check (first seed)"}.get(reps[-1].kind, "")
    print(f"closed loop: {len(timed)} timed repetitions{extra}, one child process at a "
          "time, BLAS/OpenMP threads pinned to 1 in the child")
    print(f"host: nproc={os.cpu_count()} python={info['python']} numpy={info['numpy']}; "
          "shared machine, other tenants' load is not controlled")
    print("times are reference seconds (wall time rescaled by the CPU speed a "
          "calibration kernel measures every 0.1 s); per timed repetition, raw "
          "wall s / relative speed: " + ", ".join(
              f"{fmt(r.result['wall_raw_s'])}/{r.result['speed']:.3f}" for r in timed))
    for run in sorted({run for r in reps for run in r.digests}):
        digests = {r.digests[run] for r in reps if run in r.digests}
        subopts = [r.final_subopt[run] for r in reps if r.final_subopt.get(run) is not None]
        final = fmt(subopts[0]) if subopts else "-"
        print(f"csv {run[0]} seed={run[1]} sha256={','.join(sorted(digests))} "
              f"final_subopt={final}")
    for r in reps:
        for run, reason in sorted(r.failures.items()):
            print(f"FAILED {run[0]} seed={run[1]}: {reason}")

    failed_frac = failed / attempted
    if traced:
        layers = dict(reps[-1].layers)
        # the traced repetition runs without the speed clock: compare raw times
        layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(
            r.result["wall_raw_s"] for r in timed)
        wall = layers["trace.wall_s"]
        print("per-layer split of the traced repetition (self time, share of traced wall):")
        shares = {m: layers[m] for m in LAYER_SELF_TIME}
        shares["(untraced cli code)"] = layers["cli.untraced_s"]
        for m, value in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  {m:26s} {value:10.4f} s  {100.0 * value / wall:5.1f}%")
        print("no wait-time metrics: every layer runs in one thread between "
              "synchronous barriers, so no layer waits on another")
        metrics = {m: {"value": layers[m], "unit": u} for m, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "sample_grads_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MiB"},
            "passed_frac": {"value": 1.0 - failed_frac, "unit": "ratio"},
        }
        samples = {"wall_s": walls, "setup_s": setups, "sample_grads_per_s": rates,
                   "peak_rss_mb": rss}
        for m, entry in metrics.items():
            detail = ""
            if m in samples:
                detail = f"  (median of {len(samples[m])}: " \
                         f"{', '.join(fmt(v) for v in samples[m])})"
            print(f"{m:20s} {fmt(entry['value']):>12s} {entry['unit']}{detail}")
    print(f"failed_frac {failed}/{attempted} = {fmt(failed_frac)} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
