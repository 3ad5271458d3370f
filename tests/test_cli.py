import dataclasses
import errno
import importlib.util
import json
import math
import os
import re
import signal
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings, strategies as st

import dpgrr.cli
import dpgrr.config
from conftest import assert_no_child_left, sqrt_step
from dpgrr import engine
from dpgrr.cli import CSV_HEADER, main, write_metrics_csv
from dpgrr.config import (
    ConfigError, StepRule, build_problem, canonical_dict, config_hash, load_config,
    problem_hash, step_scale_bound,
)
from dpgrr.engine import RunConfig, run
from dpgrr.metrics import shuffling_variance
from dpgrr.objectives import lipschitz_constant, smooth_curvature
from dpgrr.reference import ReferenceSolution, solve_centralized, store_fixture

TOY_DATA = "3 1:1\n"

TOY_YAML = """\
dataset:
  libsvm: {{path: {data}, m: 1, strategy: contiguous}}
loss: least_squares
regularizer: {{kind: zero}}
graph:
  eta: 0.5
  B: 1
  steps_mode: growing
  slots:
    - []
algorithms:
  - {{name: dpg-rr, step: {{rule: constant, gamma: 0.5}}}}
T: {T}
seeds: {seeds}
output_dir: {out}
"""

SMALL_SYNTH_YAML = """\
dataset:
  synthetic: {{m: 2, n: 3, d: 3, seed: 5, separation: 0.8}}
loss: logistic
regularizer: {{kind: l1, lam: 0.05}}
graph:
  eta: 0.2
  B: 1
  steps_mode: {{fixed: 2}}
  slots:
    - [[0, 1]]
algorithms:
  - {{name: dpg-rr, step: {{rule: sqrt_horizon{scale}}}}}
T: {T}
seeds: [3]
output_dir: {out}
{extra}"""


def write_toy(tmp_path: Path, T=5, seeds="[7]", name="toy.yaml", data=TOY_DATA) -> Path:
    (tmp_path / "toy.libsvm").write_text(data)
    cfg = tmp_path / name
    cfg.write_text(
        TOY_YAML.format(data="toy.libsvm", T=T, seeds=seeds, out=tmp_path / "out")
    )
    return cfg


def write_synth(tmp_path: Path, T=4, scale="", extra="", name="synth.yaml") -> Path:
    cfg = tmp_path / name
    cfg.write_text(
        SMALL_SYNTH_YAML.format(T=T, scale=scale, out=tmp_path / "out", extra=extra)
    )
    return cfg


def read_csv(path: Path) -> list[str]:
    return path.read_text().splitlines()


def test_run_writes_csv_and_manifest(tmp_path, capsys):
    cfg = write_toy(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    lines = read_csv(out / "dpg_rr_metrics.csv")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 7  # header + initial row + 5 epochs
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["F_star"] == 0.0
    assert manifest["L"] == 1.0
    assert manifest["G_phi"] == 0.0
    assert manifest["config_hash"] == config_hash(load_config(cfg))


def test_run_horizon_zero_writes_only_initial_row(tmp_path):
    cfg = write_toy(tmp_path, T=0)
    assert main(["run", "--config", str(cfg), "-q"]) == 0
    lines = read_csv(tmp_path / "out" / "dpg_rr_metrics.csv")
    assert len(lines) == 2
    assert lines[1].startswith("0,")
    # running average is undefined before the first epoch
    assert lines[1].split(",")[2] == ""


@pytest.mark.parametrize("T", [4, 0])
def test_run_prints_each_runs_rows_and_final_subopt(tmp_path, capsys, T):
    cfg = write_synth(tmp_path, T=T)
    assert main(["run", "--config", str(cfg)]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["F_star"] > 0.0
    final = read_csv(tmp_path / "out" / "dpg_rr_metrics.csv")[-1].split(",")
    if T:
        assert summary == f"dpg-rr seed=3: {T + 1} rows subopt={float(final[3]):.6g}"
    else:
        # the initial row has no running average, so no suboptimality
        assert final[3] == "" and summary == "dpg-rr seed=3: 1 rows"


def test_run_twice_byte_identical(tmp_path):
    cfg = write_toy(tmp_path)
    assert main(["run", "--config", str(cfg), "--output", str(tmp_path / "a"), "-q"]) == 0
    assert main(["run", "--config", str(cfg), "--output", str(tmp_path / "b"), "-q"]) == 0
    a = (tmp_path / "a" / "dpg_rr_metrics.csv").read_bytes()
    b = (tmp_path / "b" / "dpg_rr_metrics.csv").read_bytes()
    assert a == b


def test_run_multi_seed_names_files_per_seed(tmp_path):
    cfg = write_toy(tmp_path, seeds="[1, 2]")
    assert main(["run", "--config", str(cfg), "-q"]) == 0
    out = tmp_path / "out"
    assert (out / "dpg_rr_seed1_metrics.csv").exists()
    assert (out / "dpg_rr_seed2_metrics.csv").exists()


def test_run_seed_override(tmp_path):
    cfg = write_toy(tmp_path)
    assert main(["run", "--config", str(cfg), "--seed", "99", "-q"]) == 0
    assert (tmp_path / "out" / "dpg_rr_metrics.csv").exists()


def test_validate_passes_for_shipped_configs(configs_dir):
    for name in (
        "toy_least_squares.yaml",
        "synthetic_consensus.yaml",
        "sampler_comparison.yaml",
        "a9a_subset.yaml",
    ):
        assert main(["validate", "--config", str(configs_dir / name)]) == 0


def test_validate_fails_on_disconnected_schedule(tmp_path, capsys):
    # two agents, empty edge slot: the identity mixing matrix can never
    # carry information between them
    data = tmp_path / "two.libsvm"
    data.write_text("1 1:1\n2 1:1\n")
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        TOY_YAML.format(data=data.name, T=1, seeds="[1]", out=tmp_path / "o")
        .replace("m: 1", "m: 2")
    )
    assert main(["validate", "--config", str(bad)]) == 1
    assert "uniform connectivity" in capsys.readouterr().err


def test_validate_fails_on_oversized_step_scale(tmp_path, capsys):
    # admissible scale for this problem is far below 1e6
    cfg = write_synth(tmp_path, scale=", scale: 1.0e6")
    assert main(["validate", "--config", str(cfg)]) == 1
    assert "step-size bound" in capsys.readouterr().err


def test_run_rejects_invalid_config_before_running(tmp_path):
    cfg = write_synth(tmp_path, scale=", scale: 1.0e6")
    assert main(["run", "--config", str(cfg), "-q"]) == 1
    assert not (tmp_path / "out").exists() or not list((tmp_path / "out").glob("*.csv"))


RR = "  - {name: dpg-rr, step: {rule: constant, gamma: 0.5}}"
OVERFLOWS = "  - {name: dpg-sg, step: {rule: constant, gamma: 1.0e308}}"


def test_a_config_whose_later_run_fails_writes_no_csv(tmp_path, capsys):
    # the second algorithm's first step overflows; the first run is healthy
    cfg = write_toy(tmp_path, seeds="[1, 2]")
    cfg.write_text(cfg.read_text().replace(RR, f"{RR}\n{OVERFLOWS}"))
    assert main(["run", "--config", str(cfg), "-q"]) == 1
    err = capsys.readouterr().err
    assert "run failed: non-finite iterate at run dpg-sg seed 1," in err
    assert not (tmp_path / "out").exists()


def test_an_interrupted_run_leaves_no_file(tmp_path, monkeypatch):
    # interrupted as the second CSV is written, the first already on disk
    written, write = [], dpgrr.cli.write_metrics_csv

    def interrupted(path, *args):
        if written:
            raise KeyboardInterrupt
        written.append(path)
        write(path, *args)

    monkeypatch.setattr(dpgrr.cli, "write_metrics_csv", interrupted)
    cfg = write_toy(tmp_path, seeds="[1, 2]")
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--config", str(cfg), "-q"])
    assert len(written) == 1 and not (tmp_path / "out").exists()


# -- runs in forked lanes -----------------------------------------------------


@pytest.fixture()
def two_lanes(monkeypatch, forks):
    """Make ``run`` see two CPUs; yields the list of forks made."""
    monkeypatch.setattr(engine, "_cpu_count", lambda: 2)
    return forks


def two_lane_toy(tmp_path: Path, first: str, second: str) -> Path:
    """A toy config of two runs, each a lane's ``_LANE_WORK`` run-epochs."""
    cfg = write_toy(tmp_path, T=engine._LANE_WORK, seeds="[1]")
    cfg.write_text(cfg.read_text().replace(RR, f"{first}\n{second}"))
    return cfg


def test_a_failing_worker_lane_removes_the_callers_csv(tmp_path, capsys, monkeypatch,
                                                      two_lanes):
    # the caller writes its run's CSV before it reads the worker's failure
    written, write = [], dpgrr.cli.write_metrics_csv

    def recorded(path, *args):
        written.append(path)
        write(path, *args)

    monkeypatch.setattr(dpgrr.cli, "write_metrics_csv", recorded)
    cfg = two_lane_toy(tmp_path, RR, OVERFLOWS)
    out = tmp_path / "new" / "out"
    assert main(["run", "--config", str(cfg), "--output", str(out), "-q"]) == 1
    assert "run failed: non-finite iterate at run dpg-sg seed 1," in capsys.readouterr().err
    assert len(two_lanes) == 1
    assert_no_child_left()
    assert len(written) == 1 and written[0].parent == out
    # every directory the call made is gone with the file
    assert not (tmp_path / "new").exists()


def test_a_failing_caller_lane_removes_the_workers_csv(tmp_path, capsys, monkeypatch,
                                                      two_lanes):
    out = tmp_path / "out"
    out.mkdir()
    (out / "old.csv").write_text("kept\n")
    caller, write, run_batch = os.getpid(), dpgrr.cli.write_metrics_csv, engine._run_batch

    def writing(path, *args):
        write(path, *args)
        if os.getpid() != caller:
            time.sleep(60)  # killed while it still writes its lane's files

    def after_the_worker_wrote(*args):
        if os.getpid() == caller:
            while len(list(out.iterdir())) == 1:
                time.sleep(0.01)
        return run_batch(*args)

    monkeypatch.setattr(dpgrr.cli, "write_metrics_csv", writing)
    monkeypatch.setattr(engine, "_run_batch", after_the_worker_wrote)
    cfg = two_lane_toy(tmp_path, OVERFLOWS, RR)
    assert main(["run", "--config", str(cfg), "-q"]) == 1
    assert "run failed: non-finite iterate at run dpg-sg seed 1," in capsys.readouterr().err
    assert len(two_lanes) == 1
    assert_no_child_left()
    assert [p.name for p in out.iterdir()] == ["old.csv"]
    assert (out / "old.csv").read_text() == "kept\n"


def test_forked_lanes_write_the_one_process_outputs(tmp_path, capsys, monkeypatch,
                                                   two_lanes):
    cfg = write_synth(tmp_path, T=engine._LANE_WORK // 2,
                      extra="diagnostics: {record_v: true, record_sigma_star: true}\n")
    cfg.write_text(cfg.read_text().replace("seeds: [3]", "seeds: [3, 4, 5, 6]"))
    outputs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(engine, "_cpu_count", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
        outputs[cpus] = capsys.readouterr().out, {
            p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(two_lanes) == 1
    assert_no_child_left()
    assert outputs[1] == outputs[2]
    stdout, files = outputs[2]
    assert sorted(files) == ["dpg_rr_seed3_metrics.csv", "dpg_rr_seed4_metrics.csv",
                             "dpg_rr_seed5_metrics.csv", "dpg_rr_seed6_metrics.csv",
                             "manifest.json"]
    assert stdout.count(" rows subopt=") == 4


@pytest.mark.parametrize("where", ["mkdir", "caller", "worker"])
def test_an_output_that_cannot_be_written_is_one_failed_line(tmp_path, capsys, monkeypatch,
                                                             two_lanes, where):
    # the output directory cannot be made under a regular file, or one
    # lane's CSV write fails; nothing the call made is left behind
    caller, write = os.getpid(), dpgrr.cli.write_metrics_csv

    def failing(path, *args):
        if (os.getpid() == caller) == (where == "caller"):
            raise PermissionError(13, "Permission denied", str(path))
        write(path, *args)

    if where != "mkdir":
        monkeypatch.setattr(dpgrr.cli, "write_metrics_csv", failing)
    cfg = two_lane_toy(tmp_path, RR, RR.replace("dpg-rr", "dpg-sg"))
    (tmp_path / "file").write_text("kept\n")
    out = tmp_path / ("file" if where == "mkdir" else "new") / "out"
    before = sorted(tmp_path.iterdir())
    assert main(["run", "--config", str(cfg), "--output", str(out), "-q"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed: ") and err.count("\n") == 1, err
    assert len(two_lanes) == (0 if where == "mkdir" else 1)
    assert_no_child_left()
    assert sorted(tmp_path.iterdir()) == before
    assert (tmp_path / "file").read_text() == "kept\n"


@pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "forked"])
def test_a_manifest_that_cannot_be_written_leaves_no_file(tmp_path, capsys, monkeypatch,
                                                          two_lanes, cpus):
    # the disk fills partway through the manifest, after every CSV is written
    monkeypatch.setattr(engine, "_cpu_count", lambda: cpus)
    cfg = two_lane_toy(tmp_path, RR, RR.replace("dpg-rr", "dpg-sg"))
    write_text = Path.write_text

    def full_disk(path, data, *args, **kwargs):
        if path.name != "manifest.json.tmp":
            return write_text(path, data, *args, **kwargs)
        write_text(path, data[:10])
        raise OSError(errno.ENOSPC, "No space left on device", str(path))

    monkeypatch.setattr(Path, "write_text", full_disk)
    out = tmp_path / "new" / "out"
    assert main(["run", "--config", str(cfg), "--output", str(out), "-q"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed: [Errno 28] ") and err.count("\n") == 1, err
    assert len(two_lanes) == cpus - 1
    assert_no_child_left()
    assert not (tmp_path / "new").exists()


def test_a_manifest_name_held_by_a_directory_is_one_failed_line(tmp_path, capsys):
    # its rename fails after the CSV's, which is then removed too
    cfg = tmp_path / "toy.yaml"
    cfg.write_text(yaml.safe_dump(_shipped_raw("toy_least_squares")))
    out = tmp_path / "out"
    (out / "manifest.json").mkdir(parents=True)
    assert main(["run", "--config", str(cfg), "--output", str(out), "-q"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed: ") and err.count("\n") == 1, err
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    assert not any((out / "manifest.json").iterdir())

def test_mixed_algorithms_write_the_csvs_of_each_alone(tmp_path):
    algos = ["  - {name: dpg-rr, step: {rule: constant, gamma: 0.3}}",
             "  - {name: dgm, step: {rule: constant, gamma: 0.2}}",
             "  - {name: dpg-sg, step: {rule: constant, gamma: 0.3}}"]
    rr = "  - {name: dpg-rr, step: {rule: sqrt_horizon}}"
    mixed = write_synth(tmp_path, T=6)
    mixed.write_text(mixed.read_text().replace(rr, "\n".join(algos)))
    assert main(["run", "--config", str(mixed), "--output", str(tmp_path / "mixed"),
                 "-q"]) == 0
    for algo in algos:
        alone = write_synth(tmp_path, T=6, name="alone.yaml")
        alone.write_text(alone.read_text().replace(rr, algo))
        assert main(["run", "--config", str(alone), "--output", str(tmp_path / "alone"),
                     "-q"]) == 0
        [csv] = (tmp_path / "alone").glob("*.csv")
        assert csv.read_bytes() == (tmp_path / "mixed" / csv.name).read_bytes()
        csv.unlink()


def test_unenforced_step_bound_only_warns(tmp_path, capsys):
    cfg = write_synth(
        tmp_path, scale=", scale: 1.0e6", extra="enforce_step_bound: false\n"
    )
    assert main(["validate", "--config", str(cfg)]) == 0
    assert "warning: step-size bound" in capsys.readouterr().err
    # `run` reports the violation once: its stderr line, no engine warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", str(cfg), "-q"]) == 0
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.count("exceeds admissible bound") == 1
    assert "warning: step-size bound" in err
    assert (tmp_path / "out" / "dpg_rr_metrics.csv").exists()


@pytest.mark.parametrize("step, status", [
    ("{rule: constant, gamma: 0.5}", 0),
    ("{rule: sqrt_horizon, scale: 2.0}", 0),
    # the rule takes the bound, which L = 0 leaves infinite
    ("{rule: sqrt_horizon}", 1),
], ids=["constant", "sqrt-scale", "sqrt-no-scale"])
def test_all_zero_features_run_or_fail_in_one_line(tmp_path, capsys, step, status):
    cfg = write_toy(tmp_path, data="3 1:0\n")
    cfg.write_text(cfg.read_text().replace("{rule: constant, gamma: 0.5}", step))
    for command in ("validate", "run"):
        assert main([command, "--config", str(cfg)]) == status, command
        out, err = capsys.readouterr()
        assert "scale <= inf" in out
        if status:
            assert err == "FAIL: step-size bound: dpg-rr needs a scale: L = 0 leaves no bound\n"
    assert (tmp_path / "out" / "manifest.json").exists() == (status == 0)
    if status == 0:
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())["L"] == 0.0


def test_sqrt_rule_uses_bound_by_default(canonical_problem):
    p = canonical_problem
    lip = lipschitz_constant(p.features, p.kind)
    rule = StepRule.sqrt_horizon()
    assert rule.bound_violation(lip, p.n) is None
    want = step_scale_bound(lip, p.n) / math.sqrt(100)
    assert rule.resolve(lip, p.n, 100) == pytest.approx(want, rel=1e-15)


def test_step_bound_enforced(canonical_problem):
    p = canonical_problem
    lip = lipschitz_constant(p.features, p.kind)
    too_big = 2.0 * step_scale_bound(lip, p.n)
    rule = StepRule.sqrt_horizon(too_big)
    assert "exceeds admissible bound" in rule.bound_violation(lip, p.n)
    # the step that a waived bound gives
    assert rule.resolve(lip, p.n, 5) == too_big / math.sqrt(5)


def test_all_zero_features_leave_the_bound_infinite(toy_ls_problem):
    # L = 0: any scale is admissible, and a rule without one has no step
    zero = dataclasses.replace(toy_ls_problem, features=np.zeros((1, 1, 1)))
    lip = lipschitz_constant(zero.features, zero.kind)
    assert step_scale_bound(lip, zero.n) == math.inf
    assert StepRule.sqrt_horizon(4.0).bound_violation(lip, zero.n) is None
    assert StepRule.sqrt_horizon(4.0).resolve(lip, zero.n, 4) == 2.0
    assert StepRule.sqrt_horizon().bound_violation(lip, zero.n) == (
        "needs a scale: L = 0 leaves no bound")


@pytest.mark.parametrize("T, scale, extra", [
    (4, "", ""),
    # a horizon-0 run takes no step; it is given the step of T = 1
    (0, "", ""),
    (4, ", scale: 1.0e6", "enforce_step_bound: false\n"),
], ids=["bound", "no-epochs", "waived"])
def test_run_gives_each_algorithm_its_resolved_step(tmp_path, monkeypatch, T, scale, extra):
    cfg = write_synth(tmp_path, T=T, scale=scale, extra=extra)
    rr = "  - {name: dpg-rr, step: {rule: sqrt_horizon" + scale + "}}"
    cfg.write_text(cfg.read_text().replace("seeds: [3]", "seeds: [3, 4]").replace(
        rr, rr + "\n  - {name: dgm, step: {rule: constant, gamma: 0.2}}"))
    taken = []

    def recorded(cfgs, problem, finish):
        taken.extend(cfgs)
        return run(cfgs, problem, finish)

    monkeypatch.setattr(dpgrr.cli, "run", recorded)
    assert main(["run", "--config", str(cfg), "-q"]) == 0
    loaded = load_config(cfg)
    problem, _ = build_problem(loaded)
    lip = lipschitz_constant(problem.features, problem.kind)
    step = loaded.algorithms[0].step.resolve(lip, problem.n, max(T, 1))
    assert [(c.algorithm, c.seed, c.step) for c in taken] == [
        ("dpg-rr", 3, step), ("dpg-rr", 4, step), ("dgm", 3, 0.2), ("dgm", 4, 0.2)]


def test_a_step_that_underflows_to_zero_fails_validate_and_run(tmp_path, capsys,
                                                               monkeypatch):
    # the scale is finite, > 0 and under its bound, but 5e-324 / sqrt(4) is 0
    raw = _shipped_raw("synthetic_consensus")
    raw["algorithms"][0]["step"] = {"rule": "sqrt_horizon", "scale": 5e-324}
    raw["T"] = 4
    raw["fixtures"] = str(tmp_path / "empty.json")
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    failure = ("FAIL: step-size bound: dpg-rr takes step 0.0 at its last epoch, "
               "not a finite step > 0\n")
    assert main(["validate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == failure
    solved = []
    monkeypatch.setattr(dpgrr.cli, "solve_centralized", lambda *args, **kw: solved.append(1))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--output", str(out), "-q"]) == 1
    assert capsys.readouterr().err == failure
    assert solved == [] and not out.exists()

def test_labels_only_rows_are_a_config_error(tmp_path, capsys):
    cfg = write_toy(tmp_path, data="3\n")
    for command in ("validate", "oracle", "run"):
        assert main([command, "--config", str(cfg)]) == 1, command
        assert capsys.readouterr().err == "config error: no features: every sample has d = 0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("data", [
    "1 1:1e200\n-1 1:1\n1 1:2\n-1 1:3\n",
    # each squared norm is finite, their sum in A^T A is not
    "1 1:1e154\n-1 1:1e154\n",
], ids=["sample-norm", "curvature"])
def test_data_whose_curvature_overflows_is_a_config_error(tmp_path, capsys, data):
    # an infinite L or L_f would make the 1/sqrt(T) step or F*'s step 0
    cfg = write_toy(tmp_path, data=data)
    cfg.write_text(cfg.read_text().replace("m: 1", "m: 2").replace("- []", "- [[0, 1]]")
                   .replace("least_squares", "logistic")
                   .replace("{rule: constant, gamma: 0.5}", "{rule: sqrt_horizon}"))
    for command in ("validate", "oracle", "run"):
        assert main([command, "--config", str(cfg)]) == 1, command
        assert capsys.readouterr() == ("", (
            "config error: features too large: a squared sample norm or the "
            "curvature of the smooth part overflows float64\n"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["toy.libsvm", "toy.yaml"]


def test_computed_f_star_provenance(tmp_path):
    cfg = write_synth(tmp_path)
    assert main(["run", "--config", str(cfg), "-q"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["F_star_source"] == "computed(tol=1e-10)"
    oracle = manifest["F_star_oracle"]
    assert oracle["converged"] is True
    assert oracle["mapping_norm"] <= 1e-10 and oracle["iterations"] > 0
    problem, _ = build_problem(load_config(cfg))
    assert oracle["step"] == 1.0 / smooth_curvature(problem.features, problem.kind)


def test_unconverged_f_star_is_best_effort(tmp_path, monkeypatch, capsys):
    def unconverged(features, labels, reg, kind, tol):
        return ReferenceSolution(
            x_star=np.zeros(3), f_star=0.5, mapping_norm=1e-3, iterations=7,
            converged=False, step=0.25,
        )

    monkeypatch.setattr(dpgrr.cli, "solve_centralized", unconverged)
    cfg = write_synth(tmp_path)
    assert main(["run", "--config", str(cfg), "-q"]) == 0
    assert "did not reach tol" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["F_star_source"].startswith("computed")
    assert "best-effort" in manifest["F_star_source"]
    assert manifest["F_star"] == 0.5
    assert manifest["F_star_oracle"] == {
        "converged": False, "mapping_norm": 1e-3, "iterations": 7, "step": 0.25,
    }


def test_oracle_toy_exact_zero(tmp_path, capsys):
    cfg = write_toy(tmp_path)
    assert main(["oracle", "--config", str(cfg)]) == 0
    fixtures = json.loads((tmp_path / "fixtures" / "oracle.json").read_text())
    cfg_obj = load_config(cfg)
    entry = fixtures[problem_hash(cfg_obj)]
    assert abs(entry["f_star"]) <= 1e-14
    # idempotent rerun
    assert main(["oracle", "--config", str(cfg)]) == 0
    assert "already solved" in capsys.readouterr().out


def test_oracle_refresh_replaces_a_stale_fixture(tmp_path, monkeypatch, capsys):
    cfg = write_synth(tmp_path)
    assert main(["oracle", "--config", str(cfg)]) == 0
    store = tmp_path / "fixtures" / "oracle.json"
    key = problem_hash(load_config(cfg))
    fresh = json.loads(store.read_text())[key]
    fresh_x_star = fresh["x_star"]
    stale = {**fresh, "f_star": fresh["f_star"] + 1.0, "x_star": [0.0, 0.0, 0.0]}
    store.write_text(json.dumps({key: stale}))
    # without the flag the stale entry stands
    assert main(["oracle", "--config", str(cfg)]) == 0
    assert "already solved" in capsys.readouterr().out
    assert json.loads(store.read_text())[key] == stale

    real_solve = dpgrr.cli.solve_centralized

    def unconverged(*args, **kwargs):
        return dataclasses.replace(real_solve(*args, **kwargs), converged=False)

    # a refresh whose solve does not converge stores nothing
    monkeypatch.setattr(dpgrr.cli, "solve_centralized", unconverged)
    assert main(["oracle", "--config", str(cfg), "--refresh"]) == 1
    assert json.loads(store.read_text())[key] == stale
    assert json.loads(store.read_text())[key]["x_star"] == [0.0, 0.0, 0.0]

    monkeypatch.setattr(dpgrr.cli, "solve_centralized", real_solve)
    assert main(["oracle", "--config", str(cfg), "--refresh"]) == 0
    assert json.loads(store.read_text())[key] == fresh
    assert json.loads(store.read_text())[key]["x_star"] == fresh_x_star


def test_run_uses_fixture_when_available(tmp_path, capsys):
    cfg = write_synth(tmp_path)
    assert main(["oracle", "--config", str(cfg)]) == 0
    assert main(["run", "--config", str(cfg), "-q"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["F_star_source"].startswith("fixture:")


def test_manifest_hash_tracks_semantic_changes(tmp_path):
    a = load_config(write_toy(tmp_path, T=5, name="a.yaml"))
    b = load_config(write_toy(tmp_path, T=6, name="b.yaml"))
    assert config_hash(a) != config_hash(b)
    # cosmetic edits (comments, spacing, key order) leave the hash alone
    cfg_c = tmp_path / "c.yaml"
    cfg_c.write_text("# a comment\n" + (tmp_path / "a.yaml").read_text() + "\n")
    assert config_hash(load_config(cfg_c)) == config_hash(a)
    # output location is not semantic
    cfg_d = tmp_path / "d.yaml"
    cfg_d.write_text(
        (tmp_path / "a.yaml").read_text().replace(str(tmp_path / "out"), "elsewhere")
    )
    assert config_hash(load_config(cfg_d)) == config_hash(a)
    # problem hash ignores run shaping entirely
    assert problem_hash(a) == problem_hash(b)


def test_dropped_samples_reported(configs_dir, tmp_path, capsys):
    rc = main([
        "run", "--config", str(configs_dir / "a9a_subset.yaml"),
        "--output", str(tmp_path / "o"), "-q",
    ])
    assert rc == 0
    assert "dropped 2" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["dropped_samples"] == 2
    assert (tmp_path / "o" / "dgm_metrics.csv").exists()
    # smoothness constant of the committed sparse file: densest row has 14
    # binary features, logistic kind divides the squared norm by 4
    assert manifest["L"] == 3.5


def test_diagnostics_columns_populated(tmp_path):
    cfg = write_synth(
        tmp_path, extra="diagnostics: {record_v: true, record_sigma_star: true}\n"
    )
    assert main(["run", "--config", str(cfg), "-q"]) == 0
    lines = read_csv(tmp_path / "out" / "dpg_rr_metrics.csv")
    header = lines[0].split(",")
    sigma_col = header.index("sigma_star_sq")
    v_col = header.index("V_t")
    first, last = lines[1].split(","), lines[-1].split(",")
    assert first[sigma_col] != "" and last[sigma_col] != ""
    assert first[v_col] == "" and last[v_col] != ""


def _row_by_row_csv(trace, f_star, sigma_star_sq) -> str:
    """The metrics CSV written a row at a time, every float cell through
    ``fmt``: the writer's former loop, kept as its oracle, reading each
    row's entries from the columns, and each subopt as ``F_hat - f_star``
    in Python floats."""

    def fmt(value) -> str:
        return "" if value is None else repr(float(value))

    def later(column, k):
        # entry of row k in a column that starts at epoch 1
        return None if column is None or k == 0 else column[k - 1]

    lines = [CSV_HEADER]
    for k, epoch in enumerate(trace.epochs):
        f_hat = later(trace.f_hat, k)
        subopt = None if f_hat is None or f_star is None else float(f_hat) - f_star
        lines.append(",".join([
            str(int(epoch)), fmt(trace.f_bar[k]), fmt(f_hat), fmt(subopt),
            fmt(trace.disagreement[k]), fmt(trace.max_consensus_dist[k]),
            fmt(sigma_star_sq), fmt(later(trace.forward_deviation, k)),
        ]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("with_f_star", [True, False], ids=["f_star", "no_f_star"])
@pytest.mark.parametrize("record_sigma_star", [False, True], ids=["no_sigma", "sigma"])
@pytest.mark.parametrize("record_v", [False, True], ids=["no_v", "v"])
def test_column_writer_writes_the_row_by_row_bytes(
    canonical_problem, canonical_solution, tmp_path, record_v, record_sigma_star, with_f_star
):
    problem = canonical_problem
    f_star = canonical_solution.f_star if with_f_star else None
    sigma = shuffling_variance(problem.features, problem.labels, problem.kind,
                               canonical_solution.x_star) if record_sigma_star else None
    shared = dict(horizon=5, record_v=record_v)
    traces = run([RunConfig(name, step=sqrt_step(problem, 5), **shared)
                  for name in ("dpg-rr", "dpg-sg")], problem)
    traces += run([RunConfig("dgm", step=0.05, **shared)], problem)
    for trace, dgm in zip(traces, (False, False, True)):
        # f_hat, subopt and V_t start at epoch 1, so the first row has none
        assert trace.epochs.tolist() == [0, 1, 2, 3, 4, 5] and len(trace.f_hat) == 5
        assert (trace.forward_deviation is None) == (dgm or not record_v)
        assert trace.forward_deviation is None or len(trace.forward_deviation) == 5
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, trace, f_star, sigma)
        assert path.read_bytes() == _row_by_row_csv(trace, f_star, sigma).encode()


def test_config_error_is_reported(tmp_path, capsys):
    bad = tmp_path / "nope.yaml"
    bad.write_text("loss: logistic\n")
    assert main(["run", "--config", str(bad), "-q"]) == 1
    assert "config error" in capsys.readouterr().err


def test_a_fixture_solved_on_other_data_is_solved_again(configs_dir, tmp_path, capsys):
    # a copy of the shipped a9a config, its data and the committed store,
    # laid out as shipped, so its problem key is the committed one
    for name in ("a9a_subset.yaml", "data/a9a_subset.libsvm", "fixtures/oracle.json"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes((configs_dir / name).read_bytes())
    cfg = tmp_path / "a9a_subset.yaml"
    key = problem_hash(load_config(cfg))
    assert key.startswith("9ed6b49b9b7bfa9b")
    run_args = ["run", "--config", str(cfg), "--output", str(tmp_path / "out"), "-q"]
    manifest_path = tmp_path / "out" / "manifest.json"
    assert main(run_args) == 0
    manifest = json.loads(manifest_path.read_text())
    assert manifest["F_star_source"] == f"fixture:{key[:16]}"
    assert manifest["F_star"] == 2.213679185081232
    assert "note: fixture" not in capsys.readouterr().err

    # the first label flipped: same key, other data
    data = tmp_path / "data" / "a9a_subset.libsvm"
    text = data.read_text()
    assert text.startswith("-1 ")
    data.write_text("+1 " + text[3:])
    store = (tmp_path / "fixtures" / "oracle.json").read_bytes()
    assert main(run_args) == 0
    note = f"note: fixture {key[:16]} was solved on other data; solving F* again\n"
    assert capsys.readouterr().err.count(note) == 1
    manifest = json.loads(manifest_path.read_text())
    assert manifest["F_star_source"] == "computed(tol=1e-10)"
    assert manifest["F_star"] == 2.2185252648207068
    assert (tmp_path / "fixtures" / "oracle.json").read_bytes() == store

    # plain `oracle` solves it again and replaces the entry
    assert main(["oracle", "--config", str(cfg)]) == 0
    out, err = capsys.readouterr()
    assert "stored fixture" in out and err.count(note) == 1
    assert main(run_args) == 0
    assert "note: fixture" not in capsys.readouterr().err
    manifest = json.loads(manifest_path.read_text())
    assert manifest["F_star_source"] == f"fixture:{key[:16]}"
    assert manifest["F_star"] == 2.2185252648207068


@pytest.mark.parametrize("store", ['{"a": ', "[1, 2]"], ids=["not-json", "not-an-object"])
@pytest.mark.parametrize("command", ["run", "oracle"])
def test_a_corrupt_fixtures_store_is_a_config_error(tmp_path, capsys, command, store):
    cfg = write_synth(tmp_path)
    path = tmp_path / "fixtures" / "oracle.json"
    path.parent.mkdir()
    path.write_text(store)
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: fixtures store {path} is not ")
    assert err.count("\n") == 1
    assert path.read_text() == store and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, store, fault", [
    ("run", "directory", "cannot be read"),
    ("oracle", "directory", "cannot be read"),
    ("oracle", "under-a-file", "cannot be written"),
], ids=["run-directory", "oracle-directory", "oracle-under-a-file"])
def test_a_store_that_cannot_be_read_or_written_is_a_config_error(
        tmp_path, capsys, command, store, fault):
    cfg = write_synth(tmp_path)
    path = tmp_path / "fixtures" / "oracle.json"
    if store == "directory":
        path.mkdir(parents=True)
    else:
        path.parent.write_text("a file\n")
    before = sorted(tmp_path.rglob("*"))
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: fixtures store {path} {fault}: ")
    assert err.count("\n") == 1
    # no output, and no staged store, is left behind
    assert sorted(tmp_path.rglob("*")) == before


_DIGEST = '"data_sha256": "' + "0" * 64 + '"'
_X_STAR = '"x_star": [0.0, 0.0, 0.0]'
_ENTRY = '"tol": 1e-10, ' + _X_STAR + ", " + _DIGEST
_VALUES = '"f_star": 0.0, "tol": 1e-10, '


@pytest.mark.parametrize("entry, fault", [
    ("[0.5]", "is not a JSON object"),
    ("null", "is not a JSON object"),
    ("{" + _ENTRY + "}", "has no 'f_star'"),
    ('{"f_star": 0.0}', "has no 'tol'"),
    # the former format, whose x* was a text file beside the store
    ("{" + _VALUES + '"x_star_file": "x_star.txt"}', "has no 'x_star'"),
    ("{" + _VALUES + _X_STAR + "}", "has no 'data_sha256'"),
    ('{"f_star": 0.0, "tol": "1e-10", ' + _X_STAR + ", " + _DIGEST + "}",
     "has tol '1e-10', not a finite number"),
    ('{"f_star": 0.0, "tol": NaN, ' + _X_STAR + ", " + _DIGEST + "}",
     "has tol nan, not a finite number"),
    ('{"f_star": Infinity, ' + _ENTRY + "}", "has f_star inf, not a finite number"),
    ('{"f_star": true, ' + _ENTRY + "}", "has f_star True, not a finite number"),
    ("{" + _VALUES + '"x_star": "0 0 0", ' + _DIGEST + "}",
     "has x_star '0 0 0', not a list"),
    ("{" + _VALUES + '"x_star": [0.0], ' + _DIGEST + "}", "has x_star of length 1, not 3"),
    ("{" + _VALUES + '"x_star": [0.0, NaN, 0.0], ' + _DIGEST + "}",
     "has x_star[1] nan, not a finite number"),
    ("{" + _VALUES + '"x_star": [0.0, 0.0, true], ' + _DIGEST + "}",
     "has x_star[2] True, not a finite number"),
    ("{" + _VALUES + _X_STAR + ', "data_sha256": 7}', "has data_sha256 7, not a string"),
], ids=["list", "null", "no-f_star", "no-tol", "x_star_file", "no-data_sha256", "text-tol",
        "nan-tol", "inf-f_star", "bool-f_star", "text-x_star", "short-x_star",
        "nan-x_star", "bool-x_star", "number-data_sha256"])
@pytest.mark.parametrize("command, extra", [
    ("run", ""),
    ("oracle", ""),
    # a run that records sigma_star is the one that uses the stored x*
    ("run", "diagnostics: {record_v: false, record_sigma_star: true}\n"),
], ids=["run", "oracle", "run-sigma_star"])
def test_a_malformed_fixture_entry_is_a_config_error(
    tmp_path, capsys, command, extra, entry, fault
):
    cfg = write_synth(tmp_path, extra=extra)
    key = problem_hash(load_config(cfg))
    path = tmp_path / "fixtures" / "oracle.json"
    path.parent.mkdir()
    store = f'{{"{key}": {entry}}}'
    path.write_text(store)
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: fixtures store {path}: entry {key} {fault}\n"
    assert path.read_text() == store and not (tmp_path / "out").exists()


@pytest.mark.parametrize("entry", [
    "null",
    "{" + _VALUES + '"x_star_file": "x_star.txt"}',
    "{" + _VALUES + '"x_star": "abc", ' + _DIGEST + "}",
], ids=["null", "former-format", "text-x_star"])
def test_oracle_refresh_repairs_a_malformed_entry(tmp_path, capsys, entry):
    cfg = write_synth(tmp_path)
    key = problem_hash(load_config(cfg))
    path = tmp_path / "fixtures" / "oracle.json"
    path.parent.mkdir()
    other = {"f_star": 1.0, "tol": 1e-10, "x_star": [1.0], "data_sha256": "a"}
    path.write_text(f'{{"{key}": {entry}, "other": {json.dumps(other)}}}')
    assert main(["oracle", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert main(["oracle", "--config", str(cfg), "--refresh"]) == 0
    assert "stored fixture" in capsys.readouterr().out
    # the entry is whole again, and the store's other entries are kept
    assert json.loads(path.read_text())["other"] == other
    assert main(["oracle", "--config", str(cfg)]) == 0
    assert "already solved" in capsys.readouterr().out
    assert main(["run", "--config", str(cfg), "-q"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["F_star_source"] == f"fixture:{key[:16]}"


_RETYPED = st.sampled_from([None, True, "text", [], {}, -1.5, 10**400, math.nan, [1.0]])


@st.composite
def entry_mutations(draw):
    """One change to a stored entry: a field dropped or retyped, the
    solution point cut short, or the digest changed."""
    field = draw(st.sampled_from(["f_star", "tol", "x_star", "data_sha256",
                                  "iterations", "mapping_norm"]))
    how = draw(st.sampled_from(["drop", "retype", "truncate", "digest"]))
    if how == "retype":
        return how, field, draw(_RETYPED)
    if how == "truncate":
        return how, "x_star", draw(st.integers(0, 2))
    if how == "digest":
        return how, "data_sha256", draw(st.text("0123456789abcdef", min_size=0, max_size=64))
    return how, field, None


@pytest.fixture()
def stored_synth(tmp_path):
    """A small synthetic config whose store holds its solved entry."""
    cfg = write_synth(tmp_path, T=2)
    assert main(["oracle", "--config", str(cfg)]) == 0
    path = tmp_path / "fixtures" / "oracle.json"
    return cfg, path, path.read_text()


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=entry_mutations())
@example(mutation=("retype", "tol", 10**400))
@example(mutation=("truncate", "x_star", 0))
def test_a_mutated_store_entry_is_served_solved_again_or_a_config_error(
    stored_synth, capsys, mutation
):
    cfg, path, original = stored_synth
    how, field, value = mutation
    store = json.loads(original)
    (key, entry), = store.items()
    if how == "drop":
        del entry[field]
    elif how == "truncate":
        entry["x_star"] = entry["x_star"][:value]
    else:
        entry[field] = value
    capsys.readouterr()
    for argv in (["run", "--config", str(cfg), "-q"], ["oracle", "--config", str(cfg)]):
        path.write_text(json.dumps(store))
        status = main(argv)
        err = capsys.readouterr().err
        assert status in (0, 1)
        assert err.count("config error:") == (status == 1)
        assert "Traceback" not in err


def test_a_huge_window_validates_at_once(tmp_path):
    # a window of at least the period's steps holds every slot; the union
    # over all 10**30 of its steps never finished, so a timer stops the check
    cfg = write_synth(tmp_path)
    cfg.write_text(cfg.read_text().replace("B: 1", f"B: {10**30}"))

    def stop(signum, frame):
        raise TimeoutError("validate took over 1 s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        start = time.perf_counter()
        status = main(["validate", "--config", str(cfg)])
        elapsed = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert status == 0 and elapsed < 1.0


@pytest.mark.parametrize("line, repeated", [
    ("  - {name: dpg-rr, step: {rule: sqrt_horizon}}",
     "  - {name: dpg-rr, step: {rule: sqrt_horizon}}\n"
     "  - {name: DPG-RR, step: {rule: constant, gamma: 0.2}}"),
    ("seeds: [3]", "seeds: [3, 4, 3]"),
], ids=["algorithms", "seeds"])
def test_repeated_algorithm_or_seed_is_a_config_error(tmp_path, capsys, line, repeated):
    cfg = write_synth(tmp_path)
    cfg.write_text(cfg.read_text().replace(line, repeated))
    with pytest.raises(ConfigError, match="listed more than once"):
        load_config(cfg)
    assert main(["run", "--config", str(cfg), "-q"]) == 1
    assert "listed more than once" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_loose_fixture_counts_as_absent(tmp_path):
    cfg = write_synth(tmp_path)
    fresh_out = tmp_path / "fresh"
    assert main(["run", "--config", str(cfg), "--output", str(fresh_out), "-q"]) == 0
    fresh = json.loads((fresh_out / "manifest.json").read_text())
    config = load_config(cfg)
    problem, _ = build_problem(config)
    data = (problem.features, problem.labels)
    loose = solve_centralized(*data, problem.regularizer, problem.kind, tol=1e-2)
    store_fixture(config.fixtures_path(), problem_hash(config), loose, 1e-2, *data)
    assert loose.f_star != fresh["F_star"]
    assert main(["run", "--config", str(cfg), "-q"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["F_star_source"] == "computed(tol=1e-10)"
    assert manifest["F_star"] == fresh["F_star"]


@pytest.mark.parametrize("template, old, new, message", [
    ("synth", "seeds: [3]", "seeds: [-1]", "outside [0, 2**64)"),
    ("synth", "seeds: [3]", f"seeds: [{2**64}]", "outside [0, 2**64)"),
    ("synth", "eta: 0.2", "eta: 0.9", "eta must lie in (0, 1/m]"),
    ("synth", "- [[0, 1]]", "- [[0, 5]]", "out of range"),
    ("synth", "d: 3", "d: 0", "must all be >= 1"),
    ("synth", "name: dpg-rr", "name: dpg-xx", "unknown algorithm"),
    ("toy", "strategy: contiguous", "strategy: sideways", "unknown strategy"),
    ("toy", "m: 1", "m: 3", "cannot cover 3 agents"),
    ("synth", "steps_mode: {fixed: 2}", "steps_mode: {fixed: 0}", "fixed mode needs k >= 1"),
    ("synth", "m: 2, n: 3", "m: two, n: 3", "m must be an integer, not 'two'"),
    ("synth", "- [[0, 1]]", "- [[0, 1, 2]]", "graph: too many values to unpack"),
    ("synth", "synthetic: {m: 2, n: 3, d: 3, seed: 5, separation: 0.8}", "synthetic: 5",
     "dataset.synthetic: must be a mapping"),
    ("synth", "graph:\n  eta: 0.2\n  B: 1\n  steps_mode: {fixed: 2}\n  slots:\n    - [[0, 1]]\n",
     "graph: 5\n", "graph: must be a mapping"),
    ("synth", "seeds: [3]", "seeds: [3]\nx0: abc", "could not convert string to float: 'abc'"),
    ("synth", "seeds: [3]", "seeds: [3]\nsnapshot_cadence: 0", "snapshot_cadence must be >= 1"),
    # integers are never truncated and flags never coerced
    ("synth", "T: 4", "T: 2.9", "T must be an integer, not 2.9"),
    ("synth", "T: 4", "T: true", "T must be an integer, not True"),
    ("synth", "m: 2, n: 3", "m: 2.5, n: 3", "m must be an integer, not 2.5"),
    ("synth", "seeds: [3]", 'seeds: [3]\nenforce_step_bound: "false"',
     "enforce_step_bound must be true or false, not 'false'"),
    ("synth", "seeds: [3]", 'seeds: [3]\ndiagnostics: {record_v: "yes"}',
     "record_v must be true or false, not 'yes'"),
    # the radius bounds G_f and G_phi in the manifest, which must stay JSON
    ("synth", "seeds: [3]", "seeds: [3]\nleast_squares_radius: .inf",
     "least_squares_radius must be finite and >= 0"),
    ("synth", "seeds: [3]", "seeds: [3]\nleast_squares_radius: -1.0",
     "least_squares_radius must be finite and >= 0"),
    # nor is a flag a number
    ("synth", "seeds: [3]", "seeds: [3]\nx0: true", "x0 must be a number, not True"),
    ("synth", "lam: 0.05", "lam: false", "lam must be a number, not False"),
    ("toy", "gamma: 0.5", "gamma: true", "gamma must be a number, not True"),
    # every float but separation is finite, so a loaded config has a JSON manifest
    ("synth", "lam: 0.05", "lam: .inf", "regularizer.lam must be finite, not inf"),
    ("synth", "seeds: [3]", "seeds: [3]\nx0: .nan", "x0 must be finite, not nan"),
    ("synth", "eta: 0.2", "eta: .inf", "graph.eta must be finite, not inf"),
    ("toy", "gamma: 0.5", "gamma: .inf", "algorithms[0].step.gamma must be finite, not inf"),
    ("toy", "gamma: 0.5", "gamma: .nan", "algorithms[0].step.gamma must be finite, not nan"),
    ("synth", "{rule: sqrt_horizon}", "{rule: sqrt_horizon, scale: .nan}",
     "algorithms[0].step.scale must be finite, not nan"),
    # separation is > 0, or inf for noiseless labels
    ("synth", "separation: 0.8", "separation: 0", "separation must be > 0"),
    ("synth", "separation: 0.8", "separation: -1", "separation must be > 0"),
    ("synth", "separation: 0.8", "separation: .nan",
     "dataset.synthetic.separation must be finite or inf, not nan"),
    # strings are never coerced
    ("synth", "output_dir: ", "output_dir: null\n# ", "output_dir must be a string, not None"),
    ("synth", "seeds: [3]", "seeds: [3]\nfixtures: null", "fixtures must be a string, not None"),
    ("toy", "path: toy.libsvm", "path: null", "dataset.libsvm.path must be a string, not None"),
    ("toy", "strategy: contiguous", "strategy: 5",
     "dataset.libsvm.strategy must be a string, not 5"),
    ("synth", "name: dpg-rr", "name: [dpg-rr]",
     "algorithms[0].name must be a string, not ['dpg-rr']"),
    # nor is a mapping or a string a list
    ("synth", "seeds: [3]", "seeds: {3: 1}", "seeds must be a list, not {3: 1}"),
    ("synth", "seeds: [3]", "seeds: '3'", "seeds must be a list, not '3'"),
    ("synth", "- [[0, 1]]", "- {}", "graph.slots[0] must be a list, not {}"),
    ("synth", "- [[0, 1]]", "- [{0: 1}]", "graph.slots[0][0] must be a list, not {0: 1}"),
    # a file that is not YAML at all
    ("synth", "seeds: [3]", "seeds: [3", "synth.yaml is not valid YAML"),
    ("synth", "seeds: [3]", "seeds: [3]\na: b: c", "synth.yaml is not valid YAML"),
], ids=["negative-seed", "seed-2**64", "eta", "edge", "synthetic-d", "algorithm",
        "strategy", "too-few-samples", "steps-mode-fixed-0", "synthetic-m", "edge-triple",
        "synthetic-scalar", "graph-scalar", "x0", "snapshot-cadence-0", "T-float", "T-bool",
        "m-float", "enforce-step-bound-string", "record-v-string", "radius-inf",
        "radius-negative", "x0-bool", "lam-bool", "gamma-bool", "lam-inf", "x0-nan",
        "eta-inf", "gamma-inf", "gamma-nan", "scale-nan", "separation-0",
        "separation-negative", "separation-nan", "output-dir-null", "fixtures-null",
        "path-null", "strategy-int", "name-list", "seeds-mapping", "seeds-string",
        "slot-mapping", "edge-mapping", "yaml-unclosed", "yaml-mapping"])
def test_malformed_config_is_a_config_error(tmp_path, capsys, template, old, new, message):
    cfg = write_synth(tmp_path) if template == "synth" else write_toy(tmp_path)
    assert old in cfg.read_text()
    cfg.write_text(cfg.read_text().replace(old, new))
    for command in ("validate", "run", "oracle"):
        assert main([command, "--config", str(cfg)]) == 1, command
        err = capsys.readouterr().err
        assert "config error" in err and message in err, (command, err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["missing.yaml", "a_directory"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, name):
    (tmp_path / "a_directory").mkdir()
    path = tmp_path / name
    with pytest.raises(ConfigError, match=f"^cannot read {re.escape(str(path))}: "):
        load_config(path)
    for command in ("validate", "run", "oracle"):
        assert main([command, "--config", str(path)]) == 1, command
        assert f"config error: cannot read {path}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("template, old, new, path", [
    ("synth", "seeds: [3]", "seed: 3", "seed"),
    ("synth", "seeds: [3]", "seeds: [3]\nsnapshot_cadance: 1", "snapshot_cadance"),
    ("synth", "synthetic: {", "shape: 1\n  synthetic: {", "dataset.shape"),
    ("synth", "separation: 0.8", "separaton: 0.8", "dataset.synthetic.separaton"),
    ("toy", "strategy: contiguous", "strategy: contiguous, shufle_seed: 1",
     "dataset.libsvm.shufle_seed"),
    ("synth", "{kind: l1, lam: 0.05}", "{kind: l1, lam: 0.05, lambda: 0.1}",
     "regularizer.lambda"),
    ("synth", "  B: 1\n", "  B: 1\n  steps: 2\n", "graph.steps"),
    ("synth", "steps_mode: {fixed: 2}", "steps_mode: {fixed: 2, growing: 1}",
     "graph.steps_mode.growing"),
    ("synth", "- {name: dpg-rr, step:", "- {name: dpg-rr, seed: 1, step:",
     "algorithms[0].seed"),
    ("toy", "{rule: constant, gamma: 0.5}", "{rule: constant, gamma: 0.5, scale: 2.0}",
     "algorithms[0].step.scale"),
    ("synth", "{rule: sqrt_horizon}", "{rule: sqrt_horizon, gamma: 0.1}",
     "algorithms[0].step.gamma"),
    ("synth", "seeds: [3]", "seeds: [3]\ndiagnostics: {record_x: true}",
     "diagnostics.record_x"),
], ids=["top-seed", "top-cadence", "dataset", "synthetic", "libsvm", "regularizer",
        "graph", "steps-mode", "algorithm", "constant-step", "sqrt-step", "diagnostics"])
def test_unknown_key_is_a_config_error(tmp_path, capsys, template, old, new, path):
    cfg = write_synth(tmp_path) if template == "synth" else write_toy(tmp_path)
    assert old in cfg.read_text()
    cfg.write_text(cfg.read_text().replace(old, new, 1))
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: unknown key; known here: "):
        load_config(cfg)
    assert main(["run", "--config", str(cfg), "-q"]) == 1
    assert f"config error: {path}: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# the hashes of the parent's manifests; fixtures are keyed on problem_hash
SHIPPED_HASHES = {
    "a9a_subset": ("2b8adff4198f9e15149390742bcd83a101ea2c5030ffa52f399c4a1f3947044c",
                   "9ed6b49b9b7bfa9b85bed5b7973cec24afa17ce219286a42a15972113d28e283"),
    "sampler_comparison": (
        "49ca8b7b0a25c2a14b0e524375a05dc05867f212b47fb1d5b283eb6884b46215",
        "63c672ea740cd7923ba5d13f628a30db0e2b40292d6cb654dcadd9f58549affb"),
    "synthetic_consensus": (
        "936beb1adbd385c349275aba39f41dea55c0ecfcd7ffbc6d55bbb8b13c2e9931",
        "519220e384ea80ebab3629a8d6745ff1a5046a6eac4b46677103b94dca4b6848"),
    "toy_least_squares": (
        "ad5b328b2977a54cc7ab3314282d65d8047932b5425c6978462a4ab5f9aebb0c",
        "62aa157e3193d306f33a31ac98e408e390118979e7eb91d1c941686080192491"),
}


@pytest.mark.parametrize("name", sorted(SHIPPED_HASHES))
def test_shipped_config_loads_with_its_hashes(configs_dir, name):
    cfg = load_config(configs_dir / f"{name}.yaml")
    assert (config_hash(cfg), problem_hash(cfg)) == SHIPPED_HASHES[name]


def _two_matching_rings(tmp_path: Path, m: int = 100) -> list[Path]:
    """A generated config like the wide_ring bench workload's, written as
    the bench writes it (JSON, which is YAML) and as block YAML."""
    raw = {
        "dataset": {"synthetic": {"m": m, "n": 2, "d": 20, "seed": 7, "separation": 2.0}},
        "loss": "logistic",
        "regularizer": {"kind": "l1", "lam": 0.01},
        "graph": {"eta": 0.01, "B": 2, "steps_mode": "growing", "slots": [
            [[i, i + 1] for i in range(0, m, 2)],
            [[i, (i + 1) % m] for i in range(1, m, 2)],
        ]},
        "algorithms": [{"name": "dpg-rr", "step": {"rule": "sqrt_horizon"}}],
        "T": 800,
        "seeds": [1],
        "snapshot_cadence": 1,
    }
    paths = [tmp_path / "ring_json.yaml", tmp_path / "ring_block.yaml"]
    paths[0].write_text(json.dumps(raw, indent=1) + "\n")
    paths[1].write_text(yaml.safe_dump(raw))
    return paths


# the parent's hashes of both ring files, loaded with the pure loader
RING_HASHES = ("77758b00bc37c8acbf81ad5b968b86b940de505b5b2990a9cd2b3bf818e658a5",
               "e0d1861f9f77ea16c1063896c64726bdec6706e63582fc43fbd064fc531aabb3")


@pytest.mark.parametrize("loader", [
    yaml.SafeLoader,
    pytest.param(getattr(yaml, "CSafeLoader", None), marks=pytest.mark.skipif(
        not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")),
], ids=["pure", "libyaml"])
def test_both_yaml_loaders_load_the_same_configs(configs_dir, tmp_path, monkeypatch, loader):
    names = sorted(SHIPPED_HASHES)
    paths = [configs_dir / f"{name}.yaml" for name in names] + _two_matching_rings(tmp_path)
    hashes = [SHIPPED_HASHES[name] for name in names] + [RING_HASHES] * 2
    monkeypatch.setattr(dpgrr.config, "_LOADER", yaml.SafeLoader)
    pure = [load_config(path) for path in paths]
    monkeypatch.setattr(dpgrr.config, "_LOADER", loader)
    for path, want, expected in zip(paths, pure, hashes):
        cfg = load_config(path)
        assert cfg == want, path.name
        assert (config_hash(cfg), problem_hash(cfg)) == expected, path.name
    # a malformed file is a config error under either loader
    for text in ("seeds: [3\n", "a: b: c\n"):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        with pytest.raises(ConfigError, match="bad.yaml is not valid YAML"):
            load_config(bad)


def test_the_default_loader_is_libyaml_when_built_in():
    want = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert dpgrr.config._LOADER is want


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
RETYPES = [None, True, 0, -1, 2.5, math.nan, math.inf, "x", [], {}]


def _key_paths(node, prefix=()):
    """The path of every mapping key and list item in a YAML tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _key_paths(value, prefix + (key,))


def _shipped_raw(name: str) -> dict:
    raw = yaml.safe_load((CONFIGS / f"{name}.yaml").read_text())
    # the mutated copy lives elsewhere; it must still find its data file
    libsvm = raw["dataset"].get("libsvm")
    if libsvm:
        libsvm["path"] = str(CONFIGS / libsvm["path"])
    return raw


# subnormal and near-max floats
EXTREMES = [5e-324, 1e-310, 1e308, sys.float_info.max]


@st.composite
def config_mutations(draw):
    """A shipped config, a key at any depth, and a drop, rename or new value;
    or a numeric extreme for a step's scale or gamma, eta, lam or the
    synthetic separation."""
    name = draw(st.sampled_from(sorted(SHIPPED_HASHES)))
    raw = _shipped_raw(name)
    if draw(st.integers(0, 3)) == 0:
        value = draw(st.sampled_from(EXTREMES))
        step = ("algorithms", draw(st.integers(0, len(raw["algorithms"]) - 1)), "step")
        return name, *draw(st.sampled_from([
            (step, {"rule": "sqrt_horizon", "scale": value}),
            (step, {"rule": "constant", "gamma": value}),
            (("graph", "eta"), value),
            (("regularizer", "lam"), value),
            *[(("dataset", "synthetic", "separation"), value)] * ("synthetic" in raw["dataset"]),
        ]))
    where = draw(st.sampled_from(list(_key_paths(raw))))
    renamable = isinstance(where[-1], str)
    change = draw(st.sampled_from(["drop", *(["rename"] * renamable), *RETYPES]))
    return name, where, change


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=config_mutations())
@example(mutation=("synthetic_consensus", ("dataset", "synthetic", "separation"), 0))
@example(mutation=("a9a_subset", ("regularizer", "lam"), math.inf))
@example(mutation=("a9a_subset", ("regularizer", "lam"), 0))
@example(mutation=("synthetic_consensus", ("algorithms", 0, "step"),
                   {"rule": "sqrt_horizon", "scale": 5e-324}))
@example(mutation=("sampler_comparison", ("algorithms", 1, "step"),
                   {"rule": "constant", "gamma": 1e308}))
@example(mutation=("a9a_subset", ("algorithms", 1, "step"),
                   {"rule": "constant", "gamma": 5e-324}))
def test_a_mutated_shipped_config_loads_or_is_a_config_error(tmp_path, capsys, mutation):
    name, where, change = mutation
    raw = _shipped_raw(name)
    node = raw
    for key in where[:-1]:
        node = node[key]
    if change == "drop":
        del node[where[-1]]
    elif change == "rename":
        node[where[-1] + "_renamed"] = node.pop(where[-1])
    else:
        node[where[-1]] = change
    # a short run of the mutated config; its data are the shipped ones, so
    # an unchanged problem finds its F* in the committed store, which `run`
    # only reads; at T = 4 a step scale of 5e-324 gives the step 0
    if type(raw.get("T")) is int and raw["T"] > 4:
        raw["T"] = 4
    if "fixtures" not in raw:
        raw["fixtures"] = str(CONFIGS / "fixtures" / "oracle.json")
    path = tmp_path / "mutated.yaml"
    path.write_text(yaml.safe_dump(raw))
    try:
        cfg = load_config(path)
    except ConfigError:
        pass
    else:
        # a loaded config's hash input and manifest entry are strict JSON
        json.dumps(canonical_dict(cfg), allow_nan=False)
    validated = main(["validate", "--config", str(path)])
    assert validated in (0, 1)
    capsys.readouterr()
    status = main(["run", "--config", str(path), "--output", str(tmp_path / "out"), "-q"])
    # a failure is one line, and only a failure has one
    err = capsys.readouterr().err.splitlines()
    failures = [line for line in err
                if line.startswith(("config error:", "run failed:", "FAIL:"))]
    assert status in (0, 1)
    assert len(failures) == (status == 1), err
    # what validate passes fails only on an iterate or on I/O
    assert not (validated == 0 and status) or re.match(
        r"run failed: (non-finite iterate |\[Errno \d+\] )", failures[0]), err


def test_bench_workload_configs_load(tmp_path, monkeypatch):
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", root / "bench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for name, workload in workloads.WORKLOADS.items():
        rep_dir = tmp_path / name
        raw = workloads.prepare(workload, root, rep_dir, seed=0)
        cfg = load_config(rep_dir / "config.yaml")
        assert cfg.fixtures == raw["fixtures"]
        assert len(cfg.algorithms) * len(cfg.seeds) == len(workloads.pairs(raw))


@pytest.mark.parametrize("template, penalty, lam", [
    ("synth", "{kind: l1, lam: 0.05}", 0.05),
    # 0 * inf was NaN; the toy problem keeps the unpenalized F* solve short
    ("toy", "{kind: zero}", 0.0),
], ids=["synth", "toy-lam-0"])
def test_squared_l2_manifest_bounds_g_phi_on_the_radius(tmp_path, template, penalty, lam):
    cfg = write_synth(tmp_path) if template == "synth" else write_toy(tmp_path)
    text = cfg.read_text()
    assert penalty in text
    cfg.write_text(text.replace(penalty, f"{{kind: squared_l2, lam: {lam}}}")
                   + "least_squares_radius: 3.0\n")
    assert main(["run", "--config", str(cfg), "-q"]) == 0

    def reject(constant):
        raise ValueError(f"manifest holds {constant}, which is not JSON")

    text = (tmp_path / "out" / "manifest.json").read_text()
    manifest = json.loads(text, parse_constant=reject)
    assert manifest["G_phi"] == lam * 3.0


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_oracle_tolerance_must_be_finite_and_positive(tmp_path, tol):
    problem, _ = build_problem(load_config(write_toy(tmp_path)))
    with pytest.raises(ValueError, match="tolerance"):
        solve_centralized(
            problem.features, problem.labels, problem.regularizer, problem.kind,
            tol=float(tol),
        )


def test_seed_override_out_of_range_is_a_config_error(tmp_path, capsys):
    cfg = write_toy(tmp_path)
    assert main(["run", "--config", str(cfg), "--seed", "-1", "-q"]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_dgm_needs_a_constant_step(tmp_path, capsys):
    cfg = write_synth(tmp_path)
    rr = "  - {name: dpg-rr, step: {rule: sqrt_horizon}}"
    cfg.write_text(
        cfg.read_text().replace(rr, rr + "\n  - {name: dgm, step: {rule: sqrt_horizon}}")
    )
    for command in ("validate", "run"):
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "dgm" in err
    assert not (tmp_path / "out").exists()
