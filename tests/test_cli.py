import dataclasses
import importlib.util
import json
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings, strategies as st

import dpgrr.cli
import dpgrr.config
from dpgrr.cli import CSV_HEADER, main, write_metrics_csv
from dpgrr.config import (
    ConfigError, build_problem, canonical_dict, config_hash, load_config, problem_hash,
)
from dpgrr.engine import RunConfig, StepRule, run
from dpgrr.metrics import EpochMetrics
from dpgrr.objectives import smooth_curvature
from dpgrr.reference import ReferenceSolution, solve_centralized

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


def write_toy(tmp_path: Path, T=5, seeds="[7]", name="toy.yaml") -> Path:
    data = tmp_path / "toy.libsvm"
    data.write_text(TOY_DATA)
    cfg = tmp_path / name
    cfg.write_text(
        TOY_YAML.format(data=data.name, T=T, seeds=seeds, out=tmp_path / "out")
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


def test_a_config_whose_later_run_fails_writes_no_csv(tmp_path, capsys):
    # the second algorithm's first step overflows; the first run is healthy
    cfg = write_toy(tmp_path, seeds="[1, 2]")
    rr = "  - {name: dpg-rr, step: {rule: constant, gamma: 0.5}}"
    cfg.write_text(cfg.read_text().replace(
        rr, rr + "\n  - {name: dpg-sg, step: {rule: constant, gamma: 1.0e308}}"))
    assert main(["run", "--config", str(cfg), "-q"]) == 1
    err = capsys.readouterr().err
    assert "run failed: non-finite iterate at run dpg-sg seed 1," in err
    assert not (tmp_path / "out").exists()


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
    x_star_path = store.parent / fresh["x_star_file"]
    fresh_x_star = x_star_path.read_text()
    stale = {**fresh, "f_star": fresh["f_star"] + 1.0}
    store.write_text(json.dumps({key: stale}))
    x_star_path.write_text("0\n0\n0\n")
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
    assert x_star_path.read_text() == "0\n0\n0\n"

    monkeypatch.setattr(dpgrr.cli, "solve_centralized", real_solve)
    assert main(["oracle", "--config", str(cfg), "--refresh"]) == 0
    assert json.loads(store.read_text())[key] == fresh
    assert x_star_path.read_text() == fresh_x_star


def test_oracle_two_tolerances_agree(tmp_path):
    cfg8 = write_synth(tmp_path, name="c8.yaml", extra="fixtures: f8.json\n")
    cfg12 = write_synth(tmp_path, name="c12.yaml", extra="fixtures: f12.json\n")
    assert main(["oracle", "--config", str(cfg8), "--tol", "1e-8"]) == 0
    assert main(["oracle", "--config", str(cfg12), "--tol", "1e-12"]) == 0
    key = problem_hash(load_config(cfg8))
    f8 = json.loads((tmp_path / "f8.json").read_text())[key]["f_star"]
    f12 = json.loads((tmp_path / "f12.json").read_text())[key]["f_star"]
    assert abs(f8 - f12) <= 1e-8


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


def _row_by_row_csv(trace) -> str:
    """The metrics CSV written a row at a time, every float cell through
    ``_fmt``: the writer's former loop, kept as its oracle."""
    fmt = dpgrr.cli._fmt
    lines = [CSV_HEADER]
    for row in trace.rows:
        lines.append(",".join([
            str(row.epoch), fmt(row.f_bar), fmt(row.f_hat), fmt(row.suboptimality),
            fmt(row.disagreement), fmt(row.max_consensus_dist), fmt(row.sigma_star_sq),
            fmt(row.forward_deviation),
        ]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("with_f_star", [True, False], ids=["f_star", "no_f_star"])
@pytest.mark.parametrize("record_sigma_star", [False, True], ids=["no_sigma", "sigma"])
@pytest.mark.parametrize("record_v", [False, True], ids=["no_v", "v"])
def test_column_writer_writes_the_row_by_row_bytes(
    canonical_problem, tmp_path, record_v, record_sigma_star, with_f_star
):
    problem = canonical_problem
    if not with_f_star:
        problem = dataclasses.replace(problem, f_star=None)
    shared = dict(horizon=5, record_v=record_v, record_sigma_star=record_sigma_star)
    traces = run([RunConfig(name, step=StepRule.sqrt_horizon(), **shared)
                  for name in ("dpg-rr", "dpg-sg")], problem)
    traces += run([RunConfig("dgm", step=StepRule.constant(0.05), **shared)], problem)
    for trace, dgm in zip(traces, (False, False, True)):
        first, last = trace.rows[0], trace.rows[-1]
        assert first.f_hat is None and first.suboptimality is None
        assert (last.suboptimality is None) == (not with_f_star)
        assert (last.sigma_star_sq is None) == (not record_sigma_star)
        assert (last.forward_deviation is None) == (dgm or not record_v)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, trace)
        assert path.read_bytes() == _row_by_row_csv(trace).encode()


def test_epoch_metrics_rows_are_immutable():
    row = EpochMetrics(epoch=0, f_bar=1.0, f_hat=None, suboptimality=None,
                       disagreement=0.0, max_consensus_dist=0.0)
    assert (row.sigma_star_sq, row.forward_deviation) == (None, None)
    for name in EpochMetrics._fields:
        with pytest.raises(AttributeError):
            setattr(row, name, 2.0)
    with pytest.raises(AttributeError):
        row.extra = 1.0
    assert row.f_bar == 1.0


def test_config_error_is_reported(tmp_path, capsys):
    bad = tmp_path / "nope.yaml"
    bad.write_text("loss: logistic\n")
    assert main(["run", "--config", str(bad), "-q"]) == 1
    assert "config error" in capsys.readouterr().err


def test_fixture_without_its_solution_file_is_solved_again(tmp_path, capsys):
    cfg = write_synth(
        tmp_path, extra="diagnostics: {record_v: false, record_sigma_star: true}\n"
    )
    assert main(["oracle", "--config", str(cfg)]) == 0
    key = problem_hash(load_config(cfg))
    fixtures = tmp_path / "fixtures"
    (fixtures / json.loads((fixtures / "oracle.json").read_text())[key]["x_star_file"]).unlink()
    assert main(["run", "--config", str(cfg), "-q"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["F_star_source"] == "computed(tol=1e-10)"
    # the oracle treats the entry as absent too, and restores the file
    capsys.readouterr()
    assert main(["oracle", "--config", str(cfg)]) == 0
    assert "stored fixture" in capsys.readouterr().out
    assert main(["run", "--config", str(cfg), "-q"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["F_star_source"] == f"fixture:{key[:16]}"


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
    assert main(["oracle", "--config", str(cfg), "--tol", "1e-2"]) == 0
    key = problem_hash(load_config(cfg))
    loose = json.loads((tmp_path / "fixtures" / "oracle.json").read_text())[key]
    assert loose["f_star"] != fresh["F_star"]
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


@st.composite
def config_mutations(draw):
    """A shipped config, a key at any depth, and a drop, rename or new value."""
    name = draw(st.sampled_from(sorted(SHIPPED_HASHES)))
    where = draw(st.sampled_from(list(_key_paths(_shipped_raw(name)))))
    renamable = isinstance(where[-1], str)
    change = draw(st.sampled_from(["drop", *(["rename"] * renamable), *RETYPES]))
    return name, where, change


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=config_mutations())
@example(mutation=("synthetic_consensus", ("dataset", "synthetic", "separation"), 0))
@example(mutation=("a9a_subset", ("regularizer", "lam"), math.inf))
def test_a_mutated_shipped_config_loads_or_is_a_config_error(tmp_path, mutation):
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
    path = tmp_path / "mutated.yaml"
    path.write_text(yaml.safe_dump(raw))
    try:
        cfg = load_config(path)
    except ConfigError:
        pass
    else:
        # a loaded config's hash input and manifest entry are strict JSON
        json.dumps(canonical_dict(cfg), allow_nan=False)
    assert main(["validate", "--config", str(path)]) in (0, 1)


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
def test_oracle_tolerance_must_be_finite_and_positive(tmp_path, capsys, tol):
    cfg = write_toy(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--config", str(cfg), "--tol", tol])
    assert exc.value.code != 0
    assert "--tol" in capsys.readouterr().err
    assert not (tmp_path / "fixtures").exists()
    problem, _ = build_problem(load_config(cfg))
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
