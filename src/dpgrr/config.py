"""Experiment configuration: YAML schema, canonical hashing, problem assembly.

A config file fully determines a reproducible experiment.  The canonical
hash covers exactly the semantic fields (with defaults materialized), so
reformatting or reordering a file never changes the hash while any
meaningful edit does.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .dataio import parse_libsvm, partition, synthesize_classification, Partition
from .engine import ALGORITHMS, ProblemBundle, StepRule
from .netgraph import GraphSchedule, StepsMode, metropolis_weights
from .objectives import SmoothLossKind
from .proxops import RegKind, Regularizer

__all__ = [
    "ConfigError",
    "SyntheticSpec",
    "LibsvmSpec",
    "GraphSpec",
    "AlgoSpec",
    "Diagnostics",
    "ExperimentConfig",
    "load_config",
    "canonical_dict",
    "config_hash",
    "problem_hash",
    "build_schedule",
    "build_problem",
]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SyntheticSpec:
    m: int
    n: int
    d: int
    seed: int
    separation: float = 5.0


@dataclass(frozen=True)
class LibsvmSpec:
    path: str
    m: int
    strategy: str = "round_robin"
    shuffle_seed: int | None = None


@dataclass(frozen=True)
class GraphSpec:
    slots: tuple[tuple[tuple[int, int], ...], ...]
    eta: float
    window: int
    steps_mode: StepsMode


@dataclass(frozen=True)
class AlgoSpec:
    name: str
    step: StepRule


@dataclass(frozen=True)
class Diagnostics:
    record_v: bool = False
    record_sigma_star: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: SyntheticSpec | LibsvmSpec
    loss: SmoothLossKind
    regularizer: Regularizer
    graph: GraphSpec
    algorithms: tuple[AlgoSpec, ...]
    horizon: int
    seeds: tuple[int, ...]
    output_dir: str
    snapshot_cadence: int | None = None
    diagnostics: Diagnostics = field(default_factory=Diagnostics)
    enforce_step_bound: bool = True
    least_squares_radius: float = 10.0
    x0: float = 0.0
    fixtures: str = "fixtures/oracle.json"
    base_dir: Path = Path(".")

    def __post_init__(self) -> None:
        # a seed keys the uint64 Philox index streams
        bad = [s for s in self.seeds if not 0 <= s < 2**64]
        if bad:
            raise ConfigError(f"seed {bad[0]} is outside [0, 2**64)")

    @property
    def m(self) -> int:
        return self.dataset.m

    def fixtures_path(self) -> Path:
        return self.base_dir / self.fixtures


def _mapping(raw, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: must be a mapping")
    return raw


def _require(mapping: dict, key: str, where: str):
    if key not in _mapping(mapping, where):
        raise ConfigError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _typed(value, kind: type, what: str, nullable: bool = False):
    """``value`` if YAML read it as exactly ``kind`` (no bool is an int) or null."""
    if type(value) is not kind and not (nullable and value is None):
        name = "an integer" if kind is int else "true or false"
        raise ConfigError(f"{what} must be {name}, not {value!r}")
    return value


def _float(value, what: str) -> float:
    """``float(value)`` of a YAML number or number string; a YAML bool is an error.

    PyYAML reads ``1e-3`` (no dot in the mantissa) as a string, so number
    strings stay accepted.
    """
    if isinstance(value, bool):
        raise ConfigError(f"{what} must be a number, not {value!r}")
    return float(value)


@contextlib.contextmanager
def _reading(where: str):
    """Report a malformed value met inside the block as a ``ConfigError``."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_steps_mode(raw, where: str) -> StepsMode:
    if raw == "growing" or raw is None:
        return StepsMode.growing()
    if isinstance(raw, dict) and set(raw) == {"fixed"}:
        return StepsMode.fixed(_typed(raw["fixed"], int, f"{where}: fixed K"))
    raise ConfigError(f"{where}: steps_mode must be 'growing' or {{fixed: K}}")


def _parse_step(raw: dict, where: str) -> StepRule:
    rule = _require(raw, "rule", where)
    with _reading(where):
        if rule == "constant":
            return StepRule.constant(_float(_require(raw, "gamma", where), "gamma"))
        if rule == "sqrt_horizon":
            scale = raw.get("scale")
            return StepRule.sqrt_horizon(None if scale is None else _float(scale, "scale"))
    raise ConfigError(f"{where}: unknown step rule {rule!r}")


def _parse_regularizer(raw: dict) -> Regularizer:
    kind = _require(raw, "kind", "regularizer")
    try:
        kind = RegKind(kind)
    except ValueError:
        raise ConfigError(f"regularizer: unknown kind {kind!r}") from None
    lam = _float(raw.get("lam", 0.0), "lam")
    if kind is not RegKind.ZERO and "lam" not in raw:
        raise ConfigError("regularizer: non-zero kinds need 'lam'")
    return Regularizer(kind, lam)


def load_config(path: Path | str) -> ExperimentConfig:
    """Read and check a config file; every malformed value is a ``ConfigError``."""
    path = Path(path)
    with path.open() as fh:
        raw = yaml.safe_load(fh)
    raw = _mapping(raw, str(path))

    ds_raw = _mapping(_require(raw, "dataset", str(path)), "dataset")
    if "synthetic" in ds_raw and "libsvm" in ds_raw:
        raise ConfigError("dataset: give either 'synthetic' or 'libsvm', not both")
    if "synthetic" in ds_raw:
        s = _mapping(ds_raw["synthetic"], "dataset.synthetic")
        sep = s.get("separation", 5.0)
        with _reading("dataset.synthetic"):
            dataset = SyntheticSpec(
                m=_typed(_require(s, "m", "dataset.synthetic"), int, "m"),
                n=_typed(_require(s, "n", "dataset.synthetic"), int, "n"),
                d=_typed(_require(s, "d", "dataset.synthetic"), int, "d"),
                seed=_typed(_require(s, "seed", "dataset.synthetic"), int, "seed"),
                separation=math.inf if sep in ("inf", ".inf") else _float(sep, "separation"),
            )
    elif "libsvm" in ds_raw:
        s = _mapping(ds_raw["libsvm"], "dataset.libsvm")
        with _reading("dataset.libsvm"):
            dataset = LibsvmSpec(
                path=str(_require(s, "path", "dataset.libsvm")),
                m=_typed(_require(s, "m", "dataset.libsvm"), int, "m"),
                strategy=str(s.get("strategy", "round_robin")),
                shuffle_seed=_typed(s.get("shuffle_seed"), int, "shuffle_seed", nullable=True),
            )
    else:
        raise ConfigError("dataset: need a 'synthetic' or 'libsvm' entry")

    loss_raw = _require(raw, "loss", str(path))
    try:
        loss = SmoothLossKind(loss_raw)
    except ValueError:
        raise ConfigError(f"unknown loss {loss_raw!r}") from None

    graph_raw = _require(raw, "graph", str(path))
    slots_raw = _require(graph_raw, "slots", "graph")
    if not slots_raw:
        raise ConfigError("graph: need at least one slot")
    with _reading("graph"):
        edge = "graph: an edge index"
        slots = tuple(
            tuple((_typed(i, int, edge), _typed(j, int, edge)) for i, j in slot)
            for slot in slots_raw
        )
        graph = GraphSpec(
            slots=slots,
            eta=_float(_require(graph_raw, "eta", "graph"), "eta"),
            window=_typed(_require(graph_raw, "B", "graph"), int, "B"),
            steps_mode=_parse_steps_mode(graph_raw.get("steps_mode"), "graph"),
        )

    algos_raw = _require(raw, "algorithms", str(path))
    if not algos_raw:
        raise ConfigError("need at least one algorithm")
    with _reading("algorithms"):
        algorithms = tuple(
            AlgoSpec(
                name=str(_require(a, "name", "algorithms")).lower(),
                step=_parse_step(_require(a, "step", "algorithms"), "algorithms.step"),
            )
            for a in algos_raw
        )
    for algo in algorithms:
        if algo.name not in ALGORITHMS:
            raise ConfigError(f"algorithms: unknown algorithm {algo.name!r}")
        if algo.name == "dgm" and algo.step.rule != "constant":
            raise ConfigError("algorithms: dgm decays its own step; use a constant rule")

    with _reading("seeds"):
        seeds = tuple(_typed(s, int, "a seed") for s in raw.get("seeds", [0]))
    if not seeds:
        raise ConfigError("seeds must be nonempty")
    # each (algorithm, seed) run writes its own CSV, named by the pair
    for what, values in (("algorithm", [a.name for a in algorithms]), ("seed", seeds)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ConfigError(f"{what} {repeated[0]!r} is listed more than once")

    diag_raw = _mapping(raw.get("diagnostics", {}) or {}, "diagnostics")

    with _reading(str(path)):
        cfg = ExperimentConfig(
            dataset=dataset,
            loss=loss,
            regularizer=_parse_regularizer(_require(raw, "regularizer", str(path))),
            graph=graph,
            algorithms=algorithms,
            horizon=_typed(_require(raw, "T", str(path)), int, "T"),
            seeds=seeds,
            output_dir=str(raw.get("output_dir", "out")),
            snapshot_cadence=_typed(
                raw.get("snapshot_cadence"), int, "snapshot_cadence", nullable=True
            ),
            diagnostics=Diagnostics(
                record_v=_typed(diag_raw.get("record_v", False), bool, "record_v"),
                record_sigma_star=_typed(
                    diag_raw.get("record_sigma_star", False), bool, "record_sigma_star"
                ),
            ),
            enforce_step_bound=_typed(
                raw.get("enforce_step_bound", True), bool, "enforce_step_bound"
            ),
            least_squares_radius=_float(
                raw.get("least_squares_radius", 10.0), "least_squares_radius"
            ),
            x0=_float(raw.get("x0", 0.0), "x0"),
            fixtures=str(raw.get("fixtures", "fixtures/oracle.json")),
            base_dir=path.resolve().parent,
        )
    if cfg.horizon < 0:
        raise ConfigError("T must be >= 0")
    if cfg.snapshot_cadence is not None and cfg.snapshot_cadence < 1:
        raise ConfigError("snapshot_cadence must be >= 1")
    if not 0.0 <= cfg.least_squares_radius < math.inf:
        raise ConfigError("least_squares_radius must be finite and >= 0")
    return cfg


def _dataset_dict(cfg: ExperimentConfig) -> dict:
    if isinstance(cfg.dataset, SyntheticSpec):
        d = cfg.dataset
        return {
            "synthetic": {
                "m": d.m, "n": d.n, "d": d.d, "seed": d.seed,
                "separation": "inf" if d.separation == math.inf else d.separation,
            }
        }
    d = cfg.dataset
    return {
        "libsvm": {
            "path": d.path, "m": d.m, "strategy": d.strategy,
            "shuffle_seed": d.shuffle_seed,
        }
    }


def _problem_dict(cfg: ExperimentConfig) -> dict:
    return {
        "dataset": _dataset_dict(cfg),
        "loss": cfg.loss.value,
        "regularizer": {"kind": cfg.regularizer.kind.value, "lam": cfg.regularizer.lam},
    }


def canonical_dict(cfg: ExperimentConfig) -> dict:
    """Every semantic field with defaults materialized; paths excluded."""
    mode = cfg.graph.steps_mode
    return {
        **_problem_dict(cfg),
        "graph": {
            "slots": [[list(e) for e in slot] for slot in cfg.graph.slots],
            "eta": cfg.graph.eta,
            "B": cfg.graph.window,
            "steps_mode": mode.kind if mode.kind == "growing" else {"fixed": mode.k},
        },
        "algorithms": [
            {
                "name": a.name,
                "step": {"rule": a.step.rule, "gamma": a.step.gamma,
                         "scale": a.step.scale},
            }
            for a in cfg.algorithms
        ],
        "T": cfg.horizon,
        "seeds": list(cfg.seeds),
        "snapshot_cadence": cfg.snapshot_cadence,
        "diagnostics": {
            "record_v": cfg.diagnostics.record_v,
            "record_sigma_star": cfg.diagnostics.record_sigma_star,
        },
        "enforce_step_bound": cfg.enforce_step_bound,
        "least_squares_radius": cfg.least_squares_radius,
        "x0": cfg.x0,
    }


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def config_hash(cfg: ExperimentConfig) -> str:
    return _digest(canonical_dict(cfg))


def problem_hash(cfg: ExperimentConfig) -> str:
    """Hash of the fields that determine the optimal value (data + objective)."""
    return _digest(_problem_dict(cfg))


def build_schedule(graph: GraphSpec, m: int) -> GraphSchedule:
    matrices = tuple(
        metropolis_weights(slot, m, graph.eta) for slot in graph.slots
    )
    return GraphSchedule(matrices, graph.window)


def build_problem(
    cfg: ExperimentConfig,
) -> tuple[ProblemBundle, Partition | None]:
    """The problem, built from arrays that synthesis or partitioning packs.

    ``f_star`` is left unset; the ``Partition`` is None for synthetic data.
    Every ``ValueError`` raised while building (bad data, bad graph) is
    reported as a ``ConfigError``.
    """
    synthetic = isinstance(cfg.dataset, SyntheticSpec)
    if synthetic and cfg.loss is not SmoothLossKind.LOGISTIC:
        raise ConfigError("synthetic datasets carry +-1 labels; use logistic loss")
    part = None
    try:
        if synthetic:
            d = cfg.dataset
            features, labels = synthesize_classification(
                d.m, d.n, d.d, d.separation, d.seed
            )
        else:
            with open(cfg.base_dir / cfg.dataset.path) as fh:
                rows, targets = parse_libsvm(
                    fh, classification=cfg.loss is SmoothLossKind.LOGISTIC
                )
            features, labels, part = partition(
                rows, targets, cfg.dataset.m, cfg.dataset.strategy,
                cfg.dataset.shuffle_seed,
            )
        bundle = ProblemBundle(
            features=features,
            labels=labels,
            kind=cfg.loss,
            regularizer=cfg.regularizer,
            schedule=build_schedule(cfg.graph, cfg.m),
        )
    except OSError as exc:
        raise ConfigError(f"cannot read dataset {exc.filename}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return bundle, part
