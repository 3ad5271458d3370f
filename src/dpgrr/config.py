"""Experiment configuration: YAML schema, canonical hashing, problem assembly.

A config file fully determines a reproducible experiment.  The canonical
hash covers exactly the semantic fields (with defaults materialized), so
reformatting or reordering a file never changes the hash while any
meaningful edit does.  Each mapping's keys are listed once, in a field
table (``_Field``/``_Table``) that drives reading, unknown-key rejection
and the canonical form alike, so the loader and the hash cannot drift
apart.  Error messages name the dotted path of the offending key.

An algorithm's step is a ``StepRule``, constant or gamma = M / sqrt(T)
with M at most ``step_scale_bound``; ``dpgrr run`` resolves it to the
step size the engine takes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple

import yaml

from .dataio import parse_libsvm, partition, synthesize_classification, Partition
from .engine import ALGORITHMS, ProblemBundle
from .netgraph import GraphSchedule, StepsMode, metropolis_weights
from .objectives import SmoothLossKind
from .proxops import RegKind, Regularizer

__all__ = [
    "ConfigError",
    "StepRule",
    "step_scale_bound",
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


def step_scale_bound(lipschitz: float, n: int) -> float:
    """Largest admissible scale M of the gamma = M / sqrt(T) rule; infinite
    when every sample is zero (L = 0)."""
    return math.sqrt(6.0) / (6.0 * lipschitz * n) if lipschitz else math.inf


@dataclass(frozen=True)
class StepRule:
    """Either a constant step size or gamma = scale / sqrt(T)."""

    rule: str  # "constant" | "sqrt_horizon"
    gamma: float | None = None
    scale: float | None = None

    def __post_init__(self) -> None:
        if self.rule not in ("constant", "sqrt_horizon"):
            raise ValueError(f"unknown step rule {self.rule!r}")
        if self.rule == "constant" and not (
            self.gamma is not None and 0.0 < self.gamma < math.inf
        ):
            raise ValueError(f"constant rule needs a finite gamma > 0, got {self.gamma}")
        if self.rule == "sqrt_horizon" and self.scale is not None and not (
            0.0 < self.scale < math.inf
        ):
            raise ValueError(f"sqrt_horizon scale must be finite and > 0, got {self.scale}")

    @classmethod
    def constant(cls, gamma: float) -> "StepRule":
        return cls("constant", gamma=float(gamma))

    @classmethod
    def sqrt_horizon(cls, scale: float | None = None) -> "StepRule":
        return cls("sqrt_horizon", scale=None if scale is None else float(scale))

    def bound_violation(self, lipschitz: float, n: int) -> str | None:
        """Why the rule's scale is inadmissible, or None if it is admissible.

        A rule without a scale takes the bound, so it has no step when the
        bound is infinite.
        """
        if self.rule != "sqrt_horizon":
            return None
        bound = step_scale_bound(lipschitz, n)
        if self.scale is None:
            return None if bound < math.inf else "needs a scale: L = 0 leaves no bound"
        if self.scale > bound * (1.0 + 1e-12):
            return f"step scale {self.scale:g} exceeds admissible bound {bound:g}"
        return None

    def resolve(self, lipschitz: float, n: int, horizon: int) -> float:
        """Concrete step size for a run of ``horizon`` epochs; checks no bound."""
        if self.rule == "constant":
            return self.gamma
        if horizon < 1:
            raise ValueError("sqrt_horizon rule needs horizon >= 1")
        scale = step_scale_bound(lipschitz, n) if self.scale is None else self.scale
        return scale / math.sqrt(horizon)


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


_REQUIRED = object()


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _mapping(raw, path: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config'}: must be a mapping")
    return raw


class _Field(NamedTuple):
    """One key of a config mapping.

    ``read(value, path)`` checks and converts the YAML value found at the
    dotted ``path``; ``default`` stands in for an absent key, and
    ``_REQUIRED`` makes its absence an error.  ``attr`` names the
    dataclass field when it differs from the key.  ``dump`` gives the
    field's canonical (hashed) form; None leaves it out of the hash.
    """

    key: str
    read: Callable[[Any, str], Any]
    default: Any = _REQUIRED
    attr: str | None = None
    dump: Callable[[Any], Any] | None = lambda value: value


class _Table(NamedTuple):
    """The fields of one config mapping and the constructor they feed."""

    build: Callable[..., Any]
    fields: tuple[_Field, ...]

    def read(self, raw, path: str, **extra):
        """Build the mapping at ``path``; a ``TypeError`` or ``ValueError``
        met on the way is reported as a ``ConfigError`` on ``path``."""
        keys = [f.key for f in self.fields]
        for key in _mapping(raw, path):
            if key not in keys:
                raise ConfigError(
                    f"{_join(path, key)}: unknown key; known here: {', '.join(keys)}"
                )
        values = {}
        try:
            for f in self.fields:
                if f.key in raw:
                    values[f.attr or f.key] = f.read(raw[f.key], _join(path, f.key))
                elif f.default is _REQUIRED:
                    raise ConfigError(f"{_join(path, f.key)}: missing required key")
                else:
                    values[f.attr or f.key] = f.default
            return self.build(**values, **extra)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path or 'config'}: {exc}") from None

    def dump(self, obj) -> dict:
        return {
            f.key: f.dump(getattr(obj, f.attr or f.key))
            for f in self.fields
            if f.dump is not None
        }


def _exactly(kind: type, name: str):
    """Reader of a value YAML read as exactly ``kind`` (no bool is an int)."""
    def read(value, path: str):
        if type(value) is not kind:
            raise ConfigError(f"{path} must be {name}, not {value!r}")
        return value
    return read


_int = _exactly(int, "an integer")
_bool = _exactly(bool, "true or false")
_str = _exactly(str, "a string")


def _number(accept=math.isfinite, need: str = "finite"):
    """Reader of a YAML number or number string that ``accept`` admits.

    PyYAML reads ``1e-3`` (no dot in the mantissa) as a string, so number
    strings (and a quoted ``.inf``) stay accepted; a YAML bool is an error.
    """
    def read(value, path: str) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ConfigError(f"{path} must be a number, not {value!r}")
        try:
            number = math.inf if value == ".inf" else float(value)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{path}: {exc}") from None
        if not accept(number):
            raise ConfigError(f"{path} must be {need}, not {value!r}")
        return number
    return read


_float = _number()


def _or_none(read):
    return lambda value, path: None if value is None else read(value, path)


def _list(value, path: str) -> list:
    # a mapping or a string iterates too, but is not a list
    if not isinstance(value, list):
        raise ConfigError(f"{path} must be a list, not {value!r}")
    return value


def _items(read, nonempty: bool = True):
    """Reader of a YAML list into a tuple, item ``i`` read at ``path[i]``."""
    def read_list(value, path: str) -> tuple:
        items = _list(value, path)
        if nonempty and not items:
            raise ConfigError(f"{path} must be nonempty")
        return tuple(read(item, f"{path}[{i}]") for i, item in enumerate(items))
    return read_list


def _one_of(options, value, path: str):
    # a list compares an unhashable value instead of hashing it
    if value not in list(options):
        raise ConfigError(f"{path} must be one of {', '.join(options)}, not {value!r}")
    return value


def _variant(tag: str, tables: dict[str, _Table]):
    """Reader of a mapping whose ``tag`` value picks the table that reads it."""
    def read(raw, path: str):
        choice = _one_of(tables, _mapping(raw, path).get(tag), _join(path, tag))
        return tables[choice].read(raw, path)
    return read


def _edge(value, path: str) -> tuple[int, int]:
    i, j = _list(value, path)
    return _int(i, f"{path}[0]"), _int(j, f"{path}[1]")


def _algorithm(value, path: str) -> str:
    name = _str(value, path).lower()
    if name not in ALGORITHMS:
        raise ConfigError(f"{path}: unknown algorithm {name!r}")
    return name


def _one_dataset(synthetic=None, libsvm=None):
    if (synthetic is None) == (libsvm is None):
        raise ValueError("give exactly one of 'synthetic' or 'libsvm'")
    return synthetic or libsvm


_SYNTHETIC = _Table(SyntheticSpec, (
    _Field("m", _int), _Field("n", _int), _Field("d", _int), _Field("seed", _int),
    # inf gives noiseless labels; the data checks that it is > 0
    _Field("separation", _number(lambda s: s > -math.inf, "finite or inf"), 5.0,
           dump=lambda s: "inf" if s == math.inf else s),
))
_LIBSVM = _Table(LibsvmSpec, (
    _Field("path", _str), _Field("m", _int), _Field("strategy", _str, "round_robin"),
    _Field("shuffle_seed", _or_none(_int), None),
))
_DATASET = _Table(_one_dataset, (
    _Field("synthetic", _SYNTHETIC.read, None), _Field("libsvm", _LIBSVM.read, None),
))

_KIND = _Field("kind", lambda value, path: RegKind(value), dump=lambda kind: kind.value)
_PENALTY = _Table(Regularizer, (_KIND, _Field("lam", _float)))
_REGULARIZER = _variant("kind", {
    "zero": _Table(Regularizer, (_KIND, _Field("lam", _float, 0.0))),
    "l1": _PENALTY,
    "squared_l2": _PENALTY,
})

_FIXED = _Table(StepsMode.fixed, (_Field("fixed", _int, attr="k"),))


def _steps_mode(value, path: str) -> StepsMode:
    if value in ("growing", None):
        return StepsMode.growing()
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be 'growing' or {{fixed: K}}, not {value!r}")
    return _FIXED.read(value, path)


_GRAPH = _Table(GraphSpec, (
    _Field("slots", _items(_items(_edge, nonempty=False))),
    _Field("eta", _float),
    _Field("B", _int, attr="window"),
    _Field("steps_mode", _steps_mode, StepsMode.growing(),
           dump=lambda mode: mode.kind if mode.kind == "growing" else _FIXED.dump(mode)),
))

_RULE = _Field("rule", _str)
_ALGORITHM = _Table(AlgoSpec, (
    _Field("name", _algorithm),
    # the canonical step writes all of rule, gamma and scale
    _Field("step", _variant("rule", {
        "constant": _Table(StepRule, (_RULE, _Field("gamma", _float))),
        "sqrt_horizon": _Table(StepRule, (_RULE, _Field("scale", _or_none(_float), None))),
    }), dump=asdict),
))

_DIAGNOSTICS = _Table(Diagnostics, (
    _Field("record_v", _bool, False), _Field("record_sigma_star", _bool, False),
))


def _dump_dataset(spec) -> dict:
    if isinstance(spec, SyntheticSpec):
        return {"synthetic": _SYNTHETIC.dump(spec)}
    return {"libsvm": _LIBSVM.dump(spec)}


def _loss(value, path: str) -> SmoothLossKind:
    return SmoothLossKind(_one_of([k.value for k in SmoothLossKind], value, path))


# the fields that determine the optimal value; fixtures are keyed on their hash
_PROBLEM = _Table(ExperimentConfig, (
    _Field("dataset", _DATASET.read, dump=_dump_dataset),
    _Field("loss", _loss, dump=lambda loss: loss.value),
    _Field("regularizer", _REGULARIZER, dump=_PENALTY.dump),
))
_CONFIG = _Table(ExperimentConfig, _PROBLEM.fields + (
    _Field("graph", _GRAPH.read, dump=_GRAPH.dump),
    _Field("algorithms", _items(_ALGORITHM.read),
           dump=lambda algorithms: [_ALGORITHM.dump(a) for a in algorithms]),
    _Field("T", _int, attr="horizon"),
    _Field("seeds", _items(_int), (0,)),
    _Field("output_dir", _str, "out", dump=None),
    _Field("snapshot_cadence", _or_none(_int), None),
    # null, or any empty value, keeps the defaults
    _Field("diagnostics", lambda value, path: _DIAGNOSTICS.read(value or {}, path),
           Diagnostics(), dump=_DIAGNOSTICS.dump),
    _Field("enforce_step_bound", _bool, True),
    # it bounds G_f and G_phi in the manifest
    _Field("least_squares_radius", _number(lambda r: 0.0 <= r < math.inf,
                                           "finite and >= 0"), 10.0),
    _Field("x0", _float, 0.0),
    _Field("fixtures", _str, "fixtures/oracle.json", dump=None),
))


# libyaml scans and parses; PyYAML's safe constructor and resolver still
# build the values, so both loaders give the same Python objects.  The
# pure-Python loader serves only a PyYAML built without libyaml.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path: Path | str) -> ExperimentConfig:
    """Read and check a config file; a file that cannot be read or parsed,
    and every malformed value, is a ``ConfigError``."""
    path = Path(path)
    try:
        with path.open() as fh:
            raw = yaml.load(fh, Loader=_LOADER)
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read {path}: {reason}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path} is not valid YAML: {exc}") from None
    cfg = _CONFIG.read(raw, "", base_dir=path.resolve().parent)
    for algo in cfg.algorithms:
        if algo.name == "dgm" and algo.step.rule != "constant":
            raise ConfigError("algorithms: dgm decays its own step; use a constant rule")
    # each (algorithm, seed) run writes its own CSV, named by the pair
    for what, values in (("algorithm", [a.name for a in cfg.algorithms]), ("seed", cfg.seeds)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ConfigError(f"{what} {repeated[0]!r} is listed more than once")
    if cfg.horizon < 0:
        raise ConfigError("T must be >= 0")
    if cfg.snapshot_cadence is not None and cfg.snapshot_cadence < 1:
        raise ConfigError("snapshot_cadence must be >= 1")
    return cfg


def canonical_dict(cfg: ExperimentConfig) -> dict:
    """Every semantic field with defaults materialized; paths excluded."""
    return _CONFIG.dump(cfg)


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def config_hash(cfg: ExperimentConfig) -> str:
    return _digest(canonical_dict(cfg))


def problem_hash(cfg: ExperimentConfig) -> str:
    """Hash of the fields that determine the optimal value (data + objective)."""
    return _digest(_PROBLEM.dump(cfg))


def build_schedule(graph: GraphSpec, m: int) -> GraphSchedule:
    matrices = tuple(
        metropolis_weights(slot, m, graph.eta) for slot in graph.slots
    )
    return GraphSchedule(matrices, graph.window)


def build_problem(
    cfg: ExperimentConfig,
) -> tuple[ProblemBundle, Partition | None]:
    """The problem, built from arrays that synthesis or partitioning packs.

    The ``Partition`` is None for synthetic data.
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
