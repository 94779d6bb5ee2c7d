"""Experiment configuration: a line-oriented config format plus presets.

Grammar (documented in the README as well):

* ``[section]`` headers; known sections are ``experiment``, ``model``,
  ``graph``, ``regression``, ``noise``, ``gains``, ``excitation``.
* ``key = value`` lines inside a section.  ``#`` starts a comment anywhere.
* Scalars are plain numbers or words.  Vectors are whitespace-separated
  numbers (``x0 = 5 4 3``).  Matrices separate rows with ``;``
  (``adjacency = 0 1 ; 0 0``).  Per-node families use numbered keys
  (``init_1``, ``base_2``, ...); the ``state_`` family is counted by the
  ``states`` key written before it.

Every key is declared once, in the table of its section (``_SECTIONS``):
its name, its type (how its text parses and renders) and its default, or
that a file must give it.  ``[noise]``, ``[gains]`` and ``[excitation]``
take their keys from the fields of their dataclasses, defaults included;
``[graph]`` and ``[regression]`` map each ``kind`` to its keys and to the
constructor of its process.  :func:`parse_config`, :func:`render_config`
and the ``to_process`` methods only read these tables.

Parsing reports the first offending line; semantic validation (dimension
mismatches, values outside the model's premises and the like) names the
section and key, and builds every model object the config describes.
Every valid config round-trips exactly through
``parse_config(render_config(cfg))``, and the rendering is canonical.
"""

from __future__ import annotations

import math
from collections import ChainMap
from dataclasses import dataclass, field, fields, replace
from typing import Callable

from . import graphs, regression
from .errors import ConfigError, InvalidInputError
from .linalg import as_matrix
from .noise import NOISE_KINDS

__all__ = [
    "GraphConfig",
    "RegressionConfig",
    "NoiseConfig",
    "GainConfig",
    "ExcitationConfig",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "render_config",
    "get_preset",
    "preset_names",
    "PRESET_SUMMARIES",
    "with_overrides",
]

Matrix = tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class GraphConfig:
    kind: str
    adjacency: Matrix | None = None
    even_low: float = 0.0
    even_high: float = 1.0
    odd_low: float = 0.0
    odd_high: float = 1.0
    low: float = 0.0
    high: float = 1.0
    states: tuple[Matrix, ...] = ()
    transition: Matrix | None = None
    initial_state: int = 0

    def to_process(self, nodes: int) -> graphs.GraphProcess:
        return _kind(_GRAPH_KINDS, "graph", self.kind).build(self, nodes)


@dataclass(frozen=True)
class RegressionConfig:
    kind: str
    h_nodes: tuple[Matrix, ...] = ()
    base: tuple[Matrix, ...] = ()
    coef: tuple[Matrix, ...] = ()
    low: float = 0.0
    high: float = 1.0
    active_prob: float = 1.0
    ar_init: Matrix | None = None

    def to_process(self, nodes: int, dim: int) -> regression.RegressionProcess:
        return _kind(_REGRESSION_KINDS, "regression", self.kind).build(self, nodes, dim)


@dataclass(frozen=True)
class NoiseConfig:
    measurement_kind: str = "gaussian"
    measurement_std: float = 1.0
    channel_kind: str = "gaussian"
    channel_std: float = 1.0
    sigma_f: float = 0.1
    b_f: float = 0.1


@dataclass(frozen=True)
class GainConfig:
    """Power-law step sizes a(k) = a_coef (k+1)^-a_exp, likewise b and the
    regularizer weight lambda, which is off (zero) unless set."""

    a_coef: float = 1.0
    a_exp: float = 0.6
    b_coef: float = 1.0
    b_exp: float = 0.6
    lambda_coef: float = 0.0
    lambda_exp: float = 0.0


@dataclass(frozen=True)
class ExcitationConfig:
    window: int = 2
    theta1: float = 0.5
    theta2: float = 0.2
    rho0: float = 5.0


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    seed: int
    horizon: int
    runs: int
    nodes: int
    dim: int
    node_dims: tuple[int, ...]
    x0: tuple[float, ...]
    init: tuple[tuple[float, ...], ...]
    graph: GraphConfig
    regression: RegressionConfig
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    gains: GainConfig = field(default_factory=GainConfig)
    excitation: ExcitationConfig = field(default_factory=ExcitationConfig)
    record_every: int = 1
    out: str = ""

    def validate(self) -> "ExperimentConfig":
        """Check the config against the model's premises and build the
        processes it describes; a failure is a :class:`ConfigError` that
        names the section, and the key where one key is at fault."""

        def fail(msg):
            raise ConfigError(msg)

        if self.seed < 0:
            fail("[experiment] seed must be nonnegative")
        if self.horizon < 0:
            fail("[experiment] horizon must be nonnegative")
        if self.runs < 1:
            fail("[experiment] runs must be positive")
        if self.record_every < 1:
            fail("[experiment] record_every must be positive")
        if self.nodes < 1 or self.dim < 1:
            fail("[model] nodes and dim must be positive")
        if len(self.node_dims) != self.nodes or any(d < 1 for d in self.node_dims):
            fail("[model] node_dims must list one positive row count per node")
        if len(self.x0) != self.dim:
            fail(f"[model] x0 must have {self.dim} entries, got {len(self.x0)}")
        if len(self.init) != self.nodes or any(len(r) != self.dim for r in self.init):
            fail(f"[model] need init_1..init_{self.nodes}, each with {self.dim} entries")
        rho0 = self.excitation.rho0
        if not (math.isfinite(rho0) and rho0 > 0):
            fail(f"[excitation] rho0 must be finite and positive, got {rho0!r}")
        # the noise laws, the gains and the excitation thresholds: every
        # kind is a noise kind, every number finite and nonnegative
        for section in ("noise", "gains", "excitation"):
            part = getattr(self, section)
            for f in fields(part):
                value = getattr(part, f.name)
                if f.type == "str" and value not in NOISE_KINDS:
                    fail(f"[{section}] {f.name} must be one of {', '.join(NOISE_KINDS)}, got {value!r}")
                if f.type == "float" and not (math.isfinite(value) and value >= 0):
                    fail(f"[{section}] {f.name} must be finite and nonnegative, got {value!r}")
        if self.excitation.window < 1:
            fail("[excitation] window must be positive")
        section = "graph"
        try:  # surface process-level validation as config errors
            gp = self.graph.to_process(self.nodes)
            section = "regression"
            rp = self.regression.to_process(self.nodes, self.dim)
        except InvalidInputError as exc:
            raise ConfigError(f"[{section}] {exc}") from exc
        if gp.nodes != self.nodes:
            fail(f"[graph] describes {gp.nodes} nodes but [model] has {self.nodes}")
        if rp.nodes != self.nodes:
            fail(f"[regression] describes {rp.nodes} nodes but [model] has {self.nodes}")
        if rp.dim != self.dim:
            fail(f"[regression] column count {rp.dim} does not match dim {self.dim}")
        if rp.node_dims != self.node_dims:
            fail(f"[regression] row counts {rp.node_dims} do not match node_dims {self.node_dims}")
        ai = self.regression.ar_init
        if rp.kind == "ar-driven" and ai is not None and (
            len(ai) != self.nodes or any(len(r) != self.dim for r in ai)
        ):
            fail(f"[regression] ar_init must be {self.nodes} rows of {self.dim} entries")
        # a field its kind does not read would not survive the config text
        for section in ("graph", "regression"):
            part = getattr(self, section)
            read = {"kind", *(key.attr for key in _SECTIONS[section].kind_keys(part.kind))}
            for f in fields(part):
                if f.name not in read and getattr(part, f.name) != f.default:
                    fail(f"[{section}] {f.name} is not read by kind {part.kind!r}")
        return self


# ---------------------------------------------------------------------------
# the key tables

_REQUIRED = object()  # the default of a key that every file must give
_PER_NODE = "nodes"  # the count of a family with one key per node


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.split())


def _vector(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split())


def _matrix(raw: str) -> Matrix:
    rows = tuple(_vector(part) for part in raw.split(";"))
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(raw)
    return rows


def _fmt_vector(v) -> str:
    # repr gives the shortest text that reads back to the same float
    return " ".join(repr(float(e)) for e in v)


@dataclass(frozen=True)
class _Type:
    """How a value of one type parses from and renders to config text;
    ``parse`` raises ValueError on text that is not ``expected``."""

    parse: Callable[[str], object]
    render: Callable[[object], str]
    expected: str


_TYPES = {
    "str": _Type(str, str, "a word"),
    "int": _Type(int, str, "an integer"),
    "float": _Type(float, lambda x: repr(float(x)), "a number"),
    "ints": _Type(_ints, lambda v: " ".join(str(d) for d in v), "whitespace-separated integers"),
    "vector": _Type(_vector, _fmt_vector, "a whitespace-separated vector"),
    "matrix": _Type(
        _matrix,
        lambda m: " ; ".join(_fmt_vector(row) for row in m),
        "a matrix of equally long rows separated by ';'",
    ),
}


@dataclass(frozen=True)
class _Key:
    """A key written ``name = value`` that fills the config attribute
    ``attr`` (``name`` when not given).

    ``default`` is a value, a function of the values read before it, or
    ``_REQUIRED``.  A key with ``count`` is a family ``name1 .. nameC`` of
    required keys: ``C`` is the node count when ``count`` is ``"nodes"``,
    else the positive integer key ``count`` written just before it.
    """

    name: str
    type: str
    default: object = _REQUIRED
    attr: str = ""
    count: str = ""

    def __post_init__(self):
        if not self.attr:
            object.__setattr__(self, "attr", self.name)

    def render(self, value) -> list[str]:
        if self.default in (None, "") and value == self.default:
            return []  # an optional key left unset is left out
        fmt = _TYPES[self.type].render
        if not self.count:
            return [f"{self.name} = {fmt(value)}"]
        head = [] if self.count == _PER_NODE else [f"{self.count} = {len(value)}"]
        return head + [f"{self.name}{i} = {fmt(v)}" for i, v in enumerate(value, 1)]


def _field_keys(cls, required=()) -> tuple[_Key, ...]:
    """One key per field of dataclass ``cls``, with the field's name, type
    and default; the ``required`` ones have no default in files."""
    return tuple(
        _Key(f.name, f.type, _REQUIRED if f.name in required else f.default) for f in fields(cls)
    )


@dataclass(frozen=True)
class _Kind:
    """One ``kind`` of a [graph] or [regression] section: the keys it
    reads and the constructor of its process from the config (and the
    [model] node count and dimension)."""

    build: Callable
    keys: tuple[_Key, ...]


def _kind(kinds: dict[str, _Kind], section: str, kind: str, line: int | None = None) -> _Kind:
    if kind not in kinds:
        raise ConfigError(f"[{section}] unknown kind {kind!r}", line)
    return kinds[kind]


# The process builders name their own parameters in their errors; a
# config reaches them through these two, which reject the same inputs in
# terms of its keys.


def _range(part, lo: str, hi: str) -> tuple[float, float]:
    """Keys ``lo`` and ``hi`` of ``part`` as a finite range."""
    low, high = getattr(part, lo), getattr(part, hi)
    if not (math.isfinite(low) and math.isfinite(high) and low <= high):
        raise InvalidInputError(
            f"{lo} and {hi} must be finite with {lo} <= {hi}, got {low!r} and {high!r}"
        )
    return low, high


def _family(mats, prefix: str) -> list:
    """The values of the keys ``prefix1``, ``prefix2``, ... as finite
    matrices, each with as many columns as the first."""
    mats = [as_matrix(m, f"{prefix}{i}") for i, m in enumerate(mats, 1)]
    for i, m in enumerate(mats[1:], 2):
        if m.shape[1] != mats[0].shape[1]:
            raise InvalidInputError(
                f"{prefix}{i} and {prefix}1 differ in column count ({m.shape[1]} vs {mats[0].shape[1]})"
            )
    return mats


_GRAPH_KINDS = {
    "fixed": _Kind(
        lambda c, nodes: graphs.fixed_graph(c.adjacency),
        (_Key("adjacency", "matrix"),),
    ),
    "alternating-uniform": _Kind(
        lambda c, nodes: graphs.alternating_uniform_graph(
            nodes, _range(c, "even_low", "even_high"), _range(c, "odd_low", "odd_high")
        ),
        tuple(_Key(name, "float") for name in ("even_low", "even_high", "odd_low", "odd_high")),
    ),
    "iid-uniform": _Kind(
        lambda c, nodes: graphs.iid_uniform_graph(nodes, _range(c, "low", "high")),
        (_Key("low", "float"), _Key("high", "float")),
    ),
    "markov-switching": _Kind(
        lambda c, nodes: graphs.markov_switching_graph(
            _family(c.states, "state_"), c.transition, c.initial_state
        ),
        (
            _Key("state_", "matrix", attr="states", count="states"),
            _Key("transition", "matrix"),
            _Key("initial_state", "int", GraphConfig.initial_state),
        ),
    ),
}

_REGRESSION_KINDS = {
    "fixed": _Kind(
        lambda c, nodes, dim: regression.fixed_regression(_family(c.h_nodes, "h_")),
        (_Key("h_", "matrix", attr="h_nodes", count=_PER_NODE),),
    ),
    "entrywise-uniform": _Kind(
        lambda c, nodes, dim: regression.entrywise_uniform_regression(
            _family(c.base, "base_"), _family(c.coef, "coef_"), *_range(c, "low", "high")
        ),
        (
            _Key("base_", "matrix", attr="base", count=_PER_NODE),
            _Key("coef_", "matrix", attr="coef", count=_PER_NODE),
            _Key("low", "float", RegressionConfig.low),
            _Key("high", "float", RegressionConfig.high),
        ),
    ),
    "bernoulli-failure": _Kind(
        lambda c, nodes, dim: regression.bernoulli_failure_regression(
            _family(c.coef, "pattern_"), c.active_prob
        ),
        (
            _Key("pattern_", "matrix", attr="coef", count=_PER_NODE),
            _Key("active_prob", "float"),
        ),
    ),
    "ar-driven": _Kind(
        lambda c, nodes, dim: regression.ar_driven_regression(nodes, dim),
        (_Key("ar_init", "matrix", RegressionConfig.ar_init),),
    ),
}

_KIND_KEY = _Key("kind", "str")


@dataclass(frozen=True)
class _Section:
    """A ``[name]`` section: its keys in file order and, with ``kinds``,
    the further keys of each kind.  With ``cls`` it fills the
    :class:`ExperimentConfig` field ``name``; without, its keys are
    :class:`ExperimentConfig` fields themselves."""

    name: str
    required: bool
    keys: tuple[_Key, ...]
    cls: type | None = None
    kinds: dict[str, _Kind] | None = None

    def kind_keys(self, kind, line: int | None = None) -> tuple[_Key, ...]:
        return _kind(self.kinds, self.name, kind, line).keys if self.kinds else ()


_SECTIONS = {
    section.name: section
    for section in (
        _Section(
            "experiment",
            True,
            (
                _Key("name", "str", "custom"),
                _Key("seed", "int", 0),
                _Key("horizon", "int"),
                _Key("runs", "int", 1),
                _Key("record_every", "int", ExperimentConfig.record_every),
                _Key("out", "str", ExperimentConfig.out),
            ),
        ),
        _Section(
            "model",
            True,
            (
                _Key("nodes", "int"),
                _Key("dim", "int"),
                _Key("node_dims", "ints", lambda got: (got["dim"],) * got["nodes"]),
                _Key("x0", "vector"),
                _Key("init_", "vector", attr="init", count=_PER_NODE),
            ),
        ),
        _Section("graph", True, (_KIND_KEY,), GraphConfig, _GRAPH_KINDS),
        _Section("regression", True, (_KIND_KEY,), RegressionConfig, _REGRESSION_KINDS),
        _Section("noise", False, _field_keys(NoiseConfig), NoiseConfig),
        _Section(
            "gains",
            True,
            _field_keys(GainConfig, required=("a_coef", "a_exp", "b_coef", "b_exp")),
            GainConfig,
        ),
        _Section("excitation", False, _field_keys(ExcitationConfig), ExcitationConfig),
    )
}


# ---------------------------------------------------------------------------
# parsing and rendering


class _SectionView:
    """Reads keys from one section and tracks which were consumed, so
    leftovers can be reported."""

    def __init__(self, name: str, entries: dict[str, tuple[str, int]]):
        self.name = name
        self.entries = entries
        self.used: set[str] = set()

    def take(self, key: _Key, got):
        """The value of ``key``; ``got`` maps the attributes read so far
        (the node count among them) to their values."""
        if not key.count:
            return self._value(key.name, key.type, key.default, got)
        count = got["nodes"] if key.count == _PER_NODE else self._value(key.count, "int", _REQUIRED, got)
        if count < 1:  # [model] nodes or [graph] states, keys of this section
            raise ConfigError(f"[{self.name}] {key.count} must be positive", self.entries[key.count][1])
        return tuple(
            self._value(f"{key.name}{i}", key.type, _REQUIRED, got) for i in range(1, count + 1)
        )

    def _value(self, name: str, type_: str, default, got):
        if name not in self.entries:
            if default is _REQUIRED:
                raise ConfigError(f"[{self.name}] missing required key '{name}'")
            return default(got) if callable(default) else default
        raw, line = self.entries[name]
        self.used.add(name)
        kind = _TYPES[type_]
        try:
            return kind.parse(raw)
        except ValueError:
            raise ConfigError(f"expected {kind.expected}, got {raw!r}", line) from None

    def finish(self):
        leftover = [k for k in self.entries if k not in self.used]
        if leftover:
            key = min(leftover, key=lambda k: self.entries[k][1])
            raise ConfigError(f"unknown key '{key}' in [{self.name}]", self.entries[key][1])


def _split_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: dict[str, tuple[str, int]] | None = None
    for lineno, rawline in enumerate(text.splitlines(), 1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"malformed section header {line!r}", lineno)
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(f"unknown section [{name}]", lineno)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", lineno)
            current = sections.setdefault(name, {})
            continue
        if current is None:
            raise ConfigError("key outside any section", lineno)
        if "=" not in line:
            raise ConfigError(f"[{name}] expected 'key = value' or '[section]'", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"[{name}] empty key", lineno)
        if key in current:
            raise ConfigError(f"duplicate key '{key}'", lineno)
        current[key] = (value, lineno)
    return sections


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text into a validated :class:`ExperimentConfig`."""
    raw = _split_sections(text)
    for section in _SECTIONS.values():
        if section.required and section.name not in raw:
            raise ConfigError(f"missing section [{section.name}]")
    top: dict = {}
    for section in _SECTIONS.values():
        view = _SectionView(section.name, raw.get(section.name, {}))
        got = {} if section.cls else top
        scope = ChainMap(got, top)
        for key in section.keys:
            got[key.attr] = view.take(key, scope)
        kind_line = view.entries["kind"][1] if section.kinds else None
        for key in section.kind_keys(got.get("kind"), kind_line):
            got[key.attr] = view.take(key, scope)
        view.finish()
        if section.cls:
            top[section.name] = section.cls(**got)
    return ExperimentConfig(**top).validate()


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def render_config(cfg: ExperimentConfig) -> str:
    """Render a config to canonical text (fixed section and key order)."""
    blocks = []
    for section in _SECTIONS.values():
        owner = getattr(cfg, section.name) if section.cls else cfg
        lines = [f"[{section.name}]"]
        for key in (*section.keys, *section.kind_keys(owner.kind if section.kinds else None)):
            lines += key.render(getattr(owner, key.attr))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# presets: the three-node benchmark used throughout the tests and demos

def _benchmark_config(name, a_coef, a_exp, lam_coef, lam_exp, runs) -> ExperimentConfig:
    zero3 = (0.0, 0.0, 0.0)
    return ExperimentConfig(
        name=name,
        seed=42,
        horizon=100_000,
        runs=runs,
        record_every=100,
        nodes=3,
        dim=3,
        node_dims=(2, 3, 3),
        x0=(5.0, 4.0, 3.0),
        init=((12.0, 11.0, 6.0), (10.0, 16.0, 8.0), (14.0, 16.0, 13.0)),
        graph=GraphConfig(
            kind="alternating-uniform",
            even_low=0.0,
            even_high=1.0,
            odd_low=-0.5,
            odd_high=0.5,
        ),
        regression=RegressionConfig(
            kind="entrywise-uniform",
            base=(
                (zero3, (0.5, 0.0, 0.0)),
                ((0.0, -0.5, 0.0), zero3, (0.5, 0.0, 0.0)),
                ((0.0, 0.0, 0.5), zero3, zero3),
            ),
            coef=(
                (zero3, (1.0, 0.0, 0.0)),
                ((0.0, -1.0, 0.0), zero3, (1.0, 0.0, 0.0)),
                ((0.0, 0.0, 1.0), zero3, zero3),
            ),
            low=0.0,
            high=1.0,
        ),
        gains=GainConfig(
            a_coef=a_coef,
            a_exp=a_exp,
            b_coef=a_coef,
            b_exp=a_exp,
            lambda_coef=lam_coef,
            lambda_exp=lam_exp,
        ),
    )


# name: (a_coef = b_coef, a_exp = b_exp, lambda_coef, lambda_exp, runs, summary)
_PRESETS = {
    "setting-i": (1.0, 0.6, 1.0, 2.0, 10,
                  "slow gain decay (0.6) with fast-vanishing regularizer (exp 2)"),
    "setting-ii": (1.0, 0.6, 1.0, 3.0, 10,
                   "slow gain decay (0.6) with faster-vanishing regularizer (exp 3)"),
    "setting-iii": (1.0, 0.8, 1.0, 2.0, 10,
                    "fast gain decay (0.8) with fast-vanishing regularizer (exp 2)"),
    "setting-iv": (1.0, 0.8, 1.0, 3.0, 10,
                   "fast gain decay (0.8) with faster-vanishing regularizer (exp 3)"),
    "setting-v": (1.0, 0.6, 0.0, 0.0, 10,
                  "slow gain decay (0.6), no regularizer"),
    "setting-vi": (1.0, 0.8, 0.0, 0.0, 10,
                   "fast gain decay (0.8), no regularizer"),
    "regret": (0.1, 0.6, 0.2, 1.2, 50,
               "small gains 0.1 (k+1)^-0.6 for regret experiments, 50 runs"),
}

PRESET_SUMMARIES = {name: row[-1] for name, row in _PRESETS.items()}


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


def get_preset(name: str) -> ExperimentConfig:
    """Look up a named preset; accepts any case."""
    key = name.strip().lower()
    if key not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(_PRESETS)}")
    return _benchmark_config(key, *_PRESETS[key][:-1]).validate()


def with_overrides(cfg: ExperimentConfig, seed=None, runs=None, horizon=None, out=None) -> ExperimentConfig:
    """Apply the CLI-level overrides, leaving other fields untouched."""
    updates = {}
    if seed is not None:
        updates["seed"] = int(seed)
    if runs is not None:
        updates["runs"] = int(runs)
    if horizon is not None:
        updates["horizon"] = int(horizon)
    if out is not None:
        updates["out"] = str(out)
    return replace(cfg, **updates).validate() if updates else cfg
