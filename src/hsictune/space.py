"""Mixed hyperparameter spaces: declaration, sampling, rank normalization, groups.

A search space is an ordered list of parameter specs plus one-level
conditional rules ("child is active only when parent takes one of these
values").  Every parameter, whatever its native domain, can be pushed
through its sampling CDF onto [0, 1); that shared scale is what makes
dependence scores comparable across parameters of different kinds.
Continuous ranks draw nothing.  A discrete value gets a uniform inside its
level's probability band, so the rank is marginally uniform, drawn once per
active cell from a stream keyed by (seed, parameter, trial).  The rank
matrix keeps those draws, and interval reduction reuses them to re-rank a
knob on each shrunken domain.  An inactive cell's rank is NaN, and that NaN
is the matrix's only inactive mark.

Owners: _KIND_KEYS holds each kind's document keys for space_from_dict and
its inverse space_to_dict; ParameterSpec and ConditionalRule validate, then
coerce, their fields; _seed_sequence keys every seeded stream of the package;
_continuous_cdf and its inverse _continuous_quantile map a continuous knob
onto [0, 1] and back, for the ranks here and for the GP's codec; _levels
and _level_index give a discrete knob's levels and a value's level index.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SpaceError",
    "ParameterSpec",
    "ConditionalRule",
    "SearchSpace",
    "GroupSpec",
    "NormalizedMatrix",
    "continuous_param",
    "integer_param",
    "categorical_param",
    "boolean_param",
    "parse_space",
    "space_from_dict",
    "space_to_dict",
    "sample_configuration",
    "cdf_transform",
    "normalize_trials",
    "build_groups",
]

# The document keys of each kind besides "name" and "kind", in document order.
_KIND_KEYS = {
    "continuous": ("lo", "hi", "scale"),
    "integer": ("lo", "hi"),
    "categorical": ("levels", "weights"),
    "boolean": ("weight_true",),
}

_WEIGHT_TOL = 1e-12
_FLOAT_MAX = float(np.finfo(float).max)
_INT64 = np.iinfo(np.int64)


class SpaceError(ValueError):
    """Malformed space document or invariant violation."""


def _is_real(x) -> bool:
    """A finite real number that is not a boolean."""
    real = isinstance(x, (int, float, np.integer, np.floating))
    # an int beyond the float range is not finite
    return real and not isinstance(x, (bool, np.bool_)) and abs(x) <= _FLOAT_MAX


def _is_array(x, item) -> bool:
    """A list or tuple whose every element passes item."""
    return isinstance(x, (list, tuple)) and all(item(v) for v in x)


def _is_scalar(x) -> bool:
    return x is None or isinstance(x, (str, int, float))


@dataclass(frozen=True)
class ParameterSpec:
    """One hyperparameter and its sampling distribution.

    kind selects which fields are meaningful (_KIND_KEYS):
      continuous  -> lo, hi, scale ("linear" or "log")
      integer     -> lo, hi (inclusive bounds, coerced to int)
      categorical -> levels, weights
      boolean     -> weight_true
    """

    name: str
    kind: str
    lo: float | None = None
    hi: float | None = None
    scale: str = "linear"
    levels: tuple = ()
    weights: tuple = ()
    weight_true: float = 0.5

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise SpaceError("parameter name must be a nonempty string")
        if self.kind not in _KIND_KEYS:
            raise SpaceError(f"{self.name}: unknown kind {self.kind!r}")
        if self.kind in ("continuous", "integer"):
            if not (_is_real(self.lo) and _is_real(self.hi)):
                raise SpaceError(f"{self.name}: lo and hi must be finite numbers")
            if not (self.lo < self.hi) or not math.isfinite(float(self.hi) - float(self.lo)):
                raise SpaceError(f"{self.name}: requires lo < hi with a finite range")
            if self.kind == "continuous" and self.scale not in ("linear", "log"):
                raise SpaceError(f"{self.name}: scale must be linear or log")
            if self.kind == "continuous" and self.scale == "log" and self.lo <= 0:
                raise SpaceError(f"{self.name}: log scale requires lo > 0")
            if self.kind == "integer":
                if int(self.lo) != self.lo or int(self.hi) != self.hi:
                    raise SpaceError(f"{self.name}: integer bounds must be integral")
                # a value's level index and the level count are int64
                if not (_INT64.min <= self.lo and self.hi <= _INT64.max
                        and int(self.hi) - int(self.lo) < _INT64.max):
                    raise SpaceError(
                        f"{self.name}: integer bounds and level count must fit int64")
            cast = int if self.kind == "integer" else float
            object.__setattr__(self, "lo", cast(self.lo))
            object.__setattr__(self, "hi", cast(self.hi))
        elif self.kind == "categorical":
            if not _is_array(self.levels, _is_scalar):
                raise SpaceError(f"{self.name}: levels must be an array of scalars")
            if self.weights is not None and not _is_array(self.weights, _is_real):
                raise SpaceError(f"{self.name}: weights must be an array of numbers")
            if len(self.levels) < 2:
                raise SpaceError(f"{self.name}: needs at least two levels")
            if len(set(self.levels)) != len(self.levels):
                raise SpaceError(f"{self.name}: levels must be distinct")
            w = self.weights or tuple(1.0 / len(self.levels) for _ in self.levels)
            if len(w) != len(self.levels):
                raise SpaceError(f"{self.name}: weights/levels length mismatch")
            if any(x < 0 for x in w):
                raise SpaceError(f"{self.name}: weights must be nonnegative")
            if abs(sum(w) - 1.0) > _WEIGHT_TOL:
                raise SpaceError(f"{self.name}: weights must sum to 1 (got {sum(w)})")
            object.__setattr__(self, "weights", tuple(float(x) for x in w))
            object.__setattr__(self, "levels", tuple(self.levels))
        elif self.kind == "boolean":
            if not (_is_real(self.weight_true) and 0.0 <= self.weight_true <= 1.0):
                raise SpaceError(f"{self.name}: weight_true must lie in [0, 1]")
            object.__setattr__(self, "weight_true", float(self.weight_true))

    def level_weights(self):
        """(levels, weights); integers have equal weights, booleans two levels."""
        return _levels(self), self._level_table[0]

    @cached_property
    def _level_table(self):
        """(weights, cdf), built once; cdf is what rng.choice(len(weights), p=weights) searches."""
        n = len(_levels(self))      # raises unless discrete
        if self.kind == "integer":
            weights = np.full(n, 1.0 / n)
        elif self.kind == "categorical":
            weights = self.weights
        else:
            weights = (1.0 - self.weight_true, self.weight_true)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        cdf.flags.writeable = False
        return weights, cdf

    @property
    def is_discrete(self) -> bool:
        return self.kind in ("integer", "categorical", "boolean")

    @property
    def is_ordered(self) -> bool:
        return self.kind in ("integer", "continuous")

    def contains(self, value) -> bool:
        if self.kind == "continuous":
            return _is_real(value) and self.lo <= value <= self.hi
        if self.kind == "integer":
            return (
                isinstance(value, (int, np.integer))
                and not isinstance(value, bool)
                and self.lo <= value <= self.hi
            )
        if self.kind == "categorical":
            return value in self.levels
        return isinstance(value, (bool, np.bool_))


def _levels(spec: ParameterSpec):
    """A discrete parameter's levels; an integer's is the range of its bounds."""
    if spec.kind == "integer":
        return range(spec.lo, spec.hi + 1)
    if spec.kind == "categorical":
        return spec.levels
    if spec.kind == "boolean":
        return (False, True)
    raise SpaceError(f"{spec.name}: not a discrete parameter")


def _level_index(spec: ParameterSpec, values) -> np.ndarray:
    if spec.kind == "integer":
        return np.asarray(values, dtype=np.int64) - spec.lo
    index = {v: j for j, v in enumerate(_levels(spec))}
    return np.array([index[v] for v in values], dtype=np.intp)


def continuous_param(name, lo, hi, scale="linear") -> ParameterSpec:
    return ParameterSpec(name, "continuous", lo=lo, hi=hi, scale=scale)


def integer_param(name, lo, hi) -> ParameterSpec:
    return ParameterSpec(name, "integer", lo=lo, hi=hi)


def categorical_param(name, levels, weights=None) -> ParameterSpec:
    return ParameterSpec(name, "categorical", levels=levels, weights=weights)


def boolean_param(name, weight_true=0.5) -> ParameterSpec:
    return ParameterSpec(name, "boolean", weight_true=weight_true)


@dataclass(frozen=True)
class ConditionalRule:
    """child is sampled/active only when parent's value is in activating_values."""

    child: str
    parent: str
    activating_values: tuple

    def __post_init__(self):
        if not (isinstance(self.child, str) and isinstance(self.parent, str)):
            raise SpaceError("each rule needs a child and a parent parameter name")
        if self.child == self.parent:
            raise SpaceError(f"rule for {self.child}: child equals parent")
        if not _is_array(self.activating_values, _is_scalar):
            raise SpaceError(f"rule for {self.child}: when must be an array of scalars")
        if not self.activating_values:
            raise SpaceError(f"rule for {self.child}: empty activating set")
        object.__setattr__(self, "activating_values", tuple(self.activating_values))


@dataclass(frozen=True)
class SearchSpace:
    """Ordered parameter list plus depth-one conditional rules."""

    params: tuple
    rules: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "rules", tuple(self.rules))
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise SpaceError("duplicate parameter names")
        by_name = {p.name: p for p in self.params}
        rule_of = {}
        for r in self.rules:
            if r.child not in by_name:
                raise SpaceError(f"rule references unknown child {r.child!r}")
            if r.parent not in by_name:
                raise SpaceError(f"rule for {r.child}: unknown parent {r.parent!r}")
            if r.child in rule_of:
                raise SpaceError(f"{r.child}: conditioned by two rules")
            rule_of[r.child] = r
        for r in self.rules:
            if r.parent in rule_of:
                raise SpaceError(
                    f"rule for {r.child}: two-level conditioning "
                    f"(parent {r.parent!r} is itself conditional)"
                )
            parent = by_name[r.parent]
            if not parent.is_discrete:
                raise SpaceError(f"rule for {r.child}: parent must be discrete")
            for v in r.activating_values:
                if v not in _levels(parent):
                    raise SpaceError(
                        f"rule for {r.child}: {v!r} not a level of {r.parent}"
                    )
        # lookups by name; not fields, so equality and hashing ignore them
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_rule_of", rule_of)

    def param(self, name: str) -> ParameterSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise SpaceError(f"unknown parameter {name!r}") from None

    def rule_for(self, name: str) -> ConditionalRule | None:
        return self._rule_of.get(name)

    @property
    def main_params(self):
        return tuple(p for p in self.params if p.name not in self._rule_of)

    def validate_config(self, config: dict) -> None:
        """Raise SpaceError unless config satisfies activation and domains."""
        for key in config:
            self.param(key)  # raises on unknown names
        for p in self.params:
            rule = self._rule_of.get(p.name)
            active = rule is None or config.get(rule.parent) in rule.activating_values
            if active and p.name not in config:
                raise SpaceError(f"missing active parameter {p.name!r}")
            if not active and p.name in config:
                raise SpaceError(f"inactive parameter {p.name!r} present")
            if active and not p.contains(config[p.name]):
                raise SpaceError(f"{p.name}: value {config[p.name]!r} out of domain")


# -- the space document --------------------------------------------------

_RULE_KEYS = {"child", "parent", "when"}


def parse_space(text: str) -> SearchSpace:
    """Parse the JSON space document (see space_from_dict)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpaceError(f"syntax error at line {e.lineno}, column {e.colno}: {e.msg}")
    return space_from_dict(doc)


def space_from_dict(doc) -> SearchSpace:
    """The space of a decoded space document; inverse of space_to_dict.

    Top level: {"params": [...], "rules": [...]}.  A param takes "name",
    "kind" and its kind's _KIND_KEYS.  Unknown keys anywhere are rejected so
    typos fail loudly instead of silently changing a run.
    """
    if not isinstance(doc, dict):
        raise SpaceError("space document must be a JSON object")
    unknown = set(doc) - {"params", "rules"}
    if unknown:
        raise SpaceError(f"unknown top-level keys: {sorted(unknown)}")
    raw_params = doc.get("params")
    if not isinstance(raw_params, list) or not raw_params:
        raise SpaceError('"params" must be a nonempty array')
    params = []
    for entry in raw_params:
        if not isinstance(entry, dict):
            raise SpaceError("each param entry must be an object")
        name, kind = entry.get("name"), entry.get("kind")
        if kind not in _KIND_KEYS:
            raise SpaceError(f"param {name!r}: unknown kind {kind!r}")
        unknown = set(entry) - {"name", "kind", *_KIND_KEYS[kind]}
        if unknown:
            raise SpaceError(f"param {name!r}: unknown keys {sorted(unknown)}")
        fields = {k: entry[k] for k in _KIND_KEYS[kind] if k in entry}
        params.append(ParameterSpec(name, kind, **fields))
    raw_rules = doc.get("rules", [])
    if not isinstance(raw_rules, list):
        raise SpaceError('"rules" must be an array')
    rules = []
    for entry in raw_rules:
        if not isinstance(entry, dict):
            raise SpaceError("each rule entry must be an object")
        unknown = set(entry) - _RULE_KEYS
        if unknown:
            raise SpaceError(
                f"rule {entry.get('child', '?')}: unknown keys {sorted(unknown)}"
            )
        rules.append(ConditionalRule(entry.get("child"), entry.get("parent"),
                                     entry.get("when")))
    return SearchSpace(tuple(params), tuple(rules))


def space_to_dict(space: SearchSpace) -> dict:
    """The space document of a space, suitable for manifests and hashing."""
    def doc_value(v):
        return list(v) if isinstance(v, tuple) else v

    params = [
        {"name": p.name, "kind": p.kind,
         **{k: doc_value(getattr(p, k)) for k in _KIND_KEYS[p.kind]}}
        for p in space.params
    ]
    rules = [
        {"child": r.child, "parent": r.parent, "when": list(r.activating_values)}
        for r in space.rules
    ]
    return {"params": params, "rules": rules}


# -- sampling --------------------------------------------------------------


def _sample_value(spec: ParameterSpec, rng: np.random.Generator):
    if spec.kind == "continuous":
        if spec.scale == "log":
            return float(np.exp(rng.uniform(np.log(spec.lo), np.log(spec.hi))))
        return float(rng.uniform(spec.lo, spec.hi))
    # rng.choice(len(levels), p=weights) in Generator.choice's own arithmetic
    _, cdf = spec._level_table
    return _levels(spec)[int(cdf.searchsorted(rng.random(), side="right"))]


def _resolve_children(space: SearchSpace, config: dict, rng) -> dict:
    """Settle child activation in place: drop each child its parent does
    not activate, draw each missing active child from rng.

    Children are visited in declaration order.  rng may be None when no
    active child can be missing.
    """
    for p in space.params:
        rule = space.rule_for(p.name)
        if rule is None:
            continue
        if config.get(rule.parent) not in rule.activating_values:
            config.pop(p.name, None)
        elif p.name not in config:
            config[p.name] = _sample_value(p, rng)
    return config


def sample_configuration(space: SearchSpace, rng: np.random.Generator) -> dict:
    """Draw one configuration; children are drawn only when activated.

    Main parameters, then children, are visited in declaration order, so
    the draw is reproducible for a given generator state.
    """
    config = {p.name: _sample_value(p, rng) for p in space.main_params}
    return _resolve_children(space, config, rng)


# -- CDF-rank normalization --------------------------------------------------


def _scale(spec: ParameterSpec):
    """(f, f_inv): a continuous parameter samples uniformly in f(value)."""
    # math.log, not np.log: numpy's SIMD log can differ from it by one ulp
    return (math.log, math.exp) if spec.scale == "log" else (float, float)


def _continuous_cdf(spec: ParameterSpec, values) -> np.ndarray:
    """The sampling CDF of a continuous knob, unclamped, f called per value."""
    f, _ = _scale(spec)
    return (np.array([f(v) for v in values], dtype=float) - f(spec.lo)) / (
        f(spec.hi) - f(spec.lo))


def _continuous_quantile(spec: ParameterSpec, u) -> np.ndarray:
    """Inverse of _continuous_cdf: u clipped to [0, 1], f_inv per value, [lo, hi] clamp."""
    f, f_inv = _scale(spec)
    t = f(spec.lo) + np.clip(u, 0.0, 1.0) * (f(spec.hi) - f(spec.lo))
    v = np.array([f_inv(x) for x in t], dtype=float)
    v = np.where(spec.lo > v, spec.lo, v)       # max(v, lo), then min(., hi)
    return np.where(spec.hi < v, spec.hi, v)


def _column_ranks(spec: ParameterSpec, values, draws) -> np.ndarray:
    """Ranks of in-domain values: the CDF, clamped below 1, for a
    continuous parameter (draws unused); band_lo + band_w * draw for a
    discrete one, with one uniform draw in [0, 1) per value."""
    if spec.kind == "continuous":
        return np.minimum(_continuous_cdf(spec, values), np.nextafter(1.0, 0.0))
    weights = np.asarray(spec.level_weights()[1])
    seen, row_of = np.unique(_level_index(spec, values), return_inverse=True)
    # float(np.sum(...)) per level present, as uniform(lo, lo + w) saw it; a
    # cumsum rounds differently from numpy's pairwise sum for 9 or more levels
    band_lo = np.array([float(np.sum(weights[:k])) for k in seen], dtype=float)
    band_w = (band_lo + weights[seen]) - band_lo
    return band_lo[row_of] + band_w[row_of] * np.asarray(draws, dtype=float)


def cdf_transform(spec: ParameterSpec, value, rng: np.random.Generator) -> float:
    """Map one value onto [0, 1) through the parameter's sampling CDF; a
    discrete value takes its band draw from rng."""
    if not spec.contains(value):
        raise SpaceError(f"{spec.name}: value {value!r} out of domain")
    draws = [rng.random()] if spec.is_discrete else None
    return float(_column_ranks(spec, [value], draws)[0])


def _seed_sequence(*key) -> np.random.SeedSequence:
    """The seed sequence of the stream keyed by the ints key; each part is
    taken modulo 2**32, so seed -1 names the streams of seed 2**32 - 1."""
    return np.random.SeedSequence(tuple(int(k) % 2**32 for k in key))


def _substream(seed: int, name: str, index: int) -> np.random.Generator:
    # Keyed by (seed, parameter, trial) so column randomizations are
    # independent and reproducible regardless of evaluation order.
    return np.random.default_rng(_seed_sequence(seed, zlib.crc32(name.encode()), index))


@dataclass
class NormalizedMatrix:
    """Per-parameter unit-interval ranks; a NaN rank marks an inactive cell.

    An active cell's value passed validate_config, so its rank is finite.
    """

    names: tuple
    columns: dict            # name -> float64 array, nan where inactive
    draws: dict              # name -> band draw, nan where inactive or continuous

    def __len__(self):
        return 0 if not self.names else len(self.columns[self.names[0]])

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def mask(self, name: str) -> np.ndarray:
        return ~np.isnan(self.columns[name])

    def rows_where_active(self, names) -> np.ndarray:
        """Boolean row mask: every named parameter active."""
        out = np.ones(len(self), dtype=bool)
        for n in names:
            out &= self.mask(n)
        return out

    def rerank(self, spec: ParameterSpec, rows, values) -> np.ndarray:
        """Ranks of values at rows under spec, reusing the rows' band draws."""
        return _column_ranks(spec, values, self.draws[spec.name][rows])


def normalize_trials(space: SearchSpace, trials, seed: int) -> NormalizedMatrix:
    """Build the rank matrix for a list of trials.

    An inactive cell's rank is nan, the only inactive mark; estimators must
    never read it.  Each active discrete cell draws once from its keyed
    stream, so the result is bit-reproducible.
    """
    configs = [t.config if hasattr(t, "config") else t for t in trials]
    for config in configs:
        space.validate_config(config)
    n = len(configs)
    names = tuple(p.name for p in space.params)
    columns, draws = {}, {}
    for p in space.params:
        rows = np.flatnonzero([p.name in c for c in configs])
        values = [configs[i][p.name] for i in rows]
        draws[p.name] = np.full(n, np.nan)
        if p.is_discrete:
            draws[p.name][rows] = [_substream(seed, p.name, i).random() for i in rows]
        columns[p.name] = np.full(n, np.nan)
        columns[p.name][rows] = _column_ranks(p, values, draws[p.name][rows])
    return NormalizedMatrix(names, columns, draws)


# -- conditional groups ------------------------------------------------------

MAIN_GROUP = "main"


@dataclass(frozen=True)
class GroupSpec:
    """A set of parameters that are jointly active on a subpopulation.

    The main group holds the unconditioned parameters.  A conditional group
    is keyed by (parent, activating value set); it contains the main
    parameters plus every child whose activation is implied by that key.
    """

    id: str
    members: tuple


def build_groups(space: SearchSpace):
    """Main group plus one group per distinct (parent, activating set) key.

    Children conditioned on the same parent with identical activating sets
    land in one joint group; children of different parents never form a
    joint group because their joint subpopulation shrinks too fast for the
    estimators to stay reliable.
    """
    main = tuple(p.name for p in space.main_params)
    groups = [GroupSpec(MAIN_GROUP, main)]
    keys = []
    for r in sorted(space.rules, key=lambda r: r.child):
        key = (r.parent, frozenset(r.activating_values))
        if key not in keys:
            keys.append(key)
    for parent, values in keys:
        exact = [
            r.child
            for r in space.rules
            if r.parent == parent and frozenset(r.activating_values) == values
        ]
        implied = [
            r.child
            for r in space.rules
            if r.parent == parent and values <= frozenset(r.activating_values)
        ]
        gid = "+".join(sorted(exact))
        groups.append(GroupSpec(gid, main + tuple(sorted(implied))))
    return groups
