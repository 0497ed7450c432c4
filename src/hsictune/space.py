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
knob on each shrunken domain.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field, replace

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
    "space_to_dict",
    "sample_configuration",
    "cdf_transform",
    "normalize_trials",
    "build_groups",
    "restrict",
]

KINDS = ("continuous", "integer", "categorical", "boolean")

_WEIGHT_TOL = 1e-12


class SpaceError(ValueError):
    """Malformed space document or invariant violation."""


@dataclass(frozen=True)
class ParameterSpec:
    """One hyperparameter and its sampling distribution.

    kind selects which fields are meaningful:
      continuous  -> lo, hi, scale ("linear" or "log")
      integer     -> lo, hi (inclusive bounds)
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
        if self.kind not in KINDS:
            raise SpaceError(f"{self.name}: unknown kind {self.kind!r}")
        if self.kind in ("continuous", "integer"):
            if self.lo is None or self.hi is None or not (self.lo < self.hi):
                raise SpaceError(f"{self.name}: requires lo < hi")
            if self.kind == "continuous" and self.scale not in ("linear", "log"):
                raise SpaceError(f"{self.name}: scale must be linear or log")
            if self.kind == "continuous" and self.scale == "log" and self.lo <= 0:
                raise SpaceError(f"{self.name}: log scale requires lo > 0")
            if self.kind == "integer" and (
                int(self.lo) != self.lo or int(self.hi) != self.hi
            ):
                raise SpaceError(f"{self.name}: integer bounds must be integral")
        elif self.kind == "categorical":
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
            if not (0.0 <= self.weight_true <= 1.0):
                raise SpaceError(f"{self.name}: weight_true must lie in [0, 1]")

    # Discrete parameters are treated uniformly as (levels, weights) pairs;
    # integers become equal-weight levels, booleans a two-level categorical.
    def level_weights(self):
        if self.kind == "integer":
            n = int(self.hi) - int(self.lo) + 1
            return (
                tuple(range(int(self.lo), int(self.hi) + 1)),
                tuple(1.0 / n for _ in range(n)),
            )
        if self.kind == "categorical":
            return self.levels, self.weights
        if self.kind == "boolean":
            return (False, True), (1.0 - self.weight_true, self.weight_true)
        raise SpaceError(f"{self.name}: not a discrete parameter")

    @property
    def is_discrete(self) -> bool:
        return self.kind in ("integer", "categorical", "boolean")

    @property
    def is_ordered(self) -> bool:
        return self.kind in ("integer", "continuous")

    def contains(self, value) -> bool:
        if self.kind == "continuous":
            return (
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and self.lo <= value <= self.hi
            )
        if self.kind == "integer":
            return (
                isinstance(value, (int, np.integer))
                and not isinstance(value, bool)
                and self.lo <= value <= self.hi
            )
        if self.kind == "categorical":
            return value in self.levels
        return isinstance(value, (bool, np.bool_))


def continuous_param(name, lo, hi, scale="linear") -> ParameterSpec:
    return ParameterSpec(name, "continuous", lo=float(lo), hi=float(hi), scale=scale)


def integer_param(name, lo, hi) -> ParameterSpec:
    return ParameterSpec(name, "integer", lo=int(lo), hi=int(hi))


def categorical_param(name, levels, weights=None) -> ParameterSpec:
    return ParameterSpec(
        name, "categorical", levels=tuple(levels), weights=tuple(weights or ())
    )


def boolean_param(name, weight_true=0.5) -> ParameterSpec:
    return ParameterSpec(name, "boolean", weight_true=float(weight_true))


@dataclass(frozen=True)
class ConditionalRule:
    """child is sampled/active only when parent's value is in activating_values."""

    child: str
    parent: str
    activating_values: tuple

    def __post_init__(self):
        if self.child == self.parent:
            raise SpaceError(f"rule for {self.child}: child equals parent")
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
        children = set()
        for r in self.rules:
            if r.child not in by_name:
                raise SpaceError(f"rule references unknown child {r.child!r}")
            if r.parent not in by_name:
                raise SpaceError(f"rule for {r.child}: unknown parent {r.parent!r}")
            if r.child in children:
                raise SpaceError(f"{r.child}: conditioned by two rules")
            children.add(r.child)
        for r in self.rules:
            if r.parent in children:
                raise SpaceError(
                    f"rule for {r.child}: two-level conditioning "
                    f"(parent {r.parent!r} is itself conditional)"
                )
            parent = by_name[r.parent]
            if not parent.is_discrete:
                raise SpaceError(f"rule for {r.child}: parent must be discrete")
            plevels, _ = parent.level_weights()
            for v in r.activating_values:
                if v not in plevels:
                    raise SpaceError(
                        f"rule for {r.child}: {v!r} not a level of {r.parent}"
                    )

    def param(self, name: str) -> ParameterSpec:
        for p in self.params:
            if p.name == name:
                return p
        raise SpaceError(f"unknown parameter {name!r}")

    def rule_for(self, name: str) -> ConditionalRule | None:
        for r in self.rules:
            if r.child == name:
                return r
        return None

    @property
    def main_params(self):
        children = {r.child for r in self.rules}
        return tuple(p for p in self.params if p.name not in children)

    def is_active(self, config: dict, name: str) -> bool:
        rule = self.rule_for(name)
        if rule is None:
            return True
        return config.get(rule.parent) in rule.activating_values

    def validate_config(self, config: dict) -> None:
        """Raise SpaceError unless config satisfies activation and domains."""
        for key in config:
            self.param(key)  # raises on unknown names
        for p in self.params:
            active = self.is_active(config, p.name)
            if active and p.name not in config:
                raise SpaceError(f"missing active parameter {p.name!r}")
            if not active and p.name in config:
                raise SpaceError(f"inactive parameter {p.name!r} present")
            if active and not p.contains(config[p.name]):
                raise SpaceError(f"{p.name}: value {config[p.name]!r} out of domain")


# -- parsing ---------------------------------------------------------------

_PARAM_KEYS = {"name", "kind", "lo", "hi", "scale", "levels", "weights", "weight_true"}
_RULE_KEYS = {"child", "parent", "when"}


def parse_space(text: str) -> SearchSpace:
    """Parse the JSON space document.

    Top level: {"params": [...], "rules": [...]}.  Unknown keys anywhere are
    rejected so typos fail loudly instead of silently changing a run.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpaceError(f"syntax error at line {e.lineno}, column {e.colno}: {e.msg}")
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
        unknown = set(entry) - _PARAM_KEYS
        if unknown:
            raise SpaceError(
                f"param {entry.get('name', '?')}: unknown keys {sorted(unknown)}"
            )
        kind = entry.get("kind")
        name = entry.get("name")
        if kind == "continuous":
            params.append(
                continuous_param(
                    name, entry["lo"], entry["hi"], entry.get("scale", "linear")
                )
            )
        elif kind == "integer":
            params.append(integer_param(name, entry["lo"], entry["hi"]))
        elif kind == "categorical":
            params.append(
                categorical_param(name, entry["levels"], entry.get("weights"))
            )
        elif kind == "boolean":
            params.append(boolean_param(name, entry.get("weight_true", 0.5)))
        else:
            raise SpaceError(f"param {name!r}: unknown kind {kind!r}")
    rules = []
    for entry in doc.get("rules", []):
        if not isinstance(entry, dict):
            raise SpaceError("each rule entry must be an object")
        unknown = set(entry) - _RULE_KEYS
        if unknown:
            raise SpaceError(
                f"rule {entry.get('child', '?')}: unknown keys {sorted(unknown)}"
            )
        rules.append(
            ConditionalRule(entry["child"], entry["parent"], tuple(entry["when"]))
        )
    return SearchSpace(tuple(params), tuple(rules))


def space_to_dict(space: SearchSpace) -> dict:
    """Inverse of parse_space, suitable for manifests and hashing."""
    params = []
    for p in space.params:
        d = {"name": p.name, "kind": p.kind}
        if p.kind in ("continuous", "integer"):
            d["lo"] = p.lo
            d["hi"] = p.hi
        if p.kind == "continuous":
            d["scale"] = p.scale
        if p.kind == "categorical":
            d["levels"] = list(p.levels)
            d["weights"] = list(p.weights)
        if p.kind == "boolean":
            d["weight_true"] = p.weight_true
        params.append(d)
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
    levels, weights = spec.level_weights()
    idx = int(rng.choice(len(levels), p=np.asarray(weights)))
    value = levels[idx]
    if spec.kind == "integer":
        return int(value)
    return value


def _resolve_children(space: SearchSpace, config: dict, rng) -> dict:
    """Settle child activation in place: drop each child its parent does
    not activate, draw each missing active child from rng.

    Children are visited in declaration order.  rng may be None when no
    active child can be missing.
    """
    children = {r.child: r for r in space.rules}
    for p in space.params:
        rule = children.get(p.name)
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


def _column_ranks(spec: ParameterSpec, values, draws) -> np.ndarray:
    """Ranks of in-domain values: the CDF formula, clamped below 1, for a
    continuous parameter (draws unused); band_lo + band_w * draw for a
    discrete one, with one uniform draw in [0, 1) per value."""
    if spec.kind == "continuous":
        f, _ = _scale(spec)
        r = (np.array([f(v) for v in values], dtype=float) - f(spec.lo)) / (
            f(spec.hi) - f(spec.lo))
        return np.minimum(r, np.nextafter(1.0, 0.0))
    levels, weights = spec.level_weights()
    # float(np.sum(...)) per level, as uniform(lo, lo + w) saw it; a cumsum
    # rounds differently from numpy's pairwise sum for 9 or more levels
    band_lo = np.array([float(np.sum(weights[:j])) for j in range(len(levels))])
    band_w = (band_lo + np.asarray(weights)) - band_lo
    if spec.kind == "integer":
        j = np.asarray(values, dtype=np.int64) - int(spec.lo)
    else:
        index = {v: j for j, v in enumerate(levels)}
        j = np.array([index[v] for v in values], dtype=np.intp)
    return band_lo[j] + band_w[j] * np.asarray(draws, dtype=float)


def cdf_transform(spec: ParameterSpec, value, rng: np.random.Generator) -> float:
    """Map one value onto [0, 1) through the parameter's sampling CDF; a
    discrete value takes its band draw from rng."""
    if not spec.contains(value):
        raise SpaceError(f"{spec.name}: value {value!r} out of domain")
    draws = [rng.random()] if spec.is_discrete else None
    return float(_column_ranks(spec, [value], draws)[0])


def _substream(seed: int, name: str, index: int) -> np.random.Generator:
    # Keyed by (seed, parameter, trial) so column randomizations are
    # independent and reproducible regardless of evaluation order.
    key = (int(seed) & 0xFFFFFFFF, zlib.crc32(name.encode()), int(index))
    return np.random.default_rng(np.random.SeedSequence(key))


@dataclass
class NormalizedMatrix:
    """Per-parameter unit-interval ranks with activity masks."""

    names: tuple
    columns: dict            # name -> float64 array, nan where inactive
    active: dict             # name -> bool array
    draws: dict              # name -> band draw, nan where inactive or continuous

    def __len__(self):
        return 0 if not self.names else len(self.columns[self.names[0]])

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def mask(self, name: str) -> np.ndarray:
        return self.active[name]

    def rows_where_active(self, names) -> np.ndarray:
        """Boolean row mask: every named parameter active."""
        out = np.ones(len(self), dtype=bool)
        for n in names:
            out &= self.active[n]
        return out

    def rerank(self, spec: ParameterSpec, rows, values) -> np.ndarray:
        """Ranks of values at rows under spec, reusing the rows' band draws."""
        return _column_ranks(spec, values, self.draws[spec.name][rows])


def normalize_trials(space: SearchSpace, trials, seed: int) -> NormalizedMatrix:
    """Build the rank matrix for a list of trials.

    Inactive entries are nan and flagged in the mask; estimators must never
    read them.  Each active discrete cell draws once from its keyed stream,
    so the result is bit-reproducible.
    """
    configs = [t.config if hasattr(t, "config") else t for t in trials]
    for config in configs:
        space.validate_config(config)
    n = len(configs)
    names = tuple(p.name for p in space.params)
    columns, active, draws = {}, {}, {}
    for p in space.params:
        active[p.name] = np.array([p.name in c for c in configs], dtype=bool)
        rows = np.flatnonzero(active[p.name])
        values = [configs[i][p.name] for i in rows]
        draws[p.name] = np.full(n, np.nan)
        if p.is_discrete:
            draws[p.name][rows] = [_substream(seed, p.name, i).random() for i in rows]
        columns[p.name] = np.full(n, np.nan)
        columns[p.name][rows] = _column_ranks(p, values, draws[p.name][rows])
    return NormalizedMatrix(names, columns, active, draws)


# -- conditional groups ------------------------------------------------------

MAIN_GROUP = "main"


@dataclass(frozen=True)
class GroupSpec:
    """A set of parameters that are jointly active on a subpopulation.

    The main group holds the unconditioned parameters and matches every
    trial.  A conditional group is keyed by (parent, activating value set);
    it contains the main parameters plus every child whose activation is
    implied by that key, and matches trials where the parent took one of the
    activating values.
    """

    id: str
    members: tuple
    parent: str | None = None
    activating_values: tuple = ()

    def matches(self, config: dict) -> bool:
        if self.parent is None:
            return True
        return config.get(self.parent) in self.activating_values


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
        members = main + tuple(sorted(implied))
        ordered = tuple(
            sorted(values, key=lambda v: space.param(parent).level_weights()[0].index(v))
        )
        groups.append(GroupSpec(gid, members, parent, ordered))
    return groups


# -- domain restriction ------------------------------------------------------


def restrict(space: SearchSpace, param: str, new_domain) -> SearchSpace:
    """Shrink one parameter's domain; categorical weights renormalize.

    new_domain is (lo, hi) for ordered kinds and an iterable of retained
    levels for categorical/boolean kinds.
    """
    spec = space.param(param)
    if spec.kind in ("continuous", "integer"):
        lo, hi = new_domain
        if lo < spec.lo or hi > spec.hi or not (lo < hi):
            raise SpaceError(f"{param}: restriction [{lo}, {hi}] not a sub-range")
        if spec.kind == "integer":
            new_spec = replace(spec, lo=int(lo), hi=int(hi))
        else:
            new_spec = replace(spec, lo=float(lo), hi=float(hi))
    elif spec.kind == "categorical":
        kept = tuple(new_domain)
        if not kept or any(v not in spec.levels for v in kept):
            raise SpaceError(f"{param}: restriction is empty or out of range")
        kept = tuple(v for v in spec.levels if v in kept)
        w = [spec.weights[spec.levels.index(v)] for v in kept]
        total = sum(w)
        if total <= 0:
            raise SpaceError(f"{param}: restriction has zero total weight")
        if len(kept) == 1:
            raise SpaceError(f"{param}: restriction must keep at least two levels")
        new_spec = replace(
            spec, levels=kept, weights=tuple(x / total for x in w)
        )
    else:
        kept = {bool(v) for v in new_domain}
        if not kept:
            raise SpaceError(f"{param}: empty restriction")
        if kept == {True, False}:
            new_spec = spec
        else:
            new_spec = replace(spec, weight_true=1.0 if kept == {True} else 0.0)
    params = tuple(new_spec if p.name == param else p for p in space.params)
    return SearchSpace(params, space.rules)
