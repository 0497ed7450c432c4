"""Outside-in layer tracing for the benchmark's traced session.

The tracer wraps the public functions of each hsictune module, and the
objectives' evaluate methods, wherever the package refers to them: the
defining module and every module that imported the name (so
hsictune.analysis.hsic_goal is wrapped as well as hsictune.hsic.hsic_goal).
Each call of a wrapped function records a span (name, start, end, parent
span) in memory; the session writes them out when it ends.  Functions
called once per trial or per cell are only counted, which keeps the
tracer's own cost small next to the work it measures.

Calls made inside pool workers are not recorded: a worker is a forked copy
of the session, and the tracer switches itself off in the child.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
import warnings

# Modules whose public functions become spans.  The cli layer is traced by
# the session itself, one span per command.
LAYERS = ("harness", "space", "hsic", "analysis", "gp", "twostep", "objectives", "reports")
COMMAND_SPANS = ("cli.search", "cli.analyze", "cli.reduce", "cli.optimize")
COUNT_ONLY = frozenset({
    "harness.trial_seed", "harness.space_hash",
    "space.cdf_transform", "space.sample_configuration", "space.parse_space",
    "space.space_to_dict", "space.continuous_param", "space.integer_param",
    "space.categorical_param", "space.boolean_param",
    "gp.encode", "gp.decode", "gp.encoding_width", "gp.gp_predict", "gp.ei_value",
})
# Estimator calls replayed with n_boot=0 to measure the bootstrap's share.
REPLAYED = ("hsic.hsic_goal", "hsic.hsic_pair")
# Pooled count n+m at or below which hsic uses its dense O(n^2) estimator.
DENSE_LIMIT = 2000


class Tracer:
    def __init__(self):
        self.names = []                 # span name table
        self.spans = []                 # [name id, start, end, parent index]
        self.counts = {}                # count-only name -> calls
        self.pooled = {}                # estimator span index -> pooled count n+m
        self.offsets = {}               # interval_reduction span index -> offsets kept
        self.replays = []               # (span index, function, args, kwargs)
        self._stack = []
        self._on = [True]
        for name in COMMAND_SPANS:
            self._name_id(name)

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, after=None):
        """fn, recording a span per call; after(index, args, kwargs, result)
        runs once the span has closed."""
        nid = self._name_id(name)
        spans, stack, on, clock = self.spans, self._stack, self._on, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(index, args, kwargs, result)
            return result

        return traced

    def count(self, name: str, fn):
        counts, on = self.counts, self._on
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if on[0]:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def call(self, name: str, fn, *args):
        return self.wrap(name, fn)(*args)

    def _after(self, name: str, fn):
        if name in REPLAYED:
            def note(index, args, kwargs, result):
                self.pooled[index] = result.n_total + result.n_goal
                self.replays.append((index, fn, args, kwargs))
            return note
        if name == "analysis.interval_reduction":
            def note(index, args, kwargs, result):
                self.offsets[index] = len(result.offsets)
            return note
        return None

    def install(self):
        """Wrap every public function of LAYERS at each of its import sites."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "hsictune" or k.startswith("hsictune."))]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"hsictune.{layer}"]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    wrappers[fn] = self.count(name, fn)
                else:
                    wrappers[fn] = self.wrap(name, fn, self._after(name, fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
            for cls in vars(mod).values():
                if (mod.__name__.startswith("hsictune.objectives.") and inspect.isclass(cls)
                        and cls.__module__ == mod.__name__ and "evaluate" in vars(cls)):
                    cls.evaluate = self.wrap("objectives.evaluate", cls.evaluate)
        os.register_at_fork(after_in_child=self.stop)

    def stop(self):
        """Record nothing more; the wrappers stay in place."""
        self._on[0] = False

    def dump(self) -> dict:
        """Stop recording; then spans, counts, pooled counts and offsets,
        with each estimator call's time again at n_boot=0."""
        self.stop()
        replay = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for index, fn, args, kwargs in self.replays:
                t0 = time.perf_counter()
                fn(*args, **dict(kwargs, n_boot=0))
                replay[index] = time.perf_counter() - t0
        return {"names": self.names, "spans": self.spans, "counts": self.counts,
                "pooled": self.pooled, "offsets": self.offsets, "replay": replay}


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(dump: dict, trial_times: list, jobs: int) -> dict:
    """Per-layer metrics of one traced session.

    <module>.<function>.calls/s/self_s for every wrapped name (s counts only
    the outermost span of a name, self_s subtracts the time child spans
    cover), plus the derived figures the benchmark reports per layer.
    """
    names, spans = dump["names"], dump["spans"]
    # JSON turned the span indices into strings
    pooled = {int(k): v for k, v in dump["pooled"].items()}
    replay = {int(k): v for k, v in dump["replay"].items()}
    n = len(spans)
    duration = [s[2] - s[1] for s in spans]
    child_time = [0.0] * n
    command = [None] * n                 # the cli span each span runs under
    for i, (nid, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += duration[i]
            command[i] = command[parent]
        elif names[nid].startswith("cli."):
            command[i] = names[nid][len("cli."):]

    def nested_in_same_name(i):
        nid, p = spans[i][0], spans[i][3]
        while p >= 0:
            if spans[p][0] == nid:
                return True
            p = spans[p][3]
        return False

    m = {}
    for name in names:
        m[f"{name}.calls"] = 0
        m[f"{name}.s"] = 0.0
        m[f"{name}.self_s"] = 0.0
    for name, calls in dump["counts"].items():
        m[f"{name}.calls"] = calls
    for i, (nid, _, _, _) in enumerate(spans):
        name = names[nid]
        m[f"{name}.calls"] += 1
        m[f"{name}.self_s"] += duration[i] - child_time[i]
        if not nested_in_same_name(i):
            m[f"{name}.s"] += duration[i]

    for side in ("small_pooled", "large_pooled"):
        m[f"hsic.{side}.calls"] = 0
        m[f"hsic.{side}.s"] = 0.0
    full = replayed = 0.0
    for i, count in pooled.items():
        side = "small_pooled" if count <= DENSE_LIMIT else "large_pooled"
        m[f"hsic.{side}.calls"] += 1
        m[f"hsic.{side}.s"] += duration[i]
        full += duration[i]
        replayed += replay[i]
    m["hsic.bootstrap_share"] = 1.0 - replayed / full if full > 0 else 0.0
    m["analysis.interval_reduction.offsets"] = sum(dump["offsets"].values())

    for cmd in ("analyze", "reduce", "optimize"):
        m[f"space.normalize_trials.calls_in_{cmd}"] = sum(
            1 for i, (nid, _, _, _) in enumerate(spans)
            if names[nid] == "space.normalize_trials" and command[i] == cmd)

    m["harness.trial.ms_p50"] = 1000.0 * statistics.median(trial_times)
    m["harness.trial.ms_p95"] = 1000.0 * _percentile(trial_times, 95)
    m["harness.trial.s_sum"] = sum(trial_times)
    search_s = m["harness.run_random_search.s"]
    m["harness.parallel_efficiency"] = m["harness.trial.s_sum"] / (jobs * search_s)
    m["trace.spans"] = n
    return m
