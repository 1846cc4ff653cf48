"""Span recording around the public functions of each dyntarget layer.

The program is not edited: ``Tracer.install`` swaps each listed function
for a wrapper in every ``dyntarget`` module that holds a reference to it,
and ``Tracer.uninstall`` puts the originals back.  Only functions called
a bounded number of times per episode or training run are wrapped;
per-step and per-batch functions (``featurize_bc``, ``mlp_forward``,
``mlp_grad``, ``soc_transition``, ``expert_action`` ...) would add their
own cost to every decision, so their time is read from the spans that
enclose them and from ``EpisodeLog.mean_decide_us``.

Spans and counts stay in memory; the runner writes them out when it ends.
"""
from __future__ import annotations

import functools
import statistics
import sys
import time

# layer -> public functions that get a span (missing names are skipped and
# reported, so a later rename degrades a metric instead of the run)
SPANS = {
    "cli": ("main",),
    "bench": ("run_benchmark", "prepare_bench", "train_learners", "_dp_for", "emit_report"),
    "world": ("generate_synthetic", "load_dataset", "save_dataset"),
    "sim": ("run_episode",),
    "dp": ("build_dp_table", "load_dp_table", "save_dp_table", "dp_policy"),
    "heuristics": (
        "random_policy", "greedy_nadir", "greedy_lateral", "greedy_radar", "greedy_window",
    ),
    "qlearn": ("train_dp_sweep", "q_policy"),
    "cloning": (
        "collect_demonstrations", "merge_demos", "balance_dataset", "train_bc", "bc_policy",
    ),
}
# classes whose constructor is the layer's unit of work
CONSTRUCTORS = {"sim": ("StripIndex",)}

LAYERS = tuple(SPANS)
# spans that only sequence other layers; their own time is harness time
ORCHESTRATION = ("cli.main", "bench.run_benchmark", "bench.prepare_bench",
                 "bench.train_learners", "bench._dp_for")

POLICIES = ("random", "greedy_nadir", "greedy_lateral", "greedy_radar", "greedy_window",
            "bc", "qlearn", "dp")


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _count_episode(args, kwargs, log):
    policy = _arg(args, kwargs, 4, "policy")
    return {"policy": getattr(policy, "name", type(policy).__name__),
            "steps": log.n_steps, "decide_us": log.mean_decide_us,
            "violations": log.violations}


def _count_dp_for(args, kwargs, table):
    return {"cached": _arg(args, kwargs, 2, "cache_dir") is not None}


COUNTS = {
    "world.generate_synthetic": lambda a, k, strip: {"cells": int(strip.cells.size)},
    "sim.run_episode": _count_episode,
    "dp.build_dp_table": lambda a, k, t: {"cells": int(t.values.size),
                                          "bytes": int(t.values.nbytes)},
    "bench._dp_for": _count_dp_for,
    "qlearn.train_dp_sweep": lambda a, k, t: {"updates": int(t.visits.sum())},
    "cloning.collect_demonstrations": lambda a, k, d: {"demos": len(d)},
    "cloning.balance_dataset": lambda a, k, d: {"demos": len(d)},
}


class Tracer:
    """In-memory spans: name, start, end, parent, phase and counts."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self.phase = None
        self.rep_label = None
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        counts = COUNTS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # train_bc keeps its per-epoch history anyway; asking for it
            # gives the span the epoch count without changing the result
            history = (name == "cloning.train_bc" and len(args) <= 2
                       and "return_history" not in kwargs)
            stack = tracer._stack
            span = {"id": len(tracer.spans), "name": name,
                    "parent": stack[-1] if stack else None, "phase": tracer.phase,
                    "start": time.perf_counter(), "end": None, "counts": {}}
            tracer.spans.append(span)
            stack.append(span["id"])
            try:
                if history:
                    result = fn(*args, return_history=True, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if history:
                result, epochs = result
                span["counts"] = _train_counts(args, kwargs, len(epochs))
            elif counts is not None:
                span["counts"] = counts(args, kwargs, result)
            return result
        return traced

    def install(self):
        """Wrap every listed function wherever a dyntarget module holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dyntarget" or n.startswith("dyntarget."))]
        for layer, names in SPANS.items():
            home = sys.modules.get(f"dyntarget.{layer}")
            for fname in names:
                orig = getattr(home, fname, None)
                if orig is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                wrapped = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)
                            self._patches.append((mod, attr, orig))
        for layer, classes in CONSTRUCTORS.items():
            home = sys.modules.get(f"dyntarget.{layer}")
            for cname in classes:
                cls = getattr(home, cname, None)
                if cls is None:
                    self.missing.append(f"{layer}.{cname}")
                    continue
                orig = cls.__init__
                cls.__init__ = self._wrap(f"{layer}.{cname}", orig)
                self._patches.append((cls, "__init__", orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()


def wrapper_cost_s(calls=20_000, batches=7):
    """Median time one span wrapper adds to a call, in seconds.

    Times a no-op with and without a wrapper, alternating within each
    batch so that both see the same machine speed.
    """
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap("calibrate.noop", noop)
    extra = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        mid = time.perf_counter()
        for _ in range(calls):
            wrapped()
        end = time.perf_counter()
        tracer.spans.clear()
        extra.append(((end - mid) - (mid - start)) / calls)
    return statistics.median(extra)


def _train_counts(args, kwargs, epochs):
    demos = _arg(args, kwargs, 0, "demos")
    params = _arg(args, kwargs, 1, "params")
    energy = kwargs.get("energy")
    floor = energy.sample_discharge if energy is not None else 5
    n = int((demos.soc >= floor).sum())
    val_fraction = getattr(params, "val_fraction", 0.1)
    n_train = n - max(1, int(round(n * val_fraction)))
    return {"epochs": epochs, "examples": n_train * epochs}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# additive totals of one set-up or one repetition; rates are derived later
_TOTALS = (
    "world.generate_s", "world.cells", "sim.index_s", "sim.index_builds",
    "sim.episode_s", "sim.steps", "dp.build_s", "dp.cells", "dp.table_bytes",
    "dp.cache_hits", "dp.cache_misses", "dp.cache_load_s", "dp.cache_save_s",
    "qlearn.sweep_s", "qlearn.updates", "cloning.collect_s", "cloning.demos_raw",
    "cloning.demos_balanced", "cloning.balance_s", "cloning.train_s", "cloning.epochs",
    "cloning.examples", "bench.report_s", "bench.self_s", "trace.covered_s",
) + tuple(f"sim.decide_ns.{p}" for p in POLICIES) + tuple(f"sim.steps.{p}" for p in POLICIES)

_SUM_SPANS = {
    "world.generate_synthetic": "world.generate_s",
    "sim.StripIndex": "sim.index_s",
    "sim.run_episode": "sim.episode_s",
    "dp.build_dp_table": "dp.build_s",
    "dp.load_dp_table": "dp.cache_load_s",
    "dp.save_dp_table": "dp.cache_save_s",
    "qlearn.train_dp_sweep": "qlearn.sweep_s",
    "cloning.collect_demonstrations": "cloning.collect_s",
    "cloning.balance_dataset": "cloning.balance_s",
    "cloning.train_bc": "cloning.train_s",
    "bench.emit_report": "bench.report_s",
}


def self_times(spans):
    """Span id -> duration minus the time its direct children took."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def totals(spans):
    """Additive per-layer totals over one group of spans."""
    t = dict.fromkeys(_TOTALS, 0)
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s["name"])
    own = self_times(spans)
    for s in spans:
        name, c, dur = s["name"], s["counts"], s["end"] - s["start"]
        if name in _SUM_SPANS:
            t[_SUM_SPANS[name]] += dur
        if name == "world.generate_synthetic":
            t["world.cells"] += c.get("cells", 0)
        elif name == "sim.StripIndex":
            t["sim.index_builds"] += 1
        elif name == "sim.run_episode":
            steps = c.get("steps", 0)
            t["sim.steps"] += steps
            if c.get("policy") in POLICIES:
                t[f"sim.steps.{c['policy']}"] += steps
                t[f"sim.decide_ns.{c['policy']}"] += c.get("decide_us", 0.0) * steps * 1000
        elif name == "dp.build_dp_table":
            t["dp.cells"] += c.get("cells", 0)
            t["dp.table_bytes"] += c.get("bytes", 0)
        elif name == "bench._dp_for" and c.get("cached"):
            built = "dp.build_dp_table" in children.get(s["id"], ())
            t["dp.cache_misses" if built else "dp.cache_hits"] += 1
        elif name == "qlearn.train_dp_sweep":
            t["qlearn.updates"] += c.get("updates", 0)
        elif name == "cloning.collect_demonstrations":
            t["cloning.demos_raw"] += c.get("demos", 0)
        elif name == "cloning.balance_dataset":
            t["cloning.demos_balanced"] += c.get("demos", 0)
        elif name == "cloning.train_bc":
            t["cloning.epochs"] += c.get("epochs", 0)
            t["cloning.examples"] += c.get("examples", 0)
        if name.startswith("bench."):
            t["bench.self_s"] += own[s["id"]]
        if name not in ORCHESTRATION and not _inside_work(s, by_id):
            t["trace.covered_s"] += dur
    return t


def _inside_work(span, by_id):
    parent = by_id.get(span["parent"])
    while parent is not None:
        if parent["name"] not in ORCHESTRATION:
            return True
        parent = by_id.get(parent["parent"])
    return False


def layer_split(spans):
    """Layer -> self time summed over its spans, in seconds."""
    own = self_times(spans)
    split = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        split[s["name"].split(".", 1)[0]] += own[s["id"]]
    return split


def per_layer_metrics(setup_groups, rep_groups, overhead_s):
    """Median set-up totals plus median repetition totals, then rates."""
    def median_totals(groups):
        if not groups:
            return dict.fromkeys(_TOTALS, 0)
        each = [totals(g) for g in groups]
        return {k: statistics.median(e[k] for e in each) for k in _TOTALS}

    s, r = median_totals(setup_groups), median_totals(rep_groups)
    t = {k: s[k] + r[k] for k in _TOTALS}

    def rate(num, den):
        return num / den if den > 0 else 0.0

    m = {
        "world.generate_s": t["world.generate_s"],
        "world.cells_per_s": rate(t["world.cells"], t["world.generate_s"]),
        "sim.index_s": t["sim.index_s"],
        "sim.index_builds": t["sim.index_builds"],
        "sim.episode_s": t["sim.episode_s"],
        "sim.steps_per_s": rate(t["sim.steps"], t["sim.episode_s"]),
    }
    for p in POLICIES:
        m[f"sim.decide_us.{p}"] = rate(t[f"sim.decide_ns.{p}"], t[f"sim.steps.{p}"]) / 1000
    m.update({
        "dp.build_s": t["dp.build_s"],
        "dp.cells": t["dp.cells"],
        "dp.table_bytes": t["dp.table_bytes"],
        "dp.cache_hits": t["dp.cache_hits"],
        "dp.cache_misses": t["dp.cache_misses"],
        "dp.cache_load_s": t["dp.cache_load_s"],
        "dp.cache_save_s": t["dp.cache_save_s"],
        "qlearn.sweep_s": t["qlearn.sweep_s"],
        "qlearn.updates": t["qlearn.updates"],
        "qlearn.updates_per_s": rate(t["qlearn.updates"], t["qlearn.sweep_s"]),
        "cloning.collect_s": t["cloning.collect_s"],
        "cloning.demos_raw": t["cloning.demos_raw"],
        "cloning.demos_balanced": t["cloning.demos_balanced"],
        "cloning.balance_s": t["cloning.balance_s"],
        "cloning.train_s": t["cloning.train_s"],
        "cloning.epochs": t["cloning.epochs"],
        "cloning.epoch_ms": rate(t["cloning.train_s"], t["cloning.epochs"]) * 1000,
        "cloning.examples_per_s": rate(t["cloning.examples"], t["cloning.train_s"]),
        "bench.report_s": t["bench.report_s"],
        "bench.self_s": r["bench.self_s"],
        "trace_overhead_s": overhead_s,
    })
    return m
