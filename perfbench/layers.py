"""Per-layer attribution by wrapping the program's public functions.

:func:`install` replaces each public function listed in :data:`LAYERS` with
a wrapper, at every name its callers resolve (the defining module and each
module that imported it by name).  A wrapper counts calls and measures its
own time: its wall time minus the wall time of wrapped calls nested inside
it, per thread.  Bookkeeping after the call (program signatures, result
sizes) is excluded from the enclosing layer's time as well.

Only traced runs install wrappers; end-to-end numbers come from untraced
runs.  :func:`layer_metrics` turns the collected :class:`LayerStats` into
the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from stats import median

__all__ = ["LayerStats", "install", "coverage", "layer_metrics", "PER_LAYER"]


class LayerStats:
    """Calls, self time and inclusive time per layer, plus named counters."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, List[float]] = {}
        self.total_s: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self.sizes: Dict[str, List[float]] = {}
        self.keys: Dict[str, set] = {}
        # Re-entrant: a signal handler may snapshot while its thread records.
        self._lock = threading.RLock()

    def record(self, name: str, own: float, total: float) -> None:
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s.setdefault(name, []).append(own)
            self.total_s.setdefault(name, []).append(total)

    def add(self, counter: str, value: float = 1) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + value

    def size(self, name: str, value: float) -> None:
        with self._lock:
            self.sizes.setdefault(name, []).append(value)

    def note(self, key_set: str, key: Any) -> None:
        with self._lock:
            self.keys.setdefault(key_set, set()).add(key)

    def reset(self) -> None:
        with self._lock:
            self.calls.clear()
            self.self_s.clear()
            self.total_s.clear()
            self.counters.clear()
            self.sizes.clear()
            self.keys.clear()

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "calls": dict(self.calls),
                "self_s": {k: list(v) for k, v in self.self_s.items()},
                "total_s": {k: list(v) for k, v in self.total_s.items()},
                "counters": dict(self.counters),
                "sizes": {k: list(v) for k, v in self.sizes.items()},
                "keys": {k: sorted(map(repr, v)) for k, v in self.keys.items()},
            }

    @staticmethod
    def merge(dicts: List[Dict[str, Any]]) -> Dict[str, Any]:
        merged: Dict[str, Any] = {
            "calls": {}, "self_s": {}, "total_s": {}, "counters": {}, "sizes": {}, "keys": {}
        }
        for data in dicts:
            for k, v in data["calls"].items():
                merged["calls"][k] = merged["calls"].get(k, 0) + v
            for field in ("self_s", "total_s", "sizes"):
                for k, v in data[field].items():
                    merged[field].setdefault(k, []).extend(v)
            for k, v in data["counters"].items():
                merged["counters"][k] = merged["counters"].get(k, 0) + v
            for k, v in data["keys"].items():
                merged["keys"].setdefault(k, set()).update(v)
        merged["keys"] = {k: sorted(v) for k, v in merged["keys"].items()}
        return merged


# --------------------------------------------------------------------------- #
# What to wrap
# --------------------------------------------------------------------------- #
def _synthesis_key(args: Tuple, kwargs: Dict) -> Tuple:
    """The canonical synthesis problem: everything the DFS result depends on."""
    synthesizer, hierarchy = args[0], args[1] if len(args) > 1 else kwargs["hierarchy"]
    reduced = tuple(
        all(row in hierarchy.reduction_axes for row, _ in level.positions)
        for level in hierarchy.levels
    )
    return (
        hierarchy.variant.value,
        hierarchy.radices,
        reduced,
        synthesizer.max_program_size,
        synthesizer.node_limit,
        tuple(str(c) for c in synthesizer.collectives),
    )


def _after_enumerate(stats: LayerStats, args, kwargs, result) -> None:
    stats.add("hierarchy.matrices", len(result))


def _after_synthesize(stats: LayerStats, args, kwargs, result) -> None:
    stats.add("synthesis.programs", len(result.programs))
    stats.note("synthesis.problems", _synthesis_key(args, kwargs))


def _program_key(program) -> Tuple:
    """A program's communication pattern, in a form stable across processes."""
    return tuple(
        (step.collective.value, tuple(sorted(step.groups))) for step in program.steps
    )


def _after_validate(stats: LayerStats, args, kwargs, result) -> None:
    stats.note("semantics.signatures", _program_key(args[0]))


def _after_compile(stats: LayerStats, args, kwargs, result) -> None:
    stats.note("semantics.signatures", _program_key(args[0] if args else kwargs["program"]))


def _after_search(stats: LayerStats, args, kwargs, result) -> None:
    stats.add("search.considered", result.report.considered)
    stats.add("search.bound_rejected", result.report.bound_rejected)


def _after_encode_message(stats: LayerStats, args, kwargs, result) -> None:
    stats.size("serve.reply_kb", len(result) / 1024.0)


# (layer, module, attribute path, extra modules that imported it by name,
# bookkeeping after each call)
LAYERS = [
    ("hierarchy.enumerate", "repro.synthesis.pipeline", "enumerate_search_matrices",
     ("repro.search.source", "repro.search.sharded"), _after_enumerate),
    ("synthesis", "repro.synthesis.synthesizer", "Synthesizer.synthesize", (), _after_synthesize),
    ("lowering", "repro.synthesis.pipeline", "lower_program_candidate", (), None),
    ("semantics", "repro.synthesis.lowering", "LoweredProgram.validates_against", (), _after_validate),
    ("cost.compile", "repro.cost.profile", "compile_profile", ("repro.cost.simulator",), _after_compile),
    ("cost.price", "repro.cost.simulator", "ProgramSimulator.simulate", (), None),
    ("cost.price", "repro.cost.simulator", "ProgramSimulator.simulate_many", (), None),
    ("cost.price", "repro.cost.simulator", "ProgramSimulator.simulate_batch", (), None),
    ("search", "repro.search.driver", "SearchDriver.run", (), _after_search),
    ("fingerprint", "repro.service.fingerprint", "plan_query_fingerprint",
     ("repro.service.engine",), None),
    ("cache.lookup", "repro.service.cache", "PlanCache.lookup", (), None),
    ("cache.put", "repro.service.cache", "PlanCache.put", (), None),
    ("plan.decode", "repro.api", "OptimizationPlan.from_dict", (), None),
    ("plan.encode", "repro.api", "OptimizationPlan.to_dict", (), None),
    ("corpus.ingest", "repro.corpus.seeding", "CorpusSeeder.ingest", (), None),
    ("corpus.seed", "repro.corpus.seeding", "CorpusSeeder.seed_sources", (), None),
    ("measure", "repro.runtime.events", "TestbedSimulator.measure", (), None),
    ("wire.decode", "repro.serve.protocol", "decode_message", ("repro.serve.daemon",), None),
    ("wire.encode", "repro.serve.protocol", "encode_message", ("repro.serve.daemon",),
     _after_encode_message),
    ("serve.plan", "repro.service.engine", "PlanningService.plan", (), None),
]

# Counted, not timed: profile lookups (hits are lookups that did not compile).
COUNTED = [("cost.profile_lookups", "repro.cost.simulator", "ProgramSimulator.profile_for")]

# The root every operation passes through; coverage counts the layers below it.
ROOT_LAYER = "serve.plan"


def _timed(stats: LayerStats, local: threading.local, name: str, fn: Callable,
           after: Optional[Callable]) -> Callable:
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        stack.append(0.0)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            nested = stack.pop()
        stats.record(name, (end - start) - nested, end - start)
        if after is not None:
            after(stats, args, kwargs, result)
        if stack:
            stack[-1] += clock() - start
        return result

    return functools.wraps(fn)(wrapper)


def _counted(stats: LayerStats, name: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        stats.add(name)
        return fn(*args, **kwargs)

    return functools.wraps(fn)(wrapper)


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, value as declared)`` for a dotted path in a module."""
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    # vars() keeps a classmethod as declared, so it is re-wrapped as one.
    return owner, attr, vars(owner)[attr]


def install() -> LayerStats:
    """Wrap every function in :data:`LAYERS`; return the stats they fill."""
    stats = LayerStats()
    local = threading.local()
    for layer, module_name, path, importers, after in LAYERS:
        owner, attr, raw = _resolve(module_name, path)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(_timed(stats, local, layer, raw.__func__, after)))
            continue
        wrapped = _timed(stats, local, layer, raw, after)
        setattr(owner, attr, wrapped)
        for importer in importers:
            module = importlib.import_module(importer)
            if getattr(module, attr, None) is raw:
                setattr(module, attr, wrapped)
    for counter, module_name, path in COUNTED:
        owner, attr, raw = _resolve(module_name, path)
        setattr(owner, attr, _counted(stats, counter, raw))
    return stats


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
PER_LAYER = [
    ("hierarchy.matrices", "count"),
    ("hierarchy.enumerate_s", "s"),
    ("synthesis.calls", "count"),
    ("synthesis.distinct_problems", "count"),
    ("synthesis.programs", "count"),
    ("synthesis.s", "s"),
    ("lowering.calls", "count"),
    ("lowering.s", "s"),
    ("semantics.checks", "count"),
    ("semantics.s", "s"),
    ("semantics.passes_per_program", "passes"),
    ("cost.compiles", "count"),
    ("cost.compile_s", "s"),
    ("cost.profile_hits", "count"),
    ("cost.price_s", "s"),
    ("search.s", "s"),
    ("search.considered", "count"),
    ("search.bound_rejected", "count"),
    ("fingerprint.ms", "ms"),
    ("cache.lookup_ms", "ms"),
    ("cache.put_ms", "ms"),
    ("plan.decodes", "count"),
    ("plan.decode_ms", "ms"),
    ("plan.encodes", "count"),
    ("plan.encode_ms", "ms"),
    ("corpus.ingest_ms", "ms"),
    ("corpus.seed_ms", "ms"),
    ("measure.calls", "count"),
    ("measure.s", "s"),
    ("wire.decode_ms", "ms"),
    ("wire.encode_ms", "ms"),
    ("serve.plan_ms", "ms"),
    ("serve.reply_kb", "KB"),
    ("trace.coverage", "%"),
    ("trace.overhead", "x"),
]


def coverage(data: Dict[str, Any], op_wall_s: float) -> float:
    """Percent of operation wall time spent in a named layer below the root."""
    covered = sum(sum(v) for k, v in data["self_s"].items() if k != ROOT_LAYER)
    return 100.0 * covered / op_wall_s


def layer_metrics(data: Dict[str, Any], coverage_pct: float, overhead: float) -> Dict[str, Dict]:
    """Per-layer metrics from merged :meth:`LayerStats.to_dict` output.

    ``*.s`` metrics are total self seconds; ``*_ms`` / ``*.ms`` metrics are
    the median self time of one call in milliseconds (``serve.plan_ms`` is
    the median inclusive time of one ``PlanningService.plan`` call);
    ``serve.reply_kb`` is the mean size of one encoded daemon message.  A
    layer the workload never calls reads 0.
    """
    calls = data["calls"]
    self_s = data["self_s"]
    counters = data["counters"]

    def total(layer: str) -> float:
        return float(sum(self_s.get(layer, ())))

    def per_call_ms(layer: str, field: str = "self_s") -> float:
        samples = data[field].get(layer)
        return median(samples) * 1e3 if samples else 0.0

    signatures = len(data["keys"].get("semantics.signatures", ()))
    passes = calls.get("semantics", 0) + calls.get("cost.compile", 0)
    reply_kb = data["sizes"].get("serve.reply_kb")
    values = {
        "hierarchy.matrices": counters.get("hierarchy.matrices", 0),
        "hierarchy.enumerate_s": total("hierarchy.enumerate"),
        "synthesis.calls": calls.get("synthesis", 0),
        "synthesis.distinct_problems": len(data["keys"].get("synthesis.problems", ())),
        "synthesis.programs": counters.get("synthesis.programs", 0),
        "synthesis.s": total("synthesis"),
        "lowering.calls": calls.get("lowering", 0),
        "lowering.s": total("lowering"),
        "semantics.checks": calls.get("semantics", 0),
        "semantics.s": total("semantics"),
        "semantics.passes_per_program": passes / signatures if signatures else 0.0,
        "cost.compiles": calls.get("cost.compile", 0),
        "cost.compile_s": total("cost.compile"),
        "cost.profile_hits": counters.get("cost.profile_lookups", 0) - calls.get("cost.compile", 0),
        "cost.price_s": total("cost.price"),
        "search.s": total("search"),
        "search.considered": counters.get("search.considered", 0),
        "search.bound_rejected": counters.get("search.bound_rejected", 0),
        "fingerprint.ms": per_call_ms("fingerprint"),
        "cache.lookup_ms": per_call_ms("cache.lookup"),
        "cache.put_ms": per_call_ms("cache.put"),
        "plan.decodes": calls.get("plan.decode", 0),
        "plan.decode_ms": per_call_ms("plan.decode"),
        "plan.encodes": calls.get("plan.encode", 0),
        "plan.encode_ms": per_call_ms("plan.encode"),
        "corpus.ingest_ms": per_call_ms("corpus.ingest"),
        "corpus.seed_ms": per_call_ms("corpus.seed"),
        "measure.calls": calls.get("measure", 0),
        "measure.s": total("measure"),
        "wire.decode_ms": per_call_ms("wire.decode"),
        "wire.encode_ms": per_call_ms("wire.encode"),
        "serve.plan_ms": per_call_ms(ROOT_LAYER, "total_s"),
        "serve.reply_kb": sum(reply_kb) / len(reply_kb) if reply_kb else 0.0,
        "trace.coverage": coverage_pct,
        "trace.overhead": overhead,
    }
    units = dict(PER_LAYER)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER}
