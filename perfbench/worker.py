"""One fresh planning process: ``python perfbench/worker.py SPEC_JSON``.

Every timed repetition of ``cold-table4`` and ``ladder-sweep`` runs in a
process of its own, so no process-wide state (profile caches, memo tables,
warmed allocators) carries from one repetition into the next.  The spec
names the operation; the worker writes its result as JSON to
``spec["out"]``:

* ``cold-plan`` — plan one query through a fresh
  :class:`~repro.service.engine.PlanningService` (memory-only cache, no
  corpus); time the ``plan`` call.
* ``ladder`` — run a payload-ladder sweep through
  :meth:`~repro.evaluation.runner.SweepRunner.run_stream` with a service
  that shares one fresh disk cache directory and one fresh plan corpus,
  testbed measurement on; time every scenario from the previous record to
  its own (plan, measure, checkpoint).

``ready`` (``time.monotonic``, which is system-wide on Linux) marks the end
of set-up; the parent subtracts its spawn stamp to get set-up time.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _cold_plan(spec, stats):
    from repro.service.cache import PlanCache
    from repro.service.engine import PlanningService

    from inputs import config, query_for

    cfg = config(spec["query"])
    query = query_for(spec["query"])
    service = PlanningService(cfg.topology(), cache=PlanCache())
    ready = time.monotonic()
    start = time.perf_counter()
    outcome = service.plan(query)
    op_s = time.perf_counter() - start
    layers = stats.to_dict() if stats is not None else None
    return {
        "ready": ready,
        "ops": [{"name": spec["query"], "op_s": op_s, "cold": outcome.cache_tier is None,
                 "plan": outcome.plan.to_dict()}],
        "layers": layers,
    }


def _ladder(spec, stats):
    from repro.corpus.store import PlanCorpus
    from repro.evaluation.runner import SweepRunner
    from repro.evaluation.scenarios import Scenario
    from repro.service.cache import PlanCache
    from repro.service.engine import PlanningService

    from inputs import config

    workdir = Path(spec["workdir"])
    scenarios = [Scenario(config=config(name)) for name in spec["scenarios"]]
    corpus = PlanCorpus(workdir / "corpus")
    cache_dir = workdir / "cache"
    services = []

    def factory(topology):
        service = PlanningService(topology, cache=PlanCache(cache_dir), corpus=corpus)
        services.append(service)
        return service

    runner = SweepRunner(
        planner_factory=factory,
        noise_seed=spec["noise_seed"],
        measurement_runs=spec["measurement_runs"],
    )
    stamps = []
    ready = time.monotonic()
    start = time.perf_counter()
    results = runner.run_stream(
        scenarios,
        out_path=workdir / "sweep.jsonl",
        on_record=lambda record: stamps.append(time.perf_counter()),
    )
    layers = stats.to_dict() if stats is not None else None
    ops = []
    previous = start
    for scenario, result, stamp in zip(scenarios, results, stamps):
        programs = [p for _, p in result.iter_programs()]
        best = min(programs, key=lambda p: p.predicted_seconds)
        default = min(
            (p for p in programs if p.is_default_all_reduce),
            key=lambda p: p.predicted_seconds,
        )
        plan = None
        for service in services:
            cached, _ = service.cache.lookup(result.fingerprint)
            if cached is not None:
                plan = cached
        ops.append({
            "name": scenario.name,
            "op_s": stamp - previous,
            "cold": result.cache_tier is None,
            "measured_best": best.measured_seconds,
            "measured_default": default.measured_seconds,
            "plan": plan,
        })
        previous = stamp
    runner.close()
    return {"ready": ready, "ops": ops, "layers": layers}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    stats = None
    if spec["trace"]:
        import layers

        stats = layers.install()
    operation = {"cold-plan": _cold_plan, "ladder": _ladder}[spec["op"]]
    result = operation(spec, stats)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(spec["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
