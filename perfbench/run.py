"""The planner's benchmark: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the root of a checkout.

Workloads (see ``perfbench/README.md``):

* ``cold-table4`` — the seven Table-4 queries, each planned cold in a fresh
  process;
* ``ladder-sweep`` — three shapes over payload-doubling ladders through the
  sweep runner, with a disk cache, a plan corpus and testbed measurement;
* ``serve-warm`` — a ``repro-cli serve`` daemon answering memory-tier hits
  in a closed loop and a seeded Poisson open loop.

Every run checks the program's outputs after its timed phase (see
:mod:`checker`) and prints one JSON object as its last line of output:
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
traced run repeats the workload untraced first, to report the overhead of
tracing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from checker import CheckError, check_plan, ranking_key  # noqa: E402
from stats import geomean, median, summarize  # noqa: E402

WORKER_TIMEOUT_S = 150
DRAIN_TIMEOUT_S = 30
# serve-warm: the open loop's arrival rate keeps the daemon under a fifth
# busy (closed loop: ~30 replies/s), and under two fifths when the host runs
# at half speed, so queueing does not amplify the host's noise; closed and
# open loop alternate in SEGMENTS segments, the closed loop taking
# CLOSED_SHARE of each; the open-loop sender polls for the last SPIN_S
# before a due time.
OPEN_LOOP_RPS = 8.0
SEGMENTS = 4
CLOSED_SHARE = 0.6
SPIN_S = 0.0015
MEASUREMENT_RUNS = 1


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _metric(value: float, unit: str) -> Dict:
    return {"value": float(value), "unit": unit}


class Run:
    """State of one benchmark run: its scratch directory and counters."""

    def __init__(self, workdir: Path, seed: int, seconds: float) -> None:
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self._specs = 0

    def path(self, name: str) -> Path:
        self._specs += 1
        return self.workdir / f"{self._specs:04d}-{name}"

    def worker(self, spec: Dict) -> Dict:
        """Run one fresh worker process; return its result plus its set-up time."""
        spec_path = self.path("spec.json")
        spec["out"] = str(self.path("out.json"))
        spec_path.write_text(json.dumps(spec))
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            env=_env(), cwd=str(ROOT),
        )
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            raise RuntimeError(f"worker {spec['op']} exited with {code}")
        result = json.loads(Path(spec["out"]).read_text())
        result["setup_s"] = result["ready"] - spawned
        return result


# --------------------------------------------------------------------------- #
# Shared checks
# --------------------------------------------------------------------------- #
_placements: Dict = {}


def coordinates_for(plan: Dict, matrix) -> List:
    """Parallel coordinates of every device under one placement of ``plan``."""
    from repro.hierarchy.levels import SystemHierarchy
    from repro.hierarchy.matrix import ParallelismMatrix
    from repro.hierarchy.parallelism import ParallelismAxes
    from repro.hierarchy.placement import DevicePlacement

    key = (
        tuple(plan["hierarchy"]["cardinalities"]),
        tuple(plan["axes"]["sizes"]),
        tuple(tuple(row) for row in matrix),
    )
    if key not in _placements:
        hierarchy = SystemHierarchy.from_cardinalities(
            plan["hierarchy"]["cardinalities"], tuple(plan["hierarchy"]["names"])
        )
        axes = ParallelismAxes(tuple(plan["axes"]["sizes"]), tuple(plan["axes"]["names"]))
        placement = DevicePlacement(ParallelismMatrix(hierarchy, axes, key[2]))
        _placements[key] = [
            placement.parallel_coordinates(d) for d in range(placement.num_devices)
        ]
    return _placements[key]


def measured_speedup(name: str, plan: Dict, seed: int) -> float:
    """Testbed time of the default AllReduce over that of the predicted best."""
    from repro.runtime.events import TestbedSimulator
    from repro.runtime.noise import NoiseModel
    from repro.synthesis.lowering import LoweredProgram

    from inputs import config

    cfg = config(name)
    topology = cfg.topology()
    testbed = TestbedSimulator(topology, NoiseModel(seed=seed))
    best = plan["strategies"][0]
    default = min(
        (s for s in plan["strategies"] if s["is_default_all_reduce"]),
        key=lambda s: s["predicted_seconds"],
    )
    times = [
        testbed.measure(
            LoweredProgram.from_dict(s["program"], topology.num_devices),
            cfg.bytes_per_device, cfg.algorithm, num_runs=3,
        ).total_seconds
        for s in (default, best)
    ]
    return times[0] / times[1]


def check_same_rankings(plans_by_name: Dict[str, List[Dict]]) -> None:
    """Repeated plans of one query must rank identically (planning is exact)."""
    for name, plans in plans_by_name.items():
        first = ranking_key(plans[0])
        for plan in plans[1:]:
            if ranking_key(plan) != first:
                raise CheckError(f"{name}: two cold plans of the same query rank differently")


def layer_report(layer_dicts: List[Dict], op_wall_s: float, overhead: float) -> Dict:
    """Per-layer metrics of traced processes whose operations took ``op_wall_s``."""
    import layers

    merged = layers.LayerStats.merge(layer_dicts)
    return layers.layer_metrics(merged, layers.coverage(merged, op_wall_s), overhead)


# --------------------------------------------------------------------------- #
# cold-table4
# --------------------------------------------------------------------------- #
def _cold_rounds(run: Run, trace: bool):
    from inputs import TABLE4

    results = []
    start = time.monotonic()
    while not results or time.monotonic() - start < run.seconds:
        order = list(TABLE4)
        run.rng.shuffle(order)
        for name in order:
            run.attempted += 1
            results.append(run.worker({"op": "cold-plan", "query": name, "trace": trace}))
    return results


def _op_times(results, group=lambda name: name) -> Dict[str, List[float]]:
    """Operation wall times of worker results, grouped by query."""
    by_query: Dict[str, List[float]] = {}
    for result in results:
        for op in result["ops"]:
            by_query.setdefault(group(op["name"]), []).append(op["op_s"])
    return by_query


def _geo_of_medians(times: Dict[str, List[float]]) -> float:
    return geomean(median(v) for v in times.values())


def _worker_metrics(untraced, setups, speedups, measured, group=lambda name: name) -> Dict:
    times = _op_times(untraced, group)
    ops = [t for v in times.values() for t in v]
    return {
        "setup_s": _metric(median(setups), "s"),
        "plan_s_geomean": _metric(_geo_of_medians(times), "s"),
        "plans_per_s": _metric(len(ops) / sum(ops), "1/s"),
        "speedup_geomean": _metric(geomean(speedups), "x"),
        "measured_speedup_geomean": _metric(geomean(measured), "x"),
        "peak_rss_mb": _metric(max(r["peak_rss_kb"] for r in untraced) / 1024.0, "MB"),
    }


def _worker_layers(untraced, traced, group=lambda name: name) -> Dict:
    traced_times = _op_times(traced, group)
    overhead = _geo_of_medians(traced_times) / _geo_of_medians(_op_times(untraced, group))
    return layer_report(
        [r["layers"] for r in traced], sum(sum(v) for v in traced_times.values()), overhead
    )


def cold_table4(run: Run, trace: bool) -> Dict:
    untraced = _cold_rounds(run, trace=False)
    traced = _cold_rounds(run, trace=True) if trace else None

    plans: Dict[str, List[Dict]] = {}
    for result in untraced + (traced or []):
        for op in result["ops"]:
            if not op["cold"]:
                raise CheckError(f"{op['name']}: a fresh service answered from cache")
            plans.setdefault(op["name"], []).append(op["plan"])
    check_same_rankings(plans)
    speedups = [check_plan(p[0], coordinates_for)["speedup"] for p in plans.values()]
    measured = [measured_speedup(name, p[0], run.seed) for name, p in plans.items()]

    if trace:
        return _worker_layers(untraced, traced)
    setups = [r["setup_s"] for r in untraced]
    return _worker_metrics(untraced, setups, speedups, measured)


# --------------------------------------------------------------------------- #
# ladder-sweep
# --------------------------------------------------------------------------- #
LADDER_SETUPS = 3


def _shape(rung: str) -> str:
    """A ladder scenario's shape: its median is taken over the shape's rungs."""
    return rung.partition("@")[0]


def _ladder(run: Run, scenarios: List[str], trace: bool) -> Dict:
    """One sweep of ``scenarios`` in a fresh process, with fresh plan stores."""
    workdir = run.path("ladder")
    workdir.mkdir()
    return run.worker({
        "op": "ladder", "scenarios": scenarios, "trace": trace, "workdir": str(workdir),
        "noise_seed": run.seed, "measurement_runs": MEASUREMENT_RUNS,
    })


def _ladder_rounds(run: Run, trace: bool):
    from inputs import ladder_configs

    results = []
    start = time.monotonic()
    while not results or time.monotonic() - start < run.seconds:
        scenarios = ladder_configs(run.rng)
        run.attempted += len(scenarios)
        results.append(_ladder(run, scenarios, trace))
    return results


def ladder_sweep(run: Run, trace: bool) -> Dict:
    from inputs import LADDER_SCALES, LADDER_SHAPES

    untraced = _ladder_rounds(run, trace=False)
    traced = _ladder_rounds(run, trace=True) if trace else None
    # Set-up alone, several times, for a steady set-up median.
    setups = [r["setup_s"] for r in untraced]
    if not trace:
        setups += [_ladder(run, [], False)["setup_s"] for _ in range(LADDER_SETUPS)]

    plans: Dict[str, List[Dict]] = {}
    speedups, measured = {}, {}
    for result in untraced + (traced or []):
        for op in result["ops"]:
            if not op["cold"] or op["plan"] is None:
                raise CheckError(f"{op['name']}: rung was not planned cold into the cache")
            plans.setdefault(op["name"], []).append(op["plan"])
            measured[op["name"]] = op["measured_default"] / op["measured_best"]
    check_same_rankings(plans)
    for name, ps in plans.items():
        speedups[name] = check_plan(ps[0], coordinates_for)["speedup"]
    # One rung per shape, re-planned in a fresh process with no cache and no
    # corpus, must rank exactly as the swept rung: cache, corpus seeding and
    # the payload ladder are lossless.
    for shape in LADDER_SHAPES:
        rung = f"{shape}@{run.rng.choice(LADDER_SCALES):g}"
        fresh = run.worker({"op": "cold-plan", "query": rung, "trace": False})
        if ranking_key(fresh["ops"][0]["plan"]) != ranking_key(plans[rung][0]):
            raise CheckError(f"{rung}: swept ranking differs from a fresh cold plan")

    if trace:
        return _worker_layers(untraced, traced, _shape)
    return _worker_metrics(untraced, setups, speedups.values(), measured.values(), _shape)


# --------------------------------------------------------------------------- #
# serve-warm
# --------------------------------------------------------------------------- #
class Daemon:
    """A planning daemon child process and one client connection to it."""

    def __init__(self, run: Run, trace: bool) -> None:
        from inputs import SERVE_QUERIES, query_for

        warm = run.path("warm.jsonl")
        warm.write_text("".join(
            json.dumps(query_for(name).to_dict()) + "\n" for name in SERVE_QUERIES
        ))
        ready = run.path("ready.json")
        ready.unlink(missing_ok=True)
        self.stats_prefix = str(run.path("layers"))
        cli = ["serve", "--system", "v100", "--nodes", "4", "--port", "0",
               "--warm", str(warm), "--ready-file", str(ready)]
        if trace:
            argv = [sys.executable, str(HERE / "serve_launcher.py"), self.stats_prefix, *cli]
        else:
            argv = [sys.executable, "-m", "repro.cli", *cli]
        self.log = open(run.path("daemon.log"), "wb")
        started = time.monotonic()
        self.proc = subprocess.Popen(
            argv, env=_env(), cwd=str(ROOT), stdout=self.log, stderr=subprocess.STDOUT
        )
        self.peak_rss_kb = 0
        self.sock = None
        try:
            info = self._wait_ready(ready, started + WORKER_TIMEOUT_S)
            self.sock = socket.create_connection((info["host"], info["port"]))
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.monotonic() - started

    def _wait_ready(self, ready: Path, deadline: float) -> Dict:
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode} during boot")
            if time.monotonic() > deadline:
                raise RuntimeError("daemon did not boot in time")
            try:
                return json.loads(ready.read_text())
            except (OSError, ValueError):
                time.sleep(0.005)

    def mark(self) -> Dict:
        """Ask a traced daemon for its layer statistics so far."""
        path = Path(f"{self.stats_prefix}.mark.json")
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not path.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("traced daemon did not write its statistics")
            time.sleep(0.005)
        return json.loads(path.read_text())

    def close(self) -> None:
        """Close the connection, stop the daemon, and reap it with its rusage.

        The connection closes first: a daemon stopped with a client still
        connected logs a cancelled-reader traceback.
        """
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + DRAIN_TIMEOUT_S
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            while not pid:
                if time.monotonic() > deadline:
                    self.proc.kill()
                    deadline = float("inf")
                time.sleep(0.01)
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_kb = usage.ru_maxrss
        self.log.close()


def _exchange(sock: socket.socket, schedule, limit_s: float):
    """Send each ``(due, payload)`` at its due time; collect raw replies.

    One connection, one thread, no JSON parsing while timing.  A closed
    loop passes ``due=None`` (send when the previous reply has arrived).
    The daemon answers one connection's requests in order.  Returns per
    request ``[due, sent, received, reply_bytes]``.
    """
    sel = selectors.DefaultSelector()
    sock.setblocking(False)
    sel.register(sock, selectors.EVENT_READ)
    records = []
    buffer = bytearray()
    pending: List[int] = []
    index = 0
    clock = time.perf_counter
    limit = clock() + limit_s
    try:
        while (index < len(schedule) or pending) and clock() < limit:
            now = clock()
            timeout = 1.0
            if index < len(schedule):
                due, payload = schedule[index]
                if due is None and not pending:
                    due = now
                if due is not None and now >= due:
                    sock.setblocking(True)
                    sock.sendall(payload)
                    sock.setblocking(False)
                    records.append([due, clock(), None, None])
                    pending.append(index)
                    index += 1
                    continue
                if due is not None:
                    # Sleep to just before the due time, then poll: the
                    # selector's millisecond timer alone would send late.
                    timeout = max(0.0, due - now - SPIN_S)
            for _key, _mask in sel.select(timeout):
                chunk = sock.recv(1 << 20)
                if not chunk:
                    raise RuntimeError("daemon closed the connection")
                buffer += chunk
                end = buffer.find(b"\n")
                while end >= 0:
                    record = records[pending.pop(0)]
                    record[2] = clock()
                    record[3] = bytes(buffer[:end])
                    del buffer[: end + 1]
                    end = buffer.find(b"\n")
    finally:
        sel.unregister(sock)
        sock.setblocking(True)
    return records


def _request(name: str, include_plan: bool) -> bytes:
    from inputs import query_for

    message = {"op": "plan", "query": query_for(name).to_dict(), "include_plan": include_plan}
    return (json.dumps(message) + "\n").encode()


def _serve_phases(run: Run, daemon: Daemon, trace: bool):
    """Closed-loop and open-loop segments, alternating over the timed phase.

    The closed loop gives the gated metrics; the open loop's latency from
    the scheduled send time is printed, not gated (see the README).

    Closed loop: blocks of eight requests, each (query, include_plan) pair
    once with include_plan alternating, sent back to back.  Open loop:
    Poisson arrivals at a fixed rate, headline-only replies, queries in
    seeded blocks of four.  Segments end on block boundaries.  A traced
    daemon is asked for its statistics after the first closed segment,
    which holds closed-loop requests only.
    """
    from inputs import SERVE_QUERIES

    n = len(SERVE_QUERIES)
    requests = {(q, inc): _request(q, inc) for q in SERVE_QUERIES for inc in (True, False)}
    segment = run.seconds / SEGMENTS
    closed_keys, closed, open_keys, opened = [], [], [], []
    closed_s, mark = 0.0, None
    for index in range(SEGMENTS):
        start = time.perf_counter()
        while time.perf_counter() - start < segment * CLOSED_SHARE:
            with_plan, without = list(SERVE_QUERIES), list(SERVE_QUERIES)
            run.rng.shuffle(with_plan)
            run.rng.shuffle(without)
            block = [k for a, b in zip(with_plan, without) for k in ((a, True), (b, False))]
            closed.extend(_exchange(daemon.sock, [(None, requests[k]) for k in block], 60.0))
            closed_keys.extend(block)
        closed_s += time.perf_counter() - start
        if trace and index == 0:
            mark = (daemon.mark(), len(closed))
        keys, due, t = [], [], 0.0
        while t < segment * (1 - CLOSED_SHARE) or len(keys) % n:
            if len(keys) % n == 0:
                block = list(SERVE_QUERIES)
                run.rng.shuffle(block)
            keys.append((block[len(keys) % n], False))
            t += run.rng.expovariate(OPEN_LOOP_RPS)
            due.append(t)
        base = time.perf_counter() + 0.01
        opened.extend(_exchange(
            daemon.sock, [(base + d, requests[k]) for d, k in zip(due, keys)], t + 60.0
        ))
        open_keys.extend(keys)
    run.attempted += len(closed_keys) + len(open_keys)
    return closed_keys, closed, closed_s, open_keys, opened, mark


def _reference_plans() -> Dict[str, Dict]:
    """Each served query planned cold in this process, as the replies must rank."""
    from repro.service.engine import PlanningService

    from inputs import SERVE_QUERIES, config, query_for

    service = PlanningService(config(SERVE_QUERIES[0]).topology())
    return {name: service.plan(query_for(name)).plan.to_dict() for name in SERVE_QUERIES}


def _check_replies(keys, records, references, checked) -> int:
    """Check every reply; return how many requests got no ``ok`` reply."""
    failed = len(keys) - len(records)
    for (name, include_plan), record in zip(keys, records):
        if record[3] is None:
            failed += 1
            continue
        reply = json.loads(record[3])
        if not reply.get("ok"):
            failed += 1
            continue
        outcome = reply["outcome"]
        if outcome.get("cache_tier") != "memory":
            raise CheckError(f"{name}: reply was not a memory-tier hit ({outcome.get('cache_tier')})")
        reference = references[name]
        if include_plan:
            if ranking_key(outcome["plan"]) != ranking_key(reference):
                raise CheckError(f"{name}: served ranking differs from a cold in-process plan")
            if name not in checked:
                checked[name] = check_plan(outcome["plan"], coordinates_for)["speedup"]
        elif outcome["best_seconds"] != reference["strategies"][0]["predicted_seconds"]:
            raise CheckError(f"{name}: headline best time differs from a cold in-process plan")
    return failed


def _serve_once(run: Run, trace: bool):
    daemon = Daemon(run, trace)
    try:
        phases = _serve_phases(run, daemon, trace)
    finally:
        daemon.close()
    final = None
    if trace:
        final = json.loads(Path(f"{daemon.stats_prefix}.final.json").read_text())
    return daemon, phases, final


def _latencies(keys, records, start_index: int) -> Dict:
    """Per request key, the seconds from due (0) or sent (1) to the reply."""
    by_key: Dict = {}
    for key, record in zip(keys, records):
        if record[2] is not None:
            by_key.setdefault(key, []).append(record[2] - record[start_index])
    return by_key


def serve_warm(run: Run, trace: bool) -> Dict:
    from inputs import SERVE_QUERIES

    daemon, phases, _ = _serve_once(run, False)
    closed_keys, closed, closed_s, open_keys, opened, _ = phases
    geo = _geo_of_medians(_latencies(closed_keys, closed, 1))
    if trace:
        _, t_phases, final = _serve_once(run, True)
        t_closed_keys, t_closed, _, _, _, (mark, marked) = t_phases
        overhead = _geo_of_medians(_latencies(t_closed_keys, t_closed, 1)) / geo
        first = _latencies(t_closed_keys[:marked], t_closed[:marked], 1)
    references = _reference_plans()
    checked: Dict[str, float] = {}
    run.failed += _check_replies(closed_keys, closed, references, checked)
    run.failed += _check_replies(open_keys, opened, references, checked)
    if set(checked) != set(SERVE_QUERIES):
        raise CheckError("some served query never returned a plan to check")
    if trace:
        import layers

        # Coverage from the first closed-loop segment alone: open-loop
        # latency also holds queueing behind earlier requests.
        closed_wall = sum(sum(v) for v in first.values())
        return layers.layer_metrics(final, layers.coverage(mark, closed_wall), overhead)

    open_lat = _latencies(open_keys, opened, 0)
    pooled = summarize([t * 1e3 for v in open_lat.values() for t in v])
    tail = ", ".join(f"{k} {v:.2f} ms" for k, v in pooled.items() if k.startswith("p"))
    late = [(r[1] - r[0]) * 1e3 for r in opened]
    print(
        f"serve-warm: closed loop {len(closed)} replies in {closed_s:.2f} s; open loop "
        f"{len(opened)} requests at {OPEN_LOOP_RPS:g}/s, latency from due: per-query "
        f"median geomean {_geo_of_medians(open_lat) * 1e3:.2f} ms, all n={pooled['n']} "
        f"median {pooled['median']:.2f} ms, {tail or 'no tail (too few samples)'}; "
        f"generator late median {median(late):.3f} ms, max {max(late):.3f} ms",
        file=sys.stderr,
    )
    measured = [measured_speedup(name, references[name], run.seed) for name in SERVE_QUERIES]
    return {
        "setup_s": _metric(daemon.setup_s, "s"),
        "plan_s_geomean": _metric(geo, "s"),
        "plans_per_s": _metric(len(closed) / closed_s, "1/s"),
        "speedup_geomean": _metric(geomean(checked.values()), "x"),
        "measured_speedup_geomean": _metric(geomean(measured), "x"),
        "peak_rss_mb": _metric(daemon.peak_rss_kb / 1024.0, "MB"),
    }


WORKLOADS = {
    "cold-table4": cold_table4,
    "ladder-sweep": ladder_sweep,
    "serve-warm": serve_warm,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no planner sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    scratch = ROOT / ".perfbench_runs"
    scratch.mkdir(exist_ok=True)
    workdir = scratch / f"run-{os.getpid()}"
    workdir.mkdir()
    run = Run(workdir, args.seed, args.seconds)
    try:
        metrics = WORKLOADS[args.workload](run, bool(args.trace))
        correct = True
    except CheckError as error:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
        metrics, correct = {}, False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
