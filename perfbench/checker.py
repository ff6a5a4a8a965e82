"""An independent reduction checker for ranked plans.

:func:`check_program` interprets a lowered program step by step on symbolic
per-chunk contribution counts.  It follows the executor's documented
conventions (a device starts with one chunk per device, all valid, each
holding only its own contribution; group member 0 is the root of Reduce and
Broadcast; ReduceScatter deals contiguous blocks of the sorted valid chunks,
block ``i`` to member ``i``) but shares no code with ``repro.runtime`` or
``repro.semantics``: programs arrive in their serialized form (lists of
collective names and device groups).

A program is correct when every device ends holding every chunk, and each
chunk holds, exactly once, the contribution of every device that shares its
coordinates on the axes that are not reduced, and nothing else.

:func:`check_plan` applies that to a serialized plan's best program and its
default AllReduce, and checks properties the method must have: the ranking
is sorted by predicted time, the best strategy is no slower than the
AllReduce among the candidates, and every time is finite and positive.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

__all__ = ["CheckError", "reduction_groups", "check_program", "check_plan", "ranking_key"]


class CheckError(AssertionError):
    """An output of the program failed an independent check."""


def reduction_groups(
    coordinates: Sequence[Sequence[int]], reduced_axes: Sequence[int]
) -> List[Tuple[int, ...]]:
    """The group of every device: devices that agree on every non-reduced axis."""
    reduced = set(reduced_axes)
    groups: Dict[Tuple[int, ...], List[int]] = {}
    keys = []
    for coords in coordinates:
        key = tuple(c for axis, c in enumerate(coords) if axis not in reduced)
        keys.append(key)
    for device, key in enumerate(keys):
        groups.setdefault(key, []).append(device)
    return [tuple(groups[key]) for key in keys]


def _common_chunks(valid: np.ndarray, group: Sequence[int], where: str) -> np.ndarray:
    first = valid[group[0]]
    for device in group[1:]:
        if not np.array_equal(valid[device], first):
            raise CheckError(f"{where}: members of {tuple(group)} hold different chunks")
    chunks = np.flatnonzero(first)
    if chunks.size == 0:
        raise CheckError(f"{where}: group {tuple(group)} holds no valid chunk")
    return chunks


def check_program(
    steps: Sequence[Mapping],
    coordinates: Sequence[Sequence[int]],
    reduced_axes: Sequence[int],
) -> None:
    """Interpret ``steps`` symbolically; raise :class:`CheckError` if wrong.

    ``steps`` is the serialized form ``[{"collective": name, "groups":
    [[device, ...], ...]}, ...]``; ``coordinates[d]`` are device ``d``'s
    parallel coordinates, one per parallelism axis.
    """
    n = len(coordinates)
    # contrib[d, c, s]: how many times device s's data is summed into chunk c
    # held by device d; valid[d, c]: whether device d holds chunk c.
    contrib = np.zeros((n, n, n), dtype=np.int64)
    for d in range(n):
        contrib[d, :, d] = 1
    valid = np.ones((n, n), dtype=bool)

    for index, step in enumerate(steps):
        op = step["collective"]
        where = f"step {index} ({op})"
        seen = set()
        for group in step["groups"]:
            group = [int(d) for d in group]
            if len(group) < 2:
                raise CheckError(f"{where}: group {group} has fewer than two devices")
            for d in group:
                if not 0 <= d < n:
                    raise CheckError(f"{where}: device {d} out of range")
                if d in seen:
                    raise CheckError(f"{where}: device {d} appears twice in the step")
                seen.add(d)
        # Groups of one step run concurrently on disjoint devices, so they
        # can be applied one after another.
        for group in step["groups"]:
            group = [int(d) for d in group]
            if op == "AllReduce":
                chunks = _common_chunks(valid, group, where)
                total = contrib[group][:, chunks].sum(axis=0)
                for d in group:
                    contrib[d, chunks] = total
            elif op == "ReduceScatter":
                chunks = _common_chunks(valid, group, where)
                if chunks.size % len(group):
                    raise CheckError(
                        f"{where}: {chunks.size} chunks do not split over {len(group)} members"
                    )
                per = chunks.size // len(group)
                total = contrib[group][:, chunks].sum(axis=0)
                for position, d in enumerate(group):
                    block = slice(position * per, (position + 1) * per)
                    valid[d, chunks] = False
                    valid[d, chunks[block]] = True
                    contrib[d, chunks[block]] = total[block]
            elif op == "AllGather":
                owned = [np.flatnonzero(valid[d]) for d in group]
                if any(o.size == 0 for o in owned):
                    raise CheckError(f"{where}: a member of {tuple(group)} holds no chunk")
                if len({o.size for o in owned}) != 1:
                    raise CheckError(f"{where}: members of {tuple(group)} hold unequal counts")
                union = np.concatenate(owned)
                if np.unique(union).size != union.size:
                    raise CheckError(f"{where}: members of {tuple(group)} share a chunk")
                gathered = {int(c): contrib[d, c].copy() for d, o in zip(group, owned) for c in o}
                for d in group:
                    for c, values in gathered.items():
                        contrib[d, c] = values
                        valid[d, c] = True
            elif op == "Reduce":
                chunks = _common_chunks(valid, group, where)
                total = contrib[group][:, chunks].sum(axis=0)
                root = group[0]
                contrib[root, chunks] = total
                for d in group[1:]:
                    valid[d, chunks] = False
            elif op == "Broadcast":
                root = group[0]
                chunks = np.flatnonzero(valid[root])
                if chunks.size == 0:
                    raise CheckError(f"{where}: root {root} holds no chunk")
                for d in group[1:]:
                    contrib[d, chunks] = contrib[root, chunks]
                    valid[d, chunks] = True
            else:
                raise CheckError(f"{where}: unknown collective {op!r}")

    groups = reduction_groups(coordinates, reduced_axes)
    for d in range(n):
        missing = np.flatnonzero(~valid[d])
        if missing.size:
            raise CheckError(f"device {d} ends without chunks {missing.tolist()[:8]}")
        expected = np.zeros(n, dtype=np.int64)
        expected[list(groups[d])] = 1
        wrong = np.flatnonzero((contrib[d] != expected).any(axis=1))
        if wrong.size:
            c = int(wrong[0])
            got = {int(s): int(k) for s, k in enumerate(contrib[d, c]) if k}
            raise CheckError(
                f"device {d} chunk {c} holds contributions {got}, "
                f"expected each of {list(groups[d])} once"
            )


def ranking_key(plan: Mapping) -> List[Tuple]:
    """What a ranking is: per strategy, its matrix, mnemonic, time and program."""
    return [
        (
            tuple(tuple(row) for row in s["matrix"]),
            s["mnemonic"],
            float(s["predicted_seconds"]).hex(),
            bool(s["is_default_all_reduce"]),
            tuple(
                (step["collective"], tuple(tuple(g) for g in step["groups"]))
                for step in s["program"]["steps"]
            ),
        )
        for s in plan["strategies"]
    ]


def check_plan(plan: Mapping, coordinates_for) -> Dict[str, float]:
    """Check one serialized plan; return its predicted speedup over AllReduce.

    ``coordinates_for(plan, matrix_entries)`` returns the parallel
    coordinates of every device under that placement.
    """
    strategies = plan["strategies"]
    if not strategies:
        raise CheckError("plan has no strategies")
    times = [float(s["predicted_seconds"]) for s in strategies]
    for t in times:
        if not (math.isfinite(t) and t > 0):
            raise CheckError(f"predicted time {t!r} is not finite and positive")
    for a, b in zip(times, times[1:]):
        if b < a:
            raise CheckError(f"ranking is not sorted by predicted time ({a!r} before {b!r})")
    defaults = [s for s in strategies if s["is_default_all_reduce"]]
    if not defaults:
        raise CheckError("plan has no default AllReduce strategy")
    default = min(defaults, key=lambda s: float(s["predicted_seconds"]))
    best = strategies[0]
    if float(best["predicted_seconds"]) > float(default["predicted_seconds"]):
        raise CheckError("best strategy is slower than the default AllReduce")
    reduced = plan["request"]["axes"]
    for strategy in (best, default):
        coordinates = coordinates_for(plan, strategy["matrix"])
        try:
            check_program(strategy["program"]["steps"], coordinates, reduced)
        except CheckError as error:
            raise CheckError(f"{strategy['mnemonic']} on {strategy['matrix']}: {error}")
    return {
        "speedup": float(default["predicted_seconds"]) / float(best["predicted_seconds"]),
    }
