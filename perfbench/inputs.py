"""The benchmark's inputs: which queries each workload plans, derived from a seed.

The query *contents* are fixed (the paper's Table-4 rows and the Table-3
V100 shape); the seed only decides the order operations run in, which rung
of each ladder is re-planned for the cross-check, the testbed noise stream
and the open-loop arrival times.  Fixed contents keep every speedup metric
comparable across seeds.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, List

from repro.evaluation.config import ExperimentConfig, table3_configs, table4_configs
from repro.query import PlanQuery

__all__ = [
    "TABLE4",
    "LADDER_SHAPES",
    "LADDER_SCALES",
    "SERVE_QUERIES",
    "config",
    "query_for",
    "ladder_configs",
]

# The seven Table-4 rows, planned cold one per process.
TABLE4 = ("T4-F", "T4-G", "T4-H", "T4-I", "T4-J", "T4-K", "T4-L")
# Three ladder shapes: T4-F on A100 x2, T4-K and T4-L on V100 x4.
LADDER_SHAPES = ("T4-F", "T4-K", "T4-L")
# A payload-doubling ladder: 1/4, 1/2 and 1x the paper's payload.
LADDER_SCALES = (0.25, 0.5, 1.0)
# The daemon's warm set on V100 x4: 372, 93, 189 and 99 ranked strategies.
SERVE_QUERIES = ("T4-K", "T4-L", "T3-E-axis0-ring", "T3-E-axis1-tree")


def _configs() -> Dict[str, ExperimentConfig]:
    return {c.name: c for c in (*table4_configs(), *table3_configs())}


def config(name: str) -> ExperimentConfig:
    """A named paper configuration, or a ladder rung ``<name>@<scale>``."""
    base, _, scale = name.partition("@")
    cfg = _configs()[base]
    if scale:
        cfg = replace(cfg.scaled(float(scale)), name=name)
    return cfg


def query_for(name: str) -> PlanQuery:
    """The exhaustive, unsharded query a configuration denotes."""
    cfg = config(name)
    return PlanQuery(
        axes=cfg.parallelism(),
        request=cfg.request(),
        bytes_per_device=cfg.bytes_per_device,
        algorithm=cfg.algorithm,
        max_program_size=cfg.max_program_size,
        shards=1,
    )


def ladder_configs(rng: random.Random) -> List[str]:
    """Every rung of every ladder: shapes in seeded order, rungs ascending."""
    shapes = list(LADDER_SHAPES)
    rng.shuffle(shapes)
    return [f"{shape}@{scale:g}" for shape in shapes for scale in LADDER_SCALES]
