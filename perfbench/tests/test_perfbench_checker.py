"""The independent reduction checker rejects broken programs."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

from checker import CheckError, check_plan, check_program, reduction_groups  # noqa: E402

# Four devices on a 2 x 2 parallelism grid: device d sits at (d // 2, d % 2).
COORDS = [(0, 0), (0, 1), (1, 0), (1, 1)]


def step(collective, *groups):
    return {"collective": collective, "groups": [list(g) for g in groups]}


# An all-reduce over both axes: ReduceScatter, AllReduce, AllGather.
HIERARCHICAL = [
    step("ReduceScatter", (0, 1), (2, 3)),
    step("AllReduce", (0, 2), (1, 3)),
    step("AllGather", (0, 1), (2, 3)),
]
# Reduce to a root, then broadcast from it, over axis 1.
REDUCE_BROADCAST = [
    step("Reduce", (0, 1), (2, 3)),
    step("Broadcast", (0, 1), (2, 3)),
]


def test_reduction_groups_follow_non_reduced_coordinates():
    assert reduction_groups(COORDS, [1]) == [(0, 1), (0, 1), (2, 3), (2, 3)]
    assert reduction_groups(COORDS, [0]) == [(0, 2), (1, 3), (0, 2), (1, 3)]
    assert reduction_groups(COORDS, [0, 1]) == [(0, 1, 2, 3)] * 4


def test_correct_programs_pass():
    check_program(HIERARCHICAL, COORDS, [0, 1])
    check_program(REDUCE_BROADCAST, COORDS, [1])
    check_program([step("AllReduce", (0, 1), (2, 3))], COORDS, [1])
    check_program([step("AllReduce", (0, 1, 2, 3))], COORDS, [0, 1])


@pytest.mark.parametrize("dropped", range(3))
def test_dropped_step_is_rejected(dropped):
    program = [s for i, s in enumerate(HIERARCHICAL) if i != dropped]
    with pytest.raises(CheckError):
        check_program(program, COORDS, [0, 1])


def test_dropped_broadcast_is_rejected():
    with pytest.raises(CheckError, match="without chunks"):
        check_program(REDUCE_BROADCAST[:1], COORDS, [1])


def test_swapped_group_member_is_rejected():
    # Member order decides the root of Broadcast ...
    swapped_root = [REDUCE_BROADCAST[0], step("Broadcast", (1, 0), (2, 3))]
    with pytest.raises(CheckError):
        check_program(swapped_root, COORDS, [1])
    # ... and which block of chunks each ReduceScatter member keeps.
    swapped_block = [step("ReduceScatter", (1, 0), (2, 3)), *HIERARCHICAL[1:]]
    with pytest.raises(CheckError):
        check_program(swapped_block, COORDS, [0, 1])
    # Members swapped between groups reduce over the wrong axis.
    with pytest.raises(CheckError, match="contributions"):
        check_program([step("AllReduce", (0, 2), (1, 3))], COORDS, [1])


def test_device_repeated_across_groups_is_rejected():
    with pytest.raises(CheckError, match="appears twice"):
        check_program([step("AllReduce", (0, 1), (1, 2))], COORDS, [1])


def test_double_counting_is_rejected():
    doubled = [step("AllReduce", (0, 1), (2, 3)), step("AllReduce", (0, 1), (2, 3))]
    with pytest.raises(CheckError, match="contributions"):
        check_program(doubled, COORDS, [1])


def _plan(strategies):
    return {"request": {"axes": [1]}, "strategies": strategies}


def _strategy(seconds, steps, default=False):
    return {
        "matrix": [[1]],
        "mnemonic": "AR" if default else "RB",
        "predicted_seconds": seconds,
        "is_default_all_reduce": default,
        "program": {"steps": steps},
    }


def _coords(plan, matrix):
    return COORDS


def test_plan_properties():
    good = _plan([
        _strategy(1.0, REDUCE_BROADCAST),
        _strategy(2.0, [step("AllReduce", (0, 1), (2, 3))], default=True),
    ])
    assert check_plan(good, _coords)["speedup"] == 2.0
    unsorted = _plan(list(reversed(good["strategies"])))
    with pytest.raises(CheckError, match="sorted"):
        check_plan(unsorted, _coords)
    slower = _plan([
        _strategy(1.0, [step("AllReduce", (0, 1), (2, 3))], default=True),
        _strategy(2.0, REDUCE_BROADCAST),
    ])
    slower["strategies"][0]["is_default_all_reduce"] = False
    with pytest.raises(CheckError, match="no default"):
        check_plan(slower, _coords)
    for bad in (0.0, float("inf"), float("nan")):
        broken = _plan([_strategy(bad, REDUCE_BROADCAST, default=True)])
        with pytest.raises(CheckError, match="finite"):
            check_plan(broken, _coords)


def test_agrees_with_a_real_plan():
    """Every strategy the planner ranks for a small query passes; a truncated one fails."""
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
    from repro.hierarchy.placement import DevicePlacement
    from repro.query import PlanQuery
    from repro.service.engine import PlanningService
    from repro.topology.gcp import a100_system

    service = PlanningService(a100_system(num_nodes=2))
    query = PlanQuery(
        axes=ParallelismAxes((8, 4)), request=ReductionRequest((1,)),
        bytes_per_device=1 << 25, max_program_size=3,
    )
    plan = service.plan(query).plan
    assert len(plan.strategies) > 3
    for strategy in plan.strategies:
        placement = DevicePlacement(strategy.matrix)
        coords = [placement.parallel_coordinates(d) for d in range(placement.num_devices)]
        steps = strategy.program.to_dict()["steps"]
        check_program(steps, coords, [1])
        with pytest.raises(CheckError):
            check_program(steps[:-1], coords, [1])
