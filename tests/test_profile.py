"""Profile interleaving in presentation order."""

import pytest

from adplacer.baselines import trivial_schedule
from adplacer.core import RewardParams, Schedule, ScheduleEntry
from adplacer.errors import UnknownAdId
from adplacer.instances import random_instance
from adplacer.profile import build_profile
from adplacer.solvers import solve_assignment

from util import make_inventory, make_program


def test_empty_schedule_gives_scene_sequence():
    program = make_program(0.9, 0.1, 0.8)
    inventory = make_inventory(0.8, 0.2)
    profile = build_profile(Schedule.empty(), program, inventory)
    assert [p.kind for p in profile] == ["scene"] * 3
    assert [p.position for p in profile] == [1, 2, 3]
    assert [p.valence_0_100 for p in profile] == [90.0, 10.0, 80.0]


def test_ad_follows_its_slot_scene():
    program = make_program(0.9, 0.1, 0.8)
    inventory = make_inventory(0.8, 0.2)
    schedule = Schedule.strict([(1, "a1")])
    profile = build_profile(schedule, program, inventory)
    assert [(p.kind, p.entity_id) for p in profile] == [
        ("scene", "s1"),
        ("ad", "a1"),
        ("scene", "s2"),
        ("scene", "s3"),
    ]


def test_head_slot_ads_precede_first_scene_in_rank_order():
    program = make_program(0.9, 0.1, 0.8)
    inventory = make_inventory(0.8, 0.2)
    schedule = Schedule((ScheduleEntry(0, 1, "a2"), ScheduleEntry(0, 0, "a1")))
    profile = build_profile(schedule, program, inventory)
    assert [p.entity_id for p in profile[:2]] == ["a1", "a2"]
    assert profile[2].kind == "scene"


def test_point_count_and_scene_recovery():
    program, inventory, rel = random_instance(12, 11, 8)
    schedule = trivial_schedule(program, inventory, 6, seed=2)
    profile = build_profile(schedule, program, inventory)
    assert len(profile) == program.n_scenes + 6
    assert [p.position for p in profile] == list(
        range(1, len(profile) + 1)
    )
    scene_ids = [p.entity_id for p in profile if p.kind == "scene"]
    assert scene_ids == [s.id for s in program.scenes]


def test_solved_schedule_profile_positions():
    program, inventory, rel = random_instance(12, 11, 15)
    params = RewardParams(0.5, 0.5, 4)
    report = solve_assignment(program, inventory, rel, params)
    profile = build_profile(report.schedule, program, inventory)
    assert len(profile) == program.n_scenes + 4
    ad_points = [p for p in profile if p.kind == "ad"]
    slots = sorted(e.slot for e in report.schedule.entries)
    # an ad at slot i is preceded by i scenes and any earlier ads
    for rank, point in enumerate(sorted(ad_points, key=lambda p: p.position)):
        assert point.position == slots[rank] + rank + 1


def test_unknown_ad():
    program = make_program(0.9, 0.1)
    inventory = make_inventory(0.8)
    schedule = Schedule.strict([(1, "ghost")])
    with pytest.raises(UnknownAdId):
        build_profile(schedule, program, inventory)


def test_embedding_contrasting_ads_raises_variation():
    program, inventory, rel = random_instance(16, 9, 77)
    params = RewardParams(0.5, 0.5, 4)
    report = solve_assignment(program, inventory, rel, params)
    # the profile's total variation: the sum of absolute valence steps
    with_ads, without = (
        sum(abs(q.valence_0_100 - p.valence_0_100) for p, q in zip(points, points[1:]))
        for points in (
            build_profile(report.schedule, program, inventory),
            build_profile(Schedule.empty(), program, inventory),
        )
    )
    assert with_ads > without
