"""The trivial head-and-midpoint scheduler."""

import pytest

from adplacer import random_instance, trivial_schedule
from adplacer.core import RewardParams, validate_schedule
from adplacer.errors import InfeasibleK

from util import ODD_K, make_inventory, make_program, polarity_counts


def twelve_scene_program():
    return make_program(*[0.1 + 0.07 * i for i in range(12)])


def test_twelve_scenes_eight_ads_split_head_and_midpoint():
    program = twelve_scene_program()
    _, inventory, _ = random_instance(24, 11, 1)
    schedule = trivial_schedule(program, inventory, 8, seed=3)
    slots = sorted(e.slot for e in schedule.entries)
    assert slots == [0, 0, 0, 0, 6, 6, 6, 6]  # head, and before scene 7
    for slot in (0, 6):
        ranks = sorted(e.rank for e in schedule.entries if e.slot == slot)
        assert ranks == [0, 1, 2, 3]
    assert polarity_counts(schedule, inventory) == (4, 4)


def test_small_program_midpoint():
    # the midpoint is the slot before scene ceil(N/2) + 1
    inventory = make_inventory(0.9, 0.1)
    for valences, midpoint in [((0.2, 0.9, 0.4, 0.6), 2), ((0.2, 0.9, 0.4, 0.6, 0.3), 3)]:
        schedule = trivial_schedule(make_program(*valences), inventory, 2, seed=0)
        assert sorted(e.slot for e in schedule.entries) == [0, midpoint]


def test_midpoint_clamped_to_slot_count():
    # N = 10 puts the midpoint at slot 5, past the 3 usable slots
    program = make_program(*[0.1 * i for i in range(1, 11)], slot_count=3)
    inventory = make_inventory(0.9, 0.8, 0.1, 0.2)
    params = RewardParams(0.5, 0.5, 2)
    for seed in range(20):
        schedule = trivial_schedule(program, inventory, 2, seed)
        assert sorted(e.slot for e in schedule.entries) == [0, 3]
        assert validate_schedule(schedule, program, inventory, params)


def test_k_zero_is_empty():
    program = twelve_scene_program()
    inventory = make_inventory(0.9, 0.1)
    assert len(trivial_schedule(program, inventory, 0, seed=5)) == 0


def test_seed_determinism_and_variability():
    program = twelve_scene_program()
    _, inventory, _ = random_instance(24, 11, 2)
    seen = set()
    for seed in range(100):
        first = trivial_schedule(program, inventory, 8, seed)
        second = trivial_schedule(program, inventory, 8, seed)
        assert first == second
        seen.add(first.entries)
    assert len(seen) > 1  # different seeds eventually differ


def test_always_passes_baseline_validation():
    program = twelve_scene_program()
    _, inventory, _ = random_instance(10, 11, 4)
    params = RewardParams(0.5, 0.5, 4)
    for seed in range(50):
        schedule = trivial_schedule(program, inventory, 4, seed)
        assert validate_schedule(schedule, program, inventory, params)
        assert polarity_counts(schedule, inventory) == (2, 2)


def test_infeasible_inventory():
    program = twelve_scene_program()
    inventory = make_inventory(0.9, 0.8)  # HV only
    with pytest.raises(InfeasibleK, match="need 1 HV and 1 LV ads, inventory has 2 HV / 0 LV"):
        trivial_schedule(program, inventory, 2, seed=0)


def test_odd_k_rejected():
    program = twelve_scene_program()
    inventory = make_inventory(0.9, 0.1)
    with pytest.raises(InfeasibleK, match=ODD_K):
        trivial_schedule(program, inventory, 3, seed=0)
