"""Shared instance builders for the test suite."""

from __future__ import annotations

import random

import numpy as np

from adplacer.core import (
    Ad,
    AdInventory,
    Polarity,
    ProgramSpec,
    RelevanceMatrix,
    RewardParams,
    Scene,
    Schedule,
    Valence,
    slot_blocks,
)

#: The one message for an odd or negative k, wherever it is checked.
ODD_K = r"^k must be even and non-negative to balance high- and low-valence ads, got -?\d+$"


def make_program(*valences: float, slot_count: int = 0) -> ProgramSpec:
    scenes = tuple(Scene(f"s{i}", Valence(v)) for i, v in enumerate(valences, start=1))
    return ProgramSpec(scenes, slot_count)


def make_inventory(*valences: float) -> AdInventory:
    return AdInventory(
        tuple(Ad(f"a{i}", Valence(v)) for i, v in enumerate(valences, start=1))
    )


def const_rel(n_scenes: int, n_ads: int, value: float = 1.0) -> RelevanceMatrix:
    return RelevanceMatrix(np.full((n_scenes, n_ads), value))


def two_ad_instance():
    """The hand-scored 3-scene / 2-ad instance used across the suite.

    With alpha = beta = 0.5 and all-ones relevance, placing a2 (valence 0.2)
    at slot 1 and a1 (valence 0.8) at slot 2 scores 1.3; the swapped
    placement scores 1.0.
    """
    program = make_program(0.9, 0.1, 0.8)
    inventory = make_inventory(0.8, 0.2)
    rel = const_rel(3, 2)
    params = RewardParams(0.5, 0.5, 2)
    return program, inventory, rel, params


def random_feasible_schedule(
    program: ProgramSpec, inventory: AdInventory, k: int, rng: random.Random
) -> Schedule:
    """A uniformly random strict-feasible schedule (balanced subset, one
    random slot per block, random ad order)."""
    half = k // 2
    hv = [a.id for a in inventory.ads if a.polarity is Polarity.HV]
    lv = [a.id for a in inventory.ads if a.polarity is Polarity.LV]
    chosen = rng.sample(hv, half) + rng.sample(lv, half)
    rng.shuffle(chosen)
    slots = [rng.choice(block) for block in slot_blocks(program.slot_count, k)]
    return Schedule.strict(zip(slots, chosen))


def polarity_counts(schedule: Schedule, inventory: AdInventory) -> tuple[int, int]:
    hv = sum(
        1
        for e in schedule.entries
        if inventory.ad(e.ad_id).polarity is Polarity.HV
    )
    return hv, len(schedule.entries) - hv
