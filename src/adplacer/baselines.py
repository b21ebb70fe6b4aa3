"""Naive scheduler used as a comparison point for the exact solvers."""

from __future__ import annotations

import math
import random

from .core import AdInventory, ProgramSpec, Schedule, ScheduleEntry, _check_balance


def trivial_schedule(
    program: ProgramSpec, inventory: AdInventory, k: int, seed: int
) -> Schedule:
    """Pick a balanced ad set at random and pile it at the head and midpoint.

    After a seeded shuffle the first k/2 ads go to the head insertion point
    (slot 0, before scene 1) and the rest to the slot before scene
    ceil(N/2) + 1, or to the last usable slot when ``slot_count`` stops
    short of it; ``rank`` encodes the play order inside each group.  The
    RNG is the stdlib Mersenne Twister, so equal seeds give equal schedules.
    """
    half = _check_balance(inventory, k)
    hv_ids = [inventory.ads[i].id for i in inventory.hv_indices]
    lv_ids = [inventory.ads[i].id for i in inventory.lv_indices]
    rng = random.Random(seed)
    chosen = rng.sample(hv_ids, half) + rng.sample(lv_ids, half)
    rng.shuffle(chosen)

    mid_slot = min(math.ceil(program.n_scenes / 2), program.slot_count)
    entries = [ScheduleEntry(0, r, ad_id) for r, ad_id in enumerate(chosen[:half])]
    entries += [
        ScheduleEntry(mid_slot, r, ad_id) for r, ad_id in enumerate(chosen[half:])
    ]
    return Schedule(tuple(entries))
