"""Seeded random problem instances for the tests and library users."""

from __future__ import annotations

import numpy as np

from .core import Ad, AdInventory, ProgramSpec, RelevanceMatrix, Scene, Valence


def random_instance(
    n_ads: int, n_slots: int, seed: int
) -> tuple[ProgramSpec, AdInventory, RelevanceMatrix]:
    """A reproducible random instance with alternating HV/LV ads.

    Even ad indices get valences strictly above 0.5 (HV), odd indices strictly
    below (LV), so an inventory of P ads holds ceil(P/2) HV and floor(P/2) LV
    ads.  Scene valences and relevance entries are uniform over their ranges.
    """
    if n_ads < 1 or n_slots < 1:
        raise ValueError("need at least one ad and one slot")
    rng = np.random.default_rng(seed)
    n_scenes = n_slots + 1
    scenes = tuple(
        Scene(f"sc{i:03d}", Valence(float(v)))
        for i, v in enumerate(rng.random(n_scenes), start=1)
    )
    ads = []
    for i in range(n_ads):
        if i % 2 == 0:
            v = 0.5 + 0.5 * float(rng.random())
            while v <= 0.5:  # rng.random() can return exactly 0.0
                v = 0.5 + 0.5 * float(rng.random())
        else:
            v = 0.5 * float(rng.random())
        ads.append(Ad(f"ad{i:03d}", Valence(v)))
    rel = RelevanceMatrix(rng.uniform(-1.0, 1.0, size=(n_scenes, n_ads)))
    return ProgramSpec(scenes), AdInventory(tuple(ads)), rel
