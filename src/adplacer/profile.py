"""The valence profile: scenes and their scheduled ads in presentation order."""

from __future__ import annotations

from dataclasses import dataclass

from .core import Ad, AdInventory, ProgramSpec, Scene, Schedule


@dataclass(frozen=True)
class ProfilePoint:
    position: int
    kind: str  # "scene" or "ad"
    entity_id: str
    valence_0_100: float


def build_profile(
    schedule: Schedule, program: ProgramSpec, inventory: AdInventory
) -> tuple[ProfilePoint, ...]:
    """Interleave scenes with their scheduled ads, in presentation order.

    ``schedule.entries`` already run in that order: ads at slot i follow
    scene i directly (slot 0 ads precede scene 1), and several ads on one
    slot play in rank order.  Valences are exported on the 0-100 scale.
    """
    scenes = program.scenes
    shown = 0  # scenes placed so far
    order: list[tuple[str, Scene | Ad]] = []
    for entry in schedule.entries:
        if not 0 <= entry.slot <= program.slot_count:
            raise ValueError(f"slot {entry.slot} outside 0..{program.slot_count}")
        order += [("scene", scene) for scene in scenes[shown : entry.slot]]
        order.append(("ad", inventory.ad(entry.ad_id)))  # raises UnknownAdId
        shown = entry.slot
    order += [("scene", scene) for scene in scenes[shown:]]
    return tuple(
        ProfilePoint(position, kind, x.id, 100.0 * x.valence.value)
        for position, (kind, x) in enumerate(order, start=1)
    )
