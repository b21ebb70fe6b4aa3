"""The valence profile: scenes and their scheduled ads in presentation order."""

from __future__ import annotations

from dataclasses import dataclass

from .core import AdInventory, ProgramSpec, Schedule, ScheduleEntry


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

    Ads at slot i follow scene i directly (slot 0 ads precede scene 1);
    several ads on one slot play in rank order.  Valences are exported on
    the 0-100 scale.
    """
    by_slot: dict[int, list[ScheduleEntry]] = {}
    for entry in schedule.entries:
        if not 0 <= entry.slot <= program.slot_count:
            raise ValueError(
                f"slot {entry.slot} outside 0..{program.slot_count}"
            )
        by_slot.setdefault(entry.slot, []).append(entry)
    for group in by_slot.values():
        group.sort(key=lambda e: (e.rank, e.ad_id))

    points: list[ProfilePoint] = []

    def emit_ads(slot: int) -> None:
        for entry in by_slot.get(slot, ()):
            ad = inventory.ad(entry.ad_id)  # raises UnknownAdId
            points.append(
                ProfilePoint(len(points) + 1, "ad", ad.id, 100.0 * ad.valence.value)
            )

    emit_ads(0)
    for i, scene in enumerate(program.scenes, start=1):
        points.append(
            ProfilePoint(len(points) + 1, "scene", scene.id, 100.0 * scene.valence.value)
        )
        emit_ads(i)
    return tuple(points)
