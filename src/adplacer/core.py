"""Domain model for slotting ads into a scene-based video program.

A program of N ordered scenes exposes M ad slots (one per scene transition
by default, so M = N - 1); slot i immediately follows scene i.  A *strict*
schedule places K distinct ads, at most one per slot, exactly one inside
each of K contiguous slot blocks, with equally many high- and low-valence
ads.  Its reward combines a position-weighted term that favours pushing
low-valence ads toward late slots with a term rewarding emotionally
contrasting but content-relevant scene-ad pairs.

Baseline schedulers use a relaxed *baseline* schedule shape where several
ads may share one slot (ordered by rank) and the pseudo-slot 0 denotes the
insertion point before the first scene.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Literal

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateAdId,
    DuplicateSceneId,
    InfeasibleInventory,
    InfeasibleK,
    InfeasibleSchedule,
    UnknownAdId,
    ValenceOutOfRange,
)

#: Absolute tolerance used whenever two reward values are compared.
REWARD_ATOL = 1e-9

#: Valence strictly above this threshold classifies an ad as high-valence.
HV_THRESHOLD = 0.5

ScheduleMode = Literal["strict", "baseline"]


class Polarity(enum.Enum):
    """High-valence (promotional) versus low-valence (negative-message)."""

    HV = "HV"
    LV = "LV"


@dataclass(frozen=True)
class Valence:
    """Evoked-emotion positivity on the unit scale.

    External 0-100 scores must be divided by 100 before construction.
    """

    value: float

    def __post_init__(self) -> None:
        v = float(self.value) + 0.0  # -0.0 becomes 0.0
        if not math.isfinite(v) or not 0.0 <= v <= 1.0:
            raise ValenceOutOfRange(f"valence {self.value!r} outside [0, 1]")
        object.__setattr__(self, "value", v)


def classify_polarity(v: Valence) -> Polarity:
    """HV iff the valence is strictly above 0.5; exactly 0.5 counts as LV."""
    return Polarity.HV if v.value > HV_THRESHOLD else Polarity.LV


@dataclass(frozen=True)
class Scene:
    id: str
    valence: Valence


@dataclass(frozen=True)
class Ad:
    id: str
    valence: Valence

    @property
    def polarity(self) -> Polarity:
        return classify_polarity(self.valence)


@dataclass(frozen=True)
class ProgramSpec:
    """Ordered scenes plus the number of candidate ad slots.

    ``slot_count`` defaults to N - 1 (one slot per scene transition); a
    smaller value restricts placement to the first transitions only.
    """

    scenes: tuple[Scene, ...]
    slot_count: int = 0  # 0 means "default to len(scenes) - 1"

    def __post_init__(self) -> None:
        scenes = tuple(self.scenes)
        object.__setattr__(self, "scenes", scenes)
        if len(scenes) < 2:
            raise ValueError(f"a program needs at least 2 scenes, got {len(scenes)}")
        seen: set[str] = set()
        for scene in scenes:
            if scene.id in seen:
                raise DuplicateSceneId(f"duplicate scene id {scene.id!r}")
            seen.add(scene.id)
        m = int(self.slot_count) or len(scenes) - 1
        if not 1 <= m <= len(scenes) - 1:
            raise ValueError(
                f"slot_count must lie in 1..{len(scenes) - 1}, got {self.slot_count}"
            )
        object.__setattr__(self, "slot_count", m)

    @property
    def n_scenes(self) -> int:
        return len(self.scenes)

    @cached_property
    def valences(self) -> np.ndarray:
        arr = np.array([s.valence.value for s in self.scenes], dtype=float)
        arr.setflags(write=False)
        return arr


@dataclass(frozen=True)
class AdInventory:
    """The pool of candidate ads; ids must be unique."""

    ads: tuple[Ad, ...]

    def __post_init__(self) -> None:
        ads = tuple(self.ads)
        object.__setattr__(self, "ads", ads)
        if not ads:
            raise ValueError("inventory must contain at least one ad")
        seen: set[str] = set()
        for ad in ads:
            if ad.id in seen:
                raise DuplicateAdId(f"duplicate ad id {ad.id!r}")
            seen.add(ad.id)

    def __len__(self) -> int:
        return len(self.ads)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {ad.id: i for i, ad in enumerate(self.ads)}

    def __contains__(self, ad_id: str) -> bool:
        return ad_id in self._index

    def index_of(self, ad_id: str) -> int:
        try:
            return self._index[ad_id]
        except KeyError:
            raise UnknownAdId(f"ad id {ad_id!r} not in inventory") from None

    def ad(self, ad_id: str) -> Ad:
        return self.ads[self.index_of(ad_id)]

    @cached_property
    def valences(self) -> np.ndarray:
        arr = np.array([a.valence.value for a in self.ads], dtype=float)
        arr.setflags(write=False)
        return arr

    @cached_property
    def polarities(self) -> tuple[Polarity, ...]:
        return tuple(a.polarity for a in self.ads)

    @cached_property
    def hv_indices(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.polarities) if p is Polarity.HV)

    @cached_property
    def lv_indices(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.polarities) if p is Polarity.LV)


def _check_balance(inventory: AdInventory, k: int) -> int:
    """k // 2, after checking that k/2 HV and k/2 LV ads can be picked."""
    if k < 0 or k % 2:
        raise InfeasibleK(f"k must be even and non-negative, got {k}")
    half = k // 2
    hv, lv = len(inventory.hv_indices), len(inventory.lv_indices)
    if hv < half or lv < half:
        raise InfeasibleInventory(
            f"need {half} HV and {half} LV ads, inventory has {hv} HV / {lv} LV"
        )
    return half


@dataclass(frozen=True)
class RewardParams:
    """Trade-off weights and the number of ads to embed.

    ``alpha`` weights late placement of low-valence ads, ``beta`` weights
    emotional-contrast-times-relevance matching; they must sum to one.  ``k``
    must be even so the schedule can balance high- and low-valence ads.
    """

    alpha: float
    beta: float
    k: int

    def __post_init__(self) -> None:
        alpha, beta = float(self.alpha), float(self.beta)
        if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
            raise ValueError(f"alpha and beta must lie in [0, 1], got {alpha}, {beta}")
        if abs(alpha + beta - 1.0) > 1e-9:
            raise ValueError(f"alpha + beta must equal 1, got {alpha + beta!r}")
        if self.k < 0 or self.k % 2:
            raise InfeasibleK(
                f"k must be even and non-negative to balance high- and "
                f"low-valence ads, got {self.k}"
            )
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "k", int(self.k))


@dataclass(frozen=True, order=True)
class ScheduleEntry:
    """One placement: ``ad_id`` shown at ``slot``, ordered by ``rank`` inside it."""

    slot: int
    rank: int
    ad_id: str


@dataclass(frozen=True)
class Schedule:
    """An assignment of ads to slots; the solvers' decision variable.

    The same ad never appears twice.  Strict schedules additionally use
    distinct slots and rank 0 everywhere; baseline schedules may stack
    several ads on one slot, ordered by rank.
    """

    entries: tuple[ScheduleEntry, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        seen: set[str] = set()
        for e in entries:
            if e.ad_id in seen:
                raise ValueError(f"ad {e.ad_id!r} scheduled more than once")
            seen.add(e.ad_id)

    @classmethod
    def strict(cls, placements: Iterable[tuple[int, str]]) -> "Schedule":
        """Build a strict-shape schedule from (slot, ad_id) pairs."""
        return cls(tuple(ScheduleEntry(slot, 0, ad_id) for slot, ad_id in placements))

    @classmethod
    def empty(cls) -> "Schedule":
        return cls(())

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def in_slot_order(self) -> tuple[ScheduleEntry, ...]:
        return tuple(sorted(self.entries))


class RelevanceMatrix:
    """Dense scene-by-ad content-similarity matrix with entries in [-1, 1].

    Rows follow program scene order, columns follow inventory ad order.
    """

    __slots__ = ("values",)

    def __init__(self, values) -> None:
        arr = np.array(values, dtype=float)  # copy: callers must not mutate us
        if arr.ndim != 2:
            raise DimensionMismatch(
                f"relevance matrix must be 2-D, got shape {arr.shape}"
            )
        if arr.size:
            if not np.all(np.isfinite(arr)):
                raise ValueError("relevance entries must be finite")
            if arr.min() < -1.0 - 1e-9 or arr.max() > 1.0 + 1e-9:
                raise ValueError("relevance entries must lie in [-1, 1]")
            np.clip(arr, -1.0, 1.0, out=arr)
        arr.setflags(write=False)
        self.values = arr

    def __repr__(self) -> str:
        return f"RelevanceMatrix(shape={self.values.shape})"


def _check_relevance_shape(
    rel: RelevanceMatrix, program: ProgramSpec, inventory: AdInventory
) -> None:
    """Raise unless ``rel`` has one row per scene and one column per ad."""
    if rel.values.shape != (program.n_scenes, len(inventory)):
        raise DimensionMismatch(
            f"relevance matrix shape {rel.values.shape} does not match "
            f"{program.n_scenes} scenes x {len(inventory)} ads"
        )


def slot_blocks(slot_count: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Partition slots 1..slot_count into k contiguous blocks.

    Block b (1-indexed) spans slots floor((b-1)*M/k)+1 .. floor(b*M/k), so
    block sizes differ by at most one and every slot belongs to exactly one
    block.  k = 0 yields no blocks.
    """
    if k == 0:
        return ()
    if k < 0 or k > slot_count:
        raise InfeasibleK(f"cannot split {slot_count} slots into {k} blocks")
    m = slot_count
    return tuple(
        tuple(range((b - 1) * m // k + 1, b * m // k + 1)) for b in range(1, k + 1)
    )


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of a schedule validation; truthy iff the schedule passed."""

    ok: bool
    constraint: str | None = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


_PASS = ValidationResult(True)


def _fail(constraint: str, message: str) -> ValidationResult:
    return ValidationResult(False, constraint, message)


def validate_schedule(
    schedule: Schedule,
    program: ProgramSpec,
    inventory: AdInventory,
    params: RewardParams,
    mode: ScheduleMode = "strict",
) -> ValidationResult:
    """Check a schedule against the placement constraints.

    Strict mode verifies, in order: every ad exists and sits on a real slot
    with rank 0; (a) at most one ad per slot; (b) exactly k ads; (c) exactly
    one ad inside each contiguous slot block; (d) exactly k/2 high- and k/2
    low-valence ads.  Baseline mode only requires known ads, slot indices in
    0..M (0 = before scene 1), distinct (slot, rank) positions and exactly k
    entries.  Violations are reported, never raised.
    """
    m = program.slot_count
    k = params.k
    entries = schedule.entries

    for e in entries:
        if e.ad_id not in inventory:
            return _fail("unknown_ad", f"ad {e.ad_id!r} not in inventory")

    if mode == "baseline":
        bad = [e.slot for e in entries if not 0 <= e.slot <= m]
        if bad:
            return _fail("slot_range", f"slots {bad} outside 0..{m}")
        if any(e.rank < 0 for e in entries):
            return _fail("rank", "ranks must be non-negative")
        positions = [(e.slot, e.rank) for e in entries]
        if len(set(positions)) != len(positions):
            dupes = sorted({p for p in positions if positions.count(p) > 1})
            return _fail(
                "duplicate_position",
                f"(slot, rank) positions {dupes} used more than once",
            )
        if len(entries) != k:
            return _fail("ad_count", f"schedule has {len(entries)} ads, expected k={k}")
        return _PASS

    if mode != "strict":
        raise ValueError(f"unknown validation mode {mode!r}")

    bad = [e.slot for e in entries if not 1 <= e.slot <= m]
    if bad:
        return _fail("slot_range", f"slots {bad} outside 1..{m}")
    nonzero = [e.ad_id for e in entries if e.rank != 0]
    if nonzero:
        return _fail("rank", f"strict schedules require rank 0, got ranks for {nonzero}")

    # (a) at most one ad per slot
    slots = [e.slot for e in entries]
    if len(set(slots)) != len(slots):
        dupes = sorted({s for s in slots if slots.count(s) > 1})
        return _fail("slot_capacity", f"slots {dupes} hold more than one ad")

    # (b) exactly k ads in total
    if len(entries) != k:
        return _fail("ad_count", f"schedule has {len(entries)} ads, expected k={k}")

    # (c) one ad inside each contiguous block
    for b, block in enumerate(slot_blocks(m, k), start=1):
        inside = [e for e in entries if block[0] <= e.slot <= block[-1]]
        if len(inside) != 1:
            return _fail(
                "block_uniformity",
                f"block {b} (slots {block[0]}..{block[-1]}) holds "
                f"{len(inside)} ads, expected 1",
            )

    # (d) equal high- and low-valence counts
    hv = sum(1 for e in entries if inventory.ad(e.ad_id).polarity is Polarity.HV)
    lv = len(entries) - hv
    if hv != k // 2 or lv != k // 2:
        return _fail(
            "polarity_balance",
            f"schedule holds {hv} HV and {lv} LV ads, expected {k // 2} of each",
        )
    return _PASS


def reward(
    schedule: Schedule,
    program: ProgramSpec,
    inventory: AdInventory,
    rel: RelevanceMatrix,
    params: RewardParams,
) -> float:
    """Score of a strict schedule.

    Each placed ad contributes its 1-indexed slot number times
    (1 - ad valence), weighted by ``alpha``, plus |scene valence - ad
    valence| times the scene-ad relevance, weighted by ``beta``; the scene
    is the one immediately preceding the slot.  Pure function of its inputs.
    """
    check = validate_schedule(schedule, program, inventory, params, mode="strict")
    if not check:
        raise InfeasibleSchedule(f"{check.constraint}: {check.message}")
    _check_relevance_shape(rel, program, inventory)
    return _score(schedule, program, inventory, rel, params)


def _score(
    schedule: Schedule,
    program: ProgramSpec,
    inventory: AdInventory,
    rel: RelevanceMatrix,
    params: RewardParams,
) -> float:
    """``reward`` without its checks, for a schedule already validated
    strict against an N x P relevance matrix."""
    alpha, beta = params.alpha, params.beta
    scene_vals = program.valences
    total = 0.0
    for entry in schedule.in_slot_order:
        j = inventory.index_of(entry.ad_id)
        ad_val = inventory.ads[j].valence.value
        scene_val = float(scene_vals[entry.slot - 1])
        r = float(rel.values[entry.slot - 1, j])
        total += alpha * (entry.slot * (1.0 - ad_val)) + beta * (
            abs(scene_val - ad_val) * r
        )
    return total
