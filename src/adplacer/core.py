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
insertion point before the first scene.  A ``Schedule`` carries its shape
as ``mode``; validation checks the rules of that shape, and only a strict
schedule has a reward.  ``build_profile`` exports the valence profile:
scenes and their scheduled ads in presentation order.  ``random_instance``
builds seeded random instances for the tests and library users.  Each type
checks its own arguments, ``slot_count`` and ``k`` being integers.
"""

from __future__ import annotations

import enum
import math
import numbers
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Literal

import numpy as np

from .errors import InfeasibleK, InfeasibleSchedule, InputError, UnknownAdId

#: Absolute tolerance for comparing the rewards of two different schedules, such
#: as tied optima; ``perfbench/oracle.py`` imports it.
REWARD_ATOL = 1e-9

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
        # ints and floats compare exactly: an integer beyond the float range fails, as does NaN
        if not 0 <= self.value <= 1:
            raise InputError(f"valence {self.value!r} outside [0, 1]")
        object.__setattr__(self, "value", float(self.value) + 0.0)  # -0.0 becomes 0.0


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
        """HV iff the valence is strictly above 0.5; exactly 0.5 counts as LV."""
        return Polarity.HV if self.valence.value > 0.5 else Polarity.LV


def _is_integer(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)  # numpy's too


@dataclass(frozen=True)
class ProgramSpec:
    """Ordered scenes plus the number of candidate ad slots.

    ``slot_count``, an integer, defaults to N - 1 (one slot per scene
    transition); a smaller value restricts placement to the first ones only.
    """

    scenes: tuple[Scene, ...]
    slot_count: int = 0  # 0 means "default to len(scenes) - 1"

    def __post_init__(self) -> None:
        if not _is_integer(self.slot_count):
            raise ValueError(f"'slot_count' must be an integer, got {self.slot_count!r}")
        scenes = tuple(self.scenes)
        object.__setattr__(self, "scenes", scenes)
        if len(scenes) < 2:
            raise ValueError(f"a program needs at least 2 scenes, got {len(scenes)}")
        seen: set[str] = set()
        for scene in scenes:
            if scene.id in seen:
                raise InputError(f"duplicate scene id {scene.id!r}")
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
        index: dict[str, int] = {}
        for i, ad in enumerate(ads):
            if index.setdefault(ad.id, i) != i:
                raise InputError(f"duplicate ad id {ad.id!r}")
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.ads)

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


def _half(k: int) -> int:
    """k // 2, after checking that k is even and non-negative."""
    if k < 0 or k % 2:
        raise InfeasibleK(
            f"k must be even and non-negative to balance high- and "
            f"low-valence ads, got {k}"
        )
    return k // 2


def _check_balance(inventory: AdInventory, k: int) -> int:
    """k // 2, after checking that k/2 HV and k/2 LV ads can be picked."""
    half = _half(k)
    hv = inventory.polarities.count(Polarity.HV)
    lv = len(inventory) - hv
    if hv < half or lv < half:
        raise InfeasibleK(
            f"need {half} HV and {half} LV ads, inventory has {hv} HV / {lv} LV"
        )
    return half


def _check_feasible(program: ProgramSpec, inventory: AdInventory, k: int) -> None:
    """Raise unless k ads fit the program's slots and the inventory's balance."""
    if k > program.slot_count:
        raise InfeasibleK(f"k={k} exceeds the {program.slot_count} available slots")
    _check_balance(inventory, k)


@dataclass(frozen=True)
class RewardParams:
    """Trade-off weights and the number of ads to embed.

    ``alpha`` weights late placement of low-valence ads, ``beta`` weights
    emotional-contrast-times-relevance matching; they must sum to one.  ``k``
    must be an even integer so the schedule can balance HV and LV ads.
    """

    alpha: float
    beta: float
    k: int

    def __post_init__(self) -> None:
        alpha, beta = float(self.alpha), float(self.beta)
        if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
            raise InputError(f"alpha and beta must lie in [0, 1], got {alpha}, {beta}")
        if abs(alpha + beta - 1.0) > 1e-9:
            raise InputError(f"alpha + beta must equal 1, got {alpha + beta!r}")
        if not _is_integer(self.k):
            raise InputError(f"'k' must be an integer, got {self.k!r}")
        _half(self.k)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "k", int(self.k))


def _term(slot, ad_val, scene_val, r, params: RewardParams):
    """One placed ad's reward, the one statement of it: ``alpha`` * slot * (1 - ad
    valence) + ``beta`` * |scene valence - ad valence| * relevance, the scene being
    the one right before the slot.  Takes numbers or broadcasting arrays."""
    return params.alpha * (slot * (1.0 - ad_val)) + params.beta * (
        abs(scene_val - ad_val) * r
    )


@dataclass(frozen=True, order=True)
class ScheduleEntry:
    """One placement: ``ad_id`` shown at ``slot``, ordered by ``rank`` inside it."""

    slot: int
    rank: int
    ad_id: str


@dataclass(frozen=True)
class Schedule:
    """An assignment of ads to slots, in the shape its ``mode`` names.

    The same ad never appears twice.  A ``strict`` schedule is the solvers'
    decision variable: distinct slots and rank 0 everywhere.  A ``baseline``
    schedule may stack several ads on one slot, ordered by rank, and use
    slot 0.  ``entries`` are stored in presentation order (slot, then rank,
    then ad id) whatever order they were given in, so schedules with the same
    placements and mode compare equal.
    """

    entries: tuple[ScheduleEntry, ...]
    mode: ScheduleMode = "strict"

    def __post_init__(self) -> None:
        if self.mode not in ("strict", "baseline"):
            raise ValueError(f"'mode' must be 'strict' or 'baseline', got {self.mode!r}")
        entries = tuple(sorted(self.entries))
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


class RelevanceMatrix:
    """Dense scene-by-ad content-similarity matrix with entries in [-1, 1].

    Rows follow program scene order, columns follow inventory ad order.
    Entries up to 1e-9 outside [-1, 1] are rounding and are clipped into
    it; anything further out is rejected.
    """

    __slots__ = ("values",)

    def __init__(self, values) -> None:
        arr = np.array(values, dtype=float)  # copy: callers must not mutate us
        if arr.ndim != 2:
            raise InputError(f"relevance matrix must be 2-D, got shape {arr.shape}")
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
        raise InputError(
            f"relevance matrix shape {rel.values.shape} does not match "
            f"{program.n_scenes} scenes x {len(inventory)} ads"
        )


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


def slot_blocks(slot_count: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Partition slots 1..slot_count into k contiguous blocks.

    Block b (1-indexed) spans slots floor((b-1)*M/k)+1 .. floor(b*M/k), so
    block sizes differ by at most one and every slot belongs to exactly one
    block.  k = 0 yields no blocks.
    """
    if k < 0 or k > slot_count:
        raise InfeasibleK(f"cannot split {slot_count} slots into {k} blocks")
    m = slot_count
    return tuple(
        tuple(range((b - 1) * m // k + 1, b * m // k + 1)) for b in range(1, k + 1)
    )


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of a schedule validation; truthy iff the schedule passed."""

    constraint: str | None = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.constraint is None


def validate_schedule(
    schedule: Schedule,
    program: ProgramSpec,
    inventory: AdInventory,
    params: RewardParams,
) -> ValidationResult:
    """Check a schedule against the placement constraints of ``schedule.mode``.

    Both modes verify, in order: every ad exists; every slot lies in
    first..M, where first is 1 in strict mode and 0 (before scene 1) in
    baseline mode; ranks are 0 (strict) or non-negative (baseline); (a) no
    place holds two ads, a place being a slot in strict mode and a (slot,
    rank) position in baseline mode; (b) exactly k ads.  Strict mode then
    requires (c) exactly one ad inside each contiguous slot block and (d)
    exactly k/2 high- and k/2 low-valence ads.  The checks read
    ``schedule.entries`` in presentation order, so a reused place is two
    equal neighbours and a block's ads are one run of slots.  Violations are
    reported, never raised.
    """
    strict = schedule.mode == "strict"
    first, m, k = (1 if strict else 0), program.slot_count, params.k
    entries = schedule.entries

    for e in entries:
        if e.ad_id not in inventory:
            return ValidationResult("unknown_ad", f"ad {e.ad_id!r} not in inventory")
    bad = [e.slot for e in entries if not first <= e.slot <= m]
    if bad:
        return ValidationResult("slot_range", f"slots {bad} outside {first}..{m}")
    if strict:
        nonzero = [e.ad_id for e in entries if e.rank != 0]
        if nonzero:
            return ValidationResult(
                "rank", f"strict schedules require rank 0, got ranks for {nonzero}"
            )
    elif any(e.rank < 0 for e in entries):
        return ValidationResult("rank", "ranks must be non-negative")
    # (a) strict ranks are all 0 here, so a (slot, rank) place is its slot
    reused: list[tuple[int, int]] = []
    for prev, e in zip(entries, entries[1:]):
        place = (e.slot, e.rank)
        if place == (prev.slot, prev.rank) and place not in reused[-1:]:
            reused.append(place)
    if reused and strict:
        return ValidationResult(
            "slot_capacity", f"slots {[s for s, _ in reused]} hold more than one ad"
        )
    if reused:
        return ValidationResult(
            "duplicate_position", f"(slot, rank) positions {reused} used more than once"
        )
    if len(entries) != k:  # (b)
        return ValidationResult("ad_count", f"schedule has {len(entries)} ads, expected k={k}")
    if not strict:
        return ValidationResult()

    # (c) one ad inside each contiguous block
    slots = [e.slot for e in entries]
    for b, block in enumerate(slot_blocks(m, k), start=1):
        inside = bisect_right(slots, block[-1]) - bisect_left(slots, block[0])
        if inside != 1:
            return ValidationResult(
                "block_uniformity",
                f"block {b} (slots {block[0]}..{block[-1]}) holds {inside} ads, expected 1",
            )

    # (d) equal high- and low-valence counts
    hv = sum(1 for e in entries if inventory.ad(e.ad_id).polarity is Polarity.HV)
    lv = len(entries) - hv
    if hv != k // 2 or lv != k // 2:
        return ValidationResult(
            "polarity_balance",
            f"schedule holds {hv} HV and {lv} LV ads, expected {k // 2} of each",
        )
    return ValidationResult()


def reward(
    schedule: Schedule,
    program: ProgramSpec,
    inventory: AdInventory,
    rel: RelevanceMatrix,
    params: RewardParams,
) -> float:
    """Score of a strict schedule; any other raises ``InfeasibleSchedule``.

    The correctly rounded sum (``math.fsum``) of ``_term`` over the k placed
    (slot, ad) pairs, whatever their order.  Pure function of its inputs.
    """
    check = validate_schedule(schedule, program, inventory, params)
    if not check:
        raise InfeasibleSchedule(f"{check.constraint}: {check.message}")
    _check_relevance_shape(rel, program, inventory)
    if schedule.mode != "strict":
        raise InfeasibleSchedule(f"only a strict schedule has a reward, got {schedule.mode!r}")
    slots = np.array([e.slot for e in schedule.entries], dtype=int)
    ads = np.array([inventory.index_of(e.ad_id) for e in schedule.entries], dtype=int)
    terms = _term(slots, inventory.valences[ads], program.valences[slots - 1],
                  rel.values[slots - 1, ads], params)
    return math.fsum(terms.tolist())


@dataclass(frozen=True)
class ProfilePoint:
    position: int
    kind: str
    entity_id: str
    valence_0_100: float

    def __post_init__(self) -> None:
        if self.position < 1:
            raise ValueError(f"'position' must be at least 1, got {self.position}")
        if self.kind not in ("scene", "ad"):
            raise ValueError(f"'kind' must be 'scene' or 'ad', got {self.kind!r}")
        if not 0 <= self.valence_0_100 <= 100:  # NaN fails too
            raise ValueError(f"'valence_0_100' {self.valence_0_100!r} outside [0, 100]")


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
