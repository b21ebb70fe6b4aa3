"""Solvers maximizing the placement reward under the strict constraints.

Two routes: exhaustive enumeration over balanced ad subsets and their
block-respecting placements (the capped test oracle), and the exact
polynomial route - a block reduction solved as one quota-padded max-weight
assignment.  Each route reports the objective it optimized; callers
re-score the schedule to check it.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import (
    AdInventory,
    Polarity,
    ProgramSpec,
    RelevanceMatrix,
    RewardParams,
    Schedule,
    _check_balance,
    as_relevance,
    slot_blocks,
)
from .errors import (
    DimensionMismatch,
    InfeasibleK,
    InstanceTooLarge,
)

#: Brute force refuses instances with more candidate schedules than this.
DEFAULT_CANDIDATE_CAP = 10**8

BRUTE_FORCE = "brute_force"
ASSIGNMENT = "assignment"


@dataclass(frozen=True)
class SolveReport:
    """A solver's answer plus its work statistics.

    ``reward`` is the objective the solver optimized, summed from its own
    per-(slot, ad) contributions, or None for the trivial baseline, which
    optimizes nothing; ``candidates_evaluated`` counts fully scored
    schedules (1 for the assignment).
    """

    schedule: Schedule
    reward: float | None
    solver: str
    candidates_evaluated: int
    wall_time: float

    @property
    def nodes_pruned(self) -> None:
        """Always None: no route prunes a search tree.  Report format
        ``adplacer-report/1`` still carries the key."""
        return None


def _check_instance(
    program: ProgramSpec,
    inventory: AdInventory,
    rel: RelevanceMatrix,
    params: RewardParams,
) -> None:
    if rel.values.shape != (program.n_scenes, len(inventory)):
        raise DimensionMismatch(
            f"relevance matrix shape {rel.values.shape} does not match "
            f"{program.n_scenes} scenes x {len(inventory)} ads"
        )
    if params.k > program.slot_count:
        raise InfeasibleK(
            f"k={params.k} exceeds the {program.slot_count} available slots"
        )
    _check_balance(inventory, params.k)


def _contributions(
    program: ProgramSpec,
    inventory: AdInventory,
    rel: RelevanceMatrix,
    params: RewardParams,
) -> np.ndarray:
    """Per-(slot, ad) reward contribution; row i-1 is slot i (1-indexed)."""
    m = program.slot_count
    slots = np.arange(1, m + 1, dtype=float)[:, None]
    ad_vals = inventory.valences[None, :]
    scene_vals = program.valences[:m, None]
    r = rel.values[:m, :]
    return params.alpha * (slots * (1.0 - ad_vals)) + params.beta * (
        np.abs(scene_vals - ad_vals) * r
    )


def _iter_balanced_index_subsets(
    inventory: AdInventory, k: int
) -> Iterator[tuple[int, ...]]:
    """All k-subsets of ad indices with k/2 of each polarity, lexicographic."""
    half = _check_balance(inventory, k)
    is_hv = [p is Polarity.HV for p in inventory.polarities]
    n = len(is_hv)
    # suffix availability for pruning dead branches early
    hv_left = [0] * (n + 1)
    lv_left = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        hv_left[i] = hv_left[i + 1] + (1 if is_hv[i] else 0)
        lv_left[i] = lv_left[i + 1] + (0 if is_hv[i] else 1)

    acc: list[int] = []

    def rec(start: int, need_hv: int, need_lv: int) -> Iterator[tuple[int, ...]]:
        if need_hv == 0 and need_lv == 0:
            yield tuple(acc)
            return
        if need_hv > hv_left[start] or need_lv > lv_left[start]:
            return
        for i in range(start, n):
            if is_hv[i]:
                if need_hv == 0:
                    continue
                take_hv, take_lv = 1, 0
            else:
                if need_lv == 0:
                    continue
                take_hv, take_lv = 0, 1
            acc.append(i)
            yield from rec(i + 1, need_hv - take_hv, need_lv - take_lv)
            acc.pop()

    yield from rec(0, half, half)


def count_balanced_subsets(inventory: AdInventory, k: int) -> int:
    half = k // 2
    return math.comb(len(inventory.hv_indices), half) * math.comb(
        len(inventory.lv_indices), half
    )


def enumerate_balanced_subsets(
    inventory: AdInventory, k: int
) -> Iterator[tuple[str, ...]]:
    """Every k-subset of ad ids with exactly k/2 HV and k/2 LV ads.

    Yielded exactly once each, lexicographically by inventory ad index.
    """
    for idx_subset in _iter_balanced_index_subsets(inventory, k):
        yield tuple(inventory.ads[i].id for i in idx_subset)


def _iter_placements_idx(
    ads: Sequence, blocks: tuple[tuple[int, ...], ...]
) -> Iterator[tuple[tuple[int, object], ...]]:
    """All (slot, ad) assignments, one ad per block, deterministic order.

    Orderings of the given ads come first (lexicographic relative to the
    input sequence), then the slot choice within each block, block by block.
    """
    for perm in itertools.permutations(ads):
        for slot_choice in itertools.product(*blocks):
            yield tuple(zip(slot_choice, perm))


def enumerate_placements(
    subset: Iterable[str], program: ProgramSpec, k: int
) -> Iterator[Schedule]:
    """Every strict-feasible placement of the given ads, as schedules.

    Each of the k! ad orderings is combined with each choice of one slot per
    contiguous block.  Sets are sorted for determinism; sequences keep their
    given order as the permutation base.
    """
    ads = sorted(subset) if isinstance(subset, (set, frozenset)) else list(subset)
    if len(set(ads)) != len(ads):
        raise ValueError("subset contains repeated ad ids")
    if len(ads) != k:
        raise ValueError(f"subset has {len(ads)} ads, expected k={k}")
    blocks = slot_blocks(program.slot_count, k)
    yield from map(Schedule.strict, _iter_placements_idx(ads, blocks))


def solve_brute_force(
    program: ProgramSpec,
    inventory: AdInventory,
    rel: RelevanceMatrix,
    params: RewardParams,
    *,
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> SolveReport:
    """Exhaustively score every feasible schedule and keep the best.

    Ties go to the first schedule in enumeration order (lexicographic in
    subset, ad ordering, then slot choice).  Raises InstanceTooLarge when
    the candidate count exceeds ``cap``.
    """
    start = time.perf_counter()
    rel = as_relevance(rel)
    _check_instance(program, inventory, rel, params)
    k = params.k
    blocks = slot_blocks(program.slot_count, k)
    total = (
        count_balanced_subsets(inventory, k)
        * math.factorial(k)
        * math.prod(len(b) for b in blocks)
    )
    if total > cap:
        raise InstanceTooLarge(
            f"{total} candidate schedules exceed the cap of {cap}; "
            f"use --solver bnb"
        )

    c_rows = _contributions(program, inventory, rel, params).tolist()
    best_val = -math.inf
    best_placement: tuple[tuple[int, int], ...] | None = None
    count = 0
    for subset in _iter_balanced_index_subsets(inventory, k):
        for placement in _iter_placements_idx(subset, blocks):
            value = 0.0
            for slot, j in placement:
                value += c_rows[slot - 1][j]
            if value > best_val:
                best_val = value
                best_placement = placement
            count += 1

    assert best_placement is not None and count == total
    schedule = Schedule.strict(
        (slot, inventory.ads[j].id) for slot, j in best_placement
    )
    return SolveReport(
        schedule=schedule,
        reward=best_val,
        solver=BRUTE_FORCE,
        candidates_evaluated=count,
        wall_time=time.perf_counter() - start,
    )


def _block_values(
    program: ProgramSpec,
    inventory: AdInventory,
    rel: RelevanceMatrix,
    params: RewardParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The block reduction behind the exact assignment.

    Blocks are disjoint and each takes exactly one ad, so an ad placed in
    block b always sits on the block's slot where it contributes most.
    Returns the k x P values g[b, j] of those contributions, the k x P
    1-indexed slots that attain them (earliest slot on ties), and the HV
    mask over ads.
    """
    rel = as_relevance(rel)
    _check_instance(program, inventory, rel, params)
    c = _contributions(program, inventory, rel, params)
    blocks = slot_blocks(program.slot_count, params.k)
    n_ads = len(inventory)
    cols = np.arange(n_ads)
    g = np.empty((len(blocks), n_ads))
    best_slot = np.empty((len(blocks), n_ads), dtype=int)
    for b, block in enumerate(blocks):
        rows = c[block[0] - 1 : block[-1]]
        best = rows.argmax(axis=0)
        g[b] = rows[best, cols]
        best_slot[b] = block[0] + best
    is_hv = np.array([p is Polarity.HV for p in inventory.polarities])
    return g, best_slot, is_hv


def solve_assignment(
    program: ProgramSpec,
    inventory: AdInventory,
    rel: RelevanceMatrix,
    params: RewardParams,
) -> SolveReport:
    """Exact optimum as one quota-padded max-weight assignment.

    One square P x P ``linear_sum_assignment`` has k block rows weighted by
    the block values, |HV| - k/2 dummy rows that may take only HV ads and
    |LV| - k/2 dummy rows that may take only LV ads, both at weight 0.
    Every ad is matched, so the dummies absorb all but k/2 ads of each
    polarity and exactly k/2 HV ads land in blocks.

    This solves the placement LP over block-by-ad variables x[b, j] in
    [0, 1] (unit mass per block, at most unit mass per ad, HV mass k/2)
    exactly: its constraint rows form two laminar families, so the matrix
    is totally unimodular (Hoffman & Kruskal) and the LP optimum is attained
    at an integral vertex, which is a schedule.  The reported reward is the
    sum of g over the chosen (block, ad) pairs.
    """
    start = time.perf_counter()
    g, best_slot, is_hv = _block_values(program, inventory, rel, params)
    k = len(g)
    half = k // 2
    n_hv = int(is_hv.sum())
    hv_dummy = np.where(is_hv, 0.0, -np.inf)
    lv_dummy = np.where(is_hv, -np.inf, 0.0)
    weights = np.vstack(
        [
            g,
            np.tile(hv_dummy, (n_hv - half, 1)),
            np.tile(lv_dummy, (len(is_hv) - n_hv - half, 1)),
        ]
    )
    rows, cols = linear_sum_assignment(weights, maximize=True)
    rows, cols = rows[:k], cols[:k]
    schedule = Schedule.strict(
        (int(best_slot[b, j]), inventory.ads[j].id) for b, j in zip(rows, cols)
    )
    return SolveReport(
        schedule=schedule,
        reward=float(g[rows, cols].sum()),
        solver=ASSIGNMENT,
        candidates_evaluated=1,
        wall_time=time.perf_counter() - start,
    )
