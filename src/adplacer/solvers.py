"""Solvers maximizing the placement reward under the strict constraints.

Two routes: ``solve_brute_force``, which scores every balanced ad subset in
every block-respecting placement and refuses instances above
``DEFAULT_CANDIDATE_CAP`` candidates (a test oracle; no CLI route runs it),
and the exact polynomial route ``solve_assignment`` - a block reduction
(each ad's best slot inside each block), pruned to the ads an optimum needs
and solved as a min-cost flow by successive shortest paths in numpy.  Each
route returns its schedule and the reward it optimized, which callers
re-score.  ``trivial_schedule`` is a naive scheduler, the comparison point
for the exact routes.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import (
    AdInventory,
    Polarity,
    ProgramSpec,
    RelevanceMatrix,
    RewardParams,
    Schedule,
    ScheduleEntry,
    _check_balance,
    _check_feasible,
    _check_relevance_shape,
    slot_blocks,
)
from .errors import InstanceTooLarge

#: Brute force refuses instances with more candidate schedules than this.
DEFAULT_CANDIDATE_CAP = 10**8


@dataclass(frozen=True)
class SolveReport:
    """A solver's answer: its schedule and its reward, the correctly rounded
    sum of its per-(slot, ad) terms: ``reward == core.reward(schedule, ...)``."""

    schedule: Schedule
    reward: float


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
    for subset in itertools.combinations(range(len(is_hv)), k):
        if sum(is_hv[i] for i in subset) == half:
            yield subset


def _iter_placements_idx(
    ads: Sequence[int], blocks: tuple[tuple[int, ...], ...]
) -> Iterator[tuple[tuple[int, int], ...]]:
    """All (slot, ad) assignments, one ad per block, deterministic order.

    Orderings of the given ads come first (lexicographic relative to the
    input sequence), then the slot choice within each block, block by block.
    """
    for perm in itertools.permutations(ads):
        for slot_choice in itertools.product(*blocks):
            yield tuple(zip(slot_choice, perm))


def solve_brute_force(
    program: ProgramSpec,
    inventory: AdInventory,
    rel: RelevanceMatrix,
    params: RewardParams,
) -> SolveReport:
    """Exhaustively score every feasible schedule and keep the best.

    Ties go to the first schedule in enumeration order (lexicographic in
    subset, ad ordering, then slot choice).  The candidate count, taken
    before any enumeration, is C(HV, k/2) * C(LV, k/2) subsets times k!
    orderings times the product of the block sizes; above
    ``DEFAULT_CANDIDATE_CAP`` this raises InstanceTooLarge.
    """
    _check_relevance_shape(rel, program, inventory)
    _check_feasible(program, inventory, params.k)
    k = params.k
    blocks = slot_blocks(program.slot_count, k)
    hv = inventory.polarities.count(Polarity.HV)
    total = (
        math.comb(hv, k // 2)
        * math.comb(len(inventory) - hv, k // 2)
        * math.factorial(k)
        * math.prod(len(b) for b in blocks)
    )
    if total > DEFAULT_CANDIDATE_CAP:
        raise InstanceTooLarge(
            f"{total} candidate schedules exceed the cap of "
            f"{DEFAULT_CANDIDATE_CAP}; use solve_assignment"
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
    schedule = Schedule.strict((slot, inventory.ads[j].id) for slot, j in best_placement)
    return SolveReport(schedule, math.fsum(c_rows[slot - 1][j] for slot, j in best_placement))


def _kept_columns(g: np.ndarray, is_hv: np.ndarray) -> np.ndarray:
    """Ads that suffice for an optimum: each block's k/2 best of each polarity.

    Exact: if block b holds a polarity-p ad outside its k/2 best p-ads, the
    schedule's other k/2 - 1 p-ads leave one of those best unused, and
    swapping it in keeps the balance without lowering the reward.  Ties rank
    the lower ad index first, so the kept set is deterministic.  The kept
    ads are marked in one mask over the P ads and returned in ascending
    index order; at most min(P, k^2) are kept.
    """
    half = len(g) // 2
    kept = np.zeros(len(is_hv), dtype=bool)
    for idx in (np.flatnonzero(is_hv), np.flatnonzero(~is_hv)):
        kept[idx[np.argsort(-g[:, idx], axis=1, kind="stable")[:, :half]]] = True
    return np.flatnonzero(kept)


def _min_cost_assignment(cost: np.ndarray, is_hv: np.ndarray) -> np.ndarray:
    """The column of each row in a min-cost assignment with k/2 HV columns.

    ``cost`` is k x C and non-negative.  This is a min-cost flow of k units
    on source -> row -> column -> polarity hub -> sink, with unit capacities
    except the two hub -> sink edges (k/2 each), solved by k successive
    shortest paths under Johnson potentials (Ahuja, Magnanti & Orlin,
    *Network Flows*, 1993, ch. 9).  Each path comes from one Dijkstra in the
    manner of Jonker & Volgenant (1987), keyed by reduced distance:

    - the source is the last unmatched row (last first popped fewer nodes than
      first first), whose edges seed every column in one vector step;
    - a matched column leads over a tight reverse edge to its row, so popping
      it relaxes that row's forward edges to every column;
    - an unmatched column's only out-edge goes to its hub, so its key is the
      hub's distance through it, and popping it pops the hub: the hub's other
      unmatched columns retire, its reverse edges reach the matched columns
      of its polarity (swapping one out) and, below capacity, the sink.

    The source's edges only seed the search and need no reduced-cost bound;
    every other residual edge stays non-negative under the potentials, which
    start at zero on non-negative costs.  Columns carry path costs (reduced
    distance plus potential).  A matched row is reached only from its column,
    over a tight reverse edge, so the row is popped with the column.  A
    popped node is never relabelled, so round-off cannot break the chain.
    """
    k, n = cost.shape
    half = k // 2
    pol = np.where(is_hv, 0, 1)
    col_of = np.full(k, -1)
    row_of = np.full(n, -1)
    pi = np.zeros(n)
    pi_hub = np.zeros(2)
    pi_sink = 0.0
    inf = math.inf
    for row in reversed(range(k)):  # one augmenting path per row, last first
        matched = row_of >= 0
        unmatched_of = [~matched & (pol == p) for p in (0, 1)]
        matched_of = [np.flatnonzero(matched & (pol == p)) for p in (0, 1)]
        dist = cost[row].copy()  # path cost to each column; -inf once popped
        pred = np.full(n, row)  # row feeding each column, or -1 - p for hub p
        # key: a matched column's reduced distance, or its hub's through an
        # unmatched one; inf once popped or retired
        offset = np.where(matched, -pi, -pi_hub[pol])
        key = dist + offset
        hub_d = [inf, inf]
        hub_pred = [-1, -1]
        sink_d, sink_pred = inf, -1
        popped: list[tuple[int, float]] = []
        while True:
            j = int(key.argmin())
            dj = float(key[j])
            if sink_d <= dj:
                break
            reach = float(dist[j])
            popped.append((j, reach))
            dist[j] = -inf
            if matched[j]:
                key[j] = offset[j] = inf
                b = row_of[j]
                reach = (reach - cost[b, j]) + cost[b]
                pred[reach < dist] = b
                np.minimum(dist, reach, out=dist)
                np.minimum(key, reach + offset, out=key)
                continue
            p = pol[j]
            hub_d[p] = dj
            hub_pred[p] = j
            retired = unmatched_of[p]
            key[retired] = offset[retired] = inf
            if len(matched_of[p]) < half and dj + pi_hub[p] - pi_sink < sink_d:
                sink_d, sink_pred = dj + pi_hub[p] - pi_sink, p
            reach = dj + pi_hub[p]
            idx = matched_of[p]
            upd = idx[dist[idx] > reach]
            dist[upd] = reach
            key[upd] = reach - pi[upd]
            pred[upd] = -1 - p
        if sink_pred < 0:
            raise RuntimeError("no augmenting path: the flow network is infeasible")

        shift = np.minimum(dist - pi, sink_d)
        for j, reach in popped:
            shift[j] = reach - pi[j]
        pi += shift
        pi_hub += np.minimum(hub_d, sink_d)
        pi_sink += sink_d

        j = hub_pred[sink_pred]
        while True:
            b = pred[j]
            old = col_of[b]
            col_of[b] = j
            row_of[j] = b
            if old < 0:
                break
            row_of[old] = -1
            j = old if pred[old] >= 0 else hub_pred[-1 - pred[old]]
    return col_of


def solve_assignment(
    program: ProgramSpec,
    inventory: AdInventory,
    rel: RelevanceMatrix,
    params: RewardParams,
) -> SolveReport:
    """Exact optimum as a min-cost flow over the block reduction.

    Blocks are disjoint and each takes one ad, so an ad placed in block b
    sits on the block's slot where it contributes most: g[b, j] is the max
    of the contributions c[:, j] over block b's rows.  The k x P values g
    are first pruned to the ads some optimum needs (``_kept_columns``); the
    blocks are then assigned to distinct kept ads, exactly k/2 of them HV,
    by ``_min_cost_assignment`` on the costs max(g) - g.

    This solves the placement LP over block-by-ad variables x[b, j] in
    [0, 1] (unit mass per block, at most unit mass per ad, HV mass k/2)
    exactly: its constraint rows form two laminar families, so the matrix
    is totally unimodular (Hoffman & Kruskal) and the LP optimum is attained
    at an integral vertex, which is a schedule; the flow network is that LP,
    and successive shortest paths end on such a vertex.  The reported reward
    is the ``math.fsum`` of g over the chosen (block, ad) pairs.
    """
    _check_relevance_shape(rel, program, inventory)
    _check_feasible(program, inventory, params.k)
    c = _contributions(program, inventory, rel, params)
    starts = [block[0] - 1 for block in slot_blocks(program.slot_count, params.k)]
    g = np.maximum.reduceat(c, starts, axis=0)
    is_hv = np.array([p is Polarity.HV for p in inventory.polarities])
    cols = _kept_columns(g, is_hv)
    kept = g[:, cols]
    picks = cols[_min_cost_assignment(kept.max(initial=0.0) - kept, is_hv[cols])]
    ends = starts[1:] + [len(c)]
    # each pick sits on its block's best slot for it, the earliest on ties
    schedule = Schedule.strict(
        (int(start + c[start:end, j].argmax()) + 1, inventory.ads[j].id)
        for start, end, j in zip(starts, ends, picks)
    )
    return SolveReport(schedule, math.fsum(g[np.arange(len(g)), picks].tolist()))


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
    hv_ids = [a.id for a in inventory.ads if a.polarity is Polarity.HV]
    lv_ids = [a.id for a in inventory.ads if a.polarity is Polarity.LV]
    rng = random.Random(seed)
    chosen = rng.sample(hv_ids, half) + rng.sample(lv_ids, half)
    rng.shuffle(chosen)

    mid_slot = min(math.ceil(program.n_scenes / 2), program.slot_count)
    entries = [ScheduleEntry(0, r, ad_id) for r, ad_id in enumerate(chosen[:half])]
    entries += [
        ScheduleEntry(mid_slot, r, ad_id) for r, ad_id in enumerate(chosen[half:])
    ]
    return Schedule(tuple(entries), "baseline")
