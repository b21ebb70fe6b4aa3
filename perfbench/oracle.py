"""Reference optimum and output checks, independent of the package's solvers.

The reference optimum uses the quota-padded assignment reduction: blocks are
disjoint and each takes exactly one ad, so a block's best value for ad j is
g[b][j] = max over the block's slots i of c[i][j], and the placement problem
becomes a max-weight matching of blocks to ads that uses exactly k/2 HV ads.
One square P x P ``linear_sum_assignment`` solves it: k block rows, plus
|HV| - k/2 dummy rows that may only take HV ads at weight 0, plus
|LV| - k/2 dummy rows that may only take LV ads.  Every ad is matched, so the
dummies absorb all but k/2 ads of each polarity.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from adplacer import io as aio
from adplacer.core import (
    REWARD_ATOL,
    AdInventory,
    Polarity,
    ProgramSpec,
    RelevanceMatrix,
    RewardParams,
    Schedule,
    reward,
    slot_blocks,
    validate_schedule,
)
from adplacer.errors import AdPlacerError


def contributions(
    program: ProgramSpec, inventory: AdInventory, rel: np.ndarray, params: RewardParams
) -> np.ndarray:
    """Per-(slot, ad) reward term; row i-1 is slot i."""
    m = program.slot_count
    slots = np.arange(1, m + 1, dtype=float)[:, None]
    ad_v = inventory.valences[None, :]
    scene_v = program.valences[:m, None]
    return params.alpha * slots * (1.0 - ad_v) + params.beta * np.abs(scene_v - ad_v) * rel[:m]


def reference_optimum(
    program: ProgramSpec, inventory: AdInventory, rel: np.ndarray, params: RewardParams
) -> tuple[float, Schedule]:
    """Optimal reward and one optimal strict schedule."""
    k, half = params.k, params.k // 2
    if k == 0:
        return 0.0, Schedule.empty()
    c = contributions(program, inventory, rel, params)
    blocks = [np.asarray(b) - 1 for b in slot_blocks(program.slot_count, k)]
    g = np.stack([c[rows].max(axis=0) for rows in blocks])
    best_slot = np.stack([rows[c[rows].argmax(axis=0)] + 1 for rows in blocks])
    is_hv = np.array([p is Polarity.HV for p in inventory.polarities])
    n_hv = int(is_hv.sum())
    n_lv = len(is_hv) - n_hv
    if n_hv < half or n_lv < half:
        raise ValueError(f"need {half} HV and {half} LV ads, have {n_hv} / {n_lv}")
    hv_dummy = np.where(is_hv, 0.0, -np.inf)
    lv_dummy = np.where(is_hv, -np.inf, 0.0)
    weights = np.vstack(
        [g, np.tile(hv_dummy, (n_hv - half, 1)), np.tile(lv_dummy, (n_lv - half, 1))]
    )
    rows, cols = linear_sum_assignment(weights, maximize=True)
    picks = [(int(best_slot[b, j]), int(j)) for b, j in zip(rows[:k], cols[:k])]
    schedule = Schedule.strict((slot, inventory.ads[j].id) for slot, j in picks)
    return float(sum(g[b, j] for b, j in zip(rows[:k], cols[:k]))), schedule


@dataclass(frozen=True)
class Outcome:
    """What the checker found in one run's output directory."""

    ok: bool
    message: str = ""
    reward: float = float("nan")
    upper_bound: float | None = None


def check_outputs(
    out_dir: Path,
    program: ProgramSpec,
    inventory: AdInventory,
    rel: np.ndarray,
    params: RewardParams,
    optimum: float,
    exact: bool,
) -> Outcome:
    """Check schedule.json, report.json and profile.json of one ``run``.

    The schedule must pass strict validation and re-score to the reported
    reward; the report and profile must load.  Exact routes must reach the
    optimum; other routes may not exceed it, and a reported upper bound may
    not fall below it.
    """
    try:
        schedule = aio.load_schedule(out_dir / "schedule.json")
        report = aio.load_report(out_dir / "report.json")
        aio.load_profile(out_dir / "profile.json")
    except (OSError, ValueError, AdPlacerError) as exc:
        return Outcome(False, f"unreadable output: {exc}")
    check = validate_schedule(schedule, program, inventory, params)
    if not check:
        return Outcome(False, f"invalid schedule: {check.constraint}: {check.message}")
    reported = report.get("reward")
    if not isinstance(reported, (int, float)):
        return Outcome(False, f"report has no numeric reward: {reported!r}")
    rescored = reward(schedule, program, inventory, RelevanceMatrix(rel), params)
    if abs(rescored - reported) > REWARD_ATOL:
        return Outcome(False, f"reward {reported!r} re-scores to {rescored!r}")
    bound = report.get("upper_bound")
    if exact and abs(reported - optimum) > REWARD_ATOL:
        return Outcome(False, f"exact route reward {reported!r} != optimum {optimum!r}")
    if reported > optimum + REWARD_ATOL:
        return Outcome(False, f"reward {reported!r} exceeds optimum {optimum!r}")
    if bound is not None and bound < optimum - REWARD_ATOL:
        return Outcome(False, f"upper bound {bound!r} below optimum {optimum!r}")
    return Outcome(True, reward=float(reported), upper_bound=bound)
