"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

from adplacer import io
from adplacer.cli import main
from adplacer.core import (
    Polarity,
    RewardParams,
    Schedule,
    reward,
    slot_blocks,
    validate_schedule,
)
from adplacer.instances import random_instance
from adplacer.profile import build_profile
from adplacer.relevance import (
    KeyframeFeatures,
    build_relevance_matrix,
    cosine_similarity,
)
from adplacer.solvers import solve_assignment, solve_brute_force

FULL_SCALE_SEED = 12  # 12 scenes, 11 slots, 24 ads (12 HV + 12 LV), k = 8


def _criterion(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@dataclass
class Solved:
    program: object
    inventory: object
    rel: object
    params: RewardParams
    brute: object
    exact: object


@pytest.fixture(scope="module")
def pool():
    """200 seeded random instances solved by brute force and the assignment."""
    records = []
    started = time.perf_counter()
    for i in range(200):
        p = 4 + i % 7            # 4..10 ads
        m = 2 + i % 7            # 2..8 slots
        k = (0, 2, 4)[i % 3]
        if k > m:
            k = 2
        program, inventory, rel = random_instance(p, m, 4000 + i)
        params = RewardParams(0.5, 0.5, k)
        records.append(
            Solved(
                program,
                inventory,
                rel,
                params,
                solve_brute_force(program, inventory, rel, params),
                solve_assignment(program, inventory, rel, params),
            )
        )
    elapsed = time.perf_counter() - started
    return records, elapsed


@pytest.fixture(scope="module")
def full_scale():
    program, inventory, rel = random_instance(24, 11, FULL_SCALE_SEED)
    assert program.n_scenes == 12 and program.slot_count == 11
    assert len(inventory.hv_indices) == 12 and len(inventory.lv_indices) == 12
    return program, inventory, rel


def test_oracle_equivalence(pool):
    records, elapsed = pool
    mismatches = [r for r in records if abs(r.brute.reward - r.exact.reward) > 1e-9]
    ok = not mismatches and len(records) >= 200 and elapsed < 60.0
    _criterion(
        f"oracle equivalence: the assignment matches brute force on {len(records)} instances",
        ok,
        f"{len(mismatches)} mismatches, suite solved in {elapsed:.1f}s",
    )


def test_relaxation_sandwich(pool):
    # the assignment's objective is the optimum of the block-by-ad LP
    # relaxation; it must equal the brute-force optimum and the reward its
    # schedule re-scores to
    records, _ = pool
    bad = []
    for r in records:
        rescored = reward(r.exact.schedule, r.program, r.inventory, r.rel, r.params)
        if not (abs(r.exact.reward - r.brute.reward) <= 1e-9 and abs(r.brute.reward - rescored) <= 1e-9):
            bad.append(r)
    _criterion(
        "objective sandwich: assignment objective == optimum == re-scored reward",
        not bad,
        f"{len(bad)} violations over {len(records)} instances",
    )


def test_constraint_suite(pool):
    records, _ = pool
    failures = 0
    for r in records:
        for report in (r.brute, r.exact):
            if not validate_schedule(
                report.schedule, r.program, r.inventory, r.params
            ):
                failures += 1
    _criterion(
        "constraint suite: every solver schedule passes strict validation",
        failures == 0,
        f"{failures} failures over {2 * len(records)} schedules",
    )


def test_tail_placement_theorem():
    bad = 0
    total = 0
    for i in range(100):
        p = 6 + i % 5
        m = 3 + i % 6
        k = 2 if m < 4 else (2, 4)[i % 2]
        program, inventory, rel = random_instance(p, m, 7000 + i)
        params = RewardParams(1.0, 0.0, k)
        report = solve_brute_force(program, inventory, rel, params)
        blocks = slot_blocks(m, k)
        entries = report.schedule.in_slot_order
        vals = [inventory.ad(e.ad_id).valence.value for e in entries]
        tail_ok = all(e.slot == b[-1] for b, e in zip(blocks, entries))
        mono_ok = all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        total += 1
        if not (tail_ok and mono_ok):
            bad += 1
    _criterion(
        "tail placement: pure-positional optima use block-final slots with "
        "non-increasing valences",
        bad == 0 and total >= 100,
        f"{bad} violations over {total} instances",
    )


def test_full_scale_run(full_scale):
    program, inventory, rel = full_scale
    params = RewardParams(0.5, 0.5, 8)
    started = time.perf_counter()
    report = solve_assignment(program, inventory, rel, params)
    elapsed = time.perf_counter() - started
    # the profile's total variation: the sum of absolute valence steps
    with_ads, without = (
        sum(abs(q.valence_0_100 - p.valence_0_100) for p, q in zip(points, points[1:]))
        for points in (
            build_profile(report.schedule, program, inventory),
            build_profile(Schedule.empty(), program, inventory),
        )
    )
    ok = elapsed < 10.0 and with_ads > without
    _criterion(
        "full-scale run: 24 ads / 11 slots / k=8 solves fast and spikes the profile",
        ok,
        f"assignment {elapsed:.2f}s, variation {with_ads:.1f} vs ad-free {without:.1f}",
    )


def test_ablation_structure(full_scale):
    program, inventory, rel = full_scale

    def mean_lv_slot(schedule):
        slots = [
            e.slot
            for e in schedule.entries
            if inventory.ad(e.ad_id).polarity is Polarity.LV
        ]
        return sum(slots) / len(slots)

    balanced = solve_assignment(
        program, inventory, rel, RewardParams(0.5, 0.5, 8)
    )
    matching_only = solve_assignment(
        program, inventory, rel, RewardParams(0.0, 1.0, 8)
    )
    m_balanced = mean_lv_slot(balanced.schedule)
    m_matching = mean_lv_slot(matching_only.schedule)
    _criterion(
        "ablation: dropping the positional weight moves low-valence ads earlier",
        m_balanced >= m_matching,
        f"mean LV slot {m_balanced:.2f} (alpha=0.5) vs {m_matching:.2f} (alpha=0)",
    )


def test_hand_computed_reward():
    from util import two_ad_instance

    program, inventory, rel, params = two_ad_instance()
    best = reward(Schedule.strict([(1, "a2"), (2, "a1")]), program, inventory, rel, params)
    other = reward(Schedule.strict([(1, "a1"), (2, "a2")]), program, inventory, rel, params)
    ok = abs(best - 1.3) <= 1e-9 and abs(other - 1.0) <= 1e-9
    _criterion(
        "hand-computed reward: 1.3 and 1.0 on the 2-ad/2-slot instance",
        ok,
        f"got {best!r} and {other!r}",
    )


def test_relevance_against_scalar_oracle():
    # vector entries bounded away from sign cancellation keep every cosine
    # non-degenerate, so 1e-12 *relative* error is meaningful
    rng = np.random.default_rng(90)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 48))
        u = rng.uniform(0.1, 1.0, size=d)
        v = rng.uniform(0.1, 1.0, size=d)
        dot = su = sv = 0.0
        for a, b in zip(u, v):
            dot += a * b
            su += a * a
            sv += b * b
        expected = dot / (su**0.5 * sv**0.5)
        got = cosine_similarity(u, v)
        worst = max(worst, abs(got - expected) / abs(expected))
    f = int(rng.integers(2, 8))
    pairs_worst = 0.0
    for _ in range(200):
        a = KeyframeFeatures("s", rng.uniform(0.1, 1.0, size=(f, 16)))
        b = KeyframeFeatures("ad", rng.uniform(0.1, 1.0, size=(f, 16)))
        expected = 0.0
        for i in range(f):
            dot = su = sv = 0.0
            for x, y in zip(a.frames[i], b.frames[i]):
                dot += x * y
                su += x * x
                sv += y * y
            expected += dot / (su**0.5 * sv**0.5)
        expected /= f
        got = float(build_relevance_matrix([a], [b]).values[0, 0])
        pairs_worst = max(pairs_worst, abs(got - expected) / abs(expected))
    matrix_worst = 0.0
    for pairing in ("aligned", "all_pairs"):
        for _ in range(20):
            # all_pairs takes ragged frame counts; aligned needs one shared F
            counts = rng.integers(1, 9, size=9) if pairing == "all_pairs" else [f] * 9
            entities = [
                KeyframeFeatures(f"e{n}", rng.uniform(0.1, 1.0, size=(c, 16)))
                for n, c in enumerate(counts)
            ]
            scenes, ads = entities[:4], entities[4:]
            got = build_relevance_matrix(scenes, ads, pairing).values
            for i, sf in enumerate(scenes):
                for j, af in enumerate(ads):
                    if pairing == "aligned":
                        cosines = [cosine_similarity(x, y) for x, y in zip(sf.frames, af.frames)]
                    else:
                        cosines = [cosine_similarity(x, y) for x in sf.frames for y in af.frames]
                    expected = sum(cosines) / len(cosines)
                    matrix_worst = max(matrix_worst, abs(got[i, j] - expected) / abs(expected))
    worst = max(worst, pairs_worst, matrix_worst)
    _criterion(
        "relevance correctness: cosine, frame-pair means and both pairings of "
        "the relevance matrix match scalar loops",
        worst <= 1e-12,
        f"worst relative error {worst:.2e}",
    )


def test_solver_determinism(tmp_path):
    program, inventory, rel = random_instance(10, 8, 31)
    io.save_program(program, tmp_path / "program.json")
    io.save_inventory(inventory, tmp_path / "inventory.json")
    io.save_relevance(rel, tmp_path / "rel.txt")
    base = [
        "run",
        "--program", str(tmp_path / "program.json"),
        "--inventory", str(tmp_path / "inventory.json"),
        "--rel-file", str(tmp_path / "rel.txt"),
        "--k", "4",
        "--seed", "5",
    ]
    ok = True
    details = []
    for solver in ("bnb", "lp", "trivial"):
        blobs = []
        for run_idx in range(2):
            out = tmp_path / f"{solver}-{run_idx}"
            code = main(base + ["--solver", solver, "--out", str(out)])
            if code != 0:
                ok = False
                details.append(f"{solver} exited {code}")
                break
            blobs.append((out / "schedule.json").read_bytes())
        if blobs and any(b != blobs[0] for b in blobs):
            ok = False
            details.append(f"{solver} schedules differ")
    _criterion(
        "determinism: repeated runs emit identical schedule files",
        ok,
        "; ".join(details) if details else "all byte-identical",
    )
