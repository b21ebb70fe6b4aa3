"""Enumeration, brute force and the exact assignment."""

import itertools
import math

import numpy as np
import pytest

from adplacer import solvers
from adplacer.core import (
    Ad,
    AdInventory,
    Polarity,
    ProgramSpec,
    RelevanceMatrix,
    RewardParams,
    Schedule,
    reward,
    Valence,
    slot_blocks,
    validate_schedule,
)
from adplacer.errors import InfeasibleInventory, InfeasibleK, InstanceTooLarge
from adplacer.instances import random_instance
from adplacer.solvers import solve_assignment, solve_brute_force

from util import const_rel, make_inventory, make_program, two_ad_instance


def balanced_subsets(inventory, k):
    """The balanced subsets brute force scores, as ad ids, in its order."""
    return [
        tuple(inventory.ads[i].id for i in subset)
        for subset in solvers._iter_balanced_index_subsets(inventory, k)
    ]


def placements(ads, program, k):
    """The placements brute force scores for the ad indices ``ads``, in its
    order, as schedules of the ids ``make_inventory`` gives (index j is
    ``a{j + 1}``)."""
    blocks = slot_blocks(program.slot_count, k)
    return [
        Schedule.strict((slot, f"a{j + 1}") for slot, j in placement)
        for placement in solvers._iter_placements_idx(ads, blocks)
    ]


class TestBalancedSubsets:
    def test_two_by_two_cross_pairs(self):
        inventory = make_inventory(0.9, 0.8, 0.2, 0.1)  # a1,a2 HV; a3,a4 LV
        subsets = balanced_subsets(inventory, 2)
        assert subsets == [("a1", "a3"), ("a1", "a4"), ("a2", "a3"), ("a2", "a4")]

    def test_k_zero_yields_single_empty_subset(self):
        inventory = make_inventory(0.9, 0.1)
        assert balanced_subsets(inventory, 0) == [()]

    def test_insufficient_polarity(self):
        inventory = make_inventory(0.9, 0.8, 0.7)  # all HV
        with pytest.raises(InfeasibleInventory):
            balanced_subsets(inventory, 2)

    def test_odd_k_rejected(self):
        inventory = make_inventory(0.9, 0.1)
        with pytest.raises(InfeasibleK):
            balanced_subsets(inventory, 1)

    def test_matches_filtered_combinations_oracle(self):
        rng = np.random.default_rng(71)
        for trial in range(20):
            p = int(rng.integers(4, 9))
            vals = [float(v) for v in rng.random(p)]
            inventory = make_inventory(*vals)
            for k in (0, 2, 4):
                half = k // 2
                if len(inventory.hv_indices) < half or len(inventory.lv_indices) < half:
                    continue
                ids = [ad.id for ad in inventory.ads]
                expected = [
                    combo
                    for combo in itertools.combinations(ids, k)
                    if sum(
                        1
                        for ad_id in combo
                        if inventory.ad(ad_id).polarity is Polarity.HV
                    )
                    == half
                ]
                assert balanced_subsets(inventory, k) == expected

    def test_lexicographic_order_on_every_polarity_pattern(self):
        # brute force breaks ties by this order, so it must be exactly the
        # filtered itertools.combinations order on every small inventory; its
        # candidate count assumes C(HV, k/2) * C(LV, k/2) subsets
        cases = 0
        for p in range(2, 9):
            for pattern in itertools.product((True, False), repeat=p):
                if all(pattern) or not any(pattern):
                    continue
                inventory = make_inventory(*(0.9 if hv else 0.1 for hv in pattern))
                ids = [ad.id for ad in inventory.ads]
                n_hv = sum(pattern)
                for k in range(0, 2 * min(n_hv, p - n_hv) + 1, 2):
                    expected = [
                        tuple(ids[i] for i in combo)
                        for combo in itertools.combinations(range(p), k)
                        if sum(pattern[i] for i in combo) == k // 2
                    ]
                    assert balanced_subsets(inventory, k) == expected
                    assert len(expected) == math.comb(n_hv, k // 2) * math.comb(
                        p - n_hv, k // 2
                    )
                    cases += 1
        assert cases > 1000


class TestPlacements:
    def test_two_ads_two_slots(self):
        program = make_program(0.5, 0.5, 0.5)  # M = 2, blocks {1},{2}
        schedules = placements((0, 1), program, 2)
        assert len(schedules) == 2
        assert schedules[0].in_slot_order[0].ad_id == "a1"
        assert schedules[1].in_slot_order[0].ad_id == "a2"

    def test_one_ad_three_slots(self):
        program = make_program(0.5, 0.5, 0.5, 0.5)  # M = 3, single block
        schedules = placements((0,), program, 1)
        assert [s.entries[0].slot for s in schedules] == [1, 2, 3]

    def test_two_ads_four_slots(self):
        program = make_program(0.5, 0.5, 0.5, 0.5, 0.5)  # M = 4
        schedules = placements((0, 1), program, 2)
        assert len(schedules) == 8  # 2! orderings x 2 x 2 slot choices

    def test_every_placement_is_strict_feasible(self):
        program = make_program(0.9, 0.1, 0.8, 0.7, 0.6)
        inventory = make_inventory(0.8, 0.2)
        params = RewardParams(0.5, 0.5, 2)
        for schedule in placements((0, 1), program, 2):
            assert validate_schedule(schedule, program, inventory, params)

    def test_matches_literal_permutation_filter(self):
        # oracle: place the ads on every injective slot choice, keep the
        # block-feasible ones; must equal the direct enumeration as a set
        inventory = make_inventory(0.8, 0.2)
        params = RewardParams(0.5, 0.5, 2)
        for m in (2, 3, 4):
            program = make_program(*([0.5] * (m + 1)))
            direct = {
                frozenset((e.slot, e.ad_id) for e in s.entries)
                for s in placements((0, 1), program, 2)
            }
            literal = set()
            for slots in itertools.permutations(range(1, m + 1), 2):
                schedule = Schedule.strict(zip(slots, ("a1", "a2")))
                if validate_schedule(schedule, program, inventory, params):
                    literal.add(frozenset((e.slot, e.ad_id) for e in schedule.entries))
            assert direct == literal


class TestBruteForce:
    def test_hand_scored_instance(self):
        program, inventory, rel, params = two_ad_instance()
        report = solve_brute_force(program, inventory, rel, params)
        assert report.reward == pytest.approx(1.3, abs=1e-9)
        assert [(e.slot, e.ad_id) for e in report.schedule.in_slot_order] == [
            (1, "a2"),
            (2, "a1"),
        ]
        assert report.candidates_evaluated == 2
        assert report.solver == "brute_force"

    def test_k_zero(self):
        program, inventory, rel, _ = two_ad_instance()
        report = solve_brute_force(program, inventory, rel, RewardParams(0.5, 0.5, 0))
        assert report.reward == 0.0
        assert len(report.schedule) == 0
        assert report.candidates_evaluated == 1

    def test_pure_alpha_picks_lowest_valences_lv_last(self):
        program = make_program(0.9, 0.1, 0.8)          # M = 2
        inventory = make_inventory(0.9, 0.6, 0.3, 0.1)  # HV a1,a2; LV a3,a4
        params = RewardParams(1.0, 0.0, 2)
        report = solve_brute_force(program, inventory, const_rel(3, 4), params)
        placed = {e.ad_id: e.slot for e in report.schedule.entries}
        assert set(placed) == {"a2", "a4"}  # lowest-valence HV and LV
        assert placed["a4"] == 2            # the LV ad sits latest

    def test_k_exceeding_slots(self):
        program, inventory, rel, _ = two_ad_instance()
        with pytest.raises(InfeasibleK):
            solve_brute_force(program, inventory, rel, RewardParams(0.5, 0.5, 4))

    def test_unbalanced_inventory(self):
        program = make_program(0.9, 0.1, 0.8)
        inventory = make_inventory(0.9, 0.8)  # no LV ads
        with pytest.raises(InfeasibleInventory):
            solve_brute_force(program, inventory, const_rel(3, 2), RewardParams(0.5, 0.5, 2))

    def test_candidate_cap(self):
        # the count is taken before any enumeration, so this stays instant
        program, inventory, rel = random_instance(40, 30, 0)
        params = RewardParams(0.5, 0.5, 10)
        with pytest.raises(InstanceTooLarge, match="use solve_assignment"):
            solve_brute_force(program, inventory, rel, params)


class TestAssignment:
    def test_matches_brute_force_on_small_instances(self):
        for seed in range(40):
            p = 4 + seed % 7
            m = 2 + seed % 7
            k = (0, 2, 4)[seed % 3]
            if k > m:
                k = 2
            program, inventory, rel = random_instance(p, m, 900 + seed)
            params = RewardParams(0.5, 0.5, k)
            bf = solve_brute_force(program, inventory, rel, params)
            exact = solve_assignment(program, inventory, rel, params)
            assert abs(bf.reward - exact.reward) <= 1e-9
            assert validate_schedule(exact.schedule, program, inventory, params)

    def test_identical_ads_resolve_deterministically(self):
        program = make_program(0.9, 0.1, 0.8)
        inventory = make_inventory(0.7, 0.7, 0.3, 0.3)
        params = RewardParams(0.5, 0.5, 2)
        rel = const_rel(3, 4, 0.5)
        first = solve_assignment(program, inventory, rel, params)
        second = solve_assignment(program, inventory, rel, params)
        assert first.schedule == second.schedule
        bf = solve_brute_force(program, inventory, rel, params)
        assert abs(first.reward - bf.reward) <= 1e-9

    def test_k_zero(self):
        program, inventory, rel, _ = two_ad_instance()
        report = solve_assignment(program, inventory, rel, RewardParams(0.5, 0.5, 0))
        assert report.reward == 0.0 and len(report.schedule) == 0

    def test_reward_matches_reevaluation(self):
        program, inventory, rel = random_instance(10, 8, 97)
        params = RewardParams(0.5, 0.5, 4)
        report = solve_assignment(program, inventory, rel, params)
        assert report.reward == pytest.approx(
            reward(report.schedule, program, inventory, rel, params), abs=1e-9
        )

    def test_infeasibility_checks(self):
        program, inventory, rel, _ = two_ad_instance()
        with pytest.raises(InfeasibleK):
            solve_assignment(program, inventory, rel, RewardParams(0.5, 0.5, 4))

    def test_pruning_keeps_an_optimum_among_tied_ads(self):
        # more ads than the k^2 that pruning can keep (60 at k=2, 22 at k=4),
        # and one-decimal valences and relevance tie many of them, so the
        # kept ones are picked among ties
        for seed in range(8):
            p, m, k = (60, 6, 2) if seed % 2 else (22, 4, 4)
            program, inventory, rel = random_instance(p, m, 4000 + seed)
            inventory = AdInventory(tuple(
                Ad(a.id, Valence(round(a.valence.value, 1))) for a in inventory.ads
            ))
            rel = RelevanceMatrix(np.round(rel.values, 1))
            params = RewardParams(0.5, 0.5, k)
            _, _, g, is_hv = solvers._block_values(program, inventory, rel, params)
            assert len(solvers._kept_columns(g, is_hv)) <= k * k < p
            bf = solve_brute_force(program, inventory, rel, params)
            exact = solve_assignment(program, inventory, rel, params)
            assert abs(exact.reward - bf.reward) <= 1e-9
            assert validate_schedule(exact.schedule, program, inventory, params)

    def test_flow_without_augmenting_path_raises(self):
        # two rows but only HV columns: the LV hub can never reach the sink
        with pytest.raises(RuntimeError, match="no augmenting path"):
            solvers._min_cost_assignment(np.zeros((2, 3)), np.ones(3, dtype=bool))

    def test_matches_quota_padded_linear_sum_assignment(self):
        # an independent oracle beyond brute-force sizes: scipy's assignment
        # on the k block rows padded to P x P with weight-0 dummy rows that
        # take only HV or only LV ads, so that k/2 of each land in blocks
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(61)
        for case in range(150):
            p = int(rng.integers(2, 61))
            k = 2 * int(rng.integers(0, min(p // 2, 10) + 1))
            m = max(k, 1) + int(rng.integers(0, 2 * k + 2))
            program, inventory, rel = random_instance(p, m, 5000 + case)
            if case % 3 == 0:  # ties
                rel = RelevanceMatrix(np.round(rel.values, 1))
            alpha = float(rng.choice([0.0, 0.5, 1.0]))
            params = RewardParams(alpha, 1.0 - alpha, k)
            _, _, g, is_hv = solvers._block_values(program, inventory, rel, params)
            half, n_hv = k // 2, int(is_hv.sum())
            weights = np.vstack([
                g,
                np.tile(np.where(is_hv, 0.0, -np.inf), (n_hv - half, 1)),
                np.tile(np.where(is_hv, -np.inf, 0.0), (p - n_hv - half, 1)),
            ])
            rows, cols = optimize.linear_sum_assignment(weights, maximize=True)
            expected = g[rows[:k], cols[:k]].sum()
            exact = solve_assignment(program, inventory, rel, params)
            where = f"case {case}: P={p} M={m} k={k}"
            assert abs(exact.reward - expected) <= 1e-9, where
            assert validate_schedule(exact.schedule, program, inventory, params), where


def small_grid():
    """Every cell P <= 8, M <= 6, even k <= M, with edge-case variants.

    Each cell is solved on random, constant and zero relevance, ads that
    share one valence per polarity, and (where k still fits) one fewer
    slot than scene transitions, each under alpha in {0, 0.5, 1}.
    """
    for p in range(2, 9):
        for m in range(1, 7):
            for k in range(0, m + 1, 2):
                if k // 2 > p // 2:  # random_instance holds floor(P/2) LV ads
                    continue
                program, inventory, rel = random_instance(p, m, 100 * p + 10 * m + k)
                identical = AdInventory(tuple(
                    Ad(a.id, Valence(0.75 if a.polarity is Polarity.HV else 0.25))
                    for a in inventory.ads
                ))
                variants = {
                    "random": (program, inventory, rel),
                    "constant_rel": (program, inventory, const_rel(m + 1, p, 0.5)),
                    "zero_rel": (program, inventory, const_rel(m + 1, p, 0.0)),
                    "identical_ads": (program, identical, rel),
                }
                if k < m:
                    variants["slot_count"] = (ProgramSpec(program.scenes, m - 1), inventory, rel)
                for name, instance in variants.items():
                    for alpha in (0.0, 0.5, 1.0):
                        params = RewardParams(alpha, 1.0 - alpha, k)
                        yield f"P={p} M={m} k={k} {name} alpha={alpha}", *instance, params


def test_exact_routes_match_brute_force_on_small_grid():
    failures = []
    cells = 0
    for where, program, inventory, rel, params in small_grid():
        cells += 1
        bf = solve_brute_force(program, inventory, rel, params)
        exact = solve_assignment(program, inventory, rel, params)
        if abs(exact.reward - bf.reward) > 1e-9:
            failures.append(f"{where}: assignment {exact.reward!r} != brute {bf.reward!r}")
        if not validate_schedule(exact.schedule, program, inventory, params):
            failures.append(f"{where}: assignment schedule is not strict-valid")
    assert cells > 1000
    assert not failures, failures[:10]


class TestSolverProperties:
    def test_repeat_solves_are_identical(self):
        program, inventory, rel = random_instance(9, 7, 555)
        params = RewardParams(0.5, 0.5, 4)
        for solve in (solve_brute_force, solve_assignment):
            first = solve(program, inventory, rel, params)
            second = solve(program, inventory, rel, params)
            assert first.schedule == second.schedule
            assert first.reward == second.reward
            assert first.candidates_evaluated == second.candidates_evaluated

    def test_pure_alpha_tail_placement(self):
        # with only the positional term, each ad sits on its block's last
        # slot and valences never increase from early to late blocks
        for seed in range(25):
            p = 6 + seed % 5
            m = 3 + seed % 6
            k = 2 if m < 4 else (2, 4)[seed % 2]
            program, inventory, rel = random_instance(p, m, 2100 + seed)
            params = RewardParams(1.0, 0.0, k)
            report = solve_brute_force(program, inventory, rel, params)
            blocks = slot_blocks(m, k)
            entries = report.schedule.in_slot_order
            vals = []
            for block, entry in zip(blocks, entries):
                assert entry.slot == block[-1]
                vals.append(inventory.ad(entry.ad_id).valence.value)
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_pure_beta_optimum_survives_slot_renumbering(self):
        # when every block is a single slot the positional weight is gone at
        # alpha = 0, so mirroring the slot order cannot change the optimum
        for seed in range(10):
            k = (2, 4)[seed % 2]
            m = k
            program, inventory, rel = random_instance(6, m, 3100 + seed)
            params = RewardParams(0.0, 1.0, k)
            fwd = solve_brute_force(program, inventory, rel, params)

            scenes = list(program.scenes)
            scenes[:m] = scenes[:m][::-1]
            mirrored_rel = rel.values.copy()
            mirrored_rel[:m] = mirrored_rel[:m][::-1]
            mirrored = solve_brute_force(
                type(program)(tuple(scenes), m),
                inventory,
                RelevanceMatrix(mirrored_rel),
                params,
            )
            assert abs(fwd.reward - mirrored.reward) <= 1e-9
