"""Enumeration, brute force and the exact assignment."""

import itertools
import math

import numpy as np
import pytest

from adplacer import random_instance, solvers
from adplacer.core import (
    REWARD_ATOL,
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
from adplacer.errors import InfeasibleK, InstanceTooLarge
from adplacer.solvers import solve_assignment, solve_brute_force

from util import ODD_K, const_rel, make_inventory, make_program, two_ad_instance


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


def block_values(program, inventory, rel, params):
    """The block reduction, computed apart from ``solve_assignment``: g[b, j]
    is the max of ad j's contributions over the slots of block b.  Returns g
    and the HV mask over ads."""
    c = solvers._contributions(program, inventory, rel, params)
    blocks = slot_blocks(program.slot_count, params.k)
    g = np.array([c[[slot - 1 for slot in block]].max(axis=0) for block in blocks])
    is_hv = np.array([p is Polarity.HV for p in inventory.polarities])
    return g.reshape(len(blocks), len(inventory)), is_hv


def quota_padded_optimum(optimize, g, is_hv):
    """The optimum of scipy's assignment on the k block rows of ``g``, padded
    to P x P with weight-0 dummy rows that take only HV or only LV ads, so
    that k/2 of each land in blocks: an oracle independent of the solver."""
    k, p = g.shape
    half, n_hv = k // 2, int(is_hv.sum())
    weights = np.vstack([
        g,
        np.tile(np.where(is_hv, 0.0, -np.inf), (n_hv - half, 1)),
        np.tile(np.where(is_hv, -np.inf, 0.0), (p - n_hv - half, 1)),
    ])
    rows, cols = optimize.linear_sum_assignment(weights, maximize=True)
    return g[rows[:k], cols[:k]].sum()


def north_star_instance(k, seed, alpha):
    """1000 ads and 200 slots, the north star's large scale; seed 1's
    relevance is rounded to 0.1, so that many contributions tie."""
    program, inventory, rel = random_instance(1000, 200, seed)
    if seed == 1:
        rel = RelevanceMatrix(np.round(rel.values, 1))
    return program, inventory, rel, RewardParams(alpha, 1.0 - alpha, k)


def assert_same_reward(actual, expected):
    assert math.isclose(actual, expected, rel_tol=1e-12, abs_tol=REWARD_ATOL), (actual, expected)


NORTH_STAR = [
    *(pytest.param(100, seed, alpha, id=f"k100-seed{seed}-alpha{alpha}")
      for seed in (0, 1) for alpha in (0.0, 0.5, 1.0)),
    pytest.param(200, 1, 0.5, id="k200-seed1-alpha0.5"),
    pytest.param(200, 1, 0.0, id="k200-seed1-alpha0.0"),
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
        with pytest.raises(InfeasibleK, match="need 1 HV and 1 LV ads, inventory has 3 HV / 0 LV"):
            balanced_subsets(inventory, 2)

    def test_odd_k_rejected(self):
        inventory = make_inventory(0.9, 0.1)
        with pytest.raises(InfeasibleK, match=ODD_K):
            balanced_subsets(inventory, 1)

    def test_matches_filtered_combinations_oracle(self):
        rng = np.random.default_rng(71)
        for trial in range(20):
            p = int(rng.integers(4, 9))
            vals = [float(v) for v in rng.random(p)]
            inventory = make_inventory(*vals)
            for k in (0, 2, 4):
                half = k // 2
                hv = inventory.polarities.count(Polarity.HV)
                if hv < half or len(inventory) - hv < half:
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
        assert schedules[0].entries[0].ad_id == "a1"
        assert schedules[1].entries[0].ad_id == "a2"

    def test_one_ad_three_slots(self):
        program = make_program(0.5, 0.5, 0.5, 0.5)  # M = 3, single block
        schedules = placements((0,), program, 1)
        assert [s.entries[0].slot for s in schedules] == [1, 2, 3]

    def test_two_ads_four_slots(self):
        program = make_program(0.5, 0.5, 0.5, 0.5, 0.5)  # M = 4
        schedules = placements((0, 1), program, 2)
        assert len(schedules) == 8  # 2! orderings x 2 x 2 slot choices

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
        assert [(e.slot, e.ad_id) for e in report.schedule.entries] == [
            (1, "a2"),
            (2, "a1"),
        ]

    def test_k_zero(self):
        program, inventory, rel, _ = two_ad_instance()
        report = solve_brute_force(program, inventory, rel, RewardParams(0.5, 0.5, 0))
        assert report.reward == 0.0
        assert len(report.schedule) == 0

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
        with pytest.raises(InfeasibleK, match="need 1 HV and 1 LV ads, inventory has 2 HV / 0 LV"):
            solve_brute_force(program, inventory, const_rel(3, 2), RewardParams(0.5, 0.5, 2))

    def test_candidate_cap(self):
        # the count is taken before any enumeration, so this stays instant
        program, inventory, rel = random_instance(40, 30, 0)
        params = RewardParams(0.5, 0.5, 10)
        with pytest.raises(InstanceTooLarge, match="use solve_assignment"):
            solve_brute_force(program, inventory, rel, params)


class TestAssignment:
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
        # every (slot, ad) contribution ties here, which pins both documented
        # slot tie-breaks: the assignment puts each pick on its block's
        # earliest best slot, and brute force keeps the first schedule it
        # enumerates.  Their ad-to-block tie-breaks differ (the flow augments
        # the last block first) until ROADMAP item 6 defines one optimum
        program = make_program(0.5, 0.5, 0.5, 0.5, 0.5)  # M = 4, blocks {1,2},{3,4}
        inventory = make_inventory(0.9, 0.1)
        params = RewardParams(0.0, 1.0, 2)
        rel = const_rel(5, 2, 0.5)
        bf = solve_brute_force(program, inventory, rel, params)
        assert [(e.slot, e.ad_id) for e in bf.schedule.entries] == [(1, "a1"), (3, "a2")]
        report = solve_assignment(program, inventory, rel, params)
        assert [(e.slot, e.ad_id) for e in report.schedule.entries] == [(1, "a2"), (3, "a1")]

    def test_k_zero(self):
        program, inventory, rel, _ = two_ad_instance()
        report = solve_assignment(program, inventory, rel, RewardParams(0.5, 0.5, 0))
        assert report.reward == 0.0 and len(report.schedule) == 0

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
            g, is_hv = block_values(program, inventory, rel, params)
            assert len(solvers._kept_columns(g, is_hv)) <= k * k < p
            bf = solve_brute_force(program, inventory, rel, params)
            exact = solve_assignment(program, inventory, rel, params)
            assert abs(exact.reward - bf.reward) <= 1e-9
            assert validate_schedule(exact.schedule, program, inventory, params)

    def test_kept_columns_follow_their_docstring(self):
        def kept_by_rule(g, is_hv):
            # each block's k/2 best ads of each polarity, ties to the lower
            # index; the union, in ascending order
            kept = set()
            for row in g.tolist():
                for polarity in (True, False):
                    ads = [j for j in range(len(is_hv)) if is_hv[j] == polarity]
                    kept.update(sorted(ads, key=lambda j: (-row[j], j))[: len(g) // 2])
            return sorted(kept)

        for case, (p, m, k) in enumerate([(7, 6, 4), (12, 5, 0), (30, 9, 6), (60, 20, 8)]):
            program, inventory, rel = random_instance(p, m, 7000 + case)
            g, is_hv = block_values(program, inventory, rel, RewardParams(0.5, 0.5, k))
            for values in (g, np.round(g, 1)):  # rounding ties many ads
                # the second mask holds two HV ads, fewer than k/2 at k >= 6
                for mask in (is_hv, np.arange(p) < 2):
                    kept = solvers._kept_columns(values, mask)
                    assert kept.dtype.kind == "i"
                    assert kept.tolist() == kept_by_rule(values, mask)

    def test_flow_without_augmenting_path_raises(self):
        # two rows but only HV columns: the LV hub can never reach the sink
        with pytest.raises(RuntimeError, match="no augmenting path"):
            solvers._min_cost_assignment(np.zeros((2, 3)), np.ones(3, dtype=bool))

    def test_matches_quota_padded_linear_sum_assignment(self):
        # an independent oracle beyond brute-force sizes
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
            expected = quota_padded_optimum(
                optimize, *block_values(program, inventory, rel, params)
            )
            exact = solve_assignment(program, inventory, rel, params)
            where = f"case {case}: P={p} M={m} k={k}"
            assert abs(exact.reward - expected) <= 1e-9, where
            assert validate_schedule(exact.schedule, program, inventory, params), where

    @pytest.mark.parametrize("k, seed, alpha", NORTH_STAR)
    def test_matches_linear_sum_assignment_at_north_star_scale(self, k, seed, alpha):
        program, inventory, rel, params = north_star_instance(k, seed, alpha)
        exact = solve_assignment(program, inventory, rel, params)
        # the reported reward is its schedule's re-score, exactly, with or without scipy
        assert exact.reward == reward(exact.schedule, program, inventory, rel, params)
        optimize = pytest.importorskip("scipy.optimize")
        g, is_hv = block_values(program, inventory, rel, params)
        assert_same_reward(exact.reward, quota_padded_optimum(optimize, g, is_hv))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ad_order_leaves_the_optimum_unchanged(self, seed):
        program, inventory, rel, params = north_star_instance(100, seed, 0.5)
        perm = np.random.default_rng(seed).permutation(len(inventory))
        shuffled = AdInventory(tuple(inventory.ads[j] for j in perm))
        again = solve_assignment(program, shuffled, RelevanceMatrix(rel.values[:, perm]), params)
        assert_same_reward(again.reward, solve_assignment(program, inventory, rel, params).reward)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_unchosen_ads_leave_the_optimum_unchanged(self, seed):
        program, inventory, rel, params = north_star_instance(100, seed, 0.5)
        best = solve_assignment(program, inventory, rel, params)
        chosen = {entry.ad_id for entry in best.schedule.entries}
        keep = [j for j, ad in enumerate(inventory.ads) if ad.id in chosen]
        assert len(keep) == params.k
        kept = AdInventory(tuple(inventory.ads[j] for j in keep))
        again = solve_assignment(program, kept, RelevanceMatrix(rel.values[:, keep]), params)
        assert_same_reward(again.reward, best.reward)


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
        # each solver reports exactly its own schedule's re-score
        for name, report in (("brute", bf), ("assignment", exact)):
            rescored = reward(report.schedule, program, inventory, rel, params)
            if report.reward != rescored:
                failures.append(f"{where}: {name} reports {report.reward!r}, re-scored {rescored!r}")
    assert cells > 1000
    assert not failures, failures[:10]


class TestSolverProperties:
    @pytest.mark.parametrize(
        "p, m, k, seed", [(40, 12, 6, 0), (40, 12, 6, 1), (1000, 200, 100, 0)]
    )
    def test_alpha_trades_the_two_objectives(self, p, m, k, seed):
        # A is the positional term and B the contrast term.  The optimum at
        # each alpha maximizes alpha*A + (1 - alpha)*B, so as alpha grows A
        # cannot fall and B cannot rise, and the optimal reward, a maximum of
        # functions affine in alpha, is convex.  These conditions are
        # necessary for optimality and need no reference solver
        def at_least(x, y):
            return x >= y or math.isclose(x, y, rel_tol=1e-12, abs_tol=REWARD_ATOL)

        program, inventory, rel = random_instance(p, m, seed)
        alphas = (0.0, 0.25, 0.5, 0.75, 1.0)
        optima, a_terms, b_terms = [], [], []
        for alpha in alphas:
            report = solve_assignment(program, inventory, rel, RewardParams(alpha, 1.0 - alpha, k))
            a = reward(report.schedule, program, inventory, rel, RewardParams(1.0, 0.0, k))
            b = reward(report.schedule, program, inventory, rel, RewardParams(0.0, 1.0, k))
            assert_same_reward(alpha * a + (1.0 - alpha) * b, report.reward)
            optima.append(report.reward)
            a_terms.append(a)
            b_terms.append(b)
        for i in range(1, len(alphas)):
            assert at_least(a_terms[i], a_terms[i - 1]), (alphas[i], a_terms)
            assert at_least(b_terms[i - 1], b_terms[i]), (alphas[i], b_terms)
        for i in range(1, len(alphas) - 1):
            assert at_least((optima[i - 1] + optima[i + 1]) / 2, optima[i]), (alphas[i], optima)

    def test_repeat_solves_are_identical(self):
        program, inventory, rel = random_instance(9, 7, 555)
        params = RewardParams(0.5, 0.5, 4)
        for solve in (solve_brute_force, solve_assignment):
            first = solve(program, inventory, rel, params)
            second = solve(program, inventory, rel, params)
            assert first.schedule == second.schedule
            assert first.reward == second.reward

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
