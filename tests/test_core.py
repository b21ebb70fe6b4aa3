"""Core domain types, polarity, validation and the reward function."""

import dataclasses
import math
import random
import re

import numpy as np
import pytest

import adplacer
from adplacer import io, random_instance
from adplacer.core import (
    Ad,
    AdInventory,
    Polarity,
    ProfilePoint,
    ProgramSpec,
    RelevanceMatrix,
    RewardParams,
    Scene,
    Schedule,
    ScheduleEntry,
    Valence,
    reward,
    slot_blocks,
    validate_schedule,
)
from adplacer.errors import AdPlacerError, InfeasibleK, InputError
from adplacer.relevance import KeyframeFeatures

from util import (
    ODD_K,
    const_rel,
    make_inventory,
    make_program,
    random_feasible_schedule,
    two_ad_instance,
)


def test_public_surface():
    """Every exported name resolves, and a star import binds exactly those."""
    assert [name for name in adplacer.__all__ if not hasattr(adplacer, name)] == []
    namespace: dict = {}
    exec("from adplacer import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(adplacer.__all__)


def test_solve_report_holds_only_what_a_solver_knows():
    """Route name and timing belong to the run, not to a solver's answer."""
    fields = [f.name for f in dataclasses.fields(adplacer.SolveReport)]
    assert fields == ["schedule", "reward"]


def test_validation_result_is_the_rule_it_failed():
    """A result holds no flag that could contradict the rule it names."""
    fields = [f.name for f in dataclasses.fields(adplacer.ValidationResult)]
    assert fields == ["constraint", "message"]


class TestValence:
    def test_bounds(self):
        assert Valence(0.0).value == 0.0
        assert Valence(1.0).value == 1.0

    @pytest.mark.parametrize("bad", [
        -0.1, 1.0001, float("nan"), float("inf"), -5e-324,
        # integers beyond the float range, where float() overflows
        pytest.param(10**400, id="1e400"), pytest.param(-(10**400), id="-1e400"),
    ])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(InputError, match=r"outside \[0, 1\]"):
            Valence(bad)


class TestPolarity:
    @pytest.mark.parametrize(
        "value,expected",
        [(0.9, Polarity.HV), (0.5, Polarity.LV), (0.0, Polarity.LV),
         (0.5000001, Polarity.HV), (1.0, Polarity.HV)],
    )
    def test_threshold(self, value, expected):
        assert Ad("x", Valence(value)).polarity is expected

    def test_partitions_any_inventory(self):
        rng = np.random.default_rng(5)
        for v in rng.random(200):
            ad = Ad("x", Valence(float(v)))
            assert (ad.polarity is Polarity.HV) != (ad.polarity is Polarity.LV)


class TestContainers:
    def test_program_defaults_slots_to_transitions(self):
        program = make_program(0.1, 0.2, 0.3, 0.4)
        assert program.slot_count == 3
        assert program.n_scenes == 4

    def test_program_custom_slot_count(self):
        assert make_program(0.1, 0.2, 0.3, slot_count=1).slot_count == 1
        with pytest.raises(ValueError, match=r"^slot_count must lie in 1\.\.1, got 5$"):
            make_program(0.1, 0.2, slot_count=5)

    @pytest.mark.parametrize("slot_count", [2.7, 3.0, True, "3", None], ids=repr)
    def test_program_slot_count_must_be_an_integer(self, slot_count):
        scenes = make_program(0.1, 0.2, 0.3, 0.4).scenes
        with pytest.raises(ValueError, match="'slot_count' must be an integer"):
            ProgramSpec(scenes, slot_count)

    def test_program_numpy_slot_count_saves_as_json(self, tmp_path):
        program = make_program(0.1, 0.2, 0.3, 0.4, slot_count=np.int64(3))
        assert type(program.slot_count) is int
        io.save_program(program, tmp_path / "program.json")
        assert io.load_program(tmp_path / "program.json") == program

    def test_program_needs_two_scenes(self):
        with pytest.raises(ValueError, match="^a program needs at least 2 scenes, got 1$"):
            make_program(0.5)

    def test_inventory_needs_an_ad(self):
        with pytest.raises(ValueError, match="^inventory must contain at least one ad$"):
            AdInventory(())

    def test_duplicate_scene_id(self):
        scenes = (Scene("s", Valence(0.1)), Scene("s", Valence(0.2)))
        with pytest.raises(InputError, match="duplicate scene id 's'"):
            ProgramSpec(scenes)
        # the first repeated id is named, not the first id that repeats
        with pytest.raises(InputError, match="^duplicate scene id 'b'$"):
            ProgramSpec(tuple(Scene(scene_id, Valence(0.1)) for scene_id in "abba"))
        # the id check comes before the slot range
        with pytest.raises(InputError, match="^duplicate scene id 'a'$"):
            ProgramSpec((Scene("a", Valence(0.1)), Scene("a", Valence(0.2))), slot_count=5)

    def test_duplicate_ad_id(self):
        with pytest.raises(InputError, match="duplicate ad id 'a'"):
            AdInventory((Ad("a", Valence(0.1)), Ad("a", Valence(0.2))))
        # the first repeated id is named, not the first id that repeats
        with pytest.raises(InputError, match="^duplicate ad id 'b'$"):
            AdInventory(tuple(Ad(ad_id, Valence(0.1)) for ad_id in "abba"))

    def test_entity_lists_hold_read_only_arrays_in_entity_order(self):
        program = make_program(0.7, -0.0, 1.0)
        inventory = AdInventory(tuple(
            Ad(f"a{i}", Valence(v)) for i, v in enumerate([0.9, 0.5, -0.0, 0.51])
        ))
        for arr, expected in [(program.valences, [0.7, 0.0, 1.0]),
                              (inventory.valences, [0.9, 0.5, 0.0, 0.51])]:
            assert arr.dtype == np.float64
            assert arr.tolist() == expected
            assert not np.signbit(arr).any()  # -0.0 is read as 0.0
            with pytest.raises(ValueError):
                arr[0] = 0.5
        assert inventory.polarities == tuple(a.polarity for a in inventory.ads)
        assert inventory.polarities == (Polarity.HV, Polarity.LV, Polarity.LV, Polarity.HV)

    def test_schedule_rejects_repeated_ad(self):
        with pytest.raises(ValueError):
            Schedule((ScheduleEntry(1, 0, "a"), ScheduleEntry(2, 0, "a")))

    def test_relevance_matrix_validation(self):
        with pytest.raises(InputError, match="relevance matrix must be 2-D"):
            RelevanceMatrix(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match=r"relevance entries must lie in \[-1, 1\]"):
            RelevanceMatrix([[1 + 2e-9]])
        with pytest.raises(ValueError):
            RelevanceMatrix([[float("nan")]])
        # entries up to 1e-9 outside [-1, 1] are rounding, and are clipped
        assert RelevanceMatrix([[1 + 5e-10, -1 - 5e-10]]).values.tolist() == [[1.0, -1.0]]
        assert repr(RelevanceMatrix(np.zeros((2, 3)))) == "RelevanceMatrix(shape=(2, 3))"


class TestRewardParams:
    def test_alpha_beta_must_sum_to_one(self):
        with pytest.raises(ValueError):
            RewardParams(0.6, 0.6, 2)
        with pytest.raises(ValueError):
            RewardParams(1.2, -0.2, 2)

    @pytest.mark.parametrize("k", [-2, 1, 3, 7])
    def test_k_must_be_even_nonnegative(self, k):
        with pytest.raises(InfeasibleK, match=ODD_K):
            RewardParams(0.5, 0.5, k)

    def test_k_zero_allowed(self):
        assert RewardParams(1.0, 0.0, 0).k == 0

    @pytest.mark.parametrize("k", [4.0, "4", None, True], ids=repr)
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(InputError, match="'k' must be an integer"):
            RewardParams(0.5, 0.5, k)

    def test_numpy_k_becomes_int(self):
        assert type(RewardParams(0.5, 0.5, np.int64(4)).k) is int


_SCENES = tuple(Scene(f"s{i}", Valence(0.5)) for i in range(4))


@pytest.mark.parametrize(
    "build, input_error",
    [
        (lambda: RelevanceMatrix([[float("nan")]]), False),
        (lambda: ProgramSpec(()), False),
        (lambda: AdInventory(()), False),
        (lambda: KeyframeFeatures("x", [[float("inf")]]), False),
        (lambda: ProfilePoint(0, "scene", "s1", 50.0), False),
        (lambda: Schedule((), "weird"), False),
        (lambda: random_instance(0, 1, 0), False),
        (lambda: ProgramSpec(_SCENES, 2.7), False),
        (lambda: RewardParams(0.5, 0.5, "4"), True),
    ],
    ids=["relevance_nan", "program_empty", "inventory_empty", "features_inf",
         "profile_position", "schedule_mode", "random_instance", "slot_count", "k"],
)
def test_constructor_rejections_are_value_errors(build, input_error):
    """``except ValueError`` catches every rejected constructor argument;
    ``InputError`` marks only those ``adplacer run`` blames on its input."""
    with pytest.raises(ValueError) as caught:
        build()
    assert isinstance(caught.value, InputError) is input_error


@pytest.mark.parametrize("build, shown", [
    (lambda: RewardParams(0.5, 0.5, "k" * 10**6), "'kkkkkkkkkkkk...kkkkkkkkkkkkk'"),
    (lambda: ProfilePoint(-(10**400), "scene", "s1", 50.0),
     "-10000000000000000...0000000000000000000"),
    (lambda: KeyframeFeatures("x", np.zeros((1000, 2))), "[0, 1, 2, 3, 4, 5, ...]"),
    (lambda: Schedule((ScheduleEntry(1, -(10**400), "a"),), "baseline"),
     "-10000000000000000...0000000000000000000"),
    (lambda: Schedule((ScheduleEntry(10**400, 0, "a"), ScheduleEntry(10**400, 0, "b"))),
     "(100000000000000000...0000000000000000000, 0)"),
], ids=["k", "position", "zero_rows", "rank", "place"])
def test_rejected_values_are_echoed_shortened(build, shown):
    # reprlib.repr keeps the ends of a huge value, so its message stays short
    with pytest.raises(ValueError) as caught:
        build()
    assert shown in str(caught.value) and len(str(caught.value)) < 100


def test_random_instance_redraws_a_zero_hv_draw(monkeypatch):
    """A draw of exactly 0.0 would give an even ad valence 0.5, which is LV."""
    make_rng = np.random.default_rng

    class FirstScalarDrawIsZero:
        def __init__(self, seed):
            self.rng = make_rng(seed)
            self.zeroed = False

        def random(self, *shape):
            if shape or self.zeroed:
                return self.rng.random(*shape)
            self.zeroed = True
            return 0.0

        def __getattr__(self, name):
            return getattr(self.rng, name)

    monkeypatch.setattr(np.random, "default_rng", FirstScalarDrawIsZero)
    _, inventory, _ = random_instance(2, 1, 0)
    ad = inventory.ad("ad000")
    assert ad.polarity is Polarity.HV and ad.valence.value > 0.5


class TestSlotBlocks:
    def test_even_split(self):
        assert slot_blocks(4, 2) == ((1, 2), (3, 4))
        assert slot_blocks(2, 2) == ((1,), (2,))

    def test_eleven_slots_eight_blocks(self):
        blocks = slot_blocks(11, 8)
        assert len(blocks) == 8
        assert [len(b) for b in blocks] == [1, 1, 2, 1, 1, 2, 1, 2]

    def test_zero_blocks(self):
        assert slot_blocks(5, 0) == ()

    def test_k_larger_than_m_rejected(self):
        with pytest.raises(InfeasibleK):
            slot_blocks(3, 4)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_partition_properties(self, m):
        for k in range(1, m + 1):
            blocks = slot_blocks(m, k)
            flat = [s for b in blocks for s in b]
            assert flat == list(range(1, m + 1))  # exact cover, in order
            sizes = {len(b) for b in blocks}
            assert max(sizes) - min(sizes) <= 1


class TestValidation:
    # every other rule is a row of VALIDATION_TABLE, which fixes k = 4
    def test_empty_schedule_passes_with_k_zero(self):
        program, inventory, _, _ = two_ad_instance()
        params = RewardParams(0.5, 0.5, 0)
        assert validate_schedule(Schedule.empty(), program, inventory, params)


# M = 6 and k = 4 give the blocks 1..1, 2..3, 4..4 and 5..6; a1, a3, a5 are HV.
# Each row is (mode, (slot, rank, ad id) entries, constraint, message).  A row
# that breaks a rule and every rule after it pins that rule first: rows 2, 4,
# 5 and 6 for strict, 14 and 16 for baseline.
VALIDATION_TABLE = [
    ("strict", [(1, 0, "a1"), (2, 0, "a2"), (4, 0, "a3"), (5, 0, "a4")], None, ""),
    ("strict", [(5, 0, "zz"), (1, 0, "ghost"), (4, 0, "a3"), (2, 0, "a2")],
     "unknown_ad", "ad 'ghost' not in inventory"),
    ("strict", [(0, 0, "ghost"), (2, 0, "a3"), (3, 0, "a5")],
     "unknown_ad", "ad 'ghost' not in inventory"),
    ("strict", [(0, 0, "a1"), (2, 0, "a2"), (4, 0, "a3"), (7, 0, "a4")],
     "slot_range", "slots [0, 7] outside 1..6"),
    ("strict", [(7, 0, "a1")], "slot_range", "slots [7] outside 1..6"),
    ("strict", [(1, 0, "a1"), (2, 0, "a3"), (3, 0, "a5")],
     "ad_count", "schedule has 3 ads, expected k=4"),
    ("strict", [(1, 0, "a1"), (2, 0, "a3"), (3, 0, "a5"), (5, 0, "a2")],
     "block_uniformity", "block 2 (slots 2..3) holds 2 ads, expected 1"),
    ("strict", [(1, 0, "a2"), (2, 0, "a4"), (4, 0, "a6"), (5, 0, "a1")],
     "polarity_balance", "schedule holds 1 HV and 3 LV ads, expected 2 of each"),
    ("strict", [(2, 0, "a1"), (3, 0, "a2"), (4, 0, "a3"), (5, 0, "a4")],
     "block_uniformity", "block 1 (slots 1..1) holds 0 ads, expected 1"),
    ("strict", [(1, 0, "a1"), (2, 0, "a2")], "ad_count", "schedule has 2 ads, expected k=4"),
    ("strict", [(1, 0, "a1"), (2, 0, "a2"), (3, 0, "a3"), (5, 0, "a4")],
     "block_uniformity", "block 2 (slots 2..3) holds 2 ads, expected 1"),
    ("strict", [(1, 0, "a1"), (2, 0, "a2"), (5, 0, "a3"), (6, 0, "a4")],
     "block_uniformity", "block 3 (slots 4..4) holds 0 ads, expected 1"),
    ("strict", [(1, 0, "a1"), (2, 0, "a3"), (4, 0, "a5"), (5, 0, "a2")],
     "polarity_balance", "schedule holds 3 HV and 1 LV ads, expected 2 of each"),
    ("baseline", [(0, 0, "a1"), (0, 1, "a2"), (6, 0, "a3"), (6, 1, "a4")], None, ""),
    ("baseline", [(0, 0, "a1"), (3, 0, "ghost"), (-1, 0, "zz")],
     "unknown_ad", "ad 'zz' not in inventory"),
    ("baseline", [(-1, 0, "a1"), (0, 0, "a2"), (6, 0, "a3"), (7, 0, "a4")],
     "slot_range", "slots [-1, 7] outside 0..6"),
    ("baseline", [(7, 0, "a1")], "slot_range", "slots [7] outside 0..6"),
    # blocks and polarity are strict rules only
    ("baseline", [(1, 0, "a1"), (1, 1, "a3"), (1, 2, "a5"), (2, 0, "a2")], None, ""),
    ("baseline", [(0, 0, "a1"), (0, 1, "a2"), (0, 2, "a3"), (0, 3, "a4"), (0, 4, "a5")],
     "ad_count", "schedule has 5 ads, expected k=4"),
    ("baseline", [(0, 2, "a1"), (0, 5, "a2"), (3, 9, "a3"), (6, 1, "a4")], None, ""),
    ("baseline", [(0, 0, "a1"), (0, 1, "a2"), (3, 0, "a3")],
     "ad_count", "schedule has 3 ads, expected k=4"),
]


@pytest.mark.parametrize("mode, entries, constraint, message", VALIDATION_TABLE)
def test_validation_messages(mode, entries, constraint, message):
    program = make_program(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)
    inventory = make_inventory(0.8, 0.2, 0.9, 0.1, 0.7, 0.3)
    schedule = Schedule(tuple(ScheduleEntry(*e) for e in entries), mode)
    result = validate_schedule(schedule, program, inventory, RewardParams(0.5, 0.5, 4))
    assert (bool(result), result.constraint, result.message) == (constraint is None, constraint, message)


# Entries that break the schedule's own rules, which construction checks in
# the order mode, repeated ad, rank, place; the first offender in presentation
# order is named.  Each row is (mode, (slot, rank, ad id) entries, message).
CONSTRUCTION_TABLE = [
    pytest.param("strict", [(0, 1, "ghost")],
                 "ad 'ghost' has rank 1, but a strict schedule needs rank 0",
                 id="strict-rank-ghost"),
    pytest.param("strict", [(7, 1, "a1")],
                 "ad 'a1' has rank 1, but a strict schedule needs rank 0",
                 id="strict-rank-slot7"),
    pytest.param("strict", [(1, 1, "a1"), (2, 0, "a2"), (4, 2, "a3"), (5, 0, "a4")],
                 "ad 'a1' has rank 1, but a strict schedule needs rank 0",
                 id="strict-ranks"),
    pytest.param("strict", [(1, 1, "a1"), (1, 0, "a2")],
                 "ad 'a1' has rank 1, but a strict schedule needs rank 0",
                 id="strict-rank-stacked"),
    pytest.param("strict", [(1, -1, "a1")],
                 "ad 'a1' has rank -1, but a strict schedule needs rank 0",
                 id="strict-rank-negative"),
    pytest.param("strict", [(4, 0, "a1"), (1, 0, "a2"), (4, 0, "a3"), (1, 0, "a4"), (4, 0, "a5")],
                 "ads 'a2' and 'a4' share the (slot, rank) place (1, 0)",
                 id="strict-places"),
    pytest.param("strict", [(1, 0, "a1"), (1, 0, "a2")],
                 "ads 'a1' and 'a2' share the (slot, rank) place (1, 0)",
                 id="strict-place"),
    pytest.param("strict", [(2, 0, "a1"), (1, 1, "a1")],
                 "ad 'a1' scheduled more than once",
                 id="strict-repeat-before-rank"),
    pytest.param("baseline", [(0, 0, "a1"), (3, 0, "ghost"), (-1, -1, "zz")],
                 "ad 'zz' has rank -1, but a baseline schedule needs rank >= 0",
                 id="baseline-rank-ghost"),
    pytest.param("baseline", [(7, -1, "a1")],
                 "ad 'a1' has rank -1, but a baseline schedule needs rank >= 0",
                 id="baseline-rank-slot7"),
    pytest.param("baseline", [(0, -1, "a1"), (0, -1, "a2")],
                 "ad 'a1' has rank -1, but a baseline schedule needs rank >= 0",
                 id="baseline-rank-before-place"),
    pytest.param("baseline", [(3, 1, "a1"), (0, 0, "a2"), (3, 1, "a3"), (0, 0, "a4"), (3, 1, "a5")],
                 "ads 'a2' and 'a4' share the (slot, rank) place (0, 0)",
                 id="baseline-places"),
    pytest.param("baseline", [(0, 0, "a1"), (0, 0, "a2")],
                 "ads 'a1' and 'a2' share the (slot, rank) place (0, 0)",
                 id="baseline-place"),
    pytest.param("baseline", [(0, 0, "a1"), (0, 0, "a1")],
                 "ad 'a1' scheduled more than once",
                 id="baseline-repeat-before-place"),
]


@pytest.mark.parametrize("mode, entries, message", CONSTRUCTION_TABLE)
def test_construction_messages(mode, entries, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as caught:
        Schedule(tuple(ScheduleEntry(*e) for e in entries), mode)
    assert not isinstance(caught.value, InputError)


def test_unknown_mode_raises_before_any_rule():
    # the mode is checked first, even before the repeated ad
    entries = (ScheduleEntry(1, 0, "ghost"), ScheduleEntry(2, 0, "ghost"))
    with pytest.raises(ValueError, match="^'mode' must be 'strict' or 'baseline', got 'loose'$"):
        Schedule(entries, "loose")


class TestReward:
    def test_hand_scored_instance(self):
        program, inventory, rel, params = two_ad_instance()
        best = Schedule.strict([(1, "a2"), (2, "a1")])
        other = Schedule.strict([(1, "a1"), (2, "a2")])
        assert reward(best, program, inventory, rel, params) == pytest.approx(1.3, abs=1e-9)
        assert reward(other, program, inventory, rel, params) == pytest.approx(1.0, abs=1e-9)

    def test_baseline_schedule_has_no_reward(self):
        # these entries pass the strict rules, but the schedule is labelled baseline
        program, inventory, rel, params = two_ad_instance()
        placed = Schedule.strict([(1, "a2"), (2, "a1")])
        baseline = Schedule(placed.entries, "baseline")
        assert validate_schedule(placed, program, inventory, params)
        assert validate_schedule(baseline, program, inventory, params)
        with pytest.raises(AdPlacerError) as exc:
            reward(baseline, program, inventory, rel, params)
        assert type(exc.value) is AdPlacerError
        assert str(exc.value) == "only a strict schedule has a reward, got 'baseline'"

    def test_empty_schedule_scores_zero(self):
        program, inventory, rel, _ = two_ad_instance()
        params = RewardParams(0.5, 0.5, 0)
        assert reward(Schedule.empty(), program, inventory, rel, params) == 0.0

    def test_unit_valence_ad_contributes_nothing_at_alpha_one(self):
        # (1 - valence) wipes out the positional term for a valence-1.0 ad
        program = make_program(0.9, 0.1, 0.8)
        inventory = make_inventory(1.0, 0.0)
        params = RewardParams(1.0, 0.0, 2)
        rel = const_rel(3, 2)
        schedule = Schedule.strict([(1, "a1"), (2, "a2")])
        assert reward(schedule, program, inventory, rel, params) == pytest.approx(2.0, abs=1e-12)
        swapped = Schedule.strict([(2, "a1"), (1, "a2")])
        assert reward(swapped, program, inventory, rel, params) == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_schedule_raises(self):
        program, inventory, rel, params = two_ad_instance()
        unbalanced = Schedule.strict([(1, "a1")])
        with pytest.raises(AdPlacerError) as exc:
            reward(unbalanced, program, inventory, rel, params)
        assert type(exc.value) is AdPlacerError
        assert str(exc.value) == "ad_count: schedule has 1 ads, expected k=2"

    def test_relevance_shape_mismatch(self):
        program, inventory, _, params = two_ad_instance()
        schedule = Schedule.strict([(1, "a2"), (2, "a1")])
        with pytest.raises(InputError, match=r"shape \(2, 2\) does not match 3 scenes x 2 ads"):
            reward(schedule, program, inventory, const_rel(2, 2), params)

    def test_linear_in_alpha_beta(self):
        rng = random.Random(101)
        for trial in range(30):
            program, inventory, rel = random_instance(8, 6, 500 + trial)
            k = rng.choice([0, 2, 4])
            schedule = random_feasible_schedule(program, inventory, k, rng)
            alpha = rng.random()
            mixed = reward(schedule, program, inventory, rel,
                           RewardParams(alpha, 1.0 - alpha, k))
            pure_a = reward(schedule, program, inventory, rel, RewardParams(1.0, 0.0, k))
            pure_b = reward(schedule, program, inventory, rel, RewardParams(0.0, 1.0, k))
            assert mixed == pytest.approx(alpha * pure_a + (1.0 - alpha) * pure_b, abs=1e-12)
            # the scalar reference: the same operations, one entry at a time
            terms = []
            for e in schedule.entries:
                j, scene = inventory.index_of(e.ad_id), program.scenes[e.slot - 1]
                v = inventory.ads[j].valence.value
                terms.append(alpha * (e.slot * (1.0 - v)) + (1.0 - alpha) * (
                    abs(scene.valence.value - v) * float(rel.values[e.slot - 1, j])))
            assert mixed == math.fsum(terms)

    def test_beta_zero_ignores_relevance(self):
        rng = random.Random(7)
        program, inventory, rel_a = random_instance(6, 5, 11)
        rel_b = RelevanceMatrix(np.random.default_rng(99).uniform(-1, 1, rel_a.values.shape))
        params = RewardParams(1.0, 0.0, 2)
        schedule = random_feasible_schedule(program, inventory, 2, rng)
        assert reward(schedule, program, inventory, rel_a, params) == reward(
            schedule, program, inventory, rel_b, params
        )

    def test_entry_order_is_irrelevant(self):
        rng = random.Random(13)
        program, inventory, rel = random_instance(8, 6, 21)
        params = RewardParams(0.3, 0.7, 4)
        schedule = random_feasible_schedule(program, inventory, 4, rng)
        shuffled = list(schedule.entries)
        rng.shuffle(shuffled)
        assert reward(Schedule(tuple(shuffled)), program, inventory, rel, params) == reward(
            schedule, program, inventory, rel, params
        )

    def test_swapping_two_ads_shifts_positional_term_predictably(self):
        rng = random.Random(31)
        for trial in range(20):
            program, inventory, rel = random_instance(10, 8, 700 + trial)
            params = RewardParams(1.0, 0.0, 4)
            schedule = random_feasible_schedule(program, inventory, 4, rng)
            entries = list(schedule.entries)
            e1, e2 = rng.sample(entries, 2)
            swapped = [e for e in entries if e not in (e1, e2)]
            swapped += [
                ScheduleEntry(e1.slot, 0, e2.ad_id),
                ScheduleEntry(e2.slot, 0, e1.ad_id),
            ]
            before = reward(schedule, program, inventory, rel, params)
            after = reward(Schedule(tuple(swapped)), program, inventory, rel, params)
            v1 = inventory.ad(e1.ad_id).valence.value
            v2 = inventory.ad(e2.ad_id).valence.value
            expected_delta = (e2.slot - e1.slot) * (v2 - v1)
            assert after - before == pytest.approx(expected_delta, abs=1e-12)
