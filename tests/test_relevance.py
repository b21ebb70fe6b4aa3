"""Cosine similarity, frame pairing and relevance-matrix construction."""

import itertools

import numpy as np
import pytest

from adplacer import relevance
from adplacer.errors import InputError
from adplacer.relevance import (
    KeyframeFeatures,
    build_relevance_matrix,
    cosine_similarity,
)


def feats(entity_id, rows):
    return KeyframeFeatures(entity_id, np.array(rows, dtype=float))


class TestCosine:
    def test_hand_computed(self):
        # dot = 32, norms sqrt(14) and sqrt(77)
        assert cosine_similarity([1, 2, 3], [4, 5, 6]) == pytest.approx(
            0.9746318461970762, abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(InputError, match="vectors must share one dimension"):
            cosine_similarity([1, 2], [1, 2, 3])

    def test_zero_vector(self):
        with pytest.raises(InputError, match="undefined for a zero-norm vector"):
            cosine_similarity([0.0, 0.0], [1.0, 2.0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            u = rng.normal(size=16)
            for c in (2.5, 1e-3, 7e4):
                assert cosine_similarity(u, c * u) == pytest.approx(1.0, abs=1e-12)
                assert cosine_similarity(u, -c * u) == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_magnitudes(self, scale):
        # the plain norm overflows (1e200) or underflows (1e-200) here
        u = np.array([3.0, 4.0, 12.0]) * scale
        assert cosine_similarity(u, u) == 1.0
        assert cosine_similarity(u, -u) == -1.0
        assert cosine_similarity(u, [4.0, -3.0, 0.0]) == 0.0

    def test_result_stays_in_range(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            u, v = rng.normal(size=(2, 8))
            assert -1.0 <= cosine_similarity(u, v) <= 1.0
            # unclipped, a vector's cosine with itself can round past 1
            assert cosine_similarity(u, u) <= 1.0 and cosine_similarity(u, -u) >= -1.0


class TestPairRelevance:
    """One scene against one ad: the 1 x 1 relevance matrix."""

    def test_frame_count_mismatch(self):
        # the scene has fewer frames than the ad; TestMatrix covers the reverse
        a = feats("s", [[1.0, 0.0]])
        b = feats("ad", [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(InputError, match="aligned pairing needs equal frame counts"):
            build_relevance_matrix([a], [b])


class TestKeyframeFeatures:
    def test_rejects_zero_row(self):
        with pytest.raises(InputError, match=r"all-zero frame vector\(s\) at rows \[1\]"):
            feats("s", [[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(InputError, match=r"at rows \[0, 2, 3\]$"):
            feats("s", [[0.0, 0.0], [1.0, 0.0], [0.0, -0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("rows", [
        [[0.0, 0.0], [1.0, np.nan]],  # an all-zero row before a NaN row
        [[1.0, 1.0], [2.0, -np.inf]],
        [[0.0, 0.0], [0.0, np.nan], [0.0, 0.0]],
    ])
    def test_rejects_non_finite_before_zero_rows(self, rows):
        with pytest.raises(ValueError, match=r"^'s': feature values must be finite$"):
            feats("s", rows)

    def test_accepts_tiny_rows(self):
        # the norm of this row underflows to 0, but the row is not all-zero
        f = feats("s", [[1e-200, 1e-200], [0.0, 5e-324]])
        assert f.frame_count == 2

    def test_rejects_bad_shapes(self):
        with pytest.raises(InputError, match=r"matrix, got shape \(4,\)"):
            KeyframeFeatures("s", np.ones(4))
        with pytest.raises(InputError, match=r"matrix, got shape \(0, 4\)"):
            KeyframeFeatures("s", np.ones((0, 4)))

    def test_shape_accessors(self):
        f = feats("s", np.ones((7, 3)))
        assert f.frame_count == 7 and f.frames.shape == (7, 3)


class TestMatrix:
    def test_single_identical_pair(self):
        a = feats("s1", [[1.0, 2.0]])
        b = feats("ad1", [[1.0, 2.0]])
        rel = build_relevance_matrix([a], [b])
        assert rel.values.shape == (1, 1)
        assert rel.values[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(53)
        scenes = [feats(f"s{i}", rng.normal(size=(4, 6))) for i in range(2)]
        ads = [feats(f"ad{j}", rng.normal(size=(4, 6))) for j in range(2)]
        rel = build_relevance_matrix(scenes, ads)
        for i in range(2):
            for j in range(2):
                expected = np.mean([
                    cosine_similarity(scenes[i].frames[f], ads[j].frames[f])
                    for f in range(4)
                ])
                assert rel.values[i, j] == pytest.approx(float(expected), abs=1e-12)

    def test_entries_in_range(self):
        rng = np.random.default_rng(59)
        scenes = [feats(f"s{i}", rng.normal(size=(5, 4))) for i in range(3)]
        ads = [feats(f"ad{j}", rng.normal(size=(5, 4))) for j in range(4)]
        rel = build_relevance_matrix(scenes, ads)
        assert np.all(rel.values >= -1.0) and np.all(rel.values <= 1.0)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    @pytest.mark.parametrize("pairing", ["aligned", "all_pairs"])
    def test_extreme_magnitudes_give_the_unscaled_matrix(self, pairing, scale):
        rng = np.random.default_rng(73)
        frames = [rng.normal(size=(4, 6)) for _ in range(4)]
        unscaled = build_relevance_matrix(
            [feats("s0", frames[0]), feats("s1", frames[1])],
            [feats("ad0", frames[0]), feats("ad1", frames[2]), feats("ad2", frames[3])],
            pairing,
        ).values
        scaled = build_relevance_matrix(
            [feats("s0", frames[0] * scale), feats("s1", frames[1] * scale)],
            [feats("ad0", frames[0] * scale), feats("ad1", frames[2] * scale),
             feats("ad2", frames[3] * scale)],
            pairing,
        ).values
        np.testing.assert_allclose(scaled, unscaled, rtol=0, atol=1e-12)
        if pairing == "aligned":
            assert scaled[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_power_of_two_scaling_is_bit_identical(self):
        rng = np.random.default_rng(79)
        scenes = [feats(f"s{i}", rng.normal(size=(3, 5))) for i in range(2)]
        ads = [feats(f"ad{j}", rng.normal(size=(3, 5))) for j in range(3)]
        for pairing in ("aligned", "all_pairs"):
            rel = build_relevance_matrix(scenes, ads, pairing).values
            for e in (-600, 600):
                big = [feats(f.entity_id, np.ldexp(f.frames, e)) for f in scenes]
                assert np.array_equal(build_relevance_matrix(big, ads, pairing).values, rel)

    def test_permuting_ads_permutes_columns(self):
        rng = np.random.default_rng(61)
        scenes = [feats(f"s{i}", rng.normal(size=(3, 5))) for i in range(2)]
        ads = [feats(f"ad{j}", rng.normal(size=(3, 5))) for j in range(3)]
        rel = build_relevance_matrix(scenes, ads)
        perm = [2, 0, 1]
        rel_perm = build_relevance_matrix(scenes, [ads[j] for j in perm])
        assert np.array_equal(rel_perm.values, rel.values[:, perm])

    @pytest.mark.parametrize("pairing", ["aligned", "all_pairs"])
    def test_identical_creatives_tie_exactly(self, pairing):
        # scenes i and i+3 are twins, and so are ads j and j+6; ad 12 is a
        # twin of ads 0 and 6 whose zeros are -0.0.  Twins sit apart, so
        # without sharing one summary they land at different positions of
        # the BLAS product, whose bits depend on that position and on the
        # thread count; on a BLAS whose product does not, this test passes
        # even without the sharing
        for seed in range(20):
            rng = np.random.default_rng(seed)
            scene_bases = rng.standard_normal((3, 4, 64))
            ad_bases = rng.standard_normal((6, 4, 64))
            ad_bases[0, :, ::4] = 0.0
            scenes = [feats(f"s{i}", scene_bases[i % 3]) for i in range(6)]
            ads = [feats(f"ad{j}", ad_bases[j % 6]) for j in range(12)]
            ads.append(feats("ad12", np.where(ad_bases[0] == 0.0, -0.0, ad_bases[0])))
            rel = build_relevance_matrix(scenes, ads, pairing).values
            assert np.array_equal(rel[:, :6], rel[:, 6:12]), seed
            assert np.array_equal(rel[:, 0], rel[:, 12]), seed
            assert np.array_equal(rel[:3], rel[3:]), seed

    @pytest.mark.parametrize("pairing", ["aligned", "all_pairs"])
    def test_equal_norm_creatives_stay_distinct(self, monkeypatch, pairing):
        # 200 distinct ads of two one-hot frames, every frame of norm 1, and
        # a twin of ad 3 at the end: a lookup keyed on the norms alone either
        # merges distinct ads or confirms each ad against every earlier one
        rng = np.random.default_rng(89)
        scenes = [feats(f"s{i}", rng.normal(size=(2, 32))) for i in range(4)]
        hot = list(itertools.combinations(range(32), 2))
        ads = [feats(f"ad{j}", np.eye(32)[list(hot[h])])
               for j, h in enumerate(rng.choice(len(hot), 200, replace=False))]
        ads.append(feats("ad200", ads[3].frames))
        array_equal, calls = np.array_equal, []
        monkeypatch.setattr(np, "array_equal", lambda *a: calls.append(a) or array_equal(*a))
        rel = build_relevance_matrix(scenes, ads, pairing).values
        monkeypatch.undo()
        frame_pairs = [(0, 0), (1, 1)] if pairing == "aligned" else [(0, 0), (0, 1), (1, 0), (1, 1)]
        expected = [[np.mean([cosine_similarity(s.frames[f], a.frames[g]) for f, g in frame_pairs])
                     for a in ads] for s in scenes]
        np.testing.assert_allclose(rel, expected, rtol=0, atol=1e-12)
        assert np.array_equal(rel[:, 3], rel[:, 200])
        assert len(calls) <= 1  # one confirmation, for the one twin

    def test_a_shared_key_still_needs_equal_summaries(self, monkeypatch):
        # with every summary under one key, only np.array_equal keeps ads apart
        rng = np.random.default_rng(97)
        scenes = [feats("s0", rng.normal(size=(2, 4)))]
        ads = [feats(f"ad{j}", rng.normal(size=(2, 4))) for j in range(3)]
        expected = build_relevance_matrix(scenes, ads).values
        monkeypatch.setattr(relevance, "hash", lambda key: 0, raising=False)
        assert np.array_equal(build_relevance_matrix(scenes, ads).values, expected)

    def test_frame_count_mismatch(self):
        rng = np.random.default_rng(67)
        scenes = [feats(f"s{i}", rng.normal(size=(3, 4))) for i in range(2)]
        ads = [feats("ad0", rng.normal(size=(3, 4))), feats("ad1", rng.normal(size=(2, 4)))]
        message = "^aligned pairing needs equal frame counts: 's0' has 3, 'ad1' has 2$"
        with pytest.raises(InputError, match=message):
            build_relevance_matrix(scenes, ads)
        assert build_relevance_matrix(scenes, ads, "all_pairs").values.shape == (2, 2)

    def test_empty_ad_list_still_checks_the_scenes(self):
        rng = np.random.default_rng(67)
        scenes = [feats("s0", rng.normal(size=(3, 4))), feats("s1", rng.normal(size=(2, 4)))]
        message = "^aligned pairing needs equal frame counts: 's0' has 3, 's1' has 2$"
        with pytest.raises(InputError, match=message):
            build_relevance_matrix(scenes, [])

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(71)
        scenes = [feats("s0", rng.normal(size=(3, 4))), feats("s1", rng.normal(size=(3, 5)))]
        ads = [feats("ad0", rng.normal(size=(3, 4)))]
        for pairing in ("aligned", "all_pairs"):
            with pytest.raises(InputError, match="s1"):
                build_relevance_matrix(scenes, ads, pairing)

    @pytest.mark.parametrize("pairing", ["aligned", "all_pairs"])
    def test_first_failing_entity_is_named(self, pairing):
        # scenes are checked before ads, and an entity's dims before its frame count
        rng = np.random.default_rng(83)
        scenes = [feats("s0", rng.normal(size=(3, 4))), feats("s1", rng.normal(size=(3, 5)))]
        ads = [feats("ad0", rng.normal(size=(2, 4)))]
        with pytest.raises(InputError, match="^feature dims differ: 's0' has 4, 's1' has 5$"):
            build_relevance_matrix(scenes, ads, pairing)
        ads = [feats("ad0", rng.normal(size=(3, 4))), feats("ad1", rng.normal(size=(2, 5)))]
        with pytest.raises(InputError, match="^feature dims differ: 's0' has 4, 'ad1' has 5$"):
            build_relevance_matrix(scenes[:1], ads, pairing)

    def test_unknown_pairing(self):
        a = feats("s", [[1.0, 2.0]])
        with pytest.raises(ValueError, match="nope"):
            build_relevance_matrix([a], [a], pairing="nope")

    @pytest.mark.parametrize("pairing", ["aligned", "all_pairs"])
    def test_empty_side_gives_an_empty_matrix(self, pairing):
        rows = [feats(f"e{i}", [[1.0, 2.0]]) for i in range(3)]
        assert build_relevance_matrix([], rows, pairing).values.shape == (0, 3)
        assert build_relevance_matrix(rows, [], pairing).values.shape == (3, 0)
