"""File formats, the run pipeline and its exit codes."""

import contextlib
import dataclasses
import gzip
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import adplacer
from adplacer import build_profile, cli, errors, io, random_instance, solvers, trivial_schedule
from adplacer.cli import main
from adplacer.core import (
    RewardParams,
    Schedule,
    ScheduleEntry,
    reward,
    validate_schedule,
)
from adplacer.errors import InputError
from adplacer.relevance import KeyframeFeatures
from adplacer.solvers import solve_assignment

from util import make_inventory, make_program, two_ad_instance


def write_two_ad_instance(tmp_path):
    """Write ``two_ad_instance()`` to program.json, inventory.json and rel.txt
    in ``tmp_path``."""
    program, inventory, rel, _ = two_ad_instance()
    paths = tmp_path / "program.json", tmp_path / "inventory.json", tmp_path / "rel.txt"
    io.save_program(program, paths[0])
    io.save_inventory(inventory, paths[1])
    io.save_relevance(rel, paths[2])
    return paths


def write_features(feat_dir, seed, ids=("s1", "s2", "s3", "a1", "a2"), shapes=None,
                   bad_row=None, header=""):
    """Write one grid of normal draws per id, in id order, into ``feat_dir``
    (created here), and return ``feat_dir``.  ``seed`` is a seed or a
    Generator; a grid is 5 x 8 unless ``shapes`` names its shape, and
    ``bad_row`` replaces row 3 of the last id's grid."""
    rng = np.random.default_rng(seed)
    feat_dir.mkdir(exist_ok=True)
    for eid in ids:
        frames = rng.normal(size=(shapes or {}).get(eid, (5, 8)))
        if bad_row is not None and eid == ids[-1]:
            frames[3] = bad_row
        np.savetxt(feat_dir / f"{eid}.txt", frames, fmt="%.17g", header=header, encoding="utf-8")
    return feat_dir


@contextlib.contextmanager
def edit_json(path):
    """Yield the JSON document saved at ``path``, and save the caller's edits."""
    doc = json.loads(path.read_text())
    yield doc
    path.write_text(json.dumps(doc))


def run_cli(program, inventory, *flags, k=2, out=None):
    """Run ``adplacer run`` in-process on the two files and ``flags``, and return
    its exit code.  ``out`` defaults to ``out`` beside the program file; a
    failed run must leave it absent, unless it existed before the call."""
    out = Path(program).parent / "out" if out is None else out
    existed = out.exists()
    code = main([
        "run", "--program", str(program), "--inventory", str(inventory),
        *map(str, flags), "--k", str(k), "--out", str(out),
    ])
    assert code == 0 or existed or not out.exists(), f"exit {code} left {out}"
    return code


#: The flags of the two routes of ``adplacer run``: the default exact solver,
#: which ``test_other_solvers_agree`` also reaches as ``bnb`` and ``lp``, and
#: the trivial baseline.
ROUTES = {"exact": (), "trivial": ("--solver", "trivial")}


def append_entity(path, kind, token):
    """Append an entity whose valence is the raw JSON number ``token``."""
    key = "scenes" if kind == "program" else "ads"
    doc = json.loads(path.read_text())
    doc[key].append({"id": "x", "valence": "VALENCE"})
    path.write_text(json.dumps(doc).replace('"VALENCE"', token))


class TestProgramFiles:
    def test_round_trip(self, tmp_path):
        program = make_program(0.9, 0.1, 0.8)
        path = tmp_path / "p.json"
        io.save_program(program, path)
        again = io.load_program(path)
        assert again == program

    def test_empty_scene_list(self, tmp_path):
        # and an empty ad list: each is an InputError that names the file
        for load, doc in [
            (io.load_program, {"format": io.PROGRAM_FORMAT, "scenes": []}),
            (io.load_inventory, {"format": io.INVENTORY_FORMAT, "ads": []}),
        ]:
            path = tmp_path / "p.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(InputError, match=f"^{re.escape(str(path))}: "):
                load(path)

    def test_valence_out_of_range(self, tmp_path):
        doc = {
            "format": io.PROGRAM_FORMAT,
            "scenes": [{"id": "s1", "valence": 120}, {"id": "s2", "valence": 0.1}],
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        message = re.escape(f"{path}: scenes[0]: valence 120 outside [0, 1]")
        with pytest.raises(InputError, match=f"^{message}$"):
            io.load_program(path)

    @pytest.mark.parametrize("sign", ["", "-"])
    @pytest.mark.parametrize("kind", ["program", "inventory"])
    def test_integer_valence_beyond_float_range(self, tmp_path, kind, sign):
        # float() of such an integer raises OverflowError, not ValueError;
        # the message echoes the first and last digits, not all 401
        program, inventory, _ = write_two_ad_instance(tmp_path)
        path = program if kind == "program" else inventory
        append_entity(path, kind, sign + "1" + "0" * 400)
        load = io.load_program if kind == "program" else io.load_inventory
        shown = {"": "100000000000000000", "-": "-10000000000000000"}[sign] + "..." + "0" * 19
        record = "scenes[3]" if kind == "program" else "ads[2]"
        with pytest.raises(InputError) as exc:
            load(path)
        assert str(exc.value) == f"{path}: {record}: valence {shown} outside [0, 1]"

    def test_duplicate_scene_id(self, tmp_path):
        doc = {
            "format": io.PROGRAM_FORMAT,
            "scenes": [{"id": "s", "valence": 0.2}, {"id": "s", "valence": 0.4}],
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        message = f"^{re.escape(str(path))}: duplicate scene id 's'$"
        with pytest.raises(InputError, match=message):
            io.load_program(path)

    def test_duplicate_ad_id(self, tmp_path):
        doc = {
            "format": io.INVENTORY_FORMAT,
            "ads": [{"id": "a", "valence": 0.2}, {"id": "a", "valence": 0.8}],
        }
        path = tmp_path / "i.json"
        path.write_text(json.dumps(doc))
        message = f"^{re.escape(str(path))}: duplicate ad id 'a'$"
        with pytest.raises(InputError, match=message):
            io.load_inventory(path)

    def test_boolean_valence(self, tmp_path):
        doc = {
            "format": io.PROGRAM_FORMAT,
            "scenes": [{"id": "s1", "valence": True}, {"id": "s2", "valence": 0.1}],
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="'valence' must be a number, got"):
            io.load_program(path)

    @pytest.mark.parametrize("raw", ["0.9", " 1e-1 ", None, [0.5]])
    @pytest.mark.parametrize("kind", ["program", "inventory"])
    def test_non_number_valence(self, tmp_path, kind, raw):
        program, inventory, rel = write_two_ad_instance(tmp_path)
        path = program if kind == "program" else inventory
        with edit_json(path) as doc:
            doc["scenes" if kind == "program" else "ads"][0]["valence"] = raw
        load = io.load_program if kind == "program" else io.load_inventory
        with pytest.raises(InputError, match="'valence' must be a number, got"):
            load(path)
        assert run_cli(program, inventory, "--rel-file", rel) == 1

    @pytest.mark.parametrize("raw", [None, True, 3, ["x"], {"a": 1}])
    @pytest.mark.parametrize("kind", ["program", "inventory"])
    def test_non_string_id(self, tmp_path, kind, raw):
        # str() would have loaded these as the ids "None", "True", "3", ...
        program, inventory, rel = write_two_ad_instance(tmp_path)
        path = program if kind == "program" else inventory
        with edit_json(path) as doc:
            doc["scenes" if kind == "program" else "ads"][0]["id"] = raw
        load = io.load_program if kind == "program" else io.load_inventory
        with pytest.raises(InputError, match="'id' must be a string"):
            load(path)
        assert run_cli(program, inventory, "--rel-file", rel) == 1

    def test_bad_json_and_wrong_header(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("{nope")
        with pytest.raises(InputError, match="invalid JSON"):
            io.load_program(path)
        path.write_text(json.dumps({"format": "other/9", "scenes": []}))
        with pytest.raises(InputError, match="expected format header"):
            io.load_program(path)
        path.write_bytes(b'{"format": "adplacer-program/1", "scenes": [{"id": "\xff"}]}')
        with pytest.raises(InputError, match="p.json"):  # not UTF-8
            io.load_program(path)


class TestOtherFormats:
    def test_inventory_round_trip(self, tmp_path):
        inventory = make_inventory(0.8, 0.2, 0.55)
        path = tmp_path / "inv.json"
        io.save_inventory(inventory, path)
        assert io.load_inventory(path) == inventory

    def test_schedule_round_trip(self, tmp_path):
        from adplacer.core import Schedule

        program, inventory, _ = random_instance(12, 10, 5)
        path = tmp_path / "schedule.json"
        for schedule, mode in (
            (Schedule.strict([(2, "a1"), (1, "a2")]), "strict"),
            (trivial_schedule(program, inventory, 6, seed=3), "baseline"),
        ):
            io.save_schedule(schedule, path)
            again = io.load_schedule(path)
            assert again == schedule
            assert again.mode == schedule.mode == mode

    @pytest.mark.parametrize("mode", ["strict", "baseline"])
    def test_placement_order_is_irrelevant(self, tmp_path, mode):
        # the same placements, given in any order, are one schedule
        program, inventory, rel = random_instance(12, 10, 5)
        params = RewardParams(0.5, 0.5, 6)
        if mode == "strict":
            placed = solve_assignment(program, inventory, rel, params).schedule.entries
        else:
            placed = trivial_schedule(program, inventory, 6, seed=3).entries
        rng = np.random.default_rng(8)
        orders = [placed, placed[::-1]]
        orders += [[placed[j] for j in rng.permutation(len(placed))] for _ in range(4)]
        first = Schedule(tuple(placed), mode)
        outputs = set()
        for i, order in enumerate(orders):
            schedule = Schedule(tuple(order), mode)
            assert schedule == first
            if mode == "strict":
                assert reward(schedule, program, inventory, rel, params) == reward(
                    first, program, inventory, rel, params
                )
            io.save_schedule(schedule, tmp_path / f"schedule-{i}.json")
            io.save_profile(
                build_profile(schedule, program, inventory), tmp_path / f"profile-{i}.json"
            )
            outputs.add((
                (tmp_path / f"schedule-{i}.json").read_bytes(),
                (tmp_path / f"profile-{i}.json").read_bytes(),
            ))
        assert len(outputs) == 1

    @pytest.mark.parametrize("field, raw", [
        ("slot", 2.7), ("slot", True), ("slot", "2"), ("rank", 0.0), ("rank", True),
    ])
    def test_schedule_non_integer_field(self, tmp_path, field, raw):
        path = tmp_path / "schedule.json"
        io.save_schedule(Schedule.strict([(2, "a1"), (1, "a2")]), path)
        with edit_json(path) as doc:
            doc["entries"][0][field] = raw
        with pytest.raises(InputError, match=rf"entries\[0\]: '{field}' must be an integer, got"):
            io.load_schedule(path)

    @pytest.mark.parametrize("raw", [None, 3, ["x"]])
    def test_schedule_non_string_ad_id(self, tmp_path, raw):
        path = tmp_path / "schedule.json"
        io.save_schedule(Schedule.strict([(2, "a1"), (1, "a2")]), path)
        with edit_json(path) as doc:
            doc["entries"][0]["ad_id"] = raw
        with pytest.raises(InputError, match="'ad_id' must be a string"):
            io.load_schedule(path)

    @pytest.mark.parametrize("mode", ["nonsense", "Strict", None, ["strict"], "missing"])
    def test_schedule_unknown_mode(self, tmp_path, mode):
        # the file names the shape its entries were validated in
        path = tmp_path / "schedule.json"
        placed = Schedule.strict([(2, "a1"), (1, "a2")])
        for known in ("strict", "baseline"):
            schedule = Schedule(placed.entries, known)
            io.save_schedule(schedule, path)
            assert io.load_schedule(path) == schedule
        with edit_json(path) as doc:
            if mode == "missing":
                del doc["mode"]
            else:
                doc["mode"] = mode
        with pytest.raises(InputError) as exc:
            io.load_schedule(path)
        assert str(exc.value).startswith(f"{path}: 'mode' must be 'strict' or 'baseline', got")

    @pytest.mark.parametrize("mode, entry, message", [
        ("strict", {"slot": 1, "rank": 0, "ad_id": "a2"},
         "ads 'a1' and 'a2' share the (slot, rank) place (1, 0)"),
        ("baseline", {"slot": 1, "rank": 0, "ad_id": "a2"},
         "ads 'a1' and 'a2' share the (slot, rank) place (1, 0)"),
        ("strict", {"slot": 2, "rank": 1, "ad_id": "a2"},
         "ad 'a2' has rank 1, but a strict schedule needs rank 0"),
        ("baseline", {"slot": 2, "rank": -1, "ad_id": "a2"},
         "ad 'a2' has rank -1, but a baseline schedule needs rank >= 0"),
    ])
    def test_schedule_breaking_its_own_rules(self, tmp_path, mode, entry, message):
        # a file whose entries no Schedule can hold names the file, as a repeated ad does
        path = tmp_path / "schedule.json"
        io.save_schedule(Schedule(Schedule.strict([(1, "a1"), (2, "a2")]).entries, mode), path)
        with edit_json(path) as doc:
            doc["entries"][1] = entry
        with pytest.raises(InputError) as exc:
            io.load_schedule(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_relevance_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        from adplacer.core import RelevanceMatrix

        rel = RelevanceMatrix(rng.uniform(-1, 1, (3, 4)))
        path = tmp_path / "rel.txt"
        io.save_relevance(rel, path)
        again = io.load_relevance(path)
        assert np.array_equal(again.values, rel.values)

    def test_features_dir(self, tmp_path):
        rng = np.random.default_rng(12)
        feats = [KeyframeFeatures(eid, rng.normal(size=(4, 6))) for eid in ("s1", "a1")]
        for f in feats:
            io.save_features(f, tmp_path / f"{f.entity_id}.txt")
        loaded = io.load_features_dir(tmp_path, ["a1", "s1"])
        assert [f.entity_id for f in loaded] == ["a1", "s1"]
        assert np.array_equal(loaded[0].frames, feats[1].frames)
        assert np.array_equal(loaded[1].frames, feats[0].frames)

    def test_features_dir_empty(self, tmp_path):
        with pytest.raises(InputError, match="no feature file for: s1$"):
            io.load_features_dir(tmp_path, ["s1"])

    def test_features_dir_missing_ids(self, tmp_path):
        # s1.txt is malformed: the missing ids are reported before any parse
        (tmp_path / "s1.txt").write_text("1 2\n3 oops\n")
        (tmp_path / "x").mkdir()
        (tmp_path / "x" / "y.txt").write_text("1 2\n")
        (tmp_path / ".txt").write_text("1 2\n")
        (tmp_path / "a1.txt").mkdir()  # a directory is not a feature file
        with pytest.raises(InputError) as exc:
            io.load_features_dir(tmp_path, ["s2", "s1", "x/y", "", "a1", str(tmp_path / "s1")])
        missing = str(exc.value).split("no feature file for: ")[1]
        assert missing == f"s2, x/y, , a1, {tmp_path / 's1'}"

    def test_features_dir_parses_a_shared_id_once(self, tmp_path, monkeypatch):
        np.savetxt(tmp_path / "s1.txt", np.ones((2, 3)))
        np.savetxt(tmp_path / "a1.txt", np.eye(2, 3))
        parsed = []
        load_grid = io._load_grid
        monkeypatch.setattr(
            io, "_load_grid", lambda path, build: parsed.append(path) or load_grid(path, build)
        )
        loaded = io.load_features_dir(tmp_path, ["s1", "a1", "s1"])
        assert [f.entity_id for f in loaded] == ["s1", "a1", "s1"]
        assert loaded[0] is loaded[2]
        assert sorted(p.name for p in parsed) == ["a1.txt", "s1.txt"]

    @pytest.mark.parametrize("value, message", [
        pytest.param(np.nan, "feature values must be finite", id="nan"),
        pytest.param(0.0, r"all-zero frame vector\(s\) at rows \[0, 1\]", id="zero"),
    ])
    def test_feature_error_names_its_file(self, tmp_path, value, message):
        # a bare ValueError and a package InputError alike become an InputError
        np.savetxt(tmp_path / "s1.txt", np.full((2, 3), value))
        with pytest.raises(InputError, match=message) as exc:
            io.load_features_dir(tmp_path, ["s1"])
        assert type(exc.value) is InputError
        assert str(exc.value).startswith(f"{tmp_path / 's1.txt'}: 's1': ")

    def test_profile_round_trip(self, tmp_path):
        program, inventory, _, _ = two_ad_instance()
        profile = build_profile(Schedule.strict([(1, "a2"), (2, "a1")]), program, inventory)
        path = tmp_path / "profile.json"
        io.save_profile(profile, path)
        assert io.load_profile(path) == profile

    @pytest.mark.parametrize("field, raw", [
        ("position", 1.5), ("position", False), ("position", "1"),
        ("valence_0_100", "80"), ("valence_0_100", True), ("valence_0_100", None),
    ])
    def test_profile_non_number_field(self, tmp_path, field, raw):
        program, inventory, _, _ = two_ad_instance()
        path = tmp_path / "profile.json"
        io.save_profile(build_profile(Schedule.strict([(1, "a2")]), program, inventory), path)
        with edit_json(path) as doc:
            doc["points"][0][field] = raw
        rule = "an integer" if field == "position" else "a number"
        with pytest.raises(InputError, match=rf"points\[0\]: '{field}' must be {rule}, got"):
            io.load_profile(path)

    @pytest.mark.parametrize("raw", [None, 3, ["x"]])
    @pytest.mark.parametrize("field", ["kind", "entity_id"])
    def test_profile_non_string_field(self, tmp_path, field, raw):
        program, inventory, _, _ = two_ad_instance()
        path = tmp_path / "profile.json"
        io.save_profile(build_profile(Schedule.strict([(1, "a2")]), program, inventory), path)
        with edit_json(path) as doc:
            doc["points"][0][field] = raw
        with pytest.raises(InputError, match=f"'{field}' must be a string"):
            io.load_profile(path)

    def test_profile_integer_beyond_float_range(self, tmp_path):
        program, inventory, _, _ = two_ad_instance()
        path = tmp_path / "profile.json"
        io.save_profile(build_profile(Schedule.strict([(1, "a2")]), program, inventory), path)
        doc = json.loads(path.read_text())
        doc["points"][0]["valence_0_100"] = "VALENCE"
        path.write_text(json.dumps(doc).replace('"VALENCE"', "1" + "0" * 400))
        with pytest.raises(InputError) as exc:
            io.load_profile(path)
        shown = "100000000000000000...0000000000000000000"
        assert str(exc.value) == f"{path}: points[0]: 'valence_0_100' {shown} outside [0, 100]"

    @pytest.mark.parametrize("field, raw", [
        ("position", 0), ("position", -7),
        ("kind", "banana"), ("kind", "Scene"), ("kind", ""),
        ("valence_0_100", 250), ("valence_0_100", -3), ("valence_0_100", 100.00000000000001),
        ("valence_0_100", -5e-324), ("valence_0_100", math.nan),
        ("valence_0_100", math.inf), ("valence_0_100", -math.inf),
    ])
    def test_profile_point_build_profile_cannot_emit(self, tmp_path, field, raw):
        program, inventory, _, _ = two_ad_instance()
        path = tmp_path / "profile.json"
        io.save_profile(build_profile(Schedule.strict([(1, "a2")]), program, inventory), path)
        with edit_json(path) as doc:  # NaN and Infinity as Python's json writes them
            doc["points"][1][field] = raw
        with pytest.raises(InputError) as exc:
            io.load_profile(path)
        assert str(exc.value).startswith(f"{path}: points[1]: '{field}' ")

    def test_profile_extremes_load(self, tmp_path):
        # a slot-0 ad at position 1, and valences 0 and 100 on the profile scale
        program = make_program(0.0, 1.0, 0.5)
        inventory = make_inventory(1.0, 0.0)
        schedule = Schedule((ScheduleEntry(0, 0, "a1"), ScheduleEntry(0, 1, "a2")), "baseline")
        profile = build_profile(schedule, program, inventory)
        assert [(p.position, p.kind, p.valence_0_100) for p in profile] == [
            (1, "ad", 100.0), (2, "ad", 0.0), (3, "scene", 0.0),
            (4, "scene", 100.0), (5, "scene", 50.0),
        ]
        path = tmp_path / "profile.json"
        io.save_profile(profile, path)
        assert io.load_profile(path) == profile

    @pytest.mark.parametrize("key, field", [
        ("scenes", "id"), ("scenes", "valence"), ("ads", "id"), ("ads", "valence"),
        ("entries", "slot"), ("entries", "rank"), ("entries", "ad_id"),
        ("points", "position"), ("points", "kind"), ("points", "entity_id"),
        ("points", "valence_0_100"),
    ])
    @pytest.mark.parametrize("fault", ["wrong_type", "missing", "not_object"])
    def test_record_error_names_file_index_and_field(self, tmp_path, key, field, fault):
        program, inventory, _, _ = two_ad_instance()
        schedule = Schedule.strict([(1, "a2"), (2, "a1")])
        path = tmp_path / f"{key}.json"
        save, load = {
            "scenes": (lambda: io.save_program(program, path), io.load_program),
            "ads": (lambda: io.save_inventory(inventory, path), io.load_inventory),
            "entries": (lambda: io.save_schedule(schedule, path), io.load_schedule),
            "points": (
                lambda: io.save_profile(build_profile(schedule, program, inventory), path),
                io.load_profile,
            ),
        }[key]
        save()
        with edit_json(path) as doc:
            if fault == "missing":
                del doc[key][1][field]
            elif fault == "wrong_type":
                doc[key][1][field] = [0]  # a list is no valid value for any field
            else:
                doc[key][1] = [field]
        with pytest.raises(InputError) as exc:
            load(path)
        assert str(exc.value).startswith(f"{path}: {key}[1]: ")
        if fault == "not_object":
            assert str(exc.value).endswith("expected an object, got list")
        else:
            assert repr(field) in str(exc.value)


#: The exit code ``adplacer run`` gives each class in ``adplacer.errors``.
ERROR_EXIT_CODES = {
    "AdPlacerError": 4,
    "InputError": 1,
    "InfeasibleK": 2,
}


class TestRunCommand:
    def test_brute_force_end_to_end(self, tmp_path, capsys):
        # the run's artifacts match the library's brute-force oracle
        program, inventory, rel = write_two_ad_instance(tmp_path)
        out = tmp_path / "out"
        assert run_cli(program, inventory, "--rel-file", rel, out=out) == 0
        oracle = solvers.solve_brute_force(
            io.load_program(program), io.load_inventory(inventory),
            io.load_relevance(rel), RewardParams(0.5, 0.5, 2),
        )
        schedule = io.load_schedule(out / "schedule.json")
        assert [(e.slot, e.ad_id) for e in schedule.entries] == [(1, "a2"), (2, "a1")]
        assert schedule.entries == oracle.schedule.entries
        report = io.load_report(out / "report.json")
        assert report["reward"] == pytest.approx(1.3, abs=1e-9)
        assert report["reward"] == oracle.reward
        assert report["solver"] == "assignment"
        profile = io.load_profile(out / "profile.json")
        assert len(profile) == 5

    @pytest.mark.parametrize(
        "flags", [("--solver", "brute"), ("--cap", 5), ("--scale", "hundred")],
        ids=["brute", "cap", "scale"],
    )
    def test_brute_force_flags_are_gone(self, tmp_path, capsys, flags):
        program, inventory, rel = write_two_ad_instance(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in (
                "run", "--program", program, "--inventory", inventory,
                "--rel-file", rel, "--k", 2, *flags, "--out", tmp_path / "out",
            )])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("solver", ["bnb", "lp"])
    def test_other_solvers_agree(self, tmp_path, solver):
        # bnb and lp are two spellings of the default exact route
        program, inventory, rel = write_two_ad_instance(tmp_path)
        outs = tmp_path / "default", tmp_path / solver
        assert run_cli(program, inventory, "--rel-file", rel, out=outs[0]) == 0
        assert run_cli(program, inventory, "--rel-file", rel, "--solver", solver, out=outs[1]) == 0
        for name in ("schedule.json", "profile.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_default_solver_handles_paper_scale(self, tmp_path):
        # 24 ads / 11 slots / k=8 has ~7.9e10 candidate schedules, far over
        # the brute-force cap, so only the exact assignment can be the default
        program, inventory, rel = random_instance(24, 11, 12)
        io.save_program(program, tmp_path / "program.json")
        io.save_inventory(inventory, tmp_path / "inventory.json")
        io.save_relevance(rel, tmp_path / "rel.txt")
        out = tmp_path / "out"
        code = run_cli(tmp_path / "program.json", tmp_path / "inventory.json",
                       "--rel-file", tmp_path / "rel.txt", k=8, out=out)
        assert code == 0
        report = io.load_report(out / "report.json")
        expected = solve_assignment(program, inventory, rel, RewardParams(0.5, 0.5, 8))
        assert report["solver"] == "assignment"
        assert report["reward"] == expected.reward

    @pytest.mark.parametrize("alpha_args, alpha", [((), 0.5), (("--alpha", 0.25), 0.25)])
    def test_parser_defaults(self, tmp_path, monkeypatch, alpha_args, alpha):
        # every default lives in build_parser: solver, --out, alpha and beta
        program, inventory, rel = write_two_ad_instance(tmp_path)
        monkeypatch.chdir(tmp_path)
        code = main([str(a) for a in (
            "run", "--program", program, "--inventory", inventory,
            "--rel-file", rel, "--k", 2, *alpha_args,
        )])
        assert code == 0
        schedule = io.load_schedule(tmp_path / "out" / "schedule.json")
        report = io.load_report(tmp_path / "out" / "report.json")
        assert report["solver"] == "assignment"
        expected = reward(
            schedule, io.load_program(program), io.load_inventory(inventory),
            io.load_relevance(rel), RewardParams(alpha, 1.0 - alpha, 2),
        )
        assert report["reward"] == expected

    def test_objective_disagreeing_with_reward_exits_4(self, tmp_path, capsys, monkeypatch):
        # a solver optimizing the wrong objective must be caught by the re-score
        contributions = solvers._contributions
        monkeypatch.setattr(solvers, "_contributions", lambda *args: contributions(*args) + 1.0)
        program, inventory, rel = write_two_ad_instance(tmp_path)
        assert run_cli(program, inventory, "--rel-file", rel) == 4
        assert "violating its own contract" in capsys.readouterr().err

    def test_rescore_one_ulp_off_exits_4(self, tmp_path, capsys, monkeypatch):
        # the solver and the re-score both take the correctly rounded sum of the
        # same terms, so a reward one ulp off is a broken contract, not rounding;
        # run_cli asserts that the failed run left no --out directory
        solve = cli.solve_assignment

        def one_ulp_up(*args):
            solved = solve(*args)
            return dataclasses.replace(solved, reward=math.nextafter(solved.reward, math.inf))

        monkeypatch.setattr(cli, "solve_assignment", one_ulp_up)
        program, inventory, rel = write_two_ad_instance(tmp_path)
        assert run_cli(program, inventory, "--rel-file", rel) == 4
        assert "violating its own contract" in capsys.readouterr().err

    @pytest.mark.parametrize("route", ROUTES)
    def test_artifact_shape(self, tmp_path, route):
        program, inventory, rel = write_two_ad_instance(tmp_path)
        out = tmp_path / "out"
        assert run_cli(program, inventory, "--rel-file", rel, *ROUTES[route], out=out) == 0
        trivial = route == "trivial"
        report = io.load_report(out / "report.json")
        keys = {"format", "solver", "reward", "wall_time"}
        assert set(report) == (keys | {"seed"} if trivial else keys)
        assert report["format"] == "adplacer-report/3"
        assert report["solver"] == ("trivial" if trivial else "assignment")
        assert (report["reward"] is None) == trivial
        schedule = json.loads((out / "schedule.json").read_text())
        assert set(schedule) == {"format", "mode", "entries"}
        assert schedule["format"] == "adplacer-schedule/2"
        assert schedule["mode"] == ("baseline" if trivial else "strict")

    @pytest.mark.parametrize("route, mode", [("exact", "strict"), ("trivial", "baseline")])
    def test_saved_schedule_validates_in_its_own_mode(self, tmp_path, route, mode):
        program, inventory, rel = write_two_ad_instance(tmp_path)
        out = tmp_path / "out"
        assert run_cli(program, inventory, "--rel-file", rel, *ROUTES[route], out=out) == 0
        # every artifact reads back, and the schedule validates in the mode its file names
        io.load_report(out / "report.json")
        io.load_profile(out / "profile.json")
        schedule = io.load_schedule(out / "schedule.json")
        assert schedule.mode == mode
        check = validate_schedule(
            schedule, io.load_program(program), io.load_inventory(inventory),
            RewardParams(0.5, 0.5, 2),
        )
        assert check, check.message

    @pytest.mark.parametrize("route", ROUTES)
    def test_exact_routes_rescore_the_emitted_schedule_once(self, tmp_path, monkeypatch, route):
        # the public reward is the one scorer; the baseline has no reward to check
        calls = []
        score = cli.reward

        def counted(schedule, *args):
            calls.append(schedule)
            return score(schedule, *args)

        monkeypatch.setattr(cli, "reward", counted)
        program, inventory, rel = write_two_ad_instance(tmp_path)
        out = tmp_path / "out"
        assert run_cli(program, inventory, "--rel-file", rel, *ROUTES[route], out=out) == 0
        if route == "trivial":
            assert calls == []
        else:
            [scored] = calls
            emitted = io.load_schedule(out / "schedule.json")
            assert (scored.mode, scored.entries) == (emitted.mode, emitted.entries)

    @pytest.mark.parametrize("route", ROUTES)
    def test_each_emitted_schedule_is_validated_once(self, tmp_path, monkeypatch, route):
        # reward validates what it scores, so the exact routes add no check of their own
        calls = []

        def counted(schedule, *args):
            calls.append(schedule)
            return validate_schedule(schedule, *args)

        monkeypatch.setattr(cli, "validate_schedule", counted)
        monkeypatch.setattr(adplacer.core, "validate_schedule", counted)  # as reward finds it
        program, inventory, rel = write_two_ad_instance(tmp_path)
        assert run_cli(program, inventory, "--rel-file", rel, *ROUTES[route]) == 0
        assert len(calls) == 1

    def test_invalid_trivial_schedule_exits_4(self, tmp_path, capsys, monkeypatch):
        # an ad the inventory lacks breaks even the baseline contract
        unknown = Schedule((ScheduleEntry(0, 0, "ghost"), ScheduleEntry(0, 1, "a2")), "baseline")
        monkeypatch.setattr(cli, "trivial_schedule", lambda *args: unknown)
        program, inventory, _ = write_two_ad_instance(tmp_path)
        assert run_cli(program, inventory, "--solver", "trivial") == 4
        assert capsys.readouterr().err.endswith(
            "error: internal error: trivial emitted a schedule violating its own contract: "
            "ad 'ghost' not in inventory\n"
        )

    def test_route_building_a_malformed_schedule_exits_4(self, tmp_path, capsys, monkeypatch):
        # a schedule that breaks its own rules fails as it is built, inside the route
        def stacked(*args):
            return Schedule((ScheduleEntry(1, 0, "a1"), ScheduleEntry(1, 0, "a2")), "baseline")

        monkeypatch.setattr(cli, "trivial_schedule", stacked)
        program, inventory, _ = write_two_ad_instance(tmp_path)
        assert run_cli(program, inventory, "--solver", "trivial") == 4
        err = capsys.readouterr().err
        assert "Traceback" in err and "stacked" in err
        assert err.endswith(
            "error: internal error: ads 'a1' and 'a2' share the (slot, rank) place (1, 0)\n"
        )

    def test_exact_route_emitting_a_baseline_schedule_exits_4(self, tmp_path, capsys, monkeypatch):
        # the first entries pass the strict rules, but only a strict schedule is
        # re-scored; the second are strict but name an ad the inventory lacks,
        # which reward's own validation rejects
        solve = cli.solve_assignment
        cases = [
            (lambda schedule: Schedule(schedule.entries, "baseline"),
             "only a strict schedule has a reward, got 'baseline'"),
            (lambda schedule: Schedule.strict([(1, "a1"), (2, "ghost")]),
             "unknown_ad: ad 'ghost' not in inventory"),
        ]
        program, inventory, rel = write_two_ad_instance(tmp_path)
        for corrupt, message in cases:
            def corrupted(*args, corrupt=corrupt):
                solved = solve(*args)
                return dataclasses.replace(solved, schedule=corrupt(solved.schedule))

            monkeypatch.setattr(cli, "solve_assignment", corrupted)
            assert run_cli(program, inventory, "--rel-file", rel) == 4
            assert capsys.readouterr().err.endswith(f"error: internal error: {message}\n")

    def test_internal_error_prints_its_traceback(self, tmp_path, capsys, monkeypatch):
        def exploding_solver(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "solve_assignment", exploding_solver)
        program, inventory, rel = write_two_ad_instance(tmp_path)
        assert run_cli(program, inventory, "--rel-file", rel) == 4
        err = capsys.readouterr().err
        assert "Traceback" in err and "exploding_solver" in err
        assert err.endswith("error: internal error: boom\n")

    def test_solver_repeating_an_ad_exits_4(self, tmp_path, capsys, monkeypatch):
        # a bare ValueError from an internal invariant is not a configuration error
        monkeypatch.setattr(
            solvers, "_min_cost_assignment",
            lambda cost, is_hv: (np.zeros(len(cost), dtype=int), 0),
        )
        program, inventory, rel = write_two_ad_instance(tmp_path)
        assert run_cli(program, inventory, "--rel-file", rel) == 4
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert err.endswith("error: internal error: ad 'a1' scheduled more than once\n")

    @pytest.mark.parametrize("alpha", ["2", "nan"])
    def test_alpha_out_of_range_exits_1(self, tmp_path, capsys, alpha):
        program, inventory, rel = write_two_ad_instance(tmp_path)
        assert run_cli(program, inventory, "--rel-file", rel, "--alpha", alpha) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "alpha and beta must lie in [0, 1]" in err

    @pytest.mark.parametrize("name", sorted(ERROR_EXIT_CODES))
    def test_exit_code_of_every_package_error(self, tmp_path, capsys, monkeypatch, name):
        def failing_solver(*args):
            raise getattr(errors, name)("boom")

        monkeypatch.setattr(cli, "solve_assignment", failing_solver)
        program, inventory, rel = write_two_ad_instance(tmp_path)
        code = run_cli(program, inventory, "--rel-file", rel)
        assert code == ERROR_EXIT_CODES[name]
        assert ("Traceback" in capsys.readouterr().err) == (code == 4)

    def test_every_package_error_has_an_exit_code(self):
        defined = {
            name for name, obj in vars(errors).items()
            if isinstance(obj, type) and issubclass(obj, Exception)
        }
        assert defined == set(ERROR_EXIT_CODES)

    def test_failed_profile_writes_no_file(self, tmp_path, capsys, monkeypatch):
        def failing_profile(*args):
            raise RuntimeError("no profile")

        monkeypatch.setattr(cli, "build_profile", failing_profile)
        program, inventory, rel = write_two_ad_instance(tmp_path)
        assert run_cli(program, inventory, "--rel-file", rel) == 4
        assert capsys.readouterr().err.endswith("error: internal error: no profile\n")

    def test_trivial_with_short_slot_count_exits_0(self, tmp_path):
        program = make_program(*[0.1 * i for i in range(1, 11)], slot_count=3)
        inventory = make_inventory(0.9, 0.1)
        io.save_program(program, tmp_path / "program.json")
        io.save_inventory(inventory, tmp_path / "inventory.json")
        out = tmp_path / "out"
        code = run_cli(tmp_path / "program.json", tmp_path / "inventory.json",
                       "--solver", "trivial", out=out)
        assert code == 0
        schedule = io.load_schedule(out / "schedule.json")
        assert sorted(e.slot for e in schedule.entries) == [0, 3]

    def test_odd_k_exits_2_naming_balance(self, tmp_path, capsys):
        program, inventory, rel = write_two_ad_instance(tmp_path)
        assert run_cli(program, inventory, "--rel-file", rel, k=3) == 2
        assert "balance" in capsys.readouterr().err

    def test_missing_program_exits_1(self, tmp_path):
        _, inventory, rel = write_two_ad_instance(tmp_path)
        assert run_cli(tmp_path / "nope.json", inventory, "--rel-file", rel) == 1

    @pytest.mark.parametrize("raw", ["1e400", "2.7", "true", '"2"', "null"])
    def test_non_integer_slot_count_exits_1(self, tmp_path, capsys, raw):
        program, inventory, rel = write_two_ad_instance(tmp_path)
        doc = {**json.loads(program.read_text()), "slot_count": "SLOTS"}
        program.write_text(json.dumps(doc).replace('"SLOTS"', raw))
        assert run_cli(program, inventory, "--rel-file", rel) == 1
        assert "slot_count" in capsys.readouterr().err

    def test_deeply_nested_json_exits_1(self, tmp_path):
        program, inventory, rel = write_two_ad_instance(tmp_path)
        program.write_text("[" * 100_000 + "]" * 100_000)
        assert run_cli(program, inventory, "--rel-file", rel) == 1

    def test_beta_without_relevance_exits_1(self, tmp_path):
        program, inventory, _ = write_two_ad_instance(tmp_path)
        assert run_cli(program, inventory) == 1

    def test_alpha_one_needs_no_relevance(self, tmp_path):
        program, inventory, _ = write_two_ad_instance(tmp_path)
        assert run_cli(program, inventory, "--alpha", 1.0) == 0

    @pytest.mark.parametrize("token, expected", [
        ("0", 0), ("0.5", 0), ("1", 0), ("-0.0", 0), ("1e-308", 0),
        ("-5e-324", 1), ("-1e-322", 1), ("1" + "0" * 400, 1), ("1e400", 1),
        ("-1", 1), ("1.5", 1), ("NaN", 1), ("Infinity", 1), ("-Infinity", 1),
        # json.loads refuses an integer of more than 4300 digits with a ValueError
        ("1" + "0" * 5000, 1),
    ], ids=lambda v: v if len(str(v)) < 20 else f"10**{len(v) - 1}")
    @pytest.mark.parametrize("kind", ["program", "inventory"])
    def test_edge_valences(self, tmp_path, capsys, kind, token, expected):
        # the extra entity keeps the HV and the LV ad, so k=2 stays feasible
        program, inventory, _ = write_two_ad_instance(tmp_path)
        path = program if kind == "program" else inventory
        append_entity(path, kind, token)
        out = tmp_path / "out"
        code = run_cli(program, inventory, "--alpha", 1, out=out)
        assert code == expected
        assert out.exists() == (code == 0)
        if code:
            assert str(path) in capsys.readouterr().err
        if token == "-0.0":
            # the sign of zero is dropped: profile.json writes 0.0, not -0.0
            points = json.loads((out / "profile.json").read_text())["points"]
            [value] = [p["valence_0_100"] for p in points if p["entity_id"] == "x"]
            assert math.copysign(1.0, value) == 1.0

    def test_k_over_slots_is_infeasible_for_exact_routes_only(self, tmp_path, capsys):
        # trivial stacks its ads on two insertion points, so k > slots still fits
        program = make_program(0.9, 0.1, 0.8, 0.3, 0.6, 0.5)
        inventory = make_inventory(0.9, 0.8, 0.7, 0.1, 0.2, 0.3)
        io.save_program(program, tmp_path / "program.json")
        io.save_inventory(inventory, tmp_path / "inventory.json")
        args = [tmp_path / "program.json", tmp_path / "inventory.json", "--alpha", 1.0]
        assert run_cli(*args, "--solver", "trivial", k=6, out=tmp_path / "t") == 0
        assert len(io.load_schedule(tmp_path / "t" / "schedule.json")) == 6
        capsys.readouterr()
        assert run_cli(*args, k=6, out=tmp_path / "b") == 2
        assert "k=6 exceeds the 5 available slots" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "k, rel_name, expected", [(2, "nope.txt", 1), (4, "rel.txt", 2), (3, "rel.txt", 2)]
    )
    def test_failed_run_creates_no_out_dir(self, tmp_path, k, rel_name, expected):
        program, inventory, _ = write_two_ad_instance(tmp_path)
        code = run_cli(program, inventory, "--rel-file", tmp_path / rel_name, k=k,
                       out=tmp_path / "out" / "nested")
        assert code == expected
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["--features", "--rel-file"])
    @pytest.mark.parametrize("case", ["k_over_slots", "unbalanced"])
    def test_infeasible_k_exits_2_before_reading_relevance(self, tmp_path, capsys, source, case):
        # a malformed relevance source would exit 1 if it were read first
        program, inventory, rel = write_two_ad_instance(tmp_path)
        k = 4 if case == "k_over_slots" else 2
        if case == "unbalanced":
            with edit_json(inventory) as doc:
                doc["ads"][1]["valence"] = 0.7  # two HV ads, no LV ad
        feat_dir = tmp_path / "features"
        feat_dir.mkdir()
        (feat_dir / "s1.txt").write_text("1 2\n3 oops\n")
        rel.write_text("not a grid\n")
        code = run_cli(program, inventory, source, feat_dir if source == "--features" else rel, k=k)
        assert code == 2
        assert ("exceeds" if case == "k_over_slots" else "inventory has") in capsys.readouterr().err

    def test_relevance_missing_an_ad_column_exits_1(self, tmp_path, capsys):
        program, inventory, rel = write_two_ad_instance(tmp_path)
        np.savetxt(rel, np.ones((3, 1)), fmt="%.17g")
        assert run_cli(program, inventory, "--rel-file", rel) == 1
        assert "does not match 3 scenes x 2 ads" in capsys.readouterr().err

    def test_out_naming_a_file_exits_1(self, tmp_path):
        program, inventory, rel = write_two_ad_instance(tmp_path)
        out = tmp_path / "out"
        out.write_text("")
        assert run_cli(program, inventory, "--rel-file", rel, out=out) == 1

    def test_failed_write_exits_1_naming_the_file(self, tmp_path, capsys):
        # the old outputs are removed, then the new ones written one by one
        program, inventory, rel = write_two_ad_instance(tmp_path)
        out = tmp_path / "out"
        (out / "report.json").mkdir(parents=True)
        assert run_cli(program, inventory, "--rel-file", rel, out=out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "report.json" in err

    def test_failed_write_leaves_files_of_one_run(self, tmp_path, capsys):
        program, inventory, rel = random_instance(6, 5, 3)
        paths = tmp_path / "program.json", tmp_path / "inventory.json", tmp_path / "rel.txt"
        io.save_program(program, paths[0])
        io.save_inventory(inventory, paths[1])
        io.save_relevance(rel, paths[2])
        out = tmp_path / "out"
        assert run_cli(*paths[:2], "--rel-file", paths[2], k=2, out=out) == 0
        (out / "report.json").unlink()
        (out / "report.json").mkdir()
        assert run_cli(*paths[:2], "--rel-file", paths[2], k=4, out=out) == 1
        assert "report.json" in capsys.readouterr().err
        runs = set()  # the k of each run whose schedule or profile is left
        if (out / "schedule.json").exists():
            runs.add(len(io.load_schedule(out / "schedule.json")))
        if (out / "profile.json").exists():
            runs.add(sum(p.kind == "ad" for p in io.load_profile(out / "profile.json")))
        assert len(runs) <= 1, f"schedule and profile of runs with k in {runs}"

    def test_input_under_a_regular_file_exits_1(self, tmp_path):
        _, inventory, rel = write_two_ad_instance(tmp_path)
        code = run_cli(inventory / "p.json", inventory, "--rel-file", rel, out=tmp_path / "out")
        assert code == 1

    def test_features_pipeline(self, tmp_path):
        program, inventory, _ = write_two_ad_instance(tmp_path)
        feat_dir = write_features(tmp_path / "features", 44)
        out = tmp_path / "out"
        assert run_cli(program, inventory, "--features", feat_dir, out=out) == 0
        assert (out / "schedule.json").exists()
        code = run_cli(program, inventory, "--features", feat_dir, "--pairing", "all_pairs",
                       out=tmp_path / "out-allpairs")
        assert code == 0

    def test_grids_are_parsed_from_open_files(self, tmp_path, monkeypatch):
        # a path would send np.loadtxt through numpy's DataSource lookup
        program, inventory, rel = write_two_ad_instance(tmp_path)
        feat_dir = write_features(tmp_path / "features", 50)
        sources = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(
            io.np, "loadtxt", lambda fname, **kw: sources.append(fname) or loadtxt(fname, **kw)
        )
        for source, arg in (("--rel-file", rel), ("--features", feat_dir)):
            assert run_cli(program, inventory, source, arg, out=tmp_path / source.strip("-")) == 0
        assert len(sources) == 1 + 5
        assert not [s for s in sources if isinstance(s, (str, bytes, os.PathLike))]

    @pytest.mark.parametrize("category", [DeprecationWarning, UserWarning])
    def test_grid_parse_mutes_only_the_empty_input_warning(self, tmp_path, monkeypatch, category):
        # a deprecated numpy call in the parse must reach pytest's filters,
        # which turn it into an error; so must any other UserWarning
        _, _, rel = write_two_ad_instance(tmp_path)
        loadtxt = np.loadtxt

        def warning_loadtxt(fname, **kw):
            warnings.warn("loadtxt: some other warning", category, stacklevel=2)
            return loadtxt(fname, **kw)

        monkeypatch.setattr(io.np, "loadtxt", warning_loadtxt)
        with pytest.warns(category):
            grid = io.load_relevance(rel)
        assert grid.values.tolist() == np.ones((3, 2)).tolist()

    def test_internal_error_while_parsing_a_grid_exits_4(self, tmp_path, capsys, monkeypatch):
        # only a ValueError from the parse is a fault of the file
        def failing_loadtxt(*args, **kwargs):
            raise MemoryError("simulated")

        monkeypatch.setattr(io.np, "loadtxt", failing_loadtxt)
        program, inventory, rel = write_two_ad_instance(tmp_path)
        assert run_cli(program, inventory, "--rel-file", rel) == 4
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert err.endswith("error: internal error: simulated\n")

    @pytest.mark.parametrize("source", ["--rel-file", "--features"])
    def test_undecodable_grid_exits_1_naming_the_file(self, tmp_path, capsys, source):
        program, inventory, rel = write_two_ad_instance(tmp_path)
        feat_dir = write_features(tmp_path / "features", 51)
        arg, bad = (rel, rel) if source == "--rel-file" else (feat_dir, feat_dir / "a1.txt")
        bad.write_bytes(b"\xff\xfe1 2\n")  # not UTF-8
        assert run_cli(program, inventory, source, arg) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: cannot parse numeric grid: ")
        assert "Traceback" not in err

    def test_rel_file_is_read_exactly_as_named(self, tmp_path, capsys):
        # numpy's path lookup would fall back to the compressed rel.txt.gz
        program, inventory, rel = write_two_ad_instance(tmp_path)
        with gzip.open(f"{rel}.gz", "wb") as fh:
            fh.write(rel.read_bytes())
        rel.unlink()
        assert run_cli(program, inventory, "--rel-file", rel) == 1
        assert str(rel) in capsys.readouterr().err

    def test_rel_file_overrides_features(self, tmp_path):
        # --features names a directory holding no feature file, which is never read
        program, inventory, rel = write_two_ad_instance(tmp_path)
        (tmp_path / "no-features").mkdir()
        outs = [tmp_path / "out-rel", tmp_path / "out-both"]
        for out, extra in zip(outs, [(), ("--features", tmp_path / "no-features")]):
            assert run_cli(program, inventory, "--rel-file", rel, *extra, out=out) == 0
        assert (outs[0] / "schedule.json").read_bytes() == (outs[1] / "schedule.json").read_bytes()

    def test_missing_feature_entity_exits_1(self, tmp_path, capsys):
        program, inventory, _ = write_two_ad_instance(tmp_path)
        feat_dir = write_features(tmp_path / "features", 45, ["s1", "a1"])  # s2, s3, a2 missing
        assert run_cli(program, inventory, "--features", feat_dir) == 1
        # every missing id, in program-then-inventory order
        assert capsys.readouterr().err.rstrip().endswith("no feature file for: s2, s3, a2")

    @pytest.mark.parametrize("pairing", ["aligned", "all_pairs"])
    def test_unnamed_files_in_features_dir_are_ignored(self, tmp_path, pairing):
        # a malformed notes.txt and a zz.txt of other dims are never read
        program, inventory, _ = write_two_ad_instance(tmp_path)
        rng = np.random.default_rng(47)
        feat_dir = write_features(tmp_path / "features", rng)
        outs = []
        for extra in (False, True):
            if extra:
                (feat_dir / "notes.txt").write_text("not a grid\n")
                write_features(feat_dir, rng, ["zz"], {"zz": (5, 3)})
            outs.append(tmp_path / f"out-{extra}")
            code = run_cli(program, inventory, "--features", feat_dir, "--pairing", pairing,
                           out=outs[-1])
            assert code == 0
        for name in ("schedule.json", "profile.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("route", ROUTES)
    def test_k_zero_writes_an_empty_schedule(self, tmp_path, route):
        program, inventory, rel = write_two_ad_instance(tmp_path)
        out = tmp_path / "out"
        assert run_cli(program, inventory, "--rel-file", rel, *ROUTES[route], k=0, out=out) == 0
        doc = json.loads((out / "schedule.json").read_text())
        assert doc["entries"] == []

    @pytest.mark.parametrize("bad_row", [np.full(8, np.nan), np.zeros(8)], ids=["nan", "zero"])
    def test_bad_feature_values_exit_1_naming_the_file(self, tmp_path, capsys, bad_row):
        program, inventory, _ = write_two_ad_instance(tmp_path)
        feat_dir = write_features(tmp_path / "features", 48, bad_row=bad_row)
        assert run_cli(program, inventory, "--features", feat_dir) == 1
        assert capsys.readouterr().err.startswith(f"error: {feat_dir / 'a2.txt'}: 'a2': ")

    @pytest.mark.parametrize(
        "pairing, shapes",
        [
            ("aligned", {"a2": (4, 8)}),  # ragged frame counts
            ("aligned", {"s2": (5, 6)}),  # mixed feature dims
            ("all_pairs", {"a1": (5, 6)}),
        ],
    )
    def test_inconsistent_features_exit_1(self, tmp_path, pairing, shapes):
        program, inventory, _ = write_two_ad_instance(tmp_path)
        feat_dir = write_features(tmp_path / "features", 46, shapes=shapes)
        assert run_cli(program, inventory, "--features", feat_dir, "--pairing", pairing) == 1

    @pytest.mark.parametrize(
        "source, shapes, message",
        [
            ("--rel-file", {}, "relevance matrix shape (3, 1) does not match 3 scenes x 2 ads"),
            ("--features", {"a2": (4, 8)},
             "aligned pairing needs equal frame counts: 's1' has 5, 'a2' has 4"),
            ("--features", {"s2": (5, 6)}, "feature dims differ: 's1' has 8, 's2' has 6"),
        ],
        ids=["rel_shape", "frame_counts", "feature_dims"],
    )
    def test_relevance_mismatch_names_its_source(self, tmp_path, capsys, source, shapes, message):
        # the loaders accept each file alone; the mismatch is named by the given path
        program, inventory, rel = write_two_ad_instance(tmp_path)
        np.savetxt(rel, np.ones((3, 1)), fmt="%.17g")
        feat_dir = write_features(tmp_path / "features", 49, shapes=shapes)
        arg = rel if source == "--rel-file" else feat_dir
        assert run_cli(program, inventory, source, arg) == 1
        assert capsys.readouterr().err == f"error: {arg}: {message}\n"

    @pytest.mark.parametrize("fault", ["program_array", "ads_object", "features_file",
                                       "features_missing", "rel_nan", "rel_inf", "rel_range"])
    def test_malformed_input_exits_1_naming_it(self, tmp_path, capsys, fault):
        program, inventory, rel = write_two_ad_instance(tmp_path)
        source = ["--rel-file", rel]
        if fault.startswith("rel_"):
            # a non-finite entry is reported before an out-of-range one
            first, last = {"rel_nan": ("nan", "0"), "rel_inf": ("inf", "-2"),
                           "rel_range": ("1.5", "0")}[fault]
            rel.write_text(f"0.1 {first}\n-0.2 0.3\n0.4 {last}\n")
            bad, message = rel, ("relevance entries must lie in [-1, 1]" if fault == "rel_range"
                                 else "relevance entries must be finite")
        elif fault == "program_array":
            program.write_text("[]")
            bad, message = program, "expected a JSON object at top level"
        elif fault == "ads_object":
            with edit_json(inventory) as doc:
                doc["ads"] = {"a1": 0.8}
            bad, message = inventory, "'ads' must be a list"
        else:
            bad = rel if fault == "features_file" else tmp_path / "nope"
            source, message = ["--features", bad], "not a directory"
        assert run_cli(program, inventory, *source) == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize("k", [2, 3])
def test_entrypoint_exits_with_mains_code(tmp_path, k):
    # `python -m adplacer.cli` and the installed `adplacer` script both exit
    # with what cli.main returns
    program, inventory, rel = write_two_ad_instance(tmp_path)
    expected = run_cli(program, inventory, "--rel-file", rel, k=k, out=tmp_path / "out-main")
    assert expected == {2: 0, 3: 2}[k]
    result = run_python(
        "-m", "adplacer.cli", "run", "--program", program, "--inventory", inventory,
        "--rel-file", rel, "--k", k, "--out", tmp_path / "out",
    )
    assert result.returncode == expected, result.stderr
    assert (tmp_path / "out" / "schedule.json").exists() == (expected == 0)
    for name in ("out-main", "out"):
        assert (tmp_path / name).exists() == (expected == 0)


def run_python(*args, **env_vars):
    """Run the interpreter in a fresh process with this package importable,
    adding ``env_vars`` to its environment."""
    src = str(Path(adplacer.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.update(env_vars)
    return subprocess.run(
        [sys.executable, *map(str, args)], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("source", ["--rel-file", "--features"])
@pytest.mark.parametrize("text", ["", "# adplacer-rel/1\n"], ids=["empty", "comment_only"])
def test_empty_grid_exits_1_without_a_warning(tmp_path, source, text):
    # numpy's "input contained no data" warning would reach stderr unfiltered
    program, inventory, rel = write_two_ad_instance(tmp_path)
    feat_dir = write_features(tmp_path / "features", 52)
    arg, empty = (rel, rel) if source == "--rel-file" else (feat_dir, feat_dir / "s2.txt")
    empty.write_text(text)
    result = run_python(
        "-m", "adplacer.cli", "run", "--program", program, "--inventory", inventory,
        source, arg, "--k", 2, "--out", tmp_path / "out",
    )
    assert result.returncode == 1
    assert f"{empty}: no numeric data" in result.stderr
    assert "Warning" not in result.stderr
    assert not (tmp_path / "out").exists()


def test_cli_import_does_not_load_scipy(tmp_path):
    # the exact solver is plain numpy, so a run pays no scipy import, nor a
    # lazy numpy.ma one (np.unique loads it under numpy 2; numpy 1.x loads it
    # with numpy itself, so it counts only if the import left it out)
    program, inventory, rel = write_two_ad_instance(tmp_path)
    argv = [
        "run", "--program", str(program), "--inventory", str(inventory),
        "--rel-file", str(rel), "--k", "2", "--out", str(tmp_path / "out"),
    ]
    result = run_python("-c", f"""import sys, adplacer.cli
ma_at_import = "numpy.ma" in sys.modules
code = adplacer.cli.main({argv!r})
if code != 0:
    sys.exit(f"exit {{code}}")
if "scipy" in sys.modules:
    sys.exit("scipy was imported")
if "numpy.ma" in sys.modules and not ma_at_import:
    sys.exit("the run imported numpy.ma")""")
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("route", ROUTES)
def test_outputs_do_not_depend_on_the_hash_seed(tmp_path, route):
    # string hashing changes between processes, and the locale picks the
    # default text encoding; no output may follow either
    program, inventory, _ = random_instance(10, 8, 31)
    io.save_program(program, tmp_path / "program.json")
    io.save_inventory(inventory, tmp_path / "inventory.json")
    ids = [s.id for s in program.scenes] + [a.id for a in inventory.ads]
    # grids are UTF-8 text, which an ASCII locale's default codec cannot decode
    feat_dir = write_features(
        tmp_path / "features", 31, ids, dict.fromkeys(ids, (4, 8)),
        header=f"{io.FEATURES_HEADER}\nkeyframes from café",
    )
    envs = {
        "out-0": {"PYTHONHASHSEED": "0"},
        "out-1": {"PYTHONHASHSEED": "1"},
        "out-ascii": {"PYTHONHASHSEED": "0", "LC_ALL": "C", "PYTHONUTF8": "0"},
    }
    for name, env in envs.items():
        result = run_python(
            "-m", "adplacer.cli", "run", "--program", tmp_path / "program.json",
            "--inventory", tmp_path / "inventory.json", "--features", feat_dir,
            "--k", 4, *ROUTES[route], "--out", tmp_path / name, **env,
        )
        assert result.returncode == 0, result.stderr
    for name in ("schedule.json", "profile.json"):
        assert len({(tmp_path / out / name).read_bytes() for out in envs}) == 1


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert "ScheduleEntry(slot=" in capsys.readouterr().out
