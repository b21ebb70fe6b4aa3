"""File formats, the run pipeline and its exit codes."""

import dataclasses
import gzip
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adplacer
from adplacer import cli, io, solvers
from adplacer.cli import main
from adplacer.core import REWARD_ATOL, RewardParams, Schedule, ScheduleEntry, reward
from adplacer.errors import (
    DuplicateSceneId,
    MissingEntity,
    ParseError,
    ValenceOutOfRange,
)
from adplacer.instances import random_instance
from adplacer.relevance import KeyframeFeatures
from adplacer.solvers import solve_assignment

from util import make_inventory, make_program, two_ad_instance


def write_two_ad_instance(tmp_path, scale="unit"):
    factor = 100.0 if scale == "hundred" else 1.0
    program = {
        "format": io.PROGRAM_FORMAT,
        "scenes": [
            {"id": "s1", "valence": 0.9 * factor},
            {"id": "s2", "valence": 0.1 * factor},
            {"id": "s3", "valence": 0.8 * factor},
        ],
    }
    inventory = {
        "format": io.INVENTORY_FORMAT,
        "ads": [
            {"id": "a1", "valence": 0.8 * factor},
            {"id": "a2", "valence": 0.2 * factor},
        ],
    }
    (tmp_path / "program.json").write_text(json.dumps(program))
    (tmp_path / "inventory.json").write_text(json.dumps(inventory))
    np.savetxt(tmp_path / "rel.txt", np.ones((3, 2)), fmt="%.17g")
    return tmp_path / "program.json", tmp_path / "inventory.json", tmp_path / "rel.txt"


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

    def test_hundred_scale(self, tmp_path):
        doc = {
            "format": io.PROGRAM_FORMAT,
            "scenes": [
                {"id": "s1", "valence": 90},
                {"id": "s2", "valence": 10},
                {"id": "s3", "valence": 80},
            ],
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        program = io.load_program(path, scale="hundred")
        assert [s.valence.value for s in program.scenes] == [0.9, 0.1, 0.8]
        assert program.slot_count == 2

    def test_empty_scene_list(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"format": io.PROGRAM_FORMAT, "scenes": []}))
        with pytest.raises(ParseError):
            io.load_program(path)

    def test_valence_out_of_range(self, tmp_path):
        doc = {
            "format": io.PROGRAM_FORMAT,
            "scenes": [{"id": "s1", "valence": 120}, {"id": "s2", "valence": 10}],
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValenceOutOfRange):
            io.load_program(path, scale="hundred")

    @pytest.mark.parametrize("sign", ["", "-"])
    @pytest.mark.parametrize("kind", ["program", "inventory"])
    def test_integer_valence_beyond_float_range(self, tmp_path, kind, sign):
        # float() of such an integer raises OverflowError, not ValueError
        program, inventory, _ = write_two_ad_instance(tmp_path)
        path = program if kind == "program" else inventory
        append_entity(path, kind, sign + "1" + "0" * 400)
        load = io.load_program if kind == "program" else io.load_inventory
        with pytest.raises(ValenceOutOfRange, match="outside"):
            load(path)

    def test_duplicate_scene_id(self, tmp_path):
        doc = {
            "format": io.PROGRAM_FORMAT,
            "scenes": [{"id": "s", "valence": 0.2}, {"id": "s", "valence": 0.4}],
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DuplicateSceneId):
            io.load_program(path)

    def test_boolean_valence(self, tmp_path):
        doc = {
            "format": io.PROGRAM_FORMAT,
            "scenes": [{"id": "s1", "valence": True}, {"id": "s2", "valence": 0.1}],
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="not a number"):
            io.load_program(path)

    @pytest.mark.parametrize("raw", ["0.9", " 1e-1 ", None, [0.5]])
    @pytest.mark.parametrize("kind", ["program", "inventory"])
    def test_non_number_valence(self, tmp_path, kind, raw):
        program, inventory, rel = write_two_ad_instance(tmp_path)
        path = program if kind == "program" else inventory
        doc = json.loads(path.read_text())
        doc["scenes" if kind == "program" else "ads"][0]["valence"] = raw
        path.write_text(json.dumps(doc))
        load = io.load_program if kind == "program" else io.load_inventory
        with pytest.raises(ParseError, match="not a number"):
            load(path)
        code = main([
            "run", "--program", str(program), "--inventory", str(inventory),
            "--rel-file", str(rel), "--k", "2", "--out", str(tmp_path / "out"),
        ])
        assert code == 1

    @pytest.mark.parametrize("raw", [None, True, 3, ["x"], {"a": 1}])
    @pytest.mark.parametrize("kind", ["program", "inventory"])
    def test_non_string_id(self, tmp_path, kind, raw):
        # str() would have loaded these as the ids "None", "True", "3", ...
        program, inventory, rel = write_two_ad_instance(tmp_path)
        path = program if kind == "program" else inventory
        doc = json.loads(path.read_text())
        doc["scenes" if kind == "program" else "ads"][0]["id"] = raw
        path.write_text(json.dumps(doc))
        load = io.load_program if kind == "program" else io.load_inventory
        with pytest.raises(ParseError, match="'id' must be a string"):
            load(path)
        code = main([
            "run", "--program", str(program), "--inventory", str(inventory),
            "--rel-file", str(rel), "--k", "2", "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert not (tmp_path / "out").exists()

    def test_bad_json_and_wrong_header(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("{nope")
        with pytest.raises(ParseError):
            io.load_program(path)
        path.write_text(json.dumps({"format": "other/9", "scenes": []}))
        with pytest.raises(ParseError):
            io.load_program(path)
        path.write_bytes(b'{"format": "adplacer-program/1", "scenes": [{"id": "\xff"}]}')
        with pytest.raises(ParseError, match="p.json"):  # not UTF-8
            io.load_program(path)


class TestOtherFormats:
    def test_inventory_round_trip(self, tmp_path):
        inventory = make_inventory(0.8, 0.2, 0.55)
        path = tmp_path / "inv.json"
        io.save_inventory(inventory, path)
        assert io.load_inventory(path) == inventory

    def test_schedule_round_trip(self, tmp_path):
        from adplacer.core import Schedule

        schedule = Schedule.strict([(2, "a1"), (1, "a2")])
        path = tmp_path / "schedule.json"
        io.save_schedule(schedule, path)
        again = io.load_schedule(path)
        assert again.in_slot_order == schedule.in_slot_order

    @pytest.mark.parametrize("field, raw", [
        ("slot", 2.7), ("slot", True), ("slot", "2"), ("rank", 0.0), ("rank", True),
    ])
    def test_schedule_non_integer_field(self, tmp_path, field, raw):
        path = tmp_path / "schedule.json"
        io.save_schedule(Schedule.strict([(2, "a1"), (1, "a2")]), path)
        doc = json.loads(path.read_text())
        doc["entries"][0][field] = raw
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="must be integers"):
            io.load_schedule(path)

    @pytest.mark.parametrize("raw", [None, 3, ["x"]])
    def test_schedule_non_string_ad_id(self, tmp_path, raw):
        path = tmp_path / "schedule.json"
        io.save_schedule(Schedule.strict([(2, "a1"), (1, "a2")]), path)
        doc = json.loads(path.read_text())
        doc["entries"][0]["ad_id"] = raw
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="'ad_id' must be a string"):
            io.load_schedule(path)

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
        with pytest.raises(MissingEntity, match="s1"):
            io.load_features_dir(tmp_path, ["s1"])

    def test_features_dir_missing_ids(self, tmp_path):
        # s1.txt is malformed: the missing ids are reported before any parse
        (tmp_path / "s1.txt").write_text("1 2\n3 oops\n")
        (tmp_path / "x").mkdir()
        (tmp_path / "x" / "y.txt").write_text("1 2\n")
        (tmp_path / ".txt").write_text("1 2\n")
        (tmp_path / "a1.txt").mkdir()  # a directory is not a feature file
        with pytest.raises(MissingEntity) as exc:
            io.load_features_dir(tmp_path, ["s2", "s1", "x/y", "", "a1", str(tmp_path / "s1")])
        missing = str(exc.value).split("no feature file for: ")[1]
        assert missing == f"s2, x/y, , a1, {tmp_path / 's1'}"

    def test_features_dir_parses_a_shared_id_once(self, tmp_path, monkeypatch):
        np.savetxt(tmp_path / "s1.txt", np.ones((2, 3)))
        np.savetxt(tmp_path / "a1.txt", np.eye(2, 3))
        parsed = []
        load_grid = io._load_grid
        monkeypatch.setattr(io, "_load_grid", lambda path: parsed.append(path) or load_grid(path))
        loaded = io.load_features_dir(tmp_path, ["s1", "a1", "s1"])
        assert [f.entity_id for f in loaded] == ["s1", "a1", "s1"]
        assert loaded[0] is loaded[2]
        assert sorted(p.name for p in parsed) == ["a1.txt", "s1.txt"]

    def test_profile_round_trip(self, tmp_path):
        from adplacer.core import Schedule
        from adplacer.profile import build_profile

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
        from adplacer.profile import build_profile

        program, inventory, _, _ = two_ad_instance()
        path = tmp_path / "profile.json"
        io.save_profile(build_profile(Schedule.strict([(1, "a2")]), program, inventory), path)
        doc = json.loads(path.read_text())
        doc["points"][0][field] = raw
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="must be an integer"):
            io.load_profile(path)

    @pytest.mark.parametrize("raw", [None, 3, ["x"]])
    @pytest.mark.parametrize("field", ["kind", "entity_id"])
    def test_profile_non_string_field(self, tmp_path, field, raw):
        from adplacer.profile import build_profile

        program, inventory, _, _ = two_ad_instance()
        path = tmp_path / "profile.json"
        io.save_profile(build_profile(Schedule.strict([(1, "a2")]), program, inventory), path)
        doc = json.loads(path.read_text())
        doc["points"][0][field] = raw
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"'{field}' must be a string"):
            io.load_profile(path)


    def test_profile_integer_beyond_float_range(self, tmp_path):
        from adplacer.profile import build_profile

        program, inventory, _, _ = two_ad_instance()
        path = tmp_path / "profile.json"
        io.save_profile(build_profile(Schedule.strict([(1, "a2")]), program, inventory), path)
        doc = json.loads(path.read_text())
        doc["points"][0]["valence_0_100"] = "VALENCE"
        path.write_text(json.dumps(doc).replace('"VALENCE"', "1" + "0" * 400))
        with pytest.raises(ParseError, match="bad profile point"):
            io.load_profile(path)


class TestRunCommand:
    def run_cli(self, *args):
        return main([str(a) for a in args])

    def test_brute_force_end_to_end(self, tmp_path, capsys):
        # the run's artifacts match the library's brute-force oracle
        program, inventory, rel = write_two_ad_instance(tmp_path)
        out = tmp_path / "out"
        code = self.run_cli(
            "run", "--program", program, "--inventory", inventory,
            "--rel-file", rel, "--k", 2, "--out", out,
        )
        assert code == 0
        oracle = solvers.solve_brute_force(
            io.load_program(program), io.load_inventory(inventory),
            io.load_relevance(rel), RewardParams(0.5, 0.5, 2),
        )
        schedule = io.load_schedule(out / "schedule.json")
        assert [(e.slot, e.ad_id) for e in schedule.in_slot_order] == [(1, "a2"), (2, "a1")]
        assert schedule.in_slot_order == oracle.schedule.in_slot_order
        report = io.load_report(out / "report.json")
        assert report["reward"] == pytest.approx(1.3, abs=1e-9)
        assert report["reward"] == pytest.approx(oracle.reward, abs=1e-12)
        assert report["solver"] == "assignment"
        profile = io.load_profile(out / "profile.json")
        assert len(profile) == 5

    @pytest.mark.parametrize("flags", [("--solver", "brute"), ("--cap", 5)], ids=["brute", "cap"])
    def test_brute_force_flags_are_gone(self, tmp_path, capsys, flags):
        program, inventory, rel = write_two_ad_instance(tmp_path)
        with pytest.raises(SystemExit) as exc:
            self.run_cli(
                "run", "--program", program, "--inventory", inventory,
                "--rel-file", rel, "--k", 2, *flags, "--out", tmp_path / "out",
            )
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("solver", ["bnb", "lp"])
    def test_other_solvers_agree(self, tmp_path, solver):
        program, inventory, rel = write_two_ad_instance(tmp_path)
        out = tmp_path / f"out-{solver}"
        code = self.run_cli(
            "run", "--program", program, "--inventory", inventory,
            "--rel-file", rel, "--k", 2, "--solver", solver, "--out", out,
        )
        assert code == 0
        report = io.load_report(out / "report.json")
        assert report["reward"] == pytest.approx(1.3, abs=1e-9)
        assert report["solver"] == "assignment"
        assert "upper_bound" not in report

    def test_default_solver_handles_paper_scale(self, tmp_path):
        # 24 ads / 11 slots / k=8 has ~7.9e10 candidate schedules, far over
        # the brute-force cap, so only the exact assignment can be the default
        program, inventory, rel = random_instance(24, 11, 12)
        io.save_program(program, tmp_path / "program.json")
        io.save_inventory(inventory, tmp_path / "inventory.json")
        io.save_relevance(rel, tmp_path / "rel.txt")
        out = tmp_path / "out"
        code = self.run_cli(
            "run", "--program", tmp_path / "program.json",
            "--inventory", tmp_path / "inventory.json",
            "--rel-file", tmp_path / "rel.txt", "--k", 8, "--out", out,
        )
        assert code == 0
        report = io.load_report(out / "report.json")
        expected = solve_assignment(program, inventory, rel, RewardParams(0.5, 0.5, 8))
        assert report["solver"] == "assignment"
        assert report["reward"] == pytest.approx(expected.reward, abs=1e-9)

    @pytest.mark.parametrize("alpha_args, alpha", [((), 0.5), (("--alpha", 0.25), 0.25)])
    def test_parser_defaults(self, tmp_path, monkeypatch, alpha_args, alpha):
        # every default lives in build_parser: solver, --out, alpha and beta
        program, inventory, rel = write_two_ad_instance(tmp_path)
        monkeypatch.chdir(tmp_path)
        code = self.run_cli(
            "run", "--program", program, "--inventory", inventory,
            "--rel-file", rel, "--k", 2, *alpha_args,
        )
        assert code == 0
        schedule = io.load_schedule(tmp_path / "out" / "schedule.json")
        report = io.load_report(tmp_path / "out" / "report.json")
        assert report["solver"] == "assignment"
        expected = reward(
            schedule, io.load_program(program), io.load_inventory(inventory),
            io.load_relevance(rel), RewardParams(alpha, 1.0 - alpha, 2),
        )
        assert report["reward"] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("solver", ["bnb", "lp"])
    def test_objective_disagreeing_with_reward_exits_4(self, tmp_path, capsys, monkeypatch, solver):
        # a solver optimizing the wrong objective must be caught by the re-score
        contributions = solvers._contributions
        monkeypatch.setattr(solvers, "_contributions", lambda *args: contributions(*args) + 1.0)
        program, inventory, rel = write_two_ad_instance(tmp_path)
        code = self.run_cli(
            "run", "--program", program, "--inventory", inventory,
            "--rel-file", rel, "--k", 2, "--solver", solver, "--out", tmp_path / "out",
        )
        assert code == 4
        assert "violating its own contract" in capsys.readouterr().err

    @pytest.mark.parametrize("ulps, expected", [(2, 0), (10_000, 4)])
    def test_rescore_tolerance_scales_with_the_reward(self, tmp_path, monkeypatch, ulps, expected):
        # rewards near 1e7 re-score a few ulps apart from summation order alone,
        # more than the absolute REWARD_ATOL, while a real disagreement exits 4
        reported = 15497016.807755072
        rescored = reported - ulps * math.ulp(reported)
        assert abs(rescored - reported) > REWARD_ATOL
        solve = cli.solve_assignment
        monkeypatch.setattr(
            cli, "solve_assignment",
            lambda *args: dataclasses.replace(solve(*args), reward=reported),
        )
        monkeypatch.setattr(cli, "_score", lambda *args: rescored)
        program, inventory, rel = write_two_ad_instance(tmp_path)
        code = self.run_cli(
            "run", "--program", program, "--inventory", inventory,
            "--rel-file", rel, "--k", 2, "--out", tmp_path / "out",
        )
        assert code == expected

    @pytest.mark.parametrize("solver", ["bnb", "lp", "trivial"])
    def test_artifact_shape(self, tmp_path, solver):
        program, inventory, rel = write_two_ad_instance(tmp_path)
        out = tmp_path / "out"
        code = self.run_cli(
            "run", "--program", program, "--inventory", inventory,
            "--rel-file", rel, "--k", 2, "--solver", solver, "--out", out,
        )
        assert code == 0
        trivial = solver == "trivial"
        report = io.load_report(out / "report.json")
        keys = {"format", "solver", "reward", "candidates_evaluated", "wall_time", "schedule"}
        assert set(report) == (keys | {"seed"} if trivial else keys)
        assert report["format"] == "adplacer-report/2"
        assert (report["reward"] is None) == trivial
        schedule = json.loads((out / "schedule.json").read_text())
        assert schedule["mode"] == ("baseline" if trivial else "strict")
        assert report["schedule"] == schedule

    @pytest.mark.parametrize("solver", ["bnb", "lp"])
    def test_schedule_is_validated_once(self, tmp_path, monkeypatch, solver):
        from adplacer import core

        calls = []
        validate = core.validate_schedule

        def counted(*args, **kwargs):
            calls.append(args[0])
            return validate(*args, **kwargs)

        monkeypatch.setattr(core, "validate_schedule", counted)
        monkeypatch.setattr(cli, "validate_schedule", counted)
        program, inventory, rel = write_two_ad_instance(tmp_path)
        code = self.run_cli(
            "run", "--program", program, "--inventory", inventory,
            "--rel-file", rel, "--k", 2, "--solver", solver, "--out", tmp_path / "out",
        )
        assert code == 0
        assert len(calls) == 1

    def test_invalid_trivial_schedule_exits_4(self, tmp_path, capsys, monkeypatch):
        # two ads stacked on one (slot, rank) break even the baseline contract
        stacked = Schedule((ScheduleEntry(1, 0, "a1"), ScheduleEntry(1, 0, "a2")))
        monkeypatch.setattr(cli, "trivial_schedule", lambda *args: stacked)
        program, inventory, _ = write_two_ad_instance(tmp_path)
        code = self.run_cli(
            "run", "--program", program, "--inventory", inventory,
            "--k", 2, "--solver", "trivial", "--out", tmp_path / "out",
        )
        assert code == 4
        assert "violating its own contract" in capsys.readouterr().err

    def test_hundred_scale_flag(self, tmp_path):
        program, inventory, rel = write_two_ad_instance(tmp_path, scale="hundred")
        out = tmp_path / "out"
        code = self.run_cli(
            "run", "--program", program, "--inventory", inventory,
            "--rel-file", rel, "--k", 2, "--scale", "hundred", "--out", out,
        )
        assert code == 0
        report = io.load_report(out / "report.json")
        assert report["reward"] == pytest.approx(1.3, abs=1e-9)

    def test_trivial_is_seed_deterministic(self, tmp_path):
        program, inventory, rel = write_two_ad_instance(tmp_path)
        outs = []
        for name in ("t1", "t2"):
            out = tmp_path / name
            code = self.run_cli(
                "run", "--program", program, "--inventory", inventory,
                "--k", 2, "--solver", "trivial", "--seed", 7, "--out", out,
            )
            assert code == 0
            outs.append((out / "schedule.json").read_bytes())
        assert outs[0] == outs[1]

    def test_trivial_with_short_slot_count_exits_0(self, tmp_path):
        program = make_program(*[0.1 * i for i in range(1, 11)], slot_count=3)
        inventory = make_inventory(0.9, 0.1)
        io.save_program(program, tmp_path / "program.json")
        io.save_inventory(inventory, tmp_path / "inventory.json")
        out = tmp_path / "out"
        code = self.run_cli(
            "run", "--program", tmp_path / "program.json",
            "--inventory", tmp_path / "inventory.json",
            "--k", 2, "--solver", "trivial", "--out", out,
        )
        assert code == 0
        schedule = io.load_schedule(out / "schedule.json")
        assert sorted(e.slot for e in schedule.entries) == [0, 3]

    def test_odd_k_exits_2_naming_balance(self, tmp_path, capsys):
        program, inventory, rel = write_two_ad_instance(tmp_path)
        code = self.run_cli(
            "run", "--program", program, "--inventory", inventory,
            "--rel-file", rel, "--k", 3, "--out", tmp_path / "out",
        )
        assert code == 2
        assert "balance" in capsys.readouterr().err

    def test_missing_program_exits_1(self, tmp_path):
        _, inventory, rel = write_two_ad_instance(tmp_path)
        code = self.run_cli(
            "run", "--program", tmp_path / "nope.json", "--inventory", inventory,
            "--rel-file", rel, "--k", 2, "--out", tmp_path / "out",
        )
        assert code == 1

    @pytest.mark.parametrize("raw", ["1e400", "2.7", "true", '"2"', "null"])
    def test_non_integer_slot_count_exits_1(self, tmp_path, capsys, raw):
        program, inventory, rel = write_two_ad_instance(tmp_path)
        doc = {**json.loads(program.read_text()), "slot_count": "SLOTS"}
        program.write_text(json.dumps(doc).replace('"SLOTS"', raw))
        code = self.run_cli(
            "run", "--program", program, "--inventory", inventory,
            "--rel-file", rel, "--k", 2, "--out", tmp_path / "out",
        )
        assert code == 1
        assert "slot_count" in capsys.readouterr().err

    def test_deeply_nested_json_exits_1(self, tmp_path):
        program, inventory, rel = write_two_ad_instance(tmp_path)
        program.write_text("[" * 100_000 + "]" * 100_000)
        code = self.run_cli(
            "run", "--program", program, "--inventory", inventory,
            "--rel-file", rel, "--k", 2, "--out", tmp_path / "out",
        )
        assert code == 1

    def test_beta_without_relevance_exits_1(self, tmp_path):
        program, inventory, _ = write_two_ad_instance(tmp_path)
        code = self.run_cli(
            "run", "--program", program, "--inventory", inventory,
            "--k", 2, "--out", tmp_path / "out",
        )
        assert code == 1

    def test_alpha_one_needs_no_relevance(self, tmp_path):
        program, inventory, _ = write_two_ad_instance(tmp_path)
        code = self.run_cli(
            "run", "--program", program, "--inventory", inventory,
            "--k", 2, "--alpha", 1.0, "--out", tmp_path / "out",
        )
        assert code == 0

    @pytest.mark.parametrize("scale, token, expected", [
        ("unit", "0", 0), ("unit", "0.5", 0), ("unit", "1", 0),
        ("unit", "-0.0", 0), ("unit", "1e-308", 0),
        ("unit", "1" + "0" * 400, 1), ("unit", "1e400", 1),
        ("unit", "-1", 1), ("unit", "1.5", 1),
        # json.loads refuses an integer of more than 4300 digits with a ValueError
        ("unit", "1" + "0" * 5000, 1),
        ("hundred", "100", 0), ("hundred", "100.5", 1),
        ("hundred", "1" + "0" * 400, 1),
    ], ids=lambda v: v if len(str(v)) < 20 else f"10**{len(v) - 1}")
    @pytest.mark.parametrize("kind", ["program", "inventory"])
    def test_edge_valences(self, tmp_path, capsys, kind, scale, token, expected):
        # the extra entity keeps the HV and the LV ad, so k=2 stays feasible
        program, inventory, _ = write_two_ad_instance(tmp_path, scale=scale)
        path = program if kind == "program" else inventory
        append_entity(path, kind, token)
        out = tmp_path / "out"
        code = self.run_cli(
            "run", "--program", program, "--inventory", inventory,
            "--k", 2, "--alpha", 1, "--scale", scale, "--out", out,
        )
        assert code == expected
        assert out.exists() == (code == 0)
        if code:
            assert str(path) in capsys.readouterr().err
        if token == "-0.0":
            # the sign of zero is dropped: profile.json writes 0.0, not -0.0
            points = json.loads((out / "profile.json").read_text())["points"]
            [value] = [p["valence_0_100"] for p in points if p["entity_id"] == "x"]
            assert math.copysign(1.0, value) == 1.0

    def test_k_over_slots_exits_2(self, tmp_path):
        program, inventory, rel = write_two_ad_instance(tmp_path)
        code = self.run_cli(
            "run", "--program", program, "--inventory", inventory,
            "--rel-file", rel, "--k", 4, "--out", tmp_path / "out",
        )
        assert code == 2

    @pytest.mark.parametrize("k, rel_name, expected", [(2, "nope.txt", 1), (4, "rel.txt", 2)])
    def test_failed_run_creates_no_out_dir(self, tmp_path, k, rel_name, expected):
        program, inventory, _ = write_two_ad_instance(tmp_path)
        code = self.run_cli(
            "run", "--program", program, "--inventory", inventory,
            "--rel-file", tmp_path / rel_name, "--k", k, "--out", tmp_path / "out" / "nested",
        )
        assert code == expected
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["--features", "--rel-file"])
    @pytest.mark.parametrize("case", ["k_over_slots", "unbalanced"])
    def test_infeasible_k_exits_2_before_reading_relevance(self, tmp_path, capsys, source, case):
        # a malformed relevance source would exit 1 if it were read first
        program, inventory, rel = write_two_ad_instance(tmp_path)
        k = 4 if case == "k_over_slots" else 2
        if case == "unbalanced":
            doc = json.loads(inventory.read_text())
            doc["ads"][1]["valence"] = 0.7  # two HV ads, no LV ad
            inventory.write_text(json.dumps(doc))
        feat_dir = tmp_path / "features"
        feat_dir.mkdir()
        (feat_dir / "s1.txt").write_text("1 2\n3 oops\n")
        rel.write_text("not a grid\n")
        code = self.run_cli(
            "run", "--program", program, "--inventory", inventory,
            source, feat_dir if source == "--features" else rel,
            "--k", k, "--out", tmp_path / "out",
        )
        assert code == 2
        assert ("exceeds" if case == "k_over_slots" else "inventory has") in capsys.readouterr().err

    @pytest.mark.parametrize("solver", ["bnb", "lp"])
    def test_relevance_missing_an_ad_column_exits_1(self, tmp_path, capsys, solver):
        program, inventory, rel = write_two_ad_instance(tmp_path)
        np.savetxt(rel, np.ones((3, 1)), fmt="%.17g")
        code = self.run_cli(
            "run", "--program", program, "--inventory", inventory,
            "--rel-file", rel, "--k", 2, "--solver", solver, "--out", tmp_path / "out",
        )
        assert code == 1
        assert "does not match 3 scenes x 2 ads" in capsys.readouterr().err

    def test_out_naming_a_file_exits_1(self, tmp_path):
        program, inventory, rel = write_two_ad_instance(tmp_path)
        out = tmp_path / "out"
        out.write_text("")
        code = self.run_cli(
            "run", "--program", program, "--inventory", inventory,
            "--rel-file", rel, "--k", 2, "--out", out,
        )
        assert code == 1

    def test_input_under_a_regular_file_exits_1(self, tmp_path):
        _, inventory, rel = write_two_ad_instance(tmp_path)
        code = self.run_cli(
            "run", "--program", inventory / "p.json", "--inventory", inventory,
            "--rel-file", rel, "--k", 2, "--out", tmp_path / "out",
        )
        assert code == 1

    def test_features_pipeline(self, tmp_path):
        program, inventory, _ = write_two_ad_instance(tmp_path)
        rng = np.random.default_rng(44)
        feat_dir = tmp_path / "features"
        feat_dir.mkdir()
        for eid in ("s1", "s2", "s3", "a1", "a2"):
            np.savetxt(feat_dir / f"{eid}.txt", rng.normal(size=(5, 8)), fmt="%.17g")
        out = tmp_path / "out"
        code = self.run_cli(
            "run", "--program", program, "--inventory", inventory,
            "--features", feat_dir, "--k", 2, "--out", out,
        )
        assert code == 0
        assert (out / "schedule.json").exists()
        code = self.run_cli(
            "run", "--program", program, "--inventory", inventory,
            "--features", feat_dir, "--pairing", "all_pairs", "--k", 2,
            "--out", tmp_path / "out-allpairs",
        )
        assert code == 0

    def test_grids_are_parsed_from_open_files(self, tmp_path, monkeypatch):
        # a path would send np.loadtxt through numpy's DataSource lookup
        program, inventory, rel = write_two_ad_instance(tmp_path)
        feat_dir = tmp_path / "features"
        feat_dir.mkdir()
        for eid in ("s1", "s2", "s3", "a1", "a2"):
            np.savetxt(feat_dir / f"{eid}.txt", np.eye(2, 3), fmt="%.17g")
        sources = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(
            io.np, "loadtxt", lambda fname, **kw: sources.append(fname) or loadtxt(fname, **kw)
        )
        for source, arg in (("--rel-file", rel), ("--features", feat_dir)):
            code = self.run_cli(
                "run", "--program", program, "--inventory", inventory,
                source, arg, "--k", 2, "--out", tmp_path / source.strip("-"),
            )
            assert code == 0
        assert len(sources) == 1 + 5
        assert not [s for s in sources if isinstance(s, (str, bytes, os.PathLike))]

    def test_rel_file_is_read_exactly_as_named(self, tmp_path, capsys):
        # numpy's path lookup would fall back to the compressed rel.txt.gz
        program, inventory, rel = write_two_ad_instance(tmp_path)
        with gzip.open(f"{rel}.gz", "wb") as fh:
            fh.write(rel.read_bytes())
        rel.unlink()
        code = self.run_cli(
            "run", "--program", program, "--inventory", inventory,
            "--rel-file", rel, "--k", 2, "--out", tmp_path / "out",
        )
        assert code == 1
        assert str(rel) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_feature_entity_exits_1(self, tmp_path, capsys):
        program, inventory, _ = write_two_ad_instance(tmp_path)
        rng = np.random.default_rng(45)
        feat_dir = tmp_path / "features"
        feat_dir.mkdir()
        for eid in ("s1", "a1"):  # s2, s3 and a2 missing
            np.savetxt(feat_dir / f"{eid}.txt", rng.normal(size=(5, 8)), fmt="%.17g")
        code = self.run_cli(
            "run", "--program", program, "--inventory", inventory,
            "--features", feat_dir, "--k", 2, "--out", tmp_path / "out",
        )
        assert code == 1
        # every missing id, in program-then-inventory order
        assert capsys.readouterr().err.rstrip().endswith("no feature file for: s2, s3, a2")

    @pytest.mark.parametrize("pairing", ["aligned", "all_pairs"])
    def test_unnamed_files_in_features_dir_are_ignored(self, tmp_path, pairing):
        # a malformed notes.txt and a zz.txt of other dims are never read
        program, inventory, _ = write_two_ad_instance(tmp_path)
        rng = np.random.default_rng(47)
        feat_dir = tmp_path / "features"
        feat_dir.mkdir()
        for eid in ("s1", "s2", "s3", "a1", "a2"):
            np.savetxt(feat_dir / f"{eid}.txt", rng.normal(size=(5, 8)), fmt="%.17g")
        outs = []
        for extra in (False, True):
            if extra:
                (feat_dir / "notes.txt").write_text("not a grid\n")
                np.savetxt(feat_dir / "zz.txt", rng.normal(size=(5, 3)), fmt="%.17g")
            outs.append(tmp_path / f"out-{extra}")
            code = self.run_cli(
                "run", "--program", program, "--inventory", inventory,
                "--features", feat_dir, "--pairing", pairing, "--k", 2, "--out", outs[-1],
            )
            assert code == 0
        for name in ("schedule.json", "profile.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("solver", ["bnb", "lp", "trivial"])
    def test_k_zero_writes_an_empty_schedule(self, tmp_path, solver):
        program, inventory, rel = write_two_ad_instance(tmp_path)
        out = tmp_path / "out"
        code = self.run_cli(
            "run", "--program", program, "--inventory", inventory,
            "--rel-file", rel, "--k", 0, "--solver", solver, "--out", out,
        )
        assert code == 0
        doc = json.loads((out / "schedule.json").read_text())
        assert doc["entries"] == [] and doc["k"] == 0

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
        rng = np.random.default_rng(46)
        feat_dir = tmp_path / "features"
        feat_dir.mkdir()
        for eid in ("s1", "s2", "s3", "a1", "a2"):
            frames = rng.normal(size=shapes.get(eid, (5, 8)))
            np.savetxt(feat_dir / f"{eid}.txt", frames, fmt="%.17g")
        code = self.run_cli(
            "run", "--program", program, "--inventory", inventory,
            "--features", feat_dir, "--pairing", pairing, "--k", 2,
            "--out", tmp_path / "out",
        )
        assert code == 1


@pytest.mark.parametrize("k", [2, 3])
def test_entrypoint_exits_with_mains_code(tmp_path, monkeypatch, k):
    program, inventory, rel = write_two_ad_instance(tmp_path)
    args = ["run", "--program", str(program), "--inventory", str(inventory),
            "--rel-file", str(rel), "--k", str(k)]
    expected = main(args + ["--out", str(tmp_path / "out-main")])
    monkeypatch.setattr(sys, "argv", ["adplacer", *args, "--out", str(tmp_path / "out")])
    with pytest.raises(SystemExit) as exc:
        cli.entrypoint()
    assert exc.value.code == expected
    assert (tmp_path / "out" / "schedule.json").exists() == (expected == 0)


def run_python(*args):
    """Run the interpreter in a fresh process with this package importable."""
    src = str(Path(adplacer.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *map(str, args)], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("source", ["--rel-file", "--features"])
@pytest.mark.parametrize("text", ["", "# adplacer-rel/1\n"], ids=["empty", "comment_only"])
def test_empty_grid_exits_1_without_a_warning(tmp_path, source, text):
    # numpy's "input contained no data" warning would reach stderr unfiltered
    program, inventory, rel = write_two_ad_instance(tmp_path)
    feat_dir = tmp_path / "features"
    feat_dir.mkdir()
    for eid in ("s1", "s2", "s3", "a1", "a2"):
        np.savetxt(feat_dir / f"{eid}.txt", np.ones((2, 3)), fmt="%.17g")
    arg, empty = (rel, rel) if source == "--rel-file" else (feat_dir, feat_dir / "s2.txt")
    empty.write_text(text)
    result = run_python(
        "-m", "adplacer.cli", "run", "--program", program, "--inventory", inventory,
        source, arg, "--k", 2, "--out", tmp_path / "out",
    )
    assert result.returncode == 1
    assert f"{empty}: no numeric data" in result.stderr
    assert "Warning" not in result.stderr


def test_cli_import_does_not_load_scipy():
    # the exact solver is plain numpy, so a run pays no scipy import
    result = run_python("-c", "import sys, adplacer.cli; sys.exit(int('scipy' in sys.modules))")
    assert result.returncode == 0, result.stderr or "scipy was imported"
