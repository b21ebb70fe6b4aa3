"""File formats for programs, inventories, features, relevance and artifacts.

Structured data travels as JSON with a ``format`` version header; numeric
grids (features, relevance) are whitespace-separated text with a ``#`` header
comment.  Floats serialize via ``repr`` (JSON) or ``%.17g`` (grids), both of
which round-trip float64 exactly, so re-running a solve reproduces output
files byte for byte.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path
from typing import Literal, Sequence

import numpy as np

from .core import (
    Ad,
    AdInventory,
    ProgramSpec,
    RelevanceMatrix,
    Scene,
    Schedule,
    ScheduleEntry,
    Valence,
)
from .errors import AdPlacerError, MissingEntity, ParseError, ValenceOutOfRange
from .profile import ProfilePoint
from .relevance import KeyframeFeatures
from .solvers import SolveReport

PROGRAM_FORMAT = "adplacer-program/1"
INVENTORY_FORMAT = "adplacer-inventory/1"
SCHEDULE_FORMAT = "adplacer-schedule/1"
REPORT_FORMAT = "adplacer-report/2"
PROFILE_FORMAT = "adplacer-profile/1"
RELEVANCE_HEADER = "adplacer-rel/1"
FEATURES_HEADER = "adplacer-features/1"

Scale = Literal["unit", "hundred"]


def _dump_json(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load_json(path, expected_format: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, a JSONDecodeError, or an integer over the digit limit
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    if doc.get("format") != expected_format:
        raise ParseError(
            f"{path}: expected format header {expected_format!r}, "
            f"got {doc.get('format')!r}"
        )
    return doc


def _is_int(raw) -> bool:
    """A JSON integer (``json`` decodes booleans as ``bool``, an ``int`` subclass)."""
    return isinstance(raw, int) and not isinstance(raw, bool)


def _is_number(raw) -> bool:
    """A JSON number, integer or not, and not a boolean."""
    return _is_int(raw) or isinstance(raw, float)


def _parse_valence(raw, scale: Scale, where: str) -> Valence:
    if not _is_number(raw):
        raise ParseError(f"{where}: valence is not a number: {raw!r}")
    try:
        x = float(raw)
    except OverflowError:  # a JSON integer beyond the float range
        x = math.inf
    limit = 1.0 if scale == "unit" else 100.0
    if not 0.0 <= x <= limit:
        raise ValenceOutOfRange(
            f"{where}: valence {raw} outside [0, {limit:g}] for scale {scale!r}"
        )
    return Valence(x / limit)


def _parse_str(raw, what: str) -> str:
    """A JSON string, as every id is; ``str()`` would turn ``null`` into ``"None"``."""
    if not isinstance(raw, str):
        raise ParseError(f"{what} must be a string, got {raw!r}")
    return raw


def _load_entities(path, expected_format: str, key: str, entity, scale: Scale, build):
    """Parse the non-empty ``key`` list of ``{"id", "valence"}`` objects in a
    ``format``-headed file into ``entity`` records, normalizing valences to
    the unit scale, and return ``build(doc, records)``."""
    doc = _load_json(path, expected_format)
    raw_items = doc.get(key)
    if not isinstance(raw_items, list) or not raw_items:
        raise ParseError(f"{path}: {key!r} must be a non-empty list")
    records = []
    for idx, item in enumerate(raw_items):
        where = f"{path}: {key}[{idx}]"
        if not isinstance(item, dict) or "id" not in item or "valence" not in item:
            raise ParseError(f"{where}: expected an object with 'id' and 'valence'")
        records.append(entity(
            _parse_str(item["id"], f"{where}: 'id'"),
            _parse_valence(item["valence"], scale, where),
        ))
    try:
        return build(doc, tuple(records))
    except (ValueError, TypeError) as exc:
        if isinstance(exc, AdPlacerError):
            raise
        raise ParseError(f"{path}: {exc}") from exc


def load_program(path, scale: Scale = "unit") -> ProgramSpec:
    """Parse a program file, normalizing valences to the unit scale."""

    def build(doc: dict, scenes: tuple[Scene, ...]) -> ProgramSpec:
        slot_count = doc.get("slot_count", 0)
        if not _is_int(slot_count):
            raise ParseError(f"{path}: 'slot_count' must be an integer, got {slot_count!r}")
        return ProgramSpec(scenes, slot_count)

    return _load_entities(path, PROGRAM_FORMAT, "scenes", Scene, scale, build)


def save_program(program: ProgramSpec, path) -> None:
    _dump_json(
        {
            "format": PROGRAM_FORMAT,
            "scenes": [
                {"id": s.id, "valence": s.valence.value} for s in program.scenes
            ],
            "slot_count": program.slot_count,
        },
        path,
    )


def load_inventory(path, scale: Scale = "unit") -> AdInventory:
    """Parse an ad inventory file, normalizing valences to the unit scale."""
    return _load_entities(
        path, INVENTORY_FORMAT, "ads", Ad, scale, lambda doc, ads: AdInventory(ads)
    )


def save_inventory(inventory: AdInventory, path) -> None:
    _dump_json(
        {
            "format": INVENTORY_FORMAT,
            "ads": [{"id": a.id, "valence": a.valence.value} for a in inventory.ads],
        },
        path,
    )


def schedule_dict(schedule: Schedule, mode: str = "strict") -> dict:
    return {
        "format": SCHEDULE_FORMAT,
        "mode": mode,
        "k": len(schedule.entries),
        "entries": [
            {"slot": e.slot, "rank": e.rank, "ad_id": e.ad_id}
            for e in schedule.in_slot_order
        ],
    }


def save_schedule(schedule: Schedule, path, mode: str = "strict") -> None:
    _dump_json(schedule_dict(schedule, mode), path)


def load_schedule(path) -> Schedule:
    doc = _load_json(path, SCHEDULE_FORMAT)
    raw = doc.get("entries")
    if not isinstance(raw, list):
        raise ParseError(f"{path}: 'entries' must be a list")
    try:
        entries = []
        for e in raw:
            slot, rank = e["slot"], e["rank"]
            if not (_is_int(slot) and _is_int(rank)):
                raise ParseError(
                    f"{path}: schedule 'slot' and 'rank' must be integers, "
                    f"got {slot!r} and {rank!r}"
                )
            ad_id = _parse_str(e["ad_id"], f"{path}: schedule 'ad_id'")
            entries.append(ScheduleEntry(slot, rank, ad_id))
        return Schedule(tuple(entries))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad schedule entry: {exc}") from exc


def report_dict(report: SolveReport, mode: str = "strict") -> dict:
    return {
        "format": REPORT_FORMAT,
        "solver": report.solver,
        "reward": report.reward,
        "candidates_evaluated": report.candidates_evaluated,
        "wall_time": report.wall_time,
        "schedule": schedule_dict(report.schedule, mode),
    }


def save_report(doc: dict, path) -> None:
    _dump_json(doc, path)


def load_report(path) -> dict:
    return _load_json(path, REPORT_FORMAT)


def save_profile(profile: Sequence[ProfilePoint], path) -> None:
    _dump_json(
        {
            "format": PROFILE_FORMAT,
            "points": [
                {
                    "position": p.position,
                    "kind": p.kind,
                    "entity_id": p.entity_id,
                    "valence_0_100": p.valence_0_100,
                }
                for p in profile
            ],
        },
        path,
    )


def load_profile(path) -> tuple[ProfilePoint, ...]:
    doc = _load_json(path, PROFILE_FORMAT)
    raw = doc.get("points")
    if not isinstance(raw, list):
        raise ParseError(f"{path}: 'points' must be a list")
    try:
        points = []
        for p in raw:
            position, value = p["position"], p["valence_0_100"]
            if not (_is_int(position) and _is_number(value)):
                raise ParseError(
                    f"{path}: profile 'position' must be an integer and "
                    f"'valence_0_100' a number, got {position!r} and {value!r}"
                )
            kind = _parse_str(p["kind"], f"{path}: profile 'kind'")
            entity_id = _parse_str(p["entity_id"], f"{path}: profile 'entity_id'")
            points.append(ProfilePoint(position, kind, entity_id, float(value)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: bad profile point: {exc}") from exc
    return tuple(points)


def _load_grid(path) -> np.ndarray:
    """Parse the numeric grid in exactly the file ``path``.

    Handing ``np.loadtxt`` an open file skips numpy's per-path ``DataSource``
    lookup: URL parsing and a probe for compressed siblings (``<path>.gz``).
    """
    try:
        with open(path) as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # empty input warns; it is reported below
            grid = np.loadtxt(fh, ndmin=2)
    except OSError:
        raise
    except Exception as exc:  # np.loadtxt raises assorted ValueError subtypes
        raise ParseError(f"{path}: cannot parse numeric grid: {exc}") from exc
    if grid.size == 0:
        raise ParseError(f"{path}: no numeric data")
    return grid


def load_relevance(path) -> RelevanceMatrix:
    """Read an N x P relevance grid (whitespace-separated, '#' comments)."""
    try:
        return RelevanceMatrix(_load_grid(path))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def save_relevance(rel: RelevanceMatrix, path) -> None:
    np.savetxt(path, rel.values, fmt="%.17g", header=RELEVANCE_HEADER)


def load_features_dir(dirpath, entity_ids: Sequence[str]) -> list[KeyframeFeatures]:
    """Load ``<id>.txt`` from a directory for each given id, in the given order.

    Only those files are read; an id names a file only if ``<id>.txt`` sits
    directly in the directory.  Every missing id is reported before any file
    is parsed, and an id given twice is parsed once.
    """
    directory = Path(dirpath)
    if not directory.is_dir():
        raise ParseError(f"{dirpath}: not a directory")
    paths = {eid: directory / f"{eid}.txt" for eid in entity_ids}
    # a stem never holds a separator, so an id with one names no file here
    missing = [eid for eid, path in paths.items() if path.stem != eid or not path.is_file()]
    if missing:
        raise MissingEntity(f"{dirpath}: no feature file for: {', '.join(missing)}")
    loaded = {eid: KeyframeFeatures(eid, _load_grid(path)) for eid, path in paths.items()}
    return [loaded[eid] for eid in entity_ids]


def save_features(feats: KeyframeFeatures, path) -> None:
    np.savetxt(path, feats.frames, fmt="%.17g", header=FEATURES_HEADER)
