"""File formats for programs, inventories, features, relevance and artifacts.

Structured data travels as JSON with a ``format`` version header; numeric
grids (features, relevance) are whitespace-separated UTF-8 text with a ``#``
header comment.  Each JSON record list (scenes, ads, schedule entries, profile
points) holds objects with that record's keys, and other keys are ignored.
Fields are checked here for their JSON type only (and a valence for the
range of its scale): a wrong type or a missing key names the file, the index
and the field.  Every other rule belongs to the object built, whose errors
name the file.  Each fault in a file's content is an ``InputError``, and an
unreadable file an ``OSError``; ``adplacer.cli`` gives their exit codes.
``schedule.json`` holds its ``Schedule.mode``.  Floats serialize via
``repr`` (JSON) or ``%.17g`` (grids), both of which round-trip float64
exactly, so re-running a solve reproduces ``schedule.json`` and
``profile.json`` byte for byte; only ``report.json`` holds a time.  From
``--features`` that holds for one BLAS build and thread count, because the
bits of the relevance product depend on BLAS blocking; a ``--rel-file`` run
uses no BLAS.  Identical creatives (or scenes) tie exactly on any build,
because identical frame stacks share one row or column of the product.
"""

from __future__ import annotations

import json
import warnings
from functools import partial
from pathlib import Path
from typing import Literal, Sequence

import numpy as np

from .core import (
    Ad,
    AdInventory,
    ProfilePoint,
    ProgramSpec,
    RelevanceMatrix,
    Scene,
    Schedule,
    ScheduleEntry,
    Valence,
)
from .errors import InputError
from .relevance import KeyframeFeatures

PROGRAM_FORMAT = "adplacer-program/1"
INVENTORY_FORMAT = "adplacer-inventory/1"
SCHEDULE_FORMAT = "adplacer-schedule/2"
REPORT_FORMAT = "adplacer-report/3"
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
        raise InputError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object at top level")
    if doc.get("format") != expected_format:
        raise InputError(
            f"{path}: expected format header {expected_format!r}, "
            f"got {doc.get('format')!r}"
        )
    return doc


def _parse_str(raw) -> str:
    """A JSON string, as every id is; ``str()`` would turn ``null`` into ``"None"``."""
    if not isinstance(raw, str):
        raise InputError(f"must be a string, got {raw!r}")
    return raw


def _parse_int(raw) -> int:
    if type(raw) is not int:  # json decodes true and false as bool, an int subclass
        raise InputError(f"must be an integer, got {raw!r}")
    return raw


def _parse_float(raw) -> float:
    if type(raw) not in (int, float):
        raise InputError(f"must be a number, got {raw!r}")
    try:
        return float(raw)
    except OverflowError:  # a JSON integer beyond the float range
        raise InputError(f"is beyond the float range: {raw}") from None


def _parse_valence(raw, scale: Scale) -> Valence:
    """A number on ``scale``, as a unit-scale ``Valence``.

    The range is checked on ``raw``, before dividing: ints and floats compare
    exactly, so an integer beyond the float range and NaN fail, and so does
    -1e-322, which ``/ 100`` would round to -0.0.
    """
    if type(raw) not in (int, float):
        raise InputError(f"is not a number: {raw!r}")
    limit = 1 if scale == "unit" else 100
    if not 0 <= raw <= limit:
        raise InputError(f"{raw} outside [0, {limit}] for scale {scale!r}")
    return Valence(raw / limit)


def _load_records(path, format: str, key: str, record, build, **parsers):
    """Parse the ``key`` list of a ``format``-headed file and return
    ``build(doc, records)``.

    Each item must be an object holding every key named in ``parsers``; each
    field is read by its parser, and ``record`` takes the results in the
    order of ``parsers``.  A field's error, or a ``record`` invariant's, names
    the file, the index and the field; a ``ValueError`` raised by ``build``
    becomes an ``InputError`` that names the file.
    """
    doc = _load_json(path, format)
    items = doc.get(key)
    if not isinstance(items, list):
        raise InputError(f"{path}: {key!r} must be a list")
    fields = parsers.items()
    records = []
    for idx, item in enumerate(items):
        if not isinstance(item, dict):
            raise InputError(
                f"{path}: {key}[{idx}]: expected an object, got {type(item).__name__}"
            )
        values = []
        try:
            for name, parse in fields:
                values.append(parse(item[name]))
            records.append(record(*values))
        except KeyError:
            raise InputError(f"{path}: {key}[{idx}]: missing key {name!r}") from None
        except InputError as exc:  # the only error a parser raises
            raise InputError(f"{path}: {key}[{idx}]: {name!r} {exc}") from None
        except ValueError as exc:  # a record's own invariant, which names its field
            raise InputError(f"{path}: {key}[{idx}]: {exc}") from None
    try:
        return build(doc, tuple(records))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _dump_entities(path, format: str, key: str, entities, **extra) -> None:
    """Write ``entities`` as the ``key`` list of ``{"id", "valence"}`` objects
    in a ``format``-headed file, beside the ``extra`` top-level keys."""
    records = [{"id": e.id, "valence": e.valence.value} for e in entities]
    _dump_json({"format": format, key: records, **extra}, path)


def load_program(path, scale: Scale = "unit") -> ProgramSpec:
    """Parse a program file, normalizing valences to the unit scale."""
    return _load_records(
        path, PROGRAM_FORMAT, "scenes", Scene,
        lambda doc, scenes: ProgramSpec(scenes, doc.get("slot_count", 0)),
        id=_parse_str, valence=partial(_parse_valence, scale=scale),
    )


def save_program(program: ProgramSpec, path) -> None:
    _dump_entities(
        path, PROGRAM_FORMAT, "scenes", program.scenes, slot_count=program.slot_count
    )


def load_inventory(path, scale: Scale = "unit") -> AdInventory:
    """Parse an ad inventory file, normalizing valences to the unit scale."""
    return _load_records(
        path, INVENTORY_FORMAT, "ads", Ad, lambda doc, ads: AdInventory(ads),
        id=_parse_str, valence=partial(_parse_valence, scale=scale),
    )


def save_inventory(inventory: AdInventory, path) -> None:
    _dump_entities(path, INVENTORY_FORMAT, "ads", inventory.ads)


def save_schedule(schedule: Schedule, path) -> None:
    entries = [dict(vars(e)) for e in schedule.entries]
    _dump_json({"format": SCHEDULE_FORMAT, "mode": schedule.mode, "entries": entries}, path)


def load_schedule(path) -> Schedule:
    """Parse a schedule file; its ``mode`` becomes ``Schedule.mode``."""
    return _load_records(
        path, SCHEDULE_FORMAT, "entries", ScheduleEntry,
        lambda doc, entries: Schedule(entries, doc.get("mode")),
        slot=_parse_int, rank=_parse_int, ad_id=_parse_str,
    )


def save_report(doc: dict, path) -> None:
    _dump_json({"format": REPORT_FORMAT, **doc}, path)


def load_report(path) -> dict:
    return _load_json(path, REPORT_FORMAT)


def save_profile(profile: Sequence[ProfilePoint], path) -> None:
    _dump_json({"format": PROFILE_FORMAT, "points": [dict(vars(p)) for p in profile]}, path)


def load_profile(path) -> tuple[ProfilePoint, ...]:
    return _load_records(
        path, PROFILE_FORMAT, "points", ProfilePoint, lambda doc, points: points,
        position=_parse_int, kind=_parse_str, entity_id=_parse_str,
        valence_0_100=_parse_float,
    )


def _load_grid(path, build):
    """Parse the numeric grid in exactly the file ``path`` and return ``build(grid)``.

    Handing ``np.loadtxt`` an open file skips numpy's per-path ``DataSource``
    lookup: URL parsing and a probe for compressed siblings (``<path>.gz``).
    A ``ValueError`` raised by the parse or by ``build`` becomes an
    ``InputError`` that names the file.
    """
    try:
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            # numpy's empty-input warning; the empty grid is reported below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            grid = np.loadtxt(fh, ndmin=2)
    except ValueError as exc:  # assorted subtypes, a UnicodeDecodeError among them
        raise InputError(f"{path}: cannot parse numeric grid: {exc}") from exc
    if grid.size == 0:
        raise InputError(f"{path}: no numeric data")
    try:
        return build(grid)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_relevance(path) -> RelevanceMatrix:
    """Read an N x P relevance grid (whitespace-separated, '#' comments)."""
    return _load_grid(path, RelevanceMatrix)


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
        raise InputError(f"{dirpath}: not a directory")
    paths = {eid: directory / f"{eid}.txt" for eid in entity_ids}
    # a stem never holds a separator, so an id with one names no file here
    missing = [eid for eid, path in paths.items() if path.stem != eid or not path.is_file()]
    if missing:
        raise InputError(f"{dirpath}: no feature file for: {', '.join(missing)}")
    loaded = {eid: _load_grid(path, partial(KeyframeFeatures, eid)) for eid, path in paths.items()}
    return [loaded[eid] for eid in entity_ids]


def save_features(feats: KeyframeFeatures, path) -> None:
    np.savetxt(path, feats.frames, fmt="%.17g", header=FEATURES_HEADER)
