"""Seeded format fuzz of ``adplacer run``.

Each case writes a small program, inventory and relevance source (a grid
file or a features directory) and varies them inside and outside the
documented formats: valence edges, ids, ``slot_count``, k, grid shapes,
NaN and inf, a byte-order mark and CRLF line ends.  Every run must exit 0,
1 or 2, with the code its variation calls for; a valid instance must exit 0
with the optimum of ``solve_brute_force``.
"""

import json

import numpy as np

from adplacer.cli import main
from adplacer.core import (
    REWARD_ATOL,
    Ad,
    AdInventory,
    ProgramSpec,
    RelevanceMatrix,
    RewardParams,
    Scene,
    Valence,
)
from adplacer.relevance import KeyframeFeatures, build_relevance_matrix
from adplacer.solvers import solve_brute_force

SEED = 20261018
N_CASES = 150

VALID_VALENCES = {"0": 0.0, "0.5": 0.5, "1": 1.0, "-0.0": 0.0, "1e-308": 1e-308}
INVALID_VALENCES = [
    "1" + "0" * 400, "1" + "0" * 5000, "1e400", "-1", "1.5",
    "NaN", "Infinity", "true", "null", '"0.5"',
]
# a program has at least 3 scenes, so 1 and 2 are always valid
VALID_SLOT_COUNTS = {"0": 0, "1": 1, "2": 2}
INVALID_SLOT_COUNTS = ["-1", "99", "2.5", "true", "null", '"2"']
# ids that stay valid JSON strings; of these only ``unicode`` names a feature file
ID_VARIANTS = {
    "unicode": lambda i: f"é✓{i}",
    "long": lambda i: "x" * 300 + str(i),
    "slash": lambda i: f"dir/{i}",
    "nul": lambda i: f"n\x00{i}",
}
GRID_VARIANTS = ["crlf", "bom", "ragged", "nan", "inf", "frames"]


def _line_variant(text: str, variant: str | None) -> str:
    if variant == "crlf":
        return text.replace("\n", "\r\n")
    if variant == "bom":
        return "\ufeff" + text
    return text


def _grid_text(values: np.ndarray, variant: str | None) -> str:
    rows = [[repr(float(x)) for x in row] for row in values]
    if variant == "ragged":
        rows[-1] = rows[-1][:-1]
    elif variant in ("nan", "inf"):
        rows[0][0] = variant
    return _line_variant("# grid\n" + "".join(" ".join(row) + "\n" for row in rows), variant)


def _run_case(rng: np.random.Generator, root) -> tuple[int, str | None]:
    """Write and run one varied instance; return its exit code and a failure
    message, or None if it behaved."""
    n, p = int(rng.integers(3, 7)), int(rng.integers(2, 7))
    scene_ids = [f"s{i}" for i in range(n)]
    ad_ids = [f"a{j}" for j in range(p)]
    scene_vals = list(rng.random(n))
    ad_vals = list(rng.random(p))
    k = int(rng.choice([0, 2, 2, 4, 4, 3]))
    alpha = float(rng.choice([0.0, 0.5, 1.0, rng.random()]))
    use_features = bool(rng.integers(2))
    pairing = str(rng.choice(["aligned", "all_pairs"]))
    json_ok = source_ok = True
    # raw JSON text written in place of a placeholder string
    raw = {"VALENCE_scenes": None, "VALENCE_ads": None, "SLOTS": None}
    json_variant = {"scenes": None, "ads": None}
    slot_count = 0
    grid_variant = None

    what = rng.integers(5)  # which part of the input this case varies; 4: none
    key = str(rng.choice(["scenes", "ads"]))
    if what == 0:  # the last valence of the program or the inventory
        if rng.integers(2):
            raw[f"VALENCE_{key}"] = token = str(rng.choice(list(VALID_VALENCES)))
            (scene_vals if key == "scenes" else ad_vals)[-1] = VALID_VALENCES[token]
        else:
            raw[f"VALENCE_{key}"] = str(rng.choice(INVALID_VALENCES))
            json_ok = False
    elif what == 1:  # slot_count, or a byte-order mark or CRLF in one JSON file
        if rng.integers(2):
            raw["SLOTS"] = token = str(rng.choice([*VALID_SLOT_COUNTS, *INVALID_SLOT_COUNTS]))
            json_ok = token in VALID_SLOT_COUNTS
            slot_count = VALID_SLOT_COUNTS.get(token, 0)
        else:
            json_variant[key] = str(rng.choice(["crlf", "bom"]))
            json_ok = json_variant[key] == "crlf"
    elif what == 2:  # the last id of the program or the inventory
        name = str(rng.choice(list(ID_VARIANTS)))
        ids = scene_ids if key == "scenes" else ad_ids
        ids[-1] = ID_VARIANTS[name](ids[-1])
        source_ok = not use_features or name == "unicode"
    elif what == 3:  # the relevance grid, or one feature grid
        grid_variant = str(rng.choice(GRID_VARIANTS))
        source_ok = grid_variant == "crlf" or (
            grid_variant == "frames" and use_features and pairing == "all_pairs"
        )

    m = slot_count or n - 1
    hv = sum(v > 0.5 for v in ad_vals)
    feasible = k % 2 == 0 and k <= m and min(hv, p - hv) >= k // 2
    expected = 1 if not json_ok else 2 if not feasible else 0 if source_ok else 1

    for key, fmt, ids, vals, name in (
        ("scenes", "adplacer-program/1", scene_ids, scene_vals, "program.json"),
        ("ads", "adplacer-inventory/1", ad_ids, ad_vals, "inventory.json"),
    ):
        doc: dict = {"format": fmt, key: [{"id": i, "valence": v} for i, v in zip(ids, vals)]}
        if raw[f"VALENCE_{key}"] is not None:
            doc[key][-1]["valence"] = f"VALENCE_{key}"
        if key == "scenes" and raw["SLOTS"] is not None:
            doc["slot_count"] = "SLOTS"
        text = json.dumps(doc, indent=2)
        for placeholder, token in raw.items():
            if token is not None:
                text = text.replace(json.dumps(placeholder), token)
        (root / name).write_text(_line_variant(text, json_variant[key]), encoding="utf-8")

    argv = ["run", "--program", str(root / "program.json"),
            "--inventory", str(root / "inventory.json"),
            "--k", str(k), "--alpha", repr(alpha), "--out", str(root / "out")]
    if use_features:
        frames, dim = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        grids = [rng.normal(size=(frames, dim)) for _ in range(n + p)]
        varied = int(rng.integers(n + p))
        if grid_variant == "frames":
            grids[varied] = rng.normal(size=(frames + 1, dim))
        (root / "features").mkdir()
        for idx, (eid, grid) in enumerate(zip(scene_ids + ad_ids, grids)):
            text = _grid_text(grid, grid_variant if idx == varied else None)
            try:
                (root / "features" / f"{eid}.txt").write_text(text, encoding="utf-8")
            except (OSError, ValueError):  # an id that names no file
                pass
        argv += ["--features", str(root / "features"), "--pairing", pairing]
        feats = [KeyframeFeatures(eid, g) for eid, g in zip(scene_ids + ad_ids, grids)]
        rel = None if expected else build_relevance_matrix(feats[:n], feats[n:], pairing)
    else:
        values = rng.uniform(-1.0, 1.0, size=(n, p))
        if grid_variant == "frames":  # a row short of the program
            values = values[:-1]
        (root / "rel.txt").write_text(_grid_text(values, grid_variant), encoding="utf-8")
        argv += ["--rel-file", str(root / "rel.txt")]
        rel = RelevanceMatrix(values)

    case = f"n={n} p={p} k={k} features={use_features}, files in {root}"
    code = main(argv)
    if code != expected:
        return code, f"exit {code}, expected {expected}: {case}"
    if (root / "out").exists() != (code == 0):
        return code, f"exit {code}, but out exists={(root / 'out').exists()}: {case}"
    if code == 0:
        program = ProgramSpec(
            tuple(Scene(i, Valence(v)) for i, v in zip(scene_ids, scene_vals)), slot_count
        )
        inventory = AdInventory(tuple(Ad(i, Valence(v)) for i, v in zip(ad_ids, ad_vals)))
        params = RewardParams(alpha, 1.0 - alpha, k)
        best = solve_brute_force(program, inventory, rel, params).reward
        got = json.loads((root / "out" / "report.json").read_text())["reward"]
        if abs(got - best) > REWARD_ATOL:
            return code, f"reward {got!r}, brute force {best!r}: {case}"
    return code, None


def test_format_fuzz(tmp_path, capsys):
    rng = np.random.default_rng(SEED)
    failures = []
    exits = {0: 0, 1: 0, 2: 0}
    for i in range(N_CASES):
        root = tmp_path / f"case{i}"
        root.mkdir()
        code, problem = _run_case(rng, root)
        exits[code] = exits.get(code, 0) + 1  # an exit 4 shows up as a failure
        if problem:
            failures.append(problem)
    capsys.readouterr()  # the failed runs' error lines
    assert not failures, "\n".join(failures)
    # each outcome is drawn often enough to be tested
    assert min(exits.values()) >= 20, exits
