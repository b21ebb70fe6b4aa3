"""Spans around the calls ``adplacer.cli`` makes into each layer.

The tracer replaces functions where the CLI looks them up: names bound in
``adplacer.cli`` (solvers, relevance, validation, re-scoring, profile) and
attributes of the ``adplacer.io`` module, which the CLI reaches as ``io.*``.
Spans stay in memory; byte and frame counts are taken from the recorded
arguments after each instance, so they add nothing to the spans' time.  A
wrapped name that no longer exists is skipped and its span reports 0 calls.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

from adplacer import cli
from adplacer import io as aio

#: (module, attribute, span name) for every wrapped function.
TARGETS = (
    (cli, "run", "cli.run"),
    (aio, "load_program", "io.load_program"),
    (aio, "load_inventory", "io.load_inventory"),
    (aio, "load_features_dir", "io.load_features"),
    (aio, "load_relevance", "io.load_relevance"),
    (aio, "save_schedule", "io.save"),
    (aio, "save_report", "io.save"),
    (aio, "save_profile", "io.save"),
    (cli, "build_relevance_matrix", "relevance.build"),
    (cli, "solve_branch_and_bound", "solvers.solve"),
    (cli, "solve_lp_relax", "solvers.solve"),
    (cli, "solve_brute_force", "solvers.solve"),
    (cli, "validate_schedule", "core.validate"),
    (cli, "reward", "core.reward"),
    (cli, "build_profile", "profile.build"),
)
SPANS = tuple(dict.fromkeys(name for _, _, name in TARGETS))


class Tracer:
    """Records one span per wrapped call, grouped by instance run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._trace = 0
        self._pending: list[tuple[dict, tuple, dict, object]] = []

    def __enter__(self) -> "Tracer":
        self.missing = []
        for owner, attr, name in TARGETS:
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            span = {
                "trace": self._trace,
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            self._pending.append((span, args, kwargs, result))
            return result

        return traced

    def begin(self) -> None:
        self._trace += 1

    def end(self) -> dict[str, float]:
        """Counters of the instance run just finished, keyed by metric name."""
        spans = [s for s in self.spans if s["trace"] == self._trace]
        for span, args, kwargs, result in self._pending:
            span.update(_counters(span["name"], args, kwargs, result))
        self._pending.clear()
        out: dict[str, float] = defaultdict(float)
        for name in SPANS:
            out[f"{name}.calls"] = 0
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            duration = s["end"] - s["start"]
            out[f"{s['name']}_s"] += duration
            out[f"{s['name']}.calls"] += 1
            for key in ("files_read", "bytes_read", "bytes_written", "pairs",
                        "frame_pairs", "candidates_evaluated", "nodes_pruned"):
                if key in s:
                    out[f"{s['name'].split('.')[0]}.{key}"] += s[key]
            if s["parent"] is not None and by_id[s["parent"]]["name"] == "cli.run":
                out["cli.children_s"] += duration
        out["cli.self_s"] = out["cli.run_s"] - out.pop("cli.children_s", 0.0)
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _counters(name: str, args: tuple, kwargs: dict, result) -> dict:
    if name in ("io.load_program", "io.load_inventory", "io.load_relevance"):
        return {"files_read": 1, "bytes_read": Path(args[0]).stat().st_size}
    if name == "io.load_features":
        files = sorted(Path(args[0]).glob("*.txt"))
        return {"files_read": len(files), "bytes_read": sum(f.stat().st_size for f in files)}
    if name == "io.save":
        return {"bytes_written": Path(args[1]).stat().st_size}
    if name == "relevance.build":
        scenes, ads = args[0], args[1]
        pairing = args[2] if len(args) > 2 else kwargs.get("pairing", "aligned")
        if pairing == "aligned":
            frame_pairs = len(ads) * sum(s.frame_count for s in scenes)
        else:
            frame_pairs = sum(s.frame_count for s in scenes) * sum(a.frame_count for a in ads)
        return {"pairs": len(scenes) * len(ads), "frame_pairs": frame_pairs}
    if name == "solvers.solve":
        return {
            "candidates_evaluated": result.candidates_evaluated,
            "nodes_pruned": result.nodes_pruned or 0,
        }
    return {}
