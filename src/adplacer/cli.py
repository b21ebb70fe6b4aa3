"""Command-line front end: ``adplacer run`` solves one instance.

Every run input and its default is declared once, in ``build_parser``, and
``run`` reads the parsed flags.  ``--solver`` picks the exact assignment
(``bnb``, ``lp``) or the ``trivial`` baseline; the strict routes check that k
is feasible before reading any relevance.  ``run`` times whichever route
runs and names it in the report (``assignment`` or ``trivial``).  It
validates the ``trivial`` schedule in its baseline shape; ``core.reward``
validates the assignment's schedule and re-scores it with ``core``'s one
statement of the per-placement term, so the re-score checks the solver's
choices and their sum: it must equal the reported reward.  ``run`` then
builds the profile, and only then creates the output directory, removes the
old ``schedule.json``, ``report.json`` and ``profile.json`` and writes new
ones, so a run that fails before writing leaves no file, and an ``OSError``
while removing or writing exits 1 with files of at most one run.  Timing
across solvers and instance sizes lives in ``perfbench/``, not in the package.

Exit codes:
    0  success
    1  unreadable or malformed input, bad configuration (``InputError``, ``OSError``)
    2  infeasible instance (``InfeasibleK``: odd or negative k, k > slots (exact
       routes), fewer than k/2 ads of one polarity)
    4  any other error: a broken internal invariant; the traceback precedes the error line
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import io
from .core import (
    RelevanceMatrix,
    RewardParams,
    _check_feasible,
    _check_relevance_shape,
    build_profile,
    reward,
    validate_schedule,
)
from .errors import AdPlacerError, InfeasibleK, InputError
from .relevance import build_relevance_matrix
from .solvers import solve_assignment, trivial_schedule

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_INTERNAL = 4

_CONFIG_ERRORS = (InputError, OSError)


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _resolve_relevance(args, params: RewardParams, program, inventory) -> RelevanceMatrix:
    """The relevance of the exact routes.  The loaders name a faulty file; a
    source that does not fit the instance is named here by its given path."""
    if args.rel_file:
        rel = io.load_relevance(args.rel_file)
        try:
            _check_relevance_shape(rel, program, inventory)
        except InputError as exc:
            raise InputError(f"{args.rel_file}: {exc}") from None
        return rel
    if args.features:
        ids = [s.id for s in program.scenes] + [a.id for a in inventory.ads]
        feats = io.load_features_dir(args.features, ids)
        n = program.n_scenes
        try:
            return build_relevance_matrix(feats[:n], feats[n:], pairing=args.pairing)
        except InputError as exc:
            raise InputError(f"{args.features}: {exc}") from None
    if params.beta == 0.0:
        # the matching term is switched off, so relevance never matters
        return RelevanceMatrix(np.zeros((program.n_scenes, len(inventory))))
    raise InputError("beta > 0 requires --rel-file or --features")


def run(args: argparse.Namespace) -> int:
    """Load the instance that ``build_parser()`` parsed into ``args``, solve it,
    and write schedule/report/profile files."""
    try:
        program = io.load_program(args.program)
        inventory = io.load_inventory(args.inventory)
        params = RewardParams(args.alpha, 1.0 - args.alpha, args.k)

        started = time.perf_counter()
        if args.solver == "trivial":
            # the baseline ignores relevance and optimizes nothing
            schedule = trivial_schedule(program, inventory, args.k, args.seed)
            wall_time = time.perf_counter() - started
            check = validate_schedule(schedule, program, inventory, params)
            if not check:
                raise AdPlacerError(
                    f"trivial emitted a schedule violating its own contract: {check.message}"
                )
            doc = {"solver": "trivial", "reward": None, "wall_time": wall_time, "seed": args.seed}
            summary = f"trivial baseline: {args.k} ads placed,"
        else:
            _check_feasible(program, inventory, args.k)  # before any relevance is read
            rel = _resolve_relevance(args, params, program, inventory)
            # bnb and lp both run the exact assignment
            solved = solve_assignment(program, inventory, rel, params)
            wall_time = time.perf_counter() - started
            schedule = solved.schedule
            # reward validates the schedule: an invalid one raises AdPlacerError
            recomputed = reward(schedule, program, inventory, rel, params)
            if recomputed != solved.reward:
                raise AdPlacerError(
                    "assignment emitted a schedule violating its own contract: "
                    f"reported reward {solved.reward!r}, re-scored {recomputed!r}"
                )
            doc = {"solver": "assignment", "reward": solved.reward, "wall_time": wall_time}
            summary = f"assignment: reward={solved.reward:.12g} time={wall_time:.3f}s"
        profile = build_profile(schedule, program, inventory)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in ("schedule.json", "report.json", "profile.json"):
            (out_dir / name).unlink(missing_ok=True)
        io.save_schedule(schedule, out_dir / "schedule.json")
        io.save_report(doc, out_dir / "report.json")
        io.save_profile(profile, out_dir / "profile.json")
        print(f"{summary} outputs in {out_dir}")
        return EXIT_OK
    except InfeasibleK as exc:
        _err(str(exc))
        return EXIT_INFEASIBLE
    except _CONFIG_ERRORS as exc:
        _err(str(exc))
        return EXIT_CONFIG
    except Exception as exc:  # anything else means a broken internal invariant
        traceback.print_exc()
        _err(f"internal error: {exc}")
        return EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adplacer",
        description="Select and place inventory ads into program ad slots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="solve one instance and write artifacts")
    runp.add_argument("--program", required=True, help="program JSON file")
    runp.add_argument("--inventory", required=True, help="ad inventory JSON file")
    runp.add_argument("--k", type=int, required=True, help="number of ads to embed (even)")
    runp.add_argument("--alpha", type=float, default=0.5,
                      help="late-placement weight; beta = 1 - alpha (default 0.5)")
    runp.add_argument("--solver", choices=["bnb", "lp", "trivial"],
                      default="bnb",
                      help="solver to use; bnb and lp both run the exact assignment "
                           "(default bnb)")
    runp.add_argument("--features", default=None, metavar="DIR",
                      help="directory of per-entity keyframe feature grids")
    runp.add_argument("--rel-file", default=None, metavar="FILE",
                      help="precomputed N x P relevance grid (overrides --features)")
    runp.add_argument("--pairing", choices=["aligned", "all_pairs"], default="aligned",
                      help="frame pairing for relevance from features (default aligned)")
    runp.add_argument("--seed", type=int, default=0, help="RNG seed for the trivial baseline")
    runp.add_argument("--out", default="out", metavar="DIR",
                      help="output directory (default ./out)")
    return parser


def main(argv: list[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
