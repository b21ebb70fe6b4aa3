"""Command-line front end: ``adplacer run`` solves one instance.

Every run input and its default is declared once, in ``build_parser``, and
``run`` reads the parsed flags.  ``--solver`` picks the exact assignment
(``bnb``, ``lp``) or the ``trivial`` baseline; the strict routes check that k
is feasible before reading any relevance.  Each route yields a
``SolveReport``; the run then validates its schedule (strict, or baseline for
``trivial``), re-scores the objective of the strict routes with the scoring
loop of ``core.reward`` (validated once), and only then creates the output
directory and writes ``schedule.json``, ``report.json`` and ``profile.json``.
Timing across solvers and instance sizes lives in ``perfbench/``, not in the
package.

Exit codes:
    0  success
    1  unreadable or malformed input, bad configuration
    2  infeasible instance (odd k, k > slots, unbalanced inventory)
    4  internal invariant violation
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import io
from .baselines import trivial_schedule
from .core import (
    REWARD_ATOL,
    RelevanceMatrix,
    RewardParams,
    _score,
    validate_schedule,
)
from .errors import (
    AdPlacerError,
    InfeasibleInventory,
    InfeasibleK,
    MissingEntity,
    ParseError,
)
from .profile import build_profile
from .relevance import build_relevance_matrix
from .solvers import SolveReport, _check_feasible, solve_assignment

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_INTERNAL = 4

_CONFIG_ERRORS = (ParseError, MissingEntity, OSError, ValueError)
_INFEASIBLE_ERRORS = (InfeasibleK, InfeasibleInventory)


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _resolve_relevance(args, params: RewardParams, program, inventory) -> RelevanceMatrix:
    if args.rel_file:
        rel = io.load_relevance(args.rel_file)
    elif args.features:
        ids = [s.id for s in program.scenes] + [a.id for a in inventory.ads]
        feats = io.load_features_dir(args.features, ids)
        n = program.n_scenes
        rel = build_relevance_matrix(feats[:n], feats[n:], pairing=args.pairing)
    elif params.beta == 0.0:
        # the matching term is switched off, so relevance never matters
        rel = RelevanceMatrix(np.zeros((program.n_scenes, len(inventory))))
    else:
        raise ParseError("beta > 0 requires --rel-file or --features")
    return rel


def run(args: argparse.Namespace) -> int:
    """Load the instance that ``build_parser()`` parsed into ``args``, solve it,
    and write schedule/report/profile files."""
    try:
        program = io.load_program(args.program, args.scale)
        inventory = io.load_inventory(args.inventory, args.scale)
        params = RewardParams(args.alpha, 1.0 - args.alpha, args.k)

        if args.solver == "trivial":
            # the baseline ignores relevance and optimizes nothing
            mode = "baseline"
            started = time.perf_counter()
            schedule = trivial_schedule(program, inventory, args.k, args.seed)
            report = SolveReport(schedule, None, "trivial", 1, time.perf_counter() - started)
        else:
            mode = "strict"
            _check_feasible(program, inventory, args.k)  # before any relevance is read
            rel = _resolve_relevance(args, params, program, inventory)
            # bnb and lp both run the exact assignment
            report = solve_assignment(program, inventory, rel, params)

        check = validate_schedule(report.schedule, program, inventory, params, mode)
        problem = None if check else check.message
        if problem is None and report.reward is not None:  # re-score what was optimized
            recomputed = _score(report.schedule, program, inventory, rel, params)
            # summation order alone moves a reward near 1e7 by a few ulps
            if not math.isclose(recomputed, report.reward, rel_tol=1e-12, abs_tol=REWARD_ATOL):
                problem = f"reported reward {report.reward!r}, re-scored {recomputed!r}"
        if problem is not None:
            raise AdPlacerError(
                f"{report.solver} emitted a schedule violating its own contract: {problem}"
            )

        doc = io.report_dict(report, mode)
        if report.reward is None:
            doc["seed"] = args.seed
            summary = f"trivial baseline: {args.k} ads placed,"
        else:
            summary = (
                f"{report.solver}: reward={report.reward:.12g} "
                f"candidates={report.candidates_evaluated} "
                f"time={report.wall_time:.3f}s"
            )
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        io.save_schedule(report.schedule, out_dir / "schedule.json", mode=mode)
        io.save_report(doc, out_dir / "report.json")
        io.save_profile(
            build_profile(report.schedule, program, inventory),
            out_dir / "profile.json",
        )
        print(f"{summary} outputs in {out_dir}")
        return EXIT_OK
    except _INFEASIBLE_ERRORS as exc:
        _err(str(exc))
        return EXIT_INFEASIBLE
    except _CONFIG_ERRORS as exc:
        _err(str(exc))
        return EXIT_CONFIG
    except Exception as exc:  # anything else means a broken internal invariant
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
    runp.add_argument("--scale", choices=["unit", "hundred"], default="unit",
                      help="valence scale of the input files (default unit)")
    runp.add_argument("--seed", type=int, default=0, help="RNG seed for the trivial baseline")
    runp.add_argument("--out", default="out", metavar="DIR",
                      help="output directory (default ./out)")
    return parser


def main(argv: list[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
