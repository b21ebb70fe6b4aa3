"""Self-tests of the benchmark's reference optimum and output checker.

    python3 perfbench/selftest.py

1. The quota-padded assignment optimum equals ``solve_brute_force`` on every
   (P, M, k) cell of a small grid, with ties: constant and zero relevance,
   identical ad valences, alpha in {0, 0.5, 1} and a non-default slot count.
2. The checker accepts a real ``adplacer run`` output and rejects corrupted
   copies: an ad moved into another block, unbalanced polarity, a tampered
   reward and a feasible but suboptimal schedule on an exact route.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from io import StringIO

from run import WORK, bootstrap


def oracle_grid() -> list[str]:
    import numpy as np

    from adplacer import (
        Ad,
        AdInventory,
        ProgramSpec,
        RelevanceMatrix,
        RewardParams,
        Valence,
        random_instance,
        reward,
        solve_brute_force,
        validate_schedule,
    )
    from oracle import reference_optimum

    failures = []
    cells = 0
    for p in range(2, 9):
        for m in range(1, 8):
            for k in range(0, m + 1, 2):
                if k // 2 > p // 2:
                    continue
                for variant in range(6):
                    program, inventory, rel = random_instance(p, m, 100 * p + 10 * m + k)
                    values = rel.values
                    if variant in (1, 4):  # constant relevance: ties everywhere
                        values = np.full_like(values, 0.5)
                    if variant == 2:
                        values = np.zeros_like(values)
                    if variant in (3, 4):  # identical valences within each polarity
                        inventory = AdInventory(tuple(
                            Ad(a.id, Valence(0.75 if a.valence.value > 0.5 else 0.25))
                            for a in inventory.ads
                        ))
                    if variant == 5 and m > 1:  # fewer slots than scene transitions
                        program = ProgramSpec(program.scenes, m - 1)
                        if k > m - 1:
                            continue
                    for alpha in (0.0, 0.5, 1.0):
                        params = RewardParams(alpha, 1.0 - alpha, k)
                        cells += 1
                        best, schedule = reference_optimum(program, inventory, values, params)
                        brute = solve_brute_force(program, inventory, RelevanceMatrix(values), params)
                        where = f"P={p} M={program.slot_count} k={k} variant={variant} alpha={alpha}"
                        if abs(best - brute.reward) > 1e-9:
                            failures.append(f"{where}: oracle {best!r} != brute {brute.reward!r}")
                        elif not validate_schedule(schedule, program, inventory, params):
                            failures.append(f"{where}: oracle schedule is not strict-valid")
                        elif abs(reward(schedule, program, inventory, RelevanceMatrix(values),
                                        params) - best) > 1e-9:
                            failures.append(f"{where}: oracle schedule does not score {best!r}")
    print(f"oracle: {cells} cells against brute force, {len(failures)} mismatches")
    return failures


def checker_rejects() -> list[str]:
    from adplacer import Polarity, RelevanceMatrix, cli, reward, slot_blocks
    from adplacer import io as aio
    from oracle import check_outputs
    from workloads import WORKLOADS, make_instance

    failures = []
    root = WORK / f"selftest-pid{os.getpid()}"
    try:
        w = replace(WORKLOADS["paper_features"], n_ads=8, n_slots=6, k=4, frames=(3, 3), dims=16)
        inst = make_instance(w, 7, 0, 0, root)
        with redirect_stdout(StringIO()):
            code = cli.main(inst.argv)
        if code != 0:
            return [f"adplacer run exited {code}"]

        def check(label: str, want_ok: bool) -> None:
            outcome = check_outputs(inst.out_dir, inst.program, inst.inventory, inst.rel,
                                    inst.params, inst.optimum, inst.exact)
            print(f"checker: {label}: {'accepted' if outcome.ok else 'rejected'}"
                  f"{'' if outcome.ok else ' (' + outcome.message + ')'}")
            if outcome.ok != want_ok:
                failures.append(f"{label}: expected {'accept' if want_ok else 'reject'}")

        check("genuine output", True)
        sched_path = inst.out_dir / "schedule.json"
        report_path = inst.out_dir / "report.json"
        original_sched = sched_path.read_text()
        original_report = report_path.read_text()
        blocks = slot_blocks(inst.program.slot_count, inst.params.k)

        doc = json.loads(original_sched)
        entry = doc["entries"][0]
        entry["slot"] = blocks[1][0]  # move block 1's ad into block 2
        sched_path.write_text(json.dumps(doc))
        check("ad moved into another block", False)

        doc = json.loads(original_sched)
        placed = {e["ad_id"] for e in doc["entries"]}
        first = inst.inventory.ad(doc["entries"][0]["ad_id"]).polarity
        other = next(a.id for a in inst.inventory.ads
                     if a.id not in placed and a.polarity is not first)
        doc["entries"][0]["ad_id"] = other  # one polarity now holds k/2 + 1 ads
        sched_path.write_text(json.dumps(doc))
        check("unbalanced polarity", False)

        sched_path.write_text(original_sched)
        doc = json.loads(original_report)
        doc["reward"] += 1e-6
        report_path.write_text(json.dumps(doc))
        check("tampered reward", False)

        # a feasible schedule one swap away from the optimum, reported honestly
        doc = json.loads(original_sched)
        hv = [a.id for a in inst.inventory.ads if a.polarity is Polarity.HV]
        spare = next(a for a in hv if a not in placed)
        victim = next(e for e in doc["entries"]
                      if inst.inventory.ad(e["ad_id"]).polarity is Polarity.HV)
        victim["ad_id"] = spare
        sched_path.write_text(json.dumps(doc))
        schedule = aio.load_schedule(sched_path)
        value = reward(schedule, inst.program, inst.inventory, RelevanceMatrix(inst.rel),
                       inst.params)
        doc = json.loads(original_report)
        doc["reward"] = value
        report_path.write_text(json.dumps(doc))
        check("suboptimal schedule on an exact route", value >= inst.optimum - 1e-9)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return failures


def main() -> int:
    bootstrap()
    failures = oracle_grid() + checker_rejects()
    for f in failures:
        print(f"FAIL {f}")
    print("selftest: " + ("FAILED" if failures else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
