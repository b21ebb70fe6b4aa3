"""adplacer benchmark: drive ``adplacer run`` in-process over fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  One client calls ``adplacer.cli.main`` with the argv a
user would type, in a closed loop: the next instance starts only after the
previous one returned and its outputs were checked.  The loop runs whole
passes over the workload's instance list until ``--seconds`` have elapsed.
The process is pinned to one CPU and BLAS to one thread, below ``nproc``.
Times are scaled to reference seconds by an interleaved speed probe (see
``calibration.py``); raw wall times are printed before the result line.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs each instance untraced and then traced and prints the per-layer
metrics, with spans written to ``.perfbench_work/traces/``.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = "1"
SETUP_REPEATS = 9
SETUP_CODE = (
    "import time; t = time.perf_counter(); import adplacer.cli; "
    "print(time.perf_counter() - t)"
)


class BenchError(Exception):
    pass


def bootstrap() -> None:
    """Pin BLAS threads and import ``adplacer`` from this checkout only."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    # the speed probe only tracks the CPU it runs on; children inherit this
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    src = ROOT / "src"
    if not (src / "adplacer" / "__init__.py").is_file():
        raise BenchError(f"no adplacer package under {src}; run from a source checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        raise BenchError(f"no BENCHMARK.json in {ROOT}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import adplacer

    if Path(adplacer.__file__).resolve().parent != (src / "adplacer").resolve():
        raise BenchError(f"imported adplacer from {adplacer.__file__}, not from {src}")


def setup_seconds() -> float:
    """A fresh interpreter's import of ``adplacer.cli``, as every ``adplacer run`` pays."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.split()[-1])


@dataclass
class Sample:
    """One instance run: its wall time and what the checker found."""

    inst: object
    seconds: float
    outcome: object
    layers: dict | None
    scale: float  # reference seconds per wall second

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


def run_one(inst, probe, tracer=None) -> Sample:
    from adplacer import cli
    from oracle import Outcome, check_outputs

    shutil.rmtree(inst.out_dir, ignore_errors=True)  # a stale output must not pass
    sink = io.StringIO()
    if tracer is not None:
        tracer.begin()
    with redirect_stdout(sink), redirect_stderr(sink), probe.ticking():
        started = time.perf_counter()
        try:
            code = cli.main(inst.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # keep measuring; the failure is counted and shown
            code = -1
            traceback.print_exc()
        seconds = time.perf_counter() - started
    scale = probe.scale(seconds)
    layers = tracer.end() if tracer is not None else None
    if code != 0:
        outcome = Outcome(False, f"exit {code}: {sink.getvalue().strip()[-500:]}")
    else:
        outcome = check_outputs(
            inst.out_dir, inst.program, inst.inventory, inst.rel, inst.params,
            inst.optimum, inst.exact,
        )
    if not outcome.ok:
        print(f"FAILED {inst.name}: {outcome.message}")
    return Sample(inst, seconds, outcome, layers, scale)


def closed_loop(instances, budget: float, probe, tracer=None) -> list[Sample]:
    """Whole passes over ``instances`` until ``budget`` seconds have elapsed.

    With a tracer, each instance runs untraced and then traced, back to back,
    so that drift in the machine's speed cancels out of the overhead.
    """
    samples: list[Sample] = []
    started = time.perf_counter()
    while not samples or time.perf_counter() - started < budget:
        for inst in instances:
            samples.append(run_one(inst, probe))
            if tracer is not None:
                with tracer:
                    samples.append(run_one(inst, probe, tracer))
    return samples


def end_to_end(samples: list[Sample], setup: list[float], probe) -> dict[str, float]:
    times = [s.ref_seconds for s in samples]
    by_instance: dict[str, list[float]] = {}
    for s in samples:
        by_instance.setdefault(s.inst.name, []).append(s.ref_seconds)
    ok = [s for s in samples if s.outcome.ok]
    gaps = [
        (s.outcome.upper_bound - s.inst.optimum) / s.inst.optimum
        for s in ok
        if s.outcome.upper_bound is not None
    ]
    print(
        f"samples: {len(times)} runs of {len(by_instance)} instances; "
        f"run_s_max is the slowest instance's median over "
        f"{min(len(v) for v in by_instance.values())}+ runs; "
        f"setup_s is the median of {len(setup)} fresh imports"
    )
    for name, runs in by_instance.items():
        print(f"  {name}: median {statistics.median(runs):.4f} reference s over {len(runs)} runs")
    print(f"raw wall time: run_s_p50 {statistics.median(s.seconds for s in samples):.4f} s, "
          f"speed scale min/median/max {min(s.scale for s in samples):.3f}/"
          f"{statistics.median(s.scale for s in samples):.3f}/{max(s.scale for s in samples):.3f}, "
          f"clamped to the outside probes in {probe.clamped} of {len(samples)} runs")
    print(f"failed_frac: {1 - len(ok) / len(samples):.4g} ratio")
    print(f"bound_gap: {statistics.mean(gaps):.6g} ratio" if gaps
          else "bound_gap: n/a (route reports no upper bound)")
    return {
        "run_s_p50": statistics.median(times),
        "run_s_max": max(statistics.median(v) for v in by_instance.values()),
        "instances_per_s": len(times) / sum(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "opt_ratio": statistics.mean(s.outcome.reward / s.inst.optimum for s in ok) if ok else 0.0,
    }


def per_layer(samples: list[Sample], names: list[str]) -> dict[str, float]:
    """Per-instance medians over the traced runs; overhead from adjacent pairs."""
    traced = [s for s in samples if s.layers is not None]
    out = {
        name: statistics.median(
            s.layers.get(name, 0.0) * (s.scale if name.endswith("_s") else 1.0) for s in traced
        )
        for name in names
    }
    gaps = [
        (s.outcome.upper_bound - s.inst.optimum) / s.inst.optimum
        if s.outcome.upper_bound is not None else 0.0
        for s in traced if s.outcome.ok
    ]
    out["solvers.bound_gap"] = statistics.median(gaps) if gaps else 0.0
    out["trace.overhead_s"] = statistics.median(
        t.ref_seconds - p.ref_seconds for p, t in zip(samples[::2], samples[1::2])
    )
    return out


def describe(workload, instances) -> None:
    from workloads import ALPHA

    w = workload
    shape = f"{w.n_ads} ads, {w.n_slots + 1} scenes / {w.n_slots} slots, k={w.k}"
    if w.frames is None:
        shape += ", uniform relevance via --rel-file"
    else:
        shape += f", {w.frames[0]}-{w.frames[1]} frames x {w.dims} dims, {w.pairing}"
    print(f"workload {w.name}: {shape}, --solver {w.solver}, alpha={ALPHA}; "
          f"{len(instances)} instances; BLAS threads {BLAS_THREADS}; nproc {os.cpu_count()}")
    for inst in instances:
        r = inst.rel
        print(f"  {inst.name}: relevance min/median/max "
              f"{r.min():.3f}/{float(statistics.median(r.ravel())):.3f}/{r.max():.3f}, "
              f"optimum {inst.optimum:.6f}")


def benchmark(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    from calibration import SpeedProbe
    from workloads import WORKLOADS, make_instances, warmup_instance

    if name not in WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    try:
        instances = make_instances(workload, seed, work)
        describe(workload, instances)
        probe = SpeedProbe()
        warm = run_one(warmup_instance(workload, seed, work), probe)
        probe.clamped = 0
        if not trace:
            samples = closed_loop(instances, seconds, probe)
            setup = [t * probe.scale(t) for t in (setup_seconds() for _ in range(SETUP_REPEATS))]
            metrics = end_to_end(samples, setup, probe)
            declared = spec["end_to_end"]
        else:
            from tracing import Tracer

            tracer = Tracer()
            samples = closed_loop(instances, seconds, probe, tracer)
            if tracer.missing:
                print(f"not found, reported as 0 calls: {', '.join(tracer.missing)}")
            tracer.write(WORK / "traces" / f"{name}-seed{seed}.jsonl")
            declared = spec["per_layer"]
            metrics = per_layer(samples, [m["name"] for m in declared])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(not s.outcome.ok for s in samples)
    result = {}
    for m in declared:
        result[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"{name} {m['name']}: {metrics[m['name']]:.6g} {m['unit']}")
    return {
        "correct": failed == 0 and warm.outcome.ok,
        "attempted": len(samples),
        "failed": failed,
        "metrics": result,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bootstrap()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
