"""Memory bounds of ``adplacer run``: no dense P x P, M x M or O(M^2 P) array.

Each run test traces two in-process runs with ``tracemalloc``, the second
with twice the slots or ads of the first.  Each peak must stay within a
stated multiple of the input's float64 bytes plus a constant slack, and
doubling the input may raise the peak at most 2.3x, so the peak grows
linearly.  The re-score, ``reward``, evaluates only the k placed pairs, so
its peak stays a small fraction of the relevance bytes.  Time is not
bounded here; the benchmark measures it.
"""

import tracemalloc

import numpy as np
import pytest

from adplacer import io, random_instance
from adplacer.cli import main
from adplacer.core import RewardParams, Schedule, reward, slot_blocks

MB = 2**20
#: (multiple, slack): the runs below peak at 4.7-8.2x their relevance bytes,
#: highest on the wide ones, where an ad's Python objects (~0.5 KB) outweigh
#: its 11 relevance entries; the slack covers those at these sizes
REL_FILE_BOUND = 6.0, 2 * MB
#: a --features run holds the frames, their unit copies and one stack of them,
#: 3.1x the frame bytes with almost no constant; the small slack lets one more
#: stacked copy of the ad summaries (+0.9x) exceed the bound
FEATURES_BOUND = 3.5, MB // 4
#: doubling the input at most this many times the peak
DOUBLING = 2.3
#: reward's peak over the relevance bytes: scoring 100 placements of a 2000-ad,
#: 200-slot instance peaks at ~9 KB, 0.3% of its 3.2 MB of relevance, while one
#: M x P array of terms would take all of it
RESCORE_BOUND = 0.01


def write_instance(path, n_ads, n_slots):
    """Write ``random_instance(n_ads, n_slots, 0)``'s program and inventory
    into ``path`` (created here), and return the instance."""
    program, inventory, rel = random_instance(n_ads, n_slots, 0)
    path.mkdir()
    io.save_program(program, path / "program.json")
    io.save_inventory(inventory, path / "inventory.json")
    return program, inventory, rel


def run_argv(path, *flags, k):
    return ["run", "--program", str(path / "program.json"),
            "--inventory", str(path / "inventory.json"),
            *map(str, flags), "--k", str(k), "--out", str(path / "out")]


def run_peaks(*argvs):
    """The tracemalloc peak, in bytes, of one in-process run of each argv.
    An untraced run of the first comes before, so no peak holds a first
    import or cache."""
    assert main(argvs[0]) == 0
    tracemalloc.start()
    try:
        peaks = []
        for argv in argvs:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return peaks
    finally:
        tracemalloc.stop()


def assert_linear(peaks, input_bytes, bound):
    factor, slack = bound
    for peak, nbytes in zip(peaks, input_bytes):
        assert peak <= factor * nbytes + slack, (peak, nbytes)
    assert peaks[1] <= DOUBLING * peaks[0], peaks


@pytest.mark.parametrize("shapes", [
    pytest.param([(60, 300), (60, 600)], id="tall"),   # M >> P: no M x M array
    pytest.param([(500, 10), (1000, 10)], id="wide"),  # P >> M: no P x P array
])
def test_rel_file_run_peak_is_linear(tmp_path, shapes):
    argvs, input_bytes = [], []
    for n_ads, n_slots in shapes:
        path = tmp_path / f"{n_ads}x{n_slots}"
        _, _, rel = write_instance(path, n_ads, n_slots)
        io.save_relevance(rel, path / "rel.txt")
        argvs.append(run_argv(path, "--rel-file", path / "rel.txt", k=10))
        input_bytes.append(rel.values.nbytes)
    assert_linear(run_peaks(*argvs), input_bytes, REL_FILE_BOUND)


def test_features_run_peak_is_linear(tmp_path):
    # 5 scenes with 100, then 200, ads of 16 x 64 frames, paired frame by frame;
    # both runs read the larger instance's frames, each only the ids it names
    frames = tmp_path / "feat"
    frames.mkdir()
    rng = np.random.default_rng(0)
    argvs, input_bytes = [], []
    for n_ads in (100, 200):
        path = tmp_path / f"{n_ads}x4"
        program, inventory, _ = write_instance(path, n_ads, 4)
        for entity in [*program.scenes, *inventory.ads]:
            if not (frames / f"{entity.id}.txt").exists():
                np.savetxt(frames / f"{entity.id}.txt", rng.normal(size=(16, 64)), fmt="%.6g")
        argvs.append(run_argv(path, "--features", frames, k=4))
        input_bytes.append((len(program.scenes) + len(inventory)) * 16 * 64 * 8)
    assert_linear(run_peaks(*argvs), input_bytes, FEATURES_BOUND)


def test_rescore_peak_ignores_the_unplaced_pairs():
    program, inventory, rel = random_instance(2000, 200, 0)
    params = RewardParams(0.5, 0.5, 100)
    # ad b in block b: even indices are HV and odd ones LV, so 50 of each
    schedule = Schedule.strict(
        (block[0], inventory.ads[b].id) for b, block in enumerate(slot_blocks(200, 100))
    )
    expected = reward(schedule, program, inventory, rel, params)  # fills the cached arrays
    tracemalloc.start()
    try:
        assert reward(schedule, program, inventory, rel, params) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= RESCORE_BOUND * rel.values.nbytes, peak
