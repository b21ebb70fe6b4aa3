"""Workload definitions and the input generator.

Each workload is a fixed list of base instances, ``random_instance(P, M, b)``
for its base seeds b, with keyframe features drawn from a stream keyed by b.
The ``--seed`` argument relabels every instance: it renames the scenes and
ads and permutes the feature dimensions and the frame order.  Every input
file differs from seed to seed, but no value the solvers see changes, nor
the order in which they see the ads, so the optimum and the work stay the
same (up to float rounding in the relevance sums).  Fresh instances per seed
would not do: branch-and-bound time varies several-fold between instances
of the paper's shape, and HiGHS time and LP rounding vary with the ad order,
so two runs of the same code would disagree by more than any useful bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from adplacer import io as aio
from adplacer import random_instance
from adplacer.core import Ad, AdInventory, ProgramSpec, RelevanceMatrix, RewardParams, Scene
from adplacer.relevance import KeyframeFeatures

from oracle import reference_optimum

TOPICS = 8  # latent topics shared by scenes and ads
TOPIC_SHAPE = 0.5  # gamma shape of the topic vectors: small = sparse topics
NOISE = 0.5  # scale of the per-frame exponential noise
ALPHA = 0.5  # reward weight of the slot term; the relevance term gets 1 - ALPHA


@dataclass(frozen=True)
class Workload:
    name: str
    n_ads: int
    n_slots: int
    k: int
    solver: str
    base_seeds: tuple[int, ...]
    frames: tuple[int, int] | None  # (min, max) keyframes per entity; None: --rel-file
    dims: int = 0
    pairing: str = "aligned"

    @property
    def exact(self) -> bool:
        return self.solver == "bnb"


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's shape and input path.  Base seeds 2 and 3 take 30-40 s
        # each under bnb, which does not fit the run length; 0 and 1 take 5-9 s.
        Workload("paper_features", 24, 11, 8, "bnb", (0, 1), (40, 40), 512),
        Workload("wide_lp", 400, 120, 40, "lp", (0, 1, 2, 3), None),
        Workload("ragged_allpairs", 200, 60, 2, "bnb", (0, 1, 2, 3), (4, 16), 256,
                 pairing="all_pairs"),
    )
}


@dataclass
class Instance:
    """One generated instance: its files, the CLI argv and the reference answer."""

    name: str
    argv: list[str]
    out_dir: Path
    program: ProgramSpec
    inventory: AdInventory
    rel: np.ndarray  # relevance computed by the benchmark, not by the package
    params: RewardParams
    optimum: float
    exact: bool


def _base_features(w: Workload, base_seed: int, n_entities: int) -> list[np.ndarray]:
    """Nonnegative topic-mixture-plus-noise frames, like pooled CNN embeddings."""
    rng = np.random.default_rng([base_seed, w.dims, w.frames[0], w.frames[1]])
    basis = rng.gamma(TOPIC_SHAPE, size=(TOPICS, w.dims))
    out = []
    for _ in range(n_entities):
        n_frames = int(rng.integers(w.frames[0], w.frames[1] + 1))
        base = rng.dirichlet(np.full(TOPICS, 0.5)) @ basis
        jitter = rng.gamma(8.0, 1.0 / 8.0, size=(n_frames, w.dims))
        out.append(base * jitter + NOISE * rng.exponential(size=(n_frames, w.dims)))
    return out


def mean_cosine(a: list[np.ndarray], b: list[np.ndarray], pairing: str) -> np.ndarray:
    """Relevance matrix for scene frames ``a`` and ad frames ``b`` (lists of F x D)."""
    an = [x / np.linalg.norm(x, axis=1, keepdims=True) for x in a]
    bn = [x / np.linalg.norm(x, axis=1, keepdims=True) for x in b]
    if pairing == "aligned":
        return np.einsum("sfd,afd->sa", np.stack(an), np.stack(bn)) / an[0].shape[0]
    stacked = np.vstack(bn)
    starts = np.cumsum([0] + [x.shape[0] for x in bn[:-1]])
    counts = np.array([x.shape[0] for x in bn])
    rows = [
        np.add.reduceat(np.clip(x @ stacked.T, -1.0, 1.0).sum(axis=0), starts)
        / (counts * x.shape[0])
        for x in an
    ]
    return np.stack(rows)


def make_instance(w: Workload, base_seed: int, seed: int, index: int, root: Path) -> Instance:
    """Write one relabelled base instance under ``root`` and build its argv."""
    program, inventory, uniform_rel = random_instance(w.n_ads, w.n_slots, base_seed)
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, index])
    scene_names = rng.permutation(program.n_scenes)
    ad_names = rng.permutation(w.n_ads)
    program = ProgramSpec(
        tuple(Scene(f"sc{scene_names[i]:03d}", s.valence) for i, s in enumerate(program.scenes)),
        program.slot_count,
    )
    inventory = AdInventory(
        tuple(Ad(f"ad{ad_names[j]:03d}", a.valence) for j, a in enumerate(inventory.ads))
    )
    root.mkdir(parents=True, exist_ok=True)
    aio.save_program(program, root / "program.json")
    aio.save_inventory(inventory, root / "inventory.json")
    params = RewardParams(ALPHA, 1.0 - ALPHA, w.k)
    argv = [
        "run",
        "--program", str(root / "program.json"),
        "--inventory", str(root / "inventory.json"),
        "--k", str(w.k),
        "--alpha", repr(ALPHA),
        "--solver", w.solver,
        "--out", str(root / "out"),
    ]
    if w.frames is None:
        rel = uniform_rel.values
        aio.save_relevance(RelevanceMatrix(rel), root / "rel.txt")
        argv += ["--rel-file", str(root / "rel.txt")]
    else:
        frames = _base_features(w, base_seed, program.n_scenes + w.n_ads)
        dim_order = rng.permutation(w.dims)
        frame_order = rng.permutation(w.frames[1])
        entities = zip([s.id for s in program.scenes] + [a.id for a in inventory.ads], frames)
        feat_dir = root / "features"
        feat_dir.mkdir(exist_ok=True)
        relabelled = {}
        for entity_id, f in entities:
            if w.pairing == "aligned":  # one frame order for all keeps frames aligned
                f = f[frame_order]
            else:
                f = f[rng.permutation(f.shape[0])]
            relabelled[entity_id] = f[:, dim_order]
            aio.save_features(
                KeyframeFeatures(entity_id, relabelled[entity_id]),
                feat_dir / f"{entity_id}.txt",
            )
        rel = mean_cosine(
            [relabelled[s.id] for s in program.scenes],
            [relabelled[a.id] for a in inventory.ads],
            w.pairing,
        )
        argv += ["--features", str(feat_dir), "--pairing", w.pairing]
    optimum, _ = reference_optimum(program, inventory, rel, params)
    return Instance(
        name=f"{w.name}/base{base_seed}",
        argv=argv,
        out_dir=root / "out",
        program=program,
        inventory=inventory,
        rel=rel,
        params=params,
        optimum=optimum,
        exact=w.exact,
    )


def make_instances(w: Workload, seed: int, root: Path) -> list[Instance]:
    return [
        make_instance(w, b, seed, i, root / f"i{i}") for i, b in enumerate(w.base_seeds)
    ]


def warmup_instance(w: Workload, seed: int, root: Path) -> Instance:
    """A tiny instance on the workload's route, run once before timing."""
    tiny = replace(
        w,
        n_ads=6,
        n_slots=3,
        k=2,
        frames=None if w.frames is None else (2, 3) if w.pairing != "aligned" else (2, 2),
        dims=8,
    )
    return make_instance(tiny, 0, seed, len(w.base_seeds), root / "warmup")
