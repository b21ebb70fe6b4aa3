"""Scene-ad content similarity from precomputed keyframe feature vectors.

Feature extraction itself happens upstream; this module only consumes the
per-entity stacks of frame vectors (typically 40 frames x 512 dims, but any
consistent shape works) and turns them into a relevance matrix: for either
frame pairing, one product of per-entity summaries of the unit-norm frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .core import RelevanceMatrix
from .errors import InputError

Pairing = Literal["aligned", "all_pairs"]


@dataclass(frozen=True, eq=False)
class KeyframeFeatures:
    """Stack of keyframe feature vectors for one scene or ad (one row per frame)."""

    entity_id: str
    frames: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.frames, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InputError(
                f"{self.entity_id!r}: frames must be a (frames, dims) matrix, "
                f"got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{self.entity_id!r}: feature values must be finite")
        # the largest |value|, not the norm, which can underflow to 0 on a valid row
        zero_rows = np.abs(arr).max(axis=1) == 0.0
        if np.any(zero_rows):
            zero = np.flatnonzero(zero_rows).tolist()
            raise InputError(f"{self.entity_id!r}: all-zero frame vector(s) at rows {zero}")
        arr.setflags(write=False)
        object.__setattr__(self, "frames", arr)

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


def _pow2_scaled(x: np.ndarray, axis: int | None = None) -> np.ndarray:
    """x times the power of two that brings its largest |value| (per row with
    ``axis=1``) into [0.5, 1).  Exact, so cosines are unchanged, and the norm
    neither overflows nor underflows."""
    return np.ldexp(x, -np.frexp(np.abs(x).max(axis=axis, keepdims=True, initial=0.0))[1])


def cosine_similarity(u, v) -> float:
    """dot(u, v) / (||u|| * ||v||), clipped into [-1, 1] against rounding."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.ndim != 1 or v.ndim != 1 or u.shape != v.shape:
        raise InputError(
            f"vectors must share one dimension, got shapes {u.shape} and {v.shape}"
        )
    u, v = _pow2_scaled(u), _pow2_scaled(v)
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise InputError("cosine similarity undefined for a zero-norm vector")
    c = float(np.dot(u, v)) / (nu * nv)
    return min(1.0, max(-1.0, c))


def _summary(feats: KeyframeFeatures, pairing: Pairing) -> np.ndarray:
    """One vector per entity whose inner products give the mean frame cosine."""
    frames = _pow2_scaled(feats.frames, axis=1)
    unit = frames / np.linalg.norm(frames, axis=1, keepdims=True)
    return unit.ravel() if pairing == "aligned" else unit.mean(axis=0)


def build_relevance_matrix(
    scene_feats: Sequence[KeyframeFeatures],
    ad_feats: Sequence[KeyframeFeatures],
    pairing: Pairing = "aligned",
) -> RelevanceMatrix:
    """Relevance matrix whose entry (i, j) is the mean keyframe cosine
    between scene i and ad j.

    ``aligned`` pairs frame f with frame f (all entities need one frame
    count F); ``all_pairs`` averages over the full cross product of frames.
    By linearity, with unit frames a_f and b_f, mean_f <a_f, b_f> =
    <vec A, vec B> / F and mean_{f,g} <a_f, b_g> = <mean A, mean B>, so the
    matrix is one product of per-entity summaries, clipped by ``RelevanceMatrix``.
    Rows and columns follow the order of the given sequences.
    """
    if pairing not in ("aligned", "all_pairs"):
        raise ValueError(f"unknown pairing mode {pairing!r}")
    if not scene_feats or not ad_feats:
        return RelevanceMatrix(np.empty((len(scene_feats), len(ad_feats))))
    ref = scene_feats[0]
    for f in [*scene_feats, *ad_feats]:
        if f.dim != ref.dim:
            raise InputError(
                f"feature dims differ: {ref.entity_id!r} has {ref.dim}, "
                f"{f.entity_id!r} has {f.dim}"
            )
        if pairing == "aligned" and f.frame_count != ref.frame_count:
            raise InputError(
                f"aligned pairing needs equal frame counts: "
                f"{ref.entity_id!r} has {ref.frame_count}, "
                f"{f.entity_id!r} has {f.frame_count}"
            )
    n_frames = ref.frame_count if pairing == "aligned" else 1
    scenes = np.stack([_summary(f, pairing) for f in scene_feats])
    ads = np.stack([_summary(f, pairing) for f in ad_feats])
    return RelevanceMatrix(scenes @ ads.T / n_frames)
