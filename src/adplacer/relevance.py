"""Scene-ad content similarity from precomputed keyframe feature vectors.

Feature extraction itself happens upstream; this module only consumes the
per-entity stacks of frame vectors (typically 40 frames x 512 dims, but any
consistent shape works) and turns them into a relevance matrix: for either
frame pairing, one product of the distinct per-entity summaries of the
unit-norm frames.
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
        # each row's largest |value|, not its norm (which can underflow to 0):
        # NaN or inf exactly when the row is not finite, 0 when it is all zeros
        peak = np.abs(arr).max(axis=1)
        if not np.all(np.isfinite(peak)):
            raise ValueError(f"{self.entity_id!r}: feature values must be finite")
        zero_rows = peak == 0.0
        if np.any(zero_rows):
            zero = np.flatnonzero(zero_rows).tolist()
            raise InputError(f"{self.entity_id!r}: all-zero frame vector(s) at rows {zero}")
        arr.setflags(write=False)
        object.__setattr__(self, "frames", arr)

    @property
    def frame_count(self) -> int:
        """``frames.shape[0]``; perfbench's tracer counts frame pairs with it."""
        return self.frames.shape[0]


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


def _summaries(
    entities: Sequence[KeyframeFeatures], ref: KeyframeFeatures, pairing: Pairing
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct per-entity summaries, whose inner products give the mean
    frame cosine, in first-seen order, and the row of each entity among them.

    Each entity must have the dims of ``ref`` and, for ``aligned``, its frame
    count.  A summary's own bits, with -0.0 folded into 0.0, key it, and
    ``np.array_equal`` confirms a match, so identical frame stacks share one
    row (or column) of the product and their relevance entries tie exactly
    on any BLAS build and thread count.
    """
    count, dim = ref.frames.shape
    buf = np.empty((len(entities), count * dim if pairing == "aligned" else dim))
    index = np.empty(len(entities), dtype=np.intp)
    seen: dict[int, list[int]] = {}
    n = 0
    for e, f in enumerate(entities):
        f_count, f_dim = f.frames.shape
        if f_dim != dim:
            raise InputError(
                f"feature dims differ: {ref.entity_id!r} has {dim}, {f.entity_id!r} has {f_dim}"
            )
        if pairing == "aligned" and f_count != count:
            raise InputError(
                f"aligned pairing needs equal frame counts: "
                f"{ref.entity_id!r} has {count}, {f.entity_id!r} has {f_count}"
            )
        frames = _pow2_scaled(f.frames, axis=1)
        frames /= np.linalg.norm(frames, axis=1, keepdims=True)
        summary = frames.ravel() if pairing == "aligned" else frames.mean(axis=0)
        twins = seen.setdefault(hash((summary + 0.0).tobytes()), [])
        index[e] = next((i for i in twins if np.array_equal(buf[i], summary)), n)
        if index[e] == n:
            twins.append(n)
            buf[n] = summary
            n += 1
    return buf[:n], index


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
    matrix is one product of the distinct per-entity summaries, clipped by
    ``RelevanceMatrix``; identical entities copy one row or column of it.
    Rows and columns follow the order of the given sequences.
    """
    if pairing not in ("aligned", "all_pairs"):
        raise ValueError(f"unknown pairing mode {pairing!r}")
    if not scene_feats or not ad_feats:
        return RelevanceMatrix(np.empty((len(scene_feats), len(ad_feats))))
    ref = scene_feats[0]
    n_frames = ref.frames.shape[0] if pairing == "aligned" else 1
    scenes, scene_rows = _summaries(scene_feats, ref, pairing)
    ads, ad_rows = _summaries(ad_feats, ref, pairing)
    return RelevanceMatrix((scenes @ ads.T / n_frames)[np.ix_(scene_rows, ad_rows)])
