"""Numeric inner loops shared by the scoring functions.

One vectorized numpy function per job: the best window sum of token
weights (`sw`), the extreme distance between two sets of positions (`d`)
and the best cosine between a target vector and a window's mean vector
(`web`). `BACKEND` names the build for reports that record it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BACKEND",
    "extreme_pair_distance",
    "max_window_cosine",
    "max_window_sum",
]

BACKEND = "numpy"


def max_window_sum(weights: np.ndarray, width: int) -> float:
    """Best sum over contiguous windows of `width` entries of `weights`.

    Windows may start at any position; positions past the end contribute
    nothing. All weights are >= 0, so truncated tail windows never beat the
    last full window and only full windows need to be enumerated.
    """
    n = weights.shape[0]
    if n == 0 or width <= 0:
        return 0.0
    if width >= n:
        return float(weights.sum())
    prefix = np.concatenate(([0.0], np.cumsum(weights)))
    return float((prefix[width:] - prefix[:-width]).max())


def extreme_pair_distance(pos_a: np.ndarray, pos_b: np.ndarray, use_max: bool) -> int:
    """Smallest (or largest) |p - q| over position pairs, p from `pos_a`
    and q from `pos_b`. Pairs at the same position are skipped. Returns -1
    when no valid pair exists.
    """
    if pos_a.shape[0] == 0 or pos_b.shape[0] == 0:
        return -1
    dist = np.abs(pos_a[:, None] - pos_b[None, :])
    valid = dist > 0
    if not valid.any():
        return -1
    return int(dist[valid].max() if use_max else dist[valid].min())


def max_window_cosine(
    vec_prefix: np.ndarray,
    cnt_prefix: np.ndarray,
    target: np.ndarray,
    width: int,
) -> float:
    """Best cosine between `target` and the mean vector of any window.

    `vec_prefix` is the (n+1, dim) running sum of per-token vectors (zero
    rows for unknown tokens) and `cnt_prefix` the (n+1,) running count of
    known tokens. Windows with no known token or a zero-norm mean count as
    similarity 0. Returns 0.0 when there are no windows or `target` has
    zero norm.
    """
    n = cnt_prefix.shape[0] - 1
    if n == 0 or width <= 0:
        return 0.0
    target_norm = float(np.sqrt(target @ target))
    if target_norm == 0.0:
        return 0.0
    w = min(width, n)
    sums = vec_prefix[w:] - vec_prefix[:-w]
    cnts = (cnt_prefix[w:] - cnt_prefix[:-w]).astype(np.float64)
    means = sums / np.maximum(cnts, 1.0)[:, None]
    norms = np.sqrt((means * means).sum(axis=1))
    scores = np.zeros(cnts.shape[0])
    valid = (cnts > 0) & (norms > 0)
    scores[valid] = (means[valid] @ target) / (norms[valid] * target_norm)
    return float(scores.max())
