"""Numeric inner loops shared by the scoring functions.

One vectorized numpy function per job: the best window sum of token
weights (`sw`), the extreme distance between two sets of positions (`d`)
and the best cosine between a target vector and a window's mean vector
(`web`), over window means that `window_means` forms once per text and
width. `BACKEND` names the build for reports that record it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "BACKEND",
    "WindowMeans",
    "extreme_pair_distance",
    "max_window_cosine",
    "max_window_sum",
    "window_means",
]

BACKEND = "numpy"


def max_window_sum(weights: np.ndarray, width: int) -> float:
    """Best sum over contiguous windows of `width` entries of `weights`.

    Windows may start at any position; positions past the end contribute
    nothing. All weights are >= 0, so truncated tail windows never beat the
    last full window and only full windows need to be enumerated; a width
    of n or more has the one window of all n entries. Each window sum is
    one difference of the running sums.
    """
    n = weights.shape[0]
    if n == 0 or width <= 0:
        return 0.0
    width = min(width, n)
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


class WindowMeans(NamedTuple):
    """The window means of one text at one width, as `max_window_cosine`
    scores them: the mean vectors and norms of the valid windows (at least
    one known token, nonzero norm) and which windows those are."""

    means: np.ndarray  # (valid windows, dim)
    norms: np.ndarray  # (valid windows,)
    valid: np.ndarray  # (windows,) bool


def window_means(vec_prefix: np.ndarray, cnt_prefix: np.ndarray, width: int) -> WindowMeans:
    """The mean vector of every window of `width` tokens, from the running
    sums of a text of n tokens, for 1 <= `width` <= n.

    `vec_prefix` is the (n+1, dim) running sum of per-token vectors (zero
    rows for unknown tokens) and `cnt_prefix` the (n+1,) running count of
    known tokens. The arrays are read-only, so a caller may cache them.
    """
    sums = vec_prefix[width:] - vec_prefix[:-width]
    cnts = (cnt_prefix[width:] - cnt_prefix[:-width]).astype(np.float64)
    means = sums / np.maximum(cnts, 1.0)[:, None]
    norms = np.sqrt((means * means).sum(axis=1))
    valid = (cnts > 0) & (norms > 0)
    means, norms = means[valid], norms[valid]
    for array in (means, norms, valid):
        array.setflags(write=False)
    return WindowMeans(means, norms, valid)


def max_window_cosine(windows: WindowMeans, target: np.ndarray) -> float:
    """Best cosine between `target` and the mean vector of any window of
    `windows` (see `window_means`).

    Windows with no known token or a zero-norm mean count as similarity 0.
    Returns 0.0 when `target` has zero norm.
    """
    target_norm = float(np.sqrt(target @ target))
    if target_norm == 0.0:
        return 0.0
    scores = np.zeros(windows.valid.shape[0])
    scores[windows.valid] = (windows.means @ target) / (windows.norms * target_norm)
    return float(scores.max())
