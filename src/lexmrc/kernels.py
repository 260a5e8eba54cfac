"""Numeric inner loops shared by the scoring functions.

One vectorized numpy function per job: the best window sums of token
weights (`sw`) and the extreme distances between question and option
positions (`d`), each for every option of a text at once, and the best
cosine between each option's mean vector and a window's mean vector
(`web`), for every option of one width at once, over window means that
`window_means` forms once per text and width. Every float is the one
that scoring each option alone gives. `BACKEND` names the build for
reports that record it.
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


def max_window_sum(prefix: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Best sum over contiguous windows of `widths[k]` weights of row k,
    for every row of a batch of rows of n weights each.

    `prefix` is the (K, n+1) running sums of the rows, each from a 0.0
    column. Windows may start at any position; positions past the end
    contribute nothing. All weights are >= 0, so a window cut short at
    either end of the row never beats a full one, and a width of n or more
    has the one window of all n entries. Each window sum is one difference
    of the running sums: a row's running sums less those `widths[k]`
    columns before them (column 0 where that is before the start, which
    gives the cut heads), in one gather for the whole batch. A row of
    width 0, or of a text of no token, scores 0.0.
    """
    starts = np.maximum(np.arange(prefix.shape[1]) - widths[:, None], 0)
    return (prefix - np.take_along_axis(prefix, starts, axis=1)).max(axis=1)


def extreme_pair_distance(
    question_masks: np.ndarray,
    option_masks: np.ndarray,
    question_of: np.ndarray,
    use_max: bool,
) -> np.ndarray:
    """For each option row k, the smallest (or largest) |p - q| over the
    positions p of `option_masks[k]` and q of `question_masks[question_of[k]]`,
    both (rows, n) bool arrays over the n tokens of one text. Pairs at the
    same position are skipped; -1 where no valid pair exists.

    The largest is max(last option - first question, last question - first
    option), valid when it is above 0. The smallest comes from the nearest
    question position strictly before and strictly after every token, a
    running max and a running min along the text, so no option builds a
    matrix of position pairs.
    """
    n = question_masks.shape[1]
    if n == 0:
        return np.full(option_masks.shape[0], -1)
    if use_max:
        has_q = question_masks.any(axis=1)[question_of]
        has_o = option_masks.any(axis=1)
        first_q = question_masks.argmax(axis=1)[question_of]
        last_q = n - 1 - question_masks[:, ::-1].argmax(axis=1)[question_of]
        first_o = option_masks.argmax(axis=1)
        last_o = n - 1 - option_masks[:, ::-1].argmax(axis=1)
        extreme = np.maximum(last_o - first_q, last_q - first_o)
        return np.where(has_q & has_o & (extreme > 0), extreme, -1)
    # n is past every real distance, and so is each gap to a sentinel
    pos = np.arange(n)
    seen = np.maximum.accumulate(np.where(question_masks, pos, -n), axis=1)
    ahead = np.minimum.accumulate(np.where(question_masks, pos, 2 * n)[:, ::-1], axis=1)[:, ::-1]
    gap = np.full(question_masks.shape, n)
    gap[:, 1:] = pos[1:] - seen[:, :-1]
    np.minimum(gap[:, :-1], ahead[:, 1:] - pos[:-1], out=gap[:, :-1])
    nearest = np.where(option_masks, gap[question_of], n).min(axis=1)
    return np.where(nearest < n, nearest, -1)


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
    # a window with no known token sums +0.0 rows, so its norm is 0 too
    valid = norms > 0
    means, norms = means[valid], norms[valid]
    for array in (means, norms, valid):
        array.setflags(write=False)
    return WindowMeans(means, norms, valid)


def max_window_cosine(windows: WindowMeans, targets: np.ndarray) -> np.ndarray:
    """Best cosine between each row of `targets` (k, dim) and the mean
    vector of any window of `windows` (see `window_means`), as a (k,)
    array.

    Windows with no known token or a zero-norm mean count as similarity 0;
    a zero-norm target scores 0.0. Each of the two stacked `np.matmul`
    calls makes per target the BLAS call that scoring it alone makes: the
    `dot` of `target @ target` and the `gemv` of `means @ target`. No
    matrix product over targets is formed, so every cosine is the float
    that the target gets on its own.
    """
    target_norms = np.sqrt(np.matmul(targets[:, None, :], targets[:, :, None])[:, 0, 0])
    best = np.zeros(targets.shape[0])
    live = target_norms != 0.0
    dots = np.matmul(windows.means[None], targets[live][:, :, None])[:, :, 0]
    scores = np.zeros((dots.shape[0], windows.valid.shape[0]))
    scores[:, windows.valid] = dots / (windows.norms * target_norms[live][:, None])
    best[live] = scores.max(axis=1)
    return best
