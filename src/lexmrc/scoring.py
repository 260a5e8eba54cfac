"""Answer-option scoring and the combined prediction rule.

Each option O of a question Q against a reading text T gets up to three
component scores:

* sliding-window  sw = best window sum of log(1 + 1/count(token)) over
  tokens of T that fall in set(Q) | set(O); the window is as wide as that
  set and natural log is used throughout.
* distance        d  = closest (or farthest, configurable) co-occurrence
  of a question word and an option word in T, normalized by |T| - 1;
  returns the neutral penalty 1 when either side never occurs in T.
* embedding boost web = best cosine between the option's mean word vector
  and the mean vector of any |O|-token span of T.

The final score is sw - d + web, with the components a method does not
use set to zero (d and web for sw, web for sw_d); ties on the final score
go to the lowest option index. The random method ignores the text
entirely and draws from a seeded generator.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .embedding import EmbeddingStore, average_embedding
from .kernels import (
    WindowMeans,
    extreme_pair_distance,
    max_window_cosine,
    max_window_sum,
    window_means,
)
from .preprocess import PreprocessConfig, ProcessedText, WordList

__all__ = [
    "METHODS",
    "MethodConfig",
    "OptionScores",
    "ScoreBreakdown",
    "TextIndex",
    "decide",
    "score_options",
    "term_counts",
]

METHODS = ("random", "sw", "sw_d", "sw_d_web")
DISTANCE_AGGREGATIONS = ("min", "max")


@dataclass(frozen=True)
class MethodConfig:
    """Which decision rule to run and how."""

    method: str = "sw_d_web"
    distance_aggregation: str = "min"
    random_seed: int | None = None
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.distance_aggregation not in DISTANCE_AGGREGATIONS:
            raise ValueError(f"unknown distance aggregation {self.distance_aggregation!r}")
        if self.method == "random" and self.random_seed is None:
            raise ValueError("method 'random' requires random_seed")


@dataclass(frozen=True)
class ScoreBreakdown:
    """All per-option component scores plus the decision."""

    sw: tuple[float, float, float, float]
    dist: tuple[float, float, float, float]
    web: tuple[float, float, float, float]
    final: tuple[float, float, float, float]
    predicted: int
    method: str


def term_counts(text: ProcessedText) -> dict[str, int]:
    """Multiset counts over the flat token sequence."""
    return dict(Counter(text.flat))


class TextIndex:
    """Per-text arrays the scorers share, over integer token ids.

    `vocab` lists the text's distinct words in `term_counts` order, and
    `ids[i]` is the vocabulary id of token i. `counts` keeps the int count
    of each word. Per-id tables are gathered through `ids` once per text:
    the token log-weights of `sw` and, when an embedding store is given,
    the prefix sums of the per-token vectors and known-token counts that
    `web` averages spans from. The tokens a word set hits, the `sw` mask
    and the `d` positions, are one gather of a per-word membership array.
    `boost` caches the window means of each width it sees on the index,
    so they live as long as the index does.
    """

    def __init__(self, text: ProcessedText, store: EmbeddingStore | None = None):
        self.tokens = text.flat
        self.counts = term_counts(text)
        self.vocab = tuple(self.counts)
        self.word_ids = {w: i for i, w in enumerate(self.vocab)}
        n = len(self.tokens)
        self.ids = np.fromiter(map(self.word_ids.__getitem__, self.tokens), dtype=np.intp, count=n)
        id_weights = np.array([math.log(1.0 + 1.0 / c) for c in self.counts.values()])
        self.log_weights = id_weights[self.ids]
        self.store = store
        self.vec_prefix = None
        self.cnt_prefix = None
        self._windows: dict[int, WindowMeans] = {}
        if store is not None:
            # row i + 1 of the tables is vocabulary word i; row 0 is the
            # prefix start, a zero vector that is no known token, so one
            # cumsum gives the running sums from +0.0 as sequential adds
            rows = [store.row_index(w) for w in self.vocab]
            known = np.array([False] + [r is not None for r in rows])
            table = np.zeros((len(rows) + 1, store.dim))
            table[known] = store.rows([r for r in rows if r is not None])
            token_rows = np.concatenate(([0], self.ids + 1))
            self.vec_prefix = np.cumsum(table[token_rows], axis=0)
            self.cnt_prefix = np.cumsum(known[token_rows], dtype=np.int64)

    def token_mask(self, words: Iterable[str]) -> np.ndarray:
        """Which tokens of the text are in `words`: a membership array over
        the vocabulary, gathered through `ids`."""
        member = np.zeros(len(self.vocab), dtype=bool)
        member[[self.word_ids[w] for w in words if w in self.word_ids]] = True
        return member[self.ids]

    def window_score(self, word_set: frozenset[str] | set[str]) -> float:
        weights = np.where(self.token_mask(word_set), self.log_weights, 0.0)
        return max_window_sum(weights, len(word_set))

    def distance(self, question_words: set[str], option_words: set[str], aggregation: str) -> float:
        pos_q = np.flatnonzero(self.token_mask(question_words))
        pos_o = np.flatnonzero(self.token_mask(option_words))
        extreme = extreme_pair_distance(pos_q, pos_o, aggregation == "max")
        if extreme < 0:
            return 1.0
        return float(extreme) / (len(self.tokens) - 1)

    def boost(self, option: WordList) -> float:
        if self.store is None:
            raise ValueError("text index was built without an embedding store")
        if not option or not self.tokens:
            return 0.0
        target = average_embedding(self.store, option)
        if target is None:
            return 0.0
        width = min(len(option), len(self.tokens))
        windows = self._windows.get(width)
        if windows is None:
            windows = self._windows[width] = window_means(self.vec_prefix, self.cnt_prefix, width)
        return max_window_cosine(windows, target)


@dataclass(frozen=True)
class OptionScores:
    """The component scores of a question's four options: `sw`, `d` at the
    one distance aggregation of a scoring pass, and `web`; a component no
    config asked for is None."""

    sw: tuple[float, float, float, float] | None
    dist: tuple[float, float, float, float] | None
    web: tuple[float, float, float, float] | None


def score_options(
    index: TextIndex,
    question: WordList,
    options: Sequence[WordList],
    cfgs: Sequence[MethodConfig],
) -> OptionScores:
    """Every component score that some config in `cfgs` needs, each
    computed once: `sw`, `d` for sw_d and sw_d_web at the distance
    aggregation the configs share, and `web` for sw_d_web. The caller
    scores no question when every config is random."""
    if len(options) != 4:
        raise ValueError(f"expected exactly 4 options, got {len(options)}")
    methods = {cfg.method for cfg in cfgs}
    question_set = set(question)
    option_sets = [set(o) for o in options]
    sw = tuple(index.window_score(question_set | o) for o in option_sets)
    dist = None
    if not methods.isdisjoint(("sw_d", "sw_d_web")):
        aggregation = cfgs[0].distance_aggregation
        dist = tuple(index.distance(question_set, o, aggregation) for o in option_sets)
    web = tuple(index.boost(o) for o in options) if "sw_d_web" in methods else None
    return OptionScores(sw=sw, dist=dist, web=web)


def decide(scores: OptionScores, cfg: MethodConfig, rng: random.Random | None) -> ScoreBreakdown:
    """The final scores of `cfg`'s method and its winner, the lowest index
    among equal finals. The random method draws from `rng`, which the
    caller seeds once per run; the other methods ignore it."""
    zeros = (0.0, 0.0, 0.0, 0.0)
    if cfg.method == "random":
        return ScoreBreakdown(
            sw=zeros, dist=zeros, web=zeros, final=zeros,
            predicted=rng.randrange(4), method=cfg.method,
        )
    sw = scores.sw
    dist = zeros if cfg.method == "sw" else scores.dist
    web = scores.web if cfg.method == "sw_d_web" else zeros
    final = tuple(s - d + w for s, d, w in zip(sw, dist, web))
    return ScoreBreakdown(
        sw=sw, dist=dist, web=web, final=final,
        predicted=final.index(max(final)), method=cfg.method,
    )
