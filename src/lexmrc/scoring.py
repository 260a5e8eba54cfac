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

The method decides the final score: sw, sw - d, or sw - d + web; ties on
the final score go to the lowest option index. The random method ignores
the text entirely and draws from a seeded generator.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .embedding import EmbeddingStore, average_embedding
from .kernels import extreme_pair_distance, max_window_cosine, max_window_sum
from .preprocess import PreprocessConfig, ProcessedText, WordList

__all__ = [
    "METHODS",
    "MethodConfig",
    "ScoreBreakdown",
    "TextIndex",
    "boosted_score",
    "distance_score",
    "predict",
    "predict_indexed",
    "sliding_window_score",
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
    """Per-text arrays the scorers share: token log-weights, occurrence
    positions, and (when an embedding store is given) prefix sums of the
    per-token vectors for span averaging."""

    def __init__(self, text: ProcessedText, store: EmbeddingStore | None = None):
        self.text = text
        self.tokens = text.flat
        self.counts = term_counts(text)
        n = len(self.tokens)
        self.log_weights = np.empty(n)
        for i, tok in enumerate(self.tokens):
            self.log_weights[i] = math.log(1.0 + 1.0 / self.counts[tok])
        positions: dict[str, list[int]] = {}
        for i, tok in enumerate(self.tokens):
            positions.setdefault(tok, []).append(i)
        self.positions = {w: np.asarray(p, dtype=np.int64) for w, p in positions.items()}
        self.store = store
        if store is not None:
            vec_prefix = np.zeros((n + 1, store.dim))
            cnt_prefix = np.zeros(n + 1, dtype=np.int64)
            for i, tok in enumerate(self.tokens):
                vec = store.get(tok)
                vec_prefix[i + 1] = vec_prefix[i] if vec is None else vec_prefix[i] + vec
                cnt_prefix[i + 1] = cnt_prefix[i] + (0 if vec is None else 1)
            self.vec_prefix = vec_prefix
            self.cnt_prefix = cnt_prefix
        else:
            self.vec_prefix = None
            self.cnt_prefix = None

    def window_score(self, word_set: frozenset[str] | set[str]) -> float:
        if not word_set or not self.tokens:
            return 0.0
        mask = np.fromiter((tok in word_set for tok in self.tokens), dtype=bool, count=len(self.tokens))
        weights = np.where(mask, self.log_weights, 0.0)
        return max_window_sum(weights, len(word_set))

    def distance(self, question_words: set[str], option_words: set[str], aggregation: str) -> float:
        n = len(self.tokens)
        if n <= 1:
            return 1.0
        sq = [w for w in question_words if w in self.positions]
        so = [w for w in option_words if w in self.positions]
        if not sq or not so:
            return 1.0
        pos_q = np.concatenate([self.positions[w] for w in sorted(sq)])
        pos_o = np.concatenate([self.positions[w] for w in sorted(so)])
        extreme = extreme_pair_distance(pos_q, pos_o, aggregation == "max")
        if extreme < 0:
            return 1.0
        return float(extreme) / (n - 1)

    def boost(self, option: WordList) -> float:
        if self.store is None:
            raise ValueError("text index was built without an embedding store")
        if not option or not self.tokens:
            return 0.0
        span = average_embedding(self.store, option)
        if span.support == 0:
            return 0.0
        return max_window_cosine(self.vec_prefix, self.cnt_prefix, span.vector, len(option))


def sliding_window_score(text: ProcessedText, question: WordList, option: WordList) -> float:
    """Best window sum of inverse-count log weights over tokens of `text`
    hitting set(question) | set(option)."""
    return TextIndex(text).window_score(set(question) | set(option))


def distance_score(
    text: ProcessedText, question: WordList, option: WordList, cfg: MethodConfig
) -> float:
    """Normalized extreme token distance between question-word and
    option-word occurrences; 1.0 when either side is absent from the text
    or the text has fewer than two tokens."""
    return TextIndex(text).distance(set(question), set(option), cfg.distance_aggregation)


def boosted_score(text: ProcessedText, option: WordList, store: EmbeddingStore) -> float:
    """Best cosine between the option's mean vector and any |option|-token
    span of the text (0.0 when undefined everywhere)."""
    return TextIndex(text, store).boost(option)


def _argmax_first(values: Sequence[float]) -> int:
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best]:
            best = i
    return best


def predict(
    text: ProcessedText,
    question: WordList,
    options: Sequence[WordList],
    cfg: MethodConfig,
    store: EmbeddingStore | None = None,
    rng: random.Random | None = None,
) -> ScoreBreakdown:
    """Score all four options and pick the winner.

    Inputs are pre-processed word lists. `store` is required for method
    sw_d_web. For the random method, predictions come from `rng` (or a
    fresh generator seeded with cfg.random_seed) so runs are repeatable.
    """
    if cfg.method == "sw_d_web" and store is None:
        raise ValueError("method 'sw_d_web' requires an embedding store")
    index = TextIndex(text, store if cfg.method == "sw_d_web" else None)
    return predict_indexed(index, question, options, cfg, rng)


def predict_indexed(
    index: TextIndex,
    question: WordList,
    options: Sequence[WordList],
    cfg: MethodConfig,
    rng: random.Random | None = None,
) -> ScoreBreakdown:
    if len(options) != 4:
        raise ValueError(f"expected exactly 4 options, got {len(options)}")
    zeros = (0.0, 0.0, 0.0, 0.0)
    if cfg.method == "random":
        if rng is None:
            rng = random.Random(cfg.random_seed)
        return ScoreBreakdown(
            sw=zeros, dist=zeros, web=zeros, final=zeros,
            predicted=rng.randrange(4), method=cfg.method,
        )
    question_set = set(question)
    sw = tuple(index.window_score(question_set | set(o)) for o in options)
    dist = zeros
    web = zeros
    if cfg.method in ("sw_d", "sw_d_web"):
        dist = tuple(
            index.distance(question_set, set(o), cfg.distance_aggregation) for o in options
        )
    if cfg.method == "sw_d_web":
        web = tuple(index.boost(o) for o in options)
    if cfg.method == "sw":
        final = sw
    elif cfg.method == "sw_d":
        final = tuple(s - d for s, d in zip(sw, dist))
    else:
        final = tuple(s - d + w for s, d, w in zip(sw, dist, web))
    return ScoreBreakdown(
        sw=sw, dist=dist, web=web, final=final,
        predicted=_argmax_first(final), method=cfg.method,
    )
