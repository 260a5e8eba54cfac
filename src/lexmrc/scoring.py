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

`score_questions` scores every question of one text through its
`TextIndex`: `sw`, `d` and `web` of all the text's options in one batch
each, with the floats that scoring each option alone gives.

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
from itertools import chain, islice, repeat
from typing import AbstractSet, Sequence

import numpy as np

from .embedding import EmbeddingStore, average_embedding
from .kernels import extreme_pair_distance, max_window_cosine, max_window_sum
from .preprocess import PreprocessConfig, ProcessedText, WordList

__all__ = [
    "METHODS",
    "MethodConfig",
    "OptionScores",
    "ScoreBreakdown",
    "TextIndex",
    "decide",
    "score_questions",
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


class TextIndex:
    """Per-text arrays the scorers share, over integer token ids.

    `vocab` lists the text's distinct words in order of first occurrence, and
    `ids[i]` is the vocabulary id of token i. `counts` keeps the int count
    of each word. Per-id tables are gathered through `ids` once per text:
    the token log-weights of `sw` and, when an embedding store is given,
    the prefix sums of the per-token vectors and known-token counts that
    `web` averages spans from. The tokens that each of a batch of word
    sets hits, the `sw` masks and the `d` positions of every option of the
    text, are one gather of a membership array over the vocabulary.
    """

    def __init__(self, text: ProcessedText, store: EmbeddingStore | None = None):
        self.tokens = text.flat
        self.counts = dict(Counter(text.flat))
        self.vocab = tuple(self.counts)
        self.word_ids = {w: i for i, w in enumerate(self.vocab)}
        n = len(self.tokens)
        self.ids = np.fromiter(map(self.word_ids.__getitem__, self.tokens), dtype=np.intp, count=n)
        id_weights = np.array([math.log(1.0 + 1.0 / c) for c in self.counts.values()])
        self.log_weights = id_weights[self.ids]
        self.store = store
        self.vec_prefix = None
        self.cnt_prefix = None
        if store is not None:
            # row i + 1 of the tables is vocabulary word i; row 0 is the
            # prefix start, a zero vector that is no known token, so one
            # cumsum gives the running sums from +0.0 as sequential adds
            rows = store.row_ids(self.vocab)
            known = np.concatenate(([False], rows >= 0))
            table = np.zeros((len(rows) + 1, store.dim))
            table[known] = store.rows(rows[rows >= 0])
            token_rows = np.concatenate(([0], self.ids + 1))
            self.vec_prefix = np.cumsum(table[token_rows], axis=0)
            self.cnt_prefix = np.cumsum(known[token_rows], dtype=np.int64)

    def token_masks(self, word_sets: Sequence[AbstractSet[str]]) -> np.ndarray:
        """Which tokens of the text each of `word_sets` holds, as a
        (sets, n) bool array: one membership array over the vocabulary,
        gathered through `ids`."""
        # a word the text does not have marks column V, which no token reads
        v = len(self.vocab)
        rows = np.repeat(np.arange(len(word_sets)), [len(words) for words in word_sets])
        cols = list(map(self.word_ids.get, chain.from_iterable(word_sets), repeat(v)))
        member = np.zeros((len(word_sets), v + 1), dtype=bool)
        member[rows, cols] = True
        return member[:, self.ids]

    def window_score(self, word_sets: Sequence[AbstractSet[str]]) -> list[float]:
        """The `sw` of each of `word_sets`: its best window sum of the log
        weights of the tokens it holds, in windows as wide as the set."""
        weights = np.where(self.token_masks(word_sets), self.log_weights, 0.0)
        prefix = np.zeros((len(word_sets), len(self.tokens) + 1))
        np.cumsum(weights, axis=1, out=prefix[:, 1:])
        return max_window_sum(prefix, np.array([len(s) for s in word_sets], dtype=np.intp)).tolist()

    def distance(
        self,
        question_sets: Sequence[AbstractSet[str]],
        option_sets: Sequence[Sequence[AbstractSet[str]]],
        aggregation: str,
    ) -> list[tuple[float, ...]]:
        """The `d` of each option of each question, where `option_sets[i]`
        holds the option word sets of `question_sets[i]`: the extreme
        distance between a question token and an option token at another
        position, over n - 1, or the neutral 1.0 when there is no such
        pair."""
        q = len(question_sets)
        masks = self.token_masks([*question_sets, *chain.from_iterable(option_sets)])
        question_of = np.repeat(np.arange(q), [len(options) for options in option_sets])
        extreme = extreme_pair_distance(masks[:q], masks[q:], question_of, aggregation == "max")
        dist = iter(np.where(extreme >= 0, extreme / max(len(self.tokens) - 1, 1), 1.0).tolist())
        return [tuple(islice(dist, len(options))) for options in option_sets]

    def boost(self, options: Sequence[WordList]) -> list[float]:
        """The `web` of each of `options`: the best cosine between its mean
        vector and the mean vector of any window of as many tokens (the
        whole text when the option is longer), or 0.0 for an empty option
        or text and for an option with no known word. The options' means
        are formed in one call, and the options of one width are scored
        in one kernel call, which forms that width's window means."""
        if self.store is None:
            raise ValueError("text index was built without an embedding store")
        web = [0.0] * len(options)
        n = len(self.tokens)
        if not n:
            return web
        targets, found = average_embedding(self.store, options)
        by_width: dict[int, list[int]] = {}
        for k in np.flatnonzero(found).tolist():
            by_width.setdefault(min(len(options[k]), n), []).append(k)
        for width, ks in by_width.items():
            cosines = max_window_cosine(self.vec_prefix, self.cnt_prefix, width, targets[ks])
            for k, cosine in zip(ks, cosines.tolist()):
                web[k] = cosine
        return web


@dataclass(frozen=True)
class OptionScores:
    """The component scores of a question's four options: `sw`, `d` at the
    one distance aggregation of a scoring pass, and `web`; a component no
    config asked for is None."""

    sw: tuple[float, float, float, float] | None
    dist: tuple[float, float, float, float] | None
    web: tuple[float, float, float, float] | None


def score_questions(
    index: TextIndex,
    stems: Sequence[WordList],
    options: Sequence[Sequence[WordList]],
    cfgs: Sequence[MethodConfig],
) -> list[OptionScores]:
    """The `OptionScores` of each question of one text, whose stem is
    `stems[i]` and whose four options are `options[i]`: every component
    score that some config in `cfgs` needs, each computed once. `sw` and
    `d` (for sw_d and sw_d_web, at the distance aggregation the configs
    share) and `web` (for sw_d_web) are scored for every option of the
    text in one call each. The caller scores no question when every
    config is random."""
    for q_options in options:
        if len(q_options) != 4:
            raise ValueError(f"expected exactly 4 options, got {len(q_options)}")
    methods = {cfg.method for cfg in cfgs}
    stem_sets = [set(stem) for stem in stems]
    option_sets = [[set(o) for o in q_options] for q_options in options]
    sw = iter(index.window_score([s | o for s, q_sets in zip(stem_sets, option_sets)
                                  for o in q_sets]))
    dist = [None] * len(stems)
    if not methods.isdisjoint(("sw_d", "sw_d_web")):
        dist = index.distance(stem_sets, option_sets, cfgs[0].distance_aggregation)
    web = [None] * len(stems)
    if "sw_d_web" in methods:
        boosts = iter(index.boost([o for q_options in options for o in q_options]))
        web = [tuple(islice(boosts, 4)) for _ in options]
    return [OptionScores(sw=tuple(islice(sw, 4)), dist=d, web=w) for d, w in zip(dist, web)]


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
