"""Independent checks of the program's outputs.

Nothing here calls lexmrc. The oracle works on the planted word ids of
the skeleton (see inputs.py), so it does its own preprocessing too:
texts are the planted words with stopwords removed, and so are stems
and options.

Scores, per option O of question Q over text T:

* ``sw`` is the best window as the exact rational prod((c+1)/c) over the
  window's hits, c being a hit word's count in T; windows are compared
  as rationals, so mathematically equal windows are equal.
* ``d`` is the smallest distance between a position of a Q word and a
  different position of an O word, as the exact rational k/(n-1); 1 when
  no such pair exists.
* ``web`` is the best cosine between O's mean vector and the mean vector
  of any |O|-word span of T, each span summed directly (no prefix sums).

The oracle's pick is the lowest index among the options with the highest
score. A predicted index that differs from it is a failure when the two
options' scores are exactly equal (the tie must go to the lower index),
or when the oracle's gap between them is at least ``TOLERANCE``; a gap
below the tolerance without exact equality is beyond what double
precision can decide and is not a failure.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

TOLERANCE = 1e-9

# kinds of disagreement between the program and the oracle
TIE_ROUNDING = "tie-rounding"  # exact tie broken towards a higher index
WRONG_OPTION = "wrong-option"  # a gap of at least TOLERANCE


@dataclass(frozen=True)
class OracleScore:
    exact: tuple  # equal tuples <=> mathematically equal scores
    value: float  # the score in double precision


class TextOracle:
    """Per-text data for the three signals."""

    def __init__(self, tokens: Sequence[int], vectors: Mapping[int, np.ndarray] | None = None):
        self.tokens = np.asarray(tokens, dtype=np.int64)
        self.n = len(tokens)
        self.counts = Counter(tokens)
        self.log_weight = np.array([math.log1p(1.0 / self.counts[t]) for t in tokens])
        self.positions: dict[int, list[int]] = {}
        for i, t in enumerate(tokens):
            self.positions.setdefault(t, []).append(i)
        self.vectors = vectors
        if vectors is not None:
            dim = len(next(iter(vectors.values())))
            self.known = np.array([t in vectors for t in tokens], dtype=bool)
            self.matrix = np.array([vectors[t] if t in vectors else np.zeros(dim) for t in tokens])

    def window_product(self, words: set[int]) -> Fraction:
        """Best window of width len(words) as the exact product of (c+1)/c."""
        if not words or self.n == 0:
            return Fraction(1)
        hit = np.isin(self.tokens, list(words))
        weights = np.where(hit, self.log_weight, 0.0)
        width = len(words)
        if width >= self.n:
            starts, width = [0], self.n
        else:
            sums = sliding_window_view(weights, width).sum(axis=1)
            starts = np.nonzero(sums >= sums.max() - TOLERANCE)[0].tolist()
        best = Fraction(0)
        for s in starts:
            product = Fraction(1)
            for t in self.tokens[s:s + width][hit[s:s + width]].tolist():
                product *= Fraction(self.counts[t] + 1, self.counts[t])
            best = max(best, product)
        return best

    def distance(self, question: set[int], option: set[int]) -> Fraction:
        if self.n <= 1:
            return Fraction(1)
        # positions of distinct words are distinct, so pq has no repeats
        pq = sorted(p for w in question for p in self.positions.get(w, ()))
        best = None
        for p in (p for w in option for p in self.positions.get(w, ())):
            i = bisect.bisect_left(pq, p)
            near = pq[max(0, i - 1):i + 2]
            for q in near:
                if q != p and (best is None or abs(p - q) < best):
                    best = abs(p - q)
        return Fraction(1) if best is None else Fraction(best, self.n - 1)

    def boost(self, option: Sequence[int]) -> float:
        if not option or self.n == 0:
            return 0.0
        found = sorted(w for w in option if w in self.vectors)
        if not found:
            return 0.0
        target = np.mean([self.vectors[w] for w in found], axis=0)
        target_norm = math.sqrt(float(target @ target))
        if target_norm == 0.0:
            return 0.0
        width = min(len(option), self.n)
        sums = sliding_window_view(self.matrix, width, axis=0).sum(axis=2)
        cnts = sliding_window_view(self.known, width).sum(axis=1)
        means = sums / np.maximum(cnts, 1)[:, None]
        norms = np.sqrt((means * means).sum(axis=1))
        valid = (cnts > 0) & (norms > 0)
        cos = np.zeros(len(cnts))
        cos[valid] = (means[valid] @ target) / (norms[valid] * target_norm)
        return float(cos.max())


def score_options(text: TextOracle, question: Sequence[int], options: Sequence[Sequence[int]],
                  method: str) -> list[OracleScore]:
    qset = set(question)
    scores = []
    for option in options:
        product = text.window_product(qset | set(option))
        sw = math.log(product.numerator) - math.log(product.denominator)
        if method == "sw":
            scores.append(OracleScore((product,), sw))
            continue
        d = text.distance(qset, set(option))
        if method == "sw_d":
            scores.append(OracleScore((product, d), sw - float(d)))
            continue
        web = text.boost(option)
        scores.append(OracleScore((product, d, web), sw - float(d) + web))
    return scores


def oracle_pick(scores: Sequence[OracleScore]) -> int:
    """Lowest index among the best scores. Scores with different exact
    keys are ordered by value; for ``sw`` alone the exact rationals
    order them."""
    best = 0
    for i in range(1, len(scores)):
        a, b = scores[i], scores[best]
        if a.exact == b.exact:
            continue
        if len(a.exact) == 1:
            if a.exact[0] > b.exact[0]:
                best = i
        elif a.value > b.value:
            best = i
    return best


def judge(scores: Sequence[OracleScore], predicted: int) -> str | None:
    """None when `predicted` is acceptable, else the kind of failure."""
    pick = oracle_pick(scores)
    if predicted == pick:
        return None
    if scores[predicted].exact == scores[pick].exact:
        return TIE_ROUNDING
    gap = scores[pick].value - scores[predicted].value
    return None if gap < TOLERANCE else WRONG_OPTION


def verdict_table(corpus, methods: Sequence[str], splits: Sequence[str],
                  vectors: Mapping[int, np.ndarray] | None,
                  dropped) -> dict[str, dict[str, list[str | None]]]:
    """method -> question id -> `judge` of each possible predicted index,
    for the questions of `splits`. `dropped(word)` tells the stopwords the
    program removes before scoring."""
    texts = {t.id: [w for w in t.words if not dropped(w)] for t in corpus.texts}
    oracles: dict[str, TextOracle] = {}
    table: dict[str, dict[str, list[str | None]]] = {m: {} for m in methods}
    for q in corpus.questions:
        if q.split not in splits:
            continue
        if q.text_id not in oracles:
            oracles[q.text_id] = TextOracle(texts[q.text_id], vectors)
        stem = [w for w in q.stem if not dropped(w)]
        options = [[w for w in o if not dropped(w)] for o in q.options]
        for method in methods:
            scores = score_options(oracles[q.text_id], stem, options, method)
            table[method][q.id] = [judge(scores, i) for i in range(len(options))]
    return table


def expected_stats(corpus) -> dict:
    """The `stats` report of a skeleton corpus, by construction: lengths
    count the planted words (stopwords included) and the vocabulary is
    the set of distinct planted words. Same shape as the JSON render."""
    texts = {t.id: t for t in corpus.texts}
    words = {t.id: t.words for t in corpus.texts}

    def block(text_ids, questions, full=True):
        vocab: set[int] = set()
        for tid in text_ids:
            vocab.update(words[tid])
        for q in questions:
            vocab.update(q.stem)
            for o in q.options:
                vocab.update(o)
        out = {"texts": len(text_ids), "questions": len(questions), "vocabulary": len(vocab)}
        if full:
            out.update({
                "avg_text_length": _mean([len(words[tid]) for tid in text_ids]),
                "avg_question_length": _mean([len(q.stem) for q in questions]),
                "avg_option_length": _mean([len(o) for q in questions for o in q.options]),
                "avg_correct_length": _mean([len(q.options[q.gold]) for q in questions]),
            })
        return out

    splits = {}
    for split in ("train", "dev", "test"):
        qs = [q for q in corpus.questions if q.split == split]
        if qs:
            used = {q.text_id for q in qs}
            splits[split] = block([t.id for t in corpus.texts if t.id in used], qs)
    grades = {}
    for grade in range(1, 6):
        ids = [t.id for t in corpus.texts if t.grade == grade]
        if ids:
            qs = [q for q in corpus.questions if texts[q.text_id].grade == grade]
            grades[str(grade)] = block(ids, qs, full=False)
    return {
        "splits": splits,
        "overall": block([t.id for t in corpus.texts], list(corpus.questions)),
        "grades": grades,
    }


def _mean(values: list[int]) -> float:
    return sum(values) / len(values) if values else 0.0
