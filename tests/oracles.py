"""Brute-force reference implementations used to cross-check the scorers.

Everything here is deliberately naive pure Python: windows are enumerated
one by one, pair distances come from a double loop, and span means are
computed with list arithmetic. Nothing is shared with the package code
but `reference_load_embeddings`' error class, the store lookups
(`row_ids`, `rows`) that `reference_average_embedding` and
`ReferenceTextIndex` read vectors through, the `ProcessedText` and
report types `reference_evaluate` runs on, and the lexicon and stopwords
of its config.

The `reference_*` functions are earlier versions of package code, kept
unchanged so that differential tests can hold the current code to them.
`vector_store` is no oracle: it builds the store that a test names by a
mapping, through the package's own loader.
"""

from __future__ import annotations

import math
import os
import random
import tempfile
import weakref
from collections import Counter
from pathlib import Path

import numpy as np

from lexmrc.corpus import filter_dataset
from lexmrc.embedding import EmbeddingFormatError, EmbeddingStore, load_embeddings
from lexmrc.evaluation import EvaluationReport, PredictionRecord
from lexmrc.preprocess import DEFAULT_PUNCTUATION, ProcessedText
from lexmrc.scoring import ScoreBreakdown


def window_score_oracle(tokens, question, option):
    """Enumerate every start position, clipping windows at the text end."""
    words = set(question) | set(option)
    if not words or not tokens:
        return 0.0
    counts = {}
    for tok in tokens:
        counts[tok] = counts.get(tok, 0) + 1
    width = len(words)
    best = 0.0
    for start in range(len(tokens)):
        total = 0.0
        for offset in range(width):
            pos = start + offset
            if pos < len(tokens) and tokens[pos] in words:
                total += math.log(1.0 + 1.0 / counts[tokens[pos]])
        if total > best:
            best = total
    return best


def distance_oracle(tokens, question, option, use_max):
    """Enumerate all occurrence pairs; same-position pairs do not count."""
    n = len(tokens)
    if n <= 1:
        return 1.0
    text_words = set(tokens)
    sq = set(question) & text_words
    so = set(option) & text_words
    if not sq or not so:
        return 1.0
    distances = []
    for p, tok_p in enumerate(tokens):
        if tok_p not in sq:
            continue
        for r, tok_r in enumerate(tokens):
            if tok_r not in so or p == r:
                continue
            distances.append(abs(p - r))
    if not distances:
        return 1.0
    extreme = max(distances) if use_max else min(distances)
    return extreme / (n - 1)


def _mean(rows):
    if not rows:
        return None
    dim = len(rows[0])
    return [sum(row[d] for row in rows) / len(rows) for d in range(dim)]


def _cosine(u, v):
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(x * x for x in v))
    if nu == 0.0 or nv == 0.0:
        return None
    return sum(a * b for a, b in zip(u, v)) / (nu * nv)


def boost_oracle(tokens, option, vectors):
    """Enumerate every span of len(option) tokens; undefined cosines are 0."""
    if not option or not tokens:
        return 0.0
    option_mean = _mean([vectors[w] for w in option if w in vectors])
    if option_mean is None:
        return 0.0
    width = min(len(option), len(tokens))
    values = []
    for start in range(len(tokens) - width + 1):
        span = tokens[start : start + width]
        span_mean = _mean([vectors[w] for w in span if w in vectors])
        sim = _cosine(option_mean, span_mean) if span_mean is not None else None
        values.append(0.0 if sim is None else sim)
    return max(values)


def random_instance(rng: random.Random, max_tokens=30, max_vocab=10, max_side=3):
    """A small scoring instance: token list plus question and option word
    lists, drawn from a shared vocabulary with a few never-occurring words
    mixed in."""
    vocab = [f"w{i}" for i in range(rng.randint(1, max_vocab))]
    tokens = [rng.choice(vocab) for _ in range(rng.randint(0, max_tokens))]
    pool = vocab + ["absent-a", "absent-b"]
    question = [rng.choice(pool) for _ in range(rng.randint(0, max_side))]
    option = [rng.choice(pool) for _ in range(rng.randint(0, max_side))]
    return tokens, question, option


def vector_store(vectors):
    """The store of `vectors`, a mapping of each word to its components:
    `load_embeddings` of a file with a "count dim" header and one row a
    word, in mapping order, whose components are written by `repr` and so
    read back bit for bit. The store reads its rows when they are first
    looked up, so the file is removed only when the store is."""
    rows = {word: [float(x) for x in vec] for word, vec in vectors.items()}
    dim = len(next(iter(rows.values())))
    fd, name = tempfile.mkstemp(suffix=".vec")
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        handle.write(f"{len(rows)} {dim}\n")
        handle.writelines(f"{word} {' '.join(map(repr, vec))}\n" for word, vec in rows.items())
    store = load_embeddings(name)
    weakref.finalize(store, os.unlink, name)
    return store


def reference_load_embeddings(path):
    """The vector-file loader as it was before the one-pass parse: every row
    split into strings and converted on its own, with Python's `float`
    grammar, and refused when its squared norm is not finite. Returns the dimension, the words in row order and their rows
    as one matrix."""
    path = Path(path)
    words: list[str] = []
    index: dict[str, int] = {}
    rows: list[np.ndarray] = []
    dim: int | None = None
    with path.open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            parts = line.rstrip("\n").split()
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2 and _is_int(parts[0]) and _is_int(parts[1]):
                dim = int(parts[1])
                if dim <= 0:
                    raise EmbeddingFormatError(f"{path}:1: non-positive dimension in header")
                continue
            word = parts[0]
            try:
                vec = np.asarray(parts[1:], dtype=np.float64)
            except ValueError:
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: non-numeric vector component"
                ) from None
            if not np.isfinite(vec).all():
                raise EmbeddingFormatError(f"{path}:{lineno}: non-finite vector component")
            if dim is None:
                if vec.shape[0] == 0:
                    raise EmbeddingFormatError(f"{path}:{lineno}: row has no vector components")
                dim = vec.shape[0]
            if vec.shape[0] != dim:
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: expected {dim} components, found {vec.shape[0]}"
                )
            # Python's float arithmetic overflows to inf without a warning
            if not math.isfinite(sum(x * x for x in vec.tolist())):
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: vector too large (its squared norm overflows)")
            if word in index:
                continue
            index[word] = len(rows)
            words.append(word)
            rows.append(vec)
    if not rows:
        raise EmbeddingFormatError(f"{path}: empty vector file")
    return dim, words, np.vstack(rows)


def reference_average_embedding(store, words):
    """`average_embedding` as it was before the one-gather sum: one numpy
    multiply and add per distinct word, in sorted word order. None when no
    word of the span is in the store."""
    counts = Counter(w for w in words if w in store)
    total = np.zeros(store.dim)
    found = 0
    for word in sorted(counts):
        total += counts[word] * store.rows(store.row_ids([word]))[0]
        found += counts[word]
    if found == 0:
        return None
    return total / found


def _is_int(token):
    try:
        int(token)
        return True
    except ValueError:
        return False


# The pre-processing loops as they were before the prefix-walk segmenter
# and the regex tokenizer: one character or one run size at a time.

class ReferenceDictionarySegmenter:
    """Greedy longest-match segmenter over a fixed word list.

    Scans left to right and joins the longest run of syllables (up to
    `max_syllables`) found in the lexicon. Tokens that already contain "_"
    are opaque: they pass through unchanged and no run may span them.
    """

    def __init__(self, lexicon=(), max_syllables=4):
        self.max_syllables = max_syllables
        self.lexicon = frozenset(w.strip().lower().replace(" ", "_") for w in lexicon if w.strip())

    def __call__(self, tokens):
        out = []
        n = len(tokens)
        i = 0
        while i < n:
            if "_" in tokens[i]:
                out.append(tokens[i])
                i += 1
                continue
            match_len = 1
            limit = min(self.max_syllables, n - i)
            for size in range(limit, 1, -1):
                run = tokens[i : i + size]
                if any("_" in t for t in run):
                    continue
                if "_".join(run) in self.lexicon:
                    match_len = size
                    break
            out.append("_".join(tokens[i : i + match_len]))
            i += match_len
        return out


def reference_tokenize(text, punctuation):
    """Split on whitespace and punctuation characters; punctuation is
    consumed, everything else is preserved verbatim."""
    tokens = []
    current = []
    for ch in text:
        if ch.isspace() or ch in punctuation:
            if current:
                tokens.append("".join(current))
                current = []
        else:
            current.append(ch)
    if current:
        tokens.append("".join(current))
    return tokens


def reference_split_sentences(text, breaks=(".", "!", "?", "…", "\n")):
    """Split a text on sentence-final marks and newlines."""
    sentences = []
    current = []
    for ch in text:
        if ch in breaks:
            if current:
                sentences.append("".join(current))
                current = []
        else:
            current.append(ch)
    if current:
        sentences.append("".join(current))
    return [s for s in sentences if s.strip()]


def _reference_read_word_file(path):
    words = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        entry = line.split("#", 1)[0].strip()
        if entry:
            words.append(entry)
    return words


def reference_load_stopwords(path):
    """Stopword file: UTF-8, one word per line, '#' starts a comment."""
    return frozenset(w.lower() for w in _reference_read_word_file(path))


def reference_load_lexicon(path):
    """Lexicon file: one word per line, syllables joined by '_' or spaces."""
    return frozenset(w.lower().replace(" ", "_") for w in _reference_read_word_file(path))


def _reference_predict_indexed(index, question, options, cfg):
    zeros = (0.0, 0.0, 0.0, 0.0)
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
    best = 0
    for i in range(1, 4):
        if final[i] > final[best]:
            best = i
    return ScoreBreakdown(sw=sw, dist=dist, web=web, final=final, predicted=best,
                          method=cfg.method)


def reference_clean(sentence, stopwords, segmenter):
    """One sentence cleaned the way `preprocess_sentence` did it before a
    sentence was lowercased whole: `reference_tokenize`, a token dropped
    when its lowercase is a stopword, then every token lowercased on its
    own and segmented."""
    tokens = [t for t in reference_tokenize(sentence, DEFAULT_PUNCTUATION)
              if t.lower() not in stopwords]
    return segmenter([t.lower() for t in tokens])


def reference_evaluate(dataset, split, cfg, store=None):
    """One method's report, the way `evaluate` made it before the methods
    of a comparison shared one pass: its own pre-processing, its own
    `ReferenceTextIndex` of each text and each option's component scores
    on their own. Texts, stems and options are
    cleaned by `reference_split_sentences` and `reference_clean`, with a
    `ReferenceDictionarySegmenter` over the config segmenter's lexicon.
    `question_length` counts the raw stem cleaned with no stopwords."""
    subset = filter_dataset(dataset, split=split)
    need_store = store if cfg.method == "sw_d_web" else None
    segmenter = ReferenceDictionarySegmenter(cfg.preprocess.segmenter.lexicon)
    stopwords = frozenset(w.lower() for w in cfg.preprocess.stopwords)

    def clean(sentence):
        return reference_clean(sentence, stopwords, segmenter)

    indexes = {t.id: ReferenceTextIndex(ProcessedText(tuple(
                   w for s in reference_split_sentences(t.body) for w in clean(s))), need_store)
               for t in subset.texts}
    grades = {t.id: t.grade for t in subset.texts}
    rng = random.Random(cfg.random_seed) if cfg.method == "random" else None
    records = []
    for q in subset.questions:
        question_words = clean(q.stem)
        option_words = [clean(o) for o in q.options]
        if rng is not None:
            zeros = (0.0, 0.0, 0.0, 0.0)
            breakdown = ScoreBreakdown(sw=zeros, dist=zeros, web=zeros, final=zeros,
                                       predicted=rng.randrange(4), method=cfg.method)
        else:
            breakdown = _reference_predict_indexed(indexes[q.text_id], question_words,
                                                   option_words, cfg)
        records.append(PredictionRecord(
            question_id=q.id, predicted=breakdown.predicted, gold=q.gold,
            correct=breakdown.predicted == q.gold, breakdown=breakdown,
            question_length=len(reference_clean(q.stem, frozenset(), segmenter)),
            grade=grades[q.text_id], reasoning_type=q.reasoning_type,
        ))
    config = {"method": cfg.method, "distance_aggregation": cfg.distance_aggregation,
              "random_seed": cfg.random_seed, "split": split}
    accuracy = sum(r.correct for r in records) / len(records)
    return EvaluationReport(config=config, records=tuple(records), accuracy=accuracy)


def report_dict(report):
    """A report as the dict that `render_report(report, "json")` writes,
    which is `json.dumps(..., ensure_ascii=False, sort_keys=True, indent=2)`
    of it and a newline: the report's JSON as it was built before records
    were written from a template."""
    return {
        "config": report.config,
        "accuracy": report.accuracy,
        "records": [{
            "question_id": r.question_id,
            "predicted": r.predicted,
            "gold": r.gold,
            "correct": r.correct,
            "breakdown": {
                "sw": r.breakdown.sw, "dist": r.breakdown.dist, "web": r.breakdown.web,
                "final": r.breakdown.final, "predicted": r.breakdown.predicted,
                "method": r.breakdown.method,
            },
            "question_length": r.question_length,
            "grade": r.grade,
            "reasoning_type": r.reasoning_type,
        } for r in report.records],
    }


# The scoring index and the `web` kernel as they were before integer token
# ids, the per-width cache of window means and the per-text batches of `sw`
# and `d`.

class ReferenceTextIndex:
    """`TextIndex` as it was before integer token ids and before a text's
    options were scored in one batch: per-token Python loops for the
    log-weights, positions and prefix sums, a generator for each `sw` mask,
    the `sw` and `d` arithmetic of one option at a time, and every window
    mean formed again on each `boost`.

    Per-text arrays the scorers share: token log-weights, occurrence
    positions, and (when an embedding store is given) prefix sums of the
    per-token vectors for span averaging."""

    def __init__(self, text: ProcessedText, store: EmbeddingStore | None = None):
        self.text = text
        self.tokens = text.flat
        self.counts = dict(Counter(text.flat))
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
                row = store.row_ids([tok])[0]
                vec = None if row < 0 else store.rows([row])[0]
                vec_prefix[i + 1] = vec_prefix[i] if vec is None else vec_prefix[i] + vec
                cnt_prefix[i + 1] = cnt_prefix[i] + (0 if vec is None else 1)
            self.vec_prefix = vec_prefix
            self.cnt_prefix = cnt_prefix
        else:
            self.vec_prefix = None
            self.cnt_prefix = None

    def window_score(self, word_set: frozenset[str] | set[str]) -> float:
        """One option's `sw`, as it was scored before a text's options were
        batched: the running sums of its own weights from +0.0, and the
        best difference of them `len(word_set)` apart."""
        n = len(self.tokens)
        if not word_set or n == 0:
            return 0.0
        mask = np.fromiter((tok in word_set for tok in self.tokens), dtype=bool, count=n)
        weights = np.where(mask, self.log_weights, 0.0)
        width = min(len(word_set), n)
        prefix = np.concatenate(([0.0], np.cumsum(weights)))
        return float((prefix[width:] - prefix[:-width]).max())

    def distance(self, question_words: set[str], option_words: set[str], aggregation: str) -> float:
        """One option's `d`, as it was scored before a text's options were
        batched: the extreme of the matrix of |p - q| over all position
        pairs, same-position pairs skipped."""
        n = len(self.tokens)
        if n <= 1:
            return 1.0
        sq = [w for w in question_words if w in self.positions]
        so = [w for w in option_words if w in self.positions]
        if not sq or not so:
            return 1.0
        pos_q = np.concatenate([self.positions[w] for w in sorted(sq)])
        pos_o = np.concatenate([self.positions[w] for w in sorted(so)])
        dist = np.abs(pos_q[:, None] - pos_o[None, :])
        valid = dist > 0
        if not valid.any():
            return 1.0
        extreme = dist[valid].max() if aggregation == "max" else dist[valid].min()
        return float(extreme) / (n - 1)

    def boost(self, option: WordList) -> float:
        if self.store is None:
            raise ValueError("text index was built without an embedding store")
        if not option or not self.tokens:
            return 0.0
        target = reference_average_embedding(self.store, option)
        if target is None:
            return 0.0
        return reference_max_window_cosine(self.vec_prefix, self.cnt_prefix, target, len(option))


def reference_max_window_cosine(
    vec_prefix: np.ndarray,
    cnt_prefix: np.ndarray,
    target: np.ndarray,
    width: int,
) -> float:
    """The `web` kernel as it was before the window means were cached:
    every window mean of the text is formed again on each call.

    Best cosine between `target` and the mean vector of any window.

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
