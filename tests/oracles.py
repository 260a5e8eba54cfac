"""Brute-force reference implementations used to cross-check the scorers.

Everything here is deliberately naive pure Python: windows are enumerated
one by one, pair distances come from a double loop, and span means are
computed with list arithmetic. Nothing is shared with the package code
but `reference_load_embeddings`' error class and the store it fills.
"""

import math
import random
from pathlib import Path

import numpy as np

from lexmrc.embedding import EmbeddingFormatError, EmbeddingStore


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


def reference_load_embeddings(path):
    """The vector-file loader as it was before the one-pass parse: every row
    split into strings and converted on its own, with Python's `float`
    grammar."""
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
            if word in index:
                continue
            index[word] = len(rows)
            words.append(word)
            rows.append(vec)
    if dim is None:
        raise EmbeddingFormatError(f"{path}: empty vector file")
    matrix = np.vstack(rows) if rows else np.zeros((0, dim))
    return EmbeddingStore.from_rows(dim, words, matrix)


def _is_int(token):
    try:
        int(token)
        return True
    except ValueError:
        return False
