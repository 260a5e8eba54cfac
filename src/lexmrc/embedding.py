"""Read-only word-vector store plus the span-similarity primitives.

Vector files are word2vec-style UTF-8 text: an optional "count dim" header
line followed by one "word c1 ... cd" row per word. Vocabulary lookups are
exact; words missing from the store are skipped when averaging spans.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "EmbeddingFormatError",
    "EmbeddingStore",
    "SpanVector",
    "average_embedding",
    "cosine_similarity",
    "load_embeddings",
]


class EmbeddingFormatError(ValueError):
    """Raised when a vector file cannot be parsed."""


@dataclass(frozen=True, eq=False)
class SpanVector:
    """Mean embedding of a word span: the vector plus how many words of the
    span were actually found in the store (0 means a zero vector)."""

    vector: np.ndarray
    support: int


class EmbeddingStore:
    """Immutable word -> dense vector table of fixed dimension."""

    def __init__(self, dim: int, vectors: Mapping[str, Sequence[float]] | None = None):
        if dim <= 0:
            raise ValueError("embedding dimension must be positive")
        self.dim = dim
        self._index: dict[str, int] = {}
        rows = []
        for word, vec in (vectors or {}).items():
            arr = np.asarray(vec, dtype=np.float64)
            if arr.shape != (dim,):
                raise ValueError(f"vector for {word!r} has shape {arr.shape}, expected ({dim},)")
            if not np.isfinite(arr).all():
                raise ValueError(f"vector for {word!r} has non-finite components")
            if word not in self._index:
                self._index[word] = len(rows)
                rows.append(arr)
        self._matrix = np.vstack(rows) if rows else np.zeros((0, dim))

    @classmethod
    def from_rows(cls, dim: int, words: list[str], matrix: np.ndarray) -> "EmbeddingStore":
        store = cls.__new__(cls)
        store.dim = dim
        store._index = {w: i for i, w in enumerate(words)}
        store._matrix = matrix
        return store

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def __iter__(self):
        return iter(self._index)

    def get(self, word: str) -> np.ndarray | None:
        """Vector for `word`, or None when the word is unknown (a stored
        zero vector and a missing word are distinguishable)."""
        row = self._index.get(word)
        if row is None:
            return None
        return self._matrix[row]

    def row_index(self, word: str) -> int | None:
        return self._index.get(word)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    def multi_syllable_words(self) -> frozenset[str]:
        """Vocabulary entries usable as a segmentation lexicon."""
        return frozenset(w for w in self._index if "_" in w)


def load_embeddings(path: str | Path) -> EmbeddingStore:
    """Parse a text vector file into a store.

    The header line is optional; without one the dimension is inferred from
    the first row. The first occurrence of a duplicated word wins. Components
    follow `np.loadtxt`'s number grammar, and every row is converted in one
    pass of it. When a file fails that pass, its rows are parsed again one
    by one with the same parser, to report the first bad row by line number.
    """
    path = Path(path)
    dim: int | None = None
    linenos: list[int] = []
    words: list[str] = []
    rests: list[str] = []  # the components of each row, as text
    with path.open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            parts = line.split(None, 1)
            if not parts:
                continue
            if lineno == 1:
                header = line.split()
                if len(header) == 2 and _is_int(header[0]) and _is_int(header[1]):
                    dim = int(header[1])
                    if dim <= 0:
                        raise EmbeddingFormatError(f"{path}:1: non-positive dimension in header")
                    continue
            linenos.append(lineno)
            words.append(parts[0])
            rests.append(parts[1] if len(parts) == 2 else "")
    if not rests:
        if dim is None:
            raise EmbeddingFormatError(f"{path}: empty vector file")
        return EmbeddingStore.from_rows(dim, [], np.zeros((0, dim)))
    matrix = _parse_rows(rests)
    if (
        matrix is None
        or matrix.shape != (len(rests), dim or matrix.shape[1])
        or not np.isfinite(matrix).all()
    ):
        raise _first_bad_row(path, linenos, rests, dim)
    first = dict(zip(reversed(words), range(len(words) - 1, -1, -1)))  # word -> its first row
    if len(first) < len(words):
        keep = sorted(first.values())
        words = [words[i] for i in keep]
        matrix = matrix[keep]
    return EmbeddingStore.from_rows(matrix.shape[1], words, matrix)


def _parse_rows(rests: list[str]) -> np.ndarray | None:
    """Whitespace-separated numbers, one row per string, as a 2-d array;
    None when a component is not a number or the rows differ in length."""
    if "" in rests:  # np.loadtxt would skip the row
        return None
    try:
        return np.loadtxt(rests, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None


def _first_bad_row(
    path: Path, linenos: list[int], rests: list[str], dim: int | None
) -> EmbeddingFormatError:
    """The error for the first row, in file order, that is not numeric, not
    finite, or not of the file's dimension (the header's, else the first
    row's)."""
    for lineno, rest in zip(linenos, rests):
        row = _parse_rows([rest]) if rest else np.zeros((1, 0))
        if row is None:
            problem = "non-numeric vector component"
        elif not np.isfinite(row).all():
            problem = "non-finite vector component"
        elif dim is None and row.shape[1] == 0:
            problem = "row has no vector components"
        else:
            if dim is None:
                dim = row.shape[1]
            if row.shape[1] == dim:
                continue
            problem = f"expected {dim} components, found {row.shape[1]}"
        return EmbeddingFormatError(f"{path}:{lineno}: {problem}")
    raise AssertionError("the rows parse one by one but not together")


def _is_int(token: str) -> bool:
    try:
        int(token)
        return True
    except ValueError:
        return False


def average_embedding(store: EmbeddingStore, words: Iterable[str]) -> SpanVector:
    """Arithmetic mean of the vectors of the in-vocabulary words. An empty
    or fully out-of-vocabulary span yields support 0 and the zero vector.

    Summation runs in sorted word order so the result is bitwise identical
    for any permutation of the span.
    """
    counts = Counter(w for w in words if w in store)
    total = np.zeros(store.dim)
    found = 0
    for word in sorted(counts):
        total += counts[word] * store.get(word)
        found += counts[word]
    if found == 0:
        return SpanVector(vector=total, support=0)
    return SpanVector(vector=total / found, support=found)


def cosine_similarity(u: SpanVector, v: SpanVector) -> float | None:
    """Cosine of the two span vectors, or None when either has zero norm
    (including empty support). Callers treat None as similarity 0."""
    nu = float(np.sqrt(u.vector @ u.vector))
    nv = float(np.sqrt(v.vector @ v.vector))
    if nu == 0.0 or nv == 0.0:
        return None
    return float((u.vector @ v.vector) / (nu * nv))
