"""Read-only word-vector store plus the span-similarity primitives.

Vector files are word2vec-style UTF-8 text: an optional "count dim" header
line followed by one "word c1 ... cd" row per word. Vocabulary lookups are
exact; words missing from the store are skipped when averaging spans.
"""

from __future__ import annotations

import io
import os
import signal
import struct
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, NoReturn, Sequence

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


# the smallest byte range worth a process of its own
MIN_CHUNK_BYTES = 4 << 20

# what a child sends ahead of its words and rows: rows, columns, word bytes
_CHUNK_HEAD = struct.Struct("=3q")


def usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def load_embeddings(path: str | Path) -> EmbeddingStore:
    """Parse a text vector file into a store.

    The header line is optional; without one the dimension is inferred from
    the first row. The first occurrence of a duplicated word wins. Components
    follow `np.loadtxt`'s number grammar, and the rows of each chunk of the
    file are converted in one pass of it. A file is cut at line ends into
    one chunk per usable CPU, each of at least `MIN_CHUNK_BYTES`; the first
    chunk is parsed in this process and each other one in a forked child
    (`_parse_chunks`). When the file is one chunk, or any chunk fails, the
    whole file is parsed in this process; when that fails, its rows are
    parsed again one by one with the same parser, to report the first bad
    row by line number. A malformed file of several chunks is therefore
    parsed twice.
    """
    path = Path(path)
    parsed = _parse_chunks(path, _cut_points(path))
    if parsed is None:
        parsed = _parse_file(path)
    dim, words, matrix = parsed
    if not words:
        if dim is None:
            raise EmbeddingFormatError(f"{path}: empty vector file")
        return EmbeddingStore.from_rows(dim, [], np.zeros((0, dim)))
    first = dict(zip(reversed(words), range(len(words) - 1, -1, -1)))  # word -> its first row
    if len(first) < len(words):
        keep = sorted(first.values())
        words = [words[i] for i in keep]
        matrix = matrix[keep]
    return EmbeddingStore.from_rows(matrix.shape[1], words, matrix)


def _cut_points(path: Path) -> list[int]:
    """The byte offsets that bound the chunks, from 0 to the file size. A
    cut falls right after a newline byte, which under universal newlines is
    always a line end (a CR LF pair is never split). The file is one
    chunk when it is small, has no cut point, `os.fork` is missing or
    another Python thread is alive (a fork would copy its held locks)."""
    with path.open("rb") as raw:
        size = os.fstat(raw.fileno()).st_size
        cuts = [0]
        k = min(usable_cpus(), size // MIN_CHUNK_BYTES)
        if k > 1 and hasattr(os, "fork") and threading.active_count() == 1:
            for i in range(1, k):
                raw.seek(size * i // k)
                raw.readline()
                if cuts[-1] < raw.tell() < size:
                    cuts.append(raw.tell())
    return cuts + [size]


def _read_lines(
    handle: Iterable[str], path: Path, first: bool
) -> tuple[int | None, list[int], list[str], list[str]]:
    """The line pass over one chunk: the header's dimension, read only from
    line 1 of the first chunk, then the line number within the chunk, the
    word and the components, as text, of every row. Blank lines are
    skipped."""
    dim: int | None = None
    linenos: list[int] = []
    words: list[str] = []
    rests: list[str] = []
    for lineno, line in enumerate(handle, start=1):
        parts = line.split(None, 1)
        if not parts:
            continue
        if lineno == 1 and first:
            header = line.split()
            if len(header) == 2 and _is_int(header[0]) and _is_int(header[1]):
                dim = int(header[1])
                if dim <= 0:
                    raise EmbeddingFormatError(f"{path}:1: non-positive dimension in header")
                continue
        linenos.append(lineno)
        words.append(parts[0])
        rests.append(parts[1] if len(parts) == 2 else "")
    return dim, linenos, words, rests


def _parse_file(path: Path) -> tuple[int | None, list[str], np.ndarray | None]:
    """The header's dimension, the words and their rows of the whole file,
    parsed in this process; raises for the first bad row."""
    with path.open(encoding="utf-8") as handle:
        dim, linenos, words, rests = _read_lines(handle, path, first=True)
    if not rests:
        return dim, [], None
    matrix = _parse_rows(rests)
    if (
        matrix is None
        or matrix.shape != (len(rests), dim or matrix.shape[1])
        or not np.isfinite(matrix).all()
    ):
        raise _first_bad_row(path, linenos, rests, dim)
    return dim, words, matrix


def _read_chunk(
    path: Path, start: int, stop: int
) -> tuple[int | None, list[str], np.ndarray | None]:
    """The header's dimension, the words and their rows of the bytes
    [start, stop) of the file, decoded as the whole file is; the rows are
    None when they do not parse together, one per word."""
    with path.open("rb") as raw:
        raw.seek(start)
        chunk = io.BytesIO(raw.read(stop - start))
    with io.TextIOWrapper(chunk, encoding="utf-8") as handle:
        dim, _, words, rests = _read_lines(handle, path, first=start == 0)
    rows = _parse_rows(rests) if rests else np.zeros((0, 0))
    return dim, words, rows if rows is not None and len(rows) == len(words) else None


def _parse_chunks(path: Path, cuts: list[int]) -> tuple[int | None, list[str], np.ndarray] | None:
    """The header's dimension, the words and their rows of a file of
    several chunks, or None when it is one chunk or any chunk fails.

    Each chunk after the first is parsed in a forked child, which sends its
    words and float64 rows through a pipe (`_send_chunk`); this process
    parses the first chunk meanwhile, then reads each child's rows into one
    matrix in file order. Every child has been reaped when this returns.
    """
    if len(cuts) < 3:
        return None
    pipes: list[io.BufferedReader] = []
    pids: list[int] = []
    done = False
    try:
        for start, stop in zip(cuts[1:-1], cuts[2:]):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _send_chunk(path, start, stop, write)
            finally:
                os.close(write)  # this process's end; `_send_chunk` never returns
            pids.append(pid)
        dim, words, head_rows = _read_chunk(path, cuts[0], cuts[1])
        if head_rows is None:
            return None
        shapes = [head_rows.shape]
        for pipe in pipes:
            head = pipe.read(_CHUNK_HEAD.size)
            if len(head) < _CHUNK_HEAD.size:  # the child failed
                return None
            shapes.append(_CHUNK_HEAD.unpack(head))
        widths = {shape[1] for shape in shapes if shape[0]}
        if len(widths) > 1 or (dim is not None and widths - {dim}):
            return None
        matrix = np.empty((sum(shape[0] for shape in shapes), widths.pop() if widths else 0))
        lo = len(words)
        if lo:
            matrix[:lo] = head_rows
        del head_rows
        for pipe, (rows, _, size) in zip(pipes, shapes[1:]):
            names = pipe.read(size)
            block = matrix[lo:lo + rows]
            if len(names) < size or pipe.readinto(block) < block.nbytes:
                return None
            if rows:
                words.extend(names.decode("utf-8").split("\n"))
            lo += rows
        if len(words) != lo or not np.isfinite(matrix).all():
            return None
        done = True
        return dim, words, matrix
    except (OSError, ValueError):  # a decode error, a bad header, no fork
        return None
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if not done:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _send_chunk(path: Path, start: int, stop: int, write: int) -> NoReturn:
    """In a forked child: parse the bytes [start, stop) of the file, write
    the row count, the width, the words (newline-joined UTF-8; a word holds no
    whitespace) and the float64 rows to the pipe `write`, then exit. A chunk
    that fails writes nothing. Runs only the parser: no BLAS, no import."""
    code = 1
    try:
        _, words, matrix = _read_chunk(path, start, stop)
        if matrix is not None:
            names = "\n".join(words).encode("utf-8")
            with open(write, "wb") as out:
                out.write(_CHUNK_HEAD.pack(*matrix.shape, len(names)))
                out.write(names)
                out.write(matrix)
            code = 0
    finally:
        os._exit(code)


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

    Summation runs in sorted word order: each row, scaled by its count, is
    added in turn to a zero row by one cumulative sum (`np.add.accumulate`,
    which `np.cumsum` calls; not the pairwise `np.sum`), so the result is
    bitwise identical for any permutation of the span.
    """
    index = store._index
    counts = Counter(w for w in words if w in index)
    if not counts:
        return SpanVector(vector=np.zeros(store.dim), support=0)
    order = sorted(counts)
    terms = np.zeros((len(order) + 1, store.dim))
    np.multiply(store.matrix.take([index[w] for w in order], axis=0),
                np.array([counts[w] for w in order], dtype=np.float64)[:, None], out=terms[1:])
    found = sum(counts.values())
    return SpanVector(vector=np.add.accumulate(terms)[-1] / found, support=found)


def cosine_similarity(u: SpanVector, v: SpanVector) -> float | None:
    """Cosine of the two span vectors, or None when either has zero norm
    (including empty support). Callers treat None as similarity 0."""
    nu = float(np.sqrt(u.vector @ u.vector))
    nv = float(np.sqrt(v.vector @ v.vector))
    if nu == 0.0 or nv == 0.0:
        return None
    return float((u.vector @ v.vector) / (nu * nv))
