"""Read-only word-vector store plus the span averaging that `web` scores with.

Vector files are word2vec-style UTF-8 text: an optional "count dim" header
line followed by one "word c1 ... cd" row per word. A loaded store converts
a row's components when a lookup first needs them, into one row matrix
that a lookup of many rows reads in one gather. Vocabulary lookups are
exact; words missing from the store are skipped when averaging spans,
and `average_embedding` averages all the spans of a text (its options)
in one call.
"""

from __future__ import annotations

import os
import threading
from array import array
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .preprocess import Lexicon

__all__ = [
    "EmbeddingFormatError",
    "EmbeddingStore",
    "average_embedding",
    "file_stamp",
    "load_embeddings",
]


class EmbeddingFormatError(ValueError):
    """Raised when a vector file cannot be parsed."""


def file_stamp(file: str | Path | int) -> tuple[int, int, int, int]:
    """Size, modification and change time and inode of a file, named by
    its path or an open descriptor. The change time and the inode catch a
    same-size rewrite whose modification time was set back (`cp -p`,
    `touch -r`)."""
    st = os.stat(file)
    return st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino


@dataclass(frozen=True, eq=False)
class _RowSource:
    """Where the rows of a loaded store are: the vector file, its stamp at
    load, and the byte offset, byte length (without the line end) and line
    number of each kept row, in row id order."""

    path: Path
    stamp: tuple[int, int, int, int]
    starts: np.ndarray
    sizes: np.ndarray
    linenos: np.ndarray

    def read(self, ids: np.ndarray, dim: int | None) -> np.ndarray:
        """Rows `ids` (ascending, distinct) converted in one `np.loadtxt`
        pass. Raises for the first bad one of them, by line number, and
        for a file whose stamp is not the one it was loaded with, so rows
        of two files never mix."""
        rests = []
        with open(self.path, "rb", buffering=0) as raw:
            if file_stamp(raw.fileno()) != self.stamp:
                raise EmbeddingFormatError(f"{self.path}: file changed since it was loaded")
            for start, size in zip(self.starts[ids].tolist(), self.sizes[ids].tolist()):
                raw.seek(start)
                parts = raw.read(size).decode("utf-8").split(None, 1)
                rests.append(parts[1] if len(parts) == 2 else "")
        matrix = _parse_rows(rests)
        if (
            matrix is None
            or matrix.shape != (len(rests), dim or matrix.shape[1])
            or not np.isfinite(matrix).all()
            or _norm_overflows(matrix)
        ):
            raise _first_bad_row(self.path, self.linenos[ids].tolist(), rests, dim)
        return matrix


class EmbeddingStore:
    """Immutable word -> dense vector table of fixed dimension over a vector
    file that `load_embeddings` scanned: `_index` gives each word's row id,
    `_source` where each row is, and `_slots` the slot of each converted
    row in the row matrix `_matrix` (-1 for a row not converted yet). Row
    0, whose width is the dimension, is converted from the start; any
    other row from when `convert` or `rows` first asks for it. The matrix
    grows geometrically, so its capacity stays within twice the converted
    rows."""

    def __init__(self, source: _RowSource, index: dict[str, int], first_row: np.ndarray):
        self.dim = first_row.shape[0]
        self._source = source
        self._index = index
        self._slots = np.full(len(index), -1, dtype=np.int32)
        self._slots[0] = 0
        self._matrix = first_row.reshape(1, self.dim)
        self._converted = 1
        self._lock = threading.Lock()
        self._lexicon: Lexicon | None = None

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def __iter__(self):
        return iter(self._index)

    def row_ids(self, words: Iterable[str]) -> np.ndarray:
        """The row id of each of `words`, -1 for a word the store does not
        know, as one array."""
        return np.fromiter(map(self._index.get, words, repeat(-1)), dtype=np.intp)

    def convert(self, ids: Iterable[int]) -> None:
        """Convert the rows of row ids `ids` that are not converted yet, in
        one pass over them in ascending order; a bad one raises
        `EmbeddingFormatError` and leaves the store as it was."""
        ids = _id_array(ids)
        with self._lock:  # threads sharing the store convert one at a time
            # not np.unique, whose first call imports numpy.ma
            todo = np.array(sorted(set(ids[self._slots[ids] < 0].tolist())), dtype=np.intp)
            if not todo.size:
                return
            rows = self._source.read(todo, self.dim)
            start, stop = self._converted, self._converted + todo.size
            if stop > self._matrix.shape[0]:
                matrix = np.empty((max(stop, 2 * self._matrix.shape[0]), self.dim))
                matrix[:start] = self._matrix[:start]
                self._matrix = matrix
            self._matrix[start:stop] = rows
            self._slots[todo] = np.arange(start, stop)
            self._converted = stop

    def rows(self, ids: Iterable[int]) -> np.ndarray:
        """The vectors of row ids `ids`, in order, as one array, after
        `convert(ids)`."""
        ids = _id_array(ids)
        self.convert(ids)
        return self._matrix[self._slots[ids]]

    def multi_syllable_words(self) -> Lexicon:
        """The vocabulary entries that hold a "_", as a segmentation
        lexicon, built at the first call and then kept: segmenters built
        from one store share its `Lexicon` and its run prefixes."""
        if self._lexicon is None:
            self._lexicon = Lexicon(w for w in self._index if "_" in w)
        return self._lexicon


def _id_array(ids: Iterable[int]) -> np.ndarray:
    return ids if isinstance(ids, np.ndarray) else np.fromiter(ids, dtype=np.intp)


def load_embeddings(path: str | Path) -> EmbeddingStore:
    """Read a text vector file's words into a store that converts each
    row when it is first looked up (`EmbeddingStore.convert`).

    The load keeps, for the first occurrence of each word, the byte range
    and line number of its row; a later duplicate is dropped unread. Lines
    end at "\n", "\r\n" or a bare "\r", as under universal newlines. The
    file is read in blocks of whole lines of about `_BLOCK` bytes. A plain
    block (`_scan_plain`), whose lines end in "\n" or "\r\n", has its
    lines found by numpy and only its words decoded; line 1 and every
    other block go line by line through `_scan_lines`, which decodes each
    line as UTF-8, so a decode error anywhere raises here. A file with no
    row is empty, with or without the optional header line. The first row is converted here: its width is
    the dimension, and it must match the header's when there is one.
    Components follow `np.loadtxt`'s number grammar, and every other row
    is checked when it is converted: a bad row that no lookup reaches
    never raises.
    """
    path = Path(path)
    scan = _Scan(path)
    with path.open("rb") as handle:
        stamp = file_stamp(handle.fileno())
        _scan_lines(scan, _to_line_end(handle, b""))
        while block := handle.read(_BLOCK):
            if not block.endswith(b"\n"):
                block = _to_line_end(handle, block)
            if not _scan_plain(scan, block):
                _scan_lines(scan, block)
    if not scan.index:
        raise EmbeddingFormatError(f"{path}: empty vector file")
    source = _RowSource(path, stamp, *(np.frombuffer(a, dtype=np.int64)
                                       for a in (scan.starts, scan.sizes, scan.linenos)))
    first = source.read(np.zeros(1, dtype=np.intp), scan.dim)
    return EmbeddingStore(source, scan.index, first[0])


# bytes read at a time; a block then runs on to the end of its last line
_BLOCK = 1 << 18
# in a plain block every word ends at a space within this many bytes of its line start
_WIDTH = 64


def _to_line_end(handle, data: bytes) -> bytes:
    """`data`, just read from `handle`, run on through the end of its line:
    the next "\n" or "\r", with the "\n" of a "\r\n", or the end of the
    file. Nothing past that is read, so a file whose lines end in a bare
    "\r" is read in blocks of about `_BLOCK` bytes too."""
    while not data.endswith((b"\n", b"\r")) and (ahead := handle.peek()):
        ends = [i for i in (ahead.find(b"\n"), ahead.find(b"\r")) if i >= 0]
        data += handle.read(min(ends) + 1 if ends else len(ahead))
    if data.endswith(b"\r") and handle.peek(1)[:1] == b"\n":
        data += handle.read(1)
    return data


class _Scan:
    """How far a load of the vector file `path` has read: the header's
    dimension, the lines and bytes read, and, for the first row of each
    word, its row id, byte offset, byte length and line number (as
    `_RowSource` keeps them)."""

    def __init__(self, path: Path):
        self.path = path
        self.dim: int | None = None
        self.lineno = self.pos = 0
        self.index: dict[str, int] = {}
        self.starts, self.sizes, self.linenos = array("q"), array("q"), array("q")


def _scan_lines(scan: _Scan, data: bytes) -> None:
    """Add the lines of `data`, whole lines starting where `scan` stopped,
    one by one: `data` is split at "\n", "\r\n" and a bare "\r" (which
    never occurs inside a UTF-8 sequence), each line is decoded as UTF-8
    and split with `str.split(None, 1)`, blank lines are skipped, and line
    1 is the header when it is two integers. This is the one definition of
    the format that `_scan_plain` follows."""
    index, starts, sizes, linenos = scan.index, scan.starts, scan.sizes, scan.linenos
    lineno, pos = scan.lineno, scan.pos
    for raw in data.splitlines(keepends=True):
        start, pos, lineno = pos, pos + len(raw), lineno + 1
        line = raw.rstrip(b"\r\n")
        text = line.decode()  # UTF-8
        parts = text.split(None, 1)
        if not parts:
            continue
        if lineno == 1:
            header = text.split()
            if len(header) == 2 and _is_int(header[0]) and _is_int(header[1]):
                scan.dim = int(header[1])
                if scan.dim <= 0:
                    raise EmbeddingFormatError(
                        f"{scan.path}:1: non-positive dimension in header")
                continue
        if parts[0] not in index:
            index[parts[0]] = len(starts)
            starts.append(start)
            sizes.append(len(line))
            linenos.append(lineno)
    scan.lineno, scan.pos = lineno, pos


def _scan_plain(scan: _Scan, block: bytes) -> bool:
    """Add `block`, whole lines after line 1 starting where `scan` stopped,
    and return True, when it is plain; else add nothing and return False.
    In a plain block every line ends in "\n" or "\r\n" and has no other
    byte below 0x20. It starts with a word that ends at a space within
    `_WIDTH` bytes, decodes as UTF-8 and holds no whitespace that `str.split`
    knows; the rest of the line is ASCII. No word repeats or is already in
    the store. Each line then has the word, byte range and line number
    that `_scan_lines` would give it, and only the words are decoded."""
    padded = block + b" " * _WIDTH  # a full window at every line start
    data = np.frombuffer(padded, dtype=np.uint8)
    odd = np.flatnonzero(data.view(np.int8) < 0x20)  # each byte below 0x20 or from 0x80
    odd_bytes = data[odd]
    ends = odd[odd_bytes == 0x0A]
    n = ends.size
    if n == 0 or ends[-1] != len(block) - 1:
        return False
    crs = odd[odd_bytes == 0x0D]
    if crs.size and (data[crs + 1] != 0x0A).any():  # a bare "\r" ends a line too
        return False
    firsts = np.concatenate(([0], ends[:-1] + 1))
    # row i is the _WIDTH bytes from offset i
    windows = np.ndarray((len(block), _WIDTH), np.uint8, padded, strides=(1, 1))[firsts]
    stops = (windows <= 0x20).argmax(axis=1)  # the first space or control byte of each line
    if not stops.all() or (data[firsts + stops] != 0x20).any():
        return False
    spelled = windows[np.arange(_WIDTH) <= stops[:, None]]  # each word and its space
    # no byte below 0x20 but line ends, and every byte from 0x80 in a word
    if np.count_nonzero(spelled >= 0x80) != odd.size - n - crs.size:
        return False
    try:
        text = spelled.tobytes().decode()
    except UnicodeDecodeError:
        return False
    words = text.split(" ")
    words.pop()
    # every character `str.split` splits at, but the space, is unprintable
    if not (text.isprintable() or words == text.split()):
        return False
    index = scan.index
    if not index.keys().isdisjoint(words):
        return False
    k = len(index)
    index.update(zip(words, range(k, k + n)))
    if len(index) != k + n:  # a word repeats in the block
        for word in words:
            index.pop(word, None)
        return False
    linenos = np.arange(scan.lineno + 1, scan.lineno + n + 1, dtype=np.int64)
    scan.starts.frombytes((firsts + scan.pos).astype(np.int64).tobytes())
    sizes = ends - firsts
    if crs.size:  # a row stops before the "\r" of its "\r\n"
        sizes -= data[ends - 1] == 0x0D
    scan.sizes.frombytes(sizes.astype(np.int64).tobytes())
    scan.linenos.frombytes(linenos.tobytes())
    scan.lineno += n
    scan.pos += len(block)
    return True


def _parse_rows(rests: list[str]) -> np.ndarray | None:
    """Whitespace-separated numbers, one row per string, as a 2-d array;
    None when a component is not a number or the rows differ in length."""
    if "" in rests:  # np.loadtxt would skip the row
        return None
    try:
        return np.loadtxt(rests, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None


def _norm_overflows(rows: np.ndarray) -> bool:
    """Whether the squared norm of a row of `rows` is not finite (`einsum`
    raises no floating-point warning). No mean of rows that pass has a
    larger squared norm than its largest row, so `web`'s cosines stay
    finite."""
    return not np.isfinite(np.einsum("ij,ij->i", rows, rows)).all()


def _first_bad_row(
    path: Path, linenos: list[int], rests: list[str], dim: int | None
) -> EmbeddingFormatError:
    """The error for the first row, in file order, that is not numeric, not
    finite, not of the file's dimension `dim`, or too large for its squared
    norm to be finite: `dim` is None only when the first row is read alone,
    which then fails only for being bad or empty."""
    for lineno, rest in zip(linenos, rests):
        row = _parse_rows([rest]) if rest else np.zeros((1, 0))
        if row is None:
            problem = "non-numeric vector component"
        elif not np.isfinite(row).all():
            problem = "non-finite vector component"
        elif dim is None and row.shape[1] == 0:
            problem = "row has no vector components"
        elif dim is not None and row.shape[1] != dim:
            problem = f"expected {dim} components, found {row.shape[1]}"
        elif _norm_overflows(row):
            problem = "vector too large (its squared norm overflows)"
        else:
            continue
        return EmbeddingFormatError(f"{path}:{lineno}: {problem}")
    raise AssertionError("the rows parse one by one but not together")


def _is_int(token: str) -> bool:
    try:
        int(token)
        return True
    except ValueError:
        return False


def average_embedding(
    store: EmbeddingStore, spans: Sequence[Iterable[str]]
) -> tuple[np.ndarray, np.ndarray]:
    """The arithmetic mean of the vectors of each span's in-vocabulary
    words, as the rows of one (spans, dim) array, and which spans have a
    word the store knows, as a bool array; the row of a span with none is
    zero.

    Each span's distinct known words are summed in sorted word order:
    each row, scaled by its count, is added in turn to a +0.0 row, so a
    span's mean is bitwise identical for any permutation of it. The rows
    of all spans are gathered in one `store.rows` into a (position, span,
    dim) array and summed one position at a time, one add for all spans
    (a cumulative sum along axis 0 makes the same adds but runs them lane
    by lane, about 9x slower). A span with fewer words is padded with
    +0.0 rows, which leave its running sum unchanged (a sum that starts at
    +0.0 is never -0.0), so every span gets the float it gets alone.
    """
    index = store._index
    ids: list[int] = []
    counts: list[int] = []
    distinct: list[int] = []
    totals: list[int] = []
    for words in spans:
        known = [w for w in words if w in index]
        order = sorted(set(known))
        ids += map(index.__getitem__, order)
        counts += map(known.count, order)
        distinct.append(len(order))
        totals.append(len(known))
    sizes = np.array(distinct, dtype=np.intp)
    span_of = np.repeat(np.arange(len(sizes)), sizes)
    # position 0 is the +0.0 row every sum starts from
    place = np.arange(1, len(ids) + 1) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    terms = np.zeros((sizes.max(initial=0) + 1, len(sizes), store.dim))
    terms[place, span_of] = store.rows(ids) * np.array(counts, dtype=np.float64)[:, None]
    sums = terms[0]
    for term in terms[1:]:
        sums += term
    return sums / np.maximum(np.array(totals, dtype=np.float64), 1.0)[:, None], sizes > 0
