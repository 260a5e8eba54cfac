import io
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexmrc import embedding
from lexmrc.embedding import EmbeddingFormatError, average_embedding, load_embeddings

from conftest import mean_of
from oracles import _is_int, reference_average_embedding, reference_load_embeddings, vector_store


def make_store(**vectors):
    return vector_store(vectors)


def load_all(path):
    """The store of `path` with every row converted."""
    store = load_embeddings(path)
    store.rows(range(len(store)))
    return store


def vector(store, word):
    """The row of `word`, a word the store knows."""
    return store.rows(store.row_ids([word]))[0]


def count_conversions(monkeypatch):
    """The row ids of each conversion from a vector file, one list a pass."""
    passes = []
    read = embedding._RowSource.read

    def counting(source, ids, dim):
        passes.append(ids.tolist())
        return read(source, ids, dim)

    monkeypatch.setattr(embedding._RowSource, "read", counting)
    return passes


class TestLoader:
    def test_minimal_file_with_header(self, tmp_path):
        f = tmp_path / "v.vec"
        f.write_text("2 3\na 1 0 0\nb 0 1 0\n", encoding="utf-8")
        store = load_embeddings(f)
        assert store.dim == 3
        assert set(store) == {"a", "b"}
        assert np.array_equal(vector(store, "a"), [1.0, 0.0, 0.0])

    def test_dimension_mismatch_reports_line(self, tmp_path):
        f = tmp_path / "v.vec"
        f.write_text("2 3\na 1 0 0\nb 0 1\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match=r":3:"):
            load_all(f)
        # the first row is checked against the header at load
        f.write_text("1 1152921504606846976\nw 1 2\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError) as exc:
            load_embeddings(f)
        assert str(exc.value) == f"{f}:2: expected 1152921504606846976 components, found 2"

    def test_headerless_matches_headered(self, tmp_path):
        rows = "a 1 0 0\nb 0 1 0\nc 0.5 0.25 -1\n"
        with_header = tmp_path / "h.vec"
        with_header.write_text("3 3\n" + rows, encoding="utf-8")
        without = tmp_path / "n.vec"
        without.write_text(rows, encoding="utf-8")
        s1 = load_embeddings(with_header)
        s2 = load_embeddings(without)
        assert s1.dim == s2.dim == 3
        assert set(s1) == set(s2)
        for w in s1:
            assert np.array_equal(vector(s1, w), vector(s2, w))

    def test_first_duplicate_wins(self, tmp_path):
        f = tmp_path / "v.vec"
        f.write_text("a 1 0\nb 0 1\na 9 9\n", encoding="utf-8")
        store = load_embeddings(f)
        assert np.array_equal(vector(store, "a"), [1.0, 0.0])

    def test_non_numeric_component(self, tmp_path):
        f = tmp_path / "v.vec"
        f.write_text("a 1 x\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match=r":1:"):
            load_embeddings(f)

    def test_non_finite_component(self, tmp_path):
        f = tmp_path / "v.vec"
        f.write_text("a 1 0\nb inf 0\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match=r":2:.*finite"):
            load_all(f)
        f.write_text("a 1 nan\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="finite"):
            load_embeddings(f)

    def test_a_row_whose_squared_norm_overflows(self, tmp_path):
        """Finite components whose sum of squares is not a finite float
        would make `web`'s cosines NaN."""
        f = tmp_path / "v.vec"
        f.write_text("a 1 0\nb 1e200 2e200\nc 1e150 2e150\n", encoding="utf-8")
        store = load_embeddings(f)
        assert vector(store, "c").tolist() == [1e150, 2e150]
        with pytest.raises(EmbeddingFormatError) as exc:
            load_all(f)
        assert str(exc.value) == f"{f}:2: vector too large (its squared norm overflows)"
        # the first row is converted at load
        f.write_text("a 3e200 -1e200\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match=r":1: vector too large"):
            load_embeddings(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "v.vec"
        f.write_text("", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="empty"):
            load_embeddings(f)

    def test_absent_word_distinguished_from_zero_vector(self, tmp_path):
        f = tmp_path / "v.vec"
        f.write_text("zero 0 0\n", encoding="utf-8")
        store = load_embeddings(f)
        assert store.row_ids(["zero"]).tolist() == [0]
        assert vector(store, "zero").tolist() == [0.0, 0.0]
        assert store.row_ids(["missing"]).tolist() == [-1] and "missing" not in store

    def test_multi_syllable_words(self, tmp_path):
        f = tmp_path / "v.vec"
        f.write_text("học_sinh 1 0\nhọc 0 1\n", encoding="utf-8")
        assert load_embeddings(f).multi_syllable_words() == frozenset({"học_sinh"})


class TestNumberGrammar:
    # every character `str.split` treats as whitespace; "\n" and "\r" end lines
    WHITESPACE = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003"
                  "\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")

    def test_whitespace_list_is_complete(self):
        every = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
        assert every == self.WHITESPACE

    @pytest.mark.parametrize("token", ["1_0", "\u0661", "\uff11", "\u0661.\u0665"])
    def test_underscores_and_non_ascii_digits_are_not_numbers(self, tmp_path, token):
        # Python's float() takes these; the file grammar is np.loadtxt's
        f = tmp_path / "v.vec"
        f.write_text(f"a 1 2\nb 3 {token}\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError) as exc:
            load_all(f)
        assert str(exc.value) == f"{f}:2: non-numeric vector component"
        assert reference_load_embeddings(f)[2][1, 1] == float(token)

    @pytest.mark.parametrize("sep", list(WHITESPACE.replace("\n", "").replace("\r", "")))
    def test_every_whitespace_character_separates(self, tmp_path, sep):
        f = tmp_path / "v.vec"
        f.write_text(f"a{sep}1{sep}{sep}-2.5{sep}\nb 0 1e-3\n", encoding="utf-8")
        store = load_embeddings(f)
        assert list(store) == ["a", "b"]
        assert store.rows([0, 1]).tolist() == [[1.0, -2.5], [0.0, 0.001]]


# components both loaders read alike: Python floats and np.loadtxt agree on
# these, and on rejecting BAD_TOKENS or reading them as non-finite
GOOD_TOKENS = st.one_of(
    st.sampled_from(["0", "-0", "1", "-1", "+3", "0.5", ".5", "1.", "1e-3", "2E+2", "0001",
                     "1e-400", "123456789.123456789", "-9007199254740993"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**30, 10**30).map(str),
)
BAD_TOKENS = st.one_of(
    st.sampled_from(["nan", "NaN", "+nan", "inf", "-Infinity", "1e500", "-1e500"]),
    st.sampled_from(["x", "1,5", "0x10", "--1", "1e", ".", "#", "#1", '"1"', "1.5j", "nan(1)",
                     "\u22121"]),
)
WORDS = st.sampled_from(["a", "b", "c", "x1", "học_sinh", "1", "2", "#"])


@st.composite
def vector_files(draw):
    """The text of a vector file: a clean one, with rows of one arity and
    finite numbers only, or a noisy one with bad rows mixed in."""
    dim = draw(st.integers(1, 4))
    noisy = draw(st.booleans())
    seps = TestNumberGrammar.WHITESPACE
    if not noisy:
        seps = seps.replace("\n", "").replace("\r", "")
    sep = st.text(alphabet=seps, min_size=1, max_size=3)
    kinds = ["row"] * 4 + ["blank"]
    if noisy:
        kinds += ["arity", "bad", "bad", "bad", "word only"]
    lines = []
    if draw(st.booleans()):
        header_dim = draw(st.sampled_from([dim, dim, dim, dim + 1, 0])) if noisy else dim
        lines.append(f"{draw(st.integers(0, 9))} {header_dim}")
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append(draw(st.text(alphabet=" \t\x0b\x0c\x1c\u3000", max_size=2)))
            continue
        components = draw(st.lists(GOOD_TOKENS, min_size=dim, max_size=dim))
        if kind == "arity":
            components = draw(st.lists(GOOD_TOKENS, min_size=0, max_size=dim + 2))
        elif kind == "bad":
            components = draw(st.lists(st.one_of(GOOD_TOKENS, BAD_TOKENS),
                                       min_size=dim, max_size=dim))
        elif kind == "word only":
            components = []
        tokens = [draw(WORDS)] + components
        gaps = draw(st.lists(sep, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
        lead = draw(st.sampled_from(["", " ", "\u3000"]))
        lines.append(lead + "".join(t + g for t, g in zip(tokens, gaps)))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def outcome(read, path):
    """What `read(path)` gives: the dimension, the words and the row bytes,
    or the error message."""
    try:
        dim, words, matrix = read(path)
    except EmbeddingFormatError as exc:
        return ("error", str(exc))
    return ("ok", dim, words, matrix.dtype, matrix.shape, matrix.tobytes())


def load_outcome(load, path):
    """`outcome` of the store that `load(path)` gives, with every kept row
    converted."""
    def read(f):
        store = load(f)
        return store.dim, list(store), store.rows(range(len(store)))
    return outcome(read, path)


def reference_outcome(path):
    return outcome(reference_load_embeddings, path)


def first_rows(lines):
    """Each row's word and the line number of its first row, for lines read
    with universal newlines; line 1 is no row when it is header-shaped."""
    first = {}
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts or (lineno == 1 and len(parts) == 2 and all(map(_is_int, parts))):
            continue
        first.setdefault(parts[0], lineno)
    return first


@pytest.fixture(scope="module")
def vector_path(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "v.vec"


@given(vector_files())
@example("1\x851152921504606846976\x85")  # a header too wide to allocate, and no row
@settings(max_examples=400, deadline=None)
def test_loader_matches_reference(vector_path, text):
    vector_path.write_bytes(text.encode("utf-8"))
    got = load_outcome(load_embeddings, vector_path)
    # The one allowed difference: a bad row that is a later duplicate is
    # dropped unread, while the reference stops at it. Blank each such row
    # to a space, keeping its line end and so every line number (an empty
    # line after a "\r" would join a "\n" to it), until the two agree.
    lines = io.StringIO(text, newline="").readlines()
    first = first_rows(lines)
    while (want := reference_outcome(vector_path)) != got:
        assert want[0] == "error"
        lineno = int(want[1][len(str(vector_path)) + 1:].split(":")[0])
        line = lines[lineno - 1]
        assert first[line.split()[0]] < lineno, (want, got)
        lines[lineno - 1] = " " + line[len(line.rstrip("\r\n")):]
        vector_path.write_bytes("".join(lines).encode("utf-8"))


def scan_outcome(path):
    """`load_outcome` of `path`, or the text of its decode error, and the
    `_RowSource` arrays of the load when it returned."""
    sources = []

    def load(f):
        store = load_embeddings(f)
        sources.append(store._source)
        return store

    try:
        outcome = load_outcome(load, path)
    except UnicodeDecodeError as exc:
        return ("decode error", str(exc)), None
    return outcome, [[getattr(source, a).tolist() for a in ("starts", "sizes", "linenos")]
                     for source in sources]


def line_by_line(path):
    """`scan_outcome` of a load that sends every line through `_scan_lines`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embedding, "_scan_plain", lambda scan, block: False)
        return scan_outcome(path)


def record_blocks(patch):
    """Whether each block after line 1 was plain, one entry a block."""
    plain = []
    scan_plain = embedding._scan_plain

    def recording(scan, block):
        plain.append(scan_plain(scan, block))
        return plain[-1]

    patch.setattr(embedding, "_scan_plain", recording)
    return plain


@st.composite
def block_files(draw):
    """The bytes of a vector file of mostly plain rows (a word, single
    spaces, ASCII numbers, "\n"), with "\r\n" lines and lines that each
    break one rule of a plain block (a bare "\r" among them) mixed in, and
    words that repeat."""
    dim = draw(st.integers(1, 3))
    lines = []
    if draw(st.booleans()):
        lines.append(f"{draw(st.integers(0, 9))} {draw(st.sampled_from([dim, 0]))}\n".encode())
    for _ in range(draw(st.integers(0, 12))):
        word = draw(st.sampled_from(["a", "b", "c", "d", "x1", "học_sinh", "ờ", "#", "1"]))
        components = draw(st.lists(GOOD_TOKENS, min_size=dim, max_size=dim))
        kind = draw(st.sampled_from(["plain"] * 12 + [
            "crlf", "bare cr", "tab", "lead", "nbsp", "long", "fullwidth", "blank",
            "word only", "bad byte"]))
        if kind == "nbsp":
            word += "\xa0b"
        elif kind == "long":
            word *= 70
        elif kind == "fullwidth":
            components[0] = "\uff11"
        elif kind == "word only":
            components = []
        line = " ".join([word] + components) + "\n"
        line = {"crlf": line.replace("\n", "\r\n"), "bare cr": line.replace("\n", "\r"),
                "tab": line.replace(" ", "\t", 1),
                "lead": " " + line, "blank": "\n"}.get(kind, line)
        lines.append(line.encode() if kind != "bad byte" else b"w\xff " + line.encode())
    data = b"".join(lines)
    return data.removesuffix(b"\n") if draw(st.booleans()) else data


@given(st.one_of(block_files(), vector_files().map(str.encode)), st.sampled_from([64, 7, 1]))
@settings(max_examples=400, deadline=None)
def test_blocks_match_line_by_line(vector_path, data, block):
    vector_path.write_bytes(data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embedding, "_BLOCK", block)
        assert scan_outcome(vector_path) == line_by_line(vector_path)


class TestBlocks:
    """A plain block has its lines found by numpy and only its words
    decoded; any other block goes line by line through `_scan_lines`."""

    HEAD = b"a 1 2\nb 3 4\n"  # line 1, then a plain block
    # one line that breaks each rule of a plain block
    NOT_PLAIN = {
        "bare cr": b"c 5 6\r",
        "tab": b"c\t5 6\n",
        "leading space": b" c 5 6\n",
        "nbsp in word": "c\xa0d 5 6\n".encode(),
        "long word": b"c" * embedding._WIDTH + b" 5 6\n",
        "fullwidth digit": "c 5 \uff11\n".encode(),
        "repeated word": b"b 5 6\n",
        "decode error": b"c\xff 5 6\n",
        "decode error in a component": b"c 5 \xff\n",
    }

    @pytest.mark.parametrize("line", NOT_PLAIN.values(), ids=NOT_PLAIN.keys())
    def test_a_block_that_breaks_a_rule_goes_line_by_line(self, tmp_path, monkeypatch, line):
        f = tmp_path / "v.vec"
        f.write_bytes(self.HEAD + line + b"d 7 8\n")
        monkeypatch.setattr(embedding, "_BLOCK", 1)  # one line a block
        plain = record_blocks(monkeypatch)
        got = scan_outcome(f)
        assert plain[:2] == [True, False]
        assert got == line_by_line(f)
        if line == b"b 5 6\n":  # the first row of a word wins
            assert got[1] == [[[0, 6, 18], [5, 5, 5], [1, 2, 4]]]
        if b"\xff" in line:  # the message of decoding that one line
            with pytest.raises(UnicodeDecodeError) as exc:
                line.decode()
            assert got[0] == ("decode error", str(exc.value))

    def test_a_last_line_without_a_line_end(self, tmp_path, monkeypatch):
        f = tmp_path / "v.vec"
        f.write_bytes(self.HEAD + b"c 5 6\nd 7 8\ne 9 9")
        monkeypatch.setattr(embedding, "_BLOCK", 8)
        plain = record_blocks(monkeypatch)
        got = scan_outcome(f)
        assert plain == [True, False]  # "b 3 4\nc 5 6\n", "d 7 8\ne 9 9"
        assert got == line_by_line(f)
        assert got[0][2] == ["a", "b", "c", "d", "e"]

    def test_a_word_that_repeats_within_a_block(self, tmp_path, monkeypatch):
        f = tmp_path / "v.vec"
        f.write_bytes(self.HEAD + b"c 5 6\nd 7 8\nc 9 9\ne 1 1\n")
        monkeypatch.setattr(embedding, "_BLOCK", 10)
        plain = record_blocks(monkeypatch)
        got = scan_outcome(f)
        assert plain == [True, False, True]  # "b 3 4\nc 5 6\n", "d 7 8\nc 9 9\n", "e 1 1\n"
        assert got == line_by_line(f)
        assert got[0][2] == ["a", "b", "c", "d", "e"]
        assert got[1][0][2] == [1, 2, 3, 4, 6]

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_a_word_must_end_within_the_window(self, tmp_path, monkeypatch, width):
        f = tmp_path / "v.vec"
        f.write_bytes(b"3 2\nab 1 2\n")
        monkeypatch.setattr(embedding, "_WIDTH", width)
        plain = record_blocks(monkeypatch)
        assert scan_outcome(f) == line_by_line(f)
        assert plain == [width == 3]

    def test_a_bare_cr_inside_a_block_goes_line_by_line(self, tmp_path, monkeypatch):
        f = tmp_path / "v.vec"
        f.write_bytes(self.HEAD + b"c 5 6\rd 7 8\n")
        monkeypatch.setattr(embedding, "_BLOCK", 64)
        plain = record_blocks(monkeypatch)
        got = scan_outcome(f)
        assert plain == [False]  # "b 3 4\nc 5 6\rd 7 8\n"
        assert got == line_by_line(f)
        assert got[1][0][2] == [1, 2, 3, 4]

    def test_crlf_lines_are_plain(self, tmp_path, monkeypatch):
        """A file whose lines end in "\r\n", or in a mix of "\r\n" and
        "\n", is read in plain blocks into the store of its LF copy; each
        row's byte range stops before the "\r"."""
        rows = [f"từ_{i} {i / 3!r} {-i}\n" for i in range(40)]
        lf, crlf, mixed = (tmp_path / name for name in ("lf.vec", "crlf.vec", "mixed.vec"))
        lf.write_text("40 2\n" + "".join(rows), encoding="utf-8", newline="\n")
        crlf.write_text("40 2\n" + "".join(rows), encoding="utf-8", newline="\r\n")
        mixed.write_text("40 2\n" + "".join(r.replace("\n", "\r\n") if i % 3 else r
                                          for i, r in enumerate(rows)),
                         encoding="utf-8", newline="")
        monkeypatch.setattr(embedding, "_BLOCK", 256)
        plain = record_blocks(monkeypatch)
        want = load_embeddings(lf)
        for f in (crlf, mixed):
            plain.clear()
            store = load_embeddings(f)
            assert len(plain) >= 3 and all(plain)
            data = f.read_bytes()
            spans = [data[start:start + size]
                     for start, size in zip(store._source.starts, store._source.sizes)]
            assert spans == [r.rstrip("\n").encode() for r in rows]
            assert store._source.linenos.tolist() == want._source.linenos.tolist()
            assert load_outcome(lambda _: store, f) == load_outcome(lambda _: want, lf)
            assert scan_outcome(f) == line_by_line(f)

    def test_every_other_whitespace_character_is_unprintable(self):
        # the plain check reads a printable word list as free of whitespace
        assert not any(c.isprintable() for c in TestNumberGrammar.WHITESPACE.replace(" ", ""))
        assert " ".isprintable()

    def test_only_line_1_goes_line_by_line_in_a_plain_file(self, tmp_path, monkeypatch):
        calls = []
        scan_lines = embedding._scan_lines

        def counting(scan, data):
            calls.append(data)
            return scan_lines(scan, data)

        monkeypatch.setattr(embedding, "_scan_lines", counting)
        plain = record_blocks(monkeypatch)
        toy = os.path.join(os.path.dirname(__file__), "data", "toy_vectors.vec")
        store = load_embeddings(toy)
        with open(toy, "rb") as handle:
            assert calls == [handle.readline()]
        assert plain == [True] and len(store) == 161

        f = tmp_path / "v.vec"
        rows = [f"từ_{i} {i / 3:.4f} {-i}\n" for i in range(40)]
        f.write_text("40 2\n" + "".join(rows), encoding="utf-8")
        calls.clear()
        plain.clear()
        monkeypatch.setattr(embedding, "_BLOCK", 256)
        store = load_embeddings(f)
        assert calls == [b"40 2\n"]
        assert len(plain) >= 3 and all(plain)
        assert store._source.linenos.tolist() == list(range(2, 42))
        assert load_outcome(lambda _: store, f) == reference_outcome(f)


class TestLazyRows:
    ROWS = "a 1 2\nb x 3\nc 4 5\nb 6 7\n"

    def test_a_bad_row_raises_only_when_converted(self, tmp_path):
        f = tmp_path / "v.vec"
        f.write_text(self.ROWS, encoding="utf-8")
        store = load_embeddings(f)
        assert list(store) == ["a", "b", "c"] and store.dim == 2
        assert vector(store, "c").tolist() == [4.0, 5.0]
        with pytest.raises(EmbeddingFormatError) as exc:
            vector(store, "b")
        assert str(exc.value) == f"{f}:2: non-numeric vector component"
        # a failed conversion leaves the store as it was
        assert store.rows([2, 0]).tolist() == [[4.0, 5.0], [1.0, 2.0]]
        with pytest.raises(EmbeddingFormatError, match=":2: non-numeric"):
            store.rows([0, 1, 2])

    def test_a_bad_later_duplicate_is_never_read(self, tmp_path):
        f = tmp_path / "v.vec"
        f.write_text("a 1 2\nb 3 4\na x\n", encoding="utf-8")
        assert vector(load_all(f), "a").tolist() == [1.0, 2.0]
        with pytest.raises(EmbeddingFormatError, match=":3: non-numeric"):
            reference_load_embeddings(f)

    def test_each_row_is_converted_once(self, tmp_path, monkeypatch):
        f = tmp_path / "v.vec"
        f.write_text("3 2\n" + self.ROWS.replace("x", "0"), encoding="utf-8")
        passes = count_conversions(monkeypatch)
        store = load_embeddings(f)
        assert passes == [[0]]
        assert store.rows([2, 0, 2]).tolist() == [[4.0, 5.0], [1.0, 2.0], [4.0, 5.0]]
        assert store.rows([0, 2]).tolist() == [[1.0, 2.0], [4.0, 5.0]]
        assert store.rows([1, 0]).tolist() == [[0.0, 3.0], [1.0, 2.0]]
        assert store.rows([]).shape == (0, 2)
        assert passes == [[0], [2], [1]]
        # every row converted: a lookup of all of them reads nothing
        assert store.rows(range(3)).tolist() == [[1.0, 2.0], [0.0, 3.0], [4.0, 5.0]]
        assert passes == [[0], [2], [1]]

    def test_headerless_file_converts_its_first_row_at_load(self, tmp_path, monkeypatch):
        f = tmp_path / "v.vec"
        f.write_text("\n  " + self.ROWS, encoding="utf-8")
        passes = count_conversions(monkeypatch)
        store = load_embeddings(f)
        assert (store.dim, passes) == (2, [[0]])
        assert vector(store, "a").tolist() == [1.0, 2.0]
        assert passes == [[0]]
        f.write_text("a\nb 1 2\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match=r":1: row has no vector components$"):
            load_embeddings(f)

    @given(st.permutations(range(40)), st.integers(1, 7))
    @settings(max_examples=30, deadline=None)
    def test_rows_converted_in_any_order_match_reference(self, tmp_path_factory, order, step):
        f = tmp_path_factory.mktemp("order") / "v.vec"
        f.write_text("".join(f"w{i} {i / 7} {-i}e-3 {i * 1e150}\n" for i in range(40)),
                     encoding="utf-8")
        store = load_embeddings(f)
        _, words, want = reference_load_embeddings(f)
        assert words == [f"w{i}" for i in range(40)]
        for i in range(0, 40, step):
            ids = order[i:i + step]
            assert store.rows(ids).tobytes() == want[ids].tobytes()
        with pytest.MonkeyPatch.context() as patch:
            passes = count_conversions(patch)
            store.rows(range(40))
        assert passes == []
        assert load_outcome(lambda _: store, f) == reference_outcome(f)

    @pytest.mark.parametrize("change", ["rewrite", "same-size", "replace"])
    def test_a_file_changed_after_load_raises(self, tmp_path, change):
        f = tmp_path / "v.vec"
        f.write_text(self.ROWS.replace("x", "0"), encoding="utf-8")
        store = load_embeddings(f)
        before = f.stat()
        if change == "rewrite":
            f.write_text("a 9 9\n", encoding="utf-8")
        elif change == "same-size":
            # only the change time differs, as `cp -p` or `touch -r` leave it
            f.write_text(self.ROWS.replace("x", "9"), encoding="utf-8")
            os.utime(f, ns=(before.st_atime_ns, before.st_mtime_ns))
            assert f.stat().st_size == before.st_size
        else:
            other = tmp_path / "w.vec"
            other.write_text(self.ROWS.replace("x", "9"), encoding="utf-8")
            os.replace(other, f)
        with pytest.raises(EmbeddingFormatError) as exc:
            vector(store, "c")
        assert str(exc.value) == f"{f}: file changed since it was loaded"

    def test_a_decode_error_anywhere_raises_at_load(self, tmp_path):
        f = tmp_path / "v.vec"
        f.write_bytes(self.ROWS.encode() + b"w\xff 1 2\n")
        with pytest.raises(UnicodeDecodeError):
            load_embeddings(f)

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_crlf_and_bare_cr_lines_match_lf(self, tmp_path, end):
        text = "3 2\n" + self.ROWS.replace("x", "0") + "\n \nd 8 9"
        lf, other = tmp_path / "lf.vec", tmp_path / "other.vec"
        lf.write_text(text, encoding="utf-8", newline="\n")
        other.write_text(text, encoding="utf-8", newline=end)
        stores = [load_embeddings(lf), load_embeddings(other)]
        for store, f in zip(stores, (lf, other)):
            source = store._source
            assert source.linenos.tolist() == [2, 3, 4, 8]
            data = f.read_bytes()
            spans = [data[start:start + size] for start, size in zip(source.starts, source.sizes)]
            # a span ends before its line end, whichever it is
            assert spans == [b"a 1 2", b"b 0 3", b"c 4 5", b"d 8 9"]
        assert load_outcome(lambda f: stores[1], other) == load_outcome(lambda f: stores[0], lf)
        assert load_outcome(load_embeddings, other) == reference_outcome(other)

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_crlf_and_bare_cr_files_are_read_in_bounded_pieces(self, tmp_path, monkeypatch, end):
        # a bare "\r" is no end for `readline`; a "\r\n" may be cut between
        # its two bytes at a block end, and must still end one line only
        text = "40 2\n" + "".join(f"w{i} {i / 3!r} {-i}\n" for i in range(40)) + "\n \nlast 1 2"
        lf, other = tmp_path / "lf.vec", tmp_path / "other.vec"
        lf.write_text(text, encoding="utf-8", newline="\n")
        other.write_text(text, encoding="utf-8", newline=end)
        longest = max(map(len, other.read_bytes().splitlines(keepends=True)))
        pieces = []
        scan_lines = embedding._scan_lines

        def recording(scan, data):
            pieces.append(data)
            return scan_lines(scan, data)

        monkeypatch.setattr(embedding, "_scan_lines", recording)
        want = load_embeddings(lf)
        for block in range(1, 2 * longest):  # a block end at every offset of a line
            monkeypatch.setattr(embedding, "_BLOCK", block)
            pieces.clear()
            store = load_embeddings(other)
            assert max(map(len, pieces)) <= block + longest
            assert store._source.linenos.tolist() == want._source.linenos.tolist()
            assert load_outcome(lambda f: store, other) == load_outcome(lambda f: want, lf)

    def test_mixed_line_ends(self, tmp_path):
        f = tmp_path / "v.vec"
        f.write_bytes(b"a 1\r\r\nb 2\rc 3\n\rd 4\r")
        store = load_embeddings(f)
        assert store._source.linenos.tolist() == [1, 3, 4, 6]
        assert load_outcome(lambda f: store, f) == reference_outcome(f)

    def test_header_only_file(self, tmp_path):
        f = tmp_path / "v.vec"
        f.write_text("0 3\n\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError) as exc:
            load_embeddings(f)
        assert str(exc.value) == f"{f}: empty vector file"


class TestConvert:
    @pytest.fixture
    def store(self, tmp_path):
        f = tmp_path / "v.vec"
        f.write_text("a 1 2\nb 0 3\nc 4 5\nd 6 7\n", encoding="utf-8")
        return load_embeddings(f)

    def test_a_generator_is_converted(self, store, monkeypatch):
        passes = count_conversions(monkeypatch)
        store.convert(i for i in (3, 1))
        assert passes == [[1, 3]]
        store.rows([1, 3])
        assert passes == [[1, 3]]

    def test_duplicate_and_converted_ids_are_skipped(self, store, monkeypatch):
        passes = count_conversions(monkeypatch)
        store.convert([2, 0, 2, 2])
        store.convert([0, 2])
        store.convert([3, 2, 3, 0])
        assert passes == [[2], [3]]

    def test_ids_are_read_in_ascending_order(self, store, monkeypatch):
        passes = count_conversions(monkeypatch)
        assert store.rows([3, 1, 2]).tolist() == [[6.0, 7.0], [0.0, 3.0], [4.0, 5.0]]
        assert passes == [[1, 2, 3]]

    def test_a_failed_pass_leaves_the_store_as_it_was(self, tmp_path, monkeypatch):
        f = tmp_path / "v.vec"
        f.write_text("a 1 2\nb 0 3\nc x 5\nd 6 7\n", encoding="utf-8")
        store = load_embeddings(f)
        store.convert([1])
        with pytest.raises(EmbeddingFormatError, match=":3: non-numeric"):
            store.convert([3, 2, 1])
        passes = count_conversions(monkeypatch)
        # row 1 is served with no read, and row 3 is read once
        assert store.rows([1]).tolist() == [[0.0, 3.0]]
        assert passes == []
        assert store.rows([3, 1, 3]).tolist() == [[6.0, 7.0], [0.0, 3.0], [6.0, 7.0]]
        assert store.rows([3]).tolist() == [[6.0, 7.0]]
        assert passes == [[3]]

    def test_one_row_passes_keep_the_rows_within_twice_their_size(self, tmp_path):
        """299 passes of one row each grow the store's row matrix
        geometrically: the memory it holds stays within twice the bytes of
        the 300 converted rows (row 0 is converted at load), a bound that
        growth by 3x or more, or old matrices kept alive, would break."""
        dim, n = 64, 299
        f = tmp_path / "v.vec"
        f.write_text("".join(f"w{i}" + f" {i}.5" * dim + "\n" for i in range(n + 1)),
                     encoding="utf-8")
        store = load_embeddings(f)
        store.convert([1])  # any first-use import happens before the count
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(2, n + 1):
                store.convert([i])
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert store.rows([n])[0].tolist() == [n + 0.5] * dim
        assert held <= 2 * (n + 1) * dim * 8


class TestAverage:
    def test_singleton(self):
        store = make_store(a=(1.0, 0.0, 0.0))
        assert np.array_equal(mean_of(store, ["a"]), [1.0, 0.0, 0.0])

    def test_midpoint(self):
        store = make_store(a=(1.0, 0.0, 0.0), b=(0.0, 1.0, 0.0))
        assert np.allclose(mean_of(store, ["a", "b"]), [0.5, 0.5, 0.0])

    def test_oov_words_skipped(self):
        store = make_store(a=(1.0, 0.0, 0.0), b=(0.0, 1.0, 0.0))
        with_oov = mean_of(store, ["a", "oov", "b"])
        without = mean_of(store, ["a", "b"])
        assert np.array_equal(with_oov, without)

    def test_all_oov(self):
        store = make_store(a=(1.0, 0.0))
        assert mean_of(store, ["x", "y"]) is None

    def test_empty_span(self):
        store = make_store(a=(1.0, 0.0))
        assert mean_of(store, []) is None

    def test_duplicates_weighted(self):
        store = make_store(a=(3.0,), b=(0.0,))
        assert mean_of(store, ["a", "a", "b"])[0] == pytest.approx(2.0)

    @given(st.permutations(["a", "b", "c", "oov", "a"]))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariant(self, words):
        store = make_store(a=(0.1, 0.7), b=(-0.3, 0.2), c=(0.9, -0.4))
        base = mean_of(store, ["a", "b", "c", "oov", "a"])
        other = mean_of(store, list(words))
        assert np.array_equal(other, base)


# sevenths, whose sums round differently in another order, and signed zeros
VALUES = st.one_of(st.integers(-10**9, 10**9).map(lambda k: k / 7), st.floats(-1e6, 1e6),
                   st.just(-0.0), st.just(0.0))


@given(dim=st.integers(1, 4), data=st.data())
@settings(max_examples=300, deadline=None)
def test_average_matches_reference(dim, data):
    """The means of a batch of spans, from empty to all unknown, with
    repeated words, signed zeros and rows that cancel, are the reference
    means span by span."""
    vocab = data.draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8, unique=True))
    vectors = {w: data.draw(st.one_of(st.lists(VALUES, min_size=dim, max_size=dim),
                                      st.just([0.0] * dim)))
               for w in vocab}
    if data.draw(st.booleans()):  # a row and its negation, whose sum is +0.0
        vectors["n"] = [-x for x in vectors[vocab[0]]]
    store = vector_store(vectors)
    spans = data.draw(st.lists(st.lists(st.sampled_from([*vectors, "oov"]), max_size=16),
                               max_size=8))
    means, found = average_embedding(store, spans)
    assert means.shape == (len(spans), dim) and found.shape == (len(spans),)
    for words, got, known in zip(spans, means, found):
        want = reference_average_embedding(store, words)
        assert known == (want is not None)
        if known:
            assert got.tobytes() == want.tobytes()


class TestStoreConstruction:
    """A store is only ever made from a vector file, so the loader's checks
    are the store's: a positive dimension, rows of that width, finite
    components."""

    def test_dim_must_be_positive(self, tmp_path):
        f = tmp_path / "v.vec"
        f.write_text("2 0\na\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError) as exc:
            load_embeddings(f)
        assert str(exc.value) == f"{f}:1: non-positive dimension in header"

    def test_the_mapping_helper_round_trips_bit_for_bit(self):
        # signed zeros, the smallest subnormal, a value whose square is
        # near the largest float, and a third
        values = [-0.0, 0.0, 5e-324, 1.3e154, 1 / 3, -2.5]
        store = make_store(a=values[:3], b=values[3:])
        assert (store.dim, list(store)) == (3, ["a", "b"])
        assert store.rows([0, 1]).tobytes() == np.array([values[:3], values[3:]]).tobytes()

    def test_len_and_contains(self):
        store = make_store(a=(1.0,), b=(2.0,))
        assert len(store) == 2
        assert "a" in store and "zz" not in store
