import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexmrc import embedding
from lexmrc.embedding import (
    EmbeddingFormatError,
    EmbeddingStore,
    SpanVector,
    average_embedding,
    cosine_similarity,
    load_embeddings,
)

from oracles import reference_average_embedding, reference_load_embeddings

# 32 / (sqrt(14) * sqrt(77)) evaluated at 40 decimal digits with mpmath
COS_123_456 = 0.9746318461970762710785724911261228634989


def make_store(**vectors):
    dim = len(next(iter(vectors.values())))
    return EmbeddingStore(dim, vectors)


class TestLoader:
    def test_minimal_file_with_header(self, tmp_path):
        f = tmp_path / "v.vec"
        f.write_text("2 3\na 1 0 0\nb 0 1 0\n", encoding="utf-8")
        store = load_embeddings(f)
        assert store.dim == 3
        assert set(store) == {"a", "b"}
        assert np.array_equal(store.get("a"), [1.0, 0.0, 0.0])

    def test_dimension_mismatch_reports_line(self, tmp_path):
        f = tmp_path / "v.vec"
        f.write_text("2 3\na 1 0 0\nb 0 1\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match=r":3:"):
            load_embeddings(f)

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
            assert np.array_equal(s1.get(w), s2.get(w))

    def test_first_duplicate_wins(self, tmp_path):
        f = tmp_path / "v.vec"
        f.write_text("a 1 0\nb 0 1\na 9 9\n", encoding="utf-8")
        store = load_embeddings(f)
        assert np.array_equal(store.get("a"), [1.0, 0.0])

    def test_non_numeric_component(self, tmp_path):
        f = tmp_path / "v.vec"
        f.write_text("a 1 x\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match=r":1:"):
            load_embeddings(f)

    def test_non_finite_component(self, tmp_path):
        f = tmp_path / "v.vec"
        f.write_text("a 1 0\nb inf 0\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match=r":2:.*finite"):
            load_embeddings(f)
        f.write_text("a 1 nan\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="finite"):
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
        assert store.get("zero") is not None
        assert store.get("missing") is None

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
            load_embeddings(f)
        assert str(exc.value) == f"{f}:2: non-numeric vector component"
        assert reference_load_embeddings(f).get("b")[1] == float(token)

    @pytest.mark.parametrize("sep", list(WHITESPACE.replace("\n", "").replace("\r", "")))
    def test_every_whitespace_character_separates(self, tmp_path, sep):
        f = tmp_path / "v.vec"
        f.write_text(f"a{sep}1{sep}{sep}-2.5{sep}\nb 0 1e-3\n", encoding="utf-8")
        store = load_embeddings(f)
        assert list(store) == ["a", "b"]
        assert store.matrix.tolist() == [[1.0, -2.5], [0.0, 0.001]]


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


def load_outcome(load, path):
    try:
        store = load(path)
    except EmbeddingFormatError as exc:
        return ("error", str(exc))
    return ("ok", store.dim, list(store), store.matrix.dtype, store.matrix.shape,
            store.matrix.tobytes())


@pytest.fixture(scope="module")
def vector_path(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "v.vec"


@given(vector_files())
@settings(max_examples=400, deadline=None)
def test_loader_matches_reference(vector_path, text):
    vector_path.write_bytes(text.encode("utf-8"))
    assert load_outcome(load_embeddings, vector_path) == \
        load_outcome(reference_load_embeddings, vector_path)


def assert_no_children():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def small_chunks(monkeypatch):
    """Cut every vector file of a few dozen bytes or more into up to three
    chunks, whatever the host's CPU count."""
    monkeypatch.setattr(embedding, "MIN_CHUNK_BYTES", 8)
    monkeypatch.setattr(embedding, "usable_cpus", lambda: 3)


@given(vector_files())
@settings(max_examples=400, deadline=None)
def test_chunked_loader_matches_reference(vector_path, text):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embedding, "MIN_CHUNK_BYTES", max(1, len(text.encode("utf-8")) // 3))
        patch.setattr(embedding, "usable_cpus", lambda: 3)
        vector_path.write_bytes(text.encode("utf-8"))
        outcome = load_outcome(load_embeddings, vector_path)
    assert_no_children()
    assert outcome == load_outcome(reference_load_embeddings, vector_path)


def serial_outcome(path):
    """What the loader gives for `path` as one chunk, in this process."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embedding, "MIN_CHUNK_BYTES", 1 << 62)
        return load_outcome(load_embeddings, path)


class TestChunkedLoader:
    ROWS = "".join(f"w{i} {i} -{i}.5\n" for i in range(30))

    def write(self, tmp_path, data: bytes, chunks=3):
        f = tmp_path / "v.vec"
        f.write_bytes(data)
        assert len(embedding._cut_points(f)) == chunks + 1
        return f

    def chunk_of(self, f, offset):
        cuts = embedding._cut_points(f)
        return sum(cut <= offset for cut in cuts[1:-1])

    def test_splits_and_matches_serial(self, tmp_path, small_chunks):
        f = self.write(tmp_path, b"30 2\n" + self.ROWS.encode())
        store = load_embeddings(f)
        assert_no_children()
        assert len(store) == 30 and store.dim == 2
        assert load_outcome(load_embeddings, f) == serial_outcome(f)
        assert load_outcome(load_embeddings, f) == load_outcome(reference_load_embeddings, f)

    @pytest.mark.parametrize("row, problem", [
        ("bad 1 x", "non-numeric vector component"),
        ("bad 1 inf", "non-finite vector component"),
        ("bad 1 2 3", "expected 2 components, found 3"),
        ("bad", "expected 2 components, found 0"),
    ])
    def test_bad_row_in_a_later_chunk(self, tmp_path, small_chunks, row, problem):
        data = (self.ROWS + row + "\n" + self.ROWS).encode()
        f = self.write(tmp_path, data)
        assert self.chunk_of(f, data.index(b"bad")) == 1
        with pytest.raises(EmbeddingFormatError) as exc:
            load_embeddings(f)
        assert_no_children()
        assert str(exc.value) == f"{f}:31: {problem}"
        assert serial_outcome(f) == ("error", str(exc.value))

    def test_decode_error_in_a_later_chunk(self, tmp_path, small_chunks):
        data = (self.ROWS * 2).encode() + b"w\xff 1 2\n"
        f = self.write(tmp_path, data)
        assert self.chunk_of(f, data.index(b"\xff")) == 2
        with pytest.raises(UnicodeDecodeError) as chunked:
            load_embeddings(f)
        assert_no_children()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embedding, "MIN_CHUNK_BYTES", 1 << 62)
            with pytest.raises(UnicodeDecodeError) as serial:
                load_embeddings(f)
        assert str(chunked.value) == str(serial.value)

    def test_header_shaped_line_in_a_later_chunk_is_a_row(self, tmp_path, small_chunks):
        # every line is header-shaped, so each chunk starts with one
        rows = "".join(f"{100 + i} {100 + i}\n" for i in range(60))
        f = self.write(tmp_path, ("60 1\n" + rows).encode())
        store = load_embeddings(f)
        assert len(store) == 60
        assert store.get("100").tolist() == [100.0]
        assert load_outcome(load_embeddings, f) == load_outcome(reference_load_embeddings, f)
        f = self.write(tmp_path, ("41 2\n" + self.ROWS + "100 100\n").encode())
        with pytest.raises(EmbeddingFormatError, match=r":32: expected 2 components, found 1$"):
            load_embeddings(f)
        assert_no_children()

    def test_first_duplicate_wins_across_chunks(self, tmp_path, small_chunks):
        data = ("dup 7 7\n" + self.ROWS + self.ROWS + "dup 9 9\n").encode()
        f = self.write(tmp_path, data)
        store = load_embeddings(f)
        assert store.get("dup").tolist() == [7.0, 7.0]
        assert list(store) == ["dup"] + [f"w{i}" for i in range(30)]
        assert load_outcome(load_embeddings, f) == load_outcome(reference_load_embeddings, f)

    def test_crlf_file(self, tmp_path, small_chunks):
        f = self.write(tmp_path, self.ROWS.replace("\n", "\r\n").encode())
        assert all(cut == 0 or f.read_bytes()[cut - 2:cut] == b"\r\n"
                   for cut in embedding._cut_points(f)[:-1])
        assert load_outcome(load_embeddings, f) == load_outcome(reference_load_embeddings, f)

    def test_bare_cr_file_is_one_chunk(self, tmp_path, small_chunks):
        f = self.write(tmp_path, self.ROWS.replace("\n", "\r").encode(), chunks=1)
        assert len(load_embeddings(f)) == 30
        assert load_outcome(load_embeddings, f) == load_outcome(reference_load_embeddings, f)

    def test_file_without_newline_is_one_chunk(self, tmp_path, small_chunks):
        f = self.write(tmp_path, b"a " + b"1 " * 200, chunks=1)
        assert load_embeddings(f).dim == 200

    def test_chunk_of_blank_lines_only(self, tmp_path, small_chunks):
        blank = " \n" * (len(self.ROWS) // 2)
        data = ("30 2\n" + self.ROWS[:len(self.ROWS) // 2].rsplit("\n", 1)[0] + "\n" + blank
                + blank + self.ROWS[len(self.ROWS) // 2:].split("\n", 1)[1]).encode()
        f = self.write(tmp_path, data)
        cuts = embedding._cut_points(f)
        assert not data[cuts[1]:cuts[2]].strip()
        assert load_outcome(load_embeddings, f) == load_outcome(reference_load_embeddings, f)

    def test_header_only_chunk(self, tmp_path, small_chunks):
        f = self.write(tmp_path, b"0 3\n" + b"\n" * 60)
        store = load_embeddings(f)
        assert (len(store), store.dim) == (0, 3)
        assert_no_children()

    def test_stays_in_process_while_another_thread_runs(self, tmp_path, small_chunks, monkeypatch):
        f = self.write(tmp_path, self.ROWS.encode())

        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        stop = threading.Event()
        worker = threading.Thread(target=stop.wait)
        worker.start()
        try:
            assert load_outcome(load_embeddings, f) == serial_outcome(f)
        finally:
            stop.set()
            worker.join()

    def test_stays_in_process_without_fork(self, tmp_path, small_chunks, monkeypatch):
        f = self.write(tmp_path, self.ROWS.encode())
        monkeypatch.delattr(os, "fork")
        assert len(embedding._cut_points(f)) == 2
        assert load_outcome(load_embeddings, f) == serial_outcome(f)

    def test_failed_fork_falls_back_to_one_chunk(self, tmp_path, small_chunks, monkeypatch):
        f = self.write(tmp_path, self.ROWS.encode())

        def fork_fails():
            raise BlockingIOError("no more processes")

        monkeypatch.setattr(os, "fork", fork_fails)
        assert load_outcome(load_embeddings, f) == serial_outcome(f)

    @pytest.mark.parametrize("sent", [0, 10, 40, -8])
    def test_child_that_dies_early_falls_back_to_one_chunk(self, tmp_path, small_chunks,
                                                           monkeypatch, sent):
        # a child that sends only `[:sent]` of its message: a short header,
        # short words or short rows
        f = self.write(tmp_path, self.ROWS.encode())
        send = embedding._send_chunk

        def send_part(path, start, stop, write):
            try:
                read, full = os.pipe()
                if os.fork() == 0:
                    send(path, start, stop, full)
                os.close(full)
                with open(read, "rb") as src, open(write, "wb") as out:
                    out.write(src.read()[:sent])
                os.wait()
            finally:
                os._exit(0)

        monkeypatch.setattr(embedding, "_send_chunk", send_part)
        assert load_outcome(load_embeddings, f) == serial_outcome(f)
        assert_no_children()


class TestAverage:
    def test_singleton(self):
        store = make_store(a=(1.0, 0.0, 0.0))
        span = average_embedding(store, ["a"])
        assert span.support == 1
        assert np.array_equal(span.vector, [1.0, 0.0, 0.0])

    def test_midpoint(self):
        store = make_store(a=(1.0, 0.0, 0.0), b=(0.0, 1.0, 0.0))
        span = average_embedding(store, ["a", "b"])
        assert span.support == 2
        assert np.allclose(span.vector, [0.5, 0.5, 0.0])

    def test_oov_words_skipped(self):
        store = make_store(a=(1.0, 0.0, 0.0), b=(0.0, 1.0, 0.0))
        with_oov = average_embedding(store, ["a", "oov", "b"])
        without = average_embedding(store, ["a", "b"])
        assert with_oov.support == without.support == 2
        assert np.array_equal(with_oov.vector, without.vector)

    def test_all_oov(self):
        store = make_store(a=(1.0, 0.0))
        span = average_embedding(store, ["x", "y"])
        assert span.support == 0
        assert np.array_equal(span.vector, [0.0, 0.0])

    def test_empty_span(self):
        store = make_store(a=(1.0, 0.0))
        assert average_embedding(store, []).support == 0

    def test_duplicates_weighted(self):
        store = make_store(a=(3.0,), b=(0.0,))
        span = average_embedding(store, ["a", "a", "b"])
        assert span.support == 3
        assert span.vector[0] == pytest.approx(2.0)

    @given(st.permutations(["a", "b", "c", "oov", "a"]))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariant(self, words):
        store = make_store(a=(0.1, 0.7), b=(-0.3, 0.2), c=(0.9, -0.4))
        base = average_embedding(store, ["a", "b", "c", "oov", "a"])
        other = average_embedding(store, list(words))
        assert other.support == base.support
        assert np.array_equal(other.vector, base.vector)


# sevenths, whose sums round differently in another order, and signed zeros
VALUES = st.one_of(st.integers(-10**9, 10**9).map(lambda k: k / 7), st.floats(-1e6, 1e6),
                   st.just(-0.0), st.just(0.0))


@given(dim=st.integers(1, 4), data=st.data())
@settings(max_examples=300, deadline=None)
def test_average_matches_reference(dim, data):
    vocab = data.draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8, unique=True))
    vectors = {w: data.draw(st.one_of(st.lists(VALUES, min_size=dim, max_size=dim),
                                      st.just([0.0] * dim)))
               for w in vocab}
    store = EmbeddingStore(dim, vectors)
    words = data.draw(st.lists(st.sampled_from(vocab + ["oov"]), max_size=16))
    got = average_embedding(store, words)
    want = reference_average_embedding(store, words)
    assert got.support == want.support
    assert got.vector.shape == want.vector.shape
    assert got.vector.tobytes() == want.vector.tobytes()


def span(*components):
    return SpanVector(vector=np.asarray(components, dtype=np.float64), support=1)


class TestCosine:
    def test_identical_direction(self):
        assert cosine_similarity(span(1.0, 0.0), span(1.0, 0.0)) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity(span(1.0, 0.0), span(0.0, 1.0)) == pytest.approx(0.0)

    def test_against_high_precision_value(self):
        got = cosine_similarity(span(1.0, 2.0, 3.0), span(4.0, 5.0, 6.0))
        assert got == pytest.approx(COS_123_456, abs=1e-12)

    def test_zero_norm_is_undefined(self):
        assert cosine_similarity(span(0.0, 0.0), span(1.0, 0.0)) is None
        empty = SpanVector(vector=np.zeros(2), support=0)
        assert cosine_similarity(empty, span(1.0, 0.0)) is None

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
        st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_symmetry_and_bound(self, u, v):
        su, sv = span(*u), span(*v)
        sim = cosine_similarity(su, sv)
        if sim is None:
            assert cosine_similarity(sv, su) is None
        else:
            assert cosine_similarity(sv, su) == sim
            assert abs(sim) <= 1.0 + 1e-12

    # components on a coarse grid so c*x never underflows to zero
    @given(
        st.lists(st.floats(-100, 100).map(lambda x: round(x, 3)), min_size=3, max_size=3),
        st.lists(st.floats(-100, 100).map(lambda x: round(x, 3)), min_size=3, max_size=3),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=300, deadline=None)
    def test_scale_invariance(self, u, v, c):
        base = cosine_similarity(span(*u), span(*v))
        scaled = cosine_similarity(span(*(c * x for x in u)), span(*(c * x for x in v)))
        if base is None:
            assert scaled is None
        else:
            assert scaled == pytest.approx(base, abs=1e-9)


class TestStoreConstruction:
    def test_dim_must_be_positive(self):
        with pytest.raises(ValueError):
            EmbeddingStore(0)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingStore(3, {"a": (1.0, 2.0)})

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingStore(2, {"a": (1.0, float("nan"))})

    def test_len_and_contains(self):
        store = make_store(a=(1.0,), b=(2.0,))
        assert len(store) == 2
        assert "a" in store and "zz" not in store
