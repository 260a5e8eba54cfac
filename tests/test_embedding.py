import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexmrc.embedding import (
    EmbeddingFormatError,
    EmbeddingStore,
    SpanVector,
    average_embedding,
    cosine_similarity,
    load_embeddings,
)

from oracles import reference_load_embeddings

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
