"""`TextIndex` on integer token ids, held to the index it replaced.

`ReferenceTextIndex` (tests/oracles.py) is the earlier index: per-token
loops and every window mean formed again on each `boost`. The current
index must give the same float, bit for bit, for `sw`, `d` (min and max)
and `web`, with its per-width cache of window means hit and missed in any
order, and with `sw` and `d` of every option of a text scored in one
batch where the reference scores one option at a time.
"""

import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexmrc import scoring
from lexmrc.preprocess import ProcessedText
from lexmrc.scoring import MethodConfig, TextIndex, score_questions

from conftest import d_of, sw_of
from oracles import ReferenceTextIndex, vector_store

# w*: words with vectors, z*: words whose vector is zero, u*: words the
# store does not know, "absent": a word no text contains
KNOWN = ["w0", "w1", "w2", "w3", "w4"]
ZERO = ["z0", "z1"]
UNKNOWN = ["u0", "u1"]
TEXT_WORDS = KNOWN + ZERO + UNKNOWN
QUERY_WORDS = TEXT_WORDS + ["absent"]

components = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def stores(draw):
    dim = draw(st.integers(1, 4))
    vectors = {w: [draw(components) for _ in range(dim)] for w in KNOWN}
    vectors.update({w: [0.0] * dim for w in ZERO})
    return vector_store(vectors)


texts = st.lists(st.sampled_from(TEXT_WORDS), max_size=48).map(
    lambda words: ProcessedText(tuple(words)))
# widths from 0 (empty option) past any text length, repeated by design
word_lists = st.lists(st.sampled_from(QUERY_WORDS), max_size=8)
queries = st.lists(st.tuples(word_lists, word_lists), min_size=1, max_size=10)


def pt(*tokens):
    return ProcessedText(tuple(tokens))


def same(got, want):
    """Equal as the reports print them: the same float, down to the sign
    of a zero."""
    assert type(got) is type(want)
    assert repr(got) == repr(want)


def batched(index, queries, aggregation):
    """`sw` and `d` of every (question, option) of `queries` from one call
    each, every option a question of its own."""
    sw = index.window_score([set(q) | set(o) for q, o in queries])
    dist = index.distance([set(q) for q, _ in queries], [[set(o)] for _, o in queries],
                          aggregation)
    return sw, [d for (d,) in dist]


@settings(max_examples=300, deadline=None)
@given(text=texts, store=stores(), queries=queries)
def test_matches_reference_bit_for_bit(text, store, queries):
    index = TextIndex(text, store)
    ref = ReferenceTextIndex(text, store)
    assert index.log_weights.tobytes() == ref.log_weights.tobytes()
    assert index.vec_prefix.tobytes() == ref.vec_prefix.tobytes()
    assert index.cnt_prefix.tolist() == ref.cnt_prefix.tolist()
    masks = index.token_masks([{word} for word in QUERY_WORDS])
    for word, mask in zip(QUERY_WORDS, masks):
        want = ref.positions[word].tolist() if word in ref.positions else []
        assert np.flatnonzero(mask).tolist() == want
    for aggregation in ("min", "max"):
        sw, dist = batched(index, queries, aggregation)
        for (question, option), got_sw, got_d in zip(queries, sw, dist):
            same(got_sw, ref.window_score(set(question) | set(option)))
            same(got_d, ref.distance(set(question), set(option), aggregation))
    for _, option in queries:
        same(index.boost(option), ref.boost(option))


@settings(max_examples=100, deadline=None)
@given(text=texts, queries=queries)
def test_matches_reference_without_a_store(text, queries):
    index = TextIndex(text)
    ref = ReferenceTextIndex(text)
    assert index.vec_prefix is None and index.cnt_prefix is None
    sw, dist = batched(index, queries, "min")
    for (question, option), got_sw, got_d in zip(queries, sw, dist):
        same(got_sw, ref.window_score(set(question) | set(option)))
        same(got_d, ref.distance(set(question), set(option), "min"))


# whole texts as a split gives them to `score_questions`: from 0 tokens,
# with "_" tokens, and many questions of four options, any stem or option
# empty and any window wider than the text
OPAQUE = ["w0_w1", "u_0"]
whole_texts = st.lists(st.sampled_from(TEXT_WORDS + OPAQUE), max_size=24).map(
    lambda words: ProcessedText(tuple(words)))
whole_words = st.lists(st.sampled_from(QUERY_WORDS + OPAQUE), max_size=30)
whole_questions = st.lists(st.tuples(whole_words, st.lists(whole_words, min_size=4, max_size=4)),
                           min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(whole_texts, st.sampled_from([pt(), pt("w0"), pt("w0_w1")])),
       questions=whole_questions, aggregation=st.sampled_from(["min", "max"]))
def test_whole_texts_match_reference_option_by_option(text, questions, aggregation):
    """Every option of a text scored in one batch gives the floats of the
    reference, which scores each option on its own."""
    cfg = MethodConfig(method="sw_d", distance_aggregation=aggregation)
    stems = [stem for stem, _ in questions]
    options = [q_options for _, q_options in questions]
    got = score_questions(TextIndex(text), stems, options, (cfg,))
    ref = ReferenceTextIndex(text)
    assert len(got) == len(questions)
    for scores, stem, q_options in zip(got, stems, options):
        for sw, d, option in zip(scores.sw, scores.dist, q_options):
            same(sw, ref.window_score(set(stem) | set(option)))
            same(d, ref.distance(set(stem), set(option), aggregation))
        assert scores.web is None


@settings(max_examples=300, deadline=None)
@given(text=texts, store=stores(), queries=queries)
def test_boost_builds_window_means_only_inside_the_text(text, store, queries):
    """The kernels rely on `boost` for the web edge cases: every width it
    builds window means for is 1 <= width <= n, whatever the option (empty,
    with no known word, or longer than the text) and whatever the text
    (from 0 tokens)."""
    original = scoring.window_means

    def checked(vec_prefix, cnt_prefix, width):
        n = cnt_prefix.shape[0] - 1
        assert n == len(text.flat)
        assert 1 <= width <= n
        return original(vec_prefix, cnt_prefix, width)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scoring, "window_means", checked)
        index = TextIndex(text, store)
        for _, option in queries:
            index.boost(option)


@pytest.fixture
def store():
    return vector_store({"a": [1.0, 0.0], "b": [0.0, 1.0], "z": [0.0, 0.0]})


class TestIds:
    def test_vocab_in_first_occurrence_order(self):
        index = TextIndex(pt("b", "a", "b", "c"))
        assert index.vocab == ("b", "a", "c")
        assert index.ids.tolist() == [0, 1, 0, 2]
        assert index.counts == {"b": 2, "a": 1, "c": 1}

    def test_empty_text(self, store):
        index = TextIndex(pt(), store)
        assert index.vocab == ()
        assert index.ids.tolist() == []
        assert index.token_masks([{"a"}]).tolist() == [[]]
        assert index.vec_prefix.shape == (1, 2)
        assert sw_of(index, {"a"}) == 0.0
        assert d_of(index, {"a"}, {"b"}, "min") == 1.0
        assert index.boost(["a"]) == 0.0


class TestWindowCache:
    def test_one_build_per_width(self, store, monkeypatch):
        built = []
        original = scoring.window_means

        def counting(vec_prefix, cnt_prefix, width):
            built.append(width)
            return original(vec_prefix, cnt_prefix, width)

        monkeypatch.setattr(scoring, "window_means", counting)
        index = TextIndex(pt("a", "b", "z", "a"), store)
        for option in (["a"], ["b", "a"], ["b"], ["a", "b"], ["z"], ["a"] * 9, ["b"] * 4):
            index.boost(option)
        # widths past the text end share the width of the whole text
        assert built == [1, 2, 4]
        assert sorted(index._windows) == [1, 2, 4]

    def test_undefined_boosts_build_nothing(self, store, monkeypatch):
        monkeypatch.setattr(scoring, "window_means", None)
        index = TextIndex(pt("a", "b"), store)
        assert index.boost([]) == 0.0
        assert index.boost(["u"]) == 0.0  # no known word: support 0
        assert index._windows == {}

    def test_zero_norm_target(self, store):
        index = TextIndex(pt("a", "b"), store)
        assert index.boost(["z"]) == 0.0
        assert sorted(index._windows) == [1]
        assert index.boost(["a"]) == pytest.approx(1.0)

    def test_cache_is_freed_with_its_index(self, store):
        index = TextIndex(pt("a", "b"), store)
        index.boost(["a"])
        means = weakref.ref(index._windows[1].means)
        del index
        gc.collect()
        assert means() is None

    def test_cached_means_are_read_only(self, store):
        index = TextIndex(pt("a", "b"), store)
        index.boost(["a"])
        windows = index._windows[1]
        assert not windows.means.flags.writeable
        assert not windows.norms.flags.writeable
        assert np.array_equal(windows.valid, [True, True])


def test_threads_sharing_one_index_get_the_reference_floats():
    """Threads that share one text's index race to fill its cache; every
    boost must still be the reference float."""
    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in range(40)]
    store = vector_store({w: rng.normal(size=8) for w in words[:30]})
    text = ProcessedText(tuple(words[i] for i in rng.integers(0, 40, size=300)))
    options = [[words[i] for i in rng.integers(0, 30, size=k)] for k in range(1, 13)] * 4
    ref = ReferenceTextIndex(text, store)
    want = [ref.boost(o) for o in options]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            index = TextIndex(text, store)
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(index.boost, options))
            assert got == want
            assert sorted(index._windows) == list(range(1, 13))
    finally:
        sys.setswitchinterval(interval)
