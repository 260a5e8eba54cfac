"""`TextIndex` on integer token ids, held to the index it replaced.

`ReferenceTextIndex` (tests/oracles.py) is the earlier index: per-token
loops and every window mean formed again on each `boost`. The current
index must give the same float, bit for bit, for `sw`, `d` (min and max)
and `web`, with `sw`, `d` and `web` of every option of a text scored in
one batch where the reference scores one option at a time.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexmrc import scoring
from lexmrc.preprocess import ProcessedText
from lexmrc.scoring import MethodConfig, TextIndex, score_questions

from conftest import d_of, sw_of, web_of
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
    web = index.boost([option for _, option in queries])
    assert len(web) == len(queries)
    for (_, option), got in zip(queries, web):
        same(got, ref.boost(option))


# rows with -0.0 components, zero rows, and "c0", the negation of "w0",
# with which it cancels to a zero mean
WEB_WORDS = TEXT_WORDS + ["c0"]


@st.composite
def web_stores(draw):
    dim = draw(st.integers(1, 4))
    vectors = {w: [draw(st.one_of(components, st.just(-0.0))) for _ in range(dim)]
               for w in KNOWN}
    vectors.update({w: [0.0] * dim for w in ZERO})
    vectors["c0"] = [-x for x in vectors["w0"]]
    return vector_store(vectors)


web_texts = st.one_of(
    st.just(pt()),
    st.sampled_from(WEB_WORDS).map(pt),
    st.lists(st.sampled_from(WEB_WORDS), min_size=2, max_size=48).map(
        lambda words: ProcessedText(tuple(words))),
)


@st.composite
def web_options(draw):
    """A text's options in any order: free ones (some longer than any
    text), an empty one, an all-unknown one, one that cancels to a zero
    mean, one word repeated, and many of one width."""
    free = draw(st.lists(st.lists(st.sampled_from(WEB_WORDS + ["absent"]), max_size=60),
                         max_size=12))
    width = draw(st.integers(1, 6))
    same_width = draw(st.lists(st.lists(st.sampled_from(WEB_WORDS), min_size=width,
                                        max_size=width), max_size=20))
    fixed = [[], ["u0", "absent", "u0"], ["w0", "c0"], ["w1"] * 50]
    return draw(st.permutations(free + fixed + same_width))


@settings(max_examples=200, deadline=None)
@given(text=web_texts, store=web_stores(), options=web_options())
def test_boost_of_a_text_matches_reference_option_by_option(text, store, options):
    """All options of a text scored in one `boost` get, bit for bit, the
    float the reference gives each of them alone."""
    got = TextIndex(text, store).boost(options)
    ref = ReferenceTextIndex(text, store)
    assert len(got) == len(options)
    for web, option in zip(got, options):
        same(web, ref.boost(option))


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
def test_boost_scores_windows_only_inside_the_text(text, store, queries):
    """The kernel relies on `boost` for the web edge cases: every width it
    is called with is 1 <= width <= n, whatever the option (empty, with no
    known word, or longer than the text) and whatever the text (from 0
    tokens)."""
    original = scoring.max_window_cosine

    def checked(vec_prefix, cnt_prefix, width, targets):
        n = cnt_prefix.shape[0] - 1
        assert n == len(text.flat)
        assert 1 <= width <= n
        return original(vec_prefix, cnt_prefix, width, targets)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scoring, "max_window_cosine", checked)
        TextIndex(text, store).boost([option for _, option in queries])


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
        assert index.boost([["a"], []]) == [0.0, 0.0]


def counting_kernel(monkeypatch):
    """The widths and target counts of each `max_window_cosine` call that
    `scoring` makes, in call order."""
    calls = []
    original = scoring.max_window_cosine

    def counting(vec_prefix, cnt_prefix, width, targets):
        calls.append((width, len(targets)))
        return original(vec_prefix, cnt_prefix, width, targets)

    monkeypatch.setattr(scoring, "max_window_cosine", counting)
    return calls


class TestWindowCache:
    """`boost` keeps nothing on the index between calls: the window means
    of a width are formed once per call, inside the kernel call that
    scores all the options of that width."""

    def test_one_build_per_width(self, store, monkeypatch):
        calls = counting_kernel(monkeypatch)
        index = TextIndex(pt("a", "b", "z", "a"), store)
        index.boost([["a"], ["b", "a"], ["b"], ["a", "b"], ["z"], ["a"] * 9, ["b"] * 4])
        # widths past the text end share the width of the whole text
        assert calls == [(1, 3), (2, 2), (4, 2)]

    def test_undefined_boosts_build_nothing(self, store, monkeypatch):
        monkeypatch.setattr(scoring, "max_window_cosine", None)
        index = TextIndex(pt("a", "b"), store)
        assert index.boost([[], ["u"]]) == [0.0, 0.0]  # ["u"]: no known word, support 0

    def test_zero_norm_target(self, store, monkeypatch):
        calls = counting_kernel(monkeypatch)
        index = TextIndex(pt("a", "b"), store)
        assert web_of(index, ["z"]) == 0.0
        assert calls == [(1, 1)]
        assert web_of(index, ["a"]) == pytest.approx(1.0)


def test_threads_sharing_one_index_get_the_reference_floats(monkeypatch):
    """Threads that share one text's index race to convert their options'
    rows in the store, each scoring a batch of options of several widths;
    every boost must still be the reference float, from one kernel call
    per width of each batch."""
    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in range(40)]
    # o*: option words the text lacks, so their rows are converted by the threads
    vectors = {w: rng.normal(size=8) for w in words[:30] + [f"o{i}" for i in range(60)]}
    text = ProcessedText(tuple(words[i] for i in rng.integers(0, 40, size=300)))
    option_words = words[:30] + [f"o{i}" for i in range(60)]
    options = [[option_words[i] for i in rng.integers(0, 90, size=k)] for k in range(1, 13)] * 4
    ref = ReferenceTextIndex(text, vector_store(vectors))
    want = [ref.boost(o) for o in options]
    batches = [options[i:i + 4] for i in range(0, len(options), 4)]
    calls = counting_kernel(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):  # a race in the store shows in some rounds, not all
            index = TextIndex(text, vector_store(vectors))
            calls.clear()
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = [web for batch in pool.map(index.boost, batches) for web in batch]
            assert got == want
            assert sorted(calls) == sorted((len(o), 1) for o in options)
    finally:
        sys.setswitchinterval(interval)
