import string
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexmrc import preprocess
from lexmrc.preprocess import (
    DEFAULT_PUNCTUATION,
    DictionarySegmenter,
    Lexicon,
    MAX_SYLLABLES,
    PreprocessConfig,
    load_lexicon,
    load_stopwords,
    preprocess_sentence,
    preprocess_text,
    split_sentences,
    tokenize,
)

from oracles import (
    ReferenceDictionarySegmenter,
    reference_clean,
    reference_load_lexicon,
    reference_load_stopwords,
    reference_split_sentences,
    reference_tokenize,
    vector_store,
)

BASIC = PreprocessConfig()


class TestTokenize:
    def test_splits_on_whitespace_and_punctuation(self):
        assert tokenize("Hello, world! a-b") == ["Hello", "world", "a", "b"]

    def test_underscore_is_not_punctuation(self):
        assert tokenize("học_sinh giỏi") == ["học_sinh", "giỏi"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("...!?") == []


class TestSplitSentences:
    def test_basic(self):
        assert split_sentences("A b. C d.") == ["A b", " C d"]

    def test_newline_and_ellipsis(self):
        assert split_sentences("một\nhai… ba?") == ["một", "hai", " ba"]

    def test_quotes_stay_attached(self):
        # quote marks ride along with the fragments; tokenization strips them
        assert split_sentences('"Chào." Bạn') == ['"Chào', '" Bạn']


class TestPreprocessSentence:
    def test_empty_input(self):
        assert preprocess_sentence("", BASIC) == []

    def test_punctuation_and_case(self):
        assert preprocess_sentence("Hello, WORLD!", BASIC) == ["hello", "world"]

    def test_segmentation_with_lexicon(self):
        cfg = PreprocessConfig(segmenter=DictionarySegmenter(["học_sinh"]))
        assert preprocess_sentence("học sinh đi học", cfg) == ["học_sinh", "đi", "học"]

    def test_stopwords_matched_case_insensitively(self):
        cfg = PreprocessConfig(stopwords=frozenset({"và"}))
        assert preprocess_sentence("Và rồi VÀ nữa", cfg) == ["rồi", "nữa"]

    def test_punctuation_only_yields_empty(self):
        assert preprocess_sentence("?!... --- ...", BASIC) == []


class TestPreprocessText:
    def test_two_sentences(self):
        out = preprocess_text("A b. C d.", BASIC)
        assert out.flat == ("a", "b", "c", "d")

    def test_empty_sentences_dropped(self):
        out = preprocess_text("...!!!", BASIC)
        assert out.flat == ()

    def test_flat_is_concatenation(self):
        text = "Một hai. Ba bốn năm. Sáu."
        out = preprocess_text(text, BASIC)
        assert out.flat == tuple(w for s in split_sentences(text)
                                 for w in preprocess_sentence(s, BASIC))

    def test_fixture_text_contains_segmented_compound(self, fixture_dataset, toy_preprocess):
        body = fixture_dataset.text_by_id("t-wm").body
        out = preprocess_text(body, toy_preprocess)
        assert "điện_thoại" in out.flat


class TestSegmentWords:
    def test_empty_lexicon_passthrough(self):
        assert DictionarySegmenter([])(["a", "b"]) == ["a", "b"]

    def test_longest_match(self):
        assert DictionarySegmenter(["học_sinh"])(["học", "sinh", "giỏi"]) == ["học_sinh", "giỏi"]

    def test_presegmented_token_passthrough(self):
        assert DictionarySegmenter(["học_sinh"])(["học_sinh", "giỏi"]) == ["học_sinh", "giỏi"]

    def test_three_syllable_join(self):
        assert DictionarySegmenter(["cô_rét_ti"])(["cô", "rét", "ti", "nói"]) == ["cô_rét_ti", "nói"]

    def test_longer_match_wins(self):
        lex = ["a_b", "a_b_c"]
        assert DictionarySegmenter(lex)(["a", "b", "c"]) == ["a_b_c"]

    def test_greedy_is_left_to_right(self):
        # greedy takes a_b at position 0 even though b_c would also match
        assert DictionarySegmenter(["a_b", "b_c"])(["a", "b", "c"]) == ["a_b", "c"]

    def test_match_never_spans_presegmented_token(self):
        assert DictionarySegmenter(["a_b_x", "b_x_c"])(["a", "b_x", "c"]) == ["a", "b_x", "c"]

    def test_deterministic(self):
        tokens = ["một", "hai", "ba", "một", "hai"]
        lex = ["một_hai"]
        assert DictionarySegmenter(lex)(tokens) == DictionarySegmenter(lex)(tokens)


@st.composite
def sentences(draw):
    alphabet = "ab cđ.AB,!-_ê"
    return draw(st.text(alphabet=alphabet, max_size=40))


class TestProperties:
    @given(sentences())
    @settings(max_examples=300, deadline=None)
    def test_idempotent(self, s):
        cfg = PreprocessConfig(
            stopwords=frozenset({"ab"}),
            segmenter=DictionarySegmenter(["a_b", "cđ_a", "a_a_a"]),
        )
        once = preprocess_sentence(s, cfg)
        again = preprocess_sentence(" ".join(once), cfg)
        assert again == once

    @given(sentences())
    @settings(max_examples=300, deadline=None)
    def test_no_punctuation_in_output(self, s):
        for word in preprocess_sentence(s, BASIC):
            assert word
            assert not all(ch in DEFAULT_PUNCTUATION for ch in word)
            assert not any(ch in DEFAULT_PUNCTUATION for ch in word)

    @given(st.text(alphabet="ab cđ.,!AB", max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_order_preserved_as_joins(self, s):
        # without pre-segmented input, splitting the output on "_" must
        # reproduce the cleaned token stream exactly
        cfg = PreprocessConfig(segmenter=DictionarySegmenter(["a_b", "b_a_cđ"]))
        cleaned = [t.lower() for t in tokenize(s)]
        out = preprocess_sentence(s, cfg)
        assert [syl for w in out for syl in w.split("_")] == cleaned


class TestWordFiles:
    def test_stopword_file(self, tmp_path):
        f = tmp_path / "stop.txt"
        f.write_text("# comment\nVà\nthì  \n\nmà # inline\n", encoding="utf-8")
        assert load_stopwords(f) == frozenset({"và", "thì", "mà"})

    def test_lexicon_file_space_or_underscore(self, tmp_path):
        f = tmp_path / "lex.txt"
        f.write_text("học sinh\nđiện_thoại\n", encoding="utf-8")
        assert load_lexicon(f) == frozenset({"học_sinh", "điện_thoại"})


class TestConfig:
    def test_default_punctuation_covers_ascii_except_join_marker(self):
        assert set(string.punctuation) - {"_"} <= DEFAULT_PUNCTUATION
        assert "_" not in DEFAULT_PUNCTUATION


def test_preprocess_text_skips_empty_sentences():
    out = preprocess_text("A. ?! B, c.", BASIC)
    assert out.flat == ("a", "b", "c")


# -- the rewritten loops against the character-by-character originals -------

WHITESPACE = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
# every line boundary of str.splitlines, as written to a file
LINE_ENDS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SYLLABLES = st.text(alphabet="abđ_", max_size=3)  # "" and "_" tokens included
REGEX_MARKS = list("]^\\-[.*+?()|$&~#")
# capital, small and final sigma, a capital I whose lowercase is two
# characters, and the marks around which a sigma lowercases by context
SENTENCE_ALPHABET = "ΣσςİĐđABZ'.: \t\n_"
SENTENCE_LEXICON = ["aς_b", "aσ_b", "σ_ς", "a_b", "b_σa", "đ_a_b", "i\u0307_a", "ab_đ_σ_σ"]


@st.composite
def lexicon_entries(draw):
    """Syllables joined by "_", a space or a newline, sometimes upper-cased
    and padded with whitespace."""
    parts = draw(st.lists(SYLLABLES, min_size=1, max_size=6))
    entry = parts[0]
    for part in parts[1:]:
        entry += draw(st.sampled_from(["_", "_", "_", " ", "\n"])) + part
    if draw(st.booleans()):
        entry = entry.upper()
    pad = st.text(alphabet=WHITESPACE, max_size=2)
    return draw(pad) + entry + draw(pad)


LEXICONS = st.one_of(
    # normal entries, as load_lexicon returns them
    st.frozensets(st.lists(st.text(alphabet="abđ", min_size=1, max_size=3), min_size=1,
                           max_size=6).map("_".join), max_size=12),
    st.frozensets(lexicon_entries(), max_size=12),
    st.lists(lexicon_entries(), max_size=12),
)


class TestAgainstReference:
    @given(LEXICONS, st.lists(SYLLABLES, max_size=14))
    @settings(max_examples=500, deadline=None)
    # a four-syllable entry that ends at the last token
    @example(lexicon=["a_b_đ_a"], tokens=["a", "a", "b", "đ", "a"])
    # a prefix run cut off by the end of the list
    @example(lexicon=["a_b_đ", "b_đ_a_a"], tokens=["a", "b", "đ", "a"])
    # an opaque token right after the start of a run
    @example(lexicon=["a_b", "a_a_b"], tokens=["a", "a_b", "b"])
    @example(lexicon=["a_b"], tokens=["a"])
    @example(lexicon=["a_b"], tokens=[])
    def test_segmenter(self, lexicon, tokens):
        ref = ReferenceDictionarySegmenter(lexicon, MAX_SYLLABLES)
        # runs drawn from the entries themselves, so that long matches occur
        planted = [t for w in sorted(ref.lexicon) for t in w.split("_")] + tokens
        # with the prefix set, and with every run extended to MAX_SYLLABLES
        for seg in DictionarySegmenter(lexicon), DictionarySegmenter(lexicon, prefixes=False):
            assert seg.lexicon == ref.lexicon
            assert seg(tokens) == ref(tokens)
            assert seg(planted) == ref(planted)

    @given(st.lists(st.lists(st.text(alphabet="abđ", min_size=1, max_size=2), min_size=1,
                             max_size=MAX_SYLLABLES + 1).map("_".join), max_size=16))
    @settings(max_examples=300, deadline=None)
    def test_prefixes(self, entries):
        # every proper prefix of two or more syllables of every entry
        lexicon = Lexicon(entries)
        syllables = [w.split("_") for w in lexicon]
        assert lexicon.prefixes == {"_".join(s[:k]) for s in syllables for k in range(2, len(s))}

    def test_normal_lexicon_is_kept(self, tmp_path):
        f = tmp_path / "lex.txt"
        f.write_text("học sinh\nđiện_thoại\ncô rét ti\n", encoding="utf-8")
        lexicon = load_lexicon(f)
        assert DictionarySegmenter(lexicon).lexicon is lexicon

    def test_a_lexicon_is_normal_and_computes_its_prefixes_once(self, monkeypatch):
        calls = []
        run_prefixes = preprocess._run_prefixes
        monkeypatch.setattr(preprocess, "_run_prefixes",
                            lambda lexicon: calls.append(lexicon) or run_prefixes(lexicon))
        lexicon = Lexicon(["Học Sinh", " ", "a_b_c", "a_b_c"])
        assert lexicon == {"học_sinh", "a_b_c"} and Lexicon(lexicon) is lexicon
        assert DictionarySegmenter(lexicon, prefixes=False).lexicon is lexicon and not calls
        first, second = DictionarySegmenter(lexicon), DictionarySegmenter(lexicon)
        assert first.lexicon is second.lexicon is lexicon
        assert first._prefixes is second._prefixes == {"a_b"}
        assert len(calls) == 1
        # a normal frozenset is kept as given: no entry is rebuilt
        normal = frozenset({"học_sinh"})
        assert next(iter(Lexicon(normal))) is next(iter(normal))

    def test_segmenters_from_one_store_share_its_lexicon(self):
        store = vector_store({"Học_Sinh": [1.0], "học": [2.0], "a_b_c": [3.0]})
        lexicon = store.multi_syllable_words()
        assert lexicon == {"học_sinh", "a_b_c"} and store.multi_syllable_words() is lexicon
        assert DictionarySegmenter(store.multi_syllable_words()).lexicon is lexicon
        assert DictionarySegmenter(lexicon)(["học", "sinh", "a", "b", "c"]) == ["học_sinh", "a_b_c"]

    def test_context_lowercasing_is_per_entry(self, tmp_path):
        # a final capital sigma lowercases by its neighbours; each entry is
        # its own context, also where the file text runs on past it
        f = tmp_path / "lex.txt"
        f.write_text("ΑΣ\nΣΑ\nΑΣ#Α\nΑΣ \u2028Α\n", encoding="utf-8")
        assert load_lexicon(f) == reference_load_lexicon(f) == {"ας", "σα", "α"}
        assert DictionarySegmenter(["ΑΣ_ΑΣ"]).lexicon == {"ας_ας"}

    def test_islower_text_is_left_as_it_is_by_lower(self):
        # the normal-lexicon check and the word-file reader skip lowercasing
        # a text for which str.islower holds, that is, one without any
        # upper-case or title-case character
        changed = [c for c in map(chr, range(sys.maxunicode + 1))
                   if not (c.isupper() or c.istitle()) and c.lower() != c]
        assert changed == []

    def test_lowercasing_keeps_tokens_and_only_sigma_reads_its_neighbours(self):
        # preprocess_sentence lowercases a sentence without a capital sigma
        # whole. That gives the tokens lowercasing each token gives only
        # while no character's lowercase moves it between a token character
        # and a separator, and no character but U+03A3 lowercases by its
        # neighbours; each Python ships its own Unicode version
        chars = list(map(chr, range(sys.maxunicode + 1)))
        moved = [c for c in chars if tokenize(c.lower()) != ([c.lower()] if tokenize(c) else [])]
        assert moved == []
        contexts = [("A", ""), ("", "A"), ("A", "A"), ("A'", "'A")]
        by_context = [c for c in chars
                      if any((a + c + b).lower() != a.lower() + c.lower() + b.lower()
                             for a, b in contexts)]
        assert by_context == ["\u03a3"]

    @given(st.text(alphabet=SENTENCE_ALPHABET, max_size=30),
           st.frozensets(st.text(alphabet="ΣσςİĐđAB", min_size=1, max_size=2), max_size=4),
           st.frozensets(st.sampled_from(SENTENCE_LEXICON), max_size=6))
    @settings(max_examples=500, deadline=None)
    @example(sentence="ΑΣ'Β", stopwords=frozenset(), lexicon=frozenset())
    @example(sentence="ΟΔΟΣ.ΑΒ", stopwords=frozenset(), lexicon=frozenset({"οδος_αβ"}))
    @example(sentence="ΑΣ:Β ΣΑ", stopwords=frozenset({"ΣΑ"}), lexicon=frozenset({"ας_β"}))
    @example(sentence="İSTANBUL", stopwords=frozenset(), lexicon=frozenset())
    @example(sentence="Học Sinh", stopwords=frozenset(), lexicon=frozenset({"học_sinh"}))
    def test_preprocess_sentence(self, sentence, stopwords, lexicon):
        cfg = PreprocessConfig(stopwords=stopwords, segmenter=DictionarySegmenter(lexicon))
        want = reference_clean(sentence, {w.lower() for w in stopwords},
                               ReferenceDictionarySegmenter(lexicon))
        assert preprocess_sentence(sentence, cfg) == want

    @given(st.text(alphabet="aĐ_…,." + "".join(REGEX_MARKS) + WHITESPACE[:8] + WHITESPACE[-8:],
                   max_size=30))
    @settings(max_examples=500, deadline=None)
    def test_tokenize(self, text):
        assert tokenize(text) == reference_tokenize(text, DEFAULT_PUNCTUATION)

    def test_tokenize_every_whitespace_character(self):
        text = "a".join(WHITESPACE) + "b"
        assert tokenize(text) == reference_tokenize(text, DEFAULT_PUNCTUATION)
        assert len(tokenize(text)) == len(WHITESPACE)

    @given(st.text(alphabet="a .!?…\n\r\u2028" + WHITESPACE[-4:], max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_split_sentences(self, text):
        assert split_sentences(text) == reference_split_sentences(text)

    @given(st.lists(st.tuples(st.one_of(lexicon_entries(), st.just("")),
                              st.sampled_from(["", "", "#", "# note", "#x\ry", " #a b"]),
                              st.sampled_from(LINE_ENDS)),
                    max_size=8))
    @settings(max_examples=300, deadline=None)
    @example(lines=[])
    @example(lines=[("", "# note", "\n"), ("", "#", "\r\n")])
    @example(lines=[("a\tb", "", "\n")])
    @example(lines=[("  a b \t", "", "\n")])
    @example(lines=[("HỌC SINH", "", "\n"), ("ĐIỆN_THOẠI", "", "\n")])
    @example(lines=[("a b", "", "\r\n"), ("c_d", "", "\r\n"), ("e", "", "\r\n")])
    def test_word_files(self, tmp_path_factory, lines):
        f = tmp_path_factory.mktemp("words") / "words.txt"
        f.write_bytes("".join(e + c + end for e, c, end in lines).encode("utf-8"))
        lexicon = load_lexicon(f)
        assert lexicon == reference_load_lexicon(f)
        assert load_stopwords(f) == reference_load_stopwords(f)
        # loaded already normal: a Lexicon that Lexicon() passes through and
        # that its normalising path, forced by a blank entry, rebuilds the same
        assert type(lexicon) is Lexicon and Lexicon(lexicon) is lexicon
        raw = [line.split("#", 1)[0] for line in f.read_text(encoding="utf-8").splitlines()]
        assert lexicon == Lexicon(raw + [""])
