"""Text pre-processing: tokenization, punctuation and stopword removal,
lowercasing, and dictionary-based word segmentation.

A sentence is cleaned in a fixed order: tokenize, drop punctuation, drop
stopwords (matched case-insensitively), lowercase, segment. Segmentation
joins runs of syllables that form a known multi-syllable word with "_",
the convention used by common Vietnamese NLP tools, so pre-segmented
corpora pass through unchanged.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "DEFAULT_PUNCTUATION",
    "MAX_SYLLABLES",
    "SENTENCE_BREAKS",
    "DictionarySegmenter",
    "Lexicon",
    "PreprocessConfig",
    "ProcessedText",
    "WordList",
    "load_lexicon",
    "load_stopwords",
    "preprocess_sentence",
    "preprocess_text",
    "split_sentences",
    "tokenize",
]

WordList = list[str]

# "_" is reserved as the segmentation join marker and must never be treated
# as punctuation, otherwise segmented words would be torn apart again.
DEFAULT_PUNCTUATION = frozenset(string.punctuation + "“”‘’‚„«»…–—―·¡¿。、，；：！？（）【】「」『』") - {"_"}
_TOKEN = re.compile(f"[^{re.escape(''.join(sorted(DEFAULT_PUNCTUATION)))}\\s]+")

SENTENCE_BREAKS = (".", "!", "?", "…", "\n")
_SENTENCE_SPLIT = re.compile(f"[{re.escape(''.join(SENTENCE_BREAKS))}]")

# a comment runs to the next of str.splitlines' line boundaries
_COMMENT = re.compile("#[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*")

Segmenter = Callable[[Sequence[str]], WordList]

# the most syllables a segmented word joins
MAX_SYLLABLES = 4


class Lexicon(frozenset):
    """A segmentation word list in normal form: entries stripped,
    lowercased, spaces joined with "_", blank ones dropped. Words already
    in normal form are kept as given, and a `Lexicon` passed in is returned
    as it is. The run prefixes of the entries (`_run_prefixes`) are
    computed by the first `DictionarySegmenter` built over the lexicon
    with `prefixes=True` (the default) and then kept, so every later
    segmenter over it shares them; a lexicon only ever segmented with
    `prefixes=False` never builds them."""

    def __new__(cls, words: Iterable[str] = ()):
        if isinstance(words, Lexicon):
            return words
        lexicon = super().__new__(cls, words)
        if _is_normal(lexicon):
            return lexicon
        return super().__new__(cls, (w.strip().lower().replace(" ", "_")
                                     for w in lexicon if w.strip()))

    @cached_property
    def prefixes(self) -> frozenset[str]:
        return _run_prefixes(self)


class DictionarySegmenter:
    """Greedy longest-match segmenter over a fixed word list.

    Scans left to right and joins the longest run of syllables (up to
    `MAX_SYLLABLES`) found in the lexicon. Tokens that already contain "_"
    are opaque: they pass through unchanged and no run may span them.

    The lexicon is normalised once into a `Lexicon`; one given as a
    `Lexicon`, such as `load_lexicon` and
    `EmbeddingStore.multi_syllable_words` return, is kept as it is. The
    segmenter also uses every proper prefix of two or more syllables of
    the entries (`Lexicon.prefixes`, built here unless the lexicon holds
    them already), so a run is extended only while some entry still
    starts with it.

    With `prefixes=False` the prefix set is never built or read, and every
    run is extended up to `MAX_SYLLABLES`. The words are the same, since
    the prefix test only stops runs that no entry extends. The set costs
    about as much to build as it saves over some 50,000 tokens, so it does
    not pay where only one question's strings are segmented.
    """

    def __init__(self, lexicon: Iterable[str] = (), *, prefixes: bool = True):
        self.lexicon = Lexicon(lexicon)
        self._prefixes = self.lexicon.prefixes if prefixes else _EVERY_RUN

    def __call__(self, tokens: Sequence[str]) -> WordList:
        lexicon, prefixes = self.lexicon, self._prefixes
        out: WordList = []
        n = len(tokens)
        i = 0
        while i < n:
            word = run = tokens[i]
            i += 1
            if i < n and "_" not in word:
                # extend the run one syllable at a time while it is a
                # prefix of some entry; the longest entry seen wins. The
                # end is clipped by a comparison, cheaper than a min() call
                j, end = i, i - 1 + MAX_SYLLABLES
                if end > n:
                    end = n
                while j < end and "_" not in tokens[j]:
                    run = f"{run}_{tokens[j]}"
                    j += 1
                    if run in lexicon:
                        word, i = run, j
                    if run not in prefixes:
                        break
            out.append(word)
        return out


class _EveryRun:
    """Stands in for the prefix set of a segmenter built with
    `prefixes=False`: every run is worth extending. Its `in` costs about
    0.1 µs a token more than a loop without the test would, which keeps
    one loop for both kinds of segmenter."""

    def __contains__(self, run: str) -> bool:
        return True


_EVERY_RUN = _EveryRun()


def _is_normal(lexicon: frozenset[str]) -> bool:
    """True when no entry is empty or holds whitespace, and every cased
    character is lowercase: normalising would rebuild the same set. A set
    without any cased character fails and is rebuilt, to the same result.
    Checked over the concatenation, without copying it lowercased."""
    if "" in lexicon:
        return False
    joined = "".join(lexicon)
    return joined.split() == [joined] and joined.islower()


def _normal_lexicon(words: Iterable[str]) -> Lexicon:
    """A `Lexicon` of words already in normal form, built without the
    check and the normalising pass of `Lexicon(...)`."""
    return frozenset.__new__(Lexicon, words)


def _run_prefixes(lexicon: frozenset[str]) -> frozenset[str]:
    """The proper prefixes of two or more syllables of the entries: the
    runs worth extending by one more syllable. Only the entries of three
    syllables or more have any: the first round picks them out and cuts
    their last syllable, and a round more is made only while some cut
    still has three."""
    cuts = [{w[: w.rfind("_")] for w in lexicon if w.count("_") > 1}]
    # every cut holds one "_" or more, so one "_" per cut leaves none to cut
    while "".join(cuts[-1]).count("_") > len(cuts[-1]):
        cuts.append({w[: w.rfind("_")] for w in cuts[-1] if w.count("_") > 1})
    return frozenset().union(*cuts)


@dataclass(frozen=True)
class PreprocessConfig:
    """Cleaning configuration shared by every pipeline stage."""

    stopwords: frozenset[str] = frozenset()
    segmenter: Segmenter = field(default_factory=DictionarySegmenter)

    def __post_init__(self):
        # stopwords are matched case-insensitively
        object.__setattr__(self, "stopwords", frozenset(w.lower() for w in self.stopwords))


@dataclass(frozen=True)
class ProcessedText:
    """A reading text after cleaning: the flat token sequence, in sentence
    order, that the scoring functions operate on."""

    flat: tuple[str, ...]


def tokenize(text: str) -> list[str]:
    """Split on whitespace and punctuation characters; punctuation is
    consumed, everything else is preserved verbatim. A token is a maximal
    run of characters that are neither `str.isspace` nor in
    `DEFAULT_PUNCTUATION`."""
    return _TOKEN.findall(text)


def split_sentences(text: str) -> list[str]:
    """Split a text on sentence-final marks and newlines. Quote and bracket
    characters stay attached to their tokens; they are stripped later as
    punctuation."""
    return [s for s in _SENTENCE_SPLIT.split(text) if s.strip()]


def preprocess_sentence(sentence: str, cfg: PreprocessConfig) -> WordList:
    """Clean one sentence into a list of lowercase segmented words.

    Degenerate input (empty, punctuation-only, all stopwords) yields an
    empty list.
    """
    # lowercasing a whole sentence gives the tokens that lowercasing each
    # token gives: no character's lowercase moves it between a token and a
    # separator, and only a capital sigma lowercases by its neighbours (to
    # σ, or to ς ending a word), so a sentence holding one goes token by token
    if "Σ" in sentence:
        tokens = [t.lower() for t in tokenize(sentence)]
    else:
        tokens = tokenize(sentence.lower())
    if cfg.stopwords:
        tokens = [t for t in tokens if t not in cfg.stopwords]
    return cfg.segmenter(tokens)


def preprocess_text(text: str, cfg: PreprocessConfig) -> ProcessedText:
    """Clean a whole reading text sentence by sentence and join the words
    of every sentence in order."""
    return ProcessedText(
        tuple(w for s in split_sentences(text) for w in preprocess_sentence(s, cfg))
    )


def _read_word_file(path: str | Path) -> Iterator[str]:
    """The entries of a word file, stripped and lowercased, blank ones
    skipped. Comments are cut from the whole text. Lines are lowercased one
    by one, and only when `str.islower` fails on the whole text: a
    whole-text `lower` would hold 12 bytes a character at once. Case
    context (a final sigma) never reaches across the whitespace around an
    entry, so a line lowercases as its entry does."""
    text = Path(path).read_text(encoding="utf-8")
    if "#" in text:
        text = _COMMENT.sub("", text)
    lines = text.splitlines()
    return filter(None, map(str.strip, lines if text.islower() else map(str.lower, lines)))


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Stopword file: UTF-8, one word per line, '#' starts a comment."""
    return frozenset(_read_word_file(path))


def load_lexicon(path: str | Path) -> Lexicon:
    """Lexicon file: one word per line, syllables joined by '_' or spaces.

    The entries are stripped and lowercased as they are read and their
    spaces become "_" as they go into the set, so the `Lexicon` is normal
    as it is built and `Lexicon`'s check is skipped."""
    return _normal_lexicon(map(str.replace, _read_word_file(path), repeat(" "), repeat("_")))
