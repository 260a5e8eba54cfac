"""Deterministic synthetic inputs for the benchmark workloads.

Every input has two layers:

* the *skeleton* -- which word stands where in every text, stem and
  option, which texts each question reads, the split and grade layout --
  is drawn from the fixed ``SKELETON_SEED``;
* the *surface* -- the spelling of every syllable, the order of texts and
  questions in the dataset file, and every vector component -- is drawn
  from the run's ``--seed``.

Spelling is a bijection on syllables and the lexicon is spelled with the
same map, so preprocessing, segmentation, counts, positions and window
weights are the same on every seed. Per-question outcomes, and with them
the number of failed questions, therefore repeat exactly from seed to
seed, while the bytes the program reads do not.

The segmentation is planted: every lexicon entry begins with a syllable
that begins no other entry and is never a word by itself, so greedy
longest-match segmentation recovers exactly the words the generator laid
down, with or without stopwords removed. Expected statistics are computed
from the skeleton, never from the program.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

SKELETON_SEED = 20200113

# word-id ranges of the language; one store row per word
N_SINGLE = 3_000          # one-syllable content words used in texts
N_STOP = 60               # one-syllable stopwords (corpus-lexical only)
N_TEXT_COMPOUND = 1_500   # multi-syllable words used in texts
STORE_ROWS = 100_000      # the rest of the store: half multi-syllable, half not
DIM = 100

STOP_LO = N_SINGLE
COMPOUND_LO = STOP_LO + N_STOP
N_CONTENT = COMPOUND_LO + N_TEXT_COMPOUND  # words that may occur in texts

# vector components are written with four decimals: value = k / 10000
VALUE_SCALE = 10_000
VALUE_CLIP = 40_000

# split x grade -> (texts, questions); the published corpus layout, as in
# tests/test_scale.py (417 texts, 2,783 questions)
CORPUS_LAYOUT = {
    ("train", 1): (7, 42), ("train", 2): (49, 365), ("train", 3): (132, 539),
    ("train", 4): (69, 503), ("train", 5): (35, 526),
    ("dev", 1): (1, 6), ("dev", 2): (7, 49), ("dev", 3): (18, 73),
    ("dev", 4): (10, 70), ("dev", 5): (6, 96),
    ("test", 1): (2, 12), ("test", 2): (14, 100), ("test", 3): (38, 147),
    ("test", 4): (20, 136), ("test", 5): (9, 119),
}
REASONING_TYPES = ("WM", "PP", "SSR", "MSR", "AoI")
LABELS = "ABCD"

_LETTERS = (
    "aăâbcdđeêghiklmnoôơpqrstuưvxy"
    "áàảãạấầẩẫậắằẳẵặéèẻẽẹếềểễệíìỉĩịóòỏõọốồổỗộớờởỡợúùủũụứừửữựýỳỷỹỵ"
)
ALPHABET = tuple(c for c in _LETTERS if len(c.upper()) == 1 and c.upper().lower() == c)


# ---------------------------------------------------------------------------
# skeleton
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sentence:
    words: tuple[int, ...]
    comma_after: frozenset[int]  # word positions followed by ","


@dataclass(frozen=True)
class TextSkel:
    id: str
    grade: int
    sentences: tuple[Sentence, ...]

    @property
    def words(self) -> list[int]:
        return [w for s in self.sentences for w in s.words]


@dataclass(frozen=True)
class QuestionSkel:
    id: str
    text_id: str
    split: str
    stem: tuple[int, ...]
    options: tuple[tuple[int, ...], ...]
    gold: int
    reasoning_type: str | None


@dataclass(frozen=True)
class Corpus:
    texts: tuple[TextSkel, ...]
    questions: tuple[QuestionSkel, ...]
    stopwords: bool  # whether stopwords are mixed into the strings


def compound_end(store_rows: int) -> int:
    """One past the last multi-syllable word id of a store of `store_rows`."""
    return N_CONTENT + (store_rows - N_CONTENT) // 2


def compound_syllables(rng: random.Random, store_rows: int) -> dict[int, tuple[int, ...]]:
    """Syllables of every multi-syllable word: a prefix syllable of its own
    (the word id) followed by one or two content-word syllables. Words
    used in texts are drawn first, so they do not depend on the store
    size."""
    out = {}
    for w in range(COMPOUND_LO, compound_end(store_rows)):
        tail = tuple(rng.randrange(N_SINGLE) for _ in range(1 if rng.random() < 0.7 else 2))
        out[w] = (w,) + tail
    return out


class _Zipf:
    def __init__(self, items, rng: random.Random, shift: float = 8.0):
        self.items = list(items)
        rng.shuffle(self.items)
        self.cum = list(itertools.accumulate(1.0 / (r + shift) for r in range(len(self.items))))

    def draw(self, rng: random.Random):
        return self.items[bisect.bisect_left(self.cum, rng.random() * self.cum[-1])]


def _text(rng, tid, grade, content: _Zipf, stop: _Zipf | None, n_words: int) -> TextSkel:
    local = _Zipf({content.draw(rng) for _ in range(140)}, rng, shift=4.0)
    sentences = []
    left = n_words
    while left > 0:
        size = min(left, rng.randint(8, 14))
        words = tuple(
            stop.draw(rng) if stop is not None and rng.random() < 0.25 else local.draw(rng)
            for _ in range(size)
        )
        commas = frozenset(i for i in range(size - 1) if rng.random() < 0.06)
        sentences.append(Sentence(words, commas))
        left -= size
    return TextSkel(tid, grade, tuple(sentences))


def _question(rng, qid, text: TextSkel, split, content: _Zipf, stop: _Zipf | None,
              stem_len: int, option_len: tuple[int, int]) -> QuestionSkel:
    words = text.words
    n = len(words)
    anchor = rng.randrange(n)

    def near(center, spread):
        return words[min(n - 1, max(0, center + rng.randint(-spread, spread)))]

    def sprinkle(seq):
        if stop is None:
            return tuple(seq)
        return tuple(stop.draw(rng) if rng.random() < 0.2 else w for w in seq)

    stem = sprinkle(near(anchor, 12) for _ in range(stem_len))
    gold = rng.randrange(4)
    options = []
    for i in range(4):
        size = rng.randint(*option_len)
        if i == gold:
            option = [near(anchor, 20) for _ in range(size)]
        elif rng.random() < 0.6:
            option = [words[rng.randrange(n)] for _ in range(size)]
        else:
            option = [content.draw(rng) for _ in range(size)]
        options.append(sprinkle(option))
    rtype = rng.choice(REASONING_TYPES) if rng.random() < 0.8 else None
    return QuestionSkel(qid, text.id, split, stem, tuple(options), gold, rtype)


def scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def web_skeleton(scale: float = 1.0) -> Corpus:
    """The test-split shape: 514 questions over 83 texts of 250 words,
    stems of 10 words and options of 7 words drawn from the text, no
    stopwords (the throughput-test shape)."""
    rng = random.Random(SKELETON_SEED + 1)
    content = _Zipf([w for w in range(N_CONTENT) if not STOP_LO <= w < COMPOUND_LO], rng)
    texts = [_text(rng, f"t{i}", i % 5 + 1, content, None, 250)
             for i in range(scaled(83, scale))]
    questions = [
        _question(rng, f"q{i}", texts[i % len(texts)], "test", content, None, 10, (7, 7))
        for i in range(scaled(514, scale))
    ]
    return Corpus(tuple(texts), tuple(questions), stopwords=False)


def lexical_skeleton(scale: float = 1.0) -> Corpus:
    """The full corpus shape: 417 texts and 2,783 questions in the
    published split and grade layout, texts of 250 words of which about a
    quarter are stopwords."""
    rng = random.Random(SKELETON_SEED + 2)
    content = _Zipf([w for w in range(N_CONTENT) if not STOP_LO <= w < COMPOUND_LO], rng)
    stop = _Zipf(range(STOP_LO, COMPOUND_LO), rng, shift=2.0)
    texts, questions = [], []
    for (split, grade), (n_texts, n_questions) in CORPUS_LAYOUT.items():
        bucket = []
        for t in range(scaled(n_texts, scale)):
            text = _text(rng, f"{split}-g{grade}-t{t}", grade, content, stop, 250)
            texts.append(text)
            bucket.append(text)
        for q in range(scaled(n_questions, scale)):
            questions.append(
                _question(rng, f"{split}-g{grade}-q{q}", bucket[q % len(bucket)], split,
                          content, stop, rng.randint(8, 12), (3, 7))
            )
    return Corpus(tuple(texts), tuple(questions), stopwords=True)


# ---------------------------------------------------------------------------
# surface: spelling, files
# ---------------------------------------------------------------------------


def spell_syllables(seed: int, count: int = STORE_ROWS) -> list[str]:
    """`count` distinct lowercase syllables drawn from `seed`."""
    rng = np.random.default_rng(seed % 2**64)
    out: list[str] = []
    seen: set[str] = set()
    alphabet = np.array(ALPHABET)
    while len(out) < count:
        lengths = rng.integers(3, 8, size=count)
        letters = rng.integers(0, len(ALPHABET), size=(count, 7))
        for length, row in zip(lengths.tolist(), alphabet[letters].tolist()):
            s = "".join(row[:length])
            if s not in seen:
                seen.add(s)
                out.append(s)
                if len(out) == count:
                    break
    return out


class Language:
    """The spelled vocabulary of one seed."""

    def __init__(self, seed: int, store_rows: int = STORE_ROWS):
        self.seed = seed
        self.store_rows = store_rows
        self.syllables = spell_syllables(seed, store_rows)
        compounds = compound_syllables(random.Random(SKELETON_SEED), store_rows)
        self.parts: list[tuple[str, ...]] = [
            tuple(self.syllables[s] for s in compounds.get(w, (w,))) for w in range(store_rows)
        ]
        # the segmented (and lowercase) form of every word
        self.words = ["_".join(p) for p in self.parts]

    def raw(self, w: int, rng: random.Random, capital: bool = False) -> str:
        """How word `w` is written in raw text: syllables joined by spaces,
        now and then pre-segmented with "_"."""
        parts = self.parts[w]
        s = "_".join(parts) if len(parts) > 1 and rng.random() < 0.05 else " ".join(parts)
        return s[0].upper() + s[1:] if capital else s


def _write_lines(path: Path, lines) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")


def render_dataset(corpus: Corpus, lang: Language, path: Path) -> None:
    """Write the corpus as one dataset JSON document. Record order comes
    from the language's seed; which compounds are written pre-segmented
    is part of the skeleton, since it changes what the segmenter sees."""
    rng = random.Random(lang.seed)
    style = random.Random(SKELETON_SEED + 3)

    def sentence(words, commas=frozenset(), end="."):
        parts = []
        for i, w in enumerate(words):
            parts.append(lang.raw(w, style, capital=i == 0) + ("," if i in commas else ""))
        return " ".join(parts) + end

    texts = [
        {"id": t.id, "grade": t.grade, "title": f"Bài {t.id}",
         "body": " ".join(sentence(s.words, s.comma_after) for s in t.sentences)}
        for t in corpus.texts
    ]
    questions = []
    for q in corpus.questions:
        record = {
            "id": q.id, "text_id": q.text_id, "split": q.split,
            "stem": sentence(q.stem, end="?"),
            "options": [sentence(o, end="") for o in q.options],
            "gold": LABELS[q.gold],
        }
        if q.reasoning_type is not None:
            record["reasoning_type"] = q.reasoning_type
        questions.append(record)
    rng.shuffle(texts)
    rng.shuffle(questions)
    path.write_text(json.dumps({"texts": texts, "questions": questions}, ensure_ascii=False),
                    encoding="utf-8")


def write_word_files(lang: Language, stopword_path: Path | None, lexicon_path: Path | None) -> None:
    """Stopword file (the stopword range) and lexicon file (every
    multi-syllable word, half written with spaces, half with "_")."""
    if stopword_path is not None:
        _write_lines(stopword_path, ["# stopwords, one per line"]
                     + [lang.words[w] for w in range(STOP_LO, COMPOUND_LO)])
    if lexicon_path is not None:
        lines = ["# segmentation lexicon"]
        for w in range(COMPOUND_LO, compound_end(lang.store_rows)):
            lines.append(" ".join(lang.parts[w]) if w % 2 else lang.words[w])
        _write_lines(lexicon_path, lines)


def write_vectors(lang: Language, path: Path, keep: set[int]) -> dict[int, np.ndarray]:
    """Write a word2vec text file with every word of the language (rows in
    a seeded order, four decimals per component) and return the vectors
    of the words in `keep`, as the exact floats the file encodes."""
    rng = np.random.default_rng((lang.seed + 1) % 2**64)
    table = [f"{k / VALUE_SCALE:.4f}" for k in range(-VALUE_CLIP, VALUE_CLIP + 1)]
    rows = lang.store_rows
    order = rng.permutation(rows)
    kept: dict[int, np.ndarray] = {}
    chunk = 10_000
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"{rows} {DIM}\n")
        for lo in range(0, rows, chunk):
            ids = order[lo:lo + chunk]
            ints = np.clip(np.rint(rng.standard_normal((len(ids), DIM)) * 0.4 * VALUE_SCALE),
                           -VALUE_CLIP, VALUE_CLIP).astype(np.int64)
            lines = []
            for w, row, values in zip(ids.tolist(), (ints + VALUE_CLIP).tolist(), ints):
                lines.append(lang.words[w] + " " + " ".join(map(table.__getitem__, row)) + "\n")
                if w in keep:
                    kept[w] = values / VALUE_SCALE
            handle.write("".join(lines))
    return kept


def used_words(corpus: Corpus) -> set[int]:
    out: set[int] = set()
    for t in corpus.texts:
        out.update(t.words)
    for q in corpus.questions:
        out.update(q.stem)
        for o in q.options:
            out.update(o)
    return out


# ---------------------------------------------------------------------------
# file generation and the oracle's verdicts, run in a child process so
# that the benchmark's own memory high-water mark is the program's, not
# the generator's or the oracle's
# ---------------------------------------------------------------------------

DATASET_FILE = "dataset.json"
STOPWORD_FILE = "stopwords.txt"
LEXICON_FILE = "lexicon.txt"
VECTOR_FILE = "vectors.vec"
VERDICT_FILE = "verdicts.json"

# workload -> (methods it scores, splits it scores them on)
SCORED = {
    "test-web": (("sw_d_web",), ("test",)),
    "corpus-lexical": (("sw", "sw_d"), ("train", "dev", "test")),
    "batch-answer": (("sw_d_web",), ("test",)),
}


def skeleton_for(workload: str, scale: float) -> Corpus:
    return web_skeleton(scale) if workload == "test-web" else lexical_skeleton(scale)


def generate(workload: str, seed: int, scale: float, store_rows: int, out: Path) -> None:
    """Write the input files of `workload` into `out`, and the oracle's
    verdicts on its questions (see oracle.verdict_table)."""
    corpus = skeleton_for(workload, scale)
    lang = Language(seed, store_rows)
    render_dataset(corpus, lang, out / DATASET_FILE)
    if workload in ("corpus-lexical", "batch-answer"):
        write_word_files(lang, out / STOPWORD_FILE,
                         out / LEXICON_FILE if workload == "corpus-lexical" else None)
    kept = None
    if workload in ("test-web", "batch-answer"):
        kept = write_vectors(lang, out / VECTOR_FILE, used_words(corpus))
    methods, splits = SCORED[workload]
    table = oracle.verdict_table(corpus, methods, splits, kept,
                                 lambda w: corpus.stopwords and STOP_LO <= w < COMPOUND_LO)
    (out / VERDICT_FILE).write_text(json.dumps(table), encoding="utf-8")


if __name__ == "__main__":
    import sys

    name, seed_arg, scale_arg, rows_arg, out_dir = sys.argv[1:]
    generate(name, int(seed_arg), float(scale_arg), int(rows_arg), Path(out_dir))
