"""Data model and file I/O for multiple-choice reading-comprehension sets.

A dataset file is one UTF-8 JSON document:

    {"texts": [{"id", "grade", "body"}, ...],
     "questions": [{"id", "text_id", "stem", "options": [4 strings],
                    "gold": "A".."D", "reasoning_type"?, "split"}, ...]}

`load_dataset` also accepts a directory of such documents (one per split).
A record may hold other keys, such as a text's "title"; they are accepted
and ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .preprocess import PreprocessConfig, Segmenter, preprocess_sentence, preprocess_text

__all__ = [
    "GRADES",
    "OPTION_LABELS",
    "REASONING_TYPES",
    "SPLITS",
    "Dataset",
    "DatasetError",
    "DatasetParseError",
    "DatasetValidationError",
    "DatasetStats",
    "MCQuestion",
    "ReadingText",
    "SplitStats",
    "compute_stats",
    "dataset_files",
    "filter_dataset",
    "load_dataset",
]

SPLITS = ("train", "dev", "test")
GRADES = (1, 2, 3, 4, 5)
REASONING_TYPES = ("WM", "PP", "SSR", "MSR", "AoI")
OPTION_LABELS = ("A", "B", "C", "D")


class DatasetError(Exception):
    """Base class for dataset problems."""


class DatasetParseError(DatasetError):
    """The file is not valid JSON or not shaped like a dataset document."""


class DatasetValidationError(DatasetError):
    """One or more records violate the data-model invariants."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("invalid dataset:\n" + "\n".join(f"  - {v}" for v in violations))


@dataclass(frozen=True)
class ReadingText:
    id: str
    grade: int
    body: str


@dataclass(frozen=True)
class MCQuestion:
    id: str
    text_id: str
    stem: str
    options: tuple[str, str, str, str]
    gold: int
    split: str
    reasoning_type: str | None = None


@dataclass(frozen=True)
class Dataset:
    texts: tuple[ReadingText, ...]
    questions: tuple[MCQuestion, ...]

    def text_by_id(self, text_id: str) -> ReadingText:
        return self._text_index[text_id]

    def question_by_id(self, question_id: str) -> MCQuestion:
        """The first question with this id; `KeyError` if there is none."""
        return self._question_index[question_id]

    @cached_property
    def _text_index(self) -> dict[str, ReadingText]:
        return {t.id: t for t in self.texts}

    @cached_property
    def _question_index(self) -> dict[str, MCQuestion]:
        # reversed, so the first question with an id is the one kept
        return {q.id: q for q in reversed(self.questions)}


def _cut(text: str) -> str:
    """`text` cut to its first 40 and last 37 characters around "..." when
    it is longer than 80, so a message stays short whatever a file holds."""
    return text if len(text) <= 80 else text[:40] + "..." + text[-37:]


def _excerpt(value) -> str:
    """`repr(value)`, cut as `_cut` does."""
    return _cut(repr(value))


def _as_id(raw):
    """An id as loaded: an integer becomes its string form; anything else
    but a string is kept as it is, for `_check_id` to report."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return str(raw)
    return raw


def _check_id(kind: str, rid, position: int, seen: set[str], problems: list[str]) -> str:
    """Check a record's id and give the name every message about the
    record uses: the id itself, cut as `_cut` does, or `#<position>` when
    it has no usable id. Positions count the records of one kind from 1
    across all files. A string that does not encode as UTF-8 (a lone
    surrogate, which a JSON escape can spell) is no usable id: no report
    could write it."""
    if isinstance(rid, str) and rid and _encodes(rid):
        name = _cut(rid)
        if rid in seen:
            problems.append(f"{kind} {name}: duplicate id")
        seen.add(rid)
        return name
    name = f"#{position}"
    if not isinstance(rid, str):
        problems.append(f"{kind} {name}: id {_excerpt(rid)} is not a string or an integer")
    elif rid:
        problems.append(f"{kind} {name}: id {_excerpt(rid)} does not encode as UTF-8")
    else:
        problems.append(f"{kind} with empty id")
    return name


def _encodes(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _open_record(origin: str, kind: str, raw, position: int, seen: set[str],
                 problems: list[str], required: tuple[str, ...]) -> str:
    """Check that record `raw` is a JSON object holding every key of
    `required`, then its id (`_check_id`); its name. A record that is not
    an object, or lacks a key, is a parse error."""
    if not isinstance(raw, dict):
        raise DatasetParseError(f"{origin}: {kind} #{position} is not a JSON object")
    name = _check_id(kind, _as_id(raw.get("id")), position, seen, problems)
    for key in required:
        if key not in raw:
            raise DatasetParseError(f"{origin}: {kind} {name}: missing key {key!r}")
    return name


def _read_document(file: Path) -> dict:
    """One dataset file, decoded and checked to hold lists of texts and
    questions."""
    try:
        doc = json.loads(file.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep, too many digits
        raise DatasetParseError(f"{file}: {exc}") from exc
    if not isinstance(doc, dict) or "texts" not in doc or "questions" not in doc:
        raise DatasetParseError(f"{file}: expected an object with 'texts' and 'questions'")
    if not isinstance(doc["texts"], list) or not isinstance(doc["questions"], list):
        raise DatasetParseError(f"{file}: 'texts' and 'questions' must be lists")
    return doc


def _build_records(docs: dict[str, dict]):
    """The texts of every file, then the questions of every file, each
    record checked field by field as it is built, and the violations."""
    problems: list[str] = []
    texts: list[ReadingText] = []
    text_ids: set[str] = set()
    for origin, doc in docs.items():
        for raw in doc["texts"]:
            name = _open_record(origin, "text", raw, len(texts) + 1, text_ids, problems,
                                ("id", "grade", "body"))
            rid, grade, body = _as_id(raw["id"]), raw["grade"], raw["body"]
            if isinstance(grade, bool) or not isinstance(grade, int):
                problems.append(f"text {name}: grade {_excerpt(grade)} is not an integer")
            elif grade not in GRADES:
                problems.append(f"text {name}: grade {_excerpt(grade)} outside 1-5")
            if not isinstance(body, str):
                problems.append(f"text {name}: body {_excerpt(body)} is not a string")
            elif not body.strip():
                problems.append(f"text {name}: empty body")
            texts.append(ReadingText(rid, grade, body))
    questions: list[MCQuestion] = []
    question_ids: set[str] = set()
    for origin, doc in docs.items():
        for raw in doc["questions"]:
            name = _open_record(origin, "question", raw, len(questions) + 1, question_ids,
                                problems, ("id", "options", "text_id", "stem", "gold"))
            rid, options = _as_id(raw["id"]), raw["options"]
            if not isinstance(options, list):
                raise DatasetParseError(f"{origin}: question {name}: options must be a list")
            text_id, stem, gold = _as_id(raw["text_id"]), raw["stem"], raw["gold"]
            split, reasoning_type = raw.get("split"), raw.get("reasoning_type")
            split = "" if split is None else str(split)
            if not isinstance(text_id, str):
                problems.append(
                    f"question {name}: text_id {_excerpt(text_id)} is not a string or an integer"
                )
            elif text_id not in text_ids:
                problems.append(f"question {name}: unknown text_id {_excerpt(text_id)}")
            if not isinstance(stem, str):
                problems.append(f"question {name}: stem {_excerpt(stem)} is not a string")
            blank = False
            for label, option in zip(OPTION_LABELS, options):
                if not isinstance(option, str):
                    problems.append(
                        f"question {name}: option {label} {_excerpt(option)} is not a string"
                    )
                elif not option.strip():
                    blank = True
            # a blank option is reported only when the count is right
            if len(options) != 4:
                problems.append(f"question {name}: expected 4 options, found {len(options)}")
            elif blank:
                problems.append(f"question {name}: empty option text")
            if gold in OPTION_LABELS:  # only a string can equal a label
                gold = OPTION_LABELS.index(gold)
            else:
                problems.append(f"question {name}: gold label {_excerpt(gold)} is not one of A-D")
            if split not in SPLITS:
                problems.append(f"question {name}: unknown split {_excerpt(split)}")
            if reasoning_type is not None and reasoning_type not in REASONING_TYPES:
                problems.append(
                    f"question {name}: unknown reasoning_type {_excerpt(reasoning_type)}"
                )
            questions.append(MCQuestion(rid, text_id, stem, tuple(options), gold, split,
                                        reasoning_type))
    return texts, questions, problems


def dataset_files(path: str | Path) -> list[Path]:
    """The files `load_dataset` reads for `path`: the path itself, or every
    `*.json` file of a dataset directory in name order."""
    path = Path(path)
    if not path.is_dir():
        return [path]
    files = sorted(path.glob("*.json"))
    if not files:
        raise DatasetParseError(f"{path}: no .json files in dataset directory")
    return files


def load_dataset(path: str | Path) -> Dataset:
    """Load and validate a dataset file, or a directory of per-split files.

    Every file is read and shape-checked first; then the texts of all files
    and the questions of all files are built and checked in one walk. Every
    invariant violation is reported at once in the raised
    `DatasetValidationError`, texts before questions, records in file order
    and each record's checks in field order.
    """
    docs = {str(file): _read_document(file) for file in dataset_files(path)}
    texts, questions, problems = _build_records(docs)
    if problems:
        raise DatasetValidationError(problems)
    return Dataset(texts=tuple(texts), questions=tuple(questions))


def filter_dataset(dataset: Dataset, split: str) -> Dataset:
    """The questions of one split, plus exactly the texts they reference."""
    kept = tuple(q for q in dataset.questions if q.split == split)
    used = {q.text_id for q in kept}
    return Dataset(texts=tuple(t for t in dataset.texts if t.id in used), questions=kept)


# ---------------------------------------------------------------------------
# descriptive statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitStats:
    texts: int
    questions: int
    avg_text_length: float
    avg_question_length: float
    avg_option_length: float
    avg_correct_length: float
    vocabulary: int


@dataclass(frozen=True)
class DatasetStats:
    splits: dict[str, SplitStats]
    overall: SplitStats
    grades: dict[int, SplitStats]


def _mean(values: list[int]) -> float:
    return sum(values) / len(values) if values else 0.0


class _Tally:
    """Word lengths and vocabulary of one stats group (a split, the whole
    dataset, or a grade)."""

    def __init__(self):
        self.text_lengths: list[int] = []
        self.question_lengths: list[int] = []
        self.option_lengths: list[int] = []
        self.correct_lengths: list[int] = []
        self.vocab: set[str] = set()

    def add_text(self, words: tuple[str, ...]) -> None:
        self.text_lengths.append(len(words))
        self.vocab.update(words)

    def add_question(self, stem: list[str], options: list[list[str]], gold: int) -> None:
        self.question_lengths.append(len(stem))
        self.vocab.update(stem)
        for i, words in enumerate(options):
            self.option_lengths.append(len(words))
            self.vocab.update(words)
            if i == gold:
                self.correct_lengths.append(len(words))

    def stats(self) -> SplitStats:
        return SplitStats(
            texts=len(self.text_lengths),
            questions=len(self.question_lengths),
            avg_text_length=_mean(self.text_lengths),
            avg_question_length=_mean(self.question_lengths),
            avg_option_length=_mean(self.option_lengths),
            avg_correct_length=_mean(self.correct_lengths),
            vocabulary=len(self.vocab),
        )


def compute_stats(dataset: Dataset, segmenter: Segmenter) -> DatasetStats:
    """Per-split, overall, and per-grade counts and average lengths.

    Lengths are measured in segmented words of the raw strings, cleaned
    with no stopwords as scoring cleans them: a text by `preprocess_text`,
    split at sentence breaks first, and a stem or option by
    `preprocess_sentence`. Punctuation marks are not words. The vocabulary
    is the set of distinct lowercase segmented words across texts, stems,
    and options. A split's texts are the ones its questions reference. Each
    sentence is segmented once and tallied into every group it belongs to.
    The dataset holds what `load_dataset` checks: every split is in
    `SPLITS`, every grade in `GRADES`, and every `text_id` names a text.
    """
    raw = PreprocessConfig(segmenter=segmenter)
    overall = _Tally()
    splits = {split: _Tally() for split in SPLITS}
    grades = {grade: _Tally() for grade in GRADES}
    text_splits: dict[str, set[str]] = {}
    for q in dataset.questions:
        text_splits.setdefault(q.text_id, set()).add(q.split)
    grade_of = {t.id: t.grade for t in dataset.texts}

    for t in dataset.texts:
        words = preprocess_text(t.body, raw).flat
        groups = [overall, grades[t.grade]] + [splits[s] for s in text_splits.get(t.id, ())]
        for group in groups:
            group.add_text(words)
    for q in dataset.questions:
        stem = preprocess_sentence(q.stem, raw)
        options = [preprocess_sentence(o, raw) for o in q.options]
        for group in (overall, splits[q.split], grades[grade_of[q.text_id]]):
            group.add_question(stem, options, q.gold)

    return DatasetStats(
        splits={s: tally.stats() for s, tally in splits.items() if tally.question_lengths},
        overall=overall.stats(),
        grades={g: tally.stats() for g, tally in grades.items() if tally.text_lengths},
    )
