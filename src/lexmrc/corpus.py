"""Data model and file I/O for multiple-choice reading-comprehension sets.

A dataset file is one UTF-8 JSON document:

    {"texts": [{"id", "grade", "title", "body"}, ...],
     "questions": [{"id", "text_id", "stem", "options": [4 strings],
                    "gold": "A".."D", "reasoning_type"?, "split"}, ...]}

`load_dataset` also accepts a directory of such documents (one per split).
Unknown keys are carried along untouched so files round-trip through
`save_dataset`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping

from .preprocess import DEFAULT_PUNCTUATION, Segmenter, tokenize

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
    "GradeStats",
    "MCQuestion",
    "ReadingText",
    "SplitStats",
    "compute_stats",
    "count_words",
    "dataset_files",
    "filter_dataset",
    "load_dataset",
    "save_dataset",
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
    title: str | None = None
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MCQuestion:
    id: str
    text_id: str
    stem: str
    options: tuple[str, str, str, str]
    gold: int
    split: str
    reasoning_type: str | None = None
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Dataset:
    texts: tuple[ReadingText, ...]
    questions: tuple[MCQuestion, ...]

    def text_by_id(self, text_id: str) -> ReadingText:
        return self._text_index[text_id]

    @property
    def _text_index(self) -> dict[str, ReadingText]:
        index = self.__dict__.get("_text_index_cache")
        if index is None:
            index = {t.id: t for t in self.texts}
            object.__setattr__(self, "_text_index_cache", index)
        return index

    def question_by_id(self, question_id: str) -> MCQuestion:
        """The first question with this id; `KeyError` if there is none."""
        index = self.__dict__.get("_question_index_cache")
        if index is None:
            index = {}
            for q in self.questions:
                index.setdefault(q.id, q)
            object.__setattr__(self, "_question_index_cache", index)
        return index[question_id]


def _validate(texts: Iterable[ReadingText], questions: Iterable[MCQuestion]) -> list[str]:
    problems: list[str] = []
    seen_text_ids: set[str] = set()
    for position, t in enumerate(texts, start=1):
        name = t.id
        if not isinstance(t.id, str):
            name = f"#{position}"
            problems.append(f"text {name}: id {t.id!r} is not a string or an integer")
        elif not t.id:
            name = f"#{position}"
            problems.append("text with empty id")
        else:
            if t.id in seen_text_ids:
                problems.append(f"text {name}: duplicate id")
            seen_text_ids.add(t.id)
        if isinstance(t.grade, bool) or not isinstance(t.grade, int):
            problems.append(f"text {name}: grade {t.grade!r} is not an integer")
        elif t.grade not in GRADES:
            problems.append(f"text {name}: grade {t.grade} outside 1-5")
        if not isinstance(t.body, str):
            problems.append(f"text {name}: body {t.body!r} is not a string")
        elif not t.body.strip():
            problems.append(f"text {name}: empty body")
    seen_question_ids: set[str] = set()
    for position, q in enumerate(questions, start=1):
        name = q.id
        if not isinstance(q.id, str):
            name = f"#{position}"
            problems.append(f"question {name}: id {q.id!r} is not a string or an integer")
        elif not q.id:
            name = f"#{position}"
            problems.append("question with empty id")
        else:
            if q.id in seen_question_ids:
                problems.append(f"question {name}: duplicate id")
            seen_question_ids.add(q.id)
        if not isinstance(q.text_id, str):
            problems.append(f"question {name}: text_id {q.text_id!r} is not a string or an integer")
        elif q.text_id not in seen_text_ids:
            problems.append(f"question {name}: unknown text_id {q.text_id!r}")
        if not isinstance(q.stem, str):
            problems.append(f"question {name}: stem {q.stem!r} is not a string")
        for label, option in zip(OPTION_LABELS, q.options):
            if not isinstance(option, str):
                problems.append(f"question {name}: option {label} {option!r} is not a string")
        if len(q.options) != 4:
            problems.append(f"question {name}: expected 4 options, found {len(q.options)}")
        elif any(isinstance(o, str) and not o.strip() for o in q.options):
            problems.append(f"question {name}: empty option text")
        if not (0 <= q.gold <= 3) and q.gold != -1:  # -1 already flagged at parse time
            problems.append(f"question {name}: gold index {q.gold} outside 0-3")
        if q.split not in SPLITS:
            problems.append(f"question {name}: unknown split {q.split!r}")
        if q.reasoning_type is not None and q.reasoning_type not in REASONING_TYPES:
            problems.append(f"question {name}: unknown reasoning_type {q.reasoning_type!r}")
    return problems


def _parse_gold(raw, question_id, position: int, problems: list[str]) -> int:
    if isinstance(raw, str) and raw in OPTION_LABELS:
        return OPTION_LABELS.index(raw)
    name = _record_name(question_id, position)
    problems.append(f"question {name}: gold label {raw!r} is not one of A-D")
    return -1


def _record_name(rid, position: int) -> str:
    """How a violation names a record: by its id, or by its position in the
    file (`#2`) when it has no usable id, as `_validate` does."""
    return rid if isinstance(rid, str) and rid else f"#{position}"


def _as_id(raw):
    """An id as loaded: an integer becomes its string form; anything else
    but a string is kept as it is, for `_validate` to report."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return str(raw)
    return raw


_TEXT_KEYS = {"id", "grade", "title", "body"}
_QUESTION_KEYS = {"id", "text_id", "stem", "options", "gold", "reasoning_type", "split"}


def _parse_document(doc, origin: str, split_assignment: Mapping[str, str] | None):
    if not isinstance(doc, dict) or "texts" not in doc or "questions" not in doc:
        raise DatasetParseError(f"{origin}: expected an object with 'texts' and 'questions'")
    if not isinstance(doc["texts"], list) or not isinstance(doc["questions"], list):
        raise DatasetParseError(f"{origin}: 'texts' and 'questions' must be lists")
    problems: list[str] = []
    texts: list[ReadingText] = []
    questions: list[MCQuestion] = []
    for raw in doc["texts"]:
        try:
            texts.append(
                ReadingText(
                    id=_as_id(raw["id"]),
                    grade=raw["grade"],
                    title=raw.get("title"),
                    body=raw["body"],
                    extra={k: v for k, v in raw.items() if k not in _TEXT_KEYS},
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetParseError(f"{origin}: malformed text record: {exc}") from exc
    for position, raw in enumerate(doc["questions"], start=1):
        try:
            qid = _as_id(raw["id"])
            if not isinstance(raw["options"], list):
                raise DatasetParseError(
                    f"{origin}: question {_record_name(qid, position)}: options must be a list"
                )
            split = raw.get("split")
            if split_assignment and isinstance(qid, str) and qid in split_assignment:
                split = split_assignment[qid]
            questions.append(
                MCQuestion(
                    id=qid,
                    text_id=_as_id(raw["text_id"]),
                    stem=raw["stem"],
                    options=tuple(raw["options"]),
                    gold=_parse_gold(raw["gold"], qid, position, problems),
                    split=str(split) if split is not None else "",
                    reasoning_type=raw.get("reasoning_type"),
                    extra={k: v for k, v in raw.items() if k not in _QUESTION_KEYS},
                )
            )
        except (KeyError, TypeError) as exc:
            raise DatasetParseError(f"{origin}: malformed question record: {exc}") from exc
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


def load_dataset(path: str | Path, split_assignment: Mapping[str, str] | None = None) -> Dataset:
    """Load and validate a dataset file, or a directory of per-split files.

    `split_assignment` optionally remaps question ids to splits, overriding
    the file contents. Every invariant violation is reported at once in the
    raised `DatasetValidationError`.
    """
    texts: list[ReadingText] = []
    questions: list[MCQuestion] = []
    problems: list[str] = []
    for file in dataset_files(path):
        try:
            doc = json.loads(file.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DatasetParseError(f"{file}: {exc}") from exc
        file_texts, file_questions, file_problems = _parse_document(doc, str(file), split_assignment)
        texts.extend(file_texts)
        questions.extend(file_questions)
        problems.extend(file_problems)
    problems.extend(_validate(texts, questions))
    if problems:
        raise DatasetValidationError(problems)
    return Dataset(texts=tuple(texts), questions=tuple(questions))


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset back to one JSON document (inverse of load_dataset)."""
    doc = {
        "texts": [
            {"id": t.id, "grade": t.grade, "title": t.title, "body": t.body, **t.extra}
            for t in dataset.texts
        ],
        "questions": [
            {
                "id": q.id,
                "text_id": q.text_id,
                "stem": q.stem,
                "options": list(q.options),
                "gold": OPTION_LABELS[q.gold],
                **({"reasoning_type": q.reasoning_type} if q.reasoning_type else {}),
                "split": q.split,
                **q.extra,
            }
            for q in dataset.questions
        ],
    }
    Path(path).write_text(
        json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def filter_dataset(
    dataset: Dataset,
    split: str | None = None,
    grade: int | None = None,
    reasoning_type: str | None = None,
    predicate: Callable[[MCQuestion], bool] | None = None,
) -> Dataset:
    """Keep the questions matching every given criterion, plus exactly the
    texts they reference. The grade criterion applies to the referenced
    reading text."""
    kept: list[MCQuestion] = []
    for q in dataset.questions:
        if split is not None and q.split != split:
            continue
        if grade is not None and dataset.text_by_id(q.text_id).grade != grade:
            continue
        if reasoning_type is not None and q.reasoning_type != reasoning_type:
            continue
        if predicate is not None and not predicate(q):
            continue
        kept.append(q)
    used = {q.text_id for q in kept}
    return Dataset(
        texts=tuple(t for t in dataset.texts if t.id in used),
        questions=tuple(kept),
    )


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
class GradeStats:
    texts: int
    questions: int
    vocabulary: int


@dataclass(frozen=True)
class DatasetStats:
    splits: dict[str, SplitStats]
    overall: SplitStats
    grades: dict[int, GradeStats]


def _segment_raw(text: str, segmenter: Segmenter) -> list[str]:
    return segmenter([t.lower() for t in tokenize(text, DEFAULT_PUNCTUATION)])


def count_words(text: str, segmenter: Segmenter) -> int:
    """Length of a raw text in segmented words. Punctuation marks are not
    words; stopwords are kept."""
    return len(_segment_raw(text, segmenter))


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

    def add_text(self, words: list[str]) -> None:
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

    def split_stats(self) -> SplitStats:
        return SplitStats(
            texts=len(self.text_lengths),
            questions=len(self.question_lengths),
            avg_text_length=_mean(self.text_lengths),
            avg_question_length=_mean(self.question_lengths),
            avg_option_length=_mean(self.option_lengths),
            avg_correct_length=_mean(self.correct_lengths),
            vocabulary=len(self.vocab),
        )

    def grade_stats(self) -> GradeStats:
        return GradeStats(
            texts=len(self.text_lengths),
            questions=len(self.question_lengths),
            vocabulary=len(self.vocab),
        )


def compute_stats(dataset: Dataset, segmenter: Segmenter) -> DatasetStats:
    """Per-split, overall, and per-grade counts and average lengths.

    Lengths are measured in segmented words of the raw strings; the
    vocabulary is the set of distinct lowercase segmented words across
    texts, stems, and options. A split's texts are the ones its questions
    reference. Each string is segmented once and tallied into every group
    it belongs to.
    """
    overall = _Tally()
    splits = {split: _Tally() for split in SPLITS}
    grades = {grade: _Tally() for grade in GRADES}
    text_splits: dict[str, set[str]] = {}
    for q in dataset.questions:
        if q.split in splits:
            text_splits.setdefault(q.text_id, set()).add(q.split)
    grade_of = {t.id: t.grade for t in dataset.texts}

    for t in dataset.texts:
        words = _segment_raw(t.body, segmenter)
        groups = [overall] + [splits[s] for s in text_splits.get(t.id, ())]
        if t.grade in grades:
            groups.append(grades[t.grade])
        for group in groups:
            group.add_text(words)
    for q in dataset.questions:
        stem = _segment_raw(q.stem, segmenter)
        options = [_segment_raw(o, segmenter) for o in q.options]
        groups = [overall]
        if q.split in splits:
            groups.append(splits[q.split])
        grade = grade_of.get(q.text_id)
        if grade in grades:
            groups.append(grades[grade])
        for group in groups:
            group.add_question(stem, options, q.gold)

    return DatasetStats(
        splits={s: tally.split_stats() for s, tally in splits.items() if tally.question_lengths},
        overall=overall.split_stats(),
        grades={g: tally.grade_stats() for g, tally in grades.items() if tally.text_lengths},
    )
