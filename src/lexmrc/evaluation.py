"""Split evaluation, faceted accuracy tables, method comparison, and
report and statistics rendering.

Questions are scored in dataset order; the per-question records keep the
full score breakdown so analyses never need a re-run. Facets follow the
usual analysis axes: question length (segmented words, binned), reading
text grade, and reasoning type (questions without an annotation are
counted separately, not binned).
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import asdict, astuple, dataclass, fields
from json.encoder import encode_basestring
from typing import Sequence

from .corpus import (
    Dataset,
    DatasetStats,
    GRADES,
    MCQuestion,
    REASONING_TYPES,
    ReadingText,
    SplitStats,
    filter_dataset,
)
from .embedding import EmbeddingStore
from .preprocess import PreprocessConfig, preprocess_sentence, preprocess_text
from .scoring import MethodConfig, OptionScores, ScoreBreakdown, TextIndex, decide, score_questions

__all__ = [
    "EmptySplitError",
    "EvaluationReport",
    "FacetTable",
    "ImprovementTable",
    "LENGTH_BINS",
    "PredictionRecord",
    "compare_reports",
    "evaluate",
    "evaluate_methods",
    "facet_breakdown",
    "render_report",
    "render_stats",
]

FACETS = ("question_length", "grade", "reasoning_type")
FORMATS = ("plain", "csv", "json")

# question-length bins in segmented words, from 0 without a gap: label and
# inclusive upper bound
LENGTH_BINS = (
    ("<=10", 10),
    ("11-15", 15),
    ("16-20", 20),
    ("21-25", 25),
    (">=26", None),
)


# the component scores of a question when every config is random
_NO_SCORES = OptionScores(sw=None, dist=None, web=None)


class EmptySplitError(ValueError):
    """The selected split contains no questions."""


@dataclass(frozen=True)
class PredictionRecord:
    question_id: str
    predicted: int
    gold: int
    correct: bool
    breakdown: ScoreBreakdown
    question_length: int
    grade: int
    reasoning_type: str | None


@dataclass(frozen=True)
class FacetRow:
    label: str
    correct: int
    total: int

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0


@dataclass(frozen=True)
class FacetTable:
    facet: str
    rows: tuple[FacetRow, ...]
    skipped: int = 0  # records without an annotation for this facet


@dataclass(frozen=True)
class EvaluationReport:
    config: dict
    records: tuple[PredictionRecord, ...]
    accuracy: float

    def question_ids(self) -> tuple[str, ...]:
        return tuple(r.question_id for r in self.records)


@dataclass(frozen=True)
class ImprovementRow:
    label: str
    ratio: float  # share of the facet's annotated records, in percent
    baseline_accuracy: float
    method_accuracy: float
    improvement: float  # percentage points


@dataclass(frozen=True)
class ImprovementTable:
    facet: str
    rows: tuple[ImprovementRow, ...]


def evaluate(
    dataset: Dataset,
    split: str,
    cfg: MethodConfig,
    store: EmbeddingStore | None = None,
    workers: int = 1,
) -> EvaluationReport:
    """Predict every question of `split` and compute the accuracy; see
    `evaluate_methods`. `workers` is accepted and has no effect: every
    question is scored on the calling thread."""
    return evaluate_methods(dataset, split, (cfg,), store)[0]


def evaluate_methods(
    dataset: Dataset,
    split: str,
    cfgs: Sequence[MethodConfig],
    store: EmbeddingStore | None = None,
) -> tuple[EvaluationReport, ...]:
    """One report per config in `cfgs`, each equal to what `evaluate`
    gives for it alone, from one pass over the split.

    The configs share one pre-processing config and one distance
    aggregation; their random seeds may differ. The split is scored one
    text at a time (`_score_text`), so one text's index is alive at a time,
    and each component score is computed once for all configs. Decisions
    are taken in dataset order, so a random config draws from its own
    generator in question order.
    """
    shared = (cfgs[0].preprocess, cfgs[0].distance_aggregation)
    if any((cfg.preprocess, cfg.distance_aggregation) != shared for cfg in cfgs):
        raise ValueError(
            "method configs must share one pre-processing config and one distance aggregation")
    subset = filter_dataset(dataset, split=split)
    if not subset.questions:
        raise EmptySplitError(f"split {split!r} contains no questions")
    need_web = any(cfg.method == "sw_d_web" for cfg in cfgs)
    if need_web and store is None:
        raise ValueError("method 'sw_d_web' requires an embedding store")

    by_text: dict[str, list[MCQuestion]] = {t.id: [] for t in subset.texts}
    for q in subset.questions:
        by_text[q.text_id].append(q)
    # each text's results come in its questions' dataset order
    results = {t.id: iter(_score_text(t, by_text[t.id], cfgs, store if need_web else None))
               for t in subset.texts}
    scored = [next(results[q.text_id]) for q in subset.questions]
    grades = {t.id: t.grade for t in subset.texts}

    reports = []
    for cfg in cfgs:
        rng = random.Random(cfg.random_seed) if cfg.method == "random" else None
        records = []
        for q, (length, scores) in zip(subset.questions, scored):
            breakdown = decide(scores, cfg, rng)
            records.append(PredictionRecord(
                question_id=q.id,
                predicted=breakdown.predicted,
                gold=q.gold,
                correct=breakdown.predicted == q.gold,
                breakdown=breakdown,
                question_length=length,
                grade=grades[q.text_id],
                reasoning_type=q.reasoning_type,
            ))
        config = {
            "method": cfg.method,
            "distance_aggregation": cfg.distance_aggregation,
            "random_seed": cfg.random_seed,
            "split": split,
        }
        accuracy = sum(r.correct for r in records) / len(records)
        reports.append(EvaluationReport(config=config, records=tuple(records), accuracy=accuracy))
    return tuple(reports)


def _score_text(
    text: ReadingText,
    questions: Sequence[MCQuestion],
    cfgs: Sequence[MethodConfig],
    store: EmbeddingStore | None,
) -> list[tuple[int, OptionScores]]:
    """The `(question_length, OptionScores)` of each of `questions` against
    `text`, all scored through one index of the text. With a `store`, the
    vector rows of the text's words and its options' words are converted
    in one pass before the text is indexed."""
    preprocess = cfgs[0].preprocess
    stems = [preprocess_sentence(q.stem, preprocess) for q in questions]
    # question_length counts the segmented raw stem. Without stopwords that
    # is the cleaned stem itself; removing stopwords first can create joins
    # the raw stem does not have.
    if preprocess.stopwords:
        raw = PreprocessConfig(segmenter=preprocess.segmenter)
        lengths = [len(preprocess_sentence(q.stem, raw)) for q in questions]
    else:
        lengths = [len(stem) for stem in stems]
    # the random method reads no index: a random-only run skips the text
    if all(cfg.method == "random" for cfg in cfgs):
        return [(length, _NO_SCORES) for length in lengths]
    body = preprocess_text(text.body, preprocess)
    options = [[preprocess_sentence(o, preprocess) for o in q.options] for q in questions]
    if store is not None:
        words = set(body.flat).union(*(option for q_options in options for option in q_options))
        store.convert(row for row in map(store.row_index, words) if row is not None)
    return list(zip(lengths, score_questions(TextIndex(body, store), stems, options, cfgs)))


def _length_bin(words: int) -> str:
    # the first upper bound that holds
    return next(label for label, high in LENGTH_BINS if high is None or words <= high)


def facet_breakdown(report: EvaluationReport, facet: str) -> FacetTable:
    """Accuracy table over one facet. Every canonical bin is listed, even
    when empty; reasoning-type records without a label are only counted in
    `skipped`."""
    if facet == "question_length":
        labels = [label for label, _ in LENGTH_BINS]
        key = lambda r: _length_bin(r.question_length)
    elif facet == "grade":
        labels = [str(g) for g in GRADES]
        key = lambda r: str(r.grade)
    elif facet == "reasoning_type":
        labels = list(REASONING_TYPES)
        key = lambda r: r.reasoning_type
    else:
        raise ValueError(f"unknown facet {facet!r}")
    totals = {label: 0 for label in labels}
    corrects = {label: 0 for label in labels}
    skipped = 0
    for r in report.records:
        label = key(r)
        if label is None:
            skipped += 1
            continue
        totals[label] += 1
        corrects[label] += r.correct
    rows = tuple(FacetRow(label, corrects[label], totals[label]) for label in labels)
    return FacetTable(facet=facet, rows=rows, skipped=skipped)


def compare_reports(
    baseline: EvaluationReport, method: EvaluationReport, facet: str
) -> ImprovementTable:
    """Per-bin accuracy improvement of `method` over `baseline`, in
    percentage points. Both reports must cover the same question ids."""
    if sorted(baseline.question_ids()) != sorted(method.question_ids()):
        raise ValueError("reports cover different question sets")
    base_table = facet_breakdown(baseline, facet)
    method_table = facet_breakdown(method, facet)
    annotated = sum(row.total for row in base_table.rows)
    rows = []
    for base_row, method_row in zip(base_table.rows, method_table.rows):
        ratio = 100.0 * base_row.total / annotated if annotated else 0.0
        base_acc = 100.0 * base_row.accuracy
        method_acc = 100.0 * method_row.accuracy
        rows.append(
            ImprovementRow(
                label=base_row.label,
                ratio=ratio,
                baseline_accuracy=base_acc,
                method_accuracy=method_acc,
                improvement=method_acc - base_acc,
            )
        )
    return ImprovementTable(facet=facet, rows=tuple(rows))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _pct(value: float) -> str:
    return f"{100.0 * value:.2f}%"


def _breakdown_dict(b: ScoreBreakdown) -> dict:
    return {
        "sw": b.sw, "dist": b.dist, "web": b.web, "final": b.final,
        "predicted": b.predicted, "method": b.method,
    }


def _json_text(payload) -> str:
    return json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


# one record of a report's JSON, keys sorted, at the indents of
# `json.dumps(indent=2)`
_RECORD_JSON = """\
    {
      "breakdown": {
        "dist": [
          %s
        ],
        "final": [
          %s
        ],
        "method": %s,
        "predicted": %s,
        "sw": [
          %s
        ],
        "web": [
          %s
        ]
      },
      "correct": %s,
      "gold": %s,
      "grade": %s,
      "predicted": %s,
      "question_id": %s,
      "question_length": %s,
      "reasoning_type": %s
    }"""
_SCORE_SEP = ",\n          "
# `json.dumps` spells the non-finite floats its own way
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scores_json(values) -> str:
    text = _SCORE_SEP.join(map(float.__repr__, values))
    if "n" in text:  # no finite repr holds an "n"
        text = _SCORE_SEP.join(_NON_FINITE.get(v, v) for v in text.split(_SCORE_SEP))
    return text


def _record_json(r: PredictionRecord) -> str:
    b = r.breakdown
    return _RECORD_JSON % (
        _scores_json(b.dist), _scores_json(b.final), encode_basestring(b.method),
        int.__repr__(b.predicted), _scores_json(b.sw), _scores_json(b.web),
        "true" if r.correct else "false", int.__repr__(r.gold), int.__repr__(r.grade),
        int.__repr__(r.predicted), encode_basestring(r.question_id),
        int.__repr__(r.question_length),
        "null" if r.reasoning_type is None else encode_basestring(r.reasoning_type),
    )


def _report_json(report: EvaluationReport) -> str:
    """What `_json_text` gives for the report as a dict, with each record
    written from `_RECORD_JSON` as `json.dumps` would write it: strings
    escaped by the function it uses under `ensure_ascii=False`, numbers as
    `float.__repr__` and `int.__repr__`. Only the head goes through
    `json.dumps`; "records" sorts after its "accuracy" and "config"."""
    head = _json_text({"accuracy": report.accuracy, "config": report.config})[:-3]
    if not report.records:
        return head + ',\n  "records": []\n}\n'
    records = ",\n".join(map(_record_json, report.records))
    return f'{head},\n  "records": [\n{records}\n  ]\n}}\n'


def _csv_text(header: list[str], rows: list[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _render_report_plain(report: EvaluationReport) -> str:
    lines = [
        f"method: {report.config.get('method')}",
        f"split: {report.config.get('split')}",
        f"questions: {len(report.records)}",
        f"correct: {sum(r.correct for r in report.records)}",
        f"accuracy: {_pct(report.accuracy)}",
    ]
    for facet in FACETS:
        table = facet_breakdown(report, facet)
        lines.append("")
        lines.append(_render_facet_plain(table).rstrip("\n"))
    return "\n".join(lines) + "\n"


def _render_facet_plain(table: FacetTable) -> str:
    width = max([len(table.facet)] + [len(r.label) for r in table.rows])
    lines = [f"{table.facet:<{width}}  correct  total  accuracy"]
    for r in table.rows:
        lines.append(f"{r.label:<{width}}  {r.correct:>7}  {r.total:>5}  {_pct(r.accuracy):>8}")
    if table.skipped:
        lines.append(f"(unannotated: {table.skipped})")
    return "\n".join(lines) + "\n"


def _render_improvement_plain(table: ImprovementTable) -> str:
    width = max([len(table.facet)] + [len(r.label) for r in table.rows])
    lines = [f"{table.facet:<{width}}  ratio(%)  baseline(%)  method(%)  improvement"]
    for r in table.rows:
        lines.append(
            f"{r.label:<{width}}  {r.ratio:>8.2f}  {r.baseline_accuracy:>11.2f}"
            f"  {r.method_accuracy:>9.2f}  {r.improvement:>+11.2f}"
        )
    return "\n".join(lines) + "\n"


def _record_csv_rows(report: EvaluationReport) -> tuple[list[str], list[list]]:
    header = ["question_id", "predicted", "gold", "correct", "question_length", "grade", "reasoning_type"]
    for name in ("sw", "dist", "web", "final"):
        header.extend(f"{name}_{i}" for i in range(4))
    rows = []
    for r in report.records:
        row = [
            r.question_id, r.predicted, r.gold, int(r.correct),
            r.question_length, r.grade, r.reasoning_type or "",
        ]
        for values in (r.breakdown.sw, r.breakdown.dist, r.breakdown.web, r.breakdown.final):
            row.extend(repr(v) for v in values)
        rows.append(row)
    return header, rows


def render_report(obj, fmt: str = "plain") -> str:
    """Deterministic rendering of an evaluation report or an improvement
    table as plain text, CSV, or JSON. A report's plain text holds its
    facet tables."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(obj, EvaluationReport):
        if fmt == "plain":
            return _render_report_plain(obj)
        if fmt == "csv":
            return _csv_text(*_record_csv_rows(obj))
        return _report_json(obj)
    if isinstance(obj, ImprovementTable):
        if fmt == "plain":
            return _render_improvement_plain(obj)
        if fmt == "csv":
            return _csv_text([f.name for f in fields(ImprovementRow)], [astuple(r) for r in obj.rows])
        return _json_text(asdict(obj))
    raise TypeError(f"cannot render {type(obj).__name__}")


def render_stats(stats: DatasetStats, fmt: str = "plain") -> str:
    """Deterministic rendering of dataset statistics as plain text, CSV,
    or JSON."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    if fmt == "json":
        payload = {
            "splits": {name: asdict(s) for name, s in stats.splits.items()},
            "overall": asdict(stats.overall),
            "grades": {
                str(g): {"texts": s.texts, "questions": s.questions, "vocabulary": s.vocabulary}
                for g, s in stats.grades.items()
            },
        }
        return _json_text(payload)
    if fmt == "csv":
        header = ["section", "name"] + [f.name for f in fields(SplitStats)]
        rows = [
            ("split", name) + astuple(s)
            for name, s in list(stats.splits.items()) + [("all", stats.overall)]
        ]
        rows += [["grade", g, s.texts, s.questions, "", "", "", "", s.vocabulary]
                 for g, s in stats.grades.items()]
        return _csv_text(header, rows)
    lines = ["split      texts  questions  avg_text  avg_question  avg_option  avg_correct  vocab"]
    for name, s in list(stats.splits.items()) + [("all", stats.overall)]:
        lines.append(
            f"{name:<9}  {s.texts:>5}  {s.questions:>9}  {s.avg_text_length:>8.1f}"
            f"  {s.avg_question_length:>12.1f}  {s.avg_option_length:>10.1f}"
            f"  {s.avg_correct_length:>11.1f}  {s.vocabulary:>5}"
        )
    lines.append("")
    lines.append("grade  texts  questions  vocab")
    for g, s in stats.grades.items():
        lines.append(f"{g:<5}  {s.texts:>5}  {s.questions:>9}  {s.vocabulary:>5}")
    return "\n".join(lines) + "\n"
