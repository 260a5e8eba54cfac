"""Split evaluation, faceted accuracy tables, method comparison, and
report rendering.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

from .corpus import Dataset, GRADES, REASONING_TYPES, count_words, filter_dataset
from .embedding import EmbeddingStore
from .preprocess import DEFAULT_PUNCTUATION, preprocess_sentence, preprocess_text
from .scoring import MethodConfig, ScoreBreakdown, TextIndex, predict_indexed

__all__ = [
    "EmptySplitError",
    "EvaluationReport",
    "FacetTable",
    "ImprovementTable",
    "LENGTH_BINS",
    "PredictionRecord",
    "compare_reports",
    "evaluate",
    "facet_breakdown",
    "render_report",
]

FACETS = ("question_length", "grade", "reasoning_type")

# question-length bins in segmented words: label, lower, upper (inclusive)
LENGTH_BINS = (
    ("<=10", 0, 10),
    ("11-15", 11, 15),
    ("16-20", 16, 20),
    ("21-25", 21, 25),
    (">=26", 26, None),
)


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
    """Predict every question of `split` and compute the accuracy.

    Reading texts are pre-processed once and shared. With workers > 1 the
    questions are scored in a thread pool; records always come back in
    dataset order, so the report is identical for any worker count.
    """
    subset = filter_dataset(dataset, split=split)
    if not subset.questions:
        raise EmptySplitError(f"split {split!r} contains no questions")
    if cfg.method == "sw_d_web" and store is None:
        raise ValueError("method 'sw_d_web' requires an embedding store")

    need_store = store if cfg.method == "sw_d_web" else None
    indexes = {
        t.id: TextIndex(preprocess_text(t.body, cfg.preprocess), need_store)
        for t in subset.texts
    }
    grades = {t.id: t.grade for t in subset.texts}

    # the random method draws in question order from one run-owned generator
    random_picks = None
    if cfg.method == "random":
        rng = random.Random(cfg.random_seed)
        random_picks = [rng.randrange(4) for _ in subset.questions]

    # question_length counts the segmented raw stem. Without stopwords and
    # with the default punctuation that is the cleaned stem itself; removing
    # stopwords first can create joins the raw stem does not have.
    stem_is_raw = not cfg.preprocess.stopwords and cfg.preprocess.punctuation == DEFAULT_PUNCTUATION

    def score(pos: int) -> PredictionRecord:
        q = subset.questions[pos]
        question_words = preprocess_sentence(q.stem, cfg.preprocess)
        option_words = [preprocess_sentence(o, cfg.preprocess) for o in q.options]
        if random_picks is not None:
            zeros = (0.0, 0.0, 0.0, 0.0)
            breakdown = ScoreBreakdown(
                sw=zeros, dist=zeros, web=zeros, final=zeros,
                predicted=random_picks[pos], method=cfg.method,
            )
        else:
            breakdown = predict_indexed(indexes[q.text_id], question_words, option_words, cfg)
        return PredictionRecord(
            question_id=q.id,
            predicted=breakdown.predicted,
            gold=q.gold,
            correct=breakdown.predicted == q.gold,
            breakdown=breakdown,
            question_length=(len(question_words) if stem_is_raw
                             else count_words(q.stem, cfg.preprocess.segmenter)),
            grade=grades[q.text_id],
            reasoning_type=q.reasoning_type,
        )

    positions = range(len(subset.questions))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = tuple(pool.map(score, positions))
    else:
        records = tuple(score(i) for i in positions)
    accuracy = sum(r.correct for r in records) / len(records)
    config = {
        "method": cfg.method,
        "distance_aggregation": cfg.distance_aggregation,
        "random_seed": cfg.random_seed,
        "split": split,
    }
    return EvaluationReport(config=config, records=records, accuracy=accuracy)


def _length_bin(words: int) -> str:
    for label, low, high in LENGTH_BINS:
        if words >= low and (high is None or words <= high):
            return label
    raise AssertionError("unreachable")


def facet_breakdown(report: EvaluationReport, facet: str) -> FacetTable:
    """Accuracy table over one facet. Every canonical bin is listed, even
    when empty; reasoning-type records without a label are only counted in
    `skipped`."""
    if facet == "question_length":
        labels = [label for label, _, _ in LENGTH_BINS]
        key = lambda r: _length_bin(r.question_length)
        skipped_records = []
    elif facet == "grade":
        labels = [str(g) for g in GRADES]
        key = lambda r: str(r.grade)
        skipped_records = []
    elif facet == "reasoning_type":
        labels = list(REASONING_TYPES)
        key = lambda r: r.reasoning_type
        skipped_records = [r for r in report.records if r.reasoning_type is None]
    else:
        raise ValueError(f"unknown facet {facet!r}")
    totals = {label: 0 for label in labels}
    corrects = {label: 0 for label in labels}
    for r in report.records:
        label = key(r)
        if label is None:
            continue
        totals[label] += 1
        corrects[label] += r.correct
    rows = tuple(FacetRow(label, corrects[label], totals[label]) for label in labels)
    return FacetTable(facet=facet, rows=rows, skipped=len(skipped_records))


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


def _report_dict(report: EvaluationReport) -> dict:
    return {
        "config": report.config,
        "accuracy": report.accuracy,
        "records": [asdict(r) for r in report.records],
    }


def _facet_dict(table: FacetTable) -> dict:
    return {
        "facet": table.facet,
        "rows": [
            {"label": r.label, "correct": r.correct, "total": r.total, "accuracy": r.accuracy}
            for r in table.rows
        ],
        "skipped": table.skipped,
    }


def _improvement_dict(table: ImprovementTable) -> dict:
    return {"facet": table.facet, "rows": [asdict(r) for r in table.rows]}


def _csv_text(header: list[str], rows: list[list]) -> str:
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
    width = max([len(table.facet)] + [len(r.label) for r in table.rows] or [0])
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
    """Deterministic rendering of a report, facet table, or improvement
    table as plain text, CSV, or JSON."""
    if fmt not in ("plain", "csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(obj, EvaluationReport):
        if fmt == "plain":
            return _render_report_plain(obj)
        if fmt == "csv":
            return _csv_text(*_record_csv_rows(obj))
        return json.dumps(_report_dict(obj), ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    if isinstance(obj, FacetTable):
        if fmt == "plain":
            return _render_facet_plain(obj)
        if fmt == "csv":
            rows = [[r.label, r.correct, r.total, repr(r.accuracy)] for r in obj.rows]
            return _csv_text(["label", "correct", "total", "accuracy"], rows)
        return json.dumps(_facet_dict(obj), ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    if isinstance(obj, ImprovementTable):
        if fmt == "plain":
            return _render_improvement_plain(obj)
        if fmt == "csv":
            rows = [
                [r.label, repr(r.ratio), repr(r.baseline_accuracy), repr(r.method_accuracy), repr(r.improvement)]
                for r in obj.rows
            ]
            return _csv_text(
                ["label", "ratio", "baseline_accuracy", "method_accuracy", "improvement"], rows
            )
        return json.dumps(_improvement_dict(obj), ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    raise TypeError(f"cannot render {type(obj).__name__}")
