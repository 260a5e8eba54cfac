import csv
import dataclasses
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexmrc.corpus import GRADES, REASONING_TYPES, Dataset, MCQuestion, ReadingText, compute_stats
from lexmrc.evaluation import (
    FACETS,
    EmptySplitError,
    EvaluationReport,
    FacetRow,
    FacetTable,
    PredictionRecord,
    _render_facet_plain,
    compare_reports,
    evaluate,
    evaluate_methods,
    facet_breakdown,
    render_report,
    render_stats,
)
from lexmrc.preprocess import DictionarySegmenter, PreprocessConfig
from lexmrc.scoring import DISTANCE_AGGREGATIONS, METHODS, MethodConfig, ScoreBreakdown

from oracles import report_dict, vector_store


def make_question(qid, text_id, stem, options, gold, split="dev", reasoning=None):
    return MCQuestion(
        id=qid, text_id=text_id, stem=stem, options=tuple(options), gold=gold,
        split=split, reasoning_type=reasoning,
    )


@pytest.fixture()
def toy_dataset():
    # one text; the sw method gets q1-q3 right and q4 wrong by construction
    text = ReadingText(id="t1", grade=2, body="mèo ngủ trên ghế. chó chạy ra sân.")
    questions = (
        make_question("q1", "t1", "con gì ngủ?", ["mèo ngủ", "xx yy", "zz ww", "vv uu"], 0,
                      reasoning="WM"),
        make_question("q2", "t1", "con gì chạy?", ["xx yy", "chó chạy", "zz ww", "vv uu"], 1,
                      reasoning="WM"),
        make_question("q3", "t1", "ở đâu ngủ?", ["xx yy", "zz ww", "ngủ trên ghế", "vv uu"], 2,
                      reasoning="PP"),
        make_question("q4", "t1", "sai gì?", ["mèo chó sân", "xx yy", "zz ww", "vv uu"], 3),
    )
    return Dataset(texts=(text,), questions=questions)


SW = MethodConfig(method="sw")


class TestEvaluate:
    def test_accuracy_is_correct_ratio(self, toy_dataset):
        report = evaluate(toy_dataset, "dev", SW)
        assert len(report.records) == 4
        assert report.accuracy == pytest.approx(0.75)
        assert [r.correct for r in report.records] == [True, True, True, False]

    def test_records_in_dataset_order(self, toy_dataset):
        report = evaluate(toy_dataset, "dev", SW)
        assert report.question_ids() == ("q1", "q2", "q3", "q4")

    def test_empty_split_rejected(self, toy_dataset):
        with pytest.raises(EmptySplitError):
            evaluate(toy_dataset, "train", SW)

    def test_missing_store_rejected(self, toy_dataset):
        with pytest.raises(ValueError):
            evaluate(toy_dataset, "dev", MethodConfig(method="sw_d_web"))

    def test_worker_count_does_not_change_report(self, toy_dataset):
        sequential = evaluate(toy_dataset, "dev", SW, workers=1)
        parallel = evaluate(toy_dataset, "dev", SW, workers=4)
        assert render_report(sequential, "json") == render_report(parallel, "json")

    def test_worker_count_with_store(self, fixture_dataset, toy_store, toy_preprocess):
        cfg = MethodConfig(method="sw_d_web", preprocess=toy_preprocess)
        sequential = evaluate(fixture_dataset, "dev", cfg, toy_store, workers=1)
        parallel = evaluate(fixture_dataset, "dev", cfg, toy_store, workers=3)
        assert render_report(sequential, "json") == render_report(parallel, "json")

    def test_repeated_runs_render_identically(self, toy_dataset):
        for fmt in ("plain", "csv", "json"):
            a = render_report(evaluate(toy_dataset, "dev", SW), fmt)
            b = render_report(evaluate(toy_dataset, "dev", SW), fmt)
            assert a == b

    def test_random_method_uses_run_generator(self, toy_dataset):
        cfg = MethodConfig(method="random", random_seed=99)
        a = evaluate(toy_dataset, "dev", cfg)
        b = evaluate(toy_dataset, "dev", cfg)
        assert [r.predicted for r in a.records] == [r.predicted for r in b.records]
        assert all(r.breakdown.sw == (0.0,) * 4 for r in a.records)

    def test_merged_accuracy_is_weighted_mean(self, toy_dataset):
        moved = Dataset(
            texts=toy_dataset.texts,
            questions=tuple(
                MCQuestion(
                    id=q.id, text_id=q.text_id, stem=q.stem, options=q.options,
                    gold=q.gold, split="test" if q.id == "q4" else "dev",
                    reasoning_type=q.reasoning_type,
                )
                for q in toy_dataset.questions
            ),
        )
        dev = evaluate(moved, "dev", SW)
        test = evaluate(moved, "test", SW)
        merged = (dev.accuracy * len(dev.records) + test.accuracy * len(test.records)) / 4
        assert merged == pytest.approx(0.75)

    def test_fixture_dataset_complete_breakdowns(self, fixture_dataset, toy_store, toy_preprocess):
        cfg = MethodConfig(method="sw_d_web", preprocess=toy_preprocess)
        report = evaluate(fixture_dataset, "dev", cfg, toy_store)
        assert len(report.records) == 5
        for record in report.records:
            assert record.breakdown.method == "sw_d_web"
            assert len(record.breakdown.final) == 4
            assert 0 <= record.breakdown.predicted <= 3


class TestBoostDirection:
    """A paraphrase-style question the lexical signals cannot solve: the
    gold option uses a synonym absent from the text, so sw and d tie
    across options and only the embedding boost separates them."""

    def build(self):
        text = ReadingText(id="t", grade=3, body="chú chó chạy nhanh trên đường.")
        question = make_question(
            "q", "t", "con vật nào di chuyển trên đường?",
            ["là mèo", "là cún", "là gà", "là vịt"], 1, reasoning="PP",
        )
        dataset = Dataset(texts=(text,), questions=(question,))
        store = vector_store({
            "chó": (1.0, 0.0, 0.0, 0.0),
            "cún": (0.95, 0.05, 0.0, 0.0),   # near-synonym of chó
            "mèo": (0.0, 1.0, 0.0, 0.0),
            "gà": (0.0, 0.0, 1.0, 0.0),
            "vịt": (0.0, 0.0, 0.0, 1.0),
            "chạy": (0.1, 0.1, 0.1, 0.1),
            "nhanh": (0.0, 0.2, 0.2, 0.2),
        })
        return dataset, store

    def test_lexical_methods_tie_and_miss(self):
        dataset, _ = self.build()
        report = evaluate(dataset, "dev", MethodConfig(method="sw_d"))
        record = report.records[0]
        assert len(set(record.breakdown.final)) == 1  # four-way tie
        assert record.predicted == 0 and not record.correct

    def test_boost_separates_and_fixes_it(self):
        dataset, store = self.build()
        report = evaluate(dataset, "dev", MethodConfig(method="sw_d_web"), store)
        record = report.records[0]
        assert record.predicted == 1 and record.correct
        assert record.breakdown.web[1] == max(record.breakdown.web)

    def test_compare_shows_positive_improvement(self):
        dataset, store = self.build()
        baseline = evaluate(dataset, "dev", MethodConfig(method="sw_d"))
        boosted = evaluate(dataset, "dev", MethodConfig(method="sw_d_web"), store)
        table = compare_reports(baseline, boosted, "reasoning_type")
        pp = {row.label: row for row in table.rows}["PP"]
        assert pp.improvement == pytest.approx(100.0)


class TestFacets:
    def test_single_populated_length_bin(self, toy_dataset):
        report = evaluate(toy_dataset, "dev", SW)
        table = facet_breakdown(report, "question_length")
        populated = [row for row in table.rows if row.total]
        assert len(populated) == 1
        assert populated[0].label == "<=10"
        assert populated[0].total == 4

    def test_length_bin_boundaries(self, toy_dataset):
        report = evaluate(toy_dataset, "dev", SW)
        lengths = {r.question_id: r.question_length for r in report.records}
        assert lengths["q1"] == 3  # stems are measured in words, '?' dropped

    def test_length_with_stopwords_counts_the_raw_stem(self):
        # without "và" the stem segments as one word, học_sinh; its length
        # is still that of the raw stem, which has no such join
        seg = DictionarySegmenter(["học_sinh"])
        dataset = Dataset(
            texts=(ReadingText(id="t1", grade=1, body="học sinh đọc sách."),),
            questions=(make_question("q1", "t1", "Học và sinh?", ["sách", "b", "c", "d"], 0),),
        )
        for stopwords in (frozenset(), frozenset({"và"})):
            cfg = MethodConfig(method="sw",
                               preprocess=PreprocessConfig(stopwords=stopwords, segmenter=seg))
            (record,) = evaluate(dataset, "dev", cfg).records
            assert record.question_length == 3

    def test_grade_bins(self, toy_dataset):
        report = evaluate(toy_dataset, "dev", SW)
        table = facet_breakdown(report, "grade")
        by_label = {row.label: row for row in table.rows}
        assert by_label["2"].total == 4
        assert by_label["1"].total == 0

    def test_reasoning_bins_and_skipped(self, toy_dataset):
        report = evaluate(toy_dataset, "dev", SW)
        table = facet_breakdown(report, "reasoning_type")
        by_label = {row.label: row for row in table.rows}
        assert by_label["WM"].total == 2
        assert by_label["WM"].correct == 2
        assert by_label["PP"].total == 1
        assert table.skipped == 1
        assert sum(row.total for row in table.rows) + table.skipped == len(report.records)

    def test_totals_sum_to_records(self, fixture_dataset, toy_preprocess):
        cfg = MethodConfig(method="sw", preprocess=toy_preprocess)
        report = evaluate(fixture_dataset, "dev", cfg)
        for facet in ("question_length", "grade", "reasoning_type"):
            table = facet_breakdown(report, facet)
            assert sum(row.total for row in table.rows) + table.skipped == len(report.records)

    def test_known_per_grade_accuracy(self, toy_dataset):
        report = evaluate(toy_dataset, "dev", SW)
        table = facet_breakdown(report, "grade")
        row = {r.label: r for r in table.rows}["2"]
        assert row.correct == 3
        assert row.accuracy == pytest.approx(0.75)

    def test_unknown_facet(self, toy_dataset):
        report = evaluate(toy_dataset, "dev", SW)
        with pytest.raises(ValueError):
            facet_breakdown(report, "color")


class TestCompare:
    def test_identical_reports_zero_improvement(self, toy_dataset):
        a = evaluate(toy_dataset, "dev", SW)
        table = compare_reports(a, a, "reasoning_type")
        assert all(row.improvement == 0.0 for row in table.rows)

    def test_single_question_changes_bin_by_its_share(self, toy_dataset):
        baseline = evaluate(toy_dataset, "dev", SW)
        better = evaluate(toy_dataset, "dev", MethodConfig(method="sw_d"))
        table = compare_reports(baseline, better, "reasoning_type")
        by_label = {row.label: row for row in table.rows}
        # both methods agree on this toy set, so every delta is 0.00
        assert by_label["WM"].improvement == pytest.approx(0.0)

    def test_one_of_76_is_1_32_points(self):
        # synthetic: 76 annotated questions, methods differ on exactly one
        texts = (ReadingText(id="t", grade=3, body="a b c d"),)
        questions = tuple(
            make_question(f"q{i}", "t", "b?", ["a b", "zz", "yy", "xx"], 0, reasoning="WM")
            for i in range(76)
        )
        ds = Dataset(texts=texts, questions=questions)
        base = evaluate(ds, "dev", SW)
        assert base.accuracy == 1.0
        flipped = base.records[0]
        records = (
            type(flipped)(
                question_id=flipped.question_id, predicted=1, gold=flipped.gold,
                correct=False, breakdown=flipped.breakdown,
                question_length=flipped.question_length, grade=flipped.grade,
                reasoning_type=flipped.reasoning_type,
            ),
        ) + base.records[1:]
        worse = type(base)(config=base.config, records=records,
                           accuracy=sum(r.correct for r in records) / len(records))
        table = compare_reports(worse, base, "reasoning_type")
        wm = {row.label: row for row in table.rows}["WM"]
        assert wm.improvement == pytest.approx(100.0 / 76, abs=1e-9)
        assert wm.ratio == pytest.approx(100.0)

    def test_mismatched_question_sets_rejected(self, toy_dataset):
        a = evaluate(toy_dataset, "dev", SW)
        smaller = Dataset(texts=toy_dataset.texts, questions=toy_dataset.questions[:3])
        b = evaluate(smaller, "dev", SW)
        with pytest.raises(ValueError):
            compare_reports(a, b, "grade")

    def test_ratios_sum_to_100(self, toy_dataset):
        a = evaluate(toy_dataset, "dev", SW)
        for facet in ("question_length", "grade", "reasoning_type"):
            table = compare_reports(a, a, facet)
            assert sum(row.ratio for row in table.rows) == pytest.approx(100.0)


def dump(payload):
    return json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


# characters JSON escapes or that are not ASCII: quote, backslash, the
# controls, DEL, the line and paragraph separators, a Latin-1 letter, an
# astral letter and lone surrogates
HOSTILE_CHARS = ['"', "\\", "\x7f", "\u2028", "\u2029", "é", "\U0001d538", "\ud800", "\udfff"]
HOSTILE_CHARS += [chr(c) for c in range(0x20)]
EXTREME_FLOATS = [-0.0, 1e16, 5e-324, 1.7976931348623157e308, float("nan"), float("inf"),
                  float("-inf")]


def hostile_text():
    return st.text(st.one_of(st.sampled_from(HOSTILE_CHARS), st.characters(),
                             st.integers(0xD800, 0xDFFF).map(chr)), max_size=12)


@st.composite
def reports(draw):
    """Evaluation reports of up to 5 records, drawn field by field."""
    score = st.one_of(st.sampled_from(EXTREME_FLOATS), st.floats())
    scores = st.tuples(score, score, score, score)
    method = draw(st.sampled_from(METHODS))
    records = []
    for _ in range(draw(st.integers(0, 5))):
        predicted, gold = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        records.append(PredictionRecord(
            question_id=draw(hostile_text()), predicted=predicted, gold=gold,
            correct=predicted == gold,
            breakdown=ScoreBreakdown(sw=draw(scores), dist=draw(scores), web=draw(scores),
                                     final=draw(scores), predicted=predicted, method=method),
            question_length=draw(st.integers(0, 10**6)), grade=draw(st.sampled_from(GRADES)),
            reasoning_type=draw(st.sampled_from((None,) + REASONING_TYPES)),
        ))
    config = {"method": method,
              "distance_aggregation": draw(st.sampled_from(DISTANCE_AGGREGATIONS)),
              "random_seed": draw(st.one_of(st.none(), st.integers(-2**70, 2**70))),
              "split": draw(st.sampled_from(["train", "dev", "test"]))}
    return EvaluationReport(config=config, records=tuple(records),
                            accuracy=draw(st.floats(0.0, 1.0)))


class TestRender:
    # a facet table is rendered only inside a plain report
    def test_empty_facet_table_renders_header_only(self):
        table = FacetTable(facet="grade", rows=())
        assert _render_facet_plain(table).splitlines() == ["grade  correct  total  accuracy"]

    def test_plain_report_contains_percentage(self, toy_dataset):
        report = evaluate(toy_dataset, "dev", SW)
        plain = render_report(report, "plain")
        assert "accuracy: 75.00%" in plain

    def test_plain_report_holds_every_facet_table(self, fixture_dataset, toy_preprocess):
        report = evaluate(fixture_dataset, "dev", MethodConfig(method="sw_d",
                                                               preprocess=toy_preprocess))
        plain = render_report(report, "plain")
        for facet in FACETS:
            table = _render_facet_plain(facet_breakdown(report, facet))
            assert table.splitlines()[0].startswith(facet)
            assert table.rstrip("\n") in plain

    def test_best_accuracy_formatting(self):
        table = FacetTable(facet="grade", rows=(FacetRow("2", 6181, 10000),))
        assert "61.81%" in _render_facet_plain(table)

    def test_csv_round_trips_numerically(self, toy_dataset):
        report = evaluate(toy_dataset, "dev", MethodConfig(method="sw_d"))
        rendered = render_report(report, "csv")
        rows = list(csv.DictReader(io.StringIO(rendered)))
        assert len(rows) == len(report.records)
        for row, record in zip(rows, report.records):
            assert row["question_id"] == record.question_id
            assert int(row["predicted"]) == record.predicted
            for i in range(4):
                assert float(row[f"sw_{i}"]) == record.breakdown.sw[i]
                assert float(row[f"dist_{i}"]) == record.breakdown.dist[i]
                assert float(row[f"final_{i}"]) == record.breakdown.final[i]

    def test_json_round_trips(self, toy_dataset):
        report = evaluate(toy_dataset, "dev", SW)
        parsed = json.loads(render_report(report, "json"))
        assert parsed["accuracy"] == report.accuracy
        assert parsed["config"] == report.config
        assert len(parsed["records"]) == len(report.records)
        first = parsed["records"][0]
        assert first["question_id"] == report.records[0].question_id
        assert tuple(first["breakdown"]["sw"]) == report.records[0].breakdown.sw

    def test_json_dicts_are_the_dataclass_fields(self, fixture_dataset, toy_store,
                                                 toy_preprocess):
        """The JSON renderers build their dicts by hand; they must hold every
        field of the record and row dataclasses, nested ones included."""
        cfgs = [MethodConfig(method=m, preprocess=toy_preprocess) for m in ("sw", "sw_d_web")]
        base, method = evaluate_methods(fixture_dataset, "dev", cfgs, toy_store)
        for report in (base, method):
            want = {"config": report.config, "accuracy": report.accuracy,
                    "records": [dataclasses.asdict(r) for r in report.records]}
            assert render_report(report, "json") == dump(want)
        table = compare_reports(base, method, "grade")
        want = {"facet": table.facet, "rows": [dataclasses.asdict(r) for r in table.rows]}
        assert render_report(table, "json") == dump(want)

    @given(reports())
    @settings(max_examples=300, deadline=None)
    @example(EvaluationReport(config={"method": "sw", "distance_aggregation": "min",
                                      "random_seed": None, "split": "dev"},
                              records=(), accuracy=0.0))
    def test_json_report_is_json_dumps_of_its_dict(self, report):
        """The JSON report, written record by record from a template, is
        `json.dumps` of the report's dict byte for byte: hostile strings,
        every non-finite and extreme float, no records."""
        assert render_report(report, "json") == dump(report_dict(report))

    def test_improvement_rendering(self, toy_dataset):
        a = evaluate(toy_dataset, "dev", SW)
        table = compare_reports(a, a, "grade")
        plain = render_report(table, "plain")
        assert "improvement" in plain.splitlines()[0]
        parsed = json.loads(render_report(table, "json"))
        assert parsed["facet"] == "grade"
        as_csv = render_report(table, "csv")
        parsed_rows = list(csv.DictReader(io.StringIO(as_csv)))
        assert [r["label"] for r in parsed_rows] == [r.label for r in table.rows]
        assert all(float(r["improvement"]) == 0.0 for r in parsed_rows)

    def test_unknown_format_rejected(self, toy_dataset):
        report = evaluate(toy_dataset, "dev", SW)
        with pytest.raises(ValueError):
            render_report(report, "yaml")
        with pytest.raises(TypeError):
            render_report(42, "plain")

    def test_unknown_stats_format_rejected(self, toy_dataset):
        """Like `render_report`: an unknown format is an error, not plain text."""
        stats = compute_stats(toy_dataset, DictionarySegmenter())
        for fmt in ("plain", "csv", "json"):
            assert render_stats(stats, fmt)
        with pytest.raises(ValueError, match="unknown format 'yaml'"):
            render_stats(stats, "yaml")
