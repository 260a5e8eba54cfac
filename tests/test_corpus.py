import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexmrc.corpus import (
    Dataset,
    DatasetParseError,
    DatasetValidationError,
    MCQuestion,
    ReadingText,
    compute_stats,
    count_words,
    filter_dataset,
    load_dataset,
    save_dataset,
)
from lexmrc.preprocess import DictionarySegmenter

SEG = DictionarySegmenter()


def write_dataset(path, texts, questions):
    path.write_text(
        json.dumps({"texts": texts, "questions": questions}, ensure_ascii=False),
        encoding="utf-8",
    )


def minimal_doc():
    texts = [{"id": "t1", "grade": 1, "title": None, "body": "a b"}]
    questions = [
        {
            "id": "q1",
            "text_id": "t1",
            "stem": "one two three",
            "options": ["a", "b", "c", "d"],
            "gold": "A",
            "split": "train",
        }
    ]
    return texts, questions


class TestLoad:
    def test_minimal_valid_file(self, tmp_path):
        f = tmp_path / "d.json"
        write_dataset(f, *minimal_doc())
        ds = load_dataset(f)
        assert len(ds.texts) == 1
        assert len(ds.questions) == 1
        assert ds.questions[0].gold == 0

    def test_bad_gold_label_names_question(self, tmp_path):
        texts, questions = minimal_doc()
        questions[0]["gold"] = 5
        f = tmp_path / "d.json"
        write_dataset(f, texts, questions)
        with pytest.raises(DatasetValidationError, match="q1"):
            load_dataset(f)

    def test_all_violations_reported_at_once(self, tmp_path):
        texts, questions = minimal_doc()
        texts.append({"id": "t2", "grade": 9, "title": None, "body": "  "})
        questions[0]["options"] = ["a", "b", "c"]
        questions.append(dict(questions[0], id="q2", text_id="ghost", split="nosuch"))
        f = tmp_path / "d.json"
        write_dataset(f, texts, questions)
        with pytest.raises(DatasetValidationError) as err:
            load_dataset(f)
        messages = "\n".join(err.value.violations)
        assert "t2: grade" in messages
        assert "t2: empty body" in messages
        assert "q1: expected 4 options" in messages
        assert "q2: unknown text_id" in messages
        assert "q2: unknown split" in messages

    @pytest.mark.parametrize("grade", [True, 3.9, "3"])
    def test_grade_must_be_an_integer(self, tmp_path, grade):
        texts, questions = minimal_doc()
        texts[0]["grade"] = grade
        questions[0]["gold"] = "E"
        f = tmp_path / "d.json"
        write_dataset(f, texts, questions)
        with pytest.raises(DatasetValidationError) as err:
            load_dataset(f)
        assert err.value.violations == [
            "question q1: gold label 'E' is not one of A-D",
            f"text t1: grade {grade!r} is not an integer",
        ]

    @pytest.mark.parametrize("value", [None, 5, ["x"]])
    def test_text_fields_must_be_strings(self, tmp_path, value):
        texts, questions = minimal_doc()
        texts[0]["body"] = value
        questions[0]["stem"] = value
        questions[0]["options"][1] = value
        f = tmp_path / "d.json"
        write_dataset(f, texts, questions)
        with pytest.raises(DatasetValidationError) as err:
            load_dataset(f)
        assert err.value.violations == [
            f"text t1: body {value!r} is not a string",
            f"question q1: stem {value!r} is not a string",
            f"question q1: option B {value!r} is not a string",
        ]

    @pytest.mark.parametrize("value", [None, True, 1.5, ["t1"]])
    def test_ids_must_be_strings_or_integers(self, tmp_path, value):
        texts, questions = minimal_doc()
        texts.append(dict(texts[0], id=value, body=None))
        questions.append(dict(questions[0], id=value, stem=None, gold="F"))
        questions.append(dict(questions[0], id="q3", text_id=value, gold="E"))
        f = tmp_path / "d.json"
        write_dataset(f, texts, questions)
        with pytest.raises(DatasetValidationError) as err:
            load_dataset(f)
        assert err.value.violations == [
            "question #2: gold label 'F' is not one of A-D",
            "question q3: gold label 'E' is not one of A-D",
            f"text #2: id {value!r} is not a string or an integer",
            "text #2: body None is not a string",
            f"question #2: id {value!r} is not a string or an integer",
            "question #2: stem None is not a string",
            f"question q3: text_id {value!r} is not a string or an integer",
        ]

    def test_records_with_empty_ids_are_still_checked(self, tmp_path):
        texts, questions = minimal_doc()
        texts.append(dict(texts[0], id="", grade=9))
        questions.append(dict(questions[0], id="", split="val", gold="E"))
        f = tmp_path / "d.json"
        write_dataset(f, texts, questions)
        with pytest.raises(DatasetValidationError) as err:
            load_dataset(f)
        assert err.value.violations == [
            "question #2: gold label 'E' is not one of A-D",
            "text with empty id",
            "text #2: grade 9 outside 1-5",
            "question with empty id",
            "question #2: unknown split 'val'",
        ]

    def test_integer_ids_load_as_strings(self, tmp_path):
        texts, questions = minimal_doc()
        texts[0]["id"] = 7
        questions[0].update(id=3, text_id=7)
        f = tmp_path / "d.json"
        write_dataset(f, texts, questions)
        ds = load_dataset(f)
        assert ds.texts[0].id == "7"
        assert (ds.questions[0].id, ds.questions[0].text_id) == ("3", "7")

    def test_malformed_json(self, tmp_path):
        f = tmp_path / "d.json"
        f.write_text("{not json", encoding="utf-8")
        with pytest.raises(DatasetParseError):
            load_dataset(f)

    def test_options_must_be_a_list(self, tmp_path):
        texts, questions = minimal_doc()
        questions[0]["options"] = "abcd"
        f = tmp_path / "d.json"
        write_dataset(f, texts, questions)
        with pytest.raises(DatasetParseError, match="options"):
            load_dataset(f)

    def test_missing_top_level_keys(self, tmp_path):
        f = tmp_path / "d.json"
        f.write_text(json.dumps({"texts": []}), encoding="utf-8")
        with pytest.raises(DatasetParseError):
            load_dataset(f)

    def test_directory_of_split_files(self, tmp_path):
        texts, questions = minimal_doc()
        write_dataset(tmp_path / "train.json", texts, questions)
        t2 = [{"id": "t9", "grade": 2, "title": "x", "body": "c d"}]
        q2 = [dict(questions[0], id="q9", text_id="t9", split="test")]
        write_dataset(tmp_path / "test.json", t2, q2)
        ds = load_dataset(tmp_path)
        assert {q.split for q in ds.questions} == {"train", "test"}
        assert len(ds.texts) == 2

    def test_split_assignment_overrides_file(self, tmp_path):
        f = tmp_path / "d.json"
        write_dataset(f, *minimal_doc())
        ds = load_dataset(f, split_assignment={"q1": "dev"})
        assert ds.questions[0].split == "dev"

    def test_unknown_fields_survive_round_trip(self, tmp_path):
        texts, questions = minimal_doc()
        texts[0]["source_url"] = "http://example.com"
        questions[0]["note"] = "hand-checked"
        f = tmp_path / "d.json"
        write_dataset(f, texts, questions)
        ds = load_dataset(f)
        assert ds.texts[0].extra == {"source_url": "http://example.com"}
        out = tmp_path / "out.json"
        save_dataset(ds, out)
        again = load_dataset(out)
        assert again == ds

    def test_round_trip_identity(self, tmp_path, fixture_dataset):
        out = tmp_path / "copy.json"
        save_dataset(fixture_dataset, out)
        assert load_dataset(out) == fixture_dataset


class TestFilter:
    def test_empty_dataset(self):
        ds = Dataset(texts=(), questions=())
        assert filter_dataset(ds, split="test") == ds

    def test_split_filter_keeps_referenced_texts(self, fixture_dataset):
        dev = filter_dataset(fixture_dataset, split="dev")
        assert len(dev.questions) == 5
        assert {t.id for t in dev.texts} == {q.text_id for q in dev.questions}
        assert filter_dataset(fixture_dataset, split="train").questions == ()

    def test_no_dangling_references(self, fixture_dataset):
        for grade in (1, 2, 3, 4, 5):
            sub = filter_dataset(fixture_dataset, grade=grade)
            ids = {t.id for t in sub.texts}
            assert all(q.text_id in ids for q in sub.questions)

    def test_grade_counts_match_stats_tally(self, fixture_dataset):
        stats = compute_stats(fixture_dataset, SEG)
        for grade, gs in stats.grades.items():
            sub = filter_dataset(fixture_dataset, grade=grade)
            assert len(sub.questions) == gs.questions
            assert len(sub.texts) == gs.texts

    def test_reasoning_filter(self, fixture_dataset):
        wm = filter_dataset(fixture_dataset, reasoning_type="WM")
        assert [q.id for q in wm.questions] == ["q-wm"]

    def test_predicate(self, fixture_dataset):
        sub = filter_dataset(fixture_dataset, predicate=lambda q: q.gold == 3)
        assert {q.id for q in sub.questions} == {"q-ssr", "q-msr"}


class TestStats:
    def test_direct_counts(self, tmp_path):
        f = tmp_path / "d.json"
        write_dataset(f, *minimal_doc())
        stats = compute_stats(load_dataset(f), SEG)
        assert stats.overall.texts == 1
        assert stats.overall.questions == 1
        assert stats.overall.avg_text_length == 2.0
        assert stats.overall.avg_question_length == 3.0

    def test_overall_counts_equal_split_sums(self, tmp_path):
        texts = [
            {"id": "t1", "grade": 1, "title": None, "body": "a b c"},
            {"id": "t2", "grade": 2, "title": None, "body": "d e"},
        ]
        questions = []
        for i, (tid, split) in enumerate([("t1", "train"), ("t1", "train"), ("t2", "test")]):
            questions.append(
                {
                    "id": f"q{i}",
                    "text_id": tid,
                    "stem": "x y",
                    "options": ["1", "2", "3", "4"],
                    "gold": "B",
                    "split": split,
                }
            )
        f = tmp_path / "d.json"
        write_dataset(f, texts, questions)
        ds = load_dataset(f)
        stats = compute_stats(ds, SEG)
        # independent recount straight from the file
        doc = json.loads(f.read_text(encoding="utf-8"))
        by_split = {}
        for q in doc["questions"]:
            by_split[q["split"]] = by_split.get(q["split"], 0) + 1
        assert stats.overall.questions == sum(by_split.values())
        assert {s: st.questions for s, st in stats.splits.items()} == by_split

    def test_vocabulary_is_distinct_lowercase_words(self, tmp_path):
        texts = [{"id": "t1", "grade": 1, "title": None, "body": "Chó chó MÈO."}]
        questions = [
            {
                "id": "q1",
                "text_id": "t1",
                "stem": "mèo gà?",
                "options": ["chó", "mèo", "gà", "vịt"],
                "gold": "A",
                "split": "train",
            }
        ]
        f = tmp_path / "d.json"
        write_dataset(f, texts, questions)
        stats = compute_stats(load_dataset(f), SEG)
        assert stats.overall.vocabulary == 4  # chó, mèo, gà, vịt

    def test_punctuation_not_counted_as_words(self):
        assert count_words("Một, hai... ba!", SEG) == 3

    def test_segmented_lengths(self):
        seg = DictionarySegmenter(["học_sinh"])
        assert count_words("học sinh giỏi", seg) == 2

    def test_correct_answer_lengths(self, tmp_path):
        texts = [{"id": "t1", "grade": 3, "title": None, "body": "a"}]
        questions = [
            {
                "id": "q1",
                "text_id": "t1",
                "stem": "q",
                "options": ["one", "two two", "three three three", "x"],
                "gold": "C",
                "split": "dev",
            }
        ]
        f = tmp_path / "d.json"
        write_dataset(f, texts, questions)
        stats = compute_stats(load_dataset(f), SEG)
        assert stats.splits["dev"].avg_correct_length == 3.0
        assert stats.splits["dev"].avg_option_length == (1 + 2 + 3 + 1) / 4

    def test_each_string_segmented_once(self, fixture_dataset):
        calls = []

        def counting_segmenter(tokens):
            calls.append(tokens)
            return SEG(tokens)

        stats = compute_stats(fixture_dataset, counting_segmenter)
        assert len(calls) == len(fixture_dataset.texts) + 5 * len(fixture_dataset.questions)
        assert stats == compute_stats(fixture_dataset, SEG)

    def test_grade_stats(self, fixture_dataset):
        stats = compute_stats(fixture_dataset, SEG)
        assert set(stats.grades) == {1, 2, 3, 4, 5}
        assert all(gs.texts == 1 and gs.questions == 1 for gs in stats.grades.values())
        assert sum(gs.questions for gs in stats.grades.values()) == stats.overall.questions


_text_strategy = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=30
).filter(lambda s: s.strip())


@st.composite
def datasets(draw):
    n_texts = draw(st.integers(1, 4))
    texts = []
    for i in range(n_texts):
        texts.append(
            ReadingText(
                id=f"t{i}",
                grade=draw(st.integers(1, 5)),
                title=draw(st.one_of(st.none(), _text_strategy)),
                body=draw(_text_strategy),
                extra=draw(st.dictionaries(st.sampled_from(["src", "note"]),
                                           st.integers(), max_size=2)),
            )
        )
    n_questions = draw(st.integers(0, 5))
    questions = []
    for i in range(n_questions):
        questions.append(
            MCQuestion(
                id=f"q{i}",
                text_id=f"t{draw(st.integers(0, n_texts - 1))}",
                stem=draw(_text_strategy),
                options=tuple(draw(_text_strategy) for _ in range(4)),
                gold=draw(st.integers(0, 3)),
                split=draw(st.sampled_from(["train", "dev", "test"])),
                reasoning_type=draw(st.sampled_from([None, "WM", "PP", "SSR", "MSR", "AoI"])),
            )
        )
    return Dataset(texts=tuple(texts), questions=tuple(questions))


class TestRoundTripProperty:
    @given(ds=datasets())
    @settings(max_examples=80, deadline=None)
    def test_save_load_identity(self, tmp_path_factory, ds):
        path = tmp_path_factory.mktemp("rt") / "d.json"
        save_dataset(ds, path)
        assert load_dataset(path) == ds


class TestModelTypes:
    def test_text_index_lookup(self, fixture_dataset):
        assert fixture_dataset.text_by_id("t-wm").grade == 2
        with pytest.raises(KeyError):
            fixture_dataset.text_by_id("nope")

    def test_question_lookup(self, fixture_dataset):
        assert fixture_dataset.question_by_id("q-wm").gold == 1
        with pytest.raises(KeyError):
            fixture_dataset.question_by_id("nope")

    def test_question_lookup_first_duplicate_wins(self):
        first, second = (
            MCQuestion(id="q", text_id="t", stem=stem, options=("a", "b", "c", "d"), gold=0,
                       split="dev")
            for stem in ("first", "second")
        )
        ds = Dataset(texts=(), questions=(first, second))
        assert ds.question_by_id("q") is first
        assert ds.question_by_id("q") is first
        with pytest.raises(KeyError):
            ds.question_by_id("nope")

    def test_records_are_immutable(self):
        t = ReadingText(id="t", grade=1, body="x")
        q = MCQuestion(
            id="q", text_id="t", stem="s", options=("a", "b", "c", "d"), gold=0, split="dev"
        )
        with pytest.raises(AttributeError):
            t.grade = 2
        with pytest.raises(AttributeError):
            q.gold = 1
