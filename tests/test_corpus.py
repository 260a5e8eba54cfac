import json
from pathlib import Path

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
    filter_dataset,
    load_dataset,
)
from lexmrc.preprocess import DEFAULT_PUNCTUATION, DictionarySegmenter, split_sentences

from oracles import reference_tokenize

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
            f"text t1: grade {grade!r} is not an integer",
            "question q1: gold label 'E' is not one of A-D",
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
            f"text #2: id {value!r} is not a string or an integer",
            "text #2: body None is not a string",
            f"question #2: id {value!r} is not a string or an integer",
            "question #2: stem None is not a string",
            "question #2: gold label 'F' is not one of A-D",
            f"question q3: text_id {value!r} is not a string or an integer",
            "question q3: gold label 'E' is not one of A-D",
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
            "text with empty id",
            "text #2: grade 9 outside 1-5",
            "question with empty id",
            "question #2: gold label 'E' is not one of A-D",
            "question #2: unknown split 'val'",
        ]

    def test_ids_must_encode_as_utf8(self, tmp_path):
        # a JSON escape can spell a lone surrogate, which no report can
        # write; the record gets a position name, as one without an id does
        texts, questions = minimal_doc()
        texts.append(dict(texts[0], id="t\ud800", grade=0))
        questions.append(dict(questions[0], id="q\udcff", text_id="t\ud800", split="val"))
        f = tmp_path / "d.json"
        f.write_text(json.dumps({"texts": texts, "questions": questions}), encoding="utf-8")
        with pytest.raises(DatasetValidationError) as err:
            load_dataset(f)
        assert err.value.violations == [
            "text #2: id 't\\ud800' does not encode as UTF-8",
            "text #2: grade 0 outside 1-5",
            "question #2: id 'q\\udcff' does not encode as UTF-8",
            "question #2: unknown text_id 't\\ud800'",
            "question #2: unknown split 'val'",
        ]

    def violations(self, tmp_path, texts, questions):
        f = tmp_path / "d.json"
        write_dataset(f, texts, questions)
        with pytest.raises(DatasetValidationError) as err:
            load_dataset(f)
        return err.value.violations

    def test_duplicate_text_id(self, tmp_path):
        texts, questions = minimal_doc()
        texts.append(dict(texts[0], grade=0))
        assert self.violations(tmp_path, texts, questions) == [
            "text t1: duplicate id",
            "text t1: grade 0 outside 1-5",
        ]

    def test_duplicate_question_id(self, tmp_path):
        texts, questions = minimal_doc()
        questions.append(dict(questions[0], split="val"))
        assert self.violations(tmp_path, texts, questions) == [
            "question q1: duplicate id",
            "question q1: unknown split 'val'",
        ]

    def test_empty_option_text(self, tmp_path):
        texts, questions = minimal_doc()
        questions[0]["options"][2] = " \t"
        assert self.violations(tmp_path, texts, questions) == ["question q1: empty option text"]

    @pytest.mark.parametrize("options, expected", [
        # the type of each option first, then the blank ones
        (["a", 7, " ", "d"], ["question q1: option B 7 is not a string",
                              "question q1: empty option text"]),
        # a blank option is not reported beside a wrong count
        (["a", "b", "c", "d", " "], ["question q1: expected 4 options, found 5"]),
        (["a", "", "c"], ["question q1: expected 4 options, found 3"]),
    ])
    def test_mixed_option_faults_keep_their_order(self, tmp_path, options, expected):
        texts, questions = minimal_doc()
        questions[0]["options"] = options
        assert self.violations(tmp_path, texts, questions) == expected

    def test_long_values_are_cut(self, tmp_path):
        long_list, long_text = list(range(1000)), "x" * 1000
        texts = [{"id": "t1", "grade": long_text, "title": None, "body": long_list},
                 {"id": long_list, "grade": 10**100, "title": None, "body": "a"}]
        questions = [{"id": "q1", "text_id": long_list, "stem": long_list,
                      "options": [long_list, "b", "c", "d"], "gold": long_text,
                      "split": long_text, "reasoning_type": long_text},
                     {"id": "q2", "text_id": long_text, "stem": "s",
                      "options": ["a", "b", "c", "d"], "gold": "A", "split": "dev"}]
        cut_list = repr(long_list)[:40] + "..." + repr(long_list)[-37:]
        cut_text = repr(long_text)[:40] + "..." + repr(long_text)[-37:]
        cut_int = repr(10**100)[:40] + "..." + repr(10**100)[-37:]
        assert len(cut_list) == len(cut_text) == len(cut_int) == 80
        assert self.violations(tmp_path, texts, questions) == [
            f"text t1: grade {cut_text} is not an integer",
            f"text t1: body {cut_list} is not a string",
            f"text #2: id {cut_list} is not a string or an integer",
            f"text #2: grade {cut_int} outside 1-5",
            f"question q1: text_id {cut_list} is not a string or an integer",
            f"question q1: stem {cut_list} is not a string",
            f"question q1: option A {cut_list} is not a string",
            f"question q1: gold label {cut_text} is not one of A-D",
            f"question q1: unknown split {cut_text}",
            f"question q1: unknown reasoning_type {cut_text}",
            f"question q2: unknown text_id {cut_text}",
        ]

    def test_records_are_numbered_across_files(self, tmp_path):
        texts, questions = minimal_doc()
        write_dataset(tmp_path / "a.json", texts, [questions[0], dict(questions[0], id="q2")])
        write_dataset(tmp_path / "b.json", [dict(texts[0], id=None)],
                      [dict(questions[0], id=None, gold="E")])
        with pytest.raises(DatasetValidationError) as err:
            load_dataset(tmp_path)
        assert err.value.violations == [
            "text #2: id None is not a string or an integer",
            "question #3: id None is not a string or an integer",
            "question #3: gold label 'E' is not one of A-D",
        ]

    def test_options_error_uses_the_same_name(self, tmp_path):
        texts, questions = minimal_doc()
        write_dataset(tmp_path / "a.json", texts, questions)
        write_dataset(tmp_path / "b.json", [], [dict(questions[0], id=None, options="abcd")])
        with pytest.raises(DatasetParseError) as err:
            load_dataset(tmp_path)
        assert str(err.value) == f"{tmp_path / 'b.json'}: question #2: options must be a list"

    def test_every_file_is_read_before_any_record_is_built(self, tmp_path):
        texts, questions = minimal_doc()
        del questions[0]["stem"]
        write_dataset(tmp_path / "a.json", texts, questions)
        (tmp_path / "b.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(DatasetParseError, match="b.json"):
            load_dataset(tmp_path)

    def test_long_record_names_are_cut(self, tmp_path):
        texts, questions = minimal_doc()
        long_id = "q" * 60 + "z" * 60
        questions[0].update(id=long_id, text_id="")
        questions.append(dict(questions[0]))
        f = tmp_path / "d.json"
        write_dataset(f, texts, questions)
        with pytest.raises(DatasetValidationError) as err:
            load_dataset(f)
        name = "q" * 40 + "..." + "z" * 37
        assert err.value.violations == [
            f"question {name}: unknown text_id ''",
            f"question {name}: duplicate id",
            f"question {name}: unknown text_id ''",
        ]
        # an id of 80 characters is its own name
        questions = [dict(questions[0], id="q" * 80, text_id="t1")]
        write_dataset(f, texts, questions)
        assert load_dataset(f).questions[0].id == "q" * 80

    @pytest.mark.parametrize("kind", ["text", "question"])
    @pytest.mark.parametrize("record", ["a string", None, 7, ["t1"]])
    def test_a_record_that_is_not_an_object(self, tmp_path, kind, record):
        texts, questions = minimal_doc()
        (texts if kind == "text" else questions).append(record)
        f = tmp_path / "d.json"
        write_dataset(f, texts, questions)
        with pytest.raises(DatasetParseError) as err:
            load_dataset(f)
        assert str(err.value) == f"{f}: {kind} #2 is not a JSON object"

    @pytest.mark.parametrize("kind, key, name", [
        ("text", "grade", "t1"), ("text", "body", "t1"), ("text", "id", "#1"),
        ("question", "stem", "q1"), ("question", "gold", "q1"), ("question", "text_id", "q1"),
        ("question", "options", "q1"), ("question", "id", "#1"),
    ])
    def test_a_missing_key_names_the_record_and_the_key(self, tmp_path, kind, key, name):
        texts, questions = minimal_doc()
        del (texts if kind == "text" else questions)[0][key]
        f = tmp_path / "d.json"
        write_dataset(f, texts, questions)
        with pytest.raises(DatasetParseError) as err:
            load_dataset(f)
        assert str(err.value) == f"{f}: {kind} {name}: missing key {key!r}"

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

    def test_unknown_fields_load_and_are_ignored(self, tmp_path):
        texts, questions = minimal_doc()
        plain = tmp_path / "plain.json"
        write_dataset(plain, [{k: v for k, v in t.items() if k != "title"} for t in texts],
                      questions)
        texts[0].update(title="Bài 1", source_url="http://example.com")
        questions[0]["note"] = {"checked": True}
        f = tmp_path / "d.json"
        write_dataset(f, texts, questions)
        assert load_dataset(f) == load_dataset(plain)


class TestFilter:
    def test_empty_dataset(self):
        ds = Dataset(texts=(), questions=())
        assert filter_dataset(ds, split="test") == ds

    def test_split_filter_keeps_referenced_texts(self, fixture_dataset):
        dev = filter_dataset(fixture_dataset, split="dev")
        assert len(dev.questions) == 5
        assert {t.id for t in dev.texts} == {q.text_id for q in dev.questions}
        assert filter_dataset(fixture_dataset, split="train").questions == ()


def one_question(stem):
    return Dataset(
        texts=(ReadingText(id="t", grade=1, body="a"),),
        questions=(MCQuestion(id="q", text_id="t", stem=stem, options=("a", "b", "c", "d"),
                              gold=0, split="dev"),),
    )


class TestStats:
    def test_grade_counts_match_stats_tally(self, fixture_dataset):
        stats = compute_stats(fixture_dataset, SEG)
        grade_of = {t.id: t.grade for t in fixture_dataset.texts}
        assert set(stats.grades) == set(grade_of.values())
        for grade, gs in stats.grades.items():
            assert gs.texts == sum(g == grade for g in grade_of.values())
            assert gs.questions == sum(grade_of[q.text_id] == grade
                                       for q in fixture_dataset.questions)

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
        stats = compute_stats(one_question("Một, hai... ba!"), SEG)
        assert stats.overall.avg_question_length == 3.0

    def test_segmented_lengths(self):
        seg = DictionarySegmenter(["học_sinh"])
        stats = compute_stats(one_question("học sinh giỏi"), seg)
        assert stats.overall.avg_question_length == 2.0

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
        sentences = sum(len(split_sentences(t.body)) for t in fixture_dataset.texts)
        assert len(calls) == sentences + 5 * len(fixture_dataset.questions)
        assert stats == compute_stats(fixture_dataset, SEG)

    def test_text_is_split_at_sentence_breaks_as_scoring_splits_it(self):
        """A lexicon entry never joins syllables across a sentence break,
        in stats as in scoring."""
        seg = DictionarySegmenter(["học_sinh"])
        dataset = Dataset(
            texts=(ReadingText(id="t", grade=1, body="Em là học. Sinh viên"),),
            questions=(MCQuestion(id="q", text_id="t", stem="em", options=("em", "là", "viên", "là"),
                                  gold=0, split="dev"),),
        )
        stats = compute_stats(dataset, seg)
        assert stats.overall.avg_text_length == 5
        # em, là, học, sinh, viên; no học_sinh
        assert stats.overall.vocabulary == 5

    def test_grade_stats(self, fixture_dataset):
        stats = compute_stats(fixture_dataset, SEG)
        assert set(stats.grades) == {1, 2, 3, 4, 5}
        assert all(gs.texts == 1 and gs.questions == 1 for gs in stats.grades.values())
        assert sum(gs.questions for gs in stats.grades.values()) == stats.overall.questions


_text_strategy = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=30
).filter(lambda s: s.strip())


@st.composite
def documents(draw):
    """A dataset document as dicts, some records with a title or other
    keys the loader ignores, and the records it must load as."""
    n_texts = draw(st.integers(1, 4))
    texts, records = [], []
    for i in range(n_texts):
        text = ReadingText(id=f"t{i}", grade=draw(st.integers(1, 5)), body=draw(_text_strategy))
        records.append(text)
        texts.append({"id": text.id, "grade": text.grade, "body": text.body,
                      **draw(st.dictionaries(st.sampled_from(["title", "src", "note"]),
                                             st.one_of(st.none(), _text_strategy), max_size=2))})
    questions, question_records = [], []
    for i in range(draw(st.integers(0, 5))):
        question = MCQuestion(
            id=f"q{i}",
            text_id=f"t{draw(st.integers(0, n_texts - 1))}",
            stem=draw(_text_strategy),
            options=tuple(draw(_text_strategy) for _ in range(4)),
            gold=draw(st.integers(0, 3)),
            split=draw(st.sampled_from(["train", "dev", "test"])),
            reasoning_type=draw(st.sampled_from([None, "WM", "PP", "SSR", "MSR", "AoI"])),
        )
        question_records.append(question)
        questions.append({
            "id": question.id, "text_id": question.text_id, "stem": question.stem,
            "options": list(question.options), "gold": "ABCD"[question.gold],
            "split": question.split, "reasoning_type": question.reasoning_type,
            **draw(st.dictionaries(st.sampled_from(["src", "note"]), st.integers(), max_size=2)),
        })
    return texts, questions, Dataset(texts=tuple(records), questions=tuple(question_records))


class TestLoadProperty:
    @given(doc=documents())
    @settings(max_examples=80, deadline=None)
    def test_written_document_loads_as_drawn(self, tmp_path_factory, doc):
        texts, questions, want = doc
        path = tmp_path_factory.mktemp("load") / "d.json"
        write_dataset(path, texts, questions)
        assert load_dataset(path) == want


class TestStatsProperty:
    @given(stem=_text_strategy)
    @settings(max_examples=200, deadline=None)
    def test_question_length_is_the_reference_word_count(self, stem):
        """Stats count a stem's words as the oracle does: tokens split at
        whitespace and punctuation, lowercased, then segmented."""
        seg = DictionarySegmenter(["học_sinh", "a_b"])
        want = len(seg([t.lower() for t in reference_tokenize(stem, DEFAULT_PUNCTUATION)]))
        stats = compute_stats(one_question(stem), seg)
        assert stats.overall.avg_question_length == want


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

    def test_records_hash_by_value(self, fixture_dataset):
        again = load_dataset(Path(__file__).parent / "data" / "reasoning_fixtures.json")
        assert again == fixture_dataset and again is not fixture_dataset
        assert hash(again) == hash(fixture_dataset)
        assert len(set(fixture_dataset.questions)) == len(fixture_dataset.questions) == 5
