import errno
import json
import os
import random
import shlex
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from lexmrc import cli, embedding, evaluation, scoring
from lexmrc.cli import EXIT_CONFIG, EXIT_DATA, EXIT_IO, EXIT_OK, run
from lexmrc.corpus import OPTION_LABELS, load_dataset
from lexmrc.embedding import EmbeddingStore

from conftest import DATA_DIR

FIXTURES = str(DATA_DIR / "reasoning_fixtures.json")
VECTORS = str(DATA_DIR / "toy_vectors.vec")
LEXICON = str(DATA_DIR / "toy_lexicon.txt")
# a two-file dataset whose violations span both files; CI checks its bytes too
INVALID_DATASET = str(DATA_DIR / "invalid_dataset")
# JSON nested far deeper than the decoder's recursion limit
NESTED_JSON = "[" * 100_000 + "]" * 100_000


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnswer:
    def test_word_matching_fixture_predicts_gold(self, capsys):
        code, out, _ = invoke(
            capsys, "answer", "--dataset", FIXTURES, "--question-id", "q-wm",
            "--method", "sw_d_web", "--embeddings", VECTORS, "--lexicon", LEXICON,
        )
        assert code == EXIT_OK
        assert "predicted: B" in out

    def test_forced_tie_prints_a(self, capsys, tmp_path):
        doc = {
            "texts": [{"id": "t", "grade": 1, "title": None, "body": "x y"}],
            "questions": [{
                "id": "q", "text_id": "t", "stem": "x?",
                "options": ["same", "same", "same", "same"],
                "gold": "B", "split": "test",
            }],
        }
        f = tmp_path / "d.json"
        f.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = invoke(
            capsys, "answer", "--dataset", str(f), "--question-id", "q", "--method", "sw",
        )
        assert code == EXIT_OK
        assert "predicted: A" in out

    def test_unknown_question_id(self, capsys):
        code, _, err = invoke(
            capsys, "answer", "--dataset", FIXTURES, "--question-id", "nope",
            "--method", "sw",
        )
        assert code == EXIT_DATA
        assert "nope" in err

    def test_missing_embeddings_for_web_method(self, capsys):
        code, _, err = invoke(
            capsys, "answer", "--dataset", FIXTURES, "--question-id", "q-wm",
            "--method", "sw_d_web",
        )
        assert code == EXIT_CONFIG
        assert "embeddings" in err

    def test_null_fields_are_validation_errors(self, capsys, tmp_path):
        doc = {
            "texts": [{"id": "t", "grade": 1, "title": None, "body": None}],
            "questions": [{
                "id": "q", "text_id": "t", "stem": None,
                "options": [None, "b", "c", "d"], "gold": "A", "split": "test",
            }],
        }
        f = tmp_path / "d.json"
        f.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = invoke(
            capsys, "answer", "--dataset", str(f), "--question-id", "q", "--method", "sw",
        )
        assert code == EXIT_DATA
        assert out == ""
        assert "text t: body None is not a string" in err
        assert "question q: stem None is not a string" in err
        assert "question q: option A None is not a string" in err

    def test_null_ids_are_validation_errors(self, capsys, tmp_path):
        doc = {
            "texts": [{"id": None, "grade": 1, "title": None, "body": "x"}],
            "questions": [{
                "id": None, "text_id": None, "stem": "x",
                "options": ["a", "b", "c", "d"], "gold": "A", "split": "test",
            }],
        }
        f = tmp_path / "d.json"
        f.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = invoke(
            capsys, "answer", "--dataset", str(f), "--question-id", "None", "--method", "sw",
        )
        assert code == EXIT_DATA
        assert out == ""
        assert "text #1: id None is not a string or an integer" in err
        assert "question #1: id None is not a string or an integer" in err

    @pytest.mark.parametrize("seed", [0, 2, 5, 11])
    def test_random_method_draws_from_its_seed(self, capsys, seed):
        argv = ["answer", "--dataset", FIXTURES, "--question-id", "q-wm", "--method", "random",
                "--seed", str(seed), "--format", "json"]
        first, second = invoke(capsys, *argv), invoke(capsys, *argv)
        assert first == second
        code, out, err = first
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["predicted"] == OPTION_LABELS[random.Random(seed).randrange(4)]

    def test_json_format(self, capsys):
        code, out, _ = invoke(
            capsys, "answer", "--dataset", FIXTURES, "--question-id", "q-wm",
            "--method", "sw_d_web", "--embeddings", VECTORS, "--lexicon", LEXICON,
            "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["predicted"] == "B"
        assert len(payload["final"]) == 4


class TestEvaluate:
    def test_dev_split_accuracy(self, capsys):
        code, out, _ = invoke(
            capsys, "evaluate", "--dataset", FIXTURES, "--split", "dev",
            "--method", "sw_d_web", "--embeddings", VECTORS, "--lexicon", LEXICON,
        )
        assert code == EXIT_OK
        assert "accuracy: 100.00%" in out

    def test_round_trip_bytes_identical(self, tmp_path):
        outputs = []
        for name in ("a.json", "b.json"):
            out_file = tmp_path / name
            code = run([
                "evaluate", "--dataset", FIXTURES, "--split", "dev",
                "--method", "sw_d_web", "--embeddings", VECTORS, "--lexicon", LEXICON,
                "--format", "json", "--out", str(out_file),
            ])
            assert code == EXIT_OK
            outputs.append(out_file.read_bytes())
        assert outputs[0] == outputs[1]

    def test_workers_flag_output_identical(self, capsys):
        results = []
        for workers in ("1", "4"):
            code, out, _ = invoke(
                capsys, "evaluate", "--dataset", FIXTURES, "--split", "dev",
                "--method", "sw", "--lexicon", LEXICON, "--workers", workers,
                "--format", "csv",
            )
            assert code == EXIT_OK
            results.append(out)
        assert results[0] == results[1]

    def test_zero_workers(self, capsys):
        code, out, err = invoke(
            capsys, "evaluate", "--dataset", FIXTURES, "--split", "dev",
            "--method", "sw", "--workers", "0",
        )
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "error: --workers must be >= 1\n"

    def test_workers_start_no_thread(self, capsys, monkeypatch):
        def refuse(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        dataset = load_dataset(FIXTURES)
        cfg = scoring.MethodConfig(method="sw")
        assert evaluation.evaluate(dataset, "dev", cfg, workers=4) == evaluation.evaluate(
            dataset, "dev", cfg)
        code, _, err = invoke(
            capsys, "evaluate", "--dataset", FIXTURES, "--split", "dev",
            "--method", "sw", "--lexicon", LEXICON, "--workers", "4",
        )
        assert (code, err) == (EXIT_OK, "")

    def test_empty_split(self, capsys):
        code, _, err = invoke(
            capsys, "evaluate", "--dataset", FIXTURES, "--split", "train",
            "--method", "sw",
        )
        assert code == EXIT_DATA
        assert "train" in err

    def test_random_requires_seed(self, capsys):
        code, _, err = invoke(
            capsys, "evaluate", "--dataset", FIXTURES, "--split", "dev",
            "--method", "random",
        )
        assert code == EXIT_CONFIG
        assert "seed" in err

    def test_missing_dataset_file(self, capsys):
        code, _, _ = invoke(
            capsys, "evaluate", "--dataset", "/nonexistent/d.json", "--split", "dev",
            "--method", "sw",
        )
        assert code == EXIT_IO

    def test_corrupt_dataset_file(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{oops", encoding="utf-8")
        code, _, _ = invoke(
            capsys, "evaluate", "--dataset", str(f), "--split", "dev", "--method", "sw",
        )
        assert code == EXIT_IO

    def test_deeply_nested_dataset_file(self, capsys, tmp_path):
        f = tmp_path / "nested.json"
        f.write_text(NESTED_JSON, encoding="utf-8")
        code, _, err = invoke(
            capsys, "evaluate", "--dataset", str(f), "--split", "dev", "--method", "sw",
        )
        assert code == EXIT_IO
        assert err.startswith(f"error: {f}: ")
        assert len(err.splitlines()) == 1

    def test_missing_dataset_flag(self, capsys):
        code, out, err = invoke(capsys, "evaluate", "--split", "dev", "--method", "sw")
        assert (code, out, err) == (EXIT_CONFIG, "", "error: --dataset is required\n")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no integer string conversion limit")
    def test_integer_too_long_in_dataset_file(self, capsys, tmp_path):
        f = tmp_path / "d.json"
        f.write_text('{"texts": [], "questions": [], "n": ' + "1" * 5000 + "}", encoding="utf-8")
        code, out, err = invoke(capsys, "stats", "--dataset", str(f))
        assert (code, out) == (EXIT_IO, "")
        assert err.startswith(f"error: {f}: Exceeds the limit")
        assert len(err.splitlines()) == 1

    def test_long_value_message_is_cut(self, capsys, tmp_path):
        doc = {
            "texts": [{"id": "t1", "grade": 1, "title": None, "body": list(range(200_000))}],
            "questions": [],
        }
        f = tmp_path / "d.json"
        f.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = invoke(capsys, "stats", "--dataset", str(f))
        assert (code, out) == (EXIT_DATA, "")
        assert err.startswith("error: invalid dataset:\n  - text t1: body [0, 1, 2")
        assert err.endswith(", 199998, 199999] is not a string\n")
        assert len(err.encode("utf-8")) < 1024

    def test_invalid_dataset_directory(self, capsys):
        code, out, err = invoke(capsys, "stats", "--dataset", INVALID_DATASET)
        assert (code, out) == (EXIT_DATA, "")
        assert err == (DATA_DIR / "invalid_dataset.stderr").read_text(encoding="utf-8")

    def test_dataset_directory_without_json_files(self, capsys, tmp_path):
        (tmp_path / "notes.txt").write_text("{}", encoding="utf-8")
        code, out, err = invoke(capsys, "stats", "--dataset", str(tmp_path))
        assert (code, out) == (EXIT_IO, "")
        assert err == f"error: {tmp_path}: no .json files in dataset directory\n"

    def test_invalid_dataset(self, capsys, tmp_path):
        doc = {
            "texts": [{"id": "t", "grade": 7, "title": None, "body": "x"}],
            "questions": [],
        }
        f = tmp_path / "d.json"
        f.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = invoke(
            capsys, "evaluate", "--dataset", str(f), "--split", "dev", "--method", "sw",
        )
        assert code == EXIT_DATA
        assert "grade" in err

    @pytest.mark.parametrize("doc", [
        {"texts": 5, "questions": []},
        {"texts": [], "questions": "q1"},
    ])
    def test_texts_and_questions_must_be_lists(self, capsys, tmp_path, doc):
        f = tmp_path / "d.json"
        f.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = invoke(capsys, "stats", "--dataset", str(f))
        assert code == EXIT_IO
        assert "must be lists" in err

    @pytest.mark.parametrize("flag,command", [
        ("--embeddings", ["answer", "--question-id", "q-wm", "--method", "sw_d_web"]),
        ("--stopwords", ["stats"]),
        ("--lexicon", ["stats"]),
    ])
    def test_undecodable_word_file_is_io_error(self, capsys, tmp_path, flag, command):
        f = tmp_path / "words.txt"
        f.write_bytes(b"\xff\xfe")
        code, _, err = invoke(capsys, *command, "--dataset", FIXTURES, flag, str(f))
        assert code == EXIT_IO
        assert err.startswith("error:")


class TestStats:
    def test_fixture_counts(self, capsys):
        code, out, _ = invoke(capsys, "stats", "--dataset", FIXTURES)
        assert code == EXIT_OK
        lines = out.splitlines()
        all_line = next(line for line in lines if line.startswith("all"))
        assert "5" in all_line.split()

    def test_json_stats(self, capsys):
        code, out, _ = invoke(capsys, "stats", "--dataset", FIXTURES, "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["overall"]["texts"] == 5
        assert payload["overall"]["questions"] == 5
        assert payload["splits"]["dev"]["questions"] == 5
        assert set(payload["grades"]) == {"1", "2", "3", "4", "5"}


class TestCompare:
    def test_same_method_zero_improvement(self, capsys):
        code, out, _ = invoke(
            capsys, "compare", "--dataset", FIXTURES, "--split", "dev",
            "--baseline", "sw", "--candidate", "sw", "--facet", "reasoning_type",
            "--lexicon", LEXICON, "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert all(row["improvement"] == 0.0 for row in payload["rows"])

    def test_web_method_vs_sw_d(self, capsys):
        code, out, _ = invoke(
            capsys, "compare", "--dataset", FIXTURES, "--split", "dev",
            "--baseline", "sw_d", "--candidate", "sw_d_web", "--facet", "grade",
            "--embeddings", VECTORS, "--lexicon", LEXICON, "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert all(row["improvement"] >= 0.0 for row in payload["rows"])

    def test_each_question_is_scored_once(self, monkeypatch, tmp_path):
        builds = count_calls(monkeypatch, scoring.TextIndex, "__init__")
        sentences = count_calls(monkeypatch, evaluation, "preprocess_sentence")
        windows = count_calls(monkeypatch, scoring.TextIndex, "window_score")
        assert run(["compare", "--dataset", FIXTURES, "--split", "dev", "--baseline", "sw",
                    "--candidate", "sw_d_web", "--facet", "grade", "--embeddings", VECTORS,
                    "--lexicon", LEXICON, "--out", str(tmp_path / "table.txt")]) == EXIT_OK
        dataset = load_dataset(FIXTURES)
        questions = [q for q in dataset.questions if q.split == "dev"]
        texts = {q.text_id for q in questions}
        # one index per text, built with the store the sw_d_web side needs
        assert len(builds) == len({args[1].flat for args in builds}) == len(texts)
        assert all(isinstance(args[2], EmbeddingStore) for args in builds)
        # one pre-processing of each stem and option, one sw per option
        assert [args[0] for args in sentences] == [
            s for q in questions for s in (q.stem, *q.options)]
        assert len(windows) == 4 * len(questions)


class TestConfigFile:
    def test_config_defaults_with_flag_override(self, capsys, tmp_path):
        cfg = {"dataset": FIXTURES, "split": "dev", "method": "sw", "lexicon": LEXICON}
        f = tmp_path / "run.json"
        f.write_text(json.dumps(cfg), encoding="utf-8")
        code, out, _ = invoke(capsys, "evaluate", "--config", str(f))
        assert code == EXIT_OK
        code2, out2, _ = invoke(
            capsys, "evaluate", "--config", str(f), "--method", "sw_d",
        )
        assert code2 == EXIT_OK
        assert "method: sw\n" in out
        assert "method: sw_d\n" in out2

    def test_deeply_nested_config_file(self, capsys, tmp_path):
        f = tmp_path / "run.json"
        f.write_text(NESTED_JSON, encoding="utf-8")
        code, _, err = invoke(capsys, "evaluate", "--dataset", FIXTURES, "--config", str(f))
        assert code == EXIT_CONFIG
        assert err.startswith("error: cannot read config file: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no integer string conversion limit")
    def test_integer_too_long_in_config_file(self, capsys, tmp_path):
        f = tmp_path / "run.json"
        f.write_text('{"seed": ' + "1" * 5000 + "}", encoding="utf-8")
        code, out, err = invoke(capsys, "stats", "--dataset", FIXTURES, "--config", str(f))
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith("error: cannot read config file: Exceeds the limit")

    def test_null_value_keeps_the_default(self, capsys, tmp_path):
        f = tmp_path / "run.json"
        f.write_text(json.dumps({"dataset": FIXTURES, "format": None, "split": None}),
                     encoding="utf-8")
        code, out, err = invoke(capsys, "stats", "--config", str(f))
        assert (code, err) == (EXIT_OK, "")
        assert out == invoke(capsys, "stats", "--dataset", FIXTURES, "--format", "plain")[1]
        code, out, err = invoke(capsys, "evaluate", "--config", str(f), "--method", "sw")
        assert (code, out) == (EXIT_DATA, "")
        assert err == "error: split 'test' contains no questions\n"

    def test_unknown_config_key(self, capsys, tmp_path):
        f = tmp_path / "run.json"
        f.write_text(json.dumps({"no_such_key": 1}), encoding="utf-8")
        code, _, err = invoke(capsys, "evaluate", "--config", str(f))
        assert code == EXIT_CONFIG
        assert "no_such_key" in err

    @pytest.mark.parametrize("values", [
        {"seed": True, "workers": True}, {"seed": True}, {"workers": True}, {"seed": False},
    ])
    def test_boolean_is_not_an_integer(self, capsys, tmp_path, values):
        f = tmp_path / "run.json"
        f.write_text(json.dumps(values), encoding="utf-8")
        code, out, err = invoke(capsys, "evaluate", "--config", str(f), "--dataset", FIXTURES,
                                "--split", "dev", "--method", "random", "--seed", "1")
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == f"error: config key {next(iter(values))!r} must be an integer\n"

    @pytest.mark.parametrize("key, value, message", [
        ("distance_agg", "mean", "unknown distance aggregation 'mean'"),
        ("format", "xml", "unknown format 'xml'"),
    ], ids=["distance_agg", "format"])
    def test_unknown_choice_in_config_file(self, capsys, tmp_path, key, value, message):
        """argparse checks a flag's choices; a config file's value is
        checked by `RunConfig.validate`."""
        f = tmp_path / "run.json"
        f.write_text(json.dumps({key: value}), encoding="utf-8")
        code, out, err = invoke(capsys, "evaluate", "--config", str(f), "--dataset", FIXTURES,
                                "--split", "dev", "--method", "sw")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"error: {message}\n"

    def test_config_file_holding_an_array(self, capsys, tmp_path):
        f = tmp_path / "run.json"
        f.write_text(json.dumps([{"dataset": FIXTURES}]), encoding="utf-8")
        code, out, err = invoke(capsys, "stats", "--config", str(f))
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "error: config file must hold a JSON object\n"

    def test_wrongly_typed_config_value(self, capsys, tmp_path):
        f = tmp_path / "run.json"
        f.write_text(json.dumps({"workers": "four"}), encoding="utf-8")
        code, _, err = invoke(capsys, "evaluate", "--config", str(f))
        assert code == EXIT_CONFIG
        assert "workers" in err

    def test_string_key_with_a_number(self, capsys, tmp_path):
        f = tmp_path / "run.json"
        f.write_text(json.dumps({"method": 3}), encoding="utf-8")
        code, out, err = invoke(capsys, "evaluate", "--config", str(f), "--dataset", FIXTURES)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "error: config key 'method' must be a string\n"

    # a JSON escape can spell a lone surrogate, which no file name encodes
    @pytest.mark.parametrize("path, problem", [("a\u0000b", "contains a NUL byte"),
                                               ("\ud800", "cannot be encoded as a file name")],
                             ids=["nul", "surrogate"])
    @pytest.mark.parametrize("key", ["dataset", "embeddings", "stopwords", "lexicon", "out"])
    def test_unusable_config_path(self, capsys, tmp_path, key, path, problem):
        f = tmp_path / "run.json"
        f.write_text(json.dumps({"dataset": FIXTURES, key: path}), encoding="utf-8")
        code, out, err = invoke(capsys, "evaluate", "--config", str(f), "--split", "dev",
                                "--method", "sw")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"error: --{key} path {problem}\n"


class TestNulBytePaths:
    """The OS takes no path with a NUL byte; each one is a config error
    (exit 2), not a ValueError escaping `run`."""

    @pytest.mark.parametrize("flag", ["--dataset", "--embeddings", "--lexicon", "--out",
                                      "--config"])
    def test_flag(self, capsys, flag):
        argv = ["evaluate", "--dataset", FIXTURES, "--split", "dev", "--method", "sw"]
        code, out, err = invoke(capsys, *argv, flag, "x\0y")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"error: {flag} path contains a NUL byte\n"

    def test_batch_file(self, capsys):
        code, out, err = invoke(capsys, "batch", "x\0y")
        assert (code, out, err) == (EXIT_CONFIG, "", "error: batch file path contains a NUL byte\n")

    def test_batch_line(self, capsys, tmp_path):
        f = tmp_path / "b.txt"
        f.write_text(f"evaluate --dataset {FIXTURES} --split dev --method sw --out 'a\0b'\n",
                     encoding="utf-8")
        code, out, err = invoke(capsys, "batch", str(f))
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "error: --out path contains a NUL byte\n"


class TestLoneSurrogates:
    """A JSON escape can spell a lone surrogate, which UTF-8 cannot encode:
    in a dataset id it is a validation violation (exit 4), never a
    UnicodeEncodeError escaping `run`. A config-file path holding one is a
    config error (`test_unusable_config_path`), but a surrogate that
    stands for a byte of a name is a file name like any other."""

    @pytest.mark.parametrize("argv", [["evaluate", "--format", "json"],
                                      ["evaluate", "--format", "csv"],
                                      ["answer", "--question-id", "q2"]])
    def test_id(self, capsys, tmp_path, argv):
        texts = [{"id": "t1", "grade": 1, "title": None, "body": "mèo đen ngủ."}]
        question = {"text_id": "t1", "stem": "Con gì ngủ?",
                    "options": ["mèo", "chó", "gà", "vịt"], "gold": "A", "split": "test"}
        questions = [dict(question, id="q\ud800"), dict(question, id="q2")]
        f = tmp_path / "d.json"
        f.write_text(json.dumps({"texts": texts, "questions": questions}), encoding="utf-8")
        code, out, err = invoke(capsys, *argv, "--dataset", str(f), "--method", "sw")
        assert (code, out) == (EXIT_DATA, "")
        assert err == ("error: invalid dataset:\n"
                       "  - question #1: id 'q\\ud800' does not encode as UTF-8\n")

    def test_surrogateescape_path_is_a_file_name(self, capsys, tmp_path):
        # the form a command line gives a name that is not UTF-8: "\udcff"
        target = tmp_path / os.fsdecode(b"\xff.json")
        code, out, err = invoke(capsys, "stats", "--dataset", FIXTURES, "--format", "json",
                                "--out", str(target))
        assert (code, out, err) == (EXIT_OK, "", "")
        assert json.loads(target.read_text(encoding="utf-8"))


class TestStopwordsFlag:
    def test_stopword_file_changes_scores(self, capsys, tmp_path):
        stop = tmp_path / "stop.txt"
        stop.write_text("tiếng\nchuông\n", encoding="utf-8")
        outputs = {}
        for label, extra in (("plain", []), ("stopped", ["--stopwords", str(stop)])):
            code, out, _ = invoke(
                capsys, "answer", "--dataset", FIXTURES, "--question-id", "q-wm",
                "--method", "sw", "--lexicon", LEXICON, "--format", "json", *extra,
            )
            assert code == EXIT_OK
            outputs[label] = json.loads(out)
        # removing the ringing-phone words lowers option B's window score
        assert outputs["stopped"]["sw"][1] < outputs["plain"]["sw"][1]


class TestDistanceAggFlag:
    def test_min_and_max_give_different_penalties(self, capsys):
        outputs = {}
        for agg in ("min", "max"):
            code, out, _ = invoke(
                capsys, "answer", "--dataset", FIXTURES, "--question-id", "q-aoi",
                "--method", "sw_d", "--lexicon", LEXICON, "--distance-agg", agg,
                "--format", "json",
            )
            assert code == EXIT_OK
            outputs[agg] = json.loads(out)
        assert outputs["min"]["dist"] != outputs["max"]["dist"]
        assert outputs["min"]["sw"] == outputs["max"]["sw"]


class TestBatch:
    def test_batch_runs_all_lines(self, capsys, tmp_path):
        out_a = tmp_path / "a.txt"
        out_b = tmp_path / "b.txt"
        batch = tmp_path / "cmds.txt"
        batch.write_text(
            "# batch of two\n"
            f"stats --dataset {FIXTURES} --out {out_a}\n"
            f"evaluate --dataset {FIXTURES} --split dev --method sw_d_web "
            f"--embeddings {VECTORS} --lexicon {LEXICON} --out {out_b}\n",
            encoding="utf-8",
        )
        code = run(["batch", str(batch)])
        assert code == EXIT_OK
        assert out_a.exists() and out_b.exists()
        assert "accuracy: 100.00%" in out_b.read_text(encoding="utf-8")

    def test_batch_stops_on_error(self, tmp_path):
        batch = tmp_path / "cmds.txt"
        batch.write_text("evaluate --dataset /nope.json --split dev --method sw\n",
                         encoding="utf-8")
        assert run(["batch", str(batch)]) == EXIT_IO

    def test_batch_missing_file(self):
        assert run(["batch", "/nonexistent/cmds.txt"]) == EXIT_IO

    def test_batch_unbalanced_quote(self, capsys, tmp_path):
        batch = tmp_path / "cmds.txt"
        batch.write_text(f"stats --dataset {FIXTURES}\nstats --dataset \"unclosed\n",
                         encoding="utf-8")
        code, _, err = invoke(capsys, "batch", str(batch))
        assert code == EXIT_IO
        assert err.splitlines()[-1] == f"error: {batch}:2: No closing quotation"

    @pytest.mark.parametrize("line,message", [
        ("stats --dataset d.json --bogus", "unrecognized arguments: --bogus"),
        ("stats --dataset d.json --format xml", "argument --format: invalid choice: 'xml'"),
        ("answer --dataset d.json", "the following arguments are required: --question-id"),
    ])
    def test_batch_line_rejected_by_argparse(self, capsys, tmp_path, line, message):
        before, after = tmp_path / "before.txt", tmp_path / "after.txt"
        batch = tmp_path / "cmds.txt"
        batch.write_text(f"stats --dataset {FIXTURES} --out {before}\n{line}\n"
                         f"stats --dataset {FIXTURES} --out {after}\n", encoding="utf-8")
        code, out, err = invoke(capsys, "batch", str(batch))
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith(f"error: {batch}:2: {message}")
        assert len(err.splitlines()) == 1
        assert before.exists() and not after.exists()

    def test_quoted_hash_is_no_comment(self, capsys, tmp_path):
        folder = tmp_path / "h#dir"
        folder.mkdir()
        (folder / "d.json").write_bytes(Path(FIXTURES).read_bytes())
        quoted, cut = tmp_path / "quoted.txt", tmp_path / "cut.txt"
        batch = tmp_path / "cmds.txt"
        batch.write_text(
            "# it's a comment line, with an unbalanced quote\n"
            f"stats --dataset \"{folder}/d.json\" --out {quoted}  # trailing comment\n"
            f"stats --dataset '{folder}/d.json' --out {cut}#an unquoted '#' still cuts\n"
            "   # an indented comment\n",
            encoding="utf-8",
        )
        code, out, err = invoke(capsys, "batch", str(batch))
        assert (code, out, err) == (EXIT_OK, "", "")
        _, alone, _ = invoke(capsys, "stats", "--dataset", FIXTURES)
        assert quoted.read_text(encoding="utf-8") == alone
        assert cut.read_text(encoding="utf-8") == alone

    def test_batch_line_asking_for_help(self, capsys, tmp_path):
        out_file = tmp_path / "stats.txt"
        batch = tmp_path / "cmds.txt"
        batch.write_text(f"stats --help\nstats --dataset {FIXTURES} --out {out_file}\n",
                         encoding="utf-8")
        code, out, _ = invoke(capsys, "batch", str(batch))
        assert code == EXIT_OK
        assert out.startswith("usage: lexmrc stats")
        assert out_file.exists()

    def test_batch_line_running_a_batch(self, capsys, tmp_path):
        before, after = tmp_path / "before.txt", tmp_path / "after.txt"
        batch = tmp_path / "cmds.txt"
        batch.write_text(f"stats --dataset {FIXTURES} --out {before}\nbatch {batch}\n"
                         f"stats --dataset {FIXTURES} --out {after}\n", encoding="utf-8")
        code, out, err = invoke(capsys, "batch", str(batch))
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == f"error: {batch}:2: a batch file cannot run another batch\n"
        assert before.exists() and not after.exists()

    def test_batch_undecodable_file(self, tmp_path):
        batch = tmp_path / "cmds.txt"
        batch.write_bytes(b"\xff\xfe")
        assert run(["batch", str(batch)]) == EXIT_IO


class TestOutFile:
    @pytest.mark.parametrize("step,error", [
        ("write", OSError(errno.ENOSPC, "No space left on device")),
        ("replace", OSError(errno.EACCES, "Permission denied")),
    ])
    def test_failure_keeps_previous_file(self, capsys, tmp_path, monkeypatch, step, error):
        out = tmp_path / "stats.txt"
        out.write_bytes(b"previous output\n")
        if step == "write":
            write_text = Path.write_text

            def write_half(path, text, *args, **kwargs):
                write_text(path, text[: len(text) // 2], *args, **kwargs)
                raise error

            monkeypatch.setattr(Path, "write_text", write_half)
        else:
            def refuse(src, dst):
                raise error

            monkeypatch.setattr(os, "replace", refuse)
        code, _, err = invoke(capsys, "stats", "--dataset", FIXTURES, "--out", str(out))
        assert code == EXIT_IO
        assert err == f"error: [Errno {error.errno}] {error.strerror}: '{out}'\n"
        assert out.read_bytes() == b"previous output\n"
        assert [p.name for p in tmp_path.iterdir()] == ["stats.txt"]

    def test_replaces_previous_file(self, capsys, tmp_path):
        out = tmp_path / "stats.txt"
        out.write_text("previous output, longer than the statistics table " * 40,
                       encoding="utf-8")
        assert run(["stats", "--dataset", FIXTURES, "--out", str(out)]) == EXIT_OK
        code, alone, _ = invoke(capsys, "stats", "--dataset", FIXTURES)
        assert code == EXIT_OK
        assert out.read_text(encoding="utf-8") == alone
        assert [p.name for p in tmp_path.iterdir()] == ["stats.txt"]


    def test_symlink_is_written_through(self, capsys, tmp_path):
        real = tmp_path / "real.txt"
        real.write_text("previous output\n", encoding="utf-8")
        real.chmod(0o640)
        link = tmp_path / "link.txt"
        link.symlink_to(real)
        code, out, _ = invoke(capsys, "stats", "--dataset", FIXTURES, "--out", str(link))
        assert (code, out) == (EXIT_OK, "")
        _, alone, _ = invoke(capsys, "stats", "--dataset", FIXTURES)
        assert link.is_symlink()
        assert real.read_text(encoding="utf-8") == alone
        assert stat.S_IMODE(real.stat().st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]

    def test_fifo_is_written_in_place(self, capsys, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        code, _, err = invoke(capsys, "stats", "--dataset", FIXTURES, "--out", str(fifo))
        reader.join(timeout=30)
        assert (code, err) == (EXIT_OK, "")
        _, alone, _ = invoke(capsys, "stats", "--dataset", FIXTURES)
        assert received == [alone.encode("utf-8")]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_dev_stdout_on_a_pipe(self, capsys):
        proc = subprocess.run(
            [sys.executable, "-m", "lexmrc.cli", "stats", "--dataset", FIXTURES,
             "--out", "/dev/stdout"],
            capture_output=True, text=True, encoding="utf-8",
        )
        _, alone, _ = invoke(capsys, "stats", "--dataset", FIXTURES)
        assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, alone, "")


def count_calls(monkeypatch, owner, name):
    """Replace `owner.name` with a wrapper that records each call."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def returned_values(monkeypatch, owner, name):
    """Replace `owner.name` with a wrapper that keeps each value it
    returns, alive, so that distinct values have distinct ids."""
    values = []
    real = getattr(owner, name)

    def recorded(*args, **kwargs):
        values.append(real(*args, **kwargs))
        return values[-1]

    monkeypatch.setattr(owner, name, recorded)
    return values


def one_question_doc(options):
    """A dataset whose one question `q` has the given options; `sw` picks
    the option "x"."""
    return {
        "texts": [{"id": "t", "grade": 1, "title": None, "body": "x y"}],
        "questions": [{"id": "q", "text_id": "t", "stem": "z?", "options": options,
                       "gold": "A", "split": "test"}],
    }


def write_json(path, doc, mtime_ns=None):
    path.write_text(json.dumps(doc), encoding="utf-8")
    if mtime_ns is not None:
        os.utime(path, ns=(mtime_ns, mtime_ns))


class TestInputCache:
    ANSWERS = [("q-wm", "plain"), ("q-pp", "csv"), ("q-ssr", "json"), ("q-aoi", "plain")]

    def batch_commands(self, tmp_path, resources):
        commands = [
            ["answer", "--dataset", FIXTURES, "--question-id", qid, "--method", "sw_d_web",
             "--format", fmt, "--out", str(tmp_path / f"{qid}.out")] + resources
            for qid, fmt in self.ANSWERS
        ]
        commands.append(["stats", "--dataset", FIXTURES, "--format", "json",
                         "--out", str(tmp_path / "stats.out")] + resources)
        return commands

    @pytest.mark.parametrize("lexicon", [True, False], ids=["lexicon-file", "store-lexicon"])
    def test_batch_parses_each_input_once(self, tmp_path, monkeypatch, lexicon):
        stopwords = tmp_path / "stop.txt"
        stopwords.write_text("là\n", encoding="utf-8")
        resources = ["--embeddings", VECTORS, "--stopwords", str(stopwords)]
        if lexicon:
            resources += ["--lexicon", LEXICON]
        commands = self.batch_commands(tmp_path, resources)
        batch = tmp_path / "cmds.txt"
        batch.write_text("\n".join(shlex.join(c) for c in commands) + "\n", encoding="utf-8")

        cli._parser.cache_clear()
        calls = {name: count_calls(monkeypatch, cli, name)
                 for name in ("load_dataset", "load_embeddings", "load_stopwords",
                              "load_lexicon", "_build_parser")}
        # the segmenter is built per command, over the one store's one `Lexicon`
        lexicons = returned_values(monkeypatch, EmbeddingStore, "multi_syllable_words")
        assert run(["batch", str(batch)]) == EXIT_OK
        counts = {name: len(c) for name, c in calls.items()}
        assert counts == {
            "load_dataset": 1, "load_embeddings": 1, "load_stopwords": 1,
            "load_lexicon": 1 if lexicon else 0, "_build_parser": 1,
        }
        assert len({id(v) for v in lexicons}) == (0 if lexicon else 1)

        # each output is byte-identical to the command run alone on a fresh cache
        for argv in commands:
            batched = Path(argv[argv.index("--out") + 1])
            alone = tmp_path / "alone.out"
            argv[argv.index("--out") + 1] = str(alone)
            assert run(argv) == EXIT_OK
            assert batched.read_bytes() == alone.read_bytes()

    def answer(self, cache, dataset, out):
        argv = ["answer", "--dataset", str(dataset), "--question-id", "q", "--method", "sw",
                "--format", "json", "--out", str(out)]
        assert run(argv, cache) == EXIT_OK
        return json.loads(out.read_text(encoding="utf-8"))["predicted"]

    @pytest.mark.parametrize("change", ["size", "mtime", "same-size-old-mtime",
                                        "directory-member"])
    def test_changed_dataset_is_read_again(self, tmp_path, monkeypatch, change):
        if change == "directory-member":
            dataset = tmp_path / "splits"
            dataset.mkdir()
            write_json(dataset / "dev.json", {"texts": [], "questions": []})
            member = dataset / "test.json"
        else:
            dataset = member = tmp_path / "d.json"
        write_json(member, one_question_doc(["x", "b", "c", "d"]))
        loads = count_calls(monkeypatch, cli, "load_dataset")
        cache = cli._EmbeddingCache()
        out = tmp_path / "answer.json"
        assert self.answer(cache, dataset, out) == "A"
        assert self.answer(cache, dataset, out) == "A"
        assert len(loads) == 1

        before, size = member.stat().st_mtime_ns, member.stat().st_size
        if change == "mtime":
            write_json(member, one_question_doc(["b", "x", "c", "d"]), before + 10**9)
        elif change == "same-size-old-mtime":
            # as `cp -p` or `touch -r` leave it: only the change time differs
            write_json(member, one_question_doc(["b", "x", "c", "d"]), before)
            assert member.stat().st_size == size
        else:
            # a different size alone must be noticed, so keep the old mtime
            write_json(member, one_question_doc(["bb", "x", "c", "d"]), before)
        assert self.answer(cache, dataset, out) == "B"
        assert len(loads) == 2
        assert len(cache._entries) == 1  # the new dataset replaced the old one

    def test_one_dataset_is_held_at_a_time(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        write_json(first, one_question_doc(["x", "b", "c", "d"]))
        write_json(second, one_question_doc(["b", "x", "c", "d"]))
        cache = cli._EmbeddingCache()
        out = tmp_path / "answer.json"
        assert self.answer(cache, first, out) == "A"
        assert self.answer(cache, second, out) == "B"
        assert list(cache._entries) == ["dataset"]
        assert cache._entries["dataset"][0][0] == str(second)

    def test_vector_file_rewritten_mid_batch_is_reloaded(self, tmp_path, monkeypatch):
        vectors = tmp_path / "vectors.vec"
        rows = Path(VECTORS).read_text(encoding="utf-8").splitlines()
        vectors.write_text("\n".join(rows) + "\n", encoding="utf-8")
        outs = [tmp_path / f"{i}.out" for i in range(3)]
        commands = [
            ["answer", "--dataset", FIXTURES, "--question-id", "q-wm", "--method", "sw_d_web",
             "--embeddings", str(vectors), "--format", "json", "--out", str(out)]
            for out in outs
        ]
        batch = tmp_path / "cmds.txt"
        batch.write_text("\n".join(shlex.join(c) for c in commands) + "\n", encoding="utf-8")

        real_run = cli.run
        rewritten = []

        def run_then_rewrite(argv, cache=None):
            code = real_run(argv, cache)
            if not rewritten:  # after the first command, keep only the header and 40 rows
                vectors.write_text(f"40 {rows[0].split()[1]}\n" + "\n".join(rows[1:41]) + "\n",
                                   encoding="utf-8")
                rewritten.append(True)
            return code

        loads = count_calls(monkeypatch, cli, "load_embeddings")
        lexicons = returned_values(monkeypatch, EmbeddingStore, "multi_syllable_words")
        monkeypatch.setattr(cli, "run", run_then_rewrite)
        assert real_run(["batch", str(batch)]) == EXIT_OK
        assert len(loads) == 2
        assert len({id(v) for v in lexicons}) == 2  # one per loaded store
        assert outs[1].read_bytes() == outs[2].read_bytes()
        alone = tmp_path / "alone.out"
        commands[2][-1] = str(alone)
        assert real_run(commands[2]) == EXIT_OK
        assert alone.read_bytes() == outs[2].read_bytes()



class TestLazyVectorRows:
    """A vector row is converted, and checked, when a command first looks
    it up. The two committed files each hold one bad row; CI runs the
    installed `lexmrc` on both and compares the same bytes."""

    def evaluate(self, capsys, vectors, *extra):
        return invoke(capsys, "evaluate", "--dataset", "tests/data/reasoning_fixtures.json",
                      "--split", "dev", "--method", "sw_d_web", "--embeddings", vectors,
                      "--lexicon", "tests/data/toy_lexicon.txt", "--format", "json", *extra)

    def test_a_bad_row_no_question_touches_passes(self, capsys, monkeypatch):
        monkeypatch.chdir(DATA_DIR.parent.parent)
        code, out, err = self.evaluate(capsys, "tests/data/toy_vectors_unused_bad_row.vec")
        assert (code, err) == (EXIT_OK, "")
        assert out == (DATA_DIR / "golden" / "evaluate_sw_d_web.json").read_text(encoding="utf-8")

    def test_a_bad_row_a_question_touches_exits_3(self, capsys, monkeypatch):
        monkeypatch.chdir(DATA_DIR.parent.parent)
        code, out, err = self.evaluate(capsys, "tests/data/toy_vectors_used_bad_row.vec")
        assert (code, out) == (EXIT_IO, "")
        want = (DATA_DIR / "toy_vectors_used_bad_row.stderr").read_text(encoding="utf-8")
        assert err == want
        assert want == ("error: tests/data/toy_vectors_used_bad_row.vec:91: "
                        "non-numeric vector component\n")
        # only the text of q-aoi holds the bad row's word
        for qid, code_want in (("q-pp", EXIT_OK), ("q-aoi", EXIT_IO)):
            code, _, err = invoke(capsys, "answer", "--dataset", FIXTURES, "--question-id", qid,
                                  "--method", "sw_d_web", "--lexicon", LEXICON,
                                  "--embeddings", "tests/data/toy_vectors_used_bad_row.vec")
            assert (code, err) == (code_want, "" if code_want == EXIT_OK else want)

    def test_a_non_positive_header_dimension_exits_3(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(DATA_DIR.parent.parent)
        vectors = tmp_path / "v.vec"
        vectors.write_text("2 0\na\n", encoding="utf-8")
        code, out, err = self.evaluate(capsys, str(vectors))
        assert (code, out, err) == (EXIT_IO, "", f"error: {vectors}:1: non-positive dimension in header\n")

    def test_a_file_rewritten_before_conversion_exits_3(self, capsys, tmp_path, monkeypatch):
        vectors = tmp_path / "v.vec"
        vectors.write_bytes(Path(VECTORS).read_bytes())
        real_load = cli.load_embeddings

        def load_then_rewrite(path):
            store = real_load(path)
            vectors.write_bytes(Path(VECTORS).read_bytes().replace(b" 0.", b" 1."))
            return store

        monkeypatch.setattr(cli, "load_embeddings", load_then_rewrite)
        code, out, err = self.evaluate(capsys, str(vectors))
        assert (code, out) == (EXIT_IO, "")
        assert err == f"error: {vectors}: file changed since it was loaded\n"

    @staticmethod
    def count_passes(monkeypatch):
        """The size of each row conversion pass made from now on."""
        passes = []
        read = embedding._RowSource.read

        def counting(source, ids, dim):
            passes.append(len(ids))
            return read(source, ids, dim)

        monkeypatch.setattr(embedding._RowSource, "read", counting)
        return passes

    def test_a_second_evaluate_converts_no_row(self, tmp_path, monkeypatch):
        passes = self.count_passes(monkeypatch)
        cache = cli._EmbeddingCache()
        argv = ["evaluate", "--dataset", FIXTURES, "--split", "dev", "--method", "sw_d_web",
                "--embeddings", VECTORS, "--lexicon", LEXICON, "--format", "json",
                "--out", str(tmp_path / "out.json")]
        assert run(argv, cache) == EXIT_OK
        # the load converts the first row; then one pass per text of the dev
        # split, over the rows of its words and its options' words not
        # converted yet
        dev_texts = {q.text_id for q in load_dataset(FIXTURES).questions if q.split == "dev"}
        assert passes[0] == 1
        assert len(passes) == 1 + len(dev_texts) == 6
        assert sum(passes) == 145
        first = (tmp_path / "out.json").read_bytes()
        assert run(argv, cache) == EXIT_OK
        assert len(passes) == 6
        assert (tmp_path / "out.json").read_bytes() == first

    @pytest.mark.parametrize("qid", ["q-wm", "q-pp", "q-ssr", "q-msr", "q-aoi"])
    def test_a_cold_answer_converts_its_rows_in_one_pass(self, qid, monkeypatch, capsys):
        passes = self.count_passes(monkeypatch)
        code, _, err = invoke(capsys, "answer", "--dataset", FIXTURES, "--question-id", qid,
                              "--method", "sw_d_web", "--embeddings", VECTORS,
                              "--lexicon", LEXICON)
        assert (code, err) == (EXIT_OK, "")
        assert len(passes) == 2  # the load's first row, then the text's rows
        assert passes[0] == 1


def test_help_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert "answer" in capsys.readouterr().out


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == EXIT_CONFIG


def test_rejected_subcommand_line_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["stats", "--format", "xml"])
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("usage: lexmrc stats [-h]")
    assert "\nlexmrc stats: error: argument --format: invalid choice: 'xml'" in err


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "lexmrc.cli", "stats", "--dataset", FIXTURES],
        capture_output=True, text=True,
    )
    assert result.returncode == EXIT_OK
    assert "grade" in result.stdout
