import json
import subprocess
import sys

import pytest

from lexmrc.cli import EXIT_CONFIG, EXIT_DATA, EXIT_IO, EXIT_OK, run

from conftest import DATA_DIR

FIXTURES = str(DATA_DIR / "reasoning_fixtures.json")
VECTORS = str(DATA_DIR / "toy_vectors.vec")
LEXICON = str(DATA_DIR / "toy_lexicon.txt")


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

    def test_unknown_config_key(self, capsys, tmp_path):
        f = tmp_path / "run.json"
        f.write_text(json.dumps({"no_such_key": 1}), encoding="utf-8")
        code, _, err = invoke(capsys, "evaluate", "--config", str(f))
        assert code == EXIT_CONFIG
        assert "no_such_key" in err

    def test_wrongly_typed_config_value(self, capsys, tmp_path):
        f = tmp_path / "run.json"
        f.write_text(json.dumps({"workers": "four"}), encoding="utf-8")
        code, _, err = invoke(capsys, "evaluate", "--config", str(f))
        assert code == EXIT_CONFIG
        assert "workers" in err


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

    def test_batch_undecodable_file(self, tmp_path):
        batch = tmp_path / "cmds.txt"
        batch.write_bytes(b"\xff\xfe")
        assert run(["batch", str(batch)]) == EXIT_IO


def test_help_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert "answer" in capsys.readouterr().out


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == EXIT_CONFIG


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "lexmrc.cli", "stats", "--dataset", FIXTURES],
        capture_output=True, text=True,
    )
    assert result.returncode == EXIT_OK
    assert "grade" in result.stdout
