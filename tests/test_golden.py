"""Report bytes on the test fixtures, compared with committed outputs.

Each file under `tests/data/golden/` is the `--out` file of the command
listed for it below, run from the repository root. A change that alters a
report on purpose regenerates the file with that command and says which
bytes changed and why.
"""

import pytest

from lexmrc.cli import EXIT_OK, run

from conftest import DATA_DIR

GOLDEN_DIR = DATA_DIR / "golden"
DATASET = ["--dataset", str(DATA_DIR / "reasoning_fixtures.json")]
LEXICON = ["--lexicon", str(DATA_DIR / "toy_lexicon.txt")]
VECTORS = ["--embeddings", str(DATA_DIR / "toy_vectors.vec")]
STOPWORDS = ["--stopwords", str(DATA_DIR / "toy_stopwords.txt")]


def evaluate(method, *extra):
    return ["evaluate", *DATASET, "--split", "dev", "--method", method, *VECTORS, *LEXICON,
            *extra, "--format", "json"]


def compare(baseline, candidate, facet, fmt, *extra):
    return ["compare", *DATASET, "--split", "dev", "--baseline", baseline,
            "--candidate", candidate, "--facet", facet, *VECTORS, *LEXICON, *extra,
            "--format", fmt]


def answer(question_id, method, fmt, *extra):
    return ["answer", *DATASET, "--question-id", question_id, "--method", method, *LEXICON,
            *extra, "--format", fmt]


COMMANDS = {
    "evaluate_sw.json": evaluate("sw"),
    "evaluate_sw_d.json": evaluate("sw_d"),
    "evaluate_sw_d_web.json": evaluate("sw_d_web"),
    # with stopwords, question_length is counted on the raw stem
    "evaluate_sw_d_web_stopwords.json": evaluate("sw_d_web", *STOPWORDS),
    "compare_sw_sw_d.json": compare("sw", "sw_d", "reasoning_type", "json"),
    "compare_sw_d_sw_d_web.plain": compare("sw_d", "sw_d_web", "question_length", "plain"),
    "compare_sw_d_sw_d_web.csv": compare("sw_d", "sw_d_web", "grade", "csv"),
    "compare_sw_sw_d_web_stopwords.json": compare("sw", "sw_d_web", "question_length", "json",
                                                  *STOPWORDS),
    "compare_random_sw.plain": compare("random", "sw", "reasoning_type", "plain", "--seed", "7"),
    "answer_sw_d_web.json": answer("q-aoi", "sw_d_web", "json", *VECTORS),
    "answer_sw_d_stopwords.csv": answer("q-pp", "sw_d", "csv", *STOPWORDS),
    "answer_random.plain": answer("q-ssr", "random", "plain", "--seed", "7"),
    "stats.plain": ["stats", *DATASET, *LEXICON, "--format", "plain"],
    "stats.csv": ["stats", *DATASET, *LEXICON, "--format", "csv"],
    "stats.json": ["stats", *DATASET, *LEXICON, "--format", "json"],
}


def test_every_golden_file_has_a_command():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_bytes_match_golden(name, tmp_path):
    out = tmp_path / name
    assert run(COMMANDS[name] + ["--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()
