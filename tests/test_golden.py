"""Report bytes on the test fixtures, compared with committed outputs.

Each file under `tests/data/golden/` is the `--out` file of the command
listed for it below, run from the repository root. A change that alters a
report on purpose regenerates the file with that command and says which
bytes changed and why.

`REWRITES` lists input changes that must leave every golden unchanged:
each golden's command is run again with the rewritten file in place of
the original it reads.

Run as a script, `python tests/test_golden.py OUT_DIR` prints one
`lexmrc batch` line per golden, writing the file of that name into
`OUT_DIR`, so the installed script can be held to the same table.
"""

import json
import os
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from lexmrc.cli import EXIT_OK, run

from conftest import DATA_DIR

GOLDEN_DIR = DATA_DIR / "golden"
REPO_ROOT = DATA_DIR.parent.parent
DATASET = ["--dataset", str(DATA_DIR / "reasoning_fixtures.json")]
# the same dataset, its question ids holding characters that JSON escapes
# or that are not ASCII
HOSTILE_IDS = ["--dataset", str(DATA_DIR / "hostile_ids.json")]
LEXICON = ["--lexicon", str(DATA_DIR / "toy_lexicon.txt")]
VECTORS = ["--embeddings", str(DATA_DIR / "toy_vectors.vec")]
STOPWORDS = ["--stopwords", str(DATA_DIR / "toy_stopwords.txt")]


def evaluate(method, *extra, dataset=DATASET, fmt="json"):
    return ["evaluate", *dataset, "--split", "dev", "--method", method, *VECTORS, *LEXICON,
            *extra, "--format", fmt]


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
    "evaluate_sw_d_max.json": evaluate("sw_d", "--distance-agg", "max"),
    "evaluate_sw_d_hostile_ids.json": evaluate("sw_d", dataset=HOSTILE_IDS),
    "evaluate_sw_d_hostile_ids.csv": evaluate("sw_d", dataset=HOSTILE_IDS, fmt="csv"),
    "evaluate_sw_d_web.json": evaluate("sw_d_web"),
    # the default output format, with its facet tables
    "evaluate_sw_d_web.plain": evaluate("sw_d_web", fmt="plain"),
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


def _upper_dataset(text):
    doc = json.loads(text)
    for t in doc["texts"]:
        t["body"] = t["body"].upper()
    for q in doc["questions"]:
        q["stem"] = q["stem"].upper()
        q["options"] = [o.upper() for o in q["options"]]
    return json.dumps(doc, ensure_ascii=False)


# name: (the file replaced, its rewritten text from the original's)
REWRITES = {
    # CRLF and bare-CR vector files go line by line, where the plain file
    # takes the block route
    "vectors_crlf": ("toy_vectors.vec", lambda text: text.replace("\n", "\r\n")),
    "vectors_cr": ("toy_vectors.vec", lambda text: text.replace("\n", "\r")),
    # a vector row is checked only when a command looks it up
    "vectors_unused_bad_row": ("toy_vectors.vec", lambda text: (
        DATA_DIR / "toy_vectors_unused_bad_row.vec").read_text(encoding="utf-8")),
    # a lexicon entry loads lowercased, its spaces joined by "_"
    "lexicon_upper_crlf": ("toy_lexicon.txt", lambda text: (
        text.upper().replace("_", " ").replace("\n", "\r\n"))),
    # every string is lowercased in cleaning, whole or token by token
    "dataset_upper": ("reasoning_fixtures.json", _upper_dataset),
}

REWRITE_PAIRS = [
    (rewrite, name) for rewrite, (original, _) in REWRITES.items() for name in sorted(COMMANDS)
    if str(DATA_DIR / original) in COMMANDS[name]
]


def batch_lines(out_dir):
    """One `batch` line per golden, writing it into `out_dir`."""
    return [shlex.join(COMMANDS[name] + ["--out", str(Path(out_dir) / name)])
            for name in sorted(COMMANDS)]


def test_every_golden_file_has_a_command():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_bytes_match_golden(name, tmp_path):
    out = tmp_path / name
    assert run(COMMANDS[name] + ["--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("rewrite, name", REWRITE_PAIRS,
                         ids=[f"{rewrite}-{name}" for rewrite, name in REWRITE_PAIRS])
def test_rewritten_input_gives_golden_bytes(rewrite, name, tmp_path):
    original, rewritten = REWRITES[rewrite]
    source = DATA_DIR / original
    text = source.read_bytes().decode("utf-8")
    changed = rewritten(text)
    assert changed != text
    copy = tmp_path / original
    copy.write_bytes(changed.encode("utf-8"))
    argv = [str(copy) if arg == str(source) else arg for arg in COMMANDS[name]]
    out = tmp_path / name
    assert run(argv + ["--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


def test_printed_batch_writes_every_golden(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["test_golden.py", str(tmp_path)])
    runpy.run_path(__file__, run_name="__main__")
    commands = tmp_path / "commands.txt"
    commands.write_text(capsys.readouterr().out, encoding="utf-8")
    assert run(["batch", str(commands)]) == EXIT_OK
    for name in COMMANDS:
        assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes()



@pytest.mark.parametrize("rewrite", sorted(REWRITES))
def test_every_rewrite_reaches_a_golden(rewrite):
    """A rewrite whose file no golden's command reads would check nothing."""
    assert any(r == rewrite for r, _ in REWRITE_PAIRS)


def test_script_without_out_dir_prints_usage():
    result = subprocess.run([sys.executable, __file__], capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == "usage: python tests/test_golden.py OUT_DIR\n"


def _ci_step(step_name):
    """The `run:` block of the named step in the CI workflow."""
    lines = (REPO_ROOT / ".github" / "workflows" / "tests.yml").read_text(
        encoding="utf-8").splitlines()
    start = lines.index(f"      - name: {step_name}")
    assert lines[start + 1] == "        run: |"
    block = []
    for line in lines[start + 2:]:
        if line.strip() and not line.startswith(" " * 10):
            break
        block.append(line[10:])
    return "\n".join(block) + "\n"


def test_ci_step_writes_every_golden_through_a_console_script(tmp_path):
    """CI's installed-script step, run under `bash -e` with a stand-in
    `lexmrc` that runs the package from the source tree."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "python").symlink_to(sys.executable)
    lexmrc = bin_dir / "lexmrc"
    lexmrc.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} -m lexmrc.cli "$@"\n',
                      encoding="utf-8")
    lexmrc.chmod(0o755)
    runner_temp = tmp_path / "runner"
    runner_temp.mkdir()
    pythonpath = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"),
                                               os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
           "PYTHONPATH": pythonpath, "RUNNER_TEMP": str(runner_temp)}
    result = subprocess.run(["bash", "-e", "-c", _ci_step("Installed lexmrc writes every golden")],
                            cwd=REPO_ROOT, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    for name in COMMANDS:
        assert (runner_temp / "golden" / name).read_bytes() == (GOLDEN_DIR / name).read_bytes()
    # and each answer golden once more from a lone command
    lone = sorted(p.name for p in (runner_temp / "lone").iterdir())
    assert lone == sorted(name for name in COMMANDS if name.startswith("answer_"))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/test_golden.py OUT_DIR")
    print("\n".join(batch_lines(sys.argv[1])))
