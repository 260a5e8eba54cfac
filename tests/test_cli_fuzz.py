"""Malformed input files through `cli.run`: every run ends in a documented
exit status (0 ok, 2 config, 3 input/output, 4 data) with a one-line
error, never in an exception.

Each example draws a set of faults to plant, empty in about a third of
the examples, then writes a dataset, a vector file, a config file and a
batch file: a file named by a fault is mutated, cut, given an invalid
byte, or replaced by junk or by JSON nested past the decoder's recursion
limit. It runs one command line that reads them, or the batch file that
lists several (and perhaps itself). Examples without faults reach
scoring and output. A second test puts lone surrogates into otherwise valid files and runs every command in
every format over them.
"""

import contextlib
import io
import json
import shlex
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lexmrc.cli import EXIT_CONFIG, EXIT_DATA, EXIT_IO, EXIT_OK, run
from lexmrc.scoring import METHODS

EXITS = {EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_DATA}

BASE_DATASET = {
    "texts": [
        {"id": "t1", "grade": 1, "title": "a", "body": "mèo đen ngủ. chó vàng chạy nhanh!"},
        {"id": "t2", "grade": 3, "title": None, "body": "trời mưa to\nem ở nhà đọc sách."},
    ],
    "questions": [
        {"id": "q1", "text_id": "t1", "stem": "Con gì ngủ?",
         "options": ["mèo đen", "chó vàng", "trời mưa", "em"], "gold": "A",
         "reasoning_type": "WM", "split": "test"},
        {"id": "q2", "text_id": "t2", "stem": "Em làm gì?",
         "options": ["đọc sách", "ngủ", "chạy", "mưa"], "gold": "A", "split": "dev"},
    ],
}
BASE_VECTORS = "4 3\nmèo 1 0 0\nđen 0 1 0\nchó 0 0 1\nđọc_sách 0.5 0.5 0\n"
BASE_CONFIG = {"split": "test", "method": "sw_d_web", "seed": 1}
CONFIG_KEYS = ["split", "method", "distance_agg", "seed", "format", "workers", "no_such_key"]
PATH_KEYS = ["dataset", "embeddings", "stopwords", "lexicon", "out"]

# JSON values that fit no field, or fit the wrong one; st.text never draws
# a lone surrogate, which a JSON escape can spell and UTF-8 cannot encode
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**20) | st.floats(allow_nan=False)
    | st.text(max_size=8) | st.just("\ud800"),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=8,
)
junk_text = st.lists(
    st.sampled_from(list("ab _\n\t#.-e0123456789\"'{}[]:,\x00é") + ["nan", "inf"]),
    max_size=40,
).map("".join)
deep_json = st.integers(1_000, 100_000).map(lambda depth: "[" * depth + "]" * depth)


# what an example may break; it draws a set of these
FAULTS = ("dataset values", "dataset bytes", "dataset junk", "wide header", "vector junk",
          "vector bytes", "config values", "config keys", "config junk", "config bytes",
          "lexicon bytes", "no embeddings", "out path", "batch line", "nested batch",
          "batch bytes", "NUL batch path")


def _paths(doc, prefix=()):
    """Every path to a value inside a JSON document."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, prefix + (i,))


def path_values(root):
    """Paths a flag may name: the example's own files, a directory, a file
    that does not exist, and names the OS refuses or cannot encode."""
    names = ["d.json", "v.vec", "c.json", "lex.txt", "b.txt", "", "missing/x", "a\x00b",
             "\ud800"]
    return st.sampled_from([str(root / name) for name in names] + ["", "\x00"])


def mutate_json(data, doc, mutate, new_keys=None):
    """`doc` with, if `mutate`, a few values replaced or removed, and with
    some keys of `new_keys` (key -> strategy) added at the top level."""
    doc = json.loads(json.dumps(doc))
    if new_keys:
        for key in data.draw(st.lists(st.sampled_from(sorted(new_keys)), min_size=1, max_size=3)):
            doc[key] = data.draw(new_keys[key])
    for _ in range(data.draw(st.integers(1, 3)) if mutate else 0):
        paths = [p for p in _paths(doc) if p]
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(json_values)
    return doc


def file_bytes(data, text, damage):
    """`text` as UTF-8, cut short or with an invalid byte in it if `damage`.
    A lone surrogate is written as its escape, which in a JSON string is
    the surrogate again."""
    raw = text.encode("utf-8", "backslashreplace")
    how = data.draw(st.sampled_from(["cut", "bad byte"])) if damage else "keep"
    if how == "cut" and raw:
        raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
    elif how == "bad byte":
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    return raw


def command_line(data, root, faults):
    files = {name: str(root / name) for name in ("d.json", "v.vec", "c.json", "lex.txt")}
    command = data.draw(st.sampled_from(["evaluate", "compare", "answer", "stats"]))
    argv = [command, "--dataset", files["d.json"]]
    if command == "compare":
        argv += ["--baseline", data.draw(st.sampled_from(["sw", "random"])),
                 "--candidate", data.draw(st.sampled_from(["sw_d", "sw_d_web"])),
                 "--facet", "grade"]
    if command == "answer":
        argv += ["--question-id", data.draw(st.sampled_from(["q1", "q2", "nope"]))]
    if command in ("evaluate", "answer") and data.draw(st.booleans()):
        argv += ["--method", data.draw(st.sampled_from(METHODS))]
    if "no embeddings" not in faults:
        argv += ["--embeddings", files["v.vec"]]
    for flag, value in (("--config", files["c.json"]), ("--lexicon", files["lex.txt"]),
                        ("--seed", "3"),
                        ("--format", data.draw(st.sampled_from(["plain", "csv", "json"])))):
        if data.draw(st.booleans()):
            argv += [flag, value]
    if data.draw(st.booleans()):
        out = str(root / "out.txt")
        argv += ["--out", data.draw(path_values(root)) if "out path" in faults else out]
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_malformed_inputs_end_in_a_documented_exit(data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        faults = data.draw(st.sets(st.sampled_from(FAULTS), max_size=6))
        dataset = json.dumps(mutate_json(data, BASE_DATASET, "dataset values" in faults),
                             ensure_ascii=False)
        if "dataset junk" in faults:
            dataset = data.draw(junk_text | deep_json)
        (root / "d.json").write_bytes(file_bytes(data, dataset, "dataset bytes" in faults))
        # the base file, or its rows under a header too wide to allocate
        vectors = BASE_VECTORS
        if "wide header" in faults:
            vectors = vectors.replace("4 3", "4 1152921504606846976", 1)
        if "vector junk" in faults:
            vectors += data.draw(junk_text)
        (root / "v.vec").write_bytes(file_bytes(data, vectors, "vector bytes" in faults))
        new_keys = {key: json_values | junk_text for key in CONFIG_KEYS}
        new_keys.update({key: path_values(root) for key in PATH_KEYS})
        config = json.dumps(mutate_json(data, BASE_CONFIG, "config values" in faults,
                                        new_keys if "config keys" in faults else None),
                            ensure_ascii=False)
        if "config junk" in faults:
            config = data.draw(junk_text | deep_json)
        (root / "c.json").write_bytes(file_bytes(data, config, "config bytes" in faults))
        (root / "lex.txt").write_bytes(
            file_bytes(data, "mèo_đen\nđọc sách\n", "lexicon bytes" in faults))
        if data.draw(st.booleans()):
            argv = command_line(data, root, faults)
        else:
            lines = [shlex.join(command_line(data, root, faults))
                     for _ in range(data.draw(st.integers(1, 3)))]
            if "batch line" in faults:
                lines.append(data.draw(junk_text))
            if "nested batch" in faults:
                lines.insert(data.draw(st.integers(0, len(lines))),
                             shlex.join(["batch", str(root / "b.txt")]))
            (root / "b.txt").write_bytes(
                file_bytes(data, "\n".join(lines), "batch bytes" in faults))
            argv = ["batch", "a\x00b" if "NUL batch path" in faults else str(root / "b.txt")]
        assert_documented_exit(argv)


def assert_documented_exit(argv):
    """Run `argv`: it ends in a documented exit status, with nothing on
    stderr on success and one `error:` report otherwise."""
    # stdout encodes strictly as a process's UTF-8 stdout does; stderr
    # escapes what it cannot encode
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in EXITS, (argv, err.getvalue())
    if code == EXIT_OK:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().startswith("error: ")


def _strings(doc):
    """The path to every string inside a JSON document."""
    for path in _paths(doc):
        value = doc
        for step in path:
            value = value[step]
        if isinstance(value, str):
            yield path


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lone_surrogates_end_in_a_documented_exit(data):
    """A JSON escape can spell a lone surrogate, which UTF-8 cannot encode.
    One or two strings of the dataset or of the config file end in one, or
    a config path names a file with one; every command in every format
    then ends in a documented exit."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        dataset = json.loads(json.dumps(BASE_DATASET))
        config = {"dataset": str(root / "d.json"), "split": "test", "method": "sw"}
        for doc in (dataset, config):
            for path in data.draw(st.lists(st.sampled_from(list(_strings(doc))), max_size=2,
                                           unique=True)):
                parent = doc
                for step in path[:-1]:
                    parent = parent[step]
                parent[path[-1]] += "\ud800"
        key = data.draw(st.sampled_from([None] + PATH_KEYS))
        if key:
            config[key] = str(root / "\ud800")
        # the default ensure_ascii writes a surrogate as its JSON escape
        (root / "d.json").write_text(json.dumps(dataset), encoding="utf-8")
        (root / "c.json").write_text(json.dumps(config), encoding="utf-8")
        for fmt in ("plain", "csv", "json"):
            common = ["--config", str(root / "c.json"), "--format", fmt]
            for command in (["evaluate"], ["evaluate", "--split", "dev"], ["stats"],
                            ["answer", "--question-id", "q1"],
                            ["compare", "--baseline", "sw", "--candidate", "sw_d",
                             "--facet", "grade"]):
                assert_documented_exit(command + common)
