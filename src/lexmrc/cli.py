"""Command-line interface.

Subcommands: answer one question, evaluate a split, print dataset
statistics, compare two methods, or run a batch of commands in one
process (each input file is then parsed once and shared; a file that
changes during the batch is read again).

Every command is a pure function of its input files, flags, and seed, so
repeated invocations write identical bytes. Exit codes: 0 success,
2 configuration error, 3 I/O or parse error, 4 data validation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shlex
import stat
import sys
from dataclasses import dataclass
from pathlib import Path

from .corpus import (
    Dataset,
    DatasetParseError,
    DatasetStats,
    DatasetValidationError,
    OPTION_LABELS,
    SPLITS,
    compute_stats,
    dataset_files,
    load_dataset,
)
from .embedding import EmbeddingFormatError, EmbeddingStore, load_embeddings
from .evaluation import (
    EmptySplitError,
    FACETS,
    compare_reports,
    evaluate,
    render_report,
)
from .preprocess import (
    DictionarySegmenter,
    PreprocessConfig,
    load_lexicon,
    load_stopwords,
    preprocess_sentence,
    preprocess_text,
)
from .scoring import METHODS, MethodConfig, predict

__all__ = ["ConfigError", "RunConfig", "main", "run"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DATA = 4


class ConfigError(ValueError):
    """Bad flag/config-file combination."""


@dataclass
class RunConfig:
    """Everything one command invocation depends on."""

    dataset: str | None = None
    split: str = "test"
    method: str = "sw_d_web"
    embeddings: str | None = None
    stopwords: str | None = None
    lexicon: str | None = None
    distance_agg: str = "min"
    seed: int | None = None
    format: str = "plain"
    out: str | None = None
    workers: int = 1

    def validate(self, methods: tuple[str, ...] = ()) -> None:
        """Check the flag combination; `methods` lists every decision
        method the command is about to run (empty for stats)."""
        if not self.dataset:
            raise ConfigError("--dataset is required")
        if self.split not in SPLITS:
            raise ConfigError(f"unknown split {self.split!r}")
        if self.distance_agg not in ("min", "max"):
            raise ConfigError(f"unknown distance aggregation {self.distance_agg!r}")
        if self.format not in ("plain", "csv", "json"):
            raise ConfigError(f"unknown format {self.format!r}")
        if self.workers < 1:
            raise ConfigError("--workers must be >= 1")
        for method in methods:
            if method not in METHODS:
                raise ConfigError(f"unknown method {method!r}")
            if method == "sw_d_web" and not self.embeddings:
                raise ConfigError("method sw_d_web requires --embeddings")
            if method == "random" and self.seed is None:
                raise ConfigError("method random requires --seed")


def _stamp(files) -> tuple:
    """Path, size, modification and change time and inode of each file.
    The change time and the inode catch a same-size rewrite whose
    modification time was set back (`cp -p`, `touch -r`)."""
    stamp = []
    for file in files:
        st = os.stat(file)
        stamp.append((str(file), st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino))
    return tuple(stamp)


class _EmbeddingCache:
    """Per-process cache of every parsed input: datasets, vector stores,
    stopword sets and segmenters, so a batch parses each file once.

    Each entry is stamped with its path and the files it was parsed from. A
    file that changes is read again and its entry replaced. Vector stores,
    and the segmenters built from them, are kept per path; the dataset, the
    stopword set and the lexicon segmenter keep only the last one read, so a
    batch over many datasets holds one of them at a time.
    """

    def __init__(self):
        self._entries: dict[object, tuple[tuple, object]] = {}

    def _get(self, slot, path: str, files, build):
        # stamp before building: a file rewritten during the build then
        # fails the next lookup instead of being served stale
        stamp = (path, _stamp(files))
        entry = self._entries.get(slot)
        if entry is None or entry[0] != stamp:
            self._entries.pop(slot, None)  # free the old value before building the new one
            entry = (stamp, build())
            self._entries[slot] = entry
        return entry[1]

    def load(self, path: str) -> EmbeddingStore:
        return self._get(("embeddings", path), path, [path], lambda: load_embeddings(path))

    def dataset(self, path: str) -> Dataset:
        return self._get("dataset", path, dataset_files(path), lambda: load_dataset(path))

    def stopwords(self, path: str) -> frozenset[str]:
        return self._get("stopwords", path, [path], lambda: load_stopwords(path))

    def segmenter(self, lexicon: str | None, embeddings: str | None) -> DictionarySegmenter:
        """Built from the lexicon file or, without one, from the multi-
        syllable entries of the embedding vocabulary, when one is given."""
        if lexicon:
            return self._get("lexicon", lexicon, [lexicon],
                             lambda: DictionarySegmenter(load_lexicon(lexicon)))
        if embeddings:
            def build():
                return DictionarySegmenter(self.load(embeddings).multi_syllable_words())
            return self._get(("store lexicon", embeddings), embeddings, [embeddings], build)
        return DictionarySegmenter()


def _build_runtime(cfg: RunConfig, cache: _EmbeddingCache):
    """The dataset, optional store, and the preprocessing config, from the
    cache."""
    dataset = cache.dataset(cfg.dataset)
    store = cache.load(cfg.embeddings) if cfg.embeddings else None
    stopwords = cache.stopwords(cfg.stopwords) if cfg.stopwords else frozenset()
    segmenter = cache.segmenter(cfg.lexicon, cfg.embeddings)
    return dataset, store, PreprocessConfig(stopwords=stopwords, segmenter=segmenter)


def _method_config(cfg: RunConfig, preprocess: PreprocessConfig, method: str | None = None):
    return MethodConfig(
        method=method or cfg.method,
        distance_aggregation=cfg.distance_agg,
        random_seed=cfg.seed,
        preprocess=preprocess,
    )


def _emit(text: str, cfg: RunConfig) -> None:
    """Write to stdout or to `--out`, following symlinks. A regular or new
    file is replaced atomically, so a failed write leaves the previous file
    intact; any other target (a device, a pipe) is written in place."""
    if not cfg.out:
        sys.stdout.write(text)
        return
    try:
        try:
            mode = os.stat(cfg.out).st_mode
        except FileNotFoundError:
            mode = None
        if mode is None or stat.S_ISREG(mode):
            _replace(Path(os.path.realpath(cfg.out)), text, mode)
        else:  # by its own name: realpath mangles /dev/stdout on a pipe
            Path(cfg.out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, cfg.out) from exc  # name --out, not the temp file


def _replace(target: Path, text: str, mode: int | None) -> None:
    """Write `text` to a temporary file beside `target`, give it the old
    file's `mode` (None for a new file), and rename it onto `target`."""
    tmp = target.parent / f".{target.name}.{os.getpid()}.tmp"
    try:
        tmp.write_text(text, encoding="utf-8")
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


def cmd_answer(cfg: RunConfig, question_id: str, cache: _EmbeddingCache) -> str:
    dataset, store, preprocess = _build_runtime(cfg, cache)
    method_cfg = _method_config(cfg, preprocess)
    try:
        question = dataset.question_by_id(question_id)
    except KeyError:
        raise DatasetValidationError([f"unknown question id {question_id!r}"]) from None
    text = preprocess_text(dataset.text_by_id(question.text_id).body, preprocess)
    words = preprocess_sentence(question.stem, preprocess)
    options = [preprocess_sentence(o, preprocess) for o in question.options]
    breakdown = predict(text, words, options, method_cfg, store)
    if cfg.format == "json":
        payload = {
            "question_id": question_id,
            "method": breakdown.method,
            "sw": list(breakdown.sw),
            "dist": list(breakdown.dist),
            "web": list(breakdown.web),
            "final": list(breakdown.final),
            "predicted": OPTION_LABELS[breakdown.predicted],
        }
        return json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    if cfg.format == "csv":
        lines = ["option,sw,dist,web,final"]
        for i in range(4):
            lines.append(
                f"{OPTION_LABELS[i]},{breakdown.sw[i]!r},{breakdown.dist[i]!r},"
                f"{breakdown.web[i]!r},{breakdown.final[i]!r}"
            )
        lines.append(f"predicted,{OPTION_LABELS[breakdown.predicted]},,,")
        return "\n".join(lines) + "\n"
    lines = [f"question: {question_id}", f"method: {breakdown.method}"]
    lines.append("option        sw      dist       web     final")
    for i in range(4):
        lines.append(
            f"{OPTION_LABELS[i]}       {breakdown.sw[i]:>7.4f}  {breakdown.dist[i]:>7.4f}"
            f"  {breakdown.web[i]:>7.4f}  {breakdown.final[i]:>7.4f}"
        )
    lines.append(f"predicted: {OPTION_LABELS[breakdown.predicted]}")
    return "\n".join(lines) + "\n"


def cmd_evaluate(cfg: RunConfig, cache: _EmbeddingCache) -> str:
    dataset, store, preprocess = _build_runtime(cfg, cache)
    method_cfg = _method_config(cfg, preprocess)
    report = evaluate(dataset, cfg.split, method_cfg, store, workers=cfg.workers)
    return render_report(report, cfg.format)


def cmd_stats(cfg: RunConfig, cache: _EmbeddingCache) -> str:
    dataset, _, preprocess = _build_runtime(cfg, cache)
    stats = compute_stats(dataset, preprocess.segmenter)
    return render_stats(stats, cfg.format)


def cmd_compare(cfg: RunConfig, baseline: str, candidate: str, facet: str, cache: _EmbeddingCache) -> str:
    dataset, store, preprocess = _build_runtime(cfg, cache)
    reports = []
    for method in (baseline, candidate):
        run_cfg = _method_config(cfg, preprocess, method)
        reports.append(
            evaluate(dataset, cfg.split, run_cfg, store if method == "sw_d_web" else None,
                     workers=cfg.workers)
        )
    table = compare_reports(reports[0], reports[1], facet)
    return render_report(table, cfg.format)


def render_stats(stats: DatasetStats, fmt: str = "plain") -> str:
    def split_dict(s):
        return {
            "texts": s.texts,
            "questions": s.questions,
            "avg_text_length": s.avg_text_length,
            "avg_question_length": s.avg_question_length,
            "avg_option_length": s.avg_option_length,
            "avg_correct_length": s.avg_correct_length,
            "vocabulary": s.vocabulary,
        }

    if fmt == "json":
        payload = {
            "splits": {name: split_dict(s) for name, s in stats.splits.items()},
            "overall": split_dict(stats.overall),
            "grades": {
                str(g): {"texts": s.texts, "questions": s.questions, "vocabulary": s.vocabulary}
                for g, s in stats.grades.items()
            },
        }
        return json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        lines = ["section,name,texts,questions,avg_text_length,avg_question_length,"
                 "avg_option_length,avg_correct_length,vocabulary"]
        for name, s in list(stats.splits.items()) + [("all", stats.overall)]:
            lines.append(
                f"split,{name},{s.texts},{s.questions},{s.avg_text_length!r},"
                f"{s.avg_question_length!r},{s.avg_option_length!r},{s.avg_correct_length!r},"
                f"{s.vocabulary}"
            )
        for g, s in stats.grades.items():
            lines.append(f"grade,{g},{s.texts},{s.questions},,,,,{s.vocabulary}")
        return "\n".join(lines) + "\n"
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lexmrc", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON file with flag defaults")
        p.add_argument("--dataset", help="dataset JSON file or directory")
        p.add_argument("--split", choices=["train", "dev", "test"])
        p.add_argument("--method", choices=list(METHODS))
        p.add_argument("--embeddings", help="word-vector text file")
        p.add_argument("--stopwords", help="stopword file, one word per line")
        p.add_argument("--lexicon", help="segmentation word list")
        p.add_argument("--distance-agg", choices=["min", "max"], dest="distance_agg")
        p.add_argument("--seed", type=int)
        p.add_argument("--format", choices=["plain", "csv", "json"])
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--workers", type=int)

    p_answer = sub.add_parser("answer", help="score one question and print the decision")
    add_common(p_answer)
    p_answer.add_argument("--question-id", required=True)

    p_eval = sub.add_parser("evaluate", help="score a whole split and report accuracy")
    add_common(p_eval)

    p_stats = sub.add_parser("stats", help="print dataset statistics")
    add_common(p_stats)

    p_cmp = sub.add_parser("compare", help="per-facet improvement of one method over another")
    add_common(p_cmp)
    p_cmp.add_argument("--baseline", required=True, choices=list(METHODS))
    p_cmp.add_argument("--candidate", required=True, choices=list(METHODS))
    p_cmp.add_argument("--facet", required=True, choices=list(FACETS))

    p_batch = sub.add_parser("batch", help="run commands from a file, one per line")
    p_batch.add_argument("file", help="command file; '#' starts a comment")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    return _build_parser()


_CONFIG_FIELDS = (
    "dataset", "split", "method", "embeddings", "stopwords", "lexicon",
    "distance_agg", "seed", "format", "out", "workers",
)
_INT_FIELDS = ("seed", "workers")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        try:
            defaults = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(defaults, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in defaults.items():
            if key not in _CONFIG_FIELDS:
                raise ConfigError(f"unknown config key {key!r}")
            if value is None:
                continue
            want = int if key in _INT_FIELDS else str
            if not isinstance(value, want):
                raise ConfigError(f"config key {key!r} must be a {want.__name__}")
            setattr(cfg, key, value)
    for key in _CONFIG_FIELDS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def run(argv: list[str], cache: _EmbeddingCache | None = None) -> int:
    args = _parser().parse_args(argv)
    cache = cache or _EmbeddingCache()
    if args.command == "batch":
        return _run_batch(args.file, cache)
    try:
        cfg = _config_from_args(args)
        if args.command == "answer":
            cfg.validate((cfg.method,))
            output = cmd_answer(cfg, args.question_id, cache)
        elif args.command == "evaluate":
            cfg.validate((cfg.method,))
            output = cmd_evaluate(cfg, cache)
        elif args.command == "stats":
            cfg.validate()
            output = cmd_stats(cfg, cache)
        else:
            cfg.validate((args.baseline, args.candidate))
            output = cmd_compare(cfg, args.baseline, args.candidate, args.facet, cache)
        _emit(output, cfg)
        return EXIT_OK
    except (DatasetValidationError, EmptySplitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DatasetParseError, EmbeddingFormatError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _run_batch(path: str, cache: _EmbeddingCache) -> int:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            argv = shlex.split(line)
        except ValueError as exc:
            print(f"error: {path}:{lineno}: {exc}", file=sys.stderr)
            return EXIT_IO
        code = run(argv, cache)
        if code != EXIT_OK:
            return code
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
