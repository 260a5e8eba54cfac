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
from dataclasses import dataclass, fields
from pathlib import Path

from .corpus import (
    Dataset,
    DatasetParseError,
    DatasetValidationError,
    OPTION_LABELS,
    SPLITS,
    compute_stats,
    dataset_files,
    load_dataset,
)
from .embedding import EmbeddingFormatError, EmbeddingStore, file_stamp, load_embeddings
from .evaluation import (
    EmptySplitError,
    FACETS,
    FORMATS,
    _csv_text,
    _json_text,
    compare_reports,
    evaluate,
    evaluate_methods,
    render_report,
    render_stats,
)
from .preprocess import DictionarySegmenter, Lexicon, PreprocessConfig, load_lexicon, load_stopwords
from .scoring import DISTANCE_AGGREGATIONS, METHODS, MethodConfig

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
    workers: int = 1  # accepted and checked; scoring runs on one thread

    def validate(self, methods: tuple[str, ...] = ()) -> None:
        """Check the flag combination; `methods` lists every decision
        method the command is about to run (empty for stats)."""
        if not self.dataset:
            raise ConfigError("--dataset is required")
        if self.split not in SPLITS:
            raise ConfigError(f"unknown split {self.split!r}")
        if self.distance_agg not in DISTANCE_AGGREGATIONS:
            raise ConfigError(f"unknown distance aggregation {self.distance_agg!r}")
        if self.format not in FORMATS:
            raise ConfigError(f"unknown format {self.format!r}")
        if self.workers < 1:
            raise ConfigError("--workers must be >= 1")
        for flag, path in (("--dataset", self.dataset), ("--embeddings", self.embeddings),
                           ("--stopwords", self.stopwords), ("--lexicon", self.lexicon),
                           ("--out", self.out)):
            _check_path(flag, path)
        for method in methods:
            if method not in METHODS:
                raise ConfigError(f"unknown method {method!r}")
            if method == "sw_d_web" and not self.embeddings:
                raise ConfigError("method sw_d_web requires --embeddings")
            if method == "random" and self.seed is None:
                raise ConfigError("method random requires --seed")


def _check_path(flag: str, path: str | None) -> None:
    """The OS takes no path with a NUL byte in it, nor one the file-system
    encoding cannot encode (a lone surrogate outside the surrogateescape
    range, which a JSON config file can spell); say so as a config error
    rather than let the open fail with a ValueError or UnicodeEncodeError."""
    if not path:
        return
    if "\0" in path:
        raise ConfigError(f"{flag} path contains a NUL byte")
    try:
        os.fsencode(path)
    except UnicodeEncodeError:
        raise ConfigError(f"{flag} path cannot be encoded as a file name") from None


def _stamp(files) -> tuple:
    """Path and `file_stamp` of each file."""
    return tuple((str(file),) + file_stamp(file) for file in files)


class _EmbeddingCache:
    """Per-process cache of every parsed input file: datasets, vector
    stores, stopword sets and lexicons, so a batch parses each file once.

    Each entry is stamped with its path and the files it was parsed from. A
    file that changes is read again and its entry replaced. Vector stores
    are kept per path; the dataset, the stopword set and the lexicon keep
    only the last one read. A segmenter is built per command: a `Lexicon`
    keeps its run prefixes, so one over a cached `Lexicon` costs nothing.
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

    def lexicon(self, path: str) -> Lexicon:
        return self._get("lexicon", path, [path], lambda: load_lexicon(path))


def _build_runtime(cfg: RunConfig, cache: _EmbeddingCache):
    """The dataset, optional store, and the preprocessing config, from the
    cache. Words are segmented by the lexicon file, else by the store's."""
    dataset = cache.dataset(cfg.dataset)
    store = cache.load(cfg.embeddings) if cfg.embeddings else None
    stopwords = cache.stopwords(cfg.stopwords) if cfg.stopwords else frozenset()
    if cfg.lexicon:
        words = cache.lexicon(cfg.lexicon)
    else:
        words = store.multi_syllable_words() if store is not None else ()
    return dataset, store, PreprocessConfig(stopwords=stopwords, segmenter=DictionarySegmenter(words))


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
    try:
        question = dataset.question_by_id(question_id)
    except KeyError:
        raise DatasetValidationError([f"unknown question id {question_id!r}"]) from None
    # the one-question case of evaluate, so the two cannot disagree
    one = Dataset(texts=(dataset.text_by_id(question.text_id),), questions=(question,))
    report = evaluate(one, question.split, _method_config(cfg, preprocess), store)
    breakdown = report.records[0].breakdown
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
        return _json_text(payload)
    if cfg.format == "csv":
        rows = [
            [OPTION_LABELS[i], repr(breakdown.sw[i]), repr(breakdown.dist[i]),
             repr(breakdown.web[i]), repr(breakdown.final[i])]
            for i in range(4)
        ]
        rows.append(["predicted", OPTION_LABELS[breakdown.predicted], "", "", ""])
        return _csv_text(["option", "sw", "dist", "web", "final"], rows)
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
    report = evaluate(dataset, cfg.split, method_cfg, store)
    return render_report(report, cfg.format)


def cmd_stats(cfg: RunConfig, cache: _EmbeddingCache) -> str:
    dataset, _, preprocess = _build_runtime(cfg, cache)
    stats = compute_stats(dataset, preprocess.segmenter)
    return render_stats(stats, cfg.format)


def cmd_compare(cfg: RunConfig, baseline: str, candidate: str, facet: str, cache: _EmbeddingCache) -> str:
    dataset, store, preprocess = _build_runtime(cfg, cache)
    cfgs = [_method_config(cfg, preprocess, method) for method in (baseline, candidate)]
    reports = evaluate_methods(dataset, cfg.split, cfgs, store)
    table = compare_reports(reports[0], reports[1], facet)
    return render_report(table, cfg.format)


class _ParserExit(Exception):
    """Raised where argparse would end the process: with status 0 after
    printing `--help`, or with status 2 on a command line that `parser`
    (the subcommand's, for its own flags) rejects with `message`."""

    def __init__(self, status: int, message: str | None = None, parser=None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.parser = parser


class _ArgumentParser(argparse.ArgumentParser):
    """Raises `_ParserExit` instead of exiting, so that a `batch` line it
    rejects is reported by file and line and the batch process lives on."""

    def exit(self, status=0, message=None):  # argparse calls this after printing --help
        raise _ParserExit(status)

    def error(self, message):
        raise _ParserExit(EXIT_CONFIG, message, self)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="lexmrc", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON file with flag defaults")
        p.add_argument("--dataset", help="dataset JSON file or directory")
        p.add_argument("--split", choices=SPLITS)
        p.add_argument("--method", choices=METHODS)
        p.add_argument("--embeddings", help="word-vector text file")
        p.add_argument("--stopwords", help="stopword file, one word per line")
        p.add_argument("--lexicon", help="segmentation word list")
        p.add_argument("--distance-agg", choices=DISTANCE_AGGREGATIONS, dest="distance_agg")
        p.add_argument("--seed", type=int)
        p.add_argument("--format", choices=FORMATS)
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--workers", type=int, help="accepted and has no effect")

    p_answer = sub.add_parser("answer", help="score one question and print the decision")
    add_common(p_answer)
    p_answer.add_argument("--question-id", required=True)

    p_eval = sub.add_parser("evaluate", help="score a whole split and report accuracy")
    add_common(p_eval)

    p_stats = sub.add_parser("stats", help="print dataset statistics")
    add_common(p_stats)

    p_cmp = sub.add_parser("compare", help="per-facet improvement of one method over another")
    add_common(p_cmp)
    p_cmp.add_argument("--baseline", required=True, choices=METHODS)
    p_cmp.add_argument("--candidate", required=True, choices=METHODS)
    p_cmp.add_argument("--facet", required=True, choices=FACETS)

    p_batch = sub.add_parser("batch", help="run commands from a file, one per line")
    p_batch.add_argument("file", help="command file; an unquoted '#' starts a comment")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    return _build_parser()


_CONFIG_FIELDS = tuple(f.name for f in fields(RunConfig))
_INT_FIELDS = ("seed", "workers")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        _check_path("--config", args.config)
        try:
            defaults = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:  # also bad JSON or UTF-8
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(defaults, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in defaults.items():
            if key not in _CONFIG_FIELDS:
                raise ConfigError(f"unknown config key {key!r}")
            if value is None:
                continue
            want, noun = (int, "an integer") if key in _INT_FIELDS else (str, "a string")
            # bool subclasses int: `true` is not a seed or a worker count
            if not isinstance(value, want) or isinstance(value, bool):
                raise ConfigError(f"config key {key!r} must be {noun}")
            setattr(cfg, key, value)
    for key in _CONFIG_FIELDS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def run(argv: list[str] | argparse.Namespace, cache: _EmbeddingCache | None = None) -> int:
    """Run one command line, or one that `batch` has parsed already."""
    if isinstance(argv, argparse.Namespace):
        args = argv
    else:
        try:
            args = _parser().parse_args(argv)
        except _ParserExit as exc:  # argparse's own usage message and exit status
            if exc.status != 0:
                exc.parser.print_usage(sys.stderr)
                print(f"{exc.parser.prog}: error: {exc.message}", file=sys.stderr)
            raise SystemExit(exc.status) from None
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _run_batch(path: str, cache: _EmbeddingCache) -> int:
    try:
        _check_path("batch file", path)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    for lineno, line in enumerate(lines, start=1):
        try:
            argv = shlex.split(line, comments=True)  # a quoted '#' is no comment
        except ValueError as exc:
            print(f"error: {path}:{lineno}: {exc}", file=sys.stderr)
            return EXIT_IO
        if not argv:
            continue
        try:
            args = _parser().parse_args(argv)
        except _ParserExit as exc:
            if exc.status == 0:
                continue  # the line asked for --help, which is printed
            print(f"error: {path}:{lineno}: {exc.message}", file=sys.stderr)
            return exc.status
        # the batch already shares one input cache, so nesting gains nothing,
        # and a file that names itself would recurse without end
        if args.command == "batch":
            print(f"error: {path}:{lineno}: a batch file cannot run another batch", file=sys.stderr)
            return EXIT_CONFIG
        code = run(args, cache)
        if code != EXIT_OK:
            return code
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
