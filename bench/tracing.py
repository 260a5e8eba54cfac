"""Per-layer spans around lexmrc's public functions, installed from outside.

`Tracer.install()` replaces each traced function or method, in every
lexmrc module that refers to it, with a wrapper that records a span
(name, start, end, parent) and per-call counts; `uninstall()` puts the
originals back. Nothing in src/ knows about it. Spans stay in memory
until the run writes them out.

A span's self time is its duration minus the durations of its direct
children, so every second of a traced pass is counted in exactly one
span (or in the benchmark's own root span).
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# span name -> (module, attribute, class attribute or None)
TARGETS = {
    "embedding.load": ("lexmrc.embedding", "load_embeddings", None),
    "embedding.average": ("lexmrc.embedding", "average_embedding", None),
    "embedding.lexicon": ("lexmrc.embedding", "EmbeddingStore", "multi_syllable_words"),
    "corpus.load": ("lexmrc.corpus", "load_dataset", None),
    "corpus.stats": ("lexmrc.corpus", "compute_stats", None),
    "preprocess.text": ("lexmrc.preprocess", "preprocess_text", None),
    "preprocess.sentence": ("lexmrc.preprocess", "preprocess_sentence", None),
    "preprocess.segment": ("lexmrc.preprocess", "DictionarySegmenter", "__call__"),
    "preprocess.lexicon": ("lexmrc.preprocess", "load_lexicon", None),
    "scoring.index": ("lexmrc.scoring", "TextIndex", "__init__"),
    "scoring.sw": ("lexmrc.scoring", "TextIndex", "window_score"),
    "scoring.d": ("lexmrc.scoring", "TextIndex", "distance"),
    "scoring.web": ("lexmrc.scoring", "TextIndex", "boost"),
    "kernels.window_sum": ("lexmrc.kernels", "max_window_sum", None),
    "kernels.pair_distance": ("lexmrc.kernels", "extreme_pair_distance", None),
    "kernels.window_cosine": ("lexmrc.kernels", "max_window_cosine", None),
    "evaluation.evaluate": ("lexmrc.evaluation", "evaluate", None),
    "evaluation.render": ("lexmrc.evaluation", "render_report", None),
    "cli.run": ("lexmrc.cli", "run", None),
}

# lexicon builds are counted, not timed: their time stays in the caller's
# self time (cli.run_self_s for the commands)
COUNT_ONLY = ("embedding.lexicon", "preprocess.lexicon")

# per-layer metric -> span name
SELF_TIME = {
    "embedding.load_s": "embedding.load",
    "embedding.average_s": "embedding.average",
    "corpus.load_s": "corpus.load",
    "corpus.stats_s": "corpus.stats",
    "preprocess.text_s": "preprocess.text",
    "preprocess.sentence_s": "preprocess.sentence",
    "preprocess.segment_s": "preprocess.segment",
    "scoring.index_s": "scoring.index",
    "scoring.sw_s": "scoring.sw",
    "scoring.d_s": "scoring.d",
    "scoring.web_s": "scoring.web",
    "kernels.window_sum_s": "kernels.window_sum",
    "kernels.pair_distance_s": "kernels.pair_distance",
    "kernels.window_cosine_s": "kernels.window_cosine",
    "evaluation.evaluate_self_s": "evaluation.evaluate",
    "evaluation.render_s": "evaluation.render",
    "cli.run_self_s": "cli.run",
}
CALLS = {
    "embedding.average_calls": "embedding.average",
    "corpus.loads": "corpus.load",
    "preprocess.segment_calls": "preprocess.segment",
    "scoring.index_builds": "scoring.index",
    "kernels.window_sum_calls": "kernels.window_sum",
    "kernels.pair_distance_calls": "kernels.pair_distance",
    "kernels.window_cosine_calls": "kernels.window_cosine",
}
COUNTS = ("embedding.rows", "cli.lexicon_builds")
RATIOS = ("preprocess.segmentations_per_string", "scoring.index_builds_per_text")
LAYER_METRICS = tuple(SELF_TIME) + tuple(CALLS) + COUNTS + RATIOS


class Tracer:
    def __init__(self):
        self._originals: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self._cli_depth = 0
        self.counts: Counter = Counter()
        self.segment_inputs: set[tuple[str, ...]] = set()
        self.indexed_texts: set[tuple[str, ...]] = set()

    # -- spans --------------------------------------------------------------

    def span(self, name: str):
        return _Span(self, name)

    def _wrap(self, name: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer._before(name, args)
            return fn(*args, **kwargs)

        def traced(*args, **kwargs):
            tracer._before(name, args)
            try:
                with tracer.span(name):
                    result = fn(*args, **kwargs)
            finally:
                if name == "cli.run":
                    tracer._cli_depth -= 1
            if name == "embedding.load":
                tracer.counts["embedding.rows"] += len(result)
            return result

        wrapper = counted if name in COUNT_ONLY else traced
        wrapper.__wrapped__ = fn
        return wrapper

    def _before(self, name: str, args) -> None:
        if name == "cli.run":
            self._cli_depth += 1
        elif name in COUNT_ONLY and self._cli_depth:
            self.counts["cli.lexicon_builds"] += 1
        elif name == "preprocess.segment":
            self.segment_inputs.add(tuple(args[1]))
        elif name == "scoring.index":
            self.indexed_texts.add(args[1].flat)

    # -- install ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "lexmrc" or n.startswith("lexmrc.")]
        for name, (module_name, attr, method) in TARGETS.items():
            owner = sys.modules[module_name]
            if method is not None:
                cls = getattr(owner, attr)
                original = cls.__dict__[method]
                self._originals.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._originals.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._originals):
            setattr(owner, key, original)
        self._originals.clear()

    # -- aggregation --------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += end - start - child_time[i]
            calls[name] += 1
        out: dict[str, float] = {}
        for metric, name in SELF_TIME.items():
            out[metric] = self_time.get(name, 0.0)
        for metric, name in CALLS.items():
            out[metric] = calls.get(name, 0)
        for metric in COUNTS:
            out[metric] = self.counts.get(metric, 0)
        segments = calls.get("preprocess.segment", 0)
        out["preprocess.segmentations_per_string"] = (
            segments / len(self.segment_inputs) if self.segment_inputs else 0.0
        )
        builds = calls.get("scoring.index", 0)
        out["scoring.index_builds_per_text"] = (
            builds / len(self.indexed_texts) if self.indexed_texts else 0.0
        )
        return out

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for i, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                         "parent": parent}) + "\n")


class _Span:
    """One span: around a wrapped function of the program, or around one
    of the benchmark's own operations, the root of the program's spans."""

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append(None)
        self.parent = t._stack[-1] if t._stack else -1
        t._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t._stack.pop()
        t.spans[self.index] = (self.name, self.start, end, self.parent)
        return False
