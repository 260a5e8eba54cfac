#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of lexmrc.

Run from the root of a checkout (it builds nothing; the program is the
checkout's ``src/``):

    python3 bench/run.py --workload test-web --seed 1 --seconds 32 --trace 0

Workloads: ``test-web``, ``corpus-lexical``, ``batch-answer`` (see
README.md). ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it records the environment; the same record, with every
raw sample, is written under ``.bench_work/results/``.
"""

from __future__ import annotations

import os

# one thread per process: no BLAS pool beside the interpreter
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

END_TO_END_UNITS = {
    "setup_s": "s",
    "questions_per_s": "1/s",
    "cli_s": "s",
    "stats_s": "s",
    "answer_mean_ms": "ms",
    "answer_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
FULL_STORE_ROWS = 100_000
TINY_STORE_ROWS = 8_000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["test-web", "corpus-lexical", "batch-answer"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="corpus size relative to the paper's shape (reference runs only)")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny corpora and an 8k-row store (smoke tests only)")
    parser.add_argument("--workers", type=int, default=1,
                        help="--workers passed to evaluate (reference runs only)")
    parser.add_argument("--list-failures", action="store_true",
                        help="print every failed question to standard error")
    return parser.parse_args(argv)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "lexmrc").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 \
        else values[0]


def end_to_end(w) -> tuple[dict[str, float], dict[str, float]]:
    """The end-to-end metrics at the reference host speed (see
    hostspeed.py), and as measured. `setup_s` is the median of the run's
    set-ups. The other times are means: every sample's time over the
    number of samples (for `questions_per_s`, every question scored over
    the time it took), so each moves in proportion to the share of the run
    spent at each of the host's speeds, where a median would jump from one
    to the other."""
    s = w.samples
    raw = {
        "setup_s": statistics.median(s["setup_s"]),
        "questions_per_s": sum(n for n, _ in s["questions_per_s"])
        / sum(t for _, t in s["questions_per_s"]),
        "cli_s": statistics.fmean(s["cli_s"]),
        "stats_s": statistics.fmean(s["stats_s"]),
        "answer_mean_ms": statistics.fmean(s["answer_ms"]),
        "answer_p90_ms": percentile(s["answer_ms"], 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    factor = w.host.factor()
    scaled = {m: v * factor if m == "questions_per_s" else v if m == "peak_rss_mb"
              else v / factor for m, v in raw.items()}
    return scaled, raw


def traced(w, seconds: float) -> tuple[dict[str, float], dict]:
    """Pairs of one untraced and one traced pass (`Workload.one_pass`, no
    CLI subprocess): one pair, and another while the time spent in
    operations plus the last pair's stays within `seconds`. The pass
    that comes first alternates from pair to pair (untraced, traced,
    traced, untraced, ...), so a steady drift of the host's speed favours
    neither kind. Per-layer metrics are medians over the traced passes;
    the overhead compares the median operation time of the two kinds of
    pass."""
    from tracing import LAYER_METRICS, Tracer

    tracer = Tracer()
    plain, with_spans, per_pass = [], [], []

    def untraced_pass():
        busy = w.busy_s
        w.one_pass()
        plain.append(w.busy_s - busy)

    def traced_pass():
        tracer.reset()
        tracer.install()
        w.tracer = tracer
        try:
            busy = w.busy_s
            w.one_pass()
            with_spans.append(w.busy_s - busy)
        finally:
            w.tracer = None
            tracer.uninstall()
        per_pass.append(tracer.layer_metrics())

    while True:
        order = (untraced_pass, traced_pass) if len(plain) % 2 == 0 else (traced_pass, untraced_pass)
        for one_pass in order:
            one_pass()
        if w.busy_s + plain[-1] + with_spans[-1] > seconds:
            break
    w.finish()
    metrics = {m: statistics.median(p[m] for p in per_pass) for m in LAYER_METRICS}
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(with_spans) / statistics.median(plain) - 1.0)
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(results / f"{w.name}-spans.jsonl")
    return metrics, {"untraced_pass_s": plain, "traced_pass_s": with_spans, "passes": per_pass}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_per_string", "_per_text")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lexmrc" / "__init__.py").is_file():
        print(f"error: {SRC / 'lexmrc'} not found; run from the root of a lexmrc checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lexmrc
    import numpy

    if Path(lexmrc.__file__).resolve().parent != (SRC / "lexmrc").resolve():
        print(f"error: imported lexmrc from {lexmrc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from lexmrc import kernels
    from workloads import WORKLOADS

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    scale = 0.04 if args.tiny else args.scale
    rows = TINY_STORE_ROWS if args.tiny else FULL_STORE_ROWS
    w = WORKLOADS[args.workload](work, args.seed, scale, rows, args.workers, env)
    started = time.perf_counter()
    try:
        w.prepare()
        prepared = time.perf_counter()
        if args.trace:
            metrics, detail = traced(w, args.seconds)
            units = {m: layer_unit(m) for m in metrics}
        else:
            w.run(args.seconds)
            metrics, raw = end_to_end(w)
            units = END_TO_END_UNITS
            detail = {"host_factor": w.host.factor(), "host_slices_s": w.host.slices,
                      "as_measured": raw, "samples": w.samples}
        finished = time.perf_counter()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    c = w.checks
    for problem in c.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.list_failures:
        for (split, method), items in sorted(c.failures.items()):
            for qid, kind in items:
                print(f"failed {method} {split} {qid} {kind}", file=sys.stderr)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": scale, "store_rows": rows, "workers": args.workers,
        "git_sha": git_sha(), "src_sha256": source_digest(), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "kernel_backend": kernels.BACKEND, "host_factor": w.host.factor(),
        "prepare_s": prepared - started, "measure_s": finished - prepared,
        "failed_questions": {f"{m}/{s}": len(v) for (s, m), v in sorted(c.failures.items())},
    }
    result = {
        "correct": not c.problems,
        "attempted": c.attempted,
        "failed": c.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result, "detail": detail}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
