"""The three workloads and the checks of their outputs.

Operations, each timed on its own:

* ``setup``    -- from nothing loaded to ready to score;
* ``stats``    -- dataset statistics plus their JSON render;
* ``evaluate`` -- a whole split scored plus its JSON render;
* ``answers``  -- a group of single ``answer`` commands through
  ``cli.run``, as ``lexmrc batch`` runs them;
* ``cli``      -- one ``lexmrc`` subprocess.

An untraced run (`Workload.run`) interleaves the operation kinds by time
share: the next operation is of the kind furthest behind its share of
the time spent so far, so every metric's samples are spread over the
whole run and take the same share of every run. Where scored questions
can fail (corpus-lexical), they come in a fixed number of whole *cycles*
per run, whose steps fall due at even intervals over the run, so the
failed share of the attempted operations is the same in every run. A
traced run (`Workload.one_pass`) makes fixed passes instead, so that its
per-layer counts repeat exactly.

The program is always reached through module attributes (``corpus.
load_dataset``, never a name imported from it), so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import shlex
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

import inputs
import oracle
from hostspeed import HostSpeed
from lexmrc import cli, corpus, evaluation, preprocess, scoring

BENCH_DIR = Path(__file__).resolve().parent
LABELS = "ABCD"


class Checks:
    """Operation counts and every problem found in the program's outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.failures: dict[tuple[str, str], list[tuple[str, str]]] = {}

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


class Timer:
    elapsed = 0.0


def in_child(fn):
    """Run `fn()` in a forked child and return its (pickled) result, so
    that the memory it takes never counts in this process's high-water
    mark. The child has ended when this returns."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            with os.fdopen(write, "wb") as out:
                pickle.dump(fn(), out)
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read, "rb") as src:
        data = src.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"child process failed with status {status}")
    return pickle.loads(data)


class Workload:
    name = ""
    # operation kind -> share of an untraced run's operation time, counted
    # steps apart
    SHARES: dict[str, float] = {}
    # the operation kinds of one traced pass, in order (no subprocess)
    PASS: tuple[str, ...] = ()
    # the counted steps that can fail, made by `score` operations in this
    # order, and how many whole cycles of them an untraced run makes
    CYCLE: tuple = ()
    CYCLES = 0
    GROUP = 6  # answer commands per `answers` operation

    def __init__(self, work: Path, seed: int, scale: float, store_rows: int, workers: int,
                 env: dict):
        self.work = work
        self.seed = seed
        self.scale = scale
        self.store_rows = store_rows
        self.workers = workers
        self.env = env
        self.checks = Checks()
        # questions_per_s holds (questions, seconds) pairs; the rest, seconds
        # or milliseconds per operation
        self.samples: dict[str, list] = {
            "setup_s": [], "stats_s": [], "questions_per_s": [], "cli_s": [], "answer_ms": []
        }
        self.tracer = None
        self.host = HostSpeed()
        self.busy_s = 0.0  # time inside timed operations, checks excluded
        self.rendered: dict[tuple[str, str], str] = {}
        # (split, method) -> question id -> what `answer` must print, for
        # the questions the workload asks one by one
        self.expected: dict[tuple[str, str], dict[str, dict]] = {}
        self.answer_bytes: dict[str, bytes] = {}
        self.pending: list[tuple[str, str, str, bytes]] = []  # answers not yet checked
        self.cli_outputs: set[str] = set()  # checked against the in-process render at the end
        self.judged: dict[tuple[str, str], dict[str, str | None]] = {}
        self.stats_text: str | None = None
        self.group = 0  # the next group of asked questions
        self.step = 0  # the counted steps made

    # -- preparation ----------------------------------------------------------

    def prepare(self) -> None:
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "inputs.py"), self.name, str(self.seed),
             str(self.scale), str(self.store_rows), str(self.work)],
            check=True, env=self.env, timeout=170,
        )
        self.skeleton = inputs.skeleton_for(self.name, self.scale)
        self.questions = {q.id: q for q in self.skeleton.questions}
        self.grades = {t.id: t.grade for t in self.skeleton.texts}
        self.verdicts = json.loads((self.work / inputs.VERDICT_FILE).read_text(encoding="utf-8"))
        self.dataset_path = str(self.work / inputs.DATASET_FILE)
        self.vector_path = str(self.work / inputs.VECTOR_FILE)
        self.stopword_path = str(self.work / inputs.STOPWORD_FILE)
        self.lexicon_path = str(self.work / inputs.LEXICON_FILE)

    def answer_ids(self, split: str, count: int) -> list[str]:
        """`count` questions of `split` spread evenly over the skeleton."""
        ids = [q.id for q in self.skeleton.questions if q.split == split]
        count = min(count, len(ids))
        return [ids[i * len(ids) // count] for i in range(count)]

    # -- scheduling -----------------------------------------------------------

    def run(self, seconds: float) -> None:
        """Operations until `seconds` of operation time are spent, every
        kind has run and every counted step is made. The first is a
        set-up. The `CYCLES` x `len(CYCLE)` counted steps fall due at even
        intervals of operation time over `seconds`, and each is made as
        soon as it is due; otherwise the next operation is of the kind
        furthest behind its share of the time spent so far on all kinds
        but the counted steps."""
        spent = dict.fromkeys(self.SHARES, 0.0)
        steps = self.CYCLES * len(self.CYCLE)
        kind = "setup"
        while True:
            busy = self.busy_s
            self.operation(kind)
            if kind in spent:
                spent[kind] += self.busy_s - busy
            self.check_pending()
            if self.step < steps and self.busy_s >= seconds * self.step / steps:
                kind = "score"
            elif self.busy_s < seconds or not all(spent.values()):
                total = sum(spent.values())
                kind = max(self.SHARES, key=lambda k: self.SHARES[k] * total - spent[k])
            else:
                break
        self.finish()

    def one_pass(self) -> None:
        """One traced-run pass: the kinds of `PASS` in order, from the
        first group of asked questions and the first step of `CYCLE`, so
        every pass repeats the same calls."""
        self.group = 0
        self.step = 0
        for kind in self.PASS:
            self.operation(kind)
        self.check_pending()

    def operation(self, kind: str) -> None:
        getattr(self, f"{kind}_op")()

    def finish(self) -> None:
        """Checks that need the whole run: every answer has been compared
        with evaluate, and every CLI output with the in-process render."""
        self.check_pending()
        self.checks.expect(not self.pending, "answers left without an evaluate to check them")
        for text in self.cli_outputs:
            self.checks.expect(text == self.cli_reference(),
                               f"{self.name}: the CLI subprocess's output differs from the "
                               "in-process render")

    def next_group(self, ids: list[str]) -> list[str]:
        """The next `GROUP` of `ids`, taking turns."""
        count = max(1, len(ids) // self.GROUP)
        chosen = ids[self.group % count::count]
        self.group += 1
        return chosen

    # -- timing helpers -------------------------------------------------------

    @contextmanager
    def measure(self, name: str):
        """Time one operation (a root span when tracing), then sample the
        host's speed for as long as the operation took."""
        timer = Timer()
        with self.tracer.span(name) if self.tracer is not None else nullcontext():
            start = time.perf_counter()
            yield timer
            timer.elapsed = time.perf_counter() - start
        self.busy_s += timer.elapsed
        self.host.follow(timer.elapsed)

    def run_cli(self, argv: list[str], out: Path | None = None) -> None:
        """Time one ``lexmrc`` subprocess, a `cli_s` sample; its `--out`
        file, if any, is checked at the end of the run."""
        cmd = [sys.executable, "-m", "lexmrc.cli"] + argv
        with self.measure("bench.cli") as t:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, timeout=170)
        self.samples["cli_s"].append(t.elapsed)
        self.checks.expect(proc.returncode == 0,
                           f"{' '.join(argv[:1])} subprocess exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-300:]}")
        if out is None:
            return
        self.checks.expect(out.exists(), f"{argv[0]} subprocess wrote no {out.name}")
        if out.exists():
            self.cli_outputs.add(out.read_text(encoding="utf-8"))
            out.unlink()

    # -- checks ---------------------------------------------------------------

    def judge(self, method: str, question_id: str, predicted: int) -> str | None:
        """The oracle's verdict on a prediction (None when acceptable)."""
        return self.verdicts[method][question_id][predicted]

    def check_report(self, split: str, method: str, report, rendered: str) -> int:
        """Check one evaluate report; returns its number of failed questions."""
        key = (split, method)
        if key in self.rendered:
            self.checks.expect(rendered == self.rendered[key],
                               f"evaluate {split}/{method}: render differs between repetitions")
            return len(self.checks.failures.get(key, ()))
        self.rendered[key] = rendered
        c = self.checks
        records = report.records
        wanted = [q.id for q in self.skeleton.questions if q.split == split]
        c.expect(sorted(r.question_id for r in records) == sorted(wanted),
                 f"evaluate {split}/{method}: wrong question set")
        correct = sum(r.correct for r in records)
        c.expect(report.accuracy == correct / len(records),
                 f"evaluate {split}/{method}: accuracy is not correct / total")
        verdicts = {}
        asked = set(self.asked)
        self.expected[key] = {
            r.question_id: {"predicted": LABELS[r.predicted], "sw": list(r.breakdown.sw),
                            "dist": list(r.breakdown.dist), "web": list(r.breakdown.web),
                            "final": list(r.breakdown.final)}
            for r in records if r.question_id in asked
        }
        for r in records:
            q = self.questions[r.question_id]
            c.expect(r.correct == (r.predicted == q.gold) and r.gold == q.gold,
                     f"{q.id}: correct flag or gold disagrees with the dataset")
            c.expect(r.question_length == len(q.stem), f"{q.id}: question_length "
                     f"{r.question_length}, planted {len(q.stem)}")
            c.expect(r.grade == self.grades[q.text_id] and r.reasoning_type == q.reasoning_type,
                     f"{q.id}: grade or reasoning type disagrees with the dataset")
            verdicts[q.id] = kind = self.judge(method, q.id, r.predicted)
            if kind is not None:
                c.failures.setdefault(key, []).append((q.id, kind))
                c.expect(kind == oracle.TIE_ROUNDING,
                         f"{q.id} ({method}): predicted {LABELS[r.predicted]}, oracle disagrees "
                         f"by more than {oracle.TOLERANCE}")
        self.judged[key] = verdicts
        for facet in evaluation.FACETS:
            table = evaluation.facet_breakdown(report, facet)
            total = sum(row.total for row in table.rows)
            c.expect(total + table.skipped == len(records), f"{facet}: totals do not add up")
            annotated = [r for r in records if facet != "reasoning_type" or r.reasoning_type]
            c.expect(sum(row.correct for row in table.rows) == sum(r.correct for r in annotated),
                     f"{facet}: correct counts do not add up")
            if facet == "grade":
                for row in table.rows:
                    planted = sum(1 for r in records if str(self.grades[
                        self.questions[r.question_id].text_id]) == row.label)
                    c.expect(row.total == planted, f"grade {row.label}: {row.total} questions, "
                             f"planted {planted}")
        return len(c.failures.get(key, ()))

    def check_stats(self, rendered: str) -> None:
        if self.stats_text is not None:
            self.checks.expect(rendered == self.stats_text, "stats render differs between repetitions")
            return
        self.stats_text = rendered
        expected = oracle.expected_stats(self.skeleton)
        got = json.loads(rendered)
        self.checks.expect(got == expected, f"stats differ from the planted counts: "
                           f"{json.dumps(got)[:300]} vs {json.dumps(expected)[:300]}")

    def check_pending(self) -> None:
        """Checks the answers whose evaluate report has been seen."""
        waiting = []
        for answer in self.pending:
            if answer[:2] in self.judged:
                self.check_answer(*answer)
            else:
                waiting.append(answer)
        self.pending = waiting

    def check_answer(self, split: str, method: str, question_id: str, data: bytes) -> None:
        """An answer agrees with evaluate on the same question; counts the
        answer as an operation and its oracle verdict. A failed answer is
        listed once, like a failed evaluate question."""
        c = self.checks
        c.attempted += 1
        verdict = self.judged[(split, method)][question_id]
        if question_id in self.answer_bytes:
            c.expect(data == self.answer_bytes[question_id],
                     f"answer {question_id}: output differs between commands")
        else:
            self.answer_bytes[question_id] = data
            payload = json.loads(data)
            expected = self.expected[(split, method)][question_id]
            c.expect({k: payload[k] for k in expected} == expected,
                     f"answer {question_id} disagrees with evaluate")
            if verdict is not None:
                c.failures.setdefault((split, f"{method}-answer"), []).append((question_id, verdict))
        if verdict is not None:
            c.failed += 1

    # -- operations shared by the workloads -----------------------------------

    def stats_op(self) -> None:
        dataset, pre = self.runtime[-2:]
        with self.measure("bench.stats") as t:
            rendered = cli.render_stats(corpus.compute_stats(dataset, pre.segmenter), "json")
        self.samples["stats_s"].append(t.elapsed)
        self.check_stats(rendered)

    def evaluate(self, split: str, method: str, store=None) -> None:
        dataset, pre = self.runtime[-2:]
        cfg = scoring.MethodConfig(method=method, preprocess=pre)
        with self.measure("bench.evaluate") as t:
            report = evaluation.evaluate(dataset, split, cfg, store, workers=self.workers)
            rendered = evaluation.render_report(report, "json")
        self.samples["questions_per_s"].append((len(report.records), t.elapsed))
        self.checks.attempted += len(report.records)
        self.checks.failed += self.check_report(split, method, report, rendered)

    def answer_group(self, cache, method: str, ids: list[str], extra: list[str],
                     throughput: bool = False) -> None:
        """Answer commands on test-split questions; with `throughput`, the
        group is also a questions_per_s sample."""
        elapsed = sum(self.answer(cache, "test", method, qid, extra) for qid in ids)
        if throughput:
            self.samples["questions_per_s"].append((len(ids), elapsed))

    def answer(self, cache, split: str, method: str, question_id: str, extra: list[str],
               sample: str = "answer_ms") -> float:
        """One answer command; its time is a sample of `sample`, and is
        returned."""
        out = self.work / "answer.json"
        argv = ["answer", "--dataset", self.dataset_path, "--question-id", question_id,
                "--method", method, "--format", "json", "--out", str(out)] + extra
        with self.measure("bench.setup" if sample == "setup_s" else "bench.answer") as t:
            code = cli.run(argv, cache)
        self.checks.expect(code == 0, f"answer {question_id} exited {code}")
        if sample == "answer_ms":
            self.samples["answer_ms"].append(t.elapsed * 1000.0)
        else:
            self.samples[sample].append(t.elapsed)
        self.pending.append((split, method, question_id, out.read_bytes()))
        return t.elapsed


class WebWorkload(Workload):
    """514 questions over 83 texts, sw_d_web against a 100k x 100 store."""

    name = "test-web"
    SHARES = {"setup": 0.15, "cli": 0.28, "stats": 0.17, "evaluate": 0.24, "answers": 0.16}
    PASS = ("setup", "answers", "stats", "answers", "evaluate", "answers")
    ANSWERS = 42

    def prepare(self) -> None:
        super().prepare()
        self.runtime = None
        self.asked = self.answer_ids("test", self.ANSWERS)
        self.extra = ["--embeddings", self.vector_path]

    def setup_op(self) -> None:
        """Loads the store through a fresh batch cache, which the answer
        commands then share, so one store is resident at a time."""
        self.runtime = None
        gc.collect()
        with self.measure("bench.setup") as t:
            cache = cli._EmbeddingCache()
            store = cache.load(self.vector_path)
            dataset = corpus.load_dataset(self.dataset_path)
            segmenter = preprocess.DictionarySegmenter(store.multi_syllable_words())
            pre = preprocess.PreprocessConfig(segmenter=segmenter)
        self.samples["setup_s"].append(t.elapsed)
        self.runtime = (cache, store, dataset, pre)

    def evaluate_op(self) -> None:
        self.evaluate("test", "sw_d_web", self.runtime[1])

    def answers_op(self) -> None:
        self.answer_group(self.runtime[0], "sw_d_web", self.next_group(self.asked), self.extra)

    def cli_op(self) -> None:
        out = self.work / "cli-report.json"
        self.run_cli(["evaluate", "--dataset", self.dataset_path, "--split", "test",
                      "--method", "sw_d_web", "--embeddings", self.vector_path,
                      "--format", "json", "--workers", str(self.workers), "--out", str(out)],
                     out)

    def cli_reference(self) -> str:
        return self.rendered[("test", "sw_d_web")]


class LexicalWorkload(Workload):
    """417 texts, 2,783 questions, lexicon and stopword files, no vectors."""

    name = "corpus-lexical"
    SHARES = {"setup": 0.08, "stats": 0.48, "cli": 0.44}
    ANSWERS = 36
    FACET = "reasoning_type"
    # the counted operations: sw and sw_d on every split, the train split
    # first, each evaluate followed by a group of `sw_d` answers
    CYCLE = tuple(step for split, method in (("train", "sw"), ("train", "sw_d"), ("dev", "sw"),
                                             ("test", "sw"), ("dev", "sw_d"), ("test", "sw_d"))
                  for step in ((split, method), None))
    CYCLES = 2
    PASS = ("setup", "stats") + ("score",) * len(CYCLE)

    def prepare(self) -> None:
        super().prepare()
        self.runtime = None
        self.asked = self.answer_ids("test", self.ANSWERS)
        self.extra = ["--stopwords", self.stopword_path, "--lexicon", self.lexicon_path]
        self.train_reports: dict[str, object] = {}
        self.compare_text = None

    def setup_op(self) -> None:
        self.runtime = None
        gc.collect()
        with self.measure("bench.setup") as t:
            dataset = corpus.load_dataset(self.dataset_path)
            stopwords = preprocess.load_stopwords(self.stopword_path)
            segmenter = preprocess.DictionarySegmenter(preprocess.load_lexicon(self.lexicon_path))
            pre = preprocess.PreprocessConfig(stopwords=stopwords, segmenter=segmenter)
        self.samples["setup_s"].append(t.elapsed)
        self.runtime = (dataset, pre)

    def score_op(self) -> None:
        """The next step of CYCLE."""
        step = self.CYCLE[self.step % len(self.CYCLE)]
        if step is None:
            self.answer_group(None, "sw_d", self.next_group(self.asked), self.extra)
        else:
            self.evaluate(*step)
        self.step += 1

    def check_report(self, split: str, method: str, report, rendered: str) -> int:
        """Also renders, once, the compare table the CLI must print."""
        if split == "train" and self.compare_text is None:
            self.train_reports[method] = report
            if len(self.train_reports) == 2:
                table = evaluation.compare_reports(self.train_reports["sw"],
                                                   self.train_reports["sw_d"], self.FACET)
                self.compare_text = evaluation.render_report(table, "json")
                self.train_reports.clear()
        return super().check_report(split, method, report, rendered)

    def cli_op(self) -> None:
        out = self.work / "cli-compare.json"
        self.run_cli(["compare", "--dataset", self.dataset_path, "--split", "train",
                      "--baseline", "sw", "--candidate", "sw_d", "--facet", self.FACET,
                      "--stopwords", self.stopword_path, "--lexicon", self.lexicon_path,
                      "--format", "json", "--workers", str(self.workers), "--out", str(out)],
                     out)

    def cli_reference(self) -> str | None:
        return self.compare_text


class BatchWorkload(Workload):
    """Many answer commands (sw_d_web, JSON, --out) over the corpus-lexical
    dataset and the test-web vectors, one cli.run each, sharing a cache."""

    name = "batch-answer"
    SHARES = {"setup": 0.15, "answers": 0.45, "stats": 0.2, "cli": 0.2}
    PASS = ("setup", "answers", "answers", "stats", "answers", "answers")
    ANSWERS = 48
    CLI_COMMANDS = 5

    def prepare(self) -> None:
        super().prepare()
        self.cache = None
        self.asked = self.answer_ids("test", self.ANSWERS + 1)
        self.extra = ["--embeddings", self.vector_path, "--stopwords", self.stopword_path]
        self.merge(in_child(self.reference))

    def reference(self) -> dict:
        """In-process evaluate of the test split, for the answer-versus-
        evaluate check; run once, untimed, in a child process, which sends
        back only the outcome of its checks."""
        store = cli._EmbeddingCache().load(self.vector_path)
        dataset = corpus.load_dataset(self.dataset_path)
        pre = preprocess.PreprocessConfig(
            stopwords=preprocess.load_stopwords(self.stopword_path),
            segmenter=preprocess.DictionarySegmenter(store.multi_syllable_words()))
        cfg = scoring.MethodConfig(method="sw_d_web", preprocess=pre)
        report = evaluation.evaluate(dataset, "test", cfg, store)
        self.check_report("test", "sw_d_web", report, evaluation.render_report(report, "json"))
        return {"problems": self.checks.problems, "failures": self.checks.failures,
                "judged": self.judged, "expected": self.expected, "rendered": self.rendered}

    def merge(self, outcome: dict) -> None:
        self.checks.problems.extend(outcome["problems"])
        self.checks.failures.update(outcome["failures"])
        self.judged.update(outcome["judged"])
        self.expected.update(outcome["expected"])
        self.rendered.update(outcome["rendered"])

    def setup_op(self) -> None:
        """The first command on a fresh cache."""
        self.cache = None
        gc.collect()
        self.cache = cli._EmbeddingCache()
        self.answer(self.cache, "test", "sw_d_web", self.asked[0], self.extra, "setup_s")

    def answers_op(self) -> None:
        self.answer_group(self.cache, "sw_d_web", self.next_group(self.asked[1:]), self.extra,
                          throughput=True)

    def stats_op(self) -> None:
        out = self.work / "stats.json"
        with self.measure("bench.stats") as t:
            code = cli.run(["stats", "--dataset", self.dataset_path, "--format", "json",
                            "--out", str(out)] + self.extra, self.cache)
        self.samples["stats_s"].append(t.elapsed)
        self.checks.expect(code == 0, f"stats exited {code}")
        self.check_stats(out.read_text(encoding="utf-8"))

    def cli_op(self) -> None:
        """`lexmrc batch` with a few answer commands; each answer it writes
        is checked like those of `cli.run`."""
        lines, outs = [], []
        for i, qid in enumerate(self.asked[1:self.CLI_COMMANDS + 1]):
            out = self.work / f"batch-{i}.json"
            outs.append((qid, out))
            argv = ["answer", "--dataset", self.dataset_path, "--question-id", qid,
                    "--method", "sw_d_web", "--format", "json", "--out", str(out)] + self.extra
            lines.append(shlex.join(argv))
        commands = self.work / "commands.txt"
        commands.write_text("# answer commands\n" + "\n".join(lines) + "\n", encoding="utf-8")
        self.run_cli(["batch", str(commands)])
        for qid, out in outs:
            self.checks.expect(out.exists(), f"lexmrc batch wrote no answer for {qid}")
            if out.exists():
                self.pending.append(("test", "sw_d_web", qid, out.read_bytes()))
                out.unlink()


WORKLOADS = {w.name: w for w in (WebWorkload, LexicalWorkload, BatchWorkload)}
