"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with -v or -s to see them individually).

The two replication tests need the published corpus and Vietnamese word
vectors, which are not distributed with this repository; point
LEXMRC_DATASET at the converted dataset JSON and LEXMRC_EMBEDDINGS at a
text-format vector file to enable them (see README).
"""

import math
import os
import random
import time

import numpy as np
import pytest

from lexmrc.corpus import Dataset, MCQuestion, ReadingText, compute_stats, load_dataset
from lexmrc.embedding import EmbeddingStore, SpanVector, average_embedding, cosine_similarity
from lexmrc.evaluation import evaluate, render_report
from lexmrc.preprocess import DictionarySegmenter, ProcessedText
from lexmrc.scoring import (
    MethodConfig,
    boosted_score,
    distance_score,
    predict,
    sliding_window_score,
)

from oracles import boost_oracle, distance_oracle, random_instance, window_score_oracle

DATASET_ENV = "LEXMRC_DATASET"
EMBEDDINGS_ENV = "LEXMRC_EMBEDDINGS"


def pt(*tokens):
    return ProcessedText.from_sentences([list(tokens)])


def done(name):
    print(f"ACCEPTANCE PASS: {name}")


class TestOracleEquivalence:
    def test_sliding_window_oracle_1000_instances(self):
        rng = random.Random(20240901)
        start = time.perf_counter()
        for _ in range(1000):
            tokens, question, option = random_instance(rng)
            text = pt(*tokens)
            got = sliding_window_score(text, question, option)
            want = window_score_oracle(tokens, question, option)
            assert abs(got - want) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        done("sliding-window matches brute force on 1000 instances "
             f"({elapsed:.2f}s)")

    def test_distance_oracle_1000_instances_both_aggregations(self):
        rng = random.Random(20240902)
        start = time.perf_counter()
        for _ in range(1000):
            tokens, question, option = random_instance(rng)
            text = pt(*tokens)
            for agg in ("min", "max"):
                cfg = MethodConfig(method="sw_d", distance_aggregation=agg)
                got = distance_score(text, question, option, cfg)
                want = distance_oracle(tokens, question, option, agg == "max")
                assert got == want
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        done(f"distance matches exhaustive pairs, min and max ({elapsed:.2f}s)")

    def test_boosted_oracle_500_instances(self):
        rng = random.Random(20240903)
        vectors = {
            f"w{i}": [rng.uniform(-1, 1), rng.uniform(-1, 1)] for i in range(8)
        }
        store = EmbeddingStore(2, vectors)
        vocab = list(vectors) + ["w8", "w9"]  # two words without vectors
        start = time.perf_counter()
        for _ in range(500):
            tokens = [rng.choice(vocab) for _ in range(rng.randint(0, 30))]
            option = [rng.choice(vocab) for _ in range(rng.randint(0, 4))]
            got = boosted_score(pt(*tokens), option, store)
            want = boost_oracle(tokens, option, vectors)
            assert abs(got - want) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        done(f"boosted score matches exhaustive spans ({elapsed:.2f}s)")


def balanced_random_dataset(n_questions):
    text = ReadingText(id="t", grade=3, body="một hai ba bốn năm sáu bảy tám.")
    questions = tuple(
        MCQuestion(
            id=f"q{i}", text_id="t", stem="câu hỏi số mấy?",
            options=("một", "hai", "ba", "bốn"), gold=i % 4, split="test",
        )
        for i in range(n_questions)
    )
    return Dataset(texts=(text,), questions=questions)


class TestRandomBaseline:
    def test_calibration_on_balanced_questions(self):
        dataset = balanced_random_dataset(10_000)
        cfg = MethodConfig(method="random", random_seed=20240904)
        report = evaluate(dataset, "test", cfg)
        assert 0.20 <= report.accuracy <= 0.30
        done(f"random baseline accuracy {report.accuracy:.4f} within [0.20, 0.30]")


class TestInvariantSuite:
    def test_invariants(self):
        rng = random.Random(20240905)

        # cosine: symmetry, bound, scale invariance at 1e-9
        for _ in range(200):
            u = SpanVector(np.array([rng.uniform(-5, 5) for _ in range(4)]), 1)
            v = SpanVector(np.array([rng.uniform(-5, 5) for _ in range(4)]), 1)
            sim = cosine_similarity(u, v)
            assert sim is not None
            assert cosine_similarity(v, u) == sim
            assert abs(sim) <= 1.0 + 1e-12
            c = rng.uniform(1e-3, 1e3)
            scaled = cosine_similarity(
                SpanVector(c * u.vector, 1), SpanVector(c * v.vector, 1)
            )
            assert abs(scaled - sim) <= 1e-9

        # span averaging is permutation invariant (bitwise)
        store = EmbeddingStore(3, {f"w{i}": [rng.uniform(-1, 1) for _ in range(3)]
                                   for i in range(6)})
        words = ["w0", "w3", "w1", "w0", "oov", "w5"]
        base = average_embedding(store, words)
        for _ in range(20):
            shuffled = words[:]
            rng.shuffle(shuffled)
            other = average_embedding(store, shuffled)
            assert other.support == base.support
            assert np.array_equal(other.vector, base.vector)

        # sw >= 0, d in range, web in [-1, 1]
        store2 = EmbeddingStore(2, {f"w{i}": [rng.uniform(-1, 1), rng.uniform(-1, 1)]
                                    for i in range(10)})
        for _ in range(300):
            tokens, question, option = random_instance(rng)
            text = pt(*tokens)
            sw = sliding_window_score(text, question, option)
            assert sw >= 0.0
            for agg in ("min", "max"):
                cfg = MethodConfig(method="sw_d", distance_aggregation=agg)
                d = distance_score(text, question, option, cfg)
                assert 0.0 < d <= 1.0
                if len(tokens) >= 2 and d != 1.0:
                    assert d >= 1.0 / (len(tokens) - 1)
            web = boosted_score(text, option, store2)
            assert -1.0 - 1e-12 <= web <= 1.0 + 1e-12

        # argmax tie-break is deterministic: identical options -> index 0
        cfg = MethodConfig(method="sw")
        bd = predict(pt("a", "b"), ["a"], [["b"], ["b"], ["b"], ["b"]], cfg)
        assert bd.predicted == 0

        # log-base change rescales sw, leaving the sw argmax unchanged
        # (division is monotone: ulp-level ties may collapse, never swap)
        for _ in range(100):
            tokens, question, _ = random_instance(rng)
            opts = [random_instance(rng)[2] for _ in range(4)]
            bd = predict(pt(*tokens), question, opts, cfg)
            rescaled = [s / math.log(2.0) for s in bd.sw]
            assert rescaled[bd.predicted] == max(rescaled)

        # repeated evaluation runs render byte-identically
        dataset = balanced_random_dataset(50)
        eval_cfg = MethodConfig(method="sw_d")
        first = render_report(evaluate(dataset, "test", eval_cfg), "json")
        second = render_report(evaluate(dataset, "test", eval_cfg), "json")
        assert first.encode() == second.encode()

        done("invariant suite (cosine, score ranges, tie-break, log base, "
             "byte-identical runs)")


class TestReasoningFixtures:
    def test_word_matching_fixture_answered_correctly(
        self, fixture_dataset, toy_store, toy_preprocess
    ):
        cfg = MethodConfig(method="sw_d_web", preprocess=toy_preprocess)
        report = evaluate(fixture_dataset, "dev", cfg, toy_store)
        wm = next(r for r in report.records if r.question_id == "q-wm")
        assert wm.gold == 1  # option B
        assert wm.predicted == 1
        done("word-matching fixture answered B by sw_d_web")

    def test_all_five_fixtures_produce_complete_breakdowns(
        self, fixture_dataset, toy_store, toy_preprocess
    ):
        assert len(fixture_dataset.questions) == 5
        assert {q.reasoning_type for q in fixture_dataset.questions} == {
            "WM", "PP", "SSR", "MSR", "AoI"
        }
        cfg = MethodConfig(method="sw_d_web", preprocess=toy_preprocess)
        report = evaluate(fixture_dataset, "dev", cfg, toy_store)
        for record in report.records:
            for values in (record.breakdown.sw, record.breakdown.dist,
                           record.breakdown.web, record.breakdown.final):
                assert len(values) == 4
                assert all(isinstance(v, float) for v in values)
            assert 0 <= record.breakdown.predicted <= 3
        done("all five reasoning fixtures load, validate, and score")


class TestThroughput:
    def test_514_questions_100k_vocabulary_under_60s(self):
        rng = np.random.default_rng(20240906)
        py_rng = random.Random(20240906)
        n_words = 100_000
        dim = 100
        words = [f"w{i}" for i in range(n_words)]
        store = EmbeddingStore.from_rows(
            dim, words, rng.standard_normal((n_words, dim))
        )

        texts = []
        for t in range(83):
            body_tokens = [f"w{py_rng.randrange(2000)}" for _ in range(250)]
            sentences = [
                " ".join(body_tokens[i : i + 10]) for i in range(0, 250, 10)
            ]
            texts.append(
                ReadingText(id=f"t{t}", grade=(t % 5) + 1, body=". ".join(sentences) + ".")
            )
        questions = []
        for i in range(514):
            text = texts[i % len(texts)]
            body_words = text.body.replace(".", " ").split()
            stem = " ".join(py_rng.choice(body_words) for _ in range(10)) + "?"
            options = tuple(
                " ".join(py_rng.choice(body_words) for _ in range(7)) for _ in range(4)
            )
            questions.append(
                MCQuestion(
                    id=f"q{i}", text_id=text.id, stem=stem, options=options,
                    gold=py_rng.randrange(4), split="test",
                )
            )
        dataset = Dataset(texts=tuple(texts), questions=tuple(questions))
        cfg = MethodConfig(method="sw_d_web")

        start = time.perf_counter()
        report = evaluate(dataset, "test", cfg, store)
        elapsed = time.perf_counter() - start
        assert len(report.records) == 514
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        done(f"514 questions with a 100k-word table in {elapsed:.1f}s")


needs_dataset = pytest.mark.skipif(
    DATASET_ENV not in os.environ,
    reason=f"set {DATASET_ENV} to the converted published dataset to enable",
)
needs_vectors = pytest.mark.skipif(
    DATASET_ENV not in os.environ or EMBEDDINGS_ENV not in os.environ,
    reason=f"set {DATASET_ENV} and {EMBEDDINGS_ENV} to enable",
)

# published corpus statistics: totals, split sizes, per-grade question counts
PUBLISHED_TEXTS = 417
PUBLISHED_QUESTIONS = 2_783
PUBLISHED_SPLITS = {"train": 1_975, "dev": 294, "test": 514}
PUBLISHED_GRADE_QUESTIONS = {1: 60, 2: 514, 3: 759, 4: 709, 5: 741}
PUBLISHED_SW_D_TEST_ACCURACY = 56.30  # percent


@needs_dataset
class TestPublishedStats:
    def test_counts_match_published_tables(self):
        from lexmrc.corpus import filter_dataset

        dataset = load_dataset(os.environ[DATASET_ENV])
        stats = compute_stats(dataset, DictionarySegmenter())
        assert stats.overall.texts == PUBLISHED_TEXTS
        assert stats.overall.questions == PUBLISHED_QUESTIONS
        assert {s: st.questions for s, st in stats.splits.items()} == PUBLISHED_SPLITS
        assert {g: gs.questions for g, gs in stats.grades.items()} == PUBLISHED_GRADE_QUESTIONS
        assert len(filter_dataset(dataset, split="test").questions) == PUBLISHED_SPLITS["test"]
        done("published corpus statistics reproduced exactly")


@needs_vectors
class TestPublishedAccuracy:
    def test_sw_d_within_three_points_and_web_improves_dev(self):
        from lexmrc.embedding import load_embeddings
        from lexmrc.preprocess import PreprocessConfig

        dataset = load_dataset(os.environ[DATASET_ENV])
        store = load_embeddings(os.environ[EMBEDDINGS_ENV])
        preprocess = PreprocessConfig(
            segmenter=DictionarySegmenter(store.multi_syllable_words())
        )
        sw_d = MethodConfig(method="sw_d", preprocess=preprocess)
        test_report = evaluate(dataset, "test", sw_d, workers=4)
        test_acc = 100.0 * test_report.accuracy
        assert abs(test_acc - PUBLISHED_SW_D_TEST_ACCURACY) <= 3.0

        web = MethodConfig(method="sw_d_web", preprocess=preprocess)
        dev_sw_d = evaluate(dataset, "dev", sw_d, workers=4)
        dev_web = evaluate(dataset, "dev", web, store, workers=4)
        assert dev_web.accuracy > dev_sw_d.accuracy
        done(f"published accuracy replicated (sw_d test {test_acc:.2f}%)")
