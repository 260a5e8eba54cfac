import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from lexmrc.preprocess import ProcessedText
from lexmrc.scoring import (
    MethodConfig,
    OptionScores,
    TextIndex,
    decide,
    score_options,
)

from conftest import d_of, sw_of, web_of
from oracles import boost_oracle, distance_oracle, random_instance, vector_store, window_score_oracle

LN2 = math.log(2.0)
# 32 / (sqrt(14) * sqrt(77)) evaluated at 40 decimal digits with mpmath
COS_123_456 = 0.9746318461970762710785724911261228634989


def pt(*tokens):
    return ProcessedText(tuple(tokens))


class TestSlidingWindow:
    def test_two_word_option(self):
        text = pt("a", "b", "c", "a")
        got = sw_of(TextIndex(text), {"b", "c"})
        assert got == pytest.approx(2 * LN2, abs=1e-12)

    def test_no_overlap(self):
        text = pt("a", "b")
        assert sw_of(TextIndex(text), {"x", "y"}) == 0.0

    def test_single_token(self):
        text = pt("x")
        got = sw_of(TextIndex(text), {"x"})
        assert got == pytest.approx(LN2, abs=1e-12)

    def test_empty_text_and_empty_words(self):
        # +0.0, not -0.0: `==` alone would pass either
        empty_text = sw_of(TextIndex(pt()), {"a", "b"})
        empty_words = sw_of(TextIndex(pt("a")), set())
        for got in (empty_text, empty_words):
            assert got == 0.0 and math.copysign(1.0, got) == 1.0

    def test_duplicates_collapse_in_window_set(self):
        # set semantics: repeating an option word must not change the score
        cfgs = (MethodConfig(method="sw"),)
        index = TextIndex(pt("a", "b", "c"))
        once = score_options(index, ["a"], [["b"]] * 4, cfgs).sw
        repeated = score_options(index, ["a", "a"], [["b", "b", "a"]] * 4, cfgs).sw
        assert repeated == once

    def test_zero_iff_no_overlap_or_empty(self):
        rng = random.Random(77)
        for _ in range(200):
            tokens, question, option = random_instance(rng)
            text = pt(*tokens)
            score = sw_of(TextIndex(text), set(question) | set(option))
            overlap = (set(question) | set(option)) & set(tokens)
            assert score >= 0.0
            assert (score == 0.0) == (not overlap)

    def test_appending_neutral_tokens_never_lowers_score(self):
        text = pt("a", "b", "c", "a")
        base = sw_of(TextIndex(text), {"a", "c"})
        grown = pt("a", "b", "c", "a", "zz", "zz")
        grown_score = sw_of(TextIndex(grown), {"a", "c"})
        assert grown_score >= base

    def test_matches_oracle(self):
        rng = random.Random(99)
        for _ in range(300):
            tokens, question, option = random_instance(rng)
            text = pt(*tokens)
            got = sw_of(TextIndex(text), set(question) | set(option))
            want = window_score_oracle(tokens, question, option)
            assert got == pytest.approx(want, abs=1e-12)


class TestDistance:
    def test_guard_when_question_absent(self):
        assert d_of(TextIndex(pt("x", "a")), {"q"}, {"a"}, "min") == 1.0

    def test_min_pair(self):
        got = d_of(TextIndex(pt("x", "q", "y", "y", "a")), {"q"}, {"a"}, "min")
        assert got == pytest.approx(3 / 4)

    def test_adjacent_pair(self):
        got = d_of(TextIndex(pt("x", "q", "a", "y", "y")), {"q"}, {"a"}, "min")
        assert got == pytest.approx(1 / 4)

    def test_max_aggregation(self):
        text = pt("q", "a", "x", "a")
        assert d_of(TextIndex(text), {"q"}, {"a"}, "min") == pytest.approx(1 / 3)
        assert d_of(TextIndex(text), {"q"}, {"a"}, "max") == pytest.approx(3 / 3)

    def test_single_token_text(self):
        for agg in ("min", "max"):
            got = d_of(TextIndex(pt("q")), {"q"}, {"q"}, agg)
            assert struct.pack("<d", got) == struct.pack("<d", 1.0)

    def test_shared_word_same_position_excluded(self):
        # "q" serves both sides; its self-pair must not produce distance 0
        got = d_of(TextIndex(pt("q", "x")), {"q"}, {"q"}, "min")
        assert got == 1.0
        got = d_of(TextIndex(pt("q", "x", "q")), {"q"}, {"q"}, "min")
        assert got == pytest.approx(2 / 2)

    def test_range_invariant(self):
        rng = random.Random(31)
        for _ in range(300):
            tokens, question, option = random_instance(rng)
            for agg in ("min", "max"):
                d = d_of(TextIndex(pt(*tokens)), set(question), set(option), agg)
                assert 0.0 < d <= 1.0
                if len(tokens) >= 2:
                    assert d == 1.0 or d >= 1 / (len(tokens) - 1)

    @pytest.mark.parametrize("agg", ["min", "max"])
    def test_matches_oracle(self, agg):
        rng = random.Random(42 if agg == "min" else 43)
        for _ in range(300):
            tokens, question, option = random_instance(rng)
            got = d_of(TextIndex(pt(*tokens)), set(question), set(option), agg)
            want = distance_oracle(tokens, question, option, agg == "max")
            assert got == want


def toy_vectors():
    return {
        "a": [1.0, 0.0],
        "b": [0.0, 1.0],
        "c": [1.0, 1.0],
        "d": [-1.0, 0.5],
        "e": [0.25, -0.75],
    }


def toy_store():
    return vector_store(toy_vectors())


class TestBoost:
    def test_self_similarity(self):
        store = toy_store()
        assert web_of(TextIndex(pt("c", "a", "d"), store), ["a"]) == pytest.approx(1.0)

    def test_against_high_precision_value(self):
        store = vector_store({"u": [1.0, 2.0, 3.0], "v": [4.0, 5.0, 6.0]})
        assert web_of(TextIndex(pt("v"), store), ["u"]) == pytest.approx(COS_123_456, abs=1e-12)

    def test_all_oov_option(self):
        assert web_of(TextIndex(pt("a", "b"), toy_store()), ["zz"]) == 0.0

    def test_huge_finite_rows_give_a_finite_boost(self):
        """Components near 1e150 square to near 1e300: the squared norms
        of the rows, and so of every window mean, stay finite. A store
        refuses rows near 1e155 and above (`tests/test_embedding.py`)."""
        store = vector_store({"a": [1e150, 2e150], "b": [3e150, -1e150]})
        index = TextIndex(pt("a", "b", "c"), store)
        assert web_of(index, ["a"]) == pytest.approx(1.0)
        assert web_of(index, ["b", "c"]) == pytest.approx(1.0)

    def test_empty_option_or_text(self):
        store = toy_store()
        assert web_of(TextIndex(pt("a", "b"), store), []) == 0.0
        assert web_of(TextIndex(pt(), store), ["a"]) == 0.0

    def test_option_longer_than_text_uses_whole_text(self):
        store = toy_store()
        got = web_of(TextIndex(pt("a", "b"), store), ["a", "b", "c", "d"])
        want = boost_oracle(["a", "b"], ["a", "b", "c", "d"], toy_vectors())
        assert got == pytest.approx(want, abs=1e-12)

    def test_range(self):
        rng = random.Random(7)
        store = toy_store()
        vocab = list(toy_vectors()) + ["oov"]
        for _ in range(200):
            tokens = [rng.choice(vocab) for _ in range(rng.randrange(0, 12))]
            option = [rng.choice(vocab) for _ in range(rng.randrange(0, 4))]
            web = web_of(TextIndex(pt(*tokens), store), option)
            assert -1.0 - 1e-12 <= web <= 1.0 + 1e-12

    def test_matches_oracle(self):
        rng = random.Random(8)
        store = toy_store()
        vocab = list(toy_vectors()) + ["oov1", "oov2"]
        for _ in range(300):
            tokens = [rng.choice(vocab) for _ in range(rng.randrange(0, 10))]
            option = [rng.choice(vocab) for _ in range(rng.randrange(0, 4))]
            got = web_of(TextIndex(pt(*tokens), store), option)
            want = boost_oracle(tokens, option, toy_vectors())
            assert got == pytest.approx(want, abs=1e-12)

    def test_embedding_scale_leaves_boost_unchanged(self):
        scaled = vector_store({w: [7.5 * x for x in v] for w, v in toy_vectors().items()})
        rng = random.Random(9)
        vocab = list(toy_vectors())
        for _ in range(100):
            tokens = [rng.choice(vocab) for _ in range(rng.randrange(1, 10))]
            option = [rng.choice(vocab) for _ in range(rng.randrange(1, 4))]
            a = web_of(TextIndex(pt(*tokens), toy_store()), option)
            b = web_of(TextIndex(pt(*tokens), scaled), option)
            assert b == pytest.approx(a, abs=1e-9)


class TestMethodConfig:
    @pytest.mark.parametrize("kwargs, message", [
        ({"method": "sw_web"}, "unknown method 'sw_web'"),
        ({"distance_aggregation": "mean"}, "unknown distance aggregation 'mean'"),
        ({"method": "random"}, "method 'random' requires random_seed"),
    ], ids=["method", "aggregation", "random-seed"])
    def test_rejected(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            MethodConfig(**kwargs)
        assert str(info.value) == message


class TestPredict:
    def options(self, *opts):
        return [list(o) for o in opts]

    def test_forced_tie_breaks_to_lowest_index(self):
        cfg = MethodConfig(method="sw")
        opts = self.options(["b"], ["b"], ["b"], ["b"])
        bd = decide(score_options(TextIndex(pt("a", "b", "c")), ["a"], opts, (cfg,)), cfg, None)
        assert bd.predicted == 0

    def test_component_arrays_zeroed_per_method(self):
        index = TextIndex(pt("a", "b", "c"))
        opts = self.options(["a"], ["b"], ["c"], ["zz"])
        cfg = MethodConfig(method="sw")
        sw_only = decide(score_options(index, ["a"], opts, (cfg,)), cfg, None)
        assert sw_only.dist == (0.0,) * 4 and sw_only.web == (0.0,) * 4
        assert sw_only.final == sw_only.sw
        cfg = MethodConfig(method="sw_d")
        sw_d = decide(score_options(index, ["a"], opts, (cfg,)), cfg, None)
        assert sw_d.web == (0.0,) * 4
        assert sw_d.final == tuple(s - d for s, d in zip(sw_d.sw, sw_d.dist))

    def test_combined_method_formula(self):
        index = TextIndex(pt("a", "b", "c", "d", "e"), toy_store())
        opts = self.options(["a", "b"], ["c"], ["d", "e"], ["zz"])
        cfg = MethodConfig(method="sw_d_web")
        bd = decide(score_options(index, ["b", "c"], opts, (cfg,)), cfg, None)
        assert bd.final == tuple(s - d + w for s, d, w in zip(bd.sw, bd.dist, bd.web))
        assert bd.predicted == bd.final.index(max(bd.final))

    @given(
        st.lists(st.floats(min_value=0.0, allow_infinity=False), min_size=4, max_size=4),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
    )
    @settings(max_examples=200)
    def test_final_is_bitwise_each_methods_formula(self, sw, dist, web):
        """One expression, `sw - d + web` with unused components zero,
        gives each method's own formula bit for bit."""
        scores = OptionScores(sw=tuple(sw), dist=tuple(dist), web=tuple(web))
        want = {
            "sw": sw,
            "sw_d": [s - d for s, d in zip(sw, dist)],
            "sw_d_web": [s - d + w for s, d, w in zip(sw, dist, web)],
        }
        for method, final in want.items():
            bd = decide(scores, MethodConfig(method=method), None)
            assert struct.pack("<4d", *bd.final) == struct.pack("<4d", *final)
            assert bd.predicted == min(i for i in range(4) if final[i] == max(final))

    def test_wrong_option_count_rejected(self):
        with pytest.raises(ValueError):
            score_options(TextIndex(pt("a")), ["a"], self.options(["a"], ["b"]),
                          (MethodConfig(method="sw"),))

    def test_random_is_repeatable(self):
        cfg = MethodConfig(method="random", random_seed=1234)
        opts = self.options(["a"], ["b"], ["c"], ["d"])
        scores = score_options(TextIndex(pt("a")), ["a"], opts, (cfg,))
        first = [decide(scores, cfg, random.Random(1234)).predicted for _ in range(20)]
        second = [decide(scores, cfg, random.Random(1234)).predicted for _ in range(20)]
        # a fresh generator per call replays the same value; a shared one
        # walks the same sequence
        assert first == second
        rng_a, rng_b = random.Random(55), random.Random(55)
        seq_a = [decide(scores, cfg, rng_a).predicted for _ in range(20)]
        seq_b = [decide(scores, cfg, rng_b).predicted for _ in range(20)]
        assert seq_a == seq_b

    def test_random_requires_seed(self):
        with pytest.raises(ValueError):
            MethodConfig(method="random")

    def test_log_base_does_not_change_sw_argmax(self):
        # rescaling all sw scores by 1/ln(2) == switching to log2; division
        # is monotone, so the predicted option must still attain the max
        # (1-ulp ties may collapse, never swap)
        rng = random.Random(21)
        cfg = MethodConfig(method="sw")
        for _ in range(200):
            tokens, question, _ = random_instance(rng, max_tokens=20)
            opts = [random_instance(rng, max_tokens=0)[2] for _ in range(4)]
            bd = decide(score_options(TextIndex(pt(*tokens)), question, opts, (cfg,)), cfg, None)
            base2 = [s / LN2 for s in bd.sw]
            assert base2[bd.predicted] == max(base2)

    def test_method_recorded(self):
        cfg = MethodConfig(method="sw")
        opts = self.options(["a"], ["b"], ["c"], ["d"])
        bd = decide(score_options(TextIndex(pt("a")), ["a"], opts, (cfg,)), cfg, None)
        assert bd.method == "sw"


class TestTextIndex:
    def test_boost_requires_store(self):
        with pytest.raises(ValueError):
            web_of(TextIndex(pt("a")), ["a"])
