import os

import pytest
from hypothesis import settings

from lexmrc.corpus import load_dataset
from lexmrc.embedding import average_embedding, load_embeddings
from lexmrc.preprocess import DictionarySegmenter, PreprocessConfig, load_lexicon
from lexmrc.scoring import score_questions

from pathlib import Path

DATA_DIR = Path(__file__).parent / "data"

# CI runs the property tests with a fixed seed and prints the blob that
# reproduces a failure with @reproduce_failure
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def fixture_dataset():
    return load_dataset(DATA_DIR / "reasoning_fixtures.json")


@pytest.fixture(scope="session")
def toy_store():
    return load_embeddings(DATA_DIR / "toy_vectors.vec")


@pytest.fixture(scope="session")
def toy_preprocess():
    lexicon = load_lexicon(DATA_DIR / "toy_lexicon.txt")
    return PreprocessConfig(segmenter=DictionarySegmenter(lexicon))


def scores_of(index, question, options, cfgs):
    """The `OptionScores` of one question, through the batched
    `score_questions`."""
    return score_questions(index, [question], [options], cfgs)[0]


def sw_of(index, words):
    """The `sw` of one word set, through the batched `TextIndex.window_score`."""
    return index.window_score([set(words)])[0]


def d_of(index, question, option, aggregation):
    """The `d` of one option, through the batched `TextIndex.distance`."""
    return index.distance([set(question)], [[set(option)]], aggregation)[0][0]


def web_of(index, option):
    """The `web` of one option, through the batched `TextIndex.boost`."""
    return index.boost([option])[0]


def mean_of(store, words):
    """The mean vector of one span, or None when the store knows no word
    of it, through the batched `average_embedding`."""
    means, found = average_embedding(store, [words])
    return means[0] if found[0] else None
