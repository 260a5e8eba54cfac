import pytest

from lexmrc.corpus import load_dataset
from lexmrc.embedding import load_embeddings
from lexmrc.preprocess import DictionarySegmenter, PreprocessConfig, load_lexicon

from pathlib import Path

DATA_DIR = Path(__file__).parent / "data"


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
