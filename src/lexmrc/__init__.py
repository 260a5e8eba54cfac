"""Lexical multiple-choice reading comprehension.

Picks the best of four answer options for a question about a reading text
by combining a sliding-window lexical score, a word-distance penalty, and
a word-embedding similarity boost, and ships the evaluation harness that
measures the methods against each other.
"""

from .corpus import (
    Dataset,
    DatasetStats,
    MCQuestion,
    ReadingText,
    compute_stats,
    filter_dataset,
    load_dataset,
)
from .embedding import EmbeddingStore, SpanVector, average_embedding, load_embeddings
from .evaluation import EvaluationReport, compare_reports, evaluate, facet_breakdown, render_report
from .preprocess import (
    DictionarySegmenter,
    PreprocessConfig,
    ProcessedText,
    preprocess_sentence,
    preprocess_text,
)
from .scoring import MethodConfig, ScoreBreakdown, term_counts

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DatasetStats",
    "DictionarySegmenter",
    "EmbeddingStore",
    "EvaluationReport",
    "MCQuestion",
    "MethodConfig",
    "PreprocessConfig",
    "ProcessedText",
    "ReadingText",
    "ScoreBreakdown",
    "SpanVector",
    "average_embedding",
    "compare_reports",
    "compute_stats",
    "evaluate",
    "facet_breakdown",
    "filter_dataset",
    "load_dataset",
    "load_embeddings",
    "preprocess_sentence",
    "preprocess_text",
    "render_report",
    "term_counts",
]
