"""Lexical multiple-choice reading comprehension.

Picks the best of four answer options for a question about a reading text
by combining a sliding-window lexical score, a word-distance penalty, and
a word-embedding similarity boost, and ships the evaluation harness that
measures the methods against each other.
"""
