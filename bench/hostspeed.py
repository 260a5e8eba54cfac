"""The host's speed, measured alongside the program.

On a shared host the same operation takes a quarter longer or more in
one minute than in the next, and a run of half a minute often sits at
one speed throughout, so repeating the operation inside a run cannot
make the run's figure steady. The benchmark therefore
measures the host's speed itself: after each operation it runs a fixed
reference slice of its own, about one slice for every `QUANTUM_S` of
operation time, so the slices sample the host over the same stretches
of the run as the operations. The slice is the program's kind of work
-- a greedy pass over 20,000 syllables that looks each adjacent pair up
in a set of 50,000 two-syllable words and counts in a dict, in pure
Python -- but it is the benchmark's own code, built from a fixed seed,
and runs with the garbage collector paused, so no change to the program
changes its cost.

`factor()` is the run's mean slice time over `REFERENCE_S`, the mean
slice time measured on the reference machine: above 1 the host ran
slower than that. The end-to-end times are divided by it (and rates
multiplied), so they read as times at the reference speed; the times as
measured are kept in the run's record. One factor for the whole run
steadies the figures more than one per kind of operation: a slice that
follows a `lexmrc` subprocess, for one, runs while the host settles
after it.
"""

from __future__ import annotations

import gc
import random
import time

QUANTUM_S = 0.25
REFERENCE_S = 0.012  # mean slice time on the reference machine


class HostSpeed:
    def __init__(self):
        rng = random.Random(20200113)
        letters = "abcdeghiklmnopqrstuvxy"
        syllables = ["".join(rng.choice(letters) for _ in range(rng.randint(2, 6)))
                     for _ in range(20_000)]
        self.words = frozenset(f"{rng.choice(syllables)}_{rng.choice(syllables)}"
                               for _ in range(50_000))
        self.text = [rng.choice(syllables) for _ in range(20_000)]
        self.slices: list[float] = []
        self.owed_s = 0.0

    def one_slice(self) -> float:
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            counts: dict[str, int] = {}
            text, words = self.text, self.words
            i, n = 0, len(text) - 1
            while i < n:
                pair = text[i] + "_" + text[i + 1]
                if pair in words:
                    counts[pair] = counts.get(pair, 0) + 1
                    i += 2
                else:
                    counts[text[i]] = counts.get(text[i], 0) + 1
                    i += 1
            return time.perf_counter() - start
        finally:
            if was_enabled:
                gc.enable()

    def follow(self, elapsed: float) -> None:
        """The slices owed for `elapsed` seconds of operation time."""
        self.owed_s += elapsed
        while self.owed_s >= QUANTUM_S:
            self.owed_s -= QUANTUM_S
            self.slices.append(self.one_slice())

    def factor(self) -> float:
        if not self.slices:  # a run too short to owe a slice
            self.slices.append(self.one_slice())
        return sum(self.slices) / len(self.slices) / REFERENCE_S
