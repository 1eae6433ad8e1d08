"""Seeded digit words for tests that need a point with random-looking digits."""
import random

from abtorus import DigitWord


def random_word(base: int, length: int, seed: int) -> DigitWord:
    """Seeded i.i.d.-digit word."""
    rng = random.Random(seed)
    return DigitWord(base, tuple(rng.randrange(base) for _ in range(length)))
