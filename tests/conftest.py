import random

import pytest

from braid3.words import BraidWord

LETTER_RUNS = [("a", 1), ("a", -1), ("b", 1), ("b", -1)]

#: q -> the signature of the torus knot T(3, q), the closure of (ab)^q
KNOWN_TORUS_SIGNATURES = {
    # classical values; the recursion sigma(T(3,q+6)) = sigma(T(3,q)) - 8
    # pins the whole family from the 8_19/10_124 values
    2: -2, 4: -6, 5: -8, 7: -8, 8: -10, 10: -14, 11: -16, 13: -16, 14: -18,
}


def reduced_words(max_len: int):
    """All freely reduced words over a, a^-1, b, b^-1 of length <= max_len.

    Free reduction never cancels across distinct generators, so these are
    exactly the distinct run-length words with letter length <= max_len.
    """
    yield BraidWord()
    frontier = [((g, e),) for g, e in LETTER_RUNS]
    while frontier:
        new = []
        for seq in frontier:
            yield BraidWord.from_runs(list(seq))
            if len(seq) < max_len:
                last_g, last_e = seq[-1]
                for g, e in LETTER_RUNS:
                    if g == last_g and e == -last_e:
                        continue
                    new.append(seq + ((g, e),))
        frontier = new


def random_word(rng: random.Random, length: int) -> BraidWord:
    return BraidWord.from_runs([LETTER_RUNS[rng.randrange(4)] for _ in range(length)])


@pytest.fixture
def rng():
    return random.Random(20240817)
