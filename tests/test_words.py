
import copy
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braid3.burau import _image
from braid3.cobordism import torus_sum_cobordism, twist_trick
from braid3.invariants import build_report
from braid3.normal_form import (
    GarsideC, MurasugiGeneric, delta_positive_split, garside_normal_form, realize,
)
from braid3.words import (
    BraidWord,
    ParseError,
    WordLimitError,
    delta_power,
    parse,
)

from conftest import LETTER_RUNS, random_word, reduced_words


def runs(word):
    return list(word)


def cycle_type(perm: tuple[int, int, int]) -> tuple[int, ...]:
    """Cycle lengths of a permutation of {1,2,3}, sorted descending: the
    reference for the component counts words.py reads from a table."""
    seen = [False, False, False]
    lengths = []
    for start in (1, 2, 3):
        if seen[start - 1]:
            continue
        n, cur = 0, start
        while not seen[cur - 1]:
            seen[cur - 1] = True
            cur = perm[cur - 1]
            n += 1
        lengths.append(n)
    return tuple(sorted(lengths, reverse=True))


words_strategy = st.lists(
    st.sampled_from(LETTER_RUNS), max_size=12
).map(BraidWord.from_runs)


def free_reduction_reference(run_list):
    """Runs of the freely reduced word, one letter at a time: expand every
    run into signed letters, cancel x x^-1 pairs on a stack, then group."""
    stack = []
    for gen, exp in run_list:
        sign = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            if stack and stack[-1] == (gen, -sign):
                stack.pop()
            else:
                stack.append((gen, sign))
    out = []
    for gen, sign in stack:
        if out and out[-1][0] == gen:
            out[-1][1] += sign
        else:
            out.append([gen, sign])
    return [tuple(run) for run in out]


run_lists = st.lists(
    st.tuples(st.sampled_from("ab"), st.integers(-3, 3)), max_size=16
)


class TestParse:
    def test_basic_tokenization(self):
        assert runs(parse("a^3 B a")) == [("a", 3), ("b", -1), ("a", 1)]

    def test_half_twist_macro_merges(self):
        assert runs(parse("D^2")) == [("a", 1), ("b", 1), ("a", 2), ("b", 1), ("a", 1)]
        assert runs(parse("D")) == [("a", 1), ("b", 1), ("a", 1)]
        assert runs(parse("D^-1")) == [("a", -1), ("b", -1), ("a", -1)]

    def test_empty_input_is_identity(self):
        assert parse("") == BraidWord()
        assert parse("  \t ") == BraidWord()

    def test_juxtaposed_and_spaced_agree(self):
        assert parse("a^3Ba^-3B") == parse("a^3 B a^-3 B")

    def test_inverse_letters(self):
        assert parse("A^3") == parse("a^-3")
        assert parse("B") == parse("b^-1")

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse("xyz")
        assert exc.value.position == 1
        with pytest.raises(ParseError) as exc:
            parse("ab c")
        assert exc.value.position == 4

    def test_only_text_is_parsed(self):
        # a list or tuple of letters would otherwise read as the word a b
        for value, name in ((["a", "b"], "list"), (("a", "b"), "tuple"), (b"ab", "bytes")):
            with pytest.raises(TypeError, match=f"a braid word must be a str, not {name}$"):
                parse(value)

    def test_zero_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse("a^0")

    def test_dangling_caret_rejected(self):
        for text in ("a^", "a^-", "a^x"):
            with pytest.raises(ParseError, match="expected integer exponent after '\\^'") as exc:
                parse(text)
            assert exc.value.position == 3

    def test_non_ascii_digits_rejected(self):
        # str.isdigit accepts both; int() rejects "²" and reads "٣" as 3
        for text in ("a^²", "a^٣"):
            with pytest.raises(ParseError):
                parse(text)

    def test_length_guard(self, monkeypatch):
        monkeypatch.setenv("BRAID3_MAX_WORD_LEN", "10")
        with pytest.raises(ParseError):
            parse("a^11")
        assert runs(parse("a^10")) == [("a", 10)]

    def test_length_guard_counts_a_d_as_three_letters(self, monkeypatch):
        monkeypatch.setenv("BRAID3_MAX_WORD_LEN", "5")
        assert parse("D a b") == parse("aba a b")
        with pytest.raises(ParseError, match="BRAID3_MAX_WORD_LEN=5") as exc:
            parse("D^2")
        assert exc.value.position == 3

    def test_overlong_exponent_is_the_guard_error(self):
        # past int()'s 4300-digit limit, which must not be reached
        with pytest.raises(ParseError, match="BRAID3_MAX_WORD_LEN"):
            parse("a^" + "9" * 5000)
        assert parse("a^-" + "0" * 5000 + "3") == parse("A^3")
        with pytest.raises(ParseError, match="zero exponent"):
            parse("a^-" + "0" * 5000)

    def test_leading_d_terms_become_delta(self):
        assert parse("D^3 D^-1 a").delta == 2
        assert parse("D^3 D^-1 a") == parse("a b a^2 b a^2")
        assert parse("D") == parse("aba") and parse("D").delta == 1
        assert parse("D^2 D^-2 a").delta == 0 and parse("D^2 D^-2 a") == parse("a")
        # a D after the first a/b letter expands in place
        assert parse("a D^-1").delta == 0 and parse("a D^-1") == parse("B A")

    @pytest.mark.parametrize("raw", ["abc", "-1", "1e3", "9" * 5000],
                             ids=["abc", "-1", "1e3", "5000-digits"])
    def test_invalid_length_guard_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("BRAID3_MAX_WORD_LEN", raw)
        with pytest.raises(WordLimitError, match="BRAID3_MAX_WORD_LEN"):
            parse("ab")

    def test_display_round_trip(self, rng):
        for _ in range(100):
            w = random_word(rng, rng.randrange(0, 15))
            assert parse(w.display()) == w

    def test_str_names_the_empty_word(self):
        # a D prefix that its tail cancels is the empty word too
        assert str(BraidWord()) == str(parse("D A B A")) == "<identity>"
        w = parse("D^-2 a")
        assert str(w) == w.display() == "A B A^2 B"


class TestGroupOperations:
    def test_concat_inverse_pair(self):
        assert parse("a^2") * parse("a^-2") == BraidWord()

    def test_concat_plain(self):
        assert runs(parse("a") * parse("b")) == [("a", 1), ("b", 1)]

    def test_concat_cascade_merge(self):
        left = BraidWord.from_runs([("a", 1), ("b", 1)])
        right = BraidWord.from_runs([("b", -1), ("a", 3)])
        assert runs(left * right) == [("a", 4)]

    def test_inverse(self):
        assert runs(parse("a^3 B").inverse()) == [("b", 1), ("a", -3)]
        assert BraidWord().inverse() == BraidWord()

    def test_power(self):
        assert len((parse("ab") ** 3000).syllables) == 6000
        assert runs(parse("a b a") ** 2) == [("a", 1), ("b", 1), ("a", 2), ("b", 1), ("a", 1)]
        for w in (parse("ab"), parse("a B a^2")):
            assert w ** 0 == BraidWord()
            for k in range(1, 5):
                assert w ** -k == (w ** k).inverse()

    @given(words_strategy)
    def test_inverse_is_involution(self, w):
        assert w.inverse().inverse() == w
        assert not (w * w.inverse())

    @given(words_strategy, words_strategy, words_strategy)
    @settings(max_examples=200)
    def test_concat_associative_identity(self, u, v, w):
        assert (u * v) * w == u * (v * w)
        assert u * BraidWord() == u
        assert BraidWord() * u == u

    def test_mirror(self):
        assert runs(parse("a^3").mirror()) == [("a", -3)]

    @given(words_strategy)
    def test_mirror_involution_and_writhe(self, w):
        assert w.mirror().mirror() == w
        assert w.mirror().writhe() == -w.writhe()

    def test_from_runs_rejects_unknown_generator(self):
        with pytest.raises(ValueError):
            BraidWord.from_runs([("c", 1)])
        with pytest.raises(ValueError):
            BraidWord.from_runs([("a", 1), ("A", 2)])
        with pytest.raises(ValueError):
            BraidWord.from_runs([(["a"], 1)])
        with pytest.raises(ValueError):
            BraidWord.from_runs([({"a": 1}, 1)])

    @pytest.mark.parametrize("exp", [1.5, 2.0, True, "2"])
    def test_from_runs_rejects_non_int_exponent(self, exp):
        with pytest.raises(ValueError):
            BraidWord.from_runs([("a", exp)])
        with pytest.raises(ValueError):
            BraidWord.from_runs([("b", 1), ("a", exp)])

    def test_from_runs_takes_list_runs_as_tuples(self):
        w = BraidWord.from_runs([["a", 2], ["b", -1], ["b", 3]])
        assert w.syllables == (("a", 2), ("b", 2))
        assert all(type(run) is tuple for run in w.syllables)
        assert hash(w) == hash(BraidWord.from_runs([("a", 2), ("b", 2)]))

    def test_adjacent_runs_distinct(self, rng):
        for _ in range(200):
            w = random_word(rng, rng.randrange(0, 20))
            for (left, _), (right, _) in zip(w.syllables, w.syllables[1:]):
                assert left != right
            assert all(exp != 0 for _, exp in w)


class TestMerge:
    @given(run_lists)
    @example([("a", 1), ("b", 1), ("b", -1), ("a", -1), ("a", 1)])
    @example([("a", 2), ("b", 0), ("a", -2), ("b", 3)])
    @example([("a", 1), ("b", 2), ("a", 0), ("b", -2), ("a", -1)])
    @settings(max_examples=300)
    def test_from_runs_matches_free_reduction(self, run_list):
        assert runs(BraidWord.from_runs(run_list)) == free_reduction_reference(run_list)

    @given(run_lists, run_lists)
    @example([("a", 1), ("b", 2), ("a", 3)], [("a", -3), ("b", -2), ("a", -1)])
    @example([("b", 1), ("a", 2)], [("a", -2), ("b", 1)])
    @settings(max_examples=300)
    def test_product_matches_free_reduction(self, left, right):
        product = BraidWord.from_runs(left) * BraidWord.from_runs(right)
        assert runs(product) == free_reduction_reference(left + right)

    @given(run_lists, st.integers(-4, 4))
    @settings(max_examples=200)
    def test_power_matches_free_reduction(self, run_list, k):
        w = BraidWord.from_runs(run_list)
        base = runs(w) if k >= 0 else runs(w.inverse())
        assert runs(w ** k) == free_reduction_reference(base * abs(k))


class TestSyllableType:
    """Every run braid3 hands out is a plain (str, int) tuple."""

    @staticmethod
    def _assert_plain(word):
        for run in word.syllables:
            assert type(run) is tuple and len(run) == 2, (word, run)
            assert type(run[0]) is str and type(run[1]) is int, (word, run)

    def test_pickle_and_deepcopy_round_trip(self):
        word = parse("a^3 B a^-2 D^-2 b")
        _, cert = garside_normal_form(word)
        for obj in (word, cert):
            for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
                assert back == obj
        self._assert_plain(pickle.loads(pickle.dumps(word)))
        self._assert_plain(copy.deepcopy(word))

    def test_every_operation_yields_syllables(self):
        w = parse("a^3 B a^-2 D^-3 b^2")
        report = build_report(parse("a^3 B A^3 B"))
        assert report.is_knot
        made = [
            w,
            w * parse("B^2 a"),
            w * w.inverse(),
            w ** 3,
            w ** -2,
            w.inverse(),
            w.mirror(),
            w.swap_generators(),
            delta_power(-4),
            realize(GarsideC(-2, ((2, 3), (4, 2)))),
            realize(MurasugiGeneric(1, ((1, 2),))),
            BraidWord.from_runs([("a", 2), ("b", 0), ("a", -1)]),
            delta_positive_split(w).positive_part,
            realize(report.garside),
            realize(report.murasugi),
            report.garside_certificate.conjugator,
            report.murasugi_certificate.conjugator,
            torus_sum_cobordism(parse("a^2 b^2 a^3 b^3")).start,
            twist_trick(parse("a b"), 2).start,
        ]
        for word in made:
            self._assert_plain(word)


class TestWritheAndPermutation:
    def test_writhe_examples(self):
        assert delta_power(2).writhe() == 6
        assert parse("a^3 B a^-3 B").writhe() == -2
        assert BraidWord().writhe() == 0

    @given(words_strategy, words_strategy)
    def test_writhe_additive(self, u, v):
        assert (u * v).writhe() == u.writhe() + v.writhe()

    def test_permutation_examples(self):
        assert parse("a").permutation() == (2, 1, 3)
        assert delta_power(2).permutation() == (1, 2, 3)
        # a^-1 b is a 3-cycle
        assert cycle_type(parse("A b").permutation()) == (3,)

    @given(words_strategy, words_strategy)
    def test_permutation_homomorphism(self, u, v):
        pu, pv = u.permutation(), v.permutation()
        composed = tuple(pv[pu[i] - 1] for i in range(3))
        assert (u * v).permutation() == composed

    @given(words_strategy)
    def test_permutation_mirror_invariant(self, w):
        assert w.mirror().permutation() == w.permutation()

    def test_closure_components_examples(self):
        assert BraidWord().closure_components() == 3
        assert parse("A b").closure_components() == 1
        assert parse("a^3 b^2").closure_components() == 2

    def test_knot_iff_three_cycle_exhaustive(self):
        for w in reduced_words(10):
            cycles = cycle_type(w.permutation())
            assert w.is_knot() == (cycles == (3,))
            assert w.closure_components() == len(cycles)


def _delta_prefixed(k, tail):
    return parse(f"D^{k} {tail.display()}") if k else tail


class TestDeltaPrefix:
    """A word read with leading D terms keeps D^k as a number; every
    operation must see the word it expands to."""

    @staticmethod
    def _views(w):
        return (w.syllables, len(w), bool(w), w.writhe(), w.permutation(),
                w.display(), _image(w), hash(w))

    @given(st.integers(-8, 8), words_strategy, words_strategy)
    @settings(max_examples=300)
    # tails that cancel into D^k: all of it, all but its first run, and deep
    # into the block with a merge at the seam
    @example(3, parse("A B A^2 B A^2 B A"), BraidWord())
    @example(-3, parse("a b a^2 b a"), parse("b"))
    @example(2, parse("A B A^3 b"), parse("a"))
    @example(-1, parse("a b a"), parse("A"))
    def test_operations_match_the_expanded_word(self, k, tail, other):
        w = _delta_prefixed(k, tail)
        plain = BraidWord.from_runs(w.syllables)
        assert w.delta == k
        assert w.syllables == tuple(plain) and all(type(s) is tuple for s in w.syllables)
        assert w == plain and plain == w
        for op in (
            lambda x: x,
            lambda x: x * other,
            lambda x: other * x,
            lambda x: x * x,
            lambda x: x.inverse(),
            lambda x: x.mirror(),
            lambda x: x.swap_generators(),
            lambda x: x ** 2,
            lambda x: x ** -1,
        ):
            assert self._views(op(w)) == self._views(op(plain))
        assert _delta_prefixed(k, tail * other) == w * other

    def test_block_and_seam_match_the_letter_expansion(self):
        # D^k reads as aba (or ABA) |k| times, merged with the tail letter by
        # letter; the word writes D^h's block by hand and merges only the seam
        hs, cancelled = set(), 0
        for k in range(-12, 13):
            if not k:
                continue
            s = 1 if k > 0 else -1
            block = [("a", s), ("b", s), ("a", s)] * abs(k)
            for tail in reduced_words(4):
                w = parse(f"D^{k} {tail.display()}")
                ref = BraidWord.from_runs(block + runs(tail))
                assert (w.syllables, len(w), w.display()) == (ref.syllables, len(ref), ref.display())
                hs.add(abs(w._seam[0]))
                cancelled += len(ref) < 3 * abs(k) + len(tail)
        assert {0, 1} <= hs and cancelled

    def test_inverse_matches_the_letter_expansion(self):
        # D^k w inverts letter by letter: the letters of D^k's block and of w,
        # reversed and negated, then merged
        for k in range(-4, 5):
            s = 1 if k > 0 else -1
            block = [("a", s), ("b", s), ("a", s)] * abs(k)
            for tail in reduced_words(4):
                letters = block + [(g, 1 if e > 0 else -1) for g, e in tail for _ in range(abs(e))]
                ref = BraidWord.from_runs([(g, -e) for g, e in reversed(letters)])
                assert _delta_prefixed(k, tail).inverse().syllables == ref.syllables

    def test_inequality_across_deltas(self):
        assert parse("D^2 a") != parse("D^2 b") and parse("D^2 a") != parse("D^-2 a")
        assert parse("D^2 a") != parse("a b a^2 b a^2 b")
        assert len({parse("D^2"), parse("a b a^2 b a"), parse("aba aba")}) == 1

    def test_mirror_keeps_delta_as_a_number(self, monkeypatch):
        # the mirror of D^k t is D^-k times the mirrored tail, letter for letter
        monkeypatch.setenv("BRAID3_MAX_WORD_LEN", "3000001")
        mirrored = parse("D^-1000000 a").mirror()
        assert mirrored.delta == 1000000 and mirrored.tail == parse("A").tail
        assert mirrored == parse("D^1000000 A")

    def test_truth_reads_the_seam_not_the_expansion(self, monkeypatch):
        # bool needs only whether the expanded word is empty, which the seam
        # says without building the 2*10^6 runs of the block
        monkeypatch.setenv("BRAID3_MAX_WORD_LEN", "3000001")
        w = parse("D^-1000000 a")
        assert bool(w) and "syllables" not in vars(w)
        cancelled = parse("D^2 A B A^2 B A")
        assert not cancelled and "syllables" not in vars(cancelled)
        assert cancelled.syllables == ()

    def test_a_plain_word_is_its_tail(self):
        w = parse("a^2 B a")
        assert w.delta == 0 and w.syllables is w.tail and "delta" not in vars(w)
        assert (w * parse("A")).syllables == parse("a^2 B").tail
