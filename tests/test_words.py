from __future__ import annotations

import random
import sys
import threading

import pytest

from advicebench.errors import BlockBudgetExceeded, EmptyPeriod
from advicebench.words import (
    PAD,
    Alphabet,
    ConstantWord,
    FiniteWord,
    LassoWord,
    block_mirror,
    canonical_lasso,
    convolve,
    convolve_lassos,
    duplicate,
    infer_alphabet,
    lasso,
    letter_at,
    pi_word,
    shift,
    word,
)


def expand_pi(k, n):
    # independent oracle: write the blocks out by hand
    text = ""
    b = 0
    while len(text) < n:
        text += ("0" * b + "1") * k
        b += 1
    return text[:n]


@pytest.mark.parametrize("chars", ["a_", "a^"])
def test_letters_that_documents_reserve_are_refused(chars):
    """'_' is the padding letter's text and '^' the endmarker's."""
    with pytest.raises(ValueError, match="reserved"):
        Alphabet.of(chars)


@pytest.mark.parametrize("make", [lambda: infer_alphabet([PAD]), lambda: ConstantWord(PAD),
                                  lambda: lasso("", "_"), lambda: lasso("_", "__")])
def test_a_word_of_padding_letters_only_asks_for_its_alphabet(make):
    with pytest.raises(ValueError, match="needs an explicit alphabet"):
        make()


@pytest.mark.parametrize("text", ["_", "___"])
def test_a_finite_word_of_padding_letters_only_asks_for_its_alphabet(text):
    with pytest.raises(ValueError, match="needs an explicit alphabet"):
        word(text)
    with pytest.raises(ValueError, match="needs an explicit alphabet"):
        FiniteWord.from_str(text)
    assert word(text, Alphabet.of("ab")).letters == (PAD,) * len(text)


def test_the_empty_finite_word_needs_no_alphabet():
    assert word("").letters == ()
    assert word("a_").alphabet.letters == ("a",)


def test_a_word_of_padding_letters_reads_with_an_explicit_alphabet():
    ab = Alphabet.of("ab")
    assert ConstantWord(PAD, ab).letters_from(0)[:3] == [PAD] * 3
    assert lasso("", "_", ab).prefix_str(3) == "___"


def test_letter_at_periodic():
    w = lasso("", "01")
    assert letter_at(w, 3) == "1"
    assert w.prefix_str(6) == "010101"


def test_pi_prefix_matches_manual_expansion():
    assert pi_word(1).prefix_str(10) == "1010010001"
    assert pi_word(1).prefix_str(40) == expand_pi(1, 40)


def test_shift_examples():
    w = lasso("", "ab")
    assert shift(w, 1).prefix_str(4) == "baba"
    assert shift(pi_word(1), 1).prefix_str(9) == "010010001"
    assert shift(w, 0) is w


def test_shift_composes():
    rng = random.Random(7)
    for w in (pi_word(1), lasso("ab", "cab"), lasso("", "aab")):
        m, n = rng.randrange(5), rng.randrange(5)
        a = shift(shift(w, m), n)
        b = shift(w, m + n)
        assert all(a.letter(i) == b.letter(i) for i in range(1000))


def test_convolve_finite_finite():
    got = convolve([word("ab"), word("abc")])
    assert got.letters == (("a", "a"), ("b", "b"), (PAD, "c"))


def test_convolve_finite_infinite():
    got = convolve([word("ab"), lasso("", "01")])
    assert got.letter(0) == ("a", "0")
    assert got.letter(1) == ("b", "1")
    assert got.letter(2) == (PAD, "0")
    assert got.letter(3) == (PAD, "1")


def test_convolve_empty_words():
    got = convolve([word("", Alphabet.of("a")), word("", Alphabet.of("b"))])
    assert got.letters == ()


def test_convolve_projections_recover_tracks():
    ws = [word("ab"), word("abcd"), word("x")]
    got = convolve(ws)
    for track, w in enumerate(ws):
        for i in range(4):
            expect = w[i] if i < len(w) else PAD
            assert got[i][track] == expect


def test_pi_k_prefixes():
    assert pi_word(2).prefix_str(12) == "110101001001"
    assert pi_word(2).prefix_str(60) == expand_pi(2, 60)
    assert pi_word(3).prefix_str(90) == expand_pi(3, 90)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pi_k_has_no_adjacent_ones_past_start(k):
    w = pi_word(k)
    letters = w.prefix_str(2000)
    for i in range(k, 1999):
        assert not (letters[i] == "1" and letters[i + 1] == "1")


def test_duplicate_examples():
    assert duplicate(lasso("", "01"), 3).prefix_str(12) == "000111000111"
    w = lasso("", "ab")
    assert duplicate(w, 1) is w
    assert duplicate(w, 2).prefix_str(8) == "aabbaabb"


def test_duplicate_index_arithmetic():
    w = pi_word(1)
    d = duplicate(w, 3)
    for i in range(3000):
        assert d.letter(i) == w.letter(i // 3)


def _run_word():
    from advicebench.transducers import mirror_blocks_2wft, run_2wft

    return run_2wft(mirror_blocks_2wft(Alphabet.of("ab")), lasso("ab", "a#b#")).word


NEGATIVE_INDEX_WORDS = {
    "lasso": lambda: lasso("a", "b"),
    "lasso, no preperiod": lambda: lasso("", "ab"),
    "constant": lambda: ConstantWord("a"),
    "shift": lambda: shift(lasso("ab", "c"), 1),
    "duplicate": lambda: duplicate(lasso("a", "b"), 2),
    "convolution": lambda: convolve([word("ab"), lasso("", "ab")]),
    "pi": lambda: pi_word(1),
    "pi^3": lambda: pi_word(3),
    "block mirror": lambda: block_mirror(lasso("", "ab#")),
    "run": _run_word,
}


@pytest.mark.parametrize("make", NEGATIVE_INDEX_WORDS.values(), ids=NEGATIVE_INDEX_WORDS)
def test_every_word_refuses_a_negative_letter_index(make):
    w = make()
    w.prefix_str(4)  # negative indexes must not wrap around letters already at hand
    for n in (-1, -3):
        for read in (w.letter, w.letters_from):
            with pytest.raises(IndexError, match="letter index must be nonnegative"):
                read(n)


@pytest.mark.parametrize("make", NEGATIVE_INDEX_WORDS.values(), ids=NEGATIVE_INDEX_WORDS)
def test_every_word_refuses_a_negative_letter_count(make):
    w = make()
    for read in (w.take, w.prefix, w.prefix_str):
        for n in (-1, -2):
            with pytest.raises(ValueError, match="letter count must be nonnegative"):
                read(n)
    assert w.take(0) == [] and w.prefix_str(0) == ""


def test_a_run_refuses_a_negative_letter_count():
    run = _run_word().outcome
    for read in (run.letters, run.try_letters, run.prefix_str):
        with pytest.raises(ValueError):
            read(-2)
    assert run.letters(0) == []


def test_block_mirror_examples():
    assert block_mirror(lasso("", "ab#baa#")).prefix_str(14) == "ba#aab#ba#aab#"
    assert block_mirror(lasso("", "#")).prefix_str(5) == "#####"
    assert block_mirror(lasso("", "abc#")).prefix_str(8) == "cba#cba#"


def test_block_mirror_budget():
    no_marks = lasso("", "ab")
    with pytest.raises(BlockBudgetExceeded):
        block_mirror(no_marks, block_budget=50).letter(0)
    # a block of exactly the budget still comes out, reversed
    assert block_mirror(lasso("", "abc" * 10 + "#"), block_budget=30).prefix_str(31) == "cba" * 10 + "#"
    with pytest.raises(BlockBudgetExceeded):
        block_mirror(lasso("", "abc" * 10 + "a#"), block_budget=30).letter(0)


def primitive(letters):
    n = len(letters)
    for p in range(1, n):
        if n % p == 0 and letters == letters[:p] * (n // p):
            return False
    return True


def test_canonical_lasso_primitivity_and_equality():
    rng = random.Random(11)
    for _ in range(100):
        u = "".join(rng.choice("ab") for _ in range(rng.randrange(4)))
        v = "".join(rng.choice("ab") for _ in range(1, rng.randrange(1, 6) + 1))
        before = lasso(u, v)
        after = canonical_lasso(before.u, before.v)
        span = len(u) + 4 * len(v)
        assert all(before.letter(i) == after.letter(i) for i in range(span))
        assert primitive(after.v.letters)
        # the preperiod cannot be shortened further
        if len(after.u):
            assert after.u[-1] != after.v[-1]


def test_canonical_lasso_cases():
    got = canonical_lasso(word("a"), word("baba"))
    assert (got.u.to_str(), got.v.to_str()) == ("", "ab")
    got = canonical_lasso(word("ab"), word("b"))
    assert (got.u.to_str(), got.v.to_str()) == ("a", "b")
    got = canonical_lasso(word("", Alphabet.of("a")), word("a"))
    assert (got.u.to_str(), got.v.to_str()) == ("", "a")


def test_empty_period_rejected():
    with pytest.raises(EmptyPeriod):
        canonical_lasso(word("a"), word("", Alphabet.of("a")))
    with pytest.raises(EmptyPeriod):
        lasso("a", "")


def test_lasso_alphabet_is_the_union_of_its_parts():
    w = LassoWord(FiniteWord(("c",), Alphabet.of("c")), FiniteWord(("a", "b"), Alphabet.of("ab")))
    assert set(w.alphabet.letters) == {"a", "b", "c"}
    assert w.letter(0) in w.alphabet
    # an alphabet holding the other's letters is kept, with its product parts
    product = Alphabet.product(Alphabet.of("a"), Alphabet.of("x"))
    inner = Alphabet([("a", "x")])
    for u, v in ((product, inner), (inner, product)):
        w = LassoWord(FiniteWord((), u), FiniteWord((("a", "x"),), v))
        assert w.alphabet is product


def test_canonical_lasso_keeps_a_product_alphabet():
    product = Alphabet.product(Alphabet.of("a"), Alphabet.of("x"))
    w = LassoWord(FiniteWord((), product), FiniteWord((("a", "x"),) * 2, product))
    canonical = w.canonical()
    assert canonical.v.letters == (("a", "x"),)
    assert canonical.alphabet is product


def test_convolve_lassos_exact():
    a = lasso("a", "bc")
    b = lasso("", "xyz")
    got = convolve_lassos(a, b)
    direct = convolve([a, b])
    assert all(got.letter(i) == direct.letter(i) for i in range(60))


def test_convolve_lasso_with_finite():
    w = word("ab")
    a = lasso("", "01")
    got = convolve_lassos(w, a)
    assert [got.letter(i) for i in range(4)] == [
        ("a", "0"), ("b", "1"), (PAD, "0"), (PAD, "1")
    ]


def test_letters_are_pure():
    w = block_mirror(lasso("", "ab#baa#"))
    first = [w.letter(i) for i in range(50)]
    again = [w.letter(i) for i in range(50)]
    assert first == again


def test_concurrent_readers_agree():
    # readers through letter and through letters_from, more of them than
    # cores, switching often: a block mirrored twice or lost shows
    want = block_mirror(pi_word_with_marks()).prefix_str(3000)
    w = block_mirror(pi_word_with_marks())
    results = []

    def reader(bulk):
        if bulk:
            results.append(w.prefix_str(3000))
        else:
            results.append("".join(w.letter(i) for i in range(3000)))

    threads = [threading.Thread(target=reader, args=(i % 2 == 0,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [want] * len(threads)


def pi_word_with_marks():
    # interleave block marks into a lasso so the mirror has work to do
    return lasso("", "ab#ba#aab#")


def test_finite_word_letters_must_fit_alphabet():
    from advicebench.errors import AlphabetMismatch

    with pytest.raises(AlphabetMismatch):
        FiniteWord(("c",), Alphabet.of("ab"))
