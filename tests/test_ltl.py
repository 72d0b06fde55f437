from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advicebench.analysis import padding_check
from advicebench.errors import AlphabetMismatch, CapTooSmall, NotGFree, NotInNnf, ParseError
from advicebench.ltl import (
    And,
    Atom,
    FinitePrefixReport,
    Globally,
    Next,
    Not,
    Or,
    PrefixVerdict,
    Top,
    Until,
    bot,
    check_finite_prefix_theorem,
    eliminate_g_subformulas,
    eval_lasso,
    finite_prefix_eval,
    is_nnf,
    nnf,
    parse_formula,
    size,
)
from advicebench.words import Alphabet, FiniteWord, lasso, word

AB = Alphabet.of("ab")

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

formulas = st.recursive(
    st.sampled_from([Atom("a"), Atom("b"), Top()]),
    lambda inner: st.one_of(
        st.builds(Not, inner), st.builds(Next, inner), st.builds(Globally, inner),
        st.builds(And, inner, inner), st.builds(Or, inner, inner), st.builds(Until, inner, inner),
    ),
    max_leaves=6,
)
lassos = st.builds(lasso, st.text("ab", max_size=3), st.text("ab", min_size=1, max_size=5), st.just(AB))


def test_parse_round_trip():
    for text in ["G F a", "a U b U a", "!(a & b) | X a", "T U b", "_|_ | a"]:
        formula = parse_formula(text)
        again = parse_formula(str(formula))
        assert again == formula


def test_parse_precedence():
    assert parse_formula("a & b | c") == Or(And(Atom("a"), Atom("b")), Atom("c"))
    assert parse_formula("a U b U c") == Until(Atom("a"), Until(Atom("b"), Atom("c")))
    assert parse_formula("!X a") == Not(Next(Atom("a")))
    assert parse_formula("a U b & c") == And(Until(Atom("a"), Atom("b")), Atom("c"))


def test_parse_errors():
    for text in ["(a", "a U", "a b", ""]:
        with pytest.raises(ParseError):
            parse_formula(text)


def test_nnf_until_negation_shape():
    got = nnf(Not(Until(Atom("a"), Atom("b"))))
    want = Or(
        Globally(Not(Atom("b"))),
        Until(Not(Atom("b")), And(Not(Atom("b")), Not(Atom("a")))),
    )
    assert got == want


def test_nnf_double_negation_and_next():
    assert nnf(Not(Not(Atom("a")))) == Atom("a")
    assert nnf(Not(Next(Atom("a")))) == Next(Not(Atom("a")))
    assert is_nnf(nnf(Not(Globally(And(Atom("a"), Next(Atom("b")))))))


def test_eval_lasso_examples():
    gfa = parse_formula("G F a")
    assert eval_lasso(gfa, lasso("", "ab"), 0)
    assert not eval_lasso(gfa, lasso("a", "b"), 0)
    aub = parse_formula("a U b")
    assert eval_lasso(aub, lasso("", "aab"), 0)
    assert eval_lasso(aub, lasso("", "aab"), 2)


def brute_eval(formula, w, position):
    """Independent oracle: recursive walk along the lasso. One step past a
    full cycle decides every Until and Globally exactly."""
    total = len(w.u) + len(w.v)
    match formula:
        case Atom(a):
            return w.letter(position) == a
        case Top():
            return True
        case Not(c):
            return not brute_eval(c, w, position)
        case And(l, r):
            return brute_eval(l, w, position) and brute_eval(r, w, position)
        case Or(l, r):
            return brute_eval(l, w, position) or brute_eval(r, w, position)
        case Next(c):
            return brute_eval(c, w, position + 1)
        case Until(l, r):
            for j in range(position, position + total + 1):
                if brute_eval(r, w, j):
                    return True
                if not brute_eval(l, w, j):
                    return False
            return False  # trapped in a cycle where l holds and r never does
        case Globally(c):
            return all(brute_eval(c, w, j) for j in range(position, position + total + 1))
    raise TypeError


def random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Atom("a"), Atom("b"), Top()])
    pick = rng.randrange(6)
    if pick == 0:
        return Not(random_formula(rng, depth - 1))
    if pick == 1:
        return And(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if pick == 2:
        return Or(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if pick == 3:
        return Next(random_formula(rng, depth - 1))
    if pick == 4:
        return Until(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    return Globally(random_formula(rng, depth - 1))


def test_eval_lasso_matches_unrolled_check():
    rng = random.Random(13)
    words = [lasso("", "ab"), lasso("a", "b"), lasso("ab", "ba"), lasso("", "aab")]
    for _ in range(150):
        f = random_formula(rng, 3)
        w = words[rng.randrange(len(words))]
        p = rng.randrange(6)
        assert eval_lasso(f, w, p) == brute_eval(f, w, p)


def test_eval_position_shift_coherence():
    rng = random.Random(19)
    for _ in range(100):
        f = random_formula(rng, 3)
        w = lasso("ab", "aab")
        p = len(w.u) + rng.randrange(8)
        assert eval_lasso(f, w, p) == eval_lasso(f, w, p + len(w.v))


def test_nnf_preserves_evaluation():
    rng = random.Random(29)
    words = [lasso("", "ab"), lasso("b", "ab"), lasso("", "aab")]
    for _ in range(200):
        f = random_formula(rng, 4)
        w = words[rng.randrange(len(words))]
        p = rng.randrange(10)
        assert eval_lasso(f, w, p) == eval_lasso(nnf(f), w, p)


def test_eliminate_g_examples():
    w = lasso("", "ab")
    report = eliminate_g_subformulas(nnf(parse_formula("G F a")), w)
    assert report.formula == Top()
    assert report.stabilization == 0

    report = eliminate_g_subformulas(nnf(parse_formula("G F a")), lasso("a", "b"))
    assert report.formula == bot()
    assert report.stabilization == 0

    plain = nnf(parse_formula("a U b"))
    report = eliminate_g_subformulas(plain, w)
    assert report.formula == plain
    assert report.stabilization == 0


def test_eliminate_g_requires_nnf():
    with pytest.raises(NotInNnf):
        eliminate_g_subformulas(Not(Until(Atom("a"), Atom("b"))), lasso("", "ab"))


def test_eliminate_g_suffix_equivalence():
    rng = random.Random(37)
    words = [lasso("", "ab"), lasso("a", "b"), lasso("ab", "ba")]
    for _ in range(80):
        f = nnf(random_formula(rng, 3))
        w = words[rng.randrange(len(words))]
        report = eliminate_g_subformulas(f, w)
        for m in range(report.stabilization, report.stabilization + 50):
            assert eval_lasso(report.formula, w, m) == eval_lasso(f, w, m)


def test_finite_prefix_examples():
    fa = nnf(parse_formula("F a"))
    assert finite_prefix_eval(fa, word("bba", AB), 0)
    assert not finite_prefix_eval(fa, word("bb", AB), 0)

    xxa = nnf(parse_formula("X X a"))
    assert not finite_prefix_eval(xxa, word("ba", AB), 0)
    assert finite_prefix_eval(xxa, word("bba", AB), 0)

    aub = nnf(parse_formula("a U b"))
    assert finite_prefix_eval(aub, word("aab", AB), 0)


def test_finite_prefix_top_on_empty_word():
    assert finite_prefix_eval(Top(), FiniteWord((), AB), 0)
    assert not finite_prefix_eval(Atom("a"), FiniteWord((), AB), 0)


def test_finite_prefix_rejects_globally():
    with pytest.raises(NotGFree):
        finite_prefix_eval(Globally(Atom("a")), word("a", AB), 0)


def test_finite_prefix_until_matches_split_search():
    rng = random.Random(41)
    aub = nnf(parse_formula("a U b"))
    for _ in range(100):
        text = "".join(rng.choice("ab") for _ in range(rng.randrange(8)))
        w = word(text, AB) if text else FiniteWord((), AB)
        brute = any(
            w[j] == "b" and all(w[k] == "a" for k in range(j))
            for j in range(len(w))
        )
        assert finite_prefix_eval(aub, w, 0) == brute


def test_check_finite_prefix_theorem_battery():
    report = check_finite_prefix_theorem(parse_formula("G F a"), lasso("", "ab"), m_range=20)
    assert report.all_agree
    assert all(v.witness is None or v.witness <= 2 for v in report.verdicts)

    report = check_finite_prefix_theorem(parse_formula("F b"), lasso("a", "b"), m_range=20)
    assert report.all_agree
    assert report.verdicts[0].witness is not None

    report = check_finite_prefix_theorem(parse_formula("a"), lasso("", "ab"), m_range=20)
    assert report.all_agree
    for v in report.verdicts:
        if v.position % 2 == 0:
            assert v.holds_on_word and v.witness == 1
        else:
            assert not v.holds_on_word and v.witness is None


@PROPERTY
@given(f=formulas, w=lassos)
def test_eval_lasso_is_the_unrolled_check_at_every_node(f, w):
    for p in range(len(w.u) + 2 * len(w.v)):  # every node, then once more round the loop
        assert eval_lasso(f, w, p) == brute_eval(f, w, p)


@PROPERTY
@given(f=formulas, w=lassos)
def test_nnf_keeps_eval_lasso(f, w):
    normal = nnf(f)
    for p in range(len(w.u) + len(w.v)):
        assert eval_lasso(normal, w, p) == eval_lasso(f, w, p)


def rebuilt_witness(g_free, w, m, cap):
    """Reference: the least k <= cap such that the length-k prefix of the
    suffix at m satisfies g_free, found by rebuilding each prefix."""
    for k in range(cap + 1):
        prefix = FiniteWord(tuple(w.letter(m + i) for i in range(k)), w.alphabet)
        if finite_prefix_eval(g_free, prefix, 0):
            return k
    return None


def default_cap(f, w, n_cap):
    return 3 * (len(w.u) + len(w.v)) + size(f) if n_cap is None else n_cap


def padding_by_rebuilding(phi, w, n_range, n_cap):
    """Reference padding table: entries, cap and stabilization, or the
    position and cap of CapTooSmall."""
    report = eliminate_g_subformulas(nnf(phi), w)
    cap = default_cap(phi, w, n_cap)
    entries = []
    for n in range(n_range + 1):
        if not eval_lasso(phi, w, n):
            entries.append(None)
            continue
        witness = rebuilt_witness(report.formula, w, n, cap)
        if witness is None:
            if n >= report.stabilization:
                return ("CapTooSmall", n, cap)
            witness = "cap"
        entries.append(witness)
    return entries, cap, report.stabilization


def theorem_by_rebuilding(f, w, m_range, n_cap):
    report = eliminate_g_subformulas(nnf(f), w)
    cap = default_cap(f, w, n_cap)
    verdicts = []
    for m in range(report.stabilization, report.stabilization + m_range + 1):
        holds = eval_lasso(f, w, m)
        witness = rebuilt_witness(report.formula, w, m, cap)
        if holds and witness is None:
            verdicts.append(PrefixVerdict(m, holds, None, False, cap_too_small=True))
        else:
            verdicts.append(PrefixVerdict(m, holds, witness, holds == (witness is not None)))
    return FinitePrefixReport(f, report.formula, report.stabilization, cap, verdicts)


small_caps = st.one_of(st.none(), st.integers(0, 6))  # small caps are often too small
# A Globally-subformula that first holds after position 0 moves the
# stabilization index; before it, padding entries can read "cap".
prefix_formulas = st.one_of(formulas, st.builds(lambda f, g: Or(f, Next(Globally(g))), formulas,
                                                st.sampled_from([Atom("a"), Atom("b")])))
prefix_lassos = st.one_of(lassos, st.builds(lambda u, c, k: lasso(u, c * k, AB), st.text("ab", min_size=1, max_size=4),
                                            st.sampled_from("ab"), st.integers(1, 3)))


@settings(PROPERTY, max_examples=600)
@given(f=prefix_formulas, w=prefix_lassos, n_range=st.integers(0, 8), n_cap=small_caps)
def test_padding_check_equals_the_prefix_rebuild_loop(f, w, n_range, n_cap):
    try:
        table = padding_check(f, w, n_range=n_range, n_cap=n_cap)
        got = table.entries, table.cap, table.stabilization
    except CapTooSmall as e:
        got = ("CapTooSmall", e.position, e.cap)
    assert got == padding_by_rebuilding(f, w, n_range, n_cap)


@settings(PROPERTY, max_examples=600)
@given(f=prefix_formulas, w=prefix_lassos, m_range=st.integers(0, 8), n_cap=small_caps)
def test_check_finite_prefix_theorem_equals_the_prefix_rebuild_loop(f, w, m_range, n_cap):
    got = check_finite_prefix_theorem(f, w, m_range=m_range, n_cap=n_cap)
    assert got == theorem_by_rebuilding(f, w, m_range, n_cap)


def test_an_empty_range_evaluates_nothing():
    # the atom c is not a letter of the word, so building its table raises;
    # an empty range of positions builds none
    f, w = parse_formula("c"), lasso("", "ab")
    assert padding_check(f, w, n_range=-1).entries == []
    assert check_finite_prefix_theorem(f, w, m_range=-1).verdicts == []
    with pytest.raises(AlphabetMismatch):
        padding_check(f, w, n_range=0)
    with pytest.raises(AlphabetMismatch):
        check_finite_prefix_theorem(f, w, m_range=0)
