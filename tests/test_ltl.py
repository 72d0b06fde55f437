from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advicebench.analysis import padding_check
from advicebench.errors import AdviceNotLasso, AlphabetMismatch, CapTooSmall, NotGFree, NotInNnf, ParseError
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
    _lasso_table,
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
from advicebench.words import Alphabet, FiniteWord, lasso, pi_word, shift, word

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


def fixpoint_table(f, w):
    """Independent oracle: truth at every node of the lasso graph of w,
    each Until iterated up from all false and each Globally down from all
    true until nothing changes."""
    pre = len(w.u)
    letters = w.take(pre + len(w.v))
    succ = [*range(1, len(letters)), pre]

    def iterate(local, x):
        while (y := [local(i, x[j]) for i, j in enumerate(succ)]) != x:
            x = y
        return x

    def table(g):
        match g:
            case Atom(a):
                return [x == a for x in letters]
            case Top():
                return [True] * len(letters)
            case Not(c):
                return [not x for x in table(c)]
            case And(l, r):
                return [x and y for x, y in zip(table(l), table(r))]
            case Or(l, r):
                return [x or y for x, y in zip(table(l), table(r))]
            case Next(c):
                t = table(c)
                return [t[j] for j in succ]
            case Until(l, r):
                tl, tr = table(l), table(r)
                return iterate(lambda i, nxt: tr[i] or (tl[i] and nxt), [False] * len(letters))
            case Globally(c):
                t = table(c)
                return iterate(lambda i, nxt: t[i] and nxt, [True] * len(letters))
        raise TypeError

    return table(f)


def as_bits(table):
    """A table of truth values as the int whose bit |uv|-1-i holds node i."""
    return int("".join("1" if x else "0" for x in table), 2)


def twins(u, v):
    """The text lasso u·v^ω and its twin of letter tuples over the same alphabet."""
    w = lasso(u, v)
    return w, lasso(u, v, w.alphabet)


# text lassos, whose periods end in ab, and tuple lassos; periods of up to
# 102 letters span several digits of a Python int
texts = st.text("ab", max_size=6)
periods = st.one_of(st.text("ab", min_size=1, max_size=8), st.text("ab", min_size=25, max_size=100))
long_lassos = st.one_of(st.builds(lambda u, v: lasso(u, v + "ab"), texts, periods),
                        st.builds(lasso, texts, periods, st.just(AB)))
# a c in a formula is a foreign atom on a word without one
abc_formulas = st.recursive(
    st.sampled_from([Atom("a"), Atom("b"), Atom("c"), Top()]),
    lambda inner: st.one_of(
        st.builds(Not, inner), st.builds(Next, inner), st.builds(Globally, inner),
        st.builds(And, inner, inner), st.builds(Or, inner, inner), st.builds(Until, inner, inner),
    ),
    max_leaves=6,
)


@PROPERTY
@given(f=formulas, w=long_lassos)
def test_eval_lasso_is_the_fixpoint_at_every_node_of_long_lassos(f, w):
    want = fixpoint_table(f, w)
    assert _lasso_table(f, w) == as_bits(want)
    pre, per = len(w.u), len(w.v)
    for p in range(pre + 2 * per):  # every node, then once more round the loop
        assert eval_lasso(f, w, p) == want[p if p < pre else pre + (p - pre) % per]


def outcome(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as e:  # noqa: BLE001 - the exception is the outcome compared
        return type(e), str(e)


@PROPERTY
@given(f=abc_formulas, u=st.text("abc", max_size=5), v=st.text("abc", min_size=1, max_size=70),
       n_cap=small_caps)
def test_text_and_tuple_twins_agree(f, u, v, n_cap):
    text, tuples = twins(u, v)
    assert type(text._per) is str and type(tuples._per) is tuple
    normal = nnf(f)
    calls = [
        lambda w: _lasso_table(f, w),
        lambda w: [eval_lasso(f, w, p) for p in range(-1, len(u) + len(v) + 1)],
        lambda w: eliminate_g_subformulas(normal, w),
        lambda w: padding_check(f, w, n_range=5, n_cap=n_cap),
        lambda w: check_finite_prefix_theorem(f, w, m_range=5, n_cap=n_cap),
    ]
    for call in calls:
        assert outcome(lambda: call(text)) == outcome(lambda: call(tuples))


@pytest.mark.parametrize("u, per", [("a", 1), ("ba", 1), ("", 2), ("ab", 2), ("", 30), ("b", 30), ("", 31),
                                    ("ab", 31), ("", 60), ("ba", 60), ("", 61), ("aab", 61)])
def test_pinned_periods_at_digit_boundaries(u, per):
    # the period a^(per-1)·b: one b per loop round, at the loop's last node;
    # CPython keeps 30 bits per int digit
    v = "a" * (per - 1) + "b"
    f = parse_formula("(a U b) & X (a U b) & G F b & !X X a & X !b")
    for w in twins(u, v):
        assert _lasso_table(f, w) == as_bits(fixpoint_table(f, w))
        for sub in (parse_formula("a U b"), parse_formula("X a"), parse_formula("G a"), parse_formula("G F b")):
            assert [eval_lasso(sub, w, p) for p in range(len(u) + 2 * per)] == [
                brute_eval(sub, w, p) for p in range(len(u) + 2 * per)]


def test_until_whose_only_witness_lies_in_the_next_loop_round():
    # b only at the first loop node: from every later loop node the witness
    # is one round on, through the last node's step back to node |u|
    f = parse_formula("a U b")
    for w in twins("aa", "b" + "a" * 40):
        assert all(eval_lasso(f, w, p) for p in range(90))
    for w in twins("", "ba" + "c" * 30 + "a" * 30):  # a c blocks the way round
        assert [eval_lasso(f, w, p) for p in range(64)] == [True, False] + [False] * 30 + [True] * 30 + [True, False]


def test_globally_whose_one_false_letter_is_the_last_of_the_preperiod():
    f = parse_formula("G a")
    for w in twins("aaab", "a" * 31):
        assert [eval_lasso(f, w, p) for p in range(40)] == [False] * 4 + [True] * 36
        report = eliminate_g_subformulas(f, w)
        assert report.verdicts[f] == (True, 4) and report.stabilization == 4
    for v in ("a" * 30 + "b", "b" + "a" * 30):  # a false loop letter, last or first, makes it false everywhere
        for w in twins("aaab", v):
            assert not any(eval_lasso(f, w, p) for p in range(70))
            assert eliminate_g_subformulas(f, w).verdicts[f] == (False, None)


def test_next_wraps_from_the_last_node_to_the_first_loop_node():
    f = parse_formula("X a")
    for w in twins("bb", "a" + "b" * 60):
        assert [eval_lasso(f, w, p) for p in range(64)] == [False, True] + [False] * 60 + [True, False]
    for w in twins("", "a"):
        assert eval_lasso(f, w, 0) and eval_lasso(parse_formula("G a"), w, 5)


def test_a_negative_position_raises_as_a_negative_letter_index_does():
    for w in (lasso("", "ab"), lasso("ab", "ab"), lasso("", "ab", AB)):
        for p in (-1, -2):
            with pytest.raises(IndexError, match="letter index must be nonnegative"):
                eval_lasso(parse_formula("a"), w, p)


@pytest.mark.parametrize("w", [pi_word(1), shift(lasso("", "ab"), 1)], ids=["pi", "shift"])
def test_a_word_that_is_not_a_lasso_raises_before_any_other_check(w):
    foreign, not_nnf = parse_formula("c"), Not(Until(Atom("a"), Atom("b")))
    calls = [
        lambda: eval_lasso(foreign, w, -1),
        lambda: eliminate_g_subformulas(not_nnf, w),
        lambda: padding_check(foreign, w, n_range=-1),
        lambda: check_finite_prefix_theorem(foreign, w, m_range=-1),
    ]
    for call in calls:
        with pytest.raises(AdviceNotLasso):
            call()
