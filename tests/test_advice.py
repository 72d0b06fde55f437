from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from advicebench.advice import (
    AdviceLanguage,
    BuchiAutomaton,
    Dfa,
    buchi_lasso_accepts,
    dfa_boolean,
    member_nonterminating,
    member_omega,
    member_terminating,
    pref_advice_automaton,
    project_track,
)
from advicebench.documents import dumps, machine_to_doc
from advicebench.errors import AdviceNotLasso, NotProductAlphabet
from advicebench.words import PAD, Alphabet, convolve_lassos, lasso, pi_word, word

AB = Alphabet.of("ab")
BIN = Alphabet.of("01")


def pref_language(alphabet, advice):
    return AdviceLanguage("terminating", pref_advice_automaton(alphabet), advice)


def test_pref_automaton_accepts_exactly_prefixes():
    lang = pref_language(AB, lasso("", "ab"))
    assert member_terminating(lang, word("ab", AB))
    assert not member_terminating(lang, word("ba", AB))
    assert member_terminating(lang, word("", AB))
    lang01 = pref_language(BIN, lasso("", "01"))
    for text, want in [("0", True), ("01", True), ("010", True), ("1", False), ("00", False)]:
        assert member_terminating(lang01, word(text, BIN)) == want


def test_pref_automaton_on_growing_blocks():
    lang = pref_language(BIN, pi_word(1))
    assert member_terminating(lang, word("1010", BIN))
    assert not member_terminating(lang, word("1011", BIN))


def test_full_dfa_accepts_everything():
    full = Dfa({"q"}, "q", {"q"}, Alphabet.product(AB, AB, pad=False),
               {(("q"), (a, b)): "q" for a in "ab" for b in "ab"})
    lang = AdviceLanguage("terminating", full, lasso("", "ab"))
    rng = random.Random(3)
    for _ in range(20):
        text = "".join(rng.choice("ab") for _ in range(rng.randrange(6)))
        assert member_terminating(lang, word(text, AB))


def infinitely_many(letter, alphabet):
    tr = {}
    for a in alphabet.letters:
        tr[("lo", a)] = frozenset({"hi"}) if a == letter else frozenset({"lo"})
        tr[("hi", a)] = frozenset({"hi"}) if a == letter else frozenset({"lo"})
    return BuchiAutomaton({"lo", "hi"}, {"lo"}, {"hi"}, alphabet, tr)


def test_buchi_automaton_checks_its_letters():
    with pytest.raises(ValueError):
        BuchiAutomaton({"q"}, {"q"}, {"q"}, AB, {("q", "c"): {"q"}})


def test_buchi_lasso_textbook_semantics():
    b = infinitely_many("a", AB)
    assert buchi_lasso_accepts(b, lasso("", "ab"))
    assert not buchi_lasso_accepts(b, lasso("a", "b"))


def test_buchi_empty_accepting_set_rejects():
    b = BuchiAutomaton({"q"}, {"q"}, set(), AB, {("q", a): {"q"} for a in "ab"})
    for w in (lasso("", "ab"), lasso("ba", "a")):
        assert not buchi_lasso_accepts(b, w)


def test_buchi_accepting_self_loop_accepts():
    b = BuchiAutomaton({"q"}, {"q"}, {"q"}, AB, {("q", a): {"q"} for a in "ab"})
    assert buchi_lasso_accepts(b, lasso("ab", "ba"))


def brute_force_lasso_accepts(b, w):
    """Independent oracle: explicit run enumeration over an unrolled prefix
    followed by cycle detection on period-aligned layers."""
    pre, per = len(w.u), len(w.v)
    horizon = pre + (len(b.states) + 1) * per
    layers = [set(b.initial)]
    for i in range(horizon):
        nxt = set()
        for q in layers[-1]:
            nxt |= set(b.post(q, w.letter(i)))
        layers.append(nxt)

    def cycle_through(q0, i0):
        # does some run from (q0, i0) revisit (q0, i0) passing an accepting state?
        frontier = {(q0, i0, q0 in b.accepting)}
        seen = set()
        while frontier:
            q, i, hit = frontier.pop()
            for q2 in b.post(q, w.letter(pre + i)):
                i2 = (i + 1) % per
                hit2 = hit or q2 in b.accepting
                if (q2, i2) == (q0, i0) and hit2:
                    return True
                key = (q2, i2, hit2)
                if key not in seen:
                    seen.add(key)
                    frontier.add(key)
        return False

    for layer_index in range(pre, horizon + 1, per):
        for q in layers[layer_index]:
            if cycle_through(q, 0):
                return True
    return False


def random_buchi(rng, alphabet, max_states=6):
    n = rng.randint(1, max_states)
    states = list(range(n))
    tr = {}
    for q in states:
        for a in alphabet.letters:
            succ = {q2 for q2 in states if rng.random() < 0.4}
            if succ:
                tr[(q, a)] = succ
    accepting = {q for q in states if rng.random() < 0.4}
    return BuchiAutomaton(states, {0}, accepting, alphabet, tr)


def test_buchi_lasso_matches_explicit_search():
    rng = random.Random(17)
    for _ in range(60):
        b = random_buchi(rng, AB)
        u = "".join(rng.choice("ab") for _ in range(rng.randrange(3)))
        v = "".join(rng.choice("ab") for _ in range(1, 4))
        w = lasso(u, v, AB)
        assert buchi_lasso_accepts(b, w) == brute_force_lasso_accepts(b, w)


def search_per_accepting_node(b, w):
    """Reference: the reachable (state, period position) nodes, then one
    search per accepting node for a path back to itself. Quadratic in the
    nodes; it was buchi_lasso_accepts before the SCC pass."""
    current = set(b.initial)
    for a in w.u.letters:
        current = {q2 for q in current for q2 in b.post(q, a)}
    period = w.v.letters
    m = len(period)

    def succ(node):
        q, i = node
        return [(q2, (i + 1) % m) for q2 in b.post(q, period[i])]

    reach = {(q, 0) for q in current}
    frontier = list(reach)
    while frontier:
        for nxt in succ(frontier.pop()):
            if nxt not in reach:
                reach.add(nxt)
                frontier.append(nxt)
    for node in reach:
        if node[0] not in b.accepting:
            continue
        seen = set()
        frontier = succ(node)
        while frontier:
            cur = frontier.pop()
            if cur == node:
                return True
            if cur not in seen:
                seen.add(cur)
                frontier.extend(succ(cur))
    return False


@st.composite
def buchi_automata(draw):
    states = list(range(draw(st.integers(1, 6))))
    pick = st.sets(st.sampled_from(states))
    transitions = {}
    for q in states:
        for a in AB.letters:
            targets = draw(pick)
            if targets:
                transitions[(q, a)] = targets
    return BuchiAutomaton(states, draw(st.sets(st.sampled_from(states), min_size=1)), draw(pick),
                          AB, transitions)


lassos = st.builds(lasso, st.text("ab", max_size=3), st.text("ab", min_size=1, max_size=6), st.just(AB))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(b=buchi_automata(), w=lassos)
def test_buchi_lasso_accepts_equals_the_search_per_accepting_node(b, w):
    assert buchi_lasso_accepts(b, w) == search_per_accepting_node(b, w)


PAB = Alphabet.product(AB, AB, pad=True)


@st.composite
def product_buchi_tables(draw):
    """A transition table over PAB with missing and empty entries, and an
    automaton on it with one or more initial states and a possibly empty
    accepting set."""
    states = list(range(draw(st.integers(1, 4))))
    pick = st.sets(st.sampled_from(states))
    table = {(q, a): draw(pick) for q in states for a in PAB.letters if draw(st.booleans())}
    initial = draw(st.sets(st.sampled_from(states), min_size=1))
    return table, BuchiAutomaton(states, initial, draw(pick), PAB, table)


short_lassos = st.builds(lasso, st.text("ab", max_size=2), st.text("ab", min_size=1, max_size=3),
                         st.just(AB))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(machine=product_buchi_tables(), w=short_lassos, text=st.text("ab", max_size=3), advice=short_lassos)
@example(machine=({(0, ("a", "a")): {0}}, BuchiAutomaton([0], [0], [0], PAB, {(0, ("a", "a")): {0}})),
         w=lasso("", "a", AB), text="", advice=lasso("", "a", AB))
@example(machine=({(0, (PAD, "a")): {1}, (1, (PAD, "a")): {1}},
                  BuchiAutomaton([0, 1], [0], [0], PAB, {(0, (PAD, "a")): {1}, (1, (PAD, "a")): {1}})),
         w=lasso("", "a", AB), text="", advice=lasso("", "a", AB))
def test_compiled_buchi_decides_and_rebuilds_like_its_table(machine, w, text, advice):
    """The examples close singleton components on a period of one letter,
    with an accepting self-loop and with an accepting state off the loop."""
    table, b = machine
    omega = AdviceLanguage("omega", b, advice)
    assert member_omega(omega, w) == brute_force_lasso_accepts(b, convolve_lassos(w, advice))
    padded = AdviceLanguage("nonterminating", b, advice)
    finite = word(text, AB)
    assert member_nonterminating(padded, finite) == brute_force_lasso_accepts(
        b, convolve_lassos(finite, advice))
    again = BuchiAutomaton(b.states, b.initial, b.accepting, b.alphabet, b.transitions)
    for q in b.states:
        for a in PAB.letters:
            assert b.post(q, a) == again.post(q, a) == frozenset(table.get((q, a), ()))
    assert dumps(machine_to_doc(again)) == dumps(machine_to_doc(b))


@st.composite
def layered_buchi(draw):
    """Up to 10 states over PAB. States below ``core`` step only to higher
    numbers, so none of them lies on a cycle, accepting or not; the core
    steps only within itself, and may get a ring on some letters. States
    without transitions, and states that reach no accepting cycle, make the
    dead parts."""
    n = draw(st.integers(1, 10))
    core = draw(st.integers(0, n - 1))
    states = list(range(n))
    transitions = {}
    for q in states:
        targets = st.sampled_from(states[core:] if q >= core else states[q + 1:])
        for a in PAB.letters:
            if draw(st.booleans()):
                transitions[(q, a)] = draw(st.sets(targets, min_size=1, max_size=2))
    if core < n and draw(st.booleans()):
        for a in draw(st.sets(st.sampled_from(PAB.letters), min_size=1)):
            for q in range(core, n):
                transitions[(q, a)] = transitions.get((q, a), set()) | {core + (q - core + 1) % (n - core)}
    initial = draw(st.sets(st.sampled_from(states), min_size=1, max_size=2))
    accepting = draw(st.sets(st.sampled_from(states), min_size=1))
    return BuchiAutomaton(states, initial, accepting, PAB, transitions)


def periodic(d):
    return st.builds(lasso, st.text("ab", max_size=3), st.text("ab", min_size=d, max_size=d), st.just(AB))


@st.composite
def lasso_pairs(draw):
    """A word and an advice lasso over AB whose convolution has a period of
    at most 8 letters: both periods divide one p <= 8."""
    p = draw(st.integers(1, 8))
    divisors = st.sampled_from([d for d in range(1, p + 1) if p % d == 0])
    return draw(divisors.flatmap(periodic)), draw(divisors.flatmap(periodic))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(b=layered_buchi(), words=lasso_pairs(), text=st.text("ab", max_size=3))
@example(b=BuchiAutomaton([0, 1, 2], [0], [2], PAB, {(0, ("a", "a")): {1, 2}, (1, ("a", "a")): {0},
                                                     (2, ("a", "a")): {1}}),
         words=(lasso("", "a", AB), lasso("", "a", AB)), text="")
def test_buchi_decision_on_layered_automata_equals_the_explicit_search(b, words, text):
    """Dead parts, accepting states off every cycle and accepting cycles
    exercise the trim, the early accept and the test when a component
    closes. In the example the search goes 0 → 1 → 0, then 0 → 2 → 1: the
    accepting cycle through 2 closes by a cross edge into 1, off the path,
    so only the closing component proves it."""
    w, advice = words
    want = brute_force_lasso_accepts(b, convolve_lassos(w, advice))
    assert buchi_lasso_accepts(b, convolve_lassos(w, advice)) == want
    assert member_omega(AdviceLanguage("omega", b, advice), w) == want
    finite = word(text, AB)
    assert member_nonterminating(AdviceLanguage("nonterminating", b, advice), finite) == \
        brute_force_lasso_accepts(b, convolve_lassos(finite, advice))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(b=st.one_of(layered_buchi(), buchi_automata()))
def test_live_states_reach_an_accepting_cycle(b):
    """live[q] iff q reaches an accepting state f, in zero or more steps on
    any letters, and f reaches itself in one or more."""
    letters = list(b.rows)

    def after(q):
        return {q2 for a in letters for q2 in b.post(q, a)}

    def reach(sources):
        seen, frontier = set(sources), list(sources)
        while frontier:
            for q2 in after(frontier.pop()):
                if q2 not in seen:
                    seen.add(q2)
                    frontier.append(q2)
        return seen

    looping = {f for f in b.accepting if f in reach(after(f))}
    for q in b.states:
        assert b.live[b.index[q]] == bool(reach({q}) & looping)


class CountingRow(list):
    """A compiled successor row that counts its reads."""

    def __init__(self, row, counter):
        super().__init__(row)
        self.counter = counter

    def __getitem__(self, i):
        self.counter.reads += 1
        return super().__getitem__(i)


class CountingBuchi(BuchiAutomaton):
    """Counts successor lookups: reads of the compiled rows and calls of post."""

    reads = 0

    def __init__(self, *args):
        super().__init__(*args)
        self.rows = {a: CountingRow(row, self) for a, row in self.rows.items()}

    def post(self, q, letter):
        self.reads += 1
        return super().post(q, letter)


def hub_and_chain(chain, loop_on=()):
    """A non-accepting hub with a self-loop feeds an accepting chain; the
    last chain state loops to itself on the letters ``loop_on``."""
    names = [f"c{k}" for k in range(chain)]
    transitions = {}
    for a in AB.letters:
        transitions[("hub", a)] = {"hub", names[0]}
        for k in range(chain - 1):
            transitions[(names[k], a)] = {names[k + 1]}
    for a in loop_on:
        transitions[(names[-1], a)] = {names[-1]}
    return CountingBuchi(["hub"] + names, {"hub"}, names, AB, transitions)


@pytest.mark.parametrize("chain", [50, 100, 200])
def test_buchi_decision_is_linear_in_the_reachable_nodes(chain):
    """The chain ends in an accepting self-loop on a only, so every state
    reaches an accepting cycle of the letter-free graph, but (ab)^25 never
    reads a twice in a row, so no accepting cycle exists: the search walks
    the whole chain. A search per accepting node walks the rest of the
    chain from each of its nodes: quadratic in the chain."""
    period = 50
    b = hub_and_chain(chain, loop_on="a")
    assert not buchi_lasso_accepts(b, lasso("", "ab" * (period // 2), AB))
    reachable = period * (chain + 1)  # every state at every period position
    assert 0 < b.reads <= 2 * reachable


@pytest.mark.parametrize("chain", [50, 200])
def test_buchi_decision_without_an_accepting_cycle_reads_no_row(chain):
    """With a dead-end chain no state reaches an accepting cycle, so the
    decision is made before the search reads a successor."""
    b = hub_and_chain(chain)
    assert not any(b.live)
    assert not buchi_lasso_accepts(b, lasso("", "ab" * 25, AB))
    assert not buchi_lasso_accepts(b, lasso("ab", "ba", AB))
    assert b.reads == 0


@pytest.mark.parametrize("accepting", [True, False])
def test_buchi_decision_on_a_long_cycle_needs_no_recursion(accepting):
    """One state on a period of 5000 letters: a cycle of 5000 nodes, deeper
    than the interpreter's default recursion limit."""
    b = BuchiAutomaton({"q"}, {"q"}, {"q"} if accepting else set(), AB,
                       {("q", a): {"q"} for a in AB.letters})
    assert buchi_lasso_accepts(b, lasso("b", "ab" * 2500, AB)) == accepting


def prefix_recognizer(alphabet):
    """Accepts w iff w is a prefix of the advice: equal tracks, then blanks."""
    product = Alphabet.product(alphabet, alphabet, pad=True)
    tr = {}
    for a in alphabet.letters:
        for c in alphabet.letters:
            if a == c:
                tr[("eq", (a, c))] = {"eq"}
        tr[("eq", (PAD, a))] = {"done"}
        tr[("done", (PAD, a))] = {"done"}
    return BuchiAutomaton({"eq", "done"}, {"eq"}, {"done"}, product, tr)


def test_member_nonterminating_prefix_language():
    advice = lasso("", "ab")
    lang = AdviceLanguage("nonterminating", prefix_recognizer(AB), advice)
    assert member_nonterminating(lang, word("aba", AB))
    assert not member_nonterminating(lang, word("abb", AB))
    assert member_nonterminating(lang, word("", AB))


def test_member_nonterminating_requires_lasso_advice():
    lang = AdviceLanguage("nonterminating", prefix_recognizer(BIN), pi_word(1))
    with pytest.raises(AdviceNotLasso):
        member_nonterminating(lang, word("1", BIN))


def test_member_nonterminating_total_recognizer():
    product = Alphabet.product(AB, AB, pad=True)
    tr = {("q", letter): {"q"} for letter in product.letters}
    everything = BuchiAutomaton({"q"}, {"q"}, {"q"}, product, tr)
    lang = AdviceLanguage("nonterminating", everything, lasso("a", "b"))
    for text in ("", "a", "ab", "bbb"):
        assert member_nonterminating(lang, word(text, AB))


def test_member_nonterminating_empty_word_checks_advice_track():
    # on the empty input the recognizer only sees (blank, advice letter) pairs
    product = Alphabet.product(AB, AB, pad=True)
    tr = {}
    for a in AB.letters:
        tr[("q", (PAD, a))] = {"q"} if a == "a" else set()
    only_a_advice = BuchiAutomaton({"q"}, {"q"}, {"q"}, product, tr)
    good = AdviceLanguage("nonterminating", only_a_advice, lasso("", "a"))
    bad = AdviceLanguage("nonterminating", only_a_advice, lasso("", "ab"))
    assert member_nonterminating(good, word("", AB))
    assert not member_nonterminating(bad, word("", AB))


def test_member_nonterminating_invariant_under_rerolling():
    rng = random.Random(23)
    recognizer = prefix_recognizer(AB)
    for _ in range(50):
        u = "".join(rng.choice("ab") for _ in range(rng.randrange(3)))
        v = "".join(rng.choice("ab") for _ in range(1, 4))
        canonical = lasso(u, v, AB)
        # non-canonical spellings of the same word
        unrolled = lasso(u + v, v, AB)
        doubled = lasso(u, v + v, AB)
        for other in (unrolled, doubled):
            assert all(canonical.letter(i) == other.letter(i) for i in range(30))
        text = "".join(rng.choice("ab") for _ in range(rng.randrange(5)))
        w = word(text, AB)
        votes = {
            member_nonterminating(AdviceLanguage("nonterminating", recognizer, advice), w)
            for advice in (canonical, unrolled, doubled)
        }
        assert len(votes) == 1


def random_dfa(rng, alphabet, max_states=5):
    n = rng.randint(1, max_states)
    states = list(range(n))
    tr = {}
    for q in states:
        for a in alphabet.letters:
            if rng.random() < 0.9:
                tr[(q, a)] = rng.choice(states)
    accepting = {q for q in states if rng.random() < 0.5}
    return Dfa(states, 0, accepting, alphabet, tr)


def test_dfa_boolean_algebra():
    rng = random.Random(5)
    for _ in range(20):
        a = random_dfa(rng, AB)
        b = random_dfa(rng, AB)
        both = dfa_boolean(a, b, "and")
        either = dfa_boolean(a, b, "or")
        neither = dfa_boolean(a, None, "not")
        contradiction = dfa_boolean(a, neither, "and")
        de_morgan = dfa_boolean(
            dfa_boolean(dfa_boolean(a, None, "not"), dfa_boolean(b, None, "not"), "or"),
            None,
            "not",
        )
        for _ in range(10):
            text = [rng.choice("ab") for _ in range(rng.randrange(6))]
            assert both.accepts(text) == (a.accepts(text) and b.accepts(text))
            assert either.accepts(text) == (a.accepts(text) or b.accepts(text))
            assert not contradiction.accepts(text)
            assert de_morgan.accepts(text) == both.accepts(text)


def test_the_sink_of_a_completed_dfa_is_a_new_state():
    # the one state is named like the sink that completion used to add
    state = ("sink", 1)
    dfa = Dfa({state}, state, {state}, AB, {(state, "a"): state})
    complement = dfa_boolean(dfa, None, "not")
    assert len(complement.states) == 2
    assert not complement.accepts("aa")
    assert complement.accepts("b") and complement.accepts("ab")


def test_dfa_boolean_idempotent_on_pref():
    pref = pref_advice_automaton(AB)
    either = dfa_boolean(pref, pref, "or")
    advice = lasso("", "ab")
    for text, want in [("a", True), ("ab", True), ("b", False)]:
        lang = AdviceLanguage("terminating", either, advice)
        assert member_terminating(lang, word(text, AB)) == want


def test_project_track_examples():
    product = Alphabet.product(AB, BIN, pad=False)
    tr = {("q", ("a", "0")): {"q"}}
    b = BuchiAutomaton({"q"}, {"q"}, {"q"}, product, tr)
    projected = project_track(b, 0)
    assert buchi_lasso_accepts(projected, lasso("", "a"))
    assert not buchi_lasso_accepts(projected, lasso("", "ab"))

    empty = BuchiAutomaton({"q"}, {"q"}, set(), product, tr)
    projected_empty = project_track(empty, 0)
    for w in (lasso("", "a"), lasso("", "ab")):
        assert not buchi_lasso_accepts(projected_empty, w)


def test_project_track_needs_product_alphabet():
    b = infinitely_many("a", AB)
    with pytest.raises(NotProductAlphabet):
        project_track(b, 0)


def test_member_omega_singleton_language():
    advice = lasso("", "ab")
    product = Alphabet.product(AB, AB, pad=True)
    tr = {("q", (a, a)): {"q"} for a in AB.letters}
    diagonal = BuchiAutomaton({"q"}, {"q"}, {"q"}, product, tr)
    lang = AdviceLanguage("omega", diagonal, advice)
    assert member_omega(lang, lasso("", "ab"))
    assert member_omega(lang, lasso("ab", "ab"))
    assert not member_omega(lang, lasso("", "ba"))
