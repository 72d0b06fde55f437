"""Finite and Büchi automata over (product) alphabets, and language
membership relative to a fixed infinite advice word.

Three membership modes are supported: terminating (a DFA reads the input
convolved with the advice prefix of equal length), non-terminating and
omega (a Büchi automaton reads the full convolution; decided exactly when
the advice is a lasso).
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import AdviceNotLasso, AlphabetMismatch, NotProductAlphabet
from .words import (
    Alphabet,
    FiniteWord,
    InfiniteWord,
    LassoWord,
    PAD,
    convolve_lassos,
)


class Dfa:
    def __init__(self, states, initial, accepting, alphabet: Alphabet, transitions):
        self.states = frozenset(states)
        if initial not in self.states:
            raise ValueError("initial state not in state set")
        self.initial = initial
        self.accepting = frozenset(accepting)
        if not self.accepting <= self.states:
            raise ValueError("accepting states not in state set")
        self.alphabet = alphabet
        self.transitions = dict(transitions)
        for (q, a), q2 in self.transitions.items():
            if q not in self.states or q2 not in self.states:
                raise ValueError("transition leaves the state set")
            if a not in alphabet:
                raise ValueError(f"transition letter {a!r} not in the alphabet")

    def step(self, q, letter):
        return self.transitions.get((q, letter))

    def accepts(self, letters) -> bool:
        q = self.initial
        for a in letters:
            q = self.step(q, a)
            if q is None:
                return False
        return q in self.accepting

    def completed(self) -> "Dfa":
        """Total version: missing transitions go to a fresh rejecting sink."""
        if all((q, a) in self.transitions for q in self.states for a in self.alphabet.letters):
            return self
        sink = ("sink", len(self.states))
        transitions = dict(self.transitions)
        states = set(self.states) | {sink}
        for q in states:
            for a in self.alphabet.letters:
                transitions.setdefault((q, a), sink)
        return Dfa(states, self.initial, self.accepting, self.alphabet, transitions)


class BuchiAutomaton:
    def __init__(self, states, initial, accepting, alphabet: Alphabet, transitions):
        self.states = frozenset(states)
        self.initial = frozenset(initial)
        if not self.initial:
            raise ValueError("initial state set must be nonempty")
        if not self.initial <= self.states:
            raise ValueError("initial states not in state set")
        self.accepting = frozenset(accepting)
        self.alphabet = alphabet
        self.transitions = {k: frozenset(v) for k, v in dict(transitions).items()}
        for (q, a), qs in self.transitions.items():
            if q not in self.states or not qs <= self.states:
                raise ValueError("transition leaves the state set")
            if a not in alphabet:
                raise ValueError(f"transition letter {a!r} not in the alphabet")

    def post(self, q, letter):
        return self.transitions.get((q, letter), frozenset())


@dataclass(frozen=True)
class AdviceLanguage:
    mode: str  # "terminating" | "nonterminating" | "omega"
    recognizer: object
    advice: InfiniteWord

    def __post_init__(self):
        if self.mode not in ("terminating", "nonterminating", "omega"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "terminating" and not isinstance(self.recognizer, Dfa):
            raise ValueError("terminating mode needs a Dfa recognizer")
        if self.mode != "terminating" and not isinstance(self.recognizer, BuchiAutomaton):
            raise ValueError("omega modes need a Büchi recognizer")


def _check_track(recognizer_alphabet: Alphabet, track: int, letters):
    parts = recognizer_alphabet.parts
    if parts is None:
        raise NotProductAlphabet("recognizer alphabet is not a product")
    for a in letters:
        if a is not PAD and a not in parts[track]:
            raise AlphabetMismatch(
                f"letter {a!r} not in track {track} of the recognizer alphabet"
            )


def member_terminating(lang: AdviceLanguage, w: FiniteWord) -> bool:
    """True iff the DFA accepts w convolved with the advice prefix |w|."""
    dfa: Dfa = lang.recognizer
    _check_track(dfa.alphabet, 0, w.letters)
    pairs = ((w[i], lang.advice.letter(i)) for i in range(len(w)))
    return dfa.accepts(pairs)


def buchi_lasso_accepts(b: BuchiAutomaton, w: LassoWord) -> bool:
    """Exact acceptance of an ultimately periodic word.

    Unrolls the preperiod, then makes one iterative Tarjan pass over the
    reachable nodes (state, period position): the word is accepted iff a
    strongly connected component holds an accepting state and a cycle
    (two or more nodes, or a self-loop). Linear in the nodes and edges.
    """
    for a in list(w.u.letters) + list(w.v.letters):
        if a not in b.alphabet and a is not PAD:
            raise AlphabetMismatch(f"letter {a!r} not in the automaton alphabet")
    current = set(b.initial)
    for a in w.u.letters:
        current = {q2 for q in current for q2 in b.post(q, a)}
        if not current:
            return False
    period = w.v.letters
    m = len(period)

    def succ(node):
        q, i = node
        return [(q2, (i + 1) % m) for q2 in b.post(q, period[i])]

    order: dict = {}  # node -> discovery number
    low: dict = {}  # node -> least discovery number it reaches on the stack
    stack: list = []  # nodes of components not yet closed
    on_stack: set = set()
    for q0 in current:
        root = (q0, 0)
        if root in order:
            continue
        order[root] = low[root] = len(order)
        stack.append(root)
        on_stack.add(root)
        path = [(root, iter(succ(root)))]
        while path:
            node, todo = path[-1]
            for nxt in todo:
                if nxt not in order:
                    order[nxt] = low[nxt] = len(order)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    path.append((nxt, iter(succ(nxt))))
                    break
                if nxt in on_stack and order[nxt] < low[node]:
                    low[node] = order[nxt]
            else:
                path.pop()
                if path and low[node] < low[path[-1][0]]:
                    low[path[-1][0]] = low[node]
                if low[node] != order[node]:
                    continue
                component = []
                while not component or component[-1] != node:
                    component.append(stack.pop())
                on_stack.difference_update(component)
                if any(q in b.accepting for q, _ in component) and (
                        len(component) > 1 or node in succ(node)):
                    return True
    return False


def member_nonterminating(lang: AdviceLanguage, w: FiniteWord) -> bool:
    """True iff the Büchi recognizer accepts (w·PAD^ω) ⊗ advice.

    Decidable because the advice is required to be a lasso.
    """
    if not isinstance(lang.advice, LassoWord):
        raise AdviceNotLasso("non-terminating membership needs lasso advice")
    b: BuchiAutomaton = lang.recognizer
    _check_track(b.alphabet, 0, w.letters)
    return buchi_lasso_accepts(b, convolve_lassos(w, lang.advice))


def member_omega(lang: AdviceLanguage, w: LassoWord) -> bool:
    """Membership of an ultimately periodic word in an omega advice language."""
    if not isinstance(lang.advice, LassoWord):
        raise AdviceNotLasso("omega membership needs lasso advice")
    return buchi_lasso_accepts(lang.recognizer, convolve_lassos(w, lang.advice))


def pref_advice_automaton(sigma: Alphabet) -> Dfa:
    """Two-state DFA over sigma×sigma accepting exactly the advice prefixes.

    With advice α, terminating membership yields {α[:n] | n >= 0}.
    """
    alphabet = Alphabet.product(sigma, sigma, pad=False)
    live, dead = "live", "dead"
    transitions = {}
    for a in sigma.letters:
        for c in sigma.letters:
            transitions[(live, (a, c))] = live if a == c else dead
            transitions[(dead, (a, c))] = dead
    return Dfa({live, dead}, live, {live}, alphabet, transitions)


def dfa_boolean(a: Dfa, b: Dfa | None, op: str) -> Dfa:
    """Boolean combinations: 'and', 'or' on two DFAs, 'not' on the first."""
    if op == "not":
        total = a.completed()
        return Dfa(
            total.states,
            total.initial,
            total.states - total.accepting,
            total.alphabet,
            total.transitions,
        )
    if b is None:
        raise ValueError("binary operation needs two automata")
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch("boolean combination needs a common alphabet")
    ta, tb = a.completed(), b.completed()
    states = {(p, q) for p in ta.states for q in tb.states}
    transitions = {}
    for p in ta.states:
        for q in tb.states:
            for letter in ta.alphabet.letters:
                transitions[((p, q), letter)] = (
                    ta.transitions[(p, letter)],
                    tb.transitions[(q, letter)],
                )
    if op == "and":
        accepting = {(p, q) for p in ta.accepting for q in tb.accepting}
    elif op == "or":
        accepting = {
            (p, q)
            for p in ta.states
            for q in tb.states
            if p in ta.accepting or q in tb.accepting
        }
    else:
        raise ValueError(f"unknown boolean operation {op!r}")
    return Dfa(states, (ta.initial, tb.initial), accepting, ta.alphabet, transitions)


def project_track(b: BuchiAutomaton, keep: int) -> BuchiAutomaton:
    """Existentially project a product-alphabet automaton onto one track."""
    parts = b.alphabet.parts
    if parts is None:
        raise NotProductAlphabet("projection needs a product alphabet")
    track = parts[keep]
    transitions: dict = {}
    for (q, letter), qs in b.transitions.items():
        a = letter[keep]
        if a is PAD:
            continue
        key = (q, a)
        transitions[key] = frozenset(transitions.get(key, frozenset()) | qs)
    return BuchiAutomaton(b.states, b.initial, b.accepting, track, transitions)
