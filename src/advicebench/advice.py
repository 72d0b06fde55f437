"""Finite and Büchi automata over (product) alphabets, and language
membership relative to a fixed infinite advice word.

Three membership modes are supported: terminating (a DFA reads the input
convolved with the advice prefix of equal length), non-terminating and
omega (a Büchi automaton reads the full convolution; decided exactly when
the advice is a lasso).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    """A deterministic automaton, compiled once into integers: states are
    numbered in ``names`` (``index`` maps a state to its number), and
    ``rows[i]`` maps a letter to the number of state i's successor on it.
    ``transitions`` is the named form, ``{(state, letter): state}``."""

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
        self.names = tuple(self.states)
        self.index = index = {q: i for i, q in enumerate(self.names)}
        self.rows = rows = [{} for _ in self.names]
        for (q, a), q2 in self.transitions.items():
            i, j = index.get(q), index.get(q2)
            if i is None or j is None:
                raise ValueError("transition leaves the state set")
            if a not in alphabet:
                raise ValueError(f"transition letter {a!r} not in the alphabet")
            rows[i][a] = j

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
        if all(len(row) == len(self.alphabet) for row in self.rows):
            return self
        sink = ("sink", len(self.states))
        while sink in self.states:
            sink = ("sink", sink[1] + 1)
        transitions = dict(self.transitions)
        states = set(self.states) | {sink}
        for q in states:
            for a in self.alphabet.letters:
                transitions.setdefault((q, a), sink)
        return Dfa(states, self.initial, self.accepting, self.alphabet, transitions)


class BuchiAutomaton:
    """A Büchi automaton, compiled once into integers.

    States are numbered in ``names`` (``index`` maps a state to its number),
    ``final`` holds one accepting flag per number, and ``rows`` maps each
    letter that has a transition to a list with one entry per state number:
    a tuple of successor numbers, or None where no transition is defined.
    """

    def __init__(self, states, initial, accepting, alphabet: Alphabet, transitions):
        self.states = frozenset(states)
        self.initial = frozenset(initial)
        if not self.initial:
            raise ValueError("initial state set must be nonempty")
        if not self.initial <= self.states:
            raise ValueError("initial states not in state set")
        self.accepting = frozenset(accepting)
        self.alphabet = alphabet
        self.names = tuple(self.states)
        self.index = index = {q: i for i, q in enumerate(self.names)}
        self.final = bytearray(q in self.accepting for q in self.names)
        self.rows = rows = {}
        empty = [None] * len(self.names)
        number = index.__getitem__
        try:
            for (q, a), qs in dict(transitions).items():
                i = index[q]
                successors = tuple(map(number, qs))
                row = rows.get(a)
                if row is None:
                    if a not in alphabet:
                        raise ValueError(f"transition letter {a!r} not in the alphabet")
                    row = rows[a] = empty.copy()
                row[i] = successors
        except KeyError:
            raise ValueError("transition leaves the state set") from None

    @cached_property
    def live(self) -> bytearray:
        """One flag per state number: 1 iff the state reaches, whatever the
        letters, a cycle through an accepting state. Decisions enter only
        live states. Computed on the first decision, by one Tarjan pass over
        the letter-free graph: components close sinks first, so a component
        is live when it is a cycle holding an accepting state, or when a
        component it steps into is live."""
        n = len(self.names)
        succ: list = [()] * n
        for q, cells in enumerate(zip(*self.rows.values())):
            succ[q] = {q2 for qs in cells if qs for q2 in qs}
        final = self.final
        live = bytearray(n)
        order = [0] * n
        low = [0] * n
        on_stack = bytearray(n)
        stack: list = []
        count = 0
        for root in range(n):
            if order[root]:
                continue
            count += 1
            order[root] = low[root] = count
            stack.append(root)
            on_stack[root] = 1
            path = [(root, iter(succ[root]))]
            while path:
                node, todo = path[-1]
                for q2 in todo:
                    if not order[q2]:
                        count += 1
                        order[q2] = low[q2] = count
                        stack.append(q2)
                        on_stack[q2] = 1
                        path.append((q2, iter(succ[q2])))
                        break
                    if on_stack[q2] and order[q2] < low[node]:
                        low[node] = order[q2]
                else:
                    path.pop()
                    if path and low[node] < low[path[-1][0]]:
                        low[path[-1][0]] = low[node]
                    if low[node] != order[node]:
                        continue
                    component = [stack.pop()]
                    while component[-1] != node:
                        component.append(stack.pop())
                    for q in component:
                        on_stack[q] = 0
                    cyclic = len(component) > 1 or node in succ[node]
                    if (cyclic and any(final[q] for q in component)
                            or any(live[q2] for q in component for q2 in succ[q])):
                        for q in component:
                            live[q] = 1
        return live

    @property
    def transitions(self) -> dict:
        """``{(state, letter): frozenset of successors}``, rebuilt from the rows."""
        names = self.names
        return {(names[i], a): frozenset(map(names.__getitem__, qs))
                for a, row in self.rows.items() for i, qs in enumerate(row) if qs is not None}

    def post(self, q, letter):
        row, i = self.rows.get(letter), self.index.get(q)
        if row is None or i is None or row[i] is None:
            return frozenset()
        return frozenset(map(self.names.__getitem__, row[i]))


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
    reachable nodes (state, period position), numbered position·|Q| + state:
    the word is accepted iff a cycle runs through an accepting node. Linear
    in the nodes and edges, and it stops as soon as the verdict is proven:

    - it returns True at the first edge back to a node on the DFS path with
      an accepting node on the path at or below that node (Geldenhuys and
      Valmari's early test), or when a component of two or more nodes
      closes with an accepting node, for cycles closed through cross edges;
    - it enters only states in ``b.live``, the states that reach an
      accepting cycle of the letter-free graph, and returns False at once
      when none is left after the preperiod. ``live`` is computed on the
      automaton's first decision and cached.
    """
    for a in list(w.u.letters) + list(w.v.letters):
        if a not in b.alphabet and a is not PAD:
            raise AlphabetMismatch(f"letter {a!r} not in the automaton alphabet")
    n = len(b.names)
    none = [None] * n
    live = b.live
    current = {q for q in map(b.index.__getitem__, b.initial) if live[q]}
    for a in w.u.letters:
        row = b.rows.get(a, none)
        current = {q2 for qs in map(row.__getitem__, current) if qs for q2 in qs if live[q2]}
    if not current:
        return False
    period = w.v.letters
    m = len(period)
    rows = [b.rows.get(a, none) for a in period]  # the row read at each period position
    final = b.final * m  # accepting flag per node
    order = [0] * (m * n)  # node -> discovery number, 0 while undiscovered
    low = [0] * (m * n)  # node -> least discovery number it reaches on the stack
    depth = [0] * (m * n)  # node -> depth on the DFS path, from 1; 0 when off the path
    on_stack = bytearray(m * n)
    stack: list = []  # nodes of components not yet closed
    count = 0
    for root in current:  # node ids at position 0 are the state numbers
        if order[root]:
            continue
        count += 1
        order[root] = low[root] = count
        depth[root] = 1
        stack.append(root)
        on_stack[root] = 1
        # a path entry: node, position of its successors, iterator over their
        # states, and the depth of the deepest accepting node at or above it
        path = [(root, 1 % m, iter(rows[0][root] or ()), 1 if final[root] else 0)]
        while path:
            node, i, todo, deepest = path[-1]
            base = i * n
            for q2 in todo:
                nxt = base + q2
                if not order[nxt]:
                    if not live[q2]:
                        continue
                    count += 1
                    order[nxt] = low[nxt] = count
                    depth[nxt] = len(path) + 1
                    stack.append(nxt)
                    on_stack[nxt] = 1
                    path.append((nxt, i + 1 if i + 1 < m else 0, iter(rows[i][q2] or ()),
                                 depth[nxt] if final[nxt] else deepest))
                    break
                if on_stack[nxt]:
                    if 0 < depth[nxt] <= deepest:  # closes a cycle through an accepting node
                        return True
                    if order[nxt] < low[node]:
                        low[node] = order[nxt]
            else:
                path.pop()
                depth[node] = 0
                if path and low[node] < low[path[-1][0]]:
                    low[path[-1][0]] = low[node]
                if low[node] != order[node]:
                    continue
                top = stack.pop()
                on_stack[top] = 0
                if top == node:  # a singleton: its self-loop, if any, was tested above
                    continue
                accepting = final[top]
                while top != node:
                    top = stack.pop()
                    on_stack[top] = 0
                    accepting = accepting or final[top]
                if accepting:
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
        transitions[key] = transitions.get(key, frozenset()) | qs
    return BuchiAutomaton(b.states, b.initial, b.accepting, track, transitions)
