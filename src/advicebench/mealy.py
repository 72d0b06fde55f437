"""Deterministic Mealy machines: letter-to-letter transducers on infinite words.

Includes the extraction of a Mealy machine from a deterministic automaton
that recognizes the prefixes of some word relative to a fixed advice, the
delay machine that rebuilds a word from its shift, and composition.
"""
from __future__ import annotations

from .advice import Dfa
from .errors import AlphabetMismatch, ExtractionFailed, NotProductAlphabet, UndefinedTransition
from .transducers import _lasso_cycle
from .words import Alphabet, FiniteWord, InfiniteWord, LassoWord


class MealyMachine:
    def __init__(self, states, initial, input_alphabet: Alphabet, output_alphabet: Alphabet, transitions):
        """transitions: dict mapping (state, input letter) -> (output letter, next state)."""
        self.states = frozenset(states)
        if initial not in self.states:
            raise ValueError("initial state not in state set")
        self.initial = initial
        self.input_alphabet = input_alphabet
        self.output_alphabet = output_alphabet
        self.transitions = dict(transitions)
        for (q, a), (out, q2) in self.transitions.items():
            if q not in self.states or q2 not in self.states:
                raise ValueError("transition leaves the state set")
            if a not in input_alphabet:
                raise ValueError(f"input letter {a!r} not in the input alphabet")
            if out not in output_alphabet:
                raise ValueError(f"output letter {out!r} not in the output alphabet")

    def step(self, q, a):
        return self.transitions.get((q, a))


class MealyOutputWord(InfiniteWord):
    """Lazy output stream of a Mealy machine run."""

    def __init__(self, machine: MealyMachine, source: InfiniteWord):
        super().__init__(machine.output_alphabet)
        self.machine = machine
        self.source = source
        self._state = machine.initial

    def _compute(self, n):
        a = self.source.letter(n)
        hit = self.machine.step(self._state, a)
        if hit is None:
            raise UndefinedTransition(n, detail=(self._state, a))
        out, self._state = hit
        return out


def run_mealy(m: MealyMachine, source: InfiniteWord) -> InfiniteWord:
    return MealyOutputWord(m, source)


def delay_mealy(first, gamma: Alphabet) -> MealyMachine:
    """Outputs ``first`` then echoes the previous input letter.

    Applied to the one-step shift of a word whose first letter is ``first``,
    it reconstructs the word itself.
    """
    start = "start"
    states = {start} | {("mem", a) for a in gamma.letters}
    transitions = {}
    for a in gamma.letters:
        transitions[(start, a)] = (first, ("mem", a))
        for b in gamma.letters:
            transitions[(("mem", b), a)] = (b, ("mem", a))
    return MealyMachine(states, start, gamma, gamma, transitions)


def compose_mealy(outer: MealyMachine, inner: MealyMachine) -> MealyMachine:
    """Machine computing outer(inner(·)) via the product of state spaces."""
    if not set(inner.output_alphabet.letters) <= set(outer.input_alphabet.letters):
        raise AlphabetMismatch("outer machine cannot read the inner machine's output")
    transitions = {}
    states = set()
    initial = (inner.initial, outer.initial)
    frontier = [initial]
    states.add(initial)
    while frontier:
        qi, qo = frontier.pop()
        for a in inner.input_alphabet.letters:
            hit = inner.step(qi, a)
            if hit is None:
                continue
            mid, qi2 = hit
            hit2 = outer.step(qo, mid)
            if hit2 is None:
                continue
            out, qo2 = hit2
            nxt = (qi2, qo2)
            transitions[((qi, qo), a)] = (out, nxt)
            if nxt not in states:
                states.add(nxt)
                frontier.append(nxt)
    return MealyMachine(states, initial, inner.input_alphabet, outer.output_alphabet, transitions)


def pref_graph_dfa(m: MealyMachine) -> Dfa:
    """DFA over output×input pairs tracing m's runs; all states accepting.

    With advice β, terminating membership gives exactly the prefixes of the
    convolution of m's output on β with β itself.
    """
    alphabet = Alphabet.product(m.output_alphabet, m.input_alphabet, pad=False)
    transitions = {}
    for (q, a), (out, q2) in m.transitions.items():
        transitions[(q, (out, a))] = q2
    return Dfa(m.states, m.initial, m.states, alphabet, transitions)


def extract_mealy_from_pref_dfa(a: Dfa, advice: InfiniteWord, probe: int = 500) -> MealyMachine:
    """Read a Mealy machine out of a DFA recognizing Pref(α) relative to advice.

    Steps: trim to accepting states that are reachable within accepting
    states and have an accepting continuation; drop all transitions that
    disagree on the output letter for the same state and advice letter;
    reinterpret what is left as a Mealy machine. The result is validated by
    running it on the advice for ``probe`` letters.
    """
    parts = a.alphabet.parts
    if parts is None or len(parts) != 2:
        raise NotProductAlphabet("extraction needs a DFA over output×advice pairs")
    gamma, delta = parts

    # keep accepting states with an accepting continuation (greatest fixpoint)
    live = set(a.accepting)
    changed = True
    while changed:
        changed = False
        for q in list(live):
            if not any(
                a.transitions.get((q, letter)) in live for letter in a.alphabet.letters
            ):
                live.discard(q)
                changed = True
    # ... and reachable from the initial state within that set
    reach = set()
    if a.initial in live:
        frontier = [a.initial]
        reach.add(a.initial)
        while frontier:
            q = frontier.pop()
            for letter in a.alphabet.letters:
                q2 = a.transitions.get((q, letter))
                if q2 in live and q2 not in reach:
                    reach.add(q2)
                    frontier.append(q2)

    # group surviving transitions by (state, advice letter); conflicts are removed
    grouped: dict = {}
    for (q, letter), q2 in a.transitions.items():
        if q not in reach or q2 not in reach:
            continue
        out, adv = letter
        grouped.setdefault((q, adv), []).append((out, q2))
    transitions = {}
    for (q, adv), arrows in grouped.items():
        if len(arrows) != 1:
            continue
        out, q2 = arrows[0]
        transitions[((q, adv))] = (out, q2)
    mealy_transitions = {(q_adv[0], q_adv[1]): v for q_adv, v in transitions.items()}

    if a.initial not in reach:
        raise ExtractionFailed(0, "initial state does not survive trimming")
    machine = MealyMachine(reach, a.initial, delta, gamma, mealy_transitions)

    # validation probe: the machine must stay defined along the advice
    q = machine.initial
    for n in range(probe):
        hit = machine.step(q, advice.letter(n))
        if hit is None:
            raise ExtractionFailed(n)
        _, q = hit
    return machine


def mealy_image_lasso(m: MealyMachine, beta: LassoWord) -> LassoWord:
    """Exact lasso form of m's output on an ultimately periodic input."""
    outputs: list = []

    def step(q, n):
        hit = m.step(q, beta.letter(n))
        if hit is None:
            raise UndefinedTransition(n, detail=(q, beta.letter(n)))
        outputs.append(hit[0])
        return hit[1]

    _states, start, _length = _lasso_cycle(step, m.initial, beta)
    u = FiniteWord(tuple(outputs[:start]), m.output_alphabet)
    v = FiniteWord(tuple(outputs[start:]), m.output_alphabet)
    return LassoWord(u, v)
