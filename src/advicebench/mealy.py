"""Deterministic Mealy machines: letter-to-letter transducers on infinite words.

A Mealy machine is a one-way transducer that emits one letter per step, so
runs, composition (``compose_1wft``) and lasso images (``lasso_image``) are
those of transducers. This module adds the extraction of a Mealy machine
from a deterministic automaton that recognizes the prefixes of some word
relative to a fixed advice, and the delay machine that rebuilds a word from
its shift.
"""
from __future__ import annotations

from .advice import Dfa
from .errors import ExtractionFailed, NotProductAlphabet
from .transducers import FiniteImage, OneWayTransducer, RunOutcome, lasso_image, run_1wft
from .words import Alphabet, InfiniteWord, LassoWord


class MealyMachine(OneWayTransducer):
    """A 1wft whose every transition emits exactly one letter."""

    def __init__(self, states, initial, input_alphabet: Alphabet, output_alphabet: Alphabet, transitions):
        """transitions: dict mapping (state, input letter) -> (output letter, next state)."""
        super().__init__(states, initial, input_alphabet, output_alphabet,
                         {key: ((out,), q2) for key, (out, q2) in dict(transitions).items()})


def run_mealy(m: MealyMachine, source: InfiniteWord) -> RunOutcome:
    return run_1wft(m, source)


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


def pref_graph_dfa(m: MealyMachine) -> Dfa:
    """DFA over output×input pairs tracing m's runs; all states accepting.

    With advice β, terminating membership gives exactly the prefixes of the
    convolution of m's output on β with β itself.
    """
    alphabet = Alphabet.product(m.output_alphabet, m.input_alphabet, pad=False)
    transitions = {}
    for (q, a), ((out,), q2) in m.transitions.items():
        transitions[(q, (out, a))] = q2
    return Dfa(m.states, m.initial, m.states, alphabet, transitions)


def extract_mealy_from_pref_dfa(a: Dfa, advice: InfiniteWord, probe: int = 500) -> MealyMachine:
    """Read a Mealy machine out of a DFA recognizing Pref(α) relative to advice.

    Steps: trim to accepting states that are reachable within accepting
    states and have an accepting continuation; drop all transitions that
    disagree on the output letter for the same state and advice letter;
    reinterpret what is left as a Mealy machine. The result must stay defined
    along the advice: exactly on a lasso (its lasso image), on other advice
    for ``probe`` letters.
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
    transitions = {key: arrows[0] for key, arrows in grouped.items() if len(arrows) == 1}

    if a.initial not in reach:
        raise ExtractionFailed(0, "initial state does not survive trimming")
    machine = MealyMachine(reach, a.initial, delta, gamma, transitions)

    # validation: the machine must stay defined along the advice
    if isinstance(advice, LassoWord):
        image = lasso_image(machine, advice)
        halt = image.reason if isinstance(image, FiniteImage) else None
    else:
        _letters, halt = run_1wft(machine, advice).try_letters(probe)
    if halt is not None:
        raise ExtractionFailed(halt.position)
    return machine


def mealy_image_lasso(m: MealyMachine, beta: LassoWord) -> LassoWord:
    """Exact canonical lasso form of m's output on an ultimately periodic
    input; raises the halt of a run that stops."""
    image = lasso_image(m, beta)
    if isinstance(image, FiniteImage):
        raise image.reason
    return image
