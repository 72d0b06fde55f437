"""Property tests: run engines against naive references on random machines."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advicebench.errors import BudgetExceeded, UndefinedTransition
from advicebench.sst import Reg, SimpleSst, Substitution, run_sst
from advicebench.transducers import (
    ENDMARKER,
    LEFT,
    RIGHT,
    OneWayTransducer,
    TwoWayTransducer,
    run_1wft,
    run_2wft,
)
from advicebench.words import Alphabet, lasso

AB = Alphabet.of("ab")
LETTERS = 300
BUDGET = 60  # steps between letters; small, so that stalls show quickly

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

outputs = st.lists(st.sampled_from("ab"), max_size=2)
lassos = st.builds(lasso, st.text("ab", max_size=4), st.text("ab", min_size=1, max_size=5),
                   st.just(AB))


def defined(draw):
    """Most transitions exist; a few are missing, so that runs can halt."""
    return draw(st.integers(0, 9)) > 0


@st.composite
def copyless_updates(draw, names):
    """Random update with each register used at most once and out ↦ out·w."""
    rhs = {name: draw(outputs) for name in names}
    for name in names[1:]:
        target = draw(st.sampled_from((None,) + names))
        if target is not None:
            rhs[target].insert(draw(st.integers(0, len(rhs[target]))), Reg(name))
    rhs["out"].insert(0, Reg("out"))
    return Substitution({name: tuple(tokens) for name, tokens in rhs.items()})


@st.composite
def simple_ssts(draw):
    states = range(draw(st.integers(1, 3)))
    names = ("out",) + tuple(f"r{i}" for i in range(draw(st.integers(0, 3))))
    transitions, updates = {}, {}
    for q in states:
        for a in AB.letters:
            if defined(draw):
                transitions[(q, a)] = draw(st.sampled_from(states))
                updates[(q, a)] = draw(copyless_updates(names))
    return SimpleSst(states, 0, AB, AB, names, transitions, updates)


def naive_sst(s, w, n, budget):
    """Reference run: every register re-grounded from scratch on every step.

    Returns (first n letters, halt type or None, steps taken).
    """
    values = {name: [] for name in s.registers}
    state, steps, spent = s.initial, 0, 0
    while len(values[s.out]) < n:
        if spent >= budget:
            return values[s.out][:n], BudgetExceeded, steps
        key = (state, w.letter(steps))
        if key not in s.transitions:
            return values[s.out][:n], UndefinedTransition, steps
        before = len(values[s.out])
        sub = s.updates[key]
        values = {
            name: [x for tok in sub.rhs(name)
                   for x in (values[tok.name] if isinstance(tok, Reg) else (tok,))]
            for name in s.registers
        }
        state = s.transitions[key]
        steps += 1
        spent = 0 if len(values[s.out]) > before else spent + 1
    return values[s.out][:n], None, steps


@PROPERTY
@given(s=simple_ssts(), w=lassos)
def test_run_sst_matches_naive_regrounding(s, w):
    got, halt = run_sst(s, w, budget=BUDGET).try_letters(LETTERS)
    want, want_halt, steps = naive_sst(s, w, LETTERS, BUDGET)
    assert got == want
    assert (None if halt is None else type(halt)) is want_halt
    if halt is not None:
        assert halt.step == steps


@st.composite
def one_way_machines(draw):
    states = range(draw(st.integers(1, 3)))
    tr = {}
    for q in states:
        for a in AB.letters:
            if defined(draw):
                tr[(q, a)] = (tuple(draw(outputs)), draw(st.sampled_from(states)))
    return OneWayTransducer(states, 0, AB, AB, tr)


@st.composite
def two_way_machines(draw):
    states = range(draw(st.integers(1, 3)))
    tr = {}
    for q in states:
        for a in AB.letters + (ENDMARKER,):
            if defined(draw):
                move = draw(st.sampled_from((LEFT, RIGHT)))
                tr[(q, a)] = (tuple(draw(outputs)), move, draw(st.sampled_from(states)))
    return TwoWayTransducer(states, 0, AB, AB, tr)


@PROPERTY
@given(machine=st.one_of(one_way_machines(), two_way_machines()), w=lassos)
def test_outcome_word_reads_like_try_letters(machine, w):
    run = run_1wft if isinstance(machine, OneWayTransducer) else run_2wft
    want, halt = run(machine, w, budget=BUDGET).try_letters(LETTERS)
    view = run(machine, w, budget=BUDGET).word
    assert [view.letter(i) for i in range(len(want))] == want
    if halt is not None:
        with pytest.raises(type(halt)) as err:
            view.letter(len(want))
        assert err.value.args == halt.args
