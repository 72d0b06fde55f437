"""Property tests: run engines against naive references on random machines."""
from __future__ import annotations

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advicebench import corpus
from advicebench.advice import Dfa
from advicebench.errors import (
    BudgetExceeded,
    MovedLeftOfEndmarker,
    NonProductive,
    NoWindowBound,
    UndefinedTransition,
    UnstableClassification,
    ValidationFailed,
)
from advicebench.mealy import MealyMachine, mealy_image_lasso, run_mealy
from advicebench.pi_transforms import direction_partition, one_way_simulation_on_pi
from advicebench.sst import (
    Reg,
    SimpleSst,
    Substitution,
    compile_sst_to_2wftb,
    eliminate_lookbehind_lasso,
    run_sst,
)
from advicebench.transducers import (
    ENDMARKER,
    LEFT,
    RIGHT,
    FiniteImage,
    LookbehindTransducer,
    OneWayTransducer,
    TwoWayTransducer,
    _settle_test,
    _walk,
    lasso_image,
    remove_endmarker,
    run_1wft,
    run_2wft,
    run_2wft_b,
)
from advicebench.words import BINARY, Alphabet, LassoWord, lasso, pi_word

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
def two_way_machines(draw, marker_moves=(LEFT, RIGHT)):
    """Random 2wft; ``marker_moves`` are the moves allowed on the endmarker."""
    states = range(draw(st.integers(1, 3)))
    tr = {}
    for q in states:
        for a in AB.letters + (ENDMARKER,):
            if defined(draw):
                move = draw(st.sampled_from(marker_moves if a is ENDMARKER else (LEFT, RIGHT)))
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


@st.composite
def endmarker_bouncers(draw):
    """A random 2wft entered through up to three bounces off the endmarker,
    so that its run reads the endmarker several times before it leaves."""
    base = draw(two_way_machines(marker_moves=(RIGHT,)))
    bounces = draw(st.integers(0, 3))
    tr = dict(base.transitions)
    for i in range(bounces):
        back = ("back", i + 1) if i + 1 < bounces else base.initial
        tr[(("back", i), ENDMARKER)] = (tuple(draw(outputs)), RIGHT, ("turn", i))
        for a in AB.letters:
            tr[(("turn", i), a)] = (tuple(draw(outputs)), LEFT, back)
    states = set(base.states) | {q for q, _a in tr}
    initial = ("back", 0) if bounces else base.initial
    return TwoWayTransducer(states, initial, AB, AB, tr)


def halt_kind(halt):
    return None if halt is None else type(halt)


@PROPERTY
@given(machine=endmarker_bouncers(), w=lassos)
def test_remove_endmarker_refuses_or_keeps_the_output(machine, w):
    try:
        trimmed = remove_endmarker(machine, w, budget=2000)
    except (BudgetExceeded, UndefinedTransition, MovedLeftOfEndmarker, ValidationFailed):
        return
    want, halt = run_2wft(machine, w, budget=2000).try_letters(LETTERS)
    got, trimmed_halt = run_2wft(trimmed, w, budget=2000).try_letters(LETTERS)
    assert got == want
    assert halt_kind(trimmed_halt) is halt_kind(halt)


@PROPERTY
@given(machine=two_way_machines(), w=lassos)
def test_trivial_lookbehind_runs_like_the_plain_machine(machine, w):
    want, halt = run_2wft(machine, w, budget=BUDGET).try_letters(LETTERS)
    wrapped = corpus.with_trivial_lookbehind(machine)
    got, got_halt = run_2wft_b(wrapped, w, budget=BUDGET).try_letters(LETTERS)
    assert got == want
    assert halt_kind(got_halt) is halt_kind(halt)
    if halt is not None:
        assert got_halt.step == halt.step
    if isinstance(halt, UndefinedTransition):
        assert got_halt.position == halt.position
        assert got_halt.detail == halt.detail + ("z",)  # the oracle's one state


SWAP = {"a": "b", "b": "a"}


def with_parity_lookbehind(t):
    """t as a lookbehind machine whose oracle counts a's modulo 2; after an
    odd count it swaps the letters it outputs. Its run is periodic with the
    oracle's cycle, which can be twice the input's period."""
    oracle = Dfa({0, 1}, 0, frozenset(), AB, {(z, a): (z + (a == "a")) % 2 for z in (0, 1) for a in "ab"})
    tr = {}
    for (q, a), (out, move, q2) in t.transitions.items():
        tr[(q, a, 0)] = (out, move, q2)
        tr[(q, a, 1)] = (tuple(SWAP[x] for x in out), move, q2)
    return LookbehindTransducer(t.states, t.initial, AB, AB, tr, oracle)


def assert_image_is_the_run(image, run, n=500):
    got, halt = run.try_letters(n)
    if isinstance(image, LassoWord):
        assert (got, halt) == ([image.letter(i) for i in range(n)], None)
        return
    assert isinstance(image, FiniteImage)
    assert got == list(image.word.letters[:n])
    if len(image.word) >= n:
        assert halt is None
    elif isinstance(image.reason, NonProductive):
        assert isinstance(halt, BudgetExceeded) and image.reason.prefix == image.word.letters
    else:
        assert type(halt) is type(image.reason) and halt.args == image.reason.args


@settings(PROPERTY, max_examples=400)
@given(machine=st.one_of(two_way_machines(), two_way_machines(marker_moves=(RIGHT,))), w=lassos)
def test_lasso_image_is_the_raw_run(machine, w):
    # the raw runs get a budget far above any gap between letters of a
    # settled run of these machines, so a BudgetExceeded there is a stall
    assert_image_is_the_run(lasso_image(machine, w), run_2wft(machine, w, budget=2000))
    for wrapped in (corpus.with_trivial_lookbehind(machine), with_parity_lookbehind(machine)):
        assert_image_is_the_run(lasso_image(wrapped, w), run_2wft_b(wrapped, w, budget=2000))


@settings(PROPERTY, max_examples=250)
@given(machine=one_way_machines(), w=lassos)
def test_one_way_lasso_image_is_the_raw_run(machine, w):
    # a one-way run on these lassos closes its cycle within 19 letters,
    # so BUDGET steps without a letter is a stall
    assert_image_is_the_run(lasso_image(machine, w), run_1wft(machine, w, budget=BUDGET))


@st.composite
def mealy_machines(draw):
    states = range(draw(st.integers(1, 4)))
    return MealyMachine(states, 0, AB, AB, {
        (q, a): (draw(st.sampled_from("ab")), draw(st.sampled_from(states)))
        for q in states for a in AB.letters})


@PROPERTY
@given(machine=mealy_machines(), w=lassos)
def test_mealy_image_lasso_is_canonical(machine, w):
    image = mealy_image_lasso(machine, w)
    canonical = image.canonical()
    assert (image.u, image.v) == (canonical.u, canonical.v)
    assert_image_is_the_run(image, run_mealy(machine, w))


@settings(PROPERTY, max_examples=300)
@given(machine=two_way_machines(marker_moves=(RIGHT,)), w=lassos)  # more runs get past the marker
def test_a_settled_run_never_halts_and_never_returns(machine, w):
    out: list = []
    low, per = len(w.u) + 1, len(w.v)
    settled = _settle_test(low, per, out)
    walk = _walk(machine, w, out)
    seen = []  # (state, pos, letters so far) of every step
    try:
        for state, pos in islice(walk, 500):
            seen.append((state, pos, len(out)))
            cut = settled(state, pos)
            if cut is not None:
                break
        else:
            return
    except (UndefinedTransition, MovedLeftOfEndmarker):
        return
    # the loop closed is one of the definition: from (state, p) with p >= low
    # to (state, pos), pos ≡ p (mod per), and no position below p in between
    assert any(q == state and p >= low and (pos - p) % per == 0 and n == cut
               and all(later >= p for _q, later, _n in seen[i + 1:])
               for i, (q, p, n) in enumerate(seen[:-1]))
    # from here on the run repeats that loop, shifted
    loop = out[cut:]
    for _state, pos in islice(walk, 3000):
        assert pos >= low
    if loop:
        assert out[cut:] == (loop * (len(out) // len(loop) + 1))[:len(out) - cut]
    else:
        assert len(out) == cut


@settings(PROPERTY, max_examples=40)
@given(s=simple_ssts(), w=lassos)
def test_unlookbehind_of_a_compiled_sst_refuses_or_runs_like_the_sst(s, w):
    try:
        plain = eliminate_lookbehind_lasso(compile_sst_to_2wftb(s), w)
    except (BudgetExceeded, UndefinedTransition, MovedLeftOfEndmarker, ValidationFailed):
        return
    got = run_2wft(plain, w, budget=5000).try_letters(LETTERS)[0]
    assert got == run_sst(s, w, budget=5000).try_letters(LETTERS)[0]


@st.composite
def normalized_pi_machines(draw):
    """Random direction-normalized 2wft on the block word: each state moves
    one way, '0' steps keep that way and every move enters a state of its
    own direction. '0' steps are always defined and emit, so that a run
    crossing blocks yields 1000 letters within the first few dozen."""
    moves = draw(st.lists(st.sampled_from((RIGHT, LEFT)), min_size=1, max_size=4))
    movers = {m: [q for q, mq in enumerate(moves) if mq == m] for m in (LEFT, RIGHT)}
    turns = [m for m in (RIGHT, LEFT) if movers[m]]
    tr = {}
    for q, mq in enumerate(moves):
        tr[(q, "0")] = (tuple(draw(st.lists(st.sampled_from("ab"), min_size=1, max_size=2))),
                        mq, draw(st.sampled_from(movers[mq])))
        if defined(draw):
            move = draw(st.sampled_from(turns))
            tr[(q, "1")] = (tuple(draw(outputs)), move, draw(st.sampled_from(movers[move])))
        if movers[RIGHT] and defined(draw):
            tr[(q, ENDMARKER)] = (tuple(draw(outputs)), RIGHT, draw(st.sampled_from(movers[RIGHT])))
    return TwoWayTransducer(range(len(moves)), 0, BINARY, AB, tr)


@settings(PROPERTY, max_examples=200)
@given(machine=normalized_pi_machines())
def test_one_way_simulation_on_pi_refuses_or_runs_like_the_machine(machine):
    assert direction_partition(machine) is not None
    try:
        result = one_way_simulation_on_pi(machine)
    except (UnstableClassification, NoWindowBound, ValidationFailed):
        return
    pi = pi_word(1)
    want, halt = run_2wft(machine, pi).try_letters(1000)
    got, got_halt = run_1wft(result.transducer, pi).try_letters(1000)
    assert got == want
    assert halt_kind(got_halt) is halt_kind(halt)
