"""Property tests: run engines against naive references on random machines,
and machine documents through round trips and mutations."""
from __future__ import annotations

import json
from collections import Counter
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from advicebench import corpus, transducers
from advicebench.advice import BuchiAutomaton, Dfa, pref_advice_automaton
from advicebench.analysis import check_subword_bound, subword_complexity
from advicebench.cli import _run_machine
from advicebench.documents import dumps, machine_from_doc, machine_to_doc
from advicebench.errors import (
    AdviceBenchError,
    AlphabetMismatch,
    BlockBudgetExceeded,
    BudgetExceeded,
    InvariantViolation,
    MovedLeftOfEndmarker,
    NoOutputFunction,
    NonProductive,
    NotDeterministic,
    NoWindowBound,
    ParseError,
    UndefinedTransition,
    UnstableClassification,
    ValidationFailed,
)
from advicebench.mealy import MealyMachine, delay_mealy, mealy_image_lasso, pref_graph_dfa, run_mealy
from advicebench.pi_transforms import (
    _classify_excursion,
    _Cross,
    _Return,
    direction_partition,
    normalize_directions_on_pi,
    one_way_simulation_on_pi,
)
from advicebench.sst import (
    Reg,
    SimpleSst,
    Sst,
    Substitution,
    _Registers,
    _walk_limit,
    _walk_sst,
    compile_sst_to_2wftb,
    eliminate_lookbehind_lasso,
    run_sst,
    simplify_to_simple_sst,
)
from advicebench.transducers import (
    DEFAULT_BUDGET,
    ENDMARKER,
    LEFT,
    RIGHT,
    FiniteImage,
    LookbehindTransducer,
    OneWayTransducer,
    TwoWayTransducer,
    _oracle_cycle,
    _resume_2wft,
    _settle_test,
    _walk,
    _walk_one_way,
    compose_1wft,
    lasso_image,
    mirror_blocks_2wft,
    remove_endmarker,
    run_1wft,
    run_2wft,
    run_2wft_b,
)
from advicebench.words import (
    BINARY,
    PAD,
    Alphabet,
    ConstantWord,
    LassoWord,
    block_mirror,
    canonical_lasso,
    convolve_lassos,
    duplicate,
    infer_alphabet,
    lasso,
    pi_word,
    shift,
    word,
)

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


class Value:
    """A register value built by reground: the letters of ``parts`` in
    turn, each part a letter or an older Value, which it shares rather
    than copies, so a step costs the length of its update, not of the
    registers."""

    __slots__ = ("parts", "length")

    def __init__(self, parts):
        self.parts = parts
        self.length = sum(p.length if type(p) is Value else 1 for p in parts)

    def letters(self):
        """The letters, one at a time off a stack: values nest as deep as
        the steps that built them."""
        out, pending = [], [self]
        while pending:
            x = pending.pop()
            if type(x) is Value:
                pending.extend(reversed(x.parts))
            else:
                out.append(x)
        return out


def reground(sub, values, names):
    """Register values after the update sub, each built anew from the old
    values; a register set to one register takes that register's value."""
    new = {}
    for name in names:
        tokens = sub.rhs(name)
        parts = tuple(values[tok.name] if isinstance(tok, Reg) else tok for tok in tokens)
        new[name] = parts[0] if len(tokens) == 1 and isinstance(tokens[0], Reg) else Value(parts)
    return new


def naive_sst(s, w, n, budget):
    """Reference run: every register re-grounded from the old values on
    every step, a letter of the input at a time.

    Returns (first n letters, halt type or None, steps taken).
    """
    values = {name: Value(()) for name in s.registers}
    state, steps, spent = s.initial, 0, 0
    while values[s.out].length < n:
        if spent >= budget:
            return values[s.out].letters()[:n], BudgetExceeded, steps
        key = (state, w.letter(steps))
        if key not in s.transitions:
            return values[s.out].letters()[:n], UndefinedTransition, steps
        before = values[s.out].length
        values = reground(s.updates[key], values, s.registers)
        state = s.transitions[key]
        steps += 1
        spent = 0 if values[s.out].length > before else spent + 1
    return values[s.out].letters()[:n], None, steps


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
def general_ssts(draw):
    """Random copyless Sst with one output register string for a random set
    of state sets. On every transition inside one of those sets, all but the
    last register of the string stay fixed and the last is only appended
    to, as the constructor requires; elsewhere updates are free."""
    states = range(draw(st.integers(1, 3)))
    names = tuple(f"r{i}" for i in range(draw(st.integers(1, 3))))
    regs = tuple(draw(st.permutations(names))[:draw(st.integers(0, len(names)))])
    sets = [frozenset(q for q in states if mask >> q & 1) for mask in range(1, 2 ** len(states))]
    domain = [p for p in sets if draw(st.integers(0, 3)) > 0]
    transitions, updates = {}, {}
    for q in states:
        for a in AB.letters:
            if not defined(draw):
                continue
            q2 = draw(st.sampled_from(states))
            bound = regs if any(q in p and q2 in p for p in domain) else ()
            rhs = {name: [Reg(name)] if name in bound else draw(outputs) for name in names}
            if bound:
                rhs[bound[-1]] += draw(outputs)
            targets = tuple(name for name in names if name not in bound[:-1])
            for name in names:
                if name in bound:
                    continue
                target = draw(st.sampled_from((None,) + targets))
                if target is not None:
                    first = 1 if bound and target == bound[-1] else 0
                    rhs[target].insert(draw(st.integers(first, len(rhs[target]))), Reg(name))
            transitions[(q, a)] = q2
            updates[(q, a)] = Substitution({name: tuple(tokens) for name, tokens in rhs.items()})
    return Sst(states, 0, AB, AB, names, transitions, updates, {p: regs for p in domain})


@settings(PROPERTY, max_examples=400)  # few runs enter their recurring states in the preperiod
@given(s=general_ssts(), w=lassos)
@example(corpus.finite_output_sst(), lasso("a", "b", AB))  # ab__… against ab, then a stall
def test_general_sst_runs_like_its_simple_form(s, w):
    try:
        simple = simplify_to_simple_sst(s, w)
    except (NoOutputFunction, UndefinedTransition) as exc:
        with pytest.raises(type(exc)) as err:
            run_sst(s, w)
        assert err.value.args == exc.args
        return
    # a letter of an infinite limit comes within a few hundred steps here
    want, halt = run_sst(simple, w, budget=2000).try_letters(LETTERS)
    got, got_halt = run_sst(s, w, budget=2000).try_letters(LETTERS)
    assert got_halt is None
    assert got == want + [PAD] * (LETTERS - len(want))
    assert len(want) == LETTERS or isinstance(halt, BudgetExceeded)


def naive_general_sst(s, w, n, silent=2000):
    """Reference for a general SST's run on the lasso w: the first n
    letters of its limit, PAD after a finite one. Raises
    UndefinedTransition(pos, pos, (state, letter)) or NoOutputFunction as
    the run does.

    Every register is re-grounded from the old values on every step. The
    run's states repeat from its first repeated (state, position in the
    loop) pair, after the preperiod; the recurring states are those of the
    repeated stretch, and the output is the concatenation of the output
    registers once every later state is recurring. The registers'
    emptiness pattern at the starts of the run's cycles repeats within 2^4
    cycles for up to 4 registers, and a cycle takes at most |Q|·|v| = 15
    steps on general_ssts' lassos, so an infinite limit grows at least once
    every 240 steps from the first repeat on, and ``silent`` = 2000 steps
    without a letter mean that it is finite.
    """
    states, seen = [s.initial], {}
    while True:
        i = len(states) - 1
        if i >= len(w.u):
            spot = (states[i], (i - len(w.u)) % len(w.v))
            if spot in seen:
                break
            seen[spot] = i
        key = (states[i], w.letter(i))
        if key not in s.transitions:
            raise UndefinedTransition(i, i, key)
        states.append(s.transitions[key])
    recurring = frozenset(states[seen[spot]:i])
    entry = seen[spot]
    while entry > 0 and states[entry - 1] in recurring:
        entry -= 1
    if recurring not in s.output_function:
        raise NoOutputFunction(recurring)
    regs = s.output_function[recurring]

    values = {name: Value(()) for name in s.registers}
    state, step, quiet, grown = s.initial, 0, 0, 0
    while grown < n and quiet < silent:
        key = (state, w.letter(step))
        values = reground(s.updates[key], values, s.registers)
        state = s.transitions[key]
        step += 1
        if step >= entry:
            length = sum(values[name].length for name in regs)
            quiet = 0 if length > grown else quiet + 1
            grown = length
    limit = [x for name in regs for x in values[name].letters()]
    return limit[:n] + [PAD] * (n - len(limit))


def reads_before_moves():
    """General SSTs whose updates read a register after that register's own
    move in the same update, which must not change what is read. This
    property found both over random machines with four registers; with
    general_ssts' three, such updates are too rare to meet in a few hundred
    examples."""
    r0, r1, r2, r3 = (Reg(f"r{i}") for i in range(4))
    nested = Sst({0}, 0, AB, AB, ("r0", "r1", "r2", "r3"), {(0, "a"): 0, (0, "b"): 0}, {
        (0, "a"): Substitution({"r0": (r0, r3), "r1": (), "r2": (), "r3": ()}),
        (0, "b"): Substitution({"r0": (r0,), "r1": ("a",), "r2": (), "r3": (r2, r1)}),
    }, {frozenset({0}): ("r0",)})
    taken = Sst({0, 1}, 0, AB, AB, ("r0", "r1"), {(0, "b"): 1, (1, "b"): 1}, {
        (0, "b"): Substitution({"r0": (), "r1": (r0, "a")}),
        (1, "b"): Substitution({"r0": (r0,), "r1": (r1,)}),
    }, {frozenset({1}): ("r0", "r1")})
    return [(nested, lasso("", "ab")), (taken, lasso("", "b"))]


@PROPERTY
@given(s=general_ssts(), w=lassos)
@example(*reads_before_moves()[0])
@example(*reads_before_moves()[1])
def test_general_sst_runs_like_naive_regrounding(s, w):
    try:
        want = naive_general_sst(s, w, LETTERS)
    except (NoOutputFunction, UndefinedTransition) as exc:
        with pytest.raises(type(exc)) as err:
            run_sst(s, w)
        assert err.value.args == exc.args
        return
    got, halt = run_sst(s, w, budget=2000).try_letters(LETTERS)
    assert halt is None
    assert got == want


@st.composite
def one_way_machines(draw, reads=AB.letters):
    states = range(draw(st.integers(1, 3)))
    tr = {}
    for q in states:
        for a in reads:
            if defined(draw):
                tr[(q, a)] = (tuple(draw(outputs)), draw(st.sampled_from(states)))
    return OneWayTransducer(states, 0, AB, AB, tr)


@st.composite
def two_way_machines(draw, marker_moves=(LEFT, RIGHT), reads=None, alphabet=AB, max_states=3):
    """Random 2wft over ``alphabet``; ``marker_moves`` are the moves allowed on
    the endmarker, and ``reads`` default to the alphabet and the endmarker."""
    reads = alphabet.letters + (ENDMARKER,) if reads is None else reads
    states = range(draw(st.integers(1, max_states)))
    tr = {}
    for q in states:
        for a in reads:
            if defined(draw):
                move = draw(st.sampled_from(marker_moves if a is ENDMARKER else (LEFT, RIGHT)))
                tr[(q, a)] = (tuple(draw(outputs)), move, draw(st.sampled_from(states)))
    return TwoWayTransducer(states, 0, alphabet, AB, tr)


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


MARKED = Alphabet.of("ab#")
marked_lassos = st.builds(lasso, st.text("ab#", max_size=6), st.text("ab#", min_size=1, max_size=8),
                          st.just(MARKED))


@st.composite
def word_makers(draw):
    """A function building a fresh word: a lasso (some over product
    alphabets) or pi^k, a shift or a duplicate of one, a block mirror over
    a lasso, or a run output read through ``.word``. Block mirrors and run
    outputs cache their letters, so each call builds a new one."""
    kind = draw(st.sampled_from(["word", "shift", "duplicate", "mirror", "outcome"]))
    if kind == "mirror":
        base, budget = draw(marked_lassos), draw(st.integers(1, 10))
        return lambda: block_mirror(base, budget)
    if kind == "outcome":
        machine, w = draw(st.one_of(one_way_machines(), two_way_machines())), draw(lassos)
        run = run_1wft if isinstance(machine, OneWayTransducer) else run_2wft
        return lambda: run(machine, w, budget=BUDGET).word
    w = draw(st.one_of(lassos, st.builds(convolve_lassos, lassos, lassos),
                       st.builds(pi_word, st.integers(1, 3))))
    if kind == "shift":
        w = shift(w, draw(st.integers(0, 40)))
    elif kind == "duplicate":
        w = duplicate(w, draw(st.integers(1, 3)))
    return lambda: w


@PROPERTY
@given(make=word_makers(), n=st.integers(0, 1500))
def test_letters_from_hands_out_the_letters_letter_gives(make, n):
    try:
        chunk = make().letters_from(n)
    except AdviceBenchError as exc:
        with pytest.raises(type(exc)) as err:
            make().letter(n)
        assert err.value.args == exc.args
        return
    assert chunk
    w = make()
    assert chunk == [w.letter(i) for i in range(n, n + len(chunk))]


def mirror_read(base, budget, n, bulk):
    """Letter n of a fresh block mirror through letter or letters_from, or
    where it refuses."""
    w = block_mirror(base, budget)
    try:
        return w.letters_from(n)[0] if bulk else w.letter(n)
    except BlockBudgetExceeded as exc:
        return "refused", exc.position, exc.budget


def naive_mirror_read(base, budget, n):
    """mirror_read from the definition: letter n is in the block holding base
    position n, reached once every block before it is within the budget."""
    start = 0
    while True:
        window = [base.letter(i) for i in range(start, start + budget + 1)]
        if "#" not in window:
            return "refused", start, budget
        end = start + window.index("#")
        if n <= end:
            return "#" if n == end else base.letter(start + end - 1 - n)
        start = end + 1


@PROPERTY
@given(base=marked_lassos, budget=st.integers(1, 6))
def test_block_mirror_refuses_a_long_block_at_the_same_index_through_both_calls(base, budget):
    for n in range(3 * (len(base.u) + len(base.v))):
        want = naive_mirror_read(base, budget, n)
        assert mirror_read(base, budget, n, bulk=True) == mirror_read(base, budget, n, bulk=False) == want
    w = block_mirror(base, budget)
    for read in (w.letter, w.letters_from):
        with pytest.raises(IndexError):
            read(-1)


@PROPERTY
@given(outer=one_way_machines(), inner=one_way_machines(), w=lassos)
def test_a_composed_machine_runs_like_the_two_machines_in_sequence(outer, inner, w):
    """The budget is far above any quiet stretch of such small machines on
    such short lassos, so both sides stall exactly when one does. The
    product drops a transition whose letters outer cannot read through, so
    at such a halt the sequence may add outer's letters for their start."""
    budget = 1000
    got, got_halt = run_1wft(compose_1wft(outer, inner), w, budget).try_letters(LETTERS)
    want, want_halt = run_1wft(outer, run_1wft(inner, w, budget).word, budget).try_letters(LETTERS)
    assert type(got_halt) is type(want_halt)
    if isinstance(got_halt, UndefinedTransition):
        assert want[:len(got)] == got
    else:
        assert got == want


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
        trimmed = remove_endmarker(machine, w)
    except (BudgetExceeded, UndefinedTransition, MovedLeftOfEndmarker):
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


class OneStepDriver:
    """Reference for a RunOutcome's reads: the run's kernel in one-step mode
    only, one ``next`` per step, spending at most ``budget`` steps between
    consecutive letters within one read. ``walk`` replaces the kernel, as
    dict_walk does."""

    def __init__(self, machine, w, budget, walk=None):
        self.out, self.budget, self.steps, self.halt = [], budget, 0, None
        if walk is not None:
            self.kernel = walk(machine, w, self.out)
        elif isinstance(machine, OneWayTransducer):
            self.kernel = _walk_one_way(machine, w, self.out)
        elif isinstance(machine, SimpleSst):
            registers = _Registers(machine.registers)
            self.kernel = _walk_sst(machine, w, self.out, registers, machine.out, machine.initial, 0)
        elif isinstance(machine, Sst):
            self.kernel = _walk_limit(machine, w, self.out)
        else:
            self.kernel = _walk(machine, w, self.out)
        next(self.kernel)  # the initial configuration, or a general SST's set-up

    def read(self, n):
        """(the first n letters or fewer, the halt or None), as try_letters."""
        out = self.out
        while len(out) < n:
            if self.halt is not None:
                return out[:n], self.halt
            produced, spent = len(out), 0
            while len(out) == produced:
                if spent >= self.budget:
                    return out[:n], BudgetExceeded(self.steps)
                try:
                    next(self.kernel)
                except (UndefinedTransition, MovedLeftOfEndmarker) as halt:
                    self.halt = halt  # its letters count; the read ends if they suffice
                    break
                self.steps += 1
                spent += 1
        return out[:n], None


def assert_reads_like_one_step_at_a_time(machine, w, budget, reads, walk=None):
    """Reads through letters and try_letters in turn match the reference's
    (a OneStepDriver stepping ``walk``): letters, halt type and arguments,
    steps and letters produced."""
    try:
        run = _run_machine(machine, w, budget)
    except (NoOutputFunction, UndefinedTransition) as exc:  # a general SST's set-up
        with pytest.raises(type(exc)):
            OneStepDriver(machine, w, budget)
        return
    reference = OneStepDriver(machine, w, budget, walk)
    for i, n in enumerate(reads):
        want, want_halt = reference.read(n)
        if i % 2:
            got, halt = run.try_letters(n)
        else:
            try:
                got, halt = run.letters(n), None
            except (UndefinedTransition, MovedLeftOfEndmarker, BudgetExceeded) as exc:
                got, halt = run._engine.out[:n], exc
        assert got == want
        assert halt_kind(halt) is halt_kind(want_halt)
        assert halt is None or halt.args == want_halt.args
        assert run.produced == len(reference.out)
        assert run._engine.step_count == reference.steps


budgets = st.one_of(st.integers(1, 5), st.just(DEFAULT_BUDGET))
reads = st.lists(st.integers(0, 80), min_size=1, max_size=4)


@settings(PROPERTY, max_examples=300)
@given(machine=st.one_of(one_way_machines(), two_way_machines(), two_way_machines().map(with_parity_lookbehind),
                         two_way_machines().map(corpus.with_trivial_lookbehind), simple_ssts()),
       w=lassos, budget=budgets, reads=reads)
def test_runs_stepped_in_batches_read_like_one_step_at_a_time(machine, w, budget, reads):
    assert_reads_like_one_step_at_a_time(machine, w, budget, reads)


@settings(PROPERTY, max_examples=100)
@given(s=general_ssts(), w=lassos, budget=budgets, reads=reads)
def test_general_sst_runs_stepped_in_batches_read_like_one_step_at_a_time(s, w, budget, reads):
    assert_reads_like_one_step_at_a_time(s, w, budget, reads)


def general_lasso(u, v, alphabet=None):
    """lasso(u, v, alphabet) the general way: the alphabet inferred from
    the letters of u + v in turn, and each FiniteWord checking its letters."""
    if alphabet is None:
        alphabet = infer_alphabet(tuple(u + v))
    return LassoWord(word(u, alphabet), word(v, alphabet))


def built(make, *args):
    """A lasso's letters and alphabet, or its error's type and message."""
    try:
        w = make(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return w.u.letters, w.v.letters, w.alphabet.letters


LASSO_POOL = "ab#_^·éλ€"


@PROPERTY
@given(u=st.text(LASSO_POOL, max_size=6), v=st.text(LASSO_POOL, max_size=6),
       alphabet=st.none() | st.sampled_from([AB, MARKED, Alphabet.of("·éλ€"), Alphabet.of("a#λ")]))
@example("", "", None)
@example("__", "_", None)
@example("a", "", None)
@example("a_", "", None)
@example("^", "_", None)
@example("", "λ·", None)
def test_lasso_builds_what_the_general_path_builds(u, v, alphabet):
    assert built(lasso, u, v, alphabet) == built(general_lasso, u, v, alphabet)
    if alphabet is not None and set(u + v) - {"_"} - set(alphabet.letters):
        assert built(lasso, u, v, alphabet)[0] is AlphabetMismatch


def dict_walk(t, source, out):
    """Reference for the stepping kernels: the run of t restated over its
    ``transitions`` dict, one tuple-keyed lookup per step, in the kernels'
    two modes. ``next`` takes one step and yields (state, pos).
    ``send((want, budget))`` takes at least one step, stops once ``out``
    holds ``want`` letters or ``budget`` steps in a row emitted nothing,
    and yields the steps taken; a two-way walk's first batch also counts
    the silent steps taken one at a time before it. A two-way run reads
    the tape ENDMARKER·source, and a lookbehind machine's key ends with
    the oracle's state after the input left of the head, which the oracle
    reads as the head first moves past it."""
    two_way = not isinstance(t, OneWayTransducer)
    oracle = getattr(t, "oracle", None)
    state, pos, step, silent, batched = t.initial, 0, 0, 0, False
    tape = [ENDMARKER]
    zs = [] if oracle is None else [oracle.initial]  # the oracle's state after n input letters
    ask = yield state, pos
    while True:
        if ask is not None:
            want, budget = ask
            if batched or not two_way:
                silent = 0
            batched, taken = True, 0
        while True:
            if not two_way:
                key = (state, source.letter(pos))
            else:
                if pos == len(tape):
                    tape.append(source.letter(pos - 1))
                key = (state, tape[pos])
                if oracle is not None:
                    left = max(pos - 1, 0)  # input letters left of the head
                    while len(zs) <= left:
                        zkey = (zs[-1], tape[len(zs)])
                        if zkey not in oracle.transitions:
                            raise UndefinedTransition(pos, step, zkey)
                        zs.append(oracle.transitions[zkey])
                    key += (zs[left],)
            if key not in t.transitions:
                raise UndefinedTransition(pos, step, key)
            emitted, *move, state = t.transitions[key]
            out.extend(emitted)
            if move == [LEFT]:
                if pos == 0:
                    raise MovedLeftOfEndmarker(step)
                pos -= 1
            else:
                pos += 1
            step += 1
            silent = 0 if emitted else silent + 1
            if ask is None:
                break
            taken += 1
            if len(out) >= want or silent >= budget:
                break
        ask = yield (state, pos) if ask is None else taken


def drive(kernel, out, asks):
    """Each answer of ``kernel`` to its start and to ``asks`` (None for a
    ``next``, else a batch to send), with the letters out held after it;
    a halt ends the list with its fields."""
    answers = []
    try:
        answers.append((next(kernel), list(out)))
        for ask in asks:
            answers.append((next(kernel) if ask is None else kernel.send(ask), list(out)))
    except (UndefinedTransition, MovedLeftOfEndmarker) as halt:
        answers.append((type(halt), getattr(halt, "position", None), halt.step,
                        getattr(halt, "detail", None), list(out)))
    return answers


ABC = Alphabet.of("abc")
pad_reading_machines = st.one_of(
    one_way_machines(reads=AB.letters + (PAD,)),
    two_way_machines(reads=AB.letters + (ENDMARKER, PAD)),
    two_way_machines(reads=AB.letters + (ENDMARKER, PAD)).map(with_parity_lookbehind),
    two_way_machines(marker_moves=(RIGHT,), reads=AB.letters + (ENDMARKER, PAD)).map(with_parity_lookbehind))
# 'c' is outside every machine's input alphabet, and the parity oracle has no move on it or on PAD
odd_words = st.one_of(lassos, st.just(ConstantWord(PAD, AB)),
                      st.builds(lasso, st.text("abc_", max_size=4), st.text("abc_", min_size=1, max_size=5),
                                st.just(ABC)),
                      st.builds(lasso, st.text("a_", max_size=4), st.text("ab_", min_size=1, max_size=5),
                                st.just(AB)))
# some steps one at a time, then steps and batches mixed
asks = st.builds(lambda steps, mixed: [None] * steps + mixed, st.integers(0, 12),
                 st.lists(st.none() | st.tuples(st.integers(0, 3) | st.integers(0, 80),
                                                st.integers(1, 4) | st.integers(1, 50)), max_size=8))


@settings(PROPERTY, max_examples=400)
@given(machine=pad_reading_machines, w=odd_words, asks=asks, cells=st.sampled_from((1, 3, transducers.SLICE)))
def test_the_compiled_kernels_step_like_a_dict_lookup_on_the_transitions(machine, w, asks, cells):
    # what each next and send gives, the letters and the halt with its
    # (pos, step, key) are those of the reference; a two-way walk encoding
    # 1 or 3 cells at a time crosses many slice ends
    kernel = _walk_one_way if isinstance(machine, OneWayTransducer) else _walk
    out, want = [], []
    slice_cells, transducers.SLICE = transducers.SLICE, cells
    try:
        got = drive(kernel(machine, w, out), out, asks)
    finally:
        transducers.SLICE = slice_cells
    assert got == drive(dict_walk(machine, w, want), want, asks)


@st.composite
def sweeping_machines(draw, max_states=3):
    """Random 2wft over ab# whose transitions are mostly silent right
    self-loops, so that a batch read sweeps over runs of their letters."""
    states = range(draw(st.integers(1, max_states)))
    tr = {}
    for q in states:
        for a in MARKED.letters + (ENDMARKER,):
            kind = draw(st.integers(0, 5))
            if kind < 3:
                tr[(q, a)] = ((), RIGHT, q)
            elif kind < 5:
                move = draw(st.sampled_from((LEFT, RIGHT)))
                tr[(q, a)] = (tuple(draw(outputs)), move, draw(st.sampled_from(states)))
    return TwoWayTransducer(states, 0, MARKED, AB, tr)


def with_counting_lookbehind(t, size):
    """t as a lookbehind machine whose oracle counts a's modulo ``size``
    and has no move on other letters than a, b and #. At a count of 1 mod 3
    a silent right self-loop emits an a instead, and at 2 mod 3 a self-loop
    that copies its cell emits nothing, so which cells end a sweep depends
    on the oracle's state too."""
    oracle = Dfa(range(size), 0, frozenset(), MARKED,
                 {(z, a): (z + (a == "a")) % size for z in range(size) for a in MARKED.letters})
    tr = {}
    for (q, a), (out, move, q2) in t.transitions.items():
        for z in range(size):
            if z % 3 == 1 and (out, move, q2) == ((), RIGHT, q):
                tr[(q, a, z)] = (("a",), move, q2)
            elif z % 3 == 2 and out == (a,) and q2 == q:
                tr[(q, a, z)] = ((), move, q2)
            else:
                tr[(q, a, z)] = (out, move, q2)
    return LookbehindTransducer(t.states, t.initial, MARKED, t.output_alphabet, tr, oracle)


# runs of up to 4·SLICE equal letters; c is foreign to every machine and its oracle
letter_runs = st.lists(st.tuples(st.sampled_from("ab#c"), st.integers(1, 4 * transducers.SLICE)),
                       max_size=4).map(lambda runs: "".join(a * k for a, k in runs))
run_lassos = st.builds(lasso, letter_runs, letter_runs.filter(bool), st.just(Alphabet.of("abc#")))
# a 64-state oracle needs more cell codes than a byte holds, so its walks keep a list and never sweep
WIDE = 64


def loop_then_loopless():
    """State 0 sweeps a's and enters state 1 on a silent right move; state 1
    has no silent right self-loop at all."""
    return TwoWayTransducer({0, 1}, 0, MARKED, AB, {
        (0, ENDMARKER): ((), RIGHT, 0), (0, "a"): ((), RIGHT, 0), (0, "b"): ((), RIGHT, 1),
        (1, "a"): (("a",), RIGHT, 1), (1, "b"): ((), RIGHT, 0), (1, "#"): (("b",), LEFT, 0)})


@settings(PROPERTY, max_examples=300)
@given(machine=st.one_of(sweeping_machines(), sweeping_machines().map(lambda t: with_counting_lookbehind(t, 3)),
                         sweeping_machines(max_states=2).map(lambda t: with_counting_lookbehind(t, WIDE))),
       w=run_lassos, budget=st.one_of(st.integers(1, 6 * transducers.SLICE), st.just(DEFAULT_BUDGET)),
       reads=st.lists(st.integers(0, 120), min_size=1, max_size=4))
@example(loop_then_loopless(), lasso("a" * 70 + "b", "ab" * 40 + "#"), DEFAULT_BUDGET, [100])
def test_batch_reads_that_sweep_silent_loops_read_like_the_dict_walk(machine, w, budget, reads):
    # the same letters, step count and halt, at the same (pos, step, key),
    # as the transitions dict stepped one step at a time, with budgets that
    # end inside a sweep and foreign letters that end one
    assert_reads_like_one_step_at_a_time(machine, w, budget, reads, walk=dict_walk)
    assert (machine.table.cells is list) == (machine.table.width == WIDE)


@st.composite
def copying_machines(draw, max_states=3):
    """Random 2wft over ab# whose transitions are mostly self-loops that copy
    their cell, plus silent self-loops and other moves, shaped like the
    block mirror: even states loop mostly right and odd ones mostly left,
    and each turns into the next state on one letter (an odd one on the
    endmarker too), so that a batch read copies or crosses long runs of
    letters in one step, both ways."""
    states = range(draw(st.integers(2, max_states)))
    tr = {}
    for q in states:
        way, back = (LEFT, RIGHT) if q % 2 else (RIGHT, LEFT)
        turn = draw(st.sampled_from(MARKED.letters))
        for a in MARKED.letters + (ENDMARKER,):
            kind = draw(st.sampled_from(("copy",) * 6 + ("silent",) * 2 + ("other", "none")))
            if a == turn or a is ENDMARKER and q % 2:
                tr[(q, a)] = (tuple(draw(outputs)), RIGHT if a is ENDMARKER else back, (q + 1) % len(states))
            elif kind == "copy" and a is not ENDMARKER:
                tr[(q, a)] = ((a,), draw(st.sampled_from((way,) * 5 + (back,))), q)
            elif kind in ("copy", "silent"):
                tr[(q, a)] = ((), way, q)
            elif kind == "other":
                tr[(q, a)] = (tuple(draw(outputs)), draw(st.sampled_from((LEFT, RIGHT))), draw(st.sampled_from(states)))
    return TwoWayTransducer(states, 0, MARKED, MARKED, tr)


def rewinder(off_the_tape):
    """State 0 crosses a block silently, emits # and turns left at its end;
    state 1 crosses back silently and emits b at the endmarker, or loops
    off the tape there."""
    tr = {(0, ENDMARKER): ((), RIGHT, 0), (0, "a"): ((), RIGHT, 0), (0, "b"): ((), RIGHT, 0),
          (0, "#"): (("#",), LEFT, 1), (1, "a"): ((), LEFT, 1), (1, "b"): ((), LEFT, 1), (1, "#"): ((), LEFT, 1),
          (1, ENDMARKER): ((), LEFT, 1) if off_the_tape else (("b",), RIGHT, 0)}
    return TwoWayTransducer({0, 1}, 0, MARKED, MARKED, tr)


@settings(PROPERTY, max_examples=300)
@given(machine=st.one_of(copying_machines(), copying_machines().map(lambda t: with_counting_lookbehind(t, 3)),
                         copying_machines(max_states=2).map(lambda t: with_counting_lookbehind(t, WIDE))),
       w=run_lassos, budget=st.one_of(st.integers(1, 6 * transducers.SLICE), st.just(DEFAULT_BUDGET)),
       reads=st.lists(st.integers(0, 300), min_size=1, max_size=4))
@example(mirror_blocks_2wft(AB), lasso("", "a" * 70 + "b" * 50 + "#"), DEFAULT_BUDGET, [30, 100, 121, 200])
@example(with_counting_lookbehind(mirror_blocks_2wft(AB), 3), lasso("b", "a" * 70 + "b" * 50 + "#"), 130, [60, 250])
@example(rewinder(False), lasso("ab" * 40, "#"), 100, [1, 2, 30])
@example(rewinder(True), lasso("ab" * 40, "#"), DEFAULT_BUDGET, [1, 2])
def test_batch_reads_that_copy_runs_read_like_the_dict_walk(machine, w, budget, reads):
    # the same letters, step count and halt, at the same (pos, step, key),
    # as the transitions dict stepped one step at a time, with reads that
    # end inside a copied run, runs whose kind changes with the oracle's
    # state, and foreign letters that end one
    assert_reads_like_one_step_at_a_time(machine, w, budget, reads, walk=dict_walk)
    assert (machine.table.cells is list) == (machine.table.width == WIDE)


# a slice's letters: one-character latin-1 ones in and out of the machines'
# alphabets, '_' and '^' as text, letters beyond latin-1, PAD, product
# letters, a letter of two characters, and 'c', foreign to every machine
slice_letters = st.lists(st.sampled_from(list("ab#_^·éλ€c") + [PAD, ("a", "b"), ("b", PAD), "ab"]), max_size=70)


def coding_tables():
    """(table, z) pairs: a plain 2wft over ab#·éλ€; a lookbehind one whose
    oracle stays in "closed" on every letter and leaves "open" on a; one
    over product letters; and the 64-state counting oracle's, whose codes
    do not fit a byte."""
    letters = Alphabet.of("ab#·éλ€")
    plain = TwoWayTransducer({0}, 0, letters, letters, {(0, a): ((a,), RIGHT, 0) for a in letters.letters})
    oracle = Dfa({"closed", "open"}, "closed", frozenset(), letters,
                 {(z, a): "closed" if z == "closed" or a == "a" else "open"
                  for z in ("closed", "open") for a in letters.letters})
    tr = {(0, a, z): ((a,), RIGHT, 0) for a in letters.letters for z in ("closed", "open")}
    behind = LookbehindTransducer({0}, 0, letters, letters, tr, oracle)
    pairs = Alphabet.product(AB, AB)
    product = TwoWayTransducer({0}, 0, pairs, pairs, {(0, a): ((a,), RIGHT, 0) for a in pairs.letters})
    wide = with_counting_lookbehind(TwoWayTransducer({0}, 0, MARKED, MARKED, {}), WIDE)
    return ([(plain.table, 0), (product.table, 0)] + [(behind.table, behind.oracle.index[z]) for z in ("closed", "open")]
            + [(wide.table, z) for z in (0, 1, 63)])


@PROPERTY
@given(letters=slice_letters, case=st.sampled_from(coding_tables()))
@example(list("ab#·é"), coding_tables()[2])
@example(list("aab#c"), coding_tables()[2])
def test_a_translated_slice_codes_as_letter_by_letter(letters, case):
    # the cell codes, the oracle state after them and the stuck cell after
    # a letter the oracle has no move on are those of the per-letter loop
    table, z = case
    codes, after = table.translate(letters, z)
    want, want_after = table.encode(letters, z)
    assert (list(codes), after) == (want, want_after)
    fast = all(type(a) is str and a in "ab#·é" and a in table.code for a in letters) and table.cells is bytearray
    if fast and (table.zrows is None or table.znames[z] == "closed"):
        assert type(codes) is bytes  # in one C-level pass


@settings(PROPERTY, max_examples=300)
@given(machine=two_way_machines(), w=lassos, walked=st.integers(0, 40),
       budget=st.one_of(st.integers(1, 60), st.just(DEFAULT_BUDGET)), n=st.integers(0, 80))
def test_a_resumed_walk_reads_like_a_fresh_run(machine, w, walked, budget, n):
    # a walk stepped one at a time, then read on as a RunOutcome: letters,
    # halt and stall (at the same step) are a fresh run's, and so is the
    # step count once the read has stepped past the walk
    out = []
    walk = _walk(machine, w, out)
    try:
        for step, _cfg in enumerate(islice(walk, walked + 1)):
            pass
    except (UndefinedTransition, MovedLeftOfEndmarker):
        return  # a walk that halts is not read on
    heard = len(out)
    run = _resume_2wft(machine, w, out, walk, step, budget)
    fresh = run_2wft(machine, w, budget=budget)
    want, want_halt = fresh.try_letters(n)
    got, halt = run.try_letters(n)
    assert got == want
    assert halt_kind(halt) is halt_kind(want_halt)
    assert halt is None or halt.args == want_halt.args
    if heard < n:
        assert run._engine.step_count == fresh._engine.step_count


def test_a_general_sst_run_meets_a_small_budget_between_letters():
    # the limit of r gains an a every 4 steps on (abbb)^ω; the set-up already
    # streams the first 2, and 3 silent steps exhaust a budget of 3
    s = Sst({0}, 0, AB, AB, ("r",), {(0, "a"): 0, (0, "b"): 0},
            {(0, "a"): Substitution({"r": (Reg("r"), "a")}), (0, "b"): Substitution({"r": (Reg("r"),)})},
            {frozenset({0}): ("r",)})
    w = lasso("", "abbb")
    run = run_sst(s, w, budget=3)
    assert run.letters(3) == ["a"] * 3
    with pytest.raises(BudgetExceeded) as err:
        run.letters(4)
    assert (err.value.step, run.produced) == (4, 3)
    assert run_sst(s, w, budget=4).letters(50) == ["a"] * 50
    for budget in (3, 4):
        assert_reads_like_one_step_at_a_time(s, w, budget, [3, 4, 50, 2])


@st.composite
def looping_updates(draw, names, a, fixed=(), grows=None):
    """An update that mostly puts the read letter ``a`` in front of one
    register or behind it and leaves the others as they are, so that its
    step is a register loop when it keeps its state. Now and then it puts
    another letter there, also changes a second register, nests a second
    register behind the first (a step through _rebuild), or puts letters,
    and maybe a register it empties, behind ``grows``; on # it mostly
    does the last, as the block mirror does. ``fixed`` registers stay as
    they are, and ``grows`` only grows at its end."""
    rhs = {name: [Reg(name)] for name in names}
    free = [name for name in names if name not in fixed and name != grows]
    kind = draw(st.sampled_from(("loop",) * 6 + ("other", "second", "nest") + ("tail",) * (9 if a == "#" else 2)))
    if free:
        i = draw(st.sampled_from(free))
        letter = draw(st.sampled_from([b for b in MARKED.letters if b != a])) if kind == "other" else a
        rhs[i] = [letter, Reg(i)] if draw(st.booleans()) else [Reg(i), letter]
        others = [name for name in free if name != i]
        if kind == "nest" and others:
            j = draw(st.sampled_from(others))
            rhs[i].append(Reg(j))
            rhs[j] = draw(outputs)
        elif kind == "second" and others:
            j = draw(st.sampled_from(others))
            rhs[j] = draw(st.sampled_from(([], ["b"], [Reg(j), "b"], ["a", Reg(j)])))
    if grows is not None and (kind == "tail" or not free):
        flushed = draw(st.sampled_from([None] + free))
        if flushed is not None:
            rhs[flushed] = []
            rhs[grows].append(Reg(flushed))
        rhs[grows] += draw(outputs)
    return Substitution({name: tuple(tokens) for name, tokens in rhs.items()})


@st.composite
def looping_ssts(draw, general=False):
    """Random SSTs over ab# whose steps are mostly register loops (see
    looping_updates), with a few transitions missing: simple ones with out
    and one or two other registers, or general ones with two or three
    registers and an output register string on random sets of states, as
    general_ssts draws them, that leaves a register to loop on."""
    states = range(draw(st.integers(1, 3)))
    if general:
        names = tuple(f"r{i}" for i in range(draw(st.integers(2, 3))))
        regs = tuple(draw(st.permutations(names))[:draw(st.integers(1, len(names) - 1))])
        sets = [frozenset(q for q in states if mask >> q & 1) for mask in range(1, 2 ** len(states))]
        domain = [p for p in sets if draw(st.integers(0, 7)) > 0]
    else:
        names = ("out",) + tuple(f"r{i}" for i in range(draw(st.integers(1, 2))))
    transitions, updates = {}, {}
    for q in states:
        for a in MARKED.letters:
            if not defined(draw):
                continue
            q2 = q if draw(st.integers(0, 4)) else draw(st.sampled_from(states))
            if general:
                bound = regs if any(q in p and q2 in p for p in domain) else ()
                fixed, grows = bound[:-1], (bound[-1] if bound else None)
            else:
                fixed, grows = (), "out"
            transitions[(q, a)] = q2
            updates[(q, a)] = draw(looping_updates(names, a, fixed, grows))
    if general:
        return Sst(states, 0, MARKED, MARKED, names, transitions, updates, {p: regs for p in domain})
    return SimpleSst(states, 0, MARKED, MARKED, names, transitions, updates)


def word_run_lassos(longest):
    """Lassos over ab# whose u and v are runs of up to ``longest`` copies of
    a word of one or two letters. At 400 many periods pass CHUNK, so that
    register loops run across the ends of input chunks."""
    runs = st.lists(st.tuples(st.text("ab#", min_size=1, max_size=2), st.integers(1, longest)),
                    max_size=3).map(lambda runs: "".join(x * k for x, k in runs))
    return st.builds(lasso, runs, runs.filter(bool), st.just(MARKED))


def leaving_loop():
    """In state p, a and b both go in front of x, but b also moves to q,
    where b flushes x: a sweep in p must stop at b."""
    x, out = Reg("x"), Reg("out")
    return SimpleSst({"p", "q"}, "p", MARKED, MARKED, ("x", "out"),
                     {("p", "a"): "p", ("p", "b"): "q", ("q", "b"): "q", ("q", "a"): "p"},
                     {("p", "a"): Substitution({"x": ("a", x), "out": (out,)}),
                      ("p", "b"): Substitution({"x": ("b", x), "out": (out,)}),
                      ("q", "b"): Substitution({"x": (), "out": (out, x)}),
                      ("q", "a"): Substitution({"x": ("a", x), "out": (out,)})})


loop_reads = st.lists(st.integers(0, 300), min_size=1, max_size=4)
# mostly budgets that end inside a run of loops: a run that stalls at
# DEFAULT_BUDGET steps takes about a second to check
loop_budgets = st.sampled_from((1, 2, 3, 4, 5, 6, DEFAULT_BUDGET))


@settings(PROPERTY, max_examples=100)
@given(s=looping_ssts(), w=word_run_lassos(400), budget=loop_budgets, reads=loop_reads)
@example(corpus.mirror_sst(), lasso("b" * 700, "ab" * 200 + "a" * 600 + "#"), DEFAULT_BUDGET, [650, 1200, 3000])
@example(corpus.mirror_sst(), lasso("", "a" * 600 + "#"), 3, [0, 1])
@example(corpus.interleave_sst(), lasso("ab#", "a" * 530 + "b" * 530 + "#"), DEFAULT_BUDGET, [3, 1000, 2300])
@example(leaving_loop(), lasso("", "aabb"), 6, [30])
def test_batch_reads_that_sweep_register_loops_read_like_letter_by_letter(s, w, budget, reads):
    # the letters, halt type and halt step of the naive regrounding, and the
    # steps, halts and stalls of one step at a time, with budgets that end
    # inside a run of loops and runs across the ends of input chunks
    want, want_halt, steps = naive_sst(s, w, max(reads), budget)
    got, halt = run_sst(s, w, budget=budget).try_letters(max(reads))
    assert got == want
    assert halt_kind(halt) is want_halt
    assert halt is None or halt.step == steps
    assert_reads_like_one_step_at_a_time(s, w, budget, reads)


@settings(PROPERTY, max_examples=150)
@given(s=looping_ssts(general=True), w=st.one_of(word_run_lassos(20), word_run_lassos(400)), budget=loop_budgets,
       reads=st.lists(st.integers(200, 2000), min_size=1, max_size=4))
def test_general_sst_batch_reads_that_sweep_register_loops_read_like_letter_by_letter(s, w, budget, reads):
    # the set-up steps whole input cycles one at a time, and the letters
    # they put out can be many: long reads on short periods reach the
    # batches. As naive_general_sst argues, a limit that grows does so at
    # least once every 2^|registers| cycles of at most |Q|·|v| steps, after
    # at most |u| + |Q|·|v| steps
    silent = len(w.u) + (2 ** len(s.registers) + 1) * len(s.states) * len(w.v)
    try:
        want = naive_general_sst(s, w, max(reads), silent)
    except (NoOutputFunction, UndefinedTransition) as exc:
        with pytest.raises(type(exc)) as err:
            run_sst(s, w)
        assert err.value.args == exc.args
        return
    got, halt = run_sst(s, w).try_letters(max(reads))
    assert halt is None
    assert got == want
    assert_reads_like_one_step_at_a_time(s, w, budget, reads)


def assert_two_way_records_hold_the_filled_loops(t):
    """Every loop record of t's table holds exactly the codes whose filled
    entries in its row keep the state, move that way and emit nothing
    (silent) or their cell's letter (copying); there are none when cell
    codes do not fit a byte."""
    table = t.table
    letters = t.input_alphabet.letters + t.extra_reads
    for row in table.rows.values():
        for slot, move in ((-1, 1), (-2, -1)):
            want = [[], []]
            for c, hit in enumerate(row[:table.foreign]):
                if hit is not None and hit[2] is row and hit[1] == move:
                    a = letters[c // table.width]
                    if tuple(hit[0]) in ((), (a,)):
                        want[len(hit[0])].append(c)
            if table.cells is list:
                assert row[slot] is None
            else:
                assert [sorted(codes) for codes in row[slot] or (b"", b"")] == want


def assert_sst_records_hold_the_filled_loops(s):
    """Every letter set of s's table holds exactly the letters whose filled
    entries in its row keep the state and only put the letter in front of
    its register, or behind it, which is not the streamed one."""
    table = s.table
    want: dict = {}
    for (state, streamed), row in table.rows.items():
        for a in row:
            moved = [(name, rhs) for name, rhs in s.updates[(state, a)].items() if rhs != (Reg(name),)]
            if s.transitions[(state, a)] == state and len(moved) == 1:
                (name, rhs), = moved
                if table.index[name] != streamed and rhs in ((a, Reg(name)), (Reg(name), a)):
                    want.setdefault((state, streamed, table.index[name], rhs[0] == a), set()).add(a)
    assert table.loops == want


def copier_of_a():
    """Copies a and crosses b silently, both to the right: copying loops
    next to silent ones."""
    return TwoWayTransducer({0}, 0, MARKED, MARKED, {(0, ENDMARKER): ((), RIGHT, 0), (0, "a"): (("a",), RIGHT, 0),
                                                     (0, "b"): ((), RIGHT, 0), (0, "#"): (("#",), RIGHT, 0)})


@settings(PROPERTY, max_examples=200)
@given(case=st.one_of(
    st.tuples(st.one_of(two_way_machines(), two_way_machines().map(with_parity_lookbehind)), lassos),
    st.tuples(st.one_of(sweeping_machines(), copying_machines(),
                        copying_machines().map(lambda t: with_counting_lookbehind(t, 3)),
                        copying_machines(max_states=2).map(lambda t: with_counting_lookbehind(t, WIDE))),
              run_lassos)),
       walked=st.integers(0, 300), budget=loop_budgets, reads=reads)
@example((mirror_blocks_2wft(AB), lasso("", "a" * 70 + "b#")), 0, DEFAULT_BUDGET, [100])  # copies onto an unfilled cell
@example((copier_of_a(), lasso("", "ab" * 40 + "#")), 0, DEFAULT_BUDGET, [100])
def test_two_way_loop_records_hold_exactly_the_filled_loops(case, walked, budget, reads):
    # after a one-step walk and after each batch read on the same table;
    # and every sweep that the reads start crosses at least one cell
    machine, w = case
    crossings = []
    run = transducers._TwoWayTable.run

    def counted(*args):
        crossings.append(run(*args))
        return crossings[-1]

    transducers._TwoWayTable.run = counted
    try:
        try:
            for _ in islice(_walk(machine, w, []), walked + 1):
                pass
        except (UndefinedTransition, MovedLeftOfEndmarker):
            pass
        assert_two_way_records_hold_the_filled_loops(machine)
        outcome = _run_machine(machine, w, budget)
        for n in reads:
            outcome.try_letters(n)
            assert_two_way_records_hold_the_filled_loops(machine)
    finally:
        transducers._TwoWayTable.run = run
    assert 0 not in crossings


@settings(PROPERTY, max_examples=150)
@given(case=st.one_of(st.tuples(simple_ssts(), lassos), st.tuples(looping_ssts(), word_run_lassos(400))),
       walked=st.integers(0, 300), budget=loop_budgets, reads=reads)
@example((leaving_loop(), lasso("", "aabb")), 0, DEFAULT_BUDGET, [30])
def test_sst_loop_records_hold_exactly_the_filled_loops(case, walked, budget, reads):
    # after a one-step walk and after each batch read on the same table
    s, w = case
    walk = _walk_sst(s, w, [], _Registers(s.registers), s.out, s.initial, 0)
    try:
        for _ in islice(walk, walked + 1):
            pass
    except UndefinedTransition:
        pass
    assert_sst_records_hold_the_filled_loops(s)
    outcome = run_sst(s, w, budget)
    for n in reads:
        outcome.try_letters(n)
        assert_sst_records_hold_the_filled_loops(s)


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


def naive_cycle(dfa, w):
    """Reference for _oracle_cycle: a walk of the ``transitions`` dict that
    keys the state after n >= |u| letters with (n - |u|) mod |v| and stops
    at the first repeated key."""
    states, seen = [dfa.initial], {}
    while True:
        n = len(states) - 1
        if n >= len(w.u):
            spot = (states[n], (n - len(w.u)) % len(w.v))
            if spot in seen:
                return states, seen[spot], n - seen[spot]
            seen[spot] = n
        key = (states[n], w.letter(n))
        if key not in dfa.transitions:
            raise UndefinedTransition(n, n, key)
        states.append(dfa.transitions[key])


@st.composite
def small_dfas(draw):
    """Random partial DFA over ab with 1-4 states."""
    states = range(draw(st.integers(1, 4)))
    tr = {(q, a): draw(st.sampled_from(states)) for q in states for a in AB.letters if defined(draw)}
    return Dfa(states, draw(st.sampled_from(states)), (), AB, tr)


@PROPERTY
@given(dfa=small_dfas(), w=st.builds(lasso, st.text("abc", max_size=4),
                                     st.text("abc", min_size=1, max_size=5)))
def test_an_automaton_lasso_cycle_is_the_naive_walks(dfa, w):
    # c is outside the automaton's alphabet, so a run that reads it halts
    try:
        want = naive_cycle(dfa, w)
    except UndefinedTransition as halt:
        with pytest.raises(UndefinedTransition) as got:
            _oracle_cycle(dfa, w)
        assert (got.value.position, got.value.step, got.value.detail) == (halt.position, halt.step, halt.detail)
    else:
        assert _oracle_cycle(dfa, w) == want


@settings(PROPERTY, max_examples=40)
@given(s=simple_ssts(), w=lassos)
def test_unlookbehind_of_a_compiled_sst_refuses_or_runs_like_the_sst(s, w):
    try:
        plain = eliminate_lookbehind_lasso(compile_sst_to_2wftb(s), w)
    except (BudgetExceeded, UndefinedTransition, MovedLeftOfEndmarker):
        return
    got = run_2wft(plain, w, budget=5000).try_letters(LETTERS)[0]
    assert got == run_sst(s, w, budget=5000).try_letters(LETTERS)[0]


@settings(PROPERTY, max_examples=200)
@given(s=simple_ssts(), w=lassos)
def test_a_compiled_sst_runs_like_the_sst(s, w):
    got, halt = run_2wft_b(compile_sst_to_2wftb(s), w, budget=5000).try_letters(LETTERS)
    want, want_halt = run_sst(s, w, budget=5000).try_letters(LETTERS)
    assert got == want
    assert halt_kind(halt) is halt_kind(want_halt)


@settings(PROPERTY, max_examples=300)
@given(machine=two_way_machines(marker_moves=(RIGHT,)), w=lassos)  # more runs get past the marker
def test_unlookbehind_refuses_or_runs_like_the_lookbehind_machine(machine, w):
    """On 2wftbs that are not compiled SSTs: the oracle counts a's modulo 2,
    so its cycle on w can be twice w's period. The result is the run's path:
    one transition per state but the one the run halts in, if it halts, and
    at most |Q|·p (state, residue) states after the prologue."""
    wrapped = with_parity_lookbehind(machine)
    try:
        plain = eliminate_lookbehind_lasso(wrapped, w)
    except (BudgetExceeded, UndefinedTransition, MovedLeftOfEndmarker):
        return
    rows = Counter(q for q, _a in plain.transitions)
    assert set(rows.values()) == {1} and len(set(plain.states) - set(rows)) <= 1
    period = _oracle_cycle(wrapped.oracle, w)[2]
    assert sum(q[0] in wrapped.states for q in plain.states) <= len(wrapped.states) * period
    # a budget far above any gap between letters of a settled run here
    got, halt = run_2wft(plain, w, budget=2000).try_letters(500)
    want, want_halt = run_2wft_b(wrapped, w, budget=2000).try_letters(500)
    assert got == want
    assert halt_kind(halt) is halt_kind(want_halt)


def per_letter_subword_counts(w, k_max):
    """Reference counts: every factor of one preperiod-plus-period span read
    letter by letter."""
    span = len(w.u) + len(w.v)
    return {k: len({tuple(w.letter(i + j) for j in range(k)) for i in range(span)})
            for k in range(1, k_max + 1)}


abc_lassos = st.builds(lasso, st.text("abc", max_size=5), st.text("abc", min_size=1, max_size=6))
subword_lassos = st.one_of(abc_lassos, st.builds(convolve_lassos, lassos, lassos))
long_lassos = st.builds(lasso, st.text("ab", max_size=12), st.text("ab", min_size=1, max_size=12))


@PROPERTY
@given(w=st.one_of(subword_lassos, long_lassos))
@example(w=lasso("", "a"))  # empty u, |v| = 1, k_max > span
@example(w=convolve_lassos(lasso("", "ab"), lasso("a", "b")))  # product letters
def test_subword_complexity_counts_the_per_letter_factors(w):
    # every k_max up to span + 3: the counts stop rising by k = span
    span = len(w.u) + len(w.v)
    full = per_letter_subword_counts(w, span + 3)
    for k_max in range(1, span + 4):
        profile = subword_complexity(w, k_max)
        assert profile.counts == {k: full[k] for k in range(1, k_max + 1)}
        assert profile.exact == profile.stable == {k: True for k in range(1, k_max + 1)}
        assert profile.window == span + k_max


@PROPERTY
@given(alpha=subword_lassos, beta=subword_lassos, factor=st.integers(1, 3), k_max=st.integers(1, 10))
def test_subword_bound_reads_the_per_letter_counts(alpha, beta, factor, k_max):
    left = per_letter_subword_counts(alpha, k_max)
    right = per_letter_subword_counts(beta, k_max)
    violations = [(k, left[k], factor * right[k]) for k in range(1, k_max + 1)
                  if left[k] > factor * right[k]]
    report = check_subword_bound(alpha, beta, factor, k_max)
    assert report.violations == violations
    assert report.holds is not violations
    assert report.conclusive


@st.composite
def normalized_pi_machines(draw, loose=False):
    """Random direction-normalized 2wft on the block word: each state moves
    one way, '0' steps keep that way and every move enters a state of its
    own direction. '0' steps are always defined and emit, so that a run
    crossing blocks yields 1000 letters within the first few dozen; in a
    ``loose`` machine they may be missing or silent."""
    moves = draw(st.lists(st.sampled_from((RIGHT, LEFT)), min_size=1, max_size=5 if loose else 4))
    movers = {m: [q for q, mq in enumerate(moves) if mq == m] for m in (LEFT, RIGHT)}
    turns = [m for m in (RIGHT, LEFT) if movers[m]]
    tr = {}
    for q, mq in enumerate(moves):
        if not loose or defined(draw):
            emitted = draw(outputs if loose else st.lists(st.sampled_from("ab"), min_size=1, max_size=2))
            tr[(q, "0")] = (tuple(emitted), mq, draw(st.sampled_from(movers[mq])))
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


@settings(PROPERTY, max_examples=300)
@given(machine=normalized_pi_machines(loose=True))
def test_one_way_simulation_on_pi_walks_within_its_bound(machine):
    # a walk past |Q|·(M + 2)² steps would break the proof in _walk_to_repeat
    # and raise InvariantViolation; a short validation keeps silent runs cheap
    try:
        one_way_simulation_on_pi(machine, probe_range=20)
    except (UnstableClassification, NoWindowBound):
        pass


@settings(PROPERTY, max_examples=300)
@given(machine=two_way_machines(marker_moves=(RIGHT,), alphabet=BINARY, max_states=4))
def test_normalize_directions_on_pi_refuses_or_runs_like_the_machine(machine):
    try:
        result = normalize_directions_on_pi(machine)
    except (UnstableClassification, ValidationFailed):
        return
    assert direction_partition(result) is not None
    if result is machine:  # already partitioned, passed through
        return
    pi = pi_word(1)
    want, halt = run_2wft(machine, pi).try_letters(1000)
    got, got_halt = run_2wft(result, pi).try_letters(1000)
    assert got == want
    assert halt_kind(got_halt) is halt_kind(halt)


def direct_excursion(machine, q, side, length, steps):
    """Run machine from state q on the cell of a block of ``length`` 0s next
    to the 1 on ``side``, with a 1 on each side of the block, for at most
    ``steps`` steps. Returns (arrivals, out, exit): arrivals holds (state,
    len(out)) at the first arrival in each cell, counted from the entry
    side, and exit is (state, side) on a 1, or None when the run halts or
    stays inside."""
    tape = ["1"] + ["0"] * length + ["1"]
    pos = 1 if side == "L" else length
    out, arrivals = [], [(q, 0)]
    for _ in range(steps):
        hit = machine.transitions.get((q, tape[pos]))
        if hit is None:
            return arrivals, out, None
        emitted, move, q = hit
        out.extend(emitted)
        pos += 1 if move == RIGHT else -1
        if tape[pos] == "1":
            return arrivals, out, (q, "L" if pos == 0 else "R")
        depth = pos - 1 if side == "L" else length - pos
        if depth == len(arrivals):
            arrivals.append((q, len(out)))
    return arrivals, out, None


@PROPERTY
@given(machine=two_way_machines(alphabet=BINARY, max_states=4))
def test_an_excursion_is_classified_as_a_direct_run_on_a_long_block_behaves(machine):
    length = 40  # longer than any ramp plus two drifts of 4 states
    for q in machine.states:
        for side in "LR":
            cls = _classify_excursion(machine, q, side)
            arrivals, out, exit_ = direct_excursion(machine, q, side, length, 4000)
            if isinstance(cls, _Return):
                assert exit_ == (cls.exit_state, side)
                assert tuple(out) == cls.output
                assert len(arrivals) - 1 == cls.depth
            elif isinstance(cls, _Cross):
                assert exit_ is not None and exit_[1] != side
                for m in range(length - 1):
                    k = m if m < cls.ramp else cls.ramp + (m - cls.ramp) % cls.drift
                    assert arrivals[m][0] == cls.cell_state(m)
                    assert tuple(out[arrivals[m][1]:arrivals[m + 1][1]]) == cls.chunks[k]
            else:
                assert exit_ is None


def naive_canonical_lasso(u, v):
    """canonical_lasso from its definition: the shortest root of v, then one
    letter at a time off u while u ends as the period does, turning it."""
    for p in range(1, len(v) + 1):
        if len(v) % p == 0 and v == v[:p] * (len(v) // p):
            v = v[:p]
            break
    while u and u[-1] == v[-1]:
        u, v = u[:-1], v[-1] + v[:-1]
    return u, v


@st.composite
def lasso_parts(draw):
    """(u, v) over abc: v a power of a root, and u often ending in a suffix
    of a power of that root, so that a long stretch of u can be cut."""
    root = draw(st.text("abc", min_size=1, max_size=4))
    v = root * draw(st.integers(1, 3))
    repeats = root * draw(st.integers(0, 4))
    return draw(st.text("abc", max_size=3)) + repeats[draw(st.integers(0, len(repeats))):], v


@PROPERTY
@given(parts=lasso_parts())
def test_canonical_lasso_is_its_definition(parts):
    u, v = parts
    abc = Alphabet.of("abc")
    got = canonical_lasso(word(u, abc), word(v, abc))
    assert (got.u.to_str(), got.v.to_str()) == naive_canonical_lasso(u, v)


@st.composite
def dfas(draw):
    """Random partial DFA with up to 14 states, so that its state names run
    past s9."""
    states = range(draw(st.integers(1, 14)))
    tr = {(q, a): draw(st.sampled_from(states)) for q in states for a in AB.letters if defined(draw)}
    return Dfa(states, 0, {q for q in states if draw(st.booleans())}, AB, tr)


def run_signature(machine, w):
    """What a run shows in its first LETTERS letters: the letters and how it
    halts, without the halt's states, which a document renames. A DFA shows
    whether it accepts each prefix it reads."""
    if isinstance(machine, Dfa):
        q, accepts = machine.initial, []
        for i in range(LETTERS):
            accepts.append(q in machine.accepting)
            q = machine.step(q, w.letter(i))
            if q is None:
                break
        return accepts
    try:
        letters, halt = _run_machine(machine, w, BUDGET).try_letters(LETTERS)
    except AdviceBenchError as refused:  # a general sst that has no limit to stream
        return type(refused)
    return letters, type(halt), getattr(halt, "position", None), getattr(halt, "step", None)


padded_lassos = st.builds(lasso, st.text("ab_", max_size=4), st.text("ab_", min_size=1, max_size=5),
                          st.just(AB))


@settings(PROPERTY, max_examples=400)
@given(machine_and_word=st.one_of(
    st.tuples(st.one_of(one_way_machines(), mealy_machines(), simple_ssts(), general_ssts(), dfas(),
                        two_way_machines(reads=AB.letters + (ENDMARKER, PAD))), padded_lassos),
    st.tuples(two_way_machines().map(with_parity_lookbehind), lassos),
))
def test_a_reloaded_machine_runs_like_the_machine(machine_and_word):
    machine, w = machine_and_word
    text = dumps(machine_to_doc(machine))
    again = machine_from_doc(json.loads(text))
    assert dumps(machine_to_doc(again)) == text
    assert run_signature(again, w) == run_signature(machine, w)


CORPUS_MACHINES = (
    *corpus.builtin_machines().values(),
    corpus.two_phase_sst(),
    corpus.pinned_lookbehind_2wftb(),
    delay_mealy("a", AB),
    pref_advice_automaton(AB),
    pref_graph_dfa(delay_mealy("a", AB)),
    BuchiAutomaton({0, 1}, {0}, {1}, AB, {(0, "a"): {0, 1}, (1, "b"): {0}}),
)
CORPUS_DOCUMENTS = [machine_to_doc(m) for m in CORPUS_MACHINES]

#: letters that JSON escapes in a string or uses for its structure
JSON_SIGNS = Alphabet.of('"\\{},')


@st.composite
def json_sign_machines(draw):
    """A 1wft, 2wft or simple sst that reads and writes JSON_SIGNS."""
    letters = JSON_SIGNS.letters
    words = st.lists(st.sampled_from(letters), max_size=3).map(tuple)
    states = range(draw(st.integers(1, 3)))
    kind = draw(st.sampled_from(["1wft", "2wft", "sst"]))
    if kind == "sst":
        tr = {(q, a): draw(st.sampled_from(states)) for q in states for a in letters}
        updates = {key: Substitution({"out": (Reg("out"), *draw(words))}) for key in tr}
        return SimpleSst(states, 0, JSON_SIGNS, JSON_SIGNS, ("out",), tr, updates)
    if kind == "1wft":
        tr = {(q, a): (draw(words), draw(st.sampled_from(states))) for q in states for a in letters}
        return OneWayTransducer(states, 0, JSON_SIGNS, JSON_SIGNS, tr)
    tr = {(q, a): (draw(words), RIGHT if a is ENDMARKER else draw(st.sampled_from((LEFT, RIGHT))),
                   draw(st.sampled_from(states)))
          for q in states for a in letters + (ENDMARKER,)}
    return TwoWayTransducer(states, 0, JSON_SIGNS, JSON_SIGNS, tr)


def row_lists(doc):
    """The transition row lists of a machine document, an oracle's first."""
    return (row_lists(doc["oracle"]) if "oracle" in doc else []) + [doc["transitions"]]


@settings(PROPERTY, max_examples=200)
@given(machine=st.one_of(st.sampled_from(CORPUS_MACHINES), one_way_machines(), two_way_machines(),
                         two_way_machines().map(with_parity_lookbehind), simple_ssts(), general_ssts(),
                         json_sign_machines()))
def test_a_document_puts_each_transition_row_on_a_line_of_its_own(machine):
    doc = machine_to_doc(machine)
    text = dumps(doc)
    lists = row_lists(doc)
    lines = text.splitlines()
    rows = [json.loads(line.rstrip(",")) for line in lines if line.startswith('{"from": ')]
    assert rows == [row for rows_of_one_list in lists for row in rows_of_one_list]
    # besides its rows, a line opens the document and one closes each row list
    assert len(lines) == len(rows) + 1 + sum(map(bool, lists))
    assert json.loads(text) == doc
    assert dumps(machine_to_doc(machine_from_doc(json.loads(text)))) == text


JSON_VALUES = (None, 0, -1, 2.5, True, "", "a", "^", "_", "out x", [], ["a"], [[]], {}, {"a": "b"})


def mutated_document(pick):
    """A corpus machine document with one field or list item deleted or
    replaced by another JSON value; ``pick`` chooses one item of a sequence."""
    doc = json.loads(json.dumps(pick(CORPUS_DOCUMENTS)))
    node = doc
    while True:
        key = pick(sorted(node) if isinstance(node, dict) else range(len(node)))
        if not (isinstance(node[key], (dict, list)) and node[key] and pick(range(4)) > 0):
            break
        node = node[key]
    if pick((False, True)):
        del node[key]
    else:
        node[key] = pick(JSON_VALUES)
    return doc


@st.composite
def mutated_documents(draw):
    return mutated_document(lambda items: draw(st.sampled_from(items)))


@settings(PROPERTY, max_examples=1000)
@given(doc=mutated_documents())
def test_a_mutated_document_loads_or_is_refused(doc):
    try:
        machine_from_doc(doc)
    except (ParseError, NotDeterministic, InvariantViolation):
        pass
