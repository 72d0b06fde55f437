from __future__ import annotations

import random

import pytest

from advicebench import corpus
from advicebench.analysis import Equal, prefix_equiv
from advicebench.advice import Dfa
from advicebench.checks import SST_CASES
from advicebench.errors import (
    AdviceNotLasso,
    BudgetExceeded,
    MalformedSimpleSst,
    NoOutputFunction,
    UndefinedTransition,
)
from advicebench.sst import (
    Reg,
    SimpleSst,
    Sst,
    Substitution,
    compile_sst_to_2wftb,
    compose_substitutions,
    eliminate_lookbehind_lasso,
    run_sst,
    simplify_to_simple_sst,
    validate_copyless,
)
from advicebench.transducers import (
    ENDMARKER,
    LEFT,
    RIGHT,
    LookbehindTransducer,
    _oracle_cycle,
    _walk,
    mirror_blocks_2wft,
    run_2wft,
    run_2wft_b,
)
from advicebench.words import PAD, Alphabet, block_mirror, lasso, pi_word

AB = Alphabet.of("ab")


def test_copyless_examples():
    ok = Substitution({"x": (Reg("z"),), "y": (Reg("y"), Reg("x")), "z": ()})
    assert validate_copyless(ok).ok
    bad = Substitution({"x": (Reg("x"),), "y": (Reg("x"),)})
    report = validate_copyless(bad)
    assert not report.ok and report.register == "x"
    identity = Substitution({"x": (Reg("x"),), "y": (Reg("y"),)})
    assert validate_copyless(identity).ok


def test_copyless_enforced_on_machines():
    with pytest.raises(MalformedSimpleSst):
        SimpleSst(
            {"q"}, "q", AB, AB, ("x", "out"),
            {("q", "a"): "q"},
            {("q", "a"): Substitution({"x": (Reg("x"), Reg("x")), "out": (Reg("out"),)})},
        )


@pytest.mark.parametrize("transitions, update", [
    ({("q", "a"): "elsewhere"}, {"x": (), "out": (Reg("out"),)}),
    ({("q", "c"): "q"}, {"x": (), "out": (Reg("out"),)}),
    ({("q", "a"): "q"}, {"x": ("c",), "out": (Reg("out"),)}),
    ({("q", "a"): "q"}, {"x": (), "out": (Reg("out"), Reg("y"))}),
], ids=["undeclared-state", "read", "update-letter", "undeclared-register"])
def test_ssts_check_states_and_letters(transitions, update):
    updates = {key: Substitution(update) for key in transitions}
    with pytest.raises(ValueError):
        Sst({"q"}, "q", AB, AB, ("x", "out"), transitions, updates, {})
    with pytest.raises(ValueError):
        SimpleSst({"q"}, "q", AB, AB, ("x", "out"), transitions, updates)


def test_run_mirror_sst():
    source = lasso("", "ab#")
    got = run_sst(corpus.mirror_sst(), source)
    assert prefix_equiv(got, block_mirror(source), 500) == Equal(500)


def test_run_sst_streams_a_deeply_nested_register():
    # x ↦ z·a·x with z emptied on every step nests x one level deeper per
    # letter: a 6000-letter block goes far past the recursion limit
    full = Alphabet.of("ab#")
    updates = {
        ("q", a): Substitution({"z": (), "x": (Reg("z"), a, Reg("x")), "out": (Reg("out"),)})
        for a in "ab"
    }
    updates[("q", "#")] = Substitution({"z": (), "x": (), "out": (Reg("out"), Reg("x"), "#")})
    machine = SimpleSst({"q"}, "q", full, full, ("z", "x", "out"),
                        {key: "q" for key in updates}, updates)
    source = lasso("", "aab" * 2000 + "#")
    assert prefix_equiv(run_sst(machine, source), block_mirror(source), 12002) == Equal(12002)


def test_run_identity_sst():
    source = lasso("", "01")
    got = run_sst(corpus.identity_sst(), source)
    assert prefix_equiv(got, source, 300) == Equal(300)


def test_run_interleave_sst():
    source = lasso("", "abab#ba#")
    got = run_sst(corpus.interleave_sst(), source)
    # each block is regrouped: letters a first, then b, then the marker
    assert got.prefix_str(16) == "aabb#ab#aabb#ab#"


def test_simple_sst_that_never_grows_stalls():
    quiet = SimpleSst(
        {"q"}, "q", AB, AB, ("out",),
        {("q", a): "q" for a in AB.letters},
        {("q", a): Substitution({"out": (Reg("out"),)}) for a in AB.letters},
    )
    outcome = run_sst(quiet, lasso("", "ab"), budget=300)
    with pytest.raises(BudgetExceeded):
        outcome.letter(0)


def test_general_sst_needs_lasso():
    with pytest.raises(AdviceNotLasso):
        run_sst(corpus.two_phase_sst(), pi_word(1))


def test_general_sst_streams_frozen_head_then_tail():
    source = lasso("a", "bc")
    got = run_sst(corpus.two_phase_sst(), source)
    assert got.prefix_str(9) == "abcbcbcbc"


def test_general_sst_finite_limit_pads():
    source = lasso("a", "b")
    got = run_sst(corpus.finite_output_sst(), source)
    assert got.letters(5) == ["a", "b", PAD, PAD, PAD]


def test_general_sst_delayed_emission_is_not_finite():
    # the output register is fed through a helper, so the first cycle after
    # the transient emits nothing; the limit is still infinite
    full = Alphabet.of("ab")
    machine = Sst(
        {"t", "p"}, "t", full, full, ("x", "y"),
        {("t", "a"): "p", ("p", "b"): "p"},
        {
            ("t", "a"): Substitution({"x": (), "y": ()}),
            ("p", "b"): Substitution({"x": ("a",), "y": (Reg("y"), Reg("x"))}),
        },
        {frozenset({"p"}): ("y",)},
    )
    got = run_sst(machine, lasso("a", "b"))
    assert got.letters(4) == ["a", "a", "a", "a"]


def test_general_sst_flush_then_silent_pads():
    # support of the scratch register drops after one cycle; the limit is finite
    full = Alphabet.of("ab")
    machine = Sst(
        {"t", "p"}, "t", full, full, ("x", "y"),
        {("t", "a"): "p", ("p", "b"): "p"},
        {
            ("t", "a"): Substitution({"x": ("a", "b"), "y": ()}),
            ("p", "b"): Substitution({"x": (), "y": (Reg("y"), Reg("x"))}),
        },
        {frozenset({"p"}): ("y",)},
    )
    got = run_sst(machine, lasso("a", "b"))
    assert got.letters(5) == ["a", "b", PAD, PAD, PAD]


def test_general_sst_checks_its_limit_from_a_cycle_start():
    # the run is in its recurring state from letter 0 on, but the input
    # cycle starts after the preperiod a: the finiteness test must count
    # whole input cycles from there, where b appends a forever
    machine = Sst(
        {"s0"}, "s0", AB, AB, ("y",),
        {("s0", "a"): "s0", ("s0", "b"): "s0"},
        {
            ("s0", "a"): Substitution({"y": (Reg("y"),)}),
            ("s0", "b"): Substitution({"y": (Reg("y"), "a")}),
        },
        {frozenset({"s0"}): ("y",)},
    )
    assert run_sst(machine, lasso("a", "b")).prefix_str(6) == "aaaaaa"
    assert run_sst(machine, lasso("", "b")).prefix_str(6) == "aaaaaa"
    assert run_sst(machine, lasso("b", "a")).letters(3) == ["a", PAD, PAD]


def test_general_sst_no_output_function():
    machine = corpus.two_phase_sst()
    bad_input = lasso("a", "b")  # recurring states differ from dom(F)? same P here
    # build an input whose recurring set is not in the output function
    other = Sst(
        machine.states, machine.initial, machine.input_alphabet, machine.output_alphabet,
        machine.registers, machine.transitions, machine.updates,
        {frozenset({"t"}): ("out",)},
    )
    with pytest.raises(NoOutputFunction):
        run_sst(other, lasso("a", "bc")).letter(0)


def ground(tokens, values) -> list:
    """The letters of a right-hand side with each register replaced by its value."""
    acc = []
    for tok in tokens:
        if isinstance(tok, Reg):
            acc.extend(values[tok.name])
        else:
            acc.append(tok)
    return acc


def test_substitution_composition_matches_stepwise_grounding():
    rng = random.Random(97)
    regs = ("x", "y", "z")

    def random_sub():
        mapping = {}
        budget = list(regs)
        rng.shuffle(budget)
        for name in regs:
            tokens = []
            for _ in range(rng.randrange(3)):
                if budget and rng.random() < 0.4:
                    tokens.append(Reg(budget.pop()))
                else:
                    tokens.append(rng.choice("ab"))
            mapping[name] = tuple(tokens)
        return Substitution(mapping)

    for _ in range(60):
        chain = [random_sub() for _ in range(rng.randint(1, 6))]
        # stepwise: ground through the chain one substitution at a time
        values = {name: [] for name in regs}
        for sub in chain:
            values = {name: ground(sub.rhs(name), values) for name in regs}
        # composed: fold substitutions together, then ground once
        composed = chain[0]
        for sub in chain[1:]:
            composed = compose_substitutions(composed, sub)
        empty = {name: [] for name in regs}
        for name in regs:
            assert ground(composed.rhs(name), empty) == values[name]


def test_copylessness_preserved_under_composition():
    rng = random.Random(101)
    regs = ("x", "y", "z")

    def random_copyless():
        mapping = {name: [] for name in regs}
        pool = [Reg(name) for name in regs] + [c for c in "ab"]
        rng.shuffle(pool)
        used = set()
        for tok in pool:
            if isinstance(tok, Reg):
                if tok.name in used or rng.random() < 0.3:
                    continue
                used.add(tok.name)
            elif rng.random() < 0.5:
                continue
            mapping[rng.choice(regs)].append(tok)
        return Substitution({k: tuple(v) for k, v in mapping.items()})

    for _ in range(200):
        one, two = random_copyless(), random_copyless()
        assert validate_copyless(one).ok and validate_copyless(two).ok
        assert validate_copyless(compose_substitutions(one, two)).ok


def test_streamed_output_is_append_only():
    source = lasso("", "ab#baa#")
    sst = corpus.mirror_sst()
    small = run_sst(sst, source).letters(40)
    large = run_sst(sst, source).letters(200)
    assert large[:40] == small


def test_simplify_already_simple():
    sst = corpus.identity_sst()
    source = lasso("0", "10")
    simple = simplify_to_simple_sst(sst, source)
    assert prefix_equiv(run_sst(simple, source), run_sst(sst, source), 500) == Equal(500)


def test_simplify_two_phase():
    machine = corpus.two_phase_sst()
    source = lasso("a", "bc")
    simple = simplify_to_simple_sst(machine, source)
    assert isinstance(simple, SimpleSst)
    assert prefix_equiv(run_sst(simple, source), run_sst(machine, source), 500) == Equal(500)
    boots = [q for q in simple.states if isinstance(q, tuple) and q[0] == "boot"]
    assert len(boots) == 1  # transient phase has one step


def test_simplify_names_its_prologue_apart_from_the_machines_states():
    # t0 -a-> t1 -b-> P, P -b-> P with P named like the second prologue
    # state: a prologue key (P, "b") would shadow P's own loop
    recurring = ("boot", 1)
    transitions = {("t0", "a"): "t1", ("t1", "b"): recurring, (recurring, "b"): recurring}
    emits = {"t0": "a", "t1": "a", recurring: "b"}
    updates = {key: Substitution({"out": (Reg("out"), emits[key[0]])}) for key in transitions}
    machine = SimpleSst({"t0", "t1", recurring}, "t0", AB, AB, ("out",), transitions, updates)
    source = lasso("ab", "b", AB)
    assert "".join(run_sst(machine, source).letters(6)) == "aabbbb"
    simple = simplify_to_simple_sst(machine, source)
    assert prefix_equiv(run_sst(simple, source), run_sst(machine, source), 500) == Equal(500)


def test_simplify_requires_output_function():
    machine = corpus.two_phase_sst()
    stripped = Sst(
        machine.states, machine.initial, machine.input_alphabet, machine.output_alphabet,
        machine.registers, machine.transitions, machine.updates, {},
    )
    with pytest.raises(NoOutputFunction):
        simplify_to_simple_sst(stripped, lasso("a", "bc"))


@pytest.mark.parametrize("build,inputs", [
    (corpus.mirror_sst, ["ab#", "ab#baa#"]),
    (corpus.identity_sst, ["01", "0110"]),
    (corpus.interleave_sst, ["ab#", "abab#ba#"]),
])
def test_compile_matches_interpreter(build, inputs):
    sst = build()
    compiled = compile_sst_to_2wftb(sst)
    for period in inputs:
        source = lasso("", period)
        got = run_2wft_b(compiled, source)
        want = run_sst(sst, source)
        assert prefix_equiv(got, want, 500) == Equal(500)


@pytest.mark.parametrize("other", [("oracle-dead",), ("sink", 2)], ids=["oracle-dead", "sink-2"])
def test_the_oracle_sink_of_a_compiled_sst_is_a_new_state(other):
    # the control has no move from `other` on b, so the oracle is completed
    # with a sink, which must not be one of the machine's own states
    def append(*letters):
        return Substitution({"out": (Reg("out"),) + letters})

    s = SimpleSst({"p", other}, "p", AB, AB, ("out",),
                  {("p", "a"): other, (other, "a"): "p", ("p", "b"): "p"},
                  {("p", "a"): append("a"), (other, "a"): append("b"), ("p", "b"): append()})
    source = lasso("", "a")
    assert run_sst(s, source).prefix_str(8) == "abababab"
    assert prefix_equiv(run_2wft_b(compile_sst_to_2wftb(s), source), run_sst(s, source), 200) == Equal(200)


def test_compiled_walk_back_positions():
    # a register chain spanning three cells forces the narrated excursion:
    # left, left, right, right over the window, emitting the nested values
    sst = corpus.nested_register_sst()
    compiled = compile_sst_to_2wftb(sst)
    source = lasso("", "c")
    letters = run_2wft_b(compiled, source).letters(3)
    assert "".join(letters) == "baa"
    out: list = []
    positions = []
    for _state, pos in _walk(compiled, source, out):
        if len(out) >= 3:
            break
        positions.append(pos)
    flat = ",".join(map(str, positions))
    assert "3,2,1,2,1,0,1,2,3" in flat


def test_eliminate_lookbehind_on_compiled_machines():
    sst = corpus.mirror_sst()
    compiled = compile_sst_to_2wftb(sst)
    source = lasso("", "ab#")
    plain = eliminate_lookbehind_lasso(compiled, source)
    assert prefix_equiv(run_2wft(plain, source), run_2wft_b(compiled, source), 500) == Equal(500)


def test_eliminate_lookbehind_ignoring_machine():
    from advicebench.transducers import mirror_blocks_2wft

    wrapped = corpus.with_trivial_lookbehind(mirror_blocks_2wft(AB))
    source = lasso("", "ab#baa#")
    plain = eliminate_lookbehind_lasso(wrapped, source)
    assert prefix_equiv(run_2wft(plain, source), run_2wft_b(wrapped, source), 500) == Equal(500)


def test_eliminate_lookbehind_rejects_pinned_machine():
    with pytest.raises(BudgetExceeded) as err:
        eliminate_lookbehind_lasso(corpus.pinned_lookbehind_2wftb(), lasso("", "ab"))
    assert err.value.loop is not None


def far_return_2wftb():
    """On b·(aaaa#)^ω: walks right to the fifth '#', emits 600 x's, walks
    back to the b, which only the oracle state of the first position lets
    it read, emits y and then copies c's forward forever."""
    abh = Alphabet.of("ab#")
    oracle = Dfa({"z0", "z1"}, "z0", frozenset(), abh,
                 {("z0", "a"): "z0", ("z0", "#"): "z0", ("z0", "b"): "z1",
                  **{("z1", a): "z1" for a in abh.letters}})
    tr = {("s", ENDMARKER, "z0"): ((), RIGHT, ("go", 0))}
    for z in ("z0", "z1"):
        for i in range(5):
            tr[(("go", i), "a", z)] = tr[(("go", i), "b", z)] = ((), RIGHT, ("go", i))
            tr[(("go", i), "#", z)] = ((), RIGHT, ("go", i + 1)) if i < 4 else (("x",) * 600, LEFT, "back")
        tr[("back", "a", z)] = tr[("back", "#", z)] = ((), LEFT, "back")
        for a in abh.letters:
            tr[("copy", a, z)] = (("c",), RIGHT, "copy")
    tr[("back", "b", "z0")] = (("y",), RIGHT, "copy")
    states = {"s", "back", "copy"} | {("go", i) for i in range(5)}
    return LookbehindTransducer(states, "s", abh, Alphabet.of("xyc"), tr, oracle)


def test_eliminate_lookbehind_waits_for_a_far_return():
    # the run comes back to the preperiod only after 600 letters, past the
    # 500-letter validation probe; the result must still equal the original
    machine, source = far_return_2wftb(), lasso("b", "aaaa#")
    want = run_2wft_b(machine, source).prefix_str(700)
    assert want == "x" * 600 + "y" + "c" * 99
    plain = eliminate_lookbehind_lasso(machine, source)
    assert run_2wft(plain, source).prefix_str(700) == want


def test_eliminate_lookbehind_raises_a_halt_before_settling():
    machine, source = far_return_2wftb(), lasso("b", "aaaa#")
    broken = LookbehindTransducer(
        machine.states, machine.initial, machine.input_alphabet, machine.output_alphabet,
        {k: v for k, v in machine.transitions.items() if k != ("back", "b", "z0")},
        machine.oracle,
    )
    with pytest.raises(UndefinedTransition) as err:
        eliminate_lookbehind_lasso(broken, source)
    assert err.value.position == 1


def renamed_mirror_2wftb():
    """The trivially-wrapped block mirror with its state 'scan' renamed to
    'walk', the name the prologue states of an elimination are tagged with."""
    m = corpus.with_trivial_lookbehind(mirror_blocks_2wft(AB))
    ren = {"scan": "walk"}.get
    tr = {(ren(q, q), a, z): (e, d, ren(q2, q2)) for (q, a, z), (e, d, q2) in m.transitions.items()}
    return LookbehindTransducer({ren(q, q) for q in m.states}, ren(m.initial, m.initial),
                                m.input_alphabet, m.output_alphabet, tr, m.oracle)


def test_eliminate_lookbehind_names_its_prologue_apart_from_the_states():
    machine, source = renamed_mirror_2wftb(), lasso("ab#", "ba#b#")
    assert "walk" in machine.states
    plain = eliminate_lookbehind_lasso(machine, source)
    assert run_2wft(plain, source).prefix_str(300) == run_2wft_b(machine, source).prefix_str(300)


def path_cases():
    """The lookbehind check suite's cases, the compiled corpus SSTs on the
    corpus lassos over their letters, and hand-made 2wftbs."""
    cases = [(compile_sst_to_2wftb(build()), w) for _name, build, inputs in SST_CASES for w in inputs]
    for build in (corpus.mirror_sst, corpus.identity_sst, corpus.interleave_sst):
        compiled = compile_sst_to_2wftb(build())
        cases += [(compiled, w) for w in corpus.delay_test_words()[1:]
                  if set(w.u.letters + w.v.letters) <= set(compiled.input_alphabet.letters)]
    return cases + [(renamed_mirror_2wftb(), lasso("ab#", "ba#b#")),
                    (far_return_2wftb(), lasso("b", "aaaa#"))]


@pytest.mark.parametrize("machine, source", path_cases())
def test_eliminate_lookbehind_builds_only_the_run_path(machine, source):
    # the prologue, then one transition per (state, residue) the run visits,
    # each on the one letter its residue reads
    from collections import Counter

    plain = eliminate_lookbehind_lasso(machine, source)
    _zstates, ell, period = _oracle_cycle(machine.oracle, source)
    rows = Counter(q for q, _a in plain.transitions)
    assert set(rows) == set(plain.states) and set(rows.values()) == {1}
    periodic = [(q, a) for q, a in plain.transitions if q[0] in machine.states]
    assert periodic and len(periodic) <= len(machine.states) * period
    assert all(a == source.letter(ell + m) for (_q, m), a in periodic)


def test_lasso_constructions_walk_the_original_once(monkeypatch):
    # the construction's walk gives the original's exact image, so the
    # validation walks only the result, and the oracle cycle is computed once
    from collections import Counter

    from advicebench import sst, transducers

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (transducers, sst):
        for name in ("_walk_to_image", "_oracle_cycle"):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    source = lasso("", "ab#")
    eliminate_lookbehind_lasso(compile_sst_to_2wftb(corpus.mirror_sst()), source)
    assert calls == {"_walk_to_image": 2, "_oracle_cycle": 1}
    calls.clear()
    transducers.remove_endmarker(transducers.mirror_blocks_2wft(AB), source)
    assert calls == {"_walk_to_image": 2}


def test_eliminate_needs_lasso():
    compiled = compile_sst_to_2wftb(corpus.identity_sst(Alphabet.of("01")))
    with pytest.raises(AdviceNotLasso):
        eliminate_lookbehind_lasso(compiled, pi_word(1))


def test_lookbehind_run_reports_offending_triple():
    from advicebench.errors import UndefinedTransition

    partial = compile_sst_to_2wftb(corpus.identity_sst(Alphabet.of("01")))
    # remove one main transition so the run dies on the second letter
    key = next(k for k in partial.transitions if k[0] == ("main",) and k[1] == "1")
    broken = type(partial)(
        partial.states, partial.initial, partial.input_alphabet,
        partial.output_alphabet,
        {k: v for k, v in partial.transitions.items() if k != key},
        partial.oracle,
    )
    outcome = run_2wft_b(broken, lasso("", "01"))
    with pytest.raises(UndefinedTransition) as err:
        outcome.letters(5)
    assert err.value.detail is not None and len(err.value.detail) == 3


def parity_sst():
    """Copies its input over a and b, in states named by the parity of the
    letters read so far."""
    flip = {"even": "odd", "odd": "even"}
    transitions = {(q, a): flip[q] for q in flip for a in AB.letters}
    updates = {(q, a): Substitution({"x": (Reg("x"), a), "out": (Reg("out"), a)})
               for q in flip for a in AB.letters}
    return SimpleSst(set(flip), "even", AB, AB, ("x", "out"), transitions, updates)


@pytest.mark.parametrize("source, halt", [
    (lasso("aba", "c"), (3, 3, ("odd", "c"))),
    (lasso("ab", "_", AB), (2, 2, ("even", PAD))),
    (lasso("", "c"), (0, 0, ("even", "c"))),
], ids=["foreign", "pad", "first-letter"])
def test_a_simple_sst_halts_on_a_letter_it_cannot_read(source, halt):
    # the key names the machine's own state, not a row of its table
    pos = halt[0]
    run = run_sst(parity_sst(), source)
    assert run.try_letters(pos + 5) == (list(source.prefix_str(pos)), run.status)
    with pytest.raises(UndefinedTransition) as err:
        run_sst(parity_sst(), source).letters(pos + 1)
    assert (err.value.position, err.value.step, err.value.detail) == halt
    assert (run.status.position, run.status.step, run.status.detail) == halt
    assert run._engine.step_count == pos


def test_an_sst_compiles_its_table_once_however_many_runs_it_has(monkeypatch):
    from advicebench import sst

    built = []
    init = sst._SstTable.__init__

    def counted(self, s):
        built.append(s)
        init(self, s)

    monkeypatch.setattr(sst._SstTable, "__init__", counted)
    simple, general = corpus.mirror_sst(), corpus.two_phase_sst()
    assert built == []  # not at construction
    for source in (lasso("", "ab#"), lasso("ba#", "abb#"), lasso("", "ab#")):
        run = run_sst(simple, source)
        run.letters(5)
        run.try_letters(40)
        assert run_sst(simple, source).word.letter(20) == run.letters(21)[20]
    for source in (lasso("a", "bc"), lasso("a", "cbb")):
        run = run_sst(general, source)
        run.letters(5)
        run.try_letters(40)
        simplify_to_simple_sst(general, source)
    assert built == [simple, general]


def test_register_loops_are_recorded_as_their_entries_fill():
    # filling a register loop's entry adds its letter to the loop's set, in
    # one-step walks too; batch reads over the same letters add nothing
    from advicebench import sst

    x, y, out = Reg("x"), Reg("y"), Reg("out")
    flip = SimpleSst({"p", "q"}, "p", AB, AB, ("x", "y", "out"),
                     {("p", "a"): "p", ("p", "b"): "q", ("q", "b"): "q", ("q", "a"): "p"},
                     {("p", "a"): Substitution({"x": ("a", x), "y": (y,), "out": (out,)}),
                      ("p", "b"): Substitution({"x": (), "y": (y, "b"), "out": (out, x)}),
                      ("q", "b"): Substitution({"x": (x,), "y": (y, "b"), "out": (out,)}),
                      ("q", "a"): Substitution({"x": ("a",), "y": (), "out": (out, y)})})
    w = lasso("", "a" * 300 + "b" * 300)
    walk = sst._walk_sst(flip, w, [], sst._Registers(flip.registers), "out", "p", 0)
    for _ in range(200):
        next(walk)
    assert flip.table.loops == {("p", 2, 0, True): {"a"}}
    for _ in range(800):
        next(walk)
    assert flip.table.loops == {("p", 2, 0, True): {"a"}, ("q", 2, 1, False): {"b"}}
    for _ in range(2):
        assert run_sst(flip, w).prefix_str(1200) == ("a" * 300 + "b" * 300) * 2
    assert flip.table.loops == {("p", 2, 0, True): {"a"}, ("q", 2, 1, False): {"b"}}
    mirror = corpus.mirror_sst()
    assert run_sst(mirror, lasso("", "a" * 600 + "#")).prefix_str(601) == "a" * 600 + "#"
    assert mirror.table.loops == {("q", 1, 0, True): {"a"}}
    assert run_sst(mirror, lasso("", "a" * 600 + "b" * 600 + "#")).prefix_str(1201) == "b" * 600 + "a" * 600 + "#"
    assert mirror.table.loops == {("q", 1, 0, True): {"a", "b"}}
