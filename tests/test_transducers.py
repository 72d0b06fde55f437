from __future__ import annotations

import random
import tracemalloc
from collections import Counter
from itertools import islice

import pytest

from advicebench.analysis import Equal, Inconclusive, prefix_equiv
from advicebench import corpus, transducers
from advicebench.errors import (
    AdviceNotLasso,
    BudgetExceeded,
    InvariantViolation,
    MovedLeftOfEndmarker,
    NonProductive,
    UndefinedTransition,
)
from advicebench.advice import Dfa
from advicebench.sst import run_sst
from advicebench.transducers import (
    ENDMARKER,
    LEFT,
    RIGHT,
    FiniteImage,
    LookbehindTransducer,
    OneWayTransducer,
    TwoWayTransducer,
    _configurations,
    _oracle_cycle,
    _walk_to_image,
    analyze_on_constant,
    compose_1wft,
    lasso_image,
    mirror_blocks_2wft,
    mu_transducers,
    remove_endmarker,
    run_1wft,
    run_2wft,
    run_2wft_b,
    writer_2wft,
)
from advicebench.words import (
    PAD,
    Alphabet,
    ConstantWord,
    FiniteWord,
    InfiniteWord,
    LassoWord,
    block_mirror,
    duplicate,
    lasso,
    pi_word,
    shift,
    word,
)

AB = Alphabet.of("ab")
BIN = Alphabet.of("01")


def letter_copier(alphabet):
    return OneWayTransducer({"q"}, "q", alphabet, alphabet,
                            {("q", a): ((a,), "q") for a in alphabet.letters})


def test_run_1wft_letter_per_step():
    got = run_1wft(letter_copier(AB), lasso("", "ab"))
    assert got.prefix_str(6) == "ababab"


def test_run_1wft_eraser_stalls():
    eraser = OneWayTransducer({"q"}, "q", AB, AB,
                              {("q", a): ((), "q") for a in AB.letters})
    outcome = run_1wft(eraser, lasso("", "ab"), budget=500)
    with pytest.raises(BudgetExceeded):
        outcome.letter(0)
    assert isinstance(outcome.try_letters(1)[1], BudgetExceeded)


def copies_then_stalls(k):
    """A 1wft that copies its first k letters, then reads on and writes nothing."""
    tr = {(i, a): ((a,), i + 1) if i < k else ((), k) for i in range(k + 1) for a in AB.letters}
    return OneWayTransducer(range(k + 1), 0, AB, AB, tr)


def two_way_copier(alphabet):
    tr = {("q", a): ((a,), RIGHT, "q") for a in alphabet.letters}
    tr[("q", ENDMARKER)] = ((), RIGHT, "q")
    return TwoWayTransducer({"q"}, "q", alphabet, alphabet, tr)


@pytest.mark.parametrize("k", [1, 2, 7])
@pytest.mark.parametrize("run, machine", [(run_1wft, letter_copier(AB)), (run_2wft, two_way_copier(AB))])
def test_a_machine_reading_a_run_makes_it_produce_no_letter_it_does_not_need(k, run, machine):
    # a source that handed out letters in bulk would run the inner machine
    # into its stall as soon as the outer one reads its first letter
    source = lasso("", "ab")
    inner = run_1wft(copies_then_stalls(k), source, budget=50)
    outer = run(machine, inner.word, budget=50)
    assert outer.letters(k) == source.take(k)
    assert inner.produced == k
    with pytest.raises(BudgetExceeded):
        outer.letters(k + 1)


def test_a_run_output_refuses_a_negative_index_through_both_calls():
    view = run_1wft(letter_copier(AB), lasso("", "ab")).word
    for read in (view.letter, view.letters_from):
        with pytest.raises(IndexError):
            read(-1)


def test_run_1wft_doubler_matches_duplicate():
    doubler = OneWayTransducer({"q"}, "q", BIN, BIN,
                               {("q", a): ((a, a), "q") for a in BIN.letters})
    w = lasso("", "01")
    got = run_1wft(doubler, w)
    assert prefix_equiv(got, duplicate(w, 2), 400) == Equal(400)


def test_compose_identity_neutral():
    doubler = OneWayTransducer({"q"}, "q", AB, AB,
                               {("q", a): ((a, a), "q") for a in AB.letters})
    composed = compose_1wft(letter_copier(AB), doubler)
    w = lasso("b", "ab")
    assert prefix_equiv(run_1wft(composed, w), run_1wft(doubler, w), 500) == Equal(500)


def test_compose_two_doublers_quadruples():
    doubler = OneWayTransducer({"q"}, "q", AB, AB,
                               {("q", a): ((a, a), "q") for a in AB.letters})
    composed = compose_1wft(doubler, doubler)
    w = lasso("", "a")
    got = run_1wft(composed, w)
    assert prefix_equiv(got, duplicate(duplicate(w, 2), 2), 200) == Equal(200)


def random_total_1wft(rng, alphabet, max_states=4):
    n = rng.randint(1, max_states)
    states = list(range(n))
    tr = {}
    for q in states:
        for a in alphabet.letters:
            out = tuple(rng.choice(alphabet.letters) for _ in range(rng.randrange(3)))
            tr[(q, a)] = (out, rng.choice(states))
    return OneWayTransducer(states, 0, alphabet, alphabet, tr)


def test_compose_coherent_with_pipeline():
    rng = random.Random(61)
    w = lasso("", "ab")
    for _ in range(15):
        inner = random_total_1wft(rng, AB)
        outer = random_total_1wft(rng, AB)
        composed = compose_1wft(outer, inner)
        pipeline = run_1wft(outer, run_1wft(inner, w, budget=2000).word, budget=2000)
        direct = run_1wft(composed, w, budget=2000)
        direct_letters, halt1 = direct.try_letters(200)
        pipe_letters, halt2 = pipeline.try_letters(200)
        n = min(len(direct_letters), len(pipe_letters))
        assert direct_letters[:n] == pipe_letters[:n]
        # both stall together or produce the full prefix together
        assert (halt1 is None) == (halt2 is None)


def test_run_2wft_mirror_matches_combinator():
    w = lasso("", "ab#baa#")
    machine = mirror_blocks_2wft(AB)
    got = run_2wft(machine, w)
    assert prefix_equiv(got, block_mirror(w), 500) == Equal(500)


def test_run_2wft_error_paths():
    tr = {
        ("p", ENDMARKER): ((), RIGHT, "q"),
        ("q", "a"): ((), LEFT, "r"),
        ("r", ENDMARKER): ((), LEFT, "r"),
    }
    machine = TwoWayTransducer({"p", "q", "r"}, "p", AB, AB, tr)
    outcome = run_2wft(machine, lasso("", "a"))
    with pytest.raises(MovedLeftOfEndmarker):
        outcome.letter(0)

    undefined = TwoWayTransducer({"p"}, "p", AB, AB, {("p", ENDMARKER): ((), RIGHT, "p")})
    outcome = run_2wft(undefined, lasso("", "ab"))
    with pytest.raises(UndefinedTransition) as err:
        outcome.letter(0)
    assert err.value.position == 1


def test_run_2wft_deterministic_replay():
    w = lasso("", "ab#")
    machine = mirror_blocks_2wft(AB)
    one = run_2wft(machine, w)
    two = run_2wft(machine, w)
    assert one.letters(120) == two.letters(120)
    traces = []
    for _ in range(2):
        out: list = []
        traces.append([cfg + (len(out),) for cfg in islice(_configurations(machine, w, out), 200)])
    assert traces[0] == traces[1]
    assert Counter(pos for _q, pos, _n in traces[0]) == Counter(pos for _q, pos, _n in traces[1])


def test_writer_ignores_input():
    machine = writer_2wft(word("ab"), word("ba"), AB)
    for w in (lasso("", "a"), lasso("", "ab"), lasso("bb", "aab")):
        got = run_2wft(machine, w)
        expect = lasso("ab", "ba")
        assert prefix_equiv(got, expect, 300) == Equal(300)


def test_writer_output_alphabet_covers_the_preperiod():
    machine = writer_2wft(word("c"), word("ab"), AB)
    assert machine.output_alphabet == Alphabet.of("abc")
    assert run_2wft(machine, lasso("", "a")).prefix_str(5) == "cabab"


def configurations_until(walk, out, letters):
    """The configurations of a run before the one at which ``out`` first
    holds ``letters`` letters."""
    configurations = []
    for cfg in walk:
        if len(out) >= letters:
            return configurations
        configurations.append(cfg)


def most_visits(configurations, window):
    counts = Counter(pos for _state, pos in configurations)
    return max((c for pos, c in counts.items() if pos < window), default=0)


def test_visit_bounds():
    out: list = []
    mirror = configurations_until(_configurations(mirror_blocks_2wft(AB), lasso("", "ab#"), out), out, 300)
    assert most_visits(mirror, 200) <= 3


def test_visit_bound_overflow_means_loop():
    machine = corpus.zigzag_2wft()
    w = lasso("", "ab")
    letters = run_2wft(machine, w, budget=10_000).letters(40)
    out: list = []
    configurations = configurations_until(_configurations(machine, w, out), out, 40)
    assert most_visits(configurations, 10) > len(machine.states)
    # the run shows a configuration repeat and the output is periodic
    assert len(set(configurations)) < len(configurations)
    assert "".join(letters) == "ab" * 20


def test_analyze_forward_emitter():
    tr = {}
    for a in list(AB.letters) + [ENDMARKER]:
        tr[("q", a)] = (("a",), RIGHT, "q")
    machine = TwoWayTransducer({"q"}, "q", AB, AB, tr)
    found = analyze_on_constant(machine, "b")
    assert found.u.to_str() == "" and found.v.to_str() == "a"


def test_analyze_zigzag_exact_repeat():
    found = analyze_on_constant(corpus.zigzag_2wft(), "a")
    assert found.u.to_str() == "" and found.v.to_str() == "ab"


def test_analyze_drifter_matches_simulation():
    machine = corpus.drifter_2wft()
    found = analyze_on_constant(machine, "a")
    direct = run_2wft(machine, ConstantWord("a"))
    assert prefix_equiv(found, direct, 2000) == Equal(2000)


def test_analyze_nonproductive():
    tr = {}
    for a in list(AB.letters) + [ENDMARKER]:
        tr[("q", a)] = ((), RIGHT, "q")
    machine = TwoWayTransducer({"q"}, "q", AB, AB, tr)
    with pytest.raises(NonProductive):
        analyze_on_constant(machine, "a")


def test_analyze_budget():
    # a step budget bounds only a stream: the analysis takes none, and the
    # raw run needs at most 2 steps per letter
    machine = corpus.drifter_2wft()
    found = analyze_on_constant(machine, "a")
    assert prefix_equiv(found, run_2wft(machine, ConstantWord("a"), budget=2), 2000) == Equal(2000)


def test_analyze_clears_configurations_on_endmarker_visits():
    # a configuration before an endmarker visit must not close a loop with
    # one after it: the raw run is bbbbabbbaabaab..., not (bbbbab)^ω
    tr = {
        (0, ENDMARKER): ((), RIGHT, 3), (0, PAD): (("a", "b"), RIGHT, 3),
        (1, ENDMARKER): (("a",), RIGHT, 3), (1, PAD): (("a", "b"), RIGHT, 2),
        (2, ENDMARKER): (("b", "b"), RIGHT, 0), (2, PAD): (("a",), RIGHT, 1),
        (3, ENDMARKER): ((), RIGHT, 1), (3, PAD): (("b", "b"), LEFT, 2),
    }
    machine = TwoWayTransducer(range(4), 0, Alphabet.of("x"), AB, tr)
    found = analyze_on_constant(machine, PAD)
    raw = run_2wft(machine, ConstantWord(PAD, Alphabet.of("x")))
    assert raw.prefix_str(14) == "bbbbabbbaabaab"
    assert prefix_equiv(found, raw, 500) == Equal(500)


def random_constant_reader(rng, size):
    """Random 2wft over one input letter, x, with up to two output letters per step."""
    tr = {}
    for q in range(size):
        for a in (ENDMARKER, "x"):
            out = tuple(rng.choice("ab") for _ in range(rng.randrange(3)))
            move = LEFT if rng.random() < (0.05 if a is ENDMARKER else 0.5) else RIGHT
            tr[(q, a)] = (out, move, rng.randrange(size))
    return TwoWayTransducer(range(size), 0, Alphabet.of("x"), AB, tr)


def test_analyze_on_constant_matches_raw_runs():
    rng = random.Random(1801)
    for _ in range(400):
        machine = random_constant_reader(rng, rng.randint(3, 8))
        raw = run_2wft(machine, ConstantWord("x"), budget=2000)
        try:
            found = analyze_on_constant(machine, "x")
        except NonProductive as exc:
            # the raw run emits exactly the prefix, then stalls
            got, halt = raw.try_letters(len(exc.prefix) + 1)
            assert got == list(exc.prefix) and isinstance(halt, BudgetExceeded)
            continue
        except (UndefinedTransition, MovedLeftOfEndmarker) as exc:
            _got, halt = raw.try_letters(5000)
            assert type(halt) is type(exc)
            continue
        assert raw.letters(200) == [found.letter(i) for i in range(200)]


def test_remove_endmarker_simple_prologue():
    # touches the marker only on its first step
    tr = {("p", ENDMARKER): (("x",), RIGHT, "q")}
    for a in AB.letters:
        tr[("q", a)] = ((a,), RIGHT, "q")
    machine = TwoWayTransducer({"p", "q"}, "p", AB, Alphabet.of("abx"), tr)
    w = lasso("", "ab")
    trimmed = remove_endmarker(machine, w)
    assert prefix_equiv(run_2wft(trimmed, w), run_2wft(machine, w), 500) == Equal(500)
    assert len(trimmed.states) == len(machine.states) + 1


def test_remove_endmarker_mirror():
    w = lasso("", "ab#")
    machine = mirror_blocks_2wft(AB)
    trimmed = remove_endmarker(machine, w)
    assert prefix_equiv(run_2wft(trimmed, w), run_2wft(machine, w), 500) == Equal(500)
    # the endmarker transition survives only as the boot step
    marker_uses = [q for (q, a) in trimmed.transitions if a is ENDMARKER]
    assert len(marker_uses) == 1


def test_remove_endmarker_rejects_bouncer():
    with pytest.raises(BudgetExceeded) as err:
        remove_endmarker(corpus.endmarker_bouncer_2wft(), lasso("", "ab"))
    assert err.value.loop is not None
    assert err.value.loop.v.to_str() == "a"


def test_remove_endmarker_refuses_an_input_that_is_not_a_lasso():
    tr = {("q", ENDMARKER): ((), RIGHT, "q")}
    tr.update({("q", a): ((a,), RIGHT, "q") for a in BIN.letters})
    copier = TwoWayTransducer({"q"}, "q", BIN, BIN, tr)
    with pytest.raises(AdviceNotLasso):
        remove_endmarker(copier, pi_word(1))


def far_return_2wft():
    """Scans c's to the first a and emits it, walks back to the endmarker
    and emits x, then copies the c's forward, then the rest of the input."""
    abc = Alphabet.of("abc")
    tr = {("scan", ENDMARKER): ((), RIGHT, "scan"), ("scan", "c"): ((), RIGHT, "scan"),
          ("scan", "a"): (("a",), LEFT, "back"), ("back", "c"): ((), LEFT, "back"),
          ("back", ENDMARKER): (("x",), RIGHT, "copy")}
    for a in abc.letters:
        tr[("copy", a)] = ((a,), RIGHT, "copy")
    return TwoWayTransducer({"scan", "back", "copy"}, "scan", abc, Alphabet.of("abcx"), tr)


def test_remove_endmarker_folds_a_far_return():
    # the run comes back to the endmarker after 4000 steps; the walk folds
    # that return, so the result goes on with x c c c ... as the original does
    machine = far_return_2wft()
    w = lasso("c" * 2000 + "ab", "a")
    assert run_2wft(machine, w).prefix_str(5) == "axccc"
    trimmed = remove_endmarker(machine, w)
    assert prefix_equiv(run_2wft(trimmed, w), run_2wft(machine, w), 500) == Equal(500)


def test_remove_endmarker_stops_a_shuttle_inside_the_preperiod(monkeypatch):
    # after the endmarker the head shuttles between cells 1 and 2 forever,
    # left of low = |u| + 1 = 4: the walk ends on the repeat, within the 49
    # configurations of its bound 2·|Q|·(low + |Q|·|v| + 1) = 48 steps
    tr = {("p", ENDMARKER): (("a",), RIGHT, "r"), ("r", "a"): (("b",), RIGHT, "l"),
          ("l", "a"): (("b",), LEFT, "r")}
    machine = TwoWayTransducer({"p", "r", "l"}, "p", AB, AB, tr)
    w = lasso("aaa", "b")
    configurations = []

    def counted(*args):
        for cfg in _configurations(*args):
            configurations.append(cfg)
            yield cfg

    monkeypatch.setattr(transducers, "_configurations", counted)
    assert _walk_to_image(machine, w, [], mark=1) == (1, ("r", 1, 1))  # a·(b)^ω, handed off at cell 1
    assert len(configurations) <= 49
    monkeypatch.undo()
    trimmed = remove_endmarker(machine, w)
    assert prefix_equiv(run_2wft(trimmed, w), run_2wft(machine, w), 500) == Equal(500)


def test_lasso_image_of_a_far_return():
    # the run comes back to the endmarker after 2000 c's, then copies forward
    image = lasso_image(far_return_2wft(), lasso("c" * 2000 + "ab", "a"))
    assert image.u.to_str() == "ax" + "c" * 2000 + "ab" and image.v.to_str() == "a"


def test_lasso_image_reports_a_stall_and_a_halt():
    tr = {("q", a): ((), RIGHT, "q") for a in list(AB.letters) + [ENDMARKER]}
    stall = lasso_image(TwoWayTransducer({"q"}, "q", AB, AB, tr), lasso("a", "b"))
    assert isinstance(stall, FiniteImage) and stall.word.letters == ()
    assert isinstance(stall.reason, NonProductive)
    tr[("q", "b")] = (("a",), LEFT, "p")
    halt = lasso_image(TwoWayTransducer({"p", "q"}, "q", AB, AB, tr), lasso("a", "b"))
    assert halt.word.to_str() == "a"
    assert isinstance(halt.reason, UndefinedTransition) and halt.reason.detail == ("p", "a")


def test_lasso_image_needs_a_lasso():
    with pytest.raises(AdviceNotLasso):
        lasso_image(corpus.drifter_2wft(), pi_word(1))


@pytest.mark.parametrize("k, m", [(1, 1), (3, 4), (5, 2)])
def test_one_way_lasso_cycles_can_take_their_whole_bound(k, m):
    # a mod-k counter of a's on ab·(a·b^(m-1))^ω first repeats a (state,
    # residue) after all k·m of them: |u| + |Q|·|v| + 1 configurations, the
    # bound of _oracle_cycle and _one_way_cut
    u, v = "ab", "a" + "b" * (m - 1)
    w = lasso(u, v)
    bound = len(u) + k * len(v) + 1
    counter = {(z, "a"): (z + 1) % k for z in range(k)} | {(z, "b"): z for z in range(k)}
    states, start, length = _oracle_cycle(Dfa(range(k), 0, (), AB, counter), w)
    assert (len(states), start, length) == (bound, len(u), k * m)
    copier = OneWayTransducer(range(k), 0, AB, AB, {(z, a): ((a,), z2) for (z, a), z2 in counter.items()})
    image, canonical = lasso_image(copier, w), w.canonical()
    assert (image.u, image.v) == (canonical.u, canonical.v)


def test_lookbehind_transducer_rejects_undeclared_states():
    oracle = Dfa({"z"}, "z", frozenset(), AB, {("z", a): "z" for a in AB.letters})
    into = {("p", "a", "z"): ((), RIGHT, "elsewhere")}
    with pytest.raises(ValueError):
        LookbehindTransducer({"p"}, "p", AB, AB, into, oracle)
    out_of = {("elsewhere", "a", "z"): ((), RIGHT, "p")}
    with pytest.raises(ValueError):
        LookbehindTransducer({"p"}, "p", AB, AB, out_of, oracle)


def test_mu_round_trip():
    for n in (2, 3):
        fwd, bwd = mu_transducers(n, AB)
        w = lasso("", "ab")
        expanded = run_1wft(fwd, w)
        assert prefix_equiv(expanded, duplicate(w, n), 600) == Equal(600)
        merged = run_1wft(bwd, duplicate(w, n))
        assert prefix_equiv(merged, w, 600) == Equal(600)


def test_mu_backward_rejects_malformed():
    _, bwd = mu_transducers(2, BIN)
    outcome = run_1wft(bwd, lasso("", "01"))
    with pytest.raises(UndefinedTransition) as err:
        outcome.letter(0)
    assert err.value.position == 1


def test_prefix_equiv_stall_is_inconclusive():
    eraser = OneWayTransducer({"q"}, "q", AB, AB,
                              {("q", "a"): (("a",), "q"), ("q", "b"): ((), "q")})
    # emits on a's only: the word abbb... yields one letter then stalls
    outcome = run_1wft(eraser, lasso("a", "b"), budget=200)
    verdict = prefix_equiv(outcome, lasso("a", "b"), 10)
    assert isinstance(verdict, Inconclusive)
    assert verdict.index == 1
    assert isinstance(verdict.status, BudgetExceeded)


def undefined_on_return_2wft():
    """Emits a, b, a over ⊢aa, turns back and finds no transition at position 1."""
    tr = {("p", ENDMARKER): (("a",), RIGHT, "q"), ("q", "a"): (("b",), RIGHT, "r"),
          ("r", "a"): (("a",), LEFT, "s")}
    return TwoWayTransducer({"p", "q", "r", "s"}, "p", Alphabet.of("a"), AB, tr)


def left_of_endmarker_2wft():
    """Emits a, b, turns back to the endmarker, emits a and moves left of it."""
    tr = {("p", ENDMARKER): (("a",), RIGHT, "q"), ("q", "a"): (("b",), LEFT, "r"),
          ("r", ENDMARKER): (("a",), LEFT, "p")}
    return TwoWayTransducer({"p", "q", "r"}, "p", Alphabet.of("a"), AB, tr)


def halt_fields(exc):
    detail = getattr(exc, "detail", None)
    return type(exc), getattr(exc, "position", None), exc.step, detail


@pytest.mark.parametrize("machine, want", [
    (undefined_on_return_2wft(), (UndefinedTransition, 1, 3, ("s", "a"))),
    (left_of_endmarker_2wft(), (MovedLeftOfEndmarker, None, 2, None)),
])
def test_two_way_halts_agree_across_runs_and_constructions(machine, want):
    source = ConstantWord("a", Alphabet.of("a"))
    _got, halt = run_2wft(machine, source).try_letters(10)
    assert halt_fields(halt) == want
    _got, halt = run_2wft_b(corpus.with_trivial_lookbehind(machine), source).try_letters(10)
    kind, position, step, detail = halt_fields(halt)
    # the lookbehind run also names the oracle state it looked up
    assert (kind, position, step) == want[:3]
    assert detail == (None if want[3] is None else want[3] + ("z",))
    constructions = [
        lambda: remove_endmarker(machine, source),
        lambda: analyze_on_constant(machine, "a"),
    ]
    for construct in constructions:
        with pytest.raises(want[0]) as err:
            construct()
        assert halt_fields(err.value) == want


def test_letters_counts_the_halting_steps_letters_on_the_first_call():
    # the only step emits 'a' and then moves left of the endmarker
    machine = TwoWayTransducer({"q"}, "q", Alphabet.of("a"), Alphabet.of("a"),
                               {("q", ENDMARKER): (("a",), LEFT, "q")})
    outcome = run_2wft(machine, lasso("", "a"))
    assert outcome.letters(1) == ["a"]
    assert outcome.letters(1) == ["a"]
    with pytest.raises(MovedLeftOfEndmarker):
        outcome.letters(2)
    assert outcome.letter(0) == "a"


def test_a_failed_source_word_is_the_runs_halt():
    # the inner run copies 2 letters, then stalls: the copier reading it
    # through .word keeps the stall as its own halt, whatever reads it next
    inner = OneWayTransducer({0, 1, 2}, 0, AB, AB,
                             {(0, "a"): (("a",), 1), (1, "a"): (("a",), 2), (2, "a"): ((), 2)})
    outer = run_1wft(letter_copier(AB), run_1wft(inner, lasso("", "a", AB), budget=5).word)
    for _ in range(2):
        with pytest.raises(BudgetExceeded) as err:
            outer.letters(3)
        assert err.value.step == 7  # the inner run's 2 letters, then 5 silent steps
    got, halt = outer.try_letters(3)
    assert got == ["a", "a"] and isinstance(halt, BudgetExceeded)
    assert outer.status is halt
    assert outer.letters(2) == ["a", "a"]


@pytest.mark.parametrize("run, machine, steps", [(run_1wft, letter_copier(AB), 5),
                                                  (run_2wft, two_way_copier(AB), 6),
                                                  (run_sst, corpus.identity_sst(AB), 5)])
def test_a_halt_of_the_source_run_keeps_the_readers_own_step_count(run, machine, steps):
    # the inner run puts out one a per two a's and halts on the b at 10: the
    # reader halts with the same object after its own 5 letter steps (and,
    # two-way, its step off the endmarker), not at the inner run's step 10
    halver = OneWayTransducer({0, 1}, 0, AB, AB, {(0, "a"): ((), 1), (1, "a"): (("a",), 0)})
    inner = run_1wft(halver, lasso("a" * 10, "b"))
    outer = run(machine, inner.word)
    got, halt = outer.try_letters(8)
    assert got == ["a"] * 5
    assert outer.status is inner.status is halt
    assert halt_fields(halt) == (UndefinedTransition, 10, 10, (0, "b"))
    assert inner._engine.step_count == 10
    assert outer._engine.step_count == steps


def test_a_run_read_by_a_one_way_reader_stays_readable_past_its_stall():
    # the copier reads the fresh inner run's word; the inner run's stall halts
    # the copier, while the inner run goes on from the same state when read again
    inner = run_1wft(copies_then_stalls(2), lasso("", "ab"), budget=5)
    outer = run_1wft(letter_copier(AB), inner.word)
    assert type(outer._engine) is type(inner._engine) is transducers._OneWayEngine
    with pytest.raises(BudgetExceeded) as err:
        outer.letters(3)
    assert err.value.step == inner._engine.step_count == 7
    assert outer._engine.step_count == 2 and outer.status is err.value
    assert inner.status == "producing" and inner.produced == 2
    with pytest.raises(BudgetExceeded) as again:
        inner.letters(3)
    assert again.value.step == inner._engine.step_count == 12
    assert outer.try_letters(3) == (["a", "b"], err.value)


def test_two_one_way_readers_of_one_run_read_its_letters_once():
    # two copiers read the inner run through its word; either one reading
    # past the other must not step the inner run again from its start
    w = lasso("ab", "ba")
    inner = run_1wft(letter_copier(AB), w)
    first = run_1wft(letter_copier(AB), inner.word)
    second = run_1wft(letter_copier(AB), inner.word)
    assert first.letters(3) == w.take(3)
    assert second.letters(7) == w.take(7)
    assert first.letters(9) == inner.letters(9) == w.take(9)
    assert inner.produced == inner._engine.step_count == 9


def test_a_reader_reads_the_letters_its_run_has_produced_past_it_in_place():
    # the inner run is read 200000 letters past its reader; one more letter
    # of the reader copies none of them
    inner = run_1wft(letter_copier(AB), lasso("aba", "bbaabab"))
    outer = run_1wft(letter_copier(AB), inner.word)
    assert outer.letters(10) == inner.letters(200_000)[:10]
    tracemalloc.start()
    try:
        assert outer.letter(10) == inner.letter(10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_a_runs_word_says_it_is_periodic_once_its_run_proves_an_emitting_cycle():
    # the copier on a·(ab)^ω proves its cycle at the second start of ab, as
    # it steps for its 4th letter; a run whose cycle emits nothing, or whose cycle's silent
    # stretch (here 2, across the wrap-around) reaches its budget, never says so
    run = run_1wft(letter_copier(AB), lasso("a", "ab"))
    run.letters(3)
    assert run.word.periodic(0) is None
    run.letters(4)
    assert run.word.periodic(0) == (1, ("a", "b"), None)
    silent = run_1wft(copies_then_stalls(2), lasso("", "ab"), budget=9)
    assert silent.try_letters(3)[0] == ["a", "b"] and silent._engine.cycle == []
    assert silent.word.periodic(0) is None
    b_marker = OneWayTransducer({"q"}, "q", AB, AB, {("q", "a"): ((), "q"), ("q", "b"): (("b",), "q")})
    for budget, says in ((2, None), (3, (0, ("b",), None))):
        run = run_1wft(b_marker, lasso("", "aba"), budget=budget)
        for _ in range(3):
            run.try_letters(3)
        assert run._engine.cycle[2] == 2 and run.word.periodic(0) == says
    assert shift(lasso("abc", "de"), 4).periodic(0) == (0, ("e", "d"), None)
    assert shift(lasso("abc", "de"), 2).periodic(0) == (1, ("d", "e"), None)
    # π = 1 01 001 ...: letter 2 is block 1's last 1, so the stretch is block 2's
    # 0-run; the first run of 32 0s or more is block 32's, letters 528 to 560
    assert shift(pi_word(1), 2).periodic(0) == (1, ("0",), 3)
    assert shift(pi_word(1), 2).periodic(0, 32) == (526, ("0",), 558)


class RunsOfTwoPeriods(InfiniteWord):
    """(a^10 (ab)^10)^ω, which says where its runs of a and of ab are: a
    word whose stretches repeat different periods."""

    def __init__(self):
        super().__init__(AB)

    def letter(self, n):
        r = n % 30
        return "a" if r < 10 or r % 2 == 0 else "b"

    def periodic(self, n, least=1):
        base, r = n - n % 30, n % 30
        return (base, ("a",), base + 10) if r < 10 else (base + 10, ("a", "b"), base + 30)


class Unsaid(RunsOfTwoPeriods):
    periodic = None


def test_a_run_crosses_stretches_of_different_periods_like_one_that_steps_them():
    # a b-marker that counts a's mod 3: its rho under a (a cycle of three
    # periods, emitting a) is not its rho under ab (one period, emitting b),
    # so a rho kept for its state alone would cross the ab runs wrongly
    counter = OneWayTransducer(range(3), 0, AB, AB, {
        **{(q, "a"): (("a",) if q == 2 else (), (q + 1) % 3) for q in range(3)},
        **{(q, "b"): (("b",), 0) for q in range(3)}})
    for budget in (2, 3, 4, 10 ** 5):
        for n in (1, 7, 40, 500):
            said, unsaid = run_1wft(counter, RunsOfTwoPeriods(), budget), run_1wft(counter, Unsaid(), budget)
            (got, halt), (want, want_halt) = said.try_letters(n), unsaid.try_letters(n)
            assert got == want and repr(halt) == repr(want_halt)
            assert said._engine.step_count == unsaid._engine.step_count


class ShortTail(InfiniteWord):
    """(abc)^11 ab z^ω, whose first chunk stops before letter 34, where it
    says that its stretch of period abc from 0 ends at 35: 35 is not a whole
    number of periods from 34, so the run's next mark there is the stretch's
    end."""

    def __init__(self):
        super().__init__(Alphabet.of("abcz"))

    def letter(self, n):
        return "abc"[n % 3] if n < 35 else "z"

    def letters_from(self, n):
        return [self.letter(i) for i in range(n, 34 if n < 34 else n + 10)]

    def periodic(self, n, least=1):
        return (0, ("a", "b", "c"), 35) if n == 34 else None


class UnsaidTail(ShortTail):
    periodic = None


def test_a_run_marks_a_stretch_end_that_is_not_a_whole_period_away():
    copier = letter_copier(Alphabet.of("abcz"))
    for budget in (1, 10 ** 5):
        for n in (34, 35, 36, 60):
            said, unsaid = run_1wft(copier, ShortTail(), budget), run_1wft(copier, UnsaidTail(), budget)
            (got, halt), (want, want_halt) = said.try_letters(n), unsaid.try_letters(n)
            assert got == want and repr(halt) == repr(want_halt)
            assert said._engine.step_count == unsaid._engine.step_count


class StaleStretch(RunsOfTwoPeriods):
    """Says a^10 (its true start) for every n: past letter 10 the stretch
    it names lies behind the asking run."""

    def periodic(self, n, least=1):
        return 0, ("a",), 10


def test_a_run_raises_on_a_stretch_behind_it_instead_of_spinning():
    for budget in (1, 10 ** 5):
        run = run_1wft(letter_copier(AB), StaleStretch(), budget)
        assert run.letters(10) == ["a"] * 10
        with pytest.raises(InvariantViolation, match="not inside its periodic stretch up to 10"):
            run.letters(11)


def test_a_reader_stops_replaying_once_its_source_runs_budget_falls_to_the_cycles_stretch():
    # the b marker's cycle on (aba)^ω is silent for 2 steps across its
    # wrap-around: at budget 3 its word says it is periodic, at budget 2 the
    # run stalls there, and the copier reading it halts on its 10th letter
    inner = run_1wft(OneWayTransducer({"q"}, "q", AB, AB, {("q", "a"): ((), "q"), ("q", "b"): (("b",), "q")}),
                     lasso("", "aba"), budget=3)
    outer = run_1wft(letter_copier(AB), inner.word, budget=6)
    assert outer.letters(10) == ["b"] * 10
    inner.budget = 2
    got, halt = outer.try_letters(40)
    assert len(got) == 10 and isinstance(halt, BudgetExceeded) and halt.step == 31
    assert (outer._engine.step_count, inner._engine.step_count) == (10, 31)


def test_a_lookbehind_run_halts_where_its_oracle_reads_pad():
    # the oracle is total on the input alphabet only: the step after the
    # PAD needs the oracle state past it, which is undefined
    oracle = Dfa({0}, 0, frozenset(), AB, {(0, a): 0 for a in AB.letters})
    machine = LookbehindTransducer({"q"}, "q", AB, AB, {("q", ENDMARKER, 0): ((), RIGHT, "q"),
                                                        ("q", PAD, 0): (("a",), RIGHT, "q")}, oracle)
    got, halt = run_2wft_b(machine, ConstantWord(PAD, AB)).try_letters(5)
    assert got == ["a"]
    assert halt_fields(halt) == (UndefinedTransition, 2, 2, (0, PAD))


def test_a_lookbehind_halt_names_the_oracle_state_left_of_the_cell():
    # parity of a's: after "a" the oracle is in 1; the machine reads PAD but
    # the oracle has no move on it, so the step onto the next cell halts on
    # the oracle's key, and a foreign c halts the step that reads it
    oracle = Dfa({0, 1}, 0, frozenset(), AB, {(z, a): (z + (a == "a")) % 2 for z in (0, 1) for a in "ab"})
    reads = ["a", "b", PAD, ENDMARKER]
    machine = LookbehindTransducer({"q"}, "q", AB, AB, {("q", a, z): ((), RIGHT, "q") for a in reads
                                                        for z in (0, 1)}, oracle)
    got, halt = run_2wft_b(machine, lasso("a_", "b", AB)).try_letters(1)
    assert got == [] and halt_fields(halt) == (UndefinedTransition, 3, 3, (1, PAD))
    got, halt = run_2wft_b(machine, lasso("ac", "b", Alphabet.of("abc"))).try_letters(1)
    assert got == [] and halt_fields(halt) == (UndefinedTransition, 2, 2, ("q", "c", 1))


def test_a_machine_compiles_its_table_once_however_many_runs_it_has(monkeypatch):
    builds = Counter()

    def counted(name):
        table = getattr(transducers, name)

        def build(t):
            builds[name] += 1
            return table(t)

        return build

    for name in ("_OneWayTable", "_TwoWayTable"):
        monkeypatch.setattr(transducers, name, counted(name))
    doubler = mu_transducers(2, AB)[0]
    mirror = mirror_blocks_2wft(AB)
    lookbehind = corpus.with_trivial_lookbehind(mirror)
    w, blocks = lasso("a", "ab"), lasso("ab#", "ba#")
    for _ in range(3):
        assert run_1wft(doubler, w).prefix_str(6) == "aaaabb"
        assert run_2wft(mirror, blocks).prefix_str(6) == "ba#ab#"
        assert run_2wft_b(lookbehind, blocks).prefix_str(6) == "ba#ab#"
        lasso_image(doubler, w)
        lasso_image(mirror, blocks)
        lasso_image(lookbehind, blocks)
    assert builds == {"_OneWayTable": 1, "_TwoWayTable": 2}


def test_a_one_step_walk_records_the_loops_it_fills():
    # filling a loop's entry records its code in its row, by kind and move,
    # in one-step walks too; a read over the same cells records nothing more
    mirror = mirror_blocks_2wft(AB)
    w = lasso("", "a" * 100 + "#")
    for _ in islice(_configurations(mirror, w, []), 300):
        pass
    rows, code = mirror.table.rows, mirror.table.code
    assert mirror.table.cells is bytearray
    recorded = {q: (row[-2], row[-1]) for q, row in rows.items() if row[-2] or row[-1]}
    want = {"scan": (None, (bytes([code[ENDMARKER], code["a"]]), b"")),
            "emit": ((b"", bytes([code["a"]])), None),
            "skip": (None, (bytes([code["a"]]), b""))}
    assert recorded == want
    run = run_2wft(mirror, w)
    assert run.prefix_str(5) == "aaaaa"
    assert run._engine.step_count == 107  # 102 silent steps to the #, then a step per letter
    assert {q: (row[-2], row[-1]) for q, row in rows.items() if row[-2] or row[-1]} == want


def test_copy_loops_are_recorded_as_their_entries_fill():
    # a read records the loops it fills and no others: b, which the first
    # lasso lacks, joins scan's right loops and emit's left ones when a
    # second read first steps on it
    mirror = mirror_blocks_2wft(AB)
    run = run_2wft(mirror, lasso("", "a" * 100 + "#"))
    assert run.prefix_str(50) == "a" * 50
    assert run._engine.step_count == 152  # 102 silent steps to the #, then a step per letter
    rows, code = mirror.table.rows, mirror.table.code
    recorded = {q: (row[-2], row[-1]) for q, row in rows.items() if row[-2] or row[-1]}
    assert recorded == {"scan": (None, (bytes([code[ENDMARKER], code["a"]]), b"")),
                        "emit": ((b"", bytes([code["a"]])), None)}
    run = run_2wft(mirror, lasso("", "b" * 100 + "#"))
    assert run.prefix_str(50) == "b" * 50
    assert run._engine.step_count == 152
    recorded = {q: (row[-2], row[-1]) for q, row in rows.items() if row[-2] or row[-1]}
    assert recorded == {"scan": (None, (bytes([code[ENDMARKER], code["a"], code["b"]]), b"")),
                        "emit": ((b"", bytes([code["a"], code["b"]])), None)}


def test_a_left_run_copies_a_window_that_grows_with_the_cells_it_crosses():
    # runs of one and two cells, read with a cap of a million, slice one
    # window of 16 codes, not the 500 codes left of them; a run of 499
    # slices windows that add up to about twice the run
    mirror = mirror_blocks_2wft(AB)
    table = mirror.table
    sliced = []

    class Codes(bytearray):
        def __getitem__(self, index):
            cells = super().__getitem__(index)
            sliced.append(len(cells))
            return cells

    tape = [ENDMARKER] + list("b" * 500 + "#aaa#")
    cells = bytearray([table.code[a] for a in tape] + [table.sentinel])
    row = table.row("emit")
    for pos in (1, 502):  # emit's entries on b and a: they record its copying left loops
        table.fill(tape, cells, pos, 0, "emit", row)
    codes = Codes(cells)
    assert table.run(codes, 504, -1, 10 ** 6, row, 1) == 2
    assert table.run(codes, 503, -1, 10 ** 6, row, 1) == 1
    assert sliced == [16, 16]
    assert table.run(codes, 500, -1, 10 ** 6, row, 1) == 499
    assert sum(sliced) <= 2 * 16 + 2 * 499


def test_a_source_with_the_empty_letter_codes_letter_by_letter():
    # "" and "ab" join to a string as long as the two letters, which a byte
    # table would code as a and b; the run halts on the foreign "" instead
    letters = Alphabet(("a", "b", "#", "", "ab"))
    w = LassoWord(FiniteWord(("a", "", "ab"), letters), FiniteWord(("#",), letters))
    marked = Alphabet.of("ab#")
    copier = TwoWayTransducer({0}, 0, marked, marked,
                              {(0, a): ((a,) if a in marked else (), RIGHT, 0) for a in marked.letters + (ENDMARKER,)})
    got, halt = run_2wft(copier, w).try_letters(5)
    assert got == ["a"] and (halt.position, halt.step, halt.detail) == (2, 2, (0, ""))


def test_a_constant_word_is_a_lasso():
    constant, periodic = ConstantWord("a"), lasso("", "a")
    assert isinstance(constant, LassoWord) and repr(constant) == "(a)^ω"
    image = lasso_image(corpus.drifter_2wft(), constant)
    want = lasso_image(corpus.drifter_2wft(), periodic)
    assert (image.u, image.v) == (want.u, want.v)
    trimmed = remove_endmarker(corpus.endmarker_toucher_2wft(), constant)
    want = remove_endmarker(corpus.endmarker_toucher_2wft(), periodic)
    assert trimmed.transitions == want.transitions


@pytest.mark.parametrize("kind, transitions", [
    (OneWayTransducer, {("q", "c"): ((), "q")}),
    (OneWayTransducer, {("q", ENDMARKER): ((), "q")}),
    (OneWayTransducer, {("q", "a"): (("z",), "q")}),
    (OneWayTransducer, {("q", "a"): ((), RIGHT, "q")}),
    (TwoWayTransducer, {("q", "c"): ((), RIGHT, "q")}),
    (TwoWayTransducer, {("q", "a"): (("a", "z"), RIGHT, "q")}),
    (TwoWayTransducer, {("q", "a"): ((), "up", "q")}),
    (TwoWayTransducer, {("q", "a"): ((), "q")}),
], ids=["1wft-read", "1wft-endmarker", "1wft-emit", "1wft-move", "2wft-read", "2wft-emit",
        "2wft-move", "2wft-no-move"])
def test_transducers_check_letters_and_moves(kind, transitions):
    with pytest.raises(ValueError):
        kind({"q"}, "q", AB, AB, transitions)


def test_transducers_read_pad_and_two_way_ones_the_endmarker():
    OneWayTransducer({"q"}, "q", AB, AB, {("q", PAD): (("a",), "q")})
    TwoWayTransducer({"q"}, "q", AB, AB, {("q", PAD): (("a",), LEFT, "q"),
                                          ("q", ENDMARKER): ((), RIGHT, "q")})


@pytest.mark.parametrize("key, value", [
    (("q", "c", "z"), ((), RIGHT, "q")),
    (("q", "a", "z"), (("c",), RIGHT, "q")),
], ids=["read", "emit"])
def test_lookbehind_transducer_checks_letters(key, value):
    oracle = Dfa({"z"}, "z", frozenset(), AB, {("z", a): "z" for a in AB.letters})
    with pytest.raises(ValueError):
        LookbehindTransducer({"q"}, "q", AB, AB, {key: value}, oracle)
