from __future__ import annotations

import random

import pytest

from advicebench.advice import Dfa
from advicebench.analysis import Equal, prefix_equiv
from advicebench.errors import ExtractionFailed, UndefinedTransition
from advicebench.mealy import (
    MealyMachine,
    delay_mealy,
    extract_mealy_from_pref_dfa,
    mealy_image_lasso,
    pref_graph_dfa,
    run_mealy,
)
from advicebench.transducers import compose_1wft
from advicebench.words import Alphabet, lasso, pi_word, shift

AB = Alphabet.of("ab")
BIN = Alphabet.of("01")


def identity_machine(alphabet):
    return MealyMachine({"q"}, "q", alphabet, alphabet,
                        {("q", a): (a, "q") for a in alphabet.letters})


def relabel_machine(mapping, src, dst):
    return MealyMachine({"q"}, "q", src, dst,
                        {("q", a): (mapping[a], "q") for a in src.letters})


def test_run_identity():
    w = lasso("", "ab")
    assert run_mealy(identity_machine(AB), w).prefix_str(6) == "ababab"


def test_run_relabel():
    m = relabel_machine({"0": "a", "1": "b"}, BIN, AB)
    assert run_mealy(m, lasso("", "01")).prefix_str(6) == "ababab"


def test_run_partial_machine_reports_position():
    partial = MealyMachine({"q"}, "q", AB, AB, {("q", "a"): ("a", "q")})
    stream = run_mealy(partial, lasso("", "ab"))
    assert stream.letter(0) == "a"
    with pytest.raises(UndefinedTransition) as err:
        stream.letter(1)
    assert err.value.position == 1


def test_delay_reconstructs_from_shift():
    assert run_mealy(delay_mealy("a", AB), lasso("", "ba")).prefix_str(6) == "ababab"
    pi = pi_word(1)
    rebuilt = run_mealy(delay_mealy(pi.letter(0), BIN), shift(pi, 1))
    assert rebuilt.prefix_str(200) == pi.prefix_str(200)


def test_delay_on_constant():
    got = run_mealy(delay_mealy("x", Alphabet.of("xy")), lasso("", "y"))
    assert got.prefix_str(5) == "xyyyy"


def test_compose_identity_is_neutral():
    m = relabel_machine({"a": "b", "b": "a"}, AB, AB)
    composed = compose_1wft(identity_machine(AB), m)
    w = lasso("a", "ba")
    assert prefix_equiv(run_mealy(composed, w), run_mealy(m, w), 200) == Equal(200)


def test_compose_relabel_round_trip():
    to_ab = relabel_machine({"0": "a", "1": "b"}, BIN, AB)
    to_bin = relabel_machine({"a": "0", "b": "1"}, AB, BIN)
    composed = compose_1wft(to_bin, to_ab)
    w = lasso("", "01")
    assert run_mealy(composed, w).prefix_str(8) == "01010101"


def test_compose_double_delay():
    inner = delay_mealy("y", AB.letters and Alphabet.of("abxy"))
    outer = delay_mealy("x", Alphabet.of("abxy"))
    composed = compose_1wft(outer, inner)
    w = lasso("", "ab", Alphabet.of("abxy"))
    got = run_mealy(composed, w).prefix_str(200)
    assert got == "xy" + w.prefix_str(198)


def random_total_mealy(rng, alphabet, max_states=5):
    n = rng.randint(1, max_states)
    states = list(range(n))
    return MealyMachine(
        states, 0, alphabet, alphabet,
        {(q, a): (rng.choice(alphabet.letters), rng.choice(states))
         for q in states for a in alphabet.letters},
    )


def test_compose_associativity_up_to_output():
    rng = random.Random(31)
    for _ in range(10):
        m1 = random_total_mealy(rng, AB)
        m2 = random_total_mealy(rng, AB)
        m3 = random_total_mealy(rng, AB)
        left = compose_1wft(compose_1wft(m1, m2), m3)
        right = compose_1wft(m1, compose_1wft(m2, m3))
        w = lasso("", "ab")
        assert prefix_equiv(run_mealy(left, w), run_mealy(right, w), 200) == Equal(200)


def test_extract_identity_from_equal_tracks():
    advice = lasso("", "ab")
    product = Alphabet.product(AB, AB, pad=False)
    tr = {}
    for a in AB.letters:
        tr[("q", (a, a))] = "q"
    dfa = Dfa({"q"}, "q", {"q"}, product, tr)
    machine = extract_mealy_from_pref_dfa(dfa, advice)
    assert run_mealy(machine, advice).prefix_str(10) == advice.prefix_str(10)


def test_extract_trims_an_accepting_state_with_no_accepting_continuation():
    # ("b", "a") leads to an accepting state whose every letter leads out of
    # the accepting states: trimmed, it no longer conflicts with ("a", "a")
    advice = lasso("", "ab")
    product = Alphabet.product(AB, AB, pad=False)
    tr = {("q", (a, a)): "q" for a in AB.letters}
    tr[("q", ("b", "a"))] = "end"
    tr.update({(q, letter): "sink" for q in ("end", "sink") for letter in product.letters})
    dfa = Dfa({"q", "end", "sink"}, "q", {"q", "end"}, product, tr)
    machine = extract_mealy_from_pref_dfa(dfa, advice)
    assert machine.states == {"q"}
    assert run_mealy(machine, advice).prefix_str(10) == advice.prefix_str(10)


def test_extract_relabel():
    advice = lasso("", "01")
    product = Alphabet.product(AB, BIN, pad=False)
    mapping = {"0": "a", "1": "b"}
    tr = {("q", (mapping[b], b)): "q" for b in BIN.letters}
    dfa = Dfa({"q"}, "q", {"q"}, product, tr)
    machine = extract_mealy_from_pref_dfa(dfa, advice)
    assert run_mealy(machine, advice).prefix_str(6) == "ababab"


def test_extract_fails_on_conflicting_outputs():
    advice = lasso("", "ab")
    product = Alphabet.product(AB, AB, pad=False)
    # both outputs allowed on the same advice letter: not a prefix set
    tr = {("q", ("a", "a")): "q", ("q", ("b", "a")): "q",
          ("q", ("a", "b")): "q", ("q", ("b", "b")): "q"}
    dfa = Dfa({"q"}, "q", {"q"}, product, tr)
    with pytest.raises(ExtractionFailed) as err:
        extract_mealy_from_pref_dfa(dfa, advice)
    assert err.value.position == 0


def test_extract_refuses_a_machine_that_halts_far_along_lasso_advice():
    # defined on 'a' only: the first 500 letters of a^600·b^ω do not show it
    product = Alphabet.product(AB, AB, pad=False)
    dfa = Dfa({"q"}, "q", {"q"}, product, {("q", ("a", "a")): "q"})
    with pytest.raises(ExtractionFailed) as err:
        extract_mealy_from_pref_dfa(dfa, lasso("a" * 600, "b"))
    assert err.value.position == 600
    # other advice is checked for ``probe`` letters
    advice = shift(lasso("a" * 601, "b"), 1)
    extract_mealy_from_pref_dfa(dfa, advice)
    with pytest.raises(ExtractionFailed) as err:
        extract_mealy_from_pref_dfa(dfa, advice, probe=700)
    assert err.value.position == 600


def test_extract_round_trip_random_machines():
    rng = random.Random(47)
    for _ in range(10):
        machine = random_total_mealy(rng, AB)
        u = "".join(rng.choice("ab") for _ in range(rng.randrange(3)))
        v = "".join(rng.choice("ab") for _ in range(1, 4))
        advice = lasso(u, v, AB)
        alpha = run_mealy(machine, advice)
        extracted = extract_mealy_from_pref_dfa(pref_graph_dfa(machine), advice)
        assert prefix_equiv(run_mealy(extracted, advice), alpha, 500) == Equal(500)


def test_mealy_image_lasso_is_exact():
    rng = random.Random(53)
    for _ in range(20):
        machine = random_total_mealy(rng, AB)
        advice = lasso("ab", "aab")
        image = mealy_image_lasso(machine, advice)
        direct = run_mealy(machine, advice)
        assert prefix_equiv(image, direct, 300) == Equal(300)
