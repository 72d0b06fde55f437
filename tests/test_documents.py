from __future__ import annotations

import hashlib
import json
import random

import pytest

from advicebench import corpus
from advicebench.analysis import Equal, prefix_equiv
from advicebench.checks import _random_total_2wft
from advicebench.documents import (
    document_from_data,
    dumps,
    load_document,
    machine_from_doc,
    machine_to_doc,
    word_from_doc,
    word_to_doc,
)
from advicebench.errors import (
    AdviceBenchError,
    InvariantViolation,
    NotDeterministic,
    ParseError,
    UnresolvedReference,
)
from advicebench.mealy import MealyMachine, delay_mealy, run_mealy
from advicebench.pi_transforms import normalize_directions_on_pi, one_way_simulation_on_pi
from advicebench.sst import compile_sst_to_2wftb, eliminate_lookbehind_lasso, run_sst
from advicebench.transducers import (
    mirror_blocks_2wft,
    mu_transducers,
    remove_endmarker,
    run_1wft,
    run_2wft,
    run_2wft_b,
)
from advicebench.words import (
    PAD,
    Alphabet,
    ConstantWord,
    FiniteWord,
    LassoWord,
    block_mirror,
    duplicate,
    lasso,
    pi_word,
    shift,
)

AB = Alphabet.of("ab")


def _word_round_trip(w, n=80):
    again = word_from_doc(word_to_doc(w))
    assert all(w.letter(i) == again.letter(i) for i in range(n))


def test_word_documents_round_trip():
    _word_round_trip(lasso("ab", "c"))
    _word_round_trip(pi_word(2))
    _word_round_trip(shift(pi_word(1), 3))
    _word_round_trip(duplicate(lasso("", "ab"), 2))
    _word_round_trip(block_mirror(lasso("", "ab#")))


def test_word_document_literals():
    w = word_from_doc({"kind": "lasso", "u": "ab", "v": "c"})
    assert w.prefix_str(5) == "abccc"
    w = word_from_doc({"kind": "constant", "letter": "a"})
    assert w.prefix_str(3) == "aaa"
    with pytest.raises(ParseError):
        word_from_doc({"kind": "nope"})


def _machine_round_trip(machine, run, source, n=300):
    doc = machine_to_doc(machine)
    again = machine_from_doc(json.loads(json.dumps(doc)))
    assert prefix_equiv(run(machine, source), run(again, source), n) == Equal(n)
    # a reloaded machine serializes to the same document
    assert machine_to_doc(again) == doc


def test_two_way_round_trip():
    _machine_round_trip(mirror_blocks_2wft(AB), run_2wft, lasso("", "ab#baa#"))


def test_one_way_round_trip():
    fwd, bwd = mu_transducers(3, AB)
    _machine_round_trip(fwd, run_1wft, lasso("", "ab"))
    _machine_round_trip(bwd, run_1wft, duplicate(lasso("", "ab"), 3))


def test_mealy_round_trip():
    machine = delay_mealy("a", AB)
    _machine_round_trip(machine, run_mealy, lasso("", "ba"))


def test_sst_round_trip():
    _machine_round_trip(corpus.mirror_sst(), run_sst, lasso("", "ab#"))
    _machine_round_trip(corpus.two_phase_sst(), run_sst, lasso("a", "bc"))


def test_lookbehind_round_trip():
    compiled = compile_sst_to_2wftb(corpus.mirror_sst())
    _machine_round_trip(compiled, run_2wft_b, lasso("", "ab#"))


def test_buchi_and_dfa_round_trip():
    from advicebench.advice import buchi_lasso_accepts, member_terminating, AdviceLanguage
    from advicebench.advice import pref_advice_automaton
    from test_advice import infinitely_many, prefix_recognizer

    b = infinitely_many("a", AB)
    again = machine_from_doc(json.loads(json.dumps(machine_to_doc(b))))
    for w in (lasso("", "ab"), lasso("a", "b"), lasso("ab", "a")):
        assert buchi_lasso_accepts(b, w) == buchi_lasso_accepts(again, w)

    padded = prefix_recognizer(AB)
    again = machine_from_doc(json.loads(json.dumps(machine_to_doc(padded))))
    assert machine_to_doc(again) == machine_to_doc(padded)

    dfa = pref_advice_automaton(AB)
    again = machine_from_doc(json.loads(json.dumps(machine_to_doc(dfa))))
    advice = lasso("", "ab")
    from advicebench.words import word as mkword

    for text in ("", "a", "ab", "ba"):
        one = member_terminating(AdviceLanguage("terminating", dfa, advice), mkword(text, AB))
        two = member_terminating(AdviceLanguage("terminating", again, advice), mkword(text, AB))
        assert one == two


def test_a_reload_past_ten_states_keeps_the_state_names():
    machine = mu_transducers(6, AB)[1]
    assert len(machine.states) > 10
    _machine_round_trip(machine, run_1wft, duplicate(lasso("", "ab"), 6))


def test_machines_that_read_the_padding_letter_round_trip():
    blank = ConstantWord(PAD, Alphabet.of("x"))
    rng = random.Random(60606)
    for _ in range(20):
        machine = _random_total_2wft(rng)
        text = dumps(machine_to_doc(machine))
        again = machine_from_doc(json.loads(text))
        assert dumps(machine_to_doc(again)) == text
        want, halt = run_2wft(machine, blank, budget=500).try_letters(100)
        got, got_halt = run_2wft(again, blank, budget=500).try_letters(100)
        assert (got, type(got_halt)) == (want, type(halt))
    mealy = MealyMachine({"q"}, "q", AB, AB, {("q", "a"): ("a", "q"), ("q", PAD): ("b", "q")})
    doc = json.loads(dumps(machine_to_doc(mealy)))
    assert {t["in"] for t in doc["transitions"]} == {"a", "_"}
    _machine_round_trip(mealy, run_mealy, lasso("a_", "_a", AB))


def test_a_lasso_over_a_product_alphabet_has_no_word_document():
    product = Alphabet.product(Alphabet.of("a"), Alphabet.of("x"))
    w = LassoWord(FiniteWord((), product), FiniteWord((("a", "x"),), product))
    with pytest.raises(ParseError, match="no document form"):
        word_to_doc(w)


def test_an_alphabet_holding_the_endmarker_text_is_a_parse_error():
    doc = machine_to_doc(delay_mealy("a", AB))
    doc["input_alphabet"].append("^")
    with pytest.raises(ParseError, match="reserved"):
        machine_from_doc(doc)


def test_duplicate_transitions_rejected():
    doc = machine_to_doc(delay_mealy("a", AB))
    doc["transitions"].append(dict(doc["transitions"][0]))
    with pytest.raises(NotDeterministic):
        machine_from_doc(doc)


def test_copyless_violation_reported_as_invariant():
    doc = {
        "type": "sst",
        "simple": True,
        "registers": ["x", "out"],
        "out": "out",
        "states": ["q"],
        "initial": "q",
        "input_alphabet": ["a"],
        "output_alphabet": ["a"],
        "transitions": [
            {"from": "q", "in": "a", "to": "q", "update": {"x": "x", "out": "out x"}}
        ],
    }
    with pytest.raises(InvariantViolation):
        machine_from_doc(doc)


@pytest.mark.parametrize("path, value", [
    ((0, "update"), ["x"]), ((0, "update"), "out x"), ((0, "update", "out"), 5),
    ((0, "update", "out"), None),
])
def test_malformed_register_updates_are_parse_errors(path, value):
    doc = machine_to_doc(corpus.mirror_sst())
    target = doc["transitions"]
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    with pytest.raises(ParseError):
        machine_from_doc(doc)


def test_a_malformed_output_function_is_a_parse_error():
    doc = machine_to_doc(corpus.two_phase_sst())
    doc["output_function"][0]["value"] = 5
    with pytest.raises(ParseError):
        machine_from_doc(doc)


def test_document_with_named_words_and_refs():
    data = {
        "words": {
            "base": {"kind": "lasso", "u": "", "v": "ab#"},
            "flipped": {"kind": "mirror", "base": {"ref": "base"}},
        },
        "machines": {"mirror": machine_to_doc(mirror_blocks_2wft(AB))},
        "formulas": {"often": "G F a"},
    }
    doc = document_from_data(data)
    assert doc.words["flipped"].prefix_str(6) == "ba#ba#"
    assert "mirror" in doc.machines
    from advicebench.ltl import parse_formula

    assert doc.formulas["often"] == parse_formula("G F a")


def test_document_unresolved_reference():
    data = {"words": {"w": {"ref": "missing"}}}
    with pytest.raises(UnresolvedReference):
        document_from_data(data)


def test_load_document_reports_json_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"words\": [broken]\n}")
    with pytest.raises(ParseError) as err:
        load_document(str(path))
    assert err.value.line == 2


# The first 16 hex digits of the sha256 of each conversion's documents, in
# the order below, a refusal written as its exception's type name. They pin
# the constructions' output byte for byte across rewrites of the walks.
CONSTRUCTION_DIGESTS = {
    "normalize-pi": "aec92bcc516af3ec",
    "oneway-pi": "ff24a95f9e6335c1",
    "remove-endmarker": "07a8f157b2493ed3",
    "unlookbehind": "e585e8288b52f12a",
}
BLOCKS = Alphabet.of("ab#")
BLOCK_LASSOS = [("", "ab#"), ("a", "ab#"), ("#", "a#"), ("ab", "b#a#"), ("", "#"), ("b", "a"),
                ("aab#b", "ba#"), ("#", "aab#")]
BIT_LASSOS = [("", "01"), ("1", "0"), ("", "1"), ("00", "10"), ("101", "0"), ("", "0110"), ("1", "011"),
              ("0110", "1")]


def test_construction_documents_are_pinned():
    documents = {kind: [] for kind in CONSTRUCTION_DIGESTS}

    def record(kind, convert, *args):
        try:
            machine = convert(*args)
        except AdviceBenchError as refusal:
            documents[kind].append(type(refusal).__name__)
            return None
        documents[kind].append(dumps(machine_to_doc(machine)))
        return machine

    for name in ("bounce_probe", "stutter_cross", "revisit_probe", "alternating_cross"):
        normalized = record("normalize-pi", normalize_directions_on_pi, corpus.BUILTIN_MACHINES[name]())
        if normalized is not None:
            record("oneway-pi", lambda m: one_way_simulation_on_pi(m, c_max=4).transducer, normalized)
    for build in (corpus.BUILTIN_MACHINES["mirror2wft"], lambda: corpus.endmarker_toucher_2wft(BLOCKS),
                  lambda: corpus.endmarker_bouncer_2wft(BLOCKS), corpus.zigzag_2wft, corpus.drifter_2wft):
        for u, v in BLOCK_LASSOS:
            record("remove-endmarker", remove_endmarker, build(), lasso(u, v))
    for sst, lassos in ((corpus.mirror_sst, BLOCK_LASSOS), (corpus.interleave_sst, BLOCK_LASSOS),
                        (corpus.identity_sst, BIT_LASSOS)):
        for u, v in lassos:
            record("unlookbehind", eliminate_lookbehind_lasso, compile_sst_to_2wftb(sst()), lasso(u, v))
    digests = {kind: hashlib.sha256("\n\n".join(texts).encode()).hexdigest()[:16]
               for kind, texts in documents.items()}
    assert digests == CONSTRUCTION_DIGESTS
