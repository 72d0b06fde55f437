"""Ready-made machines and words used by the CLI builtins and the check suites."""
from __future__ import annotations

from .advice import Dfa
from .sst import Reg, SimpleSst, Sst, Substitution
from .transducers import (
    ENDMARKER,
    LEFT,
    RIGHT,
    LookbehindTransducer,
    TwoWayTransducer,
    mirror_blocks_2wft,
    mu_transducers,
)
from .words import Alphabet, lasso, pi_word

AB = Alphabet.of("ab")
AB_HASH = Alphabet.of("ab#")
BIN = Alphabet.of("01")


def mirror_sst(gamma: Alphabet = AB) -> SimpleSst:
    """One-state machine reversing '#'-delimited blocks.

    Letters are prepended to a scratch register; on '#' the register is
    flushed to the output followed by the block marker.
    """
    full = Alphabet(list(gamma.letters) + ["#"])
    q = "q"
    transitions = {}
    updates = {}
    for a in gamma.letters:
        transitions[(q, a)] = q
        updates[(q, a)] = Substitution({"x": (a, Reg("x")), "out": (Reg("out"),)})
    transitions[(q, "#")] = q
    updates[(q, "#")] = Substitution({"x": (), "out": (Reg("out"), Reg("x"), "#")})
    return SimpleSst({q}, q, full, full, ("x", "out"), transitions, updates)


def identity_sst(gamma: Alphabet = BIN) -> SimpleSst:
    """Streams its input back; carries an unused scratch register."""
    q = "q"
    transitions = {}
    updates = {}
    for a in gamma.letters:
        transitions[(q, a)] = q
        updates[(q, a)] = Substitution({"x": (Reg("x"),), "out": (Reg("out"), a)})
    return SimpleSst({q}, q, gamma, gamma, ("x", "out"), transitions, updates)


def interleave_sst() -> SimpleSst:
    """Collects the a's and b's of each block, then emits them regrouped."""
    full = AB_HASH
    q = "q"
    transitions = {}
    updates = {}
    transitions[(q, "a")] = q
    updates[(q, "a")] = Substitution(
        {"x": (Reg("x"), "a"), "y": (Reg("y"),), "out": (Reg("out"),)}
    )
    transitions[(q, "b")] = q
    updates[(q, "b")] = Substitution(
        {"x": (Reg("x"),), "y": (Reg("y"), "b"), "out": (Reg("out"),)}
    )
    transitions[(q, "#")] = q
    updates[(q, "#")] = Substitution(
        {"x": (), "y": (), "out": (Reg("out"), Reg("x"), Reg("y"), "#")}
    )
    return SimpleSst({q}, q, full, full, ("x", "y", "out"), transitions, updates)


def nested_register_sst() -> SimpleSst:
    """Line of three substitutions whose output forces a nested register
    walk-back, then a steady tail; input is any word over a one-letter
    alphabet."""
    c = Alphabet.of("c")
    ab = Alphabet.of("ab")
    states = {"s0", "s1", "s2", "s3"}
    x, y, out = Reg("x"), Reg("y"), Reg("out")
    transitions = {
        ("s0", "c"): "s1",
        ("s1", "c"): "s2",
        ("s2", "c"): "s3",
        ("s3", "c"): "s3",
    }
    updates = {
        ("s0", "c"): Substitution({"x": (x,), "y": ("a",), "out": (out,)}),
        ("s1", "c"): Substitution({"x": ("b", y, x), "y": (), "out": (out,)}),
        ("s2", "c"): Substitution({"x": ("b",), "y": (), "out": (out, x, "a")}),
        ("s3", "c"): Substitution({"x": (x,), "y": (), "out": (out, "b")}),
    }
    return SimpleSst(states, "s0", c, ab, ("x", "y", "out"), transitions, updates)


def two_phase_sst() -> Sst:
    """General machine with a transient state, for input a·(bc)^ω: collects a
    marker during the preperiod and appends letters on the loop."""
    full = Alphabet.of("abc")
    states = {"t", "p"}
    x, out = Reg("x"), Reg("out")
    transitions = {("t", "a"): "p", ("p", "b"): "p", ("p", "c"): "p"}
    updates = {
        ("t", "a"): Substitution({"x": ("a", x), "out": (out,)}),
        ("p", "b"): Substitution({"x": (x,), "out": (out, "b")}),
        ("p", "c"): Substitution({"x": (x,), "out": (out, "c")}),
    }
    output_function = {frozenset({"p"}): ("x", "out")}
    return Sst(states, "t", full, full, ("x", "out"), transitions, updates, output_function)


def finite_output_sst() -> Sst:
    """General machine whose limit is finite: the output register freezes."""
    full = Alphabet.of("ab")
    states = {"t", "p"}
    x, out = Reg("x"), Reg("out")
    transitions = {("t", "a"): "p", ("p", "b"): "p"}
    updates = {
        ("t", "a"): Substitution({"x": ("a", "b", x), "out": (out,)}),
        ("p", "b"): Substitution({"x": (x,), "out": (out,)}),
    }
    output_function = {frozenset({"p"}): ("x",)}
    return Sst(states, "t", full, full, ("x", "out"), transitions, updates, output_function)


def bounce_probe_2wft() -> TwoWayTransducer:
    """Copies the block word while dipping two cells into every block and
    backing out, so its head turns inside 0-blocks."""
    states = {"q0", "cross", "p1", "p2", "back", "at1"}
    tr = {
        ("q0", ENDMARKER): ((), RIGHT, "cross"),
        ("cross", "0"): (("0",), RIGHT, "cross"),
        ("cross", "1"): (("1",), RIGHT, "p1"),
        ("p1", "0"): ((), RIGHT, "p2"),
        ("p2", "0"): ((), LEFT, "back"),
        ("p2", "1"): ((), LEFT, "back"),
        ("back", "0"): ((), LEFT, "at1"),
        ("at1", "1"): ((), RIGHT, "cross"),
    }
    return TwoWayTransducer(states, "q0", BIN, BIN, tr)


def stutter_cross_2wft() -> TwoWayTransducer:
    """Crosses each 0-block with a forward-back-forward stutter, emitting a
    digit per net cell and a short trailer at each block end."""
    full = Alphabet.of("01#")
    states = {"c1", "c2", "c3"}
    tr = {
        ("c1", ENDMARKER): ((), RIGHT, "c1"),
        ("c1", "0"): ((), RIGHT, "c2"),
        ("c1", "1"): (("#",), RIGHT, "c1"),
        ("c2", "0"): ((), LEFT, "c3"),
        ("c2", "1"): (("1",), LEFT, "c3"),
        ("c3", "0"): (("0",), RIGHT, "c1"),
    }
    return TwoWayTransducer(states, "c1", BIN, full, tr)


def revisit_probe_2wft() -> TwoWayTransducer:
    """Turn-free machine that, after reaching each block end, probes one
    block ahead and comes back before moving on; emits the block word."""
    states = {"q0", "cr1", "cr2", "cr3"}
    tr = {
        ("q0", ENDMARKER): ((), RIGHT, "cr1"),
        ("cr1", "0"): (("0",), RIGHT, "cr1"),
        ("cr1", "1"): (("1",), RIGHT, "cr2"),
        ("cr2", "0"): ((), RIGHT, "cr2"),
        ("cr2", "1"): ((), LEFT, "cr3"),
        ("cr3", "0"): ((), LEFT, "cr3"),
        ("cr3", "1"): ((), RIGHT, "cr1"),
    }
    return TwoWayTransducer(states, "q0", BIN, BIN, tr)


def alternating_cross_2wft() -> TwoWayTransducer:
    """Crosses blocks with a two-phase gait (emitting x/y per cell) and, when
    a block ends on the off phase, backs one cell up before moving on."""
    full = Alphabet.of("xyz#")
    states = {"c1", "c2", "r", "c3"}
    tr = {
        ("c1", ENDMARKER): ((), RIGHT, "c1"),
        ("c1", "0"): (("x",), RIGHT, "c2"),
        ("c1", "1"): (("#",), RIGHT, "c1"),
        ("c2", "0"): (("y",), RIGHT, "c1"),
        ("c2", "1"): ((), LEFT, "r"),
        ("r", "0"): (("z",), RIGHT, "c3"),
        ("c3", "1"): (("#",), RIGHT, "c1"),
    }
    return TwoWayTransducer(states, "c1", BIN, full, tr)


def endmarker_toucher_2wft(gamma: Alphabet = AB) -> TwoWayTransducer:
    """Bounces off the endmarker once, then copies the input."""
    states = {"q0", "q1", "q2", "q3"}
    tr = {
        ("q0", ENDMARKER): (("x",), RIGHT, "q1"),
        ("q2", ENDMARKER): (("y",), RIGHT, "q3"),
    }
    out_alpha = Alphabet(list(gamma.letters) + ["x", "y"])
    for a in gamma.letters:
        tr[("q1", a)] = ((), LEFT, "q2")
        tr[("q3", a)] = ((a,), RIGHT, "q3")
    return TwoWayTransducer(states, "q0", gamma, out_alpha, tr)


def endmarker_bouncer_2wft(gamma: Alphabet = AB) -> TwoWayTransducer:
    """Returns to the endmarker forever; its output is periodic."""
    states = {"p", "q"}
    tr = {("p", ENDMARKER): (("a",), RIGHT, "q")}
    for a in gamma.letters:
        tr[("q", a)] = ((), LEFT, "p")
    return TwoWayTransducer(states, "p", gamma, AB, tr)


def zigzag_2wft() -> TwoWayTransducer:
    """Two-state forward-back walk emitting a two-letter chunk per cycle."""
    states = {"p", "q"}
    tr = {}
    for a in list(AB.letters) + [ENDMARKER]:
        tr[("p", a)] = (("a", "b"), RIGHT, "q")
        tr[("q", a)] = ((), LEFT, "p")
    return TwoWayTransducer(states, "p", AB, AB, tr)


def drifter_2wft() -> TwoWayTransducer:
    """Rightward drifter with a three-step internal stutter."""
    states = {"p", "q", "r"}
    tr = {}
    for a in list(AB.letters) + [ENDMARKER]:
        tr[("p", a)] = (("a",), RIGHT, "q")
        tr[("q", a)] = ((), RIGHT, "r")
        tr[("r", a)] = (("b",), LEFT, "p")
    return TwoWayTransducer(states, "p", AB, AB, tr)


def with_trivial_lookbehind(t: TwoWayTransducer) -> LookbehindTransducer:
    """Wrap a plain two-way machine as one whose lookbehind is ignored."""
    s0 = "z"
    oracle = Dfa({s0}, s0, frozenset(), t.input_alphabet,
                 {(s0, a): s0 for a in t.input_alphabet.letters})
    tr = {(q, a, s0): v for (q, a), v in t.transitions.items()}
    return LookbehindTransducer(t.states, t.initial, t.input_alphabet,
                                t.output_alphabet, tr, oracle)


def pinned_lookbehind_2wftb() -> LookbehindTransducer:
    """Lookbehind machine bouncing on the endmarker forever."""
    s0 = "z"
    oracle = Dfa({s0}, s0, frozenset(), AB, {(s0, a): s0 for a in AB.letters})
    tr = {("p", ENDMARKER, s0): (("a",), RIGHT, "q")}
    for a in AB.letters:
        tr[("q", a, s0)] = ((), LEFT, "p")
    return LookbehindTransducer({"p", "q"}, "p", AB, AB, tr, oracle)


def delay_test_words():
    """Five words, one of them the growing-block word."""
    return [
        pi_word(1),
        lasso("", "ab"),
        lasso("a", "ba"),
        lasso("", "0110"),
        lasso("abc", "cab"),
    ]


#: The machines the CLI knows by name, each with the function that builds it,
#: so that a lookup builds only the machine it names.
BUILTIN_MACHINES = {
    "mirror2wft": lambda: mirror_blocks_2wft(AB),
    "mirror_sst": lambda: mirror_sst(AB),
    "identity_sst": lambda: identity_sst(BIN),
    "interleave_sst": interleave_sst,
    "mu2_forward": lambda: mu_transducers(2, BIN)[0],
    "mu2_backward": lambda: mu_transducers(2, BIN)[1],
    "mu3_forward": lambda: mu_transducers(3, BIN)[0],
    "mu3_backward": lambda: mu_transducers(3, BIN)[1],
    "bounce_probe": bounce_probe_2wft,
    "stutter_cross": stutter_cross_2wft,
    "revisit_probe": revisit_probe_2wft,
    "alternating_cross": alternating_cross_2wft,
}


def builtin_machines() -> dict:
    return {name: build() for name, build in BUILTIN_MACHINES.items()}


def builtin_words() -> dict:
    return {
        "pi": pi_word(1),
        "pi2": pi_word(2),
        "pi3": pi_word(3),
    }
