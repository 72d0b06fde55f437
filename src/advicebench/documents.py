"""JSON wire formats for words, machines, and formula collections.

Letters are single printable characters; '_' stands for the padding
letter (output only) and '^' for the tape endmarker. Product letters are
written as strings of their track characters. Machine states serialize
under stable generated names.
"""
from __future__ import annotations

import json

from .advice import BuchiAutomaton, Dfa
from .errors import (
    AdviceBenchError,
    EmptyPeriod,
    InvariantViolation,
    NotDeterministic,
    ParseError,
    UnresolvedReference,
)
from .ltl import parse_formula
from .mealy import MealyMachine
from .sst import Reg, SimpleSst, Sst, Substitution
from .transducers import ENDMARKER, LookbehindTransducer, OneWayTransducer, TwoWayTransducer
from .words import (
    PAD,
    Alphabet,
    InfiniteWord,
    LassoWord,
    block_mirror,
    duplicate,
    lasso,
    pi_word,
    render_letter,
    shift,
)

ENDMARKER_CHAR = "^"


def _letter_to_json(letter) -> str:
    if letter is ENDMARKER:
        return ENDMARKER_CHAR
    return render_letter(letter)


def _letter_from_json(text: str, product: bool):
    if text == ENDMARKER_CHAR:
        return ENDMARKER
    if not product:
        if len(text) != 1:
            raise ParseError(f"letter {text!r} must be a single character")
        return text
    return tuple(PAD if c == "_" else c for c in text)


def _alphabet_to_json(alphabet: Alphabet):
    if alphabet.parts is not None:
        pad = any(PAD in letter for letter in alphabet.letters)
        return {"product": [list(p.letters) for p in alphabet.parts], "pad": pad}
    return list(alphabet.letters)


def _alphabet_from_json(doc) -> Alphabet:
    if isinstance(doc, dict):
        parts = [Alphabet(track) for track in doc["product"]]
        return Alphabet.product(*parts, pad=doc.get("pad", True))
    return Alphabet(doc)


def _name_states(states, initial):
    ordered = sorted(states, key=repr)
    ordered.remove(initial)
    ordered.insert(0, initial)
    return {q: f"s{i}" for i, q in enumerate(ordered)}


# ---------------------------------------------------------------- words

def word_to_doc(w) -> dict:
    from .words import (
        BlockMirrorWord,
        ConstantWord,
        DuplicateWord,
        PiWord,
        ShiftWord,
    )

    if isinstance(w, LassoWord):
        return {"kind": "lasso", "u": w.u.to_str(), "v": w.v.to_str()}
    if isinstance(w, PiWord):
        return {"kind": "pi", "k": w.k}
    if isinstance(w, ShiftWord):
        return {"kind": "shift", "base": word_to_doc(w.base), "n": w.n}
    if isinstance(w, DuplicateWord):
        return {"kind": "mu", "base": word_to_doc(w.base), "n": w.n}
    if isinstance(w, BlockMirrorWord):
        return {"kind": "mirror", "base": word_to_doc(w.base)}
    if isinstance(w, ConstantWord):
        return {"kind": "constant", "letter": render_letter(w.letter(0))}
    raise ParseError(f"word of kind {type(w).__name__} has no document form")


def word_from_doc(doc, named=None) -> InfiniteWord:
    try:
        return _word_from_doc(doc, named)
    except KeyError as exc:
        raise ParseError(f"word document {doc!r} lacks the field {exc}") from exc
    except (TypeError, ValueError, EmptyPeriod) as exc:
        raise ParseError(f"malformed word document {doc!r}: {exc}") from exc


def _word_from_doc(doc, named) -> InfiniteWord:
    if not isinstance(doc, dict):
        raise ParseError(f"word document must be an object, got {doc!r}")
    if "ref" in doc:
        name = doc["ref"]
        if named is None or name not in named:
            raise UnresolvedReference(name)
        return named[name]
    kind = doc.get("kind")
    if kind == "lasso":
        return lasso(doc.get("u", ""), doc["v"])
    if kind == "pi":
        return pi_word(int(doc.get("k", 1)))
    if kind == "shift":
        return shift(word_from_doc(doc["base"], named), int(doc["n"]))
    if kind == "mu":
        return duplicate(word_from_doc(doc["base"], named), int(doc["n"]))
    if kind == "mirror":
        return block_mirror(word_from_doc(doc["base"], named))
    if kind == "constant":
        from .words import ConstantWord

        return ConstantWord(doc["letter"])
    raise ParseError(f"unknown word kind {kind!r}")


# ------------------------------------------------------------- automata

def dfa_to_doc(a: Dfa) -> dict:
    names = _name_states(a.states, a.initial)
    return {
        "type": "dfa",
        "states": sorted(names.values()),
        "initial": names[a.initial],
        "accepting": sorted(names[q] for q in a.accepting),
        "alphabet": _alphabet_to_json(a.alphabet),
        "transitions": sorted(
            (
                {"from": names[q], "letter": _letter_to_json(letter), "to": names[q2]}
                for (q, letter), q2 in a.transitions.items()
            ),
            key=lambda t: (t["from"], t["letter"]),
        ),
    }


def dfa_from_doc(doc) -> Dfa:
    alphabet = _alphabet_from_json(doc["alphabet"])
    product = alphabet.parts is not None
    transitions = {}
    for t in doc["transitions"]:
        key = (t["from"], _letter_from_json(t["letter"], product))
        if key in transitions:
            raise NotDeterministic(f"duplicate transition from {t['from']} on {t['letter']!r}")
        transitions[key] = t["to"]
    return Dfa(doc["states"], doc["initial"], doc.get("accepting", []), alphabet, transitions)


def buchi_to_doc(b: BuchiAutomaton) -> dict:
    anchor = sorted(b.initial, key=repr)[0]
    names = _name_states(b.states, anchor)
    transitions = []
    for (q, letter), qs in b.transitions.items():
        for q2 in sorted(qs, key=repr):
            transitions.append(
                {"from": names[q], "letter": _letter_to_json(letter), "to": names[q2]}
            )
    transitions.sort(key=lambda t: (t["from"], t["letter"], t["to"]))
    return {
        "type": "buchi",
        "states": sorted(names.values()),
        "initial": sorted(names[q] for q in b.initial),
        "accepting": sorted(names[q] for q in b.accepting),
        "alphabet": _alphabet_to_json(b.alphabet),
        "transitions": transitions,
    }


def buchi_from_doc(doc) -> BuchiAutomaton:
    alphabet = _alphabet_from_json(doc["alphabet"])
    product = alphabet.parts is not None
    transitions: dict = {}
    for t in doc["transitions"]:
        key = (t["from"], _letter_from_json(t["letter"], product))
        transitions.setdefault(key, set()).add(t["to"])
    return BuchiAutomaton(
        doc["states"], doc["initial"], doc.get("accepting", []), alphabet, transitions
    )


def mealy_to_doc(m: MealyMachine) -> dict:
    names = _name_states(m.states, m.initial)
    return {
        "type": "mealy",
        "states": sorted(names.values()),
        "initial": names[m.initial],
        "input_alphabet": list(m.input_alphabet.letters),
        "output_alphabet": list(m.output_alphabet.letters),
        "transitions": sorted(
            (
                {"from": names[q], "in": a, "out": out, "to": names[q2]}
                for (q, a), (out, q2) in m.transitions.items()
            ),
            key=lambda t: (t["from"], t["in"]),
        ),
    }


def mealy_from_doc(doc) -> MealyMachine:
    transitions = {}
    for t in doc["transitions"]:
        key = (t["from"], t["in"])
        if key in transitions:
            raise NotDeterministic(f"duplicate transition from {t['from']} on {t['in']!r}")
        transitions[key] = (t["out"], t["to"])
    return MealyMachine(
        doc["states"],
        doc["initial"],
        Alphabet(doc["input_alphabet"]),
        Alphabet(doc["output_alphabet"]),
        transitions,
    )


def transducer_to_doc(t) -> dict:
    names = _name_states(t.states, t.initial)
    doc = {
        "states": sorted(names.values()),
        "initial": names[t.initial],
        "input_alphabet": list(t.input_alphabet.letters),
        "output_alphabet": list(t.output_alphabet.letters),
    }
    if isinstance(t, OneWayTransducer):
        doc["type"] = "1wft"
        doc["transitions"] = sorted(
            (
                {
                    "from": names[q],
                    "read": _letter_to_json(a),
                    "out": "".join(render_letter(x) for x in out),
                    "to": names[q2],
                }
                for (q, a), (out, q2) in t.transitions.items()
            ),
            key=lambda x: (x["from"], x["read"]),
        )
        return doc
    if isinstance(t, LookbehindTransducer):
        oracle_names = _name_states(t.oracle.states, t.oracle.initial)
        doc["type"] = "2wftb"
        doc["oracle"] = {
            "type": "dfa",
            "states": sorted(oracle_names.values()),
            "initial": oracle_names[t.oracle.initial],
            "accepting": [],
            "alphabet": list(t.input_alphabet.letters),
            "transitions": sorted(
                (
                    {"from": oracle_names[q], "letter": a, "to": oracle_names[q2]}
                    for (q, a), q2 in t.oracle.transitions.items()
                ),
                key=lambda x: (x["from"], x["letter"]),
            ),
        }
        doc["transitions"] = sorted(
            (
                {
                    "from": names[q],
                    "read": _letter_to_json(a),
                    "lookbehind": oracle_names[s],
                    "out": "".join(render_letter(x) for x in out),
                    "move": move,
                    "to": names[q2],
                }
                for (q, a, s), (out, move, q2) in t.transitions.items()
            ),
            key=lambda x: (x["from"], x["read"], x["lookbehind"]),
        )
        return doc
    doc["type"] = "2wft"
    doc["transitions"] = sorted(
        (
            {
                "from": names[q],
                "read": _letter_to_json(a),
                "out": "".join(render_letter(x) for x in out),
                "move": move,
                "to": names[q2],
            }
            for (q, a), (out, move, q2) in t.transitions.items()
        ),
        key=lambda x: (x["from"], x["read"]),
    )
    return doc


def transducer_from_doc(doc):
    kind = doc["type"]
    input_alphabet = Alphabet(doc["input_alphabet"])
    output_alphabet = Alphabet(doc["output_alphabet"])
    if kind == "1wft":
        transitions = {}
        for t in doc["transitions"]:
            key = (t["from"], _letter_from_json(t["read"], False))
            if key in transitions:
                raise NotDeterministic(f"duplicate transition from {t['from']}")
            transitions[key] = (tuple(t["out"]), t["to"])
        return OneWayTransducer(doc["states"], doc["initial"], input_alphabet, output_alphabet, transitions)
    if kind == "2wft":
        transitions = {}
        for t in doc["transitions"]:
            key = (t["from"], _letter_from_json(t["read"], False))
            if key in transitions:
                raise NotDeterministic(f"duplicate transition from {t['from']}")
            transitions[key] = (tuple(t["out"]), t["move"], t["to"])
        return TwoWayTransducer(doc["states"], doc["initial"], input_alphabet, output_alphabet, transitions)
    if kind == "2wftb":
        oracle = dfa_from_doc(doc["oracle"])
        transitions = {}
        for t in doc["transitions"]:
            key = (t["from"], _letter_from_json(t["read"], False), t["lookbehind"])
            if key in transitions:
                raise NotDeterministic(f"duplicate transition from {t['from']}")
            transitions[key] = (tuple(t["out"]), t["move"], t["to"])
        return LookbehindTransducer(doc["states"], doc["initial"], input_alphabet, output_alphabet, transitions, oracle)
    raise ParseError(f"unknown transducer type {kind!r}")


def _tokens_to_text(tokens) -> str:
    return " ".join(tok.name if isinstance(tok, Reg) else tok for tok in tokens)


def _tokens_from_text(text: str, registers) -> tuple:
    tokens = []
    for piece in text.split():
        if piece in registers:
            tokens.append(Reg(piece))
        elif len(piece) == 1:
            tokens.append(piece)
        else:
            raise ParseError(f"token {piece!r} is neither a register nor a letter")
    return tuple(tokens)


def sst_to_doc(s: Sst) -> dict:
    names = _name_states(s.states, s.initial)
    simple = isinstance(s, SimpleSst)
    doc = {
        "type": "sst",
        "simple": simple,
        "registers": list(s.registers),
        "states": sorted(names.values()),
        "initial": names[s.initial],
        "input_alphabet": list(s.input_alphabet.letters),
        "output_alphabet": list(s.output_alphabet.letters),
        "transitions": sorted(
            (
                {
                    "from": names[q],
                    "in": a,
                    "to": names[s.transitions[(q, a)]],
                    "update": {
                        name: _tokens_to_text(sub.rhs(name)) for name in s.registers
                    },
                }
                for (q, a), sub in s.updates.items()
            ),
            key=lambda x: (x["from"], x["in"]),
        ),
    }
    if simple:
        doc["out"] = s.out
    else:
        doc["output_function"] = sorted(
            (
                {"P": sorted(names[q] for q in pset), "value": " ".join(regs)}
                for pset, regs in s.output_function.items()
            ),
            key=lambda x: x["P"],
        )
    return doc


def sst_from_doc(doc) -> Sst:
    registers = list(doc["registers"])
    transitions = {}
    updates = {}
    for t in doc["transitions"]:
        key = (t["from"], t["in"])
        if key in transitions:
            raise NotDeterministic(f"duplicate transition from {t['from']} on {t['in']!r}")
        transitions[key] = t["to"]
        updates[key] = Substitution(
            {name: _tokens_from_text(text, registers) for name, text in t["update"].items()}
        )
    input_alphabet = Alphabet(doc["input_alphabet"])
    output_alphabet = Alphabet(doc["output_alphabet"])
    if doc.get("simple"):
        return SimpleSst(
            doc["states"], doc["initial"], input_alphabet, output_alphabet,
            registers, transitions, updates, out=doc.get("out", "out"),
        )
    output_function = {
        frozenset(entry["P"]): tuple(entry["value"].split())
        for entry in doc.get("output_function", [])
    }
    return Sst(
        doc["states"], doc["initial"], input_alphabet, output_alphabet,
        registers, transitions, updates, output_function,
    )


def machine_to_doc(m) -> dict:
    if isinstance(m, Dfa):
        return dfa_to_doc(m)
    if isinstance(m, BuchiAutomaton):
        return buchi_to_doc(m)
    if isinstance(m, MealyMachine):
        return mealy_to_doc(m)
    if isinstance(m, Sst):
        return sst_to_doc(m)
    if isinstance(m, (OneWayTransducer, TwoWayTransducer, LookbehindTransducer)):
        return transducer_to_doc(m)
    raise ParseError(f"machine of kind {type(m).__name__} has no document form")


def machine_from_doc(doc):
    kind = doc.get("type")
    try:
        if kind == "dfa":
            return dfa_from_doc(doc)
        if kind == "buchi":
            return buchi_from_doc(doc)
        if kind == "mealy":
            return mealy_from_doc(doc)
        if kind == "sst":
            return sst_from_doc(doc)
        if kind in ("1wft", "2wft", "2wftb"):
            return transducer_from_doc(doc)
    except (NotDeterministic, ParseError):
        raise
    except AdviceBenchError as exc:
        raise InvariantViolation(f"machine document violates an invariant: {exc}") from exc
    except KeyError as exc:
        raise ParseError(f"machine document lacks the field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed machine document: {exc}") from exc
    raise ParseError(f"unknown machine type {kind!r}")


# ------------------------------------------------------------ documents

class SpecDocument:
    """A parsed collection of named words, machines and formulas."""

    def __init__(self, words: dict, machines: dict, formulas: dict):
        self.words = words
        self.machines = machines
        self.formulas = formulas


def document_from_data(data) -> SpecDocument:
    if not isinstance(data, dict):
        raise ParseError("document root must be an object")
    words: dict = {}
    pending = dict(data.get("words", {}))
    # resolve references among named words, order independent
    progress = True
    while pending and progress:
        progress = False
        for name in list(pending):
            try:
                words[name] = word_from_doc(pending[name], words)
            except UnresolvedReference:
                continue
            del pending[name]
            progress = True
    if pending:
        name = sorted(pending)[0]
        raise UnresolvedReference(pending[name].get("ref", name))
    machines = {}
    for name, doc in data.get("machines", {}).items():
        machines[name] = machine_from_doc(doc)
    formulas = {}
    for name, text in data.get("formulas", {}).items():
        formulas[name] = parse_formula(text)
    return SpecDocument(words, machines, formulas)


def load_document(path: str) -> SpecDocument:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno) from exc
    return document_from_data(data)


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)
