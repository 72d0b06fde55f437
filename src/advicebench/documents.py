"""JSON wire formats for words, machines, and formula collections.

Letters are single printable characters. '_' is the padding letter
wherever a letter is read or written (lasso words, transition letters,
register updates, tracks) and '^' the tape endmarker; product letters are
written as strings of their track characters. A lasso over a product
alphabet has no word document.

Machine states serialize under generated names s0, s1, ... with the
initial state first, so a reloaded machine serializes to the same bytes.
Every machine kind is a row of ``_KINDS``, read by one ``machine_to_doc``
and one ``machine_from_doc``.
"""
from __future__ import annotations

import json
from functools import partial
from itertools import starmap
from operator import add, itemgetter

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
    ENDMARKER_TEXT,
    PAD,
    RESERVED_RENDER,
    Alphabet,
    BlockMirrorWord,
    ConstantWord,
    DuplicateWord,
    InfiniteWord,
    LassoWord,
    PiWord,
    ShiftWord,
    block_mirror,
    duplicate,
    lasso,
    pi_word,
    render_letter,
    shift,
)

#: the letters written as a text other than themselves, and back
_TEXT_OF_LETTER = {ENDMARKER: ENDMARKER_TEXT, PAD: RESERVED_RENDER}
_LETTER_OF_TEXT = {text: letter for letter, text in _TEXT_OF_LETTER.items()}


def _texts(letters: tuple):
    return map(_TEXT_OF_LETTER.get, letters, letters)


def _letters(texts: tuple):
    return map(_LETTER_OF_TEXT.get, texts, texts)


def _track_text(letter):
    return render_letter(letter) if type(letter) is tuple else _TEXT_OF_LETTER.get(letter, letter)


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


def _state_key(q) -> str:
    """repr order, except that the generated names s<k> order by k, so that
    a reloaded machine keeps its names."""
    if type(q) is str and q[1:].isdecimal() and q == f"s{int(q[1:])}":
        return f"'s{int(q[1:]):012d}'"
    return repr(q)


def _name_states(states, initial) -> dict:
    ordered = sorted(states, key=_state_key if str in set(map(type, states)) else repr)
    ordered.remove(initial)
    return {q: f"s{i}" for i, q in enumerate([initial] + ordered)}


# ---------------------------------------------------------------- words

def word_to_doc(w) -> dict:
    if isinstance(w, LassoWord) and any(isinstance(a, tuple) for a in w.alphabet.letters):
        raise ParseError("a lasso over a product alphabet has no document form")
    if isinstance(w, ConstantWord):  # a LassoWord, so first
        return {"kind": "constant", "letter": render_letter(w.letter(0))}
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
    raise ParseError(f"word of kind {type(w).__name__} has no document form")


def word_from_doc(doc, named=None) -> InfiniteWord:
    try:
        return _word_from_doc(doc, named)
    except KeyError as exc:
        raise ParseError(f"word document {doc!r} lacks the field {exc}") from exc
    except (TypeError, ValueError, IndexError, EmptyPeriod) as exc:
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
        letter = doc["letter"]
        if not (isinstance(letter, str) and len(letter) == 1):
            raise ParseError(f"constant letter {letter!r} must be a single character")
        return ConstantWord(letter)
    raise ParseError(f"unknown word kind {kind!r}")


# ------------------------------------------------------------- machines
#
# A transition is a row of cells: its state, its fields between "from" and
# "to" (key fields first) and its next state. Each column of cells is coded
# by one function of the column and the call's machine (or decoded header);
# per cell that is a dict lookup for state names and letters. A field without
# a codec passes as it is.

class _Memo(dict):
    """A dict that fills itself from ``fn``."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


# str.split and dict.items raise a TypeError on another JSON value, and
# machine_from_doc reports it as a ParseError.
def _text_tokens(text, registers) -> tuple:
    tokens = []
    for piece in str.split(text):
        if piece in registers:
            tokens.append(Reg(piece))
        elif len(piece) == 1:
            tokens.append(_LETTER_OF_TEXT.get(piece, piece))
        else:
            raise ParseError(f"token {piece!r} is neither a register nor a letter")
    return tuple(tokens)


def _decode_updates(updates, header):
    registers = header["registers"]
    return map(lambda update: Substitution(
        {name: _text_tokens(text, registers) for name, text in dict.items(update)}), updates)


def _encode_updates(subs, m):
    return map(lambda sub: {name: " ".join(
        tok.name if isinstance(tok, Reg) else _TEXT_OF_LETTER.get(tok, tok) for tok in sub.rhs(name))
        for name in m.registers}, subs)


_FIRST = itemgetter(0)


def _product_letter(text):
    return _LETTER_OF_TEXT.get(text) or tuple(_letters(text))


# A cell codec is two functions of a column: the encoder's second argument is
# the machine, the decoder's the decoded machine-level fields.
_LETTER = (lambda letters, m: _texts(letters), lambda texts, header: _letters(texts))
_TRACKS = (  # an automaton's letters may be product letters, written as their tracks
    lambda letters, m: map(_track_text, letters) if m.alphabet.parts is not None else _texts(letters),
    lambda texts, header: map(_product_letter, texts) if header["alphabet"].parts is not None else _letters(texts))
_WORD = (lambda outs, m: map(_Memo(lambda out: "".join(map(render_letter, out))).__getitem__, outs),
         lambda texts, header: map(tuple, texts))  # a transducer never emits '_' or '^'
_ONE_LETTER = (lambda outs, m: _texts(tuple(map(_FIRST, outs))),
               lambda texts, header: _letters(texts))  # a Mealy output: the one letter of a word
_LOOKBEHIND = (lambda states, m: map(_name_states(m.oracle.states, m.oracle.initial).__getitem__, states),
               None)
_UPDATE = (_encode_updates, _decode_updates)

# A machine-level field besides "states" and "initial": (name, encode(machine,
# state names), decode(document)).
_AUTOMATON = (
    ("accepting", lambda m, names: sorted(names[q] for q in m.accepting), lambda doc: doc.get("accepting", [])),
    ("alphabet", lambda m, names: _alphabet_to_json(m.alphabet), lambda doc: _alphabet_from_json(doc["alphabet"])),
)
_TRANSDUCER = (
    ("input_alphabet", lambda m, names: list(m.input_alphabet.letters), lambda doc: Alphabet(doc["input_alphabet"])),
    ("output_alphabet", lambda m, names: list(m.output_alphabet.letters), lambda doc: Alphabet(doc["output_alphabet"])),
)
_SST = _TRANSDUCER + (("registers", lambda m, names: list(m.registers), lambda doc: list(doc["registers"])),)


def _transducer_rows(m):
    return map(add, m.transitions, m.transitions.values())


def _sst_rows(m):
    return (key + (sub, m.transitions[key]) for key, sub in m.updates.items())


def _sst(cls, transitions, **header):
    """An sst's cells after its key are its update and its next state."""
    return cls(transitions={key: q2 for key, (_, q2) in transitions.items()},
               updates={key: sub for key, (sub, _) in transitions.items()}, **header)


def _row_dict(*fields):
    """A transition's dict from its cells: a dict display, several times faster than dict(zip(...))."""
    x, y, z, w = fields + (None,) * (4 - len(fields))
    return (lambda q, a, q2: {"from": q, x: a, "to": q2},
            lambda q, a, b, q2: {"from": q, x: a, y: b, "to": q2},
            lambda q, a, b, c, q2: {"from": q, x: a, y: b, z: c, "to": q2},
            lambda q, a, b, c, d, q2: {"from": q, x: a, y: b, z: c, w: d, "to": q2})[len(fields) - 1]


class _Kind:
    """The wire format of one machine class. ``fixed`` is what its documents
    all say: the type, and for an sst whether it is simple. ``rows`` gives its
    transitions as rows of cells; ``fields`` are (name, cell codec or None),
    the first ``keys`` of them key fields; ``header`` are its machine-level
    fields; ``build`` takes the decoded fields and ``transitions`` as keywords.
    A Büchi automaton is ``nondeterministic``: it has sets of initial states
    and of successors."""

    def __init__(self, fixed, cls, rows, fields, keys, header, build=None, nondeterministic=False):
        self.fixed, self.cls, self.rows, self.header = fixed, cls, rows, header
        self.encoders = [codec and codec[0] for _, codec in fields]
        self.decoders = [None, *(codec and codec[1] for _, codec in fields), None]
        wire = ("from", *(name for name, _ in fields), "to")
        self.cells = itemgetter(*wire)
        self.no_columns = [()] * len(wire)
        self.row_dict = _row_dict(*wire[1:-1])
        self.cut = 1 + keys
        self.build = build or cls
        self.nondeterministic = nondeterministic


_KINDS = (
    _Kind({"type": "dfa"}, Dfa, lambda m: map(add, m.transitions, zip(m.transitions.values())),
          (("letter", _TRACKS),), 1, _AUTOMATON),
    _Kind({"type": "buchi"}, BuchiAutomaton,
          lambda m: (key + (q2,) for key, qs in m.transitions.items() for q2 in qs),
          (("letter", _TRACKS),), 1, _AUTOMATON, nondeterministic=True),
    _Kind({"type": "mealy"}, MealyMachine, _transducer_rows, (("in", _LETTER), ("out", _ONE_LETTER)), 1, _TRANSDUCER),
    _Kind({"type": "1wft"}, OneWayTransducer, _transducer_rows, (("read", _LETTER), ("out", _WORD)), 1, _TRANSDUCER),
    _Kind({"type": "2wft"}, TwoWayTransducer, _transducer_rows,
          (("read", _LETTER), ("out", _WORD), ("move", None)), 1, _TRANSDUCER),
    _Kind({"type": "2wftb"}, LookbehindTransducer, _transducer_rows,
          (("read", _LETTER), ("lookbehind", _LOOKBEHIND), ("out", _WORD), ("move", None)), 2,
          _TRANSDUCER + (("oracle", lambda m, names: dict(machine_to_doc(m.oracle), accepting=[]),
                          lambda doc: _machine_from_doc(doc["oracle"], _KIND_OF_CLASS[Dfa])),)),
    _Kind({"type": "sst", "simple": True}, SimpleSst, _sst_rows, (("in", _LETTER), ("update", _UPDATE)), 1,
          _SST + (("out", lambda m, names: m.out, lambda doc: doc.get("out", "out")),),
          build=partial(_sst, SimpleSst)),
    _Kind({"type": "sst", "simple": False}, Sst, _sst_rows, (("in", _LETTER), ("update", _UPDATE)), 1,
          _SST + (("output_function", lambda m, names: sorted(
              ({"P": sorted(names[q] for q in pset), "value": " ".join(regs)}
               for pset, regs in m.output_function.items()), key=itemgetter("P")),
              lambda doc: {frozenset(entry["P"]): tuple(str.split(entry["value"]))
                           for entry in doc.get("output_function", [])}),),
          build=partial(_sst, Sst)),
)
_KIND_OF_CLASS = {kind.cls: kind for kind in _KINDS}
_KIND_OF_DOC = {(kind.fixed["type"], kind.fixed.get("simple", False)): kind for kind in _KINDS}


def _code(functions, columns, context):
    return [c if f is None else f(c, context) for f, c in zip(functions, columns)]


def machine_to_doc(m) -> dict:
    kind = _KIND_OF_CLASS.get(type(m)) or next(filter(None, map(_KIND_OF_CLASS.get, type(m).__mro__)), None)
    if kind is None:
        raise ParseError(f"machine of kind {type(m).__name__} has no document form")
    names = _name_states(m.states, min(m.initial, key=_state_key) if kind.nondeterministic else m.initial)
    initial = sorted(map(names.__getitem__, m.initial)) if kind.nondeterministic else names[m.initial]
    doc = {**kind.fixed, "states": sorted(names.values()), "initial": initial}
    for name, encode, _ in kind.header:
        doc[name] = encode(m, names)
    name = lambda states, m: map(names.__getitem__, states)
    columns = _code([name, *kind.encoders, name], list(zip(*kind.rows(m))) or kind.no_columns, m)
    # Rows sort as tuples of cells, before any dict is built. Their key cells
    # are unique (a Büchi automaton's whole rows are), so no comparison reaches
    # a cell after them, and the order is that of the keys.
    doc["transitions"] = list(starmap(kind.row_dict, sorted(zip(*columns))))
    return doc


def machine_from_doc(doc):
    try:
        return _machine_from_doc(doc)
    except (NotDeterministic, ParseError):
        raise
    except AdviceBenchError as exc:
        raise InvariantViolation(f"machine document violates an invariant: {exc}") from exc
    except KeyError as exc:
        raise ParseError(f"machine document lacks the field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed machine document: {exc}") from exc


def _machine_from_doc(doc, kind=None):
    if not isinstance(doc, dict):
        raise ParseError(f"machine document must be an object, got {doc!r}")
    if kind is None:
        tag = doc.get("type")
        kind = _KIND_OF_DOC.get((tag, tag == "sst" and bool(doc.get("simple"))))
        if kind is None:
            raise ParseError(f"unknown machine type {tag!r}")
    header = {"states": doc["states"], "initial": doc["initial"]}
    for name, _, decode in kind.header:
        header[name] = decode(doc)
    columns = _code(kind.decoders, list(zip(*map(kind.cells, doc["transitions"]))) or kind.no_columns, header)
    keys = list(zip(*columns[:kind.cut]))
    if kind.nondeterministic:
        table: dict = {}
        for key, q2 in zip(keys, columns[-1]):
            table.setdefault(key, set()).add(q2)
    else:
        table = dict(zip(keys, columns[-1] if kind.cut == len(columns) - 1 else zip(*columns[kind.cut:])))
        if len(table) < len(keys):
            key = next(key for key in keys if keys.count(key) > 1)
            raise NotDeterministic(f"duplicate transition from {key[0]} on {key[1:]!r}")
    return kind.build(transitions=table, **header)


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
    for section in ("words", "machines", "formulas"):
        if not isinstance(data.get(section, {}), dict):
            raise ParseError(f"document field {section!r} must be an object")
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
        if not isinstance(text, str):
            raise ParseError(f"formula {name!r} must be a string, got {text!r}")
        formulas[name] = parse_formula(text)
    return SpecDocument(words, machines, formulas)


def load_document(path: str) -> SpecDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno) from exc
    return document_from_data(data)


def dumps(doc) -> str:
    """A machine document as sorted-key JSON with each transition row, an
    oracle's too, on a line of its own.

    The C encoder writes the text; ``indent`` would switch to the pure-Python
    one. Line breaks then go in where a row list opens, between two rows and
    where a row list closes, and nowhere inside a string:
    - ``{"from": `` starts a row. A '"' inside a string is escaped, so this
      '"' opens a string, and a string's closing quote is never followed by
      ``from``; "from" sorts first among a row's keys, and only rows have it.
    - ``], "type": `` follows the last row. Its '"' opens the key "type" for
      the same reason, and "type" is the key after "transitions" in every
      machine document.
    So the text loads as the compact text does.
    """
    return (json.dumps(doc, sort_keys=True)
            .replace('[{"from": ', '[\n{"from": ')
            .replace('}, {"from": ', '},\n{"from": ')
            .replace('}], "type": ', '}\n], "type": '))
