"""Streaming string transducers over infinite words.

Registers hold finite output fragments and are updated by copyless
substitutions. A simple machine streams a distinguished register that only
ever grows at its end; the compiler below turns such a machine into a
two-way transducer that recomputes register values by walking back over
the input, consulting the machine's own run as a lookbehind oracle.

Runs step through the machine's ``table`` (_SstTable), made on its first
run and kept for every later one. A row belongs to a state and maps a
read letter to the step's entry: the next row and state, the non-identity
register moves with registers as list indices, and the tail of the
streamed register. Entries are filled from ``transitions`` and
``updates`` the first time a run takes them. Register contents are ropes
in a list (_Registers); the streamed register is never a rope, as its
tail goes straight into the run's output list. Batches sweep runs of
register loops (see _walk_sst). A general machine runs as its simple form
on its lasso input (see run_sst), so every run steps a simple machine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, takewhile

from .advice import Dfa
from .analysis import _validate_image
from .errors import (
    AdviceNotLasso,
    InvariantViolation,
    MalformedSimpleSst,
    NoOutputFunction,
    NonProductive,
    UndefinedTransition,
)
from .transducers import (
    ENDMARKER,
    LEFT,
    RIGHT,
    DEFAULT_BUDGET,
    LookbehindTransducer,
    RunOutcome,
    TwoWayTransducer,
    _Engine,
    _Halted,
    _cut_image,
    _oracle_cycle,
    _walk_to_image,
    lasso_image,
)
from .words import InfiniteWord, LassoWord, PAD


@dataclass(frozen=True)
class Reg:
    name: str

    def __repr__(self):
        return self.name


class Substitution:
    """Total mapping from registers to strings over letters and registers."""

    def __init__(self, mapping):
        self.mapping = {name: tuple(tokens) for name, tokens in dict(mapping).items()}

    def rhs(self, name):
        return self.mapping[name]

    def registers(self):
        return set(self.mapping)

    def items(self):
        return self.mapping.items()

    def __eq__(self, other):
        return isinstance(other, Substitution) and self.mapping == other.mapping

    def __repr__(self):
        def fmt(tokens):
            return " ".join(str(x) for x in tokens) or "ε"

        return "{" + ", ".join(f"{k}↦{fmt(v)}" for k, v in sorted(self.mapping.items())) + "}"


@dataclass
class CopylessReport:
    ok: bool
    register: str | None = None
    sites: tuple = ()


def _copyless_one(sub: Substitution) -> CopylessReport:
    seen = {}
    for target, tokens in sub.items():
        for i, tok in enumerate(tokens):
            if isinstance(tok, Reg):
                if tok.name in seen:
                    return CopylessReport(False, tok.name, (seen[tok.name], (target, i)))
                seen[tok.name] = (target, i)
    return CopylessReport(True)


def validate_copyless(obj) -> CopylessReport:
    """Check that each register occurs at most once across all right-hand sides."""
    if isinstance(obj, Substitution):
        return _copyless_one(obj)
    for key, sub in obj.updates.items():
        r = _copyless_one(sub)
        if not r.ok:
            return CopylessReport(False, r.register, (key,) + r.sites)
    return CopylessReport(True)


def compose_substitutions(outer: Substitution, inner: Substitution) -> Substitution:
    """Substitution equal to applying ``inner`` and grounding through ``outer``."""
    mapping = {}
    for name, tokens in inner.items():
        acc = []
        for tok in tokens:
            if isinstance(tok, Reg):
                acc.extend(outer.rhs(tok.name))
            else:
                acc.append(tok)
        mapping[name] = tuple(acc)
    return Substitution(mapping)


class _Rope:
    """Letters of a register: ``reversed(left)`` then ``right``.

    Letters put in front of a register go on ``left`` and letters put
    behind it on ``right``, so either costs one list extend. ``left`` holds
    letters only, as whatever an update puts in front of a register's first
    register is letters. ``right`` holds letters and the ropes of registers
    nested behind it.
    """

    __slots__ = ("left", "right")

    def __init__(self):
        self.left: list = []
        self.right: list = []


def _flatten(rope: _Rope, out: list) -> None:
    """Append the letters of a rope to out.

    Iterative: ropes nest as deep as the number of updates that built them,
    far beyond the recursion limit.
    """
    pending = [iter((rope,))]  # iterators over rope items still to go out
    while pending:
        for x in pending[-1]:
            if type(x) is not _Rope:
                out.append(x)
                continue
            out.extend(reversed(x.left))
            pending.append(iter(x.right))
            break
        else:
            pending.pop()


class _Registers:
    """Register contents of a run under copyless updates: ``ropes`` holds
    one rope per register, indexed like the machine's ``registers``.

    Each register occurs at most once across an update's right-hand sides,
    so every rope has a single owner (a register or one enclosing rope). A
    table entry (see _SstTable) applies an update in one of two ways. In
    place, when every move only puts letters on its own register's rope or
    resets it: the ropes are extended or cleared and no container is made.
    Otherwise into one copy of ``ropes``: each moved register takes the rope
    of the first register of its right-hand side, extended, or a fresh
    one, and the ropes of its other registers are nested behind; all of
    them are read from the old list. Either costs O(|rhs|), but the list
    copy and its call about double the step cost of machines such as
    ``mirror_sst`` and ``interleave_sst``, whose letter steps batches sweep.

    A walk's streamed register (see _walk_sst) is never built as a rope:
    its letters go straight into the run's output list.
    """

    def __init__(self, names):
        self.names = tuple(names)
        self.ropes = [_Rope() for _ in self.names]

    def letters(self, name) -> list:
        out: list = []
        _flatten(self.ropes[self.names.index(name)], out)
        return out


def _rebuild(ropes: list, moves) -> list:
    """The ropes after an update that does not go in place: one copy of
    ``ropes``, each move's register set from the old list."""
    new = ropes[:]
    for i, base, left, parts in moves:
        rope = _Rope() if base is None else ropes[base]
        if left:
            rope.left += left
        right = rope.right
        for part in parts:
            if type(part) is int:
                child = ropes[part]
                if child.left or child.right:
                    right.append(child)
            else:
                right += part
        new[i] = rope
    return new


class _SstTable:
    """An Sst's transitions and updates as rows, filled on demand like
    transducers._OneWayTable: one dict per (state, streamed register),
    from a read letter to the step's entry (moves, rebuild, tail, next row,
    next state). The streamed register is a register index, or None on a
    run that streams none.

    Registers are list indices, and only non-identity moves are kept. In
    place (``rebuild`` false) a move is (index, letters to put in front,
    reversed, or None to reset the register first, letters to put behind).
    Otherwise every move is (index, index of the first register of the
    right-hand side or None, letters in front of it reversed, parts behind
    it) for _rebuild. The tail is the list of parts the update puts behind
    the streamed register. A part is a tuple of letters or a register
    index.

    A loop keeps its state, has no tail and only puts its read letter in
    front of register i (front true) or behind it. Its rebuild slot is (i,
    front, letters, letters.__contains__): the set in ``loops`` of the
    letters whose filled entries in the row loop alike, each added by fill.
    """

    def __init__(self, s: "Sst"):
        self.transitions, self.updates = s.transitions, s.updates
        self.index = {name: i for i, name in enumerate(s.registers)}
        self.rows: dict = {}
        self.loops: dict = {}  # (state, streamed, i, front) -> the letters of those loops

    def row(self, state, streamed):
        row = self.rows.get((state, streamed))
        if row is None:
            row = self.rows[(state, streamed)] = {}
        return row

    def fill(self, row, state, a, pos, streamed):
        """The entry of a step from ``state`` reading ``a``, stored in its
        row; raises UndefinedTransition(pos, pos, (state, a)) when none
        applies, without the KeyError of the row lookup it is called on."""
        key = (state, a)
        if key not in self.transitions:
            raise UndefinedTransition(pos, pos, key) from None
        q2 = self.transitions[key]
        moves, rebuild, tail = self._compile(self.updates[key], streamed)
        if side := q2 == state and self._side(a, moves, rebuild, tail):
            loop = self.loops.setdefault((state, streamed) + side, set())
            loop.add(a)
            rebuild = side + (loop, loop.__contains__)
        hit = row[a] = (moves, rebuild, tail, self.row(q2, streamed), q2)
        return hit

    @staticmethod
    def _side(a, moves, rebuild, tail):
        """(i, front) when an update only puts ``a`` in front of register i
        (front true) or behind it, else None."""
        if rebuild or tail or len(moves) != 1 or moves[0][1:] not in (((a,), ()), ((), (a,))):
            return None
        return moves[0][0], moves[0][1] == (a,)

    def _parts(self, tokens) -> list:
        parts: list = []
        for tok in tokens:
            if type(tok) is Reg:
                parts.append(self.index[tok.name])
            elif parts and type(parts[-1]) is tuple:
                parts[-1] += (tok,)
            else:
                parts.append((tok,))
        return parts

    def _compile(self, sub: Substitution, streamed):
        """(moves, rebuild, tail) of one update. The streamed register's
        right-hand side starts with itself, as a simple machine's output
        register does: only simple machines stream, general ones through
        their simple forms (see run_sst)."""
        tail: list = []
        moves = []
        rebuild = False
        for name, tokens in sub.items():
            i = self.index[name]
            if i == streamed:
                tail = self._parts(tokens[1:])
                continue
            first = next((k for k, tok in enumerate(tokens) if type(tok) is Reg), None)
            if first is None:
                moves.append((i, None, (), self._parts(tokens)))
                continue
            if tokens == (Reg(name),):
                continue
            rest = self._parts(tokens[first + 1:])
            rebuild = rebuild or tokens[first].name != name or any(type(p) is int for p in rest)
            moves.append((i, self.index[tokens[first].name], tuple(reversed(tokens[:first])), rest))
        if not rebuild:  # only the register's own rope, or a reset
            moves = [(i, None if base is None else left, sum(rest, ()))
                     for i, base, left, rest in moves]
        return tuple(moves), rebuild, tail


class Sst:
    def __init__(self, states, initial, input_alphabet, output_alphabet, registers,
                 transitions, updates, output_function):
        """transitions: (state, letter) -> state; updates: same keys -> Substitution;
        output_function: frozenset of states -> tuple of register names.
        ``control`` is the states and transitions as a Dfa (no accepting state)."""
        self.control = control = Dfa(states, initial, (), input_alphabet, transitions)
        self.states, self.initial, self.transitions = control.states, initial, control.transitions
        self.input_alphabet = input_alphabet
        self.output_alphabet = output_alphabet
        self.registers = tuple(registers)
        self.updates = dict(updates)
        if set(self.transitions) != set(self.updates):
            raise ValueError("transitions and register updates must share their domain")
        for key, sub in self.updates.items():
            if sub.registers() != set(self.registers):
                raise ValueError(f"update at {key} is not total on the registers")
            for _name, tokens in sub.items():
                for tok in tokens:
                    if type(tok) is Reg:
                        if tok.name not in self.registers:
                            raise ValueError(f"update at {key} reads the undeclared register {tok.name!r}")
                    elif tok not in output_alphabet:
                        raise ValueError(f"update letter {tok!r} not in the output alphabet")
        report = validate_copyless(self)
        if not report.ok:
            raise MalformedSimpleSst(f"register {report.register} copied at {report.sites}")
        self.output_function = {frozenset(k): tuple(v) for k, v in dict(output_function).items()}
        self._check_output_constraints()

    @cached_property
    def table(self) -> _SstTable:
        """The rows the runs step through, made on the machine's first run
        and shared by all."""
        return _SstTable(self)

    def _check_output_constraints(self):
        for pset, regs in self.output_function.items():
            if len(set(regs)) != len(regs):
                raise MalformedSimpleSst("output register string must be copyless")
            for (q, a), q2 in self.transitions.items():
                if q in pset and q2 in pset:
                    sub = self.updates[(q, a)]
                    for i, name in enumerate(regs):
                        rhs = sub.rhs(name)
                        if i < len(regs) - 1:
                            if rhs != (Reg(name),):
                                raise MalformedSimpleSst(
                                    f"register {name} must stay fixed on recurring states"
                                )
                        elif not rhs or rhs[0] != Reg(name):
                            raise MalformedSimpleSst(
                                f"register {name} must only be appended to on recurring states"
                            )


class SimpleSst(Sst):
    """Sst with a distinguished register ``out`` streamed as the output."""

    def __init__(self, states, initial, input_alphabet, output_alphabet, registers,
                 transitions, updates, out="out"):
        self.out = out
        super().__init__(states, initial, input_alphabet, output_alphabet, registers,
                         transitions, updates, {})
        if out not in self.registers:
            raise MalformedSimpleSst(f"distinguished register {out!r} missing")
        for key, sub in self.updates.items():
            rhs = sub.rhs(out)
            if not rhs or rhs[0] != Reg(out):
                raise MalformedSimpleSst(f"update of {out} at {key} is not of the form {out}·w")
            for name, tokens in sub.items():
                if name != out and Reg(out) in tokens:
                    raise MalformedSimpleSst(f"register {name} mentions {out}")


def _walk_sst(s: Sst, source: InfiniteWord, out, registers: _Registers, name):
    """Run s from its initial state on ``registers``, which start empty.
    Register ``name`` (None for none) is streamed into ``out``: its letters
    go there as the updates append them, and it is never built as a rope.
    Its start yields nothing. Every later resumption is a batch, as in
    transducers._walk: ``send((want, gap))`` steps until ``out`` holds
    ``want`` letters, or ``gap`` steps in a row emitted nothing, and yields
    the number of steps; it takes its first step unasked, so
    ``send((0, 1))`` takes exactly one.

    A step looks its letter up in the s.table row of its state and applies
    the entry: the streamed register's tail goes to ``out``, its letters as
    they are and its registers flattened, then the other registers move,
    in place or into one copy of the rope list (see _SstTable). A letter
    the row lacks goes to _SstTable.fill, which adds the entry or raises
    UndefinedTransition(pos, pos, (state, letter)). It reads its input a
    ``letters_from`` chunk at a time.

    A batch sweeps loops (see _SstTable): when the next letter loops
    alike, the run of such letters up to ``stop`` or the chunk's end goes
    onto the register's rope in one extend. Loops emit nothing, so steps,
    stalls, halts and yields are those of one letter at a time."""
    table = s.table
    state, pos = s.initial, 0
    streamed = None if name is None else registers.names.index(name)
    row, fill = table.row(state, streamed), table.fill
    more, emit = source.letters_from, out.extend
    ropes = registers.ropes
    want, gap = yield
    start, stop = pos, pos + gap if len(out) < want else pos + 1
    while True:
        try:
            chunk = more(pos)
        except Exception as exc:  # the run's halt (see _produce)
            raise _Halted(pos - start, exc) from None
        letters, at, end = iter(chunk), pos, pos + len(chunk)
        for a in letters:
            try:
                moves, rebuild, tail, row, q2 = row[a]
            except KeyError:
                moves, rebuild, tail, row, q2 = fill(row, state, a, pos, streamed)
            state = q2
            pos += 1
            if tail:
                produced = len(out)
                for part in tail:
                    if type(part) is int:
                        _flatten(ropes[part], out)
                    else:
                        emit(part)
                if len(out) > produced:
                    stop = pos + gap if len(out) < want else pos
            if rebuild is True:
                ropes = registers.ropes = _rebuild(ropes, moves)
            elif rebuild:  # a loop: a goes in front of register i or behind it
                i, front, loop, looping = rebuild
                side = ropes[i].left if front else ropes[i].right
                side.append(a)
                if pos < stop and pos < end and chunk[pos - at] in loop:
                    swept = len(side)  # the next letter loops alike: sweep
                    side += takewhile(looping, letters if end <= stop else islice(letters, stop - pos))
                    pos += len(side) - swept
                    letters.__setstate__(pos - at)  # takewhile took the letter after the run too
            else:
                for i, left, right in moves:
                    rope = ropes[i]
                    if left is None:
                        rope.left.clear()
                        rope.right.clear()
                    elif left:
                        rope.left += left
                    if right:
                        rope.right += right
            if pos >= stop:
                want, gap = yield pos - start
                start, stop = pos, pos + gap if len(out) < want else pos + 1


class _SimpleSstEngine(_Engine):
    def __init__(self, s: SimpleSst, source: InfiniteWord):
        out: list = []
        super().__init__(s, out, _walk_sst(s, source, out, _Registers(s.registers), s.out))


class _GeneralSstEngine(_SimpleSstEngine):
    """A general run is the run of its simple form (simplify_to_simple_sst),
    every step counted, the prologue too. At the end of a finite limit the
    simple form stalls; once it has stalled with every letter of the limit
    out, each later step puts out a PAD."""

    def __init__(self, s: Sst, source: LassoWord):
        self.simple, self.source = simplify_to_simple_sst(s, source), source
        self.padding = False
        super().__init__(self.simple, source)

    @cached_property
    def limit(self):
        """The limit's length, from the simple form's exact image (see
        compile_sst_to_2wftb); asked for at the first stall only."""
        image = lasso_image(compile_sst_to_2wftb(self.simple), self.source)
        if isinstance(image, LassoWord):
            return math.inf
        if not isinstance(image.reason, NonProductive):
            raise InvariantViolation(f"the simple form of a general run halts: {image.reason}")
        return len(image.word)

    def advance(self, want, budget):
        out = self.out
        if not self.padding:
            super().advance(want, budget)
            if len(out) >= want or budget <= 0 or len(out) < self.limit:
                return
            self.padding = True  # stalled with the whole finite limit out
        self.step_count += want - len(out)
        out += [PAD] * (want - len(out))


def _recurrence_entry(s: Sst, source: LassoWord):
    """Run s on the lasso up to its entry into the recurring states.

    Returns the states of the control's lasso cycle (_oracle_cycle), the
    recurring states, the entry position and the registers there. From the
    entry on, every step stays inside the recurring states.
    """
    seq, cycle_start, _cycle_len = _oracle_cycle(s.control, source)
    recurring = frozenset(seq[cycle_start:])
    entry = cycle_start
    while entry > 0 and seq[entry - 1] in recurring:
        entry -= 1
    registers = _Registers(s.registers)
    walk = _walk_sst(s, source, [], registers, None)
    next(walk)
    if entry:  # the walk streams nothing, so this batch takes exactly entry steps
        walk.send((1, entry))
    return seq, recurring, entry, registers


def run_sst(s: Sst, source: InfiniteWord, budget=DEFAULT_BUDGET) -> RunOutcome:
    """Run a register transducer. A general (non-simple) machine needs a
    lasso input, and runs as its simple form there (simplify_to_simple_sst):
    the budget counts every step of the simple form, its prologue too, and
    where the simple form stalls at the end of a finite limit, the run puts
    out PADs, one step each. Reading past a finite limit so spends one
    budget of silent steps first, about 12 ms at the default budget."""
    if isinstance(s, SimpleSst):
        return RunOutcome(_SimpleSstEngine(s, source), budget)
    if not isinstance(source, LassoWord):
        raise AdviceNotLasso("a general register transducer needs an ultimately periodic input")
    return RunOutcome(_GeneralSstEngine(s, source), budget)


def simplify_to_simple_sst(s: Sst, source: LassoWord) -> SimpleSst:
    """Input-relative simple form.

    Freezes the register values at the entry into the recurring states,
    installs them with a prologue line of fresh states, then mimics the
    final output register through a new ``out`` register. The result only
    promises the same output on the given input. A general run is the run
    of this form (see run_sst). On a finite limit the simple form prints
    the limit's letters and then stalls; the general run spends that
    stall's budget of silent steps and then pads with ``_``. On a·b^ω,
    ``corpus.finite_output_sst()`` prints ab__… and its simple form ab,
    then raises BudgetExceeded at step 100001 under the default budget.
    """
    if not isinstance(source, LassoWord):
        raise AdviceNotLasso("simplification is relative to an ultimately periodic input")
    seq, recurring, entry, registers = _recurrence_entry(s, source)
    if isinstance(s, SimpleSst):
        regs = (s.out,)
    elif recurring in s.output_function:
        regs = s.output_function[recurring]
    else:
        raise NoOutputFunction(recurring)
    values = {name: registers.letters(name) for name in s.registers}

    out_name = "out"
    while out_name in s.registers:
        out_name += "_"
    registers = tuple(s.registers) + (out_name,)
    identity = {name: (Reg(name),) for name in registers}
    last = regs[-1] if regs else None

    boot = "boot"  # the prologue states are (boot, i), named apart from s's states
    while any((boot, i) in s.states for i in range(entry)):
        boot += "_"
    transitions: dict = {}
    updates: dict = {}
    letters = source.take(len(seq) - 1)  # seq[i] reads letters[i]
    for i in range(entry):
        key = ((boot, i), letters[i])
        transitions[key] = (boot, i + 1) if i + 1 < entry else seq[entry]
        if i + 1 < entry:
            updates[key] = Substitution(identity)
        else:
            install = dict(identity)
            for name in s.registers:
                install[name] = tuple(values[name])
            head = []
            for name in regs:
                head.extend(values[name])
            install[out_name] = (Reg(out_name),) + tuple(head)
            updates[key] = Substitution(install)

    for key in zip(seq[entry:-1], letters[entry:]):
        if key not in transitions:
            sub = s.updates[key]
            mapping = {name: sub.rhs(name) for name in s.registers}
            if last is not None:
                mapping[out_name] = (Reg(out_name),) + tuple(sub.rhs(last)[1:])
                mapping[last] = (Reg(last),)
            else:
                mapping[out_name] = (Reg(out_name),)
            transitions[key] = s.transitions[key]
            updates[key] = Substitution(mapping)

    initial = (boot, 0) if entry > 0 else seq[0]
    states = set(transitions.values()) | {k[0] for k in transitions} | {initial}
    return SimpleSst(states, initial, s.input_alphabet, s.output_alphabet,
                     registers, transitions, updates, out=out_name)


def _scan(tokens):
    """Split a token string as (letter prefix, first register or None, rest)."""
    lits = []
    for i, tok in enumerate(tokens):
        if isinstance(tok, Reg):
            return tuple(lits), tok.name, tokens[i + 1:]
        lits.append(tok)
    return tuple(lits), None, ()


def compile_sst_to_2wftb(s: SimpleSst) -> LookbehindTransducer:
    """Register-free two-way machine streaming the same output.

    Control is a mode plus the register being produced; suffixes of update
    strings are consumed within single steps, between head moves.
    Descending loads a register's update one cell to the left; ascending
    finds the unique occurrence of the finished register in the consuming
    update (well defined by copylessness) and resumes after it; finishing
    the distinguished register's increment returns to the main loop. The
    lookbehind oracle is ``s.control`` completed with a fresh sink state.
    """
    out = s.out
    oracle = s.control.completed()

    MAIN = ("main",)

    def consume(tokens, done):
        """One transition: emit leading letters, then descend or finish."""
        lits, reg, _rest = _scan(tokens)
        if reg is not None:
            return lits, LEFT, ("load", reg)
        return lits + done[0], done[1], done[2]

    tr: dict = {}
    tr[(MAIN, ENDMARKER, s.initial)] = ((), RIGHT, MAIN)
    for name in s.registers:
        if name != out:
            tr[(("load", name), ENDMARKER, s.initial)] = ((), RIGHT, ("asc", name))
    for (z, a), sub in s.updates.items():
        tr[(MAIN, a, z)] = consume(sub.rhs(out)[1:], ((), RIGHT, MAIN))
        for name in s.registers:
            if name == out:
                continue
            tr[(("load", name), a, z)] = consume(sub.rhs(name), ((), RIGHT, ("asc", name)))
        for name in s.registers:
            if name == out:
                continue
            holder = None
            for target, tokens in sub.items():
                for i, tok in enumerate(tokens):
                    if tok == Reg(name) and not (target == out and i == 0):
                        holder = (target, tokens[i + 1:])
            if holder is None:
                continue
            target, rest = holder
            done = ((), RIGHT, MAIN) if target == out else ((), RIGHT, ("asc", target))
            tr[(("asc", name), a, z)] = consume(rest, done)

    states = {MAIN} | {key[0] for key in tr} | {v[2] for v in tr.values()}
    return LookbehindTransducer(
        states, MAIN, s.input_alphabet, s.output_alphabet, tr, oracle
    )


def eliminate_lookbehind_lasso(t: LookbehindTransducer, source: LassoWord) -> TwoWayTransducer:
    """Replace the lookbehind by a position counter modulo the oracle period.

    On a lasso input the oracle state sequence is ultimately periodic; once
    the head permanently stays beyond the preperiod, the oracle state is a
    function of the position residue. Everything before that is hardcoded,
    and a machine that keeps returning is rejected with the detected loop.
    The run is walked until it provably stays beyond the preperiod, within
    2·|Q|·(ℓ + |Q|·p + 2) steps for an oracle cycle of preperiod ℓ and
    period p (see transducers._walk_to_image); a run that halts before that
    raises its halt. The oracle cycle is computed once, for the walk and
    the path, and the walk also gives the original's exact image, which the
    result must have; only the result is walked to check it.

    From the handoff at tape position ℓ + 1 on, the run never returns left,
    and the letter and oracle state there depend only on the residue m (the
    cycle's length is a multiple of |v|, and ℓ ≥ |u|). So the result is the
    prologue plus one transition per (state, residue) the run visits after
    it, at most |Q|·p, each on its residue's letter: on any other input it
    halts at the first letter it reads that differs from its lasso's.
    """
    if not isinstance(source, LassoWord):
        raise AdviceNotLasso("lookbehind elimination is relative to a lasso input")
    cycle = _oracle_cycle(t.oracle, source)
    zstates, ell, period = cycle
    out: list = []
    cut, (q_target, target_pos, emitted_len) = _walk_to_image(
        t, source, out, revisits="head keeps returning into the oracle preperiod", cycle=cycle)

    walk = "walk"  # the prologue states are (walk, i), named apart from t's states
    while walk in t.states:
        walk += "_"
    tr: dict = {}
    for i in range(target_pos):
        letter = ENDMARKER if i == 0 else source.letter(i - 1)
        dst = (walk, i + 1) if i + 1 < target_pos else (q_target, 0)
        tr[((walk, i), letter)] = (tuple(out[:emitted_len]) if i == 0 else (), RIGHT, dst)
    q, m = q_target, 0
    while True:  # the run's (state, residue) path, until it halts or repeats
        a = source.letter(ell + m)
        step = t.transitions.get((q, a, zstates[ell + m]))
        if step is None or ((q, m), a) in tr:
            break
        emitted, move, q2 = step
        m2 = (m + 1) % period if move == RIGHT else (m - 1) % period
        tr[((q, m), a)] = (emitted, move, (q2, m2))
        q, m = q2, m2
    states = {src for (src, _a) in tr} | {v[2] for v in tr.values()}
    result = TwoWayTransducer(states, (walk, 0), t.input_alphabet, t.output_alphabet, tr)

    _validate_image(result, _cut_image(t, out, cut), source, "lookbehind elimination")
    return result
