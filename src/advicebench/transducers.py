"""One-way and two-way finite transducers over infinite words.

Interpreters are demand driven: a RunOutcome produces output letters on
request, spending at most a step budget between consecutive letters, so a
machine that stalls (for instance by emitting nothing forever) surfaces a
status instead of hanging. Two-way machines read a tape holding the
endmarker followed by the input word.

Each machine shape has one stepping kernel, a generator with two modes on
one loop (see _walk): ``next`` takes one step and yields the configuration,
as the constructions walk; ``send((want, budget))`` takes a batch of steps,
as a RunOutcome reads, and yields their number. A two-way batch crosses a
run of self-loops that emit nothing, or their cell's letter, at once, and
codes tape cells through byte tables (see _walk).

The kernels step through a machine's ``table``, made on its first run and
kept for every later one. A table row belongs to a state and maps what
the head reads to the step's (emitted letters, move, next row, next
state). A one-way row is a dict keyed by letter. A two-way row is a list
indexed by cell code: an int that folds the cell's letter and, on a
lookbehind machine, the oracle's state after the input left of the cell
(see _TwoWayTable). So a step is one row lookup, with no key tuple to
build. Rows and their entries are filled from the ``transitions`` dict
the first time a run needs them. Whatever a row does not hold goes to
one slow path: an entry not filled yet, the end of the encoded tape, a
letter outside the machine's reads, an undefined transition, an oracle
with no move on a letter left of the head, and a left move off the
endmarker. It fills the entry, or raises exactly what a dict lookup on
``transitions`` would.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from .errors import (
    AdviceNotLasso,
    BudgetExceeded,
    AlphabetMismatch,
    InvariantViolation,
    MovedLeftOfEndmarker,
    NonProductive,
    UndefinedTransition,
)
from .words import (
    CHUNK,
    PAD,
    Alphabet,
    ConstantWord,
    FiniteWord,
    InfiniteWord,
    LassoWord,
    canonical_lasso,
)

LEFT = "L"
RIGHT = "R"


class _EndMarker:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "⊢"


ENDMARKER = _EndMarker()

DEFAULT_BUDGET = 10 ** 5

#: Tape cells a two-way walk encodes at a time, when its head first passes
#: the encoded ones, plus half the cells encoded before: a short walk
#: encodes little more than it reads, and a long one does so in few slices.
SLICE = 32

#: The emitted letters of a silent loop's row entry, told apart by identity;
#: a copying loop's are a list of its cell's letter (see _walk's sweeps).
_LOOP: list = []


class _Rows:
    """Rows filled from a machine's ``transitions`` on demand: a row, and
    each entry in it, is made when a run first needs it, so a machine
    walked a few steps after its construction compiles only the
    transitions it takes. ``start`` is the initial state's row."""

    def __init__(self, t):
        self.transitions = t.transitions
        self.rows: dict = {}
        self.start = self.row(t.initial)

    def row(self, q):
        row = self.rows.get(q)
        if row is None:
            row = self.rows[q] = self.empty()
        return row


class _OneWayTable(_Rows):
    """A one-way machine's transitions as rows: one dict per state, from a
    read letter to (emitted letters, next row, next state)."""

    empty = dict

    def fill(self, row, state, a, pos):
        """The entry of a step from ``state`` reading ``a``, stored in its
        row; raises UndefinedTransition(pos, pos, key) when none applies,
        without the KeyError of the row lookup it is called on."""
        key = (state, a)
        value = self.transitions.get(key)
        if value is None:
            raise UndefinedTransition(pos, pos, key) from None
        out, q2 = value
        hit = row[a] = (out, self.row(q2), q2)
        return hit


class _TwoWayTable(_Rows):
    """A two-way machine's transitions as integer rows: one list per state,
    indexed by cell code, holding (emitted letters, move +1 or -1, next
    row, next state), or None where no transition applies or none has been
    taken yet.

    A cell's code is ``code[letter] + z``: letters are numbered in steps
    of ``width``, the number of oracle states, and z is the number of the
    oracle's state after the input left of the cell (0 without an oracle).
    A letter outside the machine's reads codes as ``foreign + z``. Past
    those come two codes that no row fills: ``stuck``, for a cell left of
    which the oracle had no move, and ``sentinel``, which follows the
    encoded cells of a tape. Oracle states are numbered as the oracle Dfa
    numbers them, and ``zrows`` is its ``rows``.

    A batch's codes are ``cells``: bytes when every code fits one, and then
    a loop's entry emits a list (see _walk's sweeps): a loop is a self-loop
    that emits nothing, or its cell's letter. fill also records a loop's
    code in its row, on the last slot for a right move and the one before
    for a left one: a pair of bytearrays, (silent, copying), made on the
    first such loop. A record holds the codes of exactly the filled loops.
    """

    def __init__(self, t):
        oracle = getattr(t, "oracle", None)
        self.znames = znames = (None,) if oracle is None else oracle.names
        self.width = width = len(znames)
        letters = t.input_alphabet.letters + t.extra_reads
        self.code = code = {a: i * width for i, a in enumerate(letters)}
        self.foreign = foreign = len(letters) * width
        self.stuck = foreign + width
        self.sentinel = foreign + width + 1
        self.cells = bytearray if self.sentinel < 256 else list
        self.bytemaps = {None: b""}  # see translate
        super().__init__(t)
        self.zrows, self.zstart = (None, 0) if oracle is None else (oracle.rows, oracle.index[oracle.initial])
        self.first = code[ENDMARKER] + self.zstart  # the endmarker's cell

    def empty(self):
        return [None] * (self.sentinel + 3)

    def encode(self, letters, z):
        """(cell codes of ``letters``, the oracle state number after them),
        z being the number of the state left of the first letter. After a
        letter the oracle has no move on, the state is None and the next
        cell, the last one coded, is ``stuck``."""
        code, foreign = self.code, self.foreign
        zrows = self.zrows
        if zrows is None:
            return [code.get(a, foreign) for a in letters], 0
        codes = []
        for a in letters:
            if z is None:
                codes.append(self.stuck)
                break
            codes.append(code.get(a, foreign) + z)
            z = zrows[z].get(a)
        return codes, z

    def translate(self, letters, z):
        """encode, in one C-level pass through z's byte table (made on the
        first slice coded in z) when every letter is a one-character latin-1
        one the machine reads. The table is b"", and encode codes, when codes
        do not fit a byte, the oracle leaves z on such a letter, or z is None."""
        bytemap = self.bytemaps.get(z)
        if bytemap is None:
            reads = {ord(a): c + z for a, c in self.code.items() if type(a) is str and len(a) == 1 and ord(a) < 256}
            fits = self.cells is bytearray and (self.zrows is None or all(self.zrows[z][chr(b)] == z for b in reads))
            bytemap = bytearray([self.foreign + z]) * 256 if fits else bytearray()
            for b, c in reads.items() if fits else ():
                bytemap[b] = c
            bytemap = self.bytemaps[z] = bytes(bytemap)
        if bytemap:
            try:  # PAD and product letters do not join; a foreign letter codes foreign + z
                cells = "".join(letters).encode("latin-1").translate(bytemap)
                if len(cells) == len(letters) and self.foreign + z not in cells:
                    return cells, z
            except (TypeError, UnicodeEncodeError):
                pass
        return self.encode(letters, z)

    def fill(self, tape, codes, pos, step, state, row):
        """The entry of a step from ``state`` on the encoded cell ``pos``,
        stored in its row. When none applies, raises the UndefinedTransition
        a dict lookup would: on the oracle's (state, letter) left of the
        cell, or on the machine's key."""
        cell = codes[pos]
        if cell == self.stuck:
            z = self.znames[codes[pos - 1] % self.width]
            raise UndefinedTransition(pos, step, (z, tape[pos - 1]))
        if self.zrows is None:
            key = (state, tape[pos])
        else:
            key = (state, tape[pos], self.znames[cell % self.width])
        value = self.transitions.get(key)
        if value is None:
            raise UndefinedTransition(pos, step, key)
        out, move, q2 = value
        if q2 == state and self.cells is bytearray and out in ((), (tape[pos],)):  # a loop: record its code
            slot = -1 if move == RIGHT else -2
            loops = row[slot] = row[slot] or (bytearray(), bytearray())
            loops[len(out)].append(cell)
            out = list(out) if out else _LOOP
        hit = row[cell] = (out, 1 if move == RIGHT else -1, self.row(q2), q2)
        return hit

    def run(self, codes, pos, move, cap, row, kind):
        """How many cells past ``pos`` in direction ``move``, at most ``cap``,
        the row's state takes loops of ``kind`` (0 silent, 1 copying) on in
        turn, found by stripping the codes fill recorded for them off windows
        of ``codes`` that double in length."""
        loops = row[-1 - (move < 0)][kind]
        crossed, run, width = 0, 8, 8
        while run == width and crossed < cap:
            width *= 2
            near = pos + move * (crossed + 1)  # the next cell to cross; the sentinel ends right runs
            cells = codes[near:near + width] if move > 0 else codes[max(near + 1 - width, 0):near + 1][::-1]
            run = min(len(cells) - len(cells.lstrip(loops)), cap - crossed)
            crossed += run
        return crossed


class _Transducer:
    """The constructor every transducer kind shares.

    transitions: dict key -> (output tuple, *move, next state); a key starts
    (state, read letter). It checks the states, the moves, that a read
    letter is in the input alphabet (or PAD, or a kind's extra reads) and
    that every emitted letter is in the output alphabet. A machine is not
    changed once built: its runs step through ``table``, which they fill
    from ``transitions``.
    """

    #: letters a transition may read besides the input alphabet's
    extra_reads = (PAD,)
    #: the allowed moves, as the part of a value between output and next state
    moves = ((),)

    def __init__(self, states, initial, input_alphabet: Alphabet, output_alphabet: Alphabet, transitions):
        self.states = states = frozenset(states)
        if initial not in states:
            raise ValueError("initial state not in state set")
        self.initial = initial
        self.input_alphabet = input_alphabet
        self.output_alphabet = output_alphabet
        reads = set(input_alphabet.letters).union(self.extra_reads)
        emits = set(output_alphabet.letters)
        self.transitions = table = {}
        for key, value in dict(transitions).items():
            out, move, q2 = value[0], value[1:-1], value[-1]
            if type(value) is not tuple or type(out) is not tuple:
                out, move = tuple(out), tuple(move)
                value = (out,) + move + (q2,)
            if key[0] not in states or q2 not in states:
                raise ValueError("transition leaves the state set")
            if key[1] not in reads:
                raise ValueError(f"read letter {key[1]!r} not in the input alphabet")
            if move not in self.moves:
                raise ValueError(f"bad move {move!r}")
            if not emits.issuperset(out):
                raise ValueError(f"output {out!r} not in the output alphabet")
            table[key] = value

    @cached_property
    def table(self):
        """The rows the kernels step through (_OneWayTable or
        _TwoWayTable), made on the machine's first run and shared by all."""
        if isinstance(self, OneWayTransducer):
            return _OneWayTable(self)
        return _TwoWayTable(self)


class OneWayTransducer(_Transducer):
    """transitions: dict (state, letter) -> (output tuple, next state)."""


class TwoWayTransducer(_Transducer):
    """transitions: dict (state, letter-or-ENDMARKER) -> (output tuple, move, next state)."""

    extra_reads = (PAD, ENDMARKER)
    moves = ((LEFT,), (RIGHT,))


class LookbehindTransducer(_Transducer):
    """Two-way transducer whose transitions also see the state of a total
    deterministic automaton run over the input prefix left of the head.

    transitions: dict (state, letter-or-ENDMARKER, oracle state) -> (output
    tuple, move, next state)."""

    extra_reads = TwoWayTransducer.extra_reads
    moves = TwoWayTransducer.moves

    def __init__(self, states, initial, input_alphabet, output_alphabet, transitions, oracle):
        super().__init__(states, initial, input_alphabet, output_alphabet, transitions)
        self.oracle = oracle
        if not all(a in row for row in oracle.rows for a in input_alphabet.letters):
            raise ValueError("lookbehind oracle must be total on the input alphabet")
        for key in self.transitions:
            if key[2] not in oracle.index:
                raise ValueError(f"lookbehind state {key[2]!r} not in the oracle")


class RunOutcome:
    """Demand-driven output stream of a machine run, plus diagnostics."""

    def __init__(self, engine, budget=DEFAULT_BUDGET):
        self._engine = engine
        self.budget = budget
        self._halt = None  # permanent halt condition, if any

    @property
    def status(self):
        """'producing', or the exception describing why the stream stopped."""
        return self._halt if self._halt is not None else "producing"

    @property
    def produced(self):
        """Letters output so far; a step may output several at once."""
        return len(self._engine.out)

    def _produce(self, n):
        """The engine's output list, stepped until it holds n letters.

        Spends at most ``budget`` steps between consecutive letters; raises
        the halt condition, or BudgetExceeded, if the machine stops first.
        A halting step's letters count: they are output before its move fails.
        An exception from the source word (an inner run's BudgetExceeded,
        say) ends the kernel, so it becomes the run's halt as well.
        """
        engine = self._engine
        out = engine.out
        if len(out) < n:
            if self._halt is not None:
                raise self._halt
            try:
                engine.advance(n, self.budget)
            except (UndefinedTransition, MovedLeftOfEndmarker) as exc:
                self._halt = exc
                engine.step_count = exc.step  # the halting step does not count
                if len(out) >= n:
                    return out
                raise
            except Exception as exc:  # from the source word: the kernel is finished
                self._halt = exc
                raise
            if len(out) < n:
                raise BudgetExceeded(engine.step_count)
        return out

    def letter(self, n):
        if n < 0:
            raise IndexError("letter index must be nonnegative")
        out = self._engine.out
        if n >= len(out):
            self._produce(n + 1)
        return out[n]

    def letters(self, n):
        """First n output letters; raises if the machine halts or stalls first."""
        return self._produce(n)[:n]

    def try_letters(self, n):
        """(letters produced, halt-or-None), never raising."""
        try:
            return self.letters(n), None
        except (UndefinedTransition, MovedLeftOfEndmarker, BudgetExceeded, NonProductive) as exc:
            return self._engine.out[:n], exc

    def prefix_str(self, n):
        from .words import render_letter

        return "".join(render_letter(a) for a in self.letters(n))

    @property
    def word(self):
        return _OutcomeWord(self)


class _OutcomeWord(InfiniteWord):
    """View of a run's output as a word; letters come from the outcome's
    own output list, so the view shares the outcome's single consumer."""

    def __init__(self, outcome: RunOutcome):
        super().__init__(outcome._engine.output_alphabet)
        self.outcome = outcome

    def letter(self, n):
        return self.outcome.letter(n)

    def letters_from(self, n):
        """Letter n and the letters after it that the run has already
        produced: the run steps only as far as letter n needs."""
        out = self.outcome._engine.out
        if not 0 <= n < len(out):
            self.outcome.letter(n)
        return out[n:n + CHUNK]


class _Engine:
    """A run resumed a batch of steps at a time: ``kernel`` is a stepping
    kernel like _walk, which appends each step's letters to ``out``. A
    fresh kernel's first yield, the initial configuration, is taken here;
    one that ``next`` has already stepped ``steps`` times goes on from there
    (see _resume_2wft)."""

    oracle = None  # the lookbehind oracle, on lookbehind runs only

    def __init__(self, machine, out, kernel, steps=None):
        self.output_alphabet = machine.output_alphabet
        self.out = out
        self.step_count = steps or 0
        self._kernel = kernel
        if steps is None:
            next(kernel)

    def advance(self, want, budget):
        """Step until ``out`` holds ``want`` letters or ``budget`` steps in a
        row emitted nothing, in one resumption of the kernel; no step when
        either already holds."""
        if len(self.out) < want and budget > 0:
            self.step_count += self._kernel.send((want, budget))


class _OneWayEngine(_Engine):
    def __init__(self, t: OneWayTransducer, source: InfiniteWord):
        out: list = []
        super().__init__(t, out, _walk_one_way(t, source, out))


def _walk_one_way(t, source, out):
    """Run the 1wft t on source in the two modes of _walk: yields (state,
    pos) before every step, pos being the index of the letter the step
    reads, or a batch's step count. A step looks its letter up in the
    t.table row of its state; a letter the row lacks goes to
    _OneWayTable.fill, which adds the transition's entry or raises
    UndefinedTransition(pos, pos, (state, letter)). It steps through one
    ``letters_from`` chunk at a time, asking for the next only when a step
    needs its first letter, and keeps no tape."""
    table = t.table
    more, emit, fill = source.letters_from, out.extend, table.fill
    row, state, pos = table.start, t.initial, 0
    want = gap = stop = 0  # one-step mode: stop <= pos, so every step yields
    ask = yield state, pos
    if ask is not None:
        want, gap = ask
        start, stop = pos, pos + gap if len(out) < want else pos + 1
    while True:
        for a in more(pos):
            try:
                emitted, row, state = row[a]
            except KeyError:
                emitted, row, state = fill(row, state, a, pos)
            pos += 1
            if emitted:
                emit(emitted)
                stop = pos + gap if len(out) < want else pos
            if pos >= stop:
                ask = yield (state, pos) if ask is None else pos - start
                if ask is None:
                    want = gap = 0
                else:
                    want, gap = ask
                    start, stop = pos, pos + gap if len(out) < want else pos + 1


def _walk(t, source, out):
    """Run t on the tape ENDMARKER·source, appending each step's letters to
    ``out``; the first yield is the initial configuration (state, pos).

    One-step mode: each ``next`` takes one step and yields the next
    configuration, so ``islice(_walk(...), n + 1)`` sees every configuration
    of at most n steps and the walk takes no step past them. Batch mode:
    ``send((want, budget))`` steps until ``out`` holds ``want`` letters, or
    ``budget`` steps in a row emitted nothing, and yields the number of
    steps; it takes its first step unasked. The first batch also counts the
    steps taken one at a time since the last letter, so a walk handed to a
    RunOutcome stalls where a fresh run would (see _resume_2wft). Both
    modes run one loop: a step yields when it reaches ``stop``, which
    one-step mode keeps at or below the step count.

    A lookbehind machine's transitions also see its oracle's state after
    the input prefix left of the head. Raises UndefinedTransition when no
    transition applies, or the oracle has none for a letter left of the
    head (it need not read PAD), and MovedLeftOfEndmarker after the letters
    of a step that leaves the tape.

    The walk keeps the letters read so far on ``tape``, which grows by a
    ``letters_from`` chunk when the head first moves past its end, and
    their cell codes (see _TwoWayTable) on ``codes``, encoded a slice at a
    time (see SLICE) and followed by the sentinel code. A step is one
    lookup of its cell's code in its state's row, taken right after the
    step before moves there. A lookup that gives None goes to the slow
    path. After a left move off the endmarker it read the sentinel at
    ``codes[-1]``, and the step raises at once. Otherwise the next step
    first encodes a slice if the head is on the sentinel past the encoded
    cells, then has _TwoWayTable.fill add its entry, or raise its halt
    with the (pos, step, key) of a dict lookup on ``transitions``.

    A batch sweeps loops when every code fits a byte (the first batch makes
    ``codes`` a bytearray; one-step mode keeps a list, which indexes
    faster): a step on a loop, when the next cell's entry is a filled loop
    of the same kind and move, crosses the run of cells whose codes the row
    records for such loops (_TwoWayTable.run), a silent one up to ``stop``,
    a copying one up to the last letter wanted, emitting the run as one
    tape slice. So steps, stalls, halts and yields are those of one cell at
    a time. A batch codes slices with _TwoWayTable.translate, unless the
    empty letter is in the source's alphabet (a slice could join to a
    string as long).
    """
    table = t.table
    more, emit, encode, sentinel = source.letters_from, out.extend, table.encode, table.sentinel
    row, state, pos, step = table.start, t.initial, 0, 0
    tape, codes, z = [ENDMARKER], [table.first, sentinel], table.zstart
    hit = row[table.first]
    want = gap = budget = stop = 0  # one-step mode: stop <= step, so every step yields
    ask = None
    while True:
        if step >= stop:
            ask = yield (state, pos) if ask is None else step - start
            if ask is None:
                want = gap = 0
            else:
                # until the first batch, stop is the step after the last letter
                want, gap = ask
                start, stop = step, (step if budget else stop) + gap
                if not budget:  # batches may sweep and translate: their codes are cells
                    codes = table.cells(codes)
                    encode = encode if "" in source.alphabet else table.translate
                budget = gap
                if len(out) >= want:
                    stop = step + 1
        if hit is None:
            if pos == len(tape):
                tape += more(pos - 1)
            if pos == len(codes) - 1:  # the sentinel: encode the next slice
                codes[pos:], z = encode(tape[pos:pos + SLICE + pos // 2], z)
                codes.append(sentinel)
            hit = row[codes[pos]] or table.fill(tape, codes, pos, step, state, row)
        emitted, move, row, state = hit
        if emitted:
            emit(emitted)
            if len(out) >= want:
                stop = step + 1
            elif (type(emitted) is not list or not (nxt := row[codes[pos + move]])
                  or type(nxt[0]) is not list or nxt[0] is _LOOP or nxt[1] != move):
                stop = step + 1 + gap
            else:  # a copying loop, and the next cell's: copy on, at most to the last letter wanted
                crossed = table.run(codes, pos, move, want - len(out), row, 1)
                emit(tape[pos + move:pos + move * (crossed + 1):move])
                pos, step = pos + move * crossed, step + crossed
                stop = step + 1 + gap if len(out) < want else step + 1
        elif (emitted is _LOOP and stop - step > 1  # a silent loop, and the next cell's: sweep on to stop
              and (nxt := row[codes[pos + move]]) and nxt[0] is _LOOP and nxt[1] == move):
            crossed = table.run(codes, pos, move, stop - step - 1, row, 0)
            pos, step = pos + move * crossed, step + crossed
        pos += move
        step += 1
        hit = row[codes[pos]]
        if hit is None and pos < 0:
            raise MovedLeftOfEndmarker(step - 1)


class _TwoWayEngine(_Engine):
    """Tape is ENDMARKER followed by the input word; head starts on the marker.
    ``walk`` is a _walk(t, source, out); ``oracle`` is a lookbehind machine's."""

    def __init__(self, t, out, walk, oracle=None, steps=None):
        self.oracle = oracle
        super().__init__(t, out, walk, steps)


def run_1wft(t: OneWayTransducer, source: InfiniteWord, budget=DEFAULT_BUDGET) -> RunOutcome:
    return RunOutcome(_OneWayEngine(t, source), budget)


def run_2wft(t: TwoWayTransducer, source: InfiniteWord, budget=DEFAULT_BUDGET) -> RunOutcome:
    out: list = []
    return RunOutcome(_TwoWayEngine(t, out, _walk(t, source, out)), budget)


def run_2wft_b(t: LookbehindTransducer, source: InfiniteWord, budget=DEFAULT_BUDGET) -> RunOutcome:
    out: list = []
    return RunOutcome(_TwoWayEngine(t, out, _walk(t, source, out), t.oracle), budget)


def _resume_2wft(t: TwoWayTransducer, source: InfiniteWord, out, walk, steps,
                 budget=DEFAULT_BUDGET) -> RunOutcome:
    """run_2wft(t, source, budget) for ``walk``, a _walk(t, source, out)
    that ``next`` has stepped ``steps`` times. With fewer than ``budget``
    steps the run goes on from there, on the same kernel and output list,
    so the walk's steps are not taken again. Its first batch counts the
    walk's silent steps since its last letter against the budget (see
    _walk), and no stretch of so short a walk holds a budget's worth of
    silent steps, so its reads give the letters, halts and stalls, at the
    same steps, of a fresh run. A longer walk might hold one, which a fresh
    read would stall on, so its run starts afresh."""
    if steps >= budget:
        return run_2wft(t, source, budget)
    return RunOutcome(_TwoWayEngine(t, out, walk, steps=steps), budget)


def compose_1wft(outer: OneWayTransducer, inner: OneWayTransducer) -> OneWayTransducer:
    """Product machine equal to running ``inner`` then ``outer`` on its output."""
    if not set(inner.output_alphabet.letters) <= set(outer.input_alphabet.letters):
        raise AlphabetMismatch("outer transducer cannot read the inner one's output")
    initial = (inner.initial, outer.initial)
    states = {initial}
    transitions = {}
    frontier = [initial]
    while frontier:
        qi, qo = frontier.pop()
        for a in inner.input_alphabet.letters:
            hit = inner.transitions.get((qi, a))
            if hit is None:
                continue
            chunk, qi2 = hit
            emitted = []
            qcur = hit2 = qo
            ok = True
            for c in chunk:
                step = outer.transitions.get((qcur, c))
                if step is None:
                    ok = False
                    break
                out, qcur = step
                emitted.extend(out)
            if not ok:
                continue
            nxt = (qi2, qcur)
            transitions[((qi, qo), a)] = (tuple(emitted), nxt)
            if nxt not in states:
                states.add(nxt)
                frontier.append(nxt)
    return OneWayTransducer(states, initial, inner.input_alphabet, outer.output_alphabet, transitions)


def mirror_blocks_2wft(gamma: Alphabet) -> TwoWayTransducer:
    """Three-state machine reversing every '#'-delimited block of its input."""
    if "#" in gamma:
        raise ValueError("'#' is the block marker, not a block letter")
    letters = list(gamma.letters) + ["#"]
    full = Alphabet(letters)
    scan, emit, skip = "scan", "emit", "skip"
    tr = {}
    tr[(scan, ENDMARKER)] = ((), RIGHT, scan)
    for a in gamma.letters:
        tr[(scan, a)] = ((), RIGHT, scan)
        tr[(emit, a)] = ((a,), LEFT, emit)
        tr[(skip, a)] = ((), RIGHT, skip)
    tr[(scan, "#")] = ((), LEFT, emit)
    tr[(emit, "#")] = (("#",), RIGHT, skip)
    tr[(emit, ENDMARKER)] = (("#",), RIGHT, skip)
    tr[(skip, "#")] = ((), RIGHT, scan)
    return TwoWayTransducer({scan, emit, skip}, scan, full, full, tr)


def mu_transducers(n: int, gamma: Alphabet):
    """(forward, backward): forward repeats each letter n times, backward undoes it.

    The backward machine is undefined on inputs that are not letter-wise
    n-fold repetitions.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    fwd = OneWayTransducer(
        {"q"},
        "q",
        gamma,
        gamma,
        {(("q", a)): ((a,) * n, "q") for a in gamma.letters},
    )
    fresh = "fresh"
    states = {fresh} | {(a, j) for a in gamma.letters for j in range(1, n)}
    tr = {}
    for a in gamma.letters:
        if n == 1:
            tr[(fresh, a)] = ((a,), fresh)
        else:
            tr[(fresh, a)] = ((), (a, 1))
            for j in range(1, n):
                if j == n - 1:
                    tr[((a, j), a)] = ((a,), fresh)
                else:
                    tr[((a, j), a)] = ((), (a, j + 1))
    bwd = OneWayTransducer(states, fresh, gamma, gamma, tr)
    return fwd, bwd


def writer_2wft(u: FiniteWord, v: FiniteWord, delta: Alphabet) -> TwoWayTransducer:
    """Machine ignoring its input and writing u then v forever."""
    if len(v) == 0:
        raise ValueError("period must be nonempty")
    out_alpha = Alphabet(dict.fromkeys(v.alphabet.letters + u.alphabet.letters))
    states = {("u", i) for i in range(len(u))} | {("v", i) for i in range(len(v))}
    initial = ("u", 0) if len(u) else ("v", 0)
    tr = {}
    letters = list(delta.letters) + [ENDMARKER]

    def arrow(state, emitted, nxt):
        for a in letters:
            tr[(state, a)] = ((emitted,), RIGHT, nxt)

    for i in range(len(u)):
        nxt = ("u", i + 1) if i + 1 < len(u) else ("v", 0)
        arrow(("u", i), u[i], nxt)
    for i in range(len(v)):
        arrow(("v", i), v[i], ("v", (i + 1) % len(v)))
    return TwoWayTransducer(states, initial, delta, out_alpha, tr)


def analyze_on_constant(t: TwoWayTransducer, c) -> LassoWord:
    """Exact ultimately periodic output of t on c^ω; a finite output raises
    its reason, NonProductive or the halt (see lasso_image)."""
    image = lasso_image(t, ConstantWord(c, t.input_alphabet))
    if isinstance(image, FiniteImage):
        raise image.reason
    return image


def _settle_test(low, per, out):
    """Settle test for a two-way run on a tape periodic from ``low`` on.

    The tape letter (and any lookbehind state) at a position p >= low is
    that at p + per. Feed it every (state, pos) of the run, in order; it
    returns None until the run has settled, then ``cut``, the length ``out``
    had at the configuration that the current one repeats. Settled means:
    the run went from (q, p) to (q, p') with p' ≡ p (mod per), p >= low
    and no position below p in between. From there the run repeats that
    stretch shifted by p' - p forever, each time emitting the letters out
    gained since cut: it never halts and never returns below p.

    Keeps the stack of configurations whose position the run has not gone
    below since; positions along it never decrease, and it holds at most
    one configuration per (state, residue), since a second would have
    matched the first.
    """
    stack: list = []  # (pos, key), positions nondecreasing
    pushed: dict = {}  # key -> len(out) when it was pushed

    def settled(state, pos):
        if pos < low:
            if stack:
                stack.clear()
                pushed.clear()
            return None
        while stack and stack[-1][0] > pos:
            del pushed[stack.pop()[1]]
        key = (state, (pos - low) % per)
        cut = pushed.get(key)
        if cut is None:
            stack.append((pos, key))
            pushed[key] = len(out)
        return cut

    return settled


def _loop_lasso(t, out, cut):
    return canonical_lasso(
        FiniteWord(tuple(out[:cut]), t.output_alphabet),
        FiniteWord(tuple(out[cut:]), t.output_alphabet),
    )


def _oracle_cycle(dfa, w: LassoWord):
    """(states, start, length): the run of a lookbehind oracle or SST control
    on the lasso w, states[n] (a name) after n letters, repeats
    states[start:start + length], and letters with it, forever.

    It steps ``dfa.rows`` a ``letters_from`` chunk at a time; a letter with
    no transition, a foreign one too, raises UndefinedTransition(n, n,
    (state, letter)). A one-way run is a two-way run that never turns back,
    so _settle_test finds its first (state, letter residue) repeat, within
    |u| + |Q|·|v| + 1 configurations; a longer walk raises InvariantViolation."""
    names, rows = dfa.names, dfa.rows
    seen: list = []  # state numbers; its length is the index of the next letter
    settled = _settle_test(len(w.u), len(w.v), seen)
    bound = len(w.u) + len(names) * len(w.v) + 1
    z, n = dfa.index[dfa.initial], 0
    while n < bound:
        for a in w.letters_from(n):
            start = settled(z, n)
            seen.append(z)
            if start is not None:
                return list(map(names.__getitem__, seen)), start, n - start
            z = rows[z].get(a)
            if z is None:
                raise UndefinedTransition(n, n, (names[seen[-1]], a))
            n += 1
            if n == bound:
                break
    raise InvariantViolation(f"an automaton lasso cycle passed its bound of {bound} configurations")


def _walk_to_image(t, source: LassoWord, out, mark=None, revisits=None, cycle=None):
    """Walk a 2wft or 2wftb on a lasso until its whole output is known.

    On a lasso u·v^ω the tape (and lookbehind state) repeats every ``per``
    from position ``low`` on: |v| and |u| + 1, or the oracle's cycle
    (``cycle``, _oracle_cycle(t.oracle, source), if the caller has it). So the
    run halts (raised), repeats a configuration left of low, or settles (see
    _settle_test). Returns (cut, handoff): the output is out[:cut]·out[cut:]^ω
    and handoff is (state, pos, len(out)) after the last configuration left
    of ``mark`` (default low). With ``revisits``, a cycle that visits a cell
    left of mark raises BudgetExceeded with that message and the loop.

    Before a verdict the settle stack holds the last visit of each cell from
    low to the head, one per (state, residue), so the head stays left of
    low + |Q|·per; a cycle then closes on its leftmost configuration within
    one more cycle. So 2·|Q|·(low + |Q|·per + 1) steps suffice, and a
    longer walk raises InvariantViolation.
    """
    oracle = getattr(t, "oracle", None)
    if oracle is None:
        low, per = len(source.u) + 1, len(source.v)
    else:
        _states, ell, per = cycle or _oracle_cycle(oracle, source)
        low = ell + 1
    settled = _settle_test(low, per, out)
    mark = low if mark is None else mark
    memo: dict = {}  # configuration left of low -> (len(out), step) there
    handoff, marked = None, -1  # marked: the last step left of mark
    bound = 2 * len(t.states) * (low + len(t.states) * per + 1)
    for step, cfg in enumerate(islice(_walk(t, source, out), bound + 1)):
        if marked == step - 1:
            handoff = cfg + (len(out),)
        cut = settled(*cfg)
        if cfg[1] < low:
            cut, first = memo.setdefault(cfg, (len(out), step))
            if first == step:
                cut = None
            elif revisits and marked >= first:
                loop = _loop_lasso(t, out, cut) if len(out) > cut else None
                raise BudgetExceeded(step, loop=loop, message=revisits)
        if cfg[1] < mark:
            marked = step
        if cut is not None:
            return cut, handoff
    raise InvariantViolation(f"a lasso walk passed its bound of {bound} steps")


@dataclass(frozen=True)
class FiniteImage:
    """Whole output of a run that ends; ``reason`` is NonProductive or the halt."""

    word: FiniteWord
    reason: Exception


def _one_way_cut(t, w: LassoWord, out):
    """Run a 1wft on the lasso w until its cycle closes (as in _oracle_cycle),
    within |u| + |Q|·|v| + 1 configurations, and a longer walk raises
    InvariantViolation; return the output length where the cycle starts.
    The letters go to ``out``; a halt is raised as run_1wft raises it."""
    settled = _settle_test(len(w.u), len(w.v), out)
    bound = len(w.u) + len(t.states) * len(w.v) + 1
    for state, pos in islice(_walk_one_way(t, w, out), bound):
        cut = settled(state, pos)
        if cut is not None:
            return cut
    raise InvariantViolation(f"a lasso walk passed its bound of {bound} configurations")


def _cut_image(t, out, cut):
    """The image out[:cut]·out[cut:]^ω of a walk that ended on its cycle
    with ``cut`` (see _walk_to_image, _one_way_cut): the canonical LassoWord,
    or a FiniteImage with NonProductive when the cycle emits nothing."""
    if cut < len(out):
        return _loop_lasso(t, out, cut)
    word = FiniteWord(tuple(out), t.output_alphabet)
    return FiniteImage(word, NonProductive(word.letters))


def lasso_image(t, w: LassoWord):
    """Exact output of a 1wft, 2wft or 2wftb on the lasso w: the canonical
    LassoWord, or a FiniteImage when the run halts or loops without output.
    A one-way run closes its cycle within |u| + |Q|·|v| letters (see
    _one_way_cut), a two-way run within 2·|Q|·(low + |Q|·per + 1) steps
    (see _walk_to_image)."""
    if not isinstance(w, LassoWord):
        raise AdviceNotLasso("an exact image needs an ultimately periodic input")
    out: list = []
    try:
        if isinstance(t, OneWayTransducer):
            cut = _one_way_cut(t, w, out)
        else:
            cut, _handoff = _walk_to_image(t, w, out)
    except (UndefinedTransition, MovedLeftOfEndmarker) as halt:
        return FiniteImage(FiniteWord(tuple(out), t.output_alphabet), halt)
    return _cut_image(t, out, cut)


def remove_endmarker(t: TwoWayTransducer, source: LassoWord) -> TwoWayTransducer:
    """Fold everything up to the last endmarker visit into a one-step prologue.

    Relative to a lasso input: the run of t on it must eventually stop
    visiting the endmarker, and a machine bouncing on it forever is rejected
    with the detected loop. The walk stops at its proven verdict, within
    2·|Q|·(|u| + |Q|·|v| + 2) steps (see _walk_to_image), so the prologue
    folds the exact run. That walk also gives the original's exact image,
    which the result must have; only the result is walked to check it.
    """
    if not isinstance(source, LassoWord):
        raise AdviceNotLasso("endmarker removal is relative to a lasso input")
    out: list = []
    cut, (q_target, _pos, emitted_len) = _walk_to_image(
        t, source, out, mark=1, revisits="the endmarker is revisited forever")
    prologue_out = tuple(out[:emitted_len])
    boot = ("boot", 0)
    while boot in t.states:
        boot = ("boot", boot[1] + 1)
    transitions = {
        (q, a): v for (q, a), v in t.transitions.items() if a is not ENDMARKER
    }
    transitions[(boot, ENDMARKER)] = (prologue_out, RIGHT, q_target)
    result = TwoWayTransducer(
        set(t.states) | {boot}, boot, t.input_alphabet, t.output_alphabet, transitions
    )

    from .analysis import _validate_image

    _validate_image(result, _cut_image(t, out, cut), source, "endmarker removal")
    return result
