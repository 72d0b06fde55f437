"""One-way and two-way finite transducers over infinite words.

Interpreters are demand driven: a RunOutcome produces output letters on
request, spending at most a step budget between consecutive letters, so a
machine that stalls (for instance by emitting nothing forever) surfaces a
status instead of hanging. Two-way machines read a tape holding the
endmarker followed by the input word.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .errors import (
    AdviceNotLasso,
    BudgetExceeded,
    AlphabetMismatch,
    MovedLeftOfEndmarker,
    NonProductive,
    UndefinedTransition,
)
from .words import (
    Alphabet,
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


class OneWayTransducer:
    def __init__(self, states, initial, input_alphabet: Alphabet, output_alphabet: Alphabet, transitions):
        """transitions: dict (state, letter) -> (output tuple, next state)."""
        self.states = frozenset(states)
        if initial not in self.states:
            raise ValueError("initial state not in state set")
        self.initial = initial
        self.input_alphabet = input_alphabet
        self.output_alphabet = output_alphabet
        self.transitions = {}
        for (q, a), (out, q2) in dict(transitions).items():
            if q not in self.states or q2 not in self.states:
                raise ValueError("transition leaves the state set")
            self.transitions[(q, a)] = (tuple(out), q2)


class TwoWayTransducer:
    def __init__(self, states, initial, input_alphabet: Alphabet, output_alphabet: Alphabet, transitions):
        """transitions: dict (state, letter-or-ENDMARKER) -> (output tuple, move, next state)."""
        self.states = frozenset(states)
        if initial not in self.states:
            raise ValueError("initial state not in state set")
        self.initial = initial
        self.input_alphabet = input_alphabet
        self.output_alphabet = output_alphabet
        self.transitions = {}
        for (q, a), (out, move, q2) in dict(transitions).items():
            if q not in self.states or q2 not in self.states:
                raise ValueError("transition leaves the state set")
            if move not in (LEFT, RIGHT):
                raise ValueError(f"bad move {move!r}")
            self.transitions[(q, a)] = (tuple(out), move, q2)


class LookbehindTransducer:
    """Two-way transducer whose transitions also see the state of a total
    deterministic automaton run over the input prefix left of the head."""

    def __init__(self, states, initial, input_alphabet, output_alphabet, transitions, oracle):
        self.states = frozenset(states)
        if initial not in self.states:
            raise ValueError("initial state not in state set")
        self.initial = initial
        self.input_alphabet = input_alphabet
        self.output_alphabet = output_alphabet
        self.transitions = {}
        for (q, a, s), (out, move, q2) in dict(transitions).items():
            if q not in self.states or q2 not in self.states:
                raise ValueError("transition leaves the state set")
            if move not in (LEFT, RIGHT):
                raise ValueError(f"bad move {move!r}")
            self.transitions[(q, a, s)] = (tuple(out), move, q2)
        self.oracle = oracle
        for s in oracle.states:
            for a in input_alphabet.letters:
                if (s, a) not in oracle.transitions:
                    raise ValueError("lookbehind oracle must be total on the input alphabet")


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
    def trace(self):
        return self._engine.trace

    @property
    def visit_counts(self):
        return dict(self._engine.visits)

    @property
    def produced(self):
        """Letters output so far; a step may output several at once."""
        return len(self._engine.out)

    def _produce(self, n):
        """The engine's output list, stepped until it holds n letters.

        Spends at most ``budget`` steps between consecutive letters; raises
        the halt condition, or BudgetExceeded, if the machine stops first.
        A halting step's letters count: they are output before its move fails.
        """
        engine = self._engine
        out = engine.out
        while len(out) < n:
            if self._halt is not None:
                raise self._halt
            produced = len(out)
            spent = 0
            while len(out) == produced:
                if spent >= self.budget:
                    raise BudgetExceeded(engine.step_count)
                try:
                    engine.step()
                except (UndefinedTransition, MovedLeftOfEndmarker) as exc:
                    self._halt = exc
                    if len(out) >= n:
                        return out
                    raise
                spent += 1
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


class _OneWayEngine:
    def __init__(self, t: OneWayTransducer, source: InfiniteWord, visit_window=512, trace_limit=4096):
        self.t = t
        self.source = source
        self.output_alphabet = t.output_alphabet
        self.state = t.initial
        self.pos = 0
        self.step_count = 0
        self.out: list = []
        self.visits: dict = {}
        self.trace: list = []
        self._visit_window = visit_window
        self._trace_limit = trace_limit

    def step(self):
        a = self.source.letter(self.pos)
        hit = self.t.transitions.get((self.state, a))
        if hit is None:
            raise UndefinedTransition(self.pos, self.step_count, (self.state, a))
        out, q2 = hit
        if self.pos < self._visit_window:
            self.visits[self.pos] = self.visits.get(self.pos, 0) + 1
        if len(self.trace) < self._trace_limit:
            self.trace.append((self.state, self.pos, len(self.out)))
        self.out.extend(out)
        self.state = q2
        self.pos += 1
        self.step_count += 1


def _walk(t, source, out, oracle=None):
    """Run t on the tape ENDMARKER·source, one step per resumption.

    Yields (state, pos) before every step, the initial configuration first,
    and appends each step's letters to ``out``. With an ``oracle``, a
    transition also sees the oracle's state after the input prefix left of
    the head. Raises UndefinedTransition when no transition applies, and
    MovedLeftOfEndmarker after the letters of a step that leaves the tape.
    A caller bounds a run with ``islice(_walk(...), n + 1)``: the loop sees
    every configuration of at most n steps, and islice asks for no more,
    so the walk never takes a step past them.
    """
    lookup, read, emit = t.transitions.get, source.letter, out.extend
    state, pos, step = t.initial, 0, 0
    if oracle is not None:
        zstates = [oracle.initial]  # oracle state after reading n input letters
    while True:
        yield state, pos
        a = ENDMARKER if pos == 0 else read(pos - 1)
        if oracle is None:
            key = (state, a)
        else:
            n = pos - 1 if pos else 0
            while len(zstates) <= n:
                k = len(zstates) - 1
                zstates.append(oracle.transitions[(zstates[k], read(k))])
            key = (state, a, zstates[n])
        hit = lookup(key)
        if hit is None:
            raise UndefinedTransition(pos, step, key)
        emitted, move, state = hit
        emit(emitted)
        if move == RIGHT:
            pos += 1
        elif pos == 0:
            raise MovedLeftOfEndmarker(step)
        else:
            pos -= 1
        step += 1


class _TwoWayEngine:
    """Tape is ENDMARKER followed by the input word; head starts on the marker."""

    def __init__(self, t, source: InfiniteWord, visit_window=512, trace_limit=4096, oracle=None):
        self.output_alphabet = t.output_alphabet
        self.step_count = 0
        self.out: list = []
        self.visits: dict = {}
        self.trace: list = []
        self._visit_window = visit_window
        self._trace_limit = trace_limit
        self.oracle = oracle
        self._walk = _walk(t, source, self.out, oracle)
        self.state, self.pos = next(self._walk)

    def step(self):
        pos = self.pos
        if pos < self._visit_window:
            self.visits[pos] = self.visits.get(pos, 0) + 1
        if len(self.trace) < self._trace_limit:
            self.trace.append((self.state, pos, len(self.out)))
        self.state, self.pos = next(self._walk)
        self.step_count += 1


def run_1wft(t: OneWayTransducer, source: InfiniteWord, budget=DEFAULT_BUDGET) -> RunOutcome:
    return RunOutcome(_OneWayEngine(t, source), budget)


def run_2wft(t: TwoWayTransducer, source: InfiniteWord, budget=DEFAULT_BUDGET, visit_window=512) -> RunOutcome:
    return RunOutcome(_TwoWayEngine(t, source, visit_window=visit_window), budget)


def run_2wft_b(t: LookbehindTransducer, source: InfiniteWord, budget=DEFAULT_BUDGET, visit_window=512) -> RunOutcome:
    return RunOutcome(
        _TwoWayEngine(t, source, visit_window=visit_window, oracle=t.oracle), budget
    )


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
    out_alpha = v.alphabet
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


def visit_bound_check(outcome: RunOutcome, window: int) -> int:
    """Maximum recorded head-visit count over tape positions below ``window``."""
    counts = [c for pos, c in outcome.visit_counts.items() if pos < window]
    return max(counts, default=0)


def analyze_on_constant(t: TwoWayTransducer, c, budget=DEFAULT_BUDGET) -> LassoWord:
    """Exact ultimately periodic output of t on c^ω; a finite output raises
    its reason, NonProductive or the halt (see lasso_image)."""
    alphabet = t.input_alphabet
    image = lasso_image(t, LassoWord(FiniteWord((), alphabet), FiniteWord((c,), alphabet)), budget)
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


def _lasso_cycle(step, initial, w: LassoWord):
    """(states, start, length): a one-way run on the lasso w, whose state
    after letter n is ``step(state, n)``, repeats states[start:start +
    length] forever. A one-way run is a two-way run that never turns back,
    so _settle_test finds its first (state, letter residue) repeat."""
    states: list = []  # its length is the index of the next letter
    settled = _settle_test(len(w.u), len(w.v), states)
    state = initial
    while True:
        n = len(states)
        start = settled(state, n)
        states.append(state)
        if start is not None:
            return states, start, n - start
        state = step(state, n)


def _oracle_cycle(oracle, w: LassoWord):
    """_lasso_cycle of a lookbehind oracle on w: from letter ``start`` on,
    letters and oracle states repeat every ``length``."""
    return _lasso_cycle(lambda z, n: oracle.transitions[(z, w.letter(n))], oracle.initial, w)


def _walk_to_image(t, source, out, budget, mark=None):
    """Walk a 2wft or 2wftb until its whole output is known.

    On a lasso u·v^ω the tape (and lookbehind state) repeats every ``per``
    from position ``low`` on: |v| and |u| + 1, or the oracle's cycle. So the
    run halts (raised), repeats one of the configurations below ``mark``
    (default low), or settles (see _settle_test); other inputs get only the
    repeat test. Returns (step, cut, below, handoff): the output is
    out[:cut]·out[cut:]^ω (cut None: no verdict in ``budget`` steps), below
    tells a repeat below mark, handoff is (state, pos, len(out)) after the
    last configuration below mark."""
    oracle, settled = getattr(t, "oracle", None), None
    if isinstance(source, LassoWord):
        if oracle is None:
            low, per = len(source.u) + 1, len(source.v)
        else:
            _states, ell, per = _oracle_cycle(oracle, source)
            low = ell + 1
        settled = _settle_test(low, per, out)
        mark = low if mark is None else mark
    memo: dict = {}  # configuration below mark -> len(out) there
    handoff, was_low = None, False
    for step, cfg in enumerate(islice(_walk(t, source, out, oracle), budget + 1)):
        if was_low:
            handoff = cfg + (len(out),)
        cut = None if settled is None else settled(*cfg)
        was_low = cfg[1] < mark
        if was_low:
            cut = memo.get(cfg)
            if cut is None:
                memo[cfg] = len(out)
        if cut is not None:
            return step, cut, was_low, handoff
    return budget, None, False, handoff


@dataclass(frozen=True)
class FiniteImage:
    """Whole output of a run that ends; ``reason`` is NonProductive or the halt."""

    word: FiniteWord
    reason: Exception


def lasso_image(t, w: LassoWord, budget=DEFAULT_BUDGET):
    """Exact output of a 2wft or 2wftb on the lasso w (see _walk_to_image):
    the canonical LassoWord, or a FiniteImage when the run halts or loops
    without output. Raises BudgetExceeded when neither shows in ``budget`` steps."""
    if not isinstance(w, LassoWord):
        raise AdviceNotLasso("an exact image needs an ultimately periodic input")
    out: list = []
    try:
        _step, cut, _below, _handoff = _walk_to_image(t, w, out, budget)
    except (UndefinedTransition, MovedLeftOfEndmarker) as halt:
        return FiniteImage(FiniteWord(tuple(out), t.output_alphabet), halt)
    if cut is None:
        raise BudgetExceeded(budget, message="the run neither ended nor settled within budget")
    if cut < len(out):
        return _loop_lasso(t, out, cut)
    word = FiniteWord(tuple(out), t.output_alphabet)
    return FiniteImage(word, NonProductive(word.letters))


def remove_endmarker(t: TwoWayTransducer, source: InfiniteWord, budget=DEFAULT_BUDGET, probe=500) -> TwoWayTransducer:
    """Fold everything up to the last endmarker visit into a one-step prologue.

    The run of t on the input must eventually stop visiting the endmarker;
    a machine bouncing on it forever is rejected with the detected loop.
    On a lasso input the walk stops once the run settles (see
    _walk_to_image) and the result must have the original's exact image;
    on other inputs it takes the whole budget and checks ``probe`` letters.
    """
    out: list = []
    step, cut, below, handoff = _walk_to_image(t, source, out, budget, mark=1)
    if below:
        loop = _loop_lasso(t, out, cut) if len(out) > cut else None
        raise BudgetExceeded(step, loop=loop, message="the endmarker is revisited forever")
    if handoff is None:
        raise BudgetExceeded(budget, message="endmarker never read within budget")

    q_target, _pos, emitted_len = handoff
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

    from .analysis import _validate_image, _validate_prefix

    if isinstance(source, LassoWord):
        _validate_image(result, t, source, budget, "endmarker removal")
    else:
        _validate_prefix(run_2wft(result, source), run_2wft(t, source), probe, "endmarker removal")
    return result
