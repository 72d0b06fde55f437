"""Transducer constructions specific to words with unboundedly growing 0-gaps.

The key input here is the word 10100100010000… whose 0-blocks grow by one:
two-way machines on it can be reorganized so that the head only turns at the
1s, and a turn-free machine can then be replayed one way on a version of the
word whose blocks are written several times each. All constructions are
input-relative and are validated by letterwise output comparison against
the original machine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import islice

from .analysis import _validate_prefix
from .errors import (
    InvariantViolation,
    MovedLeftOfEndmarker,
    NoWindowBound,
    UndefinedTransition,
    UnstableClassification,
)
from .transducers import (
    DEFAULT_BUDGET,
    ENDMARKER,
    LEFT,
    RIGHT,
    OneWayTransducer,
    TwoWayTransducer,
    _configurations,
    compose_1wft,
    run_1wft,
    run_2wft,
)
from .words import BINARY, FiniteWord, _primitive_root_length, pi_word


def pi_k_expander_1wft(k: int, strict: bool = False) -> OneWayTransducer:
    """One-way machine mapping the block word to its k-fold block repetition.

    Reading block number m = k*n + j it emits one 0 per k zeros read and
    swallows the j leftovers, so each group of k consecutive input blocks
    becomes k copies of the same block. In strict mode the machine is
    undefined when the leftover count contradicts the expected structure.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    states = {("e", j, c) for j in range(k) for c in range(k)}
    tr = {}
    for j in range(k):
        for c in range(k):
            c2 = c + 1
            if c2 == k:
                tr[(("e", j, c), "0")] = (("0",), ("e", j, 0))
            else:
                tr[(("e", j, c), "0")] = ((), ("e", j, c2))
            if c == j or not strict:
                tr[(("e", j, c), "1")] = (("1",), ("e", (j + 1) % k, 0))
    return OneWayTransducer(states, ("e", 0, 0), BINARY, BINARY, tr)


def direction_partition(t: TwoWayTransducer):
    """Partition states into right-movers and left-movers, or None.

    A state's class must match every move entering it, and a state reading
    '0' must keep moving in its own class's direction.
    """
    cls: dict = {}
    for (_, _a), (_out, move, q2) in t.transitions.items():
        if cls.setdefault(q2, move) != move:
            return None
    for (q, a), (_out, move, _q2) in t.transitions.items():
        if a == "0" and cls.setdefault(q, move) != move:
            return None
    for q in t.states:
        cls.setdefault(q, RIGHT)  # no move enters q and q reads no '0'
    return cls


@dataclass
class _Return:
    exit_state: object
    output: tuple
    depth: int


@dataclass
class _Cross:
    states: list  # first-arrival state per cell, ramp then one period
    chunks: list  # output emitted between consecutive first arrivals
    ramp: int
    drift: int


def _classify_excursion(t: TwoWayTransducer, entry_state, side: str):
    """Behavior of an excursion into an all-0 block entered from one side.

    Returns _Return (comes back out the entry side), _Cross (drifts through:
    first-arrival states and output chunks per cell, eventually periodic),
    or None (parks inside forever). Every cell reads '0', so the run has
    settled once it repeats a state without having been shallower than that
    state's earlier depth in between: a stack of those (depth, state), one
    per state, ends the walk within |Q| cells of depth. A repeat at the same
    depth parks, and one deeper repeats its stretch deeper forever, so no
    return comes after it and the cells up to ``want`` come in time. So
    depths stay below n = |Q|, the walk settles by step 2n², and the want
    cells take n + 2 more stretches at most: 2n²·(n + 3) steps bound it.
    """
    inward = RIGHT if side == "L" else LEFT
    bound = 2 * len(t.states) ** 2 * (len(t.states) + 3)
    state, depth, steps = entry_state, 0, 0
    out: list = []
    stack: list = []  # (depth, state); the head has not been shallower since, depths nondecreasing
    pushed: dict = {}  # state on the stack -> its depth there
    arrivals = [(entry_state, 0)]  # (state, len(out)) at the first arrival in each cell
    want = None  # cells to record once the run has settled
    while want is None or len(arrivals) <= want:
        if want is None:
            while stack and stack[-1][0] > depth:
                del pushed[stack.pop()[1]]
            if state in pushed:
                drift = depth - pushed[state]
                if drift == 0:
                    return None
                ramp = len(arrivals)
                want = ramp + 2 * drift
                continue
            stack.append((depth, state))
            pushed[state] = depth
        if steps == bound:
            raise InvariantViolation(f"an excursion walk passed its bound of {bound} steps")
        steps += 1
        hit = t.transitions.get((state, "0"))
        if hit is None:
            return None  # the original would die here; fold leaves it undefined
        emitted, move, state = hit
        out.extend(emitted)
        depth += 1 if move == inward else -1
        if depth == -1:
            return _Return(state, tuple(out), len(arrivals) - 1)
        if depth == len(arrivals):
            arrivals.append((state, len(out)))

    states = [q for q, _outlen in arrivals[:want]]
    chunks = [tuple(out[a:b]) for (_q, a), (_q2, b) in zip(arrivals, arrivals[1:want + 1])]
    for m in range(ramp, ramp + drift):
        if states[m + drift] != states[m] or chunks[m + drift] != chunks[m]:
            raise UnstableClassification("excursion pattern not stable across cells")
    return _Cross(states[: ramp + drift], chunks[: ramp + drift], ramp, drift)


def normalize_directions_on_pi(t: TwoWayTransducer, probe_range: int = 300) -> TwoWayTransducer:
    """Rebuild t so that its head changes direction only on 1s.

    Excursions into 0-blocks are classified once per entry state: bounded
    returns are folded into the transition at the bounding 1, and drifting
    crossings become cell-by-cell walks with one state per arrival phase.
    A hardcoded prologue replays everything the original run does before it
    last enters cell w, the first cell of the first block longer than every
    bounded return; the rebuilt machine takes over there, on the assumption
    that the run never comes back left of w, which the validation checks.

    The run is walked until the head reaches ``stop_pos``, right of every
    possible w. Left of it there are only |Q|·stop_pos configurations, so
    a run that has not reached it within that many steps repeats one and
    loops forever. Each left move is compared with one saved configuration,
    replaced after 1, 2, 4, ... left moves (Brent); a loop moves left, so
    it is refused once the saved configuration lies on it and the gap has
    outgrown it, and at the latest after those |Q|·stop_pos steps.

    Refuses with UnstableClassification a run that halts before
    ``stop_pos`` or never reaches it, an excursion that parks inside a
    block or a bounce at a block end that never stops, and a run that does
    not cross the block after the prologue. The result is validated on
    ``probe_range`` output letters: ValidationFailed if it differs, and
    UnstableClassification if the original emits fewer. Callers must only
    use machines whose output on the block word is not ultimately periodic.

    The validation compares the result's run with the letters the walk
    above put out, stepped on past its end until there are ``probe_range``
    of them or it halts, while it takes fewer than DEFAULT_BUDGET steps: no
    stretch of so short a walk holds a budget's worth of silent steps, so a
    fresh run_2wft read of the original gives those letters too, or halts
    where the walk does, and the original is not run again. Otherwise it
    runs afresh.
    """
    if direction_partition(t) is not None:
        return t
    pi = pi_word(1)
    n_states = len(t.states)
    m_bound = n_states + n_states * n_states + 1
    k_upper = m_bound + 1
    w_upper = k_upper * (k_upper + 1) // 2 + 1
    stop_pos = w_upper + m_bound + 4
    out: list = []
    reached: dict = {}  # cell -> (state, len(out)) at the last right move into it
    last = pos = 0
    saved_state, saved_pos, lap, span = None, -1, 0, 1  # Brent's checkpoint
    walk = _configurations(t, pi, out)
    try:
        for step, (state, pos) in enumerate(islice(walk, n_states * stop_pos + 1)):
            if pos > last:
                reached[pos] = (state, len(out))
                if pos == stop_pos:
                    break
            elif pos == saved_pos and state == saved_state:
                break
            else:
                lap += 1
                if lap == span:
                    saved_state, saved_pos, lap, span = state, pos, 0, 2 * span
            last = pos
        if pos != stop_pos:
            raise UnstableClassification("head never leaves the small-block region")
    except (UndefinedTransition, MovedLeftOfEndmarker) as exc:
        raise UnstableClassification(f"the run halts on the block word: {exc}") from exc

    classifications: dict = {}

    def classify(q, side):
        key = (q, side)
        if key not in classifications:
            classifications[key] = _classify_excursion(t, q, side)
        return classifications[key]

    @cache
    def fold(q):
        acc: list = []
        state = q
        seen = set()
        while True:
            if state in seen:
                raise UnstableClassification("machine bounces forever at a block end")
            seen.add(state)
            hit = t.transitions.get((state, "1"))
            if hit is None:
                return None
            emitted, move, q2 = hit
            acc.extend(emitted)
            side = "L" if move == RIGHT else "R"
            cls = classify(q2, side)
            if isinstance(cls, _Return):
                acc.extend(cls.output)
                state = cls.exit_state
                continue
            if isinstance(cls, _Cross):
                return tuple(acc), move, (q2, side)
            raise UnstableClassification("machine parks inside a block")

    # The prologue cutoff depends on which bounded excursions end up used.
    # The states on _classify_excursion's stack of (depth, state) are
    # distinct, so a return reaches depth < |Q|: n_min grows each round and
    # stays <= |Q|, and w <= w_upper < stop_pos, so the walk has reached w.
    n_min = 1
    while True:
        w = n_min * (n_min + 1) // 2 + 1
        q_h, prologue_len = reached[w]
        entry = classify(q_h, "L")
        if not isinstance(entry, _Cross):
            raise UnstableClassification("run does not cross after the prologue")
        families = {(q_h, "L")}
        frontier = [(q_h, "L")]
        while frontier:
            fam = frontier.pop()
            cls = classify(*fam)
            for s_m in cls.states:
                f = fold(s_m)
                if f is not None and f[2] not in families:
                    families.add(f[2])
                    frontier.append(f[2])
        depth_need = 1
        for cls in classifications.values():
            if isinstance(cls, _Return):
                depth_need = max(depth_need, cls.depth + 1)
        if depth_need <= n_min:
            break
        n_min = depth_need

    prologue_out = tuple(out[:prologue_len])
    tr: dict = {}
    for i in range(w):
        src = ("p", i)
        dst = ("p", i + 1) if i + 1 < w else ("x", q_h, "L", 0)
        letter = ENDMARKER if i == 0 else pi.letter(i - 1)
        tr[(src, letter)] = (prologue_out if i == 0 else (), RIGHT, dst)

    for fam in families:
        cls = classify(*fam)
        entry_state, side = fam
        move = RIGHT if side == "L" else LEFT
        width = cls.ramp + cls.drift
        for m in range(width):
            src = ("x", entry_state, side, m)
            nm = m + 1 if m + 1 < width else cls.ramp
            tr[(src, "0")] = (cls.chunks[m], move, ("x", entry_state, side, nm))
            f = fold(cls.states[m])
            if f is not None:
                emitted, fmove, (q2, side2) = f
                tr[(src, "1")] = (emitted, fmove, ("x", q2, side2, 0))

    states = {src for (src, _a) in tr} | {q2 for (_o, _m, q2) in tr.values()}
    result = TwoWayTransducer(states, ("p", 0), t.input_alphabet, t.output_alphabet, tr)

    try:
        while len(out) < probe_range and step < DEFAULT_BUDGET:
            next(walk)
            step += 1
    except (UndefinedTransition, MovedLeftOfEndmarker):
        pass  # a fresh read halts here too, with these letters
    walked = step < DEFAULT_BUDGET
    original = FiniteWord._known(tuple(out), t.output_alphabet) if walked else run_2wft(t, pi)
    _validate_prefix(run_2wft(result, pi), original, probe_range, "direction normalization")
    return result


@dataclass(frozen=True)
class _Traversal:
    delta: int  # crossed block index minus the segment index
    entry: object
    arrival: object


@dataclass(frozen=True)
class _Segment:
    sigma: object  # state at the final visit of the segment's left 1
    traversals: tuple


@dataclass
class PiOneWayResult:
    transducer: OneWayTransducer  # reads the block word directly
    over_copies: OneWayTransducer  # reads the k-fold repetition
    window: int
    copies: int
    steps: int  # two-way steps walked until the segment pattern provably repeated


def _zero_period(t: TwoWayTransducer) -> int:
    """lcm of the cycle lengths of the '0'-successor map.

    A block of length L >= |Q| is crossed into a state fixed by the entry
    state and L modulo this number.
    """
    zero_next = {q: t.transitions[(q, "0")][2] for q in t.states if (q, "0") in t.transitions}
    period_base = 1
    for q in zero_next:
        seen: dict = {}  # state -> '0'-steps from q to it
        p = q
        while p in zero_next and p not in seen:  # at most |Q| steps
            seen[p] = len(seen)
            p = zero_next[p]
        if p in seen:  # else the '0'-steps from q reach a state without one
            period_base = math.lcm(period_base, len(seen) - seen[p])
    return period_base


def _onepos(j):
    """Tape position of the 1 ending block j of the block word (0 is the endmarker)."""
    return (j * j + 3 * j) // 2 + 1


def _walk_to_repeat(t: TwoWayTransducer, period_base: int):
    """Walk t on the block word until its run provably repeats at the 1s.

    Returns (visits, out, steps, n1, n2). ``visits`` lists (j, state,
    len(out)) for each visit of 1 number j, in run order, up to the proving
    one at step ``steps``: 1 number n2 in the same state as 1 number n1 at an
    earlier visit, with n1 >= |Q|, n2 - n1 ≡ 0 (mod period_base) and the head
    strictly right of 1 number n1 in between. Blocks right of 1 number n1
    are at least |Q| long, so each is crossed into a state fixed by its
    length modulo period_base, and the run from n2 on repeats the stretch
    from n1 shifted by n2 - n1 forever: both visits are last visits, and
    every 1 below n2 has had its last visit among ``visits``.

    Stacks the visits at 1s the head has stayed strictly right of since, at
    most one per (state, j mod period_base), as _walk_to_image does for
    lassos. Refuses a run that halts or that revisits a 1 in the same state
    (it loops there forever). The stack holds the last visit of each 1 from
    |Q| to the rightmost 1 reached, so the head never passes 1 number
    M = |Q|·(1 + period_base); each (state, 1) pair comes once, and a block
    crossing takes at most M + 1 steps. So |Q|·(M + 2)² steps suffice, and
    a longer walk raises InvariantViolation.
    """
    low = len(t.states)
    bound = low * (low * (1 + period_base) + 2) ** 2
    out: list = []
    visits: list = []
    seen: set = set()
    stack: list = []  # (j, key), j increasing
    pushed: dict = {}  # key -> j
    ones: dict = {}  # tape position -> j, for the 1s the head has reached
    next_one = _onepos(0)
    try:
        for step, (state, pos) in enumerate(islice(_configurations(t, pi_word(1), out), bound + 1)):
            if pos == next_one:
                ones[pos] = len(ones)
                next_one = _onepos(len(ones))
            j = ones.get(pos)
            if j is None:
                continue
            if (state, j) in seen:
                raise UnstableClassification("the run loops between the same 1s forever")
            seen.add((state, j))
            visits.append((j, state, len(out)))
            while stack and stack[-1][0] >= j:
                del pushed[stack.pop()[1]]
            if j >= low:
                key = (state, j % period_base)
                if key in pushed:
                    return visits, out, step, pushed[key], j
                stack.append((j, key))
                pushed[key] = j
    except (UndefinedTransition, MovedLeftOfEndmarker) as exc:
        raise UnstableClassification(f"the run halts on the block word: {exc}") from exc
    raise InvariantViolation(f"a block-word walk passed its bound of {bound} steps")


def one_way_simulation_on_pi(t: TwoWayTransducer, c_max: int = 4, probe_range: int = 300) -> PiOneWayResult:
    """Replay a turn-free two-way run one way over repeated blocks.

    The run is cut into segments between last visits of consecutive 1s.
    Each segment's block traversals are mapped onto consecutive copies
    inside the repeated super-block, with the few extra cells of longer
    blocks simulated in finite control. Composing with the block expander
    gives a one-way machine over the original word.

    The walk stops as soon as the segment sequence provably repeats: at 1
    number n2 in the state the run had at 1 number n1 >= |Q|, with n2 - n1
    a multiple of the period of the '0'-steps and the head strictly right
    of 1 number n1 in between (the block form of the crossing-sequence
    argument; see _walk_to_repeat). Every segment is then known exactly,
    1…n1-1 as a prefix and n1…n2-1 as a cycle, and the programs use the
    least preperiod and period of that sequence. The repeat comes within
    |Q|·(M + 2)² steps, M = |Q|·(1 + period_base), so no step budget applies.

    Validation runs ``over_copies`` on pi_word(copies), not the composed
    machine on the block word, which reads about copies² zeros per block it
    simulates; the original is run once more from step 0 (the walk above is
    a few dozen of its steps). This checks ``transducer`` as well: it is
    compose_1wft(over_copies, pi_k_expander_1wft(copies)), compose_1wft
    equals running the two machines in turn (a property test checks it),
    and the expander maps the block word to pi_word(k) for every k a
    simulation can ask for (a test checks k up to c_max·|Q| for the machines
    the tests reach). The expander emits at most one letter per step, so
    the composed machine never stops inside an emitted chunk.
    """
    if direction_partition(t) is None:
        raise InvariantViolation("input machine must be direction-normalized first")
    pi = pi_word(1)
    n_states = len(t.states)
    period_base = _zero_period(t)
    visits, out, steps, n1, n2 = _walk_to_repeat(t, period_base)
    lastvis = {j: i for i, (j, _state, _outlen) in enumerate(visits)}
    silent = visits[lastvis[n1]][2] == len(out)  # the proven cycle emits nothing: out is all

    def segment(n) -> _Segment:
        a, b = lastvis[n], lastvis[n + 1]
        travs = []
        for (j1, q1, _), (j2, q2, _) in zip(visits[a:b], visits[a + 1: b + 1]):
            if abs(j1 - j2) != 1:
                raise UnstableClassification("partial block traversal observed")
            delta = max(j1, j2) - n
            if delta < 1:
                raise UnstableClassification("segment crosses into sealed territory")
            travs.append(_Traversal(delta, t.transitions[(q1, "1")][2], q2))
        return _Segment(visits[a][1], tuple(travs))

    segments = [None] + [segment(n) for n in range(1, n2)]
    c = max(tr.delta for seg in segments[1:] for tr in seg.traversals)
    if c > c_max:
        raise NoWindowBound(f"segments need a window of {c} blocks, cap is {c_max}")

    # least preperiod and period (a multiple of period_base) of the
    # sequence segments[1:n1] + segments[n1:n2]^ω
    ids: dict = {}
    code = [ids.setdefault(seg, len(ids)) for seg in segments]
    root = _primitive_root_length(code[n1:n2])
    period = root * period_base // math.gcd(root, period_base)
    while n1 > 1 and code[n1 - 1] == code[n1 - 1 + period]:
        n1 -= 1
    programs = segments[n1: n1 + period]

    copies = c * n_states
    if any(len(p.traversals) > copies for p in programs):
        raise NoWindowBound("a segment has more traversals than available copies")

    _j, sigma, outlen = visits[lastvis[n1]]
    pre_out = tuple(out[: outlen + len(t.transitions[(sigma, "1")][0])])
    pre_ones = n1 * copies

    def advance(q, times):
        emitted = []
        for _ in range(times):
            hit = t.transitions.get((q, "0"))
            if hit is None:
                return None
            chunk, _move, q = hit
            emitted.extend(chunk)
        return tuple(emitted), q

    # traversal-entry states are recomputed at build time from the machine
    def run_state(phi, i):
        return ("run", phi, i, programs[phi].traversals[i].entry)

    tr: dict = {}
    start = ("pre", 0)
    for i in range(pre_ones):  # n1 >= 1 and copies >= 1: the last '1' starts the run
        tr[(("pre", i), "0")] = ((), ("pre", i))
        nxt = run_state(0, 0) if i + 1 == pre_ones else ("pre", i + 1)
        tr[(("pre", i), "1")] = (pre_out if i == 0 else (), nxt)

    frontier = [run_state(0, 0)]
    built = set(frontier)
    while frontier:
        st = frontier.pop()
        kind = st[0]
        targets = []
        if kind == "run":
            _, phi, i, q = st
            hit0 = t.transitions.get((q, "0"))
            if hit0 is not None:
                nxt = ("run", phi, i, hit0[2])
                tr[(st, "0")] = (hit0[0], nxt)
                targets.append(nxt)
            prog = programs[phi]
            extra = prog.traversals[i].delta
            adv = advance(q, extra)
            if adv is not None:
                virt, q_arr = adv
                hit1 = t.transitions.get((q_arr, "1"))
                if hit1 is not None:
                    emitted = virt + hit1[0]
                    q2 = hit1[2]
                    if i + 1 < len(prog.traversals):
                        nxt = ("run", phi, i + 1, q2)
                    else:
                        phi2 = (phi + 1) % period
                        skip = copies - len(prog.traversals)
                        if skip == 0:
                            nxt = ("run", phi2, 0, q2)
                        else:
                            nxt = ("skip", phi2, skip, q2)
                    tr[(st, "1")] = (emitted, nxt)
                    targets.append(nxt)
        else:  # skip
            _, phi, k, pending = st
            tr[(st, "0")] = ((), st)
            nxt = ("run", phi, 0, pending) if k == 1 else ("skip", phi, k - 1, pending)
            tr[(st, "1")] = ((), nxt)
            targets.append(nxt)
        for nxt in targets:
            if nxt not in built:
                built.add(nxt)
                frontier.append(nxt)

    states = {src for (src, _a) in tr} | {v[1] for v in tr.values()}
    sim_machine = OneWayTransducer(states, start, BINARY, t.output_alphabet, tr)
    expander = pi_k_expander_1wft(copies)
    composed = compose_1wft(sim_machine, expander)

    if silent and len(out) < probe_range:
        raise UnstableClassification("original output too short to validate")
    _validate_prefix(run_1wft(sim_machine, pi_word(copies)), run_2wft(t, pi), probe_range, "one-way replay")
    return PiOneWayResult(composed, sim_machine, c, copies, steps)
