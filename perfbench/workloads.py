"""Seeded op lists for the three workloads.

An op list is a pure function of (workload, seed, rounds): the same ops,
in the same number and order, on every commit. Each round holds every op
kind of the workload at fixed sizes n and 2n, so each kind keeps its share
of the list and the tail percentiles stay inside one kind. The seed only
chooses letters, machine tables and the order of the ops.

Shared inputs (machines, words, automata) are built here, during set-up.
Words that cache letters (block mirrors, Mealy outputs, run outputs read
through ``.word``) are built inside ``Op.run``, so no op inherits another
op's cache. ``Op.check`` compares an op's output with a reference from
``refs`` and runs outside the timed region.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import advicebench as ab
from advicebench import cli, corpus, documents, transducers

import refs

@dataclass
class Op:
    kind: str
    size: str  # "n" or "2n"
    desc: str  # the generated inputs, for the determinism self-test
    letters: int  # letters the op compares or decides, for letters_per_s
    run: Callable[[], object]
    check: Callable[[object], tuple]  # output -> (summary, cause or None)


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _letters(source, n):
    """Letters a package source has produced, read after the op has ended."""
    if isinstance(source, ab.RunOutcome):
        return source.try_letters(n)[0]
    return [source.letter(i) for i in range(n)]


def _text(letters) -> str:
    return "".join(str(a) for a in letters)


def _verdict_check(verdict, source, n, want: str):
    got = _text(_letters(source, n))
    if verdict != ab.Equal(n):
        return got, f"prefix_equiv returned {verdict}"
    if got != want:
        return got, "output letters differ from the reference"
    return got, None


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _roundtrip(machine):
    doc = documents.machine_to_doc(machine)
    return documents.machine_from_doc(json.loads(documents.dumps(doc)))


def _rand(rng, alphabet: str, n: int) -> str:
    return "".join(rng.choices(alphabet, k=n))


def _literal(u: str, v: str) -> str:
    return f"{u}·({v})^ω" if u else f"({v})^ω"


# ------------------------------------------------------------- stream

L_BLOCK = 4000  # letters per '#'-block in the mirror ops (n); 2n doubles it
N_LETTERS = 2000  # half the letters pulled by the expander and delay ops (n)


#: Ops per round of each kind at size n and 2n. The shares put the median
#: in the middle of the mirror_sst/n ops and the 90th percentile in the
#: ~150 ms group (mirror_sst/2n, cli_compare/2n, mu_chain/2n), away from any
#: boundary between two groups of different speed.
STREAM_ROUND = {
    "mirror_2wft": (2, 2), "mirror_2wftb": (1, 3), "mirror_sst": (4, 2),
    "pi_expander": (1, 1), "mu_chain": (2, 1), "delay_mealy": (1, 1),
    "cli_run": (1, 1), "cli_compare": (2, 1),
}
MU_LETTERS = 1600  # letters read through RunOutcome.word by the mu ops (n)


def _stream_ops(rng, rounds):
    gamma = ab.Alphabet.of("ab")
    mirror_2wft = ab.mirror_blocks_2wft(gamma)
    mirror_sst = corpus.mirror_sst(gamma)
    mirror_2wftb = ab.compile_sst_to_2wftb(mirror_sst)
    engines = {
        "mirror_2wft": lambda w: ab.run_2wft(mirror_2wft, w),
        "mirror_sst": lambda w: ab.run_sst(mirror_sst, w),
        "mirror_2wftb": lambda w: ab.run_2wft_b(mirror_2wftb, w),
    }
    mu_fwd, mu_bwd = ab.mu_transducers(2, gamma)
    ops = []
    for _ in range(rounds):
        for index, (size, mult) in enumerate((("n", 1), ("2n", 2))):
            block = L_BLOCK * mult
            n = N_LETTERS * mult
            for kind, counts in STREAM_ROUND.items():
                for _ in range(counts[index]):
                    if kind in engines:
                        u = _rand(rng, "ab", block) + "#"
                        v = _rand(rng, "ab", block) + "#"
                        ops.append(_mirror_op(kind, size, engines[kind], u, v, block))
                    elif kind == "pi_expander":
                        ops.append(_expander_op(size, rng.choice((2, 3)), 2 * n))
                    elif kind == "mu_chain":
                        u, v = _rand(rng, "ab", 3), _rand(rng, "ab", 5) + "ab"
                        ops.append(_mu_op(size, mu_fwd, mu_bwd, u, v, MU_LETTERS * mult))
                    elif kind == "delay_mealy":
                        u, v = _rand(rng, "abc", 3), _rand(rng, "abc", 6) + "c"
                        ops.append(_delay_op(size, u, v, 2 * n))
                    elif kind == "cli_run":
                        ops.append(_cli_run_op(size, _rand(rng, "ab", block) + "#", block))
                    else:
                        ops.append(_cli_compare_op(size, _rand(rng, "ab", block) + "#", block))
    return ops


def _mirror_op(kind, size, start, u, v, n):
    def run():
        w = ab.lasso(u, v)
        out = start(w)
        return ab.prefix_equiv(out, ab.block_mirror(w), n), out

    def check(result):
        verdict, out = result
        return _verdict_check(verdict, out, n, refs.mirror_prefix(u, v, n))

    return Op(kind, size, f"{kind} {u} {v} {n}", n, run, check)


def _expander_op(size, k, n):
    def run():
        out = ab.run_1wft(ab.pi_k_expander_1wft(k), ab.pi_word(1))
        return ab.prefix_equiv(out, ab.pi_word(k), n), out

    def check(result):
        verdict, out = result
        return _verdict_check(verdict, out, n, refs.pi_prefix(k, n))

    return Op("pi_expander", size, f"pi_expander {k} {n}", n, run, check)


def _mu_op(size, fwd, bwd, u, v, n):
    def run():
        w = ab.lasso(u, v)
        out = ab.run_1wft(bwd, ab.run_1wft(fwd, w).word)
        return ab.prefix_equiv(out, w, n), out

    def check(result):
        verdict, out = result
        return _verdict_check(verdict, out, n, refs.lasso_prefix(u, v, n))

    return Op("mu_chain", size, f"mu_chain {u} {v} {n}", n, run, check)


def _delay_op(size, u, v, n):
    w = ab.lasso(u, v)
    machine = ab.delay_mealy(w.letter(0), w.alphabet)

    def run():
        word = ab.lasso(u, v)
        out = ab.run_mealy(machine, ab.shift(word, 1))
        return ab.prefix_equiv(out, word, n), out

    def check(result):
        verdict, out = result
        return _verdict_check(verdict, out, n, refs.lasso_prefix(u, v, n))

    return Op("delay_mealy", size, f"delay_mealy {u} {v} {n}", n, run, check)


def _cli_run_op(size, v, n):
    argv = ["run", "mirror2wft", _literal("", v), "-n", str(n)]

    def run():
        return _cli(argv)

    def check(result):
        code, text = result
        if code != 0:
            return text, f"exit code {code}"
        if text != refs.mirror_prefix("", v, n) + "\n":
            return text, "printed letters differ from the reference"
        return text, None

    return Op("cli_run", size, " ".join(argv), n, run, check)


def _cli_compare_op(size, v, n):
    argv = ["compare", "mirror2wft", "mirror_sst", "--word", _literal("", v), "-n", str(n)]

    def run():
        return _cli(argv)

    def check(result):
        code, text = result
        # both machines reverse every block, so their runs agree letter for letter
        if code != 0 or text != f"Equal(length={n})\n":
            return text, f"exit code {code}, printed {text.strip()!r}"
        return text, None

    return Op("cli_compare", size, " ".join(argv), n, run, check)


# ------------------------------------------------------------- construct

CHECK_LETTERS = 1000  # letters compared per construction; above every probe used


def _construct_ops(rng, rounds):
    """43 ops per round. The shares put the median in the middle of the
    2-4 ms ops (normalize_directions_on_pi/n, compile_unlookbehind on
    identity_sst, cli sst2wftb) and the 90th percentile inside the
    remove_endmarker ops, each away from the edge of its group."""
    pi_machines = {
        "bounce_probe": corpus.bounce_probe_2wft(),
        "stutter_cross": corpus.stutter_cross_2wft(),
    }
    one_way_inputs = [
        ("normalized bounce_probe", ab.normalize_directions_on_pi(pi_machines["bounce_probe"])),
        ("normalized stutter_cross", ab.normalize_directions_on_pi(pi_machines["stutter_cross"])),
        ("revisit_probe", corpus.revisit_probe_2wft()),
    ]
    ssts = {
        "mirror_sst": (corpus.mirror_sst(), "ab", True),
        "identity_sst": (corpus.identity_sst(), "01", False),
        "interleave_sst": (corpus.interleave_sst(), "ab", True),
    }
    endmarker_machines = {
        "mirror2wft": (ab.mirror_blocks_2wft(ab.Alphabet.of("ab")), True),
        "endmarker_toucher": (corpus.endmarker_toucher_2wft(), False),
        "drifter": (corpus.drifter_2wft(), False),
    }
    ops = []
    for r in range(rounds):
        for size, mult in (("n", 1), ("2n", 2)):
            for name, machine in pi_machines.items():
                ops.append(_normalize_op(size, name, machine, 300 * mult))
            for name, (sst, letters, blocks) in ssts.items():
                for _ in range(2):
                    body = _rand(rng, letters, 8 * mult)
                    v = body + "#" if blocks else body
                    ops.append(_unlookbehind_op(size, name, sst, _rand(rng, letters, 2), v))
            for _ in range(3):
                ops.append(_simplify_op(size, "a", _rand(rng, "bc", 6 * mult) + "bc"))
            for name, (machine, blocks) in endmarker_machines.items():
                if blocks:
                    u, v = _rand(rng, "ab", 20 * mult) + "#", _rand(rng, "ab", 20 * mult) + "#"
                else:
                    u, v = _rand(rng, "ab", 3 * mult), _rand(rng, "ab", 5 * mult)
                ops.append(_endmarker_op(size, name, machine, u, v))
            for _ in range(3):
                ops.append(_compose_op(size, rng, 4 * mult))
            for _ in range(3):
                ops.append(_extract_op(size, rng, 6 * mult))
        name, machine = one_way_inputs[r % len(one_way_inputs)]
        ops.append(_one_way_op(name, machine))
        ops.append(_cli_convert_op(["convert", "sst2wftb", "interleave_sst"],
                                   ssts["interleave_sst"][0], ab.lasso("", "abab#ba#")))
        ops.append(_cli_convert_op(["convert", "normalize-pi", "stutter_cross"],
                                   pi_machines["stutter_cross"], ab.pi_word(1)))
    return ops


def _run_any(machine, w):
    if isinstance(machine, ab.OneWayTransducer):
        return ab.run_1wft(machine, w)
    if isinstance(machine, ab.LookbehindTransducer):
        return ab.run_2wft_b(machine, w)
    if isinstance(machine, ab.TwoWayTransducer):
        return ab.run_2wft(machine, w)
    return ab.run_sst(machine, w)


def _same_runs(built, original, w, n=CHECK_LETTERS):
    """Check a constructed machine against the machine it came from.

    Lengths count as well as letters: a result that halts early is
    Inconclusive, not Equal, and fails.
    """
    run = _run_any(built, w)
    verdict = ab.prefix_equiv(run, _run_any(original, w), n)
    summary = _text(run.try_letters(n)[0])
    if verdict != ab.Equal(n):
        return summary, f"built machine against the original: {verdict}"
    return summary, None


def _normalize_op(size, name, machine, probe):
    def run():
        return _roundtrip(ab.normalize_directions_on_pi(machine, probe_range=probe))

    def check(built):
        if ab.direction_partition(built) is None:
            return "", "result still turns inside 0-blocks"
        return _same_runs(built, machine, ab.pi_word(1), 2 * probe)

    return Op("normalize_directions_on_pi", size, f"normalize {name} {probe}", 2 * probe, run, check)


def _one_way_op(name, machine):
    def run():
        return _roundtrip(ab.one_way_simulation_on_pi(machine).transducer)

    def check(built):
        return _same_runs(built, machine, ab.pi_word(1))

    return Op("one_way_simulation_on_pi", "n", f"one_way {name}", CHECK_LETTERS, run, check)


def _unlookbehind_op(size, name, sst, u, v):
    w = ab.lasso(u, v)

    def run():
        return _roundtrip(ab.eliminate_lookbehind_lasso(ab.compile_sst_to_2wftb(sst), w))

    def check(built):
        return _same_runs(built, sst, w)

    return Op("compile_unlookbehind", size, f"unlookbehind {name} {u} {v}", CHECK_LETTERS, run, check)


def _simplify_op(size, u, v):
    sst = corpus.two_phase_sst()
    w = ab.lasso(u, v, ab.Alphabet.of("abc"))

    def run():
        return _roundtrip(ab.simplify_to_simple_sst(sst, w))

    def check(built):
        return _same_runs(built, sst, w)

    return Op("simplify_to_simple_sst", size, f"simplify {u} {v}", CHECK_LETTERS, run, check)


def _endmarker_op(size, name, machine, u, v):
    w = ab.lasso(u, v)

    def run():
        return _roundtrip(ab.remove_endmarker(machine, w))

    def check(built):
        return _same_runs(built, machine, w)

    return Op("remove_endmarker", size, f"remove_endmarker {name} {u} {v}", CHECK_LETTERS, run, check)


def _random_mealy(rng, states, letters):
    table = {(q, a): (rng.choice(letters), rng.randrange(states))
             for q in range(states) for a in letters}
    machine = ab.MealyMachine(range(states), 0, ab.Alphabet.of(letters), ab.Alphabet.of(letters),
                              table)
    return machine, table


def _extract_op(size, rng, states):
    machine, table = _random_mealy(rng, states, "abc")
    u, v = _rand(rng, "abc", 2), _rand(rng, "abc", 5)
    advice = ab.lasso(u, v, ab.Alphabet.of("abc"))
    dfa = ab.pref_graph_dfa(machine)

    def run():
        return _roundtrip(ab.extract_mealy_from_pref_dfa(dfa, advice))

    def check(built):
        want = refs.lasso_prefix(*refs.mealy_image(table, 0, u, v), CHECK_LETTERS)
        got = _text(_letters(ab.run_mealy(built, advice), CHECK_LETTERS))
        return got, None if got == want else "extracted machine differs from the original"

    return Op("extract_mealy_from_pref_dfa", size, f"extract {sorted(table.items())} {u} {v}",
              CHECK_LETTERS, run, check)


def _random_1wft(rng, states, inputs, outputs):
    table = {(q, a): (tuple(rng.choice(outputs) for _ in range(rng.randint(0, 2))),
                      rng.randrange(states))
             for q in range(states) for a in inputs}
    machine = ab.OneWayTransducer(range(states), 0, ab.Alphabet.of(inputs),
                                  ab.Alphabet.of(outputs), table)
    return machine, table


def _compose_op(size, rng, states):
    inner, inner_table = _random_1wft(rng, states, "ab", "ab")
    outer, outer_table = _random_1wft(rng, states, "ab", "ab")
    u, v = _rand(rng, "ab", 2), _rand(rng, "ab", 5)
    w = ab.lasso(u, v, ab.Alphabet.of("ab"))
    desc = f"compose {sorted(inner_table.items())} {sorted(outer_table.items())} {u} {v}"
    n = 300

    def run():
        return _roundtrip(ab.compose_1wft(outer, inner))

    def check(built):
        got, _halt = ab.run_1wft(built, w).try_letters(n)
        want = refs.run_in_sequence([inner_table, outer_table], u, v, n, transducers.DEFAULT_BUDGET)
        summary = _text(got)
        if got != want:
            return summary, (f"composition differs from running the two machines in sequence "
                             f"({len(got)} vs {len(want)} letters)")
        return summary, None

    return Op("compose_1wft", size, desc, n, run, check)


def _cli_convert_op(argv, original, w):
    def run():
        return _cli(argv)

    def check(result):
        code, text = result
        if code != 0:
            return text, f"exit code {code}"
        built = documents.machine_from_doc(json.loads(text))
        return _same_runs(built, original, w)

    return Op(f"cli_convert_{argv[1]}", "n", " ".join(argv), CHECK_LETTERS, run, check)


# ------------------------------------------------------------- decide

BUCHI_STATES = 60  # V; the 2n ops use 2V
LTL_PERIOD = 300  # p for eval_lasso; the 2n ops use 2p
PREFIX_PERIOD = 10  # p for check_finite_prefix_theorem and padding_check

EVAL_FORMULAS = (
    ("globally", ("until", ("top",), ("atom", "a"))),
    ("or", ("until", ("atom", "a"), ("atom", "b")),
     ("globally", ("or", ("atom", "a"), ("next", ("atom", "b"))))),
)
PREFIX_FORMULAS = (
    ("not", ("until", ("atom", "a"), ("atom", "b"))),
    ("or", ("until", ("top",), ("and", ("atom", "a"), ("next", ("atom", "b")))),
     ("globally", ("atom", "a"))),
)


def _decide_ops(rng, rounds):
    ops = []
    for r in range(rounds):
        for size, mult in (("n", 1), ("2n", 2)):
            states = BUCHI_STATES * mult
            for accepting in (True, False):
                ops.append(_buchi_op(size, rng, states, accepting))
                ops.append(_member_op(size, rng, states, accepting, "omega"))
                ops.append(_member_op(size, rng, states, accepting, "nonterminating"))
            for f in EVAL_FORMULAS:
                ops.append(_eval_op(size, rng, _swap(rng, f), LTL_PERIOD * mult))
            ops.append(_padding_op(size, rng, _swap(rng, PREFIX_FORMULAS[1]), 2 * PREFIX_PERIOD * mult))
            ops.append(_subword_op(size, rng, 8 * mult))
            ops.append(_cli_complexity_op(size, rng, 10 * mult))
            ops.append(_cli_padding_op(size, rng, _swap(rng, PREFIX_FORMULAS[0]), PREFIX_PERIOD * mult))
        # one theorem check per round, n and 2n in turn: these slowest ops
        # stay under a tenth of the list, so the 90th percentile falls
        # inside the 2n decisions rather than on the edge of this group
        size, mult = (("n", 1), ("2n", 2))[r % 2]
        ops.append(_prefix_theorem_op(size, rng, _swap(rng, PREFIX_FORMULAS[0]), PREFIX_PERIOD * mult))
    return ops


def _swap(rng, f):
    """The formula, or the formula with atoms a and b exchanged."""
    return f if rng.random() < 0.5 else _rename(f)


def _rename(f):
    if f[0] == "atom":
        return ("atom", {"a": "b", "b": "a"}[f[1]])
    return (f[0],) + tuple(_rename(c) for c in f[1:])


def _ltl_word(rng, period):
    u = _rand(rng, "ab", 3)
    v = _rand(rng, "ab", period - 2) + "ab"
    return u, v


def _buchi_tables(rng, states, letters, accepting):
    """A Büchi automaton over ``letters`` with V states.

    accepting=True: a ring, every state steps to the next on every letter,
    plus seeded chords, so a cycle through an accepting state is always
    reachable. accepting=False: a chain ending in a non-accepting sink
    loop, with forward chords only, so no accepting state lies on a cycle.
    """
    # buchi_lasso_accepts walks sets whose order follows string hashes; fresh
    # state names per automaton keep that order independent from op to op
    tag = _rand(rng, "abcdefghijklmnopqrstuvwxyz", 4)
    names = [f"{tag}{i}" for i in range(states)]
    chords = [rng.randrange(1, states) for _ in range(states)]
    table: dict = {}
    for i, q in enumerate(names):
        for letter in letters:
            first = letter[0] if isinstance(letter, tuple) else letter
            if accepting:
                targets = {names[(i + 1) % states]}
                if first == "a":
                    targets.add(names[(i + chords[i]) % states])
            elif i == states - 1:
                targets = {q}
            else:
                targets = {names[i + 1]}
                if first == "a":
                    targets.add(names[min(i + chords[i], states - 1)])
            table[(q, letter)] = sorted(targets)
    pool = names if accepting else names[:-1]
    final = set(rng.sample(pool, max(1, states // 4)))
    return names, final, table


def _buchi_op(size, rng, states, accepting):
    alphabet = ab.Alphabet.of("ab")
    names, final, table = _buchi_tables(rng, states, "ab", accepting)
    automaton = ab.BuchiAutomaton(names, {names[0]}, final, alphabet, table)
    u, v = _rand(rng, "ab", 2), _rand(rng, "ab", 20)

    def run():
        return ab.buchi_lasso_accepts(automaton, ab.lasso(u, v, alphabet))

    def check(got):
        want = refs.buchi_accepts([names[0]], final, lambda q, a: table.get((q, a), ()),
                                  list(u), list(v))
        if want != accepting:
            return str(got), "reference disagrees with the automaton's construction"
        return str(got), None if got == want else "acceptance differs from the SCC reference"

    return Op("buchi_lasso_accepts", size, f"buchi {accepting} {sorted(final)} {table} {u} {v}",
              len(u) + len(v), run, check)


def _member_op(size, rng, states, accepting, mode):
    sigma = ab.Alphabet.of("ab")
    product = ab.Alphabet.product(sigma, sigma, pad=True)
    names, final, table = _buchi_tables(rng, states, product.letters, accepting)
    automaton = ab.BuchiAutomaton(names, {names[0]}, final, product, table)
    au, av = _rand(rng, "ab", 1), _rand(rng, "ab", 4)
    lang = ab.AdviceLanguage(mode, automaton, ab.lasso(au, av, sigma))
    wu, wv = _rand(rng, "ab", 3), _rand(rng, "ab", 5)
    if mode == "omega":
        word = ab.lasso(wu, wv, sigma)
        tracks = [(wu, wv), (au, av)]
    else:
        word = ab.word(wu + wv, sigma)
        tracks = [(wu + wv, None), (au, av)]
    member = ab.member_omega if mode == "omega" else ab.member_nonterminating

    def run():
        return member(lang, word)

    def check(got):
        u, v = _convolve(tracks)
        want = refs.buchi_accepts([names[0]], final, lambda q, a: table.get((q, a), ()), u, v)
        if want != accepting:
            return str(got), "reference disagrees with the automaton's construction"
        return str(got), None if got == want else "membership differs from the SCC reference"

    return Op(f"member_{mode}", size, f"{mode} {accepting} {sorted(final)} {table} {tracks}",
              sum(len(x) for t in tracks for x in t if x), run, check)


def _convolve(tracks):
    """Preperiod and period letter lists of the convolution of lassos; a
    track with period None is a finite word padded with PAD."""
    pre = max(len(u) for u, _ in tracks)
    per = 1
    for _, v in tracks:
        if v is not None:
            per = per * len(v) // math.gcd(per, len(v))

    def at(n):
        out = []
        for u, v in tracks:
            if n < len(u):
                out.append(u[n])
            else:
                out.append(ab.PAD if v is None else v[(n - len(u)) % len(v)])
        return tuple(out)

    return [at(i) for i in range(pre)], [at(pre + i) for i in range(per)]


def _eval_op(size, rng, f, period):
    u, v = _ltl_word(rng, period)
    formula = ab.parse_formula(refs.formula_text(f))

    def run():
        return ab.eval_lasso(formula, ab.lasso(u, v))

    def check(got):
        want = refs.ltl_at(f, u, v, 0)
        return str(got), None if got == want else "truth value differs from the unrolled reference"

    return Op("eval_lasso", size, f"eval {f} {u} {v}", len(u) + len(v), run, check)


def _witness_reference(f, u, v):
    g_free, stab = refs.eliminate_globally(refs.nnf(f), u, v)
    cap = 3 * (len(u) + len(v)) + refs.formula_size(f)
    return g_free, stab, cap


def _prefix_theorem_op(size, rng, f, period):
    u, v = _ltl_word(rng, period)
    formula = ab.parse_formula(refs.formula_text(f))
    m_range = 20

    def run():
        return ab.check_finite_prefix_theorem(formula, ab.lasso(u, v), m_range=m_range)

    def check(report):
        g_free, stab, cap = _witness_reference(f, u, v)
        summary = str([(x.position, x.holds_on_word, x.witness) for x in report.verdicts])
        if report.stabilization != stab or report.cap != cap:
            return summary, "stabilization index or cap differs from the reference"
        for m, verdict in zip(range(stab, stab + m_range + 1), report.verdicts):
            want = (m, refs.ltl_at(f, u, v, m), refs.least_witness(g_free, u, v, m, cap))
            if (verdict.position, verdict.holds_on_word, verdict.witness) != want:
                return summary, f"verdict at {m} differs from the reference"
        if not report.all_agree:
            return summary, "finite-prefix theorem reported disagreement"
        return summary, None

    return Op("check_finite_prefix_theorem", size, f"prefix {f} {u} {v}", len(u) + len(v),
              run, check)


def _padding_reference(f, u, v, n_range):
    g_free, stab, cap = _witness_reference(f, u, v)
    entries = []
    for n in range(n_range + 1):
        if not refs.ltl_at(f, u, v, n):
            entries.append(None)
            continue
        witness = refs.least_witness(g_free, u, v, n, cap)
        entries.append("cap" if witness is None else witness)
    return entries, cap, stab


def _padding_op(size, rng, f, period):
    u, v = _ltl_word(rng, period)
    formula = ab.parse_formula(refs.formula_text(f))

    def run():
        return ab.padding_check(formula, ab.lasso(u, v))

    def check(table):
        got = (table.entries, table.cap, table.stabilization)
        want = _padding_reference(f, u, v, 30)
        return str(got), None if got == want else "padding table differs from the reference"

    return Op("padding_check", size, f"padding {f} {u} {v}", len(u) + len(v), run, check)


def _subword_op(size, rng, period):
    machine, table = _random_mealy(rng, 4, "ab")
    u, v = _rand(rng, "ab", 2), _rand(rng, "ab", period)
    beta = ab.lasso(u, v, ab.Alphabet.of("ab"))
    k_max = 8
    factor = len(machine.states) ** 2

    def run():
        alpha = ab.mealy_image_lasso(machine, beta)
        profile = ab.subword_complexity(alpha, k_max)
        return profile.counts, ab.check_subword_bound(alpha, beta, factor, k_max=k_max)

    def check(result):
        counts, report = result
        want = refs.factor_counts(*refs.mealy_image(table, 0, u, v), k_max)
        beta_counts = refs.factor_counts(u, v, k_max)
        holds = all(want[k] <= factor * beta_counts[k] for k in want)
        summary = f"{counts} {report.holds}"
        if counts != want:
            return summary, "factor counts differ from the window count"
        if report.holds != holds or not report.conclusive:
            return summary, "bound report differs from the window count"
        return summary, None

    return Op("subword_complexity", size, f"subword {sorted(table.items())} {u} {v}",
              len(u) + len(v), run, check)


def _cli_complexity_op(size, rng, period):
    u, v = _rand(rng, "ab", 2), _rand(rng, "ab", period - 1) + "b"
    argv = ["--json", "analyze", "complexity", _literal(u, v), "--kmax", "6"]

    def run():
        return _cli(argv)

    def check(result):
        code, text = result
        if code != 0:
            return text, f"exit code {code}"
        counts = {int(k): c for k, c in json.loads(text)["counts"].items()}
        return text, None if counts == refs.factor_counts(u, v, 6) else "counts differ from the window count"

    return Op("cli_analyze", size, " ".join(argv), len(u) + len(v), run, check)


def _cli_padding_op(size, rng, f, period):
    u, v = _ltl_word(rng, period)
    argv = ["--json", "analyze", "padding", refs.formula_text(f), _literal(u, v)]

    def run():
        return _cli(argv)

    def check(result):
        code, text = result
        if code != 0:
            return text, f"exit code {code}"
        doc = json.loads(text)
        got = (doc["entries"], doc["cap"], doc["stabilization"])
        return text, None if got == _padding_reference(f, u, v, 30) else "padding table differs from the reference"

    return Op("cli_analyze", size, " ".join(argv), len(u) + len(v), run, check)


# ------------------------------------------------------------- entry points

BUILDERS = {"stream": _stream_ops, "construct": _construct_ops, "decide": _decide_ops}

def build_ops(workload: str, seed: int, rounds: int) -> list:
    rng = random.Random(f"{workload}/{seed}")
    ops = BUILDERS[workload](rng, rounds)
    rng.shuffle(ops)
    return ops


def warmup_ops(ops) -> list:
    """One op of each kind: the first of size n in list order, so set-up
    does the same work whatever order the seed gave the list."""
    chosen = {}
    for op in ops:
        if op.size == "n":
            chosen.setdefault(op.kind, op)
    return list(chosen.values())
