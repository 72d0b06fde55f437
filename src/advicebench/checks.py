"""Named check suites: each item exercises one headline contract of the
package at desk scale and reports pass/fail."""
from __future__ import annotations

import random
import time
from dataclasses import dataclass

from . import corpus
from .analysis import Equal, check_subword_bound, prefix_equiv
from .errors import BudgetExceeded, NonProductive
from .ltl import (
    Atom,
    And,
    Globally,
    Next,
    Not,
    Or,
    Top,
    Until,
    check_finite_prefix_theorem,
    eval_lasso,
    finite_prefix_eval,
    nnf,
    parse_formula,
)
from .mealy import MealyMachine, delay_mealy, extract_mealy_from_pref_dfa, mealy_image_lasso, pref_graph_dfa, run_mealy
from .pi_transforms import (
    direction_partition,
    normalize_directions_on_pi,
    one_way_simulation_on_pi,
    pi_k_expander_1wft,
)
from .sst import compile_sst_to_2wftb, eliminate_lookbehind_lasso, run_sst
from .transducers import (
    ENDMARKER,
    LEFT,
    RIGHT,
    TwoWayTransducer,
    analyze_on_constant,
    compose_1wft,
    mirror_blocks_2wft,
    mu_transducers,
    remove_endmarker,
    run_1wft,
    run_2wft,
    run_2wft_b,
)
from .words import Alphabet, ConstantWord, FiniteWord, LassoWord, PAD, block_mirror, lasso, pi_word, shift


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        tail = f" ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.name}{tail}"


def _equal(a, b, n) -> tuple[bool, str]:
    verdict = prefix_equiv(a, b, n)
    if isinstance(verdict, Equal):
        return True, f"equal on {n} letters"
    return False, str(verdict)


def _random_total_mealy(rng: random.Random, alphabet: Alphabet, max_states=5) -> MealyMachine:
    n = rng.randint(1, max_states)
    states = list(range(n))
    transitions = {}
    for q in states:
        for a in alphabet.letters:
            transitions[(q, a)] = (rng.choice(alphabet.letters), rng.choice(states))
    return MealyMachine(states, 0, alphabet, alphabet, transitions)


def _random_lasso(rng: random.Random, alphabet: Alphabet, max_u=3, max_v=4) -> LassoWord:
    u = "".join(rng.choice(alphabet.letters) for _ in range(rng.randint(0, max_u)))
    v = "".join(rng.choice(alphabet.letters) for _ in range(rng.randint(1, max_v)))
    return lasso(u, v, alphabet)


def suite_mirror_triple() -> list[CheckResult]:
    started = time.perf_counter()
    source = lasso("", "ab#baa#")
    machine = mirror_blocks_2wft(Alphabet.of("ab"))
    sst = corpus.mirror_sst(Alphabet.of("ab"))
    oracle = block_mirror(source)
    two_way = run_2wft(machine, source)
    streamed = run_sst(sst, source)
    ok1, d1 = _equal(two_way, oracle, 1000)
    ok2, d2 = _equal(streamed, oracle, 1000)
    elapsed = time.perf_counter() - started
    return [
        CheckResult("mirror: two-way machine matches the word combinator", ok1, d1),
        CheckResult("mirror: register machine matches the word combinator", ok2, d2),
        CheckResult("mirror: runtime under a second", elapsed < 1.0, f"{elapsed:.3f}s"),
    ]


SST_CASES = (
    ("mirror", lambda: corpus.mirror_sst(), [lasso("", "ab#"), lasso("", "ab#baa#")]),
    ("identity", lambda: corpus.identity_sst(), [lasso("", "01"), lasso("0", "10")]),
    ("interleave", lambda: corpus.interleave_sst(), [lasso("", "ab#"), lasso("", "abab#ba#")]),
)


def suite_sst_compile() -> list[CheckResult]:
    results = []
    for name, build, inputs in SST_CASES:
        sst = build()
        compiled = compile_sst_to_2wftb(sst)
        for source in inputs:
            ok, detail = _equal(run_2wft_b(compiled, source), run_sst(sst, source), 1000)
            results.append(CheckResult(f"compiled {name} machine on {source}", ok, detail))
    return results


def suite_lookbehind() -> list[CheckResult]:
    results = []
    for name, build, inputs in SST_CASES:
        compiled = compile_sst_to_2wftb(build())
        for source in inputs:
            plain = eliminate_lookbehind_lasso(compiled, source)
            ok, detail = _equal(run_2wft(plain, source), run_2wft_b(compiled, source), 1000)
            results.append(CheckResult(f"lookbehind-free {name} machine on {source}", ok, detail))
    return results


def suite_mealy_roundtrip() -> list[CheckResult]:
    rng = random.Random(40504)
    alphabet = Alphabet.of("abc")
    failures = 0
    detail = ""
    for i in range(20):
        machine = _random_total_mealy(rng, alphabet)
        advice = _random_lasso(rng, alphabet)
        alpha = run_mealy(machine, advice)
        dfa = pref_graph_dfa(machine)
        extracted = extract_mealy_from_pref_dfa(dfa, advice, probe=500)
        verdict = prefix_equiv(run_mealy(extracted, advice), alpha, 500)
        if not isinstance(verdict, Equal):
            failures += 1
            detail = f"case {i}: {verdict}"
    return [CheckResult("prefix-automaton extraction reproduces 20 random machines",
                        failures == 0, detail or "500 letters each")]


def suite_pi_constructions() -> list[CheckResult]:
    results = []
    pi = pi_word(1)
    for k in (2, 3):
        expander = pi_k_expander_1wft(k)
        ok, detail = _equal(run_1wft(expander, pi), pi_word(k), 500)
        results.append(CheckResult(f"block expander k={k} matches the direct word", ok, detail))
    for name, build in (("bounce-probe", corpus.bounce_probe_2wft),
                        ("stutter-cross", corpus.stutter_cross_2wft)):
        machine = build()
        normalized = normalize_directions_on_pi(machine, probe_range=300)
        ok, detail = _equal(run_2wft(normalized, pi), run_2wft(machine, pi), 300)
        results.append(CheckResult(f"direction normalization preserves {name}", ok, detail))
        results.append(CheckResult(
            f"direction partition exists for normalized {name}",
            direction_partition(normalized) is not None,
        ))
    for name, machine in (
        ("normalized bounce-probe", normalize_directions_on_pi(corpus.bounce_probe_2wft())),
        ("normalized stutter-cross", normalize_directions_on_pi(corpus.stutter_cross_2wft())),
        ("revisit-probe", corpus.revisit_probe_2wft()),
    ):
        sim = one_way_simulation_on_pi(machine, c_max=4, probe_range=300)
        ok, detail = _equal(run_1wft(sim.transducer, pi), run_2wft(machine, pi), 300)
        results.append(CheckResult(
            f"one-way replay of {name} (window {sim.window}, {sim.copies} copies, {sim.steps} steps)",
            ok, detail,
        ))
    return results


def _random_total_2wft(rng: random.Random, max_states=4) -> TwoWayTransducer:
    n = rng.randint(1, max_states)
    states = list(range(n))
    out_alpha = Alphabet.of("ab")
    tr = {}
    for q in states:
        out = tuple(rng.choice(out_alpha.letters) for _ in range(rng.randint(0, 2)))
        tr[(q, ENDMARKER)] = (out, RIGHT, rng.choice(states))
        out = tuple(rng.choice(out_alpha.letters) for _ in range(rng.randint(0, 2)))
        tr[(q, PAD)] = (out, rng.choice((LEFT, RIGHT)), rng.choice(states))
    return TwoWayTransducer(states, 0, Alphabet.of("x"), out_alpha, tr)


def suite_constant_analyzer() -> list[CheckResult]:
    rng = random.Random(60606)
    blank = ConstantWord(PAD, Alphabet.of("x"))
    failures = 0
    detail = ""
    for i in range(50):
        machine = _random_total_2wft(rng)
        try:
            found = analyze_on_constant(machine, PAD)
        except NonProductive as stalled:
            run = run_2wft(machine, blank)
            got, halt = run.try_letters(2000)
            if got != list(stalled.prefix) or not isinstance(halt, BudgetExceeded):
                failures += 1
                detail = f"case {i}: unproductive report does not match the raw run"
            continue
        verdict = prefix_equiv(found, run_2wft(machine, blank), 2000)
        if not isinstance(verdict, Equal):
            failures += 1
            detail = f"case {i}: {verdict}"
    return [CheckResult("loop analysis matches raw runs for 50 random machines",
                        failures == 0, detail or "2000 letters or consistent stall")]


LTL_BATTERY = [
    "G F a", "F b", "a", "a U b", "X X a", "G (a | b)", "!(a U b)",
    "F (a & X b)", "G F (a & b)", "a & X b", "a | X X b", "!a U b",
    "G (a U b)", "F G a", "X (a U b)", "(a U b) U a", "T U b",
    "!(X a)", "G a | G b", "F (b & X a)", "a U (b U a)", "!(F a)",
]

LTL_WORDS = [
    lasso("", "ab"),
    lasso("a", "b"),
    lasso("", "aab"),
    lasso("b", "a"),
    lasso("ab", "ba"),
]


def _random_formula(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([Atom("a"), Atom("b"), Top()])
    kind = rng.randrange(6)
    if kind == 0:
        return Not(_random_formula(rng, depth - 1))
    if kind == 1:
        return And(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    if kind == 2:
        return Or(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    if kind == 3:
        return Next(_random_formula(rng, depth - 1))
    if kind == 4:
        return Until(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    return Globally(_random_formula(rng, depth - 1))


def _random_g_free_nnf(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Atom("a"), Atom("b"), Not(Atom("a")), Not(Atom("b")), Top()])
    kind = rng.randrange(4)
    if kind == 0:
        return And(_random_g_free_nnf(rng, depth - 1), _random_g_free_nnf(rng, depth - 1))
    if kind == 1:
        return Or(_random_g_free_nnf(rng, depth - 1), _random_g_free_nnf(rng, depth - 1))
    if kind == 2:
        return Next(_random_g_free_nnf(rng, depth - 1))
    return Until(_random_g_free_nnf(rng, depth - 1), _random_g_free_nnf(rng, depth - 1))


def suite_ltl_prefix() -> list[CheckResult]:
    results = []
    bad = ""
    agreeing = 0
    for text in LTL_BATTERY:
        formula = parse_formula(text)
        for w in LTL_WORDS:
            report = check_finite_prefix_theorem(formula, w, m_range=50)
            if report.all_agree:
                agreeing += 1
            elif not bad:
                bad = f"{text} on {w}"
    total = len(LTL_BATTERY) * len(LTL_WORDS)
    results.append(CheckResult(
        f"suffix truth equals finite-prefix truth for {total} formula/word pairs",
        agreeing == total, bad or "positions N..N+50",
    ))

    rng = random.Random(70707)
    nnf_bad = ""
    for i in range(200):
        formula = _random_formula(rng, 4)
        w = LTL_WORDS[rng.randrange(len(LTL_WORDS))]
        p = rng.randrange(10)
        if eval_lasso(formula, w, p) != eval_lasso(nnf(formula), w, p):
            nnf_bad = f"case {i}"
            break
    results.append(CheckResult("negation normal form preserves evaluation (200 cases)",
                               not nnf_bad, nnf_bad))

    mono_bad = ""
    ab = Alphabet.of("ab")
    for i in range(200):
        formula = _random_g_free_nnf(rng, 3)
        letters = tuple(rng.choice("ab") for _ in range(12))
        held = False
        for n in range(13):
            now = finite_prefix_eval(formula, FiniteWord(letters[:n], ab), 0)
            if held and not now:
                mono_bad = f"case {i} at prefix {n}"
                break
            held = held or now
        if mono_bad:
            break
    results.append(CheckResult("finite semantics is monotone in the prefix (200 cases)",
                               not mono_bad, mono_bad))
    return results


def suite_subword_bound() -> list[CheckResult]:
    rng = random.Random(80808)
    alphabet = Alphabet.of("ab")
    failures = 0
    detail = ""
    for i in range(10):
        machine = _random_total_mealy(rng, alphabet, max_states=4)
        beta = _random_lasso(rng, alphabet, max_u=2, max_v=5)
        alpha = mealy_image_lasso(machine, beta)
        factor = len(machine.states) ** 2
        report = check_subword_bound(alpha, beta, factor, k_max=8)
        if not (report.holds and report.conclusive):
            failures += 1
            detail = f"case {i}: {report.violations}"
    return [CheckResult("machine images keep the factor-count bound (10 machines, k <= 8)",
                        failures == 0, detail or "exact lasso profiles")]


def suite_mu_delay() -> list[CheckResult]:
    results = []
    for n in (2, 3):
        fwd, bwd = mu_transducers(n, Alphabet.of("ab"))
        machine = compose_1wft(bwd, fwd)
        for source in (lasso("", "ab"), lasso("b", "ab")):
            ok, detail = _equal(run_1wft(machine, source), source, 1000)
            results.append(CheckResult(f"repeat-by-{n} then merge is the identity on {source}", ok, detail))
    for w in corpus.delay_test_words():
        machine = delay_mealy(w.letter(0), w.alphabet)
        ok, detail = _equal(run_mealy(machine, shift(w, 1)), w, 1000)
        results.append(CheckResult(f"delay machine rebuilds {w!r} from its shift", ok, detail))
    return results


def suite_endmarker() -> list[CheckResult]:
    results = []
    source = lasso("", "ab#baa#")
    mirror = mirror_blocks_2wft(Alphabet.of("ab"))
    trimmed = remove_endmarker(mirror, source)
    ok, detail = _equal(run_2wft(trimmed, source), run_2wft(mirror, source), 500)
    results.append(CheckResult("endmarker removal preserves the mirror machine", ok, detail))

    toucher = corpus.endmarker_toucher_2wft()
    source2 = lasso("", "ab")
    trimmed2 = remove_endmarker(toucher, source2)
    ok, detail = _equal(run_2wft(trimmed2, source2), run_2wft(toucher, source2), 500)
    results.append(CheckResult("endmarker removal preserves a marker-touching machine", ok, detail))

    bouncer = corpus.endmarker_bouncer_2wft()
    try:
        remove_endmarker(bouncer, source2)
        results.append(CheckResult("perpetual bouncer is rejected", False, "no error raised"))
    except BudgetExceeded as exc:
        results.append(CheckResult("perpetual bouncer is rejected with a loop report",
                                   exc.loop is not None, str(exc.loop)))
    return results


SUITES = {
    "mirror-triple": suite_mirror_triple,
    "sst-compile": suite_sst_compile,
    "lookbehind": suite_lookbehind,
    "mealy-roundtrip": suite_mealy_roundtrip,
    "pi-constructions": suite_pi_constructions,
    "constant-analyzer": suite_constant_analyzer,
    "ltl-prefix": suite_ltl_prefix,
    "subword-bound": suite_subword_bound,
    "mu-delay": suite_mu_delay,
    "endmarker": suite_endmarker,
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        results = []
        for key in SUITES:
            results.extend(run_suite(key))
        return results
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name]()
