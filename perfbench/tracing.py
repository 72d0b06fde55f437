"""Spans around calls into the package, and the per-layer metrics.

The tracer wraps, in memory, every public function of each layer module in
the module that defines it and in every package module that imported it by
name (``pi_transforms.run_2wft``, ``sst.run_2wft_b``, ``checks.*``), plus
``RunOutcome.try_letters``. A construction's validation runs therefore show
up as child spans. Spans are recorded only while an op runs, kept in
memory and written out when the run ends. A function calling itself stays
inside its outer span, so ``<module>.calls`` counts outermost calls.

``probes`` and ``check_suites`` run after the wraps are removed: bulk
letter pulls (a span per letter would cost more than the letter), the
scaling pairs (n, 2n), and the check suites.
"""
from __future__ import annotations

import functools
import inspect
import json
import math
import random
import statistics
import sys
import time

MODULES = ("words", "advice", "mealy", "transducers", "pi_transforms", "sst", "ltl",
           "analysis", "documents", "cli")

#: Spans the benchmark adds around its own code; no module's self time.
BENCH_SPANS = ("documents.roundtrip",)

ENGINE_SPANS = {
    "_OneWayEngine": "transducers.run_1wft",
    "_TwoWayEngine": "transducers.run_2wft",
    "_SimpleSstEngine": "sst.run_sst",
    "_GeneralSstEngine": "sst.run_sst",
}

CONSTRUCTIONS = (
    "transducers.remove_endmarker",
    "sst.compile_sst_to_2wftb", "sst.eliminate_lookbehind_lasso", "sst.simplify_to_simple_sst",
    "mealy.extract_mealy_from_pref_dfa", "pi_transforms.normalize_directions_on_pi",
    "pi_transforms.one_way_simulation_on_pi", "documents.roundtrip",
)
DECISIONS = (
    "advice.buchi_lasso_accepts", "advice.member_omega", "ltl.eval_lasso",
    "ltl.check_finite_prefix_theorem", "analysis.padding_check", "analysis.subword_complexity",
)
ENGINES = ("transducers.run_1wft", "transducers.run_2wft", "transducers.run_2wft_b", "sst.run_sst")
SUITES = ("mirror-triple", "sst-compile", "lookbehind", "mealy-roundtrip", "pi-constructions",
          "constant-analyzer", "ltl-prefix", "subword-bound", "mu-delay", "endmarker")

NAME, START, END, PARENT, OP, FAILED, LETTERS = range(7)


def _engine_span(outcome) -> str:
    engine = outcome._engine
    if getattr(engine, "oracle", None) is not None:
        return "transducers.run_2wft_b.try_letters"
    return ENGINE_SPANS[type(engine).__name__] + ".try_letters"


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op, failed, letters]
        self.op = None  # index of the running op; spans are recorded only inside ops
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name, fn, engine=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if tracer.op is None or (stack and tracer.spans[stack[-1]][NAME] == name):
                # outside ops nothing is recorded; direct recursion stays in its caller's span
                return fn(*args, **kwargs)
            span = [_engine_span(args[0]) if engine else name, 0.0, 0.0,
                    stack[-1] if stack else -1, tracer.op, False, 0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()
            if engine:
                span[LETTERS] = len(result[0])
            return result

        return wrapper

    def _replace(self, holder, attr, new):
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, new)

    def install(self):
        from advicebench import transducers

        import workloads

        holders = [m for n, m in sys.modules.items()
                   if n == "advicebench" or n.startswith("advicebench.")]
        for layer in MODULES:
            module = sys.modules[f"advicebench.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    if vars(holder).get(attr) is fn:
                        self._replace(holder, attr, wrapped)
        outcome = transducers.RunOutcome
        self._replace(outcome, "try_letters", self._wrap(None, outcome.try_letters, engine=True))
        self._replace(workloads, "_roundtrip", self._wrap("documents.roundtrip", workloads._roundtrip))

    def uninstall(self):
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def write(self, path):
        """Spans as JSON; each span's name is an index into ``names``."""
        if path is None:
            return
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[NAME]]] + s[1:] for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": names,
                       "fields": ["name", "start", "end", "parent", "op", "failed", "letters"],
                       "spans": rows}, handle, separators=(",", ":"))

    def layer_metrics(self, op_seconds: float) -> dict:
        spans = self.spans
        dur = [s[END] - s[START] for s in spans]
        child = [0.0] * len(spans)
        for s, d in zip(spans, dur):
            if s[PARENT] >= 0:
                child[s[PARENT]] += d
        out: dict = {}
        for layer in MODULES:
            mine = [i for i, s in enumerate(spans)
                    if s[NAME].split(".")[0] == layer and s[NAME] not in BENCH_SPANS]
            self_s = sum(dur[i] - child[i] for i in mine)
            out[f"{layer}.calls"] = len(mine)
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.share"] = self_s / op_seconds
            out[f"{layer}.failed"] = sum(1 for i in mine if spans[i][FAILED])

        def called_by_op(name):
            # durations of the calls an op makes itself, not nested ones
            return [dur[i] for i, s in enumerate(spans) if s[NAME] == name and s[PARENT] < 0]

        for name in CONSTRUCTIONS + DECISIONS:
            found = called_by_op(name)
            out[f"{name}.ms"] = 1000 * statistics.median(found) if found else 0.0
        for name in ENGINES:
            mine = [i for i, s in enumerate(spans) if s[NAME] == name + ".try_letters"]
            busy = sum(dur[i] for i in mine)
            out[f"{name}.letters_per_s"] = sum(spans[i][LETTERS] for i in mine) / busy if busy else 0.0
        sims = {i for i, s in enumerate(spans) if s[NAME] == "pi_transforms.one_way_simulation_on_pi"}
        validating = sum(dur[j] for j, s in enumerate(spans)
                         if s[PARENT] in sims and s[NAME].endswith(".try_letters"))
        total = sum(dur[i] for i in sims)
        out["pi_transforms.one_way_simulation_on_pi.validate_share"] = validating / total if total else 0.0
        out["analysis.prefix_equiv.share"] = sum(
            d for s, d in zip(spans, dur) if s[NAME] == "analysis.prefix_equiv") / op_seconds
        return out


# ------------------------------------------------------------- probes

def _median_time(fn, reps=3) -> float:
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _pull(make, n):
    def run():
        w = make()
        for i in range(n):
            w.letter(i)
    return run


def probes() -> dict:
    """Letter rates of the words and the Mealy engine, and the scaling exponents."""
    import advicebench as ab
    from advicebench import corpus

    rng = random.Random("probes")
    ab_block = ab.Alphabet.of("ab#")

    def blocks(length):
        return ab.lasso("", "".join(rng.choice("ab") for _ in range(length)) + "#", ab_block)

    base = ab.lasso("ab", "".join(rng.choice("ab") for _ in range(997)))
    mirror_input = blocks(4000)
    n = 20000
    makers = {
        "pi": lambda: ab.pi_word(1),
        "pi3": lambda: ab.pi_word(3),
        "lasso": lambda: ab.lasso(base.u.to_str(), base.v.to_str()),
        "shift": lambda: ab.shift(base, 7),
        "duplicate": lambda: ab.duplicate(base, 2),
        "block_mirror": lambda: ab.block_mirror(mirror_input),
    }
    out = {f"words.{name}.letters_per_s": n / _median_time(_pull(make, n))
           for name, make in makers.items()}
    delay = ab.delay_mealy(base.letter(0), base.alphabet)
    out["mealy.run_mealy.letters_per_s"] = n / _median_time(
        _pull(lambda: ab.run_mealy(delay, ab.shift(base, 1)), n))

    mu_fwd, _ = ab.mu_transducers(2, ab.Alphabet.of("ab"))
    mirror_sst = corpus.mirror_sst()
    formula = ab.parse_formula("G F a")

    def buchi(size):
        names = [f"q{i}" for i in range(size)]
        table = {(q, a): {names[min(i + 1, size - 1)]} for i, q in enumerate(names) for a in "ab"}
        automaton = ab.BuchiAutomaton(names, {names[0]}, names[:-1:4], ab.Alphabet.of("ab"), table)
        w = ab.lasso("", "ab" * 10)
        return lambda: ab.buchi_lasso_accepts(automaton, w)

    def ltl_word(period):
        return ab.lasso("ab", "".join(rng.choice("ab") for _ in range(period - 2)) + "ab")

    def eval_at(period):
        w = ltl_word(period)
        return lambda: ab.eval_lasso(formula, w)

    def padding_at(period):
        w = ltl_word(period)
        return lambda: ab.padding_check(formula, w)

    def sst_at(length):
        w = blocks(length)
        return lambda: ab.run_sst(mirror_sst, w).try_letters(length)

    def outcome_word_at(length):
        w = ab.lasso("", "ab")
        return _pull(lambda: ab.run_1wft(mu_fwd, w).word, length)

    def mirror_at(length):
        w = blocks(length)
        return _pull(lambda: ab.block_mirror(w), length)

    pairs = {
        "advice.buchi_lasso_accepts": (buchi, 60),
        "ltl.eval_lasso": (eval_at, 500),
        "analysis.padding_check": (padding_at, 40),
        "sst.run_sst": (sst_at, 4000),
        "transducers.outcome_word": (outcome_word_at, 2000),
        "words.block_mirror": (mirror_at, 4000),
    }
    for name, (make, size) in pairs.items():
        small, large = make(size), make(2 * size)
        t_small = _median_time(small, reps=5)
        t_large = _median_time(large, reps=5)
        out[f"{name}.scaling_exp"] = math.log2(t_large / t_small)
    return out


def check_suites() -> dict:
    """Seconds per check suite through ``checks.run_suite``, and failing items."""
    from advicebench import checks

    out = {}
    failed = 0
    for suite in SUITES:
        started = time.perf_counter()
        results = checks.run_suite(suite)
        out[f"checks.{suite}.s"] = time.perf_counter() - started
        failed += sum(1 for r in results if not r.passed)
    out["checks.failed_items"] = failed
    return out
