"""In-process probe of the layers that perfbench times only end to end.

    python3 tools/probe.py PARENT_SRC CHANGE_SRC

tools/ab.py runs it on the parent's and the change's ``src``. It loads both
packages into one process and times each case in rounds, the sides
alternating, parent first in even rounds, and keeps each side's best. A
case calls only API that every compared tree has; its machines are built
once per side, outside the timing, unless said otherwise. Sections:

- ``one_way``, 200 rounds of one fresh read: the mu chain, with the
  change's composed machine as its floor (``composed_ms``), the delay
  machine on a shifted lasso, and the 2- and 3-expanders on π and on
  shift(π, 5), whose runs of 0s are periodic stretches.
- ``walks``, 50 rounds of one call on a machine built just before it, which
  pays its table fills as in a construction: lasso_image,
  remove_endmarker, eliminate_lookbehind_lasso and
  normalize_directions_on_pi.
- ``words``, 30 rounds of a batch of 5 calls on blocks of random letters:
  lasso(u, v), the block_mirror read, and the stream mirror ops, which
  build their lasso inside the timing as perfbench's do.
- ``ltl``, 30 rounds of a batch of 5 calls per formula: eval_lasso of the
  decide workload's formulas on lassos built just before, from text and
  from letter tuples.

Prints one JSON object: per section its ``what`` and ``rounds``, and per
case and size (``walks``: ``calls``, then case) each side's best in ms per
call, ``parent_ms`` and ``change_ms``, and their ratio, ``speedup``.
"""
from __future__ import annotations

import importlib
import json
import pkgutil
import random
import sys
import time

BATCH = 5
FORMULAS = ("G (T U a)", "(a U b) | G (a | X b)")
_LOADED: dict = {}  # src -> the modules of its package


def load(src: str):
    """The advicebench package under ``src``, with its modules in
    sys.modules: imported, with every module in it, on the first call for
    ``src``, and put back on later calls. A function that imports at call
    time resolves to whichever copy was loaded last, so load a copy again
    before each call into it."""
    modules = _LOADED.get(src)
    if modules is None:
        for name in [n for n in sys.modules if n == "advicebench" or n.startswith("advicebench.")]:
            del sys.modules[name]
        sys.path.insert(0, src)
        try:
            ab = importlib.import_module("advicebench")
            for info in pkgutil.iter_modules(ab.__path__):
                importlib.import_module(f"advicebench.{info.name}")
        finally:
            sys.path.remove(src)
        modules = _LOADED[src] = {n: m for n, m in sys.modules.items()
                                  if n == "advicebench" or n.startswith("advicebench.")}
    sys.modules.update(modules)
    return modules["advicebench"]


def timer(call, setup=tuple, per=1):
    """A function that runs ``call(*setup())`` and returns the seconds of
    ``call`` alone, over ``per``."""
    def timed():
        args = setup()
        start = time.perf_counter()
        call(*args)
        return (time.perf_counter() - start) / per
    return timed


def one_way(ab):
    """case -> letter count -> a timer of one fresh read."""
    fwd, bwd = ab.mu_transducers(2, ab.Alphabet.of("ab"))
    mu_word, delay_word = ab.lasso("aba", "bbaabab"), ab.lasso("abc", "bacabbc")
    delay = ab.delay_mealy(delay_word.letter(0), delay_word.alphabet)
    expander, expander3 = ab.pi_k_expander_1wft(2), ab.pi_k_expander_1wft(3)
    reads = {
        "mu_chain": ((1600, 3200), lambda n: ab.run_1wft(bwd, ab.run_1wft(fwd, mu_word).word).letters(n)),
        "delay_mealy": ((4000, 8000), lambda n: ab.run_mealy(delay, ab.shift(delay_word, 1)).letters(n)),
        "pi_expander": ((4000, 8000), lambda n: ab.run_1wft(expander, ab.pi_word(1)).letters(n)),
        "pi_expander3": ((4000, 8000), lambda n: ab.run_1wft(expander3, ab.pi_word(1)).letters(n)),
        "pi_shift": ((4000, 8000), lambda n: ab.run_1wft(expander, ab.shift(ab.pi_word(1), 5)).letters(n)),
    }
    return {name: {n: timer(read, lambda n=n: (n,)) for n in counts} for name, (counts, read) in reads.items()}


def composed(ab):
    """The floor of ``mu_chain``: its two machines composed into one."""
    fwd, bwd = ab.mu_transducers(2, ab.Alphabet.of("ab"))
    machine, w = ab.compose_1wft(bwd, fwd), ab.lasso("aba", "bbaabab")
    return {"mu_chain": {n: timer(lambda n=n: ab.run_1wft(machine, w).letters(n)) for n in (1600, 3200)}}


def walks(ab):
    """"calls" -> case -> a timer of one call on a freshly built machine."""
    corpus = sys.modules["advicebench.corpus"]

    def mirror():
        return ab.mirror_blocks_2wft(ab.Alphabet.of("ab"))

    mirror_word, interleave_word = ab.lasso("a", "a" * 100 + "b" * 100 + "#"), ab.lasso("", "aab#")
    calls = {
        "lasso_image_mirror": (mirror, lambda t: ab.lasso_image(t, mirror_word)),
        "lasso_image_interleave_2wftb": (lambda: ab.compile_sst_to_2wftb(corpus.interleave_sst()),
                                         lambda t: ab.lasso_image(t, interleave_word)),
        "remove_endmarker_mirror": (mirror, lambda t: ab.remove_endmarker(t, mirror_word)),
        "unlookbehind_mirror_2wftb": (lambda: ab.compile_sst_to_2wftb(corpus.mirror_sst()),
                                      lambda t: ab.eliminate_lookbehind_lasso(t, mirror_word)),
        "normalize_bounce_probe": (corpus.bounce_probe_2wft, ab.normalize_directions_on_pi),
        "normalize_stutter_cross": (corpus.stutter_cross_2wft, ab.normalize_directions_on_pi),
    }
    return {"calls": {name: timer(call, lambda build=build: (build(),)) for name, (build, call) in calls.items()}}


def words(ab):
    """case -> letters per block -> a timer of a batch."""
    gamma = ab.Alphabet.of("ab")
    sst = sys.modules["advicebench.corpus"].mirror_sst(gamma)

    def mirror_op(run, machine):
        return lambda u, v, n, _w: ab.prefix_equiv(run(machine, w := ab.lasso(u, v)), ab.block_mirror(w), n)

    calls = {
        "lasso": lambda u, v, n, _w: ab.lasso(u, v),
        "mirror_read": lambda u, v, n, w: ab.block_mirror(w).take(n),
        "mirror_2wft": mirror_op(ab.run_2wft, ab.mirror_blocks_2wft(gamma)),
        "mirror_2wftb": mirror_op(ab.run_2wft_b, ab.compile_sst_to_2wftb(sst)),
        "mirror_sst": mirror_op(ab.run_sst, sst),
    }
    texts = {}
    for n in (4000, 8000):
        rng = random.Random(n)
        u, v = ("".join(rng.choice("ab") for _ in range(n)) + "#" for _ in range(2))
        texts[n] = u, v, n, ab.lasso(u, v)
    return {name: {n: timer(lambda call=call, args=args: [call(*args) for _ in range(BATCH)], per=BATCH)
                   for n, args in texts.items()} for name, call in calls.items()}


def ltl(ab):
    """kind -> |uv| -> a timer of a batch per formula, on lassos built
    just before it."""
    def timed(u, v, alphabet):
        return timer(lambda calls: [ab.eval_lasso(f, w) for f, w in calls],
                     lambda: ([(f, ab.lasso(u, v, alphabet)) for f in map(ab.parse_formula, FORMULAS)
                               for _ in range(BATCH)],), per=BATCH * len(FORMULAS))

    texts = {n: "".join(map(random.Random(n).choice, ["ab"] * (n - 2))) + "ab" for n in (8, 301, 601)}
    return {kind: {n: timed(text[:3], text[3:], alphabet) for n, text in texts.items()}
            for kind, alphabet in (("text", None), ("tuple", ab.Alphabet.of("ab")))}


SECTIONS = {  # name -> rounds, what, the cases of one side, a floor side built on the change, named after it
    "one_way": (200, "one-way reads, best of interleaved fresh reads, ms", one_way, composed),
    "walks": (50, "two-way walks, best of interleaved fresh calls, ms", walks, None),
    "words": (30, "word layer of the mirror ops, best of interleaved batches of 5, ms per call", words, None),
    "ltl": (30, "eval_lasso on fresh lassos, best of interleaved batches of 5 per formula, ms per call", ltl, None),
}


def best(rounds: int, timers: dict) -> dict:
    """Per name, the least time in ms of its (src, timer) over ``rounds``
    rounds of each in turn, the first two swapped in odd rounds."""
    order = list(timers)
    least = dict.fromkeys(order, float("inf"))
    for i in range(rounds):
        for name in order if i % 2 == 0 else order[1::-1] + order[2:]:
            src, timed = timers[name]
            load(src)
            least[name] = min(least[name], timed())
    return {name: t * 1e3 for name, t in least.items()}


def main(argv) -> int:
    srcs = {"parent": argv[1], "change": argv[2]}
    result = {}
    for section, (rounds, what, cases, floors) in SECTIONS.items():
        sides = {side: (src, cases(load(src))) for side, src in srcs.items()}
        if floors:
            sides[floors.__name__] = srcs["change"], floors(load(srcs["change"]))
        out = result[section] = {"what": what, "rounds": rounds}
        for case, sizes in sides["parent"][1].items():
            for size in sizes:
                ms = best(rounds, {side: (src, got[case][size]) for side, (src, got) in sides.items() if case in got})
                entry = {f"{side}_ms": round(t, 4) for side, t in ms.items()}
                entry["speedup"] = round(ms["parent"] / ms["change"], 3)
                out.setdefault(case, {})[str(size)] = entry
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
