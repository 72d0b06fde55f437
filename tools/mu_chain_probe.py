"""In-process probe of the one-way reads, for tools/ab.py --probe.

    python3 tools/mu_chain_probe.py PARENT_SRC CHANGE_SRC [READS]

Loads both packages into one process and times fresh reads, the two sides
alternating, parent first in even rounds:

- ``mu_chain``: 1600 and 3200 letters through
  run_1wft(bwd, run_1wft(fwd, w).word), with (fwd, bwd) =
  mu_transducers(2, {a, b}) and w = aba·(bbaabab)^ω; the change's composed
  machine, run_1wft(compose_1wft(bwd, fwd), w), is the floor;
- ``delay_mealy``: 4000 and 8000 letters of the delay machine on
  shift(abc·(bacabbc)^ω, 1);
- ``pi_expander``, ``pi_expander3``: 4000 and 8000 letters of the 2- and
  3-expander on π, whose runs of 0s are periodic stretches;
- ``pi_shift``: 4000 and 8000 letters of the 2-expander on shift(π, 5).

Machines are built outside the timing, once per side. Prints one JSON
object: per read, each side's minimum over READS (default 200) fresh reads
and the parent/change ratio.
"""
from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import time

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


def reads(ab):
    """name -> (letter counts, the timed read of n letters)."""
    fwd, bwd = ab.mu_transducers(2, ab.Alphabet.of("ab"))
    mu_word = ab.lasso("aba", "bbaabab")
    delay_word = ab.lasso("abc", "bacabbc")
    delay = ab.delay_mealy(delay_word.letter(0), delay_word.alphabet)
    expander, expander3 = ab.pi_k_expander_1wft(2), ab.pi_k_expander_1wft(3)
    return {
        "mu_chain": ((1600, 3200), lambda n: ab.run_1wft(bwd, ab.run_1wft(fwd, mu_word).word).letters(n)),
        "delay_mealy": ((4000, 8000), lambda n: ab.run_mealy(delay, ab.shift(delay_word, 1)).letters(n)),
        "pi_expander": ((4000, 8000), lambda n: ab.run_1wft(expander, ab.pi_word(1)).letters(n)),
        "pi_expander3": ((4000, 8000), lambda n: ab.run_1wft(expander3, ab.pi_word(1)).letters(n)),
        "pi_shift": ((4000, 8000), lambda n: ab.run_1wft(expander, ab.shift(ab.pi_word(1), 5)).letters(n)),
    }


def composed(ab):
    fwd, bwd = ab.mu_transducers(2, ab.Alphabet.of("ab"))
    machine, w = ab.compose_1wft(bwd, fwd), ab.lasso("aba", "bbaabab")
    return lambda n: ab.run_1wft(machine, w).letters(n)


def timed(src, read, n):
    load(src)
    start = time.perf_counter()
    read(n)
    return time.perf_counter() - start


def main(argv) -> int:
    srcs = {"parent": argv[1], "change": argv[2]}
    sides = {side: reads(load(src)) for side, src in srcs.items()}
    floor = composed(load(srcs["change"]))
    rounds = int(argv[3]) if len(argv) > 3 else 200
    result = {"what": "one-way reads, min of interleaved fresh reads, ms", "reads": rounds}
    for name, (counts, _read) in sides["parent"].items():
        result[name] = {}
        for n in counts:
            best = {"parent": float("inf"), "change": float("inf")}
            if name == "mu_chain":
                best["composed"] = float("inf")
            for i in range(rounds):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    best[side] = min(best[side], timed(srcs[side], sides[side][name][1], n))
                if name == "mu_chain":
                    best["composed"] = min(best["composed"], timed(srcs["change"], floor, n))
            entry = result[name][str(n)] = {f"{k}_ms": round(v * 1e3, 4) for k, v in best.items()}
            entry["speedup"] = round(best["parent"] / best["change"], 3)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
