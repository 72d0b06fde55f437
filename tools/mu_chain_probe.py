"""In-process probe of the mu_chain pipeline, for tools/ab.py --probe.

    python3 tools/mu_chain_probe.py PARENT_SRC CHANGE_SRC [READS]

Loads both packages into one process and times reads of 1600 and 3200
letters through run_1wft(bwd, run_1wft(fwd, w).word), with (fwd, bwd) =
mu_transducers(2, {a, b}) and w = aba·(bbaabab)^ω, the two sides
alternating, parent first in even rounds. Prints one JSON object: per
length, each side's minimum over READS (default 200) fresh reads, the
parent/change ratio, and the change's composed machine,
run_1wft(compose_1wft(bwd, fwd), w), as the floor.
"""
from __future__ import annotations

import importlib
import json
import sys
import time


def load(src: str):
    """The advicebench package under ``src``; a package loaded before stays
    usable through the module object it returned."""
    for name in [n for n in sys.modules if n == "advicebench" or n.startswith("advicebench.")]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        return importlib.import_module("advicebench")
    finally:
        sys.path.remove(src)


def chain_read(ab, n):
    fwd, bwd = ab.mu_transducers(2, ab.Alphabet.of("ab"))
    w = ab.lasso("aba", "bbaabab")
    start = time.perf_counter()
    ab.run_1wft(bwd, ab.run_1wft(fwd, w).word).letters(n)
    return time.perf_counter() - start


def composed_read(ab, n):
    fwd, bwd = ab.mu_transducers(2, ab.Alphabet.of("ab"))
    w = ab.lasso("aba", "bbaabab")
    machine = ab.compose_1wft(bwd, fwd)
    start = time.perf_counter()
    ab.run_1wft(machine, w).letters(n)
    return time.perf_counter() - start


def main(argv) -> int:
    sides = {"parent": load(argv[1]), "change": load(argv[2])}
    reads = int(argv[3]) if len(argv) > 3 else 200
    result = {"what": "mu_chain reads, min of interleaved fresh reads, ms", "reads": reads, "letters": {}}
    for n in (1600, 3200):
        best = {"parent": float("inf"), "change": float("inf"), "composed": float("inf")}
        for i in range(reads):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                best[side] = min(best[side], chain_read(sides[side], n))
            best["composed"] = min(best["composed"], composed_read(sides["change"], n))
        result["letters"][str(n)] = {f"{k}_ms": round(v * 1e3, 4) for k, v in best.items()}
        result["letters"][str(n)]["speedup"] = round(best["parent"] / best["change"], 3)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
