"""In-process probe of LTL evaluation on lassos, for tools/ab.py --probe.

    python3 tools/ltl_probe.py PARENT_SRC CHANGE_SRC [BATCHES]

Loads both packages into one process and times eval_lasso at position 0
of the decide workload's two formulas, G (T U a) and
(a U b) | G (a | X b), on lassos of |uv| = 8, 301 and 601 letters: u of 3
random letters over {a, b}, v random but for its last two letters ab.

- ``text``: lasso(u, v), which keeps its text;
- ``tuple``: lasso(u, v, Alphabet.of("ab")), which keeps letter tuples.

Every call gets a fresh word, built outside the timing, so nothing a word
caches carries over. Each timing is a batch of 5 calls of each formula;
the two sides alternate, parent first in even rounds. Prints one JSON
object: per kind and size, each side's minimum over BATCHES (default 30)
batches, per call, and the parent/change ratio.
"""
from __future__ import annotations

import json
import random
import sys
import time

from mu_chain_probe import load

SIZES = (8, 301, 601)
BATCH = 5
FORMULAS = ("G (T U a)", "(a U b) | G (a | X b)")


def halves(n):
    rng = random.Random(n)
    letters = "".join(rng.choice("ab") for _ in range(n - 2)) + "ab"
    return letters[:3], letters[3:]


def timed(src, kind, u, v):
    ab = load(src)
    alphabet = ab.Alphabet.of("ab") if kind == "tuple" else None
    calls = [(f, ab.lasso(u, v, alphabet)) for f in map(ab.parse_formula, FORMULAS) for _ in range(BATCH)]
    start = time.perf_counter()
    for f, w in calls:
        ab.eval_lasso(f, w)
    return (time.perf_counter() - start) / len(calls)


def main(argv) -> int:
    srcs = {"parent": argv[1], "change": argv[2]}
    for src in srcs.values():
        load(src)
    batches = int(argv[3]) if len(argv) > 3 else 30
    result = {"what": "eval_lasso on fresh lassos, min of interleaved batches of 5 per formula, ms per call",
              "batches": batches}
    for kind in ("text", "tuple"):
        result[kind] = {}
        for n in SIZES:
            u, v = halves(n)
            best = {"parent": float("inf"), "change": float("inf")}
            for i in range(batches):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    best[side] = min(best[side], timed(srcs[side], kind, u, v))
            entry = result[kind][str(n)] = {f"{k}_ms": round(t * 1e3, 4) for k, t in best.items()}
            entry["speedup"] = round(best["parent"] / best["change"], 3)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
