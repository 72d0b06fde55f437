"""In-process probe of the word layer under the stream mirror ops, for
tools/ab.py --probe.

    python3 tools/word_probe.py PARENT_SRC CHANGE_SRC [BATCHES]

Loads both packages into one process and times, at 4000 and 8000 letters
per '#'-block, on u = x#, v = y# with x, y random over {a, b}:

- ``lasso``: lasso(u, v);
- ``mirror_read``: the reference read, n letters of block_mirror(w) for the
  lasso w = u·v^ω built outside the timing;
- ``mirror_2wft``, ``mirror_2wftb``, ``mirror_sst``: the stream ops,
  prefix_equiv(run(machine, w), block_mirror(w), n) with w = lasso(u, v)
  built inside the timing, as perfbench's mirror ops do.

Machines are built outside the timing, once per side. Each timing is a
batch of 5 calls; the two sides alternate, parent first in even rounds.
Prints one JSON object: per read and size, each side's minimum over
BATCHES (default 30) batches, per call, and the parent/change ratio.
"""
from __future__ import annotations

import json
import random
import sys
import time

from mu_chain_probe import load

SIZES = (4000, 8000)
BATCH = 5


def texts(n):
    rng = random.Random(n)
    return ["".join(rng.choice("ab") for _ in range(n)) + "#" for _ in range(2)]


def reads(ab):
    """name -> the timed call on (u, v, n), as a function of n's texts."""
    corpus = sys.modules["advicebench.corpus"]
    gamma = ab.Alphabet.of("ab")
    sst = corpus.mirror_sst(gamma)
    engines = {
        "mirror_2wft": (ab.run_2wft, ab.mirror_blocks_2wft(gamma)),
        "mirror_2wftb": (ab.run_2wft_b, ab.compile_sst_to_2wftb(sst)),
        "mirror_sst": (ab.run_sst, sst),
    }

    def mirror_op(run, machine):
        def call(u, v, n, _w):
            w = ab.lasso(u, v)
            return ab.prefix_equiv(run(machine, w), ab.block_mirror(w), n)
        return call

    calls = {
        "lasso": lambda u, v, n, _w: ab.lasso(u, v),
        "mirror_read": lambda u, v, n, w: ab.block_mirror(w).take(n),
    }
    calls.update((name, mirror_op(*engine)) for name, engine in engines.items())
    return calls


def timed(src, call, u, v, n, w):
    load(src)
    start = time.perf_counter()
    for _ in range(BATCH):
        call(u, v, n, w)
    return (time.perf_counter() - start) / BATCH


def main(argv) -> int:
    srcs = {"parent": argv[1], "change": argv[2]}
    sides = {side: reads(load(src)) for side, src in srcs.items()}
    batches = int(argv[3]) if len(argv) > 3 else 30
    result = {"what": "word layer of the mirror ops, min of interleaved batches of 5, ms per call",
              "batches": batches}
    for name in sides["parent"]:
        result[name] = {}
        for n in SIZES:
            u, v = texts(n)
            words = {side: load(src).lasso(u, v) for side, src in srcs.items()}
            best = {"parent": float("inf"), "change": float("inf")}
            for i in range(batches):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    best[side] = min(best[side], timed(srcs[side], sides[side][name], u, v, n, words[side]))
            entry = result[name][str(n)] = {f"{k}_ms": round(t * 1e3, 4) for k, t in best.items()}
            entry["speedup"] = round(best["parent"] / best["change"], 3)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
