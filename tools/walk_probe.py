"""In-process probe of the lasso and block-word walks, for tools/ab.py --probe.

    python3 tools/walk_probe.py PARENT_SRC CHANGE_SRC [READS]

Loads both packages into one process and times fresh calls of the
constructions that walk a two-way run configuration by configuration:
lasso_image of the block mirror on a·(a^100 b^100 #)^ω and of the compiled
interleave SST on (aab#)^ω, remove_endmarker of the block mirror and
eliminate_lookbehind_lasso of the compiled mirror SST on a·(a^100 b^100 #)^ω,
and normalize_directions_on_pi of bounce_probe and stutter_cross. Each call gets a machine built just before it, outside the
timing, so it pays its table fills as a construction does. The two sides
alternate, parent first in even rounds. Prints one JSON object: per call,
each side's minimum over READS (default 50) calls and the parent/change
ratio.
"""
from __future__ import annotations

import json
import sys
import time

from mu_chain_probe import load


def calls(ab):
    """name -> (build a fresh machine, the call timed on it)."""
    corpus = sys.modules["advicebench.corpus"]

    blocks = ab.Alphabet.of("ab")
    mirror_word = ab.lasso("a", "a" * 100 + "b" * 100 + "#")
    interleave_word = ab.lasso("", "aab#")
    return {
        "lasso_image_mirror": (lambda: ab.mirror_blocks_2wft(blocks),
                               lambda t: ab.lasso_image(t, mirror_word)),
        "lasso_image_interleave_2wftb": (lambda: ab.compile_sst_to_2wftb(corpus.interleave_sst()),
                                         lambda t: ab.lasso_image(t, interleave_word)),
        "remove_endmarker_mirror": (lambda: ab.mirror_blocks_2wft(blocks),
                                    lambda t: ab.remove_endmarker(t, mirror_word)),
        "unlookbehind_mirror_2wftb": (lambda: ab.compile_sst_to_2wftb(corpus.mirror_sst()),
                                      lambda t: ab.eliminate_lookbehind_lasso(t, mirror_word)),
        "normalize_bounce_probe": (corpus.bounce_probe_2wft, ab.normalize_directions_on_pi),
        "normalize_stutter_cross": (corpus.stutter_cross_2wft, ab.normalize_directions_on_pi),
    }


def timed(src, build, call):
    load(src)  # the constructions import some modules at call time
    machine = build()
    start = time.perf_counter()
    call(machine)
    return time.perf_counter() - start


def main(argv) -> int:
    srcs = {"parent": argv[1], "change": argv[2]}
    sides = {side: calls(load(src)) for side, src in srcs.items()}
    reads = int(argv[3]) if len(argv) > 3 else 50
    result = {"what": "two-way walks, min of interleaved fresh calls, ms", "reads": reads, "calls": {}}
    for name in sides["parent"]:
        best = {"parent": float("inf"), "change": float("inf")}
        for i in range(reads):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                best[side] = min(best[side], timed(srcs[side], *sides[side][name]))
        result["calls"][name] = {f"{k}_ms": round(v * 1e3, 4) for k, v in best.items()}
        result["calls"][name]["speedup"] = round(best["parent"] / best["change"], 3)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
