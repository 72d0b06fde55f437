"""Word measurements and the validation oracles used across the package.

Subword complexity is exact for lasso words (one period plus context
exhausts the factor set) and a stability-flagged lower bound otherwise.
``prefix_equiv`` is the universal letterwise comparison between any two
letter sources, including machine runs that may stall.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import CapTooSmall, UnstableClassification, ValidationFailed
from .ltl import _prefix_rows
from .transducers import RunOutcome, lasso_image
from .words import FiniteWord, InfiniteWord, LassoWord


@dataclass
class ComplexityProfile:
    word: object
    counts: dict  # k -> number of distinct length-k factors
    exact: dict  # k -> bool
    stable: dict  # k -> bool (count unchanged when the window doubles)
    window: int


def _factors(letters, k: int, start: int, stop: int) -> set:
    """The length-k factors of ``letters`` that begin at start..stop-1: one
    tuple per beginning, zipped from k shifted slices."""
    return set(zip(*(letters[start + j: stop + j] for j in range(k))))


def subword_complexity(w: InfiniteWord, k_max: int, window: int = 2048) -> ComplexityProfile:
    """Distinct-factor counts for k = 1..k_max.

    Lasso words get exact counts from one preperiod-plus-period span;
    anything else gets a lower bound from a window, with a note on whether
    doubling the window changes it.

    On a lasso every factor begins within the span, so p(k) <= span, and
    once p(k) = p(k - 1), with p(0) = 1, p stays constant (Morse–Hedlund):
    counts are computed up to that repeat, by k = span, and copied after it.
    In a window no factor is longer than the doubled window: from there on
    the count is 0, and stable.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    counts: dict = {}
    exact: dict = {}
    stable: dict = {}
    if isinstance(w, LassoWord):
        span = len(w.u) + len(w.v)
        letters = w.take(span + min(k_max, span) - 1)
        k, count, last = 0, 1, None
        while k < k_max and count != last:
            k, last = k + 1, count
            counts[k] = count = len(_factors(letters, k, 0, span))
        counts.update(dict.fromkeys(range(k + 1, k_max + 1), count))
        exact = dict.fromkeys(counts, True)
        return ComplexityProfile(w, counts, exact, dict(exact), span + k_max)
    letters = w.take(2 * window)
    top = max(min(k_max, 2 * window), 0)  # no factor is longer than the doubled window
    for k in range(1, top + 1):
        split = max(window - k + 1, 0)
        factors = _factors(letters, k, 0, split)
        in_window = len(factors)
        factors |= _factors(letters, k, split, max(2 * window - k + 1, 0))
        counts[k] = len(factors)
        exact[k] = False
        stable[k] = in_window == len(factors)
    rest = range(top + 1, k_max + 1)
    counts.update(dict.fromkeys(rest, 0))
    exact.update(dict.fromkeys(rest, False))
    stable.update(dict.fromkeys(rest, True))
    return ComplexityProfile(w, counts, exact, stable, 2 * window)


@dataclass
class BoundReport:
    factor: int
    holds: bool
    conclusive: bool
    violations: list  # (k, left count, allowed)


def check_subword_bound(alpha: InfiniteWord, beta: InfiniteWord, factor: int,
                        k_max: int = 8, window: int = 2048) -> BoundReport:
    """Verify count_alpha(k) <= factor * count_beta(k) for k up to k_max.

    A violation is only conclusive when beta's profile is exact (so the
    right-hand side is not an undercount).
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    pa = subword_complexity(alpha, k_max, window)
    pb = subword_complexity(beta, k_max, window)
    violations = []
    conclusive = True
    for k in range(1, k_max + 1):
        if pa.counts[k] > factor * pb.counts[k]:
            violations.append((k, pa.counts[k], factor * pb.counts[k]))
            if not pb.exact[k]:
                conclusive = False
        elif not pa.exact[k]:
            conclusive = False
    return BoundReport(factor, not violations, conclusive, violations)


@dataclass(frozen=True)
class Equal:
    length: int


@dataclass(frozen=True)
class Diverges:
    index: int
    left: object
    right: object


@dataclass(frozen=True)
class Inconclusive:
    index: int
    status: object


def _pull(source, n):
    """(letters, halt): up to n letters from a word or a run outcome."""
    if isinstance(source, RunOutcome):
        return source.try_letters(n)
    if isinstance(source, FiniteWord):
        return list(source.letters[:n]), None if len(source) >= n else "ended"
    return source.take(n), None


def prefix_equiv(a, b, n: int):
    """Compare two letter sources over n positions.

    Returns Equal(n), the first Diverges(i, left, right), or
    Inconclusive(i, status) if a source stops producing at i.
    """
    if n < 1:
        raise ValueError("comparison length must be >= 1")
    la, ha = _pull(a, n)
    lb, hb = _pull(b, n)
    m = min(len(la), len(lb))
    # one list comparison; indices are scanned only to name a difference
    if (la if len(la) == m else la[:m]) != (lb if len(lb) == m else lb[:m]):
        i = next(i for i in range(m) if la[i] != lb[i])
        return Diverges(i, la[i], lb[i])
    if m < n:
        return Inconclusive(m, ha if len(la) <= len(lb) else hb)
    return Equal(n)


def _validate_prefix(result: RunOutcome, original, n: int, what: str):
    """Refuse a construction whose run differs from the original's within n letters.

    ``original`` is the original's run, or a FiniteWord of its letters.
    Lengths count. An original shorter than n raises UnstableClassification;
    it is read first, so the result then takes no step. Pass runs with the
    default budget: with a small one a run that comes back late looks stalled.
    """
    if len(_pull(original, n)[0]) < n:
        raise UnstableClassification("original output too short to validate")
    verdict = prefix_equiv(result, original, n)
    if isinstance(verdict, Diverges):
        raise ValidationFailed(verdict.index, f"{what} changed the output")
    if isinstance(verdict, Inconclusive):
        raise ValidationFailed(verdict.index, f"{what} changed the output length")


def _validate_image(result, image, w: LassoWord, what: str):
    """Refuse a construction whose exact image on the lasso w differs from
    ``image``, the original's: other canonical letters, or finite letters
    ending another way. The construction's own walk of the original gives
    ``image`` (transducers._cut_image), so only the result is walked here."""
    images = [lasso_image(result, w), image]
    keys = [(x.u.letters, x.v.letters, None) if isinstance(x, LassoWord)
            else (x.word.letters, (), type(x.reason)) for x in images]
    if keys[0] != keys[1]:
        n = 1 + sum(len(pre) + len(per) for pre, per, _end in keys)  # a difference shows by n (Fine–Wilf)
        words = [x if isinstance(x, LassoWord) else x.word for x in images]
        raise ValidationFailed(prefix_equiv(*words, n).index, f"{what} changed the output")


#: Table entry marking positions where the predicate is false.
NO_ENTRY = None


@dataclass
class PaddingTable:
    entries: list  # per position: padding length, NO_ENTRY, or "cap"
    cap: int
    stabilization: int


def padding_check(phi, advice: LassoWord, n_range: int = 30, n_cap: int | None = None) -> PaddingTable:
    """For each position, the least prefix length of the suffix witnessing
    the formula, where the formula holds; gaps elsewhere.

    The witness search uses the Globally-free rewriting of the formula on
    the fixed advice word.
    """
    report, n_cap, rows = _prefix_rows(phi, advice, n_range + 1, n_cap, 0)
    entries = []
    for n, holds, witness in rows:
        if not holds:
            entries.append(NO_ENTRY)
        elif witness is not None:
            entries.append(witness)
        elif n >= report.stabilization:
            raise CapTooSmall(n, n_cap)
        else:
            entries.append("cap")
    return PaddingTable(entries, n_cap, report.stabilization)
