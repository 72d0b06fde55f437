from __future__ import annotations

import random

import pytest

from advicebench.analysis import (
    Diverges,
    Equal,
    Inconclusive,
    _validate_image,
    _validate_prefix,
    check_subword_bound,
    padding_check,
    prefix_equiv,
    subword_complexity,
)
from advicebench.errors import BudgetExceeded, NonProductive, UnstableClassification, ValidationFailed
from advicebench.ltl import parse_formula
from advicebench.mealy import MealyMachine, mealy_image_lasso
from advicebench.transducers import (
    ENDMARKER,
    RIGHT,
    FiniteImage,
    OneWayTransducer,
    TwoWayTransducer,
    lasso_image,
    run_1wft,
    run_2wft,
)
from advicebench.words import PAD, Alphabet, convolve_lassos, duplicate, lasso, pi_word, shift, word

AB = Alphabet.of("ab")


def random_total_mealy(rng, alphabet, max_states=5):
    n = rng.randint(1, max_states)
    states = list(range(n))
    return MealyMachine(
        states, 0, alphabet, alphabet,
        {(q, a): (rng.choice(alphabet.letters), rng.choice(states))
         for q in states for a in alphabet.letters},
    )


def test_complexity_of_periodic_word():
    profile = subword_complexity(lasso("", "01"), 3)
    assert profile.counts == {1: 2, 2: 2, 3: 2}
    assert all(profile.exact.values())


def test_complexity_of_constant_word():
    profile = subword_complexity(lasso("", "a"), 5)
    assert all(count == 1 for count in profile.counts.values())


def test_complexity_of_growing_blocks():
    profile = subword_complexity(pi_word(1), 2, window=4096)
    assert profile.counts[2] == 3  # 10, 01, 00; adjacent ones never occur
    assert profile.stable[2]
    assert not profile.exact[2]


def test_a_lasso_profile_counts_only_up_to_the_first_repeat(monkeypatch):
    import advicebench.analysis as analysis

    calls = []
    factors = analysis._factors
    monkeypatch.setattr(analysis, "_factors", lambda *args: calls.append(args[1]) or factors(*args))
    profile = subword_complexity(lasso("", "ab"), 100000)
    assert calls == [1, 2]  # p(1) = p(2) = 2: constant from there on
    assert set(profile.counts) == set(range(1, 100001))
    assert set(profile.counts.values()) == {2}
    assert all(profile.exact.values()) and all(profile.stable.values())
    assert profile.window == 100002


@pytest.mark.parametrize("w, window", [(pi_word(1), 4), (pi_word(3), 7), (shift(pi_word(1), 5), 16),
                                       (duplicate(pi_word(2), 2), 9)])
def test_a_window_profile_past_the_doubled_window_is_the_full_loops(w, window):
    """Past k = 2·window the counts are filled in, not computed; they equal
    a count of every k over the window and the doubled window."""
    k_max = 3 * window + 5
    letters = w.take(2 * window)
    counts, stable = {}, {}
    for k in range(1, k_max + 1):
        split = max(window - k + 1, 0)
        inside = {tuple(letters[i:i + k]) for i in range(split)}
        both = inside | {tuple(letters[i:i + k]) for i in range(split, max(2 * window - k + 1, 0))}
        counts[k], stable[k] = len(both), len(inside) == len(both)
    profile = subword_complexity(w, k_max, window)
    assert profile.counts == counts
    assert profile.stable == stable
    assert profile.exact == dict.fromkeys(range(1, k_max + 1), False)
    assert profile.window == 2 * window


def test_complexity_eventually_constant_for_lassos():
    for w in (lasso("", "ab"), lasso("ba", "aab"), lasso("", "aabab")):
        span = len(w.u) + len(w.v)
        profile = subword_complexity(w, span + 4)
        assert profile.counts[span] == profile.counts[span + 1]
        assert profile.counts[span + 1] == profile.counts[span + 2]


def test_bound_holds_for_identity():
    w = lasso("a", "ab")
    report = check_subword_bound(w, w, 1, k_max=6)
    assert report.holds and report.conclusive


def test_bound_violation_detected():
    rich = lasso("", "aabb")  # four factors of length 2
    poor = lasso("", "a")
    report = check_subword_bound(rich, poor, 2, k_max=2)
    assert not report.holds
    assert report.violations and report.violations[0][0] == 2


def test_bound_for_machine_images():
    rng = random.Random(71)
    for _ in range(5):
        machine = random_total_mealy(rng, AB)
        beta = lasso("a", "abb")
        alpha = mealy_image_lasso(machine, beta)
        report = check_subword_bound(alpha, beta, len(machine.states) ** 2, k_max=8)
        assert report.holds and report.conclusive


def test_prefix_equiv_verdicts():
    assert prefix_equiv(lasso("", "ab"), lasso("", "ab"), 100) == Equal(100)
    left = lasso("", "ab")
    right = lasso("ababababab", "ba")
    verdict = prefix_equiv(left, right, 100)
    assert verdict == Diverges(10, "a", "b")


def test_prefix_equiv_names_the_first_difference_of_product_letters_and_pad():
    tail = lasso("", "ab")
    left = convolve_lassos(word("ab"), tail)  # (a,a) (b,b) (□,a) (□,b) ...
    right = convolve_lassos(word("abb"), tail)  # (a,a) (b,b) (b,a) (□,b) ...
    assert prefix_equiv(left, right, 50) == Diverges(2, (PAD, "a"), ("b", "a"))
    assert prefix_equiv(left, right, 2) == Equal(2)
    late = convolve_lassos(word("ab" * 500), tail)
    assert prefix_equiv(late, convolve_lassos(word("ab" * 500 + "b"), tail), 2000) == Diverges(
        1000, (PAD, "a"), ("b", "a"))
    assert prefix_equiv(lasso("", "b"), lasso("", "a"), 9) == Diverges(0, "b", "a")


def test_prefix_equiv_is_inconclusive_where_the_shorter_source_ends():
    assert prefix_equiv(word("abab"), lasso("", "ab"), 10) == Inconclusive(4, "ended")
    assert prefix_equiv(lasso("", "ab"), word("ab"), 10) == Inconclusive(2, "ended")
    assert prefix_equiv(word("ab"), word("abab"), 10) == Inconclusive(2, "ended")
    assert prefix_equiv(word("ab"), word("ab"), 3) == Inconclusive(2, "ended")
    assert prefix_equiv(word("abab"), lasso("", "ab"), 4) == Equal(4)
    # a difference before the shorter source ends is the verdict
    assert prefix_equiv(word("abb"), lasso("", "ab"), 10) == Diverges(2, "b", "a")


def test_prefix_equiv_symmetric_and_transitive_when_equal():
    a, b, c = lasso("", "ab"), lasso("ab", "ab"), lasso("abab", "ab")
    n = 60
    assert prefix_equiv(a, b, n) == Equal(n) == prefix_equiv(b, a, n)
    assert prefix_equiv(b, c, n) == Equal(n)
    assert prefix_equiv(a, c, n) == Equal(n)


def test_prefix_equiv_stall():
    from advicebench.transducers import OneWayTransducer, run_1wft

    silent_after = OneWayTransducer(
        {"go", "stop"}, "go", AB, AB,
        {
            ("go", "a"): (("a",), "go"),
            ("go", "b"): ((), "stop"),
            ("stop", "a"): ((), "stop"),
            ("stop", "b"): ((), "stop"),
        },
    )
    outcome = run_1wft(silent_after, lasso("aaab", "a"), budget=100)
    verdict = prefix_equiv(outcome, lasso("", "a"), 10)
    assert isinstance(verdict, Inconclusive)
    assert verdict.index == 3
    assert isinstance(verdict.status, BudgetExceeded)


def test_padding_for_eventually():
    table = padding_check(parse_formula("F b"), lasso("aaab", "a"), n_range=8)
    # positions 0..3 see the b after 4..1 more letters; afterwards never
    assert table.entries[:4] == [4, 3, 2, 1]
    assert all(entry is None for entry in table.entries[4:])


def test_padding_for_top_is_zero():
    table = padding_check(parse_formula("T"), lasso("", "ab"), n_range=5)
    assert table.entries == [0] * 6


def test_padding_for_atom():
    table = padding_check(parse_formula("a"), lasso("", "ab"), n_range=6)
    for n, entry in enumerate(table.entries):
        if n % 2 == 0:
            assert entry == 1
        else:
            assert entry is None


def test_padding_threshold_matches_monotonicity():
    from advicebench.ltl import eliminate_g_subformulas, finite_prefix_eval, nnf
    from advicebench.words import FiniteWord

    advice = lasso("ab", "ba")
    phi = parse_formula("a U b")
    table = padding_check(phi, advice, n_range=10)
    rewritten = eliminate_g_subformulas(nnf(phi), advice).formula
    for n, entry in enumerate(table.entries):
        if entry is None or entry == "cap":
            continue
        for k in range(entry + 3):
            prefix = FiniteWord(tuple(advice.letter(n + i) for i in range(k)), advice.alphabet)
            assert finite_prefix_eval(rewritten, prefix, 0) == (k >= entry)


def test_a_short_original_is_refused_before_the_result_takes_a_step():
    # one letter on the endmarker, then nothing ever: 5 letters never come
    tr = {("q", a): ((), RIGHT, "q") for a in AB.letters}
    tr[("q", ENDMARKER)] = (("a",), RIGHT, "q")
    quiet = TwoWayTransducer({"q"}, "q", AB, AB, tr)
    w = lasso("", "ab")
    result = run_2wft(quiet, w, budget=50)
    with pytest.raises(UnstableClassification, match="original output too short to validate"):
        _validate_prefix(result, run_2wft(quiet, w, budget=50), 5, "a construction")
    assert result.produced == 0


def one_way(tr):
    """A one-state 1wft over ab: tr maps a letter to the letters it emits,
    and a letter missing from tr halts the run."""
    return OneWayTransducer({"q"}, "q", AB, AB, {("q", a): (tuple(out), "q") for a, out in tr.items()})


COPIER = one_way({"a": "a", "b": "b"})


@pytest.mark.parametrize("machine, original, index, message", [
    (COPIER, "abba", 2, "a construction changed the output"),  # (ab)^ω differs at letter 2
    (one_way({"a": "a"}), "abab", 1, "a construction changed the output length"),  # halts on the first b
])
def test_a_result_that_diverges_or_stops_early_is_refused_at_the_first_difference(machine, original, index,
                                                                                   message):
    with pytest.raises(ValidationFailed, match=f"^{message}$") as err:
        _validate_prefix(run_1wft(machine, lasso("", "ab")), word(original, AB), 4, "a construction")
    assert err.value.position == index


@pytest.mark.parametrize("machine, image, index", [
    (COPIER, lasso("", "abb", AB), 2),  # another lasso: (ab)^ω and (abb)^ω differ at letter 2
    (COPIER, FiniteImage(word("ab", AB), NonProductive(("a", "b"))), 2),  # a lasso against a finite image
    # the same letter a, but the result halts where the original loops silently
    (one_way({"a": "a"}), FiniteImage(word("a", AB), NonProductive(("a",))), 1),
])
def test_a_result_with_another_image_is_refused_at_the_first_difference(machine, image, index):
    w = lasso("", "ab")
    _validate_image(machine, lasso_image(machine, w), w, "a construction")
    with pytest.raises(ValidationFailed, match="^a construction changed the output$") as err:
        _validate_image(machine, image, w, "a construction")
    assert err.value.position == index
