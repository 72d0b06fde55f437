from __future__ import annotations

import pytest

from advicebench import corpus, pi_transforms
from advicebench.analysis import Equal, prefix_equiv
from advicebench.errors import (
    InvariantViolation,
    NoWindowBound,
    UndefinedTransition,
    UnstableClassification,
)
from advicebench.pi_transforms import (
    direction_partition,
    normalize_directions_on_pi,
    one_way_simulation_on_pi,
    pi_k_expander_1wft,
)
from advicebench.transducers import DEFAULT_BUDGET, ENDMARKER, LEFT, RIGHT, TwoWayTransducer, run_1wft, run_2wft
from advicebench.words import BINARY, Alphabet, lasso, pi_word

PI = pi_word(1)


def test_expander_identity_for_k1():
    machine = pi_k_expander_1wft(1)
    assert prefix_equiv(run_1wft(machine, PI), PI, 300) == Equal(300)


#: The most states a one-way simulation meets in these tests: the largest
#: normalized corpus machine has 7, the π properties draw at most 5.
SIMULATED_STATES = 7


@pytest.mark.parametrize("k", range(1, 4 * SIMULATED_STATES + 1))
def test_expander_matches_direct_word(k):
    # one_way_simulation_on_pi validates over_copies on pi_word(copies) and
    # returns it composed with the expander, so the expander must give
    # pi_word(k) for every copies = window·|Q|, window <= c_max = 4; 500
    # letters hold more than 3k blocks (0^b 1) for every k here
    machine = pi_k_expander_1wft(k)
    assert prefix_equiv(run_1wft(machine, PI), pi_word(k), 500) == Equal(500)
    assert pi_word(k).take(500).count("1") > 3 * k


def test_simulated_machines_stay_within_the_expander_tests():
    machines = (corpus.bounce_probe_2wft, corpus.stutter_cross_2wft,
                corpus.alternating_cross_2wft, corpus.revisit_probe_2wft)
    assert max(len(normalize_directions_on_pi(build()).states) for build in machines) == SIMULATED_STATES


def test_expander_strict_mode_rejects_other_words():
    machine = pi_k_expander_1wft(2, strict=True)
    outcome = run_1wft(machine, lasso("", "01"))
    with pytest.raises(UndefinedTransition):
        outcome.letters(10)


def test_partition_of_one_way_machine():
    assert direction_partition(corpus.revisit_probe_2wft()) is not None
    assert direction_partition(corpus.bounce_probe_2wft()) is None
    assert direction_partition(corpus.stutter_cross_2wft()) is None


def test_normalize_returns_already_normalized_machine_unchanged():
    machine = corpus.revisit_probe_2wft()
    assert normalize_directions_on_pi(machine) is machine


@pytest.mark.parametrize(
    "build",
    [corpus.bounce_probe_2wft, corpus.stutter_cross_2wft, corpus.alternating_cross_2wft],
)
def test_normalize_preserves_output_and_partitions(build):
    machine = build()
    normalized = normalize_directions_on_pi(machine, probe_range=300)
    assert prefix_equiv(run_2wft(normalized, PI), run_2wft(machine, PI), 300) == Equal(300)
    classes = direction_partition(normalized)
    assert classes is not None
    for (q, a), (_out, move, q2) in normalized.transitions.items():
        assert classes[q2] == move
        if a == "0":
            assert classes[q] == move


def test_one_way_simulation_requires_normalized_input():
    with pytest.raises(InvariantViolation):
        one_way_simulation_on_pi(corpus.bounce_probe_2wft())


def test_one_way_simulation_of_one_way_machine():
    machine = corpus.revisit_probe_2wft()
    # the probe machine needs a window of two blocks
    result = one_way_simulation_on_pi(machine, c_max=4, probe_range=300)
    assert result.window == 2
    got = run_1wft(result.transducer, PI)
    assert prefix_equiv(got, run_2wft(machine, PI), 300) == Equal(300)


def test_one_way_simulation_window_cap():
    with pytest.raises(NoWindowBound):
        one_way_simulation_on_pi(corpus.revisit_probe_2wft(), c_max=1)


@pytest.mark.parametrize(
    "build",
    [corpus.bounce_probe_2wft, corpus.stutter_cross_2wft, corpus.alternating_cross_2wft],
)
def test_one_way_simulation_of_normalized_machines(build):
    machine = normalize_directions_on_pi(build())
    result = one_way_simulation_on_pi(machine, c_max=4, probe_range=300)
    assert result.window == 1
    got = run_1wft(result.transducer, PI)
    assert prefix_equiv(got, run_2wft(machine, PI), 300) == Equal(300)


def test_normalize_rejects_bounded_heads():
    # a machine pinned near the endmarker has periodic output; the
    # construction refuses instead of fabricating a prologue
    from advicebench.errors import UnstableClassification
    from advicebench.transducers import ENDMARKER, LEFT, RIGHT, TwoWayTransducer
    from advicebench.words import Alphabet, BINARY

    tr = {}
    for a in ["0", "1", ENDMARKER]:
        tr[("p", a)] = (("a",), RIGHT, "q")
        tr[("q", a)] = ((), LEFT, "p")
    pinned = TwoWayTransducer({"p", "q"}, "p", BINARY, Alphabet.of("a"), tr)
    with pytest.raises(UnstableClassification):
        normalize_directions_on_pi(pinned)


def halts_on_a_one_2wft():
    """Reaches the first 1 in a state with no transition on it."""
    tr = {("q", ENDMARKER): ((), RIGHT, "q"), ("q", "0"): (("a",), RIGHT, "r"),
          ("r", "0"): ((), LEFT, "q")}
    return TwoWayTransducer({"q", "r"}, "q", BINARY, Alphabet.of("a"), tr)


def leaves_the_tape_2wft():
    """Turns back at the first 1 and steps left of the endmarker."""
    tr = {("q", ENDMARKER): (("a",), RIGHT, "q"), ("q", "1"): ((), LEFT, "r"),
          ("r", ENDMARKER): (("a",), LEFT, "q")}
    return TwoWayTransducer({"q", "r"}, "q", BINARY, Alphabet.of("a"), tr)


@pytest.mark.parametrize("build, halt", [
    (halts_on_a_one_2wft, "undefined transition at position 1, step 1"),
    (leaves_the_tape_2wft, "head moved left of the endmarker at step 2"),
], ids=["undefined-transition", "left-of-the-endmarker"])
def test_normalize_refuses_a_run_that_halts(build, halt):
    machine = build()
    assert direction_partition(machine) is None
    with pytest.raises(UnstableClassification, match=f"the run halts on the block word: {halt}"):
        normalize_directions_on_pi(machine)


def late_halt_2wft():
    """Crosses every block counting its 0s in one of four phases, of
    periods 7, 5, 4 and 3: phase one passes block j on to phase two when
    j ≡ 1 (mod 7), emitting a, and each later phase passes the next block
    on when its length has the phase's residue (1, 2, 1), else it turns
    back into the block's last 0 and restarts phase one. The last phase
    has no move on its 1, so by the Chinese remainder theorem the run
    halts at the end of block 403 (j = 400, the first solution mod 420),
    past the cell where normalization stops its walk (block 383 for 19
    states) and within the default budget of steps."""
    phases = [("a", 7, 1), ("b", 5, 1), ("c", 4, 2), ("d", 3, 1)]
    tr = {(("a", 0), ENDMARKER): ((), RIGHT, ("a", 0))}
    for i, (name, period, residue) in enumerate(phases):
        for r in range(period):
            tr[((name, r), "0")] = ((), RIGHT, (name, (r + 1) % period))
            if r == residue and i + 1 < len(phases):
                tr[((name, r), "1")] = (("a",) if i == 0 else (), RIGHT, (phases[i + 1][0], 0))
            elif r != residue:
                tr[((name, r), "1")] = ((), RIGHT, ("a", 0)) if i == 0 else ((), LEFT, ("a", 6))
    states = {(name, r) for name, period, _residue in phases for r in range(period)}
    return TwoWayTransducer(states, ("a", 0), BINARY, Alphabet.of("a"), tr)


def test_normalize_refuses_a_run_that_halts_past_its_walk_with_too_few_letters():
    machine = late_halt_2wft()
    assert direction_partition(machine) is None
    letters, halt = run_2wft(machine, PI).try_letters(300)
    assert len(letters) == 58
    assert isinstance(halt, UndefinedTransition) and halt.position == 81810 and halt.step < DEFAULT_BUDGET
    with pytest.raises(UnstableClassification, match="original output too short to validate"):
        normalize_directions_on_pi(machine)


def test_normalize_refuses_a_loop_left_of_the_stop_cell_at_its_first_repeat(monkeypatch):
    """The run turns at the first 0 and at the endmarker forever: its walk
    repeats a configuration every 4 steps, and is refused within a few
    loops, not after the |Q|·stop_pos = 369 steps that also prove it."""
    tr = {("q", ENDMARKER): ((), RIGHT, "q"), ("q", "1"): (("a",), RIGHT, "r"),
          ("r", "0"): ((), LEFT, "s"), ("s", "1"): ((), LEFT, "q")}
    machine = TwoWayTransducer({"q", "r", "s"}, "q", BINARY, Alphabet.of("a"), tr)
    assert direction_partition(machine) is None
    steps = []
    walk = pi_transforms._configurations

    def counted(*args):
        for config in walk(*args):
            steps.append(config)
            yield config

    monkeypatch.setattr(pi_transforms, "_configurations", counted)
    with pytest.raises(UnstableClassification, match="head never leaves the small-block region"):
        normalize_directions_on_pi(machine)
    assert len(steps) <= 16


def normalized_with_runs(monkeypatch, machine, probe_range, budget=None):
    """(the normalized machine, the steps of its walk, how often the original
    was run afresh to validate it), with DEFAULT_BUDGET patched to ``budget``."""
    walk, run, steps, runs = pi_transforms._configurations, pi_transforms.run_2wft, [], []

    def counted_walk(*args):
        for config in walk(*args):
            steps.append(config)
            yield config

    def counted_run(t, source, *args):
        runs.append(t is machine)
        return run(t, source, *args)

    with monkeypatch.context() as patch:
        patch.setattr(pi_transforms, "_configurations", counted_walk)
        patch.setattr(pi_transforms, "run_2wft", counted_run)
        if budget is not None:
            patch.setattr(pi_transforms, "DEFAULT_BUDGET", budget)
        result = normalize_directions_on_pi(machine, probe_range)
    return result, len(steps) - 1, runs.count(True)


@pytest.mark.parametrize("build, probe_range", [
    (corpus.bounce_probe_2wft, 300),
    (corpus.bounce_probe_2wft, 600),
    (corpus.stutter_cross_2wft, 300),
], ids=["bounce-probe-300", "bounce-probe-600", "stutter-cross-300"])
def test_normalize_validates_against_the_walks_letters_when_they_suffice(monkeypatch, build, probe_range):
    # bounce_probe's walk puts out 1037 letters; stutter_cross's puts out 135
    # and steps on to 300, so neither original is run again. Each runs afresh
    # once the walk takes DEFAULT_BUDGET steps or more
    machine = build()
    result, steps, runs = normalized_with_runs(monkeypatch, machine, probe_range)
    assert runs == 0
    for budget, fresh in ((steps + 1, 0), (steps, 1)):
        again, _steps, runs = normalized_with_runs(monkeypatch, build(), probe_range, budget)
        assert runs == fresh
        assert again.transitions == result.transitions


def test_simulation_over_copies_reads_the_expanded_word():
    machine = corpus.revisit_probe_2wft()
    result = one_way_simulation_on_pi(machine, c_max=4, probe_range=200)
    over_copies = run_1wft(result.over_copies, pi_word(result.copies))
    assert prefix_equiv(over_copies, run_2wft(machine, PI), 200) == Equal(200)


@pytest.mark.parametrize("build, window, copies, states", [
    (corpus.bounce_probe_2wft, 1, 7, 161),
    (corpus.stutter_cross_2wft, 1, 5, 85),
    (corpus.alternating_cross_2wft, 1, 7, 301),
    (corpus.revisit_probe_2wft, 2, 8, 128),
], ids=["bounce-probe", "stutter-cross", "alternating-cross", "revisit-probe"])
def test_one_way_simulation_stops_once_the_pattern_repeats(build, window, copies, states):
    # revisit-probe is already normalized and passes through unchanged
    result = one_way_simulation_on_pi(normalize_directions_on_pi(build()))
    assert (result.window, result.copies, len(result.transducer.states)) == (window, copies, states)
    assert result.steps < 1000


def test_one_way_simulation_does_not_depend_on_the_budget():
    # a 1 last visited near the end of a fixed horizon once passed for sealed,
    # so revisit-probe was refused at some budgets and accepted at others;
    # the walk now stops on a proven repeat and the replay is exact
    machine = corpus.revisit_probe_2wft()
    result = one_way_simulation_on_pi(machine)
    assert (result.window, result.copies) == (2, 8)
    assert prefix_equiv(run_1wft(result.transducer, PI), run_2wft(machine, PI), 2000) == Equal(2000)


def test_one_way_simulation_budget_is_a_cap():
    # the repeat comes within |Q|·(M + 2)² steps, M = |Q|·(1 + period_base),
    # so that bound, not a step budget, caps the walk
    for build in (corpus.bounce_probe_2wft, corpus.stutter_cross_2wft,
                  corpus.alternating_cross_2wft, corpus.revisit_probe_2wft):
        machine = normalize_directions_on_pi(build())
        n_states = len(machine.states)
        far = n_states * (1 + pi_transforms._zero_period(machine))
        assert one_way_simulation_on_pi(machine).steps <= n_states * (far + 2) ** 2, build.__name__


def test_one_way_simulation_refuses_runs_that_never_repeat():
    probe = corpus.revisit_probe_2wft()
    halting = dict(probe.transitions)
    del halting[("cr2", "0")]
    # the head passes the first 1, then shuttles between the next two forever
    shuttle = {
        ("r0", ENDMARKER): ((), RIGHT, "r0"),
        ("r0", "1"): (("b",), RIGHT, "r"),
        ("r", "0"): (("a",), RIGHT, "r"),
        ("r", "1"): (("b",), LEFT, "l"),
        ("l", "0"): (("a",), LEFT, "l"),
        ("l", "1"): (("b",), RIGHT, "r"),
    }
    for machine, why in (
        (TwoWayTransducer(probe.states, probe.initial, BINARY, BINARY, halting), "halts"),
        (TwoWayTransducer({"r0", "r", "l"}, "r0", BINARY, Alphabet.of("ab"), shuttle), "loops"),
    ):
        assert direction_partition(machine) is not None
        with pytest.raises(UnstableClassification, match=why):
            one_way_simulation_on_pi(machine)


def test_a_replay_whose_cycle_is_silent_is_refused_before_validation(monkeypatch):
    # one letter on the endmarker, then nothing ever: the 300 letters a
    # validation needs never come, which the proven cycle already shows
    tr = {("q", a): ((), RIGHT, "q") for a in BINARY.letters}
    tr[("q", ENDMARKER)] = (("a",), RIGHT, "q")
    machine = TwoWayTransducer({"q"}, "q", BINARY, Alphabet.of("a"), tr)

    def validate(*_args, **_kwargs):
        raise AssertionError("validation ran")

    monkeypatch.setattr(pi_transforms, "_validate_prefix", validate)
    with pytest.raises(UnstableClassification, match="original output too short to validate"):
        one_way_simulation_on_pi(machine)
