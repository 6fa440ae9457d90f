import itertools
import json
import os
import random

import pytest

from helpers import enumerate_interval_tests, reference_forced_size
from movingsearch.adaptive import (
    cycle_capacity,
    cycle_strategy,
    path_capacity,
    path_shifting_strategy,
    path_strategy,
)
from movingsearch import adversary
from movingsearch.adversary import (
    CounterCertificate,
    Transcript,
    _forced_size,
    greedy_adversary,
    greedy_forced_size,
    margin_adversary,
    margin_forced_size,
    margin_start,
    matrix_counter,
    window_adversary,
    window_step,
)
from movingsearch.errors import BudgetExceededError
from movingsearch.kernel import MAX_SUBSET_N, TEST_CLASSES, Arena, mask_of
from movingsearch.nonadaptive import TestMatrix, evaluate_matrix, expanding_accuracy_matrix
from movingsearch.spaces import (
    PositionSet,
    Topology,
    consistent_walk_exists,
    cycle,
    full_set,
    is_valid_walk,
    path,
    update,
)

P = PositionSet.parse


# -- independent reference: minimax over all adversaries -------------------------


def class_tests(space, test_class):
    """The informative tests of the class, from the reference enumerator or
    the bits of every proper nonempty mask."""
    if test_class == "intervals":
        return enumerate_interval_tests(space)
    n = space.num_vertices
    return [
        PositionSet.from_members(v + 1 for v in range(n) if m >> v & 1)
        for m in range(1, (1 << n) - 1)
    ]


def minimax_final_size(space, rounds, test_class="intervals"):
    """Independent re-derivation: best forced final size over ALL adversaries."""
    tests = class_tests(space, test_class)
    memo = {}

    def go(d, left):
        if left == 0:
            return len(d)
        key = (d, left)
        if key in memo:
            return memo[key]
        best = go(update(space, d, PositionSet.empty(), 0), left - 1)
        seen = set()
        for t in tests:
            e1 = d & t
            if not e1 or e1 == d or e1 in seen:
                continue
            seen.add(e1)
            worst = max(
                go(update(space, d, t, y), left - 1) for y in (0, 1)
            )
            best = min(best, worst)
        memo[key] = best
        return best

    return go(full_set(space), rounds)


# -- greedy ---------------------------------------------------------------------


def test_greedy_single_round_bounds():
    assert greedy_forced_size(cycle(9, 1), 1) >= 6
    assert greedy_forced_size(path(7, 1), 1, test_class="all_subsets") >= 5


def test_greedy_no_rounds_transcript():
    tr = greedy_adversary(path(5, 1), [], rounds=0)
    assert tr.rounds == () and tr.final_candidates == P("1-5")


def test_greedy_ties_answer_zero():
    tr = greedy_adversary(path(8, 1), [P("1-4")], rounds=1)
    assert tr.answers() == [0]
    assert tr.final_candidates == P("4-8")


def test_greedy_transcripts_are_realizable():
    st = cycle_strategy(12, 5, 1)
    tr = greedy_adversary(tr_space := st.space, st)
    for i in range(1, len(tr.rounds) + 1):
        walk = consistent_walk_exists(tr_space, tr.tests()[:i], tr.answers()[:i])
        assert walk is not None and is_valid_walk(tr_space, walk)


@pytest.mark.parametrize(
    "space", [path(7, 1), path(9, 1), cycle(7, 1), cycle(9, 1)]
)
def test_greedy_matches_interval_minimax_small(space):
    for rounds in (1, 2, 3):
        greedy = greedy_forced_size(space, rounds)
        exact = minimax_final_size(space, rounds)
        assert greedy == exact


def test_greedy_never_exceeds_true_adversary_value():
    for space in (path(6, 1), cycle(6, 1), path(7, 1)):
        for rounds in (1, 2):
            greedy = greedy_forced_size(space, rounds, test_class="all_subsets")
            exact = minimax_final_size(space, rounds, test_class="all_subsets")
            assert greedy <= exact


def test_greedy_refutes_above_cycle_capacity():
    for n, s in itertools.product((1, 2, 3), (5, 6)):
        over = cycle_capacity(n, s, 1) + 1
        assert greedy_forced_size(cycle(over, 1), n) >= s + 1


def test_sweeps_reproduce_golden_table():
    """Values recorded from the PositionSet interval-algebra sweeps before
    they moved onto the bitmask kernel: every instance the tests and the
    capacity checks sweep, greedy on paths and cycles with N <= 10
    (intervals) or N <= 8 (all subsets), margin on paths with N <= 8, and
    path(17, 2) at 3 tests, the smallest interval instance with N <= 22,
    k <= 3 and at most 4 tests whose value depends on the greedy tie rule.
    "ValueError" marks an arena too small for the margin start set."""
    with open(os.path.join(os.path.dirname(__file__), "sweep_golden.json")) as fh:
        rows = json.load(fh)
    make = {"path": path, "cycle": cycle}
    wrong = []
    for sweep, topology, n_vertices, k, rounds, s, test_class, want in rows:
        space = make[topology](n_vertices, k)
        try:
            if sweep == "greedy":
                got = greedy_forced_size(space, rounds, test_class)
            else:
                got = margin_forced_size(space, rounds, s, test_class)
        except ValueError:
            got = "ValueError"
        if got != want:
            wrong.append((sweep, topology, n_vertices, k, rounds, s, test_class, want, got))
    assert len(rows) == 701
    assert wrong == []


def test_sweeps_match_the_reference_sweep():
    """The sweeps over ``Arena.splits`` against the former loop over every
    test mask of the class: greedy from the full arena (all subsets up to
    N=10) and margin at s = 4k..4k+3, where too small an arena must raise
    for both."""
    cases = 0
    for make in (path, cycle):
        for n_vertices in range(1, 13):
            for k in (1, 2, 3):
                space = make(n_vertices, k)
                for test_class in ("intervals", "all_subsets"):
                    for rounds in range(4):
                        where = (space, test_class, rounds)
                        if test_class == "intervals" or n_vertices <= 10:
                            want = reference_forced_size(
                                Arena(space), (1 << n_vertices) - 1, rounds, test_class, 0
                            )
                            assert greedy_forced_size(space, rounds, test_class) == want, where
                            cases += 1
                        for s in range(4 * k, 4 * k + 4):
                            try:
                                start = mask_of(margin_start(space, rounds, s))
                            except ValueError:
                                with pytest.raises(ValueError):
                                    margin_forced_size(space, rounds, s, test_class)
                                continue
                            want = reference_forced_size(Arena(space), start, rounds, test_class, 1)
                            assert margin_forced_size(space, rounds, s, test_class) == want, (
                                where, s
                            )
                            cases += 1
    assert cases == 744  # 528 greedy and 216 margin values; 2,088 margin starts raise


def test_greedy_sweep_matches_the_reference_on_larger_cycles():
    """Where the symmetry quotient saves the most: a cycle has 2N
    symmetries, and three tests reach many orbits."""
    for n_vertices in range(13, 19):
        space = cycle(n_vertices, 1)
        want = reference_forced_size(Arena(space), (1 << n_vertices) - 1, 3, "intervals", 0)
        assert greedy_forced_size(space, 3) == want, n_vertices


def _images(arena, mask):
    """The mask's reflection and, on a cycle, all its rotations and theirs."""
    n, full = arena.n, arena.full
    out = [mask, arena.reflect(mask)]
    if arena.space.topology is Topology.CYCLE:
        out += [((m << r) | (m >> (n - r))) & full for m in out[:2] for r in range(1, n)]
    return out


@pytest.mark.parametrize("make", [path, cycle])
def test_sweep_values_are_invariant_under_the_arena_symmetries(make):
    """The reference sweep, which keeps raw masks, gives every image of a
    start mask the same value, and the quotient sweep gives that value:
    margin start sets and seeded masks, both tie rules, 0-3 tests."""
    rng = random.Random(2012)
    for n_vertices, k in ((7, 1), (10, 1), (11, 2)):
        arena = Arena(make(n_vertices, k))
        starts = [rng.randrange(1, arena.full + 1) for _ in range(3)]
        for rounds, s in itertools.product((1, 2), range(4 * k, 4 * k + 3)):
            try:
                starts.append(mask_of(margin_start(arena.space, rounds, s)))
            except ValueError:
                pass
        for start in starts:
            for test_class in ("intervals", "all_subsets") if n_vertices <= 7 else ("intervals",):
                for rounds, ties in itertools.product(range(4), (0, 1)):
                    got = _forced_size(arena, start, rounds, test_class, ties)
                    for image in _images(arena, start):
                        want = reference_forced_size(arena, image, rounds, test_class, ties)
                        assert got == want, (arena.space, start, image, test_class, rounds, ties)


def test_tie_orientation_rule_changes_values():
    """On a path with interval tests a tie is read both ways round only when
    one part is a prefix and the other a suffix.  Reading a middle run's tie
    both ways too (its complement is no interval) lowers path(17, 2) from 8
    to 7, and reading no tie both ways raises path(12, 1) from 4 to 5: three
    tests from the full arena, ties answered 1, where the reference loop over
    every interval test agrees with the rule."""
    for space, want in ((path(17, 2), 8), (path(12, 1), 4)):
        arena = Arena(space)
        assert reference_forced_size(arena, arena.full, 3, "intervals", 1) == want
        assert _forced_size(arena, arena.full, 3, "intervals", 1) == want


def test_deep_test_budgets_do_not_recurse():
    # every budget from 1 up forces 4 on path(5, 1); 2,000 rounds of
    # recursion would pass Python's limit
    assert greedy_forced_size(path(5, 1), 2000) == 4
    assert greedy_forced_size(path(5, 1), 10**9) == 4
    # small arenas repeat their levels early, so most of these budgets
    # skip whole periods
    for space in (path(5, 1), path(6, 2), cycle(6, 1)):
        arena = Arena(space)
        for test_class in TEST_CLASSES:
            for rounds, ties in itertools.product(range(20), (0, 1)):
                want = reference_forced_size(arena, arena.full, rounds, test_class, ties)
                assert _forced_size(arena, arena.full, rounds, test_class, ties) == want, (
                    space, test_class, rounds, ties
                )


def test_all_subsets_sweeps_are_capped():
    # raised before any split is enumerated, so this allocates nothing
    n_vertices = MAX_SUBSET_N + 1
    for space in (path(n_vertices, 1), cycle(n_vertices, 1)):
        with pytest.raises(BudgetExceededError, match="capped at N <= 22"):
            greedy_forced_size(space, 1, test_class="all_subsets")
    with pytest.raises(BudgetExceededError, match="capped at N <= 22"):
        margin_forced_size(path(n_vertices, 1), 1, 4, test_class="all_subsets")


@pytest.mark.parametrize("test_class, first", [("all_subsets", 2**7 - 1), ("intervals", 8 * 7 // 2)])
def test_sweeps_stop_at_the_split_budget(monkeypatch, test_class, first):
    # the full path(8, 1) has `first` splits; the budget is checked per state,
    # before its splits are enumerated
    space = path(8, 1)
    want = greedy_forced_size(space, 1, test_class)
    monkeypatch.setattr(adversary, "MAX_SPLITS", first)
    assert greedy_forced_size(space, 1, test_class) == want
    with pytest.raises(BudgetExceededError, match=f"needs more than {first} splits"):
        greedy_forced_size(space, 2, test_class)
    monkeypatch.setattr(adversary, "MAX_SPLITS", first - 1)
    with pytest.raises(BudgetExceededError, match=f"needs more than {first - 1} splits"):
        greedy_forced_size(space, 1, test_class)
    monkeypatch.setattr(adversary, "MAX_SPLITS", 0)
    with pytest.raises(BudgetExceededError, match="needs more than 0 splits"):
        margin_forced_size(path(path_capacity(1, 4, 1) + 1, 1), 1, 4, test_class)


# The greedy and margin adversaries answer deterministically, so the best a
# strategy can force against one is the best over fixed test sequences.


@pytest.mark.parametrize("test_class", ["intervals", "all_subsets"])
@pytest.mark.parametrize("make", [path, cycle])
def test_greedy_sweep_matches_every_fixed_test_sequence(make, test_class):
    for n_vertices, k in [(4, 1), (5, 1), (6, 1), (7, 2)]:
        space = make(n_vertices, k)
        tests = class_tests(space, test_class) + [PositionSet.empty()]
        for rounds in (1, 2):
            brute = min(
                len(greedy_adversary(space, list(seq)).final_candidates)
                for seq in itertools.product(tests, repeat=rounds)
            )
            assert greedy_forced_size(space, rounds, test_class) == brute, (space, rounds)


@pytest.mark.parametrize(
    "n_vertices,k,s,rounds,test_class",
    [
        (7, 1, 4, 1, "intervals"),
        (9, 1, 4, 2, "intervals"),
        (13, 1, 5, 2, "intervals"),
        (13, 2, 8, 1, "intervals"),
        (8, 1, 4, 1, "all_subsets"),
        (9, 1, 5, 1, "all_subsets"),
    ],
)
def test_margin_sweep_matches_every_fixed_test_sequence(n_vertices, k, s, rounds, test_class):
    space = path(n_vertices, k)
    brute = min(
        len(margin_adversary(space, list(seq), rounds, s).rounds[-1].tracked)
        for seq in itertools.product(class_tests(space, test_class), repeat=rounds)
    )
    assert margin_forced_size(space, rounds, s, test_class) == brute


def test_sweeps_reject_negative_test_budget():
    with pytest.raises(ValueError, match="test budget must be >= 0"):
        greedy_forced_size(path(5, 1), -1)
    with pytest.raises(ValueError, match="test budget must be >= 0"):
        margin_forced_size(path(30, 1), -1, 4)
    with pytest.raises(ValueError, match="test budget must be >= 0"):
        margin_start(path(30, 1), -1, 4)


def test_sweeps_reject_unknown_test_class():
    with pytest.raises(ValueError, match="unknown test class"):
        greedy_forced_size(path(5, 1), 1, test_class="arcs")
    with pytest.raises(ValueError, match="unknown test class"):
        margin_forced_size(path(9, 1), 1, 4, test_class="arcs")


# -- window adversary -------------------------------------------------------------


def test_window_against_shifting_strategy():
    tr = window_adversary(path(5, 1), path_shifting_strategy(5, 1))
    assert all(len(r.candidates) >= 4 for r in tr.rounds)
    assert all(len(r.tracked) == 4 and r.tracked.issubset(r.candidates) for r in tr.rounds)


def test_window_static_under_empty_tests():
    k = 2
    tr = window_adversary(path(4 * k + 1, k), [PositionSet.empty()] * 4)
    assert all(r.tracked == P("1-7") for r in tr.rounds)
    assert all(r.answer == 0 for r in tr.rounds)


def test_window_survives_every_depth3_interval_strategy():
    # adaptively sweep every interval-test choice; the window must always survive
    space = path(9, 2)
    tests = enumerate_interval_tests(space)
    seen = set()

    def sweep(window, d, depth):
        key = (window, d, depth)
        if key in seen:
            return
        seen.add(key)
        assert len(d) >= 7 and window.issubset(d)
        if depth == 0:
            return
        for t in tests:
            answer, new_window = window_step(space, window, t)
            sweep(new_window, update(space, d, t, answer), depth - 1)

    sweep(P("1-7"), full_set(space), 3)


def test_window_transcripts_realizable():
    st = path_strategy(10, 4, 1)
    tr = window_adversary(st.space, st)
    walk = consistent_walk_exists(st.space, tr.tests(), tr.answers())
    assert walk is not None and is_valid_walk(st.space, walk)
    assert all(len(r.candidates) >= 4 for r in tr.rounds)


def test_window_rejects_wrong_arena():
    with pytest.raises(ValueError):
        window_adversary(cycle(9, 1), [])
    with pytest.raises(ValueError):
        window_adversary(path(4, 1), [])


# -- margin adversary ---------------------------------------------------------------


def test_margin_critical_instance_k1():
    # one vertex above the 2-test capacity at accuracy 4
    n, s, k = 2, 4, 1
    n_vertices = path_capacity(n, s, k) + 1
    assert n_vertices == 9
    assert margin_forced_size(path(n_vertices, k), n, s) >= s + 1


def test_margin_single_test_all_subsets():
    n_vertices = path_capacity(1, 5, 1) + 1
    assert n_vertices == 9
    assert margin_forced_size(path(n_vertices, 1), 1, 5, test_class="all_subsets") >= 6


def test_margin_zero_tests():
    sp = path(4 * 1 + 1, 1)
    tr = margin_adversary(sp, [], 0, 4)
    assert tr.rounds == ()
    assert len(tr.final_candidates) == 5  # s + 1 immediately
    assert margin_start(sp, 0, 4) == P("1-5")


def test_margin_invariants_along_transcript():
    n, s, k = 2, 4, 1
    sp = path(path_capacity(n, s, k) + 1, k)
    strategy = path_strategy(sp.num_vertices, s, k)  # uses n+1 tests; first n rounds matter
    tr = margin_adversary(sp, strategy, n, s)
    for i, r in enumerate(tr.rounds, start=1):
        a = r.tracked
        assert len(a) >= (1 << (n - i)) * (s - 4 * k) + 4 * k + 1
        assert a.min_value() >= k * (n - i) + 1
        assert a.max_value() <= sp.num_vertices - k * (n - i)
        assert a.issubset(r.candidates)
    assert len(tr.final_candidates) >= s + 1


def test_margin_transcripts_realizable():
    sp = path(9, 1)
    tr = margin_adversary(sp, path_strategy(9, 4, 1), 2, 4)
    walk = consistent_walk_exists(sp, tr.tests(), tr.answers())
    assert walk is not None and is_valid_walk(sp, walk)


# -- counter-strategy against matrices -------------------------------------------------


def certificate_is_valid(space, matrix, cert: CounterCertificate):
    tests = list(matrix.tests())
    for walk in cert.walks:
        assert is_valid_walk(space, walk)
        assert len(walk) == matrix.rows + 1
        for pos, t, y in zip(walk, tests, cert.answers):
            assert (pos in t) == bool(y)
        assert walk[-1] in cert.final_candidates
    d = full_set(space)
    for t, y in zip(tests, cert.answers):
        d = update(space, d, t, y)
    assert d == cert.final_candidates


def test_counter_on_reference_matrix_is_tight():
    sp = path(16, 1)
    m = expanding_accuracy_matrix(16)
    cert = matrix_counter(sp, m)
    assert cert.forced_accuracy == 4
    certificate_is_valid(sp, m, cert)


def test_counter_constant_middle_forces_extra():
    sp = path(7, 1)
    m = TestMatrix(((1, 0, 1, 0, 1, 0, 1), (0, 0, 0, 0, 0, 0, 0)))
    cert = matrix_counter(sp, m)
    assert cert.forced_accuracy >= 5  # 4k + 1
    certificate_is_valid(sp, m, cert)


def test_counter_refutes_random_matrices_claiming_small_accuracy():
    rng = random.Random(7)
    sp = path(7, 1)
    for _ in range(50):
        bits = tuple(tuple(rng.randint(0, 1) for _ in range(7)) for _ in range(3))
        m = TestMatrix(bits)
        cert = matrix_counter(sp, m)
        assert cert.forced_accuracy >= 4
        certificate_is_valid(sp, m, cert)
        assert not evaluate_matrix(sp, m, 3).success


def test_counter_mirrored_flip_and_k2():
    rng = random.Random(11)
    sp = path(14, 2)
    for _ in range(40):
        bits = tuple(tuple(rng.randint(0, 1) for _ in range(14)) for _ in range(rng.randint(1, 4)))
        m = TestMatrix(bits)
        cert = matrix_counter(sp, m)
        assert cert.forced_accuracy >= 8
        certificate_is_valid(sp, m, cert)


def test_counter_preconditions():
    with pytest.raises(ValueError):
        matrix_counter(path(12, 2), TestMatrix(((0,) * 12,)))  # N <= 6k
    with pytest.raises(ValueError):
        matrix_counter(cycle(8, 1), TestMatrix(((0,) * 8,)))


# -- transcripts ------------------------------------------------------------------------


def test_transcript_serialization():
    st = cycle_strategy(8, 5, 1)
    tr = greedy_adversary(st.space, st)
    text = tr.serialize()
    assert text.splitlines()[0] == "round=0 test=- answer=- D=1-8"
    for i, r in enumerate(tr.rounds, start=1):
        assert f"round={i} " in text
