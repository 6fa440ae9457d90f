import itertools
import json
import os
import random

import pytest

from helpers import enumerate_interval_tests, reference_forced_size
from movingsearch.adaptive import (
    AdaptiveStrategy,
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
    source_root,
    window_adversary,
    window_step,
)
from movingsearch.codec import decode
from movingsearch.errors import BudgetExceededError, RegimeError, WindowInvariantError
from movingsearch.kernel import MAX_SUBSET_N, TEST_CLASSES, Arena, mask_of
from movingsearch.nonadaptive import TestMatrix, evaluate_matrix, expanding_accuracy_matrix
from movingsearch.oracle import exact_min_tests
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
    tr = greedy_adversary(path(5, 1), [])
    assert tr.rounds == () and tr.final_candidates == P("1-5")


def test_greedy_ties_answer_zero():
    tr = greedy_adversary(path(8, 1), [P("1-4")])
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
    "ValueError" marks an arena too small for the margin start set, or an
    accuracy below the 4k regime of the margin start; that regime check is
    pinned by one row per k and test class, at s = 4k - 1 on path(8, k)."""
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
    assert len(rows) == 369
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


def test_sweeps_reject_a_target_frozen_after_the_last_test():
    # the sweeps count a moved part, 5 here, which would read as "accuracy 4
    # refuted with 1 test", yet the oracle reaches 4 with 1 test on this space
    space = path(8, 1, moves_after_last_test=False)
    assert exact_min_tests(space, 4).min_tests == 1
    with pytest.raises(ValueError, match="moves_after_last_test"):
        greedy_forced_size(space, 1)
    with pytest.raises(ValueError, match="moves_after_last_test"):
        margin_forced_size(path(9, 1, moves_after_last_test=False), 2, 4)
    assert greedy_forced_size(path(8, 1), 1) == margin_forced_size(path(9, 1), 2, 4) == 5


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


@pytest.mark.parametrize("test_class", TEST_CLASSES)
@pytest.mark.parametrize("make", [path, cycle])
def test_no_option_of_a_state_is_below_its_floor(make, test_class):
    """The bound behind the last level's branch and bound: every option of
    a nonempty state of m members, its move and the larger moved part of
    each of its splits, has at least min((m+1)//2 + gain, N) members, gain
    k on a path and 2k on a cycle.  Every mask, N <= 10, k 1-3."""
    for n_vertices, k in itertools.product(range(1, 11), (1, 2, 3)):
        arena = Arena(make(n_vertices, k))
        gain = k if make is path else 2 * k
        for d in range(1, arena.full + 1):
            floor = min((d.bit_count() + 1) // 2 + gain, n_vertices)
            assert arena.reach(d).bit_count() >= floor, (arena.space, d)
            for _e1, d1, _e0, d0 in arena.splits(d, test_class):
                assert max(d1.bit_count(), d0.bit_count()) >= floor, (arena.space, d, d1, d0)


def test_the_last_level_stops_at_the_floor(monkeypatch):
    """Expanded states, one ``Arena.splits`` call each, pinned on three
    rungs: the walk over the last level stops once no state left can beat
    the best final size.  Expanding the whole last level took 27, 38 and
    250 states."""
    calls, splits = [], Arena.splits
    monkeypatch.setattr(Arena, "splits", lambda self, *args: calls.append(args[0]) or splits(self, *args))
    for run, want in (
        (lambda: greedy_forced_size(cycle(13, 1), 3), (6, 7)),  # was 27
        (lambda: margin_forced_size(path(22, 2), 2, 9), (10, 20)),  # was 38
        (lambda: greedy_forced_size(path(16, 1), 2, "all_subsets"), (6, 2)),  # was 250
    ):
        calls.clear()
        assert (run(), len(calls)) == want


def test_the_cut_agrees_with_the_reference_where_it_skips_most_of_the_last_level():
    """Rungs where the bound leaves most of the last level unexpanded; the
    comments give the states expanded with the whole last level and now."""
    cases = [
        (cycle(13, 1), None, 3, "intervals", 0),  # 27 -> 7
        (cycle(16, 1), None, 3, "intervals", 0),  # 56 -> 9
        (path(17, 1), None, 3, "intervals", 0),  # 625 -> 52
        (path(22, 2), 9, 2, "intervals", 1),  # 38 -> 20
        (path(12, 1), None, 2, "all_subsets", 0),  # 47 -> 2
        (cycle(12, 1), None, 2, "all_subsets", 0),  # 9 -> 2
    ]
    for space, s, rounds, test_class, ties in cases:
        arena = Arena(space)
        start = arena.full if s is None else mask_of(margin_start(space, rounds, s))
        want = reference_forced_size(arena, start, rounds, test_class, ties)
        assert _forced_size(arena, start, rounds, test_class, ties) == want, (space, s, rounds, test_class)


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


def test_margin_adversary_below_its_regime_is_rejected():
    # the start's size (2^n)(s-4k)+4k+1 inverts the capacity formula, which needs
    # s >= 4k: here it would track one vertex
    with pytest.raises(RegimeError, match="4k=4"):
        margin_start(path(20, 1), 2, 3)
    with pytest.raises(RegimeError, match="4k=4"):
        margin_adversary(path(20, 1), path_shifting_strategy(20, 1), 2, 3)
    with pytest.raises(RegimeError, match="4k=8"):
        margin_adversary(path(40, 2), [], 1, 7)
    assert margin_adversary(path(20, 1), path_shifting_strategy(20, 1), 2, 4).rounds


def test_window_error_is_a_value_error_naming_the_adversary():
    with pytest.raises(ValueError, match="^the window adversary cannot answer: no 7-wide block") as exc:
        window_adversary(path(10, 2), [PositionSet.parse("1,5-7,10")])
    assert isinstance(exc.value, WindowInvariantError)


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
    # its 4k bounds count a moved final set: here it would claim 4 with a
    # final set of 7-10, yet the matrix reaches accuracy 3 on this space
    frozen = path(13, 1, moves_after_last_test=False)
    assert evaluate_matrix(frozen, expanding_accuracy_matrix(13), 3).success
    with pytest.raises(ValueError, match="matrix counter's bounds need moves_after_last_test=True"):
        matrix_counter(frozen, expanding_accuracy_matrix(13))


# -- transcripts ------------------------------------------------------------------------


def test_transcript_serialization():
    st = cycle_strategy(8, 5, 1)
    tr = greedy_adversary(st.space, st)
    text = tr.serialize()
    assert text.splitlines()[0] == "round=0 test=- answer=- D=1-8"
    for i, r in enumerate(tr.rounds, start=1):
        assert f"round={i} " in text


# -- test sources -----------------------------------------------------------------------


def decoded_or_error(space, source, bits):
    try:
        return str(decode(space, source, bits))
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("moves", [True, False])
@pytest.mark.parametrize("n_vertices", [9, 10, 11, 12])
def test_a_matrix_its_tests_and_its_chain_play_alike(n_vertices, moves):
    # a matrix is the decision tree whose two answers meet at the next row;
    # its rows are intervals, the tests the window rule answers
    rng = random.Random(n_vertices)
    for k in (1, 2):
        space = path(n_vertices, k, moves_after_last_test=moves)
        for rows in (2, 3, 4):
            runs = [sorted(rng.sample(range(n_vertices + 1), 2)) for _ in range(rows)]
            matrix = TestMatrix(tuple(tuple(int(lo < v <= hi) for v in range(1, n_vertices + 1)) for lo, hi in runs))
            chain = AdaptiveStrategy(space, source_root(matrix), n_vertices)
            sources = (matrix, list(matrix.tests()), chain)
            for play in (greedy_adversary, window_adversary):
                first, *rest = (play(space, source) for source in sources)
                assert first.tests() == list(matrix.tests()) and all(tr == first for tr in rest)
            for length in range(rows + 2):  # one bit past the last row too
                for bits in itertools.product((0, 1), repeat=length):
                    assert len({decoded_or_error(space, source, bits) for source in sources}) == 1
