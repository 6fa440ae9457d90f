import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_line_reach,
    class_test_masks,
    enumerate_interval_tests,
    reference_parse_position_set,
    reference_ps_of,
    reference_update,
)
from movingsearch.adaptive import cycle_capacity, cycle_strategy
from movingsearch.kernel import Arena, mask_of, ps_of
from movingsearch.oracle import exact_min_tests
from movingsearch.spaces import (
    _ROUND_MEMO_SIZE,
    PositionSet,
    SearchSpace,
    Topology,
    consistent_walk_exists,
    cycle,
    distance,
    final_expand,
    full_set,
    is_valid_walk,
    neighborhood,
    path,
    split,
    update,
)
from movingsearch.spaces import _fold
from movingsearch.spaces import _round as round_memo

P = PositionSet.parse


# -- PositionSet ------------------------------------------------------------


def test_normalization_merges_adjacent_and_overlapping():
    s = PositionSet([(4, 6), (1, 3), (8, 9), (9, 12)])
    assert s.intervals == ((1, 6), (8, 12))
    assert len(s) == 11


def test_text_round_trip():
    for text in ("1-9,12,14-16", "5", "-", "2-4"):
        assert str(P(text)) == text
    assert P("1-9,12,14-16") == PositionSet([(14, 16), (12, 12), (1, 9)])


def test_negative_labels_round_trip():
    s = PositionSet([(-5, -3), (0, 2)])
    assert str(s) == "-5--3,0-2"
    assert P(str(s)) == s


def outcome(f, *args):
    """A call's result, or the type and message of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


# ASCII digits, the separators, signs and underscores int() accepts, and
# Arabic-Indic, Devanagari and fullwidth digits
position_text = st.text(alphabet="0123456789-+_, \u0663\u096b\uff10", max_size=14)


@given(position_text)
@settings(max_examples=300)
def test_parse_matches_reference_parser(text):
    got = outcome(P, text)
    want = outcome(reference_parse_position_set, text)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, PositionSet) and got.intervals == want.intervals


@pytest.mark.parametrize("text", ["+5", "1_0", " 3 - 4 ", "\u0663-\u096b", "2-1", "5-", "1-2-3", "x", ","])
def test_parse_edge_fragments_match_reference_parser(text):
    assert outcome(P, text) == outcome(reference_parse_position_set, text)


def render(ivs, singles):
    """Interval list as text: ``lo-hi``, or ``lo`` where singles says so."""
    return ",".join(str(lo) if one and lo == hi else f"{lo}-{hi}" for (lo, hi), one in zip(ivs, singles))


def chain(start, steps):
    """Intervals in increasing order, each ``gap`` past the previous end and
    ``length`` long: gap 1 is adjacent, gap <= 0 overlaps, length < 0
    runs backwards."""
    ivs, end = [], start
    for gap, length in steps:
        lo = end + gap
        end = lo + length
        ivs.append((lo, end))
    return ivs


# canonical lists, near-canonical ones (sorted, with adjacent, overlapping or
# reversed intervals mixed in), and lists in any order
canonical_intervals = st.sets(st.integers(0, 60), max_size=30).map(
    lambda members: PositionSet.from_members(members).intervals
)
sorted_intervals = st.builds(
    chain, st.integers(0, 5), st.lists(st.tuples(st.integers(-1, 3), st.integers(-1, 3)), max_size=6)
)
any_intervals = st.lists(st.tuples(st.integers(-3, 30), st.integers(-3, 30)), max_size=6)


@given(
    st.one_of(canonical_intervals, sorted_intervals, any_intervals),
    st.lists(st.booleans(), min_size=30, max_size=30),
)
@example([(1, 9), (12, 12), (14, 16)], [False, True, False])  # canonical text of several intervals
@example([(0, 0), (2, 5), (7, 7)], [True, False, True])
@settings(max_examples=400)
def test_parse_fast_path_matches_reference_parser(ivs, singles):
    text = render(ivs, singles)
    got = outcome(P, text)
    want = outcome(reference_parse_position_set, text)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, PositionSet) and got.intervals == want.intervals
        assert str(P(str(got))) == str(got)


def test_set_equality_independent_of_decomposition():
    assert PositionSet([(1, 2), (3, 5)]) == PositionSet([(1, 5)])
    assert hash(PositionSet([(1, 2), (3, 5)])) == hash(PositionSet([(1, 5)]))


members = st.sets(st.integers(min_value=1, max_value=40), max_size=25)


def is_canonical(x):
    """Equality and hashing compare interval tuples, so every result must
    already be in the form the constructor would normalize it to."""
    return PositionSet(x.intervals).intervals == x.intervals


@given(members, members)
def test_algebra_matches_builtin_sets(a, b):
    pa, pb = PositionSet.from_members(a), PositionSet.from_members(b)
    assert set(pa | pb) == a | b
    assert set(pa & pb) == a & b
    assert set(pa - pb) == a - b
    for x in (pa | pb, pa & pb, pa - pb):
        assert is_canonical(x)
    assert pa.issubset(pb) == a.issubset(b)
    assert len(pa) == len(a)
    assert P(str(pa)) == pa


@given(members, st.integers(min_value=0, max_value=5))
def test_widened_matches_naive_expansion(a, t):
    got = PositionSet.from_members(a).widened(t)
    want = {v + d for v in a for d in range(-t, t + 1)}
    assert set(got) == want
    assert is_canonical(got)


# -- neighborhood -------------------------------------------------------------


def test_neighborhood_interior():
    assert neighborhood(path(10, 1), P("5")) == P("4-6")


def test_neighborhood_boundary_clipping():
    assert neighborhood(path(5, 1), P("1")) == P("1-2")


def test_neighborhood_cycle_wraparound():
    assert neighborhood(cycle(6, 2), P("1")) == PositionSet.from_members({5, 6, 1, 2, 3})


def test_neighborhood_rejects_out_of_range():
    with pytest.raises(ValueError):
        neighborhood(path(5, 1), P("6"))
    with pytest.raises(ValueError):
        neighborhood(cycle(5, 1), P("0"))


def brute_cycle_reach(n, k, a):
    reached = set(a)
    for _ in range(k):
        reached |= {(v % n) + 1 for v in reached} | {(v - 2) % n + 1 for v in reached}
    return reached


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=3),
    st.sets(st.integers(min_value=1, max_value=12), min_size=1),
)
def test_cycle_neighborhood_matches_step_simulation(n, k, a):
    a = {(v - 1) % n + 1 for v in a}  # fold onto the cycle: sets near both ends stay common
    got = neighborhood(cycle(n, k), PositionSet.from_members(a))
    assert set(got) == brute_cycle_reach(n, k, a)
    assert is_canonical(got)


def test_fold_wraps_one_unwidened_run_past_n_on_a_cycle():
    # a cycle's arc: one run of at most n vertices that starts within 1..n and
    # may end up to n-1 past n, with no widening behind the overhang
    cases = 0
    for n in range(1, 41):
        for start in range(1, n + 1):
            for length in range(1, n + 1):
                got = _fold(n, True, ((start, start + length - 1),))
                assert set(got) == {(v - 1) % n + 1 for v in range(start, start + length)}
                assert is_canonical(got)
                cases += 1
    assert cases == sum(n * n for n in range(1, 41))


@given(
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=1, max_value=4),
    st.sets(st.integers(min_value=1, max_value=14), max_size=10),
    st.sets(st.integers(min_value=1, max_value=14), max_size=10),
    st.integers(min_value=0, max_value=1),
)
def test_line_reach_and_update_match_brute_force(n, k, a, t, y):
    sp = path(n, k)
    a, t = {v for v in a if v <= n}, {v for v in t if v <= n}
    pa, pt = PositionSet.from_members(a), PositionSet.from_members(t)
    got = neighborhood(sp, pa)
    assert set(got) == brute_line_reach(1, n, k, a)
    assert is_canonical(got)
    got = update(sp, pa, pt, y)
    assert set(got) == brute_line_reach(1, n, k, a & t if y else a - t)
    assert is_canonical(got)


def fold(n, a):
    """Members of ``a`` folded onto 1..n, so sets near both ends stay common."""
    return PositionSet.from_members((v - 1) % n + 1 for v in a)


labels = st.sets(st.integers(min_value=1, max_value=24), max_size=12)


@given(
    st.sampled_from([path, cycle]),
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=1, max_value=4),
    labels,
    labels,
    st.integers(min_value=0, max_value=1),
)
# several intervals each, on both arenas and both answers: widened pieces
# merge, and on the cycle they wrap past both ends and meet the runs there
@example(path, 12, 2, {1, 2, 5, 6, 11, 12}, {2, 5, 11}, 1)
@example(path, 12, 2, {1, 2, 5, 6, 11, 12}, {2, 5, 11}, 0)
@example(cycle, 12, 2, {1, 2, 5, 6, 11, 12}, {2, 5, 11}, 1)
@example(cycle, 12, 2, {1, 2, 5, 6, 11, 12}, {2, 5, 11}, 0)
@example(cycle, 10, 1, {1, 3, 9}, {3}, 0)
@example(cycle, 9, 3, {1, 4, 7}, {1, 4, 7}, 1)
@settings(max_examples=300)
def test_update_matches_split_then_reach(make, n, k, d, t, y):
    sp = make(n, k)
    pd, pt = fold(n, d), fold(n, t)
    got = update(sp, pd, pt, y)
    assert got.intervals == reference_update(sp, pd, pt, y).intervals


@given(
    st.sampled_from([path, cycle]),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=3),
    st.sets(st.integers(min_value=-2, max_value=15), max_size=8),
    st.sets(st.integers(min_value=-2, max_value=15), max_size=8),
    st.integers(min_value=-1, max_value=2),
)
@example(path, 8, 1, {0, 1, 2, 5, 9}, {2, 6}, 0)  # raises, naming the out-of-range difference
@example(cycle, 8, 1, {-1, 3, 4, 7}, {4, 8}, 0)
@example(cycle, 8, 2, {-1, 3, 4, 7}, {4, 8}, 1)  # answer 1 never reads d_prev's range
@settings(max_examples=200)
def test_update_outcome_matches_reference_on_any_input(make, n, k, d, t, y):
    sp = make(n, k)
    args = sp, PositionSet.from_members(d), PositionSet.from_members(t), y
    assert outcome(update, *args) == outcome(reference_update, *args)


@pytest.mark.parametrize("make", [path, cycle])
@pytest.mark.parametrize(
    "d, t, y, raises",
    [
        ("1-3", "0-2", 1, "test set 0-2 outside"),
        ("1-3", "5-7", 0, "test set 5-7 outside"),
        ("1-3", "2", 2, "answer must be 0 or 1"),
        ("1-3", "2", -1, "answer must be 0 or 1"),
        ("0-3,6", "2", 0, "position set 0-1,3,6 outside"),
        ("0-3,6", "2", 1, None),
    ],
)
def test_update_checks_match_reference(make, d, t, y, raises):
    sp = make(5, 1)
    args = sp, P(d), P(t), y
    got = outcome(update, *args)
    assert got == outcome(reference_update, *args)
    if raises is None:
        assert got == P("1-3")
    else:
        assert got[0] is ValueError and got[1].startswith(raises)


@pytest.mark.parametrize("make", [path, cycle])
def test_one_interval_rounds_match_reference(make):
    # every round on one interval each, out-of-range ones included, computed
    # afresh: the memo is cleared so that no result comes from an earlier test
    round_memo.cache_clear()
    for n in range(1, 10):
        ivs = [P(f"{lo}-{hi}") for lo in range(n + 2) for hi in range(lo, n + 2)]
        for k in (1, 2, 3):
            sp = make(n, k)
            for d, t, y in itertools.product(ivs, ivs, (0, 1)):
                assert outcome(update, sp, d, t, y) == outcome(reference_update, sp, d, t, y), (n, k, d, t, y)


def test_memoized_rounds_keep_arenas_apart():
    # the same interval tuples on arenas of other sizes, speeds and shapes,
    # interleaved so that each call follows one that differs in one field;
    # some are out of range on the smaller arenas and must raise there
    arenas = [make(n, k, moves) for make in (path, cycle) for n in (6, 7, 9) for k in (1, 2)
              for moves in (True, False)]
    sets = [P(text) for text in ("1-3", "2,5", "5-6", "1,6", "4-8", "0-2,6")]
    calls = [(sp, d, t, y) for d in sets for t in sets for y in (0, 1) for sp in arenas]
    want = [outcome(reference_update, *call) for call in calls]
    assert any(isinstance(w, tuple) for w in want) and any(isinstance(w, PositionSet) for w in want)
    for _ in range(2):  # the second round finds every kept result in the memo
        assert [outcome(update, *call) for call in calls] == want


@pytest.mark.parametrize("t, y", [("0-2", 1), ("5-7", 0), ("2", 2)])
def test_failed_rounds_raise_every_time(t, y):
    sp = path(5, 1)
    first = outcome(update, sp, P("1-3"), P(t), y)
    assert first[0] is ValueError
    for _ in range(3):
        assert outcome(update, sp, P("1-3"), P(t), y) == first


def test_round_memo_holds_a_root_to_leaf_path():
    st = cycle_strategy(cycle_capacity(10, 5, 1), 5, 1)  # a full tree of depth 10
    assert st.num_nodes() == 2047
    before = round_memo.cache_info()
    for bits, leaf in st.leaves():  # every leaf replayed from the root
        d = full_set(st.space)
        for test, y in zip(st.replay(bits)[0], bits):
            d = update(st.space, d, test, y)
        assert d == leaf.answer
    after = round_memo.cache_info()
    assert after.currsize <= after.maxsize == _ROUND_MEMO_SIZE
    # 1024 leaves of 10 rounds each, on 2046 tree edges: every round of a
    # shared prefix is found again
    assert after.hits - before.hits >= 1024 * 10 - 2046


@given(members, members, st.integers(min_value=1, max_value=3))
def test_monotonicity(a, b, k):
    sp = path(40, k)
    pa, pb = PositionSet.from_members(a), PositionSet.from_members(b)
    if pa.issubset(pb):
        assert neighborhood(sp, pa).issubset(neighborhood(sp, pb))
    assert pa.issubset(neighborhood(sp, pa))


@given(members, st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
def test_composition_on_path_and_cycle(a, p, q):
    pa = PositionSet.from_members(a)
    for make in (path, cycle):
        lhs = neighborhood(make(40, q), neighborhood(make(40, p), pa))
        assert lhs == neighborhood(make(40, p + q), pa)


# -- update / final_expand ----------------------------------------------------


def test_update_forced_by_formula():
    sp = path(16, 1)
    d0 = full_set(sp)
    assert update(sp, d0, P("9-16"), 0) == P("1-9")
    assert update(sp, d0, P("9-16"), 1) == P("8-16")


def test_update_cycle_against_single_step_enumeration():
    sp = cycle(12, 1)
    got = update(sp, full_set(sp), P("1-4"), 1)
    # independent oracle: enumerate every single-step move from {1..4}
    expect = {(v + d - 1) % 12 + 1 for v in range(1, 5) for d in (-1, 0, 1)}
    assert set(got) == expect
    assert got == P("1-5,12")


def test_update_may_return_empty():
    sp = path(4, 1)
    assert not update(sp, P("1-2"), P("1-2"), 0)


@given(members, members)
def test_partition_bound(d, t):
    sp = path(40, 2)
    pd, pt = PositionSet.from_members(d), PositionSet.from_members(t)
    assert len(update(sp, pd, pt, 0)) + len(update(sp, pd, pt, 1)) >= len(pd)


def test_final_expand_flag_true():
    assert final_expand(path(16, 1), P("1-3")) == P("1-4")
    assert final_expand(path(5, 2), P("3")) == P("1-5")


def test_final_expand_flag_false_is_identity():
    sp = path(16, 1, moves_after_last_test=False)
    assert final_expand(sp, P("1-3")) == P("1-3")


# -- walks ---------------------------------------------------------------------


def test_walk_validity():
    assert is_valid_walk(path(10, 2), (3, 5, 4))
    assert not is_valid_walk(path(10, 1), (3, 5))
    assert is_valid_walk(cycle(6, 1), (6, 1))
    assert not is_valid_walk(path(10, 1), (0, 1))


def test_consistent_walk_empty_strategy():
    assert consistent_walk_exists(path(4, 1), [], []) == (1,)


def test_consistent_walk_small_case_against_enumeration():
    sp = path(4, 1)
    tests = [P("1-2"), P("1-2")]
    answers = [1, 0]
    walk = consistent_walk_exists(sp, tests, answers)
    assert walk is not None and len(walk) == 3
    assert walk[0] in (1, 2) and walk[1] == 3
    # every consistent (d1, d2) pair, by checking all 16 candidates
    ok = {
        (d1, d2)
        for d1, d2 in itertools.product(range(1, 5), repeat=2)
        if abs(d1 - d2) <= 1 and d1 in (1, 2) and d2 not in (1, 2)
    }
    assert ok == {(2, 3)}
    assert walk[:2] in ok


def reference_witness(sp, tests, answers):
    """consistent_walk_exists on plain sets of labels: forward sets of the
    positions at each test, then back from the smallest final position,
    the smallest label within speed of the next one at each step."""
    labels = range(1, sp.num_vertices + 1)
    reachable, at_test = set(labels), []
    for t, y in zip(tests, answers):
        e = {p for p in reachable if (p in t) == bool(y)}
        if not e:
            return None
        at_test.append(e)
        reachable = {q for p in e for q in labels if distance(sp, p, q) <= sp.speed}
    walk = [min(reachable)]
    for e in reversed(at_test):
        walk.append(min(p for p in e if distance(sp, p, walk[-1]) <= sp.speed))
    return tuple(reversed(walk))


def test_consistent_walk_is_the_smallest_label_witness():
    rng = random.Random(5)
    found = 0
    for _ in range(300):
        sp = rng.choice((path, cycle))(rng.randint(3, 9), rng.randint(1, 2))
        rounds = rng.randint(1, 4)
        tests = [PositionSet.from_members(rng.sample(range(1, sp.num_vertices + 1), rng.randint(1, 3)))
                 for _ in range(rounds)]
        answers = [rng.randint(0, 1) for _ in range(rounds)]
        walk = consistent_walk_exists(sp, tests, answers)
        assert walk == reference_witness(sp, tests, answers)
        found += walk is not None
    assert found > 100
    assert consistent_walk_exists(path(6, 1), [P("3"), P("4-6")], [1, 1]) == (3, 4, 3)


def test_inconsistent_answers_have_no_walk():
    sp = path(4, 1)
    # being inside {1,2} at one test and at vertex 4 the next needs speed >= 2
    assert consistent_walk_exists(sp, [P("1-2"), P("4")], [1, 1]) is None


def exhaustive_endpoints(sp, tests, answers):
    """All final positions of walks consistent with (tests, answers)."""
    n = sp.num_vertices
    ends = set()

    def go(pos, i):
        if i == len(tests):
            ends.add(pos)  # pos is already the post-final-move position
            return
        if (pos in tests[i]) != bool(answers[i]):
            return
        for q in range(1, n + 1):
            if distance(sp, pos, q) <= sp.speed:
                go(q, i + 1)

    for start in range(1, n + 1):
        go(start, 0)
    return ends


@pytest.mark.parametrize("topo", ["path", "cycle"])
@pytest.mark.parametrize("k", [1, 2])
def test_update_chain_sound_and_complete(topo, k):
    sp = path(6, k) if topo == "path" else cycle(6, k)
    tests = [P("1-3"), P("2-4"), P("5-6")]
    for answers in itertools.product((0, 1), repeat=3):
        d = full_set(sp)
        for t, y in zip(tests, answers):
            d = update(sp, d, t, y)
        assert set(d) == exhaustive_endpoints(sp, tests, answers)
        walk = consistent_walk_exists(sp, tests, list(answers))
        assert (walk is not None) == bool(d)
        if walk is not None:
            assert is_valid_walk(sp, walk)
            assert walk[-1] in d


# -- misc -----------------------------------------------------------------------


@pytest.mark.parametrize("test_class, n_max", [("intervals", 10), ("all_subsets", 8)])
@pytest.mark.parametrize("make", [path, cycle])
def test_splits_match_every_test_of_the_class(make, test_class, n_max):
    """``Arena.splits`` of every mask against the parts that every test of
    the reference enumerator cuts: each unordered split once, never the
    lowest member on the answer-1 side, moved masks equal to ``move``."""
    for n_vertices in range(1, n_max + 1):
        arenas = [Arena(make(n_vertices, k)) for k in (1, 2, 3)]
        tests = class_test_masks(arenas[0].space, test_class)
        for d in range(1 << n_vertices):
            want = {frozenset((t & d, d ^ (t & d))) for t in tests} - {frozenset((0, d))}
            for arena in arenas:
                where = f"{arena.space} {test_class} d={d:b}"
                got = list(arena.splits(d, test_class))
                pairs = [frozenset((e1, e0)) for e1, _m1, e0, _m0 in got]
                assert len(pairs) == len(set(pairs)) and set(pairs) == want, where
                for e1, m1, e0, m0 in got:
                    assert not e1 & d & -d, where
                    assert (m1, m0) == (arena.reach(e1), arena.reach(e0)), where


def test_ps_of_reads_runs_as_the_per_bit_loop_does():
    rng = random.Random(10001)
    masks = list(range(1 << 12)) + [(1 << n) - 1 for n in (1, 63, 64, 65, 10001)]
    masks += [rng.getrandbits(rng.randint(1, 10001)) for _ in range(100)]
    # long runs and long gaps, as candidate sets have
    masks += [sum(((1 << rng.randint(1, 900)) - 1) << rng.randrange(9000) for _ in range(4)) for _ in range(100)]
    for m in masks:
        got = ps_of(m)
        assert got.intervals == reference_ps_of(m), f"mask={m:b}"
        assert mask_of(got) == m


def test_interval_test_enumeration():
    assert len(enumerate_interval_tests(path(4, 1))) == 9  # 10 intervals minus full
    arcs = enumerate_interval_tests(cycle(4, 1))
    assert len(arcs) == 4 + 4 + 4  # lengths 1..3, four rotations each
    assert P("4,1") in arcs


def test_distance():
    assert distance(path(10, 1), 2, 9) == 7
    assert distance(cycle(10, 1), 2, 9) == 3


def test_space_validation():
    with pytest.raises(ValueError):
        path(0, 1)
    with pytest.raises(ValueError):
        cycle(5, 0)
    assert path(5, 1).topology is Topology.PATH
    assert split(path(5, 1), P("1-5"), P("2-3"), 1) == P("2-3")
    # a topology given by name is the member, so every module reads one arena
    named = SearchSpace("path", 9, 1)
    assert named.topology is Topology.PATH and named == path(9, 1)
    assert neighborhood(named, P("1")) == P("1-2")
    assert exact_min_tests(named, 4).min_tests == exact_min_tests(path(9, 1), 4).min_tests == 3
    assert SearchSpace("cycle", 9, 1) == cycle(9, 1)
    with pytest.raises(ValueError, match="not a valid Topology"):
        SearchSpace("line", 9, 1)
    for size, speed in ((5.5, 1), (5, 1.0), (True, 1), ("5", 1)):
        with pytest.raises(ValueError, match="must be an integer"):
            SearchSpace(Topology.PATH, size, speed)


def test_space_flag_must_be_a_bool():
    # any other value, truthy or not, used to pass and be printed as given
    for flag in ("no", 0, 1, None, 1.0):
        with pytest.raises(ValueError, match="moves_after_last_test must be True or False"):
            path(5, 1, moves_after_last_test=flag)
    assert cycle(5, 1, False).moves_after_last_test is False
    assert exact_min_tests(path(5, 1, False), 3).record()["flag"] is False
