import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import brute_line_reach
from movingsearch.kernel import Arena, ps_of
from movingsearch.spaces import (
    PositionSet,
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
    assert pa.isdisjoint(pb) == a.isdisjoint(b)
    assert len(pa) == len(a)
    assert P(str(pa)) == pa


@given(members, st.integers(min_value=0, max_value=5), st.integers(0, 41), st.integers(0, 41))
def test_widened_matches_naive_expansion(a, t, lo, hi):
    got = PositionSet.from_members(a).widened(t)
    want = {v + d for v in a for d in range(-t, t + 1)}
    assert set(got) == want
    assert is_canonical(got)
    clipped = got.clipped(lo, hi)
    assert set(clipped) == {v for v in want if lo <= v <= hi}
    assert is_canonical(clipped)


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


@given(members, members, st.integers(min_value=0, max_value=3))
def test_monotonicity(a, b, steps):
    sp = path(40, 2)
    pa, pb = PositionSet.from_members(a), PositionSet.from_members(b)
    assert neighborhood(sp, pa, 0) == pa
    if pa.issubset(pb):
        assert neighborhood(sp, pa, steps).issubset(neighborhood(sp, pb, steps))
    assert pa.issubset(neighborhood(sp, pa, steps))


@given(members, st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_composition_on_path_and_cycle(a, p, q):
    pa = PositionSet.from_members(a)
    for sp in (path(40, 1), cycle(40, 1)):
        lhs = neighborhood(sp, neighborhood(sp, pa, p), q)
        assert lhs == neighborhood(sp, pa, p + q)


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


def test_interval_test_enumeration():
    assert len(Arena(path(4, 1)).interval_tests()) == 9  # 10 intervals minus full
    arcs = [ps_of(t) for t in Arena(cycle(4, 1)).interval_tests()]
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
