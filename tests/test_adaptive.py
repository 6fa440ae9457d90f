import itertools
import re

import pytest

from helpers import (
    assert_every_walk_succeeds,
    assert_leaf_soundness,
    branch_sizes,
    brute_line_reach,
)
from movingsearch.adaptive import (
    AdaptiveStrategy,
    MinTests,
    StrategyNode,
    cycle_capacity,
    cycle_min_accuracy,
    cycle_strategy,
    min_tests,
    path_capacity,
    path_min_accuracy,
    path_shifting_strategy,
    path_sliding_window_strategy,
    path_strategy,
    restricted_cycle_capacity,
)
from movingsearch.errors import BudgetExceededError, RegimeError
from movingsearch.spaces import PositionSet, Topology, path

P = PositionSet.parse


# -- formulas ----------------------------------------------------------------


def test_cycle_capacity_values():
    assert cycle_capacity(0, 8, 2) == 8
    assert cycle_capacity(3, 5, 1) == 12
    assert cycle_capacity(2, 5, 1) == 8


def test_path_capacity_values():
    assert path_capacity(3, 4, 1) == 10
    assert path_capacity(2, 8, 2) == 16
    assert path_capacity(1, 4, 1) == 6


def test_restricted_cycle_capacity_values():
    # the oracle's restricted cycle capacities at s = 4k and 4k+1
    assert [restricted_cycle_capacity(n, 4, 1) for n in (1, 2, 3)] == [8, 12, 20]
    assert [restricted_cycle_capacity(n, 5, 1) for n in (1, 2)] == [10, 16]
    assert [restricted_cycle_capacity(n, 8, 2) for n in (1, 2)] == [16, 24]
    assert restricted_cycle_capacity(1, 9, 2) == 18


def test_capacity_regime_rejected():
    with pytest.raises(RegimeError):
        cycle_capacity(2, 3, 1)
    with pytest.raises(RegimeError):
        path_capacity(1, 7, 2)
    with pytest.raises(RegimeError):
        restricted_cycle_capacity(0, 4, 1)


def test_capacity_monotone_and_path_dominates_cycle():
    for k in (1, 2):
        for s in range(4 * k, 4 * k + 4):
            for n in range(5):
                assert path_capacity(n, s, k) >= cycle_capacity(n, s, k)
                assert cycle_capacity(n + 1, s, k) >= cycle_capacity(n, s, k)
                assert path_capacity(n + 1, s, k) >= path_capacity(n, s, k)
                assert cycle_capacity(n, s + 1, k) >= cycle_capacity(n, s, k)
                assert path_capacity(n, s + 1, k) >= path_capacity(n, s, k)


def test_path_min_accuracy_cases():
    assert path_min_accuracy(20, 1) == 4
    assert path_min_accuracy(3, 1) == 3
    assert path_min_accuracy(6, 2) == 5


def test_cycle_min_accuracy_cases():
    assert cycle_min_accuracy(4, 1) == 4
    assert cycle_min_accuracy(100, 1) == 5
    assert cycle_min_accuracy(9, 2) == 9


def test_min_tests():
    assert min_tests("path", 16, 4, 1) == MinTests(6)
    assert min_tests(Topology.CYCLE, 4, 4, 1) == MinTests(0)
    got = min_tests("path", 14, 7, 2)
    assert got.n == 3 and not got.exact
    with pytest.raises(RegimeError):
        min_tests("cycle", 10, 4, 1)  # s = 4k unreachable beyond N = s
    with pytest.raises(RegimeError):
        min_tests("path", 9, 3, 1)  # below 3k+1 on a large path


def test_min_tests_agrees_with_eq1_row():
    # n(P_N, 4) = ceil(N/2) - 2 for k = 1
    for n_vertices in range(5, 17):
        assert min_tests("path", n_vertices, 4, 1).n == -(-n_vertices // 2) - 2


# -- cycle strategy ------------------------------------------------------------


def test_cycle_strategy_branch_profile():
    st = cycle_strategy(12, 5, 1)
    assert st.depth() == 3
    for _bits, sizes in branch_sizes(st):
        assert sizes == [8, 6, 5]
    assert_leaf_soundness(st)


def test_cycle_strategy_trivial_leaf():
    st = cycle_strategy(4, 4, 1)
    assert st.depth() == 0
    assert st.root.answer == P("1-4")


def test_cycle_strategy_exhaustive_walks():
    st = cycle_strategy(8, 5, 1)
    assert st.depth() == 2
    assert_leaf_soundness(st)
    assert_every_walk_succeeds(st)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_cycle_strategy_at_capacity(k, n):
    for s in (4 * k + 1, 4 * k + 2):
        cap = cycle_capacity(n, s, k)
        st = cycle_strategy(cap, s, k)
        assert st.depth() == n
        assert_leaf_soundness(st)
        st_over = cycle_strategy(cap + 1, s, k)
        assert st_over.depth() == n + 1
        assert_leaf_soundness(st_over)


# -- shifting / sliding-window strategies ----------------------------------------


def test_shifting_strategy_small_cases():
    st = path_shifting_strategy(9, 1)
    assert all(len(leaf.answer) <= 4 for _b, leaf in st.leaves() if leaf.answer)
    assert_leaf_soundness(st)
    assert_every_walk_succeeds(st)

    st5 = path_shifting_strategy(5, 1)
    assert st5.depth() == 1  # N < 4k+3 stops right after the first test
    assert_leaf_soundness(st5)


def test_shifting_strategy_k2():
    st = path_shifting_strategy(13, 2)
    assert_leaf_soundness(st)
    assert_every_walk_succeeds(st)
    assert max(len(leaf.answer) for _b, leaf in st.leaves()) <= 7


def test_shifting_strategy_depth_bound():
    for n_vertices, k in ((9, 1), (12, 1), (13, 2), (21, 2)):
        st = path_shifting_strategy(n_vertices, k)
        assert st.depth() <= max(1, -(-n_vertices // 2) - 2 * k)


def test_shifting_rejects_small_paths():
    with pytest.raises(RegimeError):
        path_shifting_strategy(4, 1)


def test_sliding_window_instances():
    st = path_sliding_window_strategy(14, 2, 1)
    assert st.depth() <= 3 and st.accuracy_target == 7
    assert_leaf_soundness(st)
    assert_every_walk_succeeds(st)

    st = path_sliding_window_strategy(12, 2, 2)
    assert st.depth() <= 1 and st.accuracy_target == 8
    assert_leaf_soundness(st)

    st = path_sliding_window_strategy(8, 2, 2)  # N = 4k with l = k: no test needed
    assert st.depth() == 0


def test_sliding_window_rejects_bad_span():
    with pytest.raises(RegimeError):
        path_sliding_window_strategy(10, 2, 3)
    with pytest.raises(RegimeError):
        path_sliding_window_strategy(10, 2, 0)


# -- optimal path strategy --------------------------------------------------------


def test_path_strategy_first_test_small_case():
    st = path_strategy(6, 4, 1)
    assert st.root.test == P("1-3")
    for node in (st.root.on0, st.root.on1):
        assert node.is_leaf and len(node.answer) <= 4
    assert_leaf_soundness(st)


def test_path_strategy_eq1_instance():
    st = path_strategy(10, 4, 1)
    assert st.depth() == 3
    assert_leaf_soundness(st)
    assert_every_walk_succeeds(st)


def test_path_strategy_k2_instance():
    st = path_strategy(16, 8, 2)
    assert st.depth() <= 2
    assert_leaf_soundness(st)
    assert_every_walk_succeeds(st)


@pytest.mark.parametrize("k,s_list,n_max", [(1, (4, 5, 6), 4), (2, (8, 9), 3)])
def test_path_strategy_at_capacity(k, s_list, n_max):
    for s in s_list:
        for n in range(n_max + 1):
            cap = path_capacity(n, s, k)
            st = path_strategy(cap, s, k)
            assert st.depth() <= n
            assert_leaf_soundness(st)
            if cap <= 14:
                assert_every_walk_succeeds(st)
            st_over = path_strategy(cap + 1, s, k)
            assert st_over.depth() <= n + 1
            assert_leaf_soundness(st_over)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_split_builder_transitions_match_segment_spaces(k):
    # the split construction tracks its model state with interval arithmetic;
    # those transitions must equal a literal test-and-move on a line bounded
    # below by 1 (prefix state) or unbounded (interval state)
    def line_update(d, test, answer, lo):
        return brute_line_reach(lo, None, k, d & test if answer else d - test)

    def span(lo, hi):
        return set(range(lo, hi + 1))

    for y in range(2, 20):
        for t in range(1, y):
            d, test = span(1, y), span(1, t)
            assert line_update(d, test, 1, 1) == span(1, t + k)
            lo0 = t + 1 - k
            assert line_update(d, test, 0, 1) == span(max(1, lo0), y + k)
    for lo in range(-3, 4):
        for width in range(2, 12):
            hi = lo + width - 1
            t = (width + 1) // 2
            d, test = span(lo, hi), span(lo, lo + t - 1)
            assert line_update(d, test, 1, None) == span(lo - k, lo + t - 1 + k)
            assert line_update(d, test, 0, None) == span(lo + t - k, hi + k)


@pytest.mark.parametrize("s,k", [(4, 1), (5, 1), (8, 2), (10, 2)])
def test_path_strategy_every_size_up_to_capacity(s, k):
    for n_vertices in range(1, path_capacity(4, s, k) + 1):
        st = path_strategy(n_vertices, s, k)
        assert st.depth() <= min_tests("path", n_vertices, s, k).n
        assert_leaf_soundness(st)
        if n_vertices <= 12:
            assert_every_walk_succeeds(st)


@pytest.mark.parametrize("s,k", [(5, 1), (6, 1), (9, 2)])
def test_cycle_strategy_every_size_up_to_capacity(s, k):
    for n_vertices in range(1, cycle_capacity(4, s, k) + 1):
        st = cycle_strategy(n_vertices, s, k)
        assert st.depth() == min_tests("cycle", n_vertices, s, k).n
        assert_leaf_soundness(st)
        if n_vertices <= 12:
            assert_every_walk_succeeds(st)


# -- tree plumbing -----------------------------------------------------------------


def test_serialization_round_trip():
    st = path_strategy(10, 4, 1)
    text = st.serialize()
    back = AdaptiveStrategy.parse(text, st.space, st.accuracy_target)
    assert back.serialize() == text
    assert [(b, leaf.answer) for b, leaf in back.leaves()] == [
        (b, leaf.answer) for b, leaf in st.leaves()
    ]


# each malformed text fails at the line named second
MALFORMED_STRATEGIES = {
    "self-loop": ("node 0 test=1 on0=0 on1=0\n", "node 0 test=1 on0=0 on1=0"),
    "missing on1": ("node 0 test=1 on0=1\nleaf 1 answer=1\n", "node 0 test=1 on0=1"),
    "dangling child": (
        "node 0 test=1 on0=1 on1=2\nleaf 1 answer=1\n",
        "node 0 test=1 on0=1 on1=2",
    ),
    "duplicate id": (
        "node 0 test=1 on0=1 on1=2\nleaf 1 answer=1\nleaf 2 answer=2\n"
        "node 0 test=2 on0=1 on1=2\n",
        "node 0 test=2 on0=1 on1=2",
    ),
    "shared child": ("node 0 test=1 on0=1 on1=1\nleaf 1 answer=1\n", "node 0 test=1 on0=1 on1=1"),
    "bad id": ("leaf x answer=1\n", "leaf x answer=1"),
    # the grammar is exactly what serialize writes: fields in order, nothing else
    "reordered fields": (
        "node 0 test=1 on1=2 on0=1\nleaf 1 answer=1\nleaf 2 answer=2\n",
        "node 0 test=1 on1=2 on0=1",
    ),
    "extra field": ("leaf 0 answer=1 depth=0\n", "leaf 0 answer=1 depth=0"),
    "trailing garbage": (
        "node 0 test=1 on0=1 on1=2 #\nleaf 1 answer=1\nleaf 2 answer=2\n",
        "node 0 test=1 on0=1 on1=2 #",
    ),
    "doubled space": ("leaf  0 answer=1\n", "leaf  0 answer=1"),
    "spaced set": ("leaf 0 answer=1, 3\n", "leaf 0 answer=1, 3"),
    "backward interval": ("leaf 0 answer=3-1\n", "leaf 0 answer=3-1"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_STRATEGIES))
def test_parse_rejects_malformed_text(case):
    text, bad_line = MALFORMED_STRATEGIES[case]
    with pytest.raises(ValueError, match=re.escape(repr(bad_line))):
        AdaptiveStrategy.parse(text, path(4, 1), 2)


@pytest.mark.parametrize("text", ["", "leaf 1 answer=1\n", "leaf 0 answer=1\nleaf 1 answer=2\n"])
def test_parse_rejects_text_that_is_not_one_tree(text):
    with pytest.raises(ValueError, match="one tree rooted at id 0"):
        AdaptiveStrategy.parse(text, path(4, 1), 2)


BUILDER_TREES = {
    "cycle": lambda: cycle_strategy(cycle_capacity(6, 5, 1), 5, 1),
    "cycle k=2": lambda: cycle_strategy(cycle_capacity(4, 9, 2), 9, 2),
    "path": lambda: path_strategy(path_capacity(6, 5, 1), 5, 1),
    "path k=2": lambda: path_strategy(path_capacity(4, 9, 2), 9, 2),
    "shifting": lambda: path_shifting_strategy(129, 1),
    "sliding": lambda: path_sliding_window_strategy(2 * 16 * 2 + 8, 2, 2),
}


@pytest.mark.parametrize("builder", sorted(BUILDER_TREES))
def test_parse_gives_back_the_built_tree(builder):
    st = BUILDER_TREES[builder]()
    back = AdaptiveStrategy.parse(st.serialize(), st.space, st.accuracy_target)
    assert back.root == st.root
    assert hash(back.root) == hash(st.root)
    assert back.serialize() == st.serialize()


def test_strategy_nodes_are_immutable_values():
    leaf = StrategyNode(answer=P("1-2"))
    node = StrategyNode(P("1"), leaf, StrategyNode(answer=P("2")))
    assert node == StrategyNode(test=P("1"), on0=StrategyNode(answer=P("1-2")), on1=StrategyNode(answer=P("2")))
    assert hash(node) == hash(StrategyNode(P("1"), leaf, StrategyNode(answer=P("2"))))
    assert node != StrategyNode(P("1"), leaf, leaf)
    assert leaf.is_leaf and not node.is_leaf and node.child(0) is leaf
    assert repr(leaf) == "StrategyNode(test=None, on0=None, on1=None, answer=PositionSet.parse('1-2'))"
    with pytest.raises(AttributeError):
        node.test = P("2")


def test_parse_builds_deep_trees_without_recursion():
    depth = 5000
    lines = [
        f"node {2 * i} test=1 on0={2 * i + 1} on1={2 * i + 2}\nleaf {2 * i + 1} answer=2"
        for i in range(depth)
    ]
    lines.append(f"leaf {2 * depth} answer=1")
    text = "\n".join(lines)
    st = AdaptiveStrategy.parse(text, path(4, 1), 2)
    assert st.num_nodes() == 2 * depth + 1
    assert st.replay((1,) * depth)[1].answer == P("1")
    # walking the tree needs no recursion either
    assert st.depth() == depth
    assert st.serialize() == text + "\n"
    assert sum(1 for _ in st.leaves()) == depth + 1


def test_replay_descends_by_answers():
    st = cycle_strategy(12, 5, 1)
    tests, leaf = st.replay((0, 0, 0))
    assert len(tests) == 3 and leaf.is_leaf


def test_node_budget_enforced():
    with pytest.raises(BudgetExceededError):
        path_strategy(24, 4, 1, node_budget=5)
