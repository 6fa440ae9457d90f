import random
import re
import time

import pytest

from helpers import (
    assert_strategy_sound,
    reference_best_matrix,
    reference_build_graph,
    reference_dominated,
    reference_label,
    reference_min_accuracy,
    reference_min_tests,
    reference_pairs,
)
from movingsearch import oracle
from movingsearch.adaptive import (
    AdaptiveStrategy,
    StrategyNode,
    cycle_capacity,
    min_tests,
    path_capacity,
    path_min_accuracy,
)
from movingsearch.errors import BudgetExceededError, RegimeError
from movingsearch.kernel import Arena
from movingsearch.nonadaptive import evaluate_matrix, expanding_accuracy_matrix
from movingsearch.oracle import (
    exact_best_matrix,
    exact_min_accuracy,
    exact_min_accuracy_value,
    exact_min_tests,
    extract_strategy,
)
from movingsearch.spaces import cycle, full_set, neighborhood, path, split, update


def test_eq1_small_instances():
    assert exact_min_tests(path(10, 1), 4).min_tests == 3
    assert exact_min_tests(path(4, 1), 4).min_tests == 0


def test_cycle_instance_and_class_equality():
    gv_sub = exact_min_tests(cycle(8, 1), 5, test_class="all_subsets")
    gv_int = exact_min_tests(cycle(8, 1), 5, test_class="intervals")
    assert gv_sub.min_tests == gv_int.min_tests == 2
    assert cycle_capacity(2, 5, 1) == 8


def test_unreachable_accuracy_reported():
    gv = exact_min_tests(cycle(6, 1), 4)  # 4 = 4k is out of reach on C_6
    assert gv.status == "unreachable" and gv.min_tests is None


def test_budget_cap_reported_distinctly():
    gv = exact_min_tests(path(12, 1), 4, budget=1)
    assert gv.status == "budget_exceeded"
    assert exact_min_tests(path(12, 1), 4, budget=4).min_tests == 4


def test_negative_budget_rejected():
    with pytest.raises(ValueError):
        exact_min_tests(path(8, 1), 4, budget=-1)


@pytest.mark.parametrize(
    "test_class, n_max", [("intervals", 12), ("all_subsets", 9)]
)
@pytest.mark.parametrize("make", [path, cycle])
def test_proof_search_matches_value_iteration(make, test_class, n_max):
    """The proof search against unpruned synchronous value iteration."""
    for k in (1, 2):
        for flag in (True, False):
            for n_vertices in range(1, n_max + 1):
                sp = make(n_vertices, k, moves_after_last_test=flag)
                arena = Arena(sp)
                graph = reference_build_graph(arena, test_class)
                where = f"{sp.topology.value} N={n_vertices} k={k} flag={flag}"
                within_two = None  # the least s that 2 tests reach
                for s in range(1, n_vertices + 1):
                    unbounded = reference_min_tests(arena, graph, s)
                    for budget in (None, 0, 1, 2):
                        gv = exact_min_tests(sp, s, test_class=test_class, budget=budget)
                        want = unbounded if budget is None else reference_min_tests(
                            arena, graph, s, budget
                        )
                        assert gv.min_tests == want[1], f"{where} s={s} budget={budget}"
                        if gv.status != want[0]:
                            # pruning may drain the levels before the budget
                            # runs out, only where no strategy exists at all
                            assert (gv.status, want[0], unbounded[0]) == (
                                "unreachable", "budget_exceeded", "unreachable"
                            ), f"{where} s={s} budget={budget}: {gv.status} vs {want}"
                        if gv.status == "solved":
                            assert extract_strategy(gv).depth() == gv.min_tests, where
                            if budget == 2 and within_two is None:
                                within_two = s
                assert exact_min_accuracy(sp, test_class=test_class) == reference_min_accuracy(
                    arena, graph
                ), where
                assert within_two == reference_min_accuracy(arena, graph, 2), f"{where} n=2"


@pytest.mark.parametrize(
    "sp, s",
    [
        (path(15, 1), 4),
        (cycle(13, 1, moves_after_last_test=False), 4),
        (path(12, 2), 8),
        (path(4, 1), 4),
    ],
)
def test_graph_never_expands_decided_states(sp, s):
    # a branch that fits is closed (0), so no state that fits is ever expanded
    arena = Arena(sp)
    gv = exact_min_tests(sp, s)
    search = gv._search
    for d, pairs in search.table.items():
        assert arena.canon(d) == d, f"state {d:b} is not canonical"
        assert d.bit_count() > s, f"state {d:b} fits accuracy {s} but was expanded"
        for pair in pairs:
            for branch in pair:
                c = branch & arena.full  # a branch is announced size << N | child
                assert branch == 0 or (arena.canon(c) == c and branch >> sp.num_vertices > s), (
                    f"state {d:b} keeps branch {branch:b}"
                )
    assert len(search.table) < len(reference_build_graph(arena, "intervals"))
    assert (gv.states, gv.edges) == (len(search.table), sum(map(len, search.table.values())))


def test_dominated_splits_have_a_harder_child_or_a_kept_better_split():
    """Every split the expansion drops leads to a child at least as hard as
    its state, or a kept one-cut split has moved parts inside its moved
    parts, side by side or crosswise (raw masks, no canonical forms)."""
    rng = random.Random(18)
    drops = {"superset": 0, "dominated": 0}
    for _ in range(400):
        make, k, flag = rng.choice([path, cycle]), rng.randint(1, 3), rng.random() < 0.5
        test_class = rng.choice(["intervals", "all_subsets"])
        n_vertices = rng.randint(2, 16 if test_class == "intervals" else 9)
        arena = Arena(make(n_vertices, k, moves_after_last_test=flag))
        s, sized = rng.randint(1, n_vertices - 1), rng.random() < 0.25
        search = oracle._Search(arena, test_class, s, sized=sized)
        for _ in range(10):
            d = rng.randrange(1, arena.full + 1)
            # the largest accuracy the table serves d at while d is open
            top = d.bit_count() - 1 if sized else s
            if d.bit_count() <= top:
                continue
            splits = list(arena.splits(d, test_class))
            kept = list(arena.splits(d, test_class, search.lim, search.ends))
            one_cut = [(m1, m0) for e1, m1, e0, m0 in kept if e0 < e1]
            for e1, m1, e0, m0 in splits:
                if (e1, m1, e0, m0) in kept:
                    continue
                where = f"{arena.space} s={s} sized={sized} {test_class} d={d:b} e1={e1:b}"
                if any(not d & ~m and (m if flag else e).bit_count() > top for e, m in ((e1, m1), (e0, m0))):
                    drops["superset"] += 1
                    continue
                assert any(
                    not a & ~m1 and not b & ~m0 or not a & ~m0 and not b & ~m1 for a, b in one_cut
                ), where
                drops["dominated"] += 1
    assert min(drops.values()) > 100, drops  # neither kind of drop is vacuous


def test_pruned_enumeration_keeps_what_the_reference_predicate_keeps():
    """``Arena.splits`` with the search's limits yields, in order, the full
    enumeration's splits that ``reference_dominated`` keeps, and
    ``_Search.pairs`` files exactly their distinct branch pairs."""
    rng = random.Random(21)
    states = dropped = 0
    for _ in range(200):
        make, k, flag = rng.choice([path, cycle]), rng.randint(1, 3), rng.random() < 0.5
        test_class = rng.choice(["intervals", "all_subsets"])
        n_vertices = rng.randint(2, 16 if test_class == "intervals" else 9)
        arena = Arena(make(n_vertices, k, moves_after_last_test=flag))
        s, sized = rng.randint(1, n_vertices - 1), rng.random() < 0.25
        search = oracle._Search(arena, test_class, s, sized=sized)
        reference = oracle._Search(arena, test_class, s, sized=sized)
        for _ in range(10):
            d = rng.randrange(1, arena.full + 1)
            where = f"{arena.space} s={s} sized={sized} {test_class} d={d:b}"
            splits = list(arena.splits(d, test_class))
            kept = [sp for sp in splits if not reference_dominated(d, *sp, search.lim, search.ends)]
            dropped += len(splits) - len(kept)
            assert list(arena.splits(d, test_class, search.lim, search.ends)) == kept, where
            assert search.pairs(d) == reference_pairs(reference, d, pruned=True), where
            states += 1
    assert states == 2000 and dropped > 1000, dropped


@pytest.mark.parametrize("test_class, n_max", [("intervals", 13), ("all_subsets", 8)])
@pytest.mark.parametrize("make", [path, cycle])
def test_pruned_expansion_matches_the_full_one(make, test_class, n_max, monkeypatch):
    """Dropping dominated splits changes no status, test count, extracted
    depth or accuracy floor, against the expansion that files every split."""

    def answers(sp):
        out = []
        for s in range(1, sp.num_vertices + 1):
            for budget in (None, 2):
                gv = exact_min_tests(sp, s, test_class=test_class, budget=budget)
                depth = extract_strategy(gv).depth() if gv.status == "solved" else None
                out.append((s, budget, gv.status, gv.min_tests, depth, gv.edges))
        return out, exact_min_accuracy(sp, test_class=test_class)

    kept = filed = 0
    for k in (1, 2, 3):
        for flag in (True, False):
            for n_vertices in range(1, n_max + 1):
                sp = make(n_vertices, k, moves_after_last_test=flag)
                with monkeypatch.context() as m:
                    m.setattr(oracle._Search, "pairs", reference_pairs)
                    want, want_floor = answers(sp)
                got, got_floor = answers(sp)
                where = f"{sp.topology.value} N={n_vertices} k={k} flag={flag}"
                assert [a[:5] for a in got] == [a[:5] for a in want], where
                assert got_floor == want_floor, where
                kept += sum(a[5] for a in got)
                filed += sum(a[5] for a in want)
    assert kept < filed


@pytest.mark.parametrize(
    "sp, s, test_class, budget, want",
    [
        # 143 states, 4,206 edges with every split filed; 211 and 4,826 without the run cuts
        (path(15, 1), 4, "intervals", None, ("solved", 6, 128, 2464)),
        # 358 and 30,850 with every split filed; 517 and 34,022 without the run cuts
        (path(25, 2), 8, "intervals", 4, ("budget_exceeded", None, 288, 16139)),
        (path(13, 1), 4, "all_subsets", None, ("solved", 5, 80, 11686)),
    ],
)
def test_dominance_pruning_keeps_its_counts(sp, s, test_class, budget, want):
    gv = exact_min_tests(sp, s, test_class=test_class, budget=budget)
    assert (gv.status, gv.min_tests, gv.states, gv.edges) == want


@pytest.mark.parametrize(
    "make, test_class, n_max",
    [
        (path, "intervals", 13),
        # on cycles the size bound leaves the cuts nothing to refute in a
        # test-count query (none fires up to N=40); they fire in the
        # accuracy queries, first at N=15
        (cycle, "intervals", 19),
        (path, "all_subsets", 8),
        (cycle, "all_subsets", 8),
    ],
)
def test_run_cuts_change_no_answer_and_expand_fewer_states(make, test_class, n_max, monkeypatch):
    """Refuting a state by a bound on one of its runs, and covering a trap
    child by a run it holds, change no status, test count, extracted depth
    or accuracy floor against the search without them, and the search
    expands fewer states in all, accuracy queries included."""

    def answers(sp):
        out, states = [], 0
        for s in range(1, sp.num_vertices + 1):
            for budget in (None, 2):
                gv = exact_min_tests(sp, s, test_class=test_class, budget=budget)
                depth = extract_strategy(gv).depth() if gv.status == "solved" else None
                out.append((s, budget, gv.status, gv.min_tests, depth))
                states += gv.states
        floor = exact_min_accuracy_value(sp, test_class=test_class)
        return out, floor.s, states + floor.states

    cut = uncut = 0
    for k in (1, 2, 3):
        for flag in (True, False):
            for n_vertices in range(1, n_max + 1):
                sp = make(n_vertices, k, moves_after_last_test=flag)
                with monkeypatch.context() as m:
                    m.setattr(Arena, "runs", lambda self, mask: ())
                    want, want_floor, want_states = answers(sp)
                got, got_floor, got_states = answers(sp)
                where = f"{sp.topology.value} N={n_vertices} k={k} flag={flag}"
                assert got == want, where
                assert got_floor == want_floor, where
                cut += got_states
                uncut += want_states
    # over all subsets on cycles of up to 8 vertices neither cut fires
    assert cut < uncut or (make, test_class) == (cycle, "all_subsets") and cut == uncut, (cut, uncut)


@pytest.mark.parametrize("test_class, n_max", [("intervals", 10), ("all_subsets", 9)])
@pytest.mark.parametrize("make", [path, cycle])
def test_stored_bounds_bracket_the_value_iteration(make, test_class, n_max):
    """Every ``lo`` a query stores is at most the state's value and every
    ``hi`` at least it, unbudgeted and budgeted, where the budgeted trap
    stores bounds too.  The size bound is admissible: ``need`` of every
    graph state's size is at most its value, and no split's larger moved
    part has fewer than ``Arena.part_floor`` members."""
    for k in (1, 2):
        for flag in (True, False):
            for n_vertices in range(2, n_max + 1):
                sp = make(n_vertices, k, moves_after_last_test=flag)
                arena = Arena(sp)
                graph = reference_build_graph(arena, test_class)
                for d, edges in graph.items():
                    bound = arena.part_floor(d.bit_count())
                    assert all(max(c1.bit_count(), c0.bit_count()) >= bound for *_, c1, _e0, c0 in edges), (
                        f"{sp} flag={flag} part_floor({d:b})"
                    )
                for s in range(1, n_vertices):
                    values = reference_label(arena, graph, s, None)[0]
                    need = oracle._Search(arena, test_class, s).need
                    for d in graph:
                        assert need[d.bit_count()] <= values.get(d, oracle.INF), f"{sp} flag={flag} s={s} need[{d:b}]"
                    for budget in (None, 1, 2, 3):
                        search = exact_min_tests(sp, s, test_class=test_class, budget=budget)._search
                        where = f"{sp} flag={flag} s={s} budget={budget}"
                        for d, bound in search.lo.items():
                            assert bound <= values.get(d, oracle.INF), f"{where} lo[{d:b}]"
                        for d, bound in search.hi.items():
                            assert d == 0 or values.get(d, oracle.INF) <= bound, f"{where} hi[{d:b}]"


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cycles_at_most_4k_are_refuted_by_size_as_min_tests_says(k):
    """On a cycle, accuracy s <= 4k is out of reach from every N > s: the
    size bound refutes the root before any state is expanded, and
    ``min_tests`` raises.  At s = 4k+1 the two agree on a cycle of 80."""
    for s in range(1, 4 * k + 1):
        for n_vertices in range(s + 1, 81):
            gv = exact_min_tests(cycle(n_vertices, k), s)
            assert (gv.status, gv.states) == ("unreachable", 0), f"N={n_vertices} s={s}"
            with pytest.raises(RegimeError):
                min_tests("cycle", n_vertices, s, k)
    gv = exact_min_tests(cycle(80, k), 4 * k + 1)
    assert gv.min_tests == min_tests("cycle", 80, 4 * k + 1, k).n


def test_run_cuts_keep_their_counts_on_rungs_now_in_reach():
    """Rungs the run cuts bring under a second: a lost cut changes the
    counts at once instead of only slowing them down."""
    gv = exact_min_tests(path(20, 1), 3)  # 2,235 states, 112,190 edges without the cuts
    assert (gv.status, gv.states, gv.edges) == ("unreachable", 641, 23264)
    gv = exact_min_accuracy_value(path(32, 1))
    assert (gv.s, gv.states, gv.edges) == (4, 350, 30066)


def _symmetries(sp):
    """Every symmetry of the arena as a vertex map on 0..N-1."""
    n = sp.num_vertices
    if sp.topology.value == "path":
        return [lambda v: v, lambda v: n - 1 - v]
    return [lambda v, i=i: (v + i) % n for i in range(n)] + [
        lambda v, i=i: (i - v) % n for i in range(n)
    ]


@pytest.mark.parametrize("make", [path, cycle])
def test_canon_is_constant_on_orbits_and_commutes_with_reach(make):
    for n_vertices in range(1, 9):
        for k in (1, 2):
            arena = Arena(make(n_vertices, k))
            group = _symmetries(arena.space)
            for m in range(1 << n_vertices):
                members = [v for v in range(n_vertices) if m >> v & 1]
                orbit = {sum(1 << g(v) for v in members) for g in group}
                c = arena.canon(m)
                where = f"{arena.space.topology.value} N={n_vertices} k={k} mask={m:b}"
                assert c in orbit, where
                assert {arena.canon(x) for x in orbit} == {c}, where
                moved = arena.canon(arena.reach(m))
                assert {arena.canon(arena.reach(x)) for x in orbit} == {moved}, where


@pytest.mark.parametrize("make", [path, cycle])
def test_runs_are_the_canonical_forms_of_the_members_runs(make):
    for n_vertices in range(1, 11):
        arena = Arena(make(n_vertices, 1))
        for m in range(1 << n_vertices):
            bits = format(m, f"0{n_vertices}b")[::-1]  # vertex v at index v-1
            runs = [((1 << len(r.group())) - 1) << r.start() for r in re.finditer("1+", bits)]
            if make is cycle and len(runs) > 1 and m & 1 and m >> n_vertices - 1:
                runs[0] |= runs.pop()  # the arc through vertices N and 1
            want = sorted(map(arena.canon, runs)) if len(runs) > 1 else []
            assert sorted(arena.runs(m)) == want, f"{arena.space} mask={m:b}"


@pytest.mark.parametrize("make", [path, cycle])
def test_reflect_reverses_the_bit_string(make):
    rng = random.Random(12)
    for n_vertices in range(1, 81):
        arena = Arena(make(n_vertices, 1))
        masks = range(1 << n_vertices) if n_vertices <= 12 else [rng.getrandbits(n_vertices) for _ in range(200)]
        for m in masks:
            assert arena.reflect(m) == int(format(m, f"0{n_vertices}b")[::-1], 2), f"N={n_vertices} mask={m:b}"


@pytest.mark.parametrize("make", [path, cycle])
def test_edge_cap_raises_budget_exceeded(make, monkeypatch):
    sp = make(12, 1)
    monkeypatch.setattr(oracle, "MAX_EDGES", 10)
    for query in (lambda: exact_min_tests(sp, 5), lambda: exact_min_accuracy(sp)):
        with pytest.raises(BudgetExceededError, match="edge cap") as caught:
            query()
        # the error carries the engine's record at the cap
        assert caught.value.value.status == "edge_cap" and caught.value.value.edges > 10
    monkeypatch.setattr(oracle, "MAX_EDGES", 10**6)
    assert exact_min_tests(sp, 5).edges < 10**6


def test_matrix_search_caps_raise_budget_exceeded(monkeypatch):
    with pytest.raises(BudgetExceededError, match="N <= 12"):
        exact_best_matrix(path(13, 1), 4, 3)
    with pytest.raises(BudgetExceededError, match="n <= 5 rows"):
        exact_best_matrix(path(8, 1), 4, 6)
    assert exact_best_matrix(path(10, 1), 4, 3) is not None
    monkeypatch.setattr(oracle, "MAX_MATRIX_ENTRIES", 1)
    with pytest.raises(BudgetExceededError, match="matrix search cap 1 exceeded"):
        exact_best_matrix(path(10, 1), 4, 3)


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("make", [path, cycle])
def test_extracted_strategies_pass_walk_checks(make, flag):
    """Extraction walks raw, non-canonical sets; every extracted strategy
    must still hold each walk to its leaf."""
    solved = 0
    for k in (1, 2):
        for n_vertices in range(2, 11):
            sp = make(n_vertices, k, moves_after_last_test=flag)
            for s in range(1, n_vertices):
                gv = exact_min_tests(sp, s)
                if gv.status != "solved" or gv.min_tests == 0:
                    continue
                st = extract_strategy(gv)
                assert st.depth() == gv.min_tests
                assert_strategy_sound(st)
                for test in _tests_of(st.root):
                    runs = test.intervals
                    assert len(runs) == 1 or (
                        make is cycle
                        and len(runs) == 2
                        and runs[0][0] == 1
                        and runs[-1][1] == n_vertices
                    ), f"{sp} s={s}: test {test} is not one interval or arc"
                solved += 1
    assert solved > 10  # the grid is not vacuous


def _swap_first_leaf(st):
    """``st`` with the leaf at the end of its all-zero branch holding the set
    of the other end-of-game rule: the moved part where the target stays
    after the last test, the unmoved part where it moves."""
    sp = st.space

    def go(node, d):
        if not node.on0.is_leaf:
            return node._replace(on0=go(node.on0, update(sp, d, node.test, 0)))
        part = split(sp, d, node.test, 0)
        swapped = part if sp.moves_after_last_test else neighborhood(sp, part)
        return node._replace(on0=StrategyNode(answer=swapped))

    return AdaptiveStrategy(sp, go(st.root, full_set(sp)), st.accuracy_target)


@pytest.mark.parametrize(
    "space", [path(10, 1, moves_after_last_test=False), path(9, 1)], ids=["stays", "moves"]
)
def test_strategy_check_rejects_a_leaf_of_the_other_end_of_game_rule(space):
    st = extract_strategy(exact_min_tests(space, 4))
    assert_strategy_sound(st)
    with pytest.raises(AssertionError, match="leaf mismatch"):
        assert_strategy_sound(_swap_first_leaf(st))


def _tests_of(node):
    """The test of every inner node of a strategy tree."""
    if node.is_leaf:
        return []
    return [node.test] + _tests_of(node.on0) + _tests_of(node.on1)


def test_game_value_times_build_and_labelling():
    gv = exact_min_tests(path(8, 1), 3)  # unreachable: the closed-trap check runs
    assert gv.status == "unreachable"
    assert gv.search_seconds > 0 and gv.trap_seconds > 0
    assert "search_seconds" not in gv.record() and "trap_seconds" not in gv.record()


def test_min_accuracy_matches_formulas():
    assert exact_min_accuracy(path(9, 1), test_class="all_subsets") == 4
    assert exact_min_accuracy(cycle(4, 1), test_class="all_subsets") == 4
    assert exact_min_accuracy(path(6, 2), test_class="all_subsets") == path_min_accuracy(6, 2)


def test_min_accuracy_record_holds_no_test_count():
    gv = exact_min_accuracy_value(path(9, 1), test_class="all_subsets")
    assert (gv.status, gv.s, gv.min_tests) == ("solved", 4, None) and gv.states > 0 and gv.edges > 0
    assert gv.record()["s"] == 4 and gv.record()["min_tests"] is None
    with pytest.raises(ValueError, match="min_tests is None"):
        extract_strategy(gv)
    with pytest.raises(BudgetExceededError, match="capped at N <= 80") as caught:
        exact_min_accuracy_value(path(81, 1))
    assert caught.value.value is None  # raised before any engine exists


def test_restricted_model_small_path():
    sp = path(6, 1, moves_after_last_test=False)
    assert exact_min_tests(sp, 4).min_tests == 1
    # restricted answers are taken before the trailing move, so a plain
    # halving of six vertices already achieves accuracy 3
    assert exact_min_tests(sp, 3).min_tests == 1
    assert exact_min_tests(sp, 2, budget=1).status != "solved"


def test_check_expanded_toggle():
    """The space's flag alone says where the accuracy check applies."""
    forced_pre = exact_min_tests(path(6, 1, moves_after_last_test=False), 3)
    assert forced_pre.min_tests == 1
    default = exact_min_tests(path(6, 1), 3)
    assert default.status == "unreachable"


def test_extracted_strategy_replays_to_value():
    gv = exact_min_tests(path(9, 1), 4, test_class="intervals")
    assert gv.min_tests == 3
    st = extract_strategy(gv)
    assert st.depth() == gv.min_tests
    assert_strategy_sound(st)


def test_extracted_cycle_strategy():
    gv = exact_min_tests(cycle(12, 1), 5, test_class="intervals")
    assert gv.min_tests == 3
    st = extract_strategy(gv)
    assert_strategy_sound(st)


@pytest.mark.parametrize("n_vertices", range(5, 12))
def test_oracle_agrees_with_path_capacity(n_vertices):
    want = next(n for n in range(8) if path_capacity(n, 4, 1) >= n_vertices)
    assert exact_min_tests(path(n_vertices, 1), 4).min_tests == want


@pytest.mark.parametrize("n", [0, 1, 2])
def test_oracle_agrees_with_k2_path_capacity(n):
    cap = path_capacity(n, 8, 2)
    assert exact_min_tests(path(cap, 2), 8).min_tests == n
    assert exact_min_tests(path(cap + 1, 2), 8).min_tests == n + 1


def test_oracle_rejects_oversize_subset_class():
    with pytest.raises(BudgetExceededError):
        exact_min_tests(path(23, 1), 4, test_class="all_subsets")


@pytest.mark.parametrize("sp, s, n", [(path(46, 1), 5, 5), (cycle(68, 1), 6, 5)])
def test_solves_capacity_rungs_above_n_40_quickly(sp, s, n):
    start = time.perf_counter()
    assert exact_min_tests(sp, s).min_tests == n
    assert time.perf_counter() - start < 1


def test_record_shape():
    rec = exact_min_tests(path(6, 1), 4).record()
    assert rec == {
        "topology": "path",
        "N": 6,
        "k": 1,
        "s": 4,
        "class": "intervals",
        "flag": True,
        "min_tests": 1,
        "status": "solved",
        "states": 1,
        "edges": 2,
    }


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("make", [path, cycle])
def test_interval_and_subset_classes_agree(make, k):
    for n_vertices in range(2, 10):
        sp = make(n_vertices, k)
        for s in (3 * k, 4 * k, 4 * k + 1):
            if s < 1:
                continue
            a = exact_min_tests(sp, s, test_class="intervals")
            b = exact_min_tests(sp, s, test_class="all_subsets")
            assert (a.status, a.min_tests) == (b.status, b.min_tests), (
                f"classes disagree at N={n_vertices} k={k} s={s}"
            )


def test_extracted_strategy_survives_greedy():
    from movingsearch.adversary import greedy_adversary

    gv = exact_min_tests(path(12, 1), 4, test_class="intervals")
    st = extract_strategy(gv)
    tr = greedy_adversary(st.space, st)
    assert len(tr.rounds) <= gv.min_tests
    assert len(tr.final_candidates) <= 4


# -- exhaustive matrix search ---------------------------------------------------


def test_best_matrix_exists_at_two_rows_on_p8():
    m = exact_best_matrix(path(8, 1), 4, 2)
    assert m is not None
    assert evaluate_matrix(path(8, 1), m, 4).success


def test_matrix_search_rejects_accuracy_below_one():
    with pytest.raises(ValueError, match="accuracy"):
        exact_best_matrix(path(8, 1), 0, 2)


def test_no_single_row_matrix_on_p8():
    assert exact_best_matrix(path(8, 1), 4, 1) is None


def test_no_accuracy_3_matrix_on_p7():
    assert exact_best_matrix(path(7, 1), 3, 4) is None


def test_matrix_search_agrees_with_construction():
    for n_vertices in range(7, 13):
        rows = -(-n_vertices // 2) - 2
        assert exact_best_matrix(path(n_vertices, 1), 4, rows) is not None
        assert exact_best_matrix(path(n_vertices, 1), 4, rows - 1) is None
        assert evaluate_matrix(
            path(n_vertices, 1), expanding_accuracy_matrix(n_vertices), 4
        ).success


@pytest.mark.parametrize("make", [path, cycle])
def test_pruned_matrix_search_matches_reference(make):
    """The search pruned by the adaptive value returns the very matrix (or
    None) of the unpruned search, which tries rows in the same order."""
    found = 0
    for n_vertices in range(2, 8):
        for k in (1, 2):
            for flag in (True, False):
                sp = make(n_vertices, k, moves_after_last_test=flag)
                for s in range(1, n_vertices):
                    for rows in (1, 2, 3):
                        got = exact_best_matrix(sp, s, rows)
                        assert got == reference_best_matrix(sp, s, rows), (
                            make.__name__, n_vertices, k, flag, s, rows
                        )
                        if got is not None:
                            found += 1
                            assert evaluate_matrix(sp, got, s).success
    assert found > 0


def test_pruned_matrix_search_with_a_spare_row():
    """path(10, 2) at s=3 without the trailing move needs 3 tests, and a
    4-row matrix passes through sets of adaptive value 3 after its first
    row: the bound must label every state up to the row budget, not stop
    once the full arena has its value."""
    sp = path(10, 2, moves_after_last_test=False)
    m = exact_best_matrix(sp, 3, 4)
    assert m is not None
    assert m == reference_best_matrix(sp, 3, 4)
    assert exact_best_matrix(sp, 3, 2) is None
