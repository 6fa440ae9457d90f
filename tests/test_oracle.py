import pytest

from helpers import (
    assert_every_walk_succeeds,
    assert_leaf_soundness,
    reference_build_graph,
    reference_min_accuracy,
    reference_min_tests,
)
from movingsearch.adaptive import cycle_capacity, path_capacity, path_min_accuracy
from movingsearch.errors import BudgetExceededError
from movingsearch.kernel import Arena
from movingsearch.nonadaptive import evaluate_matrix, expanding_accuracy_matrix
from movingsearch.oracle import (
    exact_best_matrix,
    exact_min_accuracy,
    exact_min_tests,
    extract_strategy,
)
from movingsearch.spaces import cycle, path


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
    with pytest.raises(ValueError):
        exact_min_accuracy(path(8, 1), n_budget=-1)


@pytest.mark.parametrize(
    "test_class, n_max", [("intervals", 12), ("all_subsets", 8)]
)
@pytest.mark.parametrize("make", [path, cycle])
def test_retrograde_oracle_matches_value_iteration(make, test_class, n_max):
    """The pruned retrograde oracle against the unpruned synchronous one."""
    for k in (1, 2):
        for flag in (True, False):
            for n_vertices in range(1, n_max + 1):
                sp = make(n_vertices, k, moves_after_last_test=flag)
                arena = Arena(sp)
                graph = reference_build_graph(arena, test_class)
                where = f"{sp.topology.value} N={n_vertices} k={k} flag={flag}"
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
                for n_budget in (None, 2):
                    assert exact_min_accuracy(
                        sp, n_budget, test_class=test_class
                    ) == reference_min_accuracy(arena, graph, n_budget), f"{where} n={n_budget}"


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
    # a branch that fits is never pushed, so only a fitting root is kept
    gv = exact_min_tests(sp, s)
    full = (1 << sp.num_vertices) - 1
    for d, edges in gv._graph.items():
        if d.bit_count() <= s:
            assert d == full and not edges, f"state {d:b} fits accuracy {s} but is in the graph"
    assert gv.states < len(reference_build_graph(Arena(sp), "intervals"))


def test_min_accuracy_matches_formulas():
    assert exact_min_accuracy(path(9, 1), test_class="all_subsets") == 4
    assert exact_min_accuracy(cycle(4, 1), test_class="all_subsets") == 4
    assert exact_min_accuracy(path(6, 2), test_class="all_subsets") == path_min_accuracy(6, 2)


def test_restricted_model_small_path():
    sp = path(6, 1, moves_after_last_test=False)
    assert exact_min_tests(sp, 4).min_tests == 1
    # restricted answers are taken before the trailing move, so a plain
    # halving of six vertices already achieves accuracy 3
    assert exact_min_accuracy(sp, n_budget=1) == 3


def test_check_expanded_toggle():
    sp = path(6, 1)
    forced_pre = exact_min_tests(sp, 3, check_expanded=False)
    assert forced_pre.min_tests == 1
    default = exact_min_tests(sp, 3)
    assert default.status == "unreachable"


def test_extracted_strategy_replays_to_value():
    gv = exact_min_tests(path(9, 1), 4, test_class="intervals")
    assert gv.min_tests == 3
    st = extract_strategy(gv)
    assert st.depth() == gv.min_tests
    assert_leaf_soundness(st)
    assert_every_walk_succeeds(st)


def test_extracted_cycle_strategy():
    gv = exact_min_tests(cycle(12, 1), 5, test_class="intervals")
    assert gv.min_tests == 3
    st = extract_strategy(gv)
    assert_leaf_soundness(st)
    assert_every_walk_succeeds(st)


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
        exact_min_tests(path(11, 1), 4, test_class="all_subsets")


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
    for n_vertices in (9, 10):
        rows = -(-n_vertices // 2) - 2
        assert exact_best_matrix(path(n_vertices, 1), 4, rows) is not None
        assert exact_best_matrix(path(n_vertices, 1), 4, rows - 1) is None
        assert evaluate_matrix(
            path(n_vertices, 1), expanding_accuracy_matrix(n_vertices), 4
        ).success
