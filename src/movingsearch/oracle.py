"""Exact brute-force ground truth for small arenas.

States are candidate sets encoded as bitmasks by ``kernel.Arena``;
reachability expansion is a shift-or (path) or rotate-or (cycle).
``exact_min_tests`` materializes the state graph reachable from the initial
candidate set under the chosen test class, leaving out what is already
decided: a branch whose announced set fits the accuracy is never expanded.
It then labels the graph backwards by retrograde analysis, as for endgame
tablebases (K. Thompson, "Retrograde analysis of certain endgames", ICCA J.
1986): states are settled in increasing order of their exact
distance-to-success, each one when the last open branch of one of its tests
is settled, so a state is looked at only when a child gets a label.  States
never labelled once the levels run out are provably unwinnable, which is how
unbounded-budget accuracy queries terminate.  ``exact_min_accuracy`` builds
one unpruned graph and index and labels it once per accuracy.

``exact_best_matrix`` searches over non-adaptive matrices row by row.  Its
state is the antichain of still-unresolved candidate sets, stepped by
``nonadaptive.advance_row``, the row step ``evaluate_matrix`` runs too
(subset-dominated sets are dropped: they succeed whenever a superset does).
Each row may be complemented freely (that only relabels the two answers),
and the first row is normalized under left-right reflection.  Everything is
single-threaded and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .adaptive import AdaptiveStrategy, StrategyNode
from .errors import BudgetExceededError
from .kernel import Arena, expand_flag, ps_of
from .nonadaptive import TestMatrix, advance_row
from .spaces import SearchSpace

TEST_CLASSES = ("intervals", "all_subsets")


@dataclass
class GameValue:
    """Outcome of an exact minimax query, plus the labelled graph for
    strategy extraction.  ``states`` counts the states of that graph, which
    holds only the states whose answer was still open at accuracy ``s``."""

    space: SearchSpace
    s: int
    test_class: str
    check_expanded: Optional[bool]
    status: str  # "solved" | "unreachable" | "budget_exceeded"
    min_tests: Optional[int]
    states: int
    _arena: Arena = field(repr=False)
    _graph: dict = field(repr=False)
    _values: dict = field(repr=False)

    def record(self) -> dict:
        return {
            "topology": self.space.topology.value,
            "N": self.space.num_vertices,
            "k": self.space.speed,
            "s": self.s,
            "class": self.test_class,
            "flag": self.space.moves_after_last_test,
            "min_tests": self.min_tests,
            "status": self.status,
        }


def _submasks(d: int):
    # proper nonempty submasks of d
    sub = (d - 1) & d
    while sub:
        yield sub
        sub = (sub - 1) & d


class _Index(NamedTuple):
    """Backward view of a state graph for retrograde labelling.  Edge ``i``
    leaves state ``parents[i]``; its branch ``2i`` (answer 1) and ``2i+1``
    (answer 0) announce sets of ``announced[b]`` candidates; ``preds`` maps a
    child to the ids of the indexed branches that lead to it."""

    parents: list
    announced: list
    preds: dict


def _build_graph(
    arena: Arena, test_class: str, s: int, expand: bool, max_states: int
) -> tuple[dict, _Index]:
    """Every state still open at accuracy ``s``, reachable from the full arena.

    Returns the graph, state -> list of (test, e1, child1, e0, child0) with
    one edge per split of the state up to swapping the answers, and its
    ``_Index``.  A state with at most ``s`` candidates is recorded with no
    edges, and a branch whose announced set (the child if ``expand``, else
    ``e``) fits is neither pushed nor indexed: its answer is already known.
    ``s=0`` prunes nothing.
    """
    if test_class not in TEST_CLASSES:
        raise ValueError(f"unknown test class {test_class!r}")
    interval_masks = arena.interval_tests() if test_class == "intervals" else None
    reach = arena.reach
    graph: dict[int, list] = {}
    parents: list[int] = []
    announced: list[int] = []
    preds: dict[int, list] = {}
    frontier = [arena.full]
    while frontier:
        d = frontier.pop()
        if d in graph:
            continue
        if len(graph) >= max_states:
            raise BudgetExceededError(f"oracle state cap {max_states} exceeded")
        edges = graph[d] = []
        if d.bit_count() <= s:
            continue
        seen_splits = {0, d}
        candidates = (
            ((t, t & d) for t in interval_masks)
            if interval_masks is not None
            else ((e, e) for e in _submasks(d))
        )
        for t, e1 in candidates:
            if e1 in seen_splits:
                continue
            e0 = d ^ e1
            seen_splits.add(e1)
            seen_splits.add(e0)
            c1, c0 = reach(e1), reach(e0)
            edges.append((t, e1, c1, e0, c0))
            branch = 2 * len(parents)
            parents.append(d)
            for e, c in ((e1, c1), (e0, c0)):
                size = (c if expand else e).bit_count()
                announced.append(size)
                if size > s:
                    into = preds.get(c)
                    if into is None:
                        preds[c] = [branch]
                        if c not in graph:
                            frontier.append(c)
                    else:
                        into.append(branch)
                branch += 1
    return graph, _Index(parents, announced, preds)


def _label(
    graph: dict, index: _Index, root: int, s: int, budget: Optional[int]
) -> tuple[dict, bool]:
    """Retrograde labelling; returns (values, reached_fixpoint).

    A state's value is its minimax number of tests to accuracy ``s``.  Each
    edge counts its open branches (announced set above ``s``); labelling
    goes level by level in increasing value, and when a child gets value v,
    every edge that had it as its last open branch settles its parent at
    v+1 unless the parent already has a value.  So a state is looked at
    only when one of its children gets a label.  Stops once the root is
    labelled, when a level comes out empty (the fixpoint: the states left
    cannot be won), or after ``budget`` levels; the budget is checked
    before the level that would show the fixpoint.  The index is only read,
    so one index serves every ``s``.
    """
    parents, announced, preds = index
    vals = {d: 0 for d in graph if d.bit_count() <= s}
    if root in vals:
        return vals, True
    if budget == 0:
        return vals, False
    open_count = [(a1 > s) + (a0 > s) for a1, a0 in zip(announced[::2], announced[1::2])]
    level = []
    for edge, n_open in enumerate(open_count):
        if not n_open:
            d = parents[edge]
            if d not in vals:
                vals[d] = 1
                level.append(d)
    value = 1
    while level and root not in vals:
        if budget is not None and value >= budget:
            return vals, False
        value += 1
        settled = []
        for c in level:
            for branch in preds.get(c, ()):
                if announced[branch] > s:  # else closed at this s (unpruned graph)
                    edge = branch >> 1
                    left = open_count[edge] - 1
                    open_count[edge] = left
                    if not left:
                        d = parents[edge]
                        if d not in vals:
                            vals[d] = value
                            if d == root:
                                return vals, True
                            settled.append(d)
        level = settled
    return vals, True


def _check_caps(space: SearchSpace, test_class: str):
    n = space.num_vertices
    if test_class == "all_subsets" and n > 10:
        raise BudgetExceededError("all_subsets oracle is capped at N <= 10")
    if test_class == "intervals" and n > 40:
        raise BudgetExceededError("intervals oracle is capped at N <= 40")


def exact_min_tests(
    space: SearchSpace,
    s: int,
    test_class: str = "intervals",
    budget: Optional[int] = None,
    check_expanded: Optional[bool] = None,
    max_states: int = 500_000,
) -> GameValue:
    """Minimax-optimal number of tests for accuracy ``s``, or unreachable.

    ``budget`` caps the searched depth; hitting it is reported as status
    ``budget_exceeded`` rather than being conflated with unreachability.
    The graph holds only states whose answer is still open, so with a
    budget a query may come out ``unreachable`` where the full graph would
    have run out of budget first; that happens only when the query without
    a budget is ``unreachable`` too.  ``check_expanded`` overrides where the
    accuracy check is applied (after the trailing move by default in the
    moves-after-last-test model, before it otherwise).
    """
    if s < 1:
        raise ValueError("accuracy must be >= 1")
    if budget is not None and budget < 0:
        raise ValueError("test budget must be >= 0")
    _check_caps(space, test_class)
    arena = Arena(space)
    graph, index = _build_graph(
        arena, test_class, s, expand_flag(space, check_expanded), max_states
    )
    vals, fixpoint = _label(graph, index, arena.full, s, budget)
    root_val = vals.get(arena.full)
    if root_val is not None:
        status, result = "solved", root_val
    elif fixpoint:
        status, result = "unreachable", None
    else:
        status, result = "budget_exceeded", None
    return GameValue(
        space, s, test_class, check_expanded, status, result, len(graph), arena, graph, vals
    )


def exact_min_accuracy(
    space: SearchSpace,
    n_budget: Optional[int] = None,
    test_class: str = "intervals",
    check_expanded: Optional[bool] = None,
    max_states: int = 500_000,
) -> int:
    """Smallest accuracy reachable within ``n_budget`` tests (any number if None).

    Builds one unpruned graph and its index, then labels it once per s."""
    if n_budget is not None and n_budget < 0:
        raise ValueError("test budget must be >= 0")
    _check_caps(space, test_class)
    arena = Arena(space)
    graph, index = _build_graph(
        arena, test_class, 0, expand_flag(space, check_expanded), max_states
    )
    for s in range(1, space.num_vertices + 1):
        vals, _fixpoint = _label(graph, index, arena.full, s, n_budget)
        if arena.full in vals:
            return s
    return space.num_vertices


def extract_strategy(gv: GameValue) -> AdaptiveStrategy:
    """Rebuild an optimal decision tree from the oracle's labelled graph."""
    if gv.status != "solved":
        raise ValueError(f"no strategy to extract: status is {gv.status}")
    arena, graph, vals = gv._arena, gv._graph, gv._values
    expand = expand_flag(gv.space, gv.check_expanded)
    INF = float("inf")

    def branch_value(e, child):
        if e == 0:
            return 0
        if (child if expand else e).bit_count() <= gv.s:
            return 0
        v = vals.get(child)
        return INF if v is None else v

    def leaf_for(e: int, child: int) -> StrategyNode:
        announced = child if expand else e
        return StrategyNode(answer=ps_of(announced))

    def build(d: int) -> StrategyNode:
        if d.bit_count() <= gv.s:
            return StrategyNode(answer=ps_of(d))
        want = vals[d] - 1
        for t, e1, c1, e0, c0 in graph[d]:
            if max(branch_value(e1, c1), branch_value(e0, c0)) == want:
                on1 = leaf_for(e1, c1) if branch_value(e1, c1) == 0 else build(c1)
                on0 = leaf_for(e0, c0) if branch_value(e0, c0) == 0 else build(c0)
                return StrategyNode(test=ps_of(t), on0=on0, on1=on1)
        raise AssertionError("labelled state lost its achieving test")

    return AdaptiveStrategy(gv.space, build(arena.full), gv.s)


# ---------------------------------------------------------------------------
# exhaustive search over non-adaptive matrices


def _reflect(mask: int, n: int) -> int:
    out = 0
    for _ in range(n):
        out = (out << 1) | (mask & 1)
        mask >>= 1
    return out


def exact_best_matrix(
    space: SearchSpace,
    s: int,
    n: int,
    check_expanded: Optional[bool] = None,
    max_entries: int = 2_000_000,
) -> Optional[TestMatrix]:
    """Some n-row matrix that succeeds at accuracy ``s``, or None if none exists.

    Exhausts all row sequences up to the two documented symmetries
    (per-row complement, whole-matrix reflection at the first row).
    """
    if s < 1:
        raise ValueError("accuracy must be >= 1")
    if space.num_vertices > 12:
        raise BudgetExceededError("matrix search is capped at N <= 12")
    if n > 5:
        raise BudgetExceededError("matrix search is capped at n <= 5 rows")
    if n < 1:
        raise ValueError("need at least one row")
    arena = Arena(space)
    full = arena.full
    expand = expand_flag(space, check_expanded)
    if full.bit_count() <= s:
        raise ValueError("trivial instance: the whole arena already fits the accuracy")

    tests = [t for t in range(1, full) if not t & 1]  # complement-normalized rows
    counter = {"entries": 0}
    memo: dict[tuple[frozenset[int], int], Optional[tuple[int, ...]]] = {}

    def solve(states: frozenset[int], rows_left: int) -> Optional[tuple[int, ...]]:
        if not states:
            return ()
        if rows_left == 0:
            return None
        key = (states, rows_left)
        if key in memo:
            return memo[key]
        counter["entries"] += 1
        if counter["entries"] > max_entries:
            raise BudgetExceededError(f"matrix search cap {max_entries} exceeded")
        result = None
        for t in tests:
            rest = solve(advance_row(arena, states, t, s, expand), rows_left - 1)
            if rest is not None:
                result = (t,) + rest
                break
        memo[key] = result
        return result

    def norm(mask: int) -> int:
        # the complement-normalized (vertex-1-free) representative
        return mask if not mask & 1 else full ^ mask

    first_rows = [t for t in tests if t <= norm(_reflect(t, arena.n))]
    for t in first_rows:
        rest = solve(advance_row(arena, frozenset([full]), t, s, expand), n - 1)
        if rest is not None:
            rows = (t,) + rest
            bits = tuple(
                tuple((row >> j) & 1 for j in range(arena.n)) for row in rows
            )
            return TestMatrix(bits)
    return None
