"""Exact brute-force ground truth for small arenas.

States are candidate sets encoded as bitmasks by ``kernel.Arena``;
reachability expansion is a shift-or (path) or rotate-or (cycle).
``exact_min_tests`` materializes the full state graph reachable from the
initial candidate set under the chosen test class and then runs synchronous
value iteration, so the memo holds the exact distance-to-success of every
state rather than per-budget values; states never labelled by the fixpoint
are provably unwinnable, which is how unbounded-budget accuracy queries
terminate.

``exact_best_matrix`` searches over non-adaptive matrices row by row.  Its
state is the antichain of still-unresolved candidate sets (subset-dominated
sets are dropped: they succeed whenever a superset does), each row may be
complemented freely (that only relabels the two answers), and the first row
is normalized under left-right reflection.  Everything is single-threaded
and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .adaptive import AdaptiveStrategy, StrategyNode
from .errors import BudgetExceededError
from .kernel import Arena, ps_of
from .nonadaptive import TestMatrix
from .spaces import SearchSpace

TEST_CLASSES = ("intervals", "all_subsets")


@dataclass
class GameValue:
    """Outcome of an exact minimax query, plus the labelled graph for
    strategy extraction."""

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


def _build_graph(arena: Arena, test_class: str, max_states: int) -> dict:
    """state -> list of (test, e1, child1, e0, child0), deduped per split."""
    if test_class not in TEST_CLASSES:
        raise ValueError(f"unknown test class {test_class!r}")
    interval_masks = arena.interval_tests() if test_class == "intervals" else None
    graph: dict[int, list] = {}
    frontier = [arena.full]
    while frontier:
        d = frontier.pop()
        if d in graph:
            continue
        if len(graph) >= max_states:
            raise BudgetExceededError(f"oracle state cap {max_states} exceeded")
        edges = []
        seen_splits = set()
        candidates = (
            ((t, t & d) for t in interval_masks)
            if interval_masks is not None
            else ((e, e) for e in _submasks(d))
        )
        for t, e1 in candidates:
            if e1 == 0 or e1 == d or e1 in seen_splits:
                continue
            seen_splits.add(e1)
            e0 = d & ~e1
            c1, c0 = arena.reach(e1), arena.reach(e0)
            edges.append((t, e1, c1, e0, c0))
            if c1 not in graph:
                frontier.append(c1)
            if c0 not in graph:
                frontier.append(c0)
        graph[d] = edges
    return graph


def _label(
    arena: Arena,
    graph: dict,
    s: int,
    check_expanded: Optional[bool],
    budget: Optional[int],
) -> tuple[dict, bool]:
    """Synchronous value iteration; returns (values, reached_fixpoint)."""
    expand = arena.space.moves_after_last_test if check_expanded is None else check_expanded
    INF = float("inf")

    def branch_value(e: int, child: int, vals) -> float:
        if e == 0:
            return 0  # no walk realizes this answer: vacuously done
        size = (child if expand else e).bit_count()
        if size <= s:
            return 0
        v = vals.get(child)
        return INF if v is None else v

    vals = {d: 0 for d in graph if d.bit_count() <= s}
    pending = [d for d in graph if d not in vals]
    rounds = 0
    while pending:
        if budget is not None and rounds >= budget:
            return vals, False
        rounds += 1
        newly = {}
        for d in pending:
            best = INF
            for _t, e1, c1, e0, c0 in graph[d]:
                worst = max(branch_value(e1, c1, vals), branch_value(e0, c0, vals))
                if worst < best:
                    best = worst
            if best < INF:
                newly[d] = 1 + best
        if not newly:
            return vals, True  # fixpoint: the rest cannot be won
        vals.update(newly)
        pending = [d for d in pending if d not in newly]
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
    ``check_expanded`` overrides where the accuracy check is applied (after
    the trailing move by default in the moves-after-last-test model, before
    it otherwise).
    """
    if s < 1:
        raise ValueError("accuracy must be >= 1")
    _check_caps(space, test_class)
    arena = Arena(space)
    graph = _build_graph(arena, test_class, max_states)
    vals, fixpoint = _label(arena, graph, s, check_expanded, budget)
    root_val = vals.get(arena.full)
    if root_val is not None:
        status, result = "solved", int(root_val)
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
    """Smallest accuracy reachable within ``n_budget`` tests (any number if None)."""
    _check_caps(space, test_class)
    arena = Arena(space)
    graph = _build_graph(arena, test_class, max_states)
    for s in range(1, space.num_vertices + 1):
        vals, _fixpoint = _label(arena, graph, s, check_expanded, n_budget)
        v = vals.get(arena.full)
        if v is not None and (n_budget is None or v <= n_budget):
            return s
    return space.num_vertices


def extract_strategy(gv: GameValue) -> AdaptiveStrategy:
    """Rebuild an optimal decision tree from the oracle's labelled graph."""
    if gv.status != "solved":
        raise ValueError(f"no strategy to extract: status is {gv.status}")
    arena, graph, vals = gv._arena, gv._graph, gv._values
    expand = gv.space.moves_after_last_test if gv.check_expanded is None else gv.check_expanded
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


def _prune_dominated(states: frozenset[int]) -> frozenset[int]:
    # keep only subset-maximal candidate sets
    keep = []
    for d in sorted(states, key=int.bit_count, reverse=True):
        if not any(d & ~other == 0 for other in keep):
            keep.append(d)
    return frozenset(keep)


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
    if space.num_vertices > 12:
        raise BudgetExceededError("matrix search is capped at N <= 12")
    if n > 5:
        raise BudgetExceededError("matrix search is capped at n <= 5 rows")
    if n < 1:
        raise ValueError("need at least one row")
    arena = Arena(space)
    full = arena.full
    expand = space.moves_after_last_test if check_expanded is None else check_expanded
    if full.bit_count() <= s:
        raise ValueError("trivial instance: the whole arena already fits the accuracy")

    tests = [t for t in range(1, full) if not t & 1]  # complement-normalized rows
    counter = {"entries": 0}
    memo: dict[tuple[frozenset[int], int], Optional[tuple[int, ...]]] = {}

    def advance(states: frozenset[int], t: int) -> Optional[frozenset[int]]:
        out = set()
        for d in states:
            for e in (d & t, d & ~t):
                if not e:
                    continue
                child = arena.reach(e)
                if (child if expand else e).bit_count() <= s:
                    continue
                out.add(child)
        return _prune_dominated(frozenset(out))

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
            rest = solve(advance(states, t), rows_left - 1)
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
        rest = solve(advance(frozenset([full]), t), n - 1)
        if rest is not None:
            rows = (t,) + rest
            bits = tuple(
                tuple((row >> j) & 1 for j in range(arena.n)) for row in rows
            )
            return TestMatrix(bits)
    return None
