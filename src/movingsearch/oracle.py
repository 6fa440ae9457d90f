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

The graph lives on the symmetry quotient, the reduction used to index
endgame tablebases (E. V. Nalimov, G. McC. Haworth, E. A. Heinz,
"Space-efficient indexing of chess endgame tables", ICGA J. 23(3), 2000).
Reflecting a path, or rotating and reflecting a cycle, maps intervals to
intervals and commutes with the target's move, so every image of a
candidate set has its value; each child is stored as ``Arena.canon`` of the
moved part.  Storage is value-only: the build keeps the states and the
labelling index, no per-edge tuples, and a solved query keeps just the
values.  The build and ``extract_strategy`` take each state's splits from
``Arena.splits``, which walks the state's own members, not every test;
extraction walks raw sets from the full arena and reads each child's value
at its canonical form.

``exact_best_matrix`` searches over non-adaptive matrices row by row.  Its
state is the antichain of still-unresolved candidate sets, stepped by
``nonadaptive.advance_row``, the row step ``evaluate_matrix`` runs too
(subset-dominated sets are dropped: they succeed whenever a superset does).
Each row may be complemented freely (that only relabels the two answers),
and the first row is normalized under left-right reflection.  The search is
branch and bound (A. H. Land, A. G. Doig, "An automatic method of solving
discrete programming problems", Econometrica 28(3), 1960): r rows that
resolve a set are an r-test adaptive strategy over arbitrary test sets, so
the set's all-subsets adaptive value, labelled once per query on this
module's own graph, bounds the rows it still needs.  Everything is
single-threaded and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import NamedTuple, Optional

from .adaptive import AdaptiveStrategy, StrategyNode
from .errors import BudgetExceededError
from .kernel import TEST_CLASSES, Arena, expand_flag, ps_of
from .nonadaptive import TestMatrix, advance_row
from .spaces import SearchSpace

MAX_EDGES = 8_000_000  # default edge cap: about 1.1 GB of graph


@dataclass
class GameValue:
    """Outcome of an exact minimax query, plus the labelled values for
    strategy extraction.  The graph is built on the symmetry quotient, so
    ``states`` counts orbits of candidate sets (under reflection, and on a
    cycle rotation), and only those whose answer was still open at accuracy
    ``s``; ``edges`` counts the splits between them.  ``build_seconds`` and
    ``label_seconds`` time the build and the labelling; ``record()``, which
    is deterministic, leaves them out.
    ``_values`` maps each labelled canonical state to its number of tests."""

    space: SearchSpace
    s: int
    test_class: str
    check_expanded: Optional[bool]
    status: str  # "solved" | "unreachable" | "budget_exceeded"
    min_tests: Optional[int]
    states: int
    edges: int
    build_seconds: float
    label_seconds: float
    _arena: Arena = field(repr=False)
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
            "states": self.states,
            "edges": self.edges,
        }


class _Index(NamedTuple):
    """Backward view of a state graph for retrograde labelling.  Edge ``i``
    leaves state ``parents[i]``; its branch ``2i`` (answer 1) and ``2i+1``
    (answer 0) announce sets of ``announced[b]`` candidates; ``preds`` maps a
    child to the ids of the indexed branches that lead to it."""

    parents: list
    announced: list
    preds: dict


def _build_graph(
    arena: Arena, test_class: str, s: int, expand: bool, max_edges: int
) -> tuple[set, _Index]:
    """Every canonical state still open at accuracy ``s``, reachable from the
    full arena, and the ``_Index`` of the splits between them.

    Each state has one edge per split from ``Arena.splits``; a child is the
    canonical form of the moved part, found once per distinct moved part.
    A state with at most ``s`` candidates is kept with no edges, and a
    branch whose announced set (the child if ``expand``, else the part)
    fits is neither pushed nor indexed: its answer is already known.
    ``s=0`` prunes nothing.  Raises ``BudgetExceededError`` once more than
    ``max_edges`` edges are indexed.
    """
    if test_class not in TEST_CLASSES:
        raise ValueError(f"unknown test class {test_class!r}")
    splits, canon = arena.splits, arena.canon
    states: set[int] = set()
    parents: list[int] = []
    announced: list[int] = []
    preds: dict[int, list] = {}
    into_of: dict[int, list] = {}  # moved part -> preds list of its canonical child
    frontier = [arena.full]

    def into(moved: int) -> list:
        c = canon(moved)
        branches = preds.setdefault(c, [])
        if not branches and c not in states:
            frontier.append(c)
        into_of[moved] = branches
        return branches

    branch = 0  # branch 2i answers 1 at edge i, 2i+1 answers 0
    while frontier:
        d = frontier.pop()
        if d in states:
            continue
        states.add(d)
        if d.bit_count() <= s:
            continue
        for e1, m1, e0, m0 in splits(d, test_class):
            parents.append(d)
            a1 = (m1 if expand else e1).bit_count()
            a0 = (m0 if expand else e0).bit_count()
            announced += (a1, a0)
            # ``into`` files a new moved part; a filed branch list is never empty
            if a1 > s:
                (into_of.get(m1) or into(m1)).append(branch)
            if a0 > s:
                (into_of.get(m0) or into(m0)).append(branch + 1)
            branch += 2
        if len(parents) > max_edges:
            raise BudgetExceededError(f"oracle edge cap {max_edges} exceeded")
    return states, _Index(parents, announced, preds)


def _label(
    graph: set, index: _Index, root: Optional[int], s: int, budget: Optional[int]
) -> tuple[dict, bool]:
    """Retrograde labelling; returns (values, reached_fixpoint).

    A state's value is its minimax number of tests to accuracy ``s``.  Each
    edge counts its open branches (announced set above ``s``); labelling
    goes level by level in increasing value, and when a child gets value v,
    every edge that had it as its last open branch settles its parent at
    v+1 unless the parent already has a value.  So a state is looked at
    only when one of its children gets a label.  Stops once the root is
    labelled (never with ``root=None``), when a level comes out empty (the
    fixpoint: the states left cannot be won), or after ``budget`` levels;
    the budget is checked before the level that would show the fixpoint.
    The index is only read, so one index serves every ``s``.
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
    max_edges: int = MAX_EDGES,
) -> GameValue:
    """Minimax-optimal number of tests for accuracy ``s``, or unreachable.

    ``budget`` caps the searched depth; hitting it is reported as status
    ``budget_exceeded`` rather than being conflated with unreachability.
    The graph holds only states whose answer is still open, so with a
    budget a query may come out ``unreachable`` where the full graph would
    have run out of budget first; that happens only when the query without
    a budget is ``unreachable`` too.  ``check_expanded`` overrides where the
    accuracy check is applied (after the trailing move by default in the
    moves-after-last-test model, before it otherwise).  ``max_edges`` caps
    the graph, whose memory grows with its edges (about 135 bytes each):
    past it the query raises ``BudgetExceededError``.
    """
    if s < 1:
        raise ValueError("accuracy must be >= 1")
    if budget is not None and budget < 0:
        raise ValueError("test budget must be >= 0")
    _check_caps(space, test_class)
    arena = Arena(space)
    start = perf_counter()
    graph, index = _build_graph(
        arena, test_class, s, expand_flag(space, check_expanded), max_edges
    )
    built = perf_counter()
    vals, fixpoint = _label(graph, index, arena.full, s, budget)
    labelled = perf_counter()
    root_val = vals.get(arena.full)
    if root_val is not None:
        status, result = "solved", root_val
    elif fixpoint:
        status, result = "unreachable", None
    else:
        status, result = "budget_exceeded", None
    return GameValue(
        space, s, test_class, check_expanded, status, result,
        len(graph), len(index.parents), built - start, labelled - built, arena, vals,
    )


def exact_min_accuracy(
    space: SearchSpace,
    n_budget: Optional[int] = None,
    test_class: str = "intervals",
    check_expanded: Optional[bool] = None,
    max_edges: int = MAX_EDGES,
) -> int:
    """Smallest accuracy reachable within ``n_budget`` tests (any number if None).

    Builds one unpruned graph and its index, then labels it once per s."""
    if n_budget is not None and n_budget < 0:
        raise ValueError("test budget must be >= 0")
    _check_caps(space, test_class)
    arena = Arena(space)
    graph, index = _build_graph(
        arena, test_class, 0, expand_flag(space, check_expanded), max_edges
    )
    for s in range(1, space.num_vertices + 1):
        vals, _fixpoint = _label(graph, index, arena.full, s, n_budget)
        if arena.full in vals:
            return s
    return space.num_vertices


def extract_strategy(gv: GameValue) -> AdaptiveStrategy:
    """Rebuild an optimal decision tree from the oracle's labelled values.

    Walks the raw candidate sets from the full arena, taking each one's
    splits from ``Arena.splits`` and reading every child's value at its
    canonical form, so the tests and leaves are the raw ones.  An interval
    test is the hull of the answer-1 part, one interval that never wraps;
    an all-subsets test is that part itself."""
    if gv.status != "solved":
        raise ValueError(f"no strategy to extract: status is {gv.status}")
    arena, vals, s = gv._arena, gv._values, gv.s
    expand = expand_flag(gv.space, gv.check_expanded)
    INF = float("inf")

    def branch_value(e: int, moved: int) -> float:
        if (moved if expand else e).bit_count() <= s:
            return 0
        return vals.get(arena.canon(moved), INF)

    def branch(e: int, moved: int, value: float) -> StrategyNode:
        return StrategyNode(answer=ps_of(moved if expand else e)) if value == 0 else build(moved)

    def build(d: int) -> StrategyNode:
        if d.bit_count() <= s:
            return StrategyNode(answer=ps_of(d))
        want = vals[arena.canon(d)] - 1
        for e1, m1, e0, m0 in arena.splits(d, gv.test_class):
            v1, v0 = branch_value(e1, m1), branch_value(e0, m0)
            if max(v1, v0) == want:
                # e1 is a run of d's members: its hull meets d in e1 alone,
                # and starts above d's lowest member, so it never wraps
                test = e1 if gv.test_class == "all_subsets" else (1 << e1.bit_length()) - (e1 & -e1)
                on0, on1 = branch(e0, m0, v0), branch(e1, m1, v1)
                return StrategyNode(test=ps_of(test), on0=on0, on1=on1)
        raise AssertionError("labelled state lost its achieving test")

    return AdaptiveStrategy(gv.space, build(arena.full), s)


# ---------------------------------------------------------------------------
# exhaustive search over non-adaptive matrices


def exact_best_matrix(
    space: SearchSpace,
    s: int,
    n: int,
    check_expanded: Optional[bool] = None,
    max_entries: int = 2_000_000,
) -> Optional[TestMatrix]:
    """Some n-row matrix that succeeds at accuracy ``s``, or None if none exists.

    Exhausts all row sequences up to the two documented symmetries
    (per-row complement, whole-matrix reflection at the first row), in a
    fixed order, and returns the first that succeeds.  A branch is cut as
    soon as some set in its antichain has an all-subsets adaptive value
    above the rows left: any matrix resolves a set no faster than the best
    adaptive strategy.  The values come from the all-subsets graph of the
    arena, labelled to ``n`` levels.  Every set in an antichain is a state of
    that graph: it is the moved part of an open branch, and a row that
    leaves a set whole moves it where one of the set's own splits does
    (drop a vertex of the set it grew from).  Cuts drop only branches that
    cannot succeed, so the result is the one the unbounded search finds.
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
    # every state with value <= n gets it; the rest cannot meet the bound
    graph, index = _build_graph(arena, "all_subsets", s, expand, MAX_EDGES)
    vals, _fixpoint = _label(graph, index, None, s, n)
    if vals.get(full, n + 1) > n:
        return None

    canon = arena.canon
    tests = [t for t in range(1, full) if not t & 1]  # complement-normalized rows
    counter = {"entries": 0}
    memo: dict[tuple[frozenset[int], int], Optional[tuple[int, ...]]] = {}

    def solve(states: frozenset[int], rows_left: int) -> Optional[tuple[int, ...]]:
        if not states:
            return ()
        if rows_left == 0:
            return None
        if any(vals.get(canon(d), rows_left + 1) > rows_left for d in states):
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

    first_rows = [t for t in tests if t <= norm(arena.reflect(t))]
    for t in first_rows:
        rest = solve(advance_row(arena, frozenset([full]), t, s, expand), n - 1)
        if rest is not None:
            rows = (t,) + rest
            bits = tuple(
                tuple((row >> j) & 1 for j in range(arena.n)) for row in rows
            )
            return TestMatrix(bits)
    return None
