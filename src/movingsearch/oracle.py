"""Exact brute-force ground truth for small arenas.

States are candidate sets as ``kernel.Arena`` bitmasks on the symmetry
quotient used to index endgame tablebases (E. V. Nalimov, G. McC. Haworth,
E. A. Heinz, ICGA J. 23(3), 2000): a child is ``Arena.canon`` of a moved part.

One engine, ``_Search``, answers every query by a depth-first proof search
over ``win(d, n)``: do n tests bring state d to accuracy s?  It keeps each
expanded state's distinct splits from ``Arena.splits``, larger announced
set first, and proven bounds per state.  A subset of a state is never
harder to win, so no optimal line needs two kinds of split (a dominance
relation after T. Ibaraki, J. ACM 24(2), 1977): one with an open side
whose move covers the state, and, on a path with interval tests and the
flag on, a middle run within k+1 vertices of an end, which the test
stretched to that end dominates.  The search hands ``Arena.splits`` the
two limits that say which (``lim`` and ``ends``), and the enumeration
never produces those splits.  A state is refuted by its size alone (a
test leaves a part with half of its members, and that proper part gains
k vertices on a path and 2k on a cycle when it moves, up to N:
``Arena.part_floor``), and a state of several runs of members by a lower
bound proven for one of its runs (``Arena.runs``), a subset of it.  It
skips splits with a child ruled out by its lower bound; a split that
leads back to its state is never a best one.

``exact_min_tests`` deepens n (R. E. Korf, "Depth-first iterative-deepening:
an optimal admissible tree search", Artificial Intelligence 27(1), 1985).
Deepening never shows that no n works: after a failed pass that expanded
no new state, a closed-trap check in the spirit of A. Kishimoto, M. Mueller
("A general solution to the graph history interaction problem", AAAI 2004)
looks for a set of states holding the root, none known to be won, in which
every split of every member has an open child that is in the set or holds
a member as one of its runs.  That proves the query unreachable for every
n: were a member winnable, one with the fewest tests v would have a split
whose children are closed or won in fewer than v tests, as is each member
they hold, so they neither are nor hold one.  Once a budget b runs out,
the trap grows through states that need more than b tests: a root won in
v > b tests has a best line whose states need v-1, v-2, ... tests, so the
trap meets one that needs exactly b, or closes and shows that no strategy
exists (the level argument of retrograde labelling).
``exact_min_accuracy_value``, with any number of tests, goes up in s on one
table that keeps the announced sizes; the proven bounds and won states
carry over from s to s+1, each s grows a trap of its own, and the first s
at which the trap loses the root is the answer.  ``extract_strategy``
walks raw sets, taking the first split whose open children win with one
test fewer, and ``exact_best_matrix`` bounds its branches with the
engine.
"""

from __future__ import annotations

from collections import namedtuple
from heapq import heappop, heappush
from time import perf_counter
from typing import Optional

from .adaptive import AdaptiveStrategy, StrategyNode
from .errors import BudgetExceededError
from .kernel import MAX_SUBSET_N, Arena, ps_of
from .nonadaptive import TestMatrix, advance_row
from .spaces import SearchSpace, Topology

MAX_EDGES = 8_000_000  # cap on the oracle's stored pairs: 0.76 GB on path(44,1) s=3
MAX_MATRIX_ENTRIES = 2_000_000  # cap on the matrix search's memo entries
INF = float("inf")
# the largest N of the measured ladder (tools/oracle_ladder.py, 60 s, 3 GB).
# Paths bind the interval cap: path(80,1) s=5 takes 2.7 s and path(80,2) s=9
# reaches the edge cap.  Cycles do not bind it: the size bound answers
# cycle(80,k) at s=4k+1 in under 0.1 s.  Over all subsets cycle(22,1) s=5
# takes 1.5 s, most of it the root's 2^21 splits
_CAPS = {"intervals": 80, "all_subsets": MAX_SUBSET_N}


class _Search:
    """The proof search of one query, at accuracy ``s``.  The announced set
    of a part is its moved form (its child) when the arena's space has
    ``moves_after_last_test``, else the part itself.  A branch is its
    announced size shifted above its canonical child, ``a << N | c``, closed
    once ``a <= s`` and stored as 0 below the floor (``s``, or 0 with
    ``sized``, where one table serves every ``s``); ``hi`` proves 0 won with
    no test, ``won`` holds won states.  Past ``MAX_EDGES`` stored pairs the
    search raises ``BudgetExceededError`` with its ``value``, ``edge_cap``."""

    def __init__(self, arena: Arena, test_class: str, s: int, sized: bool = False):
        if test_class not in _CAPS:
            raise ValueError(f"unknown test class {test_class!r}")
        if arena.n > _CAPS[test_class]:
            raise BudgetExceededError(f"{test_class} oracle is capped at N <= {_CAPS[test_class]}")
        self.arena, self.test_class, self.sized = arena, test_class, sized
        self.expand, self.floor = arena.space.moves_after_last_test, 0 if sized else s
        self.edges, self.trap_seconds, self.start = 0, 0.0, perf_counter()
        # a part of over lim members whose move covers d stays open at every
        # accuracy the table serves (with the flag on, its move is announced)
        self.lim = -1 if self.expand else arena.n if sized else s
        ends = self.expand and test_class == "intervals" and arena.space.topology is Topology.PATH
        self.ends = (1 << arena.k + 1) - 1 | arena.full ^ arena.full >> arena.k + 1 if ends else 0
        self.table: dict[int, list] = {}
        self._branch: dict[int, int] = {}  # moved part -> its branch above the floor
        self.hi: dict[int, int] = {0: 0}
        self.won: set[int] = set()
        self.at(s)

    def at(self, s: int) -> None:
        """Answer at accuracy ``s``, with an empty trap.  Only
        ``exact_min_accuracy`` calls it again, raising ``s`` on a ``sized``
        table; a larger accuracy never needs more tests, so ``hi`` and
        ``won`` carry over."""
        self.s, self.first_open = s, s + 1 << self.arena.n
        # the trap: its members and the pairs (state, index) watching each one
        self.alive, self.watchers = set(), {}
        self.lo: dict[int, int] = {}
        # need[x]: the fewest tests a state of x members can need, from a
        # larger part of ceil(x/2) members whose move has part_floor(x)
        arena = self.arena
        need = self.need = [0] * (arena.n + 1)
        for x in range(s + 1, arena.n + 1):
            moved = arena.part_floor(x)
            shown = moved if self.expand else (x + 1) // 2
            need[x] = 1 if shown <= s else 1 + need[moved] if moved < x else INF

    def child(self, moved: int) -> int:
        """The canonical form of a moved part above the floor."""
        return (self._branch.get(moved) or self._new_branch(moved)) & self.arena.full

    def _new_branch(self, moved: int) -> int:
        size = moved.bit_count()  # a part that fits the floor needs no canonical form
        b = self._branch[moved] = size << self.arena.n | (self.arena.canon(moved) if size > self.floor else 0)
        return b

    def pairs(self, d: int) -> list:
        """d's distinct undominated splits as pairs of branches, the larger
        first, in increasing order of it; expands d on first use."""
        out = self.table.get(d)
        if out is not None:
            return out
        n, full, first_open = self.arena.n, self.arena.full, self.floor + 1 << self.arena.n
        expand, get, new = self.expand, self._branch.get, self._new_branch
        found = set()
        for e1, m1, e0, m0 in self.arena.splits(d, self.test_class, self.lim, self.ends):
            if expand:
                b1, b0 = get(m1) or new(m1), get(m0) or new(m0)
            else:  # the part itself is announced
                b1, b0 = e1.bit_count() << n, e0.bit_count() << n
                b1 = b1 | (get(m1) or new(m1)) & full if b1 >= first_open else 0
                b0 = b0 | (get(m0) or new(m0)) & full if b0 >= first_open else 0
            b1, b0 = b1 if b1 >= first_open else 0, b0 if b0 >= first_open else 0
            found.add((b1, b0) if b1 >= b0 else (b0, b1))
        out = self.table[d] = sorted(found)
        self.edges += len(out)
        if self.edges > MAX_EDGES:
            raise BudgetExceededError(f"oracle edge cap {MAX_EDGES} exceeded", self.value("edge_cap", None))
        return out

    def win(self, d: int, n: int) -> bool:
        """Whether ``n`` tests bring canonical state ``d`` (not yet fitting) to
        the accuracy.  It serves fixed-floor tables only, where every stored
        branch is 0 or open, so a pair decodes with ``& full`` alone."""
        hi, lo = self.hi, self.lo
        if hi.get(d, INF) <= n:
            return True
        if lo.get(d, 0) > n:
            return False
        need = self.need[d.bit_count()]
        if need > n:
            lo[d] = need
            return False
        for r in self.arena.runs(d):  # a run of d's members is a subset of d
            if lo.get(r, 0) > n:
                lo[d] = lo[r]
                return False
        full, m = self.arena.full, n - 1
        for b1, b0 in self.pairs(d):
            x, y = b1 & full, b0 & full
            if x == d or y == d or lo.get(x, 0) > m or lo.get(y, 0) > m:
                continue
            if self.win(x, m) and self.win(y, m):
                hi[d] = n
                return True
        lo[d] = n + 1
        return False

    def trap(self, root: int, b: int = 0) -> bool:
        """Whether a closed trap holds ``root``.  Each split of a member
        watches an open child in the trap, else a member that is a run of
        an open child, else a state not known to be won, which joins
        (smallest first), else its state drops out, won; it picks again
        when what it watches drops out.  States
        that ``b`` tests fewer win are won, and one that needs exactly
        ``b >= 1`` empties the trap.  The trap carries over between calls at
        one accuracy."""
        start = perf_counter()
        n, full, first_open = self.arena.n, self.arena.full, self.first_open
        alive, won, hi, table = self.alive, self.won, self.hi, self.table
        watchers, runs = self.watchers, self.arena.runs
        joined: list[tuple] = []  # heap of (size, member) still to watch
        redo: list[tuple] = []  # pairs whose watched member dropped out
        if not alive:
            alive.add(root)
            joined.append((0, root))

        def cover(pair: tuple) -> int:
            """The member a split watches when neither open child is one:
            a run of one, else a child that joins; 0 if there is none."""
            for w in pair:
                if w >= first_open:
                    for r in runs(w & full):
                        if r in alive:
                            return r
            for w in pair:
                c = w & full
                if w < first_open or c in won or c in hi:
                    continue
                if b and self.win(c, b - 1):
                    continue
                if b and self.win(c, b):
                    alive.clear()
                    return 0
                alive.add(c)
                heappush(joined, (w >> n, c))
                return c
            return 0

        while (joined or redo) and root in alive:
            if redo:
                d, i = redo.pop()
                todo = ((i, table[d][i]),) if d in alive else ()
            else:
                d = heappop(joined)[1]
                todo = enumerate(self.pairs(d)) if d in alive else ()
            for i, (b1, b0) in todo:
                if b1 >= first_open and b1 & full in alive:
                    w = b1 & full
                elif b0 >= first_open and b0 & full in alive:
                    w = b0 & full
                elif not (w := cover((b1, b0))):
                    alive.discard(d)
                    won.add(d)
                    redo += watchers.pop(d, ())
                    break
                watchers.setdefault(w, []).append((d, i))
        self.trap_seconds += perf_counter() - start
        return root in alive

    def deepen(self, root: int, budget: Optional[int]) -> tuple[str, Optional[int]]:
        """(status, tests) of a root above the accuracy, deepening to ``budget``."""
        n = 0
        while budget is None or n <= budget:
            expanded = len(self.table)
            if self.win(root, n):
                return "solved", n
            n = self.lo[root]
            if n == INF or len(self.table) == expanded and root in self.table and self.trap(root):
                return "unreachable", None
        if budget and self.trap(root, budget):
            return "unreachable", None
        return "budget_exceeded", None

    def value(self, status: str, answer: Optional[int]) -> GameValue:
        """The query's record, its only builder; a ``sized`` table's ``answer`` is its ``s``."""
        s, tests = (answer or self.s, None) if self.sized else (self.s, answer)
        gv = GameValue(self.arena.space, s, self.test_class, status, tests, len(self.table), self.edges,
                       perf_counter() - self.start - self.trap_seconds, self.trap_seconds)
        gv._search = self
        return gv


class GameValue(namedtuple("GameValue", "space s test_class status min_tests states edges search_seconds "
                                      "trap_seconds")):
    """Outcome of an exact minimax query from ``_Search.value``, plus its
    engine for strategy extraction.  ``status`` is "solved", "unreachable",
    "budget_exceeded" or "edge_cap".  ``states`` counts the orbits of
    candidate sets the search expanded, ``edges`` the distinct undominated
    splits it kept of them; ``search_seconds`` and ``trap_seconds`` stay
    out of ``record()``.

    The engine is the attribute ``_search``, outside the nine fields, so it
    stays out of the repr, and equality and hashing ignore it: two records
    of equal fields are equal whichever searches made them.  A record built
    by hand has no engine: its ``_search`` is None."""

    _search = None

    def record(self) -> dict:
        sp = self.space
        return {
            "topology": sp.topology.value, "N": sp.num_vertices, "k": sp.speed, "s": self.s,
            "class": self.test_class, "flag": sp.moves_after_last_test, "min_tests": self.min_tests,
            "status": self.status, "states": self.states, "edges": self.edges,
        }


def exact_min_tests(
    space: SearchSpace,
    s: int,
    test_class: str = "intervals",
    budget: Optional[int] = None,
) -> GameValue:
    """Minimax-optimal number of tests for accuracy ``s``, or unreachable.

    ``budget`` caps the deepening; hitting it is reported as status
    ``budget_exceeded`` rather than being conflated with unreachability,
    unless the states past the budget show that no strategy exists at all.
    The accuracy check applies after the trailing move when the space has
    ``moves_after_last_test``, before it otherwise.  Past ``MAX_EDGES``
    stored pairs the query raises ``BudgetExceededError``.
    """
    if s < 1:
        raise ValueError("accuracy must be >= 1")
    if budget is not None and budget < 0:
        raise ValueError("test budget must be >= 0")
    arena = Arena(space)
    search = _Search(arena, test_class, s)
    status, result = ("solved", 0) if arena.full.bit_count() <= s else search.deepen(arena.full, budget)
    return search.value(status, result)


def exact_min_accuracy_value(space: SearchSpace, test_class: str = "intervals") -> GameValue:
    """Record of the least accuracy: the first s < N whose trap loses the full arena, else N."""
    arena = Arena(space)
    search = _Search(arena, test_class, 1, sized=True)
    for s in range(1, arena.n):
        search.at(s)
        if search.need[arena.n] < INF and not search.trap(arena.full):
            return search.value("solved", s)
    return search.value("solved", arena.n)


def exact_min_accuracy(space: SearchSpace, test_class: str = "intervals") -> int:
    """Smallest accuracy reachable with any number of tests, as an int."""
    return exact_min_accuracy_value(space, test_class).s


def extract_strategy(gv: GameValue) -> AdaptiveStrategy:
    """Rebuild an optimal decision tree from the query's proven bounds.

    Walks raw candidate sets from the full arena; a state with r tests left
    takes the first split from ``Arena.splits`` whose open children are
    proven won within r-1 at their canonical forms, as the split that won
    the state is.  An interval test is the hull of the answer-1 part, one
    interval that never wraps; an all-subsets test is that part itself."""
    if gv.min_tests is None:  # also an accuracy record, which proves no test count
        raise ValueError(f"no strategy to extract: status is {gv.status}, min_tests is None")
    if gv._search is None:
        raise ValueError("no strategy to extract: the record has no engine")
    search, s = gv._search, gv.s

    def shown(e: int, moved: int) -> int:
        return moved if search.expand else e

    def node(e: int, d: int, left: int) -> StrategyNode:
        if shown(e, d).bit_count() <= s:
            return StrategyNode(answer=ps_of(shown(e, d)))
        for e1, m1, e0, m0 in search.arena.splits(d, gv.test_class):
            parts = ((e1, m1), (e0, m0))
            if all(shown(e, m).bit_count() <= s or search.hi.get(search.child(m), INF) < left for e, m in parts):
                # e1 is a run of d's members: its hull meets d in e1 alone,
                # and starts above d's lowest member, so it never wraps
                test = e1 if gv.test_class == "all_subsets" else (1 << e1.bit_length()) - (e1 & -e1)
                return StrategyNode(test=ps_of(test), on0=node(e0, m0, left - 1), on1=node(e1, m1, left - 1))
        raise AssertionError("a won state lost its winning split")

    full = search.arena.full
    return AdaptiveStrategy(gv.space, node(full, full, gv.min_tests), s)


# ---------------------------------------------------------------------------
# exhaustive search over non-adaptive matrices


def exact_best_matrix(space: SearchSpace, s: int, n: int) -> Optional[TestMatrix]:
    """Some n-row matrix that succeeds at accuracy ``s``, or None if none exists.

    The state is the antichain of still-unresolved candidate sets, stepped
    by ``nonadaptive.advance_row``, the row step ``evaluate_matrix`` runs
    too (subset-dominated sets are dropped: they succeed whenever a
    superset does).  Exhausts all row sequences up to per-row complement
    and reflection at the first row, in a fixed order, and returns the
    first that succeeds.  It is branch and bound (A. H. Land, A. G. Doig,
    "An automatic method of solving discrete programming problems",
    Econometrica 28(3), 1960): r rows that resolve a set are an r-test
    adaptive strategy over all subsets, so a branch is cut once one
    all-subsets engine per call shows that some set in it cannot be won
    within the rows left.  The result is the one the unbounded search finds.
    Past ``MAX_MATRIX_ENTRIES`` memo entries it raises ``BudgetExceededError``.
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
    if full.bit_count() <= s:
        raise ValueError("trivial instance: the whole arena already fits the accuracy")
    bound = _Search(arena, "all_subsets", s)
    if not bound.win(full, n):  # not solve's check again: it exits before the 2^(N-1) rows are built
        return None

    child = bound.child
    tests = [t for t in range(1, full) if not t & 1]  # complement-normalized rows
    counter = {"entries": 0}
    memo: dict[tuple[frozenset[int], int], Optional[tuple[int, ...]]] = {}

    def solve(states: frozenset[int], rows_left: int) -> Optional[tuple[int, ...]]:
        if not states:
            return ()
        if not all(bound.win(child(d), rows_left) for d in states):  # refutes rows_left = 0 too
            return None
        key = (states, rows_left)
        if key in memo:
            return memo[key]
        counter["entries"] += 1
        if counter["entries"] > MAX_MATRIX_ENTRIES:
            raise BudgetExceededError(f"matrix search cap {MAX_MATRIX_ENTRIES} exceeded")
        result = None
        for t in tests:
            rest = solve(advance_row(arena, states, t, s), rows_left - 1)
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
        rest = solve(advance_row(arena, frozenset([full]), t, s), n - 1)
        if rest is not None:
            rows = (t,) + rest
            return TestMatrix(tuple(tuple((row >> j) & 1 for j in range(arena.n)) for row in rows))
    return None
