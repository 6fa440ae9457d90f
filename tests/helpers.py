"""Shared verification helpers: the strategy-tree check, which runs
``verify``'s walk-level reference, the reference interval algebra, the
reference strategy parser, the reference test enumerator and mask reader,
oracle, expansion with its dominance rule and class sweep, the reference
matrix evaluator, the reference matrix builder and tree walks, and the
seeded target walk."""

import itertools
import re

from movingsearch import codec, oracle, verify
from movingsearch.adaptive import StrategyNode
from movingsearch.errors import BudgetExceededError
from movingsearch.kernel import Arena, mask_of
from movingsearch.nonadaptive import TestMatrix, advance_row
from movingsearch.spaces import (
    PositionSet,
    Topology,
    full_set,
    neighborhood,
    split,
    update,
)


def brute_line_reach(lo, hi, k, a):
    """Members of the integer set a moved up to k steps along a line bounded
    by lo and hi (None: unbounded)."""
    return {
        w
        for v in a
        for w in range(v - k, v + k + 1)
        if (lo is None or w >= lo) and (hi is None or w <= hi)
    }


def assert_strategy_sound(strategy):
    """Check a strategy tree with verify's walk-level reference, under the
    arena's end-of-game rule: every leaf and every walk."""
    verify._strategy_succeeds_everywhere(verify._Tally(), strategy)


def branch_sizes(strategy):
    """Candidate-set size per round along every root-to-leaf path, in the
    order of ``strategy.leaves()``."""
    space = strategy.space
    out = []
    stack = [(strategy.root, (), full_set(space), [])]
    while stack:
        node, bits, d, sizes = stack.pop()
        if node.is_leaf:
            out.append((bits, sizes))
            continue
        for y in (1, 0):
            nxt = update(space, d, node.test, y)
            stack.append((node.child(y), bits + (y,), nxt, sizes + [len(nxt)]))
    return out


def enumerate_interval_tests(space):
    """Every consecutive test set: intervals on a path, arcs on a cycle.

    Wrap-around arcs are included for cycles; the full vertex set and the
    empty set are omitted as uninformative.
    """
    n = space.num_vertices
    if space.topology is Topology.CYCLE:
        seen = set()
        out = []
        for length in range(1, n):
            for start in range(1, n + 1):
                end = start + length - 1
                if end <= n:
                    arc = PositionSet.interval(start, end)
                else:
                    arc = PositionSet([(start, n), (1, end - n)])
                if arc not in seen:
                    seen.add(arc)
                    out.append(arc)
        return out
    return [
        PositionSet.interval(a, b)
        for a in range(1, n + 1)
        for b in range(a, n + 1)
        if not (a == 1 and b == n)
    ]


def class_test_masks(space, test_class):
    """Every informative test mask of the class, from the enumerator above
    or every proper nonempty mask."""
    if test_class == "intervals":
        return [mask_of(t) for t in enumerate_interval_tests(space)]
    return list(range(1, (1 << space.num_vertices) - 1))


def reference_ps_of(mask):
    """The intervals of a mask's members, read one bit at a time: the former
    ``kernel.ps_of``, kept as the reference for its run-at-a-time loop."""
    ivs = []
    j = 0
    while mask:
        if mask & 1:
            lo = j
            while mask & 1:
                mask >>= 1
                j += 1
            ivs.append((lo + 1, j))
        else:
            mask >>= 1
            j += 1
    return tuple(ivs)


# -- reference interval algebra ------------------------------------------------
# The two-step round, composed of the public steps, and the int-first text
# parser: the references that the memoized round, with its one-interval
# branch, and the precompiled parser are checked against.


def reference_update(space, d_prev, t, answer):
    """One test/answer round as split, then reach."""
    return neighborhood(space, split(space, d_prev, t, answer))


def reference_parse_position_set(text):
    """PositionSet's text form, each fragment read by int() and, failing
    that, by an uncompiled N-M pattern."""
    text = text.strip()
    if text in ("", "-"):
        return PositionSet.empty()
    ivs = []
    for part in text.split(","):
        part = part.strip()
        try:
            v = int(part)
            ivs.append((v, v))
        except ValueError:
            m = re.fullmatch(r"(-?\d+)-(-?\d+)", part)
            if not m:
                raise ValueError(f"bad position set fragment {part!r}") from None
            ivs.append((int(m.group(1)), int(m.group(2))))
    return PositionSet(ivs)


# -- reference strategy parser ---------------------------------------------------
# The dict-and-sort reader that AdaptiveStrategy.parse replaced, kept as the
# reference that its one-pass preorder reading is checked against.  It takes
# any numbering in which a node's children are distinct, later, unused ids.

_REF_ID = "([0-9]+)"
_REF_SET = "(-|[0-9]+(?:-[0-9]+)?(?:,[0-9]+(?:-[0-9]+)?)*)"
_REF_LINE = re.compile(
    f"leaf {_REF_ID} answer={_REF_SET}|node {_REF_ID} test={_REF_SET} on0={_REF_ID} on1={_REF_ID}"
)


def reference_parse_strategy(text):
    """The root of the tree that the strategy text describes."""
    raw = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        m = _REF_LINE.fullmatch(line)
        if m is None:
            raise ValueError(f"bad strategy line {line!r}")
        leaf_id, answer, node_id, test, on0, on1 = m.groups()
        try:
            ps = PositionSet.parse(test if answer is None else answer)
        except ValueError as exc:  # an interval that runs backwards
            raise ValueError(f"bad strategy line {line!r}: {exc!r}") from None
        if answer is None:
            nid, children = int(node_id), (int(on0), int(on1))
        else:
            nid, children = int(leaf_id), ()
        if nid in raw:
            raise ValueError(f"strategy line {line!r} redefines id {nid}")
        raw[nid] = (line, ps, children)

    built = {}
    for nid in sorted(raw, reverse=True):
        line, ps, children = raw[nid]
        if not children:
            built[nid] = StrategyNode(None, None, None, ps)
            continue
        on0, on1 = children
        if on0 == on1 or on0 not in built or on1 not in built:
            raise ValueError(f"strategy line {line!r}: children must be distinct, later, unused ids")
        built[nid] = StrategyNode(ps, built.pop(on0), built.pop(on1))
    if list(built) != [0]:
        raise ValueError("strategy text is not one tree rooted at id 0")
    return built[0]


# -- reference oracle ------------------------------------------------------------
# An early graph build and labeller of the exact oracle, kept as the reference
# that its proof search is checked against: every state reachable from the
# full arena is expanded, and synchronous value iteration re-scans every
# pending state each round.


def _submasks(d):
    # proper nonempty submasks of d
    sub = (d - 1) & d
    while sub:
        yield sub
        sub = (sub - 1) & d


def reference_build_graph(arena, test_class, max_states=500_000):
    """state -> list of (test, e1, child1, e0, child0), deduped per split."""
    interval_masks = class_test_masks(arena.space, "intervals") if test_class == "intervals" else None
    graph = {}
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


def reference_label(arena, graph, s, budget):
    """Synchronous value iteration; returns (values, reached_fixpoint)."""
    expand = arena.space.moves_after_last_test
    INF = float("inf")

    def branch_value(e, child, vals):
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


def reference_min_tests(arena, graph, s, budget=None):
    """(status, min_tests) as the former ``exact_min_tests`` reported them."""
    vals, fixpoint = reference_label(arena, graph, s, budget)
    root_val = vals.get(arena.full)
    if root_val is not None:
        return "solved", int(root_val)
    return ("unreachable" if fixpoint else "budget_exceeded"), None


def reference_min_accuracy(arena, graph, n_budget=None):
    for s in range(1, arena.n + 1):
        vals, _fixpoint = reference_label(arena, graph, s, n_budget)
        v = vals.get(arena.full)
        if v is not None and (n_budget is None or v <= n_budget):
            return s
    return arena.n


# -- reference expansion -----------------------------------------------------------
# The former body of ``oracle._Search.pairs``, kept as the reference that its
# dominance pruning is checked against: every split of the state is filed.
# ``reference_dominated`` is the pruning rule as one predicate per split.


def reference_pairs(self, d, pruned=False):
    """d's distinct splits as pairs of branches, the larger first, in
    increasing order of it, none dropped (with ``pruned``, those that
    ``reference_dominated`` drops); a drop-in for ``_Search.pairs``."""
    out = self.table.get(d)
    if out is not None:
        return out
    n, full, first_open = self.arena.n, self.arena.full, self.floor + 1 << self.arena.n
    get, new = self._branch.get, self._new_branch
    found = set()
    for e1, m1, e0, m0 in self.arena.splits(d, self.test_class):
        if pruned and reference_dominated(d, e1, m1, e0, m0, self.lim, self.ends):
            continue
        if self.expand:
            b1, b0 = get(m1) or new(m1), get(m0) or new(m0)
        else:  # the part itself is announced
            b1, b0 = e1.bit_count() << n, e0.bit_count() << n
            b1 = b1 | (get(m1) or new(m1)) & full if b1 >= first_open else 0
            b0 = b0 | (get(m0) or new(m0)) & full if b0 >= first_open else 0
        b1, b0 = b1 if b1 >= first_open else 0, b0 if b0 >= first_open else 0
        found.add((b1, b0) if b1 >= b0 else (b0, b1))
    out = self.table[d] = sorted(found)
    self.edges += len(out)
    if self.edges > oracle.MAX_EDGES:
        raise BudgetExceededError(f"oracle edge cap {oracle.MAX_EDGES} exceeded")
    return out


def reference_dominated(d, e1, m1, e0, m0, lim, ends):
    """Whether no optimal line needs the split (e1, moved m1, e0, moved m0) of
    ``d``: a side of over ``lim`` members whose move covers ``d``, or a middle
    run ``e1`` (``e0`` on both sides) meeting ``ends`` (vertices 1..k+1, N-k..N).
    The predicate ``Arena.splits`` applies as loop bounds, split by split."""
    return (not d & ~m1 and e1.bit_count() > lim or not d & ~m0 and e0.bit_count() > lim
            or e0 > e1 and e1 & ends)


# -- reference class sweep ---------------------------------------------------------
# The former body of ``adversary._forced_size``, kept as the reference that the
# sweep over ``Arena.splits`` is checked against: it runs through every test
# mask of the class and drops repeated answer-1 parts.


def reference_forced_size(arena, start, rounds, test_class, ties):
    """Smallest final size ``rounds`` tests of the class can force from
    ``start`` against the larger-part adversary (``ties`` on equal sizes)."""
    tests = class_test_masks(arena.space, test_class)
    reach = arena.reach
    memo = {}

    def force(d, left):
        if left == 0:
            return d.bit_count()
        key = (d, left)
        if key in memo:
            return memo[key]
        best = force(reach(d), left - 1)
        seen = {0, d}
        for t in tests:
            e1 = d & t
            if e1 in seen:
                continue
            seen.add(e1)
            d1 = reach(e1)
            d0 = reach(d & ~t)
            nxt = d1 if d1.bit_count() + ties > d0.bit_count() else d0
            best = min(best, force(nxt, left - 1))
        memo[key] = best
        return best

    return force(start, rounds)


# -- reference matrix evaluator ----------------------------------------------------
# The former ``PositionSet`` evaluator, kept as the reference that the mask
# antichain loop of ``nonadaptive.evaluate_matrix`` is checked against: it
# walks all 2^rows answer sequences one by one.


def reference_evaluate_matrix(space, matrix, s):
    """(success, a largest final candidate set or None) by exhaustive descent.

    A branch succeeds as soon as the announced set has at most ``s``
    elements; a branch whose candidate set empties is vacuously successful.
    Each row is read from ``matrix.bits`` here, not from the tests the
    matrix stores.
    """
    tests = [PositionSet.from_members(j + 1 for j, b in enumerate(row) if b) for row in matrix.bits]
    expand = space.moves_after_last_test
    worst = [None]

    def explore(d, i):
        if i == len(tests):
            if worst[0] is None or len(d) > len(worst[0]):
                worst[0] = d
            return False
        ok = True
        for y in (0, 1):
            e = split(space, d, tests[i], y)
            if not e:
                continue
            if len(neighborhood(space, e) if expand else e) <= s:
                continue
            ok = explore(neighborhood(space, e), i + 1) and ok
        return ok

    d0 = full_set(space)
    if len(d0) <= s or explore(d0, 0):
        return True, None
    return False, worst[0]


# -- reference matrix search -------------------------------------------------------
# The former body of ``oracle.exact_best_matrix``, kept as the reference that
# its search pruned by the adaptive value is checked against: the same row
# order and symmetries, with no bound.


def reference_best_matrix(space, s, n):
    """The first n-row matrix in the search order that succeeds at accuracy
    ``s``, or None."""
    arena = Arena(space)
    full = arena.full
    tests = [t for t in range(1, full) if not t & 1]  # complement-normalized rows
    memo = {}

    def solve(states, rows_left):
        if not states:
            return ()
        if rows_left == 0:
            return None
        key = (states, rows_left)
        if key not in memo:
            memo[key] = None
            for t in tests:
                rest = solve(advance_row(arena, states, t, s), rows_left - 1)
                if rest is not None:
                    memo[key] = (t,) + rest
                    break
        return memo[key]

    def norm(mask):
        # the complement-normalized (vertex-1-free) representative
        return mask if not mask & 1 else full ^ mask

    for t in tests:
        if t <= norm(arena.reflect(t)):
            rest = solve(advance_row(arena, frozenset([full]), t, s), n - 1)
            if rest is not None:
                rows = (t,) + rest
                return TestMatrix(
                    tuple(tuple((row >> j) & 1 for j in range(arena.n)) for row in rows)
                )
    return None


# -- reference builders and tree walks ---------------------------------------------
# The former per-entry loop of ``nonadaptive._center_matrix`` and the former
# stack walks of ``AdaptiveStrategy.depth`` and ``num_nodes``, kept as the
# references that the run-cut rows and the level walk are checked against.


def reference_center_matrix(n_vertices, k):
    """The expanding-accuracy matrix dilated to speed k, entry by entry."""
    mid = -(-n_vertices // 2)
    n_rows = max(1, -(-(mid - 3 * k) // k) + 1)
    rows = []
    for i in range(1, n_rows + 1):
        row = []
        left = mid - (i - 1) * k  # last column of the all-zero prefix
        right = mid + (i - 1) * k  # last column of the center region
        for j in range(1, n_vertices + 1):
            if j <= left:
                row.append(0)
            elif j <= right:
                p = -(-(j - left) // k)  # the center run, counted outward per row
                row.append(1 if p % 4 in (1, 2) else 0)  # pairs of present runs alternate with absent pairs
            else:
                row.append(1 if i % 2 == 1 else 0)
        rows.append(tuple(row))
    return TestMatrix(tuple(rows))


def reference_depth(strategy):
    """Tests on a longest root-to-leaf path, by a depth-first stack walk."""
    deepest = 0
    stack = [(strategy.root, 0)]
    while stack:
        node, d = stack.pop()
        if node.test is None:
            deepest = max(deepest, d)
        else:
            stack.append((node.on0, d + 1))
            stack.append((node.on1, d + 1))
    return deepest


def reference_num_nodes(strategy):
    """Nodes and leaves of the tree, by a depth-first stack walk."""
    count, stack = 0, [strategy.root]
    while stack:
        node = stack.pop()
        count += 1
        if node.test is not None:
            stack += (node.on0, node.on1)
    return count


# -- seeded walks ------------------------------------------------------------------
# A walk fixed in advance, for tests that hand a session its walk; a seeded
# session draws the same steps from ``codec._walk_steps`` as it plays.


def random_walk(space, length, seed):
    """Seeded walk: uniform start, then uniform over reachable next positions
    (always at least the start)."""
    return tuple(itertools.islice(codec._walk_steps(space, seed), max(length, 1)))
