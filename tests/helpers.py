"""Shared verification helpers for strategy trees, the reference oracle and
the reference matrix evaluator."""

from movingsearch.errors import BudgetExceededError
from movingsearch.kernel import expand_flag
from movingsearch.spaces import (
    PositionSet,
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


def assert_leaf_soundness(strategy):
    """Every leaf equals the replayed candidate chain and fits the target."""
    space = strategy.space
    for bits, leaf in strategy.leaves():
        d = full_set(space)
        tests, _ = strategy.replay(bits)
        for t, y in zip(tests, bits):
            d = update(space, d, t, y)
        assert leaf.answer == d, f"leaf mismatch on answers {bits}"
        if d:
            assert len(d) <= strategy.accuracy_target, (
                f"leaf too big on answers {bits}: {len(d)} > {strategy.accuracy_target}"
            )


def assert_every_walk_succeeds(strategy):
    """Each valid target walk ends inside the leaf its answers lead to."""
    space = strategy.space
    seen = set()

    def go(node, pos):
        key = (id(node), pos)
        if key in seen:
            return
        seen.add(key)
        if node.is_leaf:
            assert pos in node.answer, f"position {pos} escapes leaf {node.answer}"
            return
        child = node.child(1 if pos in node.test else 0)
        for nxt in neighborhood(space, PositionSet.from_members([pos])):
            go(child, nxt)

    for start in range(1, space.num_vertices + 1):
        go(strategy.root, start)


def branch_sizes(strategy):
    """Candidate-set size per round along every root-to-leaf path."""
    space = strategy.space
    out = []
    for bits, _ in strategy.leaves():
        d = full_set(space)
        sizes = []
        tests, _ = strategy.replay(bits)
        for t, y in zip(tests, bits):
            d = update(space, d, t, y)
            sizes.append(len(d))
        out.append((bits, sizes))
    return out


# -- reference oracle ------------------------------------------------------------
# The exact oracle's former graph build and labeller, kept as the reference
# that its retrograde labelling over a pruned graph is checked against: every
# state reachable from the full arena is expanded, and synchronous value
# iteration re-scans every pending state each round.


def _submasks(d):
    # proper nonempty submasks of d
    sub = (d - 1) & d
    while sub:
        yield sub
        sub = (sub - 1) & d


def reference_build_graph(arena, test_class, max_states=500_000):
    """state -> list of (test, e1, child1, e0, child0), deduped per split."""
    interval_masks = arena.interval_tests() if test_class == "intervals" else None
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


def reference_label(arena, graph, s, check_expanded, budget):
    """Synchronous value iteration; returns (values, reached_fixpoint)."""
    expand = arena.space.moves_after_last_test if check_expanded is None else check_expanded
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


def reference_min_tests(arena, graph, s, budget=None, check_expanded=None):
    """(status, min_tests) as the former ``exact_min_tests`` reported them."""
    vals, fixpoint = reference_label(arena, graph, s, check_expanded, budget)
    root_val = vals.get(arena.full)
    if root_val is not None:
        return "solved", int(root_val)
    return ("unreachable" if fixpoint else "budget_exceeded"), None


def reference_min_accuracy(arena, graph, n_budget=None, check_expanded=None):
    for s in range(1, arena.n + 1):
        vals, _fixpoint = reference_label(arena, graph, s, check_expanded, n_budget)
        v = vals.get(arena.full)
        if v is not None and (n_budget is None or v <= n_budget):
            return s
    return arena.n


# -- reference matrix evaluator ----------------------------------------------------
# The former ``PositionSet`` evaluator, kept as the reference that the mask
# antichain loop of ``nonadaptive.evaluate_matrix`` is checked against: it
# walks all 2^rows answer sequences one by one.


def reference_evaluate_matrix(space, matrix, s, check_expanded=None):
    """(success, a largest final candidate set or None) by exhaustive descent.

    A branch succeeds as soon as the announced set has at most ``s``
    elements; a branch whose candidate set empties is vacuously successful.
    """
    tests = list(matrix.tests())
    expand = expand_flag(space, check_expanded)
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
