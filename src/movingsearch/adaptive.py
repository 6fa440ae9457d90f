"""Closed-form capacities and constructive adaptive strategies.

Strategies are binary decision trees: each internal node holds a test set
and two children indexed by the answer bit, each leaf holds the announced
position set.  All constructors work in the model where the target still
moves after the final test, and only ever emit consecutive test sets
(intervals on paths, arcs on cycles).

The path construction below tracks each candidate set as a model
interval of plain integers, which may reach past the ends of the path, and
clips every test interval to the real path; clipping never enlarges a
candidate set, so the accuracy guarantees carry over.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Union

from .errors import BudgetExceededError, RegimeError
from .spaces import (
    PositionSet,
    SearchSpace,
    Topology,
    cycle,
    full_set,
    path,
    update,
)

DEFAULT_NODE_BUDGET = 250_000


class StrategyNode(NamedTuple):
    """Internal node (test plus two children) or leaf (answer set).  A
    named tuple: immutable, compared and hashed by value, and cheaper to
    build than a frozen dataclass, which matters at tens of thousands of
    nodes per tree."""

    test: Optional[PositionSet] = None
    on0: Optional["StrategyNode"] = None
    on1: Optional["StrategyNode"] = None
    answer: Optional[PositionSet] = None

    @property
    def is_leaf(self) -> bool:
        return self.test is None

    def child(self, bit: int) -> "StrategyNode":
        return self.on1 if bit else self.on0


# exactly what ``serialize`` writes: the fields in this order, one space
# apart, position sets in their text form with no spaces, and nothing else
_ID = "([0-9]+)"
_SET = "(-|[0-9]+(?:-[0-9]+)?(?:,[0-9]+(?:-[0-9]+)?)*)"
_LINE = re.compile(f"leaf {_ID} answer={_SET}|node {_ID} test={_SET} on0={_ID} on1={_ID}")


@dataclass(frozen=True)
class AdaptiveStrategy:
    """A decision tree together with the arena and accuracy it targets."""

    space: SearchSpace
    root: StrategyNode
    accuracy_target: int

    def depth(self) -> int:
        deepest = 0
        stack = [(self.root, 0)]
        while stack:
            node, d = stack.pop()
            if node.is_leaf:
                deepest = max(deepest, d)
            else:
                stack.append((node.on0, d + 1))
                stack.append((node.on1, d + 1))
        return deepest

    def num_nodes(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def iter_nodes(self) -> Iterator[StrategyNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.append(node.on1)
                stack.append(node.on0)

    def leaves(self) -> Iterator[tuple[tuple[int, ...], StrategyNode]]:
        """(answer bits, leaf) pairs for every root-to-leaf path, the
        answer-0 side first."""
        stack = [(self.root, ())]
        while stack:
            node, bits = stack.pop()
            if node.is_leaf:
                yield bits, node
            else:
                stack.append((node.on1, bits + (1,)))
                stack.append((node.on0, bits + (0,)))

    def replay(self, answers) -> tuple[list[PositionSet], StrategyNode]:
        """Descend by the given answer bits, returning the tests used."""
        node = self.root
        tests = []
        for bit in answers:
            if node.is_leaf:
                break
            tests.append(node.test)
            node = node.child(bit)
        return tests, node

    # one node per line: "node <id> test=<set> on0=<id> on1=<id>" or
    # "leaf <id> answer=<set>" (``_LINE``), ids assigned in preorder from 0,
    # so a node's answer-0 child is the next id
    def serialize(self) -> str:
        nodes: list[StrategyNode] = []
        on1: dict[int, int] = {}  # node id -> id of its answer-1 child
        stack: list[tuple[StrategyNode, Optional[int]]] = [(self.root, None)]
        while stack:
            node, parent = stack.pop()
            if parent is not None:
                on1[parent] = len(nodes)
            if not node.is_leaf:
                stack.append((node.on1, len(nodes)))
                stack.append((node.on0, None))
            nodes.append(node)
        lines = [
            f"leaf {i} answer={node.answer}" if node.is_leaf
            else f"node {i} test={node.test} on0={i + 1} on1={on1[i]}"
            for i, node in enumerate(nodes)
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str, space: SearchSpace, accuracy_target: int) -> "AdaptiveStrategy":
        """Read the ``serialize`` format back, building from the highest id
        down, so without recursion.  Ids are preorder numbers: each id is
        defined once, and a node's two children are distinct ids above its
        own that no other node uses.  Text that breaks this, or that is not
        one tree rooted at id 0, raises ``ValueError`` naming the line."""
        raw: dict[int, tuple] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            m = _LINE.fullmatch(line)
            if m is None:
                raise ValueError(
                    f"bad strategy line {line!r}: not 'leaf <id> answer=<set>' or "
                    "'node <id> test=<set> on0=<id> on1=<id>'"
                )
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

        built: dict[int, StrategyNode] = {}
        for nid in sorted(raw, reverse=True):
            line, ps, children = raw[nid]
            if not children:
                built[nid] = StrategyNode(answer=ps)
                continue
            on0, on1 = children
            if on0 == on1 or on0 not in built or on1 not in built:
                raise ValueError(f"strategy line {line!r}: children must be distinct, later, unused ids")
            built[nid] = StrategyNode(test=ps, on0=built.pop(on0), on1=built.pop(on1))
        if list(built) != [0]:
            raise ValueError("strategy text is not one tree rooted at id 0")
        return cls(space, built[0], accuracy_target)


class _Builder:
    """Node factory that enforces the construction budget."""

    def __init__(self, budget: int):
        self.budget = budget
        self.count = 0

    def leaf(self, answer: PositionSet) -> StrategyNode:
        return self._mk(StrategyNode(answer=answer))

    def node(self, test: PositionSet, on0: StrategyNode, on1: StrategyNode) -> StrategyNode:
        return self._mk(StrategyNode(test=test, on0=on0, on1=on1))

    def _mk(self, node: StrategyNode) -> StrategyNode:
        self.count += 1
        if self.count > self.budget:
            raise BudgetExceededError(f"strategy tree exceeds {self.budget} nodes")
        return node


# ---------------------------------------------------------------------------
# capacity and accuracy formulas


def cycle_capacity(n: int, s: int, k: int) -> int:
    """Largest cycle size solvable with n tests at accuracy s (speed k)."""
    _check_regime(n, s, k)
    return (1 << n) * (s - 4 * k) + 4 * k


def restricted_cycle_capacity(n: int, s: int, k: int) -> int:
    """Largest cycle size solvable with n >= 1 tests at accuracy s (speed k)
    when the target does not move after the last test.

    Arc halving: the last test needs no re-expansion, so C(1) = 2s, and each
    earlier test maps an arc of L candidates to ceil(L/2) + 2k, so
    C(n) = 2(C(n-1) - 2k).  With no test the capacity is just s.
    """
    _check_regime(n, s, k)
    if n < 1:
        raise RegimeError("the restricted cycle capacity needs n >= 1 tests")
    return (s - 2 * k) * (1 << n) + 4 * k


def path_capacity(n: int, s: int, k: int) -> int:
    """Largest path size solvable with n tests at accuracy s (speed k)."""
    _check_regime(n, s, k)
    return (s - 4 * k) * (1 << n) + k * (2 * n + 4)


def _check_regime(n: int, s: int, k: int):
    if n < 0:
        raise RegimeError("test budget n must be >= 0")
    if k < 1:
        raise RegimeError("speed k must be >= 1")
    if s < 4 * k:
        raise RegimeError(f"accuracy s={s} below the 4k={4 * k} regime of the capacity formulas")


def path_min_accuracy(n_vertices: int, k: int) -> int:
    """Best achievable accuracy on a path of the given size."""
    if n_vertices < 1 or k < 1:
        raise ValueError("need N >= 1 and k >= 1")
    if n_vertices <= 2 * k + 1:
        return n_vertices
    if n_vertices < 4 * k + 1:
        return -(-n_vertices // 2) + k
    return 3 * k + 1


def cycle_min_accuracy(n_vertices: int, k: int) -> int:
    """Best achievable accuracy on a cycle of the given size."""
    if n_vertices < 1 or k < 1:
        raise ValueError("need N >= 1 and k >= 1")
    return n_vertices if n_vertices <= 4 * k else 4 * k + 1


@dataclass(frozen=True)
class MinTests:
    """A minimum test count; ``exact`` is False where only achievability
    (not optimality) is established for the regime."""

    n: int
    exact: bool = True

    def __int__(self) -> int:
        return self.n


def min_tests(topology: Union[Topology, str], n_vertices: int, s: int, k: int) -> MinTests:
    """Fewest tests for accuracy s on the given arena.

    Exact for s >= 4k (capacity inversion) and for the trivial/small
    regimes.  On paths with 3k+1 <= s < 4k the sliding-window bound is
    achievable but not known to be optimal, so the result is tagged
    ``exact=False``.
    """
    topo = Topology(topology) if isinstance(topology, str) else topology
    if n_vertices < 1 or k < 1:
        raise ValueError("need N >= 1 and k >= 1")
    if s < 1:
        raise RegimeError("accuracy must be >= 1")
    if n_vertices <= s:
        return MinTests(0)
    if topo is Topology.CYCLE:
        if s <= 4 * k:
            raise RegimeError(
                f"no finite test count: cycle needs accuracy > 4k (or N <= s), got s={s}"
            )
        n = 0
        while cycle_capacity(n, s, k) < n_vertices:
            n += 1
        return MinTests(n)
    if s >= 4 * k:
        n = 0
        while path_capacity(n, s, k) < n_vertices:
            n += 1
        return MinTests(n)
    if n_vertices < 4 * k + 1:
        if s >= path_min_accuracy(n_vertices, k):
            return MinTests(1)
        raise RegimeError(f"accuracy {s} unachievable on a {n_vertices}-vertex path")
    if s >= 3 * k + 1:
        span = s - 3 * k  # window slide per test
        return MinTests(max(1, -(-(n_vertices - 4 * k) // (2 * span))), exact=False)
    raise RegimeError(f"accuracy {s} unachievable on paths with N >= 4k+1")


# ---------------------------------------------------------------------------
# cycle construction: halve the candidate arc, re-expand, repeat


def _arc_set(n: int, start0: int, length: int) -> PositionSet:
    """Arc of ``length`` vertices starting at 0-based position ``start0``."""
    if length >= n:
        return PositionSet.interval(1, n)
    start0 %= n
    end0 = start0 + length - 1
    if end0 < n:
        return PositionSet.interval(start0 + 1, end0 + 1)
    return PositionSet([(start0 + 1, n), (1, end0 - n + 1)])


def cycle_strategy(
    n_vertices: int,
    s: int,
    k: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> AdaptiveStrategy:
    """Consecutive-arc halving strategy on the cycle.

    From a candidate arc, test its first half: either half re-expands by k
    on each side, so the arc length follows L -> ceil(L/2) + 2k until it
    reaches the accuracy target.
    """
    space = cycle(n_vertices, k)
    min_tests(Topology.CYCLE, n_vertices, s, k)  # regime check
    b = _Builder(node_budget)

    def build(start0: int, length: int) -> StrategyNode:
        if length <= s:
            return b.leaf(_arc_set(n_vertices, start0, length))
        t = (length + 1) // 2
        test = _arc_set(n_vertices, start0, t)
        on1 = build(start0 - k, min(t + 2 * k, n_vertices))
        on0 = build(start0 + t - k, min(length - t + 2 * k, n_vertices))
        return b.node(test, on0, on1)

    return AdaptiveStrategy(space, build(0, n_vertices), s)


# ---------------------------------------------------------------------------
# path constructions


def _edge_probe_strategy(n_vertices: int, k: int, window: int, s: int, node_budget: int) -> AdaptiveStrategy:
    """Halve once, then slide a probe window inward from the far edge.

    A hit on the probe pins the target down to at most window + 2k = s
    positions; a miss shrinks the candidate interval, which always stays a
    single interval anchored at one end of the path.
    """
    space = path(n_vertices, k)
    b = _Builder(node_budget)

    def build(d: PositionSet) -> StrategyNode:
        if len(d) <= s:
            return b.leaf(d)
        lo, hi = d.min_value(), d.max_value()
        if lo - 1 <= n_vertices - hi:
            probe = PositionSet.interval(hi - window + 1, hi)
        else:
            probe = PositionSet.interval(lo, lo + window - 1)
        on1 = build(update(space, d, probe, 1))
        on0 = build(update(space, d, probe, 0))
        return b.node(probe, on0, on1)

    d0 = full_set(space)
    if len(d0) <= s:
        return AdaptiveStrategy(space, b.leaf(d0), s)
    first = PositionSet.interval(1, -(-n_vertices // 2))
    root = b.node(first, build(update(space, d0, first, 0)), build(update(space, d0, first, 1)))
    return AdaptiveStrategy(space, root, s)


def path_shifting_strategy(n_vertices: int, k: int, node_budget: int = DEFAULT_NODE_BUDGET) -> AdaptiveStrategy:
    """The accuracy-3k+1 strategy for paths with at least 4k+1 vertices."""
    if k < 1:
        raise ValueError("speed k must be >= 1")
    if n_vertices < 4 * k + 1:
        raise RegimeError(f"path too small: need N >= 4k+1 = {4 * k + 1}")
    return _edge_probe_strategy(n_vertices, k, window=k + 1, s=3 * k + 1, node_budget=node_budget)


def path_sliding_window_strategy(
    n_vertices: int,
    k: int,
    span: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> AdaptiveStrategy:
    """Accuracy-(3k+span) strategy whose probe window slides ``span`` per miss.

    With n tests this handles paths up to 2*n*span + 4k vertices; span=1
    recovers the one-step shifting strategy.
    """
    if k < 1:
        raise ValueError("speed k must be >= 1")
    if not 1 <= span <= k:
        raise RegimeError(f"window slide must satisfy 1 <= l <= k, got l={span}")
    return _edge_probe_strategy(
        n_vertices, k, window=span + k, s=3 * k + span, node_budget=node_budget
    )


def _open_cap(j: int, s: int, k: int) -> int:
    """Capacity of the both-sides-open variant with j tests."""
    return (s - 4 * k) * (1 << j) + 4 * k


def _half_cap(j: int, s: int, k: int) -> int:
    """Capacity of the left-bounded variant with j tests."""
    return (s - 4 * k) * (1 << j) + (j + 4) * k


def path_strategy(
    n_vertices: int,
    s: int,
    k: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> AdaptiveStrategy:
    """Optimal-count path strategy for accuracy s >= 4k.

    The first test splits the path into two instances that are bounded on
    one side only; those recurse through the half-open construction, whose
    miss branch in turn falls back to plain halving of an unbounded interval.
    Test intervals are computed on these plain-integer model intervals and
    clipped to the real path, which only ever shrinks candidate sets.
    """
    space = path(n_vertices, k)
    n = min_tests(Topology.PATH, n_vertices, s, k).n  # also checks the regime
    b = _Builder(node_budget)

    def clip_test(lo: int, hi: int, flip: bool) -> PositionSet:
        if flip:
            lo, hi = n_vertices + 1 - hi, n_vertices + 1 - lo
        return PositionSet.interval(lo, hi).clipped(1, n_vertices)

    def build_open(d: PositionSet, lo: int, hi: int, j: int, flip: bool) -> StrategyNode:
        # model state: interval [lo, hi], free to grow on both sides
        if len(d) <= s:
            return b.leaf(d)
        assert j > 0, "open-interval budget exhausted"
        t = (hi - lo + 2) // 2  # left half, rounded up
        test = clip_test(lo, lo + t - 1, flip)
        on1 = build_open(update(space, d, test, 1), lo - k, lo + t - 1 + k, j - 1, flip)
        on0 = build_open(update(space, d, test, 0), lo + t - k, hi + k, j - 1, flip)
        return b.node(test, on0, on1)

    def build_half(d: PositionSet, y: int, j: int, flip: bool) -> StrategyNode:
        # model state: prefix {1..y}, bounded on the left only
        if len(d) <= s:
            return b.leaf(d)
        assert j > 0, "half-open budget exhausted"
        t = y - _open_cap(j - 1, s, k) + 2 * k
        t = max(1, min(t, _half_cap(j - 1, s, k) - k, y - 1))
        test = clip_test(1, t, flip)
        on1 = build_half(update(space, d, test, 1), t + k, j - 1, flip)
        lo0 = t + 1 - k
        if lo0 <= 1:
            on0 = build_half(update(space, d, test, 0), y + k, j - 1, flip)
        else:
            on0 = build_open(update(space, d, test, 0), lo0, y + k, j - 1, flip)
        return b.node(test, on0, on1)

    d0 = full_set(space)
    if len(d0) <= s:
        return AdaptiveStrategy(space, b.leaf(d0), s)
    t = n_vertices - _half_cap(n - 1, s, k) + k
    t = max(1, min(t, _half_cap(n - 1, s, k) - k, n_vertices - 1))
    first = PositionSet.interval(1, t)
    on1 = build_half(update(space, d0, first, 1), t + k, n - 1, flip=False)
    on0 = build_half(update(space, d0, first, 0), n_vertices - t + k, n - 1, flip=True)
    root = b.node(first, on0, on1)
    return AdaptiveStrategy(space, root, s)
