"""Answer-choosing counter-strategies that keep the candidate set large.

An adversary is a rule for answering tests that is realizable by an actual
target walk (every transcript here can be certified by
``consistent_walk_exists``).  Three families are provided:

* a greedy adversary that always answers toward the larger candidate set,
* a window adversary for paths that maintains a block of 3k+1 consecutive
  positions inside the candidate set forever, refuting accuracy 3k,
* a margin adversary for paths that tracks a subset kept clear of the
  boundaries, forcing accuracy s+1 at one vertex above the n-test capacity.

``greedy_forced_size`` and ``margin_forced_size`` close the quantifier over
strategies: they minimize the forced final set size over every adaptive
strategy of a given test class, so a lower bound on their value refutes the
whole class at once.  Both are one minimax sweep over the oracle's bitmask
``kernel.Arena``, whose ``splits`` gives each state's distinct splits with
both parts moved.  It is memoized on canonical orbits (``Arena.canon``, the
symmetry quotient the oracle uses) and walks the game a level of tests at a
time, so no budget recurses; all-subsets sweeps share the oracle's cap on N.
The adversaries and their transcripts keep ``PositionSet``, the public and
text type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from .adaptive import AdaptiveStrategy, StrategyNode
from .errors import BudgetExceededError, WindowInvariantError
from .kernel import MAX_SUBSET_N, TEST_CLASSES, Arena, mask_of
from .nonadaptive import TestMatrix
from .spaces import (
    PositionSet,
    SearchSpace,
    Topology,
    full_set,
    neighborhood,
    update,
)

# the most splits one class sweep may enumerate, counted state by state
# before each state's are: an all-subsets state of m members has 2^(m-1) - 1
# of them and an interval state m(m-1)/2
MAX_SPLITS = 8_000_000


@dataclass(frozen=True)
class TranscriptRound:
    index: int
    test: PositionSet
    answer: int
    candidates: PositionSet
    tracked: Optional[PositionSet] = None  # adversary's window / margin set

    def to_line(self) -> str:
        line = f"round={self.index} test={self.test} answer={self.answer} D={self.candidates}"
        if self.tracked is not None:
            line += f" tracked={self.tracked}"
        return line


@dataclass(frozen=True)
class Transcript:
    space: SearchSpace
    initial: PositionSet
    rounds: tuple[TranscriptRound, ...]
    witness: Optional[tuple[int, ...]] = None
    announced: Optional[PositionSet] = None

    @property
    def final_candidates(self) -> PositionSet:
        return self.rounds[-1].candidates if self.rounds else self.initial

    def sizes(self) -> list[int]:
        return [len(r.candidates) for r in self.rounds]

    def tests(self) -> list[PositionSet]:
        return [r.test for r in self.rounds]

    def answers(self) -> list[int]:
        return [r.answer for r in self.rounds]

    def serialize(self) -> str:
        lines = [f"round=0 test=- answer=- D={self.initial}"]
        lines += [r.to_line() for r in self.rounds]
        if self.witness is not None:
            lines.append("walk=" + ",".join(str(p) for p in self.witness))
        if self.announced is not None:
            lines.append(f"announced={self.announced}")
        return "\n".join(lines) + "\n"


if TYPE_CHECKING:
    # annotation-only: a runtime Union would sit in typing's cache and keep
    # every imported copy of these classes, and their modules, alive
    from typing import Sequence, Union

    TestSource = Union[AdaptiveStrategy, TestMatrix, Sequence[PositionSet]]


class SourceCursor:
    """Uniform driver over a strategy tree, a matrix, or a plain test list."""

    def __init__(self, source: TestSource):
        self._node: Optional[StrategyNode] = None
        if isinstance(source, AdaptiveStrategy):
            self._node = source.root
            self._fixed = None
        elif isinstance(source, TestMatrix):
            self._fixed = list(source.tests())
        else:
            self._fixed = list(source)
        self._i = 0

    def next_test(self) -> Optional[PositionSet]:
        if self._node is not None:
            return None if self._node.is_leaf else self._node.test
        return self._fixed[self._i] if self._i < len(self._fixed) else None

    def feed(self, answer: int):
        if self._node is not None:
            self._node = self._node.child(answer)
        else:
            self._i += 1


def greedy_adversary(
    space: SearchSpace,
    source: TestSource,
    rounds: Optional[int] = None,
) -> Transcript:
    """Answer each test toward the larger candidate set (ties answer 0)."""
    cursor = SourceCursor(source)
    d = full_set(space)
    out = []
    i = 0
    while rounds is None or i < rounds:
        test = cursor.next_test()
        if test is None:
            break
        i += 1
        d1 = update(space, d, test, 1)
        d0 = update(space, d, test, 0)
        answer = 1 if len(d1) > len(d0) else 0
        d = d1 if answer else d0
        cursor.feed(answer)
        out.append(TranscriptRound(i, test, answer, d))
    return Transcript(space, full_set(space), tuple(out))


# ---------------------------------------------------------------------------
# window adversary (paths, accuracy > 3k refutation)


def _leftmost_block(ps: PositionSet, width: int) -> Optional[PositionSet]:
    for lo, hi in ps.intervals:
        if hi - lo + 1 >= width:
            return PositionSet.interval(lo, lo + width - 1)
    return None


def window_step(space: SearchSpace, window: PositionSet, test: PositionSet) -> tuple[int, PositionSet]:
    """One round of the window rule: the chosen answer and the new block.

    The answer comes from a five-case rule on how the test meets the block
    and how far the block sits from the path's ends; the new block is the
    leftmost wide-enough run in the reachability expansion of the kept
    part.  Raises ``WindowInvariantError`` if no such run exists.
    """
    n, k = space.num_vertices, space.speed
    width = 3 * k + 1
    inter = test & window
    if not inter:
        answer = 0
    else:
        hits = len(inter)
        left = inter.min_value() - 1
        right = n - inter.max_value()
        if hits >= k + 1 and left >= k and right >= k:
            answer = 1
        elif hits + left >= 2 * k + 1 and left < k:
            answer = 1
        elif hits + right >= 2 * k + 1 and right < k:
            answer = 1
        elif hits > 2 * k:
            answer = 1
        else:
            answer = 0
    kept = inter if answer else window - test
    new_window = _leftmost_block(neighborhood(space, kept), width)
    if new_window is None:
        raise WindowInvariantError(
            f"no {width}-wide block survives test {test} with window {window}"
        )
    return answer, new_window


def window_adversary(space: SearchSpace, source: TestSource) -> Transcript:
    """Maintain a block of 3k+1 consecutive candidates forever.

    Refutes accuracy 3k on any path with at least 4k+1 vertices: the block
    witnesses |D_i| >= 3k+1 after every round.
    """
    if space.topology is not Topology.PATH:
        raise ValueError("the window adversary works on paths")
    n, k = space.num_vertices, space.speed
    if n < 4 * k + 1:
        raise ValueError(f"need N >= 4k+1 = {4 * k + 1}")
    cursor = SourceCursor(source)
    d = full_set(space)
    window = PositionSet.interval(1, 3 * k + 1)
    out = []
    i = 0
    while True:
        test = cursor.next_test()
        if test is None:
            break
        i += 1
        answer, window = window_step(space, window, test)
        d = update(space, d, test, answer)
        if not window.issubset(d):
            raise WindowInvariantError(f"round {i}: window {window} escaped candidates {d}")
        out.append(TranscriptRound(i, test, answer, d, tracked=window))
        cursor.feed(answer)
    return Transcript(space, full_set(space), tuple(out))


# ---------------------------------------------------------------------------
# margin adversary (paths, capacity upper bound)


def margin_start(space: SearchSpace, n: int, s: int) -> PositionSet:
    """Initial tracked set: centered, with n*k free positions on each side."""
    if n < 0:
        raise ValueError("test budget must be >= 0")
    k = space.speed
    size = (1 << n) * (s - 4 * k) + 4 * k + 1
    lo = n * k + 1
    if lo + size - 1 + n * k > space.num_vertices:
        raise ValueError(
            f"margin adversary needs N >= {size + 2 * n * k}, got {space.num_vertices}"
        )
    return PositionSet.interval(lo, lo + size - 1)


def margin_adversary(space: SearchSpace, source: TestSource, n: int, s: int) -> Transcript:
    """Track a boundary-free subset whose size at least halves-plus-2k per round.

    At one vertex above the n-test capacity this forces every strategy to
    finish with more than s candidates.  The arena is not required to sit
    exactly at that critical size; away from it the invariants recorded in
    the transcript are advisory.
    """
    if space.topology is not Topology.PATH:
        raise ValueError("the margin adversary works on paths")
    cursor = SourceCursor(source)
    a = margin_start(space, n, s)
    d = full_set(space)
    out = []
    for i in range(1, n + 1):
        test = cursor.next_test()
        if test is None:
            break
        kept1 = update(space, a, test, 1)
        kept0 = update(space, a, test, 0)
        answer = 0 if len(kept1) < len(kept0) else 1
        a = kept1 if answer else kept0
        d = update(space, d, test, answer)
        if not a.issubset(d):
            raise AssertionError("tracked set escaped the candidate set")
        out.append(TranscriptRound(i, test, answer, d, tracked=a))
        cursor.feed(answer)
    return Transcript(space, full_set(space), tuple(out))


# ---------------------------------------------------------------------------
# counter-strategy against non-adaptive matrices


@dataclass(frozen=True)
class CounterCertificate:
    """Two walks sharing one answer sequence whose endpoints straddle the
    forced interval; ``forced_accuracy`` is the replayed final set size."""

    forced_accuracy: int
    answers: tuple[int, ...]
    walks: tuple[tuple[int, ...], tuple[int, ...]]
    final_candidates: PositionSet


def matrix_counter(space: SearchSpace, matrix: TestMatrix) -> CounterCertificate:
    """Force any non-adaptive strategy on a long-enough path above accuracy 4k-1.

    The target hides near the middle until the last row; the last row
    either treats the middle block uniformly (forcing 4k+1) or contains a
    membership flip next to which two diverging continuations stay
    indistinguishable (forcing at least 4k).
    """
    if space.topology is not Topology.PATH:
        raise ValueError("the matrix counter-strategy works on paths")
    n, k = space.num_vertices, space.speed
    if n <= 6 * k:
        raise ValueError(f"need N > 6k = {6 * k}")
    if matrix.cols != n:
        raise ValueError("matrix width does not match the arena")
    mid = -(-n // 2)
    last = matrix.bits[matrix.rows - 1]

    def val(col: int) -> int:
        return last[col - 1]

    flip = next((j for j in range(mid - k, mid + k) if val(j) != val(j + 1)), None)
    if flip is None:
        hide, near, far = mid, mid - k, mid + k
    elif flip <= mid:
        hide = flip + k
        far = flip + 2 * k
        near = flip if val(flip) == val(far) else flip + 1
    else:
        hide = flip + 1 - k
        far = flip + 1 - 2 * k
        near = flip + 1 if val(flip + 1) == val(far) else flip

    tests = list(matrix.tests())
    answers = tuple(
        (1 if hide in t else 0) if i < len(tests) - 1 else (1 if far in t else 0)
        for i, t in enumerate(tests)
    )
    d = full_set(space)
    for t, y in zip(tests, answers):
        d = update(space, d, t, y)

    def walk_to(end_at_test: int) -> tuple[int, ...]:
        drift = k if end_at_test >= hide else -k
        tail = max(1, min(n, end_at_test + drift))
        return tuple([hide] * (len(tests) - 1) + [end_at_test, tail])

    return CounterCertificate(len(d), answers, (walk_to(far), walk_to(near)), d)


# ---------------------------------------------------------------------------
# sweeps over whole strategy classes


def _forced_size(arena: Arena, start: int, rounds: int, test_class: str, ties: int) -> int:
    """Smallest final size ``rounds`` tests of the class can force from mask
    ``start`` when each answer keeps the larger of the two moved parts
    (``ties``, 0 or 1, is the answer on equal sizes).

    A split is read both ways round, which matters only on a tie, except on
    a path with interval tests: the complement of a middle run is no
    interval's part, so ``e0`` answers 1 only if ``e1`` holds d's highest.

    The strategy picks a test and the answer rule its child, so the value is
    the least final size over the lines of exactly ``rounds`` moves.  The
    sweep walks them a level at a time on canonical orbits (``Arena.canon``,
    via a dict keyed by the moved part): level i holds the orbits i tests
    reach, the states a memoized recursion would visit with ``rounds - i``
    tests left.  Orbits suffice because a reflection, or on a cycle a
    rotation, maps interval (arc) tests to interval tests and commutes with
    ``reach``; the larger-part rule reads sizes only; and on a path with
    intervals a reflection maps a middle run to a middle run and a prefix
    and suffix split, read both ways round, to one.  A level depends only
    on the one before, so once one repeats the rest are periodic and a
    deep budget skips whole periods."""
    if rounds < 0:
        raise ValueError("test budget must be >= 0")
    if test_class not in TEST_CLASSES:
        raise ValueError(f"unknown test class {test_class!r}")
    if test_class == "all_subsets" and arena.n > MAX_SUBSET_N:
        raise BudgetExceededError(f"all_subsets sweep is capped at N <= {MAX_SUBSET_N}")
    intervals = test_class == "intervals"
    one_way = intervals and arena.space.topology is Topology.PATH
    reach, splits, canon = arena.reach, arena.splits, arena.canon
    orbit: dict[int, int] = {}  # moved part -> its canonical form
    splits_left = MAX_SPLITS

    def options(d: int) -> Iterator[int]:
        nonlocal splits_left
        m = d.bit_count()
        if intervals:
            splits_left -= m * (m - 1) // 2
        elif m:
            splits_left -= (1 << (m - 1)) - 1
        if splits_left < 0:
            raise BudgetExceededError(f"{test_class} sweep needs more than {MAX_SPLITS} splits")
        # burning a round on an uninformative test is a legal strategy move;
        # a test that misses d, or covers it, leads to that same child
        yield reach(d)
        top = 1 << (d.bit_length() - 1)
        for e1, d1, _e0, d0 in splits(d, test_class):
            n1, n0 = d1.bit_count(), d0.bit_count()
            if n1 == n0 and (e1 & top or not one_way):
                yield d1
                yield d0
            else:
                yield d1 if n1 + ties > n0 else d0

    if rounds == 0:
        return start.bit_count()
    last = frozenset((canon(start),))
    levels = {last: 0}  # level i: the orbits that i tests reach -> i
    while len(levels) < rounds:
        moved: set[int] = set()
        for d in last:
            moved.update(options(d))
        nxt = set()
        for c in moved:
            o = orbit.get(c)
            if o is None:
                o = orbit[c] = canon(c)
            nxt.add(o)
        last = frozenset(nxt)
        if last in levels:  # the levels from there on repeat
            first = levels[last]
            last = list(levels)[first + (rounds - 1 - first) % (len(levels) - first)]
            break
        levels[last] = len(levels)
    return min(c.bit_count() for d in last for c in options(d))


def greedy_forced_size(space: SearchSpace, rounds: int, test_class: str = "intervals") -> int:
    """Smallest final candidate-set size any strategy of the class can reach
    against the greedy adversary.  A value of v certifies that accuracy
    v-1 is out of reach for every such strategy with that many tests."""
    arena = Arena(space)
    return _forced_size(arena, arena.full, rounds, test_class, ties=0)


def margin_forced_size(
    space: SearchSpace,
    rounds: int,
    s: int,
    test_class: str = "intervals",
) -> int:
    """Minimum over strategies of the margin adversary's final tracked-set
    size; at one vertex above capacity this is at least s+1, refuting the
    entire class."""
    start = mask_of(margin_start(space, rounds, s))
    return _forced_size(Arena(space), start, rounds, test_class, ties=1)
