"""Answer-choosing counter-strategies that keep the candidate set large.

An adversary is a rule for answering tests that is realizable by an actual
target walk (every transcript here can be certified by
``consistent_walk_exists``).  Three families are provided:

* a greedy adversary that always answers toward the larger candidate set,
* a window adversary for paths that maintains a block of 3k+1 consecutive
  positions inside the candidate set forever, refuting accuracy 3k,
* a margin adversary for paths that tracks a subset kept clear of the
  boundaries, forcing accuracy s+1 at one vertex above the n-test capacity.

Each is an answer rule over one play loop.  A test source is a decision
tree: ``source_root`` gives a strategy's own root, and turns a test matrix,
or a plain list of tests, into a chain of nodes whose two answers meet at
the next test (a non-adaptive strategy is an adaptive one that ignores the
answers).  The codec steps the same nodes.

``greedy_forced_size`` and ``margin_forced_size`` close the quantifier over
strategies: they minimize the forced final set size over every adaptive
strategy of a given test class, so a lower bound on their value refutes the
whole class at once.  Both are one minimax sweep over the oracle's bitmask
``kernel.Arena``, whose ``splits`` gives each state's distinct splits with
both parts moved.  It is memoized on canonical orbits (``Arena.canon``, the
symmetry quotient the oracle uses) and walks the game a level of tests at a
time, so no budget recurses; the last level is read by branch and bound,
in increasing state size, and stops once no state left can beat the best
final size.  All-subsets sweeps share the oracle's cap on N.  The
adversaries and their transcripts keep ``PositionSet``, the public and text
type.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING, Iterator, Optional

from .adaptive import AdaptiveStrategy, StrategyNode
from .errors import BudgetExceededError, RegimeError, WindowInvariantError
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
# of them and an interval state m(m-1)/2; a state of the last level that
# the branch and bound cuts off is never expanded, so costs nothing
MAX_SPLITS = 8_000_000


class TranscriptRound(namedtuple("TranscriptRound", "index test answer candidates tracked", defaults=(None,))):
    # index: the round number, 1 up; as a field it shadows ``tuple.index``
    # tracked: the adversary's window / margin set, or None
    __slots__ = ()

    def to_line(self) -> str:
        line = f"round={self.index} test={self.test} answer={self.answer} D={self.candidates}"
        if self.tracked is not None:
            line += f" tracked={self.tracked}"
        return line


class Transcript(namedtuple("Transcript", "space rounds witness announced", defaults=(None, None))):
    # rounds: a tuple of TranscriptRound; witness: a target walk as a tuple
    # of positions, or None; announced: a PositionSet, or None
    __slots__ = ()

    @property
    def final_candidates(self) -> PositionSet:
        return self.rounds[-1].candidates if self.rounds else full_set(self.space)

    def tests(self) -> list[PositionSet]:
        return [r.test for r in self.rounds]

    def answers(self) -> list[int]:
        return [r.answer for r in self.rounds]

    def serialize(self) -> str:
        lines = [f"round=0 test=- answer=- D={full_set(self.space)}"]
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


def source_root(source: TestSource) -> StrategyNode:
    """The root of a test source as a decision tree: a strategy's own root,
    or a matrix's rows (a list's tests) as a chain of nodes whose two
    answers lead to the same next test, ending in an empty leaf."""
    if isinstance(source, AdaptiveStrategy):  # before the sequence branch: a strategy is a tuple too
        return source.root
    node = StrategyNode()
    for test in reversed(list(source.tests() if isinstance(source, TestMatrix) else source)):
        node = StrategyNode(test, node, node)
    return node


def _play(space: SearchSpace, source: TestSource, rule, tracked=None, rounds=None) -> Transcript:
    """Walk the source's tree from the full candidate set, for at most
    ``rounds`` rounds.  ``rule(test, candidates, tracked)`` returns the
    answer, the next candidate set and the next tracked set; a tracked set
    must stay inside the candidates."""
    node, d, out = source_root(source), full_set(space), []
    while node.test is not None and len(out) != rounds:
        answer, d, tracked = rule(node.test, d, tracked)
        if tracked is not None and not tracked.issubset(d):
            raise AssertionError(f"round {len(out) + 1}: tracked set {tracked} escaped candidates {d}")
        out.append(TranscriptRound(len(out) + 1, node.test, answer, d, tracked))
        node = node.on1 if answer else node.on0
    return Transcript(space, tuple(out))


def greedy_adversary(space: SearchSpace, source: TestSource) -> Transcript:
    """Answer each test toward the larger candidate set (ties answer 0).
    The rule is online: the first r rounds of a play are ``rounds[:r]``."""

    def rule(test, d, _):
        d1, d0 = update(space, d, test, 1), update(space, d, test, 0)
        return (1, d1, None) if len(d1) > len(d0) else (0, d0, None)

    return _play(space, source, rule)


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
    part.  The rule answers a test that meets the block in at most one run,
    as every interval test does; a test that meets it in two runs can leave
    no such run.  Raises ``WindowInvariantError`` if no such run exists.
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
            f"the window adversary cannot answer: "
            f"no {width}-wide block survives test {test} with window {window}"
        )
    return answer, new_window


def window_adversary(space: SearchSpace, source: TestSource) -> Transcript:
    """Maintain a block of 3k+1 consecutive candidates forever.

    Refutes accuracy 3k for interval tests on any path with at least 4k+1
    vertices: the block witnesses |D_i| >= 3k+1 after every round (see
    ``window_step`` for the tests it answers).
    """
    if space.topology is not Topology.PATH:
        raise ValueError("the window adversary works on paths")
    n, k = space.num_vertices, space.speed
    if n < 4 * k + 1:
        raise ValueError(f"need N >= 4k+1 = {4 * k + 1}")

    def rule(test, d, window):
        answer, window = window_step(space, window, test)
        return answer, update(space, d, test, answer), window

    return _play(space, source, rule, PositionSet.interval(1, 3 * k + 1))


# ---------------------------------------------------------------------------
# margin adversary (paths, capacity upper bound)


def margin_start(space: SearchSpace, n: int, s: int) -> PositionSet:
    """Initial tracked set: centered, with n*k free positions on each side.
    Its size inverts the capacity formula, which holds for s >= 4k only, so
    below that it raises ``RegimeError``, before any check of n or N."""
    k = space.speed
    if s < 4 * k:
        raise RegimeError(f"accuracy s={s} below the 4k={4 * k} regime of the margin adversary")
    if n < 0:
        raise ValueError("test budget must be >= 0")
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

    def rule(test, d, tracked):
        kept1, kept0 = update(space, tracked, test, 1), update(space, tracked, test, 0)
        answer = 0 if len(kept1) < len(kept0) else 1
        return answer, update(space, d, test, answer), kept1 if answer else kept0

    return _play(space, source, rule, margin_start(space, n, s), n)


# ---------------------------------------------------------------------------
# counter-strategy against non-adaptive matrices


class CounterCertificate(namedtuple("CounterCertificate", "forced_accuracy answers walks final_candidates")):
    """Two walks sharing one answer sequence whose endpoints straddle the
    forced interval; ``forced_accuracy`` is the replayed final set size."""

    __slots__ = ()


def _need_moved_final(space: SearchSpace, who: str) -> None:
    if not space.moves_after_last_test:
        raise ValueError(f"{who} need moves_after_last_test=True: the final size they count is a moved part")


def matrix_counter(space: SearchSpace, matrix: TestMatrix) -> CounterCertificate:
    """Force any non-adaptive strategy on a long-enough path above accuracy 4k-1.

    The target hides near the middle until the last row; the last row
    either treats the middle block uniformly (forcing 4k+1) or contains a
    membership flip next to which two diverging continuations stay
    indistinguishable (forcing at least 4k).  Both count a moved final set.
    """
    if space.topology is not Topology.PATH:
        raise ValueError("the matrix counter-strategy works on paths")
    _need_moved_final(space, "the matrix counter's bounds")
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
    sweep walks them a level at a time on canonical orbits (``Arena.canon``
    of each distinct moved part): level i holds the orbits i tests reach,
    the states a memoized recursion would visit with ``rounds - i`` tests
    left.  Orbits suffice because a reflection, or on a cycle a
    rotation, maps interval (arc) tests to interval tests and commutes with
    ``reach``; the larger-part rule reads sizes only; and on a path with
    intervals a reflection maps a middle run to a middle run and a prefix
    and suffix split, read both ways round, to one.  A level depends only
    on the one before, so once one repeats the rest are periodic and a
    deep budget skips whole periods.

    The last level is read by branch and bound (A. H. Land and A. G. Doig,
    Econometrica 28(3), 1960): its states in increasing member count, the
    best option size so far kept, and the walk stops at the first state d
    with ``Arena.part_floor(|d|) >= best``.  No option of d is smaller than
    that bound, so no later state can improve on best.  A split's chosen
    child is its larger moved part: ``options`` yields ``d1`` if ``n1 +
    ties > n0`` and ``d0`` otherwise, which with ``ties`` 0 or 1 is the
    larger unless the two are equal, and on a tie, read one way or both,
    yields parts of that one size; ``part_floor`` bounds the larger.
    ``reach(d)`` holds d, so it is never smaller than its parts' moves.
    The first state is always expanded, so an empty d (``reach`` empty, no
    split) answers 0."""
    if rounds < 0:
        raise ValueError("test budget must be >= 0")
    if test_class not in TEST_CLASSES:
        raise ValueError(f"unknown test class {test_class!r}")
    if test_class == "all_subsets" and arena.n > MAX_SUBSET_N:
        raise BudgetExceededError(f"all_subsets sweep is capped at N <= {MAX_SUBSET_N}")
    intervals = test_class == "intervals"
    one_way = intervals and arena.space.topology is Topology.PATH
    reach, splits, canon = arena.reach, arena.splits, arena.canon
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
        last = frozenset({canon(c) for c in moved})
        if last in levels:  # the levels from there on repeat
            first = levels[last]
            last = list(levels)[first + (rounds - 1 - first) % (len(levels) - first)]
            break
        levels[last] = len(levels)
    best = arena.n + 1
    for d in sorted(last, key=int.bit_count):
        if arena.part_floor(d.bit_count()) >= best:
            break
        best = min(best, *(c.bit_count() for c in options(d)))
    return best


def _sweep_arena(space: SearchSpace) -> Arena:
    _need_moved_final(space, "class sweeps")
    return Arena(space)


def greedy_forced_size(space: SearchSpace, rounds: int, test_class: str = "intervals") -> int:
    """Smallest final candidate-set size any strategy of the class can reach
    against the greedy adversary.  A value of v certifies that accuracy
    v-1 is out of reach for every such strategy with that many tests.

    The target moves after the last test too: the final size is a moved
    part, so a space with ``moves_after_last_test`` off raises ``ValueError``."""
    arena = _sweep_arena(space)
    return _forced_size(arena, arena.full, rounds, test_class, ties=0)


def margin_forced_size(
    space: SearchSpace,
    rounds: int,
    s: int,
    test_class: str = "intervals",
) -> int:
    """Minimum over strategies of the margin adversary's final tracked-set
    size; at one vertex above capacity this is at least s+1, refuting the
    entire class.

    The target moves after the last test too: the final size is a moved
    part, so a space with ``moves_after_last_test`` off raises ``ValueError``."""
    arena = _sweep_arena(space)
    return _forced_size(arena, mask_of(margin_start(space, rounds, s)), rounds, test_class, ties=1)
