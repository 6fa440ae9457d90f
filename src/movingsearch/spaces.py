"""Search arenas and candidate-set dynamics for moving-target search.

A hidden target occupies a vertex of a path or cycle graph and may take up
to ``speed`` steps between consecutive membership tests (staying put is
always allowed).  After a test of a vertex subset the searcher learns a
single bit: whether the target was inside the tested set.  The candidate
set of positions consistent with the answers so far evolves as

    answer 1:  D_i = reach(D_{i-1} & T_i)
    answer 0:  D_i = reach(D_{i-1} - T_i)

where ``reach`` is the ``speed``-step reachability operator.  ``update``
applies a round in one pass over ``D_{i-1}`` and ``T_i``, with the checks
of ``split`` followed by ``neighborhood``, and remembers its last 256
rounds: a strategy tree's leaves are replayed from the root, so the rounds
of a shared prefix repeat.

Everything in this module is an immutable value or a pure function, so
unrestricted concurrent use is safe; the round memo is internal and
thread-safe (``functools.lru_cache``).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence


class Topology(Enum):
    PATH = "path"
    CYCLE = "cycle"


@dataclass(frozen=True)
class SearchSpace:
    """Arena description: graph shape, size, target speed, end-of-game rule.

    ``num_vertices`` is the number N of vertices, labelled 1..N.

    ``moves_after_last_test`` selects the end-of-game convention: True means
    the target takes one more move after the final test (the searcher's
    announced set therefore includes that expansion), False means it stays
    put after the final test.
    """

    topology: Topology
    num_vertices: int
    speed: int
    moves_after_last_test: bool = True

    def __post_init__(self):
        if self.num_vertices < 1:
            raise ValueError("num_vertices must be >= 1")
        if self.speed < 1:
            raise ValueError("speed must be >= 1")


def path(n: int, k: int, moves_after_last_test: bool = True) -> SearchSpace:
    return SearchSpace(Topology.PATH, n, k, moves_after_last_test)


def cycle(n: int, k: int, moves_after_last_test: bool = True) -> SearchSpace:
    return SearchSpace(Topology.CYCLE, n, k, moves_after_last_test)


_RANGE = re.compile(r"(-?\d+)-(-?\d+)")


class PositionSet:
    """A finite set of integer vertex labels, kept as sorted disjoint intervals.

    Canonical form: the intervals are closed, sorted ascending, disjoint
    and non-adjacent (each starts at least two past the previous end), so
    every set has exactly one interval tuple, and equality and hashing
    compare that tuple.  The text form is comma-separated intervals, e.g.
    ``"1-9,12,14-16"`` (``"-"`` for the empty set).

    The constructor accepts intervals in any order and normalizes them.
    The internal ``_of`` wraps a tuple that is already canonical without
    looking at it; only operations whose output is canonical by
    construction (intersection, difference, clipping, reach) use it, which
    keeps each of them linear in the number of intervals.
    """

    __slots__ = ("_ivs",)

    def __init__(self, intervals: Iterable[tuple[int, int]] = ()):
        ivs = []
        for lo, hi in intervals:
            if lo > hi:
                raise ValueError(f"bad interval ({lo}, {hi})")
            ivs.append((int(lo), int(hi)))
        ivs.sort()
        merged: list[tuple[int, int]] = []
        for lo, hi in ivs:
            if merged and lo <= merged[-1][1] + 1:
                plo, phi = merged[-1]
                merged[-1] = (plo, max(phi, hi))
            else:
                merged.append((lo, hi))
        self._ivs = tuple(merged)

    @classmethod
    def _of(cls, ivs: tuple[tuple[int, int], ...]) -> "PositionSet":
        """Wrap an interval tuple that is already canonical (internal)."""
        out = object.__new__(cls)
        out._ivs = ivs
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls) -> "PositionSet":
        return cls(())

    @classmethod
    def interval(cls, lo: int, hi: int) -> "PositionSet":
        if lo > hi:
            raise ValueError(f"bad interval ({lo}, {hi})")
        return cls._of(((int(lo), int(hi)),))

    @classmethod
    def from_members(cls, members: Iterable[int]) -> "PositionSet":
        return cls((m, m) for m in members)

    @classmethod
    def parse(cls, text: str) -> "PositionSet":
        """Read the text form back.  A fragment is a range ``N-M`` if the
        precompiled ``_RANGE`` matches it, else one label that ``int``
        accepts (``+5``, ``1_0``), else ValueError; ``int`` rejects all
        that ``_RANGE`` matches, so the order of the two tries is free."""
        text = text.strip()
        if text in ("", "-"):
            return cls.empty()
        ivs = []
        for part in text.split(","):
            part = part.strip()
            m = _RANGE.fullmatch(part)
            if m:
                ivs.append((int(m[1]), int(m[2])))
                continue
            try:
                v = int(part)
            except ValueError:
                raise ValueError(f"bad position set fragment {part!r}") from None
            ivs.append((v, v))
        return cls(ivs)

    # -- basic protocol ----------------------------------------------------

    @property
    def intervals(self) -> tuple[tuple[int, int], ...]:
        return self._ivs

    def cardinality(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self._ivs)

    def __len__(self) -> int:
        return self.cardinality()

    def __bool__(self) -> bool:
        return bool(self._ivs)

    def __contains__(self, v: int) -> bool:
        for lo, hi in self._ivs:
            if lo <= v <= hi:
                return True
            if v < lo:
                return False
        return False

    def __iter__(self) -> Iterator[int]:
        for lo, hi in self._ivs:
            yield from range(lo, hi + 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, PositionSet) and self._ivs == other._ivs

    def __hash__(self) -> int:
        return hash(self._ivs)

    def __repr__(self) -> str:
        return f"PositionSet.parse({str(self)!r})"

    def __str__(self) -> str:
        if not self._ivs:
            return "-"
        parts = []
        for lo, hi in self._ivs:
            parts.append(str(lo) if lo == hi else f"{lo}-{hi}")
        return ",".join(parts)

    def min_value(self) -> int:
        if not self._ivs:
            raise ValueError("empty set has no minimum")
        return self._ivs[0][0]

    def max_value(self) -> int:
        if not self._ivs:
            raise ValueError("empty set has no maximum")
        return self._ivs[-1][1]

    # -- set algebra ---------------------------------------------------------

    def union(self, other: "PositionSet") -> "PositionSet":
        return PositionSet(self._ivs + other._ivs)

    def intersection(self, other: "PositionSet") -> "PositionSet":
        out = []
        a, b = self._ivs, other._ivs
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo <= hi:
                out.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return PositionSet._of(tuple(out))

    def difference(self, other: "PositionSet") -> "PositionSet":
        out = []
        j = 0
        b = other._ivs
        for lo, hi in self._ivs:
            cur = lo
            while j < len(b) and b[j][1] < cur:
                j += 1
            jj = j
            while jj < len(b) and b[jj][0] <= hi:
                blo, bhi = b[jj]
                if cur < blo:
                    out.append((cur, blo - 1))
                cur = max(cur, bhi + 1)
                jj += 1
            if cur <= hi:
                out.append((cur, hi))
        return PositionSet._of(tuple(out))

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def issubset(self, other: "PositionSet") -> bool:
        return not self.difference(other)

    def isdisjoint(self, other: "PositionSet") -> bool:
        return not self.intersection(other)

    # -- geometry helpers ----------------------------------------------------

    def widened(self, amount: int) -> "PositionSet":
        """Each interval grown by ``amount`` on both sides (no clipping)."""
        if amount < 0:
            raise ValueError("amount must be >= 0")
        return PositionSet._of(_grow(self._ivs, amount))

    def clipped(self, lo: Optional[int], hi: Optional[int]) -> "PositionSet":
        """Restriction to [lo, hi]; either bound may be None for unbounded."""
        out = []
        for a, b in self._ivs:
            if lo is not None:
                a = max(a, lo)
            if hi is not None:
                b = min(b, hi)
            if a <= b:
                out.append((a, b))
        return PositionSet._of(tuple(out))


def _grow(ivs: Sequence[tuple[int, int]], amount: int) -> tuple[tuple[int, int], ...]:
    """Sorted intervals widened by ``amount`` on both sides and merged where
    they overlap or touch, in one pass.  Their starts and ends must both be
    nondecreasing, as for canonical ones."""
    out: list[tuple[int, int]] = []
    for lo, hi in ivs:
        lo -= amount
        hi += amount
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return tuple(out)


# ---------------------------------------------------------------------------
# arena operations


def full_set(space: SearchSpace) -> PositionSet:
    """The initial candidate set: every labelled vertex."""
    return PositionSet.interval(1, space.num_vertices)


def _check_members(n: int, ivs: tuple[tuple[int, int], ...], what: str = "position set"):
    """Raise unless the canonical intervals ``ivs`` lie within 1..n."""
    if ivs and (ivs[0][0] < 1 or ivs[-1][1] > n):
        raise ValueError(f"{what} {PositionSet._of(ivs)} outside the arena's vertex range")


def distance(space: SearchSpace, u: int, v: int) -> int:
    """Graph distance between two vertices (loops ignored)."""
    d = abs(u - v)
    if space.topology is Topology.CYCLE:
        return min(d, space.num_vertices - d)
    return d


def neighborhood(space: SearchSpace, a: PositionSet, steps: Optional[int] = None) -> PositionSet:
    """All vertices reachable from ``a`` by a walk of at most ``steps`` edges.

    ``steps`` defaults to the arena's target speed.  The result always
    contains ``a``.
    """
    if steps is None:
        steps = space.speed
    if steps < 0:
        raise ValueError("steps must be >= 0")
    _check_members(space.num_vertices, a._ivs)
    if not a._ivs or steps == 0:
        return a
    return _fold(space.num_vertices, space.topology is Topology.CYCLE, _grow(a._ivs, steps))


def _fold(n: int, cyclic: bool, runs: Sequence[tuple[int, int]]) -> PositionSet:
    """The set of the n-vertex path (or cycle) covered by ``runs``: nonempty
    merged runs, widened by one amount from sorted pieces within 1..n.  A
    piece widened past 1 (or n) meets the run before (after) it, so only the
    first run can start below 1 and only the last end above n.  On a path
    those overhangs are cut, as clipping each piece before merging would,
    and on a cycle wrapped."""
    (lo, first_hi), (last_lo, hi) = runs[0], runs[-1]
    if lo >= 1 and hi <= n:
        return PositionSet._of(tuple(runs))
    runs = list(runs)
    if not cyclic:
        runs[0] = (max(lo, 1), first_hi)
        runs[-1] = (runs[-1][0], min(hi, n))
        return PositionSet._of(tuple(runs))
    if first_hi - lo + 1 >= n or hi - last_lo + 1 >= n:
        return PositionSet.interval(1, n)
    # An overhang is at most the widening long, while the first run ends at
    # least that far past 1 and the last starts at least that far before n,
    # so a wrapped piece can meet only the run at its end of the cycle and
    # one merge pass over head + runs + tail keeps the result canonical.
    head, tail = [], []
    if lo < 1:
        runs[0] = (1, first_hi)
        tail.append((lo + n, n))
    if hi > n:
        runs[-1] = (last_lo, n)
        head.append((1, hi - n))
    return PositionSet._of(_grow(head + runs + tail, 0))


def split(space: SearchSpace, d_prev: PositionSet, t: PositionSet, answer: int) -> PositionSet:
    """Candidate positions at test time, before the post-test move."""
    _check_members(space.num_vertices, t._ivs, "test set")
    if answer not in (0, 1):
        raise ValueError("answer must be 0 or 1")
    return d_prev & t if answer else d_prev - t


def update(space: SearchSpace, d_prev: PositionSet, t: PositionSet, answer: int) -> PositionSet:
    """One test/answer round applied to the candidate set: ``neighborhood``
    of ``split`` in one pass.  ``d_prev`` is walked against ``t`` once, each
    piece of the split widened by the speed and merged into the last run as
    it is found, and ``_fold`` cuts (path) or wraps (cycle) the overhangs.

    The checks and messages are those of the two-step form.  On answer 0
    ``d_prev`` must lie in 1..N, which is the check of ``d_prev - t``: ``t``
    lies in 1..N, so every out-of-range part of ``d_prev`` stays in the
    difference.  On answer 1 the pieces lie in ``t``; ``d_prev`` is unchecked.

    The round is memoized on plain values (``_round``); the end-of-game flag
    plays no part in it.

    May return the empty set, which signals an answer sequence no real
    target walk can produce; callers decide what to do with that.
    """
    return _round(
        space.num_vertices, space.speed, space.topology is Topology.CYCLE, d_prev._ivs, t._ivs, answer
    )


# Replaying a strategy's leaves from the root repeats the rounds of each
# shared prefix, so the memo must hold one root-to-leaf path and the sibling
# rounds along it: 254 rounds for a 127-test tree, the deepest that the
# construct-replay benchmark replays leaf by leaf.  Larger memos find few
# more repeats and cost peak memory.
_ROUND_MEMO_SIZE = 256


@functools.lru_cache(maxsize=_ROUND_MEMO_SIZE)
def _round(
    n: int, k: int, cyclic: bool, a: tuple[tuple[int, int], ...], b: tuple[tuple[int, int], ...], answer: int
) -> PositionSet:
    """``update`` on the arena's size, speed and topology and the interval
    tuples of ``d_prev`` and ``t``.  The checks read nothing else, so a key
    found in the memo has passed them; a round that raises is not kept."""
    _check_members(n, b, "test set")
    if answer not in (0, 1):
        raise ValueError("answer must be 0 or 1")
    if not answer and a and (a[0][0] < 1 or a[-1][1] > n):
        _check_members(n, (PositionSet._of(a) - PositionSet._of(b))._ivs)  # raises, naming the difference
    out: list[tuple[int, int]] = []
    j, nb = 0, len(b)
    for lo, hi in a:
        while j < nb and b[j][1] < lo:
            j += 1
        jj = j
        while lo <= hi:  # lo..hi: the part of this interval past the tests seen
            if jj < nb and b[jj][0] <= hi:
                blo, bhi = b[jj]
                jj += 1
            else:  # no test interval left here: pretend one starts at hi + 1
                blo = bhi = hi + 1
            if answer:
                plo, phi = (lo if lo > blo else blo), (hi if hi < bhi else bhi)
            else:
                plo, phi = lo, blo - 1
            lo = bhi + 1
            if plo <= phi:
                plo -= k
                phi += k
                if out and plo <= out[-1][1] + 1:
                    out[-1] = (out[-1][0], phi)
                else:
                    out.append((plo, phi))
    return _fold(n, cyclic, out) if out else PositionSet._of(())


def final_expand(space: SearchSpace, d: PositionSet) -> PositionSet:
    """The set the searcher announces when stopping with test-time set ``d``:
    the arena's ``moves_after_last_test`` flag decides whether the trailing
    move is applied."""
    return neighborhood(space, d) if space.moves_after_last_test else d


def is_valid_walk(space: SearchSpace, positions: Sequence[int]) -> bool:
    """True iff every position is a vertex and consecutive positions are
    within ``speed`` steps of each other."""
    n = space.num_vertices
    if not all(1 <= p <= n for p in positions):
        return False
    return all(
        distance(space, positions[i], positions[i + 1]) <= space.speed
        for i in range(len(positions) - 1)
    )


def consistent_walk_exists(
    space: SearchSpace,
    tests: Sequence[PositionSet],
    answers: Sequence[int],
) -> Optional[tuple[int, ...]]:
    """Some target walk producing exactly these answers, or None.

    The returned tuple has one position per test plus the final post-move
    position.  Forward set propagation decides existence; a witness is then
    reconstructed backwards, preferring the smallest label at each step.
    """
    if len(tests) != len(answers):
        raise ValueError("tests and answers must have equal length")
    reachable = full_set(space)
    at_test: list[PositionSet] = []
    for t, y in zip(tests, answers):
        e = split(space, reachable, t, y)
        if not e:
            return None
        at_test.append(e)
        reachable = neighborhood(space, e)
    walk = [reachable.min_value()]
    for e in reversed(at_test):
        step = neighborhood(space, PositionSet.from_members([walk[0]]))
        walk.insert(0, (e & step).min_value())
    return tuple(walk)

