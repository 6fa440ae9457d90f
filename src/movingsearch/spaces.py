"""Search arenas and candidate-set dynamics for moving-target search.

A hidden target occupies a vertex of a path or cycle graph and may take up
to ``speed`` steps between consecutive membership tests (staying put is
always allowed).  After a test of a vertex subset the searcher learns a
single bit: whether the target was inside the tested set.  The candidate
set of positions consistent with the answers so far evolves as

    answer 1:  D_i = reach(D_{i-1} & T_i)
    answer 0:  D_i = reach(D_{i-1} - T_i)

where ``reach`` is the ``speed``-step reachability operator.

Everything in this module is an immutable value or a pure function, so
unrestricted concurrent use is safe.
"""

from __future__ import annotations

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
        text = text.strip()
        if text in ("", "-"):
            return cls.empty()
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
        return PositionSet._of(_grow(self._ivs, amount, None, None))

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


def _grow(
    ivs: Sequence[tuple[int, int]], amount: int, lo_bound: Optional[int], hi_bound: Optional[int]
) -> tuple[tuple[int, int], ...]:
    """Sorted intervals widened by ``amount`` on both sides, clipped to
    [lo_bound, hi_bound] (None: unbounded) and merged where they overlap or
    touch, in one pass.  The intervals must lie within the bounds, and their
    starts and ends must both be nondecreasing, as for canonical ones."""
    out: list[tuple[int, int]] = []
    for lo, hi in ivs:
        lo -= amount
        hi += amount
        if lo_bound is not None and lo < lo_bound:
            lo = lo_bound
        if hi_bound is not None and hi > hi_bound:
            hi = hi_bound
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


def _check_members(space: SearchSpace, a: PositionSet, what: str = "position set"):
    """Raise unless ``a`` lies within 1..N."""
    ivs = a._ivs
    if ivs and (ivs[0][0] < 1 or ivs[-1][1] > space.num_vertices):
        raise ValueError(f"{what} {a} outside the arena's vertex range")


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
    _check_members(space, a)
    if not a._ivs or steps == 0:
        return a
    n = space.num_vertices
    if space.topology is Topology.PATH:
        return PositionSet._of(_grow(a._ivs, steps, 1, n))
    # cycle: widen as on a line, then wrap the overhangs back into 1..n
    runs = _grow(a._ivs, steps, None, None)
    (lo, first_hi), (last_lo, hi) = runs[0], runs[-1]
    if lo >= 1 and hi <= n:
        return PositionSet._of(runs)
    if first_hi - lo + 1 >= n or hi - last_lo + 1 >= n:
        return PositionSet.interval(1, n)
    # Only the first run can start below 1 and only the last can end above
    # n.  An overhang is at most ``steps`` long, while the first run ends at
    # least ``steps`` past 1 and the last starts at least ``steps`` before n,
    # so a wrapped piece can meet only the run at its end of the cycle and
    # one merge pass over head + runs + tail keeps the result canonical.
    runs = list(runs)
    head, tail = [], []
    if lo < 1:
        runs[0] = (1, first_hi)
        tail.append((lo + n, n))
    if hi > n:
        runs[-1] = (last_lo, n)
        head.append((1, hi - n))
    return PositionSet._of(_grow(head + runs + tail, 0, None, None))


def split(space: SearchSpace, d_prev: PositionSet, t: PositionSet, answer: int) -> PositionSet:
    """Candidate positions at test time, before the post-test move."""
    _check_members(space, t, "test set")
    if answer not in (0, 1):
        raise ValueError("answer must be 0 or 1")
    return d_prev & t if answer else d_prev - t


def update(space: SearchSpace, d_prev: PositionSet, t: PositionSet, answer: int) -> PositionSet:
    """One test/answer round applied to the candidate set.

    May return the empty set, which signals an answer sequence no real
    target walk can produce; callers decide what to do with that.
    """
    return neighborhood(space, split(space, d_prev, t, answer))


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

