"""Bitmask game kernel shared by the exact oracle, the greedy and margin
class sweep and both matrix engines.

A candidate set on a path or cycle of N vertices is an int whose bit v-1
stands for vertex v.  ``Arena`` holds the mask arithmetic for one space:
speed-step reachability as a shift-or (path) or rotate-or (cycle), cached
per arena, the canonical form of a mask under the arena's symmetries, and
the test masks of each test class.  ``mask_of`` and
``ps_of`` convert to and from ``PositionSet``, which stays the public and
text type.  ``expand_flag`` resolves the engines' ``check_expanded``
option.
"""

from __future__ import annotations

from typing import Optional

from .spaces import PositionSet, SearchSpace, Topology


def expand_flag(space: SearchSpace, check_expanded: Optional[bool]) -> bool:
    """Whether the accuracy check reads the post-move set (the child)."""
    return space.moves_after_last_test if check_expanded is None else check_expanded


def mask_of(ps: PositionSet) -> int:
    m = 0
    for lo, hi in ps.intervals:
        m |= ((1 << (hi - lo + 1)) - 1) << (lo - 1)
    return m


def ps_of(mask: int) -> PositionSet:
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
    return PositionSet._of(tuple(ivs))


class Arena:
    """Mask arithmetic specialized for one space."""

    def __init__(self, space: SearchSpace):
        self.space = space
        self.n = space.num_vertices
        self.k = space.speed
        self.full = (1 << self.n) - 1
        self._reach_cache: dict[int, int] = {}

    def reach(self, mask: int) -> int:
        out = self._reach_cache.get(mask)
        if out is None:
            out = self._reach_cache[mask] = self.move(mask)
        return out

    def move(self, mask: int) -> int:
        """``reach`` without the cache, for callers that keep their own."""
        n, full = self.n, self.full
        out = mask
        if self.space.topology is Topology.PATH:
            for _ in range(self.k):
                out |= (out << 1) | (out >> 1)
                out &= full
        else:
            for _ in range(self.k):
                out |= ((out << 1) | (out >> (n - 1))) & full
                out |= (out >> 1) | ((out & 1) << (n - 1))
        return out

    def reflect(self, mask: int) -> int:
        """The mask mirrored end to end: vertex v goes to N+1-v."""
        return int(format(mask, f"0{self.n}b")[::-1], 2)

    def canon(self, mask: int) -> int:
        """The smallest image of the mask under the arena's symmetries:
        reflection on a path, the 2N rotations and reflections on a cycle.
        Both map intervals to intervals (arcs to arcs) and commute with
        ``reach``, so every image has the same game value."""
        if self.space.topology is Topology.PATH:
            return min(mask, self.reflect(mask))
        n = self.n
        bits = format(mask, f"0{n}b")
        if "0" not in bits or "1" not in bits:
            return mask
        # bit strings of one length compare as their values, and the least
        # rotation starts with a longest run of zeros: try only those starts
        runs = bits.split("1")
        zeros = max(max(runs), runs[-1] + runs[0])
        best = bits
        for b in (bits, bits[::-1]):
            twice = b + b
            i = twice.find(zeros)
            while 0 <= i < n:
                best = min(best, twice[i : i + n])
                i = twice.find(zeros, i + 1)
        return int(best, 2)

    def interval_tests(self) -> list[int]:
        """Every consecutive test mask: intervals on a path, arcs (wrap-around
        included) on a cycle; the empty and the full set are left out."""
        n = self.n
        if self.space.topology is Topology.PATH:
            return [
                ((1 << (b - a + 1)) - 1) << (a - 1)
                for a in range(1, n + 1)
                for b in range(a, n + 1)
                if not (a == 1 and b == n)
            ]
        out = []
        seen = set()
        for length in range(1, n):
            pref = (1 << length) - 1
            for start in range(n):
                arc = ((pref << start) | (pref >> (n - start))) & self.full
                if arc not in seen:
                    seen.add(arc)
                    out.append(arc)
        return out

    def tests(self, test_class: str) -> list[int]:
        """Every informative test mask of the class: intervals (arcs on a
        cycle) or all proper nonempty subsets."""
        if test_class == "intervals":
            return self.interval_tests()
        if test_class == "all_subsets":
            return list(range(1, self.full))
        raise ValueError(f"unknown test class {test_class!r}")
