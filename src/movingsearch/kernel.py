"""Bitmask game kernel shared by the exact oracle, the greedy and margin
class sweep and both matrix engines.

A candidate set on a path or cycle of N vertices is an int whose bit v-1
stands for vertex v.  ``Arena`` holds the mask arithmetic for one space:
speed-step reachability as a shift-or (path) or rotate-or (cycle), the
canonical form of a mask under the arena's symmetries and
of each of its runs of members (``runs``), and ``splits``, which walks a
state's own members for the distinct ways a test of either class cuts
it, both parts moved.  Its optional dominance limits
``lim`` (drop a split with a side of over ``lim`` members whose move
covers the state) and ``ends`` (drop an interval test's middle run that
meets these vertices) bound its loops; the defaults prune nothing, for the
class sweeps and strategy extraction.  ``part_floor`` is the one size
bound both engines read: the fewest members a split's larger moved part
can have.  ``mask_of`` and ``ps_of`` convert to and from
``PositionSet``, which stays the public and text type.
The engines read the end-of-game rule from the space's
``moves_after_last_test`` alone.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .spaces import PositionSet, SearchSpace, Topology

TEST_CLASSES = ("intervals", "all_subsets")
# the largest arena whose all-subsets splits the engines enumerate: a state
# of N members has 2^(N-1) of them, which ``splits`` materialises
MAX_SUBSET_N = 22
# each byte with its bits in reverse order, for ``Arena.reflect``: the
# bytes with bit i set are those without it, plus bit 7-i
_REV = [0]
for _i in range(8):
    _REV += [r | 0x80 >> _i for r in _REV]
_REV = bytes(_REV)


def mask_of(ps: PositionSet) -> int:
    m = 0
    for lo, hi in ps.intervals:
        m |= ((1 << (hi - lo + 1)) - 1) << (lo - 1)
    return m


def ps_of(mask: int) -> PositionSet:
    """The mask's members as a ``PositionSet``, read a run at a time: the
    lowest set bit starts a run, and adding it carries to the bit above
    the run (as in ``Arena.runs``)."""
    ivs = []
    while mask:
        low = mask & -mask
        t = mask + low
        top = t & -t
        mask ^= top - low
        ivs.append((low.bit_length(), top.bit_length() - 1))
    return PositionSet._of(tuple(ivs))


class Arena:
    """Mask arithmetic specialized for one space."""

    def __init__(self, space: SearchSpace):
        self.space = space
        self.n = space.num_vertices
        self.k = space.speed
        self.full = (1 << self.n) - 1
        self._path = space.topology is Topology.PATH
        self._bytes = (self.n + 7) // 8
        self._pad = 8 * self._bytes - self.n  # the bits above N in the last byte
        self._step: Optional[list[int]] = None  # one-vertex moves, on first use
        self._gain = self.k if self._path else 2 * self.k

    def part_floor(self, x: int) -> int:
        """The fewest members the larger moved part of a split of an
        x-member state can have: ``min(ceil(x/2) + gain, N)``, where
        ``gain`` is k on a path and 2k on a cycle.

        Of the two parts the larger holds at least ``ceil(x/2)`` of the
        state's members, and it is a proper subset of the arena, since the
        other part is nonempty.  The k-move of a proper nonempty subset e
        covers at least ``min(gain, N - |e|)`` new vertices: every vertex
        outside e lies in a gap between members, an end gap of g vertices on
        a path gains ``min(g, k)`` and an inner gap ``min(g, 2k)``, so one gap
        of at least k (2k on a cycle, where every gap is inner) gains that
        many and otherwise every gap is covered."""
        return min((x + 1) // 2 + self._gain, self.n)

    def reach(self, mask: int) -> int:
        n, full = self.n, self.full
        out = mask
        if self._path:
            for _ in range(self.k):
                out |= (out << 1) | (out >> 1)
                out &= full
        else:
            for _ in range(self.k):
                out |= ((out << 1) | (out >> (n - 1))) & full
                out |= (out >> 1) | ((out & 1) << (n - 1))
        return out

    def reflect(self, mask: int) -> int:
        """The mask mirrored end to end: vertex v goes to N+1-v.  Its bytes,
        each reversed, are read the other way round."""
        return int.from_bytes(mask.to_bytes(self._bytes, "little").translate(_REV), "big") >> self._pad

    def canon(self, mask: int) -> int:
        """The smallest image of the mask under the arena's symmetries:
        reflection on a path, the 2N rotations and reflections on a cycle.
        Both map intervals to intervals (arcs to arcs) and commute with
        ``reach``, so every image has the same game value."""
        if self._path:
            r = self.reflect(mask)
            return r if r < mask else mask
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

    def runs(self, mask: int) -> tuple[int, ...]:
        """The canonical forms of the mask's runs of members when it has
        more than one, else none.  A run from bit a to bit b of a path is
        its own canonical form unless its mirror image lies lower, when
        a + b > N-1; an arc of L members on a cycle is the L low bits."""
        n, out = self.n, []
        if not self._path and mask & 1 and mask >> n - 1:  # an arc wraps: turn it off bit 0
            z = ((mask + 1) & ~mask).bit_length() - 1
            mask = (mask >> z | mask << n - z) & self.full
        while mask:
            low = mask & -mask
            t = mask + low
            top = t & -t  # the bit above the run
            mask ^= top - low
            if self._path:
                a, b = low.bit_length() - 1, top.bit_length() - 2
                out.append(top - low if a + b < n else (1 << b - a + 1) - 1 << n - 1 - b)
            else:
                out.append((top >> low.bit_length() - 1) - 1)
        return tuple(out) if len(out) > 1 else ()

    def splits(
        self, d: int, test_class: str, lim: Optional[int] = None, ends: int = 0
    ) -> Iterator[tuple[int, int, int, int]]:
        """Every split of ``d`` by a test of the class, once up to swapping
        the answers, as ``(e1, moved e1, e0, moved e0)``.  ``e1`` misses d's
        lowest member: it runs over the runs of d's other members (an
        interval, or an arc on a cycle, meets d in a run of members), or over
        every nonempty submask of them.  Moved parts are ORs of vertex moves.
        The runs from member i stop at its first member in ``ends`` (a
        middle run has ``e0`` on both sides) and jump to the suffix run, and
        stop for good once a run's move covers ``d`` with over ``lim``
        members, as every longer run from i does too."""
        if test_class not in TEST_CLASSES:
            raise ValueError(f"unknown test class {test_class!r}")
        table = self._step
        if table is None:
            table = self._step = [self.reach(1 << v) for v in range(self.n)]
        members = [v for v in range(self.n) if d >> v & 1]
        bits, moved = [1 << v for v in members], [table[v] for v in members]
        m = len(members)
        if lim is None:
            lim = m  # no part has more members than d
        if test_class == "intervals":
            last = m - 1
            suffix = [0] * (m + 1)  # suffix[j]: the move of members j..m-1
            for j in range(last, 0, -1):
                suffix[j] = suffix[j + 1] | moved[j]
            stop = [last] * m  # the middle runs from member i end before stop[i]
            if ends:
                for j in range(last - 1, 0, -1):
                    stop[j] = j if bits[j] & ends else stop[j + 1]
            low = prefix = 0  # members 0..i-1 and their move
            for i in range(1, m):
                low |= bits[i - 1]
                prefix |= moved[i - 1]
                e1 = m1 = 0
                for j in range(i, stop[i]):  # the middle runs i..j
                    e1 |= bits[j]
                    m1 |= moved[j]
                    if j - i >= lim and not d & ~m1:
                        break
                    m0 = prefix | suffix[j + 1]
                    if last - j + i > lim and not d & ~m0:
                        continue
                    yield e1, m1, d ^ e1, m0
                else:  # the suffix run i..m-1
                    if not (m - i > lim and not d & ~suffix[i] or i > lim and not d & ~prefix):
                        yield d ^ low, suffix[i], low, prefix
        elif m:
            # parts[i] is the submask of the other members picked by the
            # bits of i, so parts[last - i] is its complement among them
            parts, parts_moved = [0], [0]
            for b, mb in zip(bits[1:], moved[1:]):
                parts += [p | b for p in parts]
                parts_moved += [p | mb for p in parts_moved]
            moved_rest = [moved[0] | p for p in reversed(parts_moved[:-1])]
            for e1, m1, m0 in zip(parts[1:], parts_moved[1:], moved_rest):
                e0 = d ^ e1
                if (d & ~m1 or e1.bit_count() <= lim) and (d & ~m0 or e0.bit_count() <= lim):
                    yield e1, m1, e0, m0
