"""Non-adaptive strategies: fixed test matrices and their exhaustive evaluation.

A non-adaptive strategy is an n x N binary matrix whose i-th row, read as a
vertex set, is the i-th test; the rows are still executed one per round
while the target keeps moving.  The constructor below builds the
expanding-accuracy matrix: both halves of the path shrink row by row while
a center region of alternating membership pairs grows, so that the first
answer flip pins the target's position down to a pair of adjacent
vertices.  For speed k the alternation is stretched to runs of k identical
symbols anchored at the center column.

Evaluation runs on ``kernel`` masks.  ``advance_row`` applies one row to
the antichain of still-open candidate sets; ``evaluate_matrix`` loops it
over a matrix's rows, and the oracle's matrix search steps its states with
it too.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterator

from .errors import RegimeError
from .kernel import Arena, mask_of, ps_of
from .spaces import PositionSet, SearchSpace, _frozen


_BIT = {0: 0, 1: 1}  # an entry's int: True and 1.0 find 1 here, and anything else fails


class TestMatrix:
    """Binary test matrix; row i (0-based) is the test for round i+1.

    ``bits`` may be given as any sequence of rows of 0/1 entries and is
    stored as a tuple of tuples of ints, so a matrix is an immutable value:
    assignment raises ``AttributeError``, and two matrices with equal rows
    are equal and hash alike.

    Text form: one row per line of '0'/'1' characters, no separators,
    first line = first test.
    """

    __slots__ = ("bits",)

    def __init__(self, bits):
        try:
            rows = tuple(tuple(map(_BIT.__getitem__, row)) for row in bits)
        except (KeyError, TypeError):  # an entry that is not 0 or 1, or a row that is not a sequence
            raise ValueError("entries must be 0 or 1") from None
        if not rows or not rows[0]:
            raise ValueError("matrix must have positive dimensions")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "bits", rows)

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.bits == other.bits

    def __hash__(self):
        return hash(self.bits)

    def __repr__(self):
        return f"TestMatrix(bits={self.bits!r})"

    def __reduce__(self):
        return type(self), (self.bits,)

    @property
    def rows(self) -> int:
        return len(self.bits)

    @property
    def cols(self) -> int:
        return len(self.bits[0])

    def row_test(self, i: int) -> PositionSet:
        return PositionSet.from_members(j + 1 for j, b in enumerate(self.bits[i]) if b)

    def tests(self) -> Iterator[PositionSet]:
        for i in range(self.rows):
            yield self.row_test(i)

    def to_text(self) -> str:
        return "\n".join("".join(str(b) for b in row) for row in self.bits) + "\n"

    @classmethod
    def parse(cls, text: str) -> "TestMatrix":
        """The matrix of the text form, blank lines skipped; a line that is
        not a row of '0'/'1' as wide as the first raises ``ValueError``."""
        lines = [line.strip() for line in text.splitlines()]
        width = next((len(line) for line in lines if line), 0)
        for number, line in enumerate(lines, 1):
            if line.strip("01") or line and len(line) != width:
                raise ValueError(f"matrix line {number}: expected a row of '0'/'1' characters as wide as "
                                 f"the first, got {line[:24]!r}")
        return cls(tuple(tuple(map(int, line)) for line in lines if line))


def _run_value(p: int) -> int:
    # membership of the p-th center run, counted outward per row: pairs of
    # present runs alternate with pairs of absent runs
    return 1 if p % 4 in (1, 2) else 0


def _center_matrix(n_vertices: int, k: int) -> TestMatrix:
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
                p = -(-(j - left) // k)
                row.append(_run_value(p))
            else:
                row.append(1 if i % 2 == 1 else 0)
        rows.append(tuple(row))
    return TestMatrix(tuple(rows))


def expanding_accuracy_matrix(n_vertices: int) -> TestMatrix:
    """The optimal accuracy-4 matrix for unit speed, ceil(N/2) - 2 rows."""
    if n_vertices < 5:
        raise RegimeError("expanding-accuracy matrix needs N >= 5")
    m = _center_matrix(n_vertices, 1)
    assert m.rows == -(-n_vertices // 2) - 2
    return m


def general_k_matrix(n_vertices: int, k: int) -> TestMatrix:
    """Speed-k dilation of the expanding-accuracy matrix, accuracy 4k.

    Each structural cell of the unit-speed pattern becomes a run of k
    identical symbols anchored at the center column; leftover columns are
    absorbed by the outer constant regions.
    """
    if k < 1:
        raise ValueError("speed k must be >= 1")
    if n_vertices <= 6 * k:
        raise RegimeError(f"need N > 6k = {6 * k}; smaller paths use the single-test strategy")
    return _center_matrix(n_vertices, k)


def nonadaptive_min_accuracy(n_vertices: int, k: int) -> int:
    """Best accuracy any non-adaptive strategy can achieve on a path."""
    if n_vertices < 1 or k < 1:
        raise ValueError("need N >= 1 and k >= 1")
    if n_vertices <= 2 * k:
        return n_vertices
    if n_vertices <= 6 * k:
        return -(-n_vertices // 2) + k
    return 4 * k


def advance_row(arena: Arena, states: frozenset[int], row: int, s: int) -> frozenset[int]:
    """One matrix row applied to an antichain of open candidate masks.

    Each set splits by the answer to ``row``.  A part is closed when it is
    empty (no target walk gives that answer) or when its announced set (its
    child if the arena's space has ``moves_after_last_test``, else the part
    itself) has at most ``s`` elements.
    The children of the open parts are pruned to the subset-maximal ones: a
    row sequence that resolves a set resolves each of its subsets.
    """
    expand = arena.space.moves_after_last_test
    out = set()
    for d in states:
        for e in (d & row, d & ~row):
            if not e:
                continue
            child = arena.reach(e)
            if (child if expand else e).bit_count() <= s:
                continue
            out.add(child)
    keep: list[int] = []
    for d in sorted(out, key=int.bit_count, reverse=True):
        if not any(d & ~other == 0 for other in keep):
            keep.append(d)
    return frozenset(keep)


class MatrixEvaluation(namedtuple("MatrixEvaluation", "success worst_final")):
    # worst_final: a largest final candidate set on failure, else None
    __slots__ = ()


def evaluate_matrix(space: SearchSpace, matrix: TestMatrix, s: int) -> MatrixEvaluation:
    """Exhaustive worst-case evaluation of a matrix at accuracy ``s``.

    Steps the antichain of still-open candidate masks through the rows with
    ``advance_row``, starting from the full arena, so every answer sequence
    is covered.  The matrix succeeds when no set is open after the last
    row.  On failure ``worst_final`` is a largest surviving set (the
    smallest mask among equals); pruning never drops it, since no other set
    strictly contains it.
    """
    if s < 1:
        raise ValueError("accuracy must be >= 1")
    arena = Arena(space)
    if matrix.cols != arena.n:
        raise ValueError(
            f"matrix has {matrix.cols} columns but the arena has {arena.n} vertices"
        )
    states = frozenset([arena.full])
    for i in range(matrix.rows):
        states = advance_row(arena, states, mask_of(matrix.row_test(i)), s)
    if not states:
        return MatrixEvaluation(True, None)
    worst = min(states, key=lambda d: (-d.bit_count(), d))
    return MatrixEvaluation(False, ps_of(worst))
