"""One-bit-per-tick position encoding built on search strategies.

A transmitter that can see a moving object sends, each tick, the answer
the object's current position gives to the next test of a search strategy;
a receiver replaying the same strategy ends up with the object's position
pinned down to the strategy's accuracy.  The channel is noiseless and
rate one; there is no framing and no noise model, just the encoder/decoder
pair and a lockstep simulation harness.

Bit streams serialize as strings of '0'/'1' characters.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional, Sequence

from .adaptive import AdaptiveStrategy
from .adversary import SourceCursor, Transcript, TranscriptRound, greedy_adversary
from .nonadaptive import TestMatrix
from .spaces import (
    PositionSet,
    SearchSpace,
    consistent_walk_exists,
    distance,
    final_expand,
    full_set,
    is_valid_walk,
    neighborhood,
    split,
)

if TYPE_CHECKING:
    from typing import Union

    Strategy = Union[AdaptiveStrategy, TestMatrix]


class CodecSession:
    """Encoder state machine; mirrors the decoder so both stay in lockstep.

    ``encode_step`` consumes the object's current position and returns the
    bit to transmit; the session tracks the decoder's candidate set, which
    after i bits equals the searcher's candidate set after i answered
    tests.
    """

    def __init__(self, space: SearchSpace, strategy: Strategy):
        self.space = space
        self._cursor = SourceCursor(strategy)
        self.bits: list[int] = []
        self._last_position: Optional[int] = None
        self._pre = full_set(space)  # candidate set before the pending move
        self._post = full_set(space)

    @property
    def decoder_state(self) -> PositionSet:
        return self._post

    @property
    def decoded(self) -> PositionSet:
        """The set the receiver would announce if transmission stopped now."""
        if not self.bits:
            return full_set(self.space)
        return final_expand(self.space, self._pre)

    @property
    def done(self) -> bool:
        return self._cursor.next_test() is None

    def next_test(self) -> Optional[PositionSet]:
        return self._cursor.next_test()

    def encode_step(self, position: int) -> int:
        test = self._cursor.next_test()
        if test is None:
            raise ValueError("strategy exhausted: no further test to answer")
        if not 1 <= position <= self.space.num_vertices:
            raise ValueError(f"position {position} outside the arena")
        if self._last_position is not None:
            if distance(self.space, self._last_position, position) > self.space.speed:
                raise ValueError(
                    f"object jumped {self._last_position} -> {position}, "
                    f"farther than speed {self.space.speed}"
                )
        bit = 1 if position in test else 0
        self._pre = split(self.space, self._post, test, bit)
        if not self._pre:
            raise AssertionError("decoder state emptied on an honest position")
        self._post = neighborhood(self.space, self._pre)
        self._last_position = position
        self.bits.append(bit)
        self._cursor.feed(bit)
        return bit


def decode(space: SearchSpace, strategy: Strategy, bits: Sequence[int]) -> PositionSet:
    """Receiver side: the announced position set after the given bits.

    Raises ``ValueError`` on a bit sequence no object walk can produce
    (a protocol violation upstream).
    """
    cursor = SourceCursor(strategy)
    post = full_set(space)
    pre = None
    for i, bit in enumerate(bits):
        test = cursor.next_test()
        if test is None:
            raise ValueError(f"bit {i} has no matching test: strategy exhausted")
        pre = split(space, post, test, bit)
        if not pre:
            raise ValueError(f"inconsistent bit stream at position {i}")
        post = neighborhood(space, pre)
        cursor.feed(bit)
    if pre is None:
        return full_set(space)
    return final_expand(space, pre)


def random_walk(space: SearchSpace, length: int, seed: int) -> tuple[int, ...]:
    """Seeded walk: uniform start, then uniform over reachable next positions."""
    rng = random.Random(seed)
    pos = rng.randint(1, space.num_vertices)
    walk = [pos]
    for _ in range(length - 1):
        options = list(neighborhood(space, PositionSet.from_members([pos])))
        pos = rng.choice(options)
        walk.append(pos)
    return tuple(walk)


def _strategy_depth(strategy: Strategy) -> int:
    return strategy.rows if isinstance(strategy, TestMatrix) else strategy.depth()


def simulate_session(
    space: SearchSpace,
    strategy: Strategy,
    walk: Optional[Sequence[int]] = None,
    *,
    seed: Optional[int] = None,
    adversarial: bool = False,
    accuracy: Optional[int] = None,
) -> Transcript:
    """Run encoder and decoder in lockstep against one walk source.

    Exactly one source: a fixed walk, a seeded random walk, or an
    adversarial walk extracted from the greedy adversary's transcript.  A
    fixed walk that leaves the arena or outruns the speed raises
    ``ValueError``; the other two sources are legal by construction.
    Transmission stops at the strategy's end or as soon as the decoded set
    fits the accuracy target; the final decoded set is checked to contain
    the object's final position before the transcript is returned.
    """
    if sum(x is not None and x is not False for x in (walk, seed, adversarial)) != 1:
        raise ValueError("provide exactly one of walk=, seed=, adversarial=")
    if walk is not None and not is_valid_walk(space, walk):
        raise ValueError(
            f"walk {','.join(map(str, walk))} leaves the arena or moves "
            f"farther than speed {space.speed} in one step"
        )
    if accuracy is None and isinstance(strategy, AdaptiveStrategy):
        accuracy = strategy.accuracy_target
    if adversarial:
        tr = greedy_adversary(space, strategy)
        walk = consistent_walk_exists(space, tr.tests(), tr.answers())
        assert walk is not None, "greedy adversary produced an unrealizable transcript"
    elif seed is not None:
        walk = random_walk(space, _strategy_depth(strategy) + 1, seed)

    session = CodecSession(space, strategy)
    rounds = []
    i = 0
    while not session.done:
        if accuracy is not None and i > 0 and len(session.decoded) <= accuracy:
            break
        if i >= len(walk):
            raise ValueError(f"walk too short: {len(walk)} positions for round {i + 1}")
        test = session.next_test()
        bit = session.encode_step(walk[i])
        i += 1
        rounds.append(TranscriptRound(i, test, bit, session.decoder_state))

    if space.moves_after_last_test and i < len(walk):
        final_pos = walk[i]
    else:
        final_pos = walk[i - 1] if i > 0 else walk[0]
    announced = session.decoded
    if final_pos not in announced:
        raise AssertionError(f"decoded set {announced} misses the object at {final_pos}")
    if accuracy is not None and len(announced) > accuracy:
        raise AssertionError(f"decoded set has {len(announced)} > {accuracy} positions")
    used = tuple(walk[: i + 1]) if i < len(walk) else tuple(walk)
    return Transcript(space, full_set(space), tuple(rounds), witness=used, announced=announced)


def bits_to_text(bits: Sequence[int]) -> str:
    return "".join(str(b) for b in bits)


def text_to_bits(text: str) -> tuple[int, ...]:
    if not all(c in "01" for c in text.strip()):
        raise ValueError("bit strings may contain only '0' and '1'")
    return tuple(int(c) for c in text.strip())
