"""One-bit-per-tick position encoding built on search strategies.

A transmitter that can see a moving object sends, each tick, the answer
the object's current position gives to the next test of a search strategy;
a receiver replaying the same strategy ends up with the object's position
pinned down to the strategy's accuracy.  The channel is noiseless and
rate one; there is no framing and no noise model, just the encoder/decoder
pair and a lockstep simulation harness.  The encoder runs the decoder's
own step (``CodecSession``), so the two share one code path over the nodes
of ``adversary.source_root``: an adaptive strategy's tree, or a test
matrix (or list of tests) as a chain whose two answers meet at the next test.

Bit streams serialize as strings of '0'/'1' characters.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .adaptive import AdaptiveStrategy
from .adversary import Transcript, TranscriptRound, greedy_adversary, source_root
from .spaces import (
    PositionSet,
    SearchSpace,
    consistent_walk_exists,
    distance,
    full_set,
    is_valid_walk,
    neighborhood,
    split,
    update,
)

if TYPE_CHECKING:
    from .adversary import TestSource


class CodecSession:
    """Encoder state machine that runs the decoder's own step, so both stay
    in lockstep.

    ``encode_step`` consumes the object's current position and returns the
    bit to transmit; ``decode`` feeds received bits to a fresh session.
    Each bit updates ``decoder_state``, which after i bits equals the
    searcher's candidate set after i answered tests, and ``decoded``, the
    set the receiver would announce if transmission stopped now:
    ``final_expand`` of the test-time set, so the decoder state itself if
    the target moves after the last test, else the last test-time set.
    """

    def __init__(self, space: SearchSpace, strategy: TestSource):
        self.space = space
        self._node = source_root(space, strategy)
        self.bits: list[int] = []
        self._last_position: Optional[int] = None
        self.decoder_state = self.decoded = full_set(space)

    @property
    def done(self) -> bool:
        return self._node.test is None

    def next_test(self) -> Optional[PositionSet]:
        return self._node.test

    def _receive(self, bit: int) -> PositionSet:
        """The decoder's step: answer ``bit`` to the current test.  Returns
        the new decoder state, empty if no walk gives these bits."""
        space, test, prev = self.space, self._node.test, self.decoder_state
        # through the round memo, so that encoding and decoding share rounds
        post = self.decoder_state = update(space, prev, test, bit)
        self.decoded = post if space.moves_after_last_test else split(space, prev, test, bit)
        self.bits.append(bit)
        self._node = self._node.on1 if bit else self._node.on0
        return post

    def encode_step(self, position: int) -> int:
        test = self._node.test
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
        if not self._receive(bit):
            raise AssertionError("decoder state emptied on an honest position")
        self._last_position = position
        return bit


def decode(space: SearchSpace, strategy: TestSource, bits: Sequence[int]) -> PositionSet:
    """Receiver side: the announced position set after the given bits.

    Raises ``ValueError`` on a bit sequence no object walk can produce
    (a protocol violation upstream).
    """
    session = CodecSession(space, strategy)
    for i, bit in enumerate(bits):
        if session.done:
            raise ValueError(f"bit {i} has no matching test: strategy exhausted")
        if not session._receive(bit):
            raise ValueError(f"inconsistent bit stream at position {i}")
    return session.decoded


def _walk_steps(space: SearchSpace, seed: int) -> Iterator[int]:
    """The endless seeded walk: uniform start, then uniform over reachable
    next positions."""
    rng = random.Random(seed)
    pos = rng.randint(1, space.num_vertices)
    while True:
        yield pos
        pos = rng.choice(list(neighborhood(space, PositionSet.interval(pos, pos))))


def check_walk(space: SearchSpace, walk: Sequence[int]) -> None:
    """Raise ``ValueError`` unless ``walk`` is a nonempty walk of the target."""
    if not walk:
        raise ValueError("walk is empty: a fixed walk needs at least the start position")
    if not is_valid_walk(space, walk):
        raise ValueError(
            f"walk {','.join(map(str, walk))} leaves the arena or moves "
            f"farther than speed {space.speed} in one step"
        )


def simulate_session(
    space: SearchSpace,
    strategy: TestSource,
    walk: Optional[Sequence[int]] = None,
    *,
    seed: Optional[int] = None,
    adversarial: bool = False,
    accuracy: Optional[int] = None,
) -> Transcript:
    """Run encoder and decoder in lockstep against one walk source.

    Exactly one source: a fixed walk, a seeded random walk, or an
    adversarial walk extracted from the greedy adversary's transcript; each
    is read as one stream of positions.  A fixed walk that is empty, leaves
    the arena or outruns the speed raises ``ValueError``, as does an
    ``accuracy`` below 1; the other two sources are legal by construction.
    Transmission stops at the strategy's end or as soon as the decoded set
    fits the accuracy target; the final decoded set is checked to contain
    the object's final position before the transcript is returned.
    """
    if sum(x is not None and x is not False for x in (walk, seed, adversarial)) != 1:
        raise ValueError("provide exactly one of walk=, seed=, adversarial=")
    if accuracy is not None and accuracy < 1:
        raise ValueError("accuracy must be >= 1")
    if walk is not None:
        check_walk(space, walk)
    if accuracy is None and isinstance(strategy, AdaptiveStrategy):
        accuracy = strategy.accuracy_target
    if adversarial:
        tr = greedy_adversary(space, strategy)
        walk = consistent_walk_exists(space, tr.tests(), tr.answers())
        assert walk is not None, "greedy adversary produced an unrealizable transcript"
    # every source as one stream of positions, a seeded walk drawn as the session runs
    positions = _walk_steps(space, seed) if seed is not None else iter(walk)

    session = CodecSession(space, strategy)
    rounds, used = [], []  # used: the positions the rounds read, then the next if any
    while not session.done:
        if accuracy is not None and rounds and len(session.decoded) <= accuracy:
            break
        pos = next(positions, None)
        if pos is None:
            raise ValueError(f"walk too short: {len(used)} positions for round {len(used) + 1}")
        used.append(pos)
        test = session.next_test()
        bit = session.encode_step(pos)
        rounds.append(TranscriptRound(len(rounds) + 1, test, bit, session.decoder_state))
    after = next(positions, None)  # where the object moves after the last round
    if after is not None:
        used.append(after)

    final_pos = used[-1] if space.moves_after_last_test else used[max(len(rounds) - 1, 0)]
    announced = session.decoded
    if final_pos not in announced:
        raise AssertionError(f"decoded set {announced} misses the object at {final_pos}")
    if accuracy is not None and len(announced) > accuracy:
        raise AssertionError(f"decoded set has {len(announced)} > {accuracy} positions")
    return Transcript(space, tuple(rounds), witness=tuple(used), announced=announced)


def bits_to_text(bits: Sequence[int]) -> str:
    return "".join(str(b) for b in bits)


def text_to_bits(text: str) -> tuple[int, ...]:
    if not all(c in "01" for c in text.strip()):
        raise ValueError("bit strings may contain only '0' and '1'")
    return tuple(int(c) for c in text.strip())
