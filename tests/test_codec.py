import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from movingsearch.adaptive import cycle_strategy, min_tests, path_strategy
from movingsearch.codec import (
    CodecSession,
    bits_to_text,
    decode,
    random_walk,
    simulate_session,
    text_to_bits,
)
from movingsearch.nonadaptive import expanding_accuracy_matrix
from movingsearch.spaces import PositionSet, cycle, final_expand, full_set, is_valid_walk, path, split, update

P = PositionSet.parse


def test_stationary_target_all_zero_bits():
    sp = path(16, 1)
    m = expanding_accuracy_matrix(16)
    session = CodecSession(sp, m)
    bits = [session.encode_step(3) for _ in range(6)]
    assert bits == [0, 0, 0, 0, 0, 0]
    assert session.decoded == P("1-4")


def test_first_bit_for_right_half_position():
    sp = path(16, 1)
    session = CodecSession(sp, expanding_accuracy_matrix(16))
    assert session.encode_step(9) == 1


def test_bits_match_direct_recomputation():
    sp = path(16, 1)
    m = expanding_accuracy_matrix(16)
    walk = random_walk(sp, 7, seed=42)
    session = CodecSession(sp, m)
    for i, pos in enumerate(walk[:6]):
        bit = session.encode_step(pos)
        assert bit == (1 if pos in m.row_test(i) else 0)


def test_decode_matches_reference_branch():
    sp = path(16, 1)
    m = expanding_accuracy_matrix(16)
    assert decode(sp, m, (0, 0, 0, 0, 0, 0)) == P("1-4")
    assert decode(sp, m, ()) == full_set(sp)


def test_decode_rejects_inconsistent_bits():
    from movingsearch.nonadaptive import TestMatrix

    sp = path(16, 1)
    # a hit at vertex 1 followed by a hit at vertex 16 needs speed 14
    m = TestMatrix(
        (
            (1,) + (0,) * 15,
            (0,) * 15 + (1,),
        )
    )
    with pytest.raises(ValueError):
        decode(sp, m, (1, 1))


def test_decode_monte_carlo_containment():
    sp = path(20, 1)
    m = expanding_accuracy_matrix(20)
    for seed in range(1000):
        walk = random_walk(sp, m.rows + 1, seed)
        assert is_valid_walk(sp, walk)
        bits = [1 if pos in m.row_test(i) else 0 for i, pos in enumerate(walk[:-1])]
        got = decode(sp, m, bits)
        assert walk[-1] in got
        assert len(got) <= 4


def test_lockstep_equality_with_search_chain():
    sp = path(16, 1)
    m = expanding_accuracy_matrix(16)
    walk = random_walk(sp, 7, seed=5)
    session = CodecSession(sp, m)
    d = full_set(sp)
    for i, pos in enumerate(walk[:6]):
        bit = session.encode_step(pos)
        d = update(sp, d, m.row_test(i), bit)
        assert session.decoder_state == d


def test_simulate_fixed_walk():
    tr = simulate_session(path(16, 1), expanding_accuracy_matrix(16), walk=[3] * 7, accuracy=4)
    assert tr.announced == P("1-4")
    assert [r.answer for r in tr.rounds] == [0] * 6


def test_simulate_adversarial_path_strategy():
    st = path_strategy(10, 4, 1)
    tr = simulate_session(st.space, st, adversarial=True)
    assert len(tr.rounds) <= 3
    assert len(tr.announced) <= 4
    assert tr.witness is not None and is_valid_walk(st.space, tr.witness)


def test_simulate_seeded_cycle_strategy():
    st = cycle_strategy(12, 5, 1)
    for seed in range(25):
        tr = simulate_session(st.space, st, seed=seed)
        assert len(tr.rounds) <= 3
        assert len(tr.announced) <= 5
        assert tr.witness[len(tr.rounds)] in tr.announced


@pytest.mark.parametrize("flag", [True, False])
def test_seeded_session_plays_the_seeded_walk(flag):
    """A seeded session draws its walk as it goes; transcript and witness
    equal a session on the fixed seeded walk one position longer than the
    strategy is deep."""
    st = path_strategy(10, 4, 1)
    m = expanding_accuracy_matrix(16)
    cases = [
        (path(10, 1, moves_after_last_test=flag), st, st.depth(), None),
        (path(16, 1, moves_after_last_test=flag), m, m.rows, None),
        (path(16, 1, moves_after_last_test=flag), m, m.rows, 4),
    ]
    for sp, strategy, depth, accuracy in cases:
        for seed in range(20):
            fixed = random_walk(sp, depth + 1, seed)
            tr = simulate_session(sp, strategy, seed=seed, accuracy=accuracy)
            assert tr == simulate_session(sp, strategy, walk=fixed, accuracy=accuracy)
            assert tr.witness == fixed[: len(tr.rounds) + 1]


@pytest.mark.parametrize("flag", [True, False])
def test_decoded_is_the_final_expansion_after_every_step(flag):
    sources = [
        (path(10, 1, moves_after_last_test=flag), path_strategy(10, 4, 1)),
        (cycle(12, 1, moves_after_last_test=flag), cycle_strategy(12, 5, 1)),
        (path(16, 1, moves_after_last_test=flag), expanding_accuracy_matrix(16)),
    ]
    for sp, strategy in sources:
        for seed in range(10):
            session = CodecSession(sp, strategy)
            assert session.decoded == full_set(sp)
            for pos in random_walk(sp, 8, seed):
                if session.done:
                    break
                prev, test = session.decoder_state, session.next_test()
                bit = session.encode_step(pos)
                assert session.decoded == final_expand(sp, split(sp, prev, test, bit))


@pytest.mark.parametrize("flag", [True, False])
def test_decode_agrees_with_the_session_after_every_step(flag):
    """The receiver, fed the bits sent so far, announces what the sender's
    session holds as ``decoded``, with the trailing move applied or not."""
    sources = [
        (path(10, 1, moves_after_last_test=flag), path_strategy(10, 4, 1)),
        (cycle(12, 1, moves_after_last_test=flag), cycle_strategy(12, 5, 1)),
        (path(16, 1, moves_after_last_test=flag), expanding_accuracy_matrix(16)),
    ]
    for sp, strategy in sources:
        for seed in range(10):
            session = CodecSession(sp, strategy)
            assert decode(sp, strategy, session.bits) == session.decoded
            for pos in random_walk(sp, 8, seed):
                if session.done:
                    break
                session.encode_step(pos)
                assert decode(sp, strategy, session.bits) == session.decoded, (sp, seed, session.bits)


def test_bit_budget_matches_min_tests():
    st = path_strategy(10, 4, 1)
    budget = min_tests("path", 10, 4, 1).n
    for seed in range(20):
        tr = simulate_session(st.space, st, seed=seed)
        assert len(tr.rounds) <= budget


def test_movement_violation_rejected():
    session = CodecSession(path(16, 1), expanding_accuracy_matrix(16))
    session.encode_step(3)
    with pytest.raises(ValueError):
        session.encode_step(7)


def test_simulate_rejects_illegal_fixed_walk():
    st = path_strategy(10, 5, 1)
    # the trailing move 1 -> 9 is never consumed by a test, yet outruns speed 1
    with pytest.raises(ValueError, match="speed 1"):
        simulate_session(st.space, st, walk=(1, 9), accuracy=5)
    with pytest.raises(ValueError):
        simulate_session(st.space, st, walk=(0, 1), accuracy=5)


@pytest.mark.parametrize("accuracy", [0, -3])
def test_simulate_rejects_an_accuracy_below_one(accuracy):
    with pytest.raises(ValueError, match="accuracy must be >= 1"):
        simulate_session(path(16, 1), expanding_accuracy_matrix(16), seed=1, accuracy=accuracy)


def test_simulate_rejects_an_empty_fixed_walk():
    # a strategy that needs no test still reads the walk's start
    st = cycle_strategy(5, 6, 1)
    assert st.root.test is None
    with pytest.raises(ValueError, match="walk is empty"):
        simulate_session(st.space, st, walk=())
    st = path_strategy(10, 4, 1)
    with pytest.raises(ValueError, match="walk is empty"):
        simulate_session(st.space, st, walk=[])


def test_strategy_exhausted_rejected():
    sp = path(16, 1)
    session = CodecSession(sp, expanding_accuracy_matrix(16))
    for _ in range(6):
        session.encode_step(3)
    assert session.done
    with pytest.raises(ValueError):
        session.encode_step(3)


def test_bit_text_round_trip():
    assert bits_to_text((1, 0, 1)) == "101"
    assert text_to_bits("0110") == (0, 1, 1, 0)
    with pytest.raises(ValueError):
        text_to_bits("10x")


@given(hs.one_of(hs.text("01 \t\n", max_size=12), hs.text("01x2-", max_size=6), hs.text(max_size=8)))
@settings(max_examples=200, deadline=None)
def test_bit_text_fuzz(text):
    body = text.strip()
    if set(body) <= {"0", "1"}:
        assert bits_to_text(text_to_bits(text)) == body
    else:
        with pytest.raises(ValueError, match="only '0' and '1'"):
            text_to_bits(text)


def test_restricted_model_session():
    sp = path(6, 1, moves_after_last_test=False)
    st = path_strategy(6, 4, 1)
    # rebuild the tree against the restricted arena: same tests still work
    tr = simulate_session(sp, st, walk=[2, 2], accuracy=4)
    assert tr.witness[-1] in tr.announced
