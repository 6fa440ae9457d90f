"""The result records are named tuples, and the two value classes
``SearchSpace`` and ``TestMatrix`` slotted classes, that behave as the
dataclasses they replace did: equal and hash-equal by value, and printed
in the ``Name(field=value, ...)`` form.  All are immutable, ``CheckResult``
included, and survive ``pickle`` and ``copy.deepcopy``."""

import copy
import pickle

import pytest

from movingsearch import (
    GameValue, PositionSet, StrategyNode, TestMatrix, cycle, exact_min_tests, extract_strategy, path,
)
from movingsearch.adaptive import AdaptiveStrategy, MinTests
from movingsearch.adversary import CounterCertificate, Transcript, TranscriptRound, source_root
from movingsearch.nonadaptive import MatrixEvaluation
from movingsearch.verify import CheckResult

ps = PositionSet.parse
SPACE_REPR = "SearchSpace(topology=<Topology.PATH: 'path'>, num_vertices={}, speed=1, moves_after_last_test=True)"
ROUND_REPR = ("TranscriptRound(index=1, test=PositionSet.parse('1-2'), answer=0, "
              "candidates=PositionSet.parse('3-5'), tracked=None)")


def _round():
    return TranscriptRound(1, ps("1-2"), 0, ps("3-5"))


# (a maker of one record, its repr as the dataclass printed it)
RECORDS = {
    "AdaptiveStrategy": (
        lambda: AdaptiveStrategy(path(3, 1), StrategyNode(answer=ps("1-3")), 3),
        f"AdaptiveStrategy(space={SPACE_REPR.format(3)}, root=StrategyNode(test=None, on0=None, "
        "on1=None, answer=PositionSet.parse('1-3')), accuracy_target=3)",
    ),
    "MinTests": (lambda: MinTests(6), "MinTests(n=6, exact=True)"),
    "TranscriptRound": (_round, ROUND_REPR),
    "Transcript": (
        lambda: Transcript(path(5, 1), (_round(),), witness=(3, 4), announced=ps("3-5")),
        f"Transcript(space={SPACE_REPR.format(5)}, rounds=({ROUND_REPR},), witness=(3, 4), "
        "announced=PositionSet.parse('3-5'))",
    ),
    "CounterCertificate": (
        lambda: CounterCertificate(4, (0, 1), ((4, 5), (4, 3)), ps("2-5")),
        "CounterCertificate(forced_accuracy=4, answers=(0, 1), walks=((4, 5), (4, 3)), "
        "final_candidates=PositionSet.parse('2-5'))",
    ),
    "MatrixEvaluation": (
        lambda: MatrixEvaluation(False, ps("2-3")),
        "MatrixEvaluation(success=False, worst_final=PositionSet.parse('2-3'))",
    ),
    "CheckResult": (
        lambda: CheckResult("eq1", 2, True, 0.25, 3, ["a finding"], ["a note"], None),
        "CheckResult(name='eq1', criterion=2, passed=True, seconds=0.25, checked=3, "
        "findings=['a finding'], notes=['a note'], error=None)",
    ),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_records_compare_by_value_refuse_assignment_and_print_as_dataclasses(name):
    make, want_repr = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a is not b and a == b
    if name == "CheckResult":
        # it holds its findings and notes as lists, so, as the dataclass, it has no hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    for field in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
    assert repr(a) == want_repr
    assert a == b  # the refused assignments left both as they were


def test_check_result_record_keeps_its_keys():
    result = RECORDS["CheckResult"][0]()
    assert list(result.record()) == ["check", "criterion", "passed", "seconds", "checked", "findings", "notes"]
    assert list(result._replace(error="boom").record())[-1] == "error"


def test_tuple_records_keep_their_field_meanings():
    # a strategy is a tuple too, but a test source reads it as its tree
    strategy = RECORDS["AdaptiveStrategy"][0]()
    assert source_root(strategy) is strategy.root
    # the round number, not tuple.index
    assert _round().index == 1


# (a maker of one value, its repr as the dataclass printed it)
VALUES = {
    "SearchSpace": (
        lambda: cycle(7, 2, False),
        "SearchSpace(topology=<Topology.CYCLE: 'cycle'>, num_vertices=7, speed=2, moves_after_last_test=False)",
    ),
    "TestMatrix": (lambda: TestMatrix(((0, 1, 1), (1, 0, 0))), "TestMatrix(bits=((0, 1, 1), (1, 0, 0)))"),
}


@pytest.mark.parametrize("name", list(VALUES))
def test_value_classes_compare_by_value_refuse_assignment_and_print_as_dataclasses(name):
    make, want_repr = VALUES[name]
    a, b = make(), make()
    assert type(a).__name__ == name and not isinstance(a, tuple)
    assert a is not b and a == b and hash(a) == hash(b)
    for field in type(a).__slots__:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = None
    assert repr(a) == want_repr
    assert a == b


def test_value_classes_differ_in_any_field():
    space = cycle(7, 2, False)
    for other in (path(7, 2, False), cycle(8, 2, False), cycle(7, 1, False), cycle(7, 2)):
        assert space != other
    assert space != tuple(getattr(space, f) for f in type(space).__slots__)
    assert TestMatrix(((0, 1),)) != TestMatrix(((1, 0),)) != ((1, 0),)


@pytest.mark.parametrize("name", list(RECORDS) + list(VALUES))
def test_records_and_values_survive_pickle_and_deepcopy(name):
    make = {**RECORDS, **VALUES}[name][0]
    a = make()
    for twin in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert type(twin) is type(a) and twin == a and repr(twin) == repr(a)


GAME_VALUE_REPR = (
    "GameValue(space=SearchSpace(topology=<Topology.PATH: 'path'>, num_vertices=9, speed=1, "
    "moves_after_last_test=True), s=4, test_class='intervals', status='solved', min_tests=3, states=10, "
    "edges=20, search_seconds=0.5, trap_seconds=0.25)"
)


def test_game_value_keeps_its_engine_out_of_repr_equality_and_hash():
    fixed = GameValue(path(9, 1), 4, "intervals", "solved", 3, 10, 20, 0.5, 0.25)
    assert repr(fixed) == GAME_VALUE_REPR
    for field in fixed._fields:
        with pytest.raises(AttributeError):
            setattr(fixed, field, None)
    gv = exact_min_tests(path(9, 1), 4)
    bare = GameValue(*gv)  # the nine fields, no engine
    assert gv._search is not None and bare._search is None
    assert gv == bare and hash(gv) == hash(bare) and repr(gv) == repr(bare)
    assert "_search" not in repr(gv)
    with pytest.raises(ValueError):
        extract_strategy(fixed)  # status solved, but no engine to extract from
    for twin in (pickle.loads(pickle.dumps(gv)), copy.deepcopy(gv)):
        assert twin == gv and repr(twin) == repr(gv)
        assert twin._search is not gv._search
        assert extract_strategy(twin) == extract_strategy(gv)
