import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from helpers import reference_evaluate_matrix
from movingsearch.errors import RegimeError
from movingsearch.nonadaptive import (
    TestMatrix,
    evaluate_matrix,
    expanding_accuracy_matrix,
    general_k_matrix,
    nonadaptive_min_accuracy,
)
from movingsearch.spaces import (
    PositionSet,
    consistent_walk_exists,
    cycle,
    distance,
    full_set,
    path,
    update,
)

P = PositionSet.parse

# 6x16 reference matrix, transcribed digit for digit
REFERENCE_16 = TestMatrix.parse(
    """
    0000000011111111
    0000000110000000
    0000001100111111
    0000011001100000
    0000110011001111
    0001100110011000
    """
)


def test_reference_matrix_reproduced_exactly():
    assert expanding_accuracy_matrix(16) == REFERENCE_16


def test_center_rule_cell():
    m = expanding_accuracy_matrix(16)
    assert m.bits[1][7] == 1  # row 2, column 8: first center run is present


def test_row_count_formula():
    for n_vertices in range(5, 25):
        m = expanding_accuracy_matrix(n_vertices)
        assert m.rows == -(-n_vertices // 2) - 2
        assert m.cols == n_vertices


def test_small_n_rejected():
    with pytest.raises(RegimeError):
        expanding_accuracy_matrix(4)


def test_matrix_text_round_trip():
    m = expanding_accuracy_matrix(11)
    assert TestMatrix.parse(m.to_text()) == m
    assert m.row_test(0) == P("7-11")


# near-matrices (rows of 0/1, now and then ragged), then text with a few
# stray characters, then anything
MATRIX_TEXT = hs.one_of(
    hs.lists(hs.text("01", min_size=1, max_size=6), max_size=4).map("\n".join),
    hs.text("01 \n\t\r2x-", max_size=30),
    hs.text(max_size=12),
)


@given(MATRIX_TEXT)
@settings(max_examples=300, deadline=None)
def test_matrix_parse_names_the_first_bad_line(text):
    lines = [line.strip() for line in text.splitlines()]
    rows = [line for line in lines if line]
    bad = next(
        (i for i, line in enumerate(lines, 1) if line and (line.strip("01") or len(line) != len(rows[0]))),
        None,
    )
    try:
        m = TestMatrix.parse(text)
    except ValueError as exc:
        if bad is not None:
            assert str(exc).startswith(f"matrix line {bad}: expected a row of "), (text, exc)
            assert "'0'/'1' characters" in str(exc)
        else:
            assert not rows and "positive dimensions" in str(exc)
    else:
        assert bad is None and m.to_text() == "".join(row + "\n" for row in rows)
        assert TestMatrix.parse(m.to_text()) == m


def test_matrix_parse_rejects_other_digits():
    # int() reads these, the text form does not
    with pytest.raises(ValueError, match="matrix line 2: expected a row of '0'/'1' .* got '0\u0661'"):
        TestMatrix.parse("01\n0\u0661\n")


def test_matrix_validation():
    with pytest.raises(ValueError):
        TestMatrix(((0, 1), (1,)))
    with pytest.raises(ValueError):
        TestMatrix(((0, 2),))
    with pytest.raises(ValueError):
        TestMatrix(())


def test_matrix_stores_rows_as_tuples_of_ints():
    # rows given as lists, or as bools, make the same hashable value
    m = TestMatrix([[0, 1, 1], [1, 0, 0]])
    assert m.bits == ((0, 1, 1), (1, 0, 0))
    assert all(type(b) is int for row in m.bits for b in row)
    same = TestMatrix(((0, 1, 1), (1, 0, 0)))
    assert m == same and hash(m) == hash(same)
    assert TestMatrix([(False, True, True), [True, False, False]]) == same
    assert len({m, same}) == 1


# -- evaluation ---------------------------------------------------------------


def test_reference_matrix_succeeds_at_accuracy_4():
    res = evaluate_matrix(path(16, 1), REFERENCE_16, 4)
    assert res.success


def test_all_zero_row_fails():
    n = 8
    m = TestMatrix(((0,) * n,))
    res = evaluate_matrix(path(n, 1), m, 4)
    assert not res.success
    assert res.worst_final == P("1-8")


def _differential_cases():
    """(topology, N, k, matrix) cases of the evaluator differential test."""
    for n_vertices in range(5, 25):
        yield path, n_vertices, 1, expanding_accuracy_matrix(n_vertices)
    for k in (2, 3):
        for n_vertices in range(6 * k + 1, 6 * k + 7):
            yield path, n_vertices, k, general_k_matrix(n_vertices, k)
    rng = random.Random(4)
    for topology in (path, cycle):
        for n_vertices in range(2, 14):
            for _ in range(3):
                k = rng.randint(1, 2)
                bits = tuple(
                    tuple(rng.randint(0, 1) for _ in range(n_vertices))
                    for _ in range(rng.randint(1, 6))
                )
                yield topology, n_vertices, k, TestMatrix(bits)


def test_mask_evaluator_matches_positionset_reference():
    cases = 0
    for topology, n_vertices, k, m in _differential_cases():
        for flag in (True, False):
            sp = topology(n_vertices, k, flag)
            for s in range(1, n_vertices + 1):
                res = evaluate_matrix(sp, m, s)
                success, worst = reference_evaluate_matrix(sp, m, s)
                where = (sp, m.to_text(), s)
                assert res.success == success, where
                if success:
                    assert res.worst_final is None, where
                else:
                    assert len(res.worst_final) == len(worst), where
                cases += 1
    assert cases == 2104


def test_evaluator_rejects_bad_accuracy_and_columns():
    with pytest.raises(ValueError, match="accuracy"):
        evaluate_matrix(path(8, 1), expanding_accuracy_matrix(8), 0)
    with pytest.raises(ValueError, match="columns"):
        evaluate_matrix(path(9, 1), expanding_accuracy_matrix(8), 4)


def test_expanding_matrix_tight_row_count_on_p12():
    sp = path(12, 1)
    m = expanding_accuracy_matrix(12)
    assert evaluate_matrix(sp, m, 4).success
    shorter = TestMatrix(m.bits[:-1])
    assert not evaluate_matrix(sp, shorter, 4).success


@pytest.mark.parametrize("n_vertices", range(5, 25))
def test_expanding_matrix_succeeds_everywhere(n_vertices):
    m = expanding_accuracy_matrix(n_vertices)
    assert evaluate_matrix(path(n_vertices, 1), m, 4).success


def walk_level_success(n_vertices, k, matrix, s):
    """Success decided by enumerating every valid walk instead of answers."""
    sp = path(n_vertices, k)
    tests = list(matrix.tests())

    def go(pos, i, d):
        # d is the candidate set after i answered rounds
        if len(d) <= s:
            return True
        if i == len(tests):
            return False
        y = 1 if pos in tests[i] else 0
        nd = update(sp, d, tests[i], y)
        return all(
            go(q, i + 1, nd)
            for q in range(1, n_vertices + 1)
            if distance(sp, pos, q) <= k
        )

    return all(go(start, 0, full_set(sp)) for start in range(1, n_vertices + 1))


def test_answer_level_and_walk_level_evaluation_agree():
    for n_vertices in range(5, 11):
        m = expanding_accuracy_matrix(n_vertices)
        assert evaluate_matrix(path(n_vertices, 1), m, 4).success == walk_level_success(
            n_vertices, 1, m, 4
        )
        short = TestMatrix(m.bits[:-1]) if m.rows > 1 else m
        assert evaluate_matrix(path(n_vertices, 1), short, 4).success == walk_level_success(
            n_vertices, 1, short, 4
        )


def test_all_zero_branch_reaches_accuracy_window():
    # replaying six misses against the reference matrix localizes the
    # target's last test position to {1,2,3}
    sp = path(16, 1)
    tests = list(REFERENCE_16.tests())
    walk = consistent_walk_exists(sp, tests, [0] * 6)
    assert walk is not None
    assert walk[5] in (1, 2, 3)
    assert walk[6] in (1, 2, 3, 4)


# -- speed-k dilation -----------------------------------------------------------


def test_dilation_is_identity_for_unit_speed():
    assert general_k_matrix(16, 1) == expanding_accuracy_matrix(16)


def test_dilation_rejects_small_paths():
    # the N > 6k precondition: N = 12 is the largest rejected size for k = 2
    with pytest.raises(RegimeError):
        general_k_matrix(12, 2)
    with pytest.raises(RegimeError):
        general_k_matrix(6, 1)
    general_k_matrix(13, 2)  # first admissible size


@pytest.mark.parametrize("n_vertices", range(13, 21))
def test_dilated_matrix_reaches_4k_for_k2(n_vertices):
    m = general_k_matrix(n_vertices, 2)
    assert evaluate_matrix(path(n_vertices, 2), m, 8).success


def test_nonadaptive_min_accuracy_cases():
    assert nonadaptive_min_accuracy(7, 1) == 4
    assert nonadaptive_min_accuracy(2, 1) == 2
    assert nonadaptive_min_accuracy(10, 2) == 7
