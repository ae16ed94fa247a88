import numpy as np
import pytest

from branchlab.cli import main
from branchlab.mps import MpsParseError, parse_mps, write_mps

KNAPSACK = """\
NAME tiny_knapsack
ROWS
 N  COST
 L  CAP
COLUMNS
    MARKER    'MARKER' 'INTORG'
    X1  COST  -5   CAP  3
    X2  COST  -4   CAP  2
    MARKER    'MARKER' 'INTEND'
RHS
    RHS  CAP  4
BOUNDS
 UP BND  X1  1
 UP BND  X2  1
ENDATA
"""


def test_knapsack_fixture_parses():
    p = parse_mps(KNAPSACK)
    assert p.name == "tiny_knapsack"
    assert p.n_cols == 2
    assert p.integer_mask.sum() == 2
    # L row converted to >= form
    np.testing.assert_allclose(p.rows, [[-3.0, -2.0]])
    np.testing.assert_allclose(p.rhs, [-4.0])
    np.testing.assert_allclose(p.obj, [-5.0, -4.0])
    np.testing.assert_allclose(p.upper, [1.0, 1.0])


def test_missing_bounds_defaults_to_nonnegative():
    text = KNAPSACK.replace("BOUNDS\n UP BND  X1  1\n UP BND  X2  1\n", "")
    p = parse_mps(text)
    assert np.all(p.lower == 0.0)
    assert np.all(np.isinf(p.upper))


def test_undeclared_row_reference_is_an_error_with_line_number():
    bad = KNAPSACK.replace("X2  COST  -4   CAP  2", "X2  COST  -4   NOPE  2")
    with pytest.raises(MpsParseError) as err:
        parse_mps(bad)
    assert "NOPE" in str(err.value)
    assert "line" in str(err.value)


def test_duplicate_row_name_rejected():
    bad = KNAPSACK.replace(" L  CAP", " L  CAP\n L  CAP")
    with pytest.raises(MpsParseError):
        parse_mps(bad)


def test_unknown_section_rejected():
    with pytest.raises(MpsParseError):
        parse_mps("GARBAGE\nENDATA\n")


def test_bound_on_undeclared_column_rejected():
    bad = KNAPSACK.replace(" UP BND  X1  1", " UP BND  XX  1")
    with pytest.raises(MpsParseError):
        parse_mps(bad)


def test_equality_rows_become_mirrored_ge_pairs():
    text = """\
NAME eqcase
ROWS
 N  OBJ
 E  BAL
COLUMNS
    A  OBJ  1  BAL  1
    B  OBJ  2  BAL  1
RHS
    RHS  BAL  2
ENDATA
"""
    p = parse_mps(text)
    assert p.n_rows == 2
    np.testing.assert_allclose(p.rows, [[1, 1], [-1, -1]])
    np.testing.assert_allclose(p.rhs, [2, -2])


def test_round_trip_is_stable():
    p1 = parse_mps(KNAPSACK)
    p2 = parse_mps(write_mps(p1))
    assert p1 == p2
    # and the serialized form is a fixed point
    assert write_mps(p1) == write_mps(p2)


def test_integer_bounds_are_tightened_inward():
    text = KNAPSACK.replace(" UP BND  X1  1", " UP BND  X1  1.7") \
                   .replace(" UP BND  X2  1", " LO BND  X2  0.3")
    p = parse_mps(text)
    assert p.upper[0] == 1.0
    assert p.lower[1] == 1.0


def test_column_order_is_first_appearance():
    p = parse_mps(KNAPSACK)
    assert p.col_names == ("X1", "X2")


@pytest.mark.parametrize("old, new, line_no", [
    # each once ended in a traceback or solved: a BOUNDS value that is no
    # number, a NaN right-hand side, a NaN bound
    (" UP BND  X1  1", " UP BND  X1  abc", 13),
    ("    RHS  CAP  4", "    RHS  CAP  nan", 11),
    (" UP BND  X1  1", " UP BND  X1  nan", 13),
    ("X2  COST  -4   CAP  2", "X2  COST  -4   CAP  NaN", 8),
    ("X2  COST  -4   CAP  2", "X2  COST  -4   CAP  inf", 8),
    ("    RHS  CAP  4", "    RHS  CAP  -inf", 11),
    (" UP BND  X1  1", " FX BND  X1  inf", 13),
    (" UP BND  X1  1", " LO BND  X1  inf", 13),
    (" UP BND  X1  1", " UP BND  X1  -inf", 13),
])
def test_bad_numbers_are_parse_errors_with_their_line(old, new, line_no,
                                                      tmp_path, capsys):
    bad = KNAPSACK.replace(old, new)
    assert bad != KNAPSACK
    with pytest.raises(MpsParseError) as err:
        parse_mps(bad)
    assert err.value.line_no == line_no
    path = tmp_path / "bad.mps"
    path.write_text(bad)
    assert main(["solve", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: line {line_no}: ")


def test_infinite_bounds_on_their_own_side_parse():
    text = KNAPSACK.replace(" UP BND  X1  1", " UP BND  X1  inf") \
                   .replace(" UP BND  X2  1", " LO BND  X2  -inf")
    p = parse_mps(text)
    assert p.upper[0] == np.inf and p.lower[1] == -np.inf
