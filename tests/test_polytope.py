import numpy as np
import pytest

from dikinwalk.polytope import (
    Polytope,
    PolytopeError,
    contains,
    make_box,
    make_orthant,
    parse_polytope,
    serialize_polytope,
    slack,
)


def test_slack_identity_constraints():
    P = Polytope(A=np.eye(2), b=np.zeros(2))
    s = slack(P, np.array([1.0, 2.0]))
    np.testing.assert_array_equal(s, [1.0, 2.0])


def test_slack_empty():
    P = Polytope(A=np.zeros((0, 2)), b=np.zeros(0))
    assert slack(P, np.array([3.0, 4.0])).shape == (0,)


def test_slack_boundary_zero():
    P = Polytope(A=np.array([[1.0, 1.0]]), b=np.array([1.0]))
    s = slack(P, np.array([0.5, 0.5]))
    np.testing.assert_allclose(s, [0.0], atol=1e-15)


def test_contains_orthant():
    P = make_orthant(2)
    assert contains(P, np.array([1.0, 1.0]))
    assert not contains(P, np.array([0.0, 1.0]))  # boundary excluded


def test_contains_unconstrained():
    P = Polytope(A=np.zeros((0, 3)), b=np.zeros(0))
    assert contains(P, np.array([-17.0, 0.0, 1e9]))


def test_parse_smallest_file():
    P = parse_polytope("2 1\n1 0\n0")
    np.testing.assert_array_equal(P.A, [[1.0, 0.0]])
    np.testing.assert_array_equal(P.b, [0.0])


def test_parse_serialize_round_trip():
    P = make_box([0.0, 0.0], [1.0, 1.0])
    P2 = parse_polytope(serialize_polytope(P))
    np.testing.assert_array_equal(P.A, P2.A)
    np.testing.assert_array_equal(P.b, P2.b)


def test_parse_round_trip_random_values():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-8, 8, size=(5, 3))
    b = rng.standard_normal(5)
    P = Polytope(A=A, b=b)
    P2 = parse_polytope(serialize_polytope(P))
    np.testing.assert_array_equal(P.A, P2.A)  # 17 sig digits is bit-exact
    np.testing.assert_array_equal(P.b, P2.b)


def test_serialize_polytope_text():
    P = Polytope(A=np.array([[1.0, -0.5], [0.1, 2e-300]]), b=np.array([-0.0, 3.0]))
    assert serialize_polytope(P) == (
        "2 2\n1 -0.5\n0.10000000000000001 2.0000000000000001e-300\n-0 3\n"
    )
    assert serialize_polytope(Polytope(A=np.zeros((0, 3)), b=np.zeros(0))) == "3 0\n"


def test_parse_row_count_mismatch():
    with pytest.raises(PolytopeError):
        parse_polytope("2 1\n1 0\n2 0\n0 0")


def test_parse_comments_and_blank_lines():
    text = "# a polytope\n\n2 1\n# the one row\n1 0\n0\n"
    P = parse_polytope(text)
    assert P.m == 1 and P.n == 2


def test_parse_bad_header():
    with pytest.raises(PolytopeError):
        parse_polytope("banana\n")
    with pytest.raises(PolytopeError):
        parse_polytope("")


def test_parse_huge_header_allocates_nothing():
    # a row of the wrong length is reported before n sizes any array
    with pytest.raises(PolytopeError, match="line 2"):
        parse_polytope("1000000000000 1\n1\n0\n")


def test_parse_error_carries_line_number():
    try:
        parse_polytope("# comment\n2 1\n1 oops\n0\n")
    except PolytopeError as exc:
        assert str(exc).startswith("line 3:")
    else:
        pytest.fail("expected a format error")


def test_parse_m_zero():
    P = parse_polytope("3 0\n")
    assert P.m == 0 and P.n == 3


@pytest.mark.parametrize(
    "text, message",
    [
        # m past any count of lines, and n past numpy's largest shape
        ("1 99999999999999999999999\n0\n", "line 1: expected 99999999999999999999999"),
        ("99999999999999999999999 0\n", "line 1: n is too large"),
        # a missing row is reported as such, not as a b line of the wrong length
        ("2 2\n1 0\n0 0\n", "line 1: expected 2 constraint rows and one b line"),
        ("2 1\n1 0\n0\n0 1\n", "line 4: expected 1 constraint row and one b line"),
    ],
)
def test_parse_huge_header_and_line_counts(text, message):
    with pytest.raises(PolytopeError, match=f"^{message}"):
        parse_polytope(text)


def test_make_orthant():
    P = make_orthant(2)
    np.testing.assert_array_equal(P.A, np.eye(2))
    np.testing.assert_array_equal(P.b, np.zeros(2))


def test_make_box():
    P = make_box((0.0, 0.0), (1.0, 1.0))
    assert P.m == 4
    assert contains(P, np.array([0.5, 0.5]))


def test_invalid_construction():
    with pytest.raises(PolytopeError):
        Polytope(A=np.eye(2), b=np.zeros(3))
    with pytest.raises(PolytopeError):
        Polytope(A=np.array([[0.0, 0.0]]), b=np.zeros(1))
    with pytest.raises(PolytopeError):
        Polytope(A=np.array([[np.inf, 1.0]]), b=np.zeros(1))


def test_arrays_are_frozen():
    P = make_orthant(2)
    with pytest.raises(ValueError):
        P.A[0, 0] = 5.0
