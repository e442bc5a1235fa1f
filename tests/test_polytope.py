import numpy as np
import pytest

from dikinwalk.polytope import (
    Polytope,
    PolytopeError,
    PolytopeFormatError,
    chord,
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


def test_chord_box():
    P = make_box([0.0, 0.0], [1.0, 1.0])
    c = chord(P, np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    assert c.t_minus == pytest.approx(-0.5)
    assert c.t_plus == pytest.approx(0.5)


def test_chord_orthant_one_sided():
    P = make_orthant(2)
    c = chord(P, np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    assert c.t_minus == pytest.approx(-1.0)
    assert c.t_plus == np.inf


def test_chord_unconstrained():
    P = Polytope(A=np.zeros((0, 2)), b=np.zeros(0))
    c = chord(P, np.zeros(2), np.array([1.0, 0.0]))
    assert c.t_minus == -np.inf and c.t_plus == np.inf


def test_chord_membership_on_grid():
    # every point strictly inside the chord interval must be interior,
    # and points just past the endpoints must not be
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 9))
        A = rng.standard_normal((m, n))
        A = A[np.linalg.norm(A, axis=1) > 1e-9]
        if A.shape[0] == 0:
            continue
        b = A @ np.zeros(n) - rng.uniform(0.1, 1.0, size=A.shape[0])
        P = Polytope(A=A, b=b)
        x = np.zeros(n)
        d = rng.standard_normal(n)
        if np.linalg.norm(d) < 1e-9:
            continue
        c = chord(P, x, d)
        lo = max(c.t_minus, -50.0)
        hi = min(c.t_plus, 50.0)
        for t in np.linspace(lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo), 9):
            assert contains(P, x + t * d)
        if np.isfinite(c.t_plus):
            assert not contains(P, x + (c.t_plus + 1e-9 + 1e-9 * abs(c.t_plus)) * d)
        if np.isfinite(c.t_minus):
            assert not contains(P, x + (c.t_minus - 1e-9 - 1e-9 * abs(c.t_minus)) * d)


def test_chord_direction_sign_symmetry():
    rng = np.random.default_rng(11)
    P = make_box([-1.0, -2.0], [3.0, 0.5])
    for _ in range(20):
        x = rng.uniform([-0.9, -1.9], [2.9, 0.4])
        d = rng.standard_normal(2)
        c_fwd = chord(P, x, d)
        c_bwd = chord(P, x, -d)
        assert c_fwd.t_plus == pytest.approx(-c_bwd.t_minus)
        assert c_fwd.t_minus == pytest.approx(-c_bwd.t_plus)


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


def test_parse_row_count_mismatch():
    with pytest.raises(PolytopeFormatError):
        parse_polytope("2 1\n1 0\n2 0\n0 0")


def test_parse_comments_and_blank_lines():
    text = "# a polytope\n\n2 1\n# the one row\n1 0\n0\n"
    P = parse_polytope(text)
    assert P.m == 1 and P.n == 2


def test_parse_bad_header():
    with pytest.raises(PolytopeFormatError):
        parse_polytope("banana\n")
    with pytest.raises(PolytopeFormatError):
        parse_polytope("")


def test_parse_huge_header_allocates_nothing():
    # a row of the wrong length is reported before n sizes any array
    with pytest.raises(PolytopeFormatError, match="line 2"):
        parse_polytope("1000000000000 1\n1\n0\n")


def test_parse_error_carries_line_number():
    try:
        parse_polytope("# comment\n2 1\n1 oops\n0\n")
    except PolytopeFormatError as exc:
        assert exc.line == 3
    else:
        pytest.fail("expected a format error")


def test_parse_m_zero():
    P = parse_polytope("3 0\n")
    assert P.m == 0 and P.n == 3


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
