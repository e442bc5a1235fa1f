"""Property-based tests of the polytope geometry: slacks, membership, chords.

The random polytopes include m = 0, where every point is interior and every
chord is the whole line.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dikinwalk.polytope import Polytope, chord, contains, slack

# bounded, so that no product or sum below comes near overflow and the
# rounding error of a slack stays far below the margins the tests keep
COORD = st.floats(-10.0, 10.0, allow_nan=False)


def _vector(draw, n):
    return np.array(draw(st.lists(COORD, min_size=n, max_size=n)), dtype=float)


def _nonzero(draw, n):
    v = _vector(draw, n)
    if not v.any():
        v[draw(st.integers(0, n - 1))] = 1.0
    return v


@st.composite
def polytope_with_point(draw, interior=False):
    """(P, x); with interior=True, b = Ax - s for slacks s in [0.1, 10]."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 6))
    A = np.array([_nonzero(draw, n) for _ in range(m)]).reshape(m, n)
    x = _vector(draw, n)
    if interior:
        s = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m)))
        b = A @ x - s
    else:
        b = _vector(draw, m)
    return Polytope(A=A, b=b), x


@settings(max_examples=300, deadline=None)
@given(polytope_with_point())
def test_slack_and_contains_agree_with_definition(case):
    P, x = case
    s = slack(P, x)
    assert s.shape == (P.m,)
    ref = np.array(
        [math.fsum(a * v for a, v in zip(row, x)) - c for row, c in zip(P.A, P.b)]
    ).reshape(P.m)
    np.testing.assert_allclose(s, ref, rtol=0.0, atol=1e-12)
    assert contains(P, x) == bool(np.all(s > 0.0))
    if np.all(np.abs(ref) > 1e-9):
        assert contains(P, x) == bool(np.all(ref > 0.0))


@settings(max_examples=300, deadline=None)
@given(polytope_with_point(interior=True), st.data())
def test_chord_is_the_interior_interval(case, data):
    P, x = case
    d = _nonzero(data.draw, P.n)
    c = chord(P, x, d)
    assert c.t_minus < 0.0 < c.t_plus
    if P.m == 0:
        assert (c.t_minus, c.t_plus) == (-math.inf, math.inf)
    t = data.draw(st.floats(-100.0, 100.0))
    # keep t off the endpoints, where rounding decides membership
    for end in (c.t_minus, c.t_plus):
        assume(not math.isfinite(end) or abs(t - end) > 1e-6 * (1.0 + abs(end)))
    assert contains(P, x + t * d) == (c.t_minus < t < c.t_plus)
