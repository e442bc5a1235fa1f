"""Property-based tests of the text parsers behind the CLI's input files.

A round trip through the serializers must be bit-exact for finite doubles,
and arbitrary text may only raise the parse errors the CLI maps to exit 2.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dikinwalk.cli import parse_gaussian, serialize_gaussian
from dikinwalk.polytope import (
    Polytope,
    PolytopeError,
    parse_polytope,
    serialize_polytope,
)
from dikinwalk.target import GaussianTarget, TargetError

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _bits(a: np.ndarray) -> bytes:
    """Raw bytes, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=float).tobytes()


@st.composite
def polytopes(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 5))
    rows = []
    for _ in range(m):
        row = draw(st.lists(FINITE, min_size=n, max_size=n))
        if all(v == 0.0 for v in row):
            row[0] = draw(FINITE.filter(lambda v: v != 0.0))
        rows.append(row)
    b = draw(st.lists(FINITE, min_size=m, max_size=m))
    return Polytope(A=np.array(rows, dtype=float).reshape(m, n), b=np.array(b))


@st.composite
def gaussians(draw):
    n = draw(st.integers(1, 4))
    mu = draw(st.lists(FINITE, min_size=n, max_size=n))
    # symmetric and diagonally dominant, so positive definite; bounded, so
    # the constructor's 0.5 (S + S^T) cannot overflow
    entry = st.floats(-1e6, 1e6)
    S = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            S[i, j] = S[j, i] = draw(entry)
    for i in range(n):
        S[i, i] = np.abs(S[i]).sum() + draw(st.floats(1e-3, 1e6))
    return GaussianTarget(mu=np.array(mu), Sigma=S)


# tokens near the formats' grammar: small integers (the polytope header sizes
# the array it allocates), floats of every kind, and junk
TOKEN = st.one_of(
    st.integers(-3, 1000).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "1e400", "1_0", "0x1p3", "--1", ".", "x", "#"]),
)
LINE = st.lists(TOKEN, max_size=6).map(" ".join)


@st.composite
def shaped_polytope_text(draw):
    """A header 'n m' with m + 1 following lines, most of the right length."""
    n = draw(st.integers(-1, 4))
    m = draw(st.integers(-1, 5))
    lines = [f"{n} {m}"]
    for _ in range(max(m, 0) + draw(st.integers(0, 2))):
        k = draw(st.sampled_from([max(n, 0), max(m, 0), max(n, 0) + 1]))
        lines.append(" ".join(draw(st.lists(TOKEN, min_size=k, max_size=k))))
    return "\n".join(lines)


@st.composite
def shaped_gaussian_text(draw):
    """A dimension line n with n + 1 following lines, most of the right length."""
    n = draw(st.integers(-3, 4))
    lines = [str(n)]
    for _ in range(max(n, 0) + draw(st.integers(0, 2))):
        k = draw(st.sampled_from([max(n, 0), max(n, 0) + 1]))
        lines.append(" ".join(draw(st.lists(TOKEN, min_size=k, max_size=k))))
    return "\n".join(lines)


FUZZ_SETTINGS = settings(max_examples=200, deadline=None)


@settings(deadline=None)
@given(polytopes())
def test_polytope_round_trip_bit_exact(P):
    Q = parse_polytope(serialize_polytope(P))
    assert Q.A.shape == P.A.shape
    assert _bits(Q.A) == _bits(P.A)
    assert _bits(Q.b) == _bits(P.b)


@settings(deadline=None)
@given(gaussians())
def test_gaussian_round_trip_bit_exact(G):
    H = parse_gaussian(serialize_gaussian(G))
    assert _bits(H.mu) == _bits(G.mu)
    assert _bits(H.Sigma) == _bits(G.Sigma)


@FUZZ_SETTINGS
@given(st.one_of(st.text(max_size=200), st.lists(LINE, max_size=8).map("\n".join),
                 shaped_polytope_text()))
def test_polytope_fuzz_raises_only_parse_errors(text):
    try:
        P = parse_polytope(text)
    except PolytopeError:
        return
    assert np.isfinite(P.A).all() and np.isfinite(P.b).all()


@FUZZ_SETTINGS
@given(st.one_of(st.text(max_size=200), st.lists(LINE, max_size=8).map("\n".join),
                 shaped_gaussian_text()))
def test_gaussian_fuzz_raises_only_parse_errors(text):
    try:
        G = parse_gaussian(text)
    except TargetError:
        return
    assert G.Sigma.shape == (G.n, G.n)
