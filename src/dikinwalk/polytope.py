"""Open polytopes K = {x | Ax > b}: slacks, membership, line chords, text I/O."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class PolytopeError(ValueError):
    """Invalid polytope data or an operation on an exterior point."""


class PolytopeFormatError(PolytopeError):
    """Malformed polytope text; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Polytope:
    """The open set {x | Ax > b}, with A of shape (m, n). m = 0 means all of R^n."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if A.size == 0:
            # normalize the empty case to shape (0, n) with n inferred from A
            A = A.reshape(0, A.shape[-1] if A.ndim == 2 and A.shape[-1] > 0 else 0)
        if A.shape[0] != b.shape[0]:
            raise PolytopeError(
                f"A has {A.shape[0]} rows but b has length {b.shape[0]}"
            )
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise PolytopeError("constraint data must be finite")
        if A.shape[0] > 0 and np.any(np.all(A == 0.0, axis=1)):
            raise PolytopeError("zero row in A (vacuous or empty constraint)")
        A = A.copy()
        b = b.copy()
        A.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def _check_dim(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.n:
            raise PolytopeError(f"point has dimension {x.shape[0]}, expected {self.n}")
        return x


@dataclass(frozen=True)
class Chord:
    """Parameter interval of {t | x + t d in K}; endpoints may be +-inf."""

    t_minus: float
    t_plus: float


def slack(P: Polytope, x: np.ndarray) -> np.ndarray:
    """Slacks s = Ax - b; x need not be interior (caller checks signs)."""
    return P.A @ P._check_dim(x) - P.b


def contains(P: Polytope, x: np.ndarray) -> bool:
    """Strict membership: every slack positive. m = 0 contains everything."""
    return bool(np.all(slack(P, x) > 0.0))


def chord(P: Polytope, x: np.ndarray, d: np.ndarray) -> Chord:
    """Interval (t_minus, t_plus) with x + t d in K exactly for interior t.

    Constraint i bounds the +d direction when a_i^T d < 0.
    """
    s = slack(P, x)
    d = P._check_dim(d)
    if np.all(d == 0.0):
        raise PolytopeError("zero direction")
    if np.any(s <= 0.0):
        raise PolytopeError("chord requires an interior point")
    ad = P.A @ d
    t_plus = np.inf
    t_minus = -np.inf
    neg = ad < 0.0
    pos = ad > 0.0
    # a tiny |a_i^T d| overflows s_i / |a_i^T d| to inf, the right bound
    with np.errstate(over="ignore"):
        if np.any(neg):
            t_plus = float(np.min(s[neg] / (-ad[neg])))
        if np.any(pos):
            t_minus = float(np.max(-s[pos] / ad[pos]))
    return Chord(t_minus, t_plus)


def parse_polytope(text: str) -> Polytope:
    """Parse the polytope text format.

    First non-comment line is "n m"; then m rows of A (n floats each); then
    one line of m floats for b (omitted when m = 0). '#' lines are comments.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((lineno, stripped))
    if not lines:
        raise PolytopeFormatError("empty input")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise PolytopeFormatError("header must be 'n m'", lineno)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise PolytopeFormatError("non-integer header token", lineno) from None
    if n <= 0 or m < 0:
        raise PolytopeFormatError("need n > 0 and m >= 0", lineno)
    body = lines[1:]
    expected = m + (1 if m > 0 else 0)
    if len(body) != expected:
        raise PolytopeFormatError(
            f"expected {m} constraint row{'s' if m != 1 else ''}"
            + (" and one b line" if m > 0 else ""),
            body[expected][0] if len(body) > expected else lineno,
        )
    # every row is counted before the header's n sizes an array
    for rowno, row in body[:m]:
        k = len(row.split())
        if k != n:
            raise PolytopeFormatError(f"expected {n} floats, got {k}", rowno)
    A = np.zeros((m, n))
    for i in range(m):
        rowno, row = body[i]
        try:
            A[i] = [float(t) for t in row.split()]
        except ValueError:
            raise PolytopeFormatError("non-numeric token", rowno) from None
    b = np.zeros(m)
    if m > 0:
        rowno, row = body[m]
        toks = row.split()
        if len(toks) != m:
            raise PolytopeFormatError(f"expected {m} floats, got {len(toks)}", rowno)
        try:
            b[:] = [float(t) for t in toks]
        except ValueError:
            raise PolytopeFormatError("non-numeric token", rowno) from None
    if m == 0:
        A = A.reshape(0, n)
    return Polytope(A=A, b=b)


def serialize_polytope(P: Polytope) -> str:
    """Inverse of parse_polytope, bit-exact for finite doubles (17 sig digits)."""
    out = [f"{P.n} {P.m}"]
    for i in range(P.m):
        out.append(" ".join(f"{v:.17g}" for v in P.A[i]))
    if P.m > 0:
        out.append(" ".join(f"{v:.17g}" for v in P.b))
    return "\n".join(out) + "\n"


def make_orthant(n: int) -> Polytope:
    """Positive orthant: A = I, b = 0."""
    return Polytope(A=np.eye(n), b=np.zeros(n))


def make_box(lo, hi) -> Polytope:
    """Open axis-aligned box (lo, hi), 2n constraints."""
    lo = np.asarray(lo, dtype=float).reshape(-1)
    hi = np.asarray(hi, dtype=float).reshape(-1)
    if lo.shape != hi.shape or np.any(lo >= hi):
        raise PolytopeError("box needs lo < hi componentwise")
    n = lo.shape[0]
    A = np.vstack([np.eye(n), -np.eye(n)])
    b = np.concatenate([lo, -hi])
    return Polytope(A=A, b=b)


def make_simplex(n: int) -> Polytope:
    """Open standard simplex {x > 0, sum x < 1}, n + 1 constraints."""
    A = np.vstack([np.eye(n), -np.ones((1, n))])
    b = np.concatenate([np.zeros(n), [-1.0]])
    return Polytope(A=A, b=b)
