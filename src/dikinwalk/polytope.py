"""Open polytopes K = {x | Ax > b}: slacks, membership, text I/O."""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np


class DikinwalkError(ValueError):
    """Base of every error the library raises on bad input or a failed
    computation; the CLI maps each to an exit code (see dikinwalk.cli)."""


class PolytopeError(DikinwalkError):
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

    @functools.cached_property
    def row_norms_sq(self) -> np.ndarray:
        """|a_i|^2 for each row of A, computed once (A is read-only)."""
        return np.einsum("ij,ij->i", self.A, self.A)

    def _check_dim(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.n:
            raise PolytopeError(f"point has dimension {x.shape[0]}, expected {self.n}")
        return x


def slack(P: Polytope, x: np.ndarray) -> np.ndarray:
    """Slacks s = Ax - b; x need not be interior (caller checks signs)."""
    return P.A @ P._check_dim(x) - P.b


def contains(P: Polytope, x: np.ndarray) -> bool:
    """Strict membership: every slack positive. m = 0 contains everything."""
    return bool(np.all(slack(P, x) > 0.0))


def data_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, tokens) of each line of an input file that is
    neither blank nor a '#' comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if tokens and not tokens[0].startswith("#"):
            yield lineno, tokens


def _floats(tokens: list[str], k: int, lineno: int) -> np.ndarray:
    if len(tokens) != k:
        raise PolytopeFormatError(f"expected {k} floats, got {len(tokens)}", lineno)
    try:
        return np.fromiter(map(float, tokens), float, k)
    except ValueError:
        raise PolytopeFormatError("non-numeric token", lineno) from None


def parse_polytope(text: str) -> Polytope:
    """Parse the polytope text format.

    First non-comment line is "n m"; then m rows of A (n floats each); then
    one line of m floats for b (omitted when m = 0). '#' lines are comments.
    """
    lines = data_lines(text)
    lineno, header = next(lines, (0, None))
    if header is None:
        raise PolytopeFormatError("empty input")
    if len(header) != 2:
        raise PolytopeFormatError("header must be 'n m'", lineno)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise PolytopeFormatError("non-integer header token", lineno) from None
    if n <= 0 or m < 0:
        raise PolytopeFormatError("need n > 0 and m >= 0", lineno)
    # the lines are counted before any is converted, by a second reader that
    # keeps only the last expected line's number and the next one's
    expected = m + (1 if m > 0 else 0)
    ends = [ln for k, (ln, _) in enumerate(data_lines(text)) if 0 <= k - expected <= 1]
    if len(ends) != 1:
        raise PolytopeFormatError(
            f"expected {m} constraint row{'s' if m != 1 else ''}"
            + (" and one b line" if m > 0 else ""),
            ends[1] if ends else lineno,
        )
    # each row is counted as it is converted, so the header's n sizes no array
    A = [_floats(tokens, n, rowno) for rowno, tokens in itertools.islice(lines, m)]
    b = [_floats(tokens, m, rowno) for rowno, tokens in lines]  # the b line, if m > 0
    try:
        A = np.array(A).reshape(m, n)
    except ValueError:  # m = 0, and n past numpy's largest shape
        raise PolytopeFormatError("n is too large", lineno) from None
    return Polytope(A=A, b=np.array(b).reshape(m))


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
