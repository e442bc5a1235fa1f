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


def read_header(text: str, error: type[DikinwalkError], names: str) -> tuple:
    """The first data line of an input file: its line number, the integers
    that `names` (e.g. "n m") stands for, and an iterator over the data lines
    after it. A bad line raises `error`."""
    lines = data_lines(text)
    lineno, tokens = next(lines, (0, None))
    if tokens is None:
        raise error("empty input")
    if len(tokens) != len(names.split()):
        raise error(f"line {lineno}: header must be '{names}'")
    try:
        return lineno, [int(token) for token in tokens], lines
    except ValueError:
        raise error(f"line {lineno}: non-integer header token") from None


def read_rows(
    text: str, lines: Iterator, error: type, lineno: int, blocks: list, wrong_count: str
) -> list[np.ndarray]:
    """Rows of `lines` (the data lines after the header on line `lineno` of
    `text`) in blocks of (rows, width), each a float array; a bad line raises
    `error`. Lines, then each row's tokens, are counted before any conversion,
    so no header size allocates; a wrong line count names the first extra one."""
    expected = sum(rows for rows, _ in blocks)
    ends = [ln for k, (ln, _) in enumerate(data_lines(text)) if 0 <= k - expected <= 1]
    if len(ends) != 1:
        raise error(f"line {ends[1] if ends else lineno}: {wrong_count}")
    out = []
    for rows, width in blocks:
        for rowno, tokens in itertools.islice(lines, rows):
            if len(tokens) != width:
                raise error(f"line {rowno}: expected {width} floats, got {len(tokens)}")
            try:
                out.append(np.fromiter(map(float, tokens), float, width))
            except ValueError:
                raise error(f"line {rowno}: non-numeric token") from None
    return out


def write_rows(header: list[int], *blocks) -> str:
    """Inverse of read_header and read_rows: the header line, then every row
    of every block, bit-exact for finite doubles (17 significant digits)."""
    lines = [" ".join(map(str, header))]
    lines += [" ".join(f"{v:.17g}" for v in row) for row in itertools.chain(*blocks)]
    return "\n".join(lines) + "\n"


def parse_polytope(text: str) -> Polytope:
    """Polytope file: "n m", m lines of n floats (the rows of A), then one
    line of m floats (b), omitted when m = 0. '#' lines are comments."""
    lineno, (n, m), lines = read_header(text, PolytopeError, "n m")
    if n <= 0 or m < 0:
        raise PolytopeError(f"line {lineno}: need n > 0 and m >= 0")
    b_line = " and one b line" if m > 0 else ""
    wrong_count = f"expected {m} constraint row{'s' if m != 1 else ''}{b_line}"
    blocks = [(m, n), (min(m, 1), m)]  # the rows of A, then the b line if m > 0
    rows = read_rows(text, lines, PolytopeError, lineno, blocks, wrong_count)
    try:
        A = np.array(rows[:m]).reshape(m, n)
    except ValueError:  # m = 0, and n past numpy's largest shape
        raise PolytopeError(f"line {lineno}: n is too large") from None
    return Polytope(A=A, b=np.array(rows[m:]).reshape(m))


def serialize_polytope(P: Polytope) -> str:
    """Inverse of parse_polytope, bit-exact for finite doubles."""
    return write_rows([P.n, P.m], P.A, [P.b] if P.m > 0 else [])


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
