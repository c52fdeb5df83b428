"""Exact sparse linear algebra over the rationals.

Entries are kept in one normal form: an ``int`` when integral, and a
``Fraction`` only when there is a denominator.  One conversion,
``_integer_rows``, feeds every elimination, which is fraction-free
integer elimination (rows are combined without ever forming intermediate
fractions, with a gcd normalisation after each combination to keep
entries small).  Pivots prefer sparse columns, with deterministic
tie-breaking by lowest column index then lowest row index, so results and
kernel bases are reproducible across runs and platforms.  A lazy min-heap
of (row count, column) finds that column without scanning all of them.

``rank_mod_p`` runs the same elimination loop on the same integer rows
reduced mod p.  It is a screening heuristic only: it is guaranteed to be
a lower bound on the rational rank and must never substitute for it.
``_rank_gf2`` ranks bitmask columns over GF(2), also a lower bound only;
``complexes`` reads exact Betti numbers from it where the Euler
characteristic closes the gap.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvalidModulus, ParseError


def _exact(x) -> int | Fraction:
    """An exact rational in normal form: an ``int`` when integral, else a
    ``Fraction``; a ``bool`` becomes an ``int`` and a ``str`` is parsed."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"not an exact rational: {x!r}")


class ExactMatrix:
    """Immutable sparse matrix with arbitrary-precision rational entries.

    Entries are stored as a map ``(row, col) -> int | Fraction`` with no
    zeros and no duplicates, each in the normal form of ``_exact``.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        self.rows = rows
        self.cols = cols
        cleaned = {}
        for (i, j), v in (entries or {}).items():
            v = _exact(v)
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
            if v:
                cleaned[(i, j)] = v
        self.entries = cleaned

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: dict) -> "ExactMatrix":
        """A matrix over entries the library built itself, already nonzero,
        inside the shape and in the normal form of ``_exact``, skipping the
        constructor's checks."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.entries = entries
        return m

    @classmethod
    def from_dense(cls, data: Sequence[Sequence]) -> "ExactMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                entries[(i, j)] = v
        return cls(rows, cols, entries)

    @classmethod
    def from_triplets(cls, rows: int, cols: int, triplets: Iterable) -> "ExactMatrix":
        entries = {}
        for i, j, v in triplets:
            key = (i, j)
            if key in entries:
                raise ValueError(f"duplicate triplet at {key}")
            entries[key] = v
        return cls(rows, cols, entries)

    def entry(self, i: int, j: int) -> int | Fraction:
        return self.entries.get((i, j), 0)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._trusted(
            self.cols, self.rows, {(j, i): v for (i, j), v in self.entries.items()}
        )

    def row_dicts(self):
        rows = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def to_dense(self):
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def apply(self, vector: Sequence) -> tuple:
        """Matrix-vector product, exact."""
        if len(vector) != self.cols:
            raise ValueError("dimension mismatch")
        out = [0] * self.rows
        for (i, j), v in self.entries.items():
            if vector[j]:
                out[i] += v * vector[j]
        return tuple(out)

    def nnz(self) -> int:
        return len(self.entries)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """Exact sparse product."""
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        right = other.row_dicts()
        out = {}
        for (i, k), a in self.entries.items():
            for j, b in right[k].items():
                out[i, j] = out.get((i, j), 0) + a * b
        return ExactMatrix(self.rows, other.cols, out)

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"

    # --- triplet JSON form used by golden-file tests -------------------

    def to_json_dict(self) -> dict:
        triplets = [[i, j, str(v)] for (i, j), v in sorted(self.entries.items())]
        return {"rows": self.rows, "cols": self.cols, "triplets": triplets}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ExactMatrix":
        try:
            return cls.from_triplets(
                int(obj["rows"]), int(obj["cols"]),
                ((int(i), int(j), v) for i, j, v in obj["triplets"]),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ParseError(f"bad matrix JSON: {exc}") from exc


@dataclass(frozen=True)
class KernelBasis:
    """Basis of the right kernel of a matrix, as primitive integer vectors."""

    vectors: tuple
    ambient_dim: int

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def _integer_rows(matrix: ExactMatrix):
    """Nonempty rows as integer dicts; a row with fractions is scaled by
    the lcm of its denominators, an integral row is passed through."""
    rows = []
    for row in matrix.row_dicts():
        if not row:
            continue
        scale = math.lcm(*(v.denominator for v in row.values()))
        if scale != 1:
            row = {j: v.numerator * (scale // v.denominator) for j, v in row.items()}
        rows.append(row)
    return rows


def _normalize_row(row: dict) -> dict:
    """The row divided by the gcd of its entries; the row itself when that
    gcd is 1, which the walk stops at as soon as it sees it."""
    g = 0
    for v in row.values():
        g = math.gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {j: v // g for j, v in row.items()}
    return row


def _eliminate(rows, modulus=None):
    """Fraction-free elimination on a list of integer row dicts.

    Returns ``(pivots, rows)`` where ``pivots`` is the ordered list of
    ``(row_index, column)`` pairs.  Pivot choice prefers the sparsest
    column, then the sparsest row in it, breaking ties by lowest column
    and lowest row index.  Retired pivot rows keep their final content,
    so the pivot rows form a triangular system in pivot order.  Rows are
    combined in place, so no two entries of ``rows`` may share a dict.

    With a prime ``modulus`` the rows hold residues mod p and every
    combined row is reduced mod p, which gives the rank over GF(p).  Each
    pivot row is first scaled to a leading 1; a unit multiple has the same
    support, so the pivot choices do not change.
    """
    col_rows: dict[int, set] = {}
    for r, row in enumerate(rows):
        for j in row:
            col_rows.setdefault(j, set()).add(r)
    # lazy min-heap of (row count, column): a column's count changes only
    # when it lies in the pivot row, and then a fresh entry is pushed, so
    # the first entry that matches its live count is the sparsest column;
    # rebuilding from the live counts bounds the stale entries it holds
    heap = []
    pivots = []
    while True:
        if not heap or len(heap) > 2 * len(col_rows):
            heap = [(len(rs), j) for j, rs in col_rows.items() if rs]
            if not heap:
                break
            heapq.heapify(heap)
        count, col = heapq.heappop(heap)
        rs = col_rows.get(col)
        if not rs or len(rs) != count:
            continue
        del col_rows[col]
        piv = min(rs, key=lambda r: (len(rows[r]), r))
        pivrow = rows[piv]
        p = pivrow[col]
        if modulus is not None and p != 1:
            # a leading 1 makes every combination below a plain copy
            inv = pow(p, -1, modulus)
            pivrow = rows[piv] = {j: x * inv % modulus for j, x in pivrow.items()}
            p = 1
        rest = [(j, x) for j, x in pivrow.items() if j != col]
        for r in rs:
            if r == piv:
                continue
            row = rows[r]
            v = row.pop(col)
            g = math.gcd(p, v)
            mp, mv = p // g, v // g
            if mp != 1:
                for j, x in row.items():
                    row[j] = x * mp
            for j, x in rest:
                y = row.get(j)
                if y is None:
                    row[j] = -mv * x
                    col_rows[j].add(r)
                else:
                    y -= mv * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
                        col_rows[j].discard(r)
            if modulus is None:
                rows[r] = _normalize_row(row)
                continue
            # only the pivot row's columns changed; the rest are residues
            for j, _ in rest:
                y = row.get(j)
                if y is None:
                    continue
                y %= modulus
                if y:
                    row[j] = y
                else:
                    del row[j]
                    col_rows[j].discard(r)
        # retire the pivot row; its other columns get fresh heap entries
        for j, _ in rest:
            holders = col_rows[j]
            holders.discard(piv)
            heapq.heappush(heap, (len(holders), j))
        pivots.append((piv, col))
    return pivots, rows


def rank(matrix: ExactMatrix) -> int:
    """Exact rank over the rationals, eliminating the shorter side: a
    matrix with more rows than columns by the rows of its transpose."""
    if matrix.rows > matrix.cols:
        matrix = matrix.transpose()
    pivots, _ = _eliminate(_integer_rows(matrix))
    return len(pivots)


def kernel_basis(matrix: ExactMatrix) -> KernelBasis:
    """Basis of the right kernel, deterministic for a fixed column order.

    Each basis vector corresponds to one free column (set to 1, other
    free columns 0) and is normalised to a primitive integer vector whose
    first nonzero entry is positive.  Vectors are ordered by free column.

    All free columns are solved in one pass.  The row of pivot t holds,
    besides its pivot column, only free columns and columns pivoted after
    t, so going latest first, each pivot row is cleared of the later pivot
    columns by the rows already reduced (over the lcm of the multipliers
    it needs, then divided by its gcd).  A reduced row p * x_c + sum of
    a_f * x_f = 0 then gives x_c = -a_f / p in the vector of free column
    f, which is scaled to integers over the lcm of its denominators.
    """
    pivots, rows = _eliminate(_integer_rows(matrix))
    reduced = {}  # pivot column -> (pivot entry, entries on free columns)
    for r, c in reversed(pivots):
        row = rows[r]
        later = [(u, v) for u, v in row.items() if u in reduced]
        if later:
            d = math.lcm(*(reduced[u][0] // math.gcd(reduced[u][0], v) for u, v in later))
            acc = {j: v * d for j, v in row.items() if j not in reduced}
            for u, v in later:
                p, free = reduced[u]
                k = v * d // p
                for j, x in free.items():
                    acc[j] = acc.get(j, 0) - k * x
            row = _normalize_row({j: x for j, x in acc.items() if x})
        p = row.pop(c)
        reduced[c] = (p, row)
    solved = {j: [] for j in range(matrix.cols) if j not in reduced}
    for c, (p, free) in reduced.items():
        for f, x in free.items():
            solved[f].append((c, x, p))
    vectors = []
    for f, terms in solved.items():
        scale = math.lcm(*(p // math.gcd(x, p) for _, x, p in terms))
        vec = [0] * matrix.cols
        vec[f] = scale
        for c, x, p in terms:
            vec[c] = -x * scale // p
        g = math.gcd(*vec)
        if next(v for v in vec if v) < 0:
            g = -g
        vectors.append(tuple(v // g for v in vec))
    return KernelBasis(tuple(vectors), matrix.cols)


def _rank_gf2(columns) -> int:
    """Rank over GF(2) of columns given as ``int`` bitmasks over the rows.

    Each column is reduced by XOR against the kept pivots, keyed by their
    lowest set bit, until it vanishes or brings a new lowest bit.  For an
    integer matrix read mod 2 this is a lower bound on the rational rank
    only (a minor odd over the integers is nonzero), never a substitute.
    """
    pivots = {}
    for col in columns:
        while col:
            low = col & -col
            if low not in pivots:
                pivots[low] = col
                break
            col ^= pivots[low]
    return len(pivots)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def rank_mod_p(matrix: ExactMatrix, p: int) -> int:
    """Rank of the reduction mod p; a fast lower-bound screen only.

    Entries whose denominator vanishes mod p make the reduction
    undefined, which is reported as a modulus error.
    """
    if not _is_prime(p):
        raise InvalidModulus(f"modulus must be prime, got {p}")
    for (i, j), v in matrix.entries.items():
        if v.denominator % p == 0:
            raise InvalidModulus(f"denominator of entry ({i},{j}) vanishes mod {p}")
    # each integer row is a unit multiple mod p of the row's residues
    rows = [{j: v % p for j, v in row.items() if v % p} for row in _integer_rows(matrix)]
    pivots, _ = _eliminate(rows, p)
    return len(pivots)
