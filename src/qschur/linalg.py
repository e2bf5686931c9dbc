"""Exact linear algebra: fraction-free rank, row spaces, solving.

Everything operates on lists of Fractions (or ints); no floating point.
`RowSpace` also runs over a prime field F_p, where it serves as the
modular rank of the certificates.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = [
    "RationalMatrix",
    "rank_exact",
    "RowSpace",
    "nullspace",
    "solve_in_span",
    "ResourceLimit",
]


class ResourceLimit(RuntimeError):
    """A computation exceeded its configured size or time budget."""


def _integer_rows(matrix):
    """Scale each row by the lcm of its denominators (rank-preserving)."""
    out = []
    for row in matrix:
        row = [Fraction(x) for x in row]
        denom = 1
        for x in row:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        out.append([int(x * denom) for x in row])
    return out


def rank_exact(matrix) -> int:
    """Exact rank by fraction-free (Bareiss) elimination on integer rows.

    Deterministic: pivots are chosen as the first nonzero entry in
    column-major sweep order.
    """
    rows = _integer_rows(matrix)
    if not rows:
        return 0
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    nrows = len(rows)
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
        pval = rows[rank][col]
        for i in range(rank + 1, nrows):
            ival = rows[i][col]
            for j in range(col, ncols):
                rows[i][j] = (pval * rows[i][j] - ival * rows[rank][j]) // prev
        prev = pval
        rank += 1
        if rank == nrows:
            break
    return rank


class RationalMatrix:
    """Thin exact-matrix wrapper; entries are Fractions."""

    def __init__(self, entries):
        self.entries = [[Fraction(x) for x in row] for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(r) != self.cols for r in self.entries):
            raise ValueError("ragged matrix")

    def rank(self) -> int:
        return rank_exact(self.entries)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            [[self.entries[i][j] for i in range(self.rows)]
             for j in range(self.cols)])

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"


class RowSpace:
    """Incrementally maintained row space with exact membership tests,
    over Q or, given a prime `modulus` p, over F_p.

    Over Q the entries become Fractions; over F_p they are ints reduced
    into [0, p).  Rows are kept in a reduced echelon-ish form: each stored
    row has a pivot column not reused by the others and is normalised to
    pivot 1.  Feeding rows to a fresh space and reading `rank` is the
    rank of a matrix.
    """

    def __init__(self, ncols: int, modulus: int | None = None):
        self.ncols = ncols
        self.modulus = modulus
        self._rows = []     # reduced rows
        self._pivots = []   # pivot column of each reduced row

    @property
    def rank(self) -> int:
        return len(self._rows)

    # the field operations; everything below is written in terms of them

    def _entries(self, vec):
        m = self.modulus
        return [Fraction(x) for x in vec] if m is None else [x % m for x in vec]

    def _subtract(self, vec, f, row, start):
        """vec[start:] -= f * row[start:], in place."""
        m = self.modulus
        if m is None:
            for j in range(start, self.ncols):
                vec[j] -= f * row[j]
        else:
            vec[start:] = [(a - f * b) % m for a, b in zip(vec[start:], row[start:])]

    def _normalised(self, vec, p):
        """vec scaled so that vec[p] == 1."""
        m = self.modulus
        if m is None:
            inv = Fraction(1) / vec[p]
            return [x * inv for x in vec]
        inv = pow(vec[p], -1, m)
        return [x * inv % m for x in vec]

    def _reduce(self, vec):
        vec = self._entries(vec)
        for row, p in zip(self._rows, self._pivots):
            if vec[p]:
                self._subtract(vec, vec[p], row, p)
        return vec

    def contains(self, vec) -> bool:
        return not any(self._reduce(vec))

    def add(self, vec) -> bool:
        """Insert vec; returns True when it enlarged the space."""
        red = self._reduce(vec)
        for p in range(self.ncols):
            if red[p]:
                red = self._normalised(red, p)
                # back-substitute into existing rows to stay reduced
                for row in self._rows:
                    if row[p]:
                        self._subtract(row, row[p], red, p)
                self._rows.append(red)
                self._pivots.append(p)
                return True
        return False

    def basis(self):
        return [list(r) for r in self._rows]


def nullspace(rows, ncols=None):
    """Basis of {x : M x = 0} for the matrix with the given rows."""
    rows = [[Fraction(x) for x in r] for r in rows]
    if ncols is None:
        if not rows:
            raise ValueError("need ncols for an empty matrix")
        ncols = len(rows[0])
    # forward elimination to reduced row echelon form
    mat = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = Fraction(1) / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(mat[:rank], pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def solve_in_span(basis_rows, target):
    """Express target as a combination of the given rows.

    Returns (status, coeffs) with status one of:
      "ok"           coeffs is the unique coefficient list
      "nonunique"    a solution exists but is not unique (rank defect)
      "inconsistent" target lies outside the span
    """
    nb = len(basis_rows)
    if nb == 0:
        if any(Fraction(x) for x in target):
            return "inconsistent", None
        return "ok", []
    ncols = len(basis_rows[0])
    # columns of the system are the basis rows; augment with the target
    aug = [[Fraction(basis_rows[i][j]) for i in range(nb)] + [Fraction(target[j])]
           for j in range(ncols)]
    pivots = []
    rank = 0
    for col in range(nb):
        piv = None
        for i in range(rank, len(aug)):
            if aug[i][col]:
                piv = i
                break
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = Fraction(1) / aug[rank][col]
        aug[rank] = [x * inv for x in aug[rank]]
        for i in range(len(aug)):
            if i != rank and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, len(aug)):
        if aug[i][nb]:
            return "inconsistent", None
    if rank < nb:
        return "nonunique", None
    coeffs = [Fraction(0)] * nb
    for row, pc in zip(aug[:rank], pivots):
        coeffs[pc] = row[nb]
    return "ok", coeffs
