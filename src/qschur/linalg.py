"""Exact linear algebra: fraction-free rank, row spaces, solving.

Everything operates on lists of Fractions (or ints); no floating point.
`RowSpace` is the one Gauss-Jordan routine: it keeps rows in reduced
echelon form, and null spaces and `solve_in_span` read their answers off
its pivots.  It is also every rank the certificates take, over F_p at a
point and, for a block short there, over Q at the same point.  The
Bareiss `rank_exact` is the reference: nothing in the package calls it,
and the tests check `RowSpace` against it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = [
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


class RowSpace:
    """Incrementally maintained row space with exact membership tests,
    over Q or, given a prime `modulus` p, over F_p.

    Over Q the entries become Fractions; over F_p they are ints reduced
    into [0, p).  Rows are kept in reduced echelon form: the pivot of each
    stored row is its first nonzero entry, normalised to 1, and every
    other row is zero in that column.  Feeding rows to a fresh space and
    reading `rank` is the rank of a matrix.  Every vector must have
    exactly `ncols` entries.
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
        if len(vec) != self.ncols:
            raise ValueError(f"vector of length {len(vec)} in a row space"
                             f" of {self.ncols} columns")
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
    """Basis of {x : M x = 0} for the matrix with the given rows, one
    vector per free column of the reduced echelon form."""
    if ncols is None:
        if not rows:
            raise ValueError("need ncols for an empty matrix")
        ncols = len(rows[0])
    space = RowSpace(ncols)
    for row in rows:
        space.add(row)
    basis = []
    for fc in sorted(set(range(ncols)) - set(space._pivots)):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(space._rows, space._pivots):
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
    if any(len(row) != len(target) for row in basis_rows):
        raise ValueError("basis rows and target differ in length")
    nb = len(basis_rows)
    # one equation per coordinate: the unknowns, then the right-hand side
    system = RowSpace(nb + 1)
    for equation in zip(*basis_rows, target):
        system.add(equation)
    if nb in system._pivots:
        return "inconsistent", None
    if system.rank < nb:
        return "nonunique", None
    coeffs = [Fraction(0)] * nb
    for row, pc in zip(system._rows, system._pivots):
        coeffs[pc] = row[nb]
    return "ok", coeffs
