"""Exact linear algebra: fraction-free rank, row spaces, solving.

Inputs are lists of Fractions (or ints); no floating point.  `RowSpace`
is the one Gauss-Jordan routine: it keeps rows in reduced echelon form,
and null spaces read their answers off its pivots; `solve_in_span`
eliminates over its nb vectors, not over one equation per coordinate.
It is also every rank the certificates take, over F_p at a point and,
for a block short there, over Q at the same point.  Over Q it is
fraction-free: each row is stored as a primitive integer vector (content
1, positive pivot), and the exact Fraction values of the reduced echelon
form are read off as entry / pivot.  Because the form is reduced, a
vector is reduced in one pass: each pivot row's multiple is read off the
vector's own entry at that pivot, and the content (over F_p, the
residue) is taken once.  That clearing step, `_clear`, is the one
elimination routine: `add` back-substitutes a new row into each stored
row through it, with that one row hit.  The tests check `RowSpace`
against an independent Bareiss rank and its rows and reductions against
a row-by-row loop, `rank_exact` and `sequential_reduce` in
`tests/conftest.py`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import ring

__all__ = [
    "RowSpace",
    "nullspace",
    "solve_in_span",
    "ResourceLimit",
]


class ResourceLimit(RuntimeError):
    """A computation exceeded its configured size or time budget."""


def _integer_row(row):
    """row scaled by the lcm of its denominators: ints with the same span."""
    denom = lcm(*(x.denominator for x in row))
    return [x.numerator * (denom // x.denominator) for x in row]


def _primitive(vec):
    """vec divided by the gcd of its entries."""
    g = gcd(*vec)
    return vec if g <= 1 else [x // g for x in vec]


class RowSpace:
    """Incrementally maintained row space with exact membership tests,
    over Q or, given `modulus` PRIME = p, over F_p.

    Rows are kept in reduced echelon form: the pivot of each stored row
    is its first nonzero entry, and every other row is zero in that
    column.  Over F_p the entries are ints reduced into [0, p) and each
    pivot is 1.  Over Q each row is a primitive integer vector with a
    positive pivot, so the reduced echelon row is the stored row divided
    by its pivot entry.  Feeding rows to a fresh space and reading `rank`
    is the rank of a matrix.  Every vector must have exactly `ncols`
    entries; over F_p an entry a/b stands for a * b^-1 mod p.  No stored
    row touches another's pivot, so `_clear` reads every row's multiple
    off the vector before it subtracts any.
    """

    def __init__(self, ncols: int, modulus: int | None = None):
        if modulus not in (None, ring.PRIME):
            raise ValueError(f"modulus must be None or PRIME, got {modulus}")
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
        if m is None:
            return _integer_row(vec)
        return [x % m if type(x) is int else ring._residue(x) for x in vec]

    def _normalised(self, vec, p):
        """vec scaled so that its pivot vec[p] is 1 over F_p, positive over Q."""
        m = self.modulus
        if m is None:
            vec = _primitive(vec)
            return vec if vec[p] > 0 else [-x for x in vec]
        inv = pow(vec[p], -1, m)
        return [x * inv % m for x in vec]

    def _clear(self, vec, hits):
        """vec less a/row[p] times row for each hit (row, p, a), a = vec[p],
        the hit rows being zero on each other's pivots: over Q the primitive
        integer vector in c*vec + their span, c > 0; over F_p the residues."""
        m = self.modulus
        # the least s that makes every multiple s*a/row[p] an integer;
        # over F_p each pivot is 1.  vec is scaled in the first hit's pass;
        # unscaled, every pass starts at its row's pivot, zero before it
        s = 1 if m else lcm(*(row[p] // gcd(a, row[p]) for row, p, a in hits))
        if s == 1:
            vec, rest = vec[:], hits
        else:
            (row, p, a), *rest = hits
            t = s * a // row[p]
            vec = [s * x - t * y for x, y in zip(vec, row)]
        for row, p, a in rest:
            t = s * a // row[p]
            vec[p:] = [x - t * y for x, y in zip(vec[p:], row[p:])]
        return _primitive(vec) if m is None else [x % m for x in vec]

    def _reduce(self, vec):
        """vec cleared on every stored pivot by `_clear` (vec's integer row,
        or residues, if it hits no row)."""
        vec = self._entries(vec)
        hits = [(row, p, vec[p])
                for row, p in zip(self._rows, self._pivots) if vec[p]]
        return self._clear(vec, hits) if hits else vec

    def contains(self, vec) -> bool:
        return not any(self._reduce(vec))

    def add(self, vec) -> bool:
        """Insert vec; returns True when it enlarged the space."""
        red = self._reduce(vec)
        for p in range(self.ncols):
            if red[p]:
                red = self._normalised(red, p)
                # back-substitute into existing rows to stay reduced
                for i, row in enumerate(self._rows):
                    if row[p]:
                        self._rows[i] = self._clear(row, [(red, p, row[p])])
                self._rows.append(red)
                self._pivots.append(p)
                return True
        return False

    def basis(self):
        """The reduced echelon rows, as Fractions (pivots over F_p are 1)."""
        return [[Fraction(x, r[p]) for x in r]
                for r, p in zip(self._rows, self._pivots)]


def nullspace(rows, ncols):
    """Basis of {x : M x = 0} for the matrix with the given rows and ncols
    columns, one vector per free column of the reduced echelon form."""
    space = RowSpace(ncols)
    for row in rows:
        space.add(row)
    basis = []
    for fc in sorted(set(range(ncols)) - set(space._pivots)):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(space._rows, space._pivots):
            vec[pc] = Fraction(-row[fc], row[pc])
        basis.append(vec)
    return basis


def solve_in_span(basis_rows, target):
    """Express target as a combination of the given rows.

    Returns (status, coeffs) with status one of:
      "ok"           coeffs is the unique coefficient list
      "nonunique"    a solution exists but is not unique (rank defect)
      "inconsistent" target lies outside the span

    A row of another length than target's is refused (ValueError) by the
    row space it is fed to.
    """
    D, nb = len(target), len(basis_rows)
    # one row [b_i | e_i | 0] per vector; the probe [target | 0 | 1] then
    # reduces to s [target - sum c_i b_i | -c | 1], whose first D entries
    # vanish exactly when target is in the span
    space = RowSpace(D + nb + 1)
    for i, row in enumerate(basis_rows):
        space.add([*row, *(int(k == i) for k in range(nb)), 0])
    red = space._reduce([*target, *[0] * nb, 1])
    if any(red[:D]):
        return "inconsistent", None
    if sum(p < D for p in space._pivots) < nb:
        return "nonunique", None
    return "ok", [Fraction(-x, red[-1]) for x in red[D:-1]]
